//! The durable write-ahead job journal (`jobs.jsonl`).
//!
//! Every job lifecycle transition is one self-contained, digest-framed
//! JSON line:
//!
//! ```text
//! {"mce_job":1,"digest":"<fnv128(event)>","event":{"Submitted":{...}}}
//! ```
//!
//! Appends are a single `write` of the whole line followed by an fsync,
//! so a crash leaves at worst one torn line at the tail. Replay parses
//! the file strictly and positionally — header prefix, 32 hex digest
//! digits, framed event body, digest verification, then the typed
//! parse — and stops at the *first* invalid line, dropping it and
//! everything after it (write-ahead-log tail-drop semantics). A flipped
//! bit or truncated write can therefore lose the damaged tail records,
//! but can never mis-parse into a different job spec or state.
//!
//! The in-memory job table is the [`fold`] of the surviving event
//! prefix; a daemon that replays the journal after a SIGKILL sees every
//! acknowledged job exactly as it was journaled.

use mce_appmodel::Workload;
use mce_error::MceError;
use mce_obs::{fnv128, json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Version of the journal line format, pinned into every line's
/// `"mce_job"` header key.
pub const JOURNAL_SCHEMA: u64 = 1;

/// One exploration job as submitted by a client. The workload is
/// inlined (the client resolves builtin names and files before
/// submitting), so the daemon never reads client-side paths.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The workload to explore, fully inlined.
    pub workload: Workload,
    /// Exploration scale (`fast` / `paper`), parsed at execution time.
    pub preset: String,
    /// Worker threads for the job's session (0 = the session default).
    pub threads: usize,
    /// Logical evaluation budget; 0 = unlimited.
    pub max_evals: u64,
    /// Phase-I architecture budget; 0 = unlimited.
    pub max_archs: usize,
    /// Per-attempt wall-clock deadline in milliseconds; 0 = none. A
    /// deadlined attempt stops at a safe point with its checkpoint kept,
    /// so retried attempts accumulate progress.
    pub deadline_ms: u64,
    /// Retries allowed after a failure or deadline timeout (crashes and
    /// drains are not charged).
    pub retry_budget: u32,
}

mce_obs::json_codec! {
    struct JobSpec { workload, preset, threads, max_evals, max_archs, deadline_ms, retry_budget }
}

/// A job's current state, folded from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the executor (fresh, retrying, or recovered).
    Queued,
    /// Claimed by the executor.
    Running,
    /// Finished; the report is on disk and archived.
    Done,
    /// Exhausted its retries on errors.
    Failed,
    /// Exhausted its retries on deadline timeouts.
    TimedOut,
    /// Cancelled by a client.
    Canceled,
}

impl JobState {
    /// Stable lower-case label used in summaries and status files.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timed-out",
            JobState::Canceled => "canceled",
        }
    }

    /// Whether the state is terminal (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::TimedOut | JobState::Canceled
        )
    }
}

/// One journaled lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// A client's job was accepted; the acknowledgement is sent only
    /// after this record is fsynced.
    Submitted {
        /// The job id (assigned by the daemon, strictly increasing).
        id: u64,
        /// The full spec, inlined.
        spec: JobSpec,
    },
    /// The executor picked the job up.
    Started {
        /// The job id.
        id: u64,
        /// 1-based attempt number. After a crash or drain the same
        /// attempt number can recur — recoveries are not charged.
        attempt: u32,
        /// The executing daemon's pid, for post-mortem correlation.
        pid: u32,
    },
    /// The job finished; its report is on disk.
    Done {
        /// The job id.
        id: u64,
    },
    /// Terminal failure (retry budget exhausted on errors).
    Failed {
        /// The job id.
        id: u64,
        /// The final error.
        error: String,
    },
    /// Terminal deadline timeout (retry budget exhausted on deadlines).
    TimedOut {
        /// The job id.
        id: u64,
    },
    /// A failed or timed-out attempt went back to the queue; one retry
    /// was charged.
    Retrying {
        /// The job id.
        id: u64,
        /// Why the attempt did not finish.
        reason: String,
    },
    /// A client cancelled the job.
    Canceled {
        /// The job id.
        id: u64,
    },
    /// A drain or crash recovery returned a running job to the queue
    /// *without* charging the retry budget.
    Requeued {
        /// The job id.
        id: u64,
    },
}

mce_obs::json_codec! {
    enum JobEvent {
        Submitted { id, spec },
        Started { id, attempt, pid },
        Done { id },
        Failed { id, error },
        TimedOut { id },
        Retrying { id, reason },
        Canceled { id },
        Requeued { id },
    }
}

impl JobEvent {
    /// The id of the job this event belongs to.
    pub fn id(&self) -> u64 {
        match *self {
            JobEvent::Submitted { id, .. }
            | JobEvent::Started { id, .. }
            | JobEvent::Done { id }
            | JobEvent::Failed { id, .. }
            | JobEvent::TimedOut { id }
            | JobEvent::Retrying { id, .. }
            | JobEvent::Canceled { id }
            | JobEvent::Requeued { id } => id,
        }
    }
}

/// A job's folded state: the [`fold`] of its journal events.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Attempts charged against the retry budget so far.
    pub attempts: u32,
    /// The most recent error or timeout reason, if any.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

const LINE_PREFIX: &str = "{\"mce_job\":1,\"digest\":\"";
const LINE_MID: &str = "\",\"event\":";

/// Frames one event as a digest-checked journal line (with trailing
/// newline).
pub fn frame_line(event: &JobEvent) -> String {
    debug_assert_eq!(JOURNAL_SCHEMA, 1, "LINE_PREFIX pins the schema");
    let body = json::to_string(event);
    format!(
        "{LINE_PREFIX}{}{LINE_MID}{body}}}\n",
        fnv128(body.as_bytes())
    )
}

/// Parses one journal line (without its trailing newline) strictly and
/// positionally; any deviation — wrong prefix, malformed digest, digest
/// mismatch, trailing garbage, unparseable event — is an error.
///
/// # Errors
///
/// Returns [`MceError::Checkpoint`] describing the first violation.
pub fn parse_line(line: &str) -> Result<JobEvent, MceError> {
    let rest = line
        .strip_prefix(LINE_PREFIX)
        .ok_or_else(|| MceError::checkpoint("journal line: missing header"))?;
    let (digest, rest) = rest
        .split_at_checked(32)
        .ok_or_else(|| MceError::checkpoint("journal line: truncated digest"))?;
    if !digest.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(MceError::checkpoint("journal line: digest is not hex"));
    }
    let rest = rest
        .strip_prefix(LINE_MID)
        .ok_or_else(|| MceError::checkpoint("journal line: malformed frame"))?;
    let body = rest
        .strip_suffix('}')
        .ok_or_else(|| MceError::checkpoint("journal line: unterminated frame"))?;
    if fnv128(body.as_bytes()) != digest {
        return Err(MceError::checkpoint("journal line: digest mismatch"));
    }
    json::from_str(body)
        .map_err(|e| MceError::checkpoint(format!("journal line: invalid event: {e}")))
}

/// Replays a journal file: the longest valid prefix of events, plus the
/// number of dropped (damaged-tail) lines. A missing file is an empty
/// journal.
///
/// # Errors
///
/// Returns [`MceError::Io`] only for real read failures — corruption is
/// handled by tail-dropping, not by erroring the daemon out.
pub fn replay(path: &Path) -> Result<(Vec<JobEvent>, usize), MceError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(MceError::io(format!("read journal {}", path.display()), e)),
    };
    let mut events = Vec::new();
    let lines: Vec<&str> = text.split('\n').filter(|line| !line.is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        match parse_line(line) {
            Ok(event) => events.push(event),
            Err(_) => return Ok((events, lines.len() - i)),
        }
    }
    Ok((events, 0))
}

/// Folds an event sequence into the job table. Events referencing an id
/// never submitted are ignored (they can only follow journal damage
/// that replay already tail-dropped, but the fold stays total).
pub fn fold(events: &[JobEvent]) -> BTreeMap<u64, JobRecord> {
    let mut jobs: BTreeMap<u64, JobRecord> = BTreeMap::new();
    for event in events {
        if let JobEvent::Submitted { id, spec } = event {
            jobs.insert(
                *id,
                JobRecord {
                    id: *id,
                    spec: spec.clone(),
                    state: JobState::Queued,
                    attempts: 0,
                    error: None,
                },
            );
            continue;
        }
        let Some(job) = jobs.get_mut(&event.id()) else {
            continue;
        };
        match event {
            JobEvent::Submitted { .. } => unreachable!("handled above"),
            JobEvent::Started { attempt, .. } => {
                job.state = JobState::Running;
                job.attempts = *attempt;
            }
            JobEvent::Done { .. } => job.state = JobState::Done,
            JobEvent::Failed { error, .. } => {
                job.state = JobState::Failed;
                job.error = Some(error.clone());
            }
            JobEvent::TimedOut { .. } => {
                job.state = JobState::TimedOut;
                job.error = Some("deadline exceeded".to_owned());
            }
            JobEvent::Retrying { reason, .. } => {
                job.state = JobState::Queued;
                job.error = Some(reason.clone());
            }
            JobEvent::Canceled { .. } => job.state = JobState::Canceled,
            JobEvent::Requeued { .. } => {
                // Crash/drain recovery: back to the queue, the started
                // attempt uncharged.
                job.state = JobState::Queued;
                job.attempts = job.attempts.saturating_sub(1);
            }
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// The append handle
// ---------------------------------------------------------------------------

/// The daemon's append handle to `jobs.jsonl`: one fsynced write per
/// event, serialized by an internal mutex.
pub struct JobJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl JobJournal {
    /// Opens (creating if needed) the journal for appending.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] when the file cannot be opened.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, MceError> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| MceError::io(format!("open journal {}", path.display()), e))?;
        Ok(JobJournal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Appends one event: a single write of the framed line, flushed
    /// and fsynced before returning — the durability point every
    /// acknowledgement waits on.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] when the write or sync fails; the
    /// journal may then hold a torn line, which replay tail-drops.
    pub fn append(&self, event: &JobEvent) -> Result<(), MceError> {
        let line = frame_line(event);
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let ctx = || format!("append journal {}", self.path.display());
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_all())
            .map_err(|e| MceError::io(ctx(), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    fn spec() -> JobSpec {
        JobSpec {
            workload: benchmarks::vocoder(),
            preset: "fast".to_owned(),
            threads: 1,
            max_evals: 0,
            max_archs: 0,
            deadline_ms: 0,
            retry_budget: 2,
        }
    }

    #[test]
    fn events_round_trip_through_the_line_frame() {
        let events = [
            JobEvent::Submitted {
                id: 1,
                spec: spec(),
            },
            JobEvent::Started {
                id: 1,
                attempt: 1,
                pid: 123,
            },
            JobEvent::Retrying {
                id: 1,
                reason: "deadline".to_owned(),
            },
            JobEvent::Done { id: 1 },
        ];
        for event in &events {
            let line = frame_line(event);
            assert!(line.ends_with('\n'));
            assert_eq!(&parse_line(line.trim_end()).unwrap(), event);
        }
    }

    #[test]
    fn replay_tail_drops_from_the_first_damaged_line() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mce_journal_{}.jsonl", std::process::id()));
        let good = [
            JobEvent::Submitted {
                id: 1,
                spec: spec(),
            },
            JobEvent::Started {
                id: 1,
                attempt: 1,
                pid: 9,
            },
            JobEvent::Done { id: 1 },
        ];
        let journal = JobJournal::open(&path).unwrap();
        for event in &good {
            journal.append(event).unwrap();
        }
        let (events, dropped) = replay(&path).unwrap();
        assert_eq!(events, good);
        assert_eq!(dropped, 0);

        // Corrupt the middle line: it and everything after it drop.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[1] = lines[1].replace("\"attempt\"", "\"attackt\"");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let (events, dropped) = replay(&path).unwrap();
        assert_eq!(events, good[..1]);
        assert_eq!(dropped, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fold_tracks_the_lifecycle_and_uncharges_recoveries() {
        let events = vec![
            JobEvent::Submitted {
                id: 1,
                spec: spec(),
            },
            JobEvent::Started {
                id: 1,
                attempt: 1,
                pid: 9,
            },
            JobEvent::Requeued { id: 1 }, // crash recovery: uncharged
            JobEvent::Started {
                id: 1,
                attempt: 1,
                pid: 10,
            },
            JobEvent::Retrying {
                id: 1,
                reason: "deadline exceeded".to_owned(),
            },
            JobEvent::Started {
                id: 1,
                attempt: 2,
                pid: 10,
            },
            JobEvent::Done { id: 1 },
            JobEvent::Submitted {
                id: 2,
                spec: spec(),
            },
            JobEvent::Canceled { id: 2 },
        ];
        let jobs = fold(&events);
        assert_eq!(jobs[&1].state, JobState::Done);
        assert_eq!(jobs[&1].attempts, 2);
        assert_eq!(jobs[&2].state, JobState::Canceled);
        // A journal cut right after the first Started leaves the job
        // running; the daemon requeues it on startup.
        let jobs = fold(&events[..2]);
        assert_eq!(jobs[&1].state, JobState::Running);
        assert_eq!(jobs[&1].attempts, 1);
    }
}
