//! `mce serve`: a crash-tolerant exploration job service.
//!
//! The daemon accepts exploration jobs over a hand-rolled HTTP/1.1
//! endpoint (`POST /jobs`), persists every lifecycle transition to a
//! durable write-ahead journal ([`journal`], `jobs.jsonl`), and executes
//! jobs one at a time through [`ExplorationSession`] with a per-job
//! checkpoint file — so a daemon killed mid-job restarts with every
//! queued and running job intact and *resumes* the interrupted job
//! rather than recomputing it. The finished report is byte-identical
//! (via `mce diff`) to a plain `mce explore` run of the same spec.
//!
//! The robustness contract, in order of line of defense:
//!
//! 1. **Durable queue** — a job is acknowledged only after its
//!    `Submitted` record is flushed and fsynced to the journal; replay
//!    on startup folds the journal back into the job table, dropping
//!    only a torn tail record (each line is digest-framed).
//! 2. **Checkpointed execution** — each running job checkpoints like
//!    `mce explore --checkpoint`; a crash between checkpoints loses at
//!    most the uncommitted work, never the job.
//! 3. **Deterministic retries** — a failed or deadline-timed-out job
//!    re-queues with exponential backoff ([`backoff_after`]) until its
//!    retry budget is spent, then parks in a terminal
//!    `failed`/`timed-out` state.
//! 4. **Graceful drain** — SIGTERM/SIGINT stops admissions, lets the
//!    running job stop at a safe point (checkpoint kept), journals a
//!    `Requeued` record (the drain is not charged to the retry budget),
//!    and exits 0. No job is ever lost or duplicated.
//! 5. **Hostile clients** — the request parser caps head and body
//!    sizes, enforces read deadlines against slow-loris dribble, and
//!    answers malformed input with typed JSON errors instead of dying.
//!
//! [`ExplorationSession`]: crate::session::ExplorationSession

pub mod client;
pub mod daemon;
pub mod http;
pub mod journal;

pub use client::Client;
pub use daemon::{run_daemon, ServeConfig};
pub use journal::{replay, JobEvent, JobJournal, JobRecord, JobSpec, JobState, JOURNAL_SCHEMA};

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version of the serve-directory layout (journal header key
/// `"mce_job"`, status file key `"serve_schema"`).
pub const SERVE_SCHEMA: u64 = 1;

// ---------------------------------------------------------------------------
// Serve-directory layout
// ---------------------------------------------------------------------------

/// The write-ahead job journal: `<dir>/jobs.jsonl`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("jobs.jsonl")
}

/// The daemon's pidfile: `<dir>/serve.pid`.
pub fn pid_path(dir: &Path) -> PathBuf {
    dir.join("serve.pid")
}

/// The bound listen address, written after the socket is live (so
/// `--addr 127.0.0.1:0` publishes the ephemeral port): `<dir>/serve.addr`.
pub fn addr_path(dir: &Path) -> PathBuf {
    dir.join("serve.addr")
}

/// The daemon's event log: `<dir>/serve.log`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("serve.log")
}

/// The daemon's live summary (`serve_schema` JSON, rendered by
/// `mce top <dir>`): `<dir>/serve.json`.
pub fn status_path(dir: &Path) -> PathBuf {
    dir.join("serve.json")
}

/// A job's crash-safety checkpoint: `<dir>/job-N.ck.json`.
pub fn job_checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ck.json"))
}

/// A completed job's run report: `<dir>/job-N.report.json`.
pub fn job_report_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.report.json"))
}

/// A running job's live-status file: `<dir>/job-N.status.json`.
pub fn job_status_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.status.json"))
}

/// Exponential retry backoff: the delay before the `attempt`-th retry is
/// `base * 2^(attempt-1)`, saturating at `cap`. Deterministic — no
/// jitter — so retry timelines are reproducible in tests. The daemon
/// spaces job retries with it and the client its reconnects.
pub fn backoff_after(attempt: u32, base: Duration, cap: Duration) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    // 2^exp saturates well past any real cap; 30 doublings of even 1ms
    // exceed 12 days.
    let exp = attempt.saturating_sub(1).min(30);
    cap.min(base.saturating_mul(1u32 << exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_cap() {
        let base = Duration::from_millis(250);
        let cap = Duration::from_millis(5000);
        assert_eq!(backoff_after(0, base, cap), Duration::ZERO);
        assert_eq!(backoff_after(1, base, cap), Duration::from_millis(250));
        assert_eq!(backoff_after(2, base, cap), Duration::from_millis(500));
        assert_eq!(backoff_after(3, base, cap), Duration::from_millis(1000));
        assert_eq!(backoff_after(4, base, cap), Duration::from_millis(2000));
        assert_eq!(backoff_after(5, base, cap), Duration::from_millis(4000));
        assert_eq!(backoff_after(6, base, cap), cap, "saturates");
        assert_eq!(
            backoff_after(60, base, cap),
            cap,
            "no overflow far past the cap"
        );
    }
}
