//! The `mce serve` daemon: pidfile, listener, request routing, the job
//! executor, and graceful drain.
//!
//! One executor thread runs jobs strictly in submission order (lowest
//! id first, honoring retry backoff), each through an
//! [`ExplorationSession`] carrying a per-job [`CancelToken`] that
//! encodes the job's deadline *and* watches the process-wide
//! termination flag — so a single SIGTERM/SIGINT drains the daemon and
//! stops the running job at its next safe point, checkpoint intact.
//!
//! Every acknowledgement the HTTP edge sends is backed by an fsynced
//! journal record first; the daemon can be SIGKILLed at any instant and
//! the restart replays the journal back to the exact acknowledged
//! state, requeueing (not recomputing) whatever was running.

use super::journal::{fold, JobEvent, JobJournal, JobRecord, JobSpec, JobState};
use super::{
    addr_path, backoff_after, http, job_checkpoint_path, job_report_path, job_status_path,
    journal_path, log_path, pid_path, status_path, SERVE_SCHEMA,
};
use crate::archive::RunArchive;
use crate::session::ExplorationSession;
use mce_budget::{CancelReason, CancelToken};
use mce_error::{atomic_write, sweep_stale_tmps, MceError};
use mce_obs::{escape_json, json};
use mce_sim::Preset;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything `mce serve` needs to run one daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The serve directory: journal, pidfile, per-job files, log.
    pub dir: PathBuf,
    /// Listen address. The default `127.0.0.1:0` binds an ephemeral
    /// port; the *bound* address is published to `serve.addr`.
    pub addr: String,
    /// The run archive completed job reports are added to.
    pub archive: PathBuf,
    /// First-retry backoff delay (doubles per charged attempt).
    pub backoff_base: Duration,
    /// Backoff saturation cap.
    pub backoff_cap: Duration,
    /// Per-socket read deadline (slow-loris guard).
    pub read_deadline: Duration,
}

impl ServeConfig {
    /// A config with the service defaults: loopback ephemeral port,
    /// `target/mce-runs` archive, 250 ms backoff doubling to 5 s, 2 s
    /// read deadline.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            addr: "127.0.0.1:0".to_owned(),
            archive: PathBuf::from("target/mce-runs"),
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_millis(5000),
            read_deadline: http::READ_DEADLINE,
        }
    }
}

struct ServeLog {
    file: std::fs::File,
    started: Instant,
}

impl ServeLog {
    fn open(path: &Path) -> Result<Self, MceError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| MceError::io(format!("open serve log {}", path.display()), e))?;
        Ok(ServeLog {
            file,
            started: Instant::now(),
        })
    }

    fn line(&mut self, msg: &str) {
        let ms = self.started.elapsed().as_millis();
        let _ = writeln!(self.file, "[{ms:>7} ms] {msg}");
        let _ = self.file.flush();
    }
}

/// A job's folded record plus the executor's runtime bits.
struct JobView {
    record: JobRecord,
    /// The running attempt's token (present only while running).
    token: Option<CancelToken>,
    /// A client asked for cancellation; the next interrupt-truncated
    /// outcome is `Canceled`, not a drain `Requeued`.
    cancel_requested: bool,
    /// Retry backoff gate.
    backoff_until: Option<Instant>,
}

struct Shared {
    cfg: ServeConfig,
    journal: JobJournal,
    jobs: Mutex<BTreeMap<u64, JobView>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    log: Mutex<ServeLog>,
}

impl Shared {
    fn log(&self, msg: &str) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .line(msg);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }
}

/// Whether `pid` names a live process. Conservatively `true` off Linux:
/// a doubtful pidfile then refuses the double-start instead of risking
/// two daemons on one journal.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Runs the daemon until a termination signal drains it.
///
/// # Errors
///
/// Fails on startup problems only — another live daemon owning the
/// pidfile, an unbindable address, an unopenable journal. Once serving,
/// faults are answered, logged, retried or journaled; they do not bring
/// the daemon down.
pub fn run_daemon(cfg: ServeConfig) -> Result<(), MceError> {
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|e| MceError::io(format!("create serve dir {}", cfg.dir.display()), e))?;
    sweep_stale_tmps(status_path(&cfg.dir));
    let mut log = ServeLog::open(&log_path(&cfg.dir))?;

    // Pidfile with stale-lock detection: refuse a double-start against
    // a live daemon, recover silently from a crashed one's leftovers.
    let pidfile = pid_path(&cfg.dir);
    if let Ok(text) = std::fs::read_to_string(&pidfile) {
        match text.trim().parse::<u32>() {
            Ok(pid) if pid_alive(pid) => {
                return Err(MceError::invalid_input(format!(
                    "a daemon (pid {pid}) already serves {}; stop it first",
                    cfg.dir.display()
                )));
            }
            _ => log.line(&format!(
                "recovered stale pidfile (`{}`): previous daemon is gone",
                text.trim()
            )),
        }
    }
    let pid = std::process::id();
    atomic_write(&pidfile, format!("{pid}\n").as_bytes())?;

    // From here on SIGTERM and SIGINT mean "drain", observed at the
    // accept loop and by every running job's cancel token.
    mce_budget::clear_interrupt();
    mce_budget::install_termination_handlers();

    // Replay the journal: the acknowledged world, minus any torn tail.
    let (events, dropped) = super::journal::replay(&journal_path(&cfg.dir))?;
    if dropped > 0 {
        log.line(&format!(
            "journal replay dropped {dropped} damaged tail record(s)"
        ));
    }
    let records = fold(&events);
    let journal = JobJournal::open(journal_path(&cfg.dir))?;
    let next_id = records.keys().max().copied().unwrap_or(0) + 1;
    let mut jobs: BTreeMap<u64, JobView> = BTreeMap::new();
    let mut recovered = 0usize;
    for (id, mut record) in records {
        // A job journaled as running means the previous daemon died
        // mid-job: requeue it explicitly (uncharged) so the recovery is
        // itself journaled, then resume from its checkpoint.
        if record.state == JobState::Running {
            journal.append(&JobEvent::Requeued { id })?;
            record.state = JobState::Queued;
            record.attempts = record.attempts.saturating_sub(1);
            recovered += 1;
        }
        jobs.insert(
            id,
            JobView {
                record,
                token: None,
                cancel_requested: false,
                backoff_until: None,
            },
        );
    }
    log.line(&format!(
        "serve start: pid {pid}, {} job(s) replayed ({recovered} recovered mid-run)",
        jobs.len()
    ));

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| MceError::io(format!("bind {}", cfg.addr), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| MceError::io("resolve bound address", e))?
        .to_string();
    atomic_write(addr_path(&cfg.dir), format!("{addr}\n").as_bytes())?;
    listener
        .set_nonblocking(true)
        .map_err(|e| MceError::io("set listener nonblocking", e))?;
    log.line(&format!("listening on {addr}"));
    eprintln!("mce serve: listening on {addr} (dir {})", cfg.dir.display());

    let shared = Arc::new(Shared {
        cfg,
        journal,
        jobs: Mutex::new(jobs),
        next_id: AtomicU64::new(next_id),
        draining: AtomicBool::new(false),
        log: Mutex::new(log),
    });
    write_status(&shared, &addr);
    let executor = {
        let shared = shared.clone();
        std::thread::spawn(move || executor_loop(&shared))
    };

    // The accept loop. On a termination signal it flips to draining —
    // still answering requests (health checks see the drain, admissions
    // are refused) — and exits once the executor has wound down.
    let mut last_status = Instant::now();
    loop {
        if mce_budget::interrupted() && !shared.draining() {
            shared.draining.store(true, Ordering::Relaxed);
            shared.log("drain: stop admitting; waiting for the running job's safe point");
            write_status(&shared, &addr);
        }
        if shared.draining() && executor.is_finished() {
            break;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let shared = shared.clone();
                std::thread::spawn(move || handle_connection(&shared, stream, &peer.to_string()));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                shared.log(&format!("accept failed: {e}"));
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        if last_status.elapsed() >= Duration::from_millis(500) {
            write_status(&shared, &addr);
            last_status = Instant::now();
        }
    }
    let _ = executor.join();
    write_status(&shared, &addr);
    let _ = std::fs::remove_file(addr_path(&shared.cfg.dir));
    let _ = std::fs::remove_file(pid_path(&shared.cfg.dir));
    shared.log("drained: journal flushed, pidfile removed, exiting 0");
    eprintln!("mce serve: drained cleanly");
    Ok(())
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

enum RunOutcome {
    /// The session finished (or hit the bound the spec asked for).
    Finished { report: String },
    /// The per-job deadline tripped; progress is checkpointed.
    Deadline,
    /// The token was cancelled (client cancel or daemon drain).
    Interrupted,
    /// The session errored.
    Failed(String),
}

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        // Check the raw termination flag too, not just `draining` — the
        // accept loop flips that a poll later, and the gap would let the
        // executor pick the just-requeued job back up for one futile
        // Started/Requeued round.
        if shared.draining() || mce_budget::interrupted() {
            // Queued jobs stay journaled as queued — nothing to do.
            break;
        }
        let picked = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            let now = Instant::now();
            let id = jobs
                .iter()
                .filter(|(_, v)| v.record.state == JobState::Queued)
                .filter(|(_, v)| v.backoff_until.is_none_or(|until| now >= until))
                .map(|(id, _)| *id)
                .next();
            id.map(|id| {
                let view = jobs.get_mut(&id).expect("picked from this map");
                let attempt = view.record.attempts + 1;
                (id, view.record.spec.clone(), attempt)
            })
        };
        let Some((id, spec, attempt)) = picked else {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        if let Err(e) = shared.journal.append(&JobEvent::Started {
            id,
            attempt,
            pid: std::process::id(),
        }) {
            // The pickup is not durable: leave the job queued and try
            // again later rather than running work the journal lost.
            shared.log(&format!("job {id}: journal write failed ({e}); holding"));
            std::thread::sleep(Duration::from_millis(500));
            continue;
        }
        let deadline = (spec.deadline_ms > 0).then(|| Duration::from_millis(spec.deadline_ms));
        let token = CancelToken::bounded(deadline, true);
        {
            let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(view) = jobs.get_mut(&id) {
                view.record.state = JobState::Running;
                view.record.attempts = attempt;
                view.token = Some(token.clone());
                view.backoff_until = None;
            }
        }
        shared.log(&format!(
            "job {id}: started attempt {attempt} (workload `{}`, preset {})",
            spec.workload.name(),
            spec.preset
        ));
        let outcome = run_job(shared, id, &spec, &token);
        settle_job(shared, id, &spec, attempt, outcome);
    }
}

/// Runs one attempt. The fault hook fires at pickup: `die_at_job`
/// SIGKILLs the daemon here — after the `Started` record, before any
/// progress — and `stall_job` wedges the attempt on its token exactly
/// as a hung exploration would.
fn run_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec, token: &CancelToken) -> RunOutcome {
    #[cfg(feature = "fault-injection")]
    if mce_faultinject::on_job() {
        shared.log(&format!("job {id}: stalled by fault injection"));
        while !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    if token.is_cancelled() {
        return match token.reason() {
            Some(CancelReason::Deadline) => RunOutcome::Deadline,
            _ => RunOutcome::Interrupted,
        };
    }
    let preset: Preset = match spec.preset.parse() {
        Ok(preset) => preset,
        Err(e) => return RunOutcome::Failed(format!("invalid preset `{}`: {e}", spec.preset)),
    };
    // Each attempt gets a fresh metrics registry behind a null sink
    // (install resets the registries), so the job's report carries the
    // same counters a serial `mce explore --report-out` records.
    mce_obs::install(std::sync::Arc::new(mce_obs::NullSink::new()));
    let dir = &shared.cfg.dir;
    let mut session = ExplorationSession::new(spec.workload.clone())
        .preset(preset)
        .checkpoint_file(job_checkpoint_path(dir, id))
        .checkpoint_every(1)
        .live_status_file(job_status_path(dir, id))
        .cancel_token(token.clone());
    if spec.threads > 0 {
        session = session.threads(spec.threads);
    }
    if spec.max_evals > 0 {
        session = session.max_evals(spec.max_evals);
    }
    if spec.max_archs > 0 {
        session = session.max_archs(spec.max_archs);
    }
    let outcome = match session.run() {
        Ok(result) => match result.conex.stop_reason() {
            // The spec's own logical bounds are the job's definition of
            // done; wall-clock truncations are not.
            None | Some("max-evals") | Some("max-archs") => RunOutcome::Finished {
                report: result.report.to_json(),
            },
            Some("deadline") => RunOutcome::Deadline,
            Some(_) => RunOutcome::Interrupted,
        },
        Err(e) => RunOutcome::Failed(e.to_string()),
    };
    mce_obs::uninstall();
    outcome
}

/// Journals and applies one attempt's outcome.
fn settle_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec, attempt: u32, outcome: RunOutcome) {
    let cancel_requested = {
        let jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.get(&id).is_some_and(|v| v.cancel_requested)
    };
    let dir = shared.cfg.dir.clone();
    let (event, state, attempts_back, backoff) = match outcome {
        RunOutcome::Finished { report } => {
            if let Err(e) = atomic_write(job_report_path(&dir, id), report.as_bytes()) {
                // No durable report, no Done: charge the attempt.
                let msg = format!("cannot write report: {e}");
                shared.log(&format!("job {id}: {msg}"));
                retry_or_fail(shared, id, spec, attempt, msg);
                return;
            }
            match RunArchive::open(&shared.cfg.archive).add(&report) {
                Ok(added) => shared.log(&format!(
                    "job {id}: done (report archived as {}{})",
                    added.digest,
                    if added.duplicate { ", duplicate" } else { "" }
                )),
                Err(e) => shared.log(&format!("job {id}: done (archive add failed: {e})")),
            }
            let _ = std::fs::remove_file(job_checkpoint_path(&dir, id));
            (JobEvent::Done { id }, JobState::Done, false, None)
        }
        RunOutcome::Deadline => {
            if attempt <= spec.retry_budget {
                let delay = backoff_after(attempt, shared.cfg.backoff_base, shared.cfg.backoff_cap);
                shared.log(&format!(
                    "job {id}: attempt {attempt} hit its deadline; retrying in {} ms \
                     (checkpoint kept)",
                    delay.as_millis()
                ));
                (
                    JobEvent::Retrying {
                        id,
                        reason: "deadline exceeded".to_owned(),
                    },
                    JobState::Queued,
                    false,
                    Some(Instant::now() + delay),
                )
            } else {
                shared.log(&format!(
                    "job {id}: timed out terminally after {attempt} attempt(s)"
                ));
                (JobEvent::TimedOut { id }, JobState::TimedOut, false, None)
            }
        }
        RunOutcome::Interrupted if cancel_requested => {
            let _ = std::fs::remove_file(job_checkpoint_path(&dir, id));
            shared.log(&format!("job {id}: cancelled by client"));
            (JobEvent::Canceled { id }, JobState::Canceled, false, None)
        }
        RunOutcome::Interrupted => {
            // Drain: back to the queue, uncharged, checkpoint kept.
            shared.log(&format!(
                "job {id}: requeued by drain at a safe point (checkpoint kept)"
            ));
            (JobEvent::Requeued { id }, JobState::Queued, true, None)
        }
        RunOutcome::Failed(error) => {
            retry_or_fail(shared, id, spec, attempt, error);
            return;
        }
    };
    if let Err(e) = shared.journal.append(&event) {
        shared.log(&format!("job {id}: journal write failed ({e})"));
    }
    let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(view) = jobs.get_mut(&id) {
        view.record.state = state;
        if state == JobState::TimedOut {
            view.record.error = Some("deadline exceeded".to_owned());
        }
        if attempts_back {
            view.record.attempts = view.record.attempts.saturating_sub(1);
        }
        view.token = None;
        view.backoff_until = backoff;
    }
}

fn retry_or_fail(shared: &Arc<Shared>, id: u64, spec: &JobSpec, attempt: u32, error: String) {
    let (event, state, backoff) = if attempt <= spec.retry_budget {
        let delay = backoff_after(attempt, shared.cfg.backoff_base, shared.cfg.backoff_cap);
        shared.log(&format!(
            "job {id}: attempt {attempt} failed ({error}); retrying in {} ms",
            delay.as_millis()
        ));
        (
            JobEvent::Retrying {
                id,
                reason: error.clone(),
            },
            JobState::Queued,
            Some(Instant::now() + delay),
        )
    } else {
        shared.log(&format!(
            "job {id}: failed terminally after {attempt} attempt(s): {error}"
        ));
        (
            JobEvent::Failed {
                id,
                error: error.clone(),
            },
            JobState::Failed,
            None,
        )
    };
    if let Err(e) = shared.journal.append(&event) {
        shared.log(&format!("job {id}: journal write failed ({e})"));
    }
    let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(view) = jobs.get_mut(&id) {
        view.record.state = state;
        view.record.error = Some(error);
        view.token = None;
        view.backoff_until = backoff;
    }
}

// ---------------------------------------------------------------------------
// The HTTP edge
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, peer: &str) {
    let request = match http::read_request(&mut stream, shared.cfg.read_deadline) {
        Ok(request) => request,
        Err(err) => {
            shared.log(&format!("{peer}: rejected request ({})", err.detail));
            http::write_error(&mut stream, &err);
            return;
        }
    };
    let (status, body) = route(shared, &request);
    http::write_response(&mut stream, status, "application/json", &body);
}

fn route(shared: &Arc<Shared>, request: &http::Request) -> (u16, String) {
    let path = request.path.as_str();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (
            200,
            format!(
                "{{\"ok\":true,\"pid\":{},\"schema\":{SERVE_SCHEMA}}}\n",
                std::process::id()
            ),
        ),
        ("GET", ["readyz"]) => {
            if shared.draining() {
                (503, "{\"ready\":false,\"draining\":true}\n".to_owned())
            } else {
                (200, "{\"ready\":true}\n".to_owned())
            }
        }
        ("POST", ["jobs"]) => submit(shared, &request.body),
        ("GET", ["jobs"]) => {
            let jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            let mut out = String::new();
            for view in jobs.values() {
                out.push_str(&summary_json(&view.record));
                out.push('\n');
            }
            (200, out)
        }
        ("GET", ["jobs", id]) => with_job(shared, id, |view| (200, summary_json(&view.record))),
        ("POST", ["jobs", id, "cancel"]) => cancel(shared, id),
        ("GET", ["jobs", id, "result"]) => result(shared, id),
        (_, ["healthz" | "readyz" | "jobs", ..]) => {
            (405, error_json(405, "method not allowed for this path"))
        }
        _ => (404, error_json(404, &format!("no such endpoint `{path}`"))),
    }
}

fn submit(shared: &Arc<Shared>, body: &[u8]) -> (u16, String) {
    if shared.draining() {
        return (503, error_json(503, "draining: not admitting new jobs"));
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return (400, error_json(400, "job spec is not UTF-8")),
    };
    let spec: JobSpec = match json::from_str(text) {
        Ok(spec) => spec,
        Err(e) => {
            return (
                400,
                error_json(400, &MceError::json("job spec", e).to_string()),
            )
        }
    };
    if spec.preset.parse::<Preset>().is_err() {
        return (
            400,
            error_json(400, &format!("unknown preset `{}`", spec.preset)),
        );
    }
    if let Err(e) = spec.workload.validate() {
        return (400, error_json(400, &e.to_string()));
    }
    // Id assignment, the durable Submitted record and the table insert
    // happen under one lock so the journal's Submitted order matches
    // the id order.
    let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let event = JobEvent::Submitted {
        id,
        spec: spec.clone(),
    };
    if let Err(e) = shared.journal.append(&event) {
        shared.log(&format!("job {id}: admission journal write failed ({e})"));
        return (
            503,
            error_json(503, "journal write failed; job not accepted"),
        );
    }
    jobs.insert(
        id,
        JobView {
            record: JobRecord {
                id,
                spec: spec.clone(),
                state: JobState::Queued,
                attempts: 0,
                error: None,
            },
            token: None,
            cancel_requested: false,
            backoff_until: None,
        },
    );
    drop(jobs);
    shared.log(&format!(
        "job {id}: submitted (workload `{}`, preset {}, deadline {} ms, retries {})",
        spec.workload.name(),
        spec.preset,
        spec.deadline_ms,
        spec.retry_budget
    ));
    (200, format!("{{\"id\":{id},\"state\":\"queued\"}}\n"))
}

fn cancel(shared: &Arc<Shared>, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json(400, "job id is not a number"));
    };
    let mut jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(view) = jobs.get_mut(&id) else {
        return (404, error_json(404, &format!("no job {id}")));
    };
    match view.record.state {
        state if state.is_terminal() => (
            409,
            error_json(409, &format!("job {id} is already {}", state.as_str())),
        ),
        JobState::Running => {
            view.cancel_requested = true;
            if let Some(token) = &view.token {
                token.cancel(CancelReason::Interrupt);
            }
            shared.log(&format!("job {id}: cancellation requested"));
            (202, format!("{{\"id\":{id},\"state\":\"canceling\"}}\n"))
        }
        _ => {
            // Queued: cancel immediately and durably.
            if let Err(e) = shared.journal.append(&JobEvent::Canceled { id }) {
                shared.log(&format!("job {id}: cancel journal write failed ({e})"));
                return (503, error_json(503, "journal write failed; not cancelled"));
            }
            view.record.state = JobState::Canceled;
            shared.log(&format!("job {id}: cancelled while queued"));
            (200, format!("{{\"id\":{id},\"state\":\"canceled\"}}\n"))
        }
    }
}

fn result(shared: &Arc<Shared>, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json(400, "job id is not a number"));
    };
    let state = {
        let jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.get(&id) {
            Some(view) => view.record.state,
            None => return (404, error_json(404, &format!("no job {id}"))),
        }
    };
    if state != JobState::Done {
        return (
            409,
            error_json(409, &format!("job {id} is {}, not done", state.as_str())),
        );
    }
    match std::fs::read_to_string(job_report_path(&shared.cfg.dir, id)) {
        Ok(report) => (200, report),
        Err(e) => (
            409,
            error_json(409, &format!("report for job {id} unreadable: {e}")),
        ),
    }
}

fn with_job(
    shared: &Arc<Shared>,
    id: &str,
    f: impl FnOnce(&JobView) -> (u16, String),
) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json(400, "job id is not a number"));
    };
    let jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    match jobs.get(&id) {
        Some(view) => f(view),
        None => (404, error_json(404, &format!("no job {id}"))),
    }
}

fn error_json(status: u16, detail: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"status\":{status}}}\n",
        escape_json(detail)
    )
}

/// One job summary line (used for both `GET /jobs` and `GET /jobs/N`).
fn summary_json(record: &JobRecord) -> String {
    format!(
        "{{\"id\":{},\"workload\":\"{}\",\"preset\":\"{}\",\"state\":\"{}\",\"attempts\":{},\"error\":{}}}",
        record.id,
        escape_json(record.spec.workload.name()),
        escape_json(&record.spec.preset),
        record.state.as_str(),
        record.attempts,
        record
            .error
            .as_deref()
            .map_or("null".to_owned(), |e| format!("\"{}\"", escape_json(e))),
    )
}

/// Publishes `serve.json`: the atomically-rewritten live summary
/// `mce top <dir>` renders.
fn write_status(shared: &Arc<Shared>, addr: &str) {
    let jobs = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner);
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut running: Option<u64> = None;
    for view in jobs.values() {
        *counts.entry(view.record.state.as_str()).or_insert(0) += 1;
        if view.record.state == JobState::Running {
            running = Some(view.record.id);
        }
    }
    let total = jobs.len();
    drop(jobs);
    let counts_json = counts
        .iter()
        .map(|(state, n)| format!("\"{state}\":{n}"))
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        "{{\"serve_schema\":{SERVE_SCHEMA},\"pid\":{},\"addr\":\"{}\",\"draining\":{},\
         \"total\":{total},\"running\":{},\"jobs\":{{{counts_json}}}}}\n",
        std::process::id(),
        escape_json(addr),
        shared.draining(),
        running.map_or("null".to_owned(), |id| id.to_string()),
    );
    let _ = atomic_write(status_path(&shared.cfg.dir), body.as_bytes());
}
