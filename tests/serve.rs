//! The job service end to end, against the real `mce` binary: a
//! submitted job must produce the same report a plain `mce explore`
//! does (`mce diff` exit 0), a daemon SIGKILLed mid-exploration must
//! finish the job from its checkpoint after a restart, a SIGTERM must
//! drain gracefully (exit 0, running job requeued uncharged), deadline
//! timeouts must retry on the backoff schedule, and hostile HTTP input
//! must get typed errors without hurting the daemon. The binary is
//! built with the `fault-injection` feature through the package's
//! self-dev-dependency, so `MCE_FAULT` is live in the daemon.

use memory_conex::serve;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_serve_{}_{name}", std::process::id()))
}

fn show(out: &Output) -> String {
    format!(
        "status {:?}\n--- stdout ---\n{}--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The serial baseline: `mce explore` with the same preset, no faults.
fn serial_report(bin: &str, dir: &Path) -> PathBuf {
    let report = dir.join("serial.json");
    let out = Command::new(bin)
        .args(["explore", "vocoder", "--preset", "fast", "--report-out"])
        .arg(&report)
        .arg("--out-dir")
        .arg(dir.join("experiments"))
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary");
    assert!(out.status.success(), "serial run failed: {}", show(&out));
    report
}

/// Asserts the two reports are diff-clean: `mce diff` exits 0, meaning
/// every deterministic section is identical and only effort/wall-clock
/// context differs.
fn assert_diff_clean(bin: &str, a: &Path, b: &Path, what: &str) {
    let out = Command::new(bin)
        .arg("diff")
        .arg(a)
        .arg(b)
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary");
    assert!(
        out.status.success(),
        "{what}: reports differ:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One real daemon process over a test-private serve directory. Killed
/// on drop so a failing assertion never leaks a daemon.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns `mce serve` (optionally with a fault armed) and blocks
    /// until `/healthz` answers with *this* child's pid — which also
    /// proves a restart is not being confused with its predecessor.
    fn start(bin: &str, dir: &Path, fault: Option<&str>) -> Daemon {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--dir"])
            .arg(dir.join("serve"))
            .arg("--archive")
            .arg(dir.join("archive"))
            .args(["--backoff-base", "50", "--backoff-cap", "200"])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match fault {
            Some(spec) => {
                cmd.env("MCE_FAULT", spec);
            }
            None => {
                cmd.env_remove("MCE_FAULT");
            }
        }
        let child = cmd.spawn().expect("daemon spawns");
        let daemon = Daemon {
            child,
            dir: dir.to_path_buf(),
        };
        daemon.wait_ready();
        daemon
    }

    fn serve_dir(&self) -> PathBuf {
        self.dir.join("serve")
    }

    fn addr(&self) -> String {
        std::fs::read_to_string(serve::addr_path(&self.serve_dir()))
            .expect("serve.addr exists")
            .trim()
            .to_owned()
    }

    fn wait_ready(&self) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        let want = format!("\"pid\":{}", self.child.id());
        loop {
            if let Ok(addr) = std::fs::read_to_string(serve::addr_path(&self.serve_dir())) {
                let addr = addr.trim();
                if !addr.is_empty() {
                    if let Some(resp) = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n") {
                        if resp.contains(" 200 ") && resp.contains(&want) {
                            return addr.to_owned();
                        }
                    }
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon (pid {}) never became ready in {}",
                self.child.id(),
                self.serve_dir().display()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Blocks until the process exits on its own (a self-inflicted fault
    /// or a drain), returning its exit code if any.
    fn wait_exit(&mut self, timeout: Duration) -> Option<i32> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait works") {
                return status.code();
            }
            assert!(
                Instant::now() < deadline,
                "daemon (pid {}) did not exit within {timeout:?}",
                self.child.id()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn sigterm(&self) {
        let out = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .output()
            .expect("kill spawns");
        assert!(out.status.success(), "SIGTERM failed: {}", show(&out));
    }

    fn log(&self) -> String {
        std::fs::read_to_string(serve::log_path(&self.serve_dir())).unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw request/response exchange: write `payload`, read to EOF.
/// `None` when the connection cannot even be opened.
fn raw_exchange(addr: &str, payload: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .ok()?;
    stream.write_all(payload).ok()?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).ok();
    Some(String::from_utf8_lossy(&buf).into_owned())
}

/// A client command (`mce submit` / `mce jobs ...`) against `dir`.
fn client_cmd(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .arg("--dir")
        .arg(dir.join("serve"))
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary")
}

/// Submits a vocoder/fast job and returns its id.
fn submit(bin: &str, dir: &Path, extra: &[&str]) -> u64 {
    let mut args = vec!["submit", "vocoder", "--preset", "fast"];
    args.extend_from_slice(extra);
    let out = client_cmd(bin, dir, &args);
    assert!(out.status.success(), "submit failed: {}", show(&out));
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("submit prints the job id")
}

/// Polls `jobs show <id>` until its state satisfies `accept`.
fn wait_state(bin: &str, dir: &Path, id: u64, accept: &[&str]) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = client_cmd(bin, dir, &["jobs", "show", &id.to_string()]);
        let body = String::from_utf8_lossy(&out.stdout).into_owned();
        for state in accept {
            if body.contains(&format!("\"state\":\"{state}\"")) {
                return (*state).to_owned();
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {accept:?}; last: {}",
            show(&out)
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Fetches job `id`'s report into `<dir>/job-result.json` and returns
/// the path.
fn fetch_result(bin: &str, dir: &Path, id: u64) -> PathBuf {
    let path = dir.join(format!("job-{id}-result.json"));
    let out = client_cmd(
        bin,
        dir,
        &[
            "jobs",
            "result",
            &id.to_string(),
            "--out",
            path.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "jobs result failed: {}", show(&out));
    path
}

/// A fault-free submit→execute→result round trip reproduces the serial
/// `mce explore` report exactly, and the finished job lands in the run
/// archive.
#[test]
fn submitted_job_completes_and_matches_a_serial_explore() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let daemon = Daemon::start(bin, &dir, None);
    let id = submit(bin, &dir, &["--wait"]);
    assert_eq!(id, 1, "the first job gets id 1");
    let list = client_cmd(bin, &dir, &["jobs", "list"]);
    assert!(
        String::from_utf8_lossy(&list.stdout).contains("\"state\":\"done\""),
        "jobs list must show the job done: {}",
        show(&list)
    );
    let report = fetch_result(bin, &dir, id);
    assert_diff_clean(bin, &serial, &report, "served job");
    let archived = std::fs::read_dir(dir.join("archive"))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(archived > 0, "the finished job must be archived");
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM drains: the daemon stops admitting, requeues the running job
/// at a safe point without charging its retry budget, and exits 0; a
/// restarted daemon finishes the job to a diff-clean report.
#[test]
fn sigterm_drains_and_a_restart_finishes_the_job() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("drain");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    // stall_job:1 wedges the first pickup on its cancel token: the job is
    // deterministically *running* when the SIGTERM lands, with no timing
    // race against a fast exploration.
    let mut daemon = Daemon::start(bin, &dir, Some("stall_job:1"));
    let id = submit(bin, &dir, &[]);
    wait_state(bin, &dir, id, &["running"]);
    daemon.sigterm();
    let code = daemon.wait_exit(Duration::from_secs(30));
    assert_eq!(code, Some(0), "a drain must exit 0");
    let log = daemon.log();
    assert!(log.contains("drain"), "no drain in the log:\n{log}");
    assert!(
        log.contains("requeued"),
        "the running job must requeue on drain:\n{log}"
    );
    // During the drain the daemon answers clients but admits nothing new
    // — after exit there is no address file at all.
    assert!(
        !serve::addr_path(&daemon.serve_dir()).exists(),
        "a drained daemon must retract serve.addr"
    );
    drop(daemon);

    let daemon = Daemon::start(bin, &dir, None);
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id.to_string()]);
    assert!(
        wait.status.success(),
        "the requeued job must finish after restart: {}",
        show(&wait)
    );
    let log = daemon.log();
    assert!(
        log.contains("replayed"),
        "the restart must replay the journal:\n{log}"
    );
    let report = fetch_result(bin, &dir, id);
    assert_diff_clean(bin, &serial, &report, "drained-then-resumed job");
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon SIGKILLed at job pickup — after the `Started` record is
/// journaled but before any work happens — recovers on restart: the
/// journal replay requeues the job uncharged and it runs to a
/// diff-clean finish.
#[test]
fn a_daemon_killed_at_job_pickup_recovers_on_restart() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("dieatjob");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let mut daemon = Daemon::start(bin, &dir, Some("die_at_job:1"));
    let id = submit(bin, &dir, &[]);
    // The fault SIGKILLs the daemon at the first pickup: no exit code.
    let code = daemon.wait_exit(Duration::from_secs(30));
    assert_eq!(code, None, "SIGKILL must leave no exit code");
    drop(daemon);

    let daemon = Daemon::start(bin, &dir, None);
    let log = daemon.log();
    assert!(
        log.contains("replayed") && log.contains("recovered mid-run"),
        "the restart must report the mid-run recovery:\n{log}"
    );
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id.to_string()]);
    assert!(
        wait.status.success(),
        "the recovered job must finish: {}",
        show(&wait)
    );
    let report = fetch_result(bin, &dir, id);
    assert_diff_clean(bin, &serial, &report, "crash-recovered job");
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline crash-tolerance property: a daemon SIGKILLed deep in
/// Phase II resumes the interrupted job *from its checkpoint* after a
/// restart and still produces a report diff-clean against a plain
/// `mce explore`.
#[test]
fn a_daemon_sigkilled_mid_exploration_resumes_from_its_checkpoint() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("sigkill");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = serial_report(bin, &dir);
    let mut daemon = Daemon::start(bin, &dir, Some("sigkill_at_eval:18"));
    let id = submit(bin, &dir, &[]);
    let code = daemon.wait_exit(Duration::from_secs(60));
    assert_eq!(code, None, "SIGKILL must leave no exit code");
    // The kill hit between checkpoints: the job's checkpoint file is the
    // resume point the restarted daemon must pick up.
    let ck = serve::job_checkpoint_path(&daemon.serve_dir(), id);
    assert!(ck.exists(), "no checkpoint survived the kill");
    drop(daemon);

    let daemon = Daemon::start(bin, &dir, None);
    let log = daemon.log();
    assert!(
        log.contains("recovered mid-run"),
        "the restart must recover the running job:\n{log}"
    );
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id.to_string()]);
    assert!(
        wait.status.success(),
        "the job must finish from its checkpoint: {}",
        show(&wait)
    );
    let report = fetch_result(bin, &dir, id);
    assert_diff_clean(bin, &serial, &report, "checkpoint-resumed job");
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Deadline timeouts retry on the backoff schedule until the budget is
/// spent: one stalled attempt retries into a clean finish; a job whose
/// every attempt stalls parks as `timed-out`.
#[test]
fn deadline_timeouts_retry_then_park_timed_out() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("deadline");
    std::fs::create_dir_all(&dir).unwrap();
    // Pickup 1 stalls until its 2 s deadline trips and charges a retry.
    // Later attempts run for real; each deadlined attempt keeps its
    // checkpoint, so progress accumulates and a generous retry budget
    // guarantees a finish without racing the wall clock.
    let daemon = Daemon::start(bin, &dir, Some("stall_job:1"));
    let id = submit(bin, &dir, &["--deadline", "2", "--retries", "5"]);
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id.to_string()]);
    assert!(
        wait.status.success(),
        "the deadlined job must retry into a finish: {}",
        show(&wait)
    );
    let log = daemon.log();
    assert!(
        log.contains("retrying"),
        "the timeouts must be visible as retries:\n{log}"
    );
    // A second job whose single allowed attempt times out parks terminal:
    // 0.05 s is far below any exploration's runtime.
    let id2 = submit(bin, &dir, &["--deadline", "0.05", "--retries", "0"]);
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id2.to_string()]);
    assert_eq!(
        wait.status.code(),
        Some(1),
        "a spent retry budget must park the job: {}",
        show(&wait)
    );
    wait_state(bin, &dir, id2, &["timed-out"]);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Queued jobs cancel immediately; running jobs stop at their next safe
/// point. Neither cancellation is retried or resurrected by a restart.
#[test]
fn queued_and_running_jobs_can_be_canceled() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("cancel");
    std::fs::create_dir_all(&dir).unwrap();
    // The first pickup stalls on its token: job 1 sits running (holding
    // the executor) and job 2 sits queued behind it.
    let daemon = Daemon::start(bin, &dir, Some("stall_job:1"));
    let id1 = submit(bin, &dir, &[]);
    let id2 = submit(bin, &dir, &[]);
    wait_state(bin, &dir, id1, &["running"]);
    wait_state(bin, &dir, id2, &["queued"]);

    let out = client_cmd(bin, &dir, &["jobs", "cancel", &id2.to_string()]);
    assert!(out.status.success(), "queued cancel failed: {}", show(&out));
    wait_state(bin, &dir, id2, &["canceled"]);

    let out = client_cmd(bin, &dir, &["jobs", "cancel", &id1.to_string()]);
    assert!(
        out.status.success(),
        "running cancel failed: {}",
        show(&out)
    );
    wait_state(bin, &dir, id1, &["canceled"]);
    let wait = client_cmd(bin, &dir, &["jobs", "wait", &id1.to_string()]);
    assert_eq!(
        wait.status.code(),
        Some(1),
        "a canceled job is terminal but not done: {}",
        show(&wait)
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile or malformed HTTP gets a typed error — 400/404/405/408/413/
/// 431 — and the daemon stays healthy through all of it.
#[test]
fn hostile_requests_get_typed_errors_and_the_daemon_survives() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = Daemon::start(bin, &dir, None);
    let addr = daemon.addr();
    let probe = |payload: &[u8], want: &str, what: &str| {
        let resp = raw_exchange(&addr, payload).expect("daemon answers");
        assert!(
            resp.starts_with(&format!("HTTP/1.1 {want} ")),
            "{what}: wanted {want}, got:\n{resp}"
        );
        // The daemon shrugged it off: the very next health probe is 200.
        let health = raw_exchange(&addr, b"GET /healthz HTTP/1.1\r\n\r\n").expect("daemon answers");
        assert!(
            health.contains(" 200 "),
            "{what}: daemon unhealthy afterwards:\n{health}"
        );
    };

    probe(b"NOT EVEN HTTP\r\n\r\n", "400", "garbage request line");
    probe(b"GET /no/such/path HTTP/1.1\r\n\r\n", "404", "unknown path");
    probe(b"PUT /healthz HTTP/1.1\r\n\r\n", "405", "wrong method");
    probe(
        b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        "413",
        "oversized body claim",
    );
    probe(
        b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nhuh!",
        "400",
        "non-JSON job spec",
    );
    // A well-formed spec whose workload breaks an invariant (a zero
    // footprint) is refused at admission, not queued to panic later.
    let bad_workload =
        "{\"workload\": {\"name\": \"bad\", \"data_structures\": [{\"name\": \"d\", \
         \"footprint\": 0, \"element_size\": 4, \"pattern\": \"Random\", \"hotness\": 1.0, \
         \"write_fraction\": 0.2}], \"seed\": 1, \"compute_gap\": 2, \"phases\": []}, \
         \"preset\": \"fast\", \"threads\": 0, \"max_evals\": 0, \"max_archs\": 0, \
         \"deadline_ms\": 0, \"retry_budget\": 0}";
    let request = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{bad_workload}",
        bad_workload.len()
    );
    let resp = raw_exchange(&addr, request.as_bytes()).expect("daemon answers");
    assert!(
        resp.starts_with("HTTP/1.1 400 ") && resp.contains("footprint must be non-zero"),
        "invalid workload: wanted a 400 naming the invariant, got:\n{resp}"
    );
    // A small body nested far past the parser's depth cap: a typed 400,
    // not a stack overflow that kills the daemon.
    let nested = format!("{{\"workload\":{}", "[".repeat(20_000));
    let request = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{nested}",
        nested.len()
    );
    probe(request.as_bytes(), "400", "deeply nested job spec");
    let huge_head = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(9000)
    );
    probe(huge_head.as_bytes(), "431", "oversized head");
    // Slow-loris: a head that never finishes must hit the read deadline,
    // not hold a daemon thread forever.
    probe(
        b"GET /healthz HTTP/1.1\r\nX-Dribble: s",
        "408",
        "slow-loris",
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// The pidfile is a mutex: a second daemon over the same directory is
/// refused while the first lives, and a stale pidfile left by a SIGKILL
/// is detected and recovered.
#[test]
fn the_pidfile_refuses_a_second_daemon_and_recovers_stale_locks() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("pidfile");
    std::fs::create_dir_all(&dir).unwrap();
    let mut daemon = Daemon::start(bin, &dir, None);
    let out = Command::new(bin)
        .args(["serve", "--dir"])
        .arg(dir.join("serve"))
        .env_remove("MCE_FAULT")
        .output()
        .expect("spawning the mce binary");
    assert!(
        !out.status.success(),
        "a second daemon must be refused: {}",
        show(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already serves"),
        "the refusal must name the live pid: {}",
        show(&out)
    );

    // SIGKILL the daemon: the pidfile stays behind, stale.
    daemon.child.kill().expect("kill works");
    daemon.child.wait().expect("wait works");
    assert!(
        serve::pid_path(&daemon.serve_dir()).exists(),
        "SIGKILL must leave the pidfile behind"
    );
    drop(daemon);
    let daemon = Daemon::start(bin, &dir, None);
    assert!(
        daemon.log().contains("stale"),
        "the stale pidfile recovery must be logged:\n{}",
        daemon.log()
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}
