//! Bounded-exploration integration: logical budgets (`--max-evals`)
//! truncate at the same point for any thread count and any cache state,
//! an interrupt mid-run plus a resume reproduces the uninterrupted
//! run's report byte-for-byte up to `wall_clock`, a hung candidate
//! evaluation is reclaimed by the per-candidate watchdog instead of
//! wedging the run, and a process manager's SIGTERM is the same
//! cooperative stop a Ctrl-C is — checkpoint written, valid report,
//! exit 0.

use mce_faultinject as fi;
use memory_conex::appmodel::benchmarks;
use memory_conex::budget;
use memory_conex::obs;
use memory_conex::prelude::*;
use memory_conex::report::stable_view;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The interrupt flag, armed faults and the observability recorder are
/// all process-global; every test here serializes on this lock.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    BUDGET_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_budget_it_{}_{name}", std::process::id()))
}

/// A session at fast scale.
fn session() -> ExplorationSession {
    ExplorationSession::new(benchmarks::vocoder()).preset(Preset::Fast)
}

/// Runs `session` under a fresh recorder (the `--report-out`
/// configuration: a null sink keeps the counter/gauge/histogram
/// registries live). Fresh per run — the registries are cumulative
/// process-globals, and each report must snapshot only its own run.
fn run_with_report(session: &ExplorationSession) -> SessionResult {
    obs::install(Arc::new(obs::NullSink::new()));
    let result = session.run();
    obs::uninstall();
    result.expect("exploration runs")
}

#[test]
fn max_evals_truncates_identically_across_thread_counts() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();

    // Size the budget off an unbounded run so it provably trips mid-way.
    let clean = run_with_report(&session());
    let total = clean.conex.estimated().len() as u64;
    assert!(total >= 8, "fast preset explores enough to truncate");
    let budget = total / 2;

    let serial = run_with_report(&session().max_evals(budget).threads(1));
    assert_eq!(serial.conex.stop_reason(), Some("max-evals"));
    assert!(serial.conex.is_truncated());
    assert_eq!(serial.report.status, "truncated");
    assert!(
        serial.conex.estimated().len() < clean.conex.estimated().len(),
        "the budget must actually cut the cloud short"
    );

    let parallel = run_with_report(&session().max_evals(budget).threads(8));
    assert_eq!(
        stable_view(&serial.report.to_json()).unwrap(),
        stable_view(&parallel.report.to_json()).unwrap(),
        "a logical budget must trip at the same candidate on 1 and 8 threads"
    );
    assert_eq!(serial.conex.estimated(), parallel.conex.estimated());
    assert_eq!(serial.conex.simulated(), parallel.conex.simulated());
}

#[test]
fn max_evals_truncates_identically_with_and_without_the_eval_cache() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();
    let spill = tmp("budget_spill.json");
    let _ = std::fs::remove_file(&spill);

    let clean = session().run().expect("unbounded run succeeds");
    let budget = (clean.conex.estimated().len() as u64) / 2;

    let uncached = session().max_evals(budget).run().unwrap();
    // Cold cache: first bounded run populates the spill.
    let cold = session()
        .max_evals(budget)
        .eval_cache_file(&spill)
        .run()
        .unwrap();
    // Warm cache: every evaluation is answered from disk, yet the
    // budget still counts it and trips at the same candidate.
    let warm = session()
        .max_evals(budget)
        .eval_cache_file(&spill)
        .run()
        .unwrap();
    assert!(warm.cache_stats.hits > 0, "warm run hits the spill");

    for (name, run) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            run.conex.stop_reason(),
            Some("max-evals"),
            "{name} run stops on the budget"
        );
        assert_eq!(
            uncached.conex.estimated(),
            run.conex.estimated(),
            "{name} cache state must not move the truncation point"
        );
        assert_eq!(uncached.conex.simulated(), run.conex.simulated());
        assert_eq!(
            uncached.conex.frontier_evolution(),
            run.conex.frontier_evolution()
        );
    }
    let _ = std::fs::remove_file(&spill);
}

#[test]
fn interrupt_then_resume_reproduces_the_uninterrupted_report() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();
    budget::clear_interrupt();
    let ck = tmp("budget_ck.json");
    let _ = std::fs::remove_file(&ck);

    let uninterrupted = run_with_report(&session().threads(2));

    // Trip the interrupt flag from another thread mid-run, as a real
    // Ctrl-C would. Whenever it lands — before, during or after the
    // exploration — the run must end cleanly, and a resume must
    // converge on the uninterrupted report.
    let bounded = session()
        .threads(2)
        .watch_interrupt(true)
        .checkpoint_file(&ck);
    let raiser = std::thread::spawn(|| {
        // ~60ms lands mid-Phase-I on this workload at fast scale, so the
        // resume below replays committed architectures; any other landing
        // point is handled too, just with less to replay.
        std::thread::sleep(Duration::from_millis(60));
        budget::raise_interrupt();
    });
    let first = run_with_report(&bounded);
    raiser.join().unwrap();
    budget::clear_interrupt();

    let finished = if first.conex.is_truncated() {
        assert_eq!(first.conex.stop_reason(), Some("interrupt"));
        assert_eq!(first.report.status, "truncated");
        assert!(ck.exists(), "a truncated run leaves its checkpoint");
        let resumed = run_with_report(&bounded);
        assert!(resumed.resumed);
        resumed
    } else {
        first // The flag landed after the finish line; nothing to resume.
    };

    assert!(!finished.conex.is_truncated());
    assert_eq!(finished.report.status, "complete");
    assert_eq!(
        stable_view(&uninterrupted.report.to_json()).unwrap(),
        stable_view(&finished.report.to_json()).unwrap(),
        "interrupt + resume must reproduce the uninterrupted report"
    );
    assert!(!ck.exists(), "a finished run removes its checkpoint");
}

#[test]
fn hung_candidate_is_reclaimed_by_the_watchdog_and_degraded() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();

    // The 5th candidate evaluation hangs until its cancel check trips;
    // without the watchdog this run would never return.
    fi::arm(vec![fi::Fault::HangAtEval { nth: 5 }]);
    obs::install(Arc::new(obs::NullSink::new()));
    let result = session()
        .threads(2)
        .candidate_timeout(Duration::from_millis(100))
        .run();
    obs::uninstall();
    fi::disarm();
    let result = result.expect("a hung evaluation degrades, not fails");

    assert!(
        !result.conex.is_truncated(),
        "a timeout degrades one candidate; it does not stop the run"
    );
    assert!(
        result
            .conex
            .degraded()
            .iter()
            .any(|d| d.reason == "timeout"),
        "the reclaimed candidate is annotated: {:?}",
        result.conex.degraded()
    );
    let doc = obs::json::parse(&result.report.to_json()).expect("report parses");
    let wall = doc.get("wall_clock").expect("wall_clock present");
    let timeouts = wall
        .get("budget")
        .and_then(|b| b.get("budget.timeouts"))
        .and_then(obs::json::Value::as_u64)
        .unwrap_or(0);
    assert!(timeouts >= 1, "budget.timeouts recorded in the report");
    assert!(
        wall.get("degraded")
            .and_then(obs::json::Value::as_array)
            .is_some_and(|d| !d.is_empty()),
        "degraded annotations land in wall_clock"
    );
}

/// SIGTERM against the real binary is a first-class "stop at a safe
/// point", exactly like SIGINT: the terminated `mce explore` writes a
/// valid (possibly truncated) report, keeps its checkpoint for the
/// resume, and exits 0 — what a process manager's stop action must see.
#[test]
fn sigterm_checkpoints_writes_a_valid_report_and_exits_zero() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("sigterm");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    let ck = dir.join("ck.json");
    let mut child = std::process::Command::new(bin)
        .args(["explore", "vocoder", "--preset", "fast", "--report-out"])
        .arg(&report)
        .arg("--checkpoint")
        .arg(&ck)
        .arg("--out-dir")
        .arg(dir.join("experiments"))
        .env_remove("MCE_FAULT")
        .spawn()
        .expect("spawning the mce binary");
    std::thread::sleep(Duration::from_millis(120));
    let out = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .output()
        .expect("kill spawns");
    assert!(out.status.success(), "sending SIGTERM failed");
    let status = child.wait().expect("child waits");
    assert_eq!(status.code(), Some(0), "SIGTERM must exit 0, not die");

    let text = std::fs::read_to_string(&report).expect("a report is written either way");
    let doc = obs::json::parse(&text).expect("the report is valid JSON");
    match doc.get("status").and_then(obs::json::Value::as_str) {
        Some("truncated") => {
            assert_eq!(
                doc.get("stop_reason").and_then(obs::json::Value::as_str),
                Some("interrupt"),
                "a SIGTERM stop is recorded as an interrupt"
            );
            assert!(ck.exists(), "an interrupted run keeps its checkpoint");
        }
        // The signal lost the race against a fast exploration; the clean
        // exit and complete report are the whole story.
        Some("complete") => {}
        other => panic!("unexpected report status {other:?} in:\n{text}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
