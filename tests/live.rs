//! Live-telemetry integration: reports are identical outside
//! `wall_clock` across thread counts and cache state, wall samples stay
//! quarantined inside `wall_clock`, live-status publishing never
//! perturbs results (even when its writes are fault-injected to fail),
//! every snapshot is a run report, the final one diffs identical to the
//! run's report, and `--metrics-out` is the exporter's rendering of that
//! report.

use mce_faultinject as fi;
use memory_conex::appmodel::benchmarks;
use memory_conex::obs;
use memory_conex::obs::json::{self, Value};
use memory_conex::prelude::*;
use memory_conex::{diff, live, report};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Armed faults and the observability recorder are process-global; every
/// test here serializes on this lock.
static LIVE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LIVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_live_it_{}_{name}", std::process::id()))
}

/// A session at fast scale.
fn session() -> ExplorationSession {
    ExplorationSession::new(benchmarks::vocoder()).preset(Preset::Fast)
}

/// Runs `session` under a fresh recorder (`install` resets every
/// registry, including the time-series rings), uninstalling afterwards.
fn run_traced(session: &ExplorationSession) -> SessionResult {
    obs::install(Arc::new(obs::NullSink::new()));
    let result = session.run();
    obs::uninstall();
    result.expect("exploration runs")
}

/// The `wall_clock.live` object of a parsed live-status snapshot.
fn live_object(doc: &Value) -> &Value {
    doc.get("wall_clock")
        .and_then(|w| w.get("live"))
        .expect("a live-status snapshot carries wall_clock.live")
}

/// Polls `path` on a background thread until `stop` is raised, keeping
/// every distinct snapshot it reads, in order — what an external watcher
/// such as `mce top` sees.
fn watch(path: &Path, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<Vec<String>> {
    let path = path.to_owned();
    std::thread::spawn(move || {
        let mut seen: Vec<String> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if seen.last() != Some(&text) {
                    seen.push(text);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        seen
    })
}

#[test]
fn report_identical_across_threads_and_cache_state() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();
    let spill = tmp("report_spill.json");
    let _ = std::fs::remove_file(&spill);

    let serial = run_traced(&session().threads(1));
    let parallel = run_traced(&session().threads(4));
    let cold = run_traced(&session().threads(4).eval_cache_file(&spill));

    // The deterministic sections of the report — funnel counters,
    // fronts, frontier evolution — do not depend on the schedule or on
    // cache persistence.
    let serial_view = report::stable_view(&serial.report.to_json()).unwrap();
    assert_eq!(
        serial_view,
        report::stable_view(&parallel.report.to_json()).unwrap(),
        "the report must not depend on the thread count"
    );
    assert_eq!(
        serial_view,
        report::stable_view(&cold.report.to_json()).unwrap(),
        "the report must not depend on cache persistence"
    );

    let _ = std::fs::remove_file(&spill);
}

#[test]
fn live_status_publishes_valid_snapshots_without_perturbing_the_report() {
    let _guard = lock();
    fi::disarm();
    obs::uninstall();
    let status = tmp("status.json");
    let metrics = tmp("metrics.txt");
    let _ = std::fs::remove_file(&status);
    let _ = std::fs::remove_file(&metrics);

    let clean = run_traced(&session().threads(2));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch(&status, stop.clone());
    let live_run = run_traced(
        &session()
            .threads(2)
            .live_status_file(&status)
            .live_every(Duration::from_millis(10))
            .metrics_out(&metrics),
    );
    stop.store(true, Ordering::SeqCst);
    let snapshots = watcher.join().expect("watcher thread");

    // Live monitoring is read-only: the deterministic report sections
    // are identical with `--live-status` on or off.
    assert_eq!(
        report::stable_view(&clean.report.to_json()).unwrap(),
        report::stable_view(&live_run.report.to_json()).unwrap(),
        "live-status publishing must not perturb results"
    );

    // Wall-clock-sampled series are quarantined inside `wall_clock`:
    // present in the full report, absent from the stable view.
    let full = live_run.report.to_json();
    assert!(
        !report::stable_view(&full)
            .unwrap()
            .contains("\"timeseries\""),
        "time series must live inside wall_clock, not the stable view"
    );
    assert!(
        !full.contains("\"live\""),
        "a collected report carries no live object"
    );
    let doc = json::parse(&full).expect("report parses");
    assert!(
        doc.get("wall_clock")
            .and_then(|w| w.get("timeseries"))
            .and_then(|t| t.get("wall"))
            .is_some(),
        "the report embeds the wall channel under wall_clock"
    );

    // Every snapshot a watcher saw is a run report, and progress never
    // steps back.
    assert!(!snapshots.is_empty(), "the watcher caught snapshots");
    let mut last_done = 0;
    for text in &snapshots {
        let snap = json::parse(text).expect("every snapshot parses");
        report::check_report_schema(&snap).expect("every snapshot is a run report");
        let done = live_object(&snap)
            .get("archs_done")
            .and_then(Value::as_u64)
            .expect("archs_done");
        assert!(
            done >= last_done,
            "archs_done went backwards: {done} < {last_done}"
        );
        last_done = done;
        if snap.get("status").and_then(Value::as_str) == Some("running") {
            assert_eq!(
                snap.get("pareto")
                    .and_then(|p| p.get("front_cost_latency"))
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(0),
                "nothing is fully simulated before the run finishes"
            );
        }
    }

    // The final on-disk snapshot is the run's report plus the live
    // object: it diffs identical, and equal once the object is cut.
    let text = std::fs::read_to_string(&status).expect("live-status file exists");
    let snap = json::parse(&text).expect("live-status file parses");
    assert_eq!(snap.get("status").and_then(Value::as_str), Some("complete"));
    let live_obj = live_object(&snap);
    let done = live_obj
        .get("archs_done")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let total = live_obj
        .get("archs_total")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(done > 0 && done == total, "finished: {done}/{total}");
    assert!(
        live_obj
            .get("writes")
            .and_then(|w| w.get("attempted"))
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 2),
        "initial + per-arch + final publishes all count"
    );
    let outcome = diff::diff_texts("live", &text, "report", &full).expect("live file diffs");
    assert!(outcome.identical, "{}", outcome.markdown);
    let mut without_live = snap.clone();
    if let Value::Object(sections) = &mut without_live {
        if let Some(Value::Object(wall_clock)) = sections.get_mut("wall_clock") {
            wall_clock.remove("live");
        }
    }
    assert_eq!(without_live, doc, "the final snapshot is the report");

    // `--metrics-out` is the exporter's rendering of the run's report.
    let om = std::fs::read_to_string(&metrics).expect("--metrics-out file exists");
    assert_eq!(
        om,
        live::openmetrics_from_value(&doc).expect("report exports")
    );
    assert_eq!(
        om,
        live::openmetrics_from_value(&snap).expect("live file exports")
    );
    assert!(
        om.contains("mce_conex_simulated_total"),
        "funnel counters exported:\n{om}"
    );

    let _ = std::fs::remove_file(&status);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn failed_live_status_writes_never_fail_or_perturb_the_run() {
    let _guard = lock();
    obs::uninstall();
    let status = tmp("failwrite_status.json");
    let _ = std::fs::remove_file(&status);

    fi::disarm();
    let clean = run_traced(&session());

    // With only --live-status configured, every atomic write in the run
    // is a live-status publish; fail the very first one.
    fi::arm(vec![fi::Fault::FailWrite { nth: 1 }]);
    obs::install(Arc::new(obs::NullSink::new()));
    let result = session().live_status_file(&status).run();
    obs::uninstall();
    fi::disarm();
    let faulted = result.expect("a failed live-status write must not fail the run");

    assert_eq!(
        report::stable_view(&clean.report.to_json()).unwrap(),
        report::stable_view(&faulted.report.to_json()).unwrap(),
        "a failed live-status write must not perturb results"
    );
    // Later publishes succeeded, and the failure was tallied, not raised.
    let snap = json::parse(&std::fs::read_to_string(&status).expect("later publishes land"))
        .expect("final snapshot parses");
    assert_eq!(snap.get("status").and_then(Value::as_str), Some("complete"));
    assert!(
        live_object(&snap)
            .get("writes")
            .and_then(|w| w.get("failed"))
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1),
        "the injected write failure shows up in the tally: {snap:?}"
    );

    let _ = std::fs::remove_file(&status);
}

#[test]
fn top_renders_a_finished_report() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let _guard = lock();
    fi::disarm();
    let result = run_traced(&session());
    let path = tmp("top_report.json");
    std::fs::write(&path, result.report.to_json()).expect("report written");
    let out = std::process::Command::new(bin)
        .arg("top")
        .arg(&path)
        .arg("--once")
        .output()
        .expect("mce top runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("status   complete (done)"), "{stdout}");
    assert!(stdout.contains("funnel   enumerated"), "{stdout}");
}
