//! Cross-run analytics integration: `mce diff` verdicts over real session
//! reports are invariant to thread count and cache temperature but not
//! to config perturbations, and live-status files diff like the reports
//! they are.

use memory_conex::appmodel::benchmarks;
use memory_conex::diff;
use memory_conex::obs;
use memory_conex::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The recorder is process-global, so every test that installs a sink
/// serializes on this lock.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mce-cross-run-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

/// Runs a fast vocoder session with the given customization and returns
/// the report JSON.
fn run_report(customize: impl FnOnce(ExplorationSession) -> ExplorationSession) -> String {
    let _guard = lock();
    obs::install(Arc::new(obs::NullSink::new()));
    let session = customize(ExplorationSession::new(benchmarks::vocoder()).preset(Preset::Fast));
    let result = session.run().expect("exploration runs");
    obs::uninstall();
    result.report.to_json()
}

#[test]
fn diff_is_invariant_to_threads_and_cache_temperature_but_not_config() {
    // Thread count lives in wall_clock; deterministic sections must
    // byte-compare.
    let serial = run_report(|s| s.threads(1));
    let parallel = run_report(|s| s.threads(4));
    let outcome = diff::diff_texts("serial", &serial, "parallel", &parallel).expect("diff runs");
    assert!(
        outcome.identical,
        "thread count must not change deterministic sections:\n{}",
        outcome.markdown
    );

    // Cache temperature only moves the masked eval_cache statistics.
    let dir = temp_dir("cache");
    let cache_file = dir.join("evals.cache");
    let cold = run_report(|s| s.eval_cache_file(&cache_file));
    let hot = run_report(|s| s.eval_cache_file(&cache_file));
    assert_ne!(
        cold, hot,
        "a warm cache must actually change the raw report (hits move)"
    );
    let outcome = diff::diff_texts("cold", &cold, "hot", &hot).expect("diff runs");
    assert!(
        outcome.identical,
        "cache temperature must not change the diff verdict:\n{}",
        outcome.markdown
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A real config perturbation produces a structured, non-identical
    // delta.
    let base = run_report(|s| s);
    let truncated = run_report(|s| s.max_evals(10));
    let outcome = diff::diff_texts("base", &base, "truncated", &truncated).expect("diff runs");
    assert!(!outcome.identical, "an eval budget must change the verdict");
    assert!(outcome.markdown.contains("Deterministic sections differ"));
    assert!(
        outcome.markdown.contains("conex."),
        "the delta names the counters that moved:\n{}",
        outcome.markdown
    );
}

#[test]
fn live_status_files_diff_like_reports() {
    let dir = temp_dir("live");
    let live_a = dir.join("a.live.json");
    let live_b = dir.join("b.live.json");
    let live_c = dir.join("c.live.json");
    let report_a = run_report(|s| s.live_status_file(&live_a));
    let _ = run_report(|s| s.live_status_file(&live_b));
    let _ = run_report(|s| s.live_status_file(&live_c).max_evals(10));

    let a = std::fs::read_to_string(&live_a).expect("live file a");
    let b = std::fs::read_to_string(&live_b).expect("live file b");
    let c = std::fs::read_to_string(&live_c).expect("live file c");

    let outcome = diff::diff_texts("a", &a, "b", &b).expect("live diff runs");
    assert!(
        outcome.identical,
        "final snapshots of identical runs compare equal:\n{}",
        outcome.markdown
    );

    let outcome = diff::diff_texts("a", &a, "c", &c).expect("live diff runs");
    assert!(!outcome.identical, "a bounded run's snapshot differs");
    assert!(
        outcome.markdown.contains("max-evals"),
        "{}",
        outcome.markdown
    );

    // A live file is a report snapshot: the final one diffs identical to
    // the same run's report.
    let outcome = diff::diff_texts("live", &a, "report", &report_a).expect("mixed diff runs");
    assert!(outcome.identical, "{}", outcome.markdown);

    let _ = std::fs::remove_dir_all(&dir);
}
