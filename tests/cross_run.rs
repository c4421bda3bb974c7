//! Cross-run analytics integration: the run archive round-trips real
//! session reports (content addressing, dedupe, `gc`), `mce diff`
//! verdicts are invariant to thread count and cache temperature but not
//! to config perturbations, live-status files diff, and bench
//! trajectories render.

use memory_conex::appmodel::benchmarks;
use memory_conex::diff::{self, DiffKind};
use memory_conex::obs;
use memory_conex::prelude::*;
use memory_conex::RunArchive;
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
fn archive_round_trips_dedupes_and_garbage_collects_real_reports() {
    let root = temp_dir("archive");
    let archive = RunArchive::open(&root);

    let first = run_report(|s| s);
    let rerun = run_report(|s| s); // differs only in wall_clock
    let truncated = run_report(|s| s.max_evals(10)); // deterministic perturbation

    // Archive operations record `archive.*` counters; hold the recorder
    // lock so they never land in another test's installed sink.
    let _guard = lock();
    let a = archive.add(&first).expect("first add");
    assert!(!a.duplicate);
    let b = archive.add(&rerun).expect("rerun add");
    assert!(b.duplicate, "identical deterministic prefix must dedupe");
    assert_eq!(a.digest, b.digest, "content addressing ignores wall_clock");
    let c = archive.add(&truncated).expect("perturbed add");
    assert!(!c.duplicate);
    assert_ne!(c.digest, a.digest);

    let entries = archive.entries().expect("index parses");
    assert_eq!(entries.len(), 2, "duplicate never lands in the index");
    assert!(entries.iter().all(|e| e.workload == "vocoder"));
    assert!(entries.iter().all(|e| e.preset == "fast"));

    // Prefix lookup returns the stored report verbatim.
    let (digest, text) = archive.show(&a.digest[..8]).expect("prefix resolves");
    assert_eq!(digest, a.digest);
    assert_eq!(text, first, "archived object is the full original report");

    // gc keeps the newest entry and removes the orphaned object.
    let stats = archive.gc(Some(1)).expect("gc runs");
    assert_eq!(stats.entries_removed, 1);
    assert_eq!(stats.objects_removed, 1);
    let entries = archive.entries().expect("rewritten index parses");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].digest, c.digest, "newest entry survives gc");
    assert!(archive.show(&c.digest).is_ok());
    assert!(archive.show(&a.digest).is_err(), "collected run is gone");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn diff_is_invariant_to_threads_and_cache_temperature_but_not_config() {
    // Thread count lives in wall_clock; deterministic sections must
    // byte-compare.
    let serial = run_report(|s| s.threads(1));
    let parallel = run_report(|s| s.threads(4));
    let outcome = diff::diff_texts("serial", &serial, "parallel", &parallel).expect("diff runs");
    assert_eq!(outcome.kind, DiffKind::Report);
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
    let _ = run_report(|s| s.live_status_file(&live_a));
    let _ = run_report(|s| s.live_status_file(&live_b));
    let _ = run_report(|s| s.live_status_file(&live_c).max_evals(10));

    let a = std::fs::read_to_string(&live_a).expect("live file a");
    let b = std::fs::read_to_string(&live_b).expect("live file b");
    let c = std::fs::read_to_string(&live_c).expect("live file c");

    let outcome = diff::diff_texts("a", &a, "b", &b).expect("live diff runs");
    assert_eq!(outcome.kind, DiffKind::Live);
    assert!(
        outcome.identical,
        "final snapshots of identical runs compare equal:\n{}",
        outcome.markdown
    );

    let outcome = diff::diff_texts("a", &a, "c", &c).expect("live diff runs");
    assert!(!outcome.identical, "a bounded run's snapshot differs");

    // Mixing a live file with a run report is an input error, not a
    // bogus verdict.
    let report = run_report(|s| s);
    assert!(diff::diff_texts("live", &a, "report", &report).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorded_bench_trajectory_renders_a_series() {
    let lines = "{\"per_access_dispatch_ns\": 2572000, \"block_replay_ns\": 2100000}\n\
                 {\"per_access_dispatch_ns\": 2580000, \"block_replay_ns\": 2058000}\n";
    let md = diff::render_bench_trajectory(lines).expect("trajectory renders");
    assert!(md.contains("per_access_dispatch_ns"));
    assert!(md.contains("block_replay_ns"));
    assert!(md.contains('%'), "change column is a percentage:\n{md}");
    assert!(
        diff::render_bench_trajectory("").is_err(),
        "an empty trajectory is an input error"
    );
}
