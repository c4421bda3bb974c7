//! Golden run reports: value-level pins for the whole APEX → ConEx
//! pipeline at the fast preset.
//!
//! Each committed `tests/fixtures/golden/reports/<workload>.fast.json` is
//! the report `mce explore <workload> --preset fast --report-out` wrote.
//! The test re-runs the same exploration with [`ExplorationSession`] and
//! compares the two through [`diff::comparable_view`] — the same verdict
//! `mce diff` gives, so wall-clock context and effort-only metrics are
//! masked while pareto fronts, funnel counters and frontier evolution
//! must match value for value. The comparison is by parsed value, so a
//! fixture pins its numbers whatever layout the writer of the day uses.
//!
//! A change that alters any explored result fails here. If the change is
//! intended, say so in the change log and regenerate the fixtures.

use memory_conex::appmodel::{benchmarks, Workload};
use memory_conex::conex::design_point::workload_digest;
use memory_conex::diff;
use memory_conex::obs;
use memory_conex::obs::json::{self, Value};
use memory_conex::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The recorder is process-global and the pinned counters come from it,
/// so the explorations serialize on this lock.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn check_pinned_report(workload: Workload) {
    let name = workload.name().to_owned();
    let path = format!(
        "{}/tests/fixtures/golden/reports/{name}.fast.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = json::parse(&pinned).expect("fixture parses");
    let pinned_digest = doc
        .get("workload_digest")
        .and_then(Value::as_str)
        .expect("fixture carries its workload digest");
    let digest = workload_digest(&workload).to_hex();
    assert_eq!(
        digest, pinned_digest,
        "`{name}` generates a different workload digest than its fixture"
    );
    let report = {
        let _guard = lock();
        obs::install(Arc::new(obs::NullSink::new()));
        let result = ExplorationSession::new(workload)
            .preset(Preset::Fast)
            .run()
            .expect("exploration runs");
        obs::uninstall();
        result.report.to_json()
    };
    let (want, got) = (
        diff::comparable_view(&doc),
        diff::comparable_view(&json::parse(&report).expect("report parses")),
    );
    if want != got {
        let first = want
            .lines()
            .zip(got.lines())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "one view is a prefix of the other".to_owned(),
                |(a, b)| format!("pinned: {a}\n   got: {b}"),
            );
        panic!("`{name}` fast-preset report moved off its pin\n{first}");
    }
}

#[test]
fn compress_fast_report_is_pinned() {
    check_pinned_report(benchmarks::compress());
}

#[test]
fn li_fast_report_is_pinned() {
    check_pinned_report(benchmarks::li());
}

#[test]
fn vocoder_fast_report_is_pinned() {
    check_pinned_report(benchmarks::vocoder());
}
