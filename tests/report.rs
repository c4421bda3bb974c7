//! Run-report integration: histogram merge determinism across thread
//! counts, byte-stable report JSON across identical runs, rendered
//! summaries, and the bench regression gate against the committed
//! baseline.

use memory_conex::appmodel::benchmarks;
use memory_conex::obs;
use memory_conex::prelude::*;
use memory_conex::report::{check_report_schema, stable_sections, stable_view, PROVENANCE_SCHEMA};
use memory_conex::MceError;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The recorder is process-global, so every test that installs a sink
/// serializes on this lock.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs a fast session with metrics collection enabled (the `--report-out`
/// configuration: a null sink that discards events but keeps the counter,
/// gauge and histogram registries live) and returns the report JSON.
fn report_json() -> String {
    report_json_with(false)
}

/// [`report_json`], optionally with frontier-provenance capture
/// (`mce explore --explain`) enabled.
fn report_json_with(explain: bool) -> String {
    let _guard = lock();
    obs::install(Arc::new(obs::NullSink::new()));
    let result = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .explain(explain)
        .run()
        .expect("exploration runs");
    obs::uninstall();
    result.report.to_json()
}

#[test]
fn histogram_merge_is_thread_count_independent() {
    let _guard = lock();
    // A deterministic value set spanning many buckets, including zero.
    let values: Vec<u64> = (0..10_000u64).map(|i| (i * i + 7) % 4093).collect();

    obs::install(Arc::new(obs::NullSink::new()));
    for &v in &values {
        obs::histogram_record("report_it.merge", v);
    }
    let serial = obs::histogram_summary("report_it.merge").expect("recorded serially");
    obs::uninstall();

    for threads in [2, 4, 7] {
        obs::install(Arc::new(obs::NullSink::new()));
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len() / threads + 1) {
                s.spawn(move || {
                    for &v in chunk {
                        obs::histogram_record("report_it.merge", v);
                    }
                });
            }
        });
        let parallel = obs::histogram_summary("report_it.merge").expect("recorded in parallel");
        obs::uninstall();
        assert_eq!(
            serial, parallel,
            "histogram summary must not depend on recording thread count ({threads} threads)"
        );
    }
}

#[test]
fn run_report_json_is_byte_stable_across_identical_runs() {
    let a = report_json();
    let b = report_json();
    assert_eq!(
        stable_view(&a).unwrap(),
        stable_view(&b).unwrap(),
        "identical runs must produce equal reports outside wall_clock"
    );
    // Only the explicit wall-clock section may differ.
    assert!(a.contains("\"wall_clock\""), "wall_clock section present");
    let doc = obs::json::parse(&a).expect("report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(obs::json::Value::as_u64),
        Some(REPORT_SCHEMA)
    );
    assert!(doc.get("workload_digest").is_some(), "digest present");
    assert!(doc.get("counters").is_some(), "funnel counters present");
    assert!(doc.get("eval_cache").is_some(), "cache stats present");
    assert!(
        doc.get("frontier_evolution")
            .and_then(obs::json::Value::as_array)
            .is_some_and(|snaps| !snaps.is_empty()),
        "frontier evolution sampled"
    );
    assert!(
        a.contains("conex.simulate.item_us"),
        "per-candidate simulate latency histogram collected"
    );
}

#[test]
fn explain_is_byte_identical_outside_the_provenance_section() {
    let plain = report_json();
    let explained = report_json_with(true);

    assert!(
        stable_view(&explained).unwrap().contains("\"provenance\""),
        "explained run embeds the provenance section in its deterministic sections"
    );
    assert!(
        !stable_view(&plain).unwrap().contains("\"provenance\""),
        "unexplained run carries no provenance section"
    );
    // The provenance determinism contract: masking the section out of the
    // explained report reproduces the plain report's deterministic
    // sections, value for value.
    let doc = obs::json::parse(&explained).expect("explained report parses");
    let mut masked = stable_sections(&doc);
    assert!(masked.remove("provenance").is_some());
    assert_eq!(
        masked,
        stable_sections(&obs::json::parse(&plain).expect("plain report parses")),
        "--explain may change nothing outside the provenance section"
    );

    // The section itself is schema-versioned and carries per-point origins.
    let prov = doc.get("provenance").expect("provenance section present");
    assert_eq!(
        prov.get("schema").and_then(obs::json::Value::as_u64),
        Some(PROVENANCE_SCHEMA)
    );
    let archs = prov
        .get("archs")
        .and_then(obs::json::Value::as_array)
        .expect("provenance.archs is an array");
    assert!(!archs.is_empty(), "at least one architecture explained");
    let has_origin = archs.iter().any(|a| {
        a.get("points")
            .and_then(obs::json::Value::as_array)
            .is_some_and(|pts| pts.iter().any(|p| p.get("origin").is_some()))
    });
    assert!(has_origin, "provenance points carry origin tags");
}

#[test]
fn report_schema_fixtures_load_or_fail_with_typed_errors() {
    // Every historical schema version must keep loading; append a fixture
    // here on every REPORT_SCHEMA bump.
    let v1 = obs::json::parse(include_str!("fixtures/report_schema_v1.json"))
        .expect("v1 fixture parses");
    check_report_schema(&v1).expect("schema v1 report loads");

    // A report written by a newer build is refused with the typed error,
    // not silently misread.
    let future = obs::json::parse("{\"schema\": 999}").unwrap();
    match check_report_schema(&future).unwrap_err() {
        MceError::SchemaVersion {
            artifact,
            found,
            supported,
        } => {
            assert_eq!(artifact, "run report");
            assert_eq!(found, "999");
            assert_eq!(supported, REPORT_SCHEMA);
        }
        other => panic!("expected SchemaVersion, got {other:?}"),
    }

    // So is a pre-versioning document with no schema field at all.
    let missing = obs::json::parse("{\"workload\": \"vocoder\"}").unwrap();
    match check_report_schema(&missing).unwrap_err() {
        MceError::SchemaVersion { found, .. } => assert_eq!(found, "none"),
        other => panic!("expected SchemaVersion, got {other:?}"),
    }
}

#[test]
fn rendered_summary_contains_key_metrics() {
    let json = report_json();
    let value = obs::json::parse(&json).expect("report parses");
    let md = memory_conex::report::render_markdown(&[("report.json".to_owned(), value)]);
    for needle in [
        "p50",
        "p90",
        "p99",
        "conex.simulate.item_us",
        "hit rate",
        "Frontier evolution",
        "<svg",
    ] {
        assert!(md.contains(needle), "markdown summary missing `{needle}`");
    }
    let html = memory_conex::report::markdown_to_html(&md);
    assert!(html.contains("<table>"), "html renders tables");
    assert!(html.contains("<svg"), "html keeps the inline frontier plot");
}
