//! Smoke tests of the `mce-perf` binary at `Preset::Fast`, one repetition
//! per workload: the printed metrics match `BENCHMARK.json`, the traced
//! pass reproduces the timed pass, its layer spans account for the traced
//! wall time, and a wrong expected digest fails the run.

use memory_conex::obs::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;

struct Output {
    code: Option<i32>,
    result: Value,
    stderr: String,
}

fn perf(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_mce-perf"))
        .args(args)
        .output()
        .expect("mce-perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("no result line; stderr:\n{stderr}"));
    Output {
        code: out.status.code(),
        result: json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}")),
        stderr,
    }
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no `{key}` array"))
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no `{key}` string"))
}

/// (name, unit) of every metric in one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<(String, String)> {
    array(&benchmark(), section)
        .iter()
        .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
        .collect()
}

fn workloads() -> Vec<String> {
    array(&benchmark(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_owned())
        .collect()
}

fn count(out: &Output, key: &str) -> u64 {
    out.result.get(key).and_then(Value::as_u64).expect(key)
}

/// Asserts the result line carries exactly `expected`, each a number with
/// its listed unit.
fn assert_metrics(out: &Output, expected: &[(String, String)]) {
    let metrics = out.result.get("metrics").expect("metrics");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("`{name}` missing"));
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert_eq!(text(m, "unit"), unit, "{name}");
    }
    match metrics {
        Value::Object(map) => assert_eq!(map.len(), expected.len(), "no extra metrics"),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn correct(out: &Output) -> Option<bool> {
    match out.result.get("correct") {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn assert_correct(out: &Output) {
    assert_eq!(out.code, Some(0), "{}", out.stderr);
    assert_eq!(correct(out), Some(true));
    assert_eq!(count(out, "failed"), 0, "{}", out.stderr);
}

#[test]
fn smoke_prints_every_benchmark_metric_with_its_unit() {
    let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
    for w in workloads() {
        let timed = perf(&["--workload", &w, "--smoke", "--trace", "0"]);
        assert_correct(&timed);
        assert_eq!(count(&timed, "attempted"), 1);
        assert_metrics(&timed, &e2e);

        let traced = perf(&["--workload", &w, "--smoke", "--trace", "1"]);
        assert_correct(&traced);
        // One timed repetition plus the traced pass, neither wrong: the
        // traced pass reproduced the timed pass's result digest.
        assert_eq!(count(&traced, "attempted"), 2);
        assert_metrics(&traced, &layers);
        // The end-to-end metrics are still printed, with units, on stderr.
        for (name, unit) in &e2e {
            assert!(
                traced
                    .stderr
                    .lines()
                    .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit.as_str())),
                "`{name}` ({unit}) not printed:\n{}",
                traced.stderr
            );
        }
    }
}

#[test]
fn layer_spans_cover_the_traced_wall_time() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for w in workloads() {
        let trace = dir.join(format!("mce-perf-{w}.trace.json"));
        let out = perf(&[
            "--workload",
            &w,
            "--smoke",
            "--trace",
            "1",
            "--trace-out",
            trace.to_str().expect("utf-8 path"),
        ]);
        assert_correct(&out);
        let doc = json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
            .expect("Chrome trace JSON");
        std::fs::remove_file(&trace).ok();
        let events = array(&doc, "traceEvents");
        let arg = |e: &Value, key: &str| e.get("args").and_then(|a| a.get(key)).cloned();
        let dur = |e: &Value| e.get("dur").and_then(Value::as_f64).expect("dur");
        let pipeline = events
            .iter()
            .find(|e| text(e, "name") == "pipeline")
            .expect("a pipeline span");
        let id = arg(pipeline, "id").expect("span id");
        let covered: f64 = events
            .iter()
            .filter(|e| arg(e, "parent").as_ref() == Some(&id))
            .map(dur)
            .sum();
        let share = covered / dur(pipeline);
        assert!(
            share >= 0.95,
            "{w}: layer spans cover {share:.3} of the pipeline"
        );
        let printed = out
            .result
            .get("metrics")
            .and_then(|m| m.get("trace.coverage_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("trace.coverage_pct");
        assert!(printed >= 95.0, "{w}: printed coverage {printed}");
    }
}

#[test]
fn wrong_expected_digest_fails_every_repetition() {
    let out = perf(&[
        "--workload",
        "compress-warm",
        "--smoke",
        "--trace",
        "0",
        "--expect-digest",
        "0123456789abcdef",
    ]);
    assert_eq!(out.code, Some(1), "{}", out.stderr);
    assert_eq!(correct(&out), Some(false));
    assert_eq!(count(&out, "failed"), count(&out, "attempted"));
    assert!(
        out.stderr.lines().any(|l| l.starts_with("error_rate 1 ")),
        "{}",
        out.stderr
    );
}
