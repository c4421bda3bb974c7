//! Structural comparison of exploration artifacts — `mce diff`.
//!
//! Replaces ad-hoc `diff`/python prefix comparisons with a comparison
//! that understands the artifact: two run reports are compared section by
//! section, and the verdict is based only on the *deterministic,
//! machine-independent* content. A live-status file is a run report
//! snapshot, so it diffs like any report — the final snapshot of a run
//! compares identical to the run's `--report-out`.
//!
//! ## What counts as "identical"
//!
//! Two reports are identical when their **comparable views** are equal.
//! The comparable view is the report's stable sections (every top-level
//! section but `wall_clock` — see [`report::stable_view`]) with three
//! sections or keys masked:
//!
//! 1. the optional `provenance` section — explain on/off must not change
//!    the verdict;
//! 2. the `eval_cache` section, and
//! 3. every `counters`/`gauges` key with an effort prefix
//!    ([`EFFORT_PREFIXES`]: eval-cache counters, the
//!    `conex.{estimate,simulate}_jobs` job counts and the `sim.*`
//!    simulator work metrics). These measure how much work the run
//!    performed, which is deterministic for a *given* starting cache
//!    state but differs between a cold and a warm cache even though the
//!    exploration output is identical. They are reported as
//!    informational deltas instead.
//!
//! The masks act on the parsed document, so no value in a report — a
//! workload named `wall_clock`, say — can move a section boundary.
//! Everything outside the comparable view (wall-clock timings,
//! histograms, timeseries, budget events, peak RSS) is shown as
//! informational context, never as a difference.

use crate::report;
use mce_error::MceError;
use mce_obs::json::{self, Value};
use std::collections::BTreeSet;

/// Result of a structural comparison.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// True when the comparable views are equal — the CLI exits 0
    /// exactly then.
    pub identical: bool,
    /// Markdown rendering of the comparison.
    pub markdown: String,
}

/// Compares two serialized run reports.
///
/// # Errors
///
/// [`MceError::Json`] on unparseable input, [`MceError::SchemaVersion`]
/// when either side is not a supported run report.
pub fn diff_texts(
    label_a: &str,
    text_a: &str,
    label_b: &str,
    text_b: &str,
) -> Result<DiffOutcome, MceError> {
    let doc_a = parse(label_a, text_a)?;
    let doc_b = parse(label_b, text_b)?;
    report::check_report_schema(&doc_a)?;
    report::check_report_schema(&doc_b)?;
    Ok(diff_reports(label_a, &doc_a, label_b, &doc_b))
}

/// Metric-name prefixes that measure execution *effort* — how much work
/// the run performed — rather than what it computed. A warm eval cache
/// legitimately changes all of them (a cache hit skips the
/// estimate/simulate job and every piece of simulator work behind it),
/// so diffs list their deltas as informational and they never affect the
/// identity verdict. The results those jobs produce (pareto fronts,
/// frontier evolution, candidate-funnel counts) stay verdict-bearing.
pub const EFFORT_PREFIXES: &[&str] = &[
    "eval_cache",
    "conex.estimate_jobs",
    "conex.simulate_jobs",
    "sim.",
];

/// The deterministic comparable view of a parsed run report, as
/// canonical text: its stable sections without `provenance`,
/// `eval_cache` and the [`EFFORT_PREFIXES`] keys of `counters` and
/// `gauges`.
pub fn comparable_view(doc: &Value) -> String {
    let mut sections = report::stable_sections(doc);
    sections.remove("provenance");
    sections.remove("eval_cache");
    for key in ["counters", "gauges"] {
        if let Some(Value::Object(metrics)) = sections.get_mut(key) {
            metrics.retain(|name, _| !EFFORT_PREFIXES.iter().any(|p| name.starts_with(p)));
        }
    }
    report::canonical_text(sections)
}

fn parse(label: &str, text: &str) -> Result<Value, MceError> {
    json::parse(text).map_err(|e| MceError::json(label.to_owned(), e.to_string()))
}

// ---------------------------------------------------------------------------
// Run-report diff
// ---------------------------------------------------------------------------

fn diff_reports(label_a: &str, doc_a: &Value, label_b: &str, doc_b: &Value) -> DiffOutcome {
    let identical = comparable_view(doc_a) == comparable_view(doc_b);
    let mut md = String::from("# Run diff\n\n");
    md.push_str(&format!(
        "| | A | B |\n|---|---|---|\n| source | `{label_a}` | `{label_b}` |\n"
    ));
    for key in ["workload", "workload_digest", "status", "stop_reason"] {
        md.push_str(&format!(
            "| {key} | {} | {} |\n",
            scalar(doc_a.get(key)),
            scalar(doc_b.get(key))
        ));
    }
    md.push('\n');
    if identical {
        md.push_str(
            "**Deterministic sections identical.** Differences below, if \
             any, are wall-clock or cache-state context only.\n\n",
        );
    } else {
        md.push_str("**Deterministic sections differ.**\n\n");
    }
    md.push_str(&object_delta_table(
        "Config delta",
        doc_a.get("config"),
        doc_b.get("config"),
        &[],
    ));
    md.push_str(&object_delta_table(
        "Counter deltas",
        doc_a.get("counters"),
        doc_b.get("counters"),
        EFFORT_PREFIXES,
    ));
    md.push_str(&object_delta_table(
        "Gauge deltas",
        doc_a.get("gauges"),
        doc_b.get("gauges"),
        EFFORT_PREFIXES,
    ));
    md.push_str(&frontier_delta(doc_a, doc_b));
    md.push_str(&provenance_note(doc_a, doc_b));
    md.push_str(&wall_clock_context(doc_a, doc_b));
    DiffOutcome {
        identical,
        markdown: md,
    }
}

/// A scalar as a markdown table cell: `—` when absent or null.
fn scalar(v: Option<&Value>) -> String {
    match v {
        None | Some(Value::Null) => "—".to_owned(),
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(n)) => format!("{n}"),
        Some(Value::Int(n)) => n.to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(_) => "…".to_owned(),
    }
}

/// A markdown table of keys whose scalar values differ between two
/// objects. Keys starting with any of `informational` prefixes are
/// listed but flagged as not affecting the verdict. Empty when nothing
/// differs.
fn object_delta_table(
    title: &str,
    a: Option<&Value>,
    b: Option<&Value>,
    informational: &[&str],
) -> String {
    let keys: BTreeSet<&String> = [a, b]
        .iter()
        .flatten()
        .filter_map(|v| match v {
            Value::Object(m) => Some(m.keys()),
            _ => None,
        })
        .flatten()
        .collect();
    let mut rows = String::new();
    for key in keys {
        let va = a.and_then(|v| v.get(key));
        let vb = b.and_then(|v| v.get(key));
        if va != vb {
            let note = if informational.iter().any(|p| key.starts_with(p)) {
                " (informational)"
            } else {
                ""
            };
            rows.push_str(&format!(
                "| {key}{note} | {} | {} |\n",
                scalar(va),
                scalar(vb),
            ));
        }
    }
    if rows.is_empty() {
        String::new()
    } else {
        format!("## {title}\n\n| key | A | B |\n|---|---|---|\n{rows}\n")
    }
}

fn front_points(doc: &Value) -> Vec<String> {
    doc.get("pareto")
        .and_then(|p| p.get("front_cost_latency"))
        .and_then(Value::as_array)
        .map(|pts| {
            pts.iter()
                .filter_map(|pt| {
                    let xy = pt.as_array()?;
                    Some(format!(
                        "({}, {})",
                        xy.first()?.as_f64()?,
                        xy.get(1)?.as_f64()?
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn last_hypervolume(doc: &Value) -> f64 {
    doc.get("frontier_evolution")
        .and_then(Value::as_array)
        .and_then(<[Value]>::last)
        .and_then(|s| s.get("hypervolume"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Frontier movement: cost/latency points gained and lost between the
/// two runs, plus the hypervolume delta. Empty when the frontier did
/// not move.
fn frontier_delta(doc_a: &Value, doc_b: &Value) -> String {
    let pa: BTreeSet<String> = front_points(doc_a).into_iter().collect();
    let pb: BTreeSet<String> = front_points(doc_b).into_iter().collect();
    let gained: Vec<&String> = pb.difference(&pa).collect();
    let lost: Vec<&String> = pa.difference(&pb).collect();
    let (hv_a, hv_b) = (last_hypervolume(doc_a), last_hypervolume(doc_b));
    let hv_moved = (hv_a - hv_b).abs() > 1e-12;
    if gained.is_empty() && lost.is_empty() && !hv_moved {
        return String::new();
    }
    let mut out = String::from("## Frontier movement\n\n");
    out.push_str(&format!(
        "Cost/latency frontier: {} point(s) gained, {} lost. \
         Hypervolume {hv_a} → {hv_b} ({}{}).\n\n",
        gained.len(),
        lost.len(),
        if hv_b >= hv_a { "+" } else { "" },
        hv_b - hv_a,
    ));
    for p in &gained {
        out.push_str(&format!("- gained {p}\n"));
    }
    for p in &lost {
        out.push_str(&format!("- lost {p}\n"));
    }
    if !gained.is_empty() || !lost.is_empty() {
        out.push('\n');
    }
    out
}

fn provenance_note(doc_a: &Value, doc_b: &Value) -> String {
    let count = |doc: &Value| {
        doc.get("provenance")
            .and_then(|p| p.get("archs"))
            .and_then(Value::as_array)
            .map(<[Value]>::len)
    };
    match (count(doc_a), count(doc_b)) {
        (None, None) => String::new(),
        (a, b) => format!(
            "## Provenance\n\nA: {}, B: {}. Provenance is masked from the \
             verdict — explained and unexplained runs of the same \
             exploration compare as identical.\n\n",
            a.map_or_else(
                || "not explained".to_owned(),
                |n| format!("{n} arch record(s)")
            ),
            b.map_or_else(
                || "not explained".to_owned(),
                |n| format!("{n} arch record(s)")
            ),
        ),
    }
}

/// Wall-clock context: elapsed time, threads, peak RSS, degraded
/// evaluation counts. Informational only.
fn wall_clock_context(doc_a: &Value, doc_b: &Value) -> String {
    let wc = |doc: &Value, k: &str| scalar(doc.get("wall_clock").and_then(|w| w.get(k)));
    let mut out =
        String::from("## Wall-clock context (informational)\n\n| | A | B |\n|---|---|---|\n");
    for key in ["elapsed_s", "threads", "resumed", "peak_rss_bytes"] {
        out.push_str(&format!(
            "| {key} | {} | {} |\n",
            wc(doc_a, key),
            wc(doc_b, key)
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, enumerated: u64, cache_hits: u64, elapsed: f64) -> String {
        format!(
            "{{\n  \"schema\": 1,\n  \"workload\": \"{workload}\",\n  \
             \"workload_digest\": \"abcd\",\n  \"status\": \"completed\",\n  \
             \"stop_reason\": null,\n  \"config\": {{\n    \"conex_trace_len\": 15000,\n    \
             \"local_keep\": 16\n  }},\n  \"counters\": {{\n    \
             \"conex.candidates_enumerated\": {enumerated},\n    \
             \"eval_cache.hits\": {cache_hits}\n  }},\n  \
             \"eval_cache\": {{\"hits\": {cache_hits}, \"misses\": 2}},\n  \
             \"pareto\": {{\n    \"cost_latency\": 2,\n    \
             \"front_cost_latency\": [[900, 4.5], [1200, 3.25]]\n  }},\n  \
             \"frontier_evolution\": [\n    {{\"archs_explored\": 1, \"estimated\": 40, \
             \"frontier_size\": 5, \"hypervolume\": 0.375}}\n  ],\n  \
             \"wall_clock\": {{\"elapsed_s\": {elapsed}, \"threads\": 4}}\n}}\n"
        )
    }

    #[test]
    fn identical_deterministic_sections_compare_equal() {
        // Same exploration: different wall clock AND different cache
        // stats (hot vs cold) — still identical.
        let a = report("vocoder", 120, 0, 1.5);
        let b = report("vocoder", 120, 50, 9.0);
        let out = diff_texts("a.json", &a, "b.json", &b).unwrap();
        assert!(out.identical, "{}", out.markdown);
        assert!(out.markdown.contains("Deterministic sections identical"));
        // Cache-stat movement still surfaces as informational context.
        assert!(out.markdown.contains("eval_cache.hits (informational)"));
    }

    #[test]
    fn deterministic_difference_is_structured_not_textual() {
        let a = report("vocoder", 120, 0, 1.5);
        let b = report("vocoder", 220, 0, 1.5);
        let out = diff_texts("a.json", &a, "b.json", &b).unwrap();
        assert!(!out.identical);
        assert!(out.markdown.contains("Deterministic sections differ"));
        assert!(
            out.markdown
                .contains("| conex.candidates_enumerated | 120 | 220 |"),
            "{}",
            out.markdown
        );
    }

    #[test]
    fn frontier_movement_reports_gained_lost_and_hypervolume() {
        let a = report("vocoder", 120, 0, 1.5);
        let b = a
            .replace("[900, 4.5], [1200, 3.25]", "[900, 4.5], [1000, 3.0]")
            .replace("\"hypervolume\": 0.375", "\"hypervolume\": 0.5");
        let out = diff_texts("a.json", &a, "b.json", &b).unwrap();
        assert!(!out.identical);
        assert!(
            out.markdown.contains("1 point(s) gained, 1 lost"),
            "{}",
            out.markdown
        );
        assert!(
            out.markdown.contains("gained (1000, 3)"),
            "{}",
            out.markdown
        );
        assert!(
            out.markdown.contains("lost (1200, 3.25)"),
            "{}",
            out.markdown
        );
        assert!(out.markdown.contains("0.375 → 0.5"), "{}", out.markdown);
    }

    #[test]
    fn provenance_is_masked_from_the_verdict() {
        let a = report("vocoder", 120, 0, 1.5);
        // The mask removes the section by key, wherever it sits.
        let b = a.replacen(
            "{",
            "{\"provenance\": {\"schema\": 1, \"archs\": [{\"arch\": 0, \
             \"mem\": \"m\", \"kept\": 1, \"pruned\": 0, \"points\": []}]},",
            1,
        );
        let out = diff_texts("plain.json", &a, "explained.json", &b).unwrap();
        assert!(out.identical, "{}", out.markdown);
        assert!(
            out.markdown.contains("1 arch record(s)"),
            "{}",
            out.markdown
        );
        assert!(out.markdown.contains("not explained"), "{}", out.markdown);
    }

    /// Workload names come from user files; a name equal to a section key
    /// must not move the boundary between the compared and the masked
    /// sections.
    #[test]
    fn workloads_named_like_report_sections_keep_their_deltas() {
        for name in ["wall_clock", "provenance"] {
            let complete = report(name, 120, 0, 1.5);
            let truncated = report(name, 10, 0, 1.5)
                .replace("\"completed\"", "\"truncated\"")
                .replace("\"stop_reason\": null", "\"stop_reason\": \"max-evals\"");
            let out = diff_texts("complete", &complete, "truncated", &truncated).unwrap();
            assert!(!out.identical, "workload `{name}`:\n{}", out.markdown);
        }
    }

    #[test]
    fn mixed_kinds_and_garbage_are_typed_errors() {
        let r = report("vocoder", 120, 0, 1.5);
        assert!(matches!(
            diff_texts("a", "nope", "b", &r).unwrap_err(),
            MceError::Json { .. }
        ));
        // Anything that is not a supported run report is refused.
        for foreign in [
            "{}",
            "{\"schema\": 99}",
            "{\"version\": 2, \"entries\": []}",
        ] {
            assert!(matches!(
                diff_texts("a", foreign, "b", &r).unwrap_err(),
                MceError::SchemaVersion { .. }
            ));
        }
    }
}
