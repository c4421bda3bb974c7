//! Live run telemetry: the status file behind `mce explore
//! --live-status`, the `mce top` dashboard, and the OpenMetrics text
//! exporter behind `mce export-metrics` / `--metrics-out`.
//!
//! A live-status file is a run report ([`RunReport`]) snapshot: the same
//! schema, written by the same [`RunReport::to_json`]. While the run is
//! in flight its `status` is `"running"` and its stable sections hold what
//! is committed so far — config, counters, gauges, eval-cache stats, the
//! Phase-I frontier evolution and provenance, and an empty `pareto` until
//! Phase II lands. The live-only raw facts (architecture progress,
//! remaining budget, the write tally) ride in `wall_clock.live`
//! ([`LiveProgress`]); everything a dashboard shows — phase, evaluation
//! rate, cache hit rate, ETA — is derived from the document by
//! [`render_dashboard`]. The final snapshot is the run's report plus that
//! object, so it `mce diff`s identical to the run's `--report-out`.
//!
//! The file is rewritten atomically (temp sibling + rename) on a
//! wall-clock cadence by the session's background sampler and at every
//! per-architecture boundary, so a reader always sees a complete,
//! parseable document: either the previous snapshot or the next one,
//! never a torn file. Publishing is strictly best-effort and strictly
//! read-only with respect to the exploration: a failed write bumps a
//! failure tally in the next snapshot but never surfaces as a run error,
//! and results are bit-identical with `--live-status` on or off.

use crate::report::{check_report_schema, LiveProgress, RunReport};
use mce_budget::EvalBudget;
use mce_error::{atomic_write, MceError};
use mce_obs::json::Value;
use mce_obs::HistogramSummary;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The progress state behind one run's live-status file: the budget to
/// read the remaining evaluations from, the Phase-I architecture totals
/// and the write tally. Updated by the session at per-architecture
/// boundaries, read by every [`publish`](LiveShared::publish).
#[derive(Debug)]
pub struct LiveShared {
    max_evals: Option<u64>,
    deadline_s: Option<f64>,
    budget: Option<Arc<EvalBudget>>,
    archs_total: usize,
    archs_done: AtomicUsize,
    writes_attempted: AtomicU64,
    writes_failed: AtomicU64,
}

impl LiveShared {
    /// A fresh progress state for a run over `archs_total` Phase-I
    /// architectures under the given bounds.
    pub fn new(
        archs_total: usize,
        max_evals: Option<u64>,
        deadline_s: Option<f64>,
        budget: Option<Arc<EvalBudget>>,
    ) -> Self {
        LiveShared {
            max_evals,
            deadline_s,
            budget,
            archs_total,
            archs_done: AtomicUsize::new(0),
            writes_attempted: AtomicU64::new(0),
            writes_failed: AtomicU64::new(0),
        }
    }

    /// Records a committed Phase-I architecture boundary.
    pub fn record_arch(&self, archs_done: usize) {
        self.archs_done.store(archs_done, Ordering::SeqCst);
    }

    /// Atomically publishes `report` to `path` with this state attached
    /// as `wall_clock.live`. Best-effort by contract: a failed write is
    /// tallied into the *next* snapshot's `writes` and reported as
    /// `false`, never an error — live monitoring must not be able to fail
    /// a run.
    pub fn publish(&self, path: &Path, mut report: RunReport) -> bool {
        let attempted = self.writes_attempted.fetch_add(1, Ordering::SeqCst) + 1;
        report.wall_clock.live = Some(LiveProgress {
            archs_done: self.archs_done.load(Ordering::SeqCst),
            archs_total: self.archs_total,
            max_evals: self.max_evals,
            evals_remaining: self.budget.as_ref().and_then(|b| b.remaining()),
            deadline_s: self.deadline_s,
            writes_attempted: attempted,
            writes_failed: self.writes_failed.load(Ordering::SeqCst),
        });
        match atomic_write(path, report.to_json().as_bytes()) {
            Ok(()) => true,
            Err(_) => {
                self.writes_failed.fetch_add(1, Ordering::SeqCst);
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OpenMetrics text exporter
// ---------------------------------------------------------------------------

/// Renders counter/gauge/histogram sets as OpenMetrics text: counters as
/// `counter` families with the mandatory `_total` sample suffix, gauges
/// as `gauge`, histogram summaries as `summary` families with
/// `quantile`-labelled samples plus `_count`/`_sum`, terminated by the
/// mandatory `# EOF` line. Names are sanitized to `[a-zA-Z0-9_:]` and
/// prefixed `mce_`.
pub fn render_openmetrics(
    counters: &[(String, u64)],
    gauges: &[(String, u64)],
    histograms: &[(String, HistogramSummary)],
) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let metric = metric_name(name);
        let name = escape_help(name);
        out.push_str(&format!(
            "# TYPE {metric} counter\n# HELP {metric} mce run counter {name}\n\
             {metric}_total {value}\n"
        ));
    }
    for (name, value) in gauges {
        let metric = metric_name(name);
        let name = escape_help(name);
        out.push_str(&format!(
            "# TYPE {metric} gauge\n# HELP {metric} mce run gauge {name}\n\
             {metric} {value}\n"
        ));
    }
    for (name, h) in histograms {
        let metric = metric_name(name);
        let name = escape_help(name);
        out.push_str(&format!(
            "# TYPE {metric} summary\n# HELP {metric} mce latency summary {name} (us)\n"
        ));
        for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
            out.push_str(&format!(
                "{metric}{{quantile=\"{}\"}} {v}\n",
                escape_label(q)
            ));
        }
        out.push_str(&format!("{metric}_count {}\n", h.count));
        out.push_str(&format!("{metric}_sum {}\n", h.sum));
    }
    out.push_str("# EOF\n");
    out
}

/// OpenMetrics text from a parsed run report — a finished
/// `--report-out` file or a `--live-status` snapshot alike. The report's
/// quarantined `wall_clock.budget` counters export alongside its
/// deterministic ones. `--metrics-out` renders the final report through
/// this same function, so its bytes equal `mce export-metrics` of the
/// run's report.
///
/// # Errors
///
/// [`MceError::SchemaVersion`] when the document is not a supported run
/// report.
pub fn openmetrics_from_value(doc: &Value) -> Result<String, MceError> {
    check_report_schema(doc)?;
    let wall = doc.get("wall_clock");
    let mut counters = u64_entries(doc.get("counters"));
    counters.extend(u64_entries(wall.and_then(|w| w.get("budget"))));
    let gauges = u64_entries(doc.get("gauges"));
    let mut histograms = Vec::new();
    if let Some(items) = wall
        .and_then(|w| w.get("histograms"))
        .and_then(Value::as_array)
    {
        for h in items {
            let name = h.get("name").and_then(Value::as_str).unwrap_or("unnamed");
            let u = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
            histograms.push((
                name.to_owned(),
                HistogramSummary {
                    count: u("count"),
                    sum: u("sum"),
                    min: u("min"),
                    max: u("max"),
                    p50: u("p50"),
                    p90: u("p90"),
                    p99: u("p99"),
                },
            ));
        }
    }
    Ok(render_openmetrics(&counters, &gauges, &histograms))
}

fn u64_entries(v: Option<&Value>) -> Vec<(String, u64)> {
    match v {
        Some(Value::Object(map)) => map
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Escapes free text for an OpenMetrics `HELP` line per the exposition
/// format ABNF: backslash and newline must be escaped (`\\`, `\n`) or a
/// hostile registry name would inject new exposition lines; everything
/// else passes through.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a label *value* per the OpenMetrics ABNF: like
/// [`escape_help`] plus the double quote (`\"`), since label values are
/// quoted.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            other => out.push(other),
        }
    }
    out
}

/// Sanitizes a registry name into an OpenMetrics metric name: `mce_`
/// prefix, every character outside `[a-zA-Z0-9_:]` replaced with `_`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("mce_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `mce top`: terminal dashboard
// ---------------------------------------------------------------------------

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A Unicode block sparkline of `values`, scaled to the series' own
/// min..max range (a flat series renders mid-height).
pub(crate) fn sparkline(values: &[u64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = *values.iter().min().expect("nonempty");
    let max = *values.iter().max().expect("nonempty");
    values
        .iter()
        .map(|&v| {
            if max == min {
                SPARK[3]
            } else {
                let idx = ((v - min) as f64 / (max - min) as f64 * 7.0).round() as usize;
                SPARK[idx.min(7)]
            }
        })
        .collect()
}

/// A fixed-width `[#####....]` progress bar.
fn progress_bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done.min(total) as usize * width) / total as usize
    };
    format!(
        "[{}{}]",
        "#".repeat(filled),
        ".".repeat(width.saturating_sub(filled))
    )
}

/// The ETA in seconds plus the basis it was projected from — the
/// *soonest* projected stop across every active bound in a snapshot's
/// `wall_clock.live` object: remaining Phase-I architectures at the
/// observed per-architecture rate (`"archs"`), remaining evaluation
/// budget at the observed evaluation rate (`"max-evals"`), or remaining
/// wall time to the deadline (`"deadline"`). `None` until there is
/// enough progress to project from.
fn eta(elapsed_s: f64, live: &Value) -> Option<(f64, &'static str)> {
    let u = |k: &str| live.get(k).and_then(Value::as_u64);
    let mut best: Option<(f64, &'static str)> = None;
    let mut consider = |eta: f64, basis: &'static str| {
        if eta.is_finite() && best.is_none_or(|(b, _)| eta < b) {
            best = Some((eta, basis));
        }
    };
    if let (Some(done), Some(total)) = (u("archs_done"), u("archs_total")) {
        if done > 0 && total > done && elapsed_s > 0.0 {
            consider((total - done) as f64 * elapsed_s / done as f64, "archs");
        }
    }
    if let (Some(max), Some(remaining)) = (u("max_evals"), u("evals_remaining")) {
        let consumed = max.saturating_sub(remaining);
        if consumed > 0 && elapsed_s > 0.0 {
            consider(remaining as f64 * elapsed_s / consumed as f64, "max-evals");
        }
    }
    if let Some(deadline) = live.get("deadline_s").and_then(Value::as_f64) {
        consider((deadline - elapsed_s).max(0.0), "deadline");
    }
    best
}

/// Renders one parsed run report — a live-status snapshot or a finished
/// report — as the `mce top` dashboard: header, progress bar, funnel,
/// cache/budget lines, wall-series sparklines and the per-worker
/// occupancy summary. Phase, evaluation rate and ETA are derived from the
/// document. Plain text — the caller adds screen-clearing escapes in TTY
/// refresh mode, and the same output doubles as the non-TTY
/// single-snapshot mode.
///
/// Rendered for an 80-column terminal; `mce top` re-measures each
/// refresh and calls [`render_dashboard_with_width`].
pub fn render_dashboard(source: &str, doc: &Value) -> String {
    render_dashboard_with_width(source, doc, 80)
}

/// [`render_dashboard`] for a `width`-column terminal: the progress bar
/// and the sparklines scale with the width (never below a usable
/// minimum), so a resized terminal gets a re-fitted frame on the next
/// refresh.
pub fn render_dashboard_with_width(source: &str, doc: &Value, width: usize) -> String {
    // 24 columns at the classic 80; wider terminals grow the bar,
    // narrow ones shrink it down to a floor of 8.
    let bar_width = width.saturating_sub(56).clamp(8, 48);
    let spark_width = width.saturating_sub(40).clamp(8, 120);
    let num = |v: Option<&Value>, k: &str| v.and_then(|v| v.get(k)).and_then(Value::as_f64);
    let wall = doc.get("wall_clock");
    let live = wall.and_then(|w| w.get("live"));
    let counter = |name: &str| num(doc.get("counters"), name).unwrap_or(0.0);
    let frontier = doc
        .get("frontier_evolution")
        .and_then(Value::as_array)
        .and_then(<[Value]>::last);
    let status = doc.get("status").and_then(Value::as_str).unwrap_or("?");
    let elapsed = num(wall, "elapsed_s").unwrap_or(0.0);
    // A finished report without the live object has committed every
    // architecture its frontier evolution records.
    let committed = num(frontier, "archs_explored").unwrap_or(0.0) as u64;
    let arch = |k: &str| num(live, k).map_or(committed, |v| v as u64);
    let (done, total) = (arch("archs_done"), arch("archs_total"));
    let phase = if status != "running" {
        "done"
    } else if total > 0 && done >= total {
        "phase2"
    } else {
        "phase1"
    };
    let mut out = format!(
        "mce top — `{}` ({source})\n",
        doc.get("workload").and_then(Value::as_str).unwrap_or("?")
    );
    let mut line = format!("status   {status} ({phase})  elapsed {elapsed:.1}s");
    if let Some(reason) = doc.get("stop_reason").and_then(Value::as_str) {
        line.push_str(&format!("  stop_reason {reason}"));
    }
    if let Some((secs, basis)) = live
        .filter(|_| status == "running")
        .and_then(|l| eta(elapsed, l))
    {
        line.push_str(&format!("  eta ~{secs:.0}s ({basis})"));
    }
    out.push_str(&line);
    out.push('\n');
    out.push_str(&format!(
        "archs    {} {done}/{total}\n",
        progress_bar(done, total, bar_width)
    ));
    let cache = doc.get("eval_cache");
    let evals = num(cache, "hits").unwrap_or(0.0) + num(cache, "misses").unwrap_or(0.0);
    out.push_str(&format!(
        "evals    {evals:.0} total, {:.1}/s   cache {:.1}% hit\n",
        if elapsed > 0.0 { evals / elapsed } else { 0.0 },
        num(cache, "hit_rate").unwrap_or(0.0) * 100.0,
    ));
    out.push_str(&format!(
        "funnel   enumerated {:.0} → estimated {:.0} → simulated {:.0}\n",
        counter("conex.candidates_enumerated"),
        counter("conex.candidates_estimated"),
        counter("conex.simulated"),
    ));
    out.push_str(&format!(
        "frontier size {:.0}  hypervolume {:.4}\n",
        num(frontier, "frontier_size").unwrap_or(0.0),
        num(frontier, "hypervolume").unwrap_or(0.0),
    ));
    let mut budget = Vec::new();
    if let Some(rem) = num(live, "evals_remaining") {
        match num(live, "max_evals") {
            Some(max) => budget.push(format!("evals left {rem:.0}/{max:.0}")),
            None => budget.push(format!("evals left {rem:.0}")),
        }
    }
    if let Some(d) = num(live, "deadline_s") {
        budget.push(format!("deadline {d:.1}s"));
    }
    let budget_counters = wall.and_then(|w| w.get("budget"));
    for (label, name) in [
        ("timeouts", "budget.timeouts"),
        ("degraded", "budget.degraded_evals"),
    ] {
        budget.push(format!(
            "{label} {:.0}",
            num(budget_counters, name).unwrap_or(0.0)
        ));
    }
    out.push_str(&format!("budget   {}\n", budget.join("  ")));
    // Wall-series sparklines: the most informative series first, capped
    // so the dashboard stays one screen tall.
    const PREFERRED: [&str; 4] = [
        "conex.candidates_estimated",
        "conex.simulated",
        "eval_cache.hits",
        "conex.frontier_size_max",
    ];
    if let Some(Value::Object(series)) = wall
        .and_then(|w| w.get("timeseries"))
        .and_then(|t| t.get("wall"))
    {
        let mut shown = 0;
        let ordered = PREFERRED
            .iter()
            .filter_map(|&n| series.get(n).map(|v| (n.to_owned(), v)))
            .chain(
                series
                    .iter()
                    .filter(|(n, _)| !PREFERRED.contains(&n.as_str()))
                    .map(|(n, v)| (n.clone(), v)),
            );
        for (name, points) in ordered {
            if shown >= 4 {
                break;
            }
            let values: Vec<u64> = points
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_array()?.get(1)?.as_u64())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let latest = *values.last().expect("nonempty");
            // Tail-truncate long series so the line fits the terminal;
            // the newest samples are the interesting ones.
            let tail = &values[values.len().saturating_sub(spark_width)..];
            out.push_str(&format!("{name:<28} {} {latest}\n", sparkline(tail)));
            shown += 1;
        }
    }
    // Worker lanes: the per-worker occupancy distribution, when present.
    if let Some(hists) = wall
        .and_then(|w| w.get("histograms"))
        .and_then(Value::as_array)
    {
        for h in hists {
            if h.get("name").and_then(Value::as_str) == Some("par.worker_occupancy_pct") {
                let u = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
                out.push_str(&format!(
                    "workers  occupancy p50 {}% p90 {}% (over {} lane spans)\n",
                    u("p50"),
                    u("p90"),
                    u("count")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Progress;
    use mce_apex::ApexConfig;
    use mce_conex::explore::Phase1State;
    use mce_conex::{CacheStats, ConexConfig};
    use mce_obs::json;
    use mce_sim::Preset;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mce_live_unit_{}_{name}", std::process::id()))
    }

    /// A mid-Phase-I snapshot report: 3 architectures committed.
    fn running_report() -> RunReport {
        let state = Phase1State {
            archs_done: 3,
            frontier_evolution: vec![mce_conex::FrontierSnapshot {
                archs_explored: 3,
                estimated: 90,
                frontier_size: 7,
                hypervolume: 0.42,
            }],
            ..Phase1State::default()
        };
        RunReport::collect(
            &mce_appmodel::benchmarks::vocoder(),
            &ApexConfig::preset(Preset::Fast),
            &ConexConfig::preset(Preset::Fast),
            64,
            &CacheStats {
                hits: 25,
                misses: 75,
                inserts: 75,
                evictions: 0,
            },
            Progress::Running(&state),
            2.5,
            false,
        )
    }

    /// Publishes `report` through `shared` and reads the snapshot back.
    fn published(shared: &LiveShared, report: RunReport, name: &str) -> Value {
        let path = tmp(name);
        assert!(shared.publish(&path, report), "publish to a temp file");
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        std::fs::remove_file(&path).ok();
        json::parse(&text).expect("snapshot parses")
    }

    #[test]
    fn live_status_parses_and_carries_schema_and_progress() {
        let shared = LiveShared::new(10, Some(2_000), Some(30.0), None);
        shared.record_arch(3);
        let doc = published(&shared, running_report(), "progress.json");
        // A snapshot is a schema-1 run report, in flight.
        check_report_schema(&doc).expect("a snapshot is a run report");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("running"));
        assert_eq!(doc.get("stop_reason"), Some(&Value::Null));
        let pareto = doc.get("pareto").expect("pareto section");
        assert_eq!(pareto.get("cost_latency").and_then(Value::as_u64), Some(0));
        assert_eq!(
            pareto
                .get("front_cost_latency")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0),
            "nothing is fully simulated before Phase II"
        );
        let live = doc
            .get("wall_clock")
            .and_then(|w| w.get("live"))
            .expect("wall_clock.live");
        let u = |k: &str| live.get(k).and_then(Value::as_u64);
        assert_eq!((u("archs_done"), u("archs_total")), (Some(3), Some(10)));
        assert_eq!(u("max_evals"), Some(2000));
        assert_eq!(live.get("deadline_s").and_then(Value::as_f64), Some(30.0));
        assert_eq!(
            live.get("writes")
                .and_then(|w| w.get("attempted"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // Two bounds are active: 7 archs left at 2.5 s per 3 projects
        // sooner than the 27.5 s left to the deadline.
        let (secs, basis) = eta(2.5, live).expect("an ETA from the first snapshot");
        assert_eq!(basis, "archs");
        assert!((secs - 7.0 * 2.5 / 3.0).abs() < 1e-9, "{secs}");
        let text = render_dashboard("s.json", &doc);
        for needle in [
            "status   running (phase1)",
            "3/10",
            "eta ~6s (archs)",
            "25.0% hit",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn finish_marks_status_and_reason() {
        let shared = LiveShared::new(10, None, None, None);
        shared.record_arch(3);
        let mut report = running_report();
        report.status = "truncated".to_owned();
        report.stop_reason = Some("max-evals".to_owned());
        let doc = published(&shared, report, "finish.json");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("truncated"));
        let text = render_dashboard("s.json", &doc);
        assert!(
            text.contains("status   truncated (done)") && text.contains("stop_reason max-evals"),
            "{text}"
        );
        assert!(
            !text.contains("eta"),
            "a finished run projects no ETA:\n{text}"
        );
    }

    #[test]
    fn eta_prefers_the_soonest_bound() {
        // Deadline of 0 seconds: already due, so it beats any
        // architecture-rate projection.
        let live = json::parse(
            "{\"archs_done\": 1, \"archs_total\": 100, \"max_evals\": null, \
             \"evals_remaining\": null, \"deadline_s\": 0}",
        )
        .unwrap();
        assert_eq!(eta(5.0, &live), Some((0.0, "deadline")));
        // 10 of 100 evaluations consumed in 1 s: 9 s left at that rate.
        let budget = json::parse("{\"max_evals\": 100, \"evals_remaining\": 90}").unwrap();
        assert_eq!(eta(1.0, &budget), Some((9.0, "max-evals")));
        // With no bounds and no progress there is nothing to project.
        let idle = json::parse("{\"archs_done\": 0, \"archs_total\": 0}").unwrap();
        assert!(eta(5.0, &idle).is_none());
    }

    #[test]
    fn failed_publish_is_tallied_not_propagated() {
        let shared = LiveShared::new(1, None, None, None);
        let bad = Path::new("/nonexistent-dir-for-sure/status.json");
        assert!(
            !shared.publish(bad, running_report()),
            "write to a missing dir fails"
        );
        let doc = published(&shared, running_report(), "tally.json");
        let writes = doc
            .get("wall_clock")
            .and_then(|w| w.get("live"))
            .and_then(|l| l.get("writes"))
            .expect("write tally");
        assert_eq!(writes.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(writes.get("failed").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn openmetrics_renders_all_family_types() {
        let text = render_openmetrics(
            &[("conex.simulated".to_owned(), 24)],
            &[("conex.frontier_size_max".to_owned(), 7)],
            &[(
                "par.worker_span_us".to_owned(),
                HistogramSummary {
                    count: 8,
                    sum: 800,
                    min: 50,
                    max: 200,
                    p50: 90,
                    p90: 150,
                    p99: 190,
                },
            )],
        );
        for needle in [
            "# TYPE mce_conex_simulated counter",
            "mce_conex_simulated_total 24",
            "# TYPE mce_conex_frontier_size_max gauge",
            "mce_conex_frontier_size_max 7",
            "# TYPE mce_par_worker_span_us summary",
            "mce_par_worker_span_us{quantile=\"0.9\"} 150",
            "mce_par_worker_span_us_count 8",
            "mce_par_worker_span_us_sum 800",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
        assert!(text.ends_with("# EOF\n"), "terminator required:\n{text}");
        // Dots sanitized: no raw registry names leak into metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let metric = line.split([' ', '{']).next().unwrap();
            assert!(
                metric
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name in {line:?}"
            );
        }
    }

    #[test]
    fn openmetrics_escapes_hostile_names_in_help_and_labels() {
        // Registry names are programmer-chosen, but a hostile or buggy
        // one must not be able to inject exposition lines through HELP
        // text (the metric name itself is sanitized separately).
        let hostile = "evil\\name\nfake_metric{label=\"x\"} 1".to_owned();
        let text = render_openmetrics(&[(hostile, 5)], &[], &[]);
        // Every line is either a comment or starts with the sanitized
        // mce_ name — the injected line never reaches column zero.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("mce_"),
                "injected exposition line: {line:?}\n{text}"
            );
        }
        // The HELP line carries the escaped forms, never a raw newline
        // or backslash.
        let help = text
            .lines()
            .find(|l| l.starts_with("# HELP"))
            .expect("has HELP");
        assert!(help.contains("evil\\\\name"), "{help}");
        assert!(help.contains("\\n"), "{help}");
        assert_eq!(text.matches("# HELP").count(), 1);
        // Label values escape quotes and backslashes too.
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help("plain_name"), "plain_name");
    }

    #[test]
    fn dashboard_scales_bar_and_sparklines_to_terminal_width() {
        let doc = json::parse(
            "{\"schema\": 1, \"workload\": \"vocoder\", \"status\": \"running\", \
             \"wall_clock\": {\"elapsed_s\": 1.0, \
             \"live\": {\"archs_done\": 5, \"archs_total\": 10}, \
             \"timeseries\": {\"wall\": {\"conex.simulated\": \
             [[1000, 1], [2000, 2], [3000, 3], [4000, 4], [5000, 5], [6000, 6], \
             [7000, 7], [8000, 8], [9000, 9], [10000, 10], [11000, 11], [12000, 12]]}}}}",
        )
        .unwrap();
        // The default render equals the explicit 80-column render.
        assert_eq!(
            render_dashboard("s.json", &doc),
            render_dashboard_with_width("s.json", &doc, 80)
        );
        let narrow = render_dashboard_with_width("s.json", &doc, 40);
        let wide = render_dashboard_with_width("s.json", &doc, 120);
        let bar_len = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("archs"))
                .and_then(|l| Some(l.find(']')? - l.find('[')?))
                .expect("has progress bar")
        };
        assert_eq!(bar_len(&narrow), 9, "floor of 8 cells + bracket");
        assert_eq!(bar_len(&wide), 49, "120 cols grow the bar to 48 cells");
        // The 12-sample series is tail-truncated at narrow widths.
        let spark_len = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("conex.simulated"))
                .map(|l| l.chars().filter(|c| SPARK.contains(c)).count())
                .expect("has sparkline")
        };
        assert_eq!(spark_len(&narrow), 8);
        assert_eq!(spark_len(&wide), 12, "all samples fit at 120 columns");
        // The newest samples survive truncation: the narrow line still
        // ends at the series maximum.
        assert!(narrow
            .lines()
            .find(|l| l.starts_with("conex.simulated"))
            .unwrap()
            .contains('█'));
    }

    #[test]
    fn openmetrics_from_live_and_report_documents() {
        // A snapshot exports exactly what the same report exports: the
        // live object carries no metrics.
        let shared = LiveShared::new(10, None, None, None);
        let report = running_report();
        let snapshot = published(&shared, report.clone(), "export.json");
        let plain = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            openmetrics_from_value(&snapshot).expect("snapshot exports"),
            openmetrics_from_value(&plain).expect("report exports")
        );
        let report = json::parse(
            "{\"schema\": 1, \"counters\": {\"conex.simulated\": 9}, \
             \"gauges\": {\"g.max\": 2}, \"wall_clock\": {\"budget\": \
             {\"budget.timeouts\": 3}, \"histograms\": [{\"name\": \"h.us\", \
             \"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \"p50\": 5, \
             \"p90\": 5, \"p99\": 5}]}}",
        )
        .unwrap();
        let text = openmetrics_from_value(&report).expect("report file exports");
        for needle in [
            "mce_conex_simulated_total 9",
            "mce_budget_timeouts_total 3",
            "mce_g_max 2",
            "mce_h_us_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
        for foreign in ["{\"something\": 1}", "{\"schema\": 99}"] {
            let err = openmetrics_from_value(&json::parse(foreign).unwrap()).unwrap_err();
            assert!(matches!(err, MceError::SchemaVersion { .. }), "{err}");
        }
    }

    #[test]
    fn dashboard_renders_progress_sparklines_and_workers() {
        let doc = json::parse(
            "{\"schema\": 1, \"workload\": \"vocoder\", \"status\": \"running\", \
             \"stop_reason\": null, \
             \"counters\": {\"conex.candidates_enumerated\": 120, \
             \"conex.candidates_estimated\": 100, \"conex.simulated\": 24}, \
             \"gauges\": {}, \
             \"eval_cache\": {\"hits\": 25, \"misses\": 75, \"hit_rate\": 0.25}, \
             \"frontier_evolution\": [{\"archs_explored\": 5, \"estimated\": 100, \
             \"frontier_size\": 7, \"hypervolume\": 0.42}], \
             \"wall_clock\": {\"elapsed_s\": 3.0, \"threads\": 4, \
             \"live\": {\"archs_done\": 5, \"archs_total\": 10, \"max_evals\": 2000, \
             \"evals_remaining\": 1900, \"deadline_s\": null, \
             \"writes\": {\"attempted\": 3, \"failed\": 0}}, \
             \"budget\": {}, \
             \"timeseries\": {\"wall\": {\"conex.simulated\": \
             [[1000, 2], [2000, 9], [3000, 24]]}}, \
             \"histograms\": [{\"name\": \"par.worker_occupancy_pct\", \"count\": 8, \
             \"sum\": 700, \"min\": 80, \"max\": 100, \"p50\": 93, \"p90\": 99, \
             \"p99\": 100}]}}",
        )
        .unwrap();
        let text = render_dashboard("status.json", &doc);
        for needle in [
            "vocoder",
            "status   running (phase1)",
            "5/10",
            // 5 archs left at 0.6 s each beats 1900 evals at 33.3/s.
            "eta ~3s (archs)",
            "100 total, 33.3/s",
            "cache 25.0% hit",
            "enumerated 120 → estimated 100 → simulated 24",
            "evals left 1900/2000",
            "hypervolume 0.4200",
            "conex.simulated",
            "workers  occupancy p50 93% p90 99%",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
        assert!(
            text.contains('▁') && text.contains('█'),
            "sparkline rendered:\n{text}"
        );
        // A finished report without the live object reads its progress
        // from the frontier evolution.
        let finished = json::parse(
            "{\"schema\": 1, \"workload\": \"vocoder\", \"status\": \"complete\", \
             \"frontier_evolution\": [{\"archs_explored\": 4, \"estimated\": 100, \
             \"frontier_size\": 7, \"hypervolume\": 0.42}], \
             \"wall_clock\": {\"elapsed_s\": 2.5}}",
        )
        .unwrap();
        let text = render_dashboard("report.json", &finished);
        assert!(text.contains("status   complete (done)"), "{text}");
        assert!(text.contains("4/4"), "{text}");
    }

    #[test]
    fn sparkline_and_progress_bar_handle_edges() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5, 5, 5]), "▄▄▄");
        let line = sparkline(&[0, 7]);
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
        assert_eq!(progress_bar(0, 10, 4), "[....]");
        assert_eq!(progress_bar(10, 10, 4), "[####]");
        assert_eq!(progress_bar(5, 0, 4), "[....]", "zero total never divides");
    }
}
