//! Live run telemetry: the status file behind `mce explore
//! --live-status`, the `mce top` dashboard, and the OpenMetrics text
//! exporter behind `mce export-metrics` / `--metrics-out`.
//!
//! A live-status file is a schema-versioned JSON snapshot of a running
//! exploration — phase, candidate funnel, evaluation rate, cache hit
//! rate, remaining budget, a [`StopReason`](mce_budget::StopReason)-aware
//! ETA, frontier hypervolume — plus the full counter/gauge/histogram
//! registries and both time-series channels from
//! [`mce_obs::timeseries`]. It is rewritten atomically (temp sibling +
//! rename) on a wall-clock cadence by the session's background sampler
//! and at every per-architecture boundary, so a reader always sees a
//! complete, parseable document: either the previous snapshot or the
//! next one, never a torn file.
//!
//! Publishing is strictly best-effort and strictly read-only with
//! respect to the exploration: a failed write bumps a failure tally in
//! the next snapshot but never surfaces as a run error, and everything
//! in the file is derived from registries the instrumentation layer
//! already maintains — results are bit-identical with `--live-status`
//! on or off. Wall-clock-derived fields (rates, ETA, wall series) are
//! inherently nondeterministic and never feed anything deterministic;
//! the deterministic logical series carried here are the same ones the
//! run report embeds.

use crate::report::{fmt_f64, histograms_array, owned_series, series_object, u64_object};
use mce_budget::EvalBudget;
use mce_conex::explore::Phase1State;
use mce_error::atomic_write;
use mce_obs as obs;
use mce_obs::json::Value;
use mce_obs::{escape_json, HistogramSummary};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Version of the live-status JSON layout, carried as the file's first
/// key (`"live_schema"`). `mce top` and `mce export-metrics` refuse
/// files with a different version rather than misrendering them.
pub const LIVE_SCHEMA: u64 = 1;

/// The shared progress state behind one run's live-status file: updated
/// by the session at per-architecture boundaries, read by the
/// wall-clock sampler hook, serialized by [`LiveShared::to_json`].
///
/// All updates are lock-free or short-lived-lock stores; nothing here
/// sits on the exploration's hot path.
#[derive(Debug)]
pub struct LiveShared {
    workload: String,
    threads: usize,
    max_evals: Option<u64>,
    deadline_s: Option<f64>,
    budget: Option<Arc<EvalBudget>>,
    started: Instant,
    archs_total: AtomicUsize,
    archs_done: AtomicUsize,
    frontier_size: AtomicUsize,
    hypervolume_bits: AtomicU64,
    outcome: Mutex<Outcome>,
    writes_attempted: AtomicU64,
    writes_failed: AtomicU64,
}

#[derive(Debug, Clone)]
struct Outcome {
    status: &'static str,
    stop_reason: Option<String>,
}

impl LiveShared {
    /// A fresh progress state for a run over `workload`.
    pub fn new(
        workload: &str,
        threads: usize,
        max_evals: Option<u64>,
        deadline_s: Option<f64>,
        budget: Option<Arc<EvalBudget>>,
    ) -> Self {
        LiveShared {
            workload: workload.to_owned(),
            threads,
            max_evals,
            deadline_s,
            budget,
            started: Instant::now(),
            archs_total: AtomicUsize::new(0),
            archs_done: AtomicUsize::new(0),
            frontier_size: AtomicUsize::new(0),
            hypervolume_bits: AtomicU64::new(0f64.to_bits()),
            outcome: Mutex::new(Outcome {
                status: "running",
                stop_reason: None,
            }),
            writes_attempted: AtomicU64::new(0),
            writes_failed: AtomicU64::new(0),
        }
    }

    /// Sets the Phase-I architecture total (known once APEX has selected).
    pub fn set_archs_total(&self, total: usize) {
        self.archs_total.store(total, Ordering::SeqCst);
    }

    /// Records a committed Phase-I architecture boundary.
    pub fn record_arch(&self, state: &Phase1State) {
        self.archs_done.store(state.archs_done, Ordering::SeqCst);
        if let Some(last) = state.frontier_evolution.last() {
            self.frontier_size
                .store(last.frontier_size, Ordering::SeqCst);
            self.hypervolume_bits
                .store(last.hypervolume.to_bits(), Ordering::SeqCst);
        }
    }

    /// Marks the run finished (`"complete"` or `"truncated"` + reason).
    pub fn finish(&self, truncated: bool, stop_reason: Option<&str>) {
        let mut outcome = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        outcome.status = if truncated { "truncated" } else { "complete" };
        outcome.stop_reason = stop_reason.map(str::to_owned);
    }

    /// Atomically publishes the current snapshot to `path`. Best-effort
    /// by contract: a failed write is tallied into the *next* snapshot's
    /// `"writes"` section and reported as `false`, never an error — live
    /// monitoring must not be able to fail a run.
    pub fn publish(&self, path: &Path) -> bool {
        self.writes_attempted.fetch_add(1, Ordering::SeqCst);
        let body = self.to_json();
        match atomic_write(path, body.as_bytes()) {
            Ok(()) => true,
            Err(_) => {
                self.writes_failed.fetch_add(1, Ordering::SeqCst);
                false
            }
        }
    }

    /// The ETA in seconds plus the basis it was projected from — the
    /// *soonest* projected stop across every active bound: remaining
    /// Phase-I architectures at the observed per-architecture rate
    /// (`"archs"`), remaining evaluation budget at the observed
    /// evaluation rate (`"max-evals"`), or remaining wall time to the
    /// deadline (`"deadline"`). `None` until there is enough progress to
    /// project from.
    pub fn eta(&self) -> Option<(f64, &'static str)> {
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut best: Option<(f64, &'static str)> = None;
        let mut consider = |eta: f64, basis: &'static str| {
            if eta.is_finite() && (best.is_none() || eta < best.expect("checked").0) {
                best = Some((eta, basis));
            }
        };
        let done = self.archs_done.load(Ordering::SeqCst);
        let total = self.archs_total.load(Ordering::SeqCst);
        if done > 0 && total > done && elapsed > 0.0 {
            consider((total - done) as f64 * elapsed / done as f64, "archs");
        }
        if let (Some(max), Some(budget)) = (self.max_evals, &self.budget) {
            if let Some(remaining) = budget.remaining() {
                let consumed = max.saturating_sub(remaining);
                if consumed > 0 && elapsed > 0.0 {
                    consider(remaining as f64 * elapsed / consumed as f64, "max-evals");
                }
            }
        }
        if let Some(deadline) = self.deadline_s {
            consider((deadline - elapsed).max(0.0), "deadline");
        }
        best
    }

    /// Serializes the snapshot as the live-status JSON document. Reads
    /// the counter/gauge/histogram registries and both time-series
    /// channels when tracing is enabled; with no sink installed those
    /// sections are empty, the progress fields still publish.
    pub fn to_json(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let outcome = self
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let (counters, gauges, histograms) = registries_snapshot();
        let by_name: BTreeMap<&str, u64> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let counter = |name: &str| by_name.get(name).copied().unwrap_or(0);
        let done = self.archs_done.load(Ordering::SeqCst);
        let total = self.archs_total.load(Ordering::SeqCst);
        let phase = if outcome.status != "running" {
            "done"
        } else if total > 0 && done >= total {
            "phase2"
        } else {
            "phase1"
        };
        let (hits, misses) = (counter("eval_cache.hits"), counter("eval_cache.misses"));
        let evals = hits + misses;
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"live_schema\": {LIVE_SCHEMA},\n"));
        s.push_str(&format!(
            "  \"workload\": \"{}\",\n",
            escape_json(&self.workload)
        ));
        s.push_str(&format!("  \"status\": \"{}\",\n", outcome.status));
        match &outcome.stop_reason {
            Some(r) => s.push_str(&format!("  \"stop_reason\": \"{}\",\n", escape_json(r))),
            None => s.push_str("  \"stop_reason\": null,\n"),
        }
        s.push_str(&format!("  \"phase\": \"{phase}\",\n"));
        s.push_str(&format!("  \"archs_done\": {done},\n"));
        s.push_str(&format!("  \"archs_total\": {total},\n"));
        s.push_str(&format!(
            "  \"candidates\": {{\"enumerated\": {}, \"estimated\": {}, \"simulated\": {}}},\n",
            counter("conex.candidates_enumerated"),
            counter("conex.candidates_estimated"),
            counter("conex.simulated"),
        ));
        s.push_str(&format!(
            "  \"evals\": {{\"total\": {evals}, \"per_second\": {}}},\n",
            fmt_f64(if elapsed > 0.0 {
                evals as f64 / elapsed
            } else {
                0.0
            })
        ));
        s.push_str(&format!(
            "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {}}},\n",
            fmt_f64(if evals > 0 {
                hits as f64 / evals as f64
            } else {
                0.0
            })
        ));
        let remaining = self.budget.as_ref().and_then(|b| b.remaining());
        s.push_str(&format!(
            "  \"budget\": {{\"max_evals\": {}, \"evals_remaining\": {}, \"deadline_s\": {}, \
             \"timeouts\": {}, \"degraded\": {}}},\n",
            opt_u64(self.max_evals),
            opt_u64(remaining),
            self.deadline_s.map_or_else(|| "null".to_owned(), fmt_f64),
            counter("budget.timeouts"),
            counter("budget.degraded_evals"),
        ));
        s.push_str(&format!(
            "  \"frontier\": {{\"size\": {}, \"hypervolume\": {}}},\n",
            self.frontier_size.load(Ordering::SeqCst),
            fmt_f64(f64::from_bits(self.hypervolume_bits.load(Ordering::SeqCst))),
        ));
        match self.eta() {
            Some((eta, basis)) => s.push_str(&format!(
                "  \"eta\": {{\"seconds\": {}, \"basis\": \"{basis}\"}},\n",
                fmt_f64(eta)
            )),
            None => s.push_str("  \"eta\": null,\n"),
        }
        s.push_str(&format!("  \"elapsed_s\": {},\n", fmt_f64(elapsed)));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!(
            "  \"writes\": {{\"attempted\": {}, \"failed\": {}}},\n",
            self.writes_attempted.load(Ordering::SeqCst),
            self.writes_failed.load(Ordering::SeqCst),
        ));
        s.push_str(&u64_object("counters", &counters, "  "));
        s.push_str(&u64_object("gauges", &gauges, "  "));
        s.push_str(&histograms_array(&histograms, "  "));
        s.push_str(",\n");
        let (logical, wall) = if obs::tracing_enabled() {
            (
                owned_series(obs::logical_series()),
                owned_series(obs::wall_series()),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        s.push_str("  \"series\": {\n");
        s.push_str(&series_object("logical", &logical, "    "));
        s.push_str(",\n");
        s.push_str(&series_object("wall", &wall, "    "));
        s.push_str("\n  }\n}\n");
        s
    }
}

/// Counter, gauge and histogram registry snapshots, in that order
/// (empty when tracing is disabled).
type Registries = (
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<(String, HistogramSummary)>,
);

/// Counter, gauge and histogram registries as owned snapshots (empty
/// when tracing is disabled).
fn registries_snapshot() -> Registries {
    if !obs::tracing_enabled() {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    (
        obs::counters_snapshot()
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v))
            .collect(),
        obs::gauges_snapshot()
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v))
            .collect(),
        obs::histograms_snapshot()
            .into_iter()
            .map(|(n, h)| (n.to_owned(), h.summary()))
            .collect(),
    )
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |n| n.to_string())
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

/// OpenMetrics text straight from the process-global registries (empty
/// families — just the terminator — when tracing is disabled). The
/// session writes this to `--metrics-out` at end of run.
pub fn openmetrics_from_registries() -> String {
    let (counters, gauges, histograms) = registries_snapshot();
    render_openmetrics(&counters, &gauges, &histograms)
}

/// OpenMetrics text from a parsed live-status file (`"live_schema"`) or
/// run-report file (`"schema"`): one exporter, both artifacts. Report
/// files contribute their quarantined `wall_clock.budget` counters too.
///
/// # Errors
///
/// Returns a message when the document carries neither schema marker or
/// an unsupported version.
pub fn openmetrics_from_value(doc: &Value) -> Result<String, String> {
    let (counters_v, gauges_v, hists_v) = if let Some(v) = doc.get("live_schema") {
        match v.as_u64() {
            Some(LIVE_SCHEMA) => {}
            found => return Err(format!("unsupported live_schema {found:?}")),
        }
        (
            doc.get("counters"),
            doc.get("gauges"),
            doc.get("histograms"),
        )
    } else if let Some(v) = doc.get("schema") {
        match v.as_u64() {
            Some(crate::report::REPORT_SCHEMA) => {}
            found => return Err(format!("unsupported report schema {found:?}")),
        }
        (
            doc.get("counters"),
            doc.get("gauges"),
            doc.get("wall_clock").and_then(|w| w.get("histograms")),
        )
    } else {
        return Err(
            "not a live-status or run-report file (no `live_schema` or `schema` key)".to_owned(),
        );
    };
    let mut counters = u64_entries(counters_v);
    if doc.get("live_schema").is_none() {
        counters.extend(u64_entries(
            doc.get("wall_clock").and_then(|w| w.get("budget")),
        ));
    }
    let gauges = u64_entries(gauges_v);
    let mut histograms = Vec::new();
    if let Some(items) = hists_v.and_then(Value::as_array) {
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

/// Renders one parsed live-status snapshot as the `mce top` dashboard:
/// header, progress bar, funnel, cache/budget lines, wall-series
/// sparklines and the per-worker occupancy summary. Plain text — the
/// caller adds screen-clearing escapes in TTY refresh mode, and the
/// same output doubles as the non-TTY single-snapshot mode.
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
    let str_of = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or("?");
    let u64_of = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
    let nested = |a: &str, b: &str| {
        doc.get(a)
            .and_then(|v| v.get(b))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mut out = String::new();
    out.push_str(&format!("mce top — `{}` ({source})\n", str_of("workload")));
    let status = str_of("status");
    let mut line = format!(
        "status   {status} ({})  elapsed {:.1}s",
        str_of("phase"),
        doc.get("elapsed_s").and_then(Value::as_f64).unwrap_or(0.0)
    );
    if let Some(reason) = doc.get("stop_reason").and_then(Value::as_str) {
        line.push_str(&format!("  stop_reason {reason}"));
    }
    if let Some(eta) = doc.get("eta").filter(|v| **v != Value::Null) {
        let secs = eta.get("seconds").and_then(Value::as_f64).unwrap_or(0.0);
        let basis = eta.get("basis").and_then(Value::as_str).unwrap_or("?");
        line.push_str(&format!("  eta ~{secs:.0}s ({basis})"));
    }
    out.push_str(&line);
    out.push('\n');
    let (done, total) = (u64_of("archs_done"), u64_of("archs_total"));
    out.push_str(&format!(
        "archs    {} {done}/{total}\n",
        progress_bar(done, total, bar_width)
    ));
    out.push_str(&format!(
        "evals    {:.0} total, {:.1}/s   cache {:.1}% hit\n",
        nested("evals", "total"),
        nested("evals", "per_second"),
        nested("cache", "hit_rate") * 100.0,
    ));
    out.push_str(&format!(
        "funnel   enumerated {:.0} → estimated {:.0} → simulated {:.0}\n",
        nested("candidates", "enumerated"),
        nested("candidates", "estimated"),
        nested("candidates", "simulated"),
    ));
    out.push_str(&format!(
        "frontier size {:.0}  hypervolume {:.4}\n",
        nested("frontier", "size"),
        nested("frontier", "hypervolume"),
    ));
    if let Some(budget) = doc.get("budget") {
        let mut parts = Vec::new();
        if let Some(rem) = budget.get("evals_remaining").and_then(Value::as_u64) {
            match budget.get("max_evals").and_then(Value::as_u64) {
                Some(max) => parts.push(format!("evals left {rem}/{max}")),
                None => parts.push(format!("evals left {rem}")),
            }
        }
        if let Some(d) = budget.get("deadline_s").and_then(Value::as_f64) {
            parts.push(format!("deadline {d:.1}s"));
        }
        parts.push(format!(
            "timeouts {:.0}",
            budget
                .get("timeouts")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        ));
        parts.push(format!(
            "degraded {:.0}",
            budget
                .get("degraded")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        ));
        out.push_str(&format!("budget   {}\n", parts.join("  ")));
    }
    // Wall-series sparklines: the most informative series first, capped
    // so the dashboard stays one screen tall.
    const PREFERRED: [&str; 4] = [
        "conex.candidates_estimated",
        "conex.simulated",
        "eval_cache.hits",
        "conex.frontier_size_max",
    ];
    if let Some(Value::Object(wall)) = doc.get("series").and_then(|s| s.get("wall")) {
        let mut shown = 0;
        let ordered = PREFERRED
            .iter()
            .filter_map(|&n| wall.get(n).map(|v| (n.to_owned(), v)))
            .chain(
                wall.iter()
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
    if let Some(hists) = doc.get("histograms").and_then(Value::as_array) {
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

/// Renders the `mce top <serve-dir>` overview: the daemon's `serve.json`
/// summary — pid, bound address, drain state, per-state job counts —
/// followed by one progress line per job whose live-status file
/// currently parses (`jobs` pairs a file name with its parsed document,
/// in job-id order).
pub fn render_serve_overview(source: &str, serve_doc: &Value, jobs: &[(String, Value)]) -> String {
    let mut out = String::new();
    let draining = serve_doc.get("draining") == Some(&Value::Bool(true));
    out.push_str(&format!("mce top — serve ({source})\n"));
    out.push_str(&format!(
        "status   {}  pid {}  {}\n",
        if draining { "draining" } else { "serving" },
        serve_doc.get("pid").and_then(Value::as_u64).unwrap_or(0),
        serve_doc.get("addr").and_then(Value::as_str).unwrap_or("?"),
    ));
    let mut counts = format!(
        "jobs     total {}",
        serve_doc.get("total").and_then(Value::as_u64).unwrap_or(0)
    );
    if let Some(Value::Object(map)) = serve_doc.get("jobs") {
        for (state, n) in map {
            counts.push_str(&format!("  {state} {}", n.as_u64().unwrap_or(0)));
        }
    }
    counts.push('\n');
    out.push_str(&counts);
    // One progress line per job with a live-status file — the same fields
    // the full dashboard leads with.
    for (name, doc) in jobs {
        let status = doc.get("status").and_then(Value::as_str).unwrap_or("?");
        let phase = doc.get("phase").and_then(Value::as_str).unwrap_or("?");
        let done = doc.get("archs_done").and_then(Value::as_u64).unwrap_or(0);
        let total = doc.get("archs_total").and_then(Value::as_u64).unwrap_or(0);
        let evals = doc
            .get("evals")
            .and_then(|e| e.get("per_second"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{name:<24} {status:<9} {phase:<7} archs {done}/{total}  {evals:.1} evals/s\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_obs::json;

    fn sample_status() -> String {
        let shared = LiveShared::new("vocoder", 4, Some(2_000), Some(30.0), None);
        shared.set_archs_total(10);
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
        shared.record_arch(&state);
        shared.to_json()
    }

    #[test]
    fn live_status_parses_and_carries_schema_and_progress() {
        let text = sample_status();
        let doc = json::parse(&text).expect("live status parses");
        assert_eq!(
            doc.get("live_schema").and_then(Value::as_u64),
            Some(LIVE_SCHEMA)
        );
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("running"));
        assert_eq!(doc.get("phase").and_then(Value::as_str), Some("phase1"));
        assert_eq!(doc.get("archs_done").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("archs_total").and_then(Value::as_u64), Some(10));
        assert_eq!(
            doc.get("frontier")
                .and_then(|f| f.get("size"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("budget")
                .and_then(|b| b.get("max_evals"))
                .and_then(Value::as_u64),
            Some(2000)
        );
        // Two bounds are active (archs rate, 30s deadline); whichever
        // projects sooner, an ETA exists from the first snapshot.
        let eta = doc.get("eta").expect("eta key");
        let basis = eta.get("basis").and_then(Value::as_str);
        assert!(
            matches!(basis, Some("archs") | Some("deadline")),
            "unexpected eta basis {basis:?}:\n{text}"
        );
        for key in ["counters", "gauges", "histograms", "series", "writes"] {
            assert!(doc.get(key).is_some(), "missing {key}:\n{text}");
        }
    }

    #[test]
    fn finish_marks_status_and_reason() {
        let shared = LiveShared::new("vocoder", 1, None, None, None);
        shared.finish(true, Some("max-evals"));
        let doc = json::parse(&shared.to_json()).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("truncated"));
        assert_eq!(
            doc.get("stop_reason").and_then(Value::as_str),
            Some("max-evals")
        );
        assert_eq!(doc.get("phase").and_then(Value::as_str), Some("done"));
    }

    #[test]
    fn eta_prefers_the_soonest_bound() {
        // Deadline of 0 seconds: already due, so it beats any
        // architecture-rate projection.
        let shared = LiveShared::new("w", 1, None, Some(0.0), None);
        shared.set_archs_total(100);
        let state = Phase1State {
            archs_done: 1,
            ..Phase1State::default()
        };
        shared.record_arch(&state);
        let (eta, basis) = shared.eta().expect("two active bounds");
        assert_eq!(basis, "deadline");
        assert_eq!(eta, 0.0);
        // With no bounds and no progress there is nothing to project.
        let idle = LiveShared::new("w", 1, None, None, None);
        assert!(idle.eta().is_none());
    }

    #[test]
    fn failed_publish_is_tallied_not_propagated() {
        let shared = LiveShared::new("w", 1, None, None, None);
        let bad = Path::new("/nonexistent-dir-for-sure/status.json");
        assert!(!shared.publish(bad), "write to a missing dir fails");
        let doc = json::parse(&shared.to_json()).unwrap();
        assert_eq!(
            doc.get("writes")
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_u64),
            Some(1)
        );
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
            "{\"live_schema\": 1, \"workload\": \"vocoder\", \"status\": \"running\", \
             \"phase\": \"phase1\", \"archs_done\": 5, \"archs_total\": 10, \
             \"elapsed_s\": 1.0, \"series\": {\"wall\": {\"conex.simulated\": \
             [[1000, 1], [2000, 2], [3000, 3], [4000, 4], [5000, 5], [6000, 6], \
             [7000, 7], [8000, 8], [9000, 9], [10000, 10], [11000, 11], [12000, 12]]}}}",
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
        let live = json::parse(&sample_status()).unwrap();
        let text = openmetrics_from_value(&live).expect("live file exports");
        assert!(text.ends_with("# EOF\n"));
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
        let neither = json::parse("{\"something\": 1}").unwrap();
        let err = openmetrics_from_value(&neither).unwrap_err();
        assert!(err.contains("live_schema"), "{err}");
        let wrong = json::parse("{\"live_schema\": 99}").unwrap();
        assert!(openmetrics_from_value(&wrong).is_err());
    }

    #[test]
    fn dashboard_renders_progress_sparklines_and_workers() {
        let doc = json::parse(
            "{\"live_schema\": 1, \"workload\": \"vocoder\", \"status\": \"running\", \
             \"stop_reason\": null, \"phase\": \"phase1\", \"archs_done\": 5, \
             \"archs_total\": 10, \
             \"candidates\": {\"enumerated\": 120, \"estimated\": 100, \"simulated\": 24}, \
             \"evals\": {\"total\": 100, \"per_second\": 50.0}, \
             \"cache\": {\"hits\": 25, \"misses\": 75, \"hit_rate\": 0.25}, \
             \"budget\": {\"max_evals\": 2000, \"evals_remaining\": 1900, \
             \"deadline_s\": null, \"timeouts\": 0, \"degraded\": 0}, \
             \"frontier\": {\"size\": 7, \"hypervolume\": 0.42}, \
             \"eta\": {\"seconds\": 13.2, \"basis\": \"archs\"}, \
             \"elapsed_s\": 2.5, \"threads\": 4, \
             \"writes\": {\"attempted\": 3, \"failed\": 0}, \
             \"counters\": {}, \"gauges\": {}, \
             \"histograms\": [{\"name\": \"par.worker_occupancy_pct\", \"count\": 8, \
             \"sum\": 700, \"min\": 80, \"max\": 100, \"p50\": 93, \"p90\": 99, \
             \"p99\": 100}], \
             \"series\": {\"logical\": {}, \"wall\": {\"conex.simulated\": \
             [[1000, 2], [2000, 9], [3000, 24]]}}}",
        )
        .unwrap();
        let text = render_dashboard("status.json", &doc);
        for needle in [
            "vocoder",
            "status   running (phase1)",
            "5/10",
            "eta ~13s (archs)",
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
