//! Run reports: the per-run summary artifact of an exploration.
//!
//! A [`RunReport`] is assembled at the end of every
//! [`ExplorationSession`](crate::ExplorationSession) run — and, with
//! `--live-status`, as every snapshot of a run in flight
//! ([`Progress::Running`]): one schema for the finished artifact and the
//! live view, so `mce top`, `mce export-metrics` and `mce diff` read
//! both alike. It captures what
//! the run *was* (config + 128-bit workload digest), what it *did*
//! (candidate-funnel counters, eval-cache hit/miss/eviction rates,
//! pareto-front sizes, frontier-evolution snapshots) and how it *ran*
//! (per-phase wall time and latency histograms with p50/p90/p99). It
//! serializes through the workspace's JSON writer ([`mce_obs::json`]),
//! and every nondeterministic value lives in the single `"wall_clock"`
//! section, always the **last** top-level key.
//!
//! Report identity is structural. [`stable_view`] parses a report, drops
//! `wall_clock` and prints the remaining sections canonically, so two
//! identical runs have equal stable views; `mce diff` and the determinism
//! tests both compare through it, never by byte offsets in the text.
//!
//! Bounded runs add a `"status"`/`"stop_reason"` pair to the
//! deterministic sections (logical budgets trip at the same point on every
//! machine), while the timing-dependent budget artifacts — `budget.*`
//! counters and per-candidate degradation annotations — are quarantined
//! inside `"wall_clock"`.
//!
//! The schema carries a version number ([`REPORT_SCHEMA`], currently 1)
//! as its first key; `mce report` refuses inputs with a different
//! version rather than misrendering them.
//!
//! The same module renders reports into self-contained markdown/HTML
//! summaries (tables plus an inline SVG frontier plot — no external
//! assets) for `mce report`. Performance regressions are the `mce-perf`
//! benchmark's job (`crates/perf`), not the report's.

use mce_apex::ApexConfig;
use mce_appmodel::Workload;
use mce_conex::design_point::workload_digest;
use mce_conex::explore::Phase1State;
use mce_conex::{
    ArchProvenance, CacheStats, ConexConfig, ConexResult, DegradedEval, FrontierSnapshot,
};
use mce_error::MceError;
use mce_obs as obs;
use mce_obs::json::{self, ToJson, Value, Writer};
use mce_obs::HistogramSummary;
use std::collections::BTreeMap;

/// Version of the report JSON layout. Bump when a field changes meaning
/// or moves; `mce report` and the CI schema check pin this.
pub const REPORT_SCHEMA: u64 = 1;

/// Version of the report's embedded `provenance` section (`mce explore
/// --explain`). Versioned separately from [`REPORT_SCHEMA`] because the
/// section is optional: a report without it is still schema 1, and a
/// future provenance layout change must not invalidate stored reports
/// that never carried the section.
pub const PROVENANCE_SCHEMA: u64 = 1;

/// The configuration slice of a report: the knobs that determine the
/// run's deterministic sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportConfig {
    /// APEX stage trace length.
    pub apex_trace_len: usize,
    /// ConEx stage trace length.
    pub conex_trace_len: usize,
    /// Phase-I pruning strategy (display form).
    pub strategy: String,
    /// Cap on locally selected points per memory architecture.
    pub local_keep: usize,
    /// The paper's max-cost constraint on logical connections.
    pub max_logical_connections: usize,
    /// Cap on enumerated allocations per clustering level.
    pub max_allocations_per_level: usize,
    /// Frontier-evolution sampling period (0 = disabled).
    pub frontier_sample_every: usize,
    /// Evaluation-cache capacity bound.
    pub cache_capacity: usize,
}

mce_obs::json_codec! {
    struct ReportConfig {
        apex_trace_len, conex_trace_len, strategy, local_keep, max_logical_connections,
        max_allocations_per_level, frontier_sample_every, cache_capacity,
    }
}

/// Eval-cache effectiveness over the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSummary {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Entries evicted by the FIFO capacity bound.
    pub evictions: u64,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub hit_rate: f64,
}

mce_obs::json_codec! { struct CacheSummary { hits, misses, inserts, evictions, hit_rate } }

impl CacheSummary {
    /// Summarizes lifetime cache statistics.
    pub fn from_stats(stats: &CacheStats) -> Self {
        let lookups = stats.hits + stats.misses;
        CacheSummary {
            hits: stats.hits,
            misses: stats.misses,
            inserts: stats.inserts,
            evictions: stats.evictions,
            hit_rate: if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            },
        }
    }
}

/// Pareto-front sizes of the fully simulated set, plus the cost/latency
/// front itself (the report's plottable curve). Empty (the default) while
/// a run is still in flight: nothing is fully simulated before Phase II.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoSummary {
    /// Cost/latency front size.
    pub cost_latency: usize,
    /// Latency/energy front size.
    pub latency_energy: usize,
    /// Cost/energy front size.
    pub cost_energy: usize,
    /// Full 3-D front size.
    pub full_3d: usize,
    /// `(cost_gates, latency_cycles)` of the cost/latency front, cheapest
    /// first.
    pub front_cost_latency: Vec<(u64, f64)>,
}

mce_obs::json_codec! {
    struct ParetoSummary { cost_latency, latency_energy, cost_energy, full_3d, front_cost_latency }
}

impl ParetoSummary {
    /// Summarizes a ConEx result's simulated fronts.
    pub fn from_result(conex: &ConexResult) -> Self {
        ParetoSummary {
            cost_latency: conex.pareto_cost_latency().len(),
            latency_energy: conex.pareto_latency_energy().len(),
            cost_energy: conex.pareto_cost_energy().len(),
            full_3d: conex.pareto_3d().len(),
            front_cost_latency: conex
                .pareto_cost_latency()
                .iter()
                .map(|p| (p.metrics.cost_gates, p.metrics.latency_cycles))
                .collect(),
        }
    }
}

/// The one nondeterministic section: everything wall-clock-derived.
#[derive(Debug, Clone, PartialEq)]
pub struct WallClock {
    /// End-to-end session wall time, seconds.
    pub elapsed_s: f64,
    /// Whether this run was resumed from a checkpoint. Lives in the
    /// wall-clock section because it describes how the run executed,
    /// not what it computed: a resumed run's deterministic sections
    /// equal an uninterrupted run's.
    pub resumed: bool,
    /// Worker threads (0 = one per core). Results are thread-count
    /// independent by contract, so like `resumed` this describes how the
    /// run executed — keeping it here lets `--threads 1` and
    /// `--threads 8` reports have equal [`stable_view`]s.
    pub threads: usize,
    /// Peak resident set size of the exploring process, in bytes.
    /// Best-effort: read from `/proc/self/status` (`VmHWM`) on Linux,
    /// `None` where no such source exists. Machine-dependent, so it
    /// lives in the wall-clock section.
    pub peak_rss_bytes: Option<u64>,
    /// Candidates answered with degraded values because their simulation
    /// hit the `--candidate-timeout` watchdog. Wall-clock-driven (which
    /// candidate times out depends on machine speed), so it lives here.
    pub degraded: Vec<DegradedEval>,
    /// `budget.*` recorder counters (timeouts, degraded evals, cancelled
    /// runs), split out of the deterministic `counters` section because
    /// watchdog and deadline events are timing-dependent.
    pub budget_counters: Vec<(String, u64)>,
    /// Wall-clock time series, serialized as `timeseries.wall`:
    /// background-sampler snapshots (`(t_us, value)` points, plus derived
    /// `<hist>.p90` series) from [`mce_obs::timeseries`]. How many
    /// samples landed and where is machine-speed-dependent.
    pub timeseries_wall: Vec<(String, Vec<(u64, u64)>)>,
    /// Every histogram the recorder collected (phase durations from
    /// spans, per-item simulate/estimate latency, cache-probe latency,
    /// per-worker occupancy), in name order.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Live-only progress facts, serialized as `wall_clock.live`. Set
    /// only on the snapshots written to `--live-status`
    /// ([`crate::live::LiveShared::publish`]); a collected report has
    /// none, so `--report-out` files never carry the object.
    pub live: Option<LiveProgress>,
}

/// The raw progress facts of a live-status snapshot that no other report
/// section holds: Phase-I architecture progress, the remaining budget and
/// the publisher's own write tally. `mce top` derives phase, rates and
/// ETA from these plus `wall_clock.elapsed_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveProgress {
    /// Phase-I memory architectures committed so far.
    pub archs_done: usize,
    /// Phase-I memory architectures APEX selected.
    pub archs_total: usize,
    /// The `--max-evals` bound, if any.
    pub max_evals: Option<u64>,
    /// Evaluations left under `max_evals`.
    pub evals_remaining: Option<u64>,
    /// The `--deadline` bound in seconds, if any.
    pub deadline_s: Option<f64>,
    /// Snapshot writes attempted, this one included.
    pub writes_attempted: u64,
    /// Snapshot writes that failed (best-effort: never a run error).
    pub writes_failed: u64,
}

/// How far a run has got: what [`RunReport::collect`] summarizes.
#[derive(Debug, Clone, Copy)]
pub enum Progress<'a> {
    /// Still exploring: the Phase-I architectures committed so far. The
    /// report is `"running"`, and its `pareto` section stays empty until
    /// Phase II lands.
    Running(&'a Phase1State),
    /// Finished, completely or truncated at a safe point.
    Finished(&'a ConexResult),
}

/// The per-run summary artifact. See the [module docs](self) for the
/// layout contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload explored.
    pub workload_name: String,
    /// 128-bit canonical workload digest, 32 hex digits.
    pub workload_digest: String,
    /// `"complete"` when the exploration ran to the end, `"truncated"`
    /// when a bound stopped it at a safe point. Deterministic for logical
    /// budgets (`--max-evals`, `--max-archs`).
    pub status: String,
    /// Which bound tripped (`"max-evals"`, `"max-archs"`, `"deadline"`,
    /// `"interrupt"`); `None` for a complete run.
    pub stop_reason: Option<String>,
    /// The knobs that shaped the run.
    pub config: ReportConfig,
    /// Recorder counters at end of run (candidate funnel, replay totals),
    /// in name order. Empty when tracing was disabled.
    pub counters: Vec<(String, u64)>,
    /// Recorder gauges (high-water marks), in name order.
    pub gauges: Vec<(String, u64)>,
    /// Eval-cache effectiveness.
    pub eval_cache: CacheSummary,
    /// Pareto-front sizes and the cost/latency curve.
    pub pareto: ParetoSummary,
    /// Phase-I frontier-evolution samples.
    pub frontier_evolution: Vec<FrontierSnapshot>,
    /// Frontier provenance per Phase-I architecture: why each surviving
    /// design point made the local frontier and which kept point
    /// dominated each pruned one. Empty unless the run was explained
    /// (`mce explore --explain`); serialized as the schema-versioned
    /// `provenance` section ([`PROVENANCE_SCHEMA`]) and *only* when
    /// non-empty, so explain on/off changes nothing outside it.
    pub provenance: Vec<ArchProvenance>,
    /// The nondeterministic tail section.
    pub wall_clock: WallClock,
}

impl RunReport {
    /// Assembles a report from what the run has committed so far: a
    /// finished run's report, or a live-status snapshot of one in flight.
    ///
    /// Counters, gauges and histograms are read from the process-global
    /// `mce-obs` recorder, so they cover exactly what was recorded since
    /// the last [`mce_obs::install`] (which resets all three registries).
    /// With tracing disabled those sections are empty — the registries are
    /// not even read, so a report collected after `uninstall` cannot pick
    /// up stale data from an earlier traced run. Everything else is
    /// derived from the results and is always present.
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        workload: &Workload,
        apex: &ApexConfig,
        conex_cfg: &ConexConfig,
        cache_capacity: usize,
        cache_stats: &CacheStats,
        progress: Progress<'_>,
        elapsed_s: f64,
        resumed: bool,
    ) -> Self {
        let (status, stop_reason, pareto, frontier_evolution, provenance, degraded) = match progress
        {
            Progress::Running(state) => (
                "running",
                None,
                ParetoSummary::default(),
                &state.frontier_evolution[..],
                &state.provenance[..],
                &[][..],
            ),
            Progress::Finished(conex) => (
                if conex.is_truncated() {
                    "truncated"
                } else {
                    "complete"
                },
                conex.stop_reason(),
                ParetoSummary::from_result(conex),
                conex.frontier_evolution(),
                conex.provenance(),
                conex.degraded(),
            ),
        };
        let (budget_counters, counters): (Vec<_>, Vec<_>) = traced(|| {
            owned(obs::counters_snapshot())
                .into_iter()
                .partition(|(name, _)| name.starts_with("budget."))
        });
        RunReport {
            workload_name: workload.name().to_owned(),
            workload_digest: workload_digest(workload).to_hex(),
            status: status.to_owned(),
            stop_reason: stop_reason.map(str::to_owned),
            config: ReportConfig {
                apex_trace_len: apex.trace_len,
                conex_trace_len: conex_cfg.trace_len,
                strategy: conex_cfg.strategy.to_string(),
                local_keep: conex_cfg.local_keep,
                max_logical_connections: conex_cfg.max_logical_connections,
                max_allocations_per_level: conex_cfg.max_allocations_per_level,
                frontier_sample_every: conex_cfg.frontier_sample_every,
                cache_capacity,
            },
            counters,
            gauges: traced(|| owned(obs::gauges_snapshot())),
            eval_cache: CacheSummary::from_stats(cache_stats),
            pareto,
            frontier_evolution: frontier_evolution.to_vec(),
            provenance: provenance.to_vec(),
            wall_clock: WallClock {
                elapsed_s,
                resumed,
                threads: conex_cfg.threads,
                peak_rss_bytes: peak_rss_bytes(),
                degraded: degraded.to_vec(),
                budget_counters,
                timeseries_wall: traced(|| owned_series(obs::wall_series())),
                histograms: traced(|| {
                    obs::histograms_snapshot()
                        .into_iter()
                        .map(|(name, h)| (name.to_owned(), h.summary()))
                        .collect()
                }),
                live: None,
            },
        }
    }

    /// Serializes the report as pretty-printed JSON through the
    /// workspace's [`json::Writer`], `schema` first and the
    /// nondeterministic `wall_clock` section last. Compare reports
    /// through [`stable_view`], never by their bytes.
    pub fn to_json(&self) -> String {
        let mut text = json::to_string_pretty(self);
        text.push('\n');
        text
    }
}

impl ToJson for RunReport {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("schema", &REPORT_SCHEMA);
        w.field("workload", &self.workload_name);
        w.field("workload_digest", &self.workload_digest);
        w.field("status", &self.status);
        w.field("stop_reason", &self.stop_reason);
        w.field("config", &self.config);
        w.field("counters", &Named(&self.counters));
        w.field("gauges", &Named(&self.gauges));
        w.field("eval_cache", &self.eval_cache);
        w.field("pareto", &self.pareto);
        w.field("frontier_evolution", &self.frontier_evolution);
        // The optional provenance section: emitted only when the run was
        // explained, so explain on/off changes nothing outside it.
        if !self.provenance.is_empty() {
            w.key("provenance");
            w.begin_object();
            w.field("schema", &PROVENANCE_SCHEMA);
            w.field("archs", &self.provenance);
            w.end_object();
        }
        w.field("wall_clock", &self.wall_clock);
        w.end_object();
    }
}

impl ToJson for WallClock {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("elapsed_s", &self.elapsed_s);
        w.field("resumed", &self.resumed);
        w.field("threads", &self.threads);
        w.field("peak_rss_bytes", &self.peak_rss_bytes);
        if let Some(live) = &self.live {
            w.field("live", live);
        }
        w.field("degraded", &self.degraded);
        w.field("budget", &Named(&self.budget_counters));
        w.key("timeseries");
        w.begin_object();
        w.field("wall", &Named(&self.timeseries_wall));
        w.end_object();
        w.key("histograms");
        w.begin_array();
        for (name, h) in &self.histograms {
            w.element();
            w.begin_object();
            w.field("name", name);
            w.field("count", &h.count);
            w.field("sum", &h.sum);
            w.field("min", &h.min);
            w.field("max", &h.max);
            w.field("p50", &h.p50);
            w.field("p90", &h.p90);
            w.field("p99", &h.p99);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

impl ToJson for LiveProgress {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("archs_done", &self.archs_done);
        w.field("archs_total", &self.archs_total);
        w.field("max_evals", &self.max_evals);
        w.field("evals_remaining", &self.evals_remaining);
        w.field("deadline_s", &self.deadline_s);
        w.key("writes");
        w.begin_object();
        w.field("attempted", &self.writes_attempted);
        w.field("failed", &self.writes_failed);
        w.end_object();
        w.end_object();
    }
}

/// `(name, value)` pairs, written as one object in order.
struct Named<'a, T>(&'a [(String, T)]);

impl<T: ToJson> ToJson for Named<'_, T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        for (name, value) in self.0 {
            w.field(name, value);
        }
        w.end_object();
    }
}

/// The deterministic view of a serialized run report: its
/// [`stable_sections`] as [`canonical_text`]. Two runs that computed the
/// same thing have equal stable views, whatever their thread count,
/// machine or cache timing — and whatever a workload happens to be
/// called, because sections are found by parsing, not by searching the
/// text.
///
/// # Errors
///
/// [`MceError::Json`] when `report_text` is not JSON.
pub fn stable_view(report_text: &str) -> Result<String, MceError> {
    let doc = json::parse(report_text).map_err(|e| MceError::json("run report", e.to_string()))?;
    Ok(canonical_text(stable_sections(&doc)))
}

/// Every top-level section of a parsed report except `wall_clock`: the
/// sections that are a pure function of the run's configuration and
/// results. Empty when `doc` is not an object.
pub fn stable_sections(doc: &Value) -> BTreeMap<String, Value> {
    let mut sections = match doc {
        Value::Object(map) => map.clone(),
        _ => BTreeMap::new(),
    };
    sections.remove("wall_clock");
    sections
}

/// Report sections as canonical pretty JSON: keys sorted, one scalar per
/// line (so a mismatch can name its line), and numbers compared by value
/// — a float with no fraction prints as the integer it equals, so `0` and
/// `0.0`, or `120` and `120.0`, are the same.
pub fn canonical_text(sections: BTreeMap<String, Value>) -> String {
    fn fold_integral_floats(v: &mut Value) {
        match v {
            // Below 1e38 every integral float is an exact `i128`.
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e38 => {
                let n = *n as i128;
                *v = Value::Int(n);
            }
            Value::Array(items) => items.iter_mut().for_each(fold_integral_floats),
            Value::Object(map) => map.values_mut().for_each(fold_integral_floats),
            _ => {}
        }
    }
    let mut doc = Value::Object(sections);
    fold_integral_floats(&mut doc);
    let mut text = json::to_string_pretty(&doc);
    text.push('\n');
    text
}

/// Checks a parsed report document's `schema` field against
/// [`REPORT_SCHEMA`]. Versions `1..=REPORT_SCHEMA` load; anything newer,
/// non-numeric or missing is refused with a typed error rather than
/// being silently misread.
///
/// # Errors
///
/// Returns [`MceError::SchemaVersion`] naming the artifact (`run
/// report`), the version found and the newest supported one.
pub fn check_report_schema(doc: &Value) -> Result<(), MceError> {
    match doc.get("schema").and_then(Value::as_u64) {
        Some(v) if (1..=REPORT_SCHEMA).contains(&v) => Ok(()),
        Some(v) => Err(MceError::schema_version(
            "run report",
            v.to_string(),
            REPORT_SCHEMA,
        )),
        None => Err(MceError::schema_version(
            "run report",
            match doc.get("schema") {
                Some(v) => render_scalar(v),
                None => "none".to_owned(),
            },
            REPORT_SCHEMA,
        )),
    }
}

/// Best-effort peak resident set size of this process, in bytes. Linux
/// reads `VmHWM` from `/proc/self/status`; elsewhere (or when the read
/// fails) there is no portable source and the result is `None`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Reads a recorder registry only while tracing is enabled: otherwise
/// the report section stays empty, never stale.
fn traced<T: Default>(read: impl FnOnce() -> T) -> T {
    if obs::tracing_enabled() {
        read()
    } else {
        T::default()
    }
}

/// A borrowed counter or gauge snapshot in the owned form the report
/// stores.
fn owned(entries: Vec<(&str, u64)>) -> Vec<(String, u64)> {
    entries
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

/// Converts a borrowed time-series snapshot into the owned
/// `(name, [(at, value)])` form the report stores.
fn owned_series(
    series: Vec<(&'static str, Vec<obs::SeriesPoint>)>,
) -> Vec<(String, Vec<(u64, u64)>)> {
    series
        .into_iter()
        .map(|(name, points)| {
            (
                name.to_owned(),
                points.into_iter().map(|p| (p.at, p.value)).collect(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rendering: markdown / HTML with an inline SVG frontier plot
// ---------------------------------------------------------------------------

/// Renders one or more parsed report JSONs ([`REPORT_SCHEMA`] version 1)
/// as a self-contained markdown summary: run header, config, candidate
/// funnel, cache effectiveness, latency percentiles, frontier evolution
/// and an inline SVG cost/latency frontier plot. No external assets.
pub fn render_markdown(reports: &[(String, Value)]) -> String {
    let mut out = String::from("# Exploration run report\n");
    for (source, report) in reports {
        out.push('\n');
        out.push_str(&render_one(source, report));
    }
    out
}

fn render_one(source: &str, report: &Value) -> String {
    let mut out = String::new();
    let workload = report
        .get("workload")
        .and_then(|v| v.as_str())
        .unwrap_or("<unknown>");
    out.push_str(&format!("## `{workload}` — {source}\n\n"));
    if let Some(digest) = report.get("workload_digest").and_then(|v| v.as_str()) {
        out.push_str(&format!("Workload digest `{digest}`"));
        if let Some(elapsed) = report
            .get("wall_clock")
            .and_then(|w| w.get("elapsed_s"))
            .and_then(|v| v.as_f64())
        {
            out.push_str(&format!(", explored in {elapsed:.2} s"));
        }
        out.push_str(".\n\n");
    }
    if let Some("truncated") = report.get("status").and_then(|v| v.as_str()) {
        let reason = report
            .get("stop_reason")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown");
        out.push_str(&format!(
            "**Run truncated** (`{reason}`): the sections below cover only \
             the architectures committed before the bound tripped.\n\n"
        ));
    }
    if let Some(Value::Object(config)) = report.get("config") {
        out.push_str("### Configuration\n\n| knob | value |\n|---|---|\n");
        for (k, v) in config {
            out.push_str(&format!("| {k} | {} |\n", render_scalar(v)));
        }
        out.push('\n');
    }
    if let Some(Value::Object(counters)) = report.get("counters") {
        if !counters.is_empty() {
            out.push_str("### Candidate funnel\n\n| counter | value |\n|---|---|\n");
            for (k, v) in counters {
                out.push_str(&format!("| {k} | {} |\n", render_scalar(v)));
            }
            out.push('\n');
        }
    }
    if let Some(cache) = report.get("eval_cache") {
        let g = |k: &str| cache.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        out.push_str(&format!(
            "### Evaluation cache\n\n{} hits, {} misses ({:.1}% hit rate), \
             {} inserts, {} evictions.\n\n",
            g("hits"),
            g("misses"),
            g("hit_rate") * 100.0,
            g("inserts"),
            g("evictions"),
        ));
    }
    if let Some(status) = report.get("status").and_then(|v| v.as_str()) {
        out.push_str("### Budget & stop reason\n\n");
        match report.get("stop_reason").and_then(|v| v.as_str()) {
            Some(reason) => out.push_str(&format!(
                "Status **{status}**: stopped by the `{reason}` bound at a safe point.\n"
            )),
            None if status == "running" => out.push_str(
                "Status **running**: a live-status snapshot of a run still in flight; \
                 the sections below cover what it has committed so far.\n",
            ),
            None => out.push_str(&format!(
                "Status **{status}**: no bound tripped — the exploration ran to the end.\n"
            )),
        }
        let degraded = report
            .get("wall_clock")
            .and_then(|w| w.get("degraded"))
            .and_then(|v| v.as_array())
            .map_or(0, <[Value]>::len);
        if degraded > 0 {
            out.push_str(&format!(
                "{degraded} evaluation(s) were degraded to estimates by the \
                 per-candidate watchdog.\n"
            ));
        }
        if let Some(Value::Object(budget)) = report.get("wall_clock").and_then(|w| w.get("budget"))
        {
            if !budget.is_empty() {
                out.push_str("\n| budget event | count |\n|---|---|\n");
                for (k, v) in budget {
                    out.push_str(&format!("| {k} | {} |\n", render_scalar(v)));
                }
            }
        }
        out.push('\n');
    }
    if let Some(hists) = report
        .get("wall_clock")
        .and_then(|w| w.get("histograms"))
        .and_then(|v| v.as_array())
    {
        if !hists.is_empty() {
            out.push_str(
                "### Latency histograms (µs)\n\n\
                 | histogram | count | p50 | p90 | p99 | max |\n|---|---|---|---|---|---|\n",
            );
            for h in hists {
                let g = |k: &str| {
                    h.get(k)
                        .and_then(|v| v.as_u64())
                        .map(|u| u.to_string())
                        .unwrap_or_else(|| "?".to_owned())
                };
                let name = h.get("name").and_then(|v| v.as_str()).unwrap_or("?");
                out.push_str(&format!(
                    "| {name} | {} | {} | {} | {} | {} |\n",
                    g("count"),
                    g("p50"),
                    g("p90"),
                    g("p99"),
                    g("max"),
                ));
            }
            out.push('\n');
        }
    }
    if let Some(evo) = report.get("frontier_evolution").and_then(|v| v.as_array()) {
        if !evo.is_empty() {
            out.push_str(
                "### Frontier evolution\n\n\
                 | archs explored | estimated | frontier size | hypervolume |\n\
                 |---|---|---|---|\n",
            );
            for snap in evo {
                let u = |k: &str| {
                    snap.get(k)
                        .and_then(|v| v.as_u64())
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "?".to_owned())
                };
                let hv = snap
                    .get("hypervolume")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                out.push_str(&format!(
                    "| {} | {} | {} | {hv:.4} |\n",
                    u("archs_explored"),
                    u("estimated"),
                    u("frontier_size"),
                ));
            }
            out.push('\n');
        }
    }
    if let Some(archs) = report
        .get("provenance")
        .and_then(|p| p.get("archs"))
        .and_then(|v| v.as_array())
    {
        if !archs.is_empty() {
            out.push_str("### Frontier provenance\n\n");
            for a in archs {
                let arch = a.get("arch").and_then(|v| v.as_u64()).unwrap_or(0);
                let mem = a.get("mem").and_then(|v| v.as_str()).unwrap_or("?");
                let kept = a.get("kept").and_then(|v| v.as_u64()).unwrap_or(0);
                let pruned = a.get("pruned").and_then(|v| v.as_u64()).unwrap_or(0);
                out.push_str(&format!(
                    "Architecture {arch} (`{mem}`): {kept} kept, {pruned} pruned.\n"
                ));
                let empty = Vec::new();
                let points = a.get("points").and_then(|v| v.as_array()).unwrap_or(&empty);
                let mut shown = 0usize;
                for p in points {
                    if matches!(p.get("kept"), Some(Value::Bool(false))) {
                        if shown == 8 {
                            out.push_str("- …\n");
                            break;
                        }
                        let idx = p.get("index").and_then(|v| v.as_u64()).unwrap_or(0);
                        let origin = p.get("origin").and_then(|v| v.as_str()).unwrap_or("?");
                        match p.get("dominated_by").and_then(Value::as_u64) {
                            Some(d) => {
                                out.push_str(&format!("- point #{idx} ({origin}) lost to #{d}\n"))
                            }
                            None => out.push_str(&format!(
                                "- point #{idx} ({origin}) pruned outside all fronts\n"
                            )),
                        }
                        shown += 1;
                    }
                }
                out.push('\n');
            }
        }
    }
    let front: Vec<(f64, f64)> = report
        .get("pareto")
        .and_then(|p| p.get("front_cost_latency"))
        .and_then(|v| v.as_array())
        .map(|pts| {
            pts.iter()
                .filter_map(|pt| {
                    let xy = pt.as_array()?;
                    Some((xy.first()?.as_f64()?, xy.get(1)?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    if let Some(p) = report.get("pareto") {
        let g = |k: &str| p.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        out.push_str(&format!(
            "### Pareto fronts\n\nCost/latency {}, latency/energy {}, cost/energy {}, \
             full 3-D {} designs.\n\n",
            g("cost_latency"),
            g("latency_energy"),
            g("cost_energy"),
            g("full_3d"),
        ));
    }
    if !front.is_empty() {
        out.push_str(&frontier_svg(&front));
        out.push('\n');
    }
    out
}

fn render_scalar(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(n) => {
            if n.fract() == 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_owned(),
        _ => "…".to_owned(),
    }
}

/// An inline SVG scatter+line plot of a cost/latency frontier. One line,
/// so the markdown → HTML pass can pass it through verbatim.
fn frontier_svg(points: &[(f64, f64)]) -> String {
    const W: f64 = 480.0;
    const H: f64 = 300.0;
    const M: f64 = 45.0; // margin for axis labels
    let (mut x0, mut x1) = (f64::MAX, f64::MIN);
    let (mut y0, mut y1) = (f64::MAX, f64::MIN);
    for &(x, y) in points {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    // Degenerate spans still need a nonzero scale.
    let xs = (x1 - x0).max(x1.abs().max(1.0) * 1e-9);
    let ys = (y1 - y0).max(y1.abs().max(1.0) * 1e-9);
    let px = |x: f64| M + (x - x0) / xs * (W - 2.0 * M);
    let py = |y: f64| H - M - (y - y0) / ys * (H - 2.0 * M);
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" role=\"img\">\
         <rect width=\"{W}\" height=\"{H}\" fill=\"#fff\"/>\
         <line x1=\"{M}\" y1=\"{edge}\" x2=\"{right}\" y2=\"{edge}\" stroke=\"#333\"/>\
         <line x1=\"{M}\" y1=\"{M}\" x2=\"{M}\" y2=\"{edge}\" stroke=\"#333\"/>",
        edge = H - M,
        right = W - M,
    );
    let path: Vec<String> = points
        .iter()
        .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#1f77b4\" stroke-width=\"1.5\"/>",
        path.join(" ")
    ));
    for &(x, y) in points {
        svg.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"#1f77b4\"/>",
            px(x),
            py(y)
        ));
    }
    svg.push_str(&format!(
        "<text x=\"{mid}\" y=\"{bottom}\" text-anchor=\"middle\" \
         font-size=\"11\" fill=\"#333\">gate cost ({x0:.0} – {x1:.0})</text>\
         <text x=\"12\" y=\"{vmid}\" text-anchor=\"middle\" font-size=\"11\" fill=\"#333\" \
         transform=\"rotate(-90 12 {vmid})\">latency, cycles ({y0:.2} – {y1:.2})</text>\
         </svg>",
        mid = W / 2.0,
        bottom = H - 8.0,
        vmid = H / 2.0,
    ));
    svg
}

/// Wraps [`render_markdown`] output as a single self-contained HTML
/// document. The converter is deliberately line-based — it understands
/// exactly the markdown this module emits (headings, pipe tables,
/// paragraphs and inline `<svg>` lines).
pub fn markdown_to_html(md: &str) -> String {
    let mut body = String::new();
    let mut in_table = false;
    for line in md.lines() {
        let is_row = line.starts_with('|') && line.ends_with('|');
        if in_table && !is_row {
            body.push_str("</table>\n");
            in_table = false;
        }
        if let Some(h) = line.strip_prefix("### ") {
            body.push_str(&format!("<h3>{}</h3>\n", html_inline(h)));
        } else if let Some(h) = line.strip_prefix("## ") {
            body.push_str(&format!("<h2>{}</h2>\n", html_inline(h)));
        } else if let Some(h) = line.strip_prefix("# ") {
            body.push_str(&format!("<h1>{}</h1>\n", html_inline(h)));
        } else if is_row {
            let cells: Vec<&str> = line[1..line.len() - 1].split('|').collect();
            if cells.iter().all(|c| {
                let t = c.trim();
                !t.is_empty() && t.chars().all(|ch| ch == '-' || ch == ':')
            }) {
                continue; // the |---|---| separator row
            }
            let tag = if in_table { "td" } else { "th" };
            if !in_table {
                body.push_str("<table>\n");
                in_table = true;
            }
            body.push_str("<tr>");
            for c in cells {
                body.push_str(&format!("<{tag}>{}</{tag}>", html_inline(c.trim())));
            }
            body.push_str("</tr>\n");
        } else if line.starts_with("<svg") {
            body.push_str(line);
            body.push('\n');
        } else if !line.trim().is_empty() {
            body.push_str(&format!("<p>{}</p>\n", html_inline(line)));
        }
    }
    if in_table {
        body.push_str("</table>\n");
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>Exploration run report</title>\n<style>\n\
         body{{font-family:system-ui,sans-serif;max-width:60rem;margin:2rem auto;\
         padding:0 1rem;color:#222}}\n\
         table{{border-collapse:collapse;margin:1rem 0}}\n\
         th,td{{border:1px solid #ccc;padding:.3rem .6rem;text-align:left}}\n\
         th{{background:#f4f4f4}}\ncode{{background:#f4f4f4;padding:0 .2rem}}\n\
         </style></head>\n<body>\n{body}</body></html>\n"
    )
}

/// Escapes HTML and converts `` `code` `` spans — the only inline
/// markdown this module's renderer produces.
fn html_inline(text: &str) -> String {
    let escaped = text
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;");
    let mut out = String::with_capacity(escaped.len());
    let mut in_code = false;
    for c in escaped.chars() {
        if c == '`' {
            out.push_str(if in_code { "</code>" } else { "<code>" });
            in_code = !in_code;
        } else {
            out.push(c);
        }
    }
    if in_code {
        out.push_str("</code>");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small complete report, for the report and diff tests.
    pub(crate) fn sample_report() -> RunReport {
        RunReport {
            workload_name: "vocoder".to_owned(),
            workload_digest: "00112233445566778899aabbccddeeff".to_owned(),
            status: "complete".to_owned(),
            stop_reason: None,
            config: ReportConfig {
                apex_trace_len: 10_000,
                conex_trace_len: 15_000,
                strategy: "Pruned".to_owned(),
                local_keep: 16,
                max_logical_connections: 8,
                max_allocations_per_level: 64,
                frontier_sample_every: 1,
                cache_capacity: 1 << 16,
            },
            counters: vec![
                ("conex.candidates_enumerated".to_owned(), 120),
                ("conex.candidates_estimated".to_owned(), 100),
            ],
            gauges: vec![("conex.frontier_size_max".to_owned(), 7)],
            eval_cache: CacheSummary::from_stats(&CacheStats {
                hits: 25,
                misses: 75,
                inserts: 75,
                evictions: 0,
            }),
            pareto: ParetoSummary {
                cost_latency: 3,
                latency_energy: 2,
                cost_energy: 2,
                full_3d: 4,
                front_cost_latency: vec![(900, 4.5), (1200, 3.25), (2000, 2.0)],
            },
            frontier_evolution: vec![mce_conex::FrontierSnapshot {
                archs_explored: 1,
                estimated: 100,
                frontier_size: 7,
                hypervolume: 0.42,
            }],
            provenance: Vec::new(),
            wall_clock: WallClock {
                elapsed_s: 1.25,
                resumed: false,
                threads: 0,
                peak_rss_bytes: None,
                degraded: Vec::new(),
                budget_counters: Vec::new(),
                live: None,
                timeseries_wall: vec![("conex.simulated".to_owned(), vec![(1500, 4)])],
                histograms: vec![(
                    "conex.simulate.item_us".to_owned(),
                    HistogramSummary {
                        count: 40,
                        sum: 4000,
                        min: 50,
                        max: 300,
                        p50: 90,
                        p90: 200,
                        p99: 290,
                    },
                )],
            },
        }
    }

    #[test]
    fn report_json_parses_and_orders_wall_clock_last() {
        let r = sample_report();
        let text = r.to_json();
        let v = json::parse(&text).expect("report JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_u64()),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(v.get("workload").and_then(|s| s.as_str()), Some("vocoder"));
        assert_eq!(
            v.get("eval_cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(|x| x.as_f64()),
            Some(0.25)
        );
        // wall_clock is the last top-level key in the serialized text.
        let wc = text.find("\"wall_clock\"").expect("has wall_clock");
        for key in [
            "\"schema\"",
            "\"status\"",
            "\"stop_reason\"",
            "\"config\"",
            "\"counters\"",
            "\"pareto\"",
            "\"frontier_evolution\"",
        ] {
            assert!(
                text.find(key).unwrap() < wc,
                "{key} must precede wall_clock"
            );
        }
    }

    #[test]
    fn budget_events_stay_out_of_the_stable_prefix() {
        let mut r = sample_report();
        r.status = "truncated".to_owned();
        r.stop_reason = Some("deadline".to_owned());
        r.wall_clock.budget_counters = vec![
            ("budget.degraded_evals".to_owned(), 2),
            ("budget.timeouts".to_owned(), 2),
        ];
        r.wall_clock.degraded = vec![DegradedEval {
            phase: "refine".to_owned(),
            arch: None,
            index: 3,
            reason: "timeout".to_owned(),
        }];
        let text = r.to_json();
        let v = json::parse(&text).expect("truncated report JSON parses");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("truncated"));
        assert_eq!(
            v.get("stop_reason").and_then(|s| s.as_str()),
            Some("deadline")
        );
        assert_eq!(
            v.get("wall_clock")
                .and_then(|w| w.get("budget"))
                .and_then(|b| b.get("budget.timeouts"))
                .and_then(|x| x.as_u64()),
            Some(2)
        );
        // Status/stop_reason are deterministic for logical budgets and
        // belong to the stable view; budget events and degraded
        // annotations are timing-dependent and must not.
        let view = stable_view(&text).unwrap();
        assert!(view.contains("\"status\": \"truncated\""));
        assert!(view.contains("\"stop_reason\": \"deadline\""));
        assert!(!view.contains("budget.timeouts"));
        assert!(!view.contains("\"degraded\""));
        assert!(text.contains("\"reason\": \"timeout\""));
        // The markdown render warns about truncation and itemizes the
        // budget events in the "Budget & stop reason" section.
        let md = render_markdown(&[("r.json".to_owned(), v)]);
        assert!(md.contains("Run truncated"), "{md}");
        assert!(md.contains("`deadline`"), "{md}");
        assert!(md.contains("### Budget & stop reason"), "{md}");
        assert!(md.contains("| budget.timeouts | 2 |"), "{md}");
        assert!(md.contains("1 evaluation(s) were degraded"), "{md}");
    }

    #[test]
    fn timeseries_embed_inside_wall_clock_only() {
        let r = sample_report();
        let text = r.to_json();
        let v = json::parse(&text).expect("report with timeseries parses");
        let timeseries = v
            .get("wall_clock")
            .and_then(|w| w.get("timeseries"))
            .expect("timeseries embedded");
        let wall = timeseries
            .get("wall")
            .and_then(|wl| wl.get("conex.simulated"))
            .and_then(Value::as_array)
            .expect("wall series embedded");
        assert_eq!(wall[0].as_array().and_then(|p| p[0].as_u64()), Some(1500));
        assert_eq!(timeseries.get("logical"), None);
        // The series live inside wall_clock: after budget, before
        // histograms, and never in the stable view.
        let ts = text.find("\"timeseries\"").expect("has timeseries");
        assert!(text.find("\"budget\"").unwrap() < ts);
        assert!(ts < text.find("\"histograms\"").unwrap());
        assert!(!stable_view(&text).unwrap().contains("\"timeseries\""));
    }

    #[test]
    fn stable_prefix_strips_only_wall_clock() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.wall_clock.elapsed_s = 1.0;
        b.wall_clock.elapsed_s = 99.0;
        b.wall_clock.histograms.clear();
        let (ja, jb) = (a.to_json(), b.to_json());
        assert_ne!(ja, jb);
        assert_eq!(stable_view(&ja).unwrap(), stable_view(&jb).unwrap());
        // A deterministic-section difference survives the strip.
        let mut c = sample_report();
        c.pareto.cost_latency = 99;
        assert_ne!(
            stable_view(&ja).unwrap(),
            stable_view(&c.to_json()).unwrap()
        );
        // Values compare, not layouts: key order, whitespace and integral
        // floats written either way make no difference.
        assert_eq!(
            stable_view("{\"a\": 120, \"b\": [0, 2.5], \"wall_clock\": 1}").unwrap(),
            stable_view("{\"b\":[0.0,2.5],\"a\":120.0}").unwrap()
        );
        assert!(stable_view("{\"a\": 1,}").is_err());
    }

    fn sample_provenance() -> Vec<ArchProvenance> {
        vec![ArchProvenance {
            arch: 0,
            mem: "mem[2x1024]".to_owned(),
            kept: 1,
            pruned: 1,
            points: vec![
                mce_conex::PointProvenance {
                    index: 0,
                    describe: "bus(w=2)".to_owned(),
                    origin: "evaluated".to_owned(),
                    kept: true,
                    fronts: vec!["cost-latency".to_owned()],
                    dominated_by: None,
                },
                mce_conex::PointProvenance {
                    index: 1,
                    describe: "mux(\"a\")".to_owned(),
                    origin: "cache-hit".to_owned(),
                    kept: false,
                    fronts: Vec::new(),
                    dominated_by: Some(0),
                },
            ],
        }]
    }

    #[test]
    fn provenance_section_sits_inside_the_stable_prefix_and_strips_cleanly() {
        let plain = sample_report();
        let mut explained = sample_report();
        explained.provenance = sample_provenance();
        let (jp, je) = (plain.to_json(), explained.to_json());
        // Empty provenance emits no section at all.
        assert!(!jp.contains("\"provenance\""));
        // Non-empty provenance lands between frontier_evolution and
        // wall_clock: versioned, parseable, and in the stable view.
        let mut v = json::parse(&je).expect("explained report parses");
        let prov = v.get("provenance").expect("has provenance");
        assert_eq!(
            prov.get("schema").and_then(|s| s.as_u64()),
            Some(PROVENANCE_SCHEMA)
        );
        let archs = prov.get("archs").and_then(|a| a.as_array()).unwrap();
        assert_eq!(archs.len(), 1);
        let pts = archs[0].get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(
            pts[1].get("origin").and_then(|o| o.as_str()),
            Some("cache-hit")
        );
        assert_eq!(
            pts[1].get("describe").and_then(|o| o.as_str()),
            Some("mux(\"a\")")
        );
        assert_eq!(pts[1].get("dominated_by").and_then(Value::as_u64), Some(0));
        let fe = je.find("\"frontier_evolution\"").unwrap();
        let pr = je.find("\"provenance\"").unwrap();
        let wc = je.find("\"wall_clock\"").unwrap();
        assert!(fe < pr && pr < wc);
        assert!(stable_view(&je).unwrap().contains("\"provenance\""));
        // The determinism contract: removing the section recovers the
        // unexplained report, value for value.
        if let Value::Object(sections) = &mut v {
            sections.remove("provenance");
        }
        assert_eq!(v, json::parse(&jp).unwrap());
    }

    #[test]
    fn provenance_renders_in_markdown() {
        let mut r = sample_report();
        r.provenance = sample_provenance();
        let v = json::parse(&r.to_json()).unwrap();
        let md = render_markdown(&[("r.json".to_owned(), v)]);
        assert!(md.contains("### Frontier provenance"), "{md}");
        assert!(
            md.contains("Architecture 0 (`mem[2x1024]`): 1 kept, 1 pruned."),
            "{md}"
        );
        assert!(md.contains("point #1 (cache-hit) lost to #0"), "{md}");
    }

    #[test]
    fn report_schema_check_accepts_supported_and_refuses_the_rest() {
        let ok = Value::Object(BTreeMap::from([(
            "schema".to_owned(),
            Value::Int(REPORT_SCHEMA.into()),
        )]));
        assert!(check_report_schema(&ok).is_ok());
        for (doc, found) in [
            ("{\"schema\": 999}", "999"),
            ("{\"schema\": \"x\"}", "x"),
            ("{}", "none"),
        ] {
            let err = check_report_schema(&json::parse(doc).unwrap()).unwrap_err();
            match &err {
                MceError::SchemaVersion {
                    artifact,
                    found: f,
                    supported,
                } => {
                    assert_eq!(artifact, "run report");
                    assert_eq!(f, found);
                    assert_eq!(*supported, REPORT_SCHEMA);
                }
                other => panic!("expected SchemaVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // On Linux the probe must find a value at least as large as one
        // page; elsewhere None is the contract.
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = peak_rss_bytes().expect("VmHWM readable");
            assert!(rss >= 4096, "implausible peak RSS {rss}");
        }
    }

    #[test]
    fn markdown_covers_percentiles_cache_and_frontier() {
        let r = sample_report();
        let v = json::parse(&r.to_json()).unwrap();
        let md = render_markdown(&[("r.json".to_owned(), v)]);
        for needle in [
            "conex.simulate.item_us",
            "| 90 | 200 | 290 |", // p50/p90/p99 row
            "25.0% hit rate",
            "Frontier evolution",
            "0.4200",
            "<svg",
            "</svg>",
        ] {
            assert!(md.contains(needle), "markdown missing {needle:?}:\n{md}");
        }
        // A live-status snapshot renders as in flight, not as finished.
        let mut running = sample_report();
        running.status = "running".to_owned();
        let v = json::parse(&running.to_json()).unwrap();
        let md = render_markdown(&[("live.json".to_owned(), v)]);
        assert!(
            md.contains("Status **running**: a live-status snapshot"),
            "{md}"
        );
    }

    #[test]
    fn html_is_self_contained_and_balanced() {
        let r = sample_report();
        let v = json::parse(&r.to_json()).unwrap();
        let html = markdown_to_html(&render_markdown(&[("r.json".to_owned(), v)]));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert_eq!(
            html.matches("<table>").count(),
            html.matches("</table>").count()
        );
        assert!(html.contains("<svg"));
        assert!(
            !html.contains("http://") || html.contains("xmlns"),
            "no external assets"
        );
    }
}
