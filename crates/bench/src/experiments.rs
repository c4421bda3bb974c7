//! The five experiments of the paper's evaluation section.
//!
//! Each function runs one experiment at the requested [`Scale`] and returns
//! a serializable data structure with a `render()` method producing the
//! printed table/series. The binaries in `src/bin/` are thin wrappers that
//! print the rendering and write the JSON artifact.

use mce_apex::{ApexConfig, ApexExplorer, ApexResult};
use mce_appmodel::{benchmarks, Workload};
use mce_conex::{
    Axis, ConexConfig, ConexExplorer, ConexResult, CoverageReport, DesignPoint,
    ExplorationStrategy, Metrics, ParetoFront,
};
use mce_sim::Preset;

use crate::report::{render_scatter, render_table};

/// Experiment scale: `Fast` for tests/benches, `Paper` for the real runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced traces and candidate caps; seconds per experiment.
    Fast,
    /// The full experiment configuration.
    Paper,
}

impl Scale {
    /// Reads the scale from process arguments (`--fast` selects
    /// [`Scale::Fast`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--fast") {
            Scale::Fast
        } else {
            Scale::Paper
        }
    }

    /// The APEX configuration for this scale.
    pub fn apex_config(self) -> ApexConfig {
        match self {
            Scale::Fast => ApexConfig::preset(Preset::Fast),
            Scale::Paper => ApexConfig::preset(Preset::Paper),
        }
    }

    /// The ConEx configuration for this scale.
    pub fn conex_config(self) -> ConexConfig {
        match self {
            Scale::Fast => ConexConfig::preset(Preset::Fast),
            Scale::Paper => ConexConfig::preset(Preset::Paper),
        }
    }
}

fn run_apex(scale: Scale, workload: &Workload) -> ApexResult {
    ApexExplorer::new(scale.apex_config()).explore(workload)
}

fn run_conex(scale: Scale, workload: &Workload, apex: &ApexResult) -> ConexResult {
    ConexExplorer::new(scale.conex_config())
        .explore(workload, apex.selected())
        .expect("benchmark exploration completed")
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One point of the Figure 3 scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Point {
    /// Architecture name.
    pub name: String,
    /// Memory-modules cost, gates.
    pub cost_gates: u64,
    /// Overall miss ratio.
    pub miss_ratio: f64,
}

mce_obs::json_codec! { struct Fig3Point { name, cost_gates, miss_ratio } }

/// Figure 3: "The most promising memory modules architectures for the
/// compress benchmark" — the APEX cost/miss-ratio exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Data {
    /// Workload name (compress in the paper).
    pub workload: String,
    /// Every evaluated candidate.
    pub points: Vec<Fig3Point>,
    /// The selected pareto architectures (the paper's labels 1..5).
    pub selected: Vec<Fig3Point>,
}

mce_obs::json_codec! { struct Fig3Data { workload, points, selected } }

impl Fig3Data {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 3 — APEX memory-modules exploration ({}), {} candidates\n\n",
            self.workload,
            self.points.len()
        );
        let scatter: Vec<(f64, f64, bool)> = self
            .points
            .iter()
            .map(|p| {
                let selected = self.selected.iter().any(|s| s.name == p.name);
                (p.cost_gates as f64, p.miss_ratio, selected)
            })
            .collect();
        out.push_str(&render_scatter(
            &scatter,
            64,
            16,
            "cost [gates]",
            "miss ratio",
        ));
        out.push('\n');
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let label = self
                    .selected
                    .iter()
                    .position(|s| s.name == p.name)
                    .map(|i| (i + 1).to_string())
                    .unwrap_or_default();
                vec![
                    label,
                    p.name.clone(),
                    p.cost_gates.to_string(),
                    format!("{:.4}", p.miss_ratio),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["sel", "architecture", "cost [gates]", "miss ratio"],
            &rows,
        ));
        out.push_str("\nSelected for connectivity exploration (pareto points 1..n):\n");
        for (i, s) in self.selected.iter().enumerate() {
            out.push_str(&format!(
                "  {}: {} — {} gates, miss {:.4}\n",
                i + 1,
                s.name,
                s.cost_gates,
                s.miss_ratio
            ));
        }
        out
    }
}

/// Runs the Figure 3 experiment.
pub fn fig3(scale: Scale) -> Fig3Data {
    let w = benchmarks::compress();
    let apex = run_apex(scale, &w);
    let point = |p: &mce_apex::ApexPoint| Fig3Point {
        name: p.arch.name().to_owned(),
        cost_gates: p.cost_gates,
        miss_ratio: p.miss_ratio,
    };
    Fig3Data {
        workload: w.name().to_owned(),
        points: apex.points().iter().map(point).collect(),
        selected: apex.selected_points().map(point).collect(),
    }
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// One point of the Figure 4 cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Point {
    /// Total (memory + connectivity) cost, gates.
    pub cost_gates: u64,
    /// Average memory latency, cycles.
    pub latency_cycles: f64,
    /// Average energy per access, nJ.
    pub energy_nj: f64,
    /// True for the Phase-II pareto designs.
    pub on_pareto: bool,
}

mce_obs::json_codec! { struct Fig4Point { cost_gates, latency_cycles, energy_nj, on_pareto } }

/// Figure 4: "The connectivity architecture exploration for the compress
/// benchmark" — cost vs average memory latency over the whole ConEx cloud,
/// with the paper's headline latency improvement across the pareto.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Data {
    /// Workload name.
    pub workload: String,
    /// Estimated exploration cloud + simulated pareto points.
    pub points: Vec<Fig4Point>,
    /// Best latency achievable under APEX's simple shared-bus connectivity
    /// model — the starting point before connectivity exploration, cycles.
    pub baseline_latency: f64,
    /// Best latency on the explored pareto, cycles.
    pub best_latency: f64,
    /// Relative improvement, percent (the paper reports 36 %).
    pub improvement_pct: f64,
}

mce_obs::json_codec! {
    struct Fig4Data { workload, points, baseline_latency, best_latency, improvement_pct }
}

impl Fig4Data {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 4 — ConEx connectivity exploration ({}), {} design points\n\n",
            self.workload,
            self.points.len()
        );
        let scatter: Vec<(f64, f64, bool)> = self
            .points
            .iter()
            .map(|p| (p.cost_gates as f64, p.latency_cycles, p.on_pareto))
            .collect();
        out.push_str(&render_scatter(
            &scatter,
            64,
            16,
            "cost [gates]",
            "avg latency [cyc]",
        ));
        out.push('\n');
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .filter(|p| p.on_pareto)
            .map(|p| {
                vec![
                    p.cost_gates.to_string(),
                    format!("{:.2}", p.latency_cycles),
                    format!("{:.2}", p.energy_nj),
                ]
            })
            .collect();
        out.push_str("Pareto designs (cost vs average memory latency):\n");
        out.push_str(&render_table(
            &["cost [gates]", "avg latency [cyc]", "avg energy [nJ]"],
            &rows,
        ));
        out.push_str(&format!(
            "\nAverage memory latency reduced from {:.1} to {:.1} cycles — {:.0}% improvement\n(paper: 10.6 to 6.7 cycles, 36%)\n",
            self.baseline_latency, self.best_latency, self.improvement_pct
        ));
        out
    }
}

/// Runs the Figure 4 experiment.
pub fn fig4(scale: Scale) -> Fig4Data {
    let w = benchmarks::compress();
    let apex = run_apex(scale, &w);
    let conex = run_conex(scale, &w, &apex);
    fig4_from(scale, &w, &apex, &conex)
}

fn fig4_from(scale: Scale, w: &Workload, apex: &ApexResult, conex: &ConexResult) -> Fig4Data {
    // The pre-ConEx reference: the best any selected memory architecture
    // manages under the simple shared-bus connectivity model APEX assumed.
    let trace_len = scale.conex_config().trace_len;
    let baseline_latency = apex
        .selected()
        .into_iter()
        .filter_map(|mem| mce_sim::SystemConfig::with_shared_bus(w, mem).ok())
        .map(|sys| mce_sim::simulate(&sys, w, trace_len).avg_latency_cycles)
        .fold(f64::INFINITY, f64::min);
    let pareto = conex.pareto_cost_latency();
    let mut points: Vec<Fig4Point> = conex
        .estimated()
        .iter()
        .map(|p| Fig4Point {
            cost_gates: p.metrics.cost_gates,
            latency_cycles: p.metrics.latency_cycles,
            energy_nj: p.metrics.energy_nj,
            on_pareto: false,
        })
        .collect();
    points.extend(pareto.iter().map(|p| Fig4Point {
        cost_gates: p.metrics.cost_gates,
        latency_cycles: p.metrics.latency_cycles,
        energy_nj: p.metrics.energy_nj,
        on_pareto: true,
    }));
    let best_latency = pareto
        .iter()
        .map(|p| p.metrics.latency_cycles)
        .fold(f64::INFINITY, f64::min);
    let improvement_pct = if baseline_latency > 0.0 {
        (baseline_latency - best_latency) / baseline_latency * 100.0
    } else {
        0.0
    };
    Fig4Data {
        workload: w.name().to_owned(),
        points,
        baseline_latency,
        best_latency,
        improvement_pct,
    }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// One labelled pareto design of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// The paper-style label (a, b, c, ...), in cost order.
    pub label: char,
    /// Total cost, gates.
    pub cost_gates: u64,
    /// Average memory latency, cycles.
    pub latency_cycles: f64,
    /// Average energy, nJ.
    pub energy_nj: f64,
    /// Architecture description (memory `|` connectivity).
    pub description: String,
    /// True for traditional cache-only memory configurations.
    pub cache_only: bool,
    /// Latency improvement over the best cache-only design, percent.
    pub improvement_vs_cache_pct: f64,
    /// Cost increase over the best cache-only design, percent.
    pub cost_increase_pct: f64,
}

mce_obs::json_codec! {
    struct Fig6Point {
        label, cost_gates, latency_cycles, energy_nj, description, cache_only,
        improvement_vs_cache_pct, cost_increase_pct,
    }
}

/// Figure 6: "Analysis of the cost/perf pareto architectures for the
/// compress benchmark" — the labelled designs *a..k* and their improvement
/// over the best traditional cache architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Data {
    /// Workload name.
    pub workload: String,
    /// The labelled pareto designs, in cost order.
    pub points: Vec<Fig6Point>,
}

mce_obs::json_codec! { struct Fig6Data { workload, points } }

impl Fig6Data {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 6 — cost/performance pareto analysis ({})\n\n",
            self.workload
        );
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.label.to_string(),
                    p.cost_gates.to_string(),
                    format!("{:.2}", p.latency_cycles),
                    format!("{:.2}", p.energy_nj),
                    if p.cache_only {
                        "(cache-only baseline)".to_owned()
                    } else {
                        format!(
                            "+{:.0}% perf, +{:.0}% cost",
                            p.improvement_vs_cache_pct, p.cost_increase_pct
                        )
                    },
                    p.description.clone(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "",
                "cost [gates]",
                "latency [cyc]",
                "energy [nJ]",
                "vs best cache-only",
                "architecture",
            ],
            &rows,
        ));
        out
    }
}

/// Runs the Figure 6 experiment.
pub fn fig6(scale: Scale) -> Fig6Data {
    let w = benchmarks::compress();
    let apex = run_apex(scale, &w);
    let conex = run_conex(scale, &w, &apex);
    fig6_from(&w, &conex)
}

fn is_cache_only(p: &DesignPoint) -> bool {
    let mem = p.system.mem();
    mem.on_chip_modules().count() == 1
        && mem
            .on_chip_modules()
            .all(|(_, m)| matches!(m.kind(), mce_memlib::MemModuleKind::Cache(_)))
}

fn fig6_from(w: &Workload, conex: &ConexResult) -> Fig6Data {
    let pareto = conex.pareto_cost_latency();
    // Reference: the best (lowest-latency) traditional cache-only design
    // among everything simulated — the paper's architecture "b".
    let reference = conex
        .simulated()
        .iter()
        .filter(|p| is_cache_only(p))
        .min_by(|a, b| {
            a.metrics
                .latency_cycles
                .total_cmp(&b.metrics.latency_cycles)
        });
    let (ref_lat, ref_cost) = reference
        .map(|p| (p.metrics.latency_cycles, p.metrics.cost_gates as f64))
        .unwrap_or((f64::NAN, f64::NAN));
    let points = pareto
        .iter()
        .enumerate()
        .map(|(i, p)| Fig6Point {
            label: (b'a' + (i % 26) as u8) as char,
            cost_gates: p.metrics.cost_gates,
            latency_cycles: p.metrics.latency_cycles,
            energy_nj: p.metrics.energy_nj,
            description: p.describe(),
            cache_only: is_cache_only(p),
            improvement_vs_cache_pct: (ref_lat - p.metrics.latency_cycles) / ref_lat * 100.0,
            cost_increase_pct: (p.metrics.cost_gates as f64 - ref_cost) / ref_cost * 100.0,
        })
        .collect();
    Fig6Data {
        workload: w.name().to_owned(),
        points,
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Total cost, gates.
    pub cost_gates: u64,
    /// Average memory latency, cycles.
    pub latency_cycles: f64,
    /// Average energy per access, nJ.
    pub energy_nj: f64,
}

mce_obs::json_codec! { struct Table1Row { cost_gates, latency_cycles, energy_nj } }

/// Table 1: "Selected cost/performance designs for the connectivity
/// exploration" — per benchmark, the cost/latency/energy of the selected
/// designs.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Data {
    /// Rows per benchmark, in (benchmark, rows) pairs.
    pub benchmarks: Vec<(String, Vec<Table1Row>)>,
}

mce_obs::json_codec! { struct Table1Data { benchmarks } }

impl Table1Data {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (name, brs) in &self.benchmarks {
            for (i, r) in brs.iter().enumerate() {
                rows.push(vec![
                    if i == 0 { name.clone() } else { String::new() },
                    r.cost_gates.to_string(),
                    format!("{:.2}", r.latency_cycles),
                    format!("{:.2}", r.energy_nj),
                ]);
            }
        }
        format!(
            "Table 1 — selected cost/performance designs\n\n{}",
            render_table(
                &[
                    "benchmark",
                    "cost [gates]",
                    "avg mem latency [cycles]",
                    "avg energy [nJ]"
                ],
                &rows
            )
        )
    }
}

/// Runs the Table 1 experiment over all three paper benchmarks.
pub fn table1(scale: Scale) -> Table1Data {
    let benchmarks = benchmarks::all()
        .into_iter()
        .map(|w| {
            let apex = run_apex(scale, &w);
            let conex = run_conex(scale, &w, &apex);
            let rows = conex
                .pareto_cost_latency()
                .iter()
                .map(|p| Table1Row {
                    cost_gates: p.metrics.cost_gates,
                    latency_cycles: p.metrics.latency_cycles,
                    energy_nj: p.metrics.energy_nj,
                })
                .collect();
            (w.name().to_owned(), rows)
        })
        .collect();
    Table1Data { benchmarks }
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One strategy's coverage results on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Cell {
    /// The exploration strategy.
    pub strategy: String,
    /// Wall-clock exploration time, seconds.
    pub time_s: f64,
    /// Full simulations performed.
    pub simulations: usize,
    /// Pareto coverage vs the full search, percent.
    pub coverage_pct: f64,
    /// Average percentile cost distance of missed points.
    pub avg_cost_dist_pct: f64,
    /// Average percentile performance distance.
    pub avg_perf_dist_pct: f64,
    /// Average percentile energy distance.
    pub avg_energy_dist_pct: f64,
}

mce_obs::json_codec! {
    struct Table2Cell {
        strategy, time_s, simulations, coverage_pct, avg_cost_dist_pct, avg_perf_dist_pct,
        avg_energy_dist_pct,
    }
}

/// Table 2: "Pareto coverage results" — Pruned vs Neighborhood vs Full per
/// benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Data {
    /// Per-benchmark strategy cells.
    pub benchmarks: Vec<(String, Vec<Table2Cell>)>,
}

mce_obs::json_codec! { struct Table2Data { benchmarks } }

impl Table2Data {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for (name, cells) in &self.benchmarks {
            for (i, c) in cells.iter().enumerate() {
                rows.push(vec![
                    if i == 0 { name.clone() } else { String::new() },
                    c.strategy.clone(),
                    format!("{:.2}", c.time_s),
                    c.simulations.to_string(),
                    format!("{:.0}%", c.coverage_pct),
                    format!("{:.2}%", c.avg_cost_dist_pct),
                    format!("{:.2}%", c.avg_perf_dist_pct),
                    format!("{:.2}%", c.avg_energy_dist_pct),
                ]);
            }
        }
        format!(
            "Table 2 — pareto coverage: Pruned vs Neighborhood vs Full\n\n{}",
            render_table(
                &[
                    "benchmark",
                    "strategy",
                    "time [s]",
                    "full sims",
                    "coverage",
                    "cost dist",
                    "perf dist",
                    "energy dist"
                ],
                &rows
            )
        )
    }
}

/// Relative tolerance for counting a pareto point as exactly covered.
const COVERAGE_TOLERANCE: f64 = 0.005;

/// Runs the Table 2 experiment (compress + vocoder, as in the paper — the
/// li full search was infeasible there).
pub fn table2(scale: Scale) -> Table2Data {
    let workloads = [benchmarks::compress(), benchmarks::vocoder()];
    let benchmarks = workloads
        .into_iter()
        .map(|w| {
            let apex = run_apex(scale, &w);
            let mut cells = Vec::new();
            let mut results: Vec<(ExplorationStrategy, ConexResult)> = Vec::new();
            for strategy in [
                ExplorationStrategy::Pruned,
                ExplorationStrategy::Neighborhood,
                ExplorationStrategy::Full,
            ] {
                let cfg = scale.conex_config().with_strategy(strategy);
                let result = ConexExplorer::new(cfg)
                    .explore(&w, apex.selected())
                    .expect("benchmark exploration completed");
                results.push((strategy, result));
            }
            // Reference: the 3-D pareto front of the Full search.
            let full = &results
                .iter()
                .find(|(s, _)| *s == ExplorationStrategy::Full)
                .expect("full strategy present")
                .1;
            let full_metrics: Vec<Metrics> = full.simulated().iter().map(|p| p.metrics).collect();
            let reference: Vec<Metrics> = ParetoFront::of(&full_metrics, &Axis::ALL)
                .indices()
                .iter()
                .map(|&i| full_metrics[i])
                .collect();
            for (strategy, result) in &results {
                let found: Vec<Metrics> = result.simulated().iter().map(|p| p.metrics).collect();
                let report = CoverageReport::compare(&reference, &found, COVERAGE_TOLERANCE);
                cells.push(Table2Cell {
                    strategy: strategy.to_string(),
                    time_s: result.elapsed().as_secs_f64(),
                    simulations: result.simulated().len(),
                    coverage_pct: report.coverage_pct,
                    avg_cost_dist_pct: report.avg_cost_dist_pct,
                    avg_perf_dist_pct: report.avg_perf_dist_pct,
                    avg_energy_dist_pct: report.avg_energy_dist_pct,
                });
            }
            (w.name().to_owned(), cells)
        })
        .collect();
    Table2Data { benchmarks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_fast_selects_pareto() {
        let d = fig3(Scale::Fast);
        assert!(!d.selected.is_empty());
        for pair in d.selected.windows(2) {
            assert!(pair[0].cost_gates <= pair[1].cost_gates);
            assert!(pair[0].miss_ratio >= pair[1].miss_ratio);
        }
        assert!(d.render().contains("Figure 3"));
    }

    #[test]
    fn fig4_fast_reports_improvement() {
        let d = fig4(Scale::Fast);
        assert!(d.best_latency <= d.baseline_latency);
        assert!(d.improvement_pct >= 0.0);
        assert!(d.render().contains("improvement"));
    }

    #[test]
    fn table2_fast_orders_strategies() {
        let d = table2(Scale::Fast);
        for (name, cells) in &d.benchmarks {
            assert_eq!(cells.len(), 3, "{name}");
            let full = &cells[2];
            assert_eq!(full.strategy, "Full");
            assert!(
                (full.coverage_pct - 100.0).abs() < 1e-9,
                "{name} full covers itself"
            );
            assert!(cells[0].simulations <= cells[1].simulations);
            assert!(cells[1].simulations <= cells[2].simulations);
            // The paper's coverage claim: searching more of the space
            // never loses pareto coverage.
            let coverage: Vec<f64> = cells.iter().map(|c| c.coverage_pct).collect();
            assert!(
                coverage[0] <= coverage[1] && coverage[1] <= coverage[2],
                "{name} coverage Pruned/Neighborhood/Full: {coverage:?}"
            );
        }
    }

    #[test]
    fn fig3_paper_selects_the_five_pinned_architectures() {
        // The paper's Figure 3 selects five pareto architectures, from
        // cache-only to fully augmented; these are ours on the canonical
        // trace stream.
        let d = fig3(Scale::Paper);
        let names: Vec<&str> = d.selected.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cache1k_only",
                "c2k+sb(input_stream)",
                "c2k+dma(htab)",
                "c2k+dma(htab)+dma(codetab)",
                "c2k+dma(htab)+sp(locals)+sb(input_stream)+dma(codetab)",
            ]
        );
    }
}
