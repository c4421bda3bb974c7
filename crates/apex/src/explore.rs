//! The APEX exploration loop: evaluate candidates in the cost / miss-ratio
//! space and select the pareto-like frontier (the paper's Figure 3).

use crate::candidates::{generate_candidates, CandidateConfig};
use crate::extract::classify;
use mce_appmodel::{TraceBlocks, Workload};
use mce_memlib::MemoryArchitecture;
use mce_obs as obs;
use mce_sim::par::try_par_map_named;
use mce_sim::{simulate_blocks, Preset, SystemConfig};
use std::fmt;

/// Configuration of an APEX run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApexConfig {
    /// Trace length used for extraction and evaluation.
    pub trace_len: usize,
    /// Candidate generation knobs.
    pub candidates: CandidateConfig,
    /// Maximum architectures selected for the ConEx stage (the paper
    /// selects five for compress).
    pub max_selected: usize,
}

impl ApexConfig {
    /// The configuration for a [`Preset`]: [`Preset::Fast`] is small and
    /// quick for tests, [`Preset::Paper`] is the configuration used by
    /// the experiments.
    pub fn preset(preset: Preset) -> Self {
        match preset {
            Preset::Fast => ApexConfig {
                trace_len: 15_000,
                candidates: CandidateConfig::fast(),
                max_selected: 4,
            },
            Preset::Paper => ApexConfig {
                trace_len: 60_000,
                candidates: CandidateConfig::paper(),
                max_selected: 5,
            },
        }
    }
}

/// One evaluated memory architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ApexPoint {
    /// The architecture.
    pub arch: MemoryArchitecture,
    /// Memory-modules gate cost (Figure 3's X axis).
    pub cost_gates: u64,
    /// Overall miss ratio — accesses that had to go off-chip (Figure 3's Y
    /// axis).
    pub miss_ratio: f64,
    /// Average memory latency under the simple shared-bus connectivity.
    pub avg_latency_cycles: f64,
}

impl fmt::Display for ApexPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates, miss {:.3}, {:.2} cyc",
            self.arch.name(),
            self.cost_gates,
            self.miss_ratio,
            self.avg_latency_cycles
        )
    }
}

/// Result of an APEX exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ApexResult {
    points: Vec<ApexPoint>,
    selected: Vec<usize>,
}

impl ApexResult {
    /// Every evaluated design point (the full Figure 3 scatter).
    pub fn points(&self) -> &[ApexPoint] {
        &self.points
    }

    /// The selected pareto architectures, cheapest first (Figure 3's
    /// labelled points 1..5).
    pub fn selected_points(&self) -> impl Iterator<Item = &ApexPoint> {
        self.selected.iter().map(|&i| &self.points[i])
    }

    /// The selected architectures, cloned for handing to ConEx.
    pub fn selected(&self) -> Vec<MemoryArchitecture> {
        self.selected_points().map(|p| p.arch.clone()).collect()
    }
}

/// The APEX explorer.
///
/// See the crate docs for the three stages; `explore` runs them end to end.
#[derive(Debug, Clone)]
pub struct ApexExplorer {
    config: ApexConfig,
    threads: usize,
}

impl ApexExplorer {
    /// Creates a serial explorer with the given configuration.
    pub fn new(config: ApexConfig) -> Self {
        ApexExplorer { config, threads: 1 }
    }

    /// Evaluates candidates on up to `threads` worker threads (0 = one
    /// per available core). The result is identical for every count. A
    /// knob on the explorer (not [`ApexConfig`]), so it stays out of
    /// checkpoint config digests.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ApexConfig {
        &self.config
    }

    /// Runs extraction, candidate generation, evaluation and selection.
    ///
    /// Compiles the trace once for the run; use
    /// [`ApexExplorer::explore_with_blocks`] to share an already-compiled
    /// trace (e.g. with a subsequent ConEx stage).
    pub fn explore(&self, workload: &Workload) -> ApexResult {
        let blocks = TraceBlocks::compile(workload, self.config.trace_len);
        self.explore_with_blocks(workload, &blocks)
    }

    /// [`ApexExplorer::explore`] over pre-compiled trace blocks, which
    /// must cover at least [`ApexConfig::trace_len`] accesses of
    /// `workload`. Bit-identical to [`ApexExplorer::explore`].
    pub fn explore_with_blocks(&self, workload: &Workload, blocks: &TraceBlocks) -> ApexResult {
        let _run = obs::span("apex.explore");
        obs::info(|| {
            format!(
                "apex: exploring memory architectures for `{}`",
                workload.name()
            )
        });
        let reports = {
            let _s = obs::span("apex.classify");
            classify(workload, self.config.trace_len)
        };
        let candidates = {
            let _s = obs::span("apex.generate");
            generate_candidates(workload, &reports, &self.config.candidates)
        };
        obs::counter_add("apex.candidates_generated", candidates.len() as u64);
        let mut points: Vec<ApexPoint> = {
            let _s = obs::span("apex.evaluate");
            // Order-preserving fan-out: `points` is in candidate order for
            // any thread count, ahead of the stable sort below.
            try_par_map_named("apex.evaluate", &candidates, self.threads, |arch| {
                let _t = obs::time_scope("apex.candidate_eval_us");
                let sys = SystemConfig::with_shared_bus(workload, arch.clone()).ok()?;
                let stats = simulate_blocks(&sys, workload, blocks, self.config.trace_len);
                Some(ApexPoint {
                    cost_gates: arch.gate_cost(),
                    miss_ratio: stats.miss_ratio(),
                    avg_latency_cycles: stats.avg_latency_cycles,
                    arch: arch.clone(),
                })
            })
            // A candidate whose simulation panics twice is a simulator
            // bug, not a degraded result: propagate it as the serial
            // loop did.
            .unwrap_or_else(|e| panic!("{e}"))
            .into_iter()
            .flatten()
            .collect()
        };
        obs::counter_add("apex.candidates_evaluated", points.len() as u64);
        let (pareto, selected) = {
            let _s = obs::span("apex.select");
            points.sort_by(|a, b| {
                a.cost_gates
                    .cmp(&b.cost_gates)
                    .then(a.miss_ratio.total_cmp(&b.miss_ratio))
            });
            let pareto = pareto_indices(&points);
            let selected = downsample(&pareto, self.config.max_selected);
            (pareto, selected)
        };
        obs::gauge_max("apex.pareto_front_size", pareto.len() as u64);
        obs::counter_add("apex.selected", selected.len() as u64);
        obs::snapshot_counters();
        ApexResult { points, selected }
    }
}

/// Indices of the cost/miss-ratio pareto frontier, assuming `points` sorted
/// by increasing cost. A design is on the frontier if no other design is
/// better (strictly, in at least one metric and not worse in the other).
fn pareto_indices(points: &[ApexPoint]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut best_miss = f64::INFINITY;
    for (i, p) in points.iter().enumerate() {
        if p.miss_ratio < best_miss {
            best_miss = p.miss_ratio;
            out.push(i);
        }
    }
    out
}

/// Keeps at most `max` indices, always retaining the first and last, evenly
/// spread otherwise.
fn downsample(indices: &[usize], max: usize) -> Vec<usize> {
    if indices.len() <= max || max == 0 {
        return indices.to_vec();
    }
    if max == 1 {
        return vec![indices[0]];
    }
    (0..max)
        .map(|k| indices[k * (indices.len() - 1) / (max - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    #[test]
    fn selected_are_pareto_and_sorted() {
        let w = benchmarks::compress();
        let result = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
        let sel: Vec<&ApexPoint> = result.selected_points().collect();
        assert!(!sel.is_empty());
        for pair in sel.windows(2) {
            assert!(pair[0].cost_gates <= pair[1].cost_gates, "sorted by cost");
            assert!(
                pair[0].miss_ratio >= pair[1].miss_ratio,
                "costlier selection must have lower miss ratio"
            );
        }
    }

    #[test]
    fn selection_respects_cap() {
        let w = benchmarks::li();
        let cfg = ApexConfig::preset(Preset::Fast);
        let cap = cfg.max_selected;
        let result = ApexExplorer::new(cfg).explore(&w);
        assert!(result.selected_points().count() <= cap);
    }

    #[test]
    fn augmented_architectures_beat_cache_only_on_compress() {
        // The point of APEX: pattern-specific modules cut the miss ratio
        // below what any same-cost cache manages.
        let w = benchmarks::compress();
        let result = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
        let best_selected = result
            .selected_points()
            .map(|p| p.miss_ratio)
            .fold(f64::INFINITY, f64::min);
        let best_cache_only = result
            .points()
            .iter()
            .filter(|p| p.arch.on_chip_modules().count() == 1)
            .map(|p| p.miss_ratio)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_selected <= best_cache_only,
            "selected {best_selected} vs cache-only {best_cache_only}"
        );
    }

    #[test]
    fn all_points_costed_and_finite() {
        let w = benchmarks::vocoder();
        let result = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
        for p in result.points() {
            assert!(p.cost_gates > 0);
            assert!(p.miss_ratio.is_finite());
            assert!((0.0..=1.0).contains(&p.miss_ratio));
            assert!(p.avg_latency_cycles >= 0.0);
        }
    }

    #[test]
    fn result_is_identical_for_any_thread_count() {
        for w in [
            benchmarks::compress(),
            benchmarks::li(),
            benchmarks::vocoder(),
        ] {
            let explorer = ApexExplorer::new(ApexConfig::preset(Preset::Fast));
            let serial = explorer.clone().with_threads(1).explore(&w);
            for threads in [2, 4, 0] {
                assert_eq!(
                    explorer.clone().with_threads(threads).explore(&w),
                    serial,
                    "{} at {threads} threads",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn downsample_keeps_extremes() {
        let idx = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let d = downsample(&idx, 4);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], 0);
        assert_eq!(*d.last().unwrap(), 9);
    }

    #[test]
    fn downsample_noop_when_small() {
        let idx = vec![2, 5];
        assert_eq!(downsample(&idx, 5), idx);
    }
}
