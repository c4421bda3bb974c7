//! The two-phase ConEx algorithm (the paper's Figure 5).
//!
//! * `ConnectivityExploration(mem_arch)` — profile, build the BRG, cluster
//!   hierarchically, enumerate allocations per level (subject to the
//!   logical-connection cost constraint), and estimate every candidate.
//! * `ConEx` — Phase I runs the procedure per selected memory architecture
//!   and keeps the locally most promising points; Phase II fully simulates
//!   the pooled shortlist and selects the globally most promising combined
//!   memory + connectivity designs.
//!
//! Three strategies reproduce the paper's Table 2 comparison:
//! [`ExplorationStrategy::Pruned`] (pareto-only shortlists),
//! [`ExplorationStrategy::Neighborhood`] (pareto plus cost-neighbors), and
//! [`ExplorationStrategy::Full`] (simulate everything — the reference).

use crate::allocate::enumerate_allocations_filtered;
use crate::brg::Brg;
use crate::cluster::{cluster_levels, ClusterOrder};
use crate::design_point::{DesignPoint, Metrics};
use crate::engine::{BatchStatus, BoundedBatch, EvalEngine};
use crate::pareto::{hypervolume_proxy, Axis, ParetoFront};
use mce_appmodel::Workload;
use mce_budget::{CancelToken, StopReason};
use mce_connlib::ConnectivityLibrary;
use mce_error::MceError;
use mce_memlib::MemoryArchitecture;
use mce_obs as obs;
use mce_sim::{Preset, SamplingConfig};
use std::fmt;
use std::time::{Duration, Instant};

/// How aggressively Phase I prunes before Phase II's full simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExplorationStrategy {
    /// Only the locally pareto-promising points are fully simulated (the
    /// paper's fast default: "2 days" vs the full month for compress).
    #[default]
    Pruned,
    /// The pruned shortlist plus each point's cost-order neighbors —
    /// better coverage for more simulation time.
    Neighborhood,
    /// Fully simulate every estimated candidate: defines the true pareto
    /// front, "often infeasible" at scale.
    Full,
}

impl fmt::Display for ExplorationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExplorationStrategy::Pruned => "Pruned",
            ExplorationStrategy::Neighborhood => "Neighborhood",
            ExplorationStrategy::Full => "Full",
        })
    }
}

/// Configuration of a ConEx run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConexConfig {
    /// Trace length for estimation and full simulation.
    pub trace_len: usize,
    /// Time-sampling configuration for Phase-I estimates.
    pub sampling: SamplingConfig,
    /// The paper's "max cost constraint": clustering levels with more
    /// logical connections than this are skipped.
    pub max_logical_connections: usize,
    /// Cap on enumerated allocations per clustering level.
    pub max_allocations_per_level: usize,
    /// Merge order of the hierarchical clustering.
    pub cluster_order: ClusterOrder,
    /// Pruning strategy.
    pub strategy: ExplorationStrategy,
    /// Cap on locally selected points per memory architecture.
    pub local_keep: usize,
    /// Worker threads for estimation and full simulation (0 = one per
    /// available core). Results are identical regardless of thread count.
    pub threads: usize,
    /// Bandwidth headroom required of a component over its cluster's
    /// measured requirement (0.0 = no filtering; see
    /// [`enumerate_allocations_filtered`] for details).
    ///
    /// [`enumerate_allocations_filtered`]: crate::allocate::enumerate_allocations_filtered
    pub bandwidth_headroom: f64,
    /// Pareto-frontier evolution sampling period for run reports: during
    /// Phase I, after every `frontier_sample_every` memory architectures
    /// (and always after the last), the cost/latency frontier of the
    /// estimate cloud accumulated so far is snapshotted into
    /// [`ConexResult::frontier_evolution`]. 0 disables sampling.
    pub frontier_sample_every: usize,
}

impl ConexConfig {
    /// The configuration for a [`Preset`]: [`Preset::Fast`] is small and
    /// quick for tests, [`Preset::Paper`] is the configuration used by
    /// the experiments.
    pub fn preset(preset: Preset) -> Self {
        match preset {
            Preset::Fast => ConexConfig {
                trace_len: 15_000,
                sampling: SamplingConfig::paper(),
                max_logical_connections: 8,
                max_allocations_per_level: 64,
                cluster_order: ClusterOrder::LowestFirst,
                strategy: ExplorationStrategy::Pruned,
                local_keep: 16,
                threads: 0,
                bandwidth_headroom: 0.0,
                frontier_sample_every: 1,
            },
            Preset::Paper => ConexConfig {
                trace_len: 60_000,
                sampling: SamplingConfig::paper(),
                max_logical_connections: 10,
                max_allocations_per_level: 256,
                cluster_order: ClusterOrder::LowestFirst,
                strategy: ExplorationStrategy::Pruned,
                local_keep: 48,
                threads: 0,
                bandwidth_headroom: 0.0,
                frontier_sample_every: 1,
            },
        }
    }

    /// Returns the same configuration with a different strategy.
    pub fn with_strategy(mut self, strategy: ExplorationStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// One sample of the growing estimate cloud's cost/latency pareto
/// frontier, taken during Phase I after a memory architecture's
/// candidates land (see [`ConexConfig::frontier_sample_every`]). The
/// sequence of snapshots is a run report's frontier-evolution curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierSnapshot {
    /// Memory architectures explored when the sample was taken.
    pub archs_explored: usize,
    /// Estimated design points accumulated so far.
    pub estimated: usize,
    /// Size of the cost/latency pareto front over those points.
    pub frontier_size: usize,
    /// Normalized dominated-area proxy of that front
    /// ([`hypervolume_proxy`]).
    pub hypervolume: f64,
}

mce_obs::json_codec! {
    struct FrontierSnapshot { archs_explored, estimated, frontier_size, hypervolume }
}

/// Why one Phase-I candidate did or did not survive local selection —
/// a frontier-provenance record captured under
/// [`ConexExplorer::with_explain`].
///
/// `index` is the candidate's position in its architecture's estimate
/// cloud (exploration order), except for `origin == "estimate-degraded"`
/// entries, whose candidate never produced a point: there it is the
/// architecture's enumeration slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PointProvenance {
    /// Position in the architecture's estimate cloud (see above).
    pub index: usize,
    /// One-line description of the design point (empty for dropped
    /// candidates, which have no metrics).
    pub describe: String,
    /// How the candidate's value was obtained: `"evaluated"` (simulated
    /// this run), `"cache-hit"` (answered from the evaluation cache —
    /// note a resumed run's replayed architectures are all cache hits),
    /// or `"estimate-degraded"` (dropped: its sampled simulation hit the
    /// per-candidate watchdog timeout).
    pub origin: String,
    /// Whether the candidate survived local selection into the Phase-II
    /// shortlist.
    pub kept: bool,
    /// The local fronts that earned the candidate its membership:
    /// `"cost-latency"`, `"cost-energy"`, `"pareto-3d"`, and/or
    /// `"neighbor"` (added by the Neighborhood strategy). A pruned
    /// candidate with nonempty fronts was on a front but lost to the
    /// `local_keep` cap.
    pub fronts: Vec<String>,
    /// For pruned candidates: the estimate-cloud index of the first kept
    /// candidate that dominates it (all metrics no worse, at least one
    /// strictly better), when one exists. `None` for kept candidates and
    /// for prunes without a dominating survivor (capacity prunes).
    pub dominated_by: Option<usize>,
}

mce_obs::json_codec! {
    struct PointProvenance { index, describe, origin, kept, fronts, dominated_by }
}

/// Frontier provenance for one Phase-I memory architecture: every
/// candidate's verdict, in estimate-cloud order (dropped candidates
/// last). Captured only under [`ConexExplorer::with_explain`]; a pure
/// function of the deterministic exploration state except for the
/// origin tags, which describe where *this process* got each value.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchProvenance {
    /// Phase-I memory-architecture index (exploration order).
    pub arch: usize,
    /// The memory architecture's name.
    pub mem: String,
    /// Candidates kept into the shortlist.
    pub kept: usize,
    /// Candidates pruned (including watchdog drops).
    pub pruned: usize,
    /// Per-candidate records.
    pub points: Vec<PointProvenance>,
}

mce_obs::json_codec! { struct ArchProvenance { arch, mem, kept, pruned, points } }

/// The resumable working state of Phase I: everything accumulated after
/// each memory architecture completes.
///
/// [`ConexExplorer::explore_with_engine_resumable`] folds every
/// architecture's results into one of these and hands it to a callback at
/// each architecture boundary — the natural checkpoint granularity, since
/// an architecture's estimation is the unit of work lost on a crash. A
/// state persisted there and fed back in resumes the loop at
/// [`archs_done`](Phase1State::archs_done) and produces results
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase1State {
    /// Memory architectures fully processed so far.
    pub archs_done: usize,
    /// Every estimated design point, in exploration order.
    pub estimated: Vec<DesignPoint>,
    /// The locally selected (pruned) shortlist accumulated so far.
    pub shortlist: Vec<DesignPoint>,
    /// Frontier-evolution samples taken so far.
    pub frontier_evolution: Vec<FrontierSnapshot>,
    /// Frontier-provenance records accumulated so far (empty unless the
    /// explorer runs with [`ConexExplorer::with_explain`]).
    pub provenance: Vec<ArchProvenance>,
}

/// A candidate whose simulation hit the per-candidate watchdog timeout
/// and was answered with a degraded value: a Phase-II point falls back to
/// its Phase-I estimate, a Phase-I candidate is dropped (no cheaper
/// estimator exists). See [`EvalEngine::refine_batch_bounded`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedEval {
    /// `"estimate"` (Phase I) or `"refine"` (Phase II).
    pub phase: String,
    /// Phase-I memory-architecture index; `None` for Phase II.
    pub arch: Option<usize>,
    /// Candidate-slot index within the phase's batch (Phase I: the
    /// architecture's enumerated candidates; Phase II: the shortlist).
    pub index: usize,
    /// What went wrong (currently always `"timeout"`).
    pub reason: String,
}

mce_obs::json_codec! { struct DegradedEval { phase, arch, index, reason } }

impl DegradedEval {
    fn timeout(phase: &str, arch: Option<usize>, index: usize) -> Self {
        DegradedEval {
            phase: phase.to_owned(),
            arch,
            index,
            reason: "timeout".to_owned(),
        }
    }
}

/// The result of a ConEx exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConexResult {
    workload_name: String,
    estimated: Vec<DesignPoint>,
    simulated: Vec<DesignPoint>,
    frontier_evolution: Vec<FrontierSnapshot>,
    stop: Option<String>,
    degraded: Vec<DegradedEval>,
    provenance: Vec<ArchProvenance>,
    elapsed: Duration,
}

mce_obs::json_codec! {
    struct ConexResult {
        workload_name, estimated, simulated, frontier_evolution, stop, degraded,
        #[default] provenance, elapsed,
    }
}

impl ConexResult {
    /// The workload explored.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Every Phase-I estimated candidate (the full exploration cloud of
    /// Figure 4).
    pub fn estimated(&self) -> &[DesignPoint] {
        &self.estimated
    }

    /// The Phase-II fully simulated points.
    pub fn simulated(&self) -> &[DesignPoint] {
        &self.simulated
    }

    /// Wall-clock time of the exploration (Table 2's "Time" row).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Phase-I frontier-evolution samples, in exploration order (empty
    /// when [`ConexConfig::frontier_sample_every`] is 0).
    pub fn frontier_evolution(&self) -> &[FrontierSnapshot] {
        &self.frontier_evolution
    }

    /// Why the run stopped before finishing (a [`StopReason`] label:
    /// `"max-evals"`, `"max-archs"`, `"deadline"` or `"interrupt"`), or
    /// `None` for a run that ran to completion.
    pub fn stop_reason(&self) -> Option<&str> {
        self.stop.as_deref()
    }

    /// Whether a bound cut the exploration short. A truncated result is
    /// still valid — it holds everything committed up to the last safe
    /// point (Phase-I architecture boundary or the whole of Phase II).
    pub fn is_truncated(&self) -> bool {
        self.stop.is_some()
    }

    /// Candidates answered with degraded values because their simulation
    /// hit the per-candidate watchdog timeout (empty without
    /// `--candidate-timeout`).
    pub fn degraded(&self) -> &[DegradedEval] {
        &self.degraded
    }

    /// Per-architecture frontier provenance: why each candidate was kept
    /// or pruned, with origin tags. Empty unless the exploration ran
    /// with [`ConexExplorer::with_explain`].
    pub fn provenance(&self) -> &[ArchProvenance] {
        &self.provenance
    }

    fn metrics(points: &[DesignPoint]) -> Vec<Metrics> {
        points.iter().map(|p| p.metrics).collect()
    }

    fn front(&self, axes: &[Axis]) -> Vec<&DesignPoint> {
        let m = Self::metrics(&self.simulated);
        ParetoFront::of(&m, axes)
            .indices()
            .iter()
            .map(|&i| &self.simulated[i])
            .collect()
    }

    /// The cost/performance pareto designs (the paper's Table 1 /
    /// Figure 6 selection), cheapest first.
    pub fn pareto_cost_latency(&self) -> Vec<&DesignPoint> {
        self.front(&[Axis::Cost, Axis::Latency])
    }

    /// The performance/power pareto designs (cost-constrained scenario).
    pub fn pareto_latency_energy(&self) -> Vec<&DesignPoint> {
        self.front(&[Axis::Latency, Axis::Energy])
    }

    /// The cost/power pareto designs (performance-constrained scenario).
    pub fn pareto_cost_energy(&self) -> Vec<&DesignPoint> {
        self.front(&[Axis::Cost, Axis::Energy])
    }

    /// The full 3-D pareto designs.
    pub fn pareto_3d(&self) -> Vec<&DesignPoint> {
        self.front(&Axis::ALL)
    }
}

/// The ConEx explorer.
#[derive(Debug, Clone)]
pub struct ConexExplorer {
    config: ConexConfig,
    library: ConnectivityLibrary,
    explain: bool,
}

impl ConexExplorer {
    /// Creates an explorer with the default AMBA-style library.
    pub fn new(config: ConexConfig) -> Self {
        Self::with_library(config, ConnectivityLibrary::amba())
    }

    /// Creates an explorer drawing from a custom connectivity library.
    pub fn with_library(config: ConexConfig, library: ConnectivityLibrary) -> Self {
        ConexExplorer {
            config,
            library,
            explain: false,
        }
    }

    /// Enables frontier-provenance capture: every exploration records,
    /// per Phase-I architecture, why each candidate was kept or pruned
    /// ([`ConexResult::provenance`]). Capture never changes what is
    /// explored — results are bit-identical with it on or off; it is a
    /// knob on the explorer (not [`ConexConfig`]) precisely so it stays
    /// out of checkpoint config digests.
    #[must_use]
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Whether frontier-provenance capture is enabled.
    pub fn explain(&self) -> bool {
        self.explain
    }

    /// The configuration.
    pub fn config(&self) -> &ConexConfig {
        &self.config
    }

    /// The connectivity library.
    pub fn library(&self) -> &ConnectivityLibrary {
        &self.library
    }

    /// The paper's `Procedure ConnectivityExploration`: estimates every
    /// feasible connectivity architecture for one memory architecture.
    ///
    /// Compiles a fresh evaluation engine (no cache) for the call; use
    /// [`ConexExplorer::connectivity_exploration_bounded`] to share one
    /// engine — and its compiled trace and memoization cache — across
    /// calls.
    ///
    /// Returns estimated design points, unsorted and unpruned.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn connectivity_exploration(
        &self,
        workload: &Workload,
        mem: &MemoryArchitecture,
    ) -> Result<Vec<DesignPoint>, MceError> {
        let engine = EvalEngine::new(workload, self.config.trace_len);
        let batch = self.connectivity_exploration_bounded(&engine, mem)?;
        Ok(batch.output.into_iter().flatten().collect())
    }

    /// [`ConexExplorer::connectivity_exploration`] on a shared evaluation
    /// engine, under the engine's [`Bounds`](mce_budget::Bounds).
    ///
    /// The output is index-aligned with the architecture's enumerated
    /// candidates; `None` marks an infeasible pairing or a candidate
    /// dropped by the per-candidate watchdog (the latter are listed in
    /// [`BoundedBatch::degraded`]). When the logical budget or the cancel
    /// token cuts the batch short, the output is empty, the status says
    /// why, and no estimate was committed — though the architecture's
    /// enumeration counters (`conex.levels_*`,
    /// `conex.candidates_enumerated`) were already bumped; callers that
    /// need clean truncation roll the counters back (as
    /// [`ConexExplorer::explore_with_engine_resumable`] does).
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn connectivity_exploration_bounded(
        &self,
        engine: &EvalEngine,
        mem: &MemoryArchitecture,
    ) -> Result<BoundedBatch<Option<DesignPoint>>, MceError> {
        let _span = obs::span("conex.connectivity_exploration");
        let workload = engine.workload();
        // `Brg::profile_blocks` replays the trace and builds the block
        // reference graph in one pass, so one span covers both paper steps.
        let brg = {
            let _s = obs::span("conex.profile");
            Brg::profile_blocks(workload, mem, engine.blocks(), self.config.trace_len)
        };
        let levels = {
            let _s = obs::span("conex.cluster");
            cluster_levels(&brg, self.config.cluster_order)
        };
        let mut candidates = Vec::new();
        {
            let _s = obs::span("conex.enumerate");
            for level in levels {
                // "if number of logical connections <= max cost constraint"
                if level.len() > self.config.max_logical_connections {
                    obs::counter_add("conex.levels_skipped", 1);
                    continue;
                }
                obs::counter_add("conex.levels_explored", 1);
                candidates.extend(enumerate_allocations_filtered(
                    &brg,
                    &level,
                    &self.library,
                    self.config.max_allocations_per_level,
                    self.config.bandwidth_headroom,
                ));
            }
        }
        obs::counter_add("conex.candidates_enumerated", candidates.len() as u64);
        obs::debug(|| {
            format!(
                "conex: memory arch `{}`: {} candidate allocations to estimate",
                mem.name(),
                candidates.len()
            )
        });
        let enumerated = candidates.len();
        let batch = {
            let _s = obs::span("conex.estimate");
            engine.estimate_batch_bounded(
                mem,
                candidates,
                self.config.trace_len,
                self.config.sampling,
                self.config.threads,
            )?
        };
        if batch.status != BatchStatus::Complete {
            return Ok(batch);
        }
        // Funnel reconciliation: estimated == enumerated − infeasible −
        // degraded (timed-out candidates are dropped, not estimated).
        let estimated = batch.output.iter().filter(|o| o.is_some()).count();
        obs::counter_add(
            "conex.candidates_infeasible",
            (enumerated - estimated - batch.degraded.len()) as u64,
        );
        obs::counter_add("conex.candidates_estimated", estimated as u64);
        if !batch.degraded.is_empty() {
            obs::counter_add("budget.degraded_evals", batch.degraded.len() as u64);
        }
        Ok(batch)
    }

    /// Phase-I local selection by index: the most promising points of one
    /// memory architecture's estimate cloud, per the configured strategy,
    /// also labelling each point with the local fronts it sits on (the
    /// provenance capture site). Returns the kept indices in selection
    /// order and, aligned with `points`, each point's front labels —
    /// empty for points on no front (and for every point under the Full
    /// strategy, which keeps everything).
    fn select_local_indices(&self, points: &[DesignPoint]) -> (Vec<usize>, Vec<Vec<&'static str>>) {
        let mut labels: Vec<Vec<&'static str>> = vec![Vec::new(); points.len()];
        if points.is_empty() {
            return (Vec::new(), labels);
        }
        if self.config.strategy == ExplorationStrategy::Full {
            return ((0..points.len()).collect(), labels);
        }
        let metrics: Vec<Metrics> = points.iter().map(|p| p.metrics).collect();
        // Union of the 2-D cost/latency and cost/energy fronts with the
        // full 3-D front: the local candidates for every global trade-off
        // space the designer may select in (Section 5's three scenarios).
        let cl = ParetoFront::of(&metrics, &[Axis::Cost, Axis::Latency]);
        let mut chosen: Vec<usize> = cl.indices().to_vec();
        for &i in cl.indices() {
            labels[i].push("cost-latency");
        }
        for (name, front) in [
            (
                "cost-energy",
                ParetoFront::of(&metrics, &[Axis::Cost, Axis::Energy]),
            ),
            ("pareto-3d", ParetoFront::of(&metrics, &Axis::ALL)),
        ] {
            for &i in front.indices() {
                labels[i].push(name);
                if !chosen.contains(&i) {
                    chosen.push(i);
                }
            }
        }
        // Cap, keeping the cheapest and the costliest extremes. The capped
        // set is the Pruned selection.
        chosen.sort_by_key(|&i| points[i].metrics.cost_gates);
        let mut kept = downsample(&chosen, self.config.local_keep);
        if self.config.strategy == ExplorationStrategy::Neighborhood {
            // Neighborhood = the Pruned selection plus every kept point's
            // cost-order neighbors in the estimate cloud — always a
            // superset of Pruned, so its coverage can only improve.
            let mut by_cost: Vec<usize> = (0..points.len()).collect();
            by_cost.sort_by_key(|&i| points[i].metrics.cost_gates);
            let rank_of: Vec<usize> = {
                let mut r = vec![0; points.len()];
                for (rank, &i) in by_cost.iter().enumerate() {
                    r[i] = rank;
                }
                r
            };
            let mut extra = Vec::new();
            for &i in &kept {
                let rank = rank_of[i];
                if rank > 0 {
                    extra.push(by_cost[rank - 1]);
                }
                if rank + 1 < by_cost.len() {
                    extra.push(by_cost[rank + 1]);
                }
            }
            for i in extra {
                if !kept.contains(&i) {
                    labels[i].push("neighbor");
                    kept.push(i);
                }
            }
        }
        // The union of the per-scenario fronts is this architecture's
        // local pareto shortlist; its size is the per-level front gauge.
        obs::gauge_max("conex.local_front_max", kept.len() as u64);
        (kept, labels)
    }

    /// The full two-phase `Algorithm ConEx`.
    ///
    /// Compiles a fresh evaluation engine (no cache) for the run; use
    /// [`ConexExplorer::explore_with_engine_resumable`] to reuse an
    /// engine's compiled trace and memoization cache across runs.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn explore(
        &self,
        workload: &Workload,
        mem_archs: Vec<MemoryArchitecture>,
    ) -> Result<ConexResult, MceError> {
        let engine = EvalEngine::new(workload, self.config.trace_len);
        self.explore_with_engine_resumable(&engine, mem_archs, Phase1State::default(), &mut |_| {
            Ok(())
        })
    }

    /// One Phase-I step: explores `mem_archs[k]` and folds the results
    /// into `state`. The single code path for fresh runs, resumed runs
    /// and checkpoint replay, so all three are bit-identical.
    ///
    /// Returns `Some(reason)` — committing **nothing** (state, counters
    /// and gauges are exactly as before the call) — when a bound cut the
    /// architecture short; the architecture boundary is the pipeline's
    /// safe point, so a truncated architecture never half-lands.
    fn explore_arch(
        &self,
        engine: &EvalEngine,
        mem_archs: &[MemoryArchitecture],
        k: usize,
        state: &mut Phase1State,
        degraded: &mut Vec<DegradedEval>,
    ) -> Result<Option<StopReason>, MceError> {
        let bounds = engine.bounds();
        // Snapshot the observability state so a truncated architecture's
        // partial contributions (enumeration counters, gauges) can be
        // rolled back — the forced truncation checkpoint must describe
        // exactly `archs_done` architectures.
        let rollback = bounds
            .is_active()
            .then(|| (obs::counters_snapshot(), obs::gauges_snapshot()));
        let batch = self.connectivity_exploration_bounded(engine, &mem_archs[k])?;
        if batch.status != BatchStatus::Complete {
            if let Some((counters, gauges)) = rollback {
                restore_obs(&counters, &gauges);
            }
            return Ok(Some(stop_reason_of(batch.status, &bounds.token)));
        }
        degraded.extend(
            batch
                .degraded
                .iter()
                .map(|&i| DegradedEval::timeout("estimate", Some(k), i)),
        );
        // Flatten the batch into the estimate cloud, remembering each
        // cloud point's batch slot so origin tags can be attributed.
        let mut slot_of: Vec<usize> = Vec::new();
        let points: Vec<DesignPoint> = batch
            .output
            .into_iter()
            .enumerate()
            .filter_map(|(slot, p)| {
                p.inspect(|_| {
                    slot_of.push(slot);
                })
            })
            .collect();
        let (kept_idx, labels) = self.select_local_indices(&points);
        let selected: Vec<DesignPoint> = kept_idx.iter().map(|&i| points[i].clone()).collect();
        obs::counter_add(
            "conex.candidates_pruned",
            (points.len() - selected.len()) as u64,
        );
        if self.explain {
            state.provenance.push(arch_provenance(
                k,
                mem_archs[k].name(),
                &points,
                &kept_idx,
                &labels,
                &slot_of,
                &batch.cache_hits,
                &batch.degraded,
            ));
        }
        state.shortlist.extend(selected);
        state.estimated.extend(points);
        let sample_every = self.config.frontier_sample_every;
        if sample_every > 0 && ((k + 1).is_multiple_of(sample_every) || k + 1 == mem_archs.len()) {
            let metrics: Vec<Metrics> = state.estimated.iter().map(|p| p.metrics).collect();
            let axes = [Axis::Cost, Axis::Latency];
            let front = ParetoFront::of(&metrics, &axes);
            obs::gauge_max("conex.frontier_size_max", front.len() as u64);
            state.frontier_evolution.push(FrontierSnapshot {
                archs_explored: k + 1,
                estimated: state.estimated.len(),
                frontier_size: front.len(),
                hypervolume: hypervolume_proxy(&metrics, axes),
            });
        }
        state.archs_done = k + 1;
        Ok(None)
    }

    /// Reconstructs the Phase-I state of the first `upto` architectures
    /// by re-running them — the resume path's replay step.
    ///
    /// Driven against an engine whose cache was restored from a
    /// checkpoint, every evaluation is answered by a cache hit (evicted
    /// entries re-simulate, bit-identically), so this is cheap and the
    /// returned state equals what the original run had accumulated.
    /// Observability counters do pick up the replay's contributions; a
    /// resuming caller is expected to overwrite them afterwards with the
    /// checkpointed values (see
    /// [`counter_restore`](mce_obs::counter_restore)).
    ///
    /// `after_arch` runs on the accumulated state after each replayed
    /// architecture — the same boundary `explore_with_engine_resumable`
    /// hands to its checkpoint hook. A caller timing or inspecting the
    /// replay per architecture hooks in here; pass `&mut |_| Ok(())` for
    /// a plain replay. The replay never emits logical time-series marks.
    /// An error from the observer aborts the replay.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Checkpoint`] when `upto` exceeds
    /// `mem_archs.len()`, and propagates evaluation and observer errors.
    pub fn phase1_partial_with(
        &self,
        engine: &EvalEngine,
        mem_archs: &[MemoryArchitecture],
        upto: usize,
        after_arch: &mut dyn FnMut(&Phase1State) -> Result<(), MceError>,
    ) -> Result<Phase1State, MceError> {
        if upto > mem_archs.len() {
            return Err(MceError::checkpoint(format!(
                "checkpoint claims {upto} completed architectures but the run has {}",
                mem_archs.len()
            )));
        }
        let mut state = Phase1State::default();
        for k in 0..upto {
            let mut degraded = Vec::new();
            if let Some(reason) =
                self.explore_arch(engine, mem_archs, k, &mut state, &mut degraded)?
            {
                // A replay engine carries at most the shared logical
                // budget; running out here means the caller resumed with
                // a budget smaller than the checkpoint already consumed.
                return Err(MceError::checkpoint(format!(
                    "bounds tripped ({reason}) while replaying {upto} checkpointed \
                     architectures — raise the budget or delete the checkpoint"
                )));
            }
            after_arch(&state)?;
        }
        Ok(state)
    }

    /// The full two-phase `Algorithm ConEx` on a shared evaluation engine,
    /// resumable at memory-architecture granularity.
    ///
    /// The engine must be built for the explored workload with a compiled
    /// length of at least [`ConexConfig::trace_len`].
    ///
    /// Phase I starts from `state` — [`Phase1State::default`] for a fresh
    /// run, or a state previously observed by `after_arch` to resume one —
    /// and skips the first [`archs_done`](Phase1State::archs_done)
    /// architectures. `after_arch` runs on the updated state after each
    /// architecture completes (the checkpoint hook); an error from it
    /// aborts the run.
    ///
    /// A resumed run is bit-identical to an uninterrupted one: the skipped
    /// architectures' points come from `state` in their original order,
    /// and per-run totals are never double-counted: Phase-II counters are
    /// only added after the loop, and `conex.shortlist` is *set* from the
    /// accumulated state rather than added.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Checkpoint`] when `state` claims more completed
    /// architectures than `mem_archs` holds, [`MceError::WorkerPanic`]
    /// when an evaluation panics twice, or any error `after_arch` returns.
    pub fn explore_with_engine_resumable(
        &self,
        engine: &EvalEngine,
        mem_archs: Vec<MemoryArchitecture>,
        mut state: Phase1State,
        after_arch: &mut dyn FnMut(&Phase1State) -> Result<(), MceError>,
    ) -> Result<ConexResult, MceError> {
        if state.archs_done > mem_archs.len() {
            return Err(MceError::checkpoint(format!(
                "phase-I state claims {} completed architectures but the run has {}",
                state.archs_done,
                mem_archs.len()
            )));
        }
        let workload = engine.workload();
        let start = Instant::now();
        let _run = obs::span("conex.explore");
        obs::info(|| {
            format!(
                "conex: exploring `{}` across {} memory architectures ({} strategy)",
                workload.name(),
                mem_archs.len(),
                self.config.strategy
            )
        });
        // Phase I. Bounds are checked at architecture boundaries — the
        // safe points: a truncated architecture commits nothing, so the
        // accumulated state always describes exactly `archs_done`
        // architectures and can be checkpointed or reported as-is.
        let bounds = engine.bounds();
        let mut stop: Option<StopReason> = None;
        let mut degraded: Vec<DegradedEval> = Vec::new();
        {
            let _phase1 = obs::span("conex.phase1");
            for k in state.archs_done..mem_archs.len() {
                // The deterministic bound wins when both trip at the same
                // boundary, keeping logical-budget runs reproducible.
                if bounds.max_archs.is_some_and(|max| k >= max) {
                    stop = Some(StopReason::MaxArchs);
                    break;
                }
                if bounds.token.is_cancelled() {
                    stop = Some(stop_reason_of(BatchStatus::Cancelled, &bounds.token));
                    break;
                }
                match self.explore_arch(engine, &mem_archs, k, &mut state, &mut degraded)? {
                    None => after_arch(&state)?,
                    Some(reason) => {
                        stop = Some(reason);
                        break;
                    }
                }
            }
            // A *set*, not an add: the shortlist total is derived from the
            // accumulated state, and a truncated run's checkpoint persists
            // it — an add would re-count the checkpointed portion when the
            // resumed run sets its own total.
            obs::counter_restore("conex.shortlist", state.shortlist.len() as u64);
            // Workers have joined; totals are deterministic here.
            obs::snapshot_counters();
        }
        let Phase1State {
            archs_done,
            estimated: all_estimated,
            shortlist: combined,
            frontier_evolution,
            provenance,
        } = state;
        obs::info(|| {
            format!(
                "conex: phase I kept {} of {} estimated candidates for full simulation",
                combined.len(),
                all_estimated.len()
            )
        });
        // Phase II: full simulation of the combined shortlist — skipped
        // entirely when Phase I was cut short (the shortlist would be
        // partial, so refining it would waste the remaining budget on
        // points a resumed run re-refines anyway).
        let simulated: Vec<DesignPoint> = if stop.is_some() {
            Vec::new()
        } else {
            let _phase2 = obs::span("conex.phase2");
            // Same discipline as a Phase-I architecture: a cancelled
            // refine batch commits nothing, so its partial simulations'
            // counter contributions (`sim.*`) are rolled back before the
            // truncation checkpoint snapshots them.
            let rollback = bounds
                .is_active()
                .then(|| (obs::counters_snapshot(), obs::gauges_snapshot()));
            let batch = engine.refine_batch_bounded(
                &combined,
                self.config.trace_len,
                self.config.threads,
            )?;
            match batch.status {
                BatchStatus::Complete => {
                    if !batch.degraded.is_empty() {
                        obs::counter_add("budget.degraded_evals", batch.degraded.len() as u64);
                        degraded.extend(
                            batch
                                .degraded
                                .iter()
                                .map(|&i| DegradedEval::timeout("refine", None, i)),
                        );
                    }
                    batch.output
                }
                status => {
                    if let Some((counters, gauges)) = rollback {
                        restore_obs(&counters, &gauges);
                    }
                    stop = Some(stop_reason_of(status, &bounds.token));
                    Vec::new()
                }
            }
        };
        if stop.is_some_and(|r| !r.is_deterministic()) {
            obs::counter_add("budget.cancelled", 1);
        }
        // Phase II simulates exactly the shortlist: simulated == shortlist.
        obs::counter_add("conex.simulated", simulated.len() as u64);
        obs::snapshot_counters();
        if let Some(reason) = stop {
            obs::info(|| {
                format!(
                    "conex: stopped early ({reason}) after {archs_done} of {} architectures",
                    mem_archs.len()
                )
            });
        }
        Ok(ConexResult {
            workload_name: workload.name().to_owned(),
            estimated: all_estimated,
            simulated,
            frontier_evolution,
            stop: stop.map(|r| r.as_str().to_owned()),
            degraded,
            provenance,
            elapsed: start.elapsed(),
        })
    }
}

/// Builds one architecture's [`ArchProvenance`] from the selection
/// outcome: verdicts, front labels, origin tags and — for pruned points —
/// the first kept point that dominates them.
#[allow(clippy::too_many_arguments)]
fn arch_provenance(
    arch: usize,
    mem: &str,
    points: &[DesignPoint],
    kept_idx: &[usize],
    labels: &[Vec<&'static str>],
    slot_of: &[usize],
    cache_hits: &[usize],
    dropped_slots: &[usize],
) -> ArchProvenance {
    let mut records = Vec::with_capacity(points.len() + dropped_slots.len());
    for (i, p) in points.iter().enumerate() {
        let kept = kept_idx.contains(&i);
        // `cache_hits` is in ascending probe order.
        let origin = if cache_hits.binary_search(&slot_of[i]).is_ok() {
            "cache-hit"
        } else {
            "evaluated"
        };
        let dominated_by = if kept {
            None
        } else {
            kept_idx
                .iter()
                .find(|&&kk| dominates(&points[kk].metrics, &p.metrics))
                .copied()
        };
        records.push(PointProvenance {
            index: i,
            describe: p.describe(),
            origin: origin.to_owned(),
            kept,
            fronts: labels[i].iter().map(|s| (*s).to_owned()).collect(),
            dominated_by,
        });
    }
    for &slot in dropped_slots {
        records.push(PointProvenance {
            index: slot,
            describe: String::new(),
            origin: "estimate-degraded".to_owned(),
            kept: false,
            fronts: Vec::new(),
            dominated_by: None,
        });
    }
    ArchProvenance {
        arch,
        mem: mem.to_owned(),
        kept: kept_idx.len(),
        pruned: records.len() - kept_idx.len(),
        points: records,
    }
}

/// Weak pareto dominance over all three metric axes: `a` is nowhere
/// worse than `b` and strictly better somewhere.
fn dominates(a: &Metrics, b: &Metrics) -> bool {
    let no_worse = a.cost_gates <= b.cost_gates
        && a.latency_cycles <= b.latency_cycles
        && a.energy_nj <= b.energy_nj;
    let better = a.cost_gates < b.cost_gates
        || a.latency_cycles < b.latency_cycles
        || a.energy_nj < b.energy_nj;
    no_worse && better
}

/// Maps a truncated batch status to the stop reason reported to the user:
/// budget exhaustion is `max-evals`; a tripped token reports what tripped
/// it (deadline or SIGINT).
fn stop_reason_of(status: BatchStatus, token: &CancelToken) -> StopReason {
    match status {
        BatchStatus::BudgetExhausted => StopReason::MaxEvals,
        BatchStatus::Cancelled => token
            .reason()
            .map(StopReason::from)
            .unwrap_or(StopReason::Interrupt),
        BatchStatus::Complete => unreachable!("a complete batch has no stop reason"),
    }
}

/// Rolls the observability counters and gauges back to a snapshot taken
/// before a truncated architecture: keys that changed are restored, keys
/// created after the snapshot drop back to zero.
fn restore_obs(counters: &[(&'static str, u64)], gauges: &[(&'static str, u64)]) {
    for (name, _) in obs::counters_snapshot() {
        let old = counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v);
        obs::counter_restore(name, old);
    }
    for (name, _) in obs::gauges_snapshot() {
        let old = gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v);
        obs::gauge_restore(name, old);
    }
}

/// Keeps at most `max` items, always retaining the first and last.
fn downsample(indices: &[usize], max: usize) -> Vec<usize> {
    if indices.len() <= max || max == 0 {
        return indices.to_vec();
    }
    if max == 1 {
        return vec![indices[0]];
    }
    let mut out: Vec<usize> = (0..max)
        .map(|k| indices[k * (indices.len() - 1) / (max - 1)])
        .collect();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;
    use mce_memlib::CacheConfig;

    fn one_arch(w: &Workload) -> Vec<MemoryArchitecture> {
        vec![MemoryArchitecture::cache_only(w, CacheConfig::kilobytes(4))]
    }

    #[test]
    fn exploration_produces_multiple_candidates() {
        let w = benchmarks::vocoder();
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let points = explorer.connectivity_exploration(&w, &mem).unwrap();
        assert!(points.len() >= 5, "{} candidates", points.len());
        assert!(points.iter().all(|p| p.estimated));
    }

    #[test]
    fn connectivity_choices_spread_cost_and_latency() {
        let w = benchmarks::compress();
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let points = explorer.connectivity_exploration(&w, &mem).unwrap();
        let costs: Vec<u64> = points.iter().map(|p| p.metrics.cost_gates).collect();
        let lats: Vec<f64> = points.iter().map(|p| p.metrics.latency_cycles).collect();
        assert!(costs.iter().max() > costs.iter().min());
        let max_l = lats.iter().cloned().fold(f64::MIN, f64::max);
        let min_l = lats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max_l > 1.2 * min_l, "latency spread {min_l}..{max_l}");
    }

    #[test]
    fn two_phase_result_is_simulated() {
        let w = benchmarks::vocoder();
        let result = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, one_arch(&w))
            .unwrap();
        assert!(!result.simulated().is_empty());
        assert!(result.simulated().iter().all(|p| !p.estimated));
        assert!(result.estimated().len() >= result.simulated().len());
    }

    #[test]
    fn pruned_simulates_fewer_than_full() {
        let w = benchmarks::vocoder();
        let pruned = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, one_arch(&w))
            .unwrap();
        let full = ConexExplorer::new(
            ConexConfig::preset(Preset::Fast).with_strategy(ExplorationStrategy::Full),
        )
        .explore(&w, one_arch(&w))
        .unwrap();
        assert!(
            pruned.simulated().len() < full.simulated().len(),
            "pruned {} vs full {}",
            pruned.simulated().len(),
            full.simulated().len()
        );
        assert_eq!(full.simulated().len(), full.estimated().len());
    }

    #[test]
    fn neighborhood_between_pruned_and_full() {
        let w = benchmarks::vocoder();
        let p = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, one_arch(&w))
            .unwrap();
        let n = ConexExplorer::new(
            ConexConfig::preset(Preset::Fast).with_strategy(ExplorationStrategy::Neighborhood),
        )
        .explore(&w, one_arch(&w))
        .unwrap();
        let f = ConexExplorer::new(
            ConexConfig::preset(Preset::Fast).with_strategy(ExplorationStrategy::Full),
        )
        .explore(&w, one_arch(&w))
        .unwrap();
        assert!(p.simulated().len() <= n.simulated().len());
        assert!(n.simulated().len() <= f.simulated().len());
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let w = benchmarks::vocoder();
        let result = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, one_arch(&w))
            .unwrap();
        let front = result.pareto_cost_latency();
        for a in &front {
            for b in &front {
                let dominates = a.metrics.cost_gates < b.metrics.cost_gates
                    && a.metrics.latency_cycles < b.metrics.latency_cycles;
                assert!(!dominates, "{} dominates {}", a.describe(), b.describe());
            }
        }
    }

    #[test]
    fn max_logical_connections_limits_levels() {
        // A multi-module architecture has >2 channels, so constraining the
        // logical-connection count skips the finer clustering levels.
        let w = benchmarks::li();
        let mem = MemoryArchitecture::builder("dma")
            .module(
                "L1",
                mce_memlib::MemModuleKind::Cache(CacheConfig::kilobytes(4)),
            )
            .module(
                "dma",
                mce_memlib::MemModuleKind::SelfIndirectDma {
                    depth: 16,
                    element_bytes: 8,
                },
            )
            .map(mce_appmodel::DsId::new(0), 1)
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        let mut cfg = ConexConfig::preset(Preset::Fast);
        cfg.max_logical_connections = 2; // only the fully merged level
        let limited = ConexExplorer::new(cfg)
            .connectivity_exploration(&w, &mem)
            .unwrap();
        let unlimited = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .connectivity_exploration(&w, &mem)
            .unwrap();
        assert!(
            limited.len() < unlimited.len(),
            "{} vs {}",
            limited.len(),
            unlimited.len()
        );
    }

    #[test]
    fn downsample_dedups_and_keeps_ends() {
        assert_eq!(downsample(&[1, 2, 3, 4, 5], 3), vec![1, 3, 5]);
        assert_eq!(downsample(&[1, 2], 5), vec![1, 2]);
        assert_eq!(downsample(&[1, 2, 3], 1), vec![1]);
    }

    #[test]
    fn elapsed_is_recorded() {
        let w = benchmarks::vocoder();
        let result = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, one_arch(&w))
            .unwrap();
        assert!(result.elapsed() > Duration::ZERO);
    }

    #[test]
    fn frontier_evolution_is_sampled_and_deterministic() {
        let w = benchmarks::vocoder();
        let archs = vec![
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8)),
        ];
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let result = explorer.explore(&w, archs.clone()).unwrap();
        let evo = result.frontier_evolution();
        assert_eq!(evo.len(), 2, "one snapshot per architecture at period 1");
        assert_eq!(evo[0].archs_explored, 1);
        assert_eq!(evo[1].archs_explored, 2);
        assert!(evo[1].estimated >= evo[0].estimated);
        assert_eq!(evo[1].estimated, result.estimated().len());
        for s in evo {
            assert!(s.frontier_size >= 1);
            assert!(s.hypervolume > 0.0 && s.hypervolume < 1.0, "{s:?}");
        }
        // Snapshots are a pure function of the estimate cloud.
        let again = explorer.explore(&w, archs).unwrap();
        assert_eq!(evo, again.frontier_evolution());

        let mut off = ConexConfig::preset(Preset::Fast);
        off.frontier_sample_every = 0;
        let none = ConexExplorer::new(off).explore(&w, one_arch(&w)).unwrap();
        assert!(none.frontier_evolution().is_empty());
    }

    #[test]
    fn resumable_run_matches_uninterrupted_run() {
        let w = benchmarks::vocoder();
        let archs = vec![
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8)),
        ];
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let engine = EvalEngine::new(&w, explorer.config().trace_len);
        let clean = explorer
            .explore_with_engine_resumable(
                &engine,
                archs.clone(),
                Phase1State::default(),
                &mut |_| Ok(()),
            )
            .unwrap();
        // Capture the state after the first architecture, then restart the
        // run from that state, as a resume after a crash would.
        let mut saved: Option<Phase1State> = None;
        explorer
            .explore_with_engine_resumable(
                &engine,
                archs.clone(),
                Phase1State::default(),
                &mut |s| {
                    if s.archs_done == 1 {
                        saved = Some(s.clone());
                    }
                    Ok(())
                },
            )
            .unwrap();
        let saved = saved.unwrap();
        // Replay reconstructs the same state from nothing but the count.
        let replayed = explorer
            .phase1_partial_with(&engine, &archs, 1, &mut |_| Ok(()))
            .unwrap();
        assert_eq!(replayed, saved);
        let resumed = explorer
            .explore_with_engine_resumable(&engine, archs, saved, &mut |_| Ok(()))
            .unwrap();
        assert_eq!(clean.estimated(), resumed.estimated());
        assert_eq!(clean.simulated(), resumed.simulated());
        assert_eq!(clean.frontier_evolution(), resumed.frontier_evolution());
    }

    #[test]
    fn explain_records_provenance_without_changing_results() {
        let w = benchmarks::vocoder();
        let archs = vec![
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8)),
        ];
        let plain = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, archs.clone())
            .unwrap();
        assert!(plain.provenance().is_empty());
        let explained = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .with_explain(true)
            .explore(&w, archs)
            .unwrap();
        // Capture never changes what is explored.
        assert_eq!(plain.estimated(), explained.estimated());
        assert_eq!(plain.simulated(), explained.simulated());
        assert_eq!(plain.frontier_evolution(), explained.frontier_evolution());
        // One record per architecture, reconciling with the funnel.
        let prov = explained.provenance();
        assert_eq!(prov.len(), 2);
        // Each architecture's cloud is a contiguous slice of estimated().
        let mut base = 0;
        for (k, arch) in prov.iter().enumerate() {
            assert_eq!(arch.arch, k);
            assert!(!arch.mem.is_empty());
            assert_eq!(arch.kept + arch.pruned, arch.points.len());
            assert!(arch.kept >= 1, "every cloud has a frontier");
            let cloud = |i: usize| &explained.estimated()[base + i];
            for p in &arch.points {
                assert!(
                    matches!(p.origin.as_str(), "evaluated" | "cache-hit"),
                    "{}",
                    p.origin
                );
                assert_eq!(p.describe, cloud(p.index).describe());
                if p.kept {
                    assert!(p.dominated_by.is_none());
                    assert!(!p.fronts.is_empty(), "kept points sit on a front");
                } else if let Some(by) = p.dominated_by {
                    assert!(arch.points[by].kept, "dominators are kept points");
                    assert!(dominates(&cloud(by).metrics, &cloud(p.index).metrics));
                }
            }
            base += arch.points.len();
        }
        // At least one point was pruned by domination in a Fast run.
        let total_pruned: usize = prov.iter().map(|a| a.pruned).sum();
        assert!(total_pruned >= 1);
    }

    #[test]
    fn phase1_partial_with_observes_each_boundary() {
        let w = benchmarks::vocoder();
        let archs = vec![
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8)),
        ];
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let engine = EvalEngine::new(&w, explorer.config().trace_len);
        let mut seen = Vec::new();
        let state = explorer
            .phase1_partial_with(&engine, &archs, 2, &mut |s| {
                seen.push(s.archs_done);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![1, 2]);
        let plain = explorer
            .phase1_partial_with(&engine, &archs, 2, &mut |_| Ok(()))
            .unwrap();
        assert_eq!(state, plain);
    }

    #[test]
    fn phase1_partial_rejects_stale_counts() {
        let w = benchmarks::vocoder();
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let engine = EvalEngine::new(&w, explorer.config().trace_len);
        let err = explorer
            .phase1_partial_with(&engine, &one_arch(&w), 2, &mut |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn stale_phase1_state_is_a_checkpoint_error() {
        let w = benchmarks::vocoder();
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let engine = EvalEngine::new(&w, explorer.config().trace_len);
        let state = Phase1State {
            archs_done: 3,
            ..Phase1State::default()
        };
        let err = explorer
            .explore_with_engine_resumable(&engine, one_arch(&w), state, &mut |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
    }
}
