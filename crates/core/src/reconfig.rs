//! Per-phase reconfigurable connectivity — an extension beyond the paper.
//!
//! The paper's related-work section cites Lahiri et al. (DAC 2000), who
//! "propose the use of dynamic reconfiguration of the communication
//! characteristics, taking into account the needs of the application".
//! ConEx itself selects one *static* connectivity architecture; this module
//! evaluates what a reconfigurable fabric would buy on a *phased* workload:
//! explore connectivity per execution phase, let the fabric switch between
//! phases, and compare the phase-weighted result against the best static
//! design.
//!
//! Accounting is conservative: the reconfigurable system must be able to
//! implement every phase's configuration, so its cost is the *maximum*
//! phase cost plus a reconfiguration-controller overhead, and each phase
//! switch pays a latency penalty amortized over the phase's accesses.

use crate::design_point::DesignPoint;
use crate::estimate::refine_with_full_simulation;
use crate::explore::ConexExplorer;
use crate::pareto::{Axis, ParetoFront};
use mce_appmodel::{DataStructure, Phase, Workload, WorkloadBuilder};
use mce_error::MceError;
use mce_memlib::MemoryArchitecture;
use std::fmt;

/// Gate overhead of the reconfiguration controller (configuration store,
/// switch control).
pub const RECONFIG_CONTROLLER_GATES: u64 = 9_000;
/// Cycles lost per phase switch (drain + reprogram).
pub const RECONFIG_SWITCH_CYCLES: u64 = 200;

/// The connectivity chosen for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseChoice {
    /// Phase name.
    pub phase: String,
    /// Accesses the phase spans (its weight).
    pub accesses: u64,
    /// The design evaluated on this phase's traffic.
    pub design: DesignPoint,
}

/// Comparison of the best static connectivity against a per-phase
/// reconfigurable one.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigReport {
    /// Workload explored.
    pub workload_name: String,
    /// The best static (single-configuration) design, by latency.
    pub static_best: DesignPoint,
    /// Per-phase selections.
    pub per_phase: Vec<PhaseChoice>,
    /// Phase-weighted average latency of the reconfigurable system,
    /// including the switch penalty.
    pub reconfig_latency_cycles: f64,
    /// Cost of the reconfigurable system: max phase cost + controller.
    pub reconfig_cost_gates: u64,
    /// Latency improvement of reconfigurable over static, percent
    /// (negative when reconfiguration does not pay off).
    pub improvement_pct: f64,
}

impl fmt::Display for ReconfigReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reconfigurable connectivity on {}: {:.2} cyc vs static {:.2} cyc ({:+.1}%), {} gates",
            self.workload_name,
            self.reconfig_latency_cycles,
            self.static_best.metrics.latency_cycles,
            self.improvement_pct,
            self.reconfig_cost_gates
        )?;
        for c in &self.per_phase {
            writeln!(
                f,
                "  {}: {:.2} cyc — {}",
                c.phase,
                c.design.metrics.latency_cycles,
                c.design.system.conn().describe()
            )?;
        }
        Ok(())
    }
}

/// Builds the single-phase sub-workload whose steady-state traffic matches
/// one phase of `workload`.
fn phase_workload(workload: &Workload, phase_idx: usize) -> Workload {
    let phase = &workload.phases()[phase_idx];
    let mut builder = WorkloadBuilder::new(format!("{}:{}", workload.name(), phase.name()));
    for (ds, &scale) in workload.data_structures().iter().zip(phase.hotness_scale()) {
        // Zero-hotness structures must stay in the workload (the memory
        // architecture maps them), but with negligible weight.
        let hotness = (ds.hotness() * scale).max(1e-6);
        builder = builder.data_structure(
            DataStructure::new(ds.name(), ds.footprint(), ds.element_size(), ds.pattern())
                .with_hotness(hotness)
                .with_write_fraction(ds.write_fraction()),
        );
    }
    builder
        .seed(workload.seed() ^ (phase_idx as u64 + 1))
        .compute_gap(workload.compute_gap())
        .build()
}

/// Picks the lowest-latency design within `cost_budget` from an estimate
/// cloud's cost/latency pareto; `None` when nothing fits the budget.
fn best_within_budget(points: &[DesignPoint], cost_budget: u64) -> Option<DesignPoint> {
    let metrics: Vec<_> = points.iter().map(|p| p.metrics).collect();
    let front = ParetoFront::of(&metrics, &[Axis::Cost, Axis::Latency]);
    front
        .indices()
        .iter()
        .map(|&i| &points[i])
        .filter(|p| p.metrics.cost_gates <= cost_budget)
        .min_by(|a, b| {
            a.metrics
                .latency_cycles
                .total_cmp(&b.metrics.latency_cycles)
        })
        .cloned()
}

impl ConexExplorer {
    /// Evaluates per-phase reconfigurable connectivity for `mem` on a
    /// phased `workload`.
    ///
    /// Returns `Ok(None)` for workloads with fewer than two phases
    /// (nothing to reconfigure between). Per-phase selections are
    /// constrained to the static best design's cost, so the comparison
    /// isolates the benefit of *reconfiguration* rather than of spending
    /// more gates.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn explore_reconfigurable(
        &self,
        workload: &Workload,
        mem: &MemoryArchitecture,
    ) -> Result<Option<ReconfigReport>, MceError> {
        self.explore_reconfigurable_with_budget(workload, mem, u64::MAX)
    }

    /// Like [`ConexExplorer::explore_reconfigurable`], but with an explicit
    /// gate budget on the connectivity-inclusive system cost.
    ///
    /// This is where reconfiguration earns its keep: under a tight budget a
    /// static design must pick one compromise configuration, while the
    /// reconfigurable fabric can give each phase the configuration that
    /// suits it — the per-phase optima (each within the same budget) are
    /// never worse in aggregate than any single configuration, minus the
    /// switch penalty.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn explore_reconfigurable_with_budget(
        &self,
        workload: &Workload,
        mem: &MemoryArchitecture,
        budget_gates: u64,
    ) -> Result<Option<ReconfigReport>, MceError> {
        if workload.phases().len() < 2 {
            return Ok(None);
        }
        // Exposure matching: simulate whole super-periods of the phase
        // schedule so every phase contributes exactly its declared share to
        // the static average, and give each phase's sub-simulation the same
        // number of accesses it has in those super-periods. Without this
        // the two sides of the comparison see different phase mixes.
        let period: u64 = workload.phases().iter().map(Phase::accesses).sum();
        let periods = (self.config().trace_len as u64 / period).max(1);
        let static_len = (periods * period) as usize;
        // Static reference: best-latency design over the whole workload.
        //
        // Fully simulated, not estimated: systematic time sampling can
        // alias with the workload's phase period and skip entire phases
        // (see `mce-sim::sampling`), which would make the static design
        // look far better than it is and the comparison meaningless.
        let static_points = self.connectivity_exploration(workload, mem)?;
        let Some(static_best) = static_points
            .iter()
            .filter(|p| p.metrics.cost_gates <= budget_gates)
            .min_by(|a, b| {
                a.metrics
                    .latency_cycles
                    .total_cmp(&b.metrics.latency_cycles)
            })
        else {
            return Ok(None);
        };
        let static_best = refine_with_full_simulation(static_best, workload, static_len);
        // Per-phase selections compete under the same budget (or, with an
        // unconstrained budget, under the static best's cost so the
        // comparison isolates reconfiguration rather than extra gates).
        let budget = if budget_gates == u64::MAX {
            static_best.metrics.cost_gates
        } else {
            budget_gates
        };

        let mut per_phase = Vec::new();
        let mut weighted = 0.0;
        let mut total_accesses = 0u64;
        let mut max_cost = 0u64;
        for (i, phase) in workload.phases().iter().enumerate() {
            let sub = phase_workload(workload, i);
            let points = self.connectivity_exploration(&sub, mem)?;
            let Some(design) = best_within_budget(&points, budget) else {
                return Ok(None);
            };
            let sub_len = (periods * phase.accesses()) as usize;
            let design = refine_with_full_simulation(&design, &sub, sub_len);
            // Switch penalty amortized over the phase.
            let latency = design.metrics.latency_cycles
                + RECONFIG_SWITCH_CYCLES as f64 / phase.accesses() as f64;
            weighted += latency * phase.accesses() as f64;
            total_accesses += phase.accesses();
            max_cost = max_cost.max(design.metrics.cost_gates);
            per_phase.push(PhaseChoice {
                phase: phase.name().to_owned(),
                accesses: phase.accesses(),
                design,
            });
        }
        let reconfig_latency_cycles = weighted / total_accesses as f64;
        let static_latency = static_best.metrics.latency_cycles;
        Ok(Some(ReconfigReport {
            workload_name: workload.name().to_owned(),
            static_best,
            per_phase,
            reconfig_latency_cycles,
            reconfig_cost_gates: max_cost + RECONFIG_CONTROLLER_GATES,
            improvement_pct: (static_latency - reconfig_latency_cycles) / static_latency * 100.0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ConexConfig;
    use mce_appmodel::benchmarks;
    use mce_memlib::CacheConfig;
    use mce_sim::Preset;

    fn explorer() -> ConexExplorer {
        let mut cfg = ConexConfig::preset(Preset::Fast);
        cfg.trace_len = 8_000;
        cfg.max_allocations_per_level = 24;
        ConexExplorer::new(cfg)
    }

    #[test]
    fn unphased_workload_yields_none() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2));
        assert!(explorer()
            .explore_reconfigurable(&w, &mem)
            .unwrap()
            .is_none());
    }

    #[test]
    fn jpeg_report_is_complete_and_consistent() {
        let w = benchmarks::jpeg();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let report = explorer()
            .explore_reconfigurable(&w, &mem)
            .unwrap()
            .expect("jpeg is phased");
        assert_eq!(report.per_phase.len(), 3);
        // Cost accounting: max phase cost + controller.
        let max_phase = report
            .per_phase
            .iter()
            .map(|c| c.design.metrics.cost_gates)
            .max()
            .unwrap();
        assert_eq!(
            report.reconfig_cost_gates,
            max_phase + RECONFIG_CONTROLLER_GATES
        );
        // Weighted latency lies within the per-phase extremes (plus the
        // small switch penalty).
        let min = report
            .per_phase
            .iter()
            .map(|c| c.design.metrics.latency_cycles)
            .fold(f64::INFINITY, f64::min);
        let max = report
            .per_phase
            .iter()
            .map(|c| c.design.metrics.latency_cycles)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(report.reconfig_latency_cycles >= min);
        assert!(report.reconfig_latency_cycles <= max + 1.0);
    }

    #[test]
    fn per_phase_selections_respect_budget() {
        let w = benchmarks::jpeg();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let report = explorer()
            .explore_reconfigurable(&w, &mem)
            .unwrap()
            .unwrap();
        for c in &report.per_phase {
            assert!(
                c.design.metrics.cost_gates <= report.static_best.metrics.cost_gates,
                "{}: {} over budget {}",
                c.phase,
                c.design.metrics.cost_gates,
                report.static_best.metrics.cost_gates
            );
        }
    }

    #[test]
    fn tight_budget_forces_cheaper_designs() {
        let w = benchmarks::jpeg();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let rich = explorer()
            .explore_reconfigurable(&w, &mem)
            .unwrap()
            .unwrap();
        // A budget at the median candidate cost is guaranteed feasible.
        let mut costs: Vec<u64> = explorer()
            .connectivity_exploration(&w, &mem)
            .unwrap()
            .iter()
            .map(|p| p.metrics.cost_gates)
            .collect();
        costs.sort_unstable();
        let cheap_budget = costs[costs.len() / 2];
        let tight = explorer()
            .explore_reconfigurable_with_budget(&w, &mem, cheap_budget)
            .unwrap()
            .expect("median budget is feasible");
        assert!(tight.static_best.metrics.cost_gates <= cheap_budget);
        for c in &tight.per_phase {
            assert!(c.design.metrics.cost_gates <= cheap_budget, "{}", c.phase);
        }
        // Tighter budgets cannot make the static design faster.
        assert!(
            tight.static_best.metrics.latency_cycles
                >= rich.static_best.metrics.latency_cycles - 1e-9
        );
    }

    #[test]
    fn unsatisfiable_budget_yields_none() {
        let w = benchmarks::jpeg();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        assert!(explorer()
            .explore_reconfigurable_with_budget(&w, &mem, 1)
            .unwrap()
            .is_none());
    }

    #[test]
    fn phase_workload_preserves_structure() {
        let w = benchmarks::jpeg();
        let sub = phase_workload(&w, 0);
        assert_eq!(sub.len(), w.len());
        assert!(sub.phases().is_empty());
        assert_eq!(sub.trace(100).count(), 100);
    }

    #[test]
    fn report_display_lists_phases() {
        let w = benchmarks::jpeg();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let report = explorer()
            .explore_reconfigurable(&w, &mem)
            .unwrap()
            .unwrap();
        let text = report.to_string();
        assert!(text.contains("dct"), "{text}");
        assert!(text.contains("entropy"), "{text}");
    }
}
