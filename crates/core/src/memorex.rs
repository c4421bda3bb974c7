//! The end-to-end MemorEx flow (the paper's Figure 1).
//!
//! `C application → APEX (memory-modules exploration) → selected memory
//! configurations → ConEx (connectivity exploration) → selected combined
//! memory + connectivity configurations`.

use crate::engine::EvalEngine;
use crate::explore::{ConexConfig, ConexExplorer, ConexResult};
use mce_apex::{ApexConfig, ApexExplorer, ApexResult};
use mce_appmodel::Workload;
use mce_budget::Bounds;
use mce_error::MceError;
use mce_sim::Preset;
use serde::{Deserialize, Serialize};

/// The combined memory-system exploration environment.
#[derive(Debug, Clone)]
pub struct MemorEx {
    apex: ApexExplorer,
    conex: ConexExplorer,
}

/// Results of both stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorExResult {
    /// The memory-modules exploration (Figure 3).
    pub apex: ApexResult,
    /// The connectivity exploration over the selected memory architectures
    /// (Figures 4 and 6, Tables 1 and 2).
    pub conex: ConexResult,
}

impl MemorEx {
    /// Creates the pipeline from the two stage configurations.
    pub fn new(apex: ApexConfig, conex: ConexConfig) -> Self {
        MemorEx {
            apex: ApexExplorer::new(apex),
            conex: ConexExplorer::new(conex),
        }
    }

    /// The pipeline with both stages at the same [`Preset`].
    pub fn preset(preset: Preset) -> Self {
        Self::new(ApexConfig::preset(preset), ConexConfig::preset(preset))
    }

    /// Enables frontier-provenance capture on the ConEx stage — see
    /// [`ConexExplorer::with_explain`]. Results are bit-identical with
    /// it on or off; only [`ConexResult::provenance`] gains content.
    ///
    /// [`ConexResult::provenance`]: crate::explore::ConexResult::provenance
    #[must_use]
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.conex = self.conex.with_explain(explain);
        self
    }

    /// The ConEx explorer (to run scenario selections etc.).
    pub fn conex(&self) -> &ConexExplorer {
        &self.conex
    }

    /// Runs APEX then ConEx on `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn run(&self, workload: &Workload) -> Result<MemorExResult, MceError> {
        self.run_bounded(workload, Bounds::none())
    }

    /// [`MemorEx::run`] under [`Bounds`]: the token is checked between
    /// the APEX and ConEx stages, and ConEx checks it per memory
    /// architecture (plus inside every simulation). A tripped bound
    /// yields a truncated but valid [`ConexResult`] — see
    /// [`ConexResult::stop_reason`](crate::explore::ConexResult::stop_reason).
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry).
    pub fn run_bounded(
        &self,
        workload: &Workload,
        bounds: Bounds,
    ) -> Result<MemorExResult, MceError> {
        let apex = self.apex.explore(workload);
        let mem_archs = apex.selected();
        let engine = EvalEngine::new(workload, self.conex.config().trace_len).with_bounds(bounds);
        let conex = self.conex.explore_with_engine(&engine, mem_archs)?;
        Ok(MemorExResult { apex, conex })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    #[test]
    fn end_to_end_vocoder() {
        let w = benchmarks::vocoder();
        let result = MemorEx::preset(Preset::Fast).run(&w).unwrap();
        assert!(!result.apex.selected().is_empty());
        assert!(!result.conex.simulated().is_empty());
        assert!(!result.conex.pareto_cost_latency().is_empty());
    }

    #[test]
    fn conex_extends_apex_cost_with_connectivity() {
        let w = benchmarks::vocoder();
        let result = MemorEx::preset(Preset::Fast).run(&w).unwrap();
        // Every combined design costs at least its memory architecture.
        for p in result.conex.simulated() {
            assert!(p.metrics.cost_gates >= p.system.mem().gate_cost());
        }
    }

    #[test]
    fn exploration_improves_over_worst_connectivity() {
        // The headline claim: connectivity choice matters. Among the fully
        // simulated designs, the best latency should clearly beat the worst
        // (same memory architectures, different connectivity).
        let w = benchmarks::compress();
        let result = MemorEx::preset(Preset::Fast).run(&w).unwrap();
        let lats: Vec<f64> = result
            .conex
            .simulated()
            .iter()
            .map(|p| p.metrics.latency_cycles)
            .collect();
        let best = lats.iter().cloned().fold(f64::MAX, f64::min);
        let worst = lats.iter().cloned().fold(f64::MIN, f64::max);
        assert!(worst > 1.3 * best, "best {best} worst {worst}");
    }
}
