//! Constraint-driven final selection (the paper's Section 5, Phase II).
//!
//! "We select the most promising architectures using three scenarios:
//! (a) in a power-constrained scenario ... we determine the
//! cost/performance pareto points ... while keeping the power less than the
//! constraint, (b) in a cost-constrained scenario, we compute the
//! performance/power pareto points, and (c) in a performance-constrained
//! scenario, we compute the pareto points in the cost-power space."

use crate::design_point::DesignPoint;
use crate::pareto::{Axis, ParetoFront};
use std::fmt;

/// A design-goal scenario: one metric constrained, the other two optimized
/// as a pareto front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Energy per access must not exceed the threshold; optimize
    /// cost/performance.
    PowerConstrained {
        /// Maximum average energy per access, nJ.
        max_energy_nj: f64,
    },
    /// Gate cost must not exceed the threshold; optimize performance/power.
    CostConstrained {
        /// Maximum gate cost.
        max_cost_gates: u64,
    },
    /// Average latency must not exceed the threshold; optimize cost/power.
    PerformanceConstrained {
        /// Maximum average memory latency, cycles.
        max_latency_cycles: f64,
    },
}

impl Scenario {
    /// The two axes the scenario optimizes.
    pub const fn free_axes(&self) -> [Axis; 2] {
        match self {
            Scenario::PowerConstrained { .. } => [Axis::Cost, Axis::Latency],
            Scenario::CostConstrained { .. } => [Axis::Latency, Axis::Energy],
            Scenario::PerformanceConstrained { .. } => [Axis::Cost, Axis::Energy],
        }
    }

    /// True if `point` satisfies the constraint.
    pub fn admits(&self, point: &DesignPoint) -> bool {
        match *self {
            Scenario::PowerConstrained { max_energy_nj } => {
                point.metrics.energy_nj <= max_energy_nj
            }
            Scenario::CostConstrained { max_cost_gates } => {
                point.metrics.cost_gates <= max_cost_gates
            }
            Scenario::PerformanceConstrained { max_latency_cycles } => {
                point.metrics.latency_cycles <= max_latency_cycles
            }
        }
    }

    /// Selects the scenario's pareto points from `points`.
    ///
    /// The power-constrained case follows the paper's explicit order of
    /// operations: "we first determine the pareto points in the
    /// cost-performance space ... From the selected cost-performance pareto
    /// points we choose only the ones which satisfy the energy consumption
    /// constraint" — front first, then filter. The cost- and
    /// performance-constrained scenarios treat the constraint as a bound on
    /// the candidate set instead (filter first, then front), so a tight
    /// budget still yields the best designs *within* it.
    pub fn select<'a>(&self, points: &'a [DesignPoint]) -> Vec<&'a DesignPoint> {
        match self {
            Scenario::PowerConstrained { .. } => {
                let metrics: Vec<_> = points.iter().map(|p| p.metrics).collect();
                ParetoFront::of(&metrics, &self.free_axes())
                    .indices()
                    .iter()
                    .map(|&i| &points[i])
                    .filter(|p| self.admits(p))
                    .collect()
            }
            Scenario::CostConstrained { .. } | Scenario::PerformanceConstrained { .. } => {
                let admissible: Vec<&DesignPoint> =
                    points.iter().filter(|p| self.admits(p)).collect();
                let metrics: Vec<_> = admissible.iter().map(|p| p.metrics).collect();
                ParetoFront::of(&metrics, &self.free_axes())
                    .indices()
                    .iter()
                    .map(|&i| admissible[i])
                    .collect()
            }
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scenario::PowerConstrained { max_energy_nj } => {
                write!(f, "power-constrained (≤ {max_energy_nj} nJ)")
            }
            Scenario::CostConstrained { max_cost_gates } => {
                write!(f, "cost-constrained (≤ {max_cost_gates} gates)")
            }
            Scenario::PerformanceConstrained { max_latency_cycles } => {
                write!(f, "performance-constrained (≤ {max_latency_cycles} cycles)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design_point::Metrics;
    use mce_appmodel::benchmarks;
    use mce_memlib::{CacheConfig, MemoryArchitecture};
    use mce_sim::SystemConfig;

    fn point(cost: u64, lat: f64, nj: f64) -> DesignPoint {
        // All points share a trivially valid system; only metrics matter
        // for scenario selection.
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(1));
        let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
        DesignPoint::new(sys, Metrics::new(cost, lat, nj), false)
    }

    fn sample_points() -> Vec<DesignPoint> {
        vec![
            point(100, 10.0, 5.0),
            point(200, 5.0, 8.0),
            point(300, 3.0, 12.0),
            point(150, 9.0, 4.0),
            point(400, 2.9, 20.0),
        ]
    }

    #[test]
    fn power_constrained_filters_energy() {
        let pts = sample_points();
        let s = Scenario::PowerConstrained { max_energy_nj: 9.0 };
        let sel = s.select(&pts);
        assert!(!sel.is_empty());
        assert!(sel.iter().all(|p| p.metrics.energy_nj <= 9.0));
        // The 300-gate and 400-gate points are on the cost/latency front
        // but fail the power constraint.
        assert!(sel.iter().all(|p| p.metrics.cost_gates <= 200));
    }

    #[test]
    fn cost_constrained_optimizes_latency_energy() {
        let pts = sample_points();
        let s = Scenario::CostConstrained {
            max_cost_gates: 250,
        };
        let sel = s.select(&pts);
        assert!(sel.iter().all(|p| p.metrics.cost_gates <= 250));
        // Latency/energy front: (10,5) dominated by (9,4); (5,8) survives.
        assert!(sel.iter().any(|p| p.metrics.latency_cycles == 5.0));
        assert!(!sel.iter().any(|p| p.metrics.latency_cycles == 10.0));
    }

    #[test]
    fn performance_constrained_optimizes_cost_energy() {
        let pts = sample_points();
        let s = Scenario::PerformanceConstrained {
            max_latency_cycles: 9.5,
        };
        let sel = s.select(&pts);
        assert!(sel.iter().all(|p| p.metrics.latency_cycles <= 9.5));
        for a in &sel {
            for b in &sel {
                assert!(
                    !(a.metrics.cost_gates < b.metrics.cost_gates
                        && a.metrics.energy_nj < b.metrics.energy_nj)
                );
            }
        }
    }

    #[test]
    fn unsatisfiable_constraint_selects_nothing() {
        let pts = sample_points();
        let s = Scenario::PowerConstrained { max_energy_nj: 0.1 };
        assert!(s.select(&pts).is_empty());
    }

    #[test]
    fn free_axes_match_paper() {
        assert_eq!(
            Scenario::PowerConstrained { max_energy_nj: 1.0 }.free_axes(),
            [Axis::Cost, Axis::Latency]
        );
        assert_eq!(
            Scenario::CostConstrained { max_cost_gates: 1 }.free_axes(),
            [Axis::Latency, Axis::Energy]
        );
        assert_eq!(
            Scenario::PerformanceConstrained {
                max_latency_cycles: 1.0
            }
            .free_axes(),
            [Axis::Cost, Axis::Energy]
        );
    }

    #[test]
    fn display_names() {
        let s = Scenario::CostConstrained {
            max_cost_gates: 5000,
        };
        assert!(s.to_string().contains("cost-constrained"));
    }
}
