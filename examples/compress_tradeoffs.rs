//! The paper's flagship scenario: joint memory + connectivity exploration
//! of SPEC95 `compress`, with the three constraint-driven selections of
//! Section 5 (power-, cost- and performance-constrained).
//!
//! ```sh
//! cargo run --release --example compress_tradeoffs
//! ```

use memory_conex::appmodel::benchmarks;
use memory_conex::prelude::*;

fn main() {
    let workload = benchmarks::compress();
    println!("{workload}");

    let result = ExplorationSession::new(workload)
        .preset(Preset::Fast)
        .run()
        .expect("exploration runs");

    // Figure 6-style analysis: the labelled cost/performance pareto.
    println!("Cost/performance pareto (Figure 6 style):");
    let pareto = result.conex.pareto_cost_latency();
    let best_cache_only = result
        .conex
        .simulated()
        .iter()
        .filter(|p| {
            let mem = p.system.mem();
            mem.on_chip_modules().count() == 1
        })
        .map(|p| p.metrics.latency_cycles)
        .fold(f64::INFINITY, f64::min);
    for (i, p) in pareto.iter().enumerate() {
        let label = (b'a' + (i % 26) as u8) as char;
        let improvement = (best_cache_only - p.metrics.latency_cycles) / best_cache_only * 100.0;
        println!(
            "  {label}: {:>8} gates  {:>6.2} cyc ({improvement:+.0}% vs best cache-only)  {}",
            p.metrics.cost_gates,
            p.metrics.latency_cycles,
            p.describe()
        );
    }

    // The three design-goal scenarios.
    let median_energy = {
        let mut e: Vec<f64> = result
            .conex
            .simulated()
            .iter()
            .map(|p| p.metrics.energy_nj)
            .collect();
        e.sort_by(f64::total_cmp);
        e[e.len() / 2]
    };
    let scenarios = [
        Scenario::PowerConstrained {
            max_energy_nj: median_energy,
        },
        Scenario::CostConstrained {
            max_cost_gates: 400_000,
        },
        Scenario::PerformanceConstrained {
            max_latency_cycles: 12.0,
        },
    ];
    for s in scenarios {
        println!("\n{s}:");
        let picks = s.select(result.conex.simulated());
        if picks.is_empty() {
            println!("  no admissible design — relax the constraint");
        }
        for p in picks.iter().take(5) {
            println!(
                "  {:>8} gates  {:>6.2} cyc  {:>5.2} nJ  {}",
                p.metrics.cost_gates,
                p.metrics.latency_cycles,
                p.metrics.energy_nj,
                p.describe()
            );
        }
    }
}
