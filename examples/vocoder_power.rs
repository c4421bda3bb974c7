//! Energy-aware exploration of the GSM vocoder: a battery-powered codec
//! where every nanojoule per access matters more than the last cycle of
//! latency — the paper's power-constrained scenario.
//!
//! ```sh
//! cargo run --release --example vocoder_power
//! ```

use memory_conex::appmodel::benchmarks;
use memory_conex::prelude::*;

fn main() {
    let workload = benchmarks::vocoder();
    let result = ExplorationSession::new(workload.clone())
        .preset(Preset::Fast)
        .run()
        .expect("exploration runs");

    // The unconstrained cost/performance view first.
    println!("Cost/performance pareto for {}:", workload.name());
    for p in result.conex.pareto_cost_latency() {
        println!(
            "  {:>8} gates  {:>6.2} cyc  {:>5.2} nJ  {}",
            p.metrics.cost_gates,
            p.metrics.latency_cycles,
            p.metrics.energy_nj,
            p.describe()
        );
    }

    // Tighten the energy budget step by step and watch the admissible
    // designs shrink: the designer's actual workflow.
    let energies: Vec<f64> = result
        .conex
        .simulated()
        .iter()
        .map(|p| p.metrics.energy_nj)
        .collect();
    let min_e = energies.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_e = energies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    for step in [1.0, 0.75, 0.5, 0.25] {
        let budget = min_e + (max_e - min_e) * step;
        let scenario = Scenario::PowerConstrained {
            max_energy_nj: budget,
        };
        let picks = scenario.select(result.conex.simulated());
        println!(
            "\nenergy budget {budget:.2} nJ/access -> {} admissible pareto designs",
            picks.len()
        );
        if let Some(fastest) = picks.iter().min_by(|a, b| {
            a.metrics
                .latency_cycles
                .total_cmp(&b.metrics.latency_cycles)
        }) {
            println!(
                "  fastest admissible: {:>6.2} cyc, {:>8} gates, {:.2} nJ — {}",
                fastest.metrics.latency_cycles,
                fastest.metrics.cost_gates,
                fastest.metrics.energy_nj,
                fastest.describe()
            );
        }
    }
}
