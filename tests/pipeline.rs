//! End-to-end integration tests: the full MemorEx pipeline (APEX → ConEx)
//! on all three paper benchmarks, checking the structural invariants every
//! stage must uphold.

use memory_conex::appmodel::benchmarks;
use memory_conex::prelude::*;

fn run(workload: &Workload) -> SessionResult {
    ExplorationSession::new(workload.clone())
        .preset(Preset::Fast)
        .run()
        .expect("exploration runs")
}

#[test]
fn pipeline_produces_designs_for_every_benchmark() {
    for w in benchmarks::all() {
        let r = run(&w);
        assert!(
            !r.apex.selected().is_empty(),
            "{}: APEX selected nothing",
            w.name()
        );
        assert!(
            !r.conex.simulated().is_empty(),
            "{}: ConEx simulated nothing",
            w.name()
        );
        assert!(
            !r.conex.pareto_cost_latency().is_empty(),
            "{}: empty pareto",
            w.name()
        );
    }
}

#[test]
fn every_simulated_design_is_valid_and_measured() {
    let w = benchmarks::vocoder();
    let r = run(&w);
    for p in r.conex.simulated() {
        assert!(!p.estimated, "phase II must fully simulate");
        assert!(p.system.mem().validate(&w).is_ok());
        assert!(p.system.conn().validate().is_ok());
        assert_eq!(p.metrics.cost_gates, p.system.gate_cost());
        assert!(p.metrics.latency_cycles > 0.0);
        assert!(p.metrics.energy_nj > 0.0);
    }
}

#[test]
fn pareto_fronts_are_consistent_subsets() {
    let w = benchmarks::li();
    let r = run(&w);
    let simulated = r.conex.simulated();
    for front in [
        r.conex.pareto_cost_latency(),
        r.conex.pareto_latency_energy(),
        r.conex.pareto_cost_energy(),
        r.conex.pareto_3d(),
    ] {
        assert!(!front.is_empty());
        for p in &front {
            assert!(
                simulated.iter().any(|s| s.metrics == p.metrics),
                "front point missing from simulated set"
            );
        }
    }
    // Every 2-D cost/latency front member is also 3-D nondominated.
    let d3 = r.conex.pareto_3d();
    for p in r.conex.pareto_cost_latency() {
        assert!(
            d3.iter().any(|q| q.metrics == p.metrics),
            "2-D pareto point must be on the 3-D front"
        );
    }
}

#[test]
fn pattern_specific_modules_appear_for_pointer_workloads() {
    // compress and li are pointer-dominated: the winning designs should use
    // the self-indirect DMA somewhere on the pareto.
    for w in [benchmarks::compress(), benchmarks::li()] {
        let r = run(&w);
        let any_dma = r
            .conex
            .pareto_cost_latency()
            .iter()
            .any(|p| p.describe().contains("DMA"));
        assert!(any_dma, "{}: no DMA on the pareto front", w.name());
    }
}

#[test]
fn connectivity_exploration_improves_on_shared_bus_baseline() {
    // The paper's headline: exploring connectivity beats the naive
    // "one shared system bus" model APEX assumes.
    let w = benchmarks::compress();
    let r = run(&w);
    let trace = 15_000;
    let baseline = r
        .apex
        .selected()
        .into_iter()
        .map(|mem| {
            let sys = SystemConfig::with_shared_bus(&w, mem).expect("valid");
            memory_conex::sim::simulate(&sys, &w, trace).avg_latency_cycles
        })
        .fold(f64::INFINITY, f64::min);
    let best = r
        .conex
        .simulated()
        .iter()
        .map(|p| p.metrics.latency_cycles)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < baseline,
        "explored best {best} should beat shared-bus baseline {baseline}"
    );
}

#[test]
fn energy_stays_within_small_factor_while_latency_spreads() {
    // Table 1's shape: latency varies by ~an order of magnitude across the
    // selected designs, energy by far less.
    let w = benchmarks::compress();
    let r = run(&w);
    let pareto = r.conex.pareto_cost_latency();
    let lat: Vec<f64> = pareto.iter().map(|p| p.metrics.latency_cycles).collect();
    let nrg: Vec<f64> = pareto.iter().map(|p| p.metrics.energy_nj).collect();
    let spread = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi / lo
    };
    assert!(spread(&lat) > 3.0, "latency spread {:.2}", spread(&lat));
    assert!(spread(&nrg) < 2.0, "energy spread {:.2}", spread(&nrg));
}

#[test]
fn costs_decompose_into_memory_plus_connectivity() {
    let w = benchmarks::vocoder();
    let r = run(&w);
    for p in r.conex.simulated() {
        let mem = p.system.mem().gate_cost();
        let conn = p.system.conn().gate_cost();
        assert_eq!(p.metrics.cost_gates, mem + conn);
        assert!(conn > 0, "connectivity is never free");
    }
}

#[test]
fn conex_extends_apex_cost_with_connectivity() {
    let w = benchmarks::vocoder();
    let result = run(&w);
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
    let result = run(&w);
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
