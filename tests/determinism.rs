//! Reproducibility: every stage of the stack is deterministic given the
//! workload seed, so experiments are exactly repeatable.

use memory_conex::appmodel::benchmarks;
use memory_conex::prelude::*;

#[test]
fn traces_are_deterministic_across_runs() {
    let w = benchmarks::compress();
    let a: Vec<MemAccess> = w.trace(5_000).collect();
    let b: Vec<MemAccess> = w.trace(5_000).collect();
    assert_eq!(a, b);
}

#[test]
fn simulation_is_deterministic() {
    let w = benchmarks::li();
    let mem = MemoryArchitecture::cache_only(&w, memory_conex::memlib::CacheConfig::kilobytes(4));
    let sys = SystemConfig::with_shared_bus(&w, mem).expect("valid");
    let a = memory_conex::sim::simulate(&sys, &w, 10_000);
    let b = memory_conex::sim::simulate(&sys, &w, 10_000);
    assert_eq!(a, b);
}

#[test]
fn apex_is_deterministic() {
    let w = benchmarks::vocoder();
    let a = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
    let b = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
    assert_eq!(a.points().len(), b.points().len());
    let names = |r: &ApexResult| -> Vec<String> {
        r.selected_points()
            .map(|p| p.arch.name().to_owned())
            .collect()
    };
    assert_eq!(names(&a), names(&b));
}

#[test]
fn full_pipeline_metrics_are_reproducible() {
    let w = benchmarks::vocoder();
    let session = ExplorationSession::new(w).preset(Preset::Fast);
    let a = session.run().unwrap();
    let b = session.run().unwrap();
    let metrics = |r: &SessionResult| -> Vec<(u64, f64, f64)> {
        r.conex
            .simulated()
            .iter()
            .map(|p| {
                (
                    p.metrics.cost_gates,
                    p.metrics.latency_cycles,
                    p.metrics.energy_nj,
                )
            })
            .collect()
    };
    assert_eq!(metrics(&a), metrics(&b));
}

#[test]
fn parallel_and_serial_exploration_agree() {
    use memory_conex::conex::{ConexConfig, ConexExplorer};
    let w = memory_conex::appmodel::benchmarks::vocoder();
    let apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
    let mut serial_cfg = ConexConfig::preset(Preset::Fast);
    serial_cfg.threads = 1;
    let mut parallel_cfg = ConexConfig::preset(Preset::Fast);
    parallel_cfg.threads = 0; // all cores
    let serial = ConexExplorer::new(serial_cfg)
        .explore(&w, apex.selected())
        .unwrap();
    let parallel = ConexExplorer::new(parallel_cfg)
        .explore(&w, apex.selected())
        .unwrap();
    let key = |r: &ConexResult| -> Vec<(u64, u64, u64)> {
        r.simulated()
            .iter()
            .map(|p| {
                (
                    p.metrics.cost_gates,
                    p.metrics.latency_cycles.to_bits(),
                    p.metrics.energy_nj.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(key(&serial), key(&parallel));
    assert_eq!(serial.estimated().len(), parallel.estimated().len());
}

#[test]
fn different_seeds_change_traces_but_not_structure() {
    use memory_conex::appmodel::{DataStructure, WorkloadBuilder};
    let build = |seed: u64| {
        WorkloadBuilder::new("w")
            .data_structure(DataStructure::new("d", 8192, 4, AccessPattern::Random))
            .seed(seed)
            .build()
    };
    let w1 = build(1);
    let w2 = build(2);
    let t1: Vec<MemAccess> = w1.trace(1000).collect();
    let t2: Vec<MemAccess> = w2.trace(1000).collect();
    assert_ne!(t1, t2, "different seeds must differ");
    assert_eq!(w1.layout(), w2.layout(), "layout is seed-independent");
}
