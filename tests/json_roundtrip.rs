//! JSON round-trips through the workspace's own codec
//! (`memory_conex::obs::json`): workloads, libraries, architectures,
//! system configs, simulation stats and ConEx results are written and
//! read back bit-identically, so experiment artifacts and CLI outputs are
//! durable interchange formats.

use memory_conex::appmodel::benchmarks;
use memory_conex::conex::{ConexConfig, ConexExplorer, ConexResult};
use memory_conex::obs::json;
use memory_conex::prelude::*;
use memory_conex::sim::simulate;

#[test]
fn workloads_round_trip() {
    for w in benchmarks::all().into_iter().chain(benchmarks::extended()) {
        let text = json::to_string(&w);
        let back: Workload = json::from_str(&text).expect("deserialize");
        assert_eq!(w, back, "{}", w.name());
        // Traces from the deserialized workload are identical.
        let a: Vec<MemAccess> = w.trace(500).collect();
        let b: Vec<MemAccess> = back.trace(500).collect();
        assert_eq!(a, b);
    }
}

#[test]
fn memory_architecture_round_trips() {
    let w = benchmarks::li();
    let mem = MemoryArchitecture::builder("rt")
        .module(
            "L1",
            MemModuleKind::Cache(memory_conex::memlib::CacheConfig::kilobytes(4)),
        )
        .module(
            "dma",
            MemModuleKind::SelfIndirectDma {
                depth: 8,
                element_bytes: 8,
            },
        )
        .map(memory_conex::appmodel::DsId::new(0), 1)
        .map_rest_to(0)
        .build(&w)
        .unwrap();
    let text = json::to_string(&mem);
    let back: MemoryArchitecture = json::from_str(&text).unwrap();
    assert_eq!(mem, back);
    assert!(back.validate(&w).is_ok());
}

#[test]
fn system_config_and_stats_round_trip() {
    let w = benchmarks::vocoder();
    let mem = MemoryArchitecture::cache_only(&w, memory_conex::memlib::CacheConfig::kilobytes(2));
    let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
    let text = json::to_string(&sys);
    let back: SystemConfig = json::from_str(&text).unwrap();
    assert_eq!(sys, back);
    // Simulating the deserialized system gives identical stats.
    let a = simulate(&sys, &w, 5_000);
    let b = simulate(&back, &w, 5_000);
    assert_eq!(a, b);
    let stats_json = json::to_string(&a);
    let stats_back: SimStats = json::from_str(&stats_json).unwrap();
    assert_eq!(a, stats_back);
}

#[test]
fn conex_result_round_trips() {
    let w = benchmarks::vocoder();
    let apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
    let mut cfg = ConexConfig::preset(Preset::Fast);
    cfg.trace_len = 5_000;
    cfg.max_allocations_per_level = 8;
    let result = ConexExplorer::new(cfg)
        .explore(&w, apex.selected())
        .unwrap();
    let text = json::to_string(&result);
    let back: ConexResult = json::from_str(&text).unwrap();
    assert_eq!(result.simulated().len(), back.simulated().len());
    for (a, b) in result.simulated().iter().zip(back.simulated()) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.describe(), b.describe());
    }
    // Deserialized design points are re-simulatable.
    let p = &back.simulated()[0];
    let stats = simulate(&p.system, &w, 5_000);
    assert!(stats.avg_latency_cycles > 0.0);
}

#[test]
fn library_round_trips() {
    let lib = ConnectivityLibrary::amba();
    let text = json::to_string(&lib);
    let back: ConnectivityLibrary = json::from_str(&text).unwrap();
    assert_eq!(lib, back);
}
