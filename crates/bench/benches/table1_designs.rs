//! Table 1 bench: the end-to-end MemorEx pipeline (APEX + ConEx) per
//! benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use mce_apex::{ApexConfig, ApexExplorer, CandidateConfig};
use mce_appmodel::benchmarks;
use mce_conex::{ConexConfig, ConexExplorer};
use mce_sim::Preset;

fn pipeline() -> (ApexExplorer, ConexExplorer) {
    let apex = ApexConfig {
        trace_len: 5_000,
        candidates: CandidateConfig {
            baseline_cache_kib: vec![1, 4],
            augmented_cache_kib: vec![4],
            max_augmentations: 2,
            two_level_kib: Vec::new(),
        },
        max_selected: 3,
    };
    let mut conex = ConexConfig::preset(Preset::Fast);
    conex.trace_len = 5_000;
    conex.max_allocations_per_level = 16;
    (ApexExplorer::new(apex), ConexExplorer::new(conex))
}

fn table1_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_designs");
    group.sample_size(10);
    for w in benchmarks::all() {
        group.bench_function(w.name(), |b| {
            let (apex, conex) = pipeline();
            b.iter(|| conex.explore(&w, apex.explore(&w).selected()));
        });
    }
    group.finish();
}

criterion_group!(benches, table1_designs);
criterion_main!(benches);
