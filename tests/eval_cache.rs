//! Evaluation-engine integration: memoized and fresh explorations are
//! bit-identical, the cache respects its capacity bound, and spill files
//! round trip through the public API. (Canonical-hash invariance
//! properties are in `canon_hash_props.rs`.)

use memory_conex::conex::eval_cache::DEFAULT_CAPACITY;
use memory_conex::connlib::{ChannelId, ConnectivityArchitecture};
use memory_conex::prelude::*;
use memory_conex::{appmodel::benchmarks, sim::Preset};
use std::sync::Arc;

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mce_it_{tag}_{}.json", std::process::id()))
}

#[test]
fn memoized_session_is_bit_identical_to_fresh_pipeline() {
    let w = benchmarks::compress();
    let fresh_apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
    let fresh = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
        .explore(&w, fresh_apex.selected())
        .unwrap();
    let memoized = ExplorationSession::new(w)
        .preset(Preset::Fast)
        .run()
        .expect("session runs");
    assert_eq!(memoized.apex, fresh_apex);
    assert_eq!(memoized.conex.simulated().len(), fresh.simulated().len());
    for (a, b) in memoized.conex.simulated().iter().zip(fresh.simulated()) {
        assert_eq!(a.system, b.system, "same design");
        assert_eq!(a.metrics, b.metrics, "bit-identical metrics");
    }
    let stats = memoized.cache_stats;
    assert!(stats.inserts > 0, "the session populated its cache");
    assert_eq!(
        stats.misses, stats.inserts,
        "cold cache: every miss inserts"
    );
}

#[test]
fn warm_spill_file_produces_hits_and_identical_results() {
    let path = unique_path("warm");
    std::fs::remove_file(&path).ok();
    let session = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .eval_cache_file(&path);
    let cold = session.run().expect("cold run");
    let warm = session.run().expect("warm run");
    std::fs::remove_file(&path).ok();
    assert!(
        warm.cache_stats.hits > cold.cache_stats.hits,
        "the spill answers repeated evaluations: {:?} vs {:?}",
        warm.cache_stats,
        cold.cache_stats
    );
    for (a, b) in cold.conex.simulated().iter().zip(warm.conex.simulated()) {
        assert_eq!(a.metrics, b.metrics, "warm cache never changes results");
    }
}

#[test]
fn session_cache_stays_within_its_capacity_bound() {
    let tiny = 8;
    let path = unique_path("cap");
    std::fs::remove_file(&path).ok();
    let result = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .cache_capacity(tiny)
        .eval_cache_file(&path)
        .run()
        .expect("session runs");
    let spilled = std::fs::read_to_string(&path).expect("spill written");
    std::fs::remove_file(&path).ok();
    assert!(
        result.cache_stats.evictions > 0,
        "a tiny cache under exploration load must evict: {:?}",
        result.cache_stats
    );
    // The spill holds at most `tiny` resident entries: one 4-field row
    // per entry.
    assert!(
        spilled.matches('[').count() <= tiny + 1,
        "spill exceeds capacity: {spilled}"
    );
}

#[test]
fn spill_round_trips_through_the_public_cache_api() {
    let w = benchmarks::vocoder();
    let engine = EvalEngine::new(&w, 4_000).with_cache(Arc::new(EvalCache::with_capacity(1024)));
    let mem = MemoryArchitecture::cache_only(&w, memory_conex::memlib::CacheConfig::kilobytes(4));
    let lib = ConnectivityLibrary::amba();
    let candidates: Vec<ConnectivityArchitecture> = {
        // One feasible shared-bus candidate per on-chip component kind.
        lib.on_chip()
            .map(|c| {
                let sys = SystemConfig::with_shared_bus(&w, mem.clone()).expect("feasible");
                let mut conn = sys.conn().clone();
                let id = conn.add_link("alt", *c);
                for ci in 0..conn.channels().len() {
                    let ch = ChannelId::new(ci);
                    if !conn.channels()[ci].off_chip {
                        conn.assign(ch, id);
                    }
                }
                conn
            })
            .collect()
    };
    let first = engine
        .estimate_batch_bounded(
            &mem,
            candidates.clone(),
            4_000,
            memory_conex::sim::SamplingConfig::paper(),
            1,
        )
        .expect("estimation runs")
        .output;
    assert!(
        first.iter().any(Option::is_some),
        "at least one alternative allocation must be feasible"
    );
    let cache = engine.cache().expect("cache attached");
    let path = unique_path("roundtrip");
    cache.save(&path).expect("save");
    let reloaded = Arc::new(EvalCache::load(&path, DEFAULT_CAPACITY).expect("load"));
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.len(), cache.len(), "every entry survives the disk");
    let again = EvalEngine::new(&w, 4_000)
        .with_cache(reloaded.clone())
        .estimate_batch_bounded(
            &mem,
            candidates,
            4_000,
            memory_conex::sim::SamplingConfig::paper(),
            1,
        )
        .expect("estimation runs")
        .output;
    assert_eq!(
        first, again,
        "reloaded cache reproduces the metrics bit-for-bit"
    );
    assert_eq!(
        reloaded.stats().misses,
        0,
        "everything answered from the reloaded spill"
    );
}
