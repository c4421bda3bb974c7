//! Block-compiled trace replay.
//!
//! The counterparts of [`simulate`](crate::simulate) and
//! [`simulate_sampled`](crate::simulate_sampled) that consume a
//! pre-compiled [`TraceBlocks`] instead of running the trace generator.
//! The access sequence fed to the [`Simulator`] is identical in both
//! paths, so the returned [`SimStats`] are bit-identical — the blocks only
//! remove the per-candidate cost of regenerating the trace.
//!
//! Blocks compiled at a pipeline's longest trace length serve every
//! shorter replay (`trace_len` is a prefix length), which is how the
//! estimation and full-simulation stages share one compilation.

use crate::engine::Simulator;
use crate::sampling::SamplingConfig;
use crate::stats::SimStats;
use crate::system::SystemConfig;
use mce_appmodel::{TraceBlocks, Workload};
use mce_obs as obs;

/// Fully simulates the first `trace_len` compiled accesses on `sys`.
///
/// Bit-identical to [`simulate`](crate::simulate) with the same
/// `trace_len`.
///
/// # Panics
///
/// Panics if `trace_len` exceeds the compiled length, or if `blocks` was
/// compiled from a different workload than the one the stats are
/// attributed to (not detectable here — compile and replay from the same
/// [`Workload`]).
pub fn simulate_blocks(
    sys: &SystemConfig,
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
) -> SimStats {
    let _t = obs::time_scope("sim.replay_us");
    let mut sim = Simulator::new(sys, workload);
    for batch in blocks.batches(trace_len) {
        for i in batch {
            sim.step(&blocks.get(i));
        }
    }
    sim.finish()
}

/// [`simulate_blocks`] with a cooperative cancellation check.
///
/// `cancelled` is polled once per compiled block batch — coarse enough
/// to stay off the per-access hot path, fine enough that a tripped
/// deadline or watchdog reclaims the evaluation within one batch. When
/// it trips, the partial simulation is discarded and `None` is returned.
///
/// With a check that never trips, the access sequence and accumulation
/// order are identical to [`simulate_blocks`], so the returned stats are
/// bit-identical — a bounded run that never hits its bounds matches an
/// unbounded one exactly.
///
/// # Panics
///
/// Panics if `trace_len` exceeds the compiled length.
pub fn simulate_blocks_cancellable(
    sys: &SystemConfig,
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Option<SimStats> {
    let _t = obs::time_scope("sim.replay_us");
    let mut sim = Simulator::new(sys, workload);
    for batch in blocks.batches(trace_len) {
        if cancelled() {
            return None;
        }
        for i in batch {
            sim.step(&blocks.get(i));
        }
    }
    Some(sim.finish())
}

/// Time-sampled estimation over the first `trace_len` compiled accesses.
///
/// Bit-identical to [`simulate_sampled`](crate::simulate_sampled) with the
/// same `trace_len` and `config`.
///
/// # Panics
///
/// Panics if `trace_len` exceeds the compiled length.
pub fn simulate_sampled_blocks(
    sys: &SystemConfig,
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
    config: SamplingConfig,
) -> SimStats {
    simulate_sampled_blocks_cancellable(sys, workload, blocks, trace_len, config, &|| false)
        .expect("a never-tripping check cannot cancel")
}

/// [`simulate_sampled_blocks`] with a cooperative cancellation check,
/// polled once per compiled block batch (see
/// [`simulate_blocks_cancellable`] for the contract).
///
/// # Panics
///
/// Panics if `trace_len` exceeds the compiled length.
pub fn simulate_sampled_blocks_cancellable(
    sys: &SystemConfig,
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
    config: SamplingConfig,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Option<SimStats> {
    let _t = obs::time_scope("sim.replay_sampled_us");
    let mut sim = Simulator::new(sys, workload);
    // An off window skips at least the access that closed the on window,
    // as the per-access loop in `simulate_sampled` does.
    let off = config.off_accesses().max(1);
    let mut in_window = 0u64;
    let mut skipping = false;
    let mut skipped = 0u64;
    for batch in blocks.batches(trace_len) {
        if cancelled() {
            return None;
        }
        let mut i = batch.start;
        while i < batch.end {
            if skipping {
                // Compiled ticks never decrease, so one skip to the last
                // access of the window's part in this batch advances time
                // exactly as skipping each access would.
                let n = (off - skipped).min((batch.end - i) as u64);
                i += n as usize;
                sim.skip(&blocks.get(i - 1));
                skipped += n;
                if skipped >= off {
                    skipping = false;
                    in_window = 0;
                }
            } else {
                sim.step(&blocks.get(i));
                i += 1;
                in_window += 1;
                if in_window >= config.on_accesses as u64 && config.off_ratio > 0 {
                    skipping = true;
                    skipped = 0;
                }
            }
        }
    }
    Some(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::sampling::simulate_sampled;
    use mce_appmodel::{benchmarks, BLOCK_LEN};
    use mce_memlib::{CacheConfig, MemoryArchitecture};

    const N: usize = 20_000;

    fn system(w: &Workload, kib: u64) -> SystemConfig {
        let mem = MemoryArchitecture::cache_only(w, CacheConfig::kilobytes(kib));
        SystemConfig::with_shared_bus(w, mem).unwrap()
    }

    #[test]
    fn full_replay_is_bit_identical() {
        for w in [benchmarks::compress(), benchmarks::vocoder()] {
            let sys = system(&w, 4);
            let blocks = TraceBlocks::compile(&w, N);
            assert_eq!(
                simulate(&sys, &w, N),
                simulate_blocks(&sys, &w, &blocks, N),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn sampled_replay_is_bit_identical() {
        let sampling = |on_accesses, off_ratio| SamplingConfig {
            on_accesses,
            off_ratio,
        };
        let cases = [
            // The paper's 1:9 windows.
            (SamplingConfig::paper(), N),
            // Off windows (2,100 accesses) straddle BLOCK_LEN boundaries.
            (sampling(700, 3), N),
            // The trace ends mid-off-window, partway through a block.
            (sampling(700, 3), 3 * BLOCK_LEN + 900),
            // Windows shorter than a block, several per batch.
            (sampling(37, 2), N),
            // No off windows: sampling degenerates to full replay.
            (sampling(500, 0), N),
            // Empty on windows: each off window skips one access.
            (sampling(0, 4), 5_000),
        ];
        for w in [benchmarks::compress(), benchmarks::vocoder()] {
            let sys = system(&w, 4);
            let blocks = TraceBlocks::compile(&w, N);
            for (cfg, len) in cases {
                assert_eq!(
                    simulate_sampled(&sys, &w, len, cfg),
                    simulate_sampled_blocks(&sys, &w, &blocks, len, cfg),
                    "{} {cfg:?} over {len}",
                    w.name()
                );
            }
            assert_eq!(
                simulate(&sys, &w, N),
                simulate_sampled_blocks(&sys, &w, &blocks, N, sampling(500, 0)),
                "{}: off_ratio 0 is full replay",
                w.name()
            );
        }
    }

    #[test]
    fn long_compilation_serves_short_replays() {
        // One compilation at the longest length a pipeline needs: replay
        // at a shorter prefix must still match the generator exactly.
        let w = benchmarks::li();
        let sys = system(&w, 8);
        let blocks = TraceBlocks::compile(&w, N);
        let short = N / 3;
        assert_eq!(
            simulate(&sys, &w, short),
            simulate_blocks(&sys, &w, &blocks, short)
        );
        let cfg = SamplingConfig::paper();
        assert_eq!(
            simulate_sampled(&sys, &w, short, cfg),
            simulate_sampled_blocks(&sys, &w, &blocks, short, cfg)
        );
    }

    #[test]
    fn cancellable_replay_with_clear_check_is_bit_identical() {
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, N);
        assert_eq!(
            Some(simulate_blocks(&sys, &w, &blocks, N)),
            simulate_blocks_cancellable(&sys, &w, &blocks, N, &|| false)
        );
        let cfg = SamplingConfig::paper();
        assert_eq!(
            Some(simulate_sampled_blocks(&sys, &w, &blocks, N, cfg)),
            simulate_sampled_blocks_cancellable(&sys, &w, &blocks, N, cfg, &|| false)
        );
    }

    #[test]
    fn tripped_check_discards_the_replay() {
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, N);
        assert_eq!(
            simulate_blocks_cancellable(&sys, &w, &blocks, N, &|| true),
            None
        );
        // Tripping mid-replay bails out at the next batch boundary.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let after_two = || calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 2;
        assert_eq!(
            simulate_blocks_cancellable(&sys, &w, &blocks, N, &after_two),
            None
        );
        let cfg = SamplingConfig::paper();
        assert_eq!(
            simulate_sampled_blocks_cancellable(&sys, &w, &blocks, N, cfg, &|| true),
            None
        );
    }

    #[test]
    #[should_panic(expected = "compiled with only")]
    fn overlong_replay_panics() {
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, 100);
        let _ = simulate_blocks(&sys, &w, &blocks, 101);
    }
}
