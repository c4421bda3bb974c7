//! Block-compiled trace replay, in lockstep groups.
//!
//! [`replay_group`] is the one loop the explorer replays candidates
//! through. It consumes a pre-compiled [`TraceBlocks`] instead of running
//! the trace generator, and it steps a *group* of systems over the same
//! trace prefix and sampling window at once: each access is decoded once
//! and then stepped on every member. Members share nothing mutable — each
//! keeps its own [`Simulator`] and tape reader — so every member's
//! [`SimStats`] are bit-identical to its solo replay, and to the
//! per-access [`simulate`](crate::simulate) and
//! [`simulate_sampled`](crate::simulate_sampled). What the group buys is
//! overlap: one replay is a serial chain (issue time → link ready → start
//! → completion → issue time), and the members' chains are independent,
//! so an out-of-order core runs them side by side.
//!
//! Blocks compiled at a pipeline's longest trace length serve every
//! shorter replay (`trace_len` is a prefix length), which is how the
//! estimation and full-simulation stages share one compilation.

use crate::engine::Simulator;
use crate::sampling::SamplingConfig;
use crate::stats::SimStats;
use crate::system::SystemConfig;
use crate::tape::ModuleTape;
use mce_appmodel::{TraceBlocks, Workload};
use mce_obs as obs;
use std::ops::Range;

/// The most systems the explorer replays in one lockstep group. On the
/// paper-preset `compress` exploration (one thread, 2-vCPU x86-64 VM)
/// groups of 8 took 0.82× the time of groups of one, groups of 16 about
/// the same as 8, and groups of 32 were slower again.
pub const MAX_GROUP: usize = 8;

/// One member of a replay group: a system, and the [`ModuleTape`]
/// recorded for its memory architecture, if any.
pub type Member<'a> = (&'a SystemConfig, Option<&'a ModuleTape>);

/// Replays the first `trace_len` compiled accesses on every member of
/// `members` in lockstep, returning each member's statistics in order.
///
/// `window` `None` steps every access (full simulation, Phase II);
/// `Some` steps only the sampling window's on-windows and skips the rest
/// (Phase-I estimation). A member's tape must have been recorded for the
/// same architecture, `trace_len` and `window`; it changes no result,
/// because its modules' responses are the ones their live models would
/// give.
///
/// `cancelled` is polled once per compiled block batch, for the whole
/// group — coarse enough to stay off the per-access hot path, fine enough
/// that a tripped deadline or watchdog reclaims the group within one
/// batch. When it trips, the partial simulations are discarded and
/// `None` is returned.
///
/// # Panics
///
/// Panics if `trace_len` exceeds the compiled length, or if a tape was
/// recorded for another memory architecture, trace length or window.
pub fn replay_group(
    members: &[Member<'_>],
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
    window: Option<SamplingConfig>,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Option<Vec<SimStats>> {
    if members.is_empty() {
        return Some(Vec::new());
    }
    let _t = obs::time_scope_shared(
        match window {
            None => "sim.replay_us",
            Some(_) => "sim.replay_sampled_us",
        },
        members.len(),
    );
    let mut walk = WindowWalk::new(window);
    let mut sims: Vec<Simulator<'_>> = members
        .iter()
        .map(|&(sys, tape)| {
            if let Some(tape) = tape {
                tape.check(sys.mem(), trace_len, walk);
            }
            Simulator::with_tape(sys, workload, tape)
        })
        .collect();
    for batch in blocks.batches(trace_len) {
        if cancelled() {
            return None;
        }
        walk.runs(batch, |on, run| {
            if on {
                for i in run {
                    let acc = blocks.get(i);
                    for sim in &mut sims {
                        sim.step(&acc);
                    }
                }
            } else {
                // Compiled ticks never decrease, so one skip to the last
                // access of the window's part in this batch advances time
                // exactly as skipping each access would.
                let last = blocks.get(run.end - 1);
                for sim in &mut sims {
                    sim.skip(&last);
                }
            }
        });
    }
    Some(sims.into_iter().map(Simulator::finish).collect())
}

/// Fully simulates the first `trace_len` compiled accesses on `sys`: a
/// [`replay_group`] of one, untaped and never cancelled.
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
    solo(sys, workload, blocks, trace_len, None)
}

/// Time-sampled estimation over the first `trace_len` compiled accesses:
/// a [`replay_group`] of one, untaped and never cancelled.
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
    solo(sys, workload, blocks, trace_len, Some(config))
}

/// A group of one, untaped, whose check never trips.
fn solo(
    sys: &SystemConfig,
    workload: &Workload,
    blocks: &TraceBlocks,
    trace_len: usize,
    window: Option<SamplingConfig>,
) -> SimStats {
    replay_group(&[(sys, None)], workload, blocks, trace_len, window, &|| {
        false
    })
    .and_then(|mut stats| stats.pop())
    .expect("a never-tripping check cannot cancel")
}

/// The on/off sampling-window walk, shared by block replay and
/// [`ModuleTape::record`] so both visit exactly the same accesses.
///
/// An on window steps `on_accesses` accesses (at least one, as the
/// per-access loop in [`simulate_sampled`](crate::simulate_sampled) does)
/// and the following off window skips `on_accesses × off_ratio` (at least
/// the one access that closed the on window). With no window, or with
/// `off_ratio` 0, the walk never leaves its first on window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowWalk {
    on_len: u64,
    off_len: u64,
    on: bool,
    /// Accesses left in the current window.
    left: u64,
}

impl WindowWalk {
    /// A walk at the start of its first on window.
    pub(crate) fn new(window: Option<SamplingConfig>) -> Self {
        let (on_len, off_len) = match window {
            Some(c) if c.off_ratio > 0 => {
                (u64::from(c.on_accesses).max(1), c.off_accesses().max(1))
            }
            _ => (u64::MAX, 0),
        };
        WindowWalk {
            on_len,
            off_len,
            on: true,
            left: on_len,
        }
    }

    /// Splits `batch` into runs that each lie in one window, calling
    /// `run(on, range)` for each in order and advancing the walk past it.
    pub(crate) fn runs(&mut self, batch: Range<usize>, mut run: impl FnMut(bool, Range<usize>)) {
        let mut i = batch.start;
        while i < batch.end {
            let n = self.left.min((batch.end - i) as u64);
            let end = i + n as usize;
            run(self.on, i..end);
            i = end;
            self.left -= n;
            if self.left == 0 {
                self.on = !self.on;
                self.left = if self.on { self.on_len } else { self.off_len };
            }
        }
    }
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

    /// A group of one over `sys`, with a tape recorded for it.
    fn taped(
        sys: &SystemConfig,
        w: &Workload,
        blocks: &TraceBlocks,
        len: usize,
        window: Option<SamplingConfig>,
    ) -> SimStats {
        let tape = ModuleTape::record(sys.mem(), w, blocks, len, window).expect("cache is taped");
        let mut stats =
            replay_group(&[(sys, Some(&tape))], w, blocks, len, window, &|| false).unwrap();
        assert_eq!(stats.len(), 1);
        stats.pop().unwrap()
    }

    #[test]
    fn full_replay_is_bit_identical() {
        for w in [benchmarks::compress(), benchmarks::vocoder()] {
            let sys = system(&w, 4);
            let blocks = TraceBlocks::compile(&w, N);
            let full = simulate(&sys, &w, N);
            assert_eq!(full, simulate_blocks(&sys, &w, &blocks, N), "{}", w.name());
            assert_eq!(
                full,
                taped(&sys, &w, &blocks, N, None),
                "{} taped",
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
                let reference = simulate_sampled(&sys, &w, len, cfg);
                assert_eq!(
                    reference,
                    simulate_sampled_blocks(&sys, &w, &blocks, len, cfg),
                    "{} {cfg:?} over {len}",
                    w.name()
                );
                assert_eq!(
                    reference,
                    taped(&sys, &w, &blocks, len, Some(cfg)),
                    "{} {cfg:?} over {len}, taped",
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
    fn tripped_check_discards_the_replay() {
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, N);
        let pair = [(&sys, None), (&sys, None)];
        assert_eq!(replay_group(&pair, &w, &blocks, N, None, &|| true), None);
        // Tripping mid-replay bails out at the next batch boundary.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let after_two = || calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 2;
        assert_eq!(replay_group(&pair, &w, &blocks, N, None, &after_two), None);
        let cfg = Some(SamplingConfig::paper());
        assert_eq!(replay_group(&pair, &w, &blocks, N, cfg, &|| true), None);
    }

    #[test]
    fn clear_check_is_polled_once_per_batch() {
        // The cancellation contract, by count rather than by timing: a
        // check that never trips is polled once per compiled batch —
        // never per access, never per member — by both replay modes,
        // including a replay that ends partway through a block.
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, N);
        let polls = AtomicUsize::new(0);
        let count = || {
            polls.fetch_add(1, Relaxed);
            false
        };
        for len in [N, 3 * BLOCK_LEN + 900] {
            let batches = blocks.batches(len).count();
            for window in [None, Some(SamplingConfig::paper())] {
                for members in [1, 3] {
                    polls.store(0, Relaxed);
                    let group_of = vec![(&sys, None); members];
                    assert!(replay_group(&group_of, &w, &blocks, len, window, &count).is_some());
                    assert_eq!(
                        polls.load(Relaxed),
                        batches,
                        "{members} member(s), {window:?} over {len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "recorded for another replay")]
    fn tape_for_another_window_panics() {
        let w = benchmarks::vocoder();
        let sys = system(&w, 4);
        let blocks = TraceBlocks::compile(&w, N);
        let tape = ModuleTape::record(sys.mem(), &w, &blocks, N, None).unwrap();
        let cfg = Some(SamplingConfig::paper());
        let _ = replay_group(&[(&sys, Some(&tape))], &w, &blocks, N, cfg, &|| false);
    }

    #[test]
    #[should_panic(expected = "recorded for another replay")]
    fn tape_for_another_architecture_panics() {
        let w = benchmarks::vocoder();
        let blocks = TraceBlocks::compile(&w, N);
        let tape = ModuleTape::record(system(&w, 8).mem(), &w, &blocks, N, None).unwrap();
        let sys = system(&w, 4);
        let _ = replay_group(&[(&sys, Some(&tape))], &w, &blocks, N, None, &|| false);
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
