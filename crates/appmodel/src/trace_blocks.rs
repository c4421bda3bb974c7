//! Block-compiled traces: the trace generator's output, pre-decoded once
//! into contiguous structure-of-arrays blocks.
//!
//! The synthetic [`Trace`](crate::Trace) iterator is cheap per access but
//! not free: every `next()` runs the pattern generators, the phase
//! schedule and the PRNG. The exploration replays the *same* trace through
//! hundreds of candidate architectures, so regenerating it per candidate
//! multiplies that cost by the candidate count. [`TraceBlocks::compile`]
//! decodes the trace once into four flat arrays (address, kind, data
//! structure, tick) that replay workers share immutably (`Arc`) and scan
//! in cache-friendly [`BLOCK_LEN`]-sized batches.
//!
//! Because the generators' state never depends on the requested length, a
//! trace of length `n` is an exact prefix of a trace of length `m ≥ n`:
//! blocks compiled at the longest length a pipeline needs serve every
//! shorter replay too ([`TraceBlocks::replay`] takes the length to replay).

use crate::access::{AccessKind, MemAccess};
use crate::address::Addr;
use crate::data_structure::DsId;
use crate::workload::Workload;
use std::ops::Range;

/// Accesses per replay batch. One block of the four arrays (21 KiB) fits
/// comfortably in an L1 data cache alongside the simulator's working set.
pub const BLOCK_LEN: usize = 1024;

/// A workload trace compiled to structure-of-arrays blocks.
///
/// ```
/// use mce_appmodel::{benchmarks, TraceBlocks};
///
/// let w = benchmarks::vocoder();
/// let blocks = TraceBlocks::compile(&w, 10_000);
/// assert_eq!(blocks.len(), 10_000);
/// // Replay is bit-identical to the generator, at any prefix length.
/// assert!(blocks.replay(500).eq(w.trace(500)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBlocks {
    addrs: Vec<u64>,
    /// 0 = read, 1 = write.
    kinds: Vec<u8>,
    ds: Vec<u32>,
    ticks: Vec<u64>,
}

impl TraceBlocks {
    /// Decodes the first `trace_len` accesses of `workload` into blocks.
    pub fn compile(workload: &Workload, trace_len: usize) -> Self {
        Self::from_accesses(workload.trace(trace_len))
    }

    /// Compiles an arbitrary access stream — e.g. one loaded with
    /// [`read_trace`](crate::read_trace) — in order. As with
    /// `simulate_trace`, ticks must be nondecreasing for replay to be
    /// exact.
    ///
    /// ```
    /// use mce_appmodel::{benchmarks, TraceBlocks};
    ///
    /// let w = benchmarks::li();
    /// let accesses: Vec<_> = w.trace(300).collect();
    /// assert_eq!(TraceBlocks::from_accesses(accesses), TraceBlocks::compile(&w, 300));
    /// ```
    pub fn from_accesses(accesses: impl IntoIterator<Item = MemAccess>) -> Self {
        let accesses = accesses.into_iter();
        let n = accesses.size_hint().0;
        let mut blocks = TraceBlocks {
            addrs: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            ds: Vec::with_capacity(n),
            ticks: Vec::with_capacity(n),
        };
        for acc in accesses {
            blocks.addrs.push(acc.addr.raw());
            blocks.kinds.push(acc.kind.is_write() as u8);
            blocks.ds.push(acc.ds.index() as u32);
            blocks.ticks.push(acc.tick);
        }
        blocks
    }

    /// Number of compiled accesses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if no accesses were compiled.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Reconstructs access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> MemAccess {
        let kind = if self.kinds[i] == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        MemAccess::new(
            Addr::new(self.addrs[i]),
            kind,
            DsId::new(self.ds[i] as usize),
            self.ticks[i],
        )
    }

    /// The batch index ranges covering the first `upto` accesses, each at
    /// most [`BLOCK_LEN`] long.
    ///
    /// # Panics
    ///
    /// Panics if `upto > len()` — the blocks were compiled too short for
    /// the requested replay.
    pub fn batches(&self, upto: usize) -> impl Iterator<Item = Range<usize>> {
        assert!(
            upto <= self.len(),
            "replay of {upto} accesses from blocks compiled with only {}",
            self.len()
        );
        (0..upto)
            .step_by(BLOCK_LEN.max(1))
            .map(move |start| start..(start + BLOCK_LEN).min(upto))
    }

    /// Replays the first `upto` accesses, reconstructed in order.
    ///
    /// # Panics
    ///
    /// Panics if `upto > len()`.
    pub fn replay(&self, upto: usize) -> impl Iterator<Item = MemAccess> + '_ {
        self.batches(upto).flatten().map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn replay_matches_generator_exactly() {
        for w in [benchmarks::compress(), benchmarks::vocoder()] {
            let blocks = TraceBlocks::compile(&w, 5_000);
            let direct: Vec<MemAccess> = w.trace(5_000).collect();
            let replayed: Vec<MemAccess> = blocks.replay(5_000).collect();
            assert_eq!(direct, replayed, "{}", w.name());
        }
    }

    #[test]
    fn prefix_replay_matches_shorter_trace() {
        // The property the shared-blocks design rests on: a long
        // compilation serves any shorter replay bit-identically.
        let w = benchmarks::li();
        let blocks = TraceBlocks::compile(&w, 8_000);
        let short: Vec<MemAccess> = w.trace(1_234).collect();
        let replayed: Vec<MemAccess> = blocks.replay(1_234).collect();
        assert_eq!(short, replayed);
    }

    #[test]
    fn batches_cover_exactly_once() {
        let w = benchmarks::vocoder();
        let blocks = TraceBlocks::compile(&w, 3 * BLOCK_LEN + 7);
        let ranges: Vec<Range<usize>> = blocks.batches(blocks.len()).collect();
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.len() <= BLOCK_LEN));
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "contiguous");
            next = r.end;
        }
        assert_eq!(next, blocks.len());
    }

    #[test]
    fn get_reconstructs_kinds_and_ids() {
        let w = benchmarks::compress();
        let blocks = TraceBlocks::compile(&w, 2_000);
        for (i, acc) in w.trace(2_000).enumerate() {
            assert_eq!(blocks.get(i), acc);
        }
    }

    #[test]
    #[should_panic(expected = "compiled with only")]
    fn replay_past_compiled_length_panics() {
        let w = benchmarks::vocoder();
        let blocks = TraceBlocks::compile(&w, 100);
        let _ = blocks.batches(101);
    }

    #[test]
    fn empty_compile_is_empty() {
        let w = benchmarks::vocoder();
        let blocks = TraceBlocks::compile(&w, 0);
        assert!(blocks.is_empty());
        assert_eq!(blocks.batches(0).count(), 0);
    }
}
