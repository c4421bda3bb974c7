//! Per-architecture module-outcome tapes.
//!
//! Every connectivity candidate of one memory architecture replays the
//! same trace through the same memory modules. Cache, SRAM and
//! stream-buffer models ignore the `tick` they are given, so their
//! responses depend only on the order of the accesses they serve — and
//! that order is the trace's, whatever the connectivity does to timing.
//! A [`ModuleTape`] records those responses once per architecture, over
//! exactly the accesses a replay will step (the whole trace prefix, or
//! the sampled on-windows), and the replay loop reads them back instead
//! of running the models.
//!
//! The linked-list DMA and the FIFO read elapsed time, so their responses
//! change with the connectivity; they stay live. So does the DRAM (its
//! row state interleaves DMA demand fetches) and every backing target (an
//! L2's access order includes whatever its clients' fills do).

use crate::replay::WindowWalk;
use crate::sampling::SamplingConfig;
use mce_appmodel::{TraceBlocks, Workload};
use mce_memlib::{MemModuleKind, MemoryArchitecture, ModuleId, ModuleModel, ModuleResponse};
use mce_obs as obs;

/// The recorded responses of an architecture's tapeable modules, in the
/// order a replay steps them.
///
/// Each taped access is stored as a one-byte code into a table of the
/// tape's distinct [`ModuleResponse`]s. A module kind has only a handful
/// of distinct responses (its hit, miss and write-policy variants), so
/// at the paper's 60,000-access trace a full-replay tape takes at most
/// 60 KB where a plain response vector would take 1.4 MB.
///
/// ```
/// use mce_appmodel::{benchmarks, TraceBlocks};
/// use mce_memlib::{CacheConfig, MemoryArchitecture};
/// use mce_sim::{replay_group, simulate_blocks, ModuleTape, SystemConfig};
///
/// let w = benchmarks::vocoder();
/// let blocks = TraceBlocks::compile(&w, 5_000);
/// let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
/// let tape = ModuleTape::record(&mem, &w, &blocks, 5_000, None).expect("the cache is tapeable");
/// let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
/// // Two replays of the architecture read one tape, each from the start.
/// let members = [(&sys, Some(&tape)), (&sys, Some(&tape))];
/// let taped = replay_group(&members, &w, &blocks, 5_000, None, &|| false).unwrap();
/// let live = simulate_blocks(&sys, &w, &blocks, 5_000);
/// assert_eq!(taped, [live.clone(), live]);
/// ```
#[derive(Debug, Clone)]
pub struct ModuleTape {
    mem: MemoryArchitecture,
    trace_len: usize,
    walk: WindowWalk,
    /// Per module: replayed from the tape rather than a live model.
    taped: Vec<bool>,
    codes: Vec<u8>,
    table: Vec<ModuleResponse>,
}

/// True when `module`'s responses can be taped: a cache, SRAM or stream
/// buffer (whose models ignore `tick`) that no other module uses as its
/// backing store.
pub fn is_tapeable(mem: &MemoryArchitecture, module: ModuleId) -> bool {
    matches!(
        mem.module(module).kind(),
        MemModuleKind::Cache(_) | MemModuleKind::Sram { .. } | MemModuleKind::StreamBuffer { .. }
    ) && !mem.is_backing_target(module)
}

impl ModuleTape {
    /// Records `mem`'s tapeable module responses over the accesses a
    /// replay of the first `trace_len` compiled accesses steps: all of
    /// them for `window` `None` (full replay), the on-windows of
    /// `window` otherwise.
    ///
    /// Returns `None` when no data structure is served by a tapeable
    /// module (there is nothing to save), or in the unlikely case that the
    /// tape would need more than 256 distinct responses.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len` exceeds the compiled length.
    pub fn record(
        mem: &MemoryArchitecture,
        workload: &Workload,
        blocks: &TraceBlocks,
        trace_len: usize,
        window: Option<SamplingConfig>,
    ) -> Option<Self> {
        let _t = obs::time_scope("sim.tape_record_us");
        let taped: Vec<bool> = (0..mem.modules().len())
            .map(|i| is_tapeable(mem, ModuleId::new(i)))
            .collect();
        let ds_taped: Vec<Option<usize>> = (0..workload.len())
            .map(|i| {
                let m = mem.serving_module(mce_appmodel::DsId::new(i)).index();
                taped[m].then_some(m)
            })
            .collect();
        if ds_taped.iter().all(Option::is_none) {
            return None;
        }
        let mut models: Vec<Option<Box<dyn ModuleModel>>> = mem
            .modules()
            .iter()
            .zip(&taped)
            .map(|(m, &t)| t.then(|| m.kind().instantiate()))
            .collect();
        let mut codes = Vec::new();
        let mut table: Vec<ModuleResponse> = Vec::new();
        let walk = WindowWalk::new(window);
        let mut w = walk;
        for batch in blocks.batches(trace_len) {
            w.runs(batch, |on, run| {
                if !on {
                    return;
                }
                for i in run {
                    let acc = blocks.get(i);
                    let Some(m) = ds_taped[acc.ds.index()] else {
                        continue;
                    };
                    let resp = models[m]
                        .as_mut()
                        .expect("taped module has a recording model")
                        .access(acc.addr, acc.kind, acc.tick);
                    let code = table.iter().position(|r| *r == resp).unwrap_or_else(|| {
                        table.push(resp);
                        table.len() - 1
                    });
                    // Truncation only happens past 256 entries, and then
                    // the tape is discarded below.
                    codes.push(code as u8);
                }
            });
        }
        (table.len() <= 1 << u8::BITS).then(|| ModuleTape {
            mem: mem.clone(),
            trace_len,
            walk,
            taped,
            codes,
            table,
        })
    }

    /// True if `module` replays from this tape.
    pub fn is_taped(&self, module: ModuleId) -> bool {
        self.taped[module.index()]
    }

    /// Number of taped accesses.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no access was taped (the tapeable modules serve no access
    /// the replay steps).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Panics unless this tape was recorded for the replay described.
    pub(crate) fn check(&self, mem: &MemoryArchitecture, trace_len: usize, walk: WindowWalk) {
        assert!(
            self.mem == *mem && self.trace_len == trace_len && self.walk == walk,
            "module tape recorded for another replay"
        );
    }

    /// A reader positioned at the first taped access.
    pub(crate) fn reader(&self) -> TapeReader<'_> {
        TapeReader {
            codes: &self.codes,
            table: &self.table,
            next: 0,
        }
    }
}

/// Reads a [`ModuleTape`]'s responses back in step order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TapeReader<'a> {
    codes: &'a [u8],
    table: &'a [ModuleResponse],
    next: usize,
}

impl TapeReader<'_> {
    /// The next taped response.
    ///
    /// # Panics
    ///
    /// Panics if the tape is exhausted.
    pub(crate) fn next_response(&mut self) -> ModuleResponse {
        let resp = self.table[usize::from(self.codes[self.next])];
        self.next += 1;
        resp
    }

    /// True once every taped response has been read.
    pub(crate) fn is_done(&self) -> bool {
        self.next == self.codes.len()
    }
}
