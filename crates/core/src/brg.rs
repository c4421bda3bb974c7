//! The Bandwidth Requirement Graph (BRG).
//!
//! "The nodes in the BRG represent the memory and processing cores in the
//! system ... and the arcs represent the channels of communication between
//! these modules. The BRG arcs are labeled with the average bandwidth
//! requirement between the two modules."
//!
//! The BRG is built by *profiling the memory modules architecture*: the
//! trace is replayed through the behavioural module models (no connectivity
//! timing — that is what we are about to explore), counting the bytes each
//! channel must carry: element transfers on the CPU↔module channels, demand
//! fills plus prefetch/writeback traffic on the module↔DRAM channels.

use mce_appmodel::{MemAccess, TraceBlocks, Workload};
use mce_connlib::Channel;
use mce_memlib::{MemoryArchitecture, ModuleModel};
use mce_sim::system::{channel_endpoints, channels_for, ChannelEndpoint};
use std::fmt;

/// One arc of the BRG: a communication channel with its measured bandwidth
/// requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct BrgArc {
    /// What the channel connects.
    pub endpoint: ChannelEndpoint,
    /// The channel descriptor (name + chip-boundary flag).
    pub channel: Channel,
    /// Bytes the channel must carry over the profiled window.
    pub bytes: u64,
    /// Average bandwidth requirement, bytes per CPU cycle.
    pub bandwidth: f64,
}

impl fmt::Display for BrgArc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.4} B/cyc ({} B)",
            self.channel, self.bandwidth, self.bytes
        )
    }
}

/// The Bandwidth Requirement Graph of one memory architecture under one
/// workload.
///
/// ```
/// use mce_appmodel::benchmarks;
/// use mce_conex::Brg;
/// use mce_memlib::{CacheConfig, MemoryArchitecture};
///
/// let w = benchmarks::compress();
/// let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
/// let brg = Brg::profile(&w, &mem, 10_000);
/// assert_eq!(brg.arcs().len(), 2); // CPU<->L1 and L1<->DRAM
/// assert!(brg.arcs().iter().all(|a| a.bandwidth > 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Brg {
    arcs: Vec<BrgArc>,
    elapsed_cycles: u64,
}

impl Brg {
    /// Profiles `mem` under the first `trace_len` accesses of `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the memory architecture is invalid for the workload.
    pub fn profile(workload: &Workload, mem: &MemoryArchitecture, trace_len: usize) -> Self {
        Self::profile_accesses(workload, mem, workload.trace(trace_len))
    }

    /// [`Brg::profile`] over pre-compiled trace blocks: replays the first
    /// `trace_len` compiled accesses instead of running the generator.
    /// Bit-identical to [`Brg::profile`] with the same `trace_len`.
    ///
    /// # Panics
    ///
    /// Panics if the memory architecture is invalid for the workload or
    /// `trace_len` exceeds the compiled length.
    pub fn profile_blocks(
        workload: &Workload,
        mem: &MemoryArchitecture,
        blocks: &TraceBlocks,
        trace_len: usize,
    ) -> Self {
        Self::profile_accesses(workload, mem, blocks.replay(trace_len))
    }

    fn profile_accesses(
        workload: &Workload,
        mem: &MemoryArchitecture,
        accesses: impl Iterator<Item = MemAccess>,
    ) -> Self {
        mem.validate(workload)
            .expect("memory architecture must be valid");
        let endpoints = channel_endpoints(mem, workload);
        let channels = channels_for(mem, workload);
        let mut bytes = vec![0u64; endpoints.len()];

        // Instantiate behavioural models for the on-chip modules.
        let dram_id = mem.dram_id();
        let mut models: Vec<Option<Box<dyn ModuleModel>>> = mem
            .modules()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if i == dram_id.index() {
                    None
                } else {
                    Some(m.kind().instantiate())
                }
            })
            .collect();

        let idx_of = |e: ChannelEndpoint| endpoints.iter().position(|x| *x == e);
        let mut last_tick = 0;
        for acc in accesses {
            last_tick = acc.tick;
            let serving = mem.serving_module(acc.ds);
            let elem = workload.data_structure(acc.ds).element_size();
            if serving == dram_id {
                if let Some(i) = idx_of(ChannelEndpoint::CpuToDram) {
                    bytes[i] += elem;
                }
                continue;
            }
            if let Some(i) = idx_of(ChannelEndpoint::CpuToModule(serving)) {
                bytes[i] += elem;
            }
            let resp = models[serving.index()]
                .as_mut()
                .expect("on-chip module has a model")
                .access(acc.addr, acc.kind, acc.tick);
            // Downstream traffic walks the (validated acyclic) backing
            // chain: a backed module's fills hit its L2, whose own misses
            // continue toward the DRAM.
            let mut module = serving;
            let mut demand = resp.demand_fill_bytes;
            let mut background = resp.background_bytes;
            while demand + background > 0 {
                match mem.backing_of(module) {
                    None => {
                        if let Some(i) = idx_of(ChannelEndpoint::ModuleToDram(module)) {
                            bytes[i] += demand + background;
                        }
                        break;
                    }
                    Some(l2) => {
                        if let Some(i) = idx_of(ChannelEndpoint::ModuleToModule(module, l2)) {
                            bytes[i] += demand + background;
                        }
                        if demand == 0 {
                            // Posted traffic is absorbed by the L2.
                            break;
                        }
                        let l2_resp = models[l2.index()]
                            .as_mut()
                            .expect("backing module has a model")
                            .access(acc.addr, mce_appmodel::AccessKind::Read, acc.tick);
                        module = l2;
                        demand = l2_resp.demand_fill_bytes;
                        background = l2_resp.background_bytes;
                    }
                }
            }
        }

        let elapsed_cycles = last_tick + 1;
        let arcs = endpoints
            .into_iter()
            .zip(channels)
            .zip(bytes)
            .map(|((endpoint, channel), b)| BrgArc {
                endpoint,
                channel,
                bytes: b,
                bandwidth: b as f64 / elapsed_cycles as f64,
            })
            .collect();
        Brg {
            arcs,
            elapsed_cycles,
        }
    }

    /// The arcs, in canonical channel order (the same order
    /// [`channel_endpoints`] produces).
    pub fn arcs(&self) -> &[BrgArc] {
        &self.arcs
    }

    /// CPU cycles spanned by the profiling window.
    pub fn elapsed_cycles(&self) -> u64 {
        self.elapsed_cycles
    }

    /// Total bytes over all channels.
    pub fn total_bytes(&self) -> u64 {
        self.arcs.iter().map(|a| a.bytes).sum()
    }

    /// Indices of the on-chip arcs.
    pub fn on_chip_arcs(&self) -> Vec<usize> {
        self.arcs
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.channel.off_chip)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the off-chip arcs.
    pub fn off_chip_arcs(&self) -> Vec<usize> {
        self.arcs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.channel.off_chip)
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Brg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BRG over {} cycles:", self.elapsed_cycles)?;
        for arc in &self.arcs {
            writeln!(f, "  {arc}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::{benchmarks, DsId};
    use mce_memlib::{CacheConfig, MemModuleKind};

    const N: usize = 20_000;

    #[test]
    fn cache_only_brg_has_two_arcs() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let brg = Brg::profile(&w, &mem, N);
        assert_eq!(brg.arcs().len(), 2);
        assert_eq!(brg.on_chip_arcs().len(), 1);
        assert_eq!(brg.off_chip_arcs().len(), 1);
    }

    #[test]
    fn cpu_channel_bandwidth_reflects_element_traffic() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let brg = Brg::profile(&w, &mem, N);
        let cpu_arc = &brg.arcs()[brg.on_chip_arcs()[0]];
        // Element bytes moved = profile total bytes.
        let profile = mce_appmodel::AccessProfile::from_workload(&w, N);
        assert_eq!(cpu_arc.bytes, profile.total_bytes());
    }

    #[test]
    fn hostile_traffic_needs_more_offchip_bandwidth() {
        // compress on a tiny cache moves more fill bytes than on a big one.
        let w = benchmarks::compress();
        let small = Brg::profile(
            &w,
            &MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(1)),
            N,
        );
        let big = Brg::profile(
            &w,
            &MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(32)),
            N,
        );
        let off = |b: &Brg| b.arcs()[b.off_chip_arcs()[0]].bytes;
        assert!(off(&small) > off(&big), "{} vs {}", off(&small), off(&big));
    }

    #[test]
    fn multi_module_brg_splits_traffic() {
        let w = benchmarks::li();
        let mem = MemoryArchitecture::builder("dma")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 16,
                    element_bytes: 8,
                },
            )
            .map(DsId::new(0), 1)
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        let brg = Brg::profile(&w, &mem, N);
        // CPU<->L1, L1<->DRAM, CPU<->dma, dma<->DRAM.
        assert_eq!(brg.arcs().len(), 4);
        assert!(brg.arcs().iter().all(|a| a.bytes > 0), "{brg}");
    }

    #[test]
    fn bandwidths_consistent_with_bytes() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let brg = Brg::profile(&w, &mem, N);
        for arc in brg.arcs() {
            let expect = arc.bytes as f64 / brg.elapsed_cycles() as f64;
            assert!((arc.bandwidth - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_blocks_matches_generator_profile() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let blocks = TraceBlocks::compile(&w, N);
        assert_eq!(
            Brg::profile(&w, &mem, N),
            Brg::profile_blocks(&w, &mem, &blocks, N)
        );
        // A longer compilation serves shorter profiling windows too.
        let short = N / 4;
        assert_eq!(
            Brg::profile(&w, &mem, short),
            Brg::profile_blocks(&w, &mem, &blocks, short)
        );
    }

    #[test]
    fn profile_is_deterministic() {
        let w = benchmarks::li();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        assert_eq!(Brg::profile(&w, &mem, N), Brg::profile(&w, &mem, N));
    }
}
