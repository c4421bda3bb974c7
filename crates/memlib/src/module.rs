//! Memory-module descriptors and the behavioural-model interface.

use crate::cache::{CacheConfig, CacheState};
use crate::dma::SelfIndirectDmaState;
use crate::dram::{DramConfig, DramState};
use crate::fifo::FifoState;
use crate::sram::SramState;
use crate::stream_buffer::StreamBufferState;
use mce_appmodel::{AccessKind, Addr};
use std::fmt;

/// The kind (and configuration) of a memory module in the IP library.
///
/// These are the module classes the paper's APEX stage mixes and matches:
/// caches for general locality, SRAM scratchpads for small hot structures,
/// stream buffers for stream accesses, DMA-like custom modules that bring
/// "predictable, well-known data structures (such as lists) closer to the
/// CPU", and the off-chip DRAM backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemModuleKind {
    /// A set-associative cache.
    Cache(CacheConfig),
    /// An on-chip SRAM scratchpad of `bytes` capacity: structures mapped to
    /// it always hit (the mapping is validated against the capacity).
    Sram {
        /// Capacity in bytes.
        bytes: u64,
    },
    /// A stream buffer with `entries` prefetch slots of `line_bytes` each.
    /// Serves strided stream traffic; hits once the stride is locked.
    StreamBuffer {
        /// Number of prefetch slots.
        entries: u32,
        /// Bytes per slot.
        line_bytes: u32,
    },
    /// A self-indirect (linked-list) DMA: walks value-dependent chains ahead
    /// of the CPU, hiding DRAM latency for traffic caches cannot predict.
    SelfIndirectDma {
        /// Elements the engine keeps prefetched ahead of the CPU.
        depth: u32,
        /// Element size in bytes it is configured for.
        element_bytes: u32,
    },
    /// A FIFO write queue draining produced output streams to DRAM in the
    /// background (the template's FIFO in Figure 2).
    Fifo {
        /// Capacity in lines.
        entries: u32,
        /// Bytes per line.
        line_bytes: u32,
    },
    /// The off-chip DRAM backing store. Every architecture has exactly one.
    OffChipDram(DramConfig),
}

mce_obs::json_codec! {
    enum MemModuleKind {
        Cache(config),
        Sram { bytes },
        StreamBuffer { entries, line_bytes },
        SelfIndirectDma { depth, element_bytes },
        Fifo { entries, line_bytes },
        OffChipDram(config),
    }
}

impl MemModuleKind {
    /// True for modules that live on-chip (everything except the DRAM).
    pub const fn is_on_chip(self) -> bool {
        !matches!(self, MemModuleKind::OffChipDram(_))
    }

    /// A short class name used in architecture descriptions (Figure 6 style).
    pub const fn class_name(self) -> &'static str {
        match self {
            MemModuleKind::Cache(_) => "cache",
            MemModuleKind::Sram { .. } => "SRAM",
            MemModuleKind::StreamBuffer { .. } => "stream buffer",
            MemModuleKind::SelfIndirectDma { .. } => "linked-list DMA",
            MemModuleKind::Fifo { .. } => "FIFO",
            MemModuleKind::OffChipDram(_) => "off-chip DRAM",
        }
    }

    /// Instantiates the mutable behavioural model for simulation.
    pub fn instantiate(self) -> Box<dyn ModuleModel> {
        match self {
            MemModuleKind::Cache(cfg) => Box::new(CacheState::new(cfg)),
            MemModuleKind::Sram { .. } => Box::new(SramState::new()),
            MemModuleKind::StreamBuffer {
                entries,
                line_bytes,
            } => Box::new(StreamBufferState::new(entries, line_bytes)),
            MemModuleKind::SelfIndirectDma {
                depth,
                element_bytes,
            } => Box::new(SelfIndirectDmaState::new(depth, element_bytes)),
            MemModuleKind::Fifo {
                entries,
                line_bytes,
            } => Box::new(FifoState::new(entries, line_bytes)),
            MemModuleKind::OffChipDram(cfg) => Box::new(DramState::new(cfg)),
        }
    }
}

impl fmt::Display for MemModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemModuleKind::Cache(c) => write!(f, "{c}"),
            MemModuleKind::Sram { bytes } => write!(f, "SRAM {}K", bytes / 1024),
            MemModuleKind::StreamBuffer {
                entries,
                line_bytes,
            } => {
                write!(f, "stream buffer {entries}x{line_bytes}B")
            }
            MemModuleKind::SelfIndirectDma {
                depth,
                element_bytes,
            } => {
                write!(f, "linked-list DMA depth={depth} elem={element_bytes}B")
            }
            MemModuleKind::Fifo {
                entries,
                line_bytes,
            } => {
                write!(f, "FIFO {entries}x{line_bytes}B")
            }
            MemModuleKind::OffChipDram(c) => write!(f, "{c}"),
        }
    }
}

/// A named instance of a module kind within an architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemModule {
    name: String,
    kind: MemModuleKind,
}

mce_obs::json_codec! { struct MemModule { name, kind } }

impl MemModule {
    /// Creates a named module.
    pub fn new(name: impl Into<String>, kind: MemModuleKind) -> Self {
        MemModule {
            name: name.into(),
            kind,
        }
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module kind and configuration.
    pub const fn kind(&self) -> MemModuleKind {
        self.kind
    }
}

impl fmt::Display for MemModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind)
    }
}

/// Outcome of one access against a module's behavioural model.
///
/// Latency composition happens in the system simulator: `service_cycles` is
/// the module-internal time; `demand_fill_bytes` must be fetched from DRAM
/// over the off-chip channel *before* the CPU is unblocked (a miss);
/// `background_bytes` is prefetch/writeback traffic that consumes off-chip
/// bandwidth and energy but does not stall the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleResponse {
    /// Served on-chip without waiting for DRAM.
    pub hit: bool,
    /// Module-internal service latency in cycles.
    pub service_cycles: u32,
    /// Bytes that must arrive from DRAM before the access completes.
    pub demand_fill_bytes: u64,
    /// Prefetch/writeback bytes moved to/from DRAM off the critical path.
    pub background_bytes: u64,
}

impl ModuleResponse {
    /// A plain on-chip hit with the given service latency.
    pub const fn hit(service_cycles: u32) -> Self {
        ModuleResponse {
            hit: true,
            service_cycles,
            demand_fill_bytes: 0,
            background_bytes: 0,
        }
    }

    /// A miss that demands `fill` bytes from DRAM.
    pub const fn miss(service_cycles: u32, fill: u64) -> Self {
        ModuleResponse {
            hit: false,
            service_cycles,
            demand_fill_bytes: fill,
            background_bytes: 0,
        }
    }

    /// Adds background (non-blocking) off-chip traffic to the response.
    pub const fn with_background(mut self, bytes: u64) -> Self {
        self.background_bytes = bytes;
        self
    }
}

/// Behavioural model of a memory module, driven access-by-access by the
/// system simulator.
///
/// Implementations are deterministic state machines; [`ModuleModel::reset`]
/// returns them to their post-construction state so a single architecture
/// can be re-simulated without re-instantiation.
pub trait ModuleModel: fmt::Debug + Send {
    /// Processes one access and reports how it was served.
    fn access(&mut self, addr: Addr, kind: AccessKind, tick: u64) -> ModuleResponse;

    /// Clears all dynamic state.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_chip_classification() {
        assert!(MemModuleKind::Sram { bytes: 1024 }.is_on_chip());
        assert!(MemModuleKind::Cache(CacheConfig::kilobytes(8)).is_on_chip());
        assert!(!MemModuleKind::OffChipDram(DramConfig::default()).is_on_chip());
    }

    #[test]
    fn class_names() {
        assert_eq!(
            MemModuleKind::SelfIndirectDma {
                depth: 4,
                element_bytes: 8
            }
            .class_name(),
            "linked-list DMA"
        );
        assert_eq!(
            MemModuleKind::StreamBuffer {
                entries: 4,
                line_bytes: 32
            }
            .class_name(),
            "stream buffer"
        );
    }

    #[test]
    fn instantiate_every_kind() {
        let kinds = [
            MemModuleKind::Cache(CacheConfig::kilobytes(4)),
            MemModuleKind::Sram { bytes: 2048 },
            MemModuleKind::StreamBuffer {
                entries: 4,
                line_bytes: 32,
            },
            MemModuleKind::SelfIndirectDma {
                depth: 4,
                element_bytes: 8,
            },
            MemModuleKind::Fifo {
                entries: 4,
                line_bytes: 32,
            },
            MemModuleKind::OffChipDram(DramConfig::default()),
        ];
        for k in kinds {
            let mut m = k.instantiate();
            let r = m.access(Addr::new(0), AccessKind::Read, 0);
            assert!(r.service_cycles > 0 || r.demand_fill_bytes > 0 || r.hit);
            m.reset();
        }
    }

    #[test]
    fn response_constructors() {
        let h = ModuleResponse::hit(1);
        assert!(h.hit);
        assert_eq!(h.demand_fill_bytes, 0);
        let m = ModuleResponse::miss(2, 32).with_background(16);
        assert!(!m.hit);
        assert_eq!(m.demand_fill_bytes, 32);
        assert_eq!(m.background_bytes, 16);
    }

    #[test]
    fn display_formats() {
        let m = MemModule::new("sp0", MemModuleKind::Sram { bytes: 4096 });
        assert_eq!(m.to_string(), "sp0 [SRAM 4K]");
    }
}
