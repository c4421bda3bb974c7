//! System configurations: a memory architecture wired by a connectivity
//! architecture.

use mce_appmodel::Workload;
use mce_connlib::{
    Channel, ChannelId, ConnArchError, ConnComponent, ConnComponentKind, ConnectivityArchitecture,
};
use mce_memlib::{ArchError, MemModuleKind, MemoryArchitecture, ModuleId};
use std::error::Error;
use std::fmt;

/// What a communication channel connects, in terms of the memory
/// architecture's endpoints.
///
/// The channel list of a system is derived deterministically from the
/// memory architecture (see [`channel_endpoints`]), so the ConEx stage and
/// the simulator always agree on channel identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelEndpoint {
    /// CPU to an on-chip module (demand traffic).
    CpuToModule(ModuleId),
    /// An on-chip module to its on-chip backing store (an L2 cache): the
    /// multi-level extension beyond the paper's single-level template.
    ModuleToModule(ModuleId, ModuleId),
    /// An on-chip module to the off-chip DRAM (fills, prefetches,
    /// writebacks).
    ModuleToDram(ModuleId),
    /// CPU directly to DRAM (data structures mapped off-chip).
    CpuToDram,
}

mce_obs::json_codec! {
    enum ChannelEndpoint {
        CpuToModule(module),
        ModuleToModule(from, to),
        ModuleToDram(module),
        CpuToDram,
    }
}

impl ChannelEndpoint {
    /// True if the channel crosses the chip boundary.
    pub const fn is_off_chip(self) -> bool {
        matches!(
            self,
            ChannelEndpoint::ModuleToDram(_) | ChannelEndpoint::CpuToDram
        )
    }
}

impl fmt::Display for ChannelEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelEndpoint::CpuToModule(m) => write!(f, "CPU<->{m}"),
            ChannelEndpoint::ModuleToModule(a, b) => write!(f, "{a}<->{b}"),
            ChannelEndpoint::ModuleToDram(m) => write!(f, "{m}<->DRAM"),
            ChannelEndpoint::CpuToDram => write!(f, "CPU<->DRAM"),
        }
    }
}

/// Derives the communication channels a memory architecture needs:
///
/// 1. one CPU↔module channel per on-chip module that serves at least one
///    data structure (a pure L2 never talks to the CPU directly),
/// 2. one downstream channel per on-chip module that generates miss/
///    prefetch/writeback traffic (every kind except pure SRAM
///    scratchpads): module↔backing for backed modules, module↔DRAM
///    otherwise,
/// 3. a CPU↔DRAM channel if any data structure is mapped directly off-chip.
pub fn channel_endpoints(mem: &MemoryArchitecture, workload: &Workload) -> Vec<ChannelEndpoint> {
    let mut endpoints = Vec::new();
    for (id, module) in mem.on_chip_modules() {
        if mem.serves_data(id) {
            endpoints.push(ChannelEndpoint::CpuToModule(id));
        }
        if !matches!(module.kind(), MemModuleKind::Sram { .. }) {
            match mem.backing_of(id) {
                Some(l2) => endpoints.push(ChannelEndpoint::ModuleToModule(id, l2)),
                None => endpoints.push(ChannelEndpoint::ModuleToDram(id)),
            }
        }
    }
    let dram = mem.dram_id();
    let direct =
        (0..workload.len()).any(|i| mem.serving_module(mce_appmodel::DsId::new(i)) == dram);
    if direct {
        endpoints.push(ChannelEndpoint::CpuToDram);
    }
    endpoints
}

/// Builds the [`Channel`] descriptors matching [`channel_endpoints`].
pub fn channels_for(mem: &MemoryArchitecture, workload: &Workload) -> Vec<Channel> {
    channel_endpoints(mem, workload)
        .into_iter()
        .map(|e| {
            let name = match e {
                ChannelEndpoint::CpuToModule(m) => format!("CPU<->{}", mem.module(m).name()),
                ChannelEndpoint::ModuleToModule(a, b) => {
                    format!("{}<->{}", mem.module(a).name(), mem.module(b).name())
                }
                ChannelEndpoint::ModuleToDram(m) => format!("{}<->DRAM", mem.module(m).name()),
                ChannelEndpoint::CpuToDram => "CPU<->DRAM".to_owned(),
            };
            if e.is_off_chip() {
                Channel::off_chip(name)
            } else {
                Channel::on_chip(name)
            }
        })
        .collect()
}

/// A complete system configuration: memory architecture + connectivity
/// architecture, with the channel list they share.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    mem: MemoryArchitecture,
    conn: ConnectivityArchitecture,
    endpoints: Vec<ChannelEndpoint>,
}

mce_obs::json_codec! { struct SystemConfig { mem, conn, endpoints } }

/// Validation failure for a system configuration.
#[derive(Debug)]
pub enum SystemError {
    /// The memory architecture failed validation.
    Memory(ArchError),
    /// The connectivity architecture failed validation.
    Connectivity(ConnArchError),
    /// The connectivity architecture's channel list does not match the
    /// memory architecture's derived channels.
    ChannelMismatch {
        /// Channels the memory architecture needs.
        expected: usize,
        /// Channels the connectivity architecture declares.
        actual: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Memory(e) => write!(f, "memory architecture invalid: {e}"),
            SystemError::Connectivity(e) => write!(f, "connectivity architecture invalid: {e}"),
            SystemError::ChannelMismatch { expected, actual } => {
                write!(
                    f,
                    "channel mismatch: memory needs {expected}, connectivity has {actual}"
                )
            }
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Memory(e) => Some(e),
            SystemError::Connectivity(e) => Some(e),
            SystemError::ChannelMismatch { .. } => None,
        }
    }
}

impl From<ArchError> for SystemError {
    fn from(e: ArchError) -> Self {
        SystemError::Memory(e)
    }
}

impl From<ConnArchError> for SystemError {
    fn from(e: ConnArchError) -> Self {
        SystemError::Connectivity(e)
    }
}

impl SystemConfig {
    /// Couples a memory architecture with a connectivity architecture.
    ///
    /// # Errors
    ///
    /// Returns a [`SystemError`] if either architecture fails validation or
    /// the connectivity's channel list does not match the channels derived
    /// from the memory architecture.
    pub fn new(
        workload: &Workload,
        mem: MemoryArchitecture,
        conn: ConnectivityArchitecture,
    ) -> Result<Self, SystemError> {
        mem.validate(workload)?;
        let endpoints = channel_endpoints(&mem, workload);
        if endpoints.len() != conn.channels().len() {
            return Err(SystemError::ChannelMismatch {
                expected: endpoints.len(),
                actual: conn.channels().len(),
            });
        }
        conn.validate()?;
        Ok(SystemConfig {
            mem,
            conn,
            endpoints,
        })
    }

    /// The paper's "simple connectivity model" baseline (what APEX assumes):
    /// every on-chip channel on one shared ASB system bus, every off-chip
    /// channel on one off-chip bus.
    ///
    /// # Errors
    ///
    /// Returns a [`SystemError`] if the memory architecture is invalid.
    pub fn with_shared_bus(
        workload: &Workload,
        mem: MemoryArchitecture,
    ) -> Result<Self, SystemError> {
        let channels = channels_for(&mem, workload);
        let mut conn = ConnectivityArchitecture::new(channels.clone());
        let bus = conn.add_link("asb0", ConnComponent::new(ConnComponentKind::AmbaAsb));
        let ext = conn.add_link("ext0", ConnComponent::new(ConnComponentKind::OffChipBus));
        for (i, ch) in channels.iter().enumerate() {
            conn.assign(ChannelId::new(i), if ch.off_chip { ext } else { bus });
        }
        Self::new(workload, mem, conn)
    }

    /// The memory architecture.
    pub fn mem(&self) -> &MemoryArchitecture {
        &self.mem
    }

    /// The connectivity architecture.
    pub fn conn(&self) -> &ConnectivityArchitecture {
        &self.conn
    }

    /// The channel endpoints, index-aligned with
    /// [`ConnectivityArchitecture::channels`].
    pub fn endpoints(&self) -> &[ChannelEndpoint] {
        &self.endpoints
    }

    /// The channel carrying CPU↔`module` traffic.
    pub fn cpu_channel(&self, module: ModuleId) -> Option<ChannelId> {
        self.endpoints
            .iter()
            .position(|e| *e == ChannelEndpoint::CpuToModule(module))
            .map(ChannelId::new)
    }

    /// The channel carrying `module`↔DRAM traffic.
    pub fn dram_channel(&self, module: ModuleId) -> Option<ChannelId> {
        self.endpoints
            .iter()
            .position(|e| *e == ChannelEndpoint::ModuleToDram(module))
            .map(ChannelId::new)
    }

    /// The downstream channel of `module`: module↔backing for backed
    /// modules, module↔DRAM otherwise.
    pub fn downstream_channel(&self, module: ModuleId) -> Option<ChannelId> {
        self.endpoints
            .iter()
            .position(|e| {
                matches!(e,
                    ChannelEndpoint::ModuleToDram(m) if *m == module)
                    || matches!(e,
                    ChannelEndpoint::ModuleToModule(m, _) if *m == module)
            })
            .map(ChannelId::new)
    }

    /// The CPU↔DRAM direct channel, if present.
    pub fn cpu_dram_channel(&self) -> Option<ChannelId> {
        self.endpoints
            .iter()
            .position(|e| *e == ChannelEndpoint::CpuToDram)
            .map(ChannelId::new)
    }

    /// Total gate cost: memory modules + connectivity.
    pub fn gate_cost(&self) -> u64 {
        self.mem.gate_cost() + self.conn.gate_cost()
    }

    /// One-line description: memory composition `|` connectivity
    /// composition.
    pub fn describe(&self) -> String {
        format!("{} | {}", self.mem.describe(), self.conn.describe())
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::{benchmarks, DsId};
    use mce_memlib::CacheConfig;

    #[test]
    fn cache_only_channels() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let eps = channel_endpoints(&mem, &w);
        // CPU<->cache, cache<->DRAM; no direct CPU<->DRAM (all DS on cache).
        assert_eq!(eps.len(), 2);
        assert!(matches!(eps[0], ChannelEndpoint::CpuToModule(_)));
        assert!(matches!(eps[1], ChannelEndpoint::ModuleToDram(_)));
    }

    #[test]
    fn direct_dram_mapping_adds_channel() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::builder("partial")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .map(DsId::new(0), 0)
            .build(&w) // rest falls through to DRAM
            .unwrap();
        let eps = channel_endpoints(&mem, &w);
        assert!(eps.contains(&ChannelEndpoint::CpuToDram));
    }

    #[test]
    fn sram_has_no_dram_channel() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::builder("sp")
            .module("sp", MemModuleKind::Sram { bytes: 4096 })
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .map(DsId::new(4), 0)
            .map_rest_to(1)
            .build(&w)
            .unwrap();
        let eps = channel_endpoints(&mem, &w);
        let sram_dram = eps
            .iter()
            .any(|e| matches!(e, ChannelEndpoint::ModuleToDram(m) if *m == ModuleId::new(0)));
        assert!(!sram_dram, "scratchpads never talk to DRAM");
        // But the cache does.
        assert!(eps.contains(&ChannelEndpoint::ModuleToDram(ModuleId::new(1))));
    }

    #[test]
    fn shared_bus_baseline_is_valid() {
        let w = benchmarks::li();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
        assert!(sys.gate_cost() > 0);
        assert!(sys.cpu_channel(ModuleId::new(0)).is_some());
        assert!(sys.dram_channel(ModuleId::new(0)).is_some());
        assert!(sys.cpu_dram_channel().is_none());
    }

    #[test]
    fn channel_mismatch_detected() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2));
        let conn = ConnectivityArchitecture::new(vec![Channel::on_chip("only_one")]);
        let err = SystemConfig::new(&w, mem, conn).unwrap_err();
        assert!(matches!(err, SystemError::ChannelMismatch { .. }));
    }

    #[test]
    fn describe_mentions_both_sides() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2));
        let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
        let d = sys.describe();
        assert!(d.contains("cache"), "{d}");
        assert!(d.contains("ASB"), "{d}");
        assert!(d.contains('|'), "{d}");
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(ChannelEndpoint::CpuToDram.to_string(), "CPU<->DRAM");
        assert_eq!(
            ChannelEndpoint::CpuToModule(ModuleId::new(0)).to_string(),
            "CPU<->m0"
        );
    }
}
