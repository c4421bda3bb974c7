//! Memory architectures: modules plus a data-structure→module mapping.

use crate::cache::CacheConfig;
use crate::cost::{module_gates, SYSTEM_BASE_GATES};
use crate::dram::DramConfig;
use crate::module::{MemModule, MemModuleKind};
use mce_appmodel::{AccessPattern, DsId, Workload};
use std::error::Error;
use std::fmt;

/// Index of a module within a [`MemoryArchitecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(usize);

mce_obs::json_codec! { struct ModuleId(usize) }

impl ModuleId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> Self {
        ModuleId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Validation failure for a memory architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// The architecture has no off-chip DRAM module.
    MissingDram,
    /// More than one DRAM module was declared.
    MultipleDram,
    /// A data structure has no mapping entry.
    UnmappedDataStructure(DsId),
    /// A mapping refers to a module index that does not exist.
    BadModuleId(ModuleId),
    /// Structures mapped to an SRAM exceed its capacity.
    SramOverflow {
        /// The overflowing scratchpad.
        module: ModuleId,
        /// Total mapped footprint in bytes.
        mapped: u64,
        /// The scratchpad capacity in bytes.
        capacity: u64,
    },
    /// A pattern-specific module was given traffic it cannot serve.
    PatternMismatch {
        /// The module with the incompatible mapping.
        module: ModuleId,
        /// The offending data structure.
        ds: DsId,
    },
    /// A backing declaration is invalid: dangling id, non-cache target,
    /// off-chip target, or a cycle in the backing chain.
    BadBacking {
        /// The module with the invalid backing.
        module: ModuleId,
        /// What is wrong.
        reason: &'static str,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::MissingDram => write!(f, "architecture has no off-chip DRAM"),
            ArchError::MultipleDram => write!(f, "architecture has more than one off-chip DRAM"),
            ArchError::UnmappedDataStructure(ds) => {
                write!(f, "data structure {ds} has no module mapping")
            }
            ArchError::BadModuleId(m) => write!(f, "mapping references unknown module {m}"),
            ArchError::SramOverflow {
                module,
                mapped,
                capacity,
            } => write!(
                f,
                "scratchpad {module} overflows: {mapped} bytes mapped into {capacity}"
            ),
            ArchError::PatternMismatch { module, ds } => {
                write!(f, "module {module} cannot serve the access pattern of {ds}")
            }
            ArchError::BadBacking { module, reason } => {
                write!(f, "module {module} has invalid backing: {reason}")
            }
        }
    }
}

impl Error for ArchError {}

/// A memory-module architecture: a set of named modules (exactly one
/// off-chip DRAM) and the mapping that assigns every application data
/// structure to the module serving it.
///
/// Built either with the convenience constructors or the builder:
///
/// ```
/// use mce_memlib::{CacheConfig, MemModuleKind, MemoryArchitecture};
/// use mce_appmodel::{benchmarks, DsId};
///
/// let w = benchmarks::li();
/// let arch = MemoryArchitecture::builder("li_dma")
///     .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
///     .module("list_dma", MemModuleKind::SelfIndirectDma { depth: 8, element_bytes: 8 })
///     .map(DsId::new(0), 1)   // cons_heap -> DMA
///     .map_rest_to(0)          // everything else -> cache
///     .build(&w)
///     .expect("valid architecture");
/// assert_eq!(arch.on_chip_modules().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryArchitecture {
    name: String,
    modules: Vec<MemModule>,
    /// Per-DsId serving module.
    mapping: Vec<ModuleId>,
    /// Per-module backing store: `Some(l2)` chains the module's misses,
    /// prefetches and writebacks to another on-chip module (a next-level
    /// cache); `None` means they go straight to the off-chip DRAM. Index-
    /// aligned with `modules`.
    backing: Vec<Option<ModuleId>>,
}

mce_obs::json_codec! { struct MemoryArchitecture { name, modules, mapping, #[default] backing } }

impl MemoryArchitecture {
    /// Starts a builder. A default off-chip DRAM is appended automatically
    /// at build time if none was declared.
    pub fn builder(name: impl Into<String>) -> ArchBuilder {
        ArchBuilder {
            name: name.into(),
            modules: Vec::new(),
            explicit_map: Vec::new(),
            rest_to: None,
            backing: Vec::new(),
        }
    }

    /// The classic baseline: a single cache serving every data structure,
    /// backed by a default DRAM (the paper's "traditional cache-only memory
    /// configuration").
    pub fn cache_only(workload: &Workload, cache: CacheConfig) -> Self {
        Self::builder(format!("cache{}k_only", cache.size_bytes / 1024))
            .module("L1", MemModuleKind::Cache(cache))
            .map_rest_to(0)
            .build(workload)
            .expect("cache-only architecture is always valid")
    }

    /// The architecture's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All modules, indexable by [`ModuleId`].
    pub fn modules(&self) -> &[MemModule] {
        &self.modules
    }

    /// The module for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn module(&self, id: ModuleId) -> &MemModule {
        &self.modules[id.index()]
    }

    /// Id of the unique off-chip DRAM module.
    pub fn dram_id(&self) -> ModuleId {
        self.modules
            .iter()
            .position(|m| !m.kind().is_on_chip())
            .map(ModuleId::new)
            .expect("validated architecture always has a DRAM")
    }

    /// The DRAM configuration.
    pub fn dram_config(&self) -> DramConfig {
        match self.module(self.dram_id()).kind() {
            MemModuleKind::OffChipDram(cfg) => cfg,
            _ => unreachable!("dram_id points at the DRAM"),
        }
    }

    /// The serving module of data structure `ds`.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is outside the workload the architecture was built for.
    pub fn serving_module(&self, ds: DsId) -> ModuleId {
        self.mapping[ds.index()]
    }

    /// The module that absorbs `module`'s off-path traffic: `Some(l2)` for
    /// a backed module, `None` when it talks straight to the DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    pub fn backing_of(&self, module: ModuleId) -> Option<ModuleId> {
        self.backing.get(module.index()).copied().flatten()
    }

    /// True if any module is served by `module` as its backing store.
    pub fn is_backing_target(&self, module: ModuleId) -> bool {
        self.backing.contains(&Some(module))
    }

    /// True if `module` serves at least one data structure directly.
    pub fn serves_data(&self, module: ModuleId) -> bool {
        self.mapping.contains(&module)
    }

    /// Iterator over `(ModuleId, &MemModule)` of the on-chip modules.
    pub fn on_chip_modules(&self) -> impl Iterator<Item = (ModuleId, &MemModule)> {
        self.modules
            .iter()
            .enumerate()
            .filter(|(_, m)| m.kind().is_on_chip())
            .map(|(i, m)| (ModuleId::new(i), m))
    }

    /// Total gate cost of the memory modules including the per-system base
    /// (bus interface unit, pads).
    pub fn gate_cost(&self) -> u64 {
        SYSTEM_BASE_GATES
            + self
                .modules
                .iter()
                .map(|m| module_gates(m.kind()))
                .sum::<u64>()
    }

    /// A short human-readable composition string for reports, e.g.
    /// `"cache 8K 2-way 32B lines + linked-list DMA depth=8 elem=8B"`.
    pub fn describe(&self) -> String {
        self.on_chip_modules()
            .map(|(_, m)| m.kind().to_string())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Checks the architecture against a workload.
    ///
    /// # Errors
    ///
    /// Returns the first [`ArchError`] found: missing/duplicate DRAM,
    /// unmapped structures, dangling module ids, scratchpad overflow, or a
    /// pattern-specific module (stream buffer / self-indirect DMA) mapped to
    /// traffic it cannot serve.
    pub fn validate(&self, workload: &Workload) -> Result<(), ArchError> {
        let dram_count = self
            .modules
            .iter()
            .filter(|m| !m.kind().is_on_chip())
            .count();
        if dram_count == 0 {
            return Err(ArchError::MissingDram);
        }
        if dram_count > 1 {
            return Err(ArchError::MultipleDram);
        }
        if self.mapping.len() < workload.len() {
            return Err(ArchError::UnmappedDataStructure(DsId::new(
                self.mapping.len(),
            )));
        }
        // Scratchpad occupancy and pattern compatibility.
        let mut sram_load = vec![0u64; self.modules.len()];
        for (i, ds) in workload.data_structures().iter().enumerate() {
            let target = self.mapping[i];
            let module = self
                .modules
                .get(target.index())
                .ok_or(ArchError::BadModuleId(target))?;
            match module.kind() {
                MemModuleKind::Sram { .. } => sram_load[target.index()] += ds.footprint(),
                MemModuleKind::StreamBuffer { .. } => {
                    if !matches!(ds.pattern(), AccessPattern::Stream { .. }) {
                        return Err(ArchError::PatternMismatch {
                            module: target,
                            ds: DsId::new(i),
                        });
                    }
                }
                MemModuleKind::Fifo { .. } => {
                    // FIFOs drain produced streams: stream pattern, mostly
                    // writes.
                    if !matches!(ds.pattern(), AccessPattern::Stream { .. })
                        || ds.write_fraction() < 0.5
                    {
                        return Err(ArchError::PatternMismatch {
                            module: target,
                            ds: DsId::new(i),
                        });
                    }
                }
                MemModuleKind::SelfIndirectDma { .. } => {
                    if !matches!(
                        ds.pattern(),
                        AccessPattern::SelfIndirect | AccessPattern::Indexed { .. }
                    ) {
                        return Err(ArchError::PatternMismatch {
                            module: target,
                            ds: DsId::new(i),
                        });
                    }
                }
                MemModuleKind::Cache(_) | MemModuleKind::OffChipDram(_) => {}
            }
        }
        for (i, m) in self.modules.iter().enumerate() {
            if let MemModuleKind::Sram { bytes } = m.kind() {
                if sram_load[i] > bytes {
                    return Err(ArchError::SramOverflow {
                        module: ModuleId::new(i),
                        mapped: sram_load[i],
                        capacity: bytes,
                    });
                }
            }
        }
        // Backing chains: targets must be on-chip caches; chains must be
        // acyclic.
        for (i, b) in self.backing.iter().enumerate() {
            let module = ModuleId::new(i);
            let Some(target) = *b else { continue };
            let Some(t) = self.modules.get(target.index()) else {
                return Err(ArchError::BadBacking {
                    module,
                    reason: "backing target does not exist",
                });
            };
            if !matches!(t.kind(), MemModuleKind::Cache(_)) {
                return Err(ArchError::BadBacking {
                    module,
                    reason: "backing target must be an on-chip cache",
                });
            }
            if target == module {
                return Err(ArchError::BadBacking {
                    module,
                    reason: "module cannot back itself",
                });
            }
            // Walk the chain; more hops than modules means a cycle.
            let mut hops = 0;
            let mut cursor = Some(target);
            while let Some(c) = cursor {
                hops += 1;
                if hops > self.modules.len() {
                    return Err(ArchError::BadBacking {
                        module,
                        reason: "backing chain has a cycle",
                    });
                }
                cursor = self.backing.get(c.index()).copied().flatten();
            }
        }
        Ok(())
    }
}

impl fmt::Display for MemoryArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.describe())
    }
}

/// Builder for [`MemoryArchitecture`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct ArchBuilder {
    name: String,
    modules: Vec<MemModule>,
    explicit_map: Vec<(DsId, usize)>,
    rest_to: Option<usize>,
    backing: Vec<(usize, usize)>,
}

impl ArchBuilder {
    /// Adds a module; returns the builder for chaining. Modules are indexed
    /// in insertion order (the indices used by [`ArchBuilder::map`]).
    pub fn module(mut self, name: impl Into<String>, kind: MemModuleKind) -> Self {
        self.modules.push(MemModule::new(name, kind));
        self
    }

    /// Maps data structure `ds` to the module at insertion index
    /// `module_index`.
    pub fn map(mut self, ds: DsId, module_index: usize) -> Self {
        self.explicit_map.push((ds, module_index));
        self
    }

    /// Maps every not-explicitly-mapped data structure to the module at
    /// `module_index`.
    pub fn map_rest_to(mut self, module_index: usize) -> Self {
        self.rest_to = Some(module_index);
        self
    }

    /// Chains the module at `module_index` to a next-level on-chip cache at
    /// `backing_index` (an L2): its misses, prefetches and writebacks go
    /// there instead of straight to DRAM. An extension beyond the paper's
    /// single-level template.
    pub fn backed_by(mut self, module_index: usize, backing_index: usize) -> Self {
        self.backing.push((module_index, backing_index));
        self
    }

    /// Finalizes and validates against `workload`.
    ///
    /// A default [`DramConfig::typical`] off-chip DRAM is appended if the
    /// builder declared none. Data structures without an explicit mapping go
    /// to the `map_rest_to` target, or to the DRAM if none was set.
    ///
    /// # Errors
    ///
    /// Returns any [`ArchError`] produced by
    /// [`MemoryArchitecture::validate`].
    pub fn build(self, workload: &Workload) -> Result<MemoryArchitecture, ArchError> {
        let mut modules = self.modules;
        if !modules.iter().any(|m| !m.kind().is_on_chip()) {
            modules.push(MemModule::new(
                "dram",
                MemModuleKind::OffChipDram(DramConfig::typical()),
            ));
        }
        let dram_index = modules
            .iter()
            .position(|m| !m.kind().is_on_chip())
            .expect("just ensured a DRAM exists");
        let fallback = self.rest_to.unwrap_or(dram_index);
        let mut mapping = vec![ModuleId::new(fallback); workload.len()];
        for (ds, idx) in self.explicit_map {
            if ds.index() >= mapping.len() {
                return Err(ArchError::UnmappedDataStructure(ds));
            }
            mapping[ds.index()] = ModuleId::new(idx);
        }
        let mut backing = vec![None; modules.len()];
        for (m, b) in self.backing {
            if m >= modules.len() {
                return Err(ArchError::BadBacking {
                    module: ModuleId::new(m),
                    reason: "backing declared for unknown module",
                });
            }
            backing[m] = Some(ModuleId::new(b));
        }
        let arch = MemoryArchitecture {
            name: self.name,
            modules,
            mapping,
            backing,
        };
        arch.validate(workload)?;
        Ok(arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    #[test]
    fn cache_only_is_valid_and_costed() {
        let w = benchmarks::compress();
        let a = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        assert!(a.validate(&w).is_ok());
        assert!(a.gate_cost() > SYSTEM_BASE_GATES);
        assert_eq!(a.on_chip_modules().count(), 1);
    }

    #[test]
    fn dram_is_appended_automatically() {
        let w = benchmarks::vocoder();
        let a = MemoryArchitecture::builder("x")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        assert_eq!(a.modules().len(), 2);
        assert_eq!(a.dram_id(), ModuleId::new(1));
    }

    #[test]
    fn stream_buffer_rejects_non_stream_traffic() {
        let w = benchmarks::compress(); // ds0 = htab (self-indirect)
        let err = MemoryArchitecture::builder("bad")
            .module(
                "sb",
                MemModuleKind::StreamBuffer {
                    entries: 4,
                    line_bytes: 32,
                },
            )
            .map(DsId::new(0), 0)
            .map_rest_to(0)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::PatternMismatch { .. }));
    }

    #[test]
    fn dma_accepts_self_indirect() {
        let w = benchmarks::li(); // ds0 = cons_heap (self-indirect)
        let a = MemoryArchitecture::builder("dma")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 8,
                    element_bytes: 8,
                },
            )
            .map(DsId::new(0), 1)
            .map_rest_to(0)
            .build(&w);
        assert!(a.is_ok());
    }

    #[test]
    fn dma_rejects_stream_traffic() {
        let w = benchmarks::vocoder(); // ds0 = speech_in (stream)
        let err = MemoryArchitecture::builder("bad")
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 8,
                    element_bytes: 8,
                },
            )
            .map(DsId::new(0), 0)
            .map_rest_to(0)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::PatternMismatch { .. }));
    }

    #[test]
    fn sram_overflow_detected() {
        let w = benchmarks::compress(); // ds4 = locals (2 KiB)
        let err = MemoryArchitecture::builder("tiny")
            .module("sp", MemModuleKind::Sram { bytes: 1024 })
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .map(DsId::new(4), 0)
            .map_rest_to(1)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::SramOverflow { .. }));
    }

    #[test]
    fn sram_fit_accepted() {
        let w = benchmarks::compress();
        let a = MemoryArchitecture::builder("sp")
            .module("sp", MemModuleKind::Sram { bytes: 4096 })
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .map(DsId::new(4), 0) // locals, 2 KiB
            .map_rest_to(1)
            .build(&w);
        assert!(a.is_ok());
    }

    #[test]
    fn bad_module_index_detected() {
        let w = benchmarks::vocoder();
        let err = MemoryArchitecture::builder("dangling")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .map(DsId::new(0), 7)
            .map_rest_to(0)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::BadModuleId(_)));
    }

    #[test]
    fn describe_lists_on_chip_modules() {
        let w = benchmarks::li();
        let a = MemoryArchitecture::builder("d")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 8,
                    element_bytes: 8,
                },
            )
            .map(DsId::new(0), 1)
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        let d = a.describe();
        assert!(d.contains("cache"), "{d}");
        assert!(d.contains("DMA"), "{d}");
        assert!(!d.contains("DRAM"), "{d}");
    }

    #[test]
    fn unmapped_fallback_goes_to_dram() {
        let w = benchmarks::vocoder();
        let a = MemoryArchitecture::builder("raw").build(&w).unwrap();
        let dram = a.dram_id();
        for i in 0..w.len() {
            assert_eq!(a.serving_module(DsId::new(i)), dram);
        }
    }

    #[test]
    fn backed_l1_l2_validates() {
        let w = benchmarks::compress();
        let a = MemoryArchitecture::builder("two_level")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .module("L2", MemModuleKind::Cache(CacheConfig::kilobytes(16)))
            .map_rest_to(0)
            .backed_by(0, 1)
            .build(&w)
            .unwrap();
        assert_eq!(a.backing_of(ModuleId::new(0)), Some(ModuleId::new(1)));
        assert_eq!(a.backing_of(ModuleId::new(1)), None);
        assert!(a.is_backing_target(ModuleId::new(1)));
        assert!(a.serves_data(ModuleId::new(0)));
        assert!(!a.serves_data(ModuleId::new(1)));
    }

    #[test]
    fn backing_cycle_rejected() {
        let w = benchmarks::vocoder();
        let err = MemoryArchitecture::builder("cycle")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .module("L2", MemModuleKind::Cache(CacheConfig::kilobytes(4)))
            .map_rest_to(0)
            .backed_by(0, 1)
            .backed_by(1, 0)
            .build(&w)
            .unwrap_err();
        assert!(matches!(
            err,
            ArchError::BadBacking {
                reason: "backing chain has a cycle",
                ..
            }
        ));
    }

    #[test]
    fn backing_must_be_cache() {
        let w = benchmarks::vocoder();
        let err = MemoryArchitecture::builder("bad")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .module("sp", MemModuleKind::Sram { bytes: 1024 })
            .map_rest_to(0)
            .backed_by(0, 1)
            .build(&w)
            .unwrap_err();
        assert!(matches!(
            err,
            ArchError::BadBacking {
                reason: "backing target must be an on-chip cache",
                ..
            }
        ));
    }

    #[test]
    fn self_backing_rejected() {
        let w = benchmarks::vocoder();
        let err = MemoryArchitecture::builder("selfie")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .map_rest_to(0)
            .backed_by(0, 0)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::BadBacking { .. }));
    }

    #[test]
    fn dangling_backing_rejected() {
        let w = benchmarks::vocoder();
        let err = MemoryArchitecture::builder("dangle")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(2)))
            .map_rest_to(0)
            .backed_by(0, 9)
            .build(&w)
            .unwrap_err();
        assert!(matches!(err, ArchError::BadBacking { .. }));
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ArchError> = vec![
            ArchError::MissingDram,
            ArchError::MultipleDram,
            ArchError::UnmappedDataStructure(DsId::new(1)),
            ArchError::BadModuleId(ModuleId::new(2)),
            ArchError::SramOverflow {
                module: ModuleId::new(0),
                mapped: 10,
                capacity: 5,
            },
            ArchError::PatternMismatch {
                module: ModuleId::new(0),
                ds: DsId::new(0),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
