//! Simulation statistics.

use std::fmt;

/// Per-channel utilization numbers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChannelStats {
    /// Channel description (endpoint names).
    pub name: String,
    /// Transfers carried.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Cycles the carrying link was occupied by this system's traffic.
    pub busy_cycles: u64,
}

mce_obs::json_codec! { struct ChannelStats { name, transfers, bytes, busy_cycles } }

/// Per-memory-module utilization numbers.
///
/// Counters cover *CPU-demand* accesses: a backing module (an L2 in the
/// multi-level extension) that serves no data structure directly shows
/// zero here — its effect is visible in the per-link byte counters and in
/// the latency instead. This keeps `Σ modules.accesses == SimStats::accesses`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModuleStats {
    /// Module instance name.
    pub name: String,
    /// Accesses served by (or demanded of) the module.
    pub accesses: u64,
    /// Accesses served on-chip without a DRAM round trip.
    pub hits: u64,
}

mce_obs::json_codec! { struct ModuleStats { name, accesses, hits } }

impl ModuleStats {
    /// The module's local hit ratio (0.0 when unused).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Per-data-structure latency numbers: which application structure is
/// actually hurting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DsLatencyStats {
    /// Data-structure name.
    pub name: String,
    /// Accesses issued to the structure.
    pub accesses: u64,
    /// Total memory latency its accesses accumulated, cycles.
    pub total_latency: u64,
}

mce_obs::json_codec! { struct DsLatencyStats { name, accesses, total_latency } }

impl DsLatencyStats {
    /// Average latency per access (0.0 when unused).
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }
}

/// The metrics the exploration trades off, plus supporting detail.
///
/// `avg_latency_cycles` is the paper's "average memory latency, including
/// the latency due to the memory modules, as well as the latency due to the
/// connectivity" (cache misses, bus multiplexing, bus conflicts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Accesses simulated.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Accesses served on-chip ("hits" in the Figure 3 sense).
    pub on_chip_hits: u64,
    /// Average memory latency per access, cycles.
    pub avg_latency_cycles: f64,
    /// Average energy per access, nJ.
    pub avg_energy_nj: f64,
    /// Total simulated time, CPU cycles.
    pub total_cycles: u64,
    /// Total energy, nJ.
    pub total_energy_nj: f64,
    /// Per-link utilization (one entry per connectivity link).
    pub links: Vec<ChannelStats>,
    /// Per-memory-module counters (one entry per module, DRAM included).
    pub modules: Vec<ModuleStats>,
    /// Per-data-structure latency (one entry per structure).
    pub data_structures: Vec<DsLatencyStats>,
}

mce_obs::json_codec! {
    struct SimStats {
        accesses, reads, on_chip_hits, avg_latency_cycles, avg_energy_nj, total_cycles,
        total_energy_nj, links, modules, data_structures,
    }
}

impl SimStats {
    /// Miss ratio in the paper's Figure 3 sense: the fraction of accesses
    /// that had to go off-chip.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.on_chip_hits as f64 / self.accesses as f64
        }
    }

    /// Utilization of link `i` relative to total simulated time.
    pub fn link_utilization(&self, i: usize) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.links[i].busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, avg latency {:.2} cyc, avg energy {:.2} nJ, miss ratio {:.3}",
            self.accesses,
            self.avg_latency_cycles,
            self.avg_energy_nj,
            self.miss_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_empty_is_zero() {
        assert_eq!(SimStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_computation() {
        let s = SimStats {
            accesses: 100,
            on_chip_hits: 80,
            ..SimStats::default()
        };
        assert!((s.miss_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_guards_zero_time() {
        let s = SimStats {
            links: vec![ChannelStats {
                busy_cycles: 10,
                ..ChannelStats::default()
            }],
            ..SimStats::default()
        };
        assert_eq!(s.link_utilization(0), 0.0);
    }

    #[test]
    fn ds_latency_avg() {
        let d = DsLatencyStats {
            name: "htab".into(),
            accesses: 4,
            total_latency: 10,
        };
        assert!((d.avg_latency() - 2.5).abs() < 1e-12);
        assert_eq!(DsLatencyStats::default().avg_latency(), 0.0);
    }

    #[test]
    fn module_hit_ratio() {
        let m = ModuleStats {
            name: "L1".into(),
            accesses: 10,
            hits: 7,
        };
        assert!((m.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(ModuleStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn display_contains_metrics() {
        let s = SimStats {
            accesses: 10,
            avg_latency_cycles: 5.25,
            avg_energy_nj: 7.5,
            ..SimStats::default()
        };
        let out = s.to_string();
        assert!(out.contains("5.25"), "{out}");
        assert!(out.contains("7.5"), "{out}");
    }
}
