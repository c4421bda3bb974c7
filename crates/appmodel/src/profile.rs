//! Access profiling.
//!
//! The ConEx algorithm's first step is "Profile the Memory Modules
//! Architecture" — measuring the bandwidth each communication channel needs.
//! An [`AccessProfile`] is the architecture-independent half of that: the
//! per-data-structure access counts and byte volumes from which per-channel
//! bandwidth is derived once a data-structure→module mapping is chosen.

use crate::access::MemAccess;
use crate::data_structure::DsId;
use crate::workload::Workload;
use std::fmt;

/// Per-data-structure dynamic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DsStats {
    /// Total accesses.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Bytes transferred (accesses × element size).
    pub bytes: u64,
}

impl DsStats {
    /// Average bandwidth in bytes per CPU cycle over `elapsed` cycles.
    ///
    /// Returns 0.0 for an empty window.
    pub fn bandwidth(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes as f64 / elapsed as f64
        }
    }
}

/// Summary of a workload's trace: per-structure counts and the elapsed CPU
/// time, from which channel bandwidth requirements are computed.
///
/// ```
/// use mce_appmodel::{benchmarks, AccessProfile};
/// let w = benchmarks::vocoder();
/// let profile = AccessProfile::from_workload(&w, 20_000);
/// assert_eq!(profile.total_accesses(), 20_000);
/// assert!(profile.elapsed_ticks() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessProfile {
    workload_name: String,
    per_ds: Vec<DsStats>,
    elapsed_ticks: u64,
}

impl AccessProfile {
    /// Profiles an access stream against its workload.
    ///
    /// # Panics
    ///
    /// Panics if the stream references a [`DsId`] outside the workload.
    pub fn from_trace<I>(workload: &Workload, trace: I) -> Self
    where
        I: IntoIterator<Item = MemAccess>,
    {
        let mut per_ds = vec![DsStats::default(); workload.len()];
        let mut last_tick = 0;
        for acc in trace {
            let stats = &mut per_ds[acc.ds.index()];
            stats.accesses += 1;
            if acc.kind.is_read() {
                stats.reads += 1;
            } else {
                stats.writes += 1;
            }
            stats.bytes += workload.data_structure(acc.ds).element_size();
            last_tick = last_tick.max(acc.tick);
        }
        AccessProfile {
            workload_name: workload.name().to_owned(),
            per_ds,
            elapsed_ticks: last_tick + 1,
        }
    }

    /// Convenience: generates a fresh `len`-access trace of `workload` and
    /// profiles it.
    pub fn from_workload(workload: &Workload, len: usize) -> Self {
        Self::from_trace(workload, workload.trace(len))
    }

    /// Name of the profiled workload.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Stats for one data structure.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ds_stats(&self, id: DsId) -> DsStats {
        self.per_ds[id.index()]
    }

    /// Iterator over `(DsId, DsStats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DsId, DsStats)> + '_ {
        self.per_ds
            .iter()
            .enumerate()
            .map(|(i, s)| (DsId::new(i), *s))
    }

    /// Number of data structures profiled.
    pub fn len(&self) -> usize {
        self.per_ds.len()
    }

    /// True if the profile covers no data structures.
    pub fn is_empty(&self) -> bool {
        self.per_ds.is_empty()
    }

    /// Total accesses across all structures.
    pub fn total_accesses(&self) -> u64 {
        self.per_ds.iter().map(|s| s.accesses).sum()
    }

    /// Total bytes across all structures.
    pub fn total_bytes(&self) -> u64 {
        self.per_ds.iter().map(|s| s.bytes).sum()
    }

    /// CPU cycles spanned by the profiled window.
    pub fn elapsed_ticks(&self) -> u64 {
        self.elapsed_ticks
    }

    /// Average bandwidth demanded by data structure `id`, bytes/cycle.
    pub fn ds_bandwidth(&self, id: DsId) -> f64 {
        self.ds_stats(id).bandwidth(self.elapsed_ticks)
    }

    /// Data structures ordered by decreasing access count ("most active
    /// access patterns" in APEX terms).
    pub fn hottest_first(&self) -> Vec<DsId> {
        let mut ids: Vec<DsId> = (0..self.per_ds.len()).map(DsId::new).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.per_ds[id.index()].accesses));
        ids
    }
}

impl fmt::Display for AccessProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile of {} over {} cycles ({} accesses):",
            self.workload_name,
            self.elapsed_ticks,
            self.total_accesses()
        )?;
        for (id, s) in self.iter() {
            writeln!(
                f,
                "  {id}: {} accesses ({} R / {} W), {} B, {:.4} B/cyc",
                s.accesses,
                s.reads,
                s.writes,
                s.bytes,
                s.bandwidth(self.elapsed_ticks)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_structure::DataStructure;
    use crate::pattern::AccessPattern;
    use crate::workload::WorkloadBuilder;

    fn workload() -> Workload {
        WorkloadBuilder::new("p")
            .data_structure(
                DataStructure::new("a", 4096, 8, AccessPattern::Random).with_hotness(3.0),
            )
            .data_structure(
                DataStructure::new("b", 4096, 4, AccessPattern::Stream { stride: 4 })
                    .with_hotness(1.0),
            )
            .seed(11)
            .build()
    }

    #[test]
    fn counts_add_up() {
        let w = workload();
        let p = AccessProfile::from_workload(&w, 5000);
        assert_eq!(p.total_accesses(), 5000);
        let (a, b) = (p.ds_stats(DsId::new(0)), p.ds_stats(DsId::new(1)));
        assert_eq!(a.accesses + b.accesses, 5000);
        assert_eq!(a.reads + a.writes, a.accesses);
        assert_eq!(b.reads + b.writes, b.accesses);
    }

    #[test]
    fn bytes_use_element_size() {
        let w = workload();
        let p = AccessProfile::from_workload(&w, 1000);
        let a = p.ds_stats(DsId::new(0));
        let b = p.ds_stats(DsId::new(1));
        assert_eq!(a.bytes, a.accesses * 8);
        assert_eq!(b.bytes, b.accesses * 4);
    }

    #[test]
    fn hottest_first_ordering() {
        let w = workload();
        let p = AccessProfile::from_workload(&w, 10_000);
        let order = p.hottest_first();
        assert_eq!(order[0], DsId::new(0), "hotness 3.0 structure should lead");
    }

    #[test]
    fn bandwidth_is_positive_and_bounded() {
        let w = workload();
        let p = AccessProfile::from_workload(&w, 10_000);
        for (id, _) in p.iter() {
            let bw = p.ds_bandwidth(id);
            assert!(bw > 0.0);
            // Can't exceed element_size bytes per cycle per structure.
            assert!(bw <= 8.0);
        }
    }

    #[test]
    fn empty_trace_profile() {
        let w = workload();
        let p = AccessProfile::from_trace(&w, std::iter::empty());
        assert_eq!(p.total_accesses(), 0);
        assert_eq!(p.ds_bandwidth(DsId::new(0)), 0.0);
    }

    #[test]
    fn zero_elapsed_bandwidth_is_zero() {
        let s = DsStats {
            accesses: 5,
            reads: 5,
            writes: 0,
            bytes: 40,
        };
        assert_eq!(s.bandwidth(0), 0.0);
    }
}
