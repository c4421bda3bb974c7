//! Hierarchical clustering of BRG arcs into logical connections.
//!
//! "In order to allow different communication channels to share the same
//! connectivity module, we hierarchically cluster the BRG arcs into logical
//! connections, based on the bandwidth requirement of each channel. We
//! first group the channels with the lowest bandwidth requirements into
//! logical connections. We label each such cluster with the cumulative
//! bandwidth of the individual channels, and continue the hierarchical
//! clustering."
//!
//! Merging is constrained to the same side of the chip boundary: an on-chip
//! channel and an off-chip channel can never share a component. The level-0
//! clustering keeps every arc separate (the naive one-component-per-channel
//! architecture); the final level has one on-chip and one off-chip cluster
//! (the fully shared busses).

use crate::brg::Brg;
use mce_appmodel::rng::{mix64, GOLDEN_GAMMA};
use std::fmt;

/// A logical connection: a set of BRG arcs that will share one connectivity
/// component.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Indices into [`Brg::arcs`].
    pub arcs: Vec<usize>,
    /// Cumulative bandwidth of the member channels, bytes/cycle.
    pub bandwidth: f64,
    /// Chip-boundary side of every member.
    pub off_chip: bool,
}

impl Cluster {
    /// Number of channels in the logical connection (the port count its
    /// component must support).
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Clusters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}} {:.4} B/cyc{}",
            self.arcs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.bandwidth,
            if self.off_chip { " off-chip" } else { "" }
        )
    }
}

/// A complete clustering level: every BRG arc belongs to exactly one
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// The logical connections at this level.
    pub clusters: Vec<Cluster>,
}

impl Clustering {
    /// Number of logical connections.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Clusterings are non-empty for non-empty BRGs.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

impl fmt::Display for Clustering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]",
            self.clusters
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        )
    }
}

/// The merge order used by the hierarchical clustering — the paper merges
/// lowest-bandwidth first; the alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterOrder {
    /// Merge the two lowest-bandwidth clusters (the paper's rule: cheap
    /// channels share hardware first, hot channels keep private links
    /// longest).
    #[default]
    LowestFirst,
    /// Merge the two highest-bandwidth clusters (anti-paper control).
    HighestFirst,
    /// Merge a deterministic pseudo-random pair (seeded by level).
    Random(u64),
}

/// Produces the full sequence of clustering levels for `brg`, from
/// all-separate (level 0) down to one cluster per chip-boundary side.
///
/// Each level merges exactly one pair (the paper's
/// "merge the two logical connection clusters with lowest bandwidth
/// requirement hierarchically into a larger cluster"), so for `n` arcs on
/// `s` sides there are `n - s + 1` levels.
pub fn cluster_levels(brg: &Brg, order: ClusterOrder) -> Vec<Clustering> {
    let mut current: Vec<Cluster> = brg
        .arcs()
        .iter()
        .enumerate()
        .map(|(i, a)| Cluster {
            arcs: vec![i],
            bandwidth: a.bandwidth,
            off_chip: a.channel.off_chip,
        })
        .collect();
    let mut levels = vec![Clustering {
        clusters: current.clone(),
    }];
    let mut step = 0u64;
    while let Some((i, j)) = pick_merge(&current, order, step) {
        let b = current.remove(j.max(i));
        let a = current.remove(j.min(i));
        let mut arcs = a.arcs;
        arcs.extend(b.arcs);
        arcs.sort_unstable();
        current.push(Cluster {
            arcs,
            bandwidth: a.bandwidth + b.bandwidth,
            off_chip: a.off_chip,
        });
        // Keep a canonical presentation order: on-chip first, then by first
        // member arc.
        current.sort_by_key(|c| (c.off_chip, c.arcs[0]));
        levels.push(Clustering {
            clusters: current.clone(),
        });
        step += 1;
    }
    levels
}

/// Picks the pair of same-side clusters to merge, per the order rule.
fn pick_merge(clusters: &[Cluster], order: ClusterOrder, step: u64) -> Option<(usize, usize)> {
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for i in 0..clusters.len() {
        for j in (i + 1)..clusters.len() {
            if clusters[i].off_chip == clusters[j].off_chip {
                candidates.push((i, j));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let key = |&(i, j): &(usize, usize)| clusters[i].bandwidth + clusters[j].bandwidth;
    match order {
        ClusterOrder::LowestFirst => candidates
            .iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .copied(),
        ClusterOrder::HighestFirst => candidates
            .iter()
            .max_by(|a, b| key(a).total_cmp(&key(b)))
            .copied(),
        ClusterOrder::Random(seed) => {
            // splitmix64 over (seed, step) for a deterministic pick.
            let x = mix64(seed ^ step.wrapping_mul(GOLDEN_GAMMA));
            Some(candidates[(x % candidates.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::{benchmarks, DsId};
    use mce_memlib::{CacheConfig, MemModuleKind, MemoryArchitecture};

    const N: usize = 20_000;

    fn li_dma_brg() -> Brg {
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
            .module("sp", MemModuleKind::Sram { bytes: 4096 })
            .map(DsId::new(0), 1) // cons_heap -> dma
            .map(DsId::new(2), 2) // eval_stack -> sram
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        Brg::profile(&w, &mem, N)
    }

    #[test]
    fn level_zero_is_all_separate() {
        let brg = li_dma_brg();
        let levels = cluster_levels(&brg, ClusterOrder::LowestFirst);
        assert_eq!(levels[0].len(), brg.arcs().len());
        assert!(levels[0].clusters.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn final_level_one_cluster_per_side() {
        let brg = li_dma_brg();
        let levels = cluster_levels(&brg, ClusterOrder::LowestFirst);
        let last = levels.last().unwrap();
        let on: Vec<_> = last.clusters.iter().filter(|c| !c.off_chip).collect();
        let off: Vec<_> = last.clusters.iter().filter(|c| c.off_chip).collect();
        assert_eq!(on.len(), 1);
        assert_eq!(off.len(), 1);
    }

    #[test]
    fn level_count_formula() {
        let brg = li_dma_brg();
        let levels = cluster_levels(&brg, ClusterOrder::LowestFirst);
        // n arcs, 2 sides -> n - 2 merges -> n - 1 levels.
        assert_eq!(levels.len(), brg.arcs().len() - 1);
    }

    #[test]
    fn every_level_partitions_all_arcs() {
        let brg = li_dma_brg();
        for level in cluster_levels(&brg, ClusterOrder::LowestFirst) {
            let mut seen: Vec<usize> = level.clusters.iter().flat_map(|c| c.arcs.clone()).collect();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..brg.arcs().len()).collect();
            assert_eq!(seen, expect, "level {level}");
        }
    }

    #[test]
    fn merges_never_cross_chip_boundary() {
        let brg = li_dma_brg();
        for level in cluster_levels(&brg, ClusterOrder::LowestFirst) {
            for c in &level.clusters {
                for &a in &c.arcs {
                    assert_eq!(brg.arcs()[a].channel.off_chip, c.off_chip);
                }
            }
        }
    }

    #[test]
    fn lowest_first_merges_coldest_channels() {
        let brg = li_dma_brg();
        let levels = cluster_levels(&brg, ClusterOrder::LowestFirst);
        // After the first merge, the merged pair must be the two coldest
        // same-side arcs.
        let merged = levels[1]
            .clusters
            .iter()
            .find(|c| c.len() == 2)
            .expect("one pair merged");
        let side_arcs: Vec<(usize, f64)> = brg
            .arcs()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.channel.off_chip == merged.off_chip)
            .map(|(i, a)| (i, a.bandwidth))
            .collect();
        let mut sorted = side_arcs.clone();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
        let coldest: Vec<usize> = sorted.iter().take(2).map(|(i, _)| *i).collect();
        let mut expect = coldest.clone();
        expect.sort_unstable();
        assert_eq!(merged.arcs, expect);
    }

    #[test]
    fn cumulative_bandwidth_preserved() {
        let brg = li_dma_brg();
        let total: f64 = brg.arcs().iter().map(|a| a.bandwidth).sum();
        for level in cluster_levels(&brg, ClusterOrder::LowestFirst) {
            let sum: f64 = level.clusters.iter().map(|c| c.bandwidth).sum();
            assert!((sum - total).abs() < 1e-9, "level sum {sum} vs {total}");
        }
    }

    #[test]
    fn orders_differ() {
        let brg = li_dma_brg();
        let low = cluster_levels(&brg, ClusterOrder::LowestFirst);
        let high = cluster_levels(&brg, ClusterOrder::HighestFirst);
        assert_eq!(low.len(), high.len());
        assert_ne!(
            low[1], high[1],
            "different merge orders pick different pairs"
        );
    }

    #[test]
    fn random_order_is_deterministic() {
        let brg = li_dma_brg();
        let a = cluster_levels(&brg, ClusterOrder::Random(7));
        let b = cluster_levels(&brg, ClusterOrder::Random(7));
        assert_eq!(a, b);
    }
}
