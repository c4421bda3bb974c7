//! Candidate memory-architecture generation.
//!
//! APEX generates cache-only baselines over a size sweep, plus augmented
//! architectures that give the hottest extracted patterns their own
//! pattern-specific modules: stream buffers for streams, self-indirect DMAs
//! for value-dependent traffic, SRAM scratchpads for small hot structures.
//! Augmentations are applied as subsets of the hottest-first option list so
//! the candidate set covers "cheap single fix" through "all fixes" without
//! exploding combinatorially.

use crate::extract::{PatternClass, PatternReport};
use mce_appmodel::{DsId, Workload};
use mce_memlib::{CacheConfig, MemModuleKind, MemoryArchitecture};

/// Knobs for candidate generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateConfig {
    /// Cache sizes (KiB) for the cache-only baselines.
    pub baseline_cache_kib: Vec<u64>,
    /// Cache sizes (KiB) used as the base of augmented architectures.
    pub augmented_cache_kib: Vec<u64>,
    /// Maximum pattern-specific augmentation options considered (hottest
    /// first); subsets of this list are enumerated, so candidates grow as
    /// `2^max_augmentations`.
    pub max_augmentations: usize,
    /// `(L1 KiB, L2 KiB)` pairs for two-level baselines (the multi-level
    /// extension). Empty — the paper's single-level behaviour — by
    /// default.
    pub two_level_kib: Vec<(u64, u64)>,
}

impl CandidateConfig {
    /// A small sweep for tests and quick runs.
    pub fn fast() -> Self {
        CandidateConfig {
            baseline_cache_kib: vec![1, 4, 16],
            augmented_cache_kib: vec![4],
            max_augmentations: 3,
            two_level_kib: Vec::new(),
        }
    }

    /// The full sweep used by the experiments.
    pub fn paper() -> Self {
        CandidateConfig {
            baseline_cache_kib: vec![1, 2, 4, 8, 16, 32],
            augmented_cache_kib: vec![2, 4, 8],
            max_augmentations: 4,
            two_level_kib: Vec::new(),
        }
    }
}

/// One pattern-specific augmentation option: give `ds` its own module.
#[derive(Debug, Clone, PartialEq)]
struct Augmentation {
    ds: DsId,
    module: MemModuleKind,
    tag: String,
}

/// Derives the augmentation options from the extraction reports, hottest
/// first.
fn augmentations(workload: &Workload, reports: &[PatternReport], cap: usize) -> Vec<Augmentation> {
    let mut out = Vec::new();
    for r in reports {
        let ds = workload.data_structure(r.ds);
        let module = match r.class {
            PatternClass::Stream => {
                // Produced (write-dominated) streams get a FIFO drain queue;
                // consumed streams a prefetching stream buffer.
                if ds.write_fraction() >= 0.5 {
                    Some(MemModuleKind::Fifo {
                        entries: 4,
                        line_bytes: 32,
                    })
                } else {
                    Some(MemModuleKind::StreamBuffer {
                        entries: 4,
                        line_bytes: 32,
                    })
                }
            }
            PatternClass::SelfIndirect | PatternClass::Indexed => {
                Some(MemModuleKind::SelfIndirectDma {
                    depth: 16,
                    element_bytes: ds.element_size().min(64) as u32,
                })
            }
            PatternClass::HotLocal => Some(MemModuleKind::Sram {
                bytes: ds.footprint().next_power_of_two(),
            }),
            PatternClass::Irregular => None,
        };
        if let Some(module) = module {
            let tag_kind = match module {
                MemModuleKind::Fifo { .. } => "fifo",
                _ => short_tag(r.class),
            };
            out.push(Augmentation {
                ds: r.ds,
                module,
                tag: format!("{tag_kind}({})", ds.name()),
            });
            if out.len() == cap {
                break;
            }
        }
    }
    out
}

fn short_tag(class: PatternClass) -> &'static str {
    match class {
        PatternClass::Stream => "sb",
        PatternClass::SelfIndirect | PatternClass::Indexed => "dma",
        PatternClass::HotLocal => "sp",
        PatternClass::Irregular => "cache",
    }
}

/// Generates the candidate memory architectures for `workload` given the
/// extraction `reports`.
///
/// Invalid combinations (e.g. scratchpad overflow) are silently skipped —
/// the generator only proposes, the validator disposes.
pub fn generate_candidates(
    workload: &Workload,
    reports: &[PatternReport],
    config: &CandidateConfig,
) -> Vec<MemoryArchitecture> {
    let mut out = Vec::new();

    // Cache-only baselines (the paper's "traditional" configurations).
    for &kib in &config.baseline_cache_kib {
        out.push(MemoryArchitecture::cache_only(
            workload,
            CacheConfig::kilobytes(kib),
        ));
    }

    // Two-level baselines (extension): L1 backed by an L2.
    for &(l1, l2) in &config.two_level_kib {
        let arch = MemoryArchitecture::builder(format!("c{l1}k+l2_{l2}k"))
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(l1)))
            .module("L2", MemModuleKind::Cache(CacheConfig::kilobytes(l2)))
            .map_rest_to(0)
            .backed_by(0, 1)
            .build(workload);
        if let Ok(arch) = arch {
            out.push(arch);
        }
    }

    // Augmented architectures: every non-empty subset of the option list,
    // on each augmented cache size.
    let options = augmentations(workload, reports, config.max_augmentations);
    for &kib in &config.augmented_cache_kib {
        for mask in 1u32..(1 << options.len()) {
            let chosen: Vec<&Augmentation> = options
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a)
                .collect();
            let mut name = format!("c{kib}k");
            for a in &chosen {
                name.push('+');
                name.push_str(&a.tag);
            }
            let mut builder = MemoryArchitecture::builder(name)
                .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(kib)));
            for (j, a) in chosen.iter().enumerate() {
                builder = builder.module(format!("aug{j}"), a.module).map(a.ds, j + 1);
            }
            if let Ok(arch) = builder.map_rest_to(0).build(workload) {
                out.push(arch);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::classify;
    use mce_appmodel::benchmarks;

    const SAMPLE: usize = 30_000;

    #[test]
    fn baselines_present() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let cands = generate_candidates(&w, &reports, &CandidateConfig::fast());
        let baselines = cands
            .iter()
            .filter(|a| a.on_chip_modules().count() == 1)
            .count();
        assert_eq!(baselines, 3, "one per baseline cache size");
    }

    #[test]
    fn all_candidates_validate() {
        for w in benchmarks::all() {
            let reports = classify(&w, SAMPLE);
            for cand in generate_candidates(&w, &reports, &CandidateConfig::paper()) {
                assert!(cand.validate(&w).is_ok(), "{}: {}", w.name(), cand.name());
            }
        }
    }

    #[test]
    fn compress_gets_a_dma_candidate() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let cands = generate_candidates(&w, &reports, &CandidateConfig::paper());
        assert!(
            cands.iter().any(|a| a.describe().contains("DMA")),
            "compress needs linked-list DMA candidates"
        );
    }

    #[test]
    fn vocoder_gets_stream_buffer_or_sram_candidates() {
        let w = benchmarks::vocoder();
        let reports = classify(&w, SAMPLE);
        let cands = generate_candidates(&w, &reports, &CandidateConfig::paper());
        assert!(cands
            .iter()
            .any(|a| a.describe().contains("stream buffer") || a.describe().contains("SRAM")));
    }

    #[test]
    fn write_streams_get_fifo_not_stream_buffer() {
        // compress's output_stream is 100% writes: it must be offered a
        // FIFO drain queue, never a read-prefetching stream buffer.
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let cands = generate_candidates(
            &w,
            &reports,
            &CandidateConfig {
                baseline_cache_kib: vec![4],
                augmented_cache_kib: vec![4],
                max_augmentations: 6,
                two_level_kib: Vec::new(),
            },
        );
        assert!(
            cands
                .iter()
                .any(|a| a.name().contains("fifo(output_stream)")),
            "no FIFO candidate for output_stream"
        );
        assert!(
            !cands.iter().any(|a| a.name().contains("sb(output_stream)")),
            "output_stream must not get a stream buffer"
        );
    }

    #[test]
    fn candidate_counts_match_formula() {
        let w = benchmarks::li();
        let reports = classify(&w, SAMPLE);
        let cfg = CandidateConfig::fast();
        let cands = generate_candidates(&w, &reports, &cfg);
        // 3 baselines + 1 cache size × (2^k - 1) subsets, k ≤ 3, minus any
        // invalid combos (none expected for li with fast()).
        assert!(cands.len() >= 3);
        assert!(cands.len() < 3 + (1 << cfg.max_augmentations));
    }

    #[test]
    fn two_level_baselines_generated_when_requested() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let cfg = CandidateConfig {
            two_level_kib: vec![(1, 16), (2, 32)],
            ..CandidateConfig::fast()
        };
        let cands = generate_candidates(&w, &reports, &cfg);
        let two_level: Vec<_> = cands.iter().filter(|a| a.name().contains("l2_")).collect();
        assert_eq!(two_level.len(), 2);
        for a in &two_level {
            assert!(a.validate(&w).is_ok());
            assert!(a.backing_of(mce_memlib::ModuleId::new(0)).is_some());
        }
    }

    #[test]
    fn names_are_descriptive() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let cands = generate_candidates(&w, &reports, &CandidateConfig::fast());
        let augmented = cands.iter().find(|a| a.name().contains('+'));
        let a = augmented.expect("some augmented candidate");
        assert!(a.name().starts_with('c'), "{}", a.name());
    }
}
