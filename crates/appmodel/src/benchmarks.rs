//! The paper's three evaluation workloads, as synthetic models.
//!
//! The paper evaluated SPEC95 `compress` and `li`, and a GSM `vocoder`
//! voice-encoding application, traced with SHADE on SPARC. We model each as
//! its dominant data structures with the access patterns those programs are
//! known for; the mixes are chosen so that the *memory behaviour* matches the
//! published characteristics:
//!
//! * `compress` and `li` are dominated by cache-hostile pointer/hash traffic,
//!   so their cache-only average latency is high and pattern-specific modules
//!   (self-indirect DMAs, stream buffers) buy an order of magnitude — the
//!   spread Table 1 shows (≈70 → ≈6 cycles).
//! * `vocoder` is a stream-dominated DSP kernel with small hot state, so its
//!   absolute latencies and costs are much smaller (Table 1's ≈16 → ≈3.4
//!   cycles at ≈6× lower cost).
//!
//! Each function returns a fresh [`Workload`]; pass a different seed via
//! [`WorkloadBuilder`] manually if you need trace variation.

use crate::data_structure::DataStructure;
use crate::pattern::AccessPattern;
use crate::rng::{mix64, GOLDEN_GAMMA};
use crate::workload::{Phase, Workload, WorkloadBuilder};

/// SPEC95 `compress` model: LZW compression.
///
/// Dominated by a large self-indirect hash table of code chains (the
/// `htab`/`codetab` pair), fed by an input byte stream and producing an
/// output code stream, with a small hot working set of locals.
///
/// ```
/// let w = mce_appmodel::benchmarks::compress();
/// assert_eq!(w.name(), "compress");
/// assert!(w.len() >= 5);
/// ```
pub fn compress() -> Workload {
    WorkloadBuilder::new("compress")
        .data_structure(
            // htab: hash-chain probing, value-dependent -> self-indirect.
            DataStructure::new("htab", 256 * 1024, 8, AccessPattern::SelfIndirect)
                .with_hotness(34.0)
                .with_write_fraction(0.30),
        )
        .data_structure(
            // codetab: indexed by hash results.
            DataStructure::new(
                "codetab",
                128 * 1024,
                4,
                AccessPattern::Indexed { index_stride: 4 },
            )
            .with_hotness(14.0)
            .with_write_fraction(0.25),
        )
        .data_structure(
            DataStructure::new(
                "input_stream",
                512 * 1024,
                1,
                AccessPattern::Stream { stride: 1 },
            )
            .with_hotness(18.0)
            .with_write_fraction(0.0),
        )
        .data_structure(
            DataStructure::new(
                "output_stream",
                256 * 1024,
                2,
                AccessPattern::Stream { stride: 2 },
            )
            .with_hotness(9.0)
            .with_write_fraction(1.0),
        )
        .data_structure(
            DataStructure::new("locals", 2 * 1024, 4, AccessPattern::Stack)
                .with_hotness(20.0)
                .with_write_fraction(0.45),
        )
        .data_structure(
            DataStructure::new(
                "globals",
                8 * 1024,
                4,
                AccessPattern::LoopNest {
                    working_set: 512,
                    reuse: 8,
                },
            )
            .with_hotness(5.0)
            .with_write_fraction(0.2),
        )
        .seed(0xC0_4E55)
        .compute_gap(2)
        .build()
}

/// SPEC95 `li` model: the xlisp interpreter.
///
/// Dominated by cons-cell pointer chasing over a garbage-collected heap —
/// the archetypal linked-list (self-indirect) workload — plus a symbol table
/// and an evaluation stack.
///
/// ```
/// let w = mce_appmodel::benchmarks::li();
/// assert_eq!(w.name(), "li");
/// ```
pub fn li() -> Workload {
    WorkloadBuilder::new("li")
        .data_structure(
            DataStructure::new("cons_heap", 512 * 1024, 8, AccessPattern::SelfIndirect)
                .with_hotness(42.0)
                .with_write_fraction(0.20),
        )
        .data_structure(
            DataStructure::new(
                "symbol_table",
                64 * 1024,
                8,
                AccessPattern::Indexed { index_stride: 8 },
            )
            .with_hotness(12.0)
            .with_write_fraction(0.10),
        )
        .data_structure(
            DataStructure::new("eval_stack", 4 * 1024, 4, AccessPattern::Stack)
                .with_hotness(26.0)
                .with_write_fraction(0.50),
        )
        .data_structure(
            DataStructure::new(
                "string_space",
                128 * 1024,
                1,
                AccessPattern::Stream { stride: 1 },
            )
            .with_hotness(8.0)
            .with_write_fraction(0.15),
        )
        .data_structure(
            DataStructure::new(
                "globals",
                4 * 1024,
                4,
                AccessPattern::LoopNest {
                    working_set: 256,
                    reuse: 6,
                },
            )
            .with_hotness(12.0)
            .with_write_fraction(0.2),
        )
        .seed(0x11_51)
        .compute_gap(2)
        .build()
}

/// GSM `vocoder` model: full-rate speech encoder.
///
/// A stream-dominated DSP kernel: speech frames in, coded frames out, with
/// small, intensely reused filter/LPC state. Little irregular traffic, so a
/// modest memory system already performs well — which is why the paper's
/// vocoder costs and latencies are several times smaller than compress/li.
///
/// ```
/// let w = mce_appmodel::benchmarks::vocoder();
/// assert_eq!(w.name(), "vocoder");
/// ```
pub fn vocoder() -> Workload {
    WorkloadBuilder::new("vocoder")
        .data_structure(
            DataStructure::new(
                "speech_in",
                128 * 1024,
                2,
                AccessPattern::Stream { stride: 2 },
            )
            .with_hotness(26.0)
            .with_write_fraction(0.0),
        )
        .data_structure(
            DataStructure::new(
                "frame_out",
                32 * 1024,
                1,
                AccessPattern::Stream { stride: 1 },
            )
            .with_hotness(8.0)
            .with_write_fraction(1.0),
        )
        .data_structure(
            DataStructure::new(
                "lpc_state",
                1024,
                2,
                AccessPattern::LoopNest {
                    working_set: 320,
                    reuse: 12,
                },
            )
            .with_hotness(34.0)
            .with_write_fraction(0.35),
        )
        .data_structure(
            DataStructure::new(
                "filter_taps",
                2 * 1024,
                2,
                AccessPattern::LoopNest {
                    working_set: 512,
                    reuse: 10,
                },
            )
            .with_hotness(22.0)
            .with_write_fraction(0.10),
        )
        .data_structure(
            DataStructure::new(
                "codebook",
                16 * 1024,
                2,
                AccessPattern::Indexed { index_stride: 2 },
            )
            .with_hotness(10.0)
            .with_write_fraction(0.0),
        )
        .seed(0x6537)
        .compute_gap(3)
        .build()
}

/// All three paper workloads, in Table 1 order.
pub fn all() -> Vec<Workload> {
    vec![compress(), li(), vocoder()]
}

/// ADPCM speech codec model (extended set, not in the paper's Table 1).
///
/// Even more stream-dominated than the GSM vocoder: per-sample encode with
/// a tiny predictor state. The cheapest architectures should already serve
/// it well, making it a useful lower-bound workload for regression tests.
pub fn adpcm() -> Workload {
    WorkloadBuilder::new("adpcm")
        .data_structure(
            DataStructure::new("pcm_in", 256 * 1024, 2, AccessPattern::Stream { stride: 2 })
                .with_hotness(35.0)
                .with_write_fraction(0.0),
        )
        .data_structure(
            DataStructure::new(
                "adpcm_out",
                64 * 1024,
                1,
                AccessPattern::Stream { stride: 1 },
            )
            .with_hotness(9.0)
            .with_write_fraction(1.0),
        )
        .data_structure(
            DataStructure::new(
                "predictor",
                256,
                2,
                AccessPattern::LoopNest {
                    working_set: 64,
                    reuse: 16,
                },
            )
            .with_hotness(40.0)
            .with_write_fraction(0.4),
        )
        .data_structure(
            DataStructure::new(
                "step_table",
                512,
                2,
                AccessPattern::Indexed { index_stride: 2 },
            )
            .with_hotness(16.0)
            .with_write_fraction(0.0),
        )
        .seed(0xADCC)
        .compute_gap(3)
        .build()
}

/// JPEG encoder model (extended set): a *phased* workload — block DCT over
/// the image, then quantization table sweeps, then Huffman coding over a
/// pointer-linked symbol table. The phase behaviour is what stresses the
/// time-sampling estimator.
pub fn jpeg() -> Workload {
    WorkloadBuilder::new("jpeg")
        .data_structure(
            // Image blocks: 8x8 tiles -> loop nest with moderate reuse.
            DataStructure::new(
                "image",
                512 * 1024,
                2,
                AccessPattern::LoopNest {
                    working_set: 128,
                    reuse: 4,
                },
            )
            .with_hotness(20.0)
            .with_write_fraction(0.1),
        )
        .data_structure(
            DataStructure::new(
                "dct_coeffs",
                4 * 1024,
                2,
                AccessPattern::LoopNest {
                    working_set: 128,
                    reuse: 8,
                },
            )
            .with_hotness(25.0)
            .with_write_fraction(0.5),
        )
        .data_structure(
            DataStructure::new(
                "quant_tables",
                256,
                2,
                AccessPattern::LoopNest {
                    working_set: 128,
                    reuse: 12,
                },
            )
            .with_hotness(10.0)
            .with_write_fraction(0.0),
        )
        .data_structure(
            DataStructure::new("huffman_tree", 32 * 1024, 8, AccessPattern::SelfIndirect)
                .with_hotness(18.0)
                .with_write_fraction(0.05),
        )
        .data_structure(
            DataStructure::new(
                "bitstream_out",
                128 * 1024,
                1,
                AccessPattern::Stream { stride: 1 },
            )
            .with_hotness(12.0)
            .with_write_fraction(1.0),
        )
        // DCT phase: image + coefficients; quantization: coeffs + tables;
        // entropy coding: huffman tree + output stream.
        .phase(Phase::new("dct", 4_000, vec![2.0, 1.5, 0.1, 0.0, 0.0]))
        .phase(Phase::new("quant", 2_000, vec![0.1, 2.0, 2.0, 0.0, 0.1]))
        .phase(Phase::new("entropy", 4_000, vec![0.0, 0.5, 0.1, 2.5, 2.0]))
        .seed(0x1BE6)
        .compute_gap(2)
        .build()
}

/// The extended (non-paper) workload models used by regression tests and
/// ablations.
pub fn extended() -> Vec<Workload> {
    vec![adpcm(), jpeg()]
}

/// A random but valid workload, for property-based testing of the whole
/// pipeline: 2–6 data structures with random patterns, footprints, element
/// sizes, hotness and write mixes, all drawn deterministically from `seed`.
pub fn random_workload(seed: u64) -> Workload {
    // A splitmix64 stream over the seed.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(GOLDEN_GAMMA);
        mix64(state)
    };
    let n = 2 + (next() % 5) as usize;
    let mut builder = WorkloadBuilder::new(format!("random_{seed:x}"));
    for i in 0..n {
        let elem = 1u64 << (next() % 4); // 1..8 B
        let footprint = elem.max(1024 << (next() % 10)); // 1 KiB .. 512 KiB
        let pattern = match next() % 6 {
            0 => AccessPattern::Stream { stride: elem },
            1 => AccessPattern::SelfIndirect,
            2 => AccessPattern::Indexed { index_stride: elem },
            3 => AccessPattern::LoopNest {
                working_set: (64 << (next() % 5)).min(footprint),
                reuse: 2 + (next() % 8) as u32,
            },
            4 => AccessPattern::Random,
            _ => AccessPattern::Stack,
        };
        let hotness = 1.0 + (next() % 20) as f64;
        let write_fraction = (next() % 101) as f64 / 100.0;
        builder = builder.data_structure(
            DataStructure::new(format!("ds{i}"), footprint, elem, pattern)
                .with_hotness(hotness)
                .with_write_fraction(write_fraction),
        );
    }
    builder.seed(next()).build()
}

/// A synthetic mixed workload used by extended tests and ablations: equal
/// parts of every pattern class. Not part of the paper's evaluation.
pub fn synthetic_mix(seed: u64) -> Workload {
    WorkloadBuilder::new("synthetic_mix")
        .data_structure(DataStructure::new(
            "stream",
            64 * 1024,
            4,
            AccessPattern::Stream { stride: 4 },
        ))
        .data_structure(DataStructure::new(
            "chase",
            64 * 1024,
            8,
            AccessPattern::SelfIndirect,
        ))
        .data_structure(DataStructure::new(
            "table",
            64 * 1024,
            4,
            AccessPattern::Indexed { index_stride: 4 },
        ))
        .data_structure(DataStructure::new(
            "loop",
            16 * 1024,
            4,
            AccessPattern::LoopNest {
                working_set: 1024,
                reuse: 4,
            },
        ))
        .data_structure(DataStructure::new(
            "rand",
            64 * 1024,
            4,
            AccessPattern::Random,
        ))
        .data_structure(DataStructure::new(
            "stack",
            4 * 1024,
            4,
            AccessPattern::Stack,
        ))
        .seed(seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AccessPattern;
    use crate::profile::AccessProfile;

    #[test]
    fn all_returns_three_paper_workloads() {
        let names: Vec<String> = all().iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(names, vec!["compress", "li", "vocoder"]);
    }

    #[test]
    fn compress_is_pointer_dominated() {
        let w = compress();
        let p = AccessProfile::from_workload(&w, 50_000);
        // Accesses attributable to self-indirect + indexed structures should
        // be a large share — that is what makes cache-only architectures slow.
        let hostile: u64 = w
            .data_structures()
            .iter()
            .enumerate()
            .filter(|(_, ds)| {
                matches!(
                    ds.pattern(),
                    AccessPattern::SelfIndirect | AccessPattern::Indexed { .. }
                )
            })
            .map(|(i, _)| p.ds_stats(crate::DsId::new(i)).accesses)
            .sum();
        assert!(
            hostile as f64 > 0.35 * p.total_accesses() as f64,
            "hostile share too small: {hostile}"
        );
    }

    #[test]
    fn vocoder_is_stream_dominated() {
        let w = vocoder();
        let p = AccessProfile::from_workload(&w, 50_000);
        let streamy: u64 = w
            .data_structures()
            .iter()
            .enumerate()
            .filter(|(_, ds)| {
                matches!(
                    ds.pattern(),
                    AccessPattern::Stream { .. } | AccessPattern::LoopNest { .. }
                )
            })
            .map(|(i, _)| p.ds_stats(crate::DsId::new(i)).accesses)
            .sum();
        assert!(
            streamy as f64 > 0.7 * p.total_accesses() as f64,
            "stream share too small: {streamy}"
        );
    }

    #[test]
    fn li_has_largest_pointer_footprint() {
        let w = li();
        let chase = w
            .data_structures()
            .iter()
            .find(|d| d.pattern() == AccessPattern::SelfIndirect)
            .expect("li must have a self-indirect structure");
        assert!(chase.footprint() >= 256 * 1024);
    }

    #[test]
    fn workloads_have_disjoint_layouts() {
        for w in all() {
            let layout = w.layout();
            for i in 0..layout.len() {
                for j in (i + 1)..layout.len() {
                    assert!(
                        !layout[i].overlaps(layout[j]),
                        "{}: {i} overlaps {j}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn adpcm_is_tiny_and_stream_heavy() {
        let w = adpcm();
        let p = AccessProfile::from_workload(&w, 20_000);
        let hot_state = w
            .data_structures()
            .iter()
            .position(|d| d.name() == "predictor")
            .unwrap();
        assert!(
            p.ds_stats(crate::DsId::new(hot_state)).accesses > 5_000,
            "predictor state must dominate"
        );
    }

    #[test]
    fn jpeg_phases_separate_traffic() {
        let w = jpeg();
        assert_eq!(w.phases().len(), 3);
        let trace: Vec<_> = w.trace(10_000).collect();
        let huffman = w
            .data_structures()
            .iter()
            .position(|d| d.name() == "huffman_tree")
            .unwrap();
        // The DCT phase (first 4000 accesses) never touches the tree.
        let early = trace[..4000]
            .iter()
            .filter(|a| a.ds == crate::DsId::new(huffman))
            .count();
        let late = trace[6000..]
            .iter()
            .filter(|a| a.ds == crate::DsId::new(huffman))
            .count();
        assert_eq!(early, 0);
        assert!(late > 500, "entropy phase must chase the tree: {late}");
    }

    #[test]
    fn extended_set_validates() {
        for w in extended() {
            assert!(w.len() >= 4);
            assert_eq!(w.trace(100).count(), 100);
        }
    }

    #[test]
    fn synthetic_mix_covers_all_patterns() {
        let w = synthetic_mix(1);
        assert_eq!(w.len(), 6);
        let traced: Vec<_> = w.trace(100).collect();
        assert_eq!(traced.len(), 100);
    }
}
