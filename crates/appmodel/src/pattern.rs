//! Access-pattern generators.
//!
//! The paper classifies application traffic by *access pattern*: streams,
//! self-indirect array/list references ("the array references which use the
//! current array element value to compute the index for the next array
//! element access"), indexed (A\[B\[i\]\]) references, loop nests with
//! temporal reuse, and irregular scalar traffic. APEX matches memory modules
//! to these patterns (stream buffers to streams, linked-list DMAs to
//! self-indirect traversals, SRAMs to hot small structures, caches to
//! everything with locality), so the generators here are what ultimately
//! drives the whole exploration.
//!
//! Every generator is deterministic given the workload seed, which keeps the
//! experiments and tests reproducible.

use crate::rng::{mix64, Rng, GOLDEN_GAMMA};
use std::fmt;

/// The access pattern a data structure exhibits.
///
/// ```
/// use mce_appmodel::AccessPattern;
/// let p = AccessPattern::Stream { stride: 4 };
/// assert_eq!(p.to_string(), "stream(stride=4)");
/// assert!(p.is_prefetchable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Sequential walk with a fixed stride in bytes (e.g. input/output byte
    /// streams of `compress`, sample buffers of `vocoder`).
    Stream {
        /// Distance in bytes between consecutive accesses.
        stride: u64,
    },
    /// Value-dependent chasing: the value loaded at the current element
    /// determines the next index (linked lists, `li`'s cons cells,
    /// `compress`'s hash-chain probes). Modelled as a deterministic
    /// pseudo-random permutation walk over the footprint — cache-hostile but
    /// perfectly predictable to a module that understands the dependency
    /// (the paper's linked-list/self-indirect DMA).
    SelfIndirect,
    /// Two-level indexed access `A[B[i]]`: a sequential index stream plus a
    /// data access whose location is scattered over the footprint.
    Indexed {
        /// Element size of the sequential index array in bytes.
        index_stride: u64,
    },
    /// Loop nest sweeping a working set repeatedly before moving on: high
    /// temporal locality, the cache-friendly pattern.
    LoopNest {
        /// Bytes touched per reuse window.
        working_set: u64,
        /// Number of sweeps over a window before advancing to the next.
        reuse: u32,
    },
    /// Uniform random accesses over the footprint: irregular scalar and
    /// global traffic with little locality.
    Random,
    /// Stack-like access: random walk biased around a moving top-of-stack,
    /// small working set, very high locality.
    Stack,
}

mce_obs::json_codec! {
    enum AccessPattern {
        Stream { stride },
        SelfIndirect,
        Indexed { index_stride },
        LoopNest { working_set, reuse },
        Random,
        Stack,
    }
}

impl AccessPattern {
    /// True if a pattern-specific memory module (stream buffer or
    /// self-indirect DMA) can prefetch this traffic ahead of the CPU.
    pub const fn is_prefetchable(self) -> bool {
        matches!(
            self,
            AccessPattern::Stream { .. }
                | AccessPattern::SelfIndirect
                | AccessPattern::Indexed { .. }
        )
    }

    /// True if the pattern exhibits enough spatial/temporal locality that a
    /// cache serves it well.
    pub const fn is_cache_friendly(self) -> bool {
        matches!(
            self,
            AccessPattern::Stream { .. } | AccessPattern::LoopNest { .. } | AccessPattern::Stack
        )
    }

    /// Creates the generator state for this pattern over a footprint of
    /// `footprint` bytes with elements of `element_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` or `element_size` is zero.
    pub fn generator(self, footprint: u64, element_size: u64) -> PatternGen {
        assert!(footprint > 0, "footprint must be non-zero");
        assert!(element_size > 0, "element size must be non-zero");
        PatternGen {
            pattern: self,
            footprint,
            element_size,
            cursor: 0,
            aux: 0,
            sweep: 0,
        }
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Stream { stride } => write!(f, "stream(stride={stride})"),
            AccessPattern::SelfIndirect => write!(f, "self-indirect"),
            AccessPattern::Indexed { index_stride } => write!(f, "indexed(idx={index_stride})"),
            AccessPattern::LoopNest { working_set, reuse } => {
                write!(f, "loop(ws={working_set},reuse={reuse})")
            }
            AccessPattern::Random => write!(f, "random"),
            AccessPattern::Stack => write!(f, "stack"),
        }
    }
}

/// Mutable state that produces the byte-offset sequence of one pattern.
///
/// Offsets are relative to the owning data structure's base address and are
/// always `< footprint`.
#[derive(Debug, Clone)]
pub struct PatternGen {
    pattern: AccessPattern,
    footprint: u64,
    element_size: u64,
    /// Current position (meaning depends on the pattern).
    cursor: u64,
    /// Secondary state: index cursor for `Indexed`, window base for
    /// `LoopNest`, stack depth for `Stack`.
    aux: u64,
    /// Sweep counter for `LoopNest`; phase bit for `Indexed`.
    sweep: u32,
}

impl PatternGen {
    /// The pattern this generator realizes.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Produces the next byte offset within the footprint.
    ///
    /// `rng` is only consulted by the stochastic patterns (`Random`,
    /// `Stack`, and the scatter half of `Indexed`); the regular patterns are
    /// purely a function of their own state so that a prefetching module can
    /// model them exactly.
    pub fn next_offset(&mut self, rng: &mut Rng) -> u64 {
        let fp = self.footprint;
        let elem = self.element_size;
        let n_elems = (fp / elem).max(1);
        match self.pattern {
            AccessPattern::Stream { stride } => {
                let off = self.cursor % fp;
                self.cursor = (self.cursor + stride.max(1)) % fp;
                off
            }
            AccessPattern::SelfIndirect => {
                let idx = self.cursor % n_elems;
                let off = idx * elem;
                // Next index is a deterministic function of the current
                // element "value" — a pseudo-random permutation walk.
                self.cursor =
                    mix64(idx.wrapping_add(self.aux).wrapping_add(GOLDEN_GAMMA)) % n_elems;
                self.aux = self.aux.wrapping_add(1);
                off
            }
            AccessPattern::Indexed { index_stride } => {
                if self.sweep == 0 {
                    // Index read: sequential over the front of the footprint.
                    self.sweep = 1;
                    let off = self.aux % fp;
                    self.aux = (self.aux + index_stride.max(1)) % fp;
                    off
                } else {
                    // Data read: scattered.
                    self.sweep = 0;
                    (rng.next_u64() % n_elems) * elem
                }
            }
            AccessPattern::LoopNest { working_set, reuse } => {
                let ws = working_set.clamp(elem, fp);
                let win_base = self.aux % fp;
                let off = (win_base + self.cursor) % fp;
                self.cursor += elem;
                if self.cursor >= ws {
                    self.cursor = 0;
                    self.sweep += 1;
                    if self.sweep >= reuse.max(1) {
                        self.sweep = 0;
                        self.aux = (self.aux + ws) % fp;
                    }
                }
                off
            }
            AccessPattern::Random => (rng.next_u64() % n_elems) * elem,
            AccessPattern::Stack => {
                // Random walk of the stack depth, accesses near the top.
                if rng.next_bool() {
                    self.aux = (self.aux + 1).min(n_elems.saturating_sub(1));
                } else {
                    self.aux = self.aux.saturating_sub(1);
                }
                self.aux * elem
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn offsets(p: AccessPattern, fp: u64, elem: u64, n: usize) -> Vec<u64> {
        let mut g = p.generator(fp, elem);
        let mut r = rng();
        (0..n).map(|_| g.next_offset(&mut r)).collect()
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let o = offsets(AccessPattern::Stream { stride: 4 }, 16, 4, 6);
        assert_eq!(o, vec![0, 4, 8, 12, 0, 4]);
    }

    #[test]
    fn all_offsets_within_footprint() {
        let pats = [
            AccessPattern::Stream { stride: 8 },
            AccessPattern::SelfIndirect,
            AccessPattern::Indexed { index_stride: 4 },
            AccessPattern::LoopNest {
                working_set: 64,
                reuse: 3,
            },
            AccessPattern::Random,
            AccessPattern::Stack,
        ];
        for p in pats {
            for off in offsets(p, 1024, 8, 500) {
                assert!(off < 1024, "{p}: offset {off} out of footprint");
            }
        }
    }

    #[test]
    fn self_indirect_is_deterministic() {
        let a = offsets(AccessPattern::SelfIndirect, 4096, 8, 100);
        let b = offsets(AccessPattern::SelfIndirect, 4096, 8, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn self_indirect_scatters() {
        // The walk should touch many distinct elements (cache-hostile).
        let o = offsets(AccessPattern::SelfIndirect, 8192, 8, 512);
        let distinct: std::collections::HashSet<_> = o.iter().collect();
        assert!(
            distinct.len() > 200,
            "only {} distinct offsets",
            distinct.len()
        );
    }

    #[test]
    fn loop_nest_reuses_window() {
        let o = offsets(
            AccessPattern::LoopNest {
                working_set: 32,
                reuse: 4,
            },
            4096,
            8,
            16,
        );
        // First window is offsets 0..32 in element steps, swept 4 times.
        assert_eq!(&o[0..4], &[0, 8, 16, 24]);
        assert_eq!(&o[4..8], &[0, 8, 16, 24]);
    }

    #[test]
    fn loop_nest_advances_after_reuse() {
        let o = offsets(
            AccessPattern::LoopNest {
                working_set: 16,
                reuse: 2,
            },
            4096,
            8,
            8,
        );
        assert_eq!(o, vec![0, 8, 0, 8, 16, 24, 16, 24]);
    }

    #[test]
    fn stack_offsets_are_element_aligned() {
        for off in offsets(AccessPattern::Stack, 4096, 16, 200) {
            assert_eq!(off % 16, 0);
        }
    }

    #[test]
    fn indexed_alternates_sequential_and_scatter() {
        let o = offsets(AccessPattern::Indexed { index_stride: 4 }, 4096, 4, 8);
        // Even positions are the sequential index stream.
        assert_eq!(o[0], 0);
        assert_eq!(o[2], 4);
        assert_eq!(o[4], 8);
        assert_eq!(o[6], 12);
    }

    #[test]
    fn pattern_classification() {
        assert!(AccessPattern::Stream { stride: 1 }.is_prefetchable());
        assert!(AccessPattern::SelfIndirect.is_prefetchable());
        assert!(!AccessPattern::Random.is_prefetchable());
        assert!(AccessPattern::LoopNest {
            working_set: 1,
            reuse: 1
        }
        .is_cache_friendly());
        assert!(!AccessPattern::SelfIndirect.is_cache_friendly());
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_rejected() {
        let _ = AccessPattern::Random.generator(0, 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(AccessPattern::SelfIndirect.to_string(), "self-indirect");
        assert_eq!(AccessPattern::Random.to_string(), "random");
    }
}
