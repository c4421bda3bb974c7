//! Set-associative cache model.

use crate::module::{ModuleModel, ModuleResponse};
use mce_appmodel::{AccessKind, Addr};
use std::fmt;

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used line.
    #[default]
    Lru,
    /// Evict lines in fill order.
    Fifo,
}

mce_obs::json_codec! { enum ReplacementPolicy { Lru, Fifo } }

/// Write handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Dirty lines are written back on eviction; write hits stay on-chip.
    #[default]
    WriteBack,
    /// Every write is propagated off-chip immediately (as background
    /// traffic through a write buffer).
    WriteThrough,
}

mce_obs::json_codec! { enum WritePolicy { WriteBack, WriteThrough } }

/// Write-miss handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WriteMissPolicy {
    /// Fetch the line and install it (pairs naturally with write-back).
    #[default]
    WriteAllocate,
    /// Send the write past the cache without installing the line (pairs
    /// naturally with write-through; read misses still allocate).
    WriteAround,
}

mce_obs::json_codec! { enum WriteMissPolicy { WriteAllocate, WriteAround } }

/// Static configuration of a set-associative cache.
///
/// ```
/// use mce_memlib::CacheConfig;
/// let c = CacheConfig::kilobytes(8);
/// assert_eq!(c.size_bytes, 8192);
/// assert_eq!(c.num_sets(), 8192 / (32 * 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Write policy.
    pub write: WritePolicy,
    /// Write-miss policy.
    pub write_miss: WriteMissPolicy,
    /// Hit latency in cycles.
    pub hit_cycles: u32,
}

mce_obs::json_codec! {
    struct CacheConfig { size_bytes, line_bytes, ways, replacement, write, write_miss, hit_cycles }
}

impl CacheConfig {
    /// A conventional embedded cache: 32-byte lines, 2-way LRU write-back,
    /// 1-cycle hits, of `kib` KiB capacity.
    ///
    /// # Panics
    ///
    /// Panics if `kib` is zero.
    pub fn kilobytes(kib: u64) -> Self {
        assert!(kib > 0, "cache size must be non-zero");
        CacheConfig {
            size_bytes: kib * 1024,
            line_bytes: 32,
            ways: 2,
            replacement: ReplacementPolicy::Lru,
            write: WritePolicy::WriteBack,
            write_miss: WriteMissPolicy::WriteAllocate,
            hit_cycles: 1,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (capacity smaller than one
    /// full set).
    pub fn num_sets(&self) -> u64 {
        let set_bytes = self.line_bytes as u64 * self.ways as u64;
        assert!(
            self.size_bytes >= set_bytes && self.size_bytes.is_multiple_of(set_bytes),
            "cache capacity must be a multiple of line_bytes*ways"
        );
        self.size_bytes / set_bytes
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {}K {}-way {}B lines",
            self.size_bytes / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp or FIFO fill order, depending on policy.
    stamp: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    stamp: 0,
};

/// Mutable simulation state of a [`CacheConfig`].
#[derive(Debug, Clone)]
pub struct CacheState {
    config: CacheConfig,
    /// `config.num_sets()`, computed once: `set_range` runs per access.
    sets: u64,
    /// `sets × ways` lines, row-major.
    lines: Vec<Line>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CacheState {
    /// Creates a cold cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let n = (sets * config.ways as u64) as usize;
        CacheState {
            config,
            sets,
            lines: vec![INVALID_LINE; n],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses so far (0.0 if none).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    fn set_range(&self, addr: Addr) -> (usize, u64) {
        let block = addr.block(self.config.line_bytes as u64);
        let set = (block % self.sets) as usize;
        let tag = block / self.sets;
        (set * self.config.ways as usize, tag)
    }
}

impl ModuleModel for CacheState {
    fn access(&mut self, addr: Addr, kind: AccessKind, _tick: u64) -> ModuleResponse {
        self.clock += 1;
        let ways = self.config.ways as usize;
        let (base, tag) = self.set_range(addr);
        let set = &mut self.lines[base..base + ways];

        // Hit path.
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            if self.config.replacement == ReplacementPolicy::Lru {
                line.stamp = self.clock;
            }
            let mut wt_bytes = 0;
            if kind.is_write() {
                match self.config.write {
                    WritePolicy::WriteBack => line.dirty = true,
                    WritePolicy::WriteThrough => wt_bytes = self.config.line_bytes as u64 / 4,
                }
            }
            self.hits += 1;
            return ModuleResponse::hit(self.config.hit_cycles).with_background(wt_bytes);
        }

        // Miss path.
        self.misses += 1;
        if kind.is_write() && self.config.write_miss == WriteMissPolicy::WriteAround {
            // The write bypasses the cache: a posted store goes off-chip
            // without allocating a line or stalling the CPU, so for
            // latency purposes it behaves like a hit with background
            // traffic.
            return ModuleResponse::hit(self.config.hit_cycles)
                .with_background(self.config.line_bytes as u64 / 4);
        }
        // Choose a victim (invalid first, else lowest stamp).
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.stamp))
            .map(|(i, _)| i)
            .expect("cache set is never empty");
        let evicted = set[victim];
        let mut background = 0;
        if evicted.valid && evicted.dirty {
            background += self.config.line_bytes as u64;
        }
        set[victim] = Line {
            tag,
            valid: true,
            dirty: kind.is_write() && self.config.write == WritePolicy::WriteBack,
            stamp: self.clock,
        };
        if kind.is_write() && self.config.write == WritePolicy::WriteThrough {
            background += self.config.line_bytes as u64 / 4;
        }
        ModuleResponse::miss(self.config.hit_cycles, self.config.line_bytes as u64)
            .with_background(background)
    }

    fn reset(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_mapped(kib: u64) -> CacheConfig {
        CacheConfig {
            ways: 1,
            ..CacheConfig::kilobytes(kib)
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheState::new(CacheConfig::kilobytes(4));
        let a = Addr::new(0x1000);
        let first = c.access(a, AccessKind::Read, 0);
        assert!(!first.hit);
        assert_eq!(first.demand_fill_bytes, 32);
        let second = c.access(a, AccessKind::Read, 1);
        assert!(second.hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = CacheState::new(CacheConfig::kilobytes(4));
        c.access(Addr::new(0x100), AccessKind::Read, 0);
        let r = c.access(Addr::new(0x11c), AccessKind::Read, 1);
        assert!(r.hit, "0x11c shares the 32B line of 0x100");
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let cfg = direct_mapped(1); // 1 KiB, 32 sets
        let mut c = CacheState::new(cfg);
        let a = Addr::new(0);
        let b = Addr::new(1024); // same set, different tag
        c.access(a, AccessKind::Read, 0);
        c.access(b, AccessKind::Read, 1);
        let r = c.access(a, AccessKind::Read, 2);
        assert!(!r.hit, "a must have been evicted by b");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = CacheState::new(CacheConfig::kilobytes(1));
        let a = Addr::new(0);
        let b = Addr::new(1024);
        c.access(a, AccessKind::Read, 0);
        c.access(b, AccessKind::Read, 1);
        assert!(c.access(a, AccessKind::Read, 2).hit);
        assert!(c.access(b, AccessKind::Read, 3).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: touch a, b, re-touch a, then c -> b is the LRU victim.
        let mut c = CacheState::new(CacheConfig::kilobytes(1));
        let (a, b, d) = (Addr::new(0), Addr::new(1024), Addr::new(2048));
        c.access(a, AccessKind::Read, 0);
        c.access(b, AccessKind::Read, 1);
        c.access(a, AccessKind::Read, 2);
        c.access(d, AccessKind::Read, 3); // evicts b
        assert!(c.access(a, AccessKind::Read, 4).hit);
        assert!(!c.access(b, AccessKind::Read, 5).hit);
    }

    #[test]
    fn fifo_evicts_fill_order() {
        let cfg = CacheConfig {
            replacement: ReplacementPolicy::Fifo,
            ..CacheConfig::kilobytes(1)
        };
        let mut c = CacheState::new(cfg);
        let (a, b, d) = (Addr::new(0), Addr::new(1024), Addr::new(2048));
        c.access(a, AccessKind::Read, 0);
        c.access(b, AccessKind::Read, 1);
        c.access(a, AccessKind::Read, 2); // does not refresh FIFO order
        c.access(d, AccessKind::Read, 3); // evicts a (oldest fill)
        assert!(!c.access(a, AccessKind::Read, 4).hit);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = direct_mapped(1);
        let mut c = CacheState::new(cfg);
        c.access(Addr::new(0), AccessKind::Write, 0);
        let r = c.access(Addr::new(1024), AccessKind::Read, 1);
        assert_eq!(r.background_bytes, 32, "dirty line must be written back");
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let cfg = direct_mapped(1);
        let mut c = CacheState::new(cfg);
        c.access(Addr::new(0), AccessKind::Read, 0);
        let r = c.access(Addr::new(1024), AccessKind::Read, 1);
        assert_eq!(r.background_bytes, 0);
    }

    #[test]
    fn write_through_generates_traffic_on_hits() {
        let cfg = CacheConfig {
            write: WritePolicy::WriteThrough,
            ..CacheConfig::kilobytes(4)
        };
        let mut c = CacheState::new(cfg);
        c.access(Addr::new(0), AccessKind::Read, 0);
        let r = c.access(Addr::new(0), AccessKind::Write, 1);
        assert!(r.hit);
        assert!(r.background_bytes > 0);
    }

    #[test]
    fn write_around_does_not_allocate() {
        let cfg = CacheConfig {
            write: WritePolicy::WriteThrough,
            write_miss: WriteMissPolicy::WriteAround,
            ..CacheConfig::kilobytes(4)
        };
        let mut c = CacheState::new(cfg);
        let r = c.access(Addr::new(0x200), AccessKind::Write, 0);
        assert!(r.hit, "posted store must not stall");
        assert_eq!(r.demand_fill_bytes, 0, "no line fetch");
        assert!(r.background_bytes > 0, "the store still goes off-chip");
        // The line was not installed: a subsequent read misses.
        assert!(!c.access(Addr::new(0x200), AccessKind::Read, 1).hit);
    }

    #[test]
    fn write_allocate_installs_line() {
        let mut c = CacheState::new(CacheConfig::kilobytes(4)); // default: allocate
        let r = c.access(Addr::new(0x200), AccessKind::Write, 0);
        assert!(!r.hit);
        assert_eq!(r.demand_fill_bytes, 32, "line fetched on write miss");
        assert!(c.access(Addr::new(0x200), AccessKind::Read, 1).hit);
    }

    #[test]
    fn write_around_read_misses_still_allocate() {
        let cfg = CacheConfig {
            write_miss: WriteMissPolicy::WriteAround,
            ..CacheConfig::kilobytes(4)
        };
        let mut c = CacheState::new(cfg);
        assert!(!c.access(Addr::new(0x40), AccessKind::Read, 0).hit);
        assert!(c.access(Addr::new(0x40), AccessKind::Read, 1).hit);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = CacheState::new(CacheConfig::kilobytes(4));
        c.access(Addr::new(0), AccessKind::Read, 0);
        c.access(Addr::new(0), AccessKind::Read, 1);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert!(!c.access(Addr::new(0), AccessKind::Read, 2).hit);
    }

    #[test]
    fn miss_ratio_counts() {
        let mut c = CacheState::new(CacheConfig::kilobytes(4));
        c.access(Addr::new(0), AccessKind::Read, 0);
        c.access(Addr::new(0), AccessKind::Read, 1);
        c.access(Addr::new(0), AccessKind::Read, 2);
        c.access(Addr::new(4096), AccessKind::Read, 3);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn degenerate_geometry_rejected() {
        let cfg = CacheConfig {
            size_bytes: 48, // not a multiple of 32*2
            ..CacheConfig::kilobytes(1)
        };
        let _ = cfg.num_sets();
    }

    #[test]
    fn larger_cache_has_lower_miss_ratio_on_looping_traffic() {
        // Sweep a 2 KiB region repeatedly: a 4 KiB cache holds it, a 1 KiB
        // direct-mapped cache thrashes.
        let mut big = CacheState::new(CacheConfig::kilobytes(4));
        let mut small = CacheState::new(direct_mapped(1));
        for rep in 0..8 {
            for off in (0..2048).step_by(32) {
                let a = Addr::new(off);
                big.access(a, AccessKind::Read, rep);
                small.access(a, AccessKind::Read, rep);
            }
        }
        assert!(big.miss_ratio() < small.miss_ratio());
    }
}
