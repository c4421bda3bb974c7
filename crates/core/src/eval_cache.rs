//! The cross-scenario evaluation cache.
//!
//! Candidate evaluations recur across the exploration: Phase I re-derives
//! the same (memory, connectivity) pairings at different clustering
//! levels, strategy comparisons (Table 2) re-estimate identical candidate
//! sets, and repeated CLI runs redo everything. The [`EvalCache`] memoizes
//! evaluated [`Metrics`] under the canonical structural key of
//! [`design_point`](crate::design_point), so any evaluation with the same
//! structure — across scenarios, strategies, or runs (via
//! [`EvalCache::save`] / [`EvalCache::load`]) — is answered without
//! simulating.
//!
//! The cache is one FIFO-bounded map and its lifetime statistics under
//! one lock: its traffic is serial (the engine's probe and populate
//! loops), so there is nothing for lock striping to spread. Zero
//! dependencies beyond the standard library; the spill format is
//! hand-written JSON read back with `mce_obs`'s parser, so it never
//! drifts with a serialization framework, and no other module knows its
//! layout. Entries stay flat arrays of hex strings rather than codec
//! objects: a flipped bit inside a hex digit still parses, so
//! `cache-check --repair` can drop the one entry whose checksum fails
//! instead of losing the whole file.
//!
//! Determinism: the evaluation engine probes and populates the cache
//! serially (only the simulations between run in parallel), so hit/miss
//! totals — and, more importantly, results — are identical for any thread
//! count. See [`engine`](crate::engine).

use crate::design_point::{CanonKey, Metrics};
use mce_error::MceError;
use mce_obs::Fnv128;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Default capacity (resident entries).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Version tag of the spill format. Version 2 added the per-entry
/// checksum field; version-1 files are rejected (re-warm the cache).
const SPILL_VERSION: u64 = 2;

/// Aggregate cache statistics, monotonically increasing over the cache's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Entries evicted by the FIFO capacity bound.
    pub evictions: u64,
}

mce_obs::json_codec! { struct CacheStats { hits, misses, inserts, evictions } }

struct Fifo {
    map: HashMap<CanonKey, Metrics>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CanonKey>,
    stats: CacheStats,
}

/// A capacity-bounded FIFO memoization cache of evaluated metrics.
pub struct EvalCache {
    fifo: Mutex<Fifo>,
    capacity: usize,
}

impl EvalCache {
    /// A cache with the [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` entries (at least one); once
    /// full, each insert evicts the oldest entry.
    pub fn with_capacity(capacity: usize) -> Self {
        EvalCache {
            fifo: Mutex::new(Fifo {
                map: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Fifo> {
        self.fifo.lock().expect("eval cache lock poisoned")
    }

    /// Looks up a key without touching the hit/miss statistics.
    ///
    /// For probes whose outcome may be thrown away: the evaluation
    /// engine peeks during the batch probe phase and calls
    /// [`tally_probes`](EvalCache::tally_probes) only when the batch
    /// commits, so a discarded (cancelled or budget-exhausted) batch
    /// leaves the lifetime statistics — which checkpoints persist —
    /// untouched.
    pub fn peek(&self, key: CanonKey) -> Option<Metrics> {
        self.lock().map.get(&key).copied()
    }

    /// Records the hit/miss outcomes of [`peek`](EvalCache::peek)ed
    /// probes after their batch committed.
    pub fn tally_probes(&self, hits: u64, misses: u64) {
        let mut fifo = self.lock();
        fifo.stats.hits += hits;
        fifo.stats.misses += misses;
    }

    /// Stores an evaluation. Returns `false` (and changes nothing) if the
    /// key was already present; evicts the oldest entry when the cache is
    /// full.
    pub fn insert(&self, key: CanonKey, metrics: Metrics) -> bool {
        let mut fifo = self.lock();
        if fifo.map.contains_key(&key) {
            return false;
        }
        if fifo.order.len() >= self.capacity {
            if let Some(oldest) = fifo.order.pop_front() {
                fifo.map.remove(&oldest);
                fifo.stats.evictions += 1;
            }
        }
        fifo.map.insert(key, metrics);
        fifo.order.push_back(key);
        fifo.stats.inserts += 1;
        true
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity (resident entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the lifetime statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    // -- checkpoint support ------------------------------------------------

    /// Every resident entry in exact insertion (FIFO) order, oldest
    /// first.
    ///
    /// Feeding this to [`EvalCache::from_entries_fifo`] with the same
    /// capacity reconstructs an identical cache — same membership *and*
    /// same future eviction order — which checkpoint/resume relies on to
    /// keep a resumed run's hit/miss/eviction sequence bit-identical.
    pub fn entries_fifo(&self) -> Vec<(CanonKey, Metrics)> {
        let fifo = self.lock();
        fifo.order.iter().map(|key| (*key, fifo.map[key])).collect()
    }

    /// Rebuilds a cache from [`EvalCache::entries_fifo`] output.
    ///
    /// Statistics start at zero (the inserts performed here are then
    /// erased); restore the originals with [`EvalCache::restore_stats`].
    pub fn from_entries_fifo(
        entries: impl IntoIterator<Item = (CanonKey, Metrics)>,
        capacity: usize,
    ) -> Self {
        let cache = Self::with_capacity(capacity);
        for (key, m) in entries {
            cache.insert(key, m);
        }
        cache.restore_stats(CacheStats::default());
        cache
    }

    /// Overwrites the lifetime statistics (checkpoint restore).
    pub fn restore_stats(&self, stats: CacheStats) {
        self.lock().stats = stats;
    }

    // -- spill / warm-start ------------------------------------------------

    /// Serializes every resident entry to the JSON spill form.
    ///
    /// Keys and f64 bit patterns are hex strings — exact round-trips with
    /// no dependence on any reader's float precision — and each entry
    /// carries an FNV-1a checksum over its other four fields, so a
    /// corrupted entry (a flipped bit inside a hex digit still parses) is
    /// detected rather than silently wrong. Entries are sorted by key, so
    /// the output is byte-stable regardless of insertion order.
    pub fn to_spill_json(&self) -> String {
        let mut entries: Vec<(CanonKey, Metrics)> =
            self.lock().map.iter().map(|(k, m)| (*k, *m)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut out = String::with_capacity(64 + entries.len() * 116);
        out.push_str("{\"version\":");
        out.push_str(&SPILL_VERSION.to_string());
        out.push_str(",\"entries\":[");
        for (i, (key, m)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let [key, cost, lat, energy, check] = format_spill_entry(key, m);
            out.push_str(&format!(
                "[\"{key}\",\"{cost}\",\"{lat}\",\"{energy}\",\"{check}\"]"
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes the spill JSON to `path` atomically (write a sibling
    /// temporary, then rename), so a crash mid-save never leaves a
    /// truncated spill behind.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MceError> {
        mce_error::atomic_write(path, self.to_spill_json().as_bytes())
    }

    /// Parses a spill document into a fresh cache with the given
    /// `capacity`, rejecting the whole document on any bad entry.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Json`] on malformed documents, unknown
    /// versions, or entries that are truncated, checksum-mismatched, or
    /// carry non-finite / negative metrics.
    pub fn from_spill_json(text: &str, capacity: usize) -> Result<Self, MceError> {
        Self::parse_spill(text, capacity, false).map(|(cache, _)| cache)
    }

    /// [`EvalCache::from_spill_json`] in salvage mode: individually
    /// corrupt entries are skipped (returned as the dropped count)
    /// instead of failing the load; only document-level damage — not
    /// valid JSON, wrong version, missing `entries` — is an error.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Json`] on document-level damage.
    pub fn from_spill_json_salvage(text: &str, capacity: usize) -> Result<(Self, usize), MceError> {
        Self::parse_spill(text, capacity, true)
    }

    fn parse_spill(text: &str, capacity: usize, salvage: bool) -> Result<(Self, usize), MceError> {
        let ctx = "parsing eval cache spill";
        let doc = mce_obs::json::parse(text).map_err(|e| MceError::json(ctx, e))?;
        let version = doc
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| MceError::json(ctx, "missing `version`"))?;
        if version != SPILL_VERSION {
            return Err(MceError::json(
                ctx,
                format!("unsupported spill version {version} (expected {SPILL_VERSION})"),
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(|v| v.as_array())
            .ok_or_else(|| MceError::json(ctx, "missing `entries` array"))?;
        let cache = Self::with_capacity(capacity);
        let mut dropped = 0usize;
        for (i, entry) in entries.iter().enumerate() {
            match parse_spill_entry(entry) {
                Ok((key, m)) => {
                    cache.insert(key, m);
                }
                Err(why) if salvage => {
                    let _ = why;
                    dropped += 1;
                }
                Err(why) => {
                    return Err(MceError::json(ctx, format!("entry {i}: {why}")));
                }
            }
        }
        cache.restore_stats(CacheStats::default());
        Ok((cache, dropped))
    }

    /// Loads a spill file into a fresh cache with the given `capacity`,
    /// salvaging what it can: individually corrupt entries are dropped
    /// (with an `eval_cache.salvage_dropped` counter and a log line), and
    /// only an unreadable, non-JSON or wrong-version file is an error.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be read, or
    /// [`MceError::Json`] on document-level damage.
    pub fn load(path: impl AsRef<Path>, capacity: usize) -> Result<Self, MceError> {
        Self::load_salvage(path, capacity).map(|(cache, _)| cache)
    }

    /// [`EvalCache::load`], also returning how many corrupt entries were
    /// dropped.
    ///
    /// # Errors
    ///
    /// As [`EvalCache::load`].
    pub fn load_salvage(
        path: impl AsRef<Path>,
        capacity: usize,
    ) -> Result<(Self, usize), MceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| MceError::io(format!("reading eval cache `{}`", path.display()), e))?;
        let (cache, dropped) = Self::from_spill_json_salvage(&text, capacity)?;
        if dropped > 0 {
            mce_obs::counter_add("eval_cache.salvage_dropped", dropped as u64);
            mce_obs::info(|| {
                format!(
                    "eval cache `{}`: dropped {dropped} corrupt entr{} during load",
                    path.display(),
                    if dropped == 1 { "y" } else { "ies" }
                )
            });
        }
        Ok((cache, dropped))
    }
}

/// FNV-1a 64 over an entry's four serialized fields (with a separator
/// folded in after each), the per-entry corruption check of spill
/// version 2.
fn entry_checksum(key_hex: &str, cost: &str, lat_hex: &str, energy_hex: &str) -> u64 {
    let mut h = Fnv128::default();
    for field in [key_hex, cost, lat_hex, energy_hex] {
        h.bytes(field.as_bytes());
        h.byte(0xff);
    }
    h.lanes().0
}

/// Formats one cache entry as its five spill fields — key hex, decimal
/// gate cost, the two f64 metric bit patterns, and the FNV-1a checksum
/// over the other four.
fn format_spill_entry(key: &CanonKey, m: &Metrics) -> [String; 5] {
    let key = key.to_hex();
    let cost = m.cost_gates.to_string();
    let lat = format!("{:016x}", m.latency_cycles.to_bits());
    let energy = format!("{:016x}", m.energy_nj.to_bits());
    let check = format!("{:016x}", entry_checksum(&key, &cost, &lat, &energy));
    [key, cost, lat, energy, check]
}

/// Decodes one spill entry produced by [`format_spill_entry`], verifying
/// shape, checksum and metric sanity. The error is a short reason,
/// suitable for wrapping in [`MceError::Json`].
fn parse_spill_entry(entry: &mce_obs::json::Value) -> Result<(CanonKey, Metrics), String> {
    let fields = entry
        .as_array()
        .filter(|f| f.len() == 5)
        .ok_or("expected 5 fields")?;
    let field = |j: usize, what: &str| fields[j].as_str().ok_or_else(|| format!("bad {what}"));
    let (key_hex, cost, lat, energy) = (
        field(0, "key")?,
        field(1, "cost")?,
        field(2, "latency")?,
        field(3, "energy")?,
    );
    let check = u64::from_str_radix(field(4, "checksum")?, 16).map_err(|_| "bad checksum")?;
    if check != entry_checksum(key_hex, cost, lat, energy) {
        return Err("checksum mismatch".to_owned());
    }
    let key = CanonKey::from_hex(key_hex).ok_or("bad key")?;
    let cost_gates: u64 = cost.parse().map_err(|_| "bad cost")?;
    let bits = |s: &str, what: &str| u64::from_str_radix(s, 16).map_err(|_| format!("bad {what}"));
    let latency_cycles = f64::from_bits(bits(lat, "latency")?);
    let energy_nj = f64::from_bits(bits(energy, "energy")?);
    if !(latency_cycles.is_finite()
        && latency_cycles >= 0.0
        && energy_nj.is_finite()
        && energy_nj >= 0.0)
    {
        return Err("non-finite or negative metrics".to_owned());
    }
    Ok((
        key,
        Metrics {
            cost_gates,
            latency_cycles,
            energy_nj,
        },
    ))
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CanonKey {
        CanonKey {
            hi: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            lo: i,
        }
    }

    fn metrics(i: u64) -> Metrics {
        Metrics::new(i, i as f64 + 0.5, i as f64 * 0.25)
    }

    #[test]
    fn peek_after_insert_round_trips() {
        let cache = EvalCache::with_capacity(64);
        assert_eq!(cache.peek(key(1)), None);
        assert!(cache.insert(key(1), metrics(1)));
        assert_eq!(cache.peek(key(1)), Some(metrics(1)));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.inserts),
            (0, 0, 1),
            "peeks tally nothing"
        );
        cache.tally_probes(1, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn double_insert_is_a_noop() {
        let cache = EvalCache::with_capacity(64);
        assert!(cache.insert(key(1), metrics(1)));
        assert!(!cache.insert(key(1), metrics(2)));
        assert_eq!(cache.peek(key(1)), Some(metrics(1)), "first value wins");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let capacity = 100;
        let cache = EvalCache::with_capacity(capacity);
        for i in 0..10 * capacity as u64 {
            cache.insert(key(i), metrics(i));
        }
        assert!(
            cache.len() <= capacity,
            "{} resident > capacity {capacity}",
            cache.len()
        );
        let s = cache.stats();
        assert_eq!(s.inserts - s.evictions, cache.len() as u64);
        assert!(s.evictions > 0);
    }

    #[test]
    fn capacity_is_exact_and_eviction_is_globally_fifo() {
        for capacity in [1, 17, 100] {
            assert_eq!(EvalCache::with_capacity(capacity).capacity(), capacity);
        }
        // Nothing is evicted before the cache is full…
        let cache = EvalCache::with_capacity(100);
        for i in 0..100 {
            cache.insert(key(i), metrics(i));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
        // …and then each insert evicts the oldest entry overall.
        cache.insert(key(100), metrics(100));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.peek(key(0)), None, "oldest evicted");
        assert_eq!(cache.peek(key(1)), Some(metrics(1)));
        let order: Vec<CanonKey> = cache.entries_fifo().iter().map(|(k, _)| *k).collect();
        assert_eq!(order, (1..=100).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_capacities_still_work() {
        for capacity in 1..=5 {
            let cache = EvalCache::with_capacity(capacity);
            for i in 0..20 {
                cache.insert(key(i), metrics(i));
            }
            assert!(cache.len() <= capacity, "capacity {capacity}");
            assert!(!cache.is_empty());
        }
    }

    #[test]
    fn spill_round_trips_exactly() {
        let cache = EvalCache::with_capacity(64);
        // Metrics chosen to stress float round-tripping.
        let values = [
            (key(1), Metrics::new(42, 1.0 / 3.0, 2.0 / 7.0)),
            (key(2), Metrics::new(u64::MAX, f64::MIN_POSITIVE, 0.0)),
            (key(3), Metrics::new(0, 1e300, 12.125)),
        ];
        for (k, m) in values {
            cache.insert(k, m);
        }
        let spill = cache.to_spill_json();
        let back = EvalCache::from_spill_json(&spill, 64).unwrap();
        assert_eq!(back.len(), 3);
        for (k, m) in values {
            let got = back.peek(k).expect("entry survived");
            assert_eq!(got.cost_gates, m.cost_gates);
            assert_eq!(got.latency_cycles.to_bits(), m.latency_cycles.to_bits());
            assert_eq!(got.energy_nj.to_bits(), m.energy_nj.to_bits());
        }
    }

    #[test]
    fn spill_is_deterministic() {
        // Same contents inserted in different orders → identical bytes.
        let a = EvalCache::with_capacity(64);
        let b = EvalCache::with_capacity(64);
        for i in 0..20 {
            a.insert(key(i), metrics(i));
            b.insert(key(19 - i), metrics(19 - i));
        }
        assert_eq!(a.to_spill_json(), b.to_spill_json());
    }

    #[test]
    fn save_and_load_via_file() {
        let path = std::env::temp_dir().join(format!("mce_eval_cache_{}.json", std::process::id()));
        let cache = EvalCache::with_capacity(16);
        cache.insert(key(7), metrics(7));
        cache.save(&path).unwrap();
        let back = EvalCache::load(&path, 16).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.peek(key(7)), Some(metrics(7)));
    }

    #[test]
    fn entry_checksum_is_pinned() {
        // Spill files written by earlier builds must keep verifying.
        let check = super::entry_checksum(
            "00112233445566778899aabbccddeeff",
            "1234",
            "3ff0000000000000",
            "4000000000000000",
        );
        assert_eq!(check, 0x727f_a9da_c555_a0b6);
    }

    /// A syntactically valid v2 entry whose fields are nonsense (the
    /// checksum is correct, so deeper validation must catch it).
    fn checksummed_entry(key: &str, cost: &str, lat: &str, energy: &str) -> String {
        format!(
            "[\"{key}\",\"{cost}\",\"{lat}\",\"{energy}\",\"{:016x}\"]",
            super::entry_checksum(key, cost, lat, energy)
        )
    }

    #[test]
    fn malformed_spills_are_errors() {
        let nan = checksummed_entry(
            "00000000000000000000000000000001",
            "1",
            "7ff8000000000000",
            "0",
        );
        let short_key = checksummed_entry("short", "1", "0", "0");
        for bad in [
            "{not json".to_owned(),
            "{}".to_owned(),
            r#"{"version":99,"entries":[]}"#.to_owned(),
            // Version 1 (pre-checksum) spills are rejected, not guessed at.
            r#"{"version":1,"entries":[["short","1","0","0"]]}"#.to_owned(),
            format!(r#"{{"version":2,"entries":[{short_key}]}}"#),
            r#"{"version":2,"entries":[[1,2,3,4,5]]}"#.to_owned(),
            // A four-field (v1-shaped) entry inside a v2 document.
            r#"{"version":2,"entries":[["00000000000000000000000000000001","1","0","0"]]}"#
                .to_owned(),
            // NaN latency bits behind a valid checksum.
            format!(r#"{{"version":2,"entries":[{nan}]}}"#),
        ] {
            let err = EvalCache::from_spill_json(&bad, 16).unwrap_err();
            assert!(matches!(err, MceError::Json { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn corrupt_entries_fail_their_checksum() {
        let cache = EvalCache::with_capacity(16);
        cache.insert(key(1), metrics(1));
        let spill = cache.to_spill_json();
        // Flip one hex digit inside the latency field: still valid JSON,
        // still parseable hex — only the checksum knows.
        let lat = format!("{:016x}", metrics(1).latency_cycles.to_bits());
        let tampered_digit = if lat.as_bytes()[0] == b'0' { "1" } else { "0" };
        let tampered = spill.replace(&lat, &format!("{tampered_digit}{}", &lat[1..]));
        assert_ne!(spill, tampered, "tampering must change the document");
        let err = EvalCache::from_spill_json(&tampered, 16).unwrap_err();
        assert!(matches!(err, MceError::Json { .. }), "{err}");
    }

    #[test]
    fn salvage_skips_corrupt_entries_and_keeps_the_rest() {
        let cache = EvalCache::with_capacity(16);
        cache.insert(key(1), metrics(1));
        cache.insert(key(2), metrics(2));
        let spill = cache.to_spill_json();
        // Corrupt exactly one entry's checksum field.
        let k1 = key(1).to_hex();
        let cost = metrics(1).cost_gates.to_string();
        let lat = format!("{:016x}", metrics(1).latency_cycles.to_bits());
        let energy = format!("{:016x}", metrics(1).energy_nj.to_bits());
        let good = checksummed_entry(&k1, &cost, &lat, &energy);
        let bad = format!("[\"{k1}\",\"{cost}\",\"{lat}\",\"{energy}\",\"0000000000000000\"]");
        let tampered = spill.replace(&good, &bad);
        assert_ne!(spill, tampered);
        let (back, dropped) = EvalCache::from_spill_json_salvage(&tampered, 16).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(back.len(), 1);
        assert_eq!(back.peek(key(2)), Some(metrics(2)));
        // Salvage never rescues document-level damage.
        assert!(EvalCache::from_spill_json_salvage("{nope", 16).is_err());
        assert!(
            EvalCache::from_spill_json_salvage(r#"{"version":1,"entries":[]}"#, 16).is_err(),
            "version mismatch stays fatal in salvage mode"
        );
    }

    #[test]
    fn entries_fifo_round_trips_order_and_stats() {
        // Insert enough to exercise eviction, then rebuild and check the
        // clone evicts identically.
        let cache = EvalCache::with_capacity(4);
        for i in 0..6 {
            cache.insert(key(i), metrics(i));
        }
        let entries = cache.entries_fifo();
        assert_eq!(entries.len(), cache.len());
        let clone = EvalCache::from_entries_fifo(entries.clone(), 4);
        assert_eq!(clone.entries_fifo(), entries, "FIFO order preserved");
        assert_eq!(clone.stats(), CacheStats::default(), "stats start fresh");
        clone.restore_stats(cache.stats());
        assert_eq!(clone.stats(), cache.stats());
        // The same future insert produces the same eviction on both.
        cache.insert(key(100), metrics(100));
        clone.insert(key(100), metrics(100));
        assert_eq!(clone.entries_fifo(), cache.entries_fifo());
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = EvalCache::load("/nonexistent/cache.json", 16).unwrap_err();
        assert!(matches!(err, MceError::Io { .. }), "{err}");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(EvalCache::with_capacity(256));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = key(t * 1000 + i);
                        cache.insert(k, metrics(i));
                        let _ = cache.peek(k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().inserts >= 256);
    }
}
