//! Mergeable latency histograms with a deterministic bucket layout.
//!
//! A [`Histogram`] counts `u64` samples (the recorder uses microseconds)
//! into a **deterministic fixed-bucket layout**: bucket 0 holds the value
//! 0 and bucket `i ≥ 1` holds the half-open power-of-two range
//! `[2^(i-1), 2^i)`. The layout never depends on the observed data, so two
//! histograms fed the same multiset of samples — in any order, from any
//! number of threads — hold identical bucket counts, and [`Histogram::merge`]
//! is associative and commutative. Quantiles ([`Histogram::quantile`])
//! interpolate linearly inside a bucket and clamp to the observed min/max,
//! which keeps them a pure function of the bucket counts.
//!
//! [`HistRegistry`] is the recorder-side store: one mutex-guarded map
//! from name to histogram, where a record is a serialized bucket
//! increment. The registry is wired into
//! the global recorder as [`histogram_record`](crate::histogram_record) /
//! [`time_scope`](crate::time_scope); this module is the pure data layer.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Number of buckets: one zero bucket plus one per power of two of `u64`.
pub const BUCKET_COUNT: usize = 65;

/// The bucket a value falls into: 0 for the value 0, otherwise
/// `⌊log2(v)⌋ + 1` (so bucket `i` covers `[2^(i-1), 2^i)`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `(low, high)` value bounds of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Summary statistics of one histogram, as reported in events and run
/// reports. All fields are in the histogram's sample unit (microseconds
/// for the recorder's timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// A fixed-layout power-of-two histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds every sample of `other` into `self`. Element-wise bucket
    /// addition plus min/max/sum folding: associative and commutative, so
    /// per-thread histograms merge into the same totals in any order.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts: find the bucket holding the target rank, interpolate
    /// linearly inside it, and clamp to the observed min/max. A pure
    /// function of the bucket counts, so any two histograms with equal
    /// buckets report equal quantiles.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < (below + n) as f64 {
                let (lo, hi) = bucket_bounds(i);
                let frac = (rank - below as f64 + 0.5) / n as f64;
                let est = lo as f64 + frac.clamp(0.0, 1.0) * (hi - lo) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            below += n;
        }
        self.max
    }

    /// The summary statistics (count, sum, min/max, p50/p90/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// The recorder's named-histogram store: one mutex-guarded map. Its
/// writers are per-candidate time scopes — one record per simulation,
/// each milliseconds apart — so a single lock never contends in practice.
#[derive(Debug, Default)]
pub struct HistRegistry {
    map: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl HistRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Histogram>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `value` into the named histogram (creating it on first
    /// use). Safe to call from worker threads; totals are commutative.
    pub fn record(&self, name: &'static str, value: u64) {
        self.lock().entry(name).or_default().record(value);
    }

    /// A copy of the named histogram, if any samples were recorded.
    pub fn get(&self, name: &str) -> Option<Histogram> {
        self.lock().get(name).cloned()
    }

    /// Every histogram, in name order.
    pub fn snapshot(&self) -> Vec<(&'static str, Histogram)> {
        self.lock()
            .iter()
            .map(|(&name, hist)| (name, hist.clone()))
            .collect()
    }

    /// Removes every histogram.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high bound of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::new().summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(1234);
        let s = h.summary();
        assert_eq!((s.min, s.max), (1234, 1234));
        assert_eq!((s.p50, s.p90, s.p99), (1234, 1234, 1234));
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        // 1..=1000: every estimate must land within its sample's bucket
        // (a factor-of-2 band) and be monotone in q.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.p50 >= 256 && s.p50 < 1024, "p50 {}", s.p50);
        assert!(s.p90 >= 512 && s.p90 <= 1000, "p90 {}", s.p90);
        assert!(s.p99 >= 512 && s.p99 <= 1000, "p99 {}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let samples: Vec<u64> = (0..300).map(|i| (i * i * 37 + 11) % 10_000).collect();
        let hist_of = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let whole = hist_of(&samples);
        let (a, b, c) = (
            hist_of(&samples[..100]),
            hist_of(&samples[100..200]),
            hist_of(&samples[200..]),
        );
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c), merged in a different order
        let mut bc = c.clone();
        bc.merge(&b);
        let mut right = bc;
        right.merge(&a);
        assert_eq!(left, whole);
        assert_eq!(right, whole);
        assert_eq!(left.summary(), right.summary());
    }

    #[test]
    fn registry_records_and_snapshots_in_name_order() {
        let reg = HistRegistry::new();
        reg.record("z.last", 5);
        reg.record("a.first", 1);
        reg.record("a.first", 3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(reg.get("a.first").unwrap().count(), 2);
        reg.clear();
        assert!(reg.get("a.first").is_none());
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn registry_is_deterministic_across_threads() {
        let samples: Vec<u64> = (0..4000).map(|i| (i * 7919 + 13) % 65_536).collect();
        let serial = {
            let reg = HistRegistry::new();
            for &v in &samples {
                reg.record("t", v);
            }
            reg.get("t").unwrap()
        };
        for threads in [2usize, 4, 7] {
            let reg = HistRegistry::new();
            std::thread::scope(|scope| {
                for chunk in samples.chunks(samples.len().div_ceil(threads)) {
                    let reg = &reg;
                    scope.spawn(move || {
                        for &v in chunk {
                            reg.record("t", v);
                        }
                    });
                }
            });
            let parallel = reg.get("t").unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial.summary(), parallel.summary());
        }
    }
}
