//! Time-series registry: fixed-capacity ring buffers of periodic
//! registry snapshots, the substrate of live run monitoring (`mce
//! explore --live-status`, `mce top`, the OpenMetrics exporter).
//!
//! Every series is a bounded ring of `(t_us, value)` points taken by
//! [`wall_sample`]: the counter and gauge registries — plus one derived
//! series per histogram — snapshotted at *wall-clock* instants, stamped
//! with microseconds since sink installation. A background [`Sampler`]
//! drives it at a fixed interval. Wall samples are inherently
//! nondeterministic (how far the run got after N milliseconds depends on
//! the machine), so they live only in the run report's `wall_clock`
//! section and never feed anything deterministic; the deterministic
//! per-architecture record of a run is its `frontier_evolution`.
//!
//! Sampling only ever *reads* the registries; like the rest of `mce-obs`
//! it cannot perturb exploration results, and with no sink installed
//! every entry point short-circuits on one relaxed atomic load.

use crate::hist::HistogramSummary;
use crate::recorder;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Per-series ring capacity: enough for four minutes of one-second
/// samples, while bounding live-status files to a few tens of kilobytes.
pub const SERIES_CAPACITY: usize = 240;

/// One sampled point of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Microseconds since sink installation.
    pub at: u64,
    /// The sampled registry value.
    pub value: u64,
}

/// The registry: name → bounded ring.
struct Registry {
    wall: Mutex<BTreeMap<&'static str, VecDeque<SeriesPoint>>>,
    /// Derived per-histogram wall series need owned names
    /// (`<hist>.p90`); interning keeps them `&'static` like the rest.
    hist_names: Mutex<BTreeMap<String, &'static str>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        wall: Mutex::new(BTreeMap::new()),
        hist_names: Mutex::new(BTreeMap::new()),
    })
}

fn push(name: &'static str, point: SeriesPoint) {
    let mut map = registry()
        .wall
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let ring = map.entry(name).or_default();
    if ring.len() >= SERIES_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(point);
}

/// Records one wall-clock sample: every counter, every gauge, and one
/// derived `<histogram>.p90` series per histogram get a `(t_us, value)`
/// point appended to their series, where `t_us` is microseconds
/// since sink installation. Nondeterministic by construction — call it
/// from a [`Sampler`] (or anywhere); it only reads the registries.
/// No-op when tracing is disabled.
pub fn wall_sample() {
    if !recorder::tracing_enabled() {
        return;
    }
    let t_us = recorder::now_us();
    for (name, value) in recorder::counters_snapshot() {
        push(name, SeriesPoint { at: t_us, value });
    }
    for (name, value) in recorder::gauges_snapshot() {
        push(name, SeriesPoint { at: t_us, value });
    }
    for (name, hist) in recorder::histograms_snapshot() {
        let HistogramSummary { p90, .. } = hist.summary();
        let series = intern_hist_name(name);
        push(
            series,
            SeriesPoint {
                at: t_us,
                value: p90,
            },
        );
    }
}

/// Interns `<hist>.p90` once per histogram name; the leak is bounded by
/// the (small, fixed) set of histogram names, like the recorder's own
/// restore-name interning.
fn intern_hist_name(name: &'static str) -> &'static str {
    let mut names = registry()
        .hist_names
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = names.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(format!("{name}.p90").into_boxed_str());
    names.insert(name.to_owned(), leaked);
    leaked
}

/// Every series recorded so far, in name order.
pub fn wall_series() -> Vec<(&'static str, Vec<SeriesPoint>)> {
    registry()
        .wall
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, ring)| (name, ring.iter().copied().collect()))
        .collect()
}

/// Clears every series (done automatically by
/// [`install`](crate::install), alongside the counter, gauge and
/// histogram registries), so back-to-back sessions never report stale
/// series.
pub fn clear() {
    registry()
        .wall
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// A lightweight background sampler: one thread calling [`wall_sample`]
/// (then an optional caller hook) at a fixed wall-clock interval, until
/// stopped or dropped.
///
/// The thread polls its stop flag every few milliseconds between
/// samples, so [`Sampler::stop`] returns promptly even for long
/// intervals. Sampling reads registries under short-lived locks and
/// never blocks instrumentation's fast path.
#[must_use = "a sampler stops sampling when dropped"]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling every `interval`.
    pub fn start(interval: Duration) -> Self {
        Sampler::start_with(interval, || {})
    }

    /// Starts sampling every `interval`, invoking `on_sample` after each
    /// [`wall_sample`] — the hook live-status publishers attach their
    /// file write to. The first sample fires after one interval, not
    /// immediately (callers wanting an initial data point take it
    /// synchronously before starting the sampler).
    pub fn start_with(interval: Duration, on_sample: impl Fn() + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("mce-obs-sampler".to_owned())
            .spawn(move || {
                const POLL: Duration = Duration::from_millis(5);
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                        let step = POLL.min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    wall_sample();
                    on_sample();
                }
            })
            .expect("spawning the sampler thread");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{counter_add, histogram_record, install, uninstall, TEST_LOCK};
    use crate::sink::MemorySink;

    fn with_recorder<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install(Arc::new(MemorySink::new()));
        let r = f();
        uninstall();
        r
    }

    #[test]
    fn wall_samples_carry_histogram_p90_series() {
        let wall = with_recorder(|| {
            for v in [10, 20, 30] {
                histogram_record("ts.lat_us", v);
            }
            wall_sample();
            wall_series()
        });
        let (_, points) = wall
            .iter()
            .find(|(name, _)| *name == "ts.lat_us.p90")
            .expect("derived histogram series present");
        assert_eq!(points.len(), 1);
        assert!(points[0].value >= 10, "{points:?}");
    }

    #[test]
    fn wall_rings_are_bounded() {
        let series = with_recorder(|| {
            histogram_record("ts.ring_us", 5);
            for _ in 0..SERIES_CAPACITY + 3 {
                counter_add("ts.ring", 1);
                wall_sample();
            }
            wall_series()
        });
        for (name, points) in &series {
            assert_eq!(points.len(), SERIES_CAPACITY, "{name} bounded at capacity");
            assert!(
                points.windows(2).all(|w| w[0].at <= w[1].at),
                "{name} keeps sample order"
            );
        }
        assert!(series.iter().any(|(name, _)| *name == "ts.ring_us.p90"));
        // The oldest points are evicted first: the counter read 1..=N+3.
        let (_, ring) = series.iter().find(|(name, _)| *name == "ts.ring").unwrap();
        assert_eq!(ring[0].value, 4);
        assert_eq!(ring[SERIES_CAPACITY - 1].value, SERIES_CAPACITY as u64 + 3);
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        clear();
        wall_sample();
        assert!(wall_series().is_empty());
    }

    #[test]
    fn sampler_takes_periodic_samples_and_stops() {
        with_recorder(|| {
            counter_add("ts.sampled", 1);
            let fired = Arc::new(AtomicBool::new(false));
            let fired_flag = fired.clone();
            let sampler = Sampler::start_with(Duration::from_millis(10), move || {
                fired_flag.store(true, Ordering::SeqCst);
            });
            // Wait for at least one sample without assuming scheduling.
            for _ in 0..200 {
                if fired.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            sampler.stop();
            assert!(fired.load(Ordering::SeqCst), "the on_sample hook ran");
            let series: BTreeMap<_, _> = wall_series().into_iter().collect();
            assert!(
                series.get("ts.sampled").is_some_and(|p| !p.is_empty()),
                "the sampler recorded wall points: {series:?}"
            );
        });
    }
}
