//! The global recorder: a process-wide sink slot plus the counter/gauge
//! registry, designed so the disabled path costs one relaxed atomic load.
//!
//! No sink installed (the default) means every instrumentation call —
//! [`span`], [`counter_add`], [`progress`] — short-circuits on
//! [`tracing_enabled`] before touching any lock, formatting anything or
//! reading the clock. Installing a sink with [`install`] resets the
//! epoch and the counter registry, so each run's events start from a
//! clean slate.

use crate::event::{Event, EventKind, Level};
use crate::hist::{HistRegistry, Histogram, HistogramSummary};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// The installed sink plus the timestamp origin of its run.
struct Installed {
    sink: Arc<dyn Sink>,
    epoch: Instant,
}

/// Process-wide recorder state.
struct Global {
    enabled: AtomicBool,
    level: AtomicU8,
    installed: RwLock<Option<Installed>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, u64>>,
    hists: HistRegistry,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        enabled: AtomicBool::new(false),
        level: AtomicU8::new(level_to_u8(Level::Info)),
        installed: RwLock::new(None),
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: HistRegistry::new(),
    })
}

fn level_to_u8(level: Level) -> u8 {
    match level {
        Level::Info => 0,
        Level::Debug => 1,
    }
}

/// Installs `sink` as the process-wide event sink, replacing any previous
/// one. Resets the timestamp epoch and all counters and gauges, so the
/// new sink observes a fresh run.
pub fn install(sink: Arc<dyn Sink>) {
    let g = global();
    {
        let mut slot = g.installed.write().unwrap_or_else(PoisonError::into_inner);
        reset_counters();
        *slot = Some(Installed {
            sink,
            epoch: Instant::now(),
        });
    }
    g.enabled.store(true, Ordering::SeqCst);
}

/// Removes the installed sink (instrumentation returns to the no-op fast
/// path) and returns it, so callers can render buffering sinks.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let g = global();
    g.enabled.store(false, Ordering::SeqCst);
    let mut slot = g.installed.write().unwrap_or_else(PoisonError::into_inner);
    slot.take().map(|i| i.sink)
}

/// True when a sink is installed. The disabled path of every
/// instrumentation call is exactly this one relaxed atomic load.
#[inline]
pub fn tracing_enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Sets the message verbosity threshold ([`Level::Debug`] passes both
/// levels, [`Level::Info`] drops debug messages).
pub fn set_level(level: Level) {
    global().level.store(level_to_u8(level), Ordering::Relaxed);
}

/// True when messages at `level` pass the current verbosity threshold.
pub fn level_enabled(level: Level) -> bool {
    level_to_u8(level) <= global().level.load(Ordering::Relaxed)
}

/// Reads the `MCE_LOG` environment variable (`off`, `info` or `debug`) and
/// applies it as the message verbosity. Unset or unrecognized values keep
/// the default ([`Level::Info`]). Returns the applied level, or `None` for
/// `off`.
pub fn init_level_from_env() -> Option<Level> {
    match std::env::var("MCE_LOG").ok().as_deref() {
        Some("debug") => {
            set_level(Level::Debug);
            Some(Level::Debug)
        }
        Some("off") => None,
        _ => {
            set_level(Level::Info);
            Some(Level::Info)
        }
    }
}

/// Microseconds since the current sink was installed (0 when disabled).
pub fn now_us() -> u64 {
    let g = global();
    if !g.enabled.load(Ordering::Relaxed) {
        return 0;
    }
    let slot = g.installed.read().unwrap_or_else(PoisonError::into_inner);
    slot.as_ref()
        .map(|i| i.epoch.elapsed().as_micros() as u64)
        .unwrap_or(0)
}

/// Stamps `kind` with the current timestamp and hands it to the
/// installed sink. No-op when disabled.
pub fn emit(kind: EventKind) {
    let g = global();
    if !g.enabled.load(Ordering::Relaxed) {
        return;
    }
    let slot = g.installed.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(installed) = slot.as_ref() {
        let event = Event {
            t_us: installed.epoch.elapsed().as_micros() as u64,
            kind,
        };
        installed.sink.record(&event);
    }
}

/// A phase-scoped timer: emits [`EventKind::SpanBegin`] on creation and
/// [`EventKind::SpanEnd`] (with the measured duration) on drop.
///
/// Spans nest lexically — create them on the coordinating thread in the
/// order the phases run, and drop order closes them innermost-first.
#[must_use = "a span records its duration when dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_us = start.elapsed().as_micros() as u64;
            // Span durations also feed the histogram registry under the
            // span's name, so per-phase wall time (count + total + tail
            // quantiles across repeated phases) is available to run
            // reports without replaying the event stream.
            histogram_record(self.name, dur_us);
            emit(EventKind::SpanEnd {
                name: self.name,
                dur_us,
            });
        }
    }
}

/// Opens a phase span named `name`. When tracing is disabled this is a
/// no-op guard that never reads the clock.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { name, start: None };
    }
    emit(EventKind::SpanBegin { name });
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

/// Adds `delta` to the named counter's running total. Totals are
/// commutative, so worker threads may call this concurrently; the totals
/// reported by [`snapshot_counters`] at phase boundaries are deterministic.
/// A `delta` of 0 still registers the counter, so zero-valued funnel
/// stages show up in snapshots rather than silently disappearing.
pub fn counter_add(name: &'static str, delta: u64) {
    if !tracing_enabled() {
        return;
    }
    let mut counters = global()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *counters.entry(name).or_insert(0) += delta;
}

/// Raises the named gauge to `value` if it exceeds the current high-water
/// mark.
pub fn gauge_max(name: &'static str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    let mut gauges = global()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let entry = gauges.entry(name).or_insert(0);
    *entry = (*entry).max(value);
}

/// Interns a runtime string as a `&'static str` so restored registry
/// names (which arrive from checkpoint files, not string literals) can
/// live in the same registries as literal names. Each unique name leaks
/// once; repeats reuse the interned copy, so the leak is bounded by the
/// (small, fixed) set of counter/gauge names.
fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Sets the named counter to an absolute `value`, replacing any current
/// total. Used when resuming from a checkpoint: restored totals pick up
/// exactly where the interrupted run's registry left off, so subsequent
/// [`counter_add`] calls produce the same final totals an uninterrupted
/// run would have. No-op when tracing is disabled (matching
/// [`counter_add`]).
pub fn counter_restore(name: &str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    let name = intern(name);
    let mut counters = global()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    counters.insert(name, value);
}

/// Sets the named gauge's high-water mark to an absolute `value` (the
/// checkpoint-resume counterpart of [`gauge_max`]). Later `gauge_max`
/// calls still only raise it. No-op when tracing is disabled.
pub fn gauge_restore(name: &str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    let name = intern(name);
    let mut gauges = global()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    gauges.insert(name, value);
}

/// Records `value` into the named histogram (see [`crate::hist`] for the
/// deterministic bucket layout). Worker threads may call this
/// concurrently: records serialize on the registry lock, and bucket totals
/// are commutative, so the histograms read at phase boundaries hold the
/// same counts for any thread count.
pub fn histogram_record(name: &'static str, value: u64) {
    if !tracing_enabled() {
        return;
    }
    global().hists.record(name, value);
}

/// A scoped timer: measures the wall time from creation to drop and
/// records it (in microseconds) into the named histogram. The cheap
/// per-item counterpart of [`span`] — it touches the histogram registry
/// only, emitting no events, so it can wrap per-candidate work inside
/// parallel regions.
#[must_use = "a time scope records its duration when dropped"]
pub struct TimeScope {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for TimeScope {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            histogram_record(self.name, start.elapsed().as_micros() as u64);
        }
    }
}

/// Opens a scoped timer recording into the named histogram on drop. When
/// tracing is disabled this never reads the clock — the cost is one
/// relaxed atomic load.
pub fn time_scope(name: &'static str) -> TimeScope {
    if !tracing_enabled() {
        return TimeScope { name, start: None };
    }
    TimeScope {
        name,
        start: Some(Instant::now()),
    }
}

/// The named histogram's summary, if it has recorded samples.
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    global().hists.get(name).map(|h| h.summary())
}

/// Every histogram recorded so far, in name order.
pub fn histograms_snapshot() -> Vec<(&'static str, Histogram)> {
    global().hists.snapshot()
}

/// Every counter's current total, in name order.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    global()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// Every gauge's current high-water mark, in name order.
pub fn gauges_snapshot() -> Vec<(&'static str, u64)> {
    global()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// The named counter's current total (0 when absent or disabled).
pub fn counter_value(name: &str) -> u64 {
    global()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// The named gauge's current high-water mark (0 when absent or disabled).
pub fn gauge_value(name: &str) -> u64 {
    global()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Clears all counters, gauges, histograms and time-series rings (done
/// automatically by [`install`]), so back-to-back sessions in one
/// process never report stale totals, peak values, latency samples or
/// sampled series from a previous run.
pub fn reset_counters() {
    let g = global();
    g.counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    g.gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    g.hists.clear();
    crate::timeseries::clear();
}

/// Emits one [`EventKind::Counter`] event per counter, one
/// [`EventKind::Gauge`] per gauge and one [`EventKind::Histogram`] per
/// histogram, in name order per class. Call this from the coordinating
/// thread at phase boundaries (after workers have joined) so the snapshot
/// totals — and their event order — are deterministic. (Histogram *values*
/// are wall-clock measurements and therefore schedule-dependent; only
/// their presence and order are stable.)
pub fn snapshot_counters() {
    if !tracing_enabled() {
        return;
    }
    let counters: Vec<(&'static str, u64)> = {
        let c = global()
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        c.iter().map(|(&k, &v)| (k, v)).collect()
    };
    for (name, value) in counters {
        emit(EventKind::Counter { name, value });
    }
    let gauges: Vec<(&'static str, u64)> = {
        let g = global()
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g.iter().map(|(&k, &v)| (k, v)).collect()
    };
    for (name, value) in gauges {
        emit(EventKind::Gauge { name, value });
    }
    for (name, hist) in global().hists.snapshot() {
        let s = hist.summary();
        emit(EventKind::Histogram {
            name,
            count: s.count,
            sum: s.sum,
            min: s.min,
            max: s.max,
            p50: s.p50,
            p90: s.p90,
            p99: s.p99,
        });
    }
}

/// Emits a progress tick for a parallel region. Schedule-dependent: ticks
/// arrive in completion order, not item order.
pub fn progress(name: &'static str, done: u64, total: u64) {
    if !tracing_enabled() {
        return;
    }
    emit(EventKind::Progress { name, done, total });
}

/// Emits one worker-lane span (used by the parallel map after its workers
/// join; `lane` is 1-based, lane 0 being the coordinating thread).
pub fn worker_span(
    name: &'static str,
    lane: u32,
    start_us: u64,
    dur_us: u64,
    busy_us: u64,
    items: u64,
) {
    if !tracing_enabled() {
        return;
    }
    emit(EventKind::Worker {
        name,
        lane,
        start_us,
        dur_us,
        busy_us,
        items,
    });
}

/// Emits an info-level message; the closure runs only when a sink is
/// installed and info messages pass the verbosity threshold.
pub fn info(text: impl FnOnce() -> String) {
    message(Level::Info, text);
}

/// Emits a debug-level message; the closure runs only when a sink is
/// installed and `MCE_LOG=debug` (or [`set_level`]) enabled debug output.
pub fn debug(text: impl FnOnce() -> String) {
    message(Level::Debug, text);
}

/// Emits a message at `level`, lazily formatting it.
pub fn message(level: Level, text: impl FnOnce() -> String) {
    if !tracing_enabled() || !level_enabled(level) {
        return;
    }
    emit(EventKind::Message {
        level,
        text: text(),
    });
}

/// The recorder is process-global; every in-crate test module that
/// installs a sink serializes on this one lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn with_recorder<R>(f: impl FnOnce(Arc<MemorySink>) -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let r = f(sink.clone());
        uninstall();
        r
    }

    #[test]
    fn disabled_is_silent_and_cheap() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        assert!(!tracing_enabled());
        let _span = span("nothing");
        counter_add("nothing", 5);
        progress("nothing", 1, 2);
        assert_eq!(counter_value("nothing"), 0);
        assert_eq!(now_us(), 0);
    }

    #[test]
    fn spans_nest_and_measure() {
        let events = with_recorder(|sink| {
            {
                let _outer = span("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            sink.take()
        });
        let ids: Vec<String> = events.iter().map(Event::identity).collect();
        assert_eq!(
            ids,
            vec![
                "span_begin:outer",
                "span_begin:inner",
                "span_end:inner",
                "span_end:outer"
            ]
        );
        let dur = |name: &str| {
            events
                .iter()
                .find_map(|e| match &e.kind {
                    EventKind::SpanEnd { name: n, dur_us } if *n == name => Some(*dur_us),
                    _ => None,
                })
                .unwrap()
        };
        assert!(dur("inner") >= 1_000, "inner {}", dur("inner"));
        assert!(
            dur("outer") >= dur("inner"),
            "outer {} inner {}",
            dur("outer"),
            dur("inner")
        );
    }

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let events = with_recorder(|sink| {
            counter_add("b.second", 2);
            counter_add("a.first", 1);
            counter_add("a.first", 10);
            gauge_max("z.high", 5);
            gauge_max("z.high", 3);
            assert_eq!(counter_value("a.first"), 11);
            assert_eq!(gauge_value("z.high"), 5);
            snapshot_counters();
            sink.take()
        });
        let ids: Vec<String> = events.iter().map(Event::identity).collect();
        assert_eq!(
            ids,
            vec!["counter:a.first=11", "counter:b.second=2", "gauge:z.high=5"]
        );
    }

    #[test]
    fn message_level_filtering() {
        let events = with_recorder(|sink| {
            set_level(Level::Info);
            debug(|| "dropped".to_owned());
            info(|| "kept".to_owned());
            set_level(Level::Debug);
            debug(|| "kept too".to_owned());
            sink.take()
        });
        let ids: Vec<String> = events.iter().map(Event::identity).collect();
        assert_eq!(ids, vec!["message:info:kept", "message:debug:kept too"]);
    }

    #[test]
    fn time_scope_and_histogram_record_feed_the_registry() {
        with_recorder(|_| {
            histogram_record("h.direct", 7);
            histogram_record("h.direct", 9);
            {
                let _t = time_scope("h.scoped");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let direct = histogram_summary("h.direct").expect("recorded");
            assert_eq!(direct.count, 2);
            assert_eq!(direct.sum, 16);
            assert_eq!((direct.min, direct.max), (7, 9));
            let scoped = histogram_summary("h.scoped").expect("recorded");
            assert_eq!(scoped.count, 1);
            assert!(scoped.sum >= 1_000, "2ms scope measured {}us", scoped.sum);
        });
    }

    #[test]
    fn spans_record_their_duration_as_a_histogram() {
        with_recorder(|_| {
            for _ in 0..3 {
                let _s = span("h.phase");
            }
            let s = histogram_summary("h.phase").expect("span durations recorded");
            assert_eq!(s.count, 3, "one sample per span opening");
        });
    }

    #[test]
    fn snapshot_emits_histograms_after_counters_and_gauges() {
        let events = with_recorder(|sink| {
            counter_add("a.count", 1);
            gauge_max("b.gauge", 2);
            histogram_record("c.hist", 10);
            snapshot_counters();
            sink.take()
        });
        let ids: Vec<String> = events.iter().map(Event::identity).collect();
        assert_eq!(
            ids,
            vec!["counter:a.count=1", "gauge:b.gauge=2", "hist:c.hist:n=1"]
        );
    }

    /// Regression test: a second back-to-back session in the same process
    /// must not see the previous session's counter totals, gauge peaks,
    /// histogram samples or time-series rings ([`install`] resets all
    /// four registries).
    #[test]
    fn install_resets_counters_gauges_and_histograms() {
        with_recorder(|_| {
            counter_add("s.count", 41);
            gauge_max("s.peak", 99);
            histogram_record("s.lat", 1234);
            crate::timeseries::wall_sample();
            assert_eq!(gauge_value("s.peak"), 99);
            assert!(!crate::timeseries::wall_series().is_empty());
        });
        with_recorder(|_| {
            assert_eq!(counter_value("s.count"), 0, "stale counter total");
            assert_eq!(gauge_value("s.peak"), 0, "stale gauge peak");
            assert!(
                histogram_summary("s.lat").is_none(),
                "stale histogram samples"
            );
            assert!(
                crate::timeseries::wall_series().is_empty(),
                "stale time-series rings"
            );
            // A lower peak in the new session must win from scratch.
            gauge_max("s.peak", 5);
            assert_eq!(gauge_value("s.peak"), 5);
        });
    }

    #[test]
    fn disabled_histograms_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        reset_counters();
        histogram_record("off.h", 5);
        let _t = time_scope("off.h");
        drop(_t);
        assert!(histogram_summary("off.h").is_none());
    }

    #[test]
    fn lazy_formatting_skipped_when_disabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        let mut called = false;
        info(|| {
            called = true;
            String::new()
        });
        assert!(!called, "closure must not run without a sink");
    }
}
