//! # mce-obs — structured tracing, counters and progress reporting
//!
//! The observability substrate of the exploration pipeline: a
//! zero-dependency structured-event layer that makes a whole `ConEx` run —
//! profile, BRG build, clustering, allocation enumeration, Phase-I
//! estimation, Phase-II full simulation — visible as spans, counters and
//! per-worker lanes, without perturbing results.
//!
//! ## Model
//!
//! * **Spans** ([`span`]) are phase-scoped timers opened on the
//!   coordinating thread; they nest lexically and emit begin/end events.
//! * **Counters** ([`counter_add`]) and **gauges** ([`gauge_max`]) are
//!   named atomic totals (funnel sizes, accesses replayed, stall cycles).
//!   Worker threads may bump them concurrently; [`snapshot_counters`]
//!   emits the totals as events at phase boundaries, where they are
//!   deterministic.
//! * **Histograms** ([`histogram_record`], [`time_scope`]) are
//!   mergeable latency distributions with a deterministic
//!   power-of-two bucket layout ([`hist`]): per-candidate simulate latency,
//!   cache-probe latency and per-worker occupancy get p50/p90/p99
//!   summaries, not just totals. Spans feed their durations in
//!   automatically, so every phase also has a duration histogram.
//! * **Worker lanes** ([`worker_span`]) and **progress ticks**
//!   ([`progress`]) describe parallel execution; they are the only
//!   [schedule-dependent](Event::schedule_dependent) events.
//! * **Time series** ([`timeseries`]) are fixed-capacity ring buffers of
//!   wall-clock registry snapshots taken by a background [`Sampler`],
//!   feeding live status files and `mce top` sparklines.
//! * **JSON** ([`json`]) is the workspace's JSON reader and writer: run
//!   reports and every [`json_codec!`] type print through
//!   [`json::Writer`].
//!
//! Events go to a process-global [`Sink`] installed with [`install`]. With
//! no sink installed (the default), every instrumentation call
//! short-circuits on one relaxed atomic load — the pipeline's hot paths
//! pay effectively nothing, and results are bit-identical with tracing on
//! or off because instrumentation never branches the computation.
//!
//! ## Sinks
//!
//! * [`MemorySink`] — in-memory buffer (tests, programmatic inspection).
//! * [`ChromeTraceSink`] — Chrome trace-event JSON; open the file in
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see the run as a
//!   flame chart with per-worker lanes.
//! * [`ProgressReporter`] — human-readable progress lines (rate + ETA) on
//!   stderr.
//! * [`MultiSink`] — fan-out to several of the above.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(mce_obs::MemorySink::new());
//! mce_obs::install(sink.clone());
//! {
//!     let _phase = mce_obs::span("demo.phase");
//!     mce_obs::counter_add("demo.items", 3);
//! }
//! mce_obs::snapshot_counters();
//! mce_obs::uninstall();
//!
//! let events = sink.take();
//! let ids: Vec<String> = events.iter().map(|e| e.identity()).collect();
//! assert_eq!(
//!     ids,
//!     [
//!         "span_begin:demo.phase",
//!         "span_end:demo.phase",
//!         "counter:demo.items=3",
//!         // The span fed its duration into the histogram registry.
//!         "hist:demo.phase:n=1",
//!     ]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod sink;
pub mod timeseries;

pub use event::{Event, EventKind, Level};
pub use fnv::{fnv128, Fnv128};
pub use hist::{Histogram, HistogramSummary};
pub use recorder::{
    counter_add, counter_restore, counter_value, counters_snapshot, debug, emit, gauge_max,
    gauge_restore, gauge_value, gauges_snapshot, histogram_record, histogram_summary,
    histograms_snapshot, info, init_level_from_env, install, level_enabled, message, now_us,
    progress, reset_counters, set_level, snapshot_counters, span, time_scope, tracing_enabled,
    uninstall, worker_span, SpanGuard, TimeScope,
};
pub use sink::{
    render_chrome_trace, ChromeTraceSink, MemorySink, MultiSink, NullSink, ProgressReporter, Sink,
};
pub use timeseries::{wall_sample, wall_series, Sampler, SeriesPoint, SERIES_CAPACITY};
