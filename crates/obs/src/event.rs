//! The structured event model.
//!
//! Every observation the pipeline makes is one [`Event`]: a microsecond
//! timestamp relative to sink installation and a typed [`EventKind`]
//! payload. Events split into two classes:
//!
//! * **deterministic** events — phase spans, counter/gauge snapshots and
//!   messages — are always emitted from the coordinating thread, so their
//!   non-timing fields appear in the same order regardless of worker-thread
//!   count or scheduling;
//! * **schedule-dependent** events ([`EventKind::Worker`] lanes and
//!   [`EventKind::Progress`] ticks) describe the parallel execution itself
//!   and naturally vary with the thread count.
//!
//! [`Event::schedule_dependent`] distinguishes the two, and
//! [`Event::identity`] renders the non-timing fields so tests can assert
//! that serial and parallel runs observe the same deterministic event
//! stream.

use std::fmt;

/// Verbosity of a [`EventKind::Message`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-signal messages a user running with `--progress` wants to see.
    Info,
    /// Detailed diagnostics, enabled with `MCE_LOG=debug`.
    Debug,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Info => "info",
            Level::Debug => "debug",
        })
    }
}

/// The typed payload of one observation.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A phase-scoped timer opened on the coordinating thread (lane 0).
    SpanBegin {
        /// Span name, e.g. `conex.estimate`.
        name: &'static str,
    },
    /// The matching close of a [`EventKind::SpanBegin`].
    SpanEnd {
        /// Span name, matching the begin event.
        name: &'static str,
        /// Wall-clock duration of the span in microseconds.
        dur_us: u64,
    },
    /// One worker thread's completed slice of a parallel region. Emitted
    /// after the workers join, in worker order, so the event *order* is
    /// deterministic even though the payload (and whether the event exists
    /// at all) depends on the thread count.
    Worker {
        /// Name of the parallel region, e.g. `conex.estimate`.
        name: &'static str,
        /// Worker lane (1-based; lane 0 is the coordinating thread).
        lane: u32,
        /// Start of the worker's span, microseconds since installation.
        start_us: u64,
        /// Wall-clock duration of the worker's span in microseconds.
        dur_us: u64,
        /// Time actually spent inside the mapped closure, microseconds.
        busy_us: u64,
        /// Items this worker processed.
        items: u64,
    },
    /// A named counter's running total at a snapshot point.
    Counter {
        /// Counter name, e.g. `conex.candidates_enumerated`.
        name: &'static str,
        /// The total accumulated so far.
        value: u64,
    },
    /// A named gauge's high-water mark at a snapshot point.
    Gauge {
        /// Gauge name, e.g. `sim.posted_backlog_highwater`.
        name: &'static str,
        /// The maximum observed so far.
        value: u64,
    },
    /// A named histogram's summary at a snapshot point. The sample values
    /// are wall-clock measurements, so the payload (and, for per-worker
    /// histograms, the count) is schedule-dependent; only the emission
    /// order — name order at each snapshot — is stable.
    Histogram {
        /// Histogram name, e.g. `conex.simulate.item_us`.
        name: &'static str,
        /// Number of recorded samples.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Smallest sample.
        min: u64,
        /// Largest sample.
        max: u64,
        /// Median estimate.
        p50: u64,
        /// 90th-percentile estimate.
        p90: u64,
        /// 99th-percentile estimate.
        p99: u64,
    },
    /// A rate-limited progress tick from inside a parallel region.
    Progress {
        /// Name of the region making progress.
        name: &'static str,
        /// Items completed so far.
        done: u64,
        /// Total items in the region.
        total: u64,
    },
    /// A freeform diagnostic line (replaces ad-hoc `eprintln!`s).
    Message {
        /// Verbosity class.
        level: Level,
        /// The message text.
        text: String,
    },
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the sink was installed.
    pub t_us: u64,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// True for events whose existence or payload depends on worker-thread
    /// scheduling ([`EventKind::Worker`], [`EventKind::Progress`] and
    /// [`EventKind::Histogram`] — histogram payloads are wall-clock
    /// samples). Everything else is emitted from the coordinating thread
    /// in a schedule-independent order.
    pub fn schedule_dependent(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Worker { .. } | EventKind::Progress { .. } | EventKind::Histogram { .. }
        )
    }

    /// The event's non-timing fields as a comparable string. Two runs of
    /// the same exploration produce identical identity sequences for their
    /// deterministic events, regardless of thread count.
    pub fn identity(&self) -> String {
        match &self.kind {
            EventKind::SpanBegin { name } => format!("span_begin:{name}"),
            EventKind::SpanEnd { name, .. } => format!("span_end:{name}"),
            EventKind::Worker {
                name, lane, items, ..
            } => {
                format!("worker:{name}:{lane}:{items}")
            }
            EventKind::Counter { name, value } => format!("counter:{name}={value}"),
            EventKind::Gauge { name, value } => format!("gauge:{name}={value}"),
            EventKind::Histogram { name, count, .. } => format!("hist:{name}:n={count}"),
            EventKind::Progress { name, done, total } => {
                format!("progress:{name}:{done}/{total}")
            }
            EventKind::Message { level, text } => format!("message:{level}:{text}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_ignores_timing_fields() {
        let a = Event {
            t_us: 100,
            kind: EventKind::SpanEnd {
                name: "x",
                dur_us: 5,
            },
        };
        let b = Event {
            t_us: 777,
            kind: EventKind::SpanEnd {
                name: "x",
                dur_us: 5000,
            },
        };
        assert_eq!(a.identity(), b.identity());
    }

    #[test]
    fn schedule_dependent_classes() {
        let mk = |kind| Event { t_us: 0, kind };
        assert!(mk(EventKind::Worker {
            name: "w",
            lane: 1,
            start_us: 0,
            dur_us: 0,
            busy_us: 0,
            items: 0
        })
        .schedule_dependent());
        assert!(mk(EventKind::Progress {
            name: "p",
            done: 1,
            total: 2
        })
        .schedule_dependent());
        assert!(!mk(EventKind::SpanBegin { name: "s" }).schedule_dependent());
        assert!(!mk(EventKind::Counter {
            name: "c",
            value: 1
        })
        .schedule_dependent());
    }
}
