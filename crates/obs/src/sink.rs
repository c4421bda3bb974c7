//! Event sinks: where recorded events go.
//!
//! * [`MemorySink`] — buffers events for tests and programmatic inspection.
//! * [`ChromeTraceSink`] — buffers events and renders them in the Chrome
//!   trace-event format, openable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev): phase spans on lane 0, one lane
//!   per worker thread, counters as counter tracks.
//! * [`ProgressReporter`] — rate-limited human-readable progress lines
//!   (with throughput and ETA) plus messages, on stderr.
//! * [`MultiSink`] — fans every event out to several sinks.
//! * [`NullSink`] — discards events; installed when only the recorder's
//!   counter/gauge/histogram registries are wanted (e.g. `--report-out`
//!   without any trace sink).

use crate::event::{Event, EventKind};
use crate::json::escape_json;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A destination for recorded events. Implementations must be cheap and
/// non-blocking enough to sit on the exploration's coordinating thread.
pub trait Sink: Send + Sync {
    /// Receives one event. Events arrive in emission order per thread; see
    /// [`Event::schedule_dependent`] for which events may interleave.
    fn record(&self, event: &Event);
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// Buffers every event in memory; the test and inspection sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the buffered events, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A copy of the buffered events.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

/// Buffers events and renders the Chrome trace-event JSON format.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Mutex<Vec<Event>>,
}

impl ChromeTraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders everything recorded so far as a Chrome trace JSON document
    /// (`{"traceEvents": [...]}`), with phase spans on lane 0, worker
    /// spans on their own lanes, and counters/gauges as counter tracks.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        render_chrome_trace(&events)
    }
}

impl Sink for ChromeTraceSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

/// Renders a slice of events in the Chrome trace-event format.
///
/// Mapping: [`EventKind::SpanBegin`]/[`EventKind::SpanEnd`] become `B`/`E`
/// duration events on thread 0; [`EventKind::Worker`] becomes a complete
/// (`X`) event on its lane; counters and gauges become `C` counter events;
/// messages become instant (`i`) events; progress ticks are elided (they
/// exist for live reporting, not for the flame chart).
pub fn render_chrome_trace(events: &[Event]) -> String {
    let mut rows: Vec<String> = Vec::new();
    let mut lanes: BTreeSet<u32> = BTreeSet::new();
    lanes.insert(0);
    for ev in events {
        match &ev.kind {
            EventKind::SpanBegin { name } => rows.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"B\",\
                 \"ts\":{},\"pid\":1,\"tid\":0}}",
                ev.t_us
            )),
            EventKind::SpanEnd { name, .. } => rows.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"E\",\
                 \"ts\":{},\"pid\":1,\"tid\":0}}",
                ev.t_us
            )),
            EventKind::Worker {
                name,
                lane,
                start_us,
                dur_us,
                busy_us,
                items,
            } => {
                lanes.insert(*lane);
                rows.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"worker\",\"ph\":\"X\",\
                     \"ts\":{start_us},\"dur\":{dur_us},\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"items\":{items},\"busy_us\":{busy_us}}}}}"
                ));
            }
            EventKind::Counter { name, value } | EventKind::Gauge { name, value } => {
                rows.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                     \"args\":{{\"value\":{value}}}}}",
                    ev.t_us
                ));
            }
            EventKind::Histogram {
                name,
                count,
                p50,
                p90,
                p99,
                ..
            } => {
                rows.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                     \"args\":{{\"count\":{count},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}}}",
                    ev.t_us
                ));
            }
            EventKind::Progress { .. } => {}
            EventKind::Message { level, text } => rows.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{level}\",\"ph\":\"i\",\
                 \"ts\":{},\"pid\":1,\"tid\":0,\"s\":\"g\"}}",
                escape_json(text),
                ev.t_us
            )),
        }
    }
    // Name the lanes so Perfetto shows "main" / "worker-N" instead of bare
    // thread ids.
    for lane in lanes {
        let name = if lane == 0 {
            "main".to_owned()
        } else {
            format!("worker-{lane}")
        };
        rows.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ---------------------------------------------------------------------------
// ProgressReporter
// ---------------------------------------------------------------------------

/// Per-region throughput state for ETA computation.
#[derive(Debug)]
struct ProgressState {
    name: &'static str,
    started: Instant,
    last_print: Option<Instant>,
}

/// Prints rate-limited progress lines (`done/total`, rate, ETA) and
/// messages to stderr. Stdout stays untouched, reserved for
/// machine-readable command output.
pub struct ProgressReporter {
    min_interval: Duration,
    state: Mutex<Vec<ProgressState>>,
}

impl Default for ProgressReporter {
    fn default() -> Self {
        Self::new(Duration::from_millis(200))
    }
}

impl ProgressReporter {
    /// Creates a reporter printing at most one line per region per
    /// `min_interval` (completion lines always print).
    pub fn new(min_interval: Duration) -> Self {
        ProgressReporter {
            min_interval,
            state: Mutex::new(Vec::new()),
        }
    }

    fn print_progress(&self, name: &'static str, done: u64, total: u64) {
        let now = Instant::now();
        let (elapsed, should_print) = {
            let mut states = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let state = match states.iter_mut().find(|s| s.name == name) {
                Some(s) => s,
                None => {
                    states.push(ProgressState {
                        name,
                        started: now,
                        last_print: None,
                    });
                    states.last_mut().expect("just pushed")
                }
            };
            let due = done >= total
                || state
                    .last_print
                    .map(|t| now.duration_since(t) >= self.min_interval)
                    .unwrap_or(true);
            if due {
                state.last_print = Some(now);
            }
            (now.duration_since(state.started), due)
        };
        if !should_print {
            return;
        }
        let secs = elapsed.as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let eta = if rate > 0.0 && total >= done {
            (total - done) as f64 / rate
        } else {
            0.0
        };
        let pct = if total > 0 {
            done as f64 / total as f64 * 100.0
        } else {
            100.0
        };
        eprintln!("[{name}] {done}/{total} ({pct:.0}%)  {rate:.0}/s  eta {eta:.1}s");
    }
}

impl Sink for ProgressReporter {
    fn record(&self, event: &Event) {
        match &event.kind {
            EventKind::Progress { name, done, total } => {
                self.print_progress(name, *done, *total);
            }
            EventKind::Message { level, text } => {
                eprintln!("[{level}] {text}");
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// NullSink
// ---------------------------------------------------------------------------

/// Discards every event. Installing it still turns the recorder on, so the
/// counter, gauge and histogram registries accumulate — the cheapest way to
/// collect run metrics (for a run-report summary) without buffering or
/// writing a trace.
#[derive(Debug, Default)]
pub struct NullSink;

impl NullSink {
    /// Creates the sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

// ---------------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------------

/// Fans every event out to several sinks in order.
pub struct MultiSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl MultiSink {
    /// Creates a fan-out over `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use std::sync::Arc;

    fn sample_events() -> Vec<Event> {
        let kinds = vec![
            EventKind::SpanBegin { name: "explore" },
            EventKind::SpanBegin { name: "estimate" },
            EventKind::Worker {
                name: "estimate",
                lane: 1,
                start_us: 10,
                dur_us: 90,
                busy_us: 80,
                items: 42,
            },
            EventKind::Worker {
                name: "estimate",
                lane: 2,
                start_us: 12,
                dur_us: 88,
                busy_us: 70,
                items: 38,
            },
            EventKind::Counter {
                name: "conex.candidates_enumerated",
                value: 80,
            },
            EventKind::Gauge {
                name: "sim.posted_backlog_highwater",
                value: 512,
            },
            EventKind::Progress {
                name: "estimate",
                done: 40,
                total: 80,
            },
            EventKind::Message {
                level: Level::Info,
                text: "phase \"estimate\" done".to_owned(),
            },
            EventKind::SpanEnd {
                name: "estimate",
                dur_us: 100,
            },
            EventKind::SpanEnd {
                name: "explore",
                dur_us: 200,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                t_us: 10 * i as u64,
                kind,
            })
            .collect()
    }

    fn trace_events(json: &str) -> Vec<crate::json::Value> {
        let parsed = crate::json::parse(json).expect("chrome trace must parse");
        parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array")
            .to_vec()
    }

    fn ph(e: &crate::json::Value) -> String {
        e.get("ph").and_then(|v| v.as_str()).unwrap().to_owned()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let events = trace_events(&render_chrome_trace(&sample_events()));
        let phases: Vec<String> = events.iter().map(ph).collect();
        for expected in ["B", "E", "X", "C", "M"] {
            assert!(
                phases.iter().any(|p| p == expected),
                "missing ph {expected}"
            );
        }
        // Worker lanes land on their own tids, named for Perfetto.
        let tids: BTreeSet<u64> = events
            .iter()
            .filter(|e| ph(e) == "X")
            .map(|e| e.get("tid").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert_eq!(tids, BTreeSet::from([1, 2]));
        let names: Vec<String> = events
            .iter()
            .filter(|e| ph(e) == "M")
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_owned()
            })
            .collect();
        for lane in ["main", "worker-1", "worker-2"] {
            assert!(names.iter().any(|n| n == lane), "missing lane {lane}");
        }
    }

    #[test]
    fn chrome_trace_balances_begin_end() {
        let events = trace_events(&render_chrome_trace(&sample_events()));
        let begins = events.iter().filter(|e| ph(e) == "B").count();
        let ends = events.iter().filter(|e| ph(e) == "E").count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn memory_sink_take_empties() {
        let sink = MemorySink::new();
        for ev in sample_events() {
            sink.record(&ev);
        }
        assert_eq!(sink.snapshot().len(), sample_events().len());
        assert_eq!(sink.take().len(), sample_events().len());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn multi_sink_fans_out() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        for ev in sample_events() {
            multi.record(&ev);
        }
        assert_eq!(a.take().len(), b.take().len());
    }

    #[test]
    fn progress_reporter_rate_limits() {
        // Zero interval prints everything; a huge interval prints only the
        // first tick and the completion tick. We can't capture stderr here,
        // so exercise the state machine via print_progress directly and
        // assert it doesn't panic across edge cases.
        let r = ProgressReporter::new(Duration::from_secs(3600));
        r.print_progress("x", 0, 0); // total 0 edge case
        r.print_progress("x", 1, 100);
        r.print_progress("x", 2, 100);
        r.print_progress("x", 100, 100); // completion always prints
    }
}
