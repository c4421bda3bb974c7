//! In-memory spans recorded around the traced pass's layer calls, with
//! per-layer self time and Chrome trace export.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are microseconds since the recorder's epoch,
/// and spans of one pipeline pass share a run id.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    run: u32,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One layer's aggregate over its spans in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Layer name.
    pub name: &'static str,
    /// Run id.
    pub run: u32,
    /// Spans aggregated.
    pub calls: usize,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed self time, microseconds.
    pub self_us: f64,
}

/// Collects spans; written out once, after the benchmark finished.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run: u32,
    ) -> usize {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u32,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        (out, self.record(name, start, Instant::now(), parent, run))
    }

    /// Re-times span `index` to end now (for a parent opened before its
    /// children were known).
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// Opens a parent span that [`Recorder::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, run)
    }

    /// Duration of span `index`, in seconds.
    pub fn secs(&self, index: usize) -> f64 {
        self.spans[index].dur_us() / 1e6
    }

    /// Summed duration of `index`'s direct children, microseconds.
    fn children_us(&self, index: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::dur_us)
            .sum()
    }

    /// Share (0–1) of span `index` covered by its direct children.
    pub fn coverage(&self, index: usize) -> f64 {
        let dur = self.spans[index].dur_us();
        if dur <= 0.0 {
            0.0
        } else {
            self.children_us(index) / dur
        }
    }

    /// Per-layer totals in first-seen order, one row per (run, name),
    /// where self time is a span's duration minus its direct children's.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut rows: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_us = s.dur_us() - self.children_us(i);
            match rows.iter_mut().find(|r| r.name == s.name && r.run == s.run) {
                Some(r) => {
                    r.calls += 1;
                    r.total_us += s.dur_us();
                    r.self_us += self_us;
                }
                None => rows.push(SelfTime {
                    name: s.name,
                    run: s.run,
                    calls: 1,
                    total_us: s.dur_us(),
                    self_us,
                }),
            }
        }
        rows
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// one thread lane per run, with the parent and run id as arguments.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| {
                format!("\"{}#{p}\"", self.spans[p].name)
            });
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":\"{}#{i}\",\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.run,
                s.name,
                s.run
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::default();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = rec.record("root", at(0), at(100), None, 0);
        let child = rec.record("child", at(10), at(70), Some(root), 0);
        rec.record("grandchild", at(20), at(50), Some(child), 0);
        let rows = rec.self_times();
        let self_ms = |name: &str| rows.iter().find(|r| r.name == name).unwrap().self_us / 1e3;
        assert!((self_ms("root") - 40.0).abs() < 1e-6);
        assert!((self_ms("child") - 30.0).abs() < 1e-6);
        assert!((self_ms("grandchild") - 30.0).abs() < 1e-6);
        assert!((rec.coverage(root) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parents() {
        let mut rec = Recorder::default();
        let root = rec.open("root", None, 0);
        rec.time("leaf", Some(root), 0, || ());
        rec.close(root);
        let doc = memory_conex::obs::json::parse(&rec.chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|p| p.as_str()), Some("root#0"));
    }
}
