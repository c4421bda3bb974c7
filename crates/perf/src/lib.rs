//! # mce-perf — the exploration benchmark
//!
//! Measures the APEX → ConEx pipeline end to end and layer by layer on
//! three workloads (see [`workloads::WORKLOADS`] and `README.md`):
//!
//! * the **timed pass** ([`timed`]) runs closed-loop, back-to-back
//!   `ExplorationSession::run` calls with tracing off and yields the
//!   end-to-end metrics ([`timed::Timed::metrics`]);
//! * the **traced pass** ([`traced`]) replays the same pipeline as a
//!   sequence of public layer calls, each wrapped in a span
//!   ([`spans::Recorder`]), and yields the per-layer metrics.
//!
//! Both passes check their results: every repetition must reproduce the
//! same `result_digest` ([`stats::result_digest`]), seed 0 must match the
//! digest pinned in [`workloads::Spec::pinned_digest`], and the traced pass must reproduce
//! the timed pass bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty sample) read as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}
