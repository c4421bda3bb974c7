//! Access-pattern extraction.
//!
//! APEX classifies each data structure's dynamic behaviour so candidate
//! generation can match modules to patterns. Two sources of evidence are
//! combined, mirroring the original tool:
//!
//! * **Trace evidence** — stride regularity and working-set reuse measured
//!   on a trace sample. This identifies streams and cache-friendly loop
//!   traffic, and separates them from irregular traffic.
//! * **Source evidence** — the original APEX walked the C source, where
//!   *self-indirect* references (`a[a[i]]`, linked lists) are syntactically
//!   visible; an address trace alone cannot distinguish them from random
//!   traffic. Our workload models carry the declared [`AccessPattern`],
//!   standing in for that source-level analysis.

use mce_appmodel::{AccessPattern, AccessProfile, DsId, Workload};
use std::collections::HashSet;
use std::fmt;

/// The pattern classes APEX matches memory modules to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// Constant-stride stream — candidate for a stream buffer.
    Stream,
    /// Value-dependent chasing — candidate for a self-indirect DMA.
    SelfIndirect,
    /// Indexed `A[B[i]]` traffic — candidate for a self-indirect DMA.
    Indexed,
    /// Small, heavily reused working set — candidate for an SRAM scratchpad.
    HotLocal,
    /// Everything else — served by the cache.
    Irregular,
}

impl fmt::Display for PatternClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PatternClass::Stream => "stream",
            PatternClass::SelfIndirect => "self-indirect",
            PatternClass::Indexed => "indexed",
            PatternClass::HotLocal => "hot-local",
            PatternClass::Irregular => "irregular",
        })
    }
}

/// Per-data-structure extraction result.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternReport {
    /// The data structure.
    pub ds: DsId,
    /// Its classified pattern.
    pub class: PatternClass,
    /// Fraction of dynamic accesses attributable to this structure.
    pub access_share: f64,
    /// Fraction of successor address deltas equal to the dominant stride
    /// (trace evidence).
    pub stride_regularity: f64,
    /// Distinct addresses touched divided by accesses (low = high reuse).
    pub reuse_factor: f64,
}

/// Footprint below which a heavily reused structure is an SRAM candidate.
const HOT_LOCAL_MAX_BYTES: u64 = 8 * 1024;
/// Stride regularity above which a structure is classified as a stream.
const STREAM_REGULARITY: f64 = 0.8;
/// Reuse factor below which traffic is considered cache/scratchpad friendly.
const HOT_REUSE: f64 = 0.3;

/// Classifies every data structure of `workload`, using a trace sample of
/// `sample_len` accesses.
///
/// Reports are ordered hottest-first (the "most active access patterns"
/// APEX attacks first).
pub fn classify(workload: &Workload, sample_len: usize) -> Vec<PatternReport> {
    let profile = AccessProfile::from_workload(workload, sample_len);
    let total = profile.total_accesses().max(1) as f64;

    // Trace evidence: dominant-stride share and reuse per structure.
    let mut last_addr: Vec<Option<u64>> = vec![None; workload.len()];
    let mut deltas: Vec<Vec<i64>> = vec![Vec::new(); workload.len()];
    let mut touched: Vec<HashSet<u64>> = vec![HashSet::new(); workload.len()];
    for acc in workload.trace(sample_len) {
        let i = acc.ds.index();
        let raw = acc.addr.raw();
        if let Some(prev) = last_addr[i] {
            deltas[i].push(raw as i64 - prev as i64);
        }
        last_addr[i] = Some(raw);
        touched[i].insert(raw);
    }

    let mut reports: Vec<PatternReport> = (0..workload.len())
        .map(|i| {
            let ds = DsId::new(i);
            let stats = profile.ds_stats(ds);
            let n = stats.accesses.max(1) as f64;
            let stride_regularity = dominant_delta_share(&deltas[i]);
            let reuse_factor = touched[i].len() as f64 / n;
            let declared = workload.data_structure(ds).pattern();
            let class = classify_one(
                declared,
                workload.data_structure(ds).footprint(),
                stride_regularity,
                reuse_factor,
            );
            PatternReport {
                ds,
                class,
                access_share: stats.accesses as f64 / total,
                stride_regularity,
                reuse_factor,
            }
        })
        .collect();
    reports.sort_by(|a, b| b.access_share.total_cmp(&a.access_share));
    reports
}

/// Share of the most common delta among successor deltas.
fn dominant_delta_share(deltas: &[i64]) -> f64 {
    if deltas.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for &d in deltas {
        *counts.entry(d).or_insert(0u64) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / deltas.len() as f64
}

/// Combines trace and source evidence into a class.
fn classify_one(
    declared: AccessPattern,
    footprint: u64,
    stride_regularity: f64,
    reuse_factor: f64,
) -> PatternClass {
    // Source evidence identifies value-dependent traffic the trace cannot.
    if matches!(declared, AccessPattern::SelfIndirect) {
        return PatternClass::SelfIndirect;
    }
    if matches!(declared, AccessPattern::Indexed { .. }) {
        return PatternClass::Indexed;
    }
    // Trace evidence decides the regular classes. High reuse over a small
    // footprint wins over stride regularity: loop nests sweep with constant
    // stride too, but a scratchpad serves them strictly better than a
    // stream buffer would.
    if reuse_factor <= HOT_REUSE && footprint <= HOT_LOCAL_MAX_BYTES {
        PatternClass::HotLocal
    } else if stride_regularity >= STREAM_REGULARITY {
        PatternClass::Stream
    } else {
        PatternClass::Irregular
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    const SAMPLE: usize = 30_000;

    fn report_for<'a>(reports: &'a [PatternReport], w: &Workload, name: &str) -> &'a PatternReport {
        let idx = w
            .data_structures()
            .iter()
            .position(|d| d.name() == name)
            .unwrap_or_else(|| panic!("no ds named {name}"));
        reports
            .iter()
            .find(|r| r.ds == DsId::new(idx))
            .expect("report exists")
    }

    #[test]
    fn compress_htab_is_self_indirect() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        assert_eq!(
            report_for(&reports, &w, "htab").class,
            PatternClass::SelfIndirect
        );
    }

    #[test]
    fn compress_input_is_stream() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let r = report_for(&reports, &w, "input_stream");
        assert_eq!(r.class, PatternClass::Stream);
        assert!(r.stride_regularity > 0.8, "{}", r.stride_regularity);
    }

    #[test]
    fn compress_locals_are_hot_local() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        let r = report_for(&reports, &w, "locals");
        assert_eq!(r.class, PatternClass::HotLocal);
        assert!(r.reuse_factor < 0.3, "{}", r.reuse_factor);
    }

    #[test]
    fn li_heap_is_self_indirect_and_hottest() {
        let w = benchmarks::li();
        let reports = classify(&w, SAMPLE);
        assert_eq!(
            reports[0].class,
            PatternClass::SelfIndirect,
            "cons_heap leads"
        );
        assert!(reports[0].access_share > 0.3);
    }

    #[test]
    fn shares_sum_to_one() {
        let w = benchmarks::vocoder();
        let reports = classify(&w, SAMPLE);
        let sum: f64 = reports.iter().map(|r| r.access_share).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn reports_sorted_hottest_first() {
        let w = benchmarks::compress();
        let reports = classify(&w, SAMPLE);
        for pair in reports.windows(2) {
            assert!(pair[0].access_share >= pair[1].access_share);
        }
    }

    #[test]
    fn vocoder_streams_detected() {
        let w = benchmarks::vocoder();
        let reports = classify(&w, SAMPLE);
        assert_eq!(
            report_for(&reports, &w, "speech_in").class,
            PatternClass::Stream
        );
        assert_eq!(
            report_for(&reports, &w, "frame_out").class,
            PatternClass::Stream
        );
    }

    #[test]
    fn class_display() {
        assert_eq!(PatternClass::SelfIndirect.to_string(), "self-indirect");
        assert_eq!(PatternClass::HotLocal.to_string(), "hot-local");
    }
}
