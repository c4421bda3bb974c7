//! Time-sampling estimation.
//!
//! The paper uses the trace-sampling technique of Kessler, Hill and Wood to
//! make Phase-I estimation fast: the simulator alternates "on-sampling" and
//! "off-sampling" periods with a 1:9 on:off ratio, fully simulating only the
//! on periods. The estimate "does not have a very good absolute accuracy
//! compared to full simulation. However ... the estimation fidelity is
//! sufficient to make good pruning decisions" — the module state carried
//! across skipped periods goes stale (cold-start bias), but the *relative
//! ordering* of design points is preserved, which is all the pruning needs.
//!
//! ## Known pitfall: phase aliasing
//!
//! Systematic on/off sampling has a fixed period (`on_accesses × (1 +
//! off_ratio)`). If the workload's execution-phase schedule shares a
//! harmonic with that period, the on-windows can land in the *same* phases
//! every time and skip others entirely, silently biasing the estimate (the
//! regression test `aliasing_with_phase_period_biases_estimates` constructs
//! exactly this). When estimating phased workloads, pick `on_accesses` so
//! the sampling period and the phase period are co-prime — or use full
//! simulation for final numbers, as Phase II does.

use crate::engine::Simulator;
use crate::stats::SimStats;
use crate::system::SystemConfig;
use mce_appmodel::Workload;

/// Configuration of the on/off sampling windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Accesses fully simulated per window.
    pub on_accesses: u32,
    /// Skipped accesses per simulated access (the paper's ratio is 1:9).
    pub off_ratio: u32,
}

impl SamplingConfig {
    /// The paper's configuration: 1:9 on:off.
    pub const fn paper() -> Self {
        SamplingConfig {
            on_accesses: 500,
            off_ratio: 9,
        }
    }

    /// Number of accesses skipped after each on window.
    pub const fn off_accesses(&self) -> u64 {
        self.on_accesses as u64 * self.off_ratio as u64
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Estimates `sys`'s metrics by time-sampled simulation of the first
/// `trace_len` accesses.
///
/// Roughly `1/(1+off_ratio)` of the trace is simulated; the returned stats
/// count only the sampled accesses. With `off_ratio == 0` this is exactly
/// [`simulate`](crate::simulate).
pub fn simulate_sampled(
    sys: &SystemConfig,
    workload: &Workload,
    trace_len: usize,
    config: SamplingConfig,
) -> SimStats {
    let mut sim = Simulator::new(sys, workload);
    let mut in_window = 0u64;
    let mut skipping = false;
    let mut skipped = 0u64;
    for acc in workload.trace(trace_len) {
        if skipping {
            sim.skip(&acc);
            skipped += 1;
            if skipped >= config.off_accesses() {
                skipping = false;
                in_window = 0;
            }
        } else {
            sim.step(&acc);
            in_window += 1;
            if in_window >= config.on_accesses as u64 && config.off_ratio > 0 {
                skipping = true;
                skipped = 0;
            }
        }
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use mce_appmodel::benchmarks;
    use mce_memlib::{CacheConfig, MemoryArchitecture};

    const N: usize = 40_000;

    fn system(kib: u64) -> (Workload, SystemConfig) {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(kib));
        let sys = SystemConfig::with_shared_bus(&w, mem).unwrap();
        (w, sys)
    }

    #[test]
    fn sampled_simulates_about_a_tenth() {
        let (w, sys) = system(8);
        let s = simulate_sampled(&sys, &w, N, SamplingConfig::paper());
        let expected = N as f64 / 10.0;
        assert!(
            (s.accesses as f64) > 0.7 * expected && (s.accesses as f64) < 1.3 * expected,
            "sampled {} of {}",
            s.accesses,
            N
        );
    }

    #[test]
    fn zero_ratio_equals_full_simulation() {
        let (w, sys) = system(4);
        let full = simulate(&sys, &w, 10_000);
        let sampled = simulate_sampled(
            &sys,
            &w,
            10_000,
            SamplingConfig {
                on_accesses: 100,
                off_ratio: 0,
            },
        );
        assert_eq!(full, sampled);
    }

    #[test]
    fn estimate_tracks_full_simulation_relatively() {
        // The estimator's job: preserve the relative ordering of designs.
        let (w, small_sys) = system(1);
        let (_, big_sys) = system(32);
        let cfg = SamplingConfig::paper();
        let est_small = simulate_sampled(&small_sys, &w, N, cfg);
        let est_big = simulate_sampled(&big_sys, &w, N, cfg);
        let full_small = simulate(&small_sys, &w, N);
        let full_big = simulate(&big_sys, &w, N);
        assert_eq!(
            est_small.avg_latency_cycles > est_big.avg_latency_cycles,
            full_small.avg_latency_cycles > full_big.avg_latency_cycles,
            "estimate must order designs like full simulation"
        );
    }

    #[test]
    fn estimate_within_tolerance_of_full() {
        let (w, sys) = system(8);
        let est = simulate_sampled(&sys, &w, N, SamplingConfig::paper());
        let full = simulate(&sys, &w, N);
        let rel =
            (est.avg_latency_cycles - full.avg_latency_cycles).abs() / full.avg_latency_cycles;
        // Not highly accurate, but within coarse bounds.
        assert!(rel < 0.5, "relative error {rel}");
    }

    #[test]
    fn phased_workload_still_ranked_correctly() {
        // Phase behaviour is what makes time sampling err; the fidelity
        // contract (relative ordering) must still hold on a phased
        // workload like jpeg.
        let w = benchmarks::jpeg();
        let small = SystemConfig::with_shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(1)),
        )
        .unwrap();
        let big = SystemConfig::with_shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(16)),
        )
        .unwrap();
        let cfg = SamplingConfig::paper();
        let est_small = simulate_sampled(&small, &w, N, cfg);
        let est_big = simulate_sampled(&big, &w, N, cfg);
        let full_small = simulate(&small, &w, N);
        let full_big = simulate(&big, &w, N);
        assert_eq!(
            est_small.avg_latency_cycles > est_big.avg_latency_cycles,
            full_small.avg_latency_cycles > full_big.avg_latency_cycles
        );
    }

    #[test]
    fn aliasing_with_phase_period_biases_estimates() {
        // jpeg's phase super-period is 10,000 accesses; the paper sampling
        // config's period is 500 × (1+9) = 5,000 — a perfect harmonic. The
        // on-windows land at offsets 0 and 5,000 of every super-period
        // (the dct and quant phases) and never see the expensive entropy
        // phase, so the estimate is far below the truth. This documents
        // the classic systematic-sampling failure mode; Phase II's full
        // simulation is what protects the final numbers.
        let w = benchmarks::jpeg();
        let sys = SystemConfig::with_shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
        )
        .unwrap();
        let aliased = simulate_sampled(&sys, &w, N, SamplingConfig::paper());
        let full = simulate(&sys, &w, N);
        assert!(
            aliased.avg_latency_cycles < 0.6 * full.avg_latency_cycles,
            "aliased {} vs full {} — aliasing should bias low",
            aliased.avg_latency_cycles,
            full.avg_latency_cycles
        );
        // A co-prime window width breaks the harmonic and recovers most of
        // the truth.
        let coprime = SamplingConfig {
            on_accesses: 333,
            off_ratio: 9,
        };
        let fixed = simulate_sampled(&sys, &w, N, coprime);
        let rel =
            (fixed.avg_latency_cycles - full.avg_latency_cycles).abs() / full.avg_latency_cycles;
        assert!(rel < 0.4, "co-prime sampling error {rel}");
    }

    #[test]
    fn sampled_time_advances_through_off_periods() {
        let (w, sys) = system(8);
        let s = simulate_sampled(&sys, &w, N, SamplingConfig::paper());
        // Off periods still advance wall-clock: at least one cycle of CPU
        // compute time passes per trace entry, simulated or skipped.
        assert!(s.total_cycles >= N as u64, "total {}", s.total_cycles);
    }
}
