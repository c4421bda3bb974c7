//! Small statistics over measured samples and exploration results.

use memory_conex::appmodel::Workload;
use memory_conex::conex::design_point::{conn_digest, mem_digest};
use memory_conex::conex::{CanonKey, ConexResult, DesignPoint};
use std::collections::HashMap;

/// Median of `samples` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// FNV-1a 64 over the metric bits of every estimated, then every fully
/// simulated design point, in result order — the identity of an
/// exploration's output.
pub fn result_digest(estimated: &[DesignPoint], simulated: &[DesignPoint]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for points in [estimated, simulated] {
        eat(points.len() as u64);
        for p in points {
            eat(p.metrics.cost_gates);
            eat(p.metrics.latency_cycles.to_bits());
            eat(p.metrics.energy_nj.to_bits());
        }
    }
    h
}

/// [`result_digest`] of a finished exploration.
pub fn digest_of(conex: &ConexResult) -> u64 {
    result_digest(conex.estimated(), conex.simulated())
}

/// How far Phase I's sampled estimate is from Phase II's full simulation,
/// over the points that have both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Points compared.
    pub points: usize,
    /// Median |estimated − simulated| ÷ simulated latency, percent.
    pub latency_err_pct: f64,
    /// Kendall τ-b between estimated and simulated latency.
    pub rank_tau: f64,
}

/// Pairs every fully simulated point with its Phase-I estimate (matched by
/// the canonical memory + connectivity key) and measures the estimate's
/// latency error and rank agreement.
pub fn fidelity(
    workload: &Workload,
    estimated: &[DesignPoint],
    simulated: &[DesignPoint],
) -> Fidelity {
    let key = |p: &DesignPoint| -> (CanonKey, CanonKey) {
        (
            mem_digest(p.system.mem(), workload),
            conn_digest(p.system.conn()),
        )
    };
    let mut estimate_of: HashMap<(CanonKey, CanonKey), f64> = HashMap::new();
    for p in estimated {
        estimate_of
            .entry(key(p))
            .or_insert(p.metrics.latency_cycles);
    }
    let (est, sim): (Vec<f64>, Vec<f64>) = simulated
        .iter()
        .filter_map(|p| Some((*estimate_of.get(&key(p))?, p.metrics.latency_cycles)))
        .unzip();
    let errors: Vec<f64> = est
        .iter()
        .zip(&sim)
        .map(|(e, s)| (e - s).abs() / s * 100.0)
        .collect();
    Fidelity {
        points: est.len(),
        latency_err_pct: median(&errors),
        rank_tau: kendall_tau_b(&est, &sim),
    }
}

/// Kendall's τ-b rank correlation of two equally long samples (0 when
/// fewer than two pairs are untied).
pub fn kendall_tau_b(a: &[f64], b: &[f64]) -> f64 {
    let (mut concordant, mut discordant, mut ties_a, mut ties_b) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let x = a[i].total_cmp(&a[j]) as i8;
            let y = b[i].total_cmp(&b[j]) as i8;
            match (x, y) {
                (0, 0) => {}
                (0, _) => ties_a += 1,
                (_, 0) => ties_b += 1,
                _ if x == y => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = concordant + discordant;
    let denom = (((n0 + ties_a) as f64) * ((n0 + ties_b) as f64)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tau_is_one_for_same_order_and_minus_one_for_reversed() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau_b(&a, &[10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(kendall_tau_b(&a, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        assert_eq!(kendall_tau_b(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn tau_b_discounts_ties() {
        // 6 pairs: 5 concordant, 1 tied in `b` only.
        let tau = kendall_tau_b(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 2.0, 3.0]);
        assert!((tau - 5.0 / (6.0f64 * 5.0).sqrt()).abs() < 1e-12, "{tau}");
    }
}
