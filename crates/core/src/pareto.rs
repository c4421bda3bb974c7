//! Pareto dominance, fronts, and coverage metrics.
//!
//! All three metrics are minimized. "A design is on the pareto curve if
//! there is no other design which is better in both cost and performance"
//! (paper, Section 6 footnote) — generalized here to any axis pair and to
//! the full 3-D space. The coverage and average-distance metrics reproduce
//! the paper's Table 2 methodology: compare the exploration's findings
//! against the true front from full search, counting exact matches and the
//! percentile deviation of the closest substitute for each missed point.

use crate::design_point::Metrics;
use std::cmp::Ordering;
use std::fmt;

/// A metric axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Gate cost.
    Cost,
    /// Average memory latency.
    Latency,
    /// Average energy per access.
    Energy,
}

impl Axis {
    /// All three axes.
    pub const ALL: [Axis; 3] = [Axis::Cost, Axis::Latency, Axis::Energy];

    /// Extracts this axis's value from a metrics triple.
    pub fn value(self, m: &Metrics) -> f64 {
        match self {
            Axis::Cost => m.cost_gates as f64,
            Axis::Latency => m.latency_cycles,
            Axis::Energy => m.energy_nj,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::Cost => "cost",
            Axis::Latency => "latency",
            Axis::Energy => "energy",
        })
    }
}

/// True if `a` dominates `b` on `axes`: no worse everywhere and strictly
/// better somewhere.
pub fn dominates(a: &Metrics, b: &Metrics, axes: &[Axis]) -> bool {
    let mut strictly_better = false;
    for &ax in axes {
        let (va, vb) = (ax.value(a), ax.value(b));
        if va > vb {
            return false;
        }
        if va < vb {
            strictly_better = true;
        }
    }
    strictly_better
}

/// A pareto front over a set of metric triples.
///
/// ```
/// use mce_conex::{Metrics, ParetoFront, Axis};
/// let points = vec![
///     Metrics::new(100, 10.0, 5.0),
///     Metrics::new(200, 5.0, 5.0),
///     Metrics::new(300, 9.0, 5.0), // dominated by the 200-gate point
/// ];
/// let front = ParetoFront::of(&points, &[Axis::Cost, Axis::Latency]);
/// assert_eq!(front.indices(), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoFront {
    indices: Vec<usize>,
}

impl ParetoFront {
    /// Computes the front of `points` on `axes` in O(n log n + n·front) by
    /// sorting, then sweeping (cf. Kung, Luccio & Preparata, "On finding
    /// the maxima of a set of vectors", JACM 1975).
    ///
    /// The points are visited in lexicographic order on `axes`, with the
    /// index as the final tie-break, so every point that dominates or
    /// equals point `i` is visited before it; a point joins the front
    /// unless a point already on it dominates or equals it. The sort key
    /// folds −0.0 into 0.0, as dominance does. Metric values are finite
    /// ([`Metrics::new`] enforces it), which makes dominance transitive.
    ///
    /// Duplicate-metric points: the first occurrence is kept.
    pub fn of(points: &[Metrics], axes: &[Axis]) -> Self {
        let key = |i: usize, ax: Axis| ax.value(&points[i]) + 0.0;
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            axes.iter()
                .map(|&ax| key(a, ax).total_cmp(&key(b, ax)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut indices: Vec<usize> = Vec::new();
        for i in order {
            let p = &points[i];
            if !indices.iter().any(|&k| {
                let q = &points[k];
                dominates(q, p, axes) || metrics_eq(q, p, axes)
            }) {
                indices.push(i);
            }
        }
        // Sort by the first axis for presentation, equal values in index
        // order.
        if let Some(&first) = axes.first() {
            indices.sort_unstable_by(|&a, &b| {
                first
                    .value(&points[a])
                    .total_cmp(&first.value(&points[b]))
                    .then(a.cmp(&b))
            });
        }
        ParetoFront { indices }
    }

    /// Indices (into the original slice) of the front, sorted by the first
    /// axis.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if the front is empty (only for empty input).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The front's metric values, selected from `points`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is not the slice the front was computed over.
    pub fn select<'a>(&self, points: &'a [Metrics]) -> Vec<&'a Metrics> {
        self.indices.iter().map(|&i| &points[i]).collect()
    }
}

fn metrics_eq(a: &Metrics, b: &Metrics, axes: &[Axis]) -> bool {
    axes.iter().all(|&ax| ax.value(a) == ax.value(b))
}

/// A scalar "how much trade-off space is covered" proxy: the 2-D
/// hypervolume dominated by the pareto front of `points` on `axes`
/// (both minimized), measured against a reference point at 1.05× the
/// per-axis maximum over `points` and normalized by the reference
/// rectangle's area, so the value lands in `[0, 1)`.
///
/// This is deliberately *not* the exact multi-objective hypervolume
/// indicator — the reference point is data-derived, so values are only
/// comparable between snapshots of the same growing point set. That is
/// exactly what run reports need: one deterministic number per
/// frontier-evolution sample that grows as the front pushes toward the
/// origin.
pub fn hypervolume_proxy(points: &[Metrics], axes: [Axis; 2]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let axis_max = |ax: Axis| points.iter().map(|m| ax.value(m)).fold(f64::MIN, f64::max);
    let ref_x = axis_max(axes[0]) * 1.05;
    let ref_y = axis_max(axes[1]) * 1.05;
    if !(ref_x > 0.0 && ref_y > 0.0) {
        return 0.0;
    }
    // The front is sorted ascending on axes[0], so its axes[1] values are
    // non-increasing; each point contributes the horizontal strip between
    // its own y and the previous (higher) y, out to the reference x.
    let front = ParetoFront::of(points, &axes);
    let mut prev_y = ref_y;
    let mut hv = 0.0;
    for &i in front.indices() {
        let (x, y) = (axes[0].value(&points[i]), axes[1].value(&points[i]));
        if y < prev_y {
            hv += (ref_x - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv / (ref_x * ref_y)
}

/// The Table 2 comparison: how well an exploration's points cover a
/// reference (full-search) pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Fraction of reference pareto points exactly matched (within
    /// `tolerance` relative error on every axis), in percent.
    pub coverage_pct: f64,
    /// Average percentile cost deviation of the closest substitute for the
    /// missed points (0 when all covered).
    pub avg_cost_dist_pct: f64,
    /// Average percentile latency deviation for missed points.
    pub avg_perf_dist_pct: f64,
    /// Average percentile energy deviation for missed points.
    pub avg_energy_dist_pct: f64,
}

impl CoverageReport {
    /// Compares `found` points against the `reference` pareto points.
    ///
    /// A reference point counts as covered if some found point matches it
    /// within `tolerance` relative error on all three axes. For each missed
    /// reference point, the closest found point (by summed relative error)
    /// provides the per-axis percentile distances, averaged over the missed
    /// points — "even though a design point on the pareto curve has not
    /// been found, another design with very close characteristics is
    /// provided".
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty or `found` is empty.
    pub fn compare(reference: &[Metrics], found: &[Metrics], tolerance: f64) -> Self {
        assert!(!reference.is_empty(), "reference front must be non-empty");
        assert!(!found.is_empty(), "found set must be non-empty");
        let mut covered = 0usize;
        let mut dist_sums = [0.0f64; 3];
        let mut missed = 0usize;
        for r in reference {
            let is_covered = found.iter().any(|f| {
                Axis::ALL
                    .iter()
                    .all(|&ax| rel_err(ax.value(f), ax.value(r)) <= tolerance)
            });
            if is_covered {
                covered += 1;
                continue;
            }
            missed += 1;
            let closest = found
                .iter()
                .min_by(|a, b| {
                    let sa: f64 = Axis::ALL
                        .iter()
                        .map(|&ax| rel_err(ax.value(a), ax.value(r)))
                        .sum();
                    let sb: f64 = Axis::ALL
                        .iter()
                        .map(|&ax| rel_err(ax.value(b), ax.value(r)))
                        .sum();
                    sa.total_cmp(&sb)
                })
                .expect("found set is non-empty");
            for (k, &ax) in Axis::ALL.iter().enumerate() {
                dist_sums[k] += rel_err(ax.value(closest), ax.value(r)) * 100.0;
            }
        }
        let denom = missed.max(1) as f64;
        CoverageReport {
            coverage_pct: covered as f64 / reference.len() as f64 * 100.0,
            avg_cost_dist_pct: dist_sums[0] / denom,
            avg_perf_dist_pct: dist_sums[1] / denom,
            avg_energy_dist_pct: dist_sums[2] / denom,
        }
    }
}

fn rel_err(found: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if found == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (found - reference).abs() / reference.abs()
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage {:.0}%, avg dist cost {:.2}% / perf {:.2}% / energy {:.2}%",
            self.coverage_pct,
            self.avg_cost_dist_pct,
            self.avg_perf_dist_pct,
            self.avg_energy_dist_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::rng::Rng;

    fn m(c: u64, l: f64, e: f64) -> Metrics {
        Metrics::new(c, l, e)
    }

    /// The all-pairs definition of the front: `i` is on it unless another
    /// point dominates it or an earlier one equals it; then a stable sort
    /// on the first axis.
    fn oracle_front(points: &[Metrics], axes: &[Axis]) -> Vec<usize> {
        let mut indices = Vec::new();
        'outer: for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate() {
                if i != j && (dominates(q, p, axes) || (j < i && metrics_eq(q, p, axes))) {
                    continue 'outer;
                }
            }
            indices.push(i);
        }
        if let Some(&first) = axes.first() {
            indices.sort_by(|&a, &b| first.value(&points[a]).total_cmp(&first.value(&points[b])));
        }
        indices
    }

    /// [`hypervolume_proxy`] over the oracle front.
    fn oracle_hypervolume(points: &[Metrics], axes: [Axis; 2]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        let axis_max = |ax: Axis| points.iter().map(|m| ax.value(m)).fold(f64::MIN, f64::max);
        let ref_x = axis_max(axes[0]) * 1.05;
        let ref_y = axis_max(axes[1]) * 1.05;
        if !(ref_x > 0.0 && ref_y > 0.0) {
            return 0.0;
        }
        let mut prev_y = ref_y;
        let mut hv = 0.0;
        for i in oracle_front(points, &axes) {
            let (x, y) = (axes[0].value(&points[i]), axes[1].value(&points[i]));
            if y < prev_y {
                hv += (ref_x - x) * (prev_y - y);
                prev_y = y;
            }
        }
        hv / (ref_x * ref_y)
    }

    /// A random set of up to 300 points with ties on every axis (values
    /// come from small pools), ±0.0 on the float axes, and exact or
    /// sign-of-zero-flipped duplicates of earlier points.
    fn random_points(rng: &mut Rng) -> Vec<Metrics> {
        fn float(rng: &mut Rng) -> f64 {
            match rng.next_up_to(3) {
                0 => -0.0,
                1 => 0.0,
                2 => rng.next_up_to(8) as f64 * 0.5,
                _ => rng.next_f64() * 4.0,
            }
        }
        let n = rng.next_up_to(300) as usize;
        let mut points: Vec<Metrics> = Vec::with_capacity(n);
        for _ in 0..n {
            let p = if !points.is_empty() && rng.next_up_to(5) == 0 {
                let mut q = points[rng.next_up_to(points.len() as u64 - 1) as usize];
                if q.latency_cycles == 0.0 && rng.next_bool() {
                    q.latency_cycles = -q.latency_cycles;
                }
                q
            } else {
                m(rng.next_up_to(12), float(rng), float(rng))
            };
            points.push(p);
        }
        points
    }

    #[test]
    fn front_matches_all_pairs_oracle() {
        let axis_sets: [&[Axis]; 4] = [
            &[Axis::Cost, Axis::Latency],
            &[Axis::Cost, Axis::Energy],
            &[Axis::Latency, Axis::Energy],
            &Axis::ALL,
        ];
        let mut rng = Rng::seed_from_u64(0x9a2e70);
        for round in 0..200 {
            let points = random_points(&mut rng);
            for axes in axis_sets {
                assert_eq!(
                    ParetoFront::of(&points, axes).indices(),
                    oracle_front(&points, axes),
                    "round {round}, axes {axes:?}, points {points:?}"
                );
                if let &[x, y] = axes {
                    assert_eq!(
                        hypervolume_proxy(&points, [x, y]).to_bits(),
                        oracle_hypervolume(&points, [x, y]).to_bits(),
                        "round {round}, axes {axes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dominance_basics() {
        let axes = [Axis::Cost, Axis::Latency];
        assert!(dominates(&m(1, 1.0, 9.0), &m(2, 2.0, 1.0), &axes));
        assert!(!dominates(&m(1, 3.0, 0.0), &m(2, 2.0, 0.0), &axes));
        assert!(
            !dominates(&m(1, 1.0, 0.0), &m(1, 1.0, 0.0), &axes),
            "equal never dominates"
        );
        // Equal on one axis, better on the other.
        assert!(dominates(&m(1, 1.0, 0.0), &m(1, 2.0, 0.0), &axes));
    }

    #[test]
    fn front_filters_dominated() {
        let pts = vec![m(100, 10.0, 1.0), m(200, 5.0, 1.0), m(150, 12.0, 1.0)];
        let f = ParetoFront::of(&pts, &[Axis::Cost, Axis::Latency]);
        assert_eq!(f.indices(), &[0, 1]);
    }

    #[test]
    fn front_sorted_by_first_axis() {
        let pts = vec![m(300, 1.0, 1.0), m(100, 3.0, 1.0), m(200, 2.0, 1.0)];
        let f = ParetoFront::of(&pts, &[Axis::Cost, Axis::Latency]);
        assert_eq!(f.indices(), &[1, 2, 0]);
    }

    #[test]
    fn duplicates_kept_once() {
        let pts = vec![m(100, 1.0, 1.0), m(100, 1.0, 1.0)];
        let f = ParetoFront::of(&pts, &[Axis::Cost, Axis::Latency]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.indices(), &[0]);
    }

    #[test]
    fn three_d_front_differs_from_two_d() {
        // Point 2 is dominated in (cost, latency) but unique best in energy.
        let pts = vec![m(100, 10.0, 5.0), m(200, 5.0, 5.0), m(250, 9.0, 1.0)];
        let f2 = ParetoFront::of(&pts, &[Axis::Cost, Axis::Latency]);
        let f3 = ParetoFront::of(&pts, &Axis::ALL);
        assert_eq!(f2.len(), 2);
        assert_eq!(f3.len(), 3);
    }

    #[test]
    fn empty_input_empty_front() {
        let f = ParetoFront::of(&[], &Axis::ALL);
        assert!(f.is_empty());
    }

    #[test]
    fn single_point_is_front() {
        let pts = vec![m(1, 1.0, 1.0)];
        let f = ParetoFront::of(&pts, &Axis::ALL);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn full_coverage_when_identical() {
        let reference = vec![m(100, 10.0, 5.0), m(200, 5.0, 6.0)];
        let r = CoverageReport::compare(&reference, &reference, 0.001);
        assert_eq!(r.coverage_pct, 100.0);
        assert_eq!(r.avg_cost_dist_pct, 0.0);
    }

    #[test]
    fn partial_coverage_reports_distance() {
        let reference = vec![m(100, 10.0, 5.0), m(200, 5.0, 6.0)];
        let found = vec![m(100, 10.0, 5.0), m(210, 5.2, 6.1)];
        let r = CoverageReport::compare(&reference, &found, 0.001);
        assert_eq!(r.coverage_pct, 50.0);
        assert!(
            (r.avg_cost_dist_pct - 5.0).abs() < 0.01,
            "{}",
            r.avg_cost_dist_pct
        );
        assert!(
            (r.avg_perf_dist_pct - 4.0).abs() < 0.01,
            "{}",
            r.avg_perf_dist_pct
        );
    }

    #[test]
    fn tolerance_widens_coverage() {
        let reference = vec![m(100, 10.0, 5.0)];
        let found = vec![m(104, 10.2, 5.1)];
        let tight = CoverageReport::compare(&reference, &found, 0.001);
        let loose = CoverageReport::compare(&reference, &found, 0.05);
        assert_eq!(tight.coverage_pct, 0.0);
        assert_eq!(loose.coverage_pct, 100.0);
    }

    #[test]
    fn select_returns_front_metrics() {
        let pts = vec![m(300, 1.0, 1.0), m(100, 3.0, 1.0)];
        let f = ParetoFront::of(&pts, &[Axis::Cost, Axis::Latency]);
        let sel = f.select(&pts);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].cost_gates, 100);
    }

    #[test]
    fn axis_display_and_value() {
        let p = m(10, 2.0, 3.0);
        assert_eq!(Axis::Cost.value(&p), 10.0);
        assert_eq!(Axis::Latency.value(&p), 2.0);
        assert_eq!(Axis::Energy.value(&p), 3.0);
        assert_eq!(Axis::Energy.to_string(), "energy");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reference_rejected() {
        let _ = CoverageReport::compare(&[], &[m(1, 1.0, 1.0)], 0.01);
    }

    #[test]
    fn hypervolume_proxy_basics() {
        let axes = [Axis::Cost, Axis::Latency];
        assert_eq!(hypervolume_proxy(&[], axes), 0.0);
        // A single point at the axis maxima dominates exactly the corner
        // rectangle between itself and the 1.05× reference point:
        // (0.05/1.05)² of the normalized area.
        let one = hypervolume_proxy(&[m(100, 10.0, 1.0)], axes);
        let expect = (0.05f64 / 1.05) * (0.05 / 1.05);
        assert!((one - expect).abs() < 1e-12, "{one} vs {expect}");
        // Degenerate all-zero axis: no volume.
        assert_eq!(hypervolume_proxy(&[m(0, 0.0, 1.0)], axes), 0.0);
    }

    #[test]
    fn hypervolume_proxy_grows_with_better_points() {
        let axes = [Axis::Cost, Axis::Latency];
        let base = vec![m(100, 10.0, 1.0), m(200, 5.0, 1.0)];
        let hv_base = hypervolume_proxy(&base, axes);
        // Adding a point that pushes the front toward the origin can only
        // grow the dominated share (reference point is unchanged because
        // the maxima are unchanged).
        let mut better = base.clone();
        better.push(m(50, 7.0, 1.0));
        let hv_better = hypervolume_proxy(&better, axes);
        assert!(hv_better > hv_base, "{hv_better} vs {hv_base}");
        // A dominated point inside the existing maxima changes nothing:
        // (150, 10.0) is dominated by (100, 10.0) and leaves both axis
        // maxima — and hence the reference point — untouched.
        let mut padded = base.clone();
        padded.push(m(150, 10.0, 1.0));
        assert_eq!(hypervolume_proxy(&padded, axes), hv_base);
        assert!(hv_base > 0.0 && hv_base < 1.0);
    }
}
