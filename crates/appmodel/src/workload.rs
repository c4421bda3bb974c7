//! Workloads: named sets of data structures that generate traces.

use crate::access::{AccessKind, MemAccess};
use crate::address::{Addr, AddrRange};
use crate::data_structure::{DataStructure, DsId};
use crate::pattern::PatternGen;
use crate::rng::Rng;
use mce_error::MceError;
use std::fmt;

/// Base of the modelled data segment. Data structures are laid out
/// sequentially above it, each aligned to `LAYOUT_ALIGN`.
const LAYOUT_BASE: u64 = 0x1000_0000;
/// Alignment of each data structure's footprint.
const LAYOUT_ALIGN: u64 = 4096;
/// Largest accepted mean compute gap. Each access advances the trace clock
/// by at most `1 + 2·gap` ≤ 2³³ cycles, so the clock cannot overflow within
/// 2³¹ accesses.
const MAX_COMPUTE_GAP: u64 = u32::MAX as u64;

/// One execution phase of a workload: for `accesses` trace entries, each
/// data structure's hotness is multiplied by its entry in `hotness_scale`.
///
/// Real programs execute in phases (input, compute, output, GC, ...) — the
/// behaviour that makes the paper's time-sampling estimation both necessary
/// and error-prone. A workload with no declared phases behaves as a single
/// uniform phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    name: String,
    accesses: u64,
    hotness_scale: Vec<f64>,
}

mce_obs::json_codec! { struct Phase { name, accesses, hotness_scale } }

impl Phase {
    /// Creates a phase spanning `accesses` trace entries with the given
    /// per-data-structure hotness multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero or a multiplier is not finite and
    /// non-negative.
    pub fn new(name: impl Into<String>, accesses: u64, hotness_scale: Vec<f64>) -> Self {
        let phase = Phase {
            name: name.into(),
            accesses,
            hotness_scale,
        };
        phase.check().unwrap_or_else(|e| panic!("{e}"));
        phase
    }

    /// The phase name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trace entries the phase spans.
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The per-structure hotness multipliers.
    pub fn hotness_scale(&self) -> &[f64] {
        &self.hotness_scale
    }

    /// [`Phase::new`]'s invariant.
    fn check(&self) -> Result<(), &'static str> {
        if self.accesses == 0 {
            Err("phase must span at least one access")
        } else if !self
            .hotness_scale
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0)
        {
            Err("hotness multipliers must be finite and non-negative")
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase {} ({} accesses)", self.name, self.accesses)
    }
}

/// A modelled application: a set of [`DataStructure`]s, an interleaving
/// model, and a deterministic seed.
///
/// The workload is the drop-in replacement for the paper's SHADE-traced
/// SPEC95/GSM binaries: [`Workload::trace`] yields the memory-access stream
/// the simulator replays, and [`AccessProfile`](crate::AccessProfile)
/// summarizes it for the exploration stages.
///
/// ```
/// use mce_appmodel::{AccessPattern, DataStructure, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new("demo")
///     .data_structure(DataStructure::new("buf", 4096, 4, AccessPattern::Stream { stride: 4 }))
///     .seed(7)
///     .build();
/// let n = w.trace(100).count();
/// assert_eq!(n, 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    data_structures: Vec<DataStructure>,
    seed: u64,
    /// Mean CPU compute cycles between successive memory accesses.
    compute_gap: u64,
    /// Execution phases, cycled through for the trace's whole length.
    /// Empty means one uniform phase.
    phases: Vec<Phase>,
}

mce_obs::json_codec! {
    struct Workload { name, data_structures, seed, compute_gap, #[default] phases }
}

/// Builder for [`Workload`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    data_structures: Vec<DataStructure>,
    seed: u64,
    compute_gap: u64,
    phases: Vec<Phase>,
}

impl WorkloadBuilder {
    /// Starts a builder for a workload called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            data_structures: Vec::new(),
            seed: 0xC0DE,
            compute_gap: 2,
            phases: Vec::new(),
        }
    }

    /// Adds a data structure.
    pub fn data_structure(mut self, ds: DataStructure) -> Self {
        self.data_structures.push(ds);
        self
    }

    /// Sets the trace-generation seed (default `0xC0DE`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mean CPU compute cycles between accesses (default 2, at
    /// most `u32::MAX`).
    pub fn compute_gap(mut self, cycles: u64) -> Self {
        self.compute_gap = cycles;
        self
    }

    /// Appends an execution phase. Phases are cycled through in declaration
    /// order for the whole trace; declaring none yields a single uniform
    /// phase.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics if no data structure was added, if the compute gap exceeds
    /// `u32::MAX`, or if a phase's multiplier vector does not match the
    /// number of data structures.
    pub fn build(self) -> Workload {
        let workload = Workload {
            name: self.name,
            data_structures: self.data_structures,
            seed: self.seed,
            compute_gap: self.compute_gap,
            phases: self.phases,
        };
        workload.validate().unwrap_or_else(|e| panic!("{e}"));
        workload
    }
}

impl Workload {
    /// Checks every invariant the constructors assert —
    /// [`DataStructure::new`], [`DataStructure::with_hotness`],
    /// [`DataStructure::with_write_fraction`], [`Phase::new`] and
    /// [`WorkloadBuilder::build`] — for a workload that bypassed them,
    /// such as one deserialized from a workload file.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::InvalidInput`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), MceError> {
        let fail =
            |what: String| MceError::invalid_input(format!("workload `{}`: {what}", self.name));
        if self.data_structures.is_empty() {
            return Err(fail("needs at least one data structure".to_owned()));
        }
        for (i, ds) in self.data_structures.iter().enumerate() {
            ds.check()
                .map_err(|e| fail(format!("data structure {i} (`{}`): {e}", ds.name())))?;
        }
        if self.compute_gap > MAX_COMPUTE_GAP {
            return Err(fail(format!(
                "compute gap {} exceeds {MAX_COMPUTE_GAP} cycles",
                self.compute_gap
            )));
        }
        for p in &self.phases {
            p.check()
                .map_err(|e| fail(format!("phase `{}`: {e}", p.name)))?;
            if p.hotness_scale.len() != self.data_structures.len() {
                return Err(fail(format!(
                    "phase `{}` must scale every data structure",
                    p.name
                )));
            }
        }
        Ok(())
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data structures, indexable by [`DsId`].
    pub fn data_structures(&self) -> &[DataStructure] {
        &self.data_structures
    }

    /// Returns the data structure for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workload.
    pub fn data_structure(&self, id: DsId) -> &DataStructure {
        &self.data_structures[id.index()]
    }

    /// Number of data structures.
    pub fn len(&self) -> usize {
        self.data_structures.len()
    }

    /// Always false: workloads are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The deterministic seed traces are generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mean CPU compute cycles between accesses.
    pub fn compute_gap(&self) -> u64 {
        self.compute_gap
    }

    /// The declared execution phases (empty = one uniform phase).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The address range assigned to each data structure.
    ///
    /// Structures are laid out sequentially from a fixed base, each aligned
    /// to 4 KiB, so ranges never overlap and address→structure lookup is
    /// unambiguous.
    pub fn layout(&self) -> Vec<AddrRange> {
        let mut base = LAYOUT_BASE;
        self.data_structures
            .iter()
            .map(|ds| {
                let range = AddrRange::new(Addr::new(base), ds.footprint());
                let padded = ds.footprint().div_ceil(LAYOUT_ALIGN) * LAYOUT_ALIGN;
                base += padded;
                range
            })
            .collect()
    }

    /// Finds which data structure owns `addr`, if any.
    pub fn owner_of(&self, addr: Addr) -> Option<DsId> {
        self.layout()
            .iter()
            .position(|r| r.contains(addr))
            .map(DsId::new)
    }

    /// Returns a deterministic trace of `len` accesses.
    ///
    /// Interleaving picks each access's data structure with probability
    /// proportional to its hotness; CPU issue ticks advance by
    /// `1 + U(0, 2·compute_gap)` cycles, so the mean inter-access gap is
    /// `1 + compute_gap`.
    pub fn trace(&self, len: usize) -> Trace {
        let rng = Rng::seed_from_u64(self.seed);
        let gens = self
            .data_structures
            .iter()
            .map(|ds| ds.pattern().generator(ds.footprint(), ds.element_size()))
            .collect();
        let mut trace = Trace {
            workload: self.clone(),
            layout: self.layout(),
            gens,
            rng,
            weights: Vec::new(),
            total_weight: 0.0,
            remaining: len,
            tick: 0,
            phase_idx: 0,
            phase_left: u64::MAX,
        };
        trace.enter_phase(0);
        trace
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload {} ({} data structures):",
            self.name,
            self.len()
        )?;
        for ds in &self.data_structures {
            writeln!(f, "  {ds}")?;
        }
        Ok(())
    }
}

/// Iterator over a workload's deterministic access stream.
///
/// Produced by [`Workload::trace`] ([C-ITER-TY] naming follows the producing
/// method's noun).
#[derive(Debug, Clone)]
pub struct Trace {
    workload: Workload,
    layout: Vec<AddrRange>,
    gens: Vec<PatternGen>,
    rng: Rng,
    /// Effective per-structure weights for the current phase.
    weights: Vec<f64>,
    total_weight: f64,
    remaining: usize,
    tick: u64,
    phase_idx: usize,
    phase_left: u64,
}

impl Trace {
    /// Loads phase `idx`'s effective weights (or the uniform weights when
    /// the workload declares no phases).
    fn enter_phase(&mut self, idx: usize) {
        let base = self.workload.data_structures();
        if self.workload.phases().is_empty() {
            self.weights = base.iter().map(|d| d.hotness()).collect();
            self.phase_left = u64::MAX;
        } else {
            let phase = &self.workload.phases()[idx % self.workload.phases().len()];
            self.weights = base
                .iter()
                .zip(phase.hotness_scale())
                .map(|(d, s)| d.hotness() * s)
                .collect();
            self.phase_left = phase.accesses();
        }
        self.phase_idx = idx;
        self.total_weight = self.weights.iter().sum();
        // A phase may zero everything out; fall back to uniform weights so
        // the trace can always progress.
        if self.total_weight <= 0.0 {
            self.weights = base.iter().map(|d| d.hotness()).collect();
            self.total_weight = self.weights.iter().sum();
        }
    }

    /// Picks the next data structure by hotness-weighted sampling under the
    /// current phase, advancing the phase schedule.
    fn pick_ds(&mut self) -> DsId {
        if self.phase_left == 0 {
            self.enter_phase(self.phase_idx + 1);
        }
        self.phase_left = self.phase_left.saturating_sub(1);
        let mut x = self.rng.next_f64() * self.total_weight;
        for (i, w) in self.weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return DsId::new(i);
            }
        }
        DsId::new(self.workload.len() - 1)
    }
}

impl Iterator for Trace {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let ds = self.pick_ds();
        let offset = self.gens[ds.index()].next_offset(&mut self.rng);
        let addr = self.layout[ds.index()].base().offset(offset);
        let write_fraction = self.workload.data_structure(ds).write_fraction();
        let kind = if self.rng.next_f64() < write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let gap = self.workload.compute_gap();
        let tick = self.tick;
        self.tick += 1 + self.rng.next_up_to(2 * gap);
        Some(MemAccess::new(addr, kind, ds, tick))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Trace {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AccessPattern;

    fn two_ds_workload() -> Workload {
        WorkloadBuilder::new("t")
            .data_structure(
                DataStructure::new("hot", 8192, 8, AccessPattern::Random).with_hotness(9.0),
            )
            .data_structure(
                DataStructure::new("cold", 4096, 4, AccessPattern::Stream { stride: 4 })
                    .with_hotness(1.0),
            )
            .seed(1)
            .build()
    }

    #[test]
    fn trace_is_deterministic() {
        let w = two_ds_workload();
        let a: Vec<_> = w.trace(1000).collect();
        let b: Vec<_> = w.trace(1000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_respects_len_and_exact_size() {
        let w = two_ds_workload();
        let t = w.trace(321);
        assert_eq!(t.len(), 321);
        assert_eq!(t.count(), 321);
    }

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let w = two_ds_workload();
        let l = w.layout();
        assert_eq!(l.len(), 2);
        assert!(!l[0].overlaps(l[1]));
        assert_eq!(l[0].base().raw() % 4096, 0);
        assert_eq!(l[1].base().raw() % 4096, 0);
    }

    #[test]
    fn owner_of_maps_addresses_back() {
        let w = two_ds_workload();
        for acc in w.trace(500) {
            assert_eq!(w.owner_of(acc.addr), Some(acc.ds));
        }
    }

    #[test]
    fn hotness_controls_interleaving() {
        let w = two_ds_workload();
        let hot = w.trace(10_000).filter(|a| a.ds == DsId::new(0)).count();
        // Expect roughly 90 %; allow generous slack.
        assert!(hot > 8500 && hot < 9500, "hot count {hot}");
    }

    #[test]
    fn ticks_monotonically_increase() {
        let w = two_ds_workload();
        let mut last = None;
        for acc in w.trace(1000) {
            if let Some(prev) = last {
                assert!(acc.tick > prev);
            }
            last = Some(acc.tick);
        }
    }

    #[test]
    fn different_seed_different_trace() {
        let w1 = two_ds_workload();
        let w2 = WorkloadBuilder::new("t")
            .data_structure(
                DataStructure::new("hot", 8192, 8, AccessPattern::Random).with_hotness(9.0),
            )
            .data_structure(
                DataStructure::new("cold", 4096, 4, AccessPattern::Stream { stride: 4 })
                    .with_hotness(1.0),
            )
            .seed(2)
            .build();
        let a: Vec<_> = w1.trace(100).collect();
        let b: Vec<_> = w2.trace(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one data structure")]
    fn empty_workload_rejected() {
        let _ = WorkloadBuilder::new("empty").build();
    }

    #[test]
    fn phases_shift_hotness_over_time() {
        let w = WorkloadBuilder::new("phased")
            .data_structure(DataStructure::new("a", 4096, 4, AccessPattern::Random))
            .data_structure(DataStructure::new("b", 4096, 4, AccessPattern::Random))
            .phase(Phase::new("a_only", 1000, vec![1.0, 0.0]))
            .phase(Phase::new("b_only", 1000, vec![0.0, 1.0]))
            .seed(3)
            .build();
        let trace: Vec<_> = w.trace(2000).collect();
        let first_b = trace[..1000]
            .iter()
            .filter(|x| x.ds == DsId::new(1))
            .count();
        let second_a = trace[1000..]
            .iter()
            .filter(|x| x.ds == DsId::new(0))
            .count();
        assert_eq!(first_b, 0, "phase 1 must not touch b");
        assert_eq!(second_a, 0, "phase 2 must not touch a");
    }

    #[test]
    fn phases_cycle() {
        let w = WorkloadBuilder::new("cyclic")
            .data_structure(DataStructure::new("a", 4096, 4, AccessPattern::Random))
            .data_structure(DataStructure::new("b", 4096, 4, AccessPattern::Random))
            .phase(Phase::new("a", 100, vec![1.0, 0.0]))
            .phase(Phase::new("b", 100, vec![0.0, 1.0]))
            .build();
        let trace: Vec<_> = w.trace(400).collect();
        // Third window (200..300) repeats phase "a".
        assert!(trace[200..300].iter().all(|x| x.ds == DsId::new(0)));
    }

    #[test]
    fn all_zero_phase_falls_back_to_uniform() {
        let w = WorkloadBuilder::new("zeroed")
            .data_structure(DataStructure::new("a", 4096, 4, AccessPattern::Random))
            .phase(Phase::new("dead", 10, vec![0.0]))
            .build();
        assert_eq!(w.trace(20).count(), 20, "trace must still progress");
    }

    #[test]
    fn phaseless_workload_unchanged() {
        let w = two_ds_workload();
        assert!(w.phases().is_empty());
        assert_eq!(w.trace(100).count(), 100);
    }

    #[test]
    fn validate_bounds_the_compute_gap() {
        // Beyond u32::MAX, `1 + 2·gap` could wrap the trace clock.
        let mut w = two_ds_workload();
        w.compute_gap = u64::from(u32::MAX);
        assert!(w.validate().is_ok());
        for gap in [u64::from(u32::MAX) + 1, 1 << 62, 1 << 63, u64::MAX] {
            w.compute_gap = gap;
            let err = w.validate().unwrap_err();
            assert!(matches!(err, MceError::InvalidInput { .. }), "{err}");
            assert!(err.to_string().contains("compute gap"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "must scale every data structure")]
    fn phase_scale_arity_checked() {
        let _ = WorkloadBuilder::new("bad")
            .data_structure(DataStructure::new("a", 4096, 4, AccessPattern::Random))
            .phase(Phase::new("p", 10, vec![1.0, 2.0]))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn empty_phase_rejected() {
        let _ = Phase::new("p", 0, vec![1.0]);
    }

    #[test]
    fn write_fraction_realized() {
        let w = WorkloadBuilder::new("wr")
            .data_structure(
                DataStructure::new("d", 4096, 4, AccessPattern::Random).with_write_fraction(0.5),
            )
            .build();
        let writes = w.trace(10_000).filter(|a| a.kind.is_write()).count();
        assert!((4500..5500).contains(&writes), "writes {writes}");
    }
}
