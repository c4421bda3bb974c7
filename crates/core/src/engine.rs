//! The candidate-evaluation engine.
//!
//! Every metric the exploration ranks comes from replaying a workload's
//! trace through a candidate system. The [`EvalEngine`] is the single
//! place that happens, and it makes each evaluation as cheap as possible,
//! in order of preference:
//!
//! 1. **Memoized** — the candidate's canonical key
//!    ([`design_point`](crate::design_point)) hits the [`EvalCache`]:
//!    no simulation at all. The cache is shared across scenarios,
//!    strategies, clustering levels and (via spill files) runs.
//! 2. **Coalesced** — another candidate in the same batch has the same
//!    key (enumeration at adjacent clustering levels re-derives
//!    structurally identical pairings): simulated once, answered twice.
//! 3. **Simulated** — block-compiled replay ([`replay_group`]) over the
//!    engine's shared [`TraceBlocks`], compiled once per workload and
//!    shared immutably across worker threads. The unique simulations
//!    replay in lockstep groups of up to [`MAX_GROUP`], each access
//!    decoded once for the whole group. When two or more of a batch's
//!    simulations share a memory architecture, its cache, SRAM and
//!    stream-buffer responses are recorded once into a [`ModuleTape`]
//!    that those replays read instead of running the models.
//!
//! Determinism: cache probes, coalescing, tape recording and cache
//! population all run serially on the calling thread; only the unique
//! simulations fan out through [`try_par_map_named`], whose output is
//! order-preserving, and a group member's result never depends on the
//! other members.
//! Results are therefore bit-identical with the cache on or off and for
//! any thread count — the cache only removes redundant work, it never
//! reorders floating-point accumulation within an evaluation.

use crate::design_point::{
    conn_digest, eval_key, mem_digest, workload_digest, CanonKey, DesignPoint, EvalMode, Metrics,
};
use crate::eval_cache::EvalCache;
use mce_appmodel::{TraceBlocks, Workload};
use mce_budget::Bounds;
use mce_connlib::ConnectivityArchitecture;
use mce_error::MceError;
use mce_memlib::MemoryArchitecture;
use mce_obs as obs;
use mce_sim::par::try_par_map_named;
use mce_sim::{replay_group, Member, ModuleTape, SamplingConfig, SystemConfig, MAX_GROUP};
use std::collections::HashMap;
use std::sync::Arc;

/// How a batch slot will be answered.
enum Slot<T> {
    /// The memory + connectivity pairing does not form a valid system.
    Infeasible,
    /// Answered from the cache.
    Hit(T, Metrics),
    /// Answered by simulation job `usize` (shared by coalesced twins).
    Job(T, usize),
}

/// How a bounded batch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every slot was answered (possibly with degraded values — see
    /// [`BoundedBatch::degraded`]).
    Complete,
    /// The logical evaluation budget ran out during the serial probe.
    /// Nothing from this batch was committed: no simulation ran, no cache
    /// entry was inserted, no counter was bumped. Budget units consumed
    /// by the partial probe stay consumed — the probe order is canonical,
    /// so consumption is identical across thread counts and cache state.
    BudgetExhausted,
    /// The global cancel token tripped (deadline or SIGINT) before or
    /// during the batch. As with budget exhaustion, nothing was
    /// committed; the caller stops at its next safe point.
    Cancelled,
}

/// The result of a bounded batch evaluation.
#[derive(Debug)]
pub struct BoundedBatch<T> {
    /// Index-aligned outputs; empty unless
    /// [`status`](BoundedBatch::status) is [`BatchStatus::Complete`].
    pub output: Vec<T>,
    /// Indices (into `output`) answered with a degraded value because
    /// their simulation hit the per-candidate watchdog timeout.
    pub degraded: Vec<usize>,
    /// Indices (into `output`) answered from the evaluation cache, in
    /// probe order. Probing is serial and canonical, so this is
    /// identical for any thread count (though it naturally depends on
    /// what the cache already holds). Feeds frontier-provenance origin
    /// tags.
    pub cache_hits: Vec<usize>,
    /// How the batch ended.
    pub status: BatchStatus,
}

/// The memoizing evaluation engine for one workload.
///
/// Construct one per exploration (or share one across APEX and ConEx via
/// [`ExplorationSession`](https://docs.rs) — see the facade crate), then
/// evaluate candidates in batches.
#[derive(Clone)]
pub struct EvalEngine {
    workload: Workload,
    workload_key: CanonKey,
    blocks: Arc<TraceBlocks>,
    cache: Option<Arc<EvalCache>>,
    bounds: Bounds,
}

/// Each slot paired with its job's metrics (`None` for non-job and
/// timed-out slots), plus how the batch ended.
type BatchOutput = (Vec<(Slot<SystemConfig>, Option<Metrics>)>, BatchStatus);

impl EvalEngine {
    /// Compiles `workload`'s first `max_trace_len` accesses into shared
    /// trace blocks and creates an engine with no cache.
    ///
    /// `max_trace_len` must be the longest trace any batch will replay;
    /// shorter lengths replay a prefix of the same blocks.
    pub fn new(workload: &Workload, max_trace_len: usize) -> Self {
        Self::with_blocks(
            workload,
            Arc::new(TraceBlocks::compile(workload, max_trace_len)),
        )
    }

    /// An engine over already-compiled blocks (shared with other engines
    /// or a surrounding session).
    pub fn with_blocks(workload: &Workload, blocks: Arc<TraceBlocks>) -> Self {
        EvalEngine {
            workload: workload.clone(),
            workload_key: workload_digest(workload),
            blocks,
            cache: None,
            bounds: Bounds::none(),
        }
    }

    /// Attaches a (possibly shared) memoization cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches evaluation bounds: a cancel token checked per batch and
    /// at simulation block boundaries, a logical budget consumed per
    /// feasible candidate in canonical probe order, and a per-candidate
    /// watchdog. [`Bounds::none`] (the default) changes nothing.
    #[must_use]
    pub fn with_bounds(mut self, bounds: Bounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// The engine's bounds ([`Bounds::none`] unless set).
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// The workload this engine evaluates against.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The shared compiled trace blocks.
    pub fn blocks(&self) -> &Arc<TraceBlocks> {
        &self.blocks
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// The longest trace length this engine can replay.
    pub fn max_trace_len(&self) -> usize {
        self.blocks.len()
    }

    /// Phase-I estimation of a batch of connectivity candidates for one
    /// memory architecture, under the engine's [`Bounds`].
    ///
    /// The output is index-aligned with `candidates`; `None` marks an
    /// infeasible pairing. Equivalent to calling
    /// [`estimate_candidate`](crate::estimate::estimate_candidate) per
    /// candidate — bit-identically, minus the redundant simulations.
    ///
    /// A batch cut short by the logical budget or the cancel token comes
    /// back with an empty output and the corresponding
    /// [`BatchStatus`] — nothing from it was committed. A candidate whose
    /// sampled simulation hit the per-candidate watchdog timeout has no
    /// cheaper estimator to fall back to, so it is dropped from the batch
    /// (its slot answers `None`, exactly like an infeasible pairing) and
    /// recorded in [`BoundedBatch::degraded`].
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice.
    pub fn estimate_batch_bounded(
        &self,
        mem: &MemoryArchitecture,
        candidates: Vec<ConnectivityArchitecture>,
        trace_len: usize,
        sampling: SamplingConfig,
        threads: usize,
    ) -> Result<BoundedBatch<Option<DesignPoint>>, MceError> {
        let mem_key = mem_digest(mem, &self.workload);
        let mode = EvalMode::Estimated(sampling);
        let (slots, status) = self.run_batch(
            "conex.estimate",
            candidates.len(),
            threads,
            (trace_len, Some(sampling)),
            |i| {
                let conn = &candidates[i];
                let conn_key = conn_digest(conn);
                let sys = SystemConfig::new(&self.workload, mem.clone(), conn.clone()).ok()?;
                let key = eval_key(self.workload_key, mem_key, conn_key, trace_len, mode);
                Some((key, sys))
            },
        )?;
        if status != BatchStatus::Complete {
            return Ok(BoundedBatch {
                output: Vec::new(),
                degraded: Vec::new(),
                cache_hits: Vec::new(),
                status,
            });
        }
        let mut degraded = Vec::new();
        let mut cache_hits = Vec::new();
        let output = slots
            .into_iter()
            .enumerate()
            .map(|(i, (slot, metrics))| match slot {
                Slot::Infeasible => None,
                Slot::Hit(sys, m) => {
                    cache_hits.push(i);
                    Some(DesignPoint::new(sys, m, true))
                }
                // A timed-out estimate has no fallback value: drop the
                // candidate, as if infeasible, and annotate the slot.
                Slot::Job(_, _) if metrics.is_none() => {
                    degraded.push(i);
                    None
                }
                Slot::Job(sys, _) => Some(DesignPoint::new(sys, metrics.unwrap(), true)),
            })
            .collect();
        Ok(BoundedBatch {
            output,
            degraded,
            cache_hits,
            status,
        })
    }

    /// Phase-II full simulation of a shortlist of design points.
    ///
    /// Equivalent to
    /// [`refine_with_full_simulation`](crate::estimate::refine_with_full_simulation)
    /// per point — bit-identically, minus the redundant simulations.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice
    /// (parallel pass and serial retry), and [`MceError::InvalidInput`]
    /// when the engine's bounds cut the batch short — a truncation only
    /// [`EvalEngine::refine_batch_bounded`] can express.
    pub fn refine_batch(
        &self,
        points: &[DesignPoint],
        trace_len: usize,
        threads: usize,
    ) -> Result<Vec<DesignPoint>, MceError> {
        let batch = self.refine_batch_bounded(points, trace_len, threads)?;
        match batch.status {
            BatchStatus::Complete => Ok(batch.output),
            status => Err(MceError::invalid_input(format!(
                "batch truncated ({status:?}) under active bounds — use the *_bounded API"
            ))),
        }
    }

    /// [`EvalEngine::refine_batch`] under the engine's [`Bounds`].
    ///
    /// A batch cut short by the logical budget or the cancel token comes
    /// back with an empty output and the corresponding [`BatchStatus`].
    /// A point whose full simulation hit the per-candidate watchdog
    /// timeout degrades gracefully: the simulation result is replaced by
    /// the estimator's value (the point's existing metrics, which Phase I
    /// already committed deterministically), the point keeps its
    /// `estimated` flag, and its index is recorded in
    /// [`BoundedBatch::degraded`]. Degraded values are never inserted
    /// into the eval cache, so a timeout can not poison memoization
    /// across runs.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::WorkerPanic`] when an evaluation panics twice.
    pub fn refine_batch_bounded(
        &self,
        points: &[DesignPoint],
        trace_len: usize,
        threads: usize,
    ) -> Result<BoundedBatch<DesignPoint>, MceError> {
        let (slots, status) = self.run_batch(
            "conex.simulate",
            points.len(),
            threads,
            (trace_len, None),
            |i| {
                let sys = &points[i].system;
                let key = eval_key(
                    self.workload_key,
                    mem_digest(sys.mem(), &self.workload),
                    conn_digest(sys.conn()),
                    trace_len,
                    EvalMode::Full,
                );
                Some((key, sys.clone()))
            },
        )?;
        if status != BatchStatus::Complete {
            return Ok(BoundedBatch {
                output: Vec::new(),
                degraded: Vec::new(),
                cache_hits: Vec::new(),
                status,
            });
        }
        let mut degraded = Vec::new();
        let mut cache_hits = Vec::new();
        let output = slots
            .into_iter()
            .enumerate()
            .map(|(i, (slot, metrics))| match slot {
                Slot::Infeasible => unreachable!("refine inputs are always feasible"),
                Slot::Hit(sys, m) => {
                    cache_hits.push(i);
                    DesignPoint::new(sys, m, false)
                }
                // Timed out: fall back to the estimator's value for this
                // point; it stays marked as an estimate.
                Slot::Job(sys, _) if metrics.is_none() => {
                    degraded.push(i);
                    DesignPoint::new(sys, points[i].metrics, true)
                }
                Slot::Job(sys, _) => DesignPoint::new(sys, metrics.unwrap(), false),
            })
            .collect();
        Ok(BoundedBatch {
            output,
            degraded,
            cache_hits,
            status,
        })
    }

    /// The shared probe → record tapes → simulate → populate machinery.
    ///
    /// `prepare(i)` keys slot `i` (returning `None` for infeasible
    /// pairings). The unique simulation jobs then replay `replay` (trace
    /// length, sampling window) in parallel lockstep groups, each with
    /// its architecture's tape if one was recorded; a job whose
    /// cancellation check cut its replay short has no metrics. Returns
    /// each slot paired with its job's metrics (`None` for non-job slots
    /// and for timed-out jobs), plus the batch status.
    ///
    /// Bounds discipline:
    /// * the cancel token is checked once before the probe and inside
    ///   every replay group (at block-batch boundaries); a tripped token
    ///   discards the whole batch
    ///   ([`BatchStatus::Cancelled`], nothing committed);
    /// * one logical budget unit is taken per feasible slot, serially in
    ///   probe order (hit, coalesced and job slots all count one) — the
    ///   canonical order makes consumption thread-count and cache
    ///   independent. Exhaustion discards the batch
    ///   ([`BatchStatus::BudgetExhausted`], nothing committed);
    /// * with a watchdog set, every group holds one job, so the watchdog
    ///   times each candidate exactly: its lane registers per group, and
    ///   an expired lane makes that job's check trip, which surfaces as
    ///   `None` metrics — a timeout, not a cancel.
    ///
    /// With fault injection compiled in, the evaluation hook runs once
    /// per group member, in job order, before the group replays; a member
    /// it reclaims (an injected hang) drops out as timed out, and one it
    /// panics fails the group, which the parallel map retries serially.
    fn run_batch(
        &self,
        region: &'static str,
        len: usize,
        threads: usize,
        (trace_len, window): (usize, Option<SamplingConfig>),
        prepare: impl Fn(usize) -> Option<(CanonKey, SystemConfig)>,
    ) -> Result<BatchOutput, MceError> {
        let bounds = &self.bounds;
        if bounds.token.is_cancelled() {
            return Ok((Vec::new(), BatchStatus::Cancelled));
        }
        // Serial probe phase: classify every slot, deduplicating within
        // the batch so each unique key simulates at most once.
        let mut slots: Vec<Slot<SystemConfig>> = Vec::with_capacity(len);
        let mut job_of: HashMap<CanonKey, usize> = HashMap::new();
        let mut jobs: Vec<(CanonKey, usize)> = Vec::new(); // (key, owner slot)
        let (mut hits, mut coalesced) = (0u64, 0u64);
        for i in 0..len {
            let Some((key, sys)) = prepare(i) else {
                slots.push(Slot::Infeasible);
                continue;
            };
            if !bounds.take_eval() {
                return Ok((Vec::new(), BatchStatus::BudgetExhausted));
            }
            // Peek, don't get: hit/miss statistics are tallied only when
            // the batch commits, so a discarded batch pollutes nothing.
            if let Some(m) = self.cache.as_ref().and_then(|c| {
                let _t = obs::time_scope("eval_cache.probe_us");
                c.peek(key)
            }) {
                hits += 1;
                slots.push(Slot::Hit(sys, m));
            } else if let Some(&j) = job_of.get(&key) {
                coalesced += 1;
                slots.push(Slot::Job(sys, j));
            } else {
                let j = jobs.len();
                job_of.insert(key, j);
                jobs.push((key, i));
                slots.push(Slot::Job(sys, j));
            }
        }
        let job_system = |owner: usize| match &slots[owner] {
            Slot::Job(sys, _) => sys,
            _ => unreachable!("job owners are Job slots"),
        };
        let (tapes, job_tape) = self.record_tapes(
            jobs.iter().map(|&(_, owner)| job_system(owner)),
            (trace_len, window),
        );
        let work: Vec<(usize, Option<usize>)> = jobs
            .iter()
            .zip(job_tape)
            .map(|(&(_, owner), tape)| (owner, tape))
            .collect();
        let item_us = match region {
            "conex.estimate" => "conex.estimate.item_us",
            _ => "conex.simulate.item_us",
        };
        let max_group = if bounds.watchdog.is_some() {
            1
        } else {
            MAX_GROUP
        };
        // Parallel phase: only the unique misses simulate. A twice-failed
        // evaluation surfaces here as a clean error instead of unwinding
        // through the batch.
        let results: Vec<Option<Metrics>> =
            try_par_map_named(region, &work, threads, max_group, |group| {
                let _t = obs::time_scope_shared(item_us, group.len());
                let lane = bounds.watchdog.as_ref().map(|w| w.watch());
                let cancelled =
                    || bounds.token.is_cancelled() || lane.as_ref().is_some_and(|l| l.expired());
                #[cfg(feature = "fault-injection")]
                let live: Vec<bool> = group
                    .iter()
                    .map(|_| !mce_faultinject::on_eval_blocking(&cancelled))
                    .collect();
                #[cfg(not(feature = "fault-injection"))]
                let live = vec![true; group.len()];
                let members: Vec<Member<'_>> = group
                    .iter()
                    .zip(&live)
                    .filter(|&(_, &live)| live)
                    .map(|(&(owner, tape), _)| (job_system(owner), tape.map(|t| &tapes[t])))
                    .collect();
                let Some(stats) = replay_group(
                    &members,
                    &self.workload,
                    &self.blocks,
                    trace_len,
                    window,
                    &cancelled,
                ) else {
                    return vec![None; group.len()];
                };
                let mut replayed = members.iter().zip(stats);
                live.iter()
                    .map(|&live| {
                        if !live {
                            return None;
                        }
                        let ((sys, _), stats) = replayed.next().expect("one result per member");
                        Some(Metrics::new(
                            sys.gate_cost(),
                            stats.avg_latency_cycles,
                            stats.avg_energy_nj,
                        ))
                    })
                    .collect()
            })?;
        // A tripped token discards the whole batch: partially cancelled
        // results must never be committed, or resumed runs would diverge.
        if bounds.token.is_cancelled() {
            return Ok((Vec::new(), BatchStatus::Cancelled));
        }
        let timeouts = results.iter().filter(|m| m.is_none()).count() as u64;
        if timeouts > 0 {
            obs::counter_add("budget.timeouts", timeouts);
        }
        // Serial populate phase: insert in probe order, so cache contents
        // (and FIFO eviction order) are thread-count independent. Timed-
        // out jobs have no value to insert — degraded results are never
        // cached.
        let mut inserts = 0u64;
        if let Some(cache) = &self.cache {
            // Every probed candidate that was not a hit missed — whether
            // it became a job or coalesced onto one.
            cache.tally_probes(hits, jobs.len() as u64 + coalesced);
            for (&(key, _), m) in jobs.iter().zip(&results) {
                if let Some(m) = m {
                    if cache.insert(key, *m) {
                        inserts += 1;
                    }
                }
            }
            obs::counter_add("eval_cache.hits", hits);
            obs::counter_add("eval_cache.misses", jobs.len() as u64);
            obs::counter_add("eval_cache.inserts", inserts);
        }
        obs::counter_add("eval_cache.coalesced", coalesced);
        // The funnel gauge the worker-lane events reconcile against: how
        // many simulations actually ran in this region.
        obs::counter_add(
            match region {
                "conex.estimate" => "conex.estimate_jobs",
                _ => "conex.simulate_jobs",
            },
            jobs.len() as u64,
        );
        let out = slots
            .into_iter()
            .map(|slot| {
                let m = match &slot {
                    Slot::Job(_, j) => results[*j],
                    _ => None,
                };
                (slot, m)
            })
            .collect();
        Ok((out, BatchStatus::Complete))
    }

    /// Records one [`ModuleTape`] per memory architecture that at least
    /// two of `systems` share (a single replay gains nothing from a
    /// recording pass). Returns the tapes and, per system, the index of
    /// its architecture's tape.
    ///
    /// Runs serially on the calling thread, so tape contents never depend
    /// on the thread count.
    fn record_tapes<'s>(
        &self,
        systems: impl Iterator<Item = &'s SystemConfig>,
        (trace_len, window): (usize, Option<SamplingConfig>),
    ) -> (Vec<ModuleTape>, Vec<Option<usize>>) {
        // (architecture, systems replaying it), in first-seen order.
        let mut archs: Vec<(&MemoryArchitecture, usize)> = Vec::new();
        let arch_of: Vec<usize> = systems
            .map(
                |sys| match archs.iter().position(|(m, _)| *m == sys.mem()) {
                    Some(a) => {
                        archs[a].1 += 1;
                        a
                    }
                    None => {
                        archs.push((sys.mem(), 1));
                        archs.len() - 1
                    }
                },
            )
            .collect();
        let mut tapes = Vec::new();
        let tape_of: Vec<Option<usize>> = archs
            .into_iter()
            .map(|(mem, replays)| {
                if replays < 2 {
                    return None;
                }
                tapes.push(ModuleTape::record(
                    mem,
                    &self.workload,
                    &self.blocks,
                    trace_len,
                    window,
                )?);
                Some(tapes.len() - 1)
            })
            .collect();
        (tapes, arch_of.into_iter().map(|a| tape_of[a]).collect())
    }
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("workload", &self.workload.name())
            .field("max_trace_len", &self.blocks.len())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::enumerate_allocations;
    use crate::brg::Brg;
    use crate::cluster::{cluster_levels, ClusterOrder};
    use crate::estimate::{estimate_candidate, refine_with_full_simulation};
    use mce_appmodel::benchmarks;
    use mce_connlib::ConnectivityLibrary;
    use mce_memlib::CacheConfig;

    const N: usize = 20_000;

    fn candidates(w: &Workload, mem: &MemoryArchitecture) -> Vec<ConnectivityArchitecture> {
        let brg = Brg::profile(w, mem, N);
        let levels = cluster_levels(&brg, ClusterOrder::LowestFirst);
        let lib = ConnectivityLibrary::amba();
        let mut out = Vec::new();
        for level in levels {
            out.extend(enumerate_allocations(&brg, &level, &lib, 16));
        }
        out
    }

    #[test]
    fn batch_estimation_matches_per_candidate_path() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands = candidates(&w, &mem);
        assert!(cands.len() >= 4, "{} candidates", cands.len());
        let engine = EvalEngine::new(&w, N);
        let sampling = SamplingConfig::paper();
        let batch = engine
            .estimate_batch_bounded(&mem, cands.clone(), N, sampling, 2)
            .unwrap()
            .output;
        assert_eq!(batch.len(), cands.len());
        for (conn, got) in cands.into_iter().zip(batch) {
            let expect = estimate_candidate(&w, &mem, conn, N, sampling);
            match (expect, got) {
                (Some(e), Some(g)) => {
                    assert_eq!(e.metrics, g.metrics);
                    assert!(g.estimated);
                }
                (None, None) => {}
                (e, g) => panic!("feasibility mismatch: {e:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn batch_refinement_matches_per_point_path() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let engine = EvalEngine::new(&w, N);
        let sampling = SamplingConfig::paper();
        let points: Vec<DesignPoint> = engine
            .estimate_batch_bounded(&mem, candidates(&w, &mem), N, sampling, 0)
            .unwrap()
            .output
            .into_iter()
            .flatten()
            .take(4)
            .collect();
        let refined = engine.refine_batch(&points, N, 2).unwrap();
        for (p, got) in points.iter().zip(refined) {
            let expect = refine_with_full_simulation(p, &w, N);
            assert_eq!(expect.metrics, got.metrics);
            assert!(!got.estimated);
        }
    }

    #[test]
    fn cache_on_and_off_are_bit_identical() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let cands = candidates(&w, &mem);
        let sampling = SamplingConfig::paper();
        let plain = EvalEngine::new(&w, N);
        let cached = plain.clone().with_cache(Arc::new(EvalCache::new()));
        let a = plain
            .estimate_batch_bounded(&mem, cands.clone(), N, sampling, 0)
            .unwrap()
            .output;
        // Run the cached engine twice: the second pass answers from cache.
        let b1 = cached
            .estimate_batch_bounded(&mem, cands.clone(), N, sampling, 0)
            .unwrap()
            .output;
        let b2 = cached
            .estimate_batch_bounded(&mem, cands, N, sampling, 3)
            .unwrap()
            .output;
        let stats = cached.cache().unwrap().stats();
        assert!(stats.hits > 0, "second pass must hit: {stats:?}");
        for ((pa, pb1), pb2) in a.iter().zip(&b1).zip(&b2) {
            let m = |p: &Option<DesignPoint>| p.as_ref().map(|p| p.metrics);
            assert_eq!(m(pa), m(pb1), "cache off vs cold cache");
            assert_eq!(m(pa), m(pb2), "cache off vs warm cache");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands = candidates(&w, &mem);
        let sampling = SamplingConfig::paper();
        let reference: Vec<Option<Metrics>> = EvalEngine::new(&w, N)
            .estimate_batch_bounded(&mem, cands.clone(), N, sampling, 1)
            .unwrap()
            .output
            .into_iter()
            .map(|p| p.map(|p| p.metrics))
            .collect();
        for threads in [2, 5, 0] {
            let engine = EvalEngine::new(&w, N).with_cache(Arc::new(EvalCache::new()));
            let got: Vec<Option<Metrics>> = engine
                .estimate_batch_bounded(&mem, cands.clone(), N, sampling, threads)
                .unwrap()
                .output
                .into_iter()
                .map(|p| p.map(|p| p.metrics))
                .collect();
            assert_eq!(reference, got, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_candidates_coalesce_into_one_job() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let mut cands = candidates(&w, &mem);
        let dup = cands[0].clone();
        cands.push(dup);
        let engine = EvalEngine::new(&w, N).with_cache(Arc::new(EvalCache::new()));
        let batch = engine
            .estimate_batch_bounded(&mem, cands, N, SamplingConfig::paper(), 0)
            .unwrap()
            .output;
        let first = batch.first().unwrap().as_ref().unwrap();
        let last = batch.last().unwrap().as_ref().unwrap();
        assert_eq!(first.metrics, last.metrics);
        // The twin never reached the cache as a separate miss.
        let stats = engine.cache().unwrap().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.inserts as usize, batch.iter().flatten().count() - 1);
    }

    #[test]
    fn ample_bounds_are_bit_identical_to_unbounded() {
        use mce_budget::{Bounds, EvalBudget};
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands = candidates(&w, &mem);
        let sampling = SamplingConfig::paper();
        let plain = EvalEngine::new(&w, N)
            .estimate_batch_bounded(&mem, cands.clone(), N, sampling, 0)
            .unwrap()
            .output;
        let bounds = Bounds {
            budget: Some(Arc::new(EvalBudget::limited(1_000_000))),
            ..Bounds::none()
        };
        let bounded = EvalEngine::new(&w, N)
            .with_bounds(bounds)
            .estimate_batch_bounded(&mem, cands, N, sampling, 2)
            .unwrap();
        assert_eq!(bounded.status, BatchStatus::Complete);
        assert!(bounded.degraded.is_empty());
        let m = |ps: &[Option<DesignPoint>]| -> Vec<Option<Metrics>> {
            ps.iter().map(|p| p.as_ref().map(|p| p.metrics)).collect()
        };
        assert_eq!(m(&plain), m(&bounded.output));
    }

    #[test]
    fn exhausted_budget_discards_the_batch_deterministically() {
        use mce_budget::{Bounds, EvalBudget};
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands = candidates(&w, &mem);
        assert!(cands.len() >= 4);
        let sampling = SamplingConfig::paper();
        let mut consumed = Vec::new();
        for threads in [1, 4] {
            for with_cache in [false, true] {
                let budget = Arc::new(EvalBudget::limited(2));
                let mut engine = EvalEngine::new(&w, N).with_bounds(Bounds {
                    budget: Some(Arc::clone(&budget)),
                    ..Bounds::none()
                });
                if with_cache {
                    engine = engine.with_cache(Arc::new(EvalCache::new()));
                }
                let batch = engine
                    .estimate_batch_bounded(&mem, cands.clone(), N, sampling, threads)
                    .unwrap();
                assert_eq!(batch.status, BatchStatus::BudgetExhausted);
                assert!(batch.output.is_empty(), "nothing committed");
                if let Some(cache) = engine.cache() {
                    assert_eq!(cache.stats().inserts, 0, "no cache writes");
                }
                consumed.push(budget.remaining());
            }
        }
        // Probe-order consumption: identical across threads and cache.
        assert!(consumed.windows(2).all(|w| w[0] == w[1]), "{consumed:?}");
    }

    #[test]
    fn cancelled_token_discards_the_batch() {
        use mce_budget::{Bounds, CancelReason, CancelToken};
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands = candidates(&w, &mem);
        let token = CancelToken::never();
        token.cancel(CancelReason::Deadline);
        let engine = EvalEngine::new(&w, N).with_bounds(Bounds {
            token,
            ..Bounds::none()
        });
        let batch = engine
            .estimate_batch_bounded(&mem, cands, N, SamplingConfig::paper(), 0)
            .unwrap();
        assert_eq!(batch.status, BatchStatus::Cancelled);
        assert!(batch.output.is_empty());
        // The unbounded entry point cannot express the truncation.
        let err = engine.refine_batch(&[], N, 0).unwrap_err();
        assert!(matches!(err, MceError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn watchdog_timeout_degrades_refinement_to_the_estimate() {
        use mce_budget::{Bounds, Watchdog};
        use std::time::Duration;
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let engine = EvalEngine::new(&w, N);
        let points: Vec<DesignPoint> = engine
            .estimate_batch_bounded(&mem, candidates(&w, &mem), N, SamplingConfig::paper(), 0)
            .unwrap()
            .output
            .into_iter()
            .flatten()
            .take(3)
            .collect();
        // A zero timeout expires every lane before its first block batch:
        // every refinement degrades to its Phase-I estimate.
        let bounded = engine
            .clone()
            .with_bounds(Bounds {
                watchdog: Some(Arc::new(Watchdog::start(Duration::ZERO))),
                ..Bounds::none()
            })
            .refine_batch_bounded(&points, N, 2)
            .unwrap();
        assert_eq!(bounded.status, BatchStatus::Complete);
        assert_eq!(bounded.degraded, vec![0, 1, 2]);
        for (p, d) in points.iter().zip(&bounded.output) {
            assert_eq!(p.metrics, d.metrics, "falls back to the estimate");
            assert!(d.estimated, "degraded point stays an estimate");
        }
    }

    #[test]
    fn estimate_and_full_modes_never_collide() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4));
        let cands: Vec<_> = candidates(&w, &mem).into_iter().take(2).collect();
        let engine = EvalEngine::new(&w, N).with_cache(Arc::new(EvalCache::new()));
        let sampling = SamplingConfig::paper();
        let est: Vec<DesignPoint> = engine
            .estimate_batch_bounded(&mem, cands, N, sampling, 0)
            .unwrap()
            .output
            .into_iter()
            .flatten()
            .collect();
        let refined = engine.refine_batch(&est, N, 0).unwrap();
        // Full simulation must not be answered by the estimate entries.
        for (e, r) in est.iter().zip(&refined) {
            assert!(r.metrics.latency_cycles != 0.0);
            assert!(!r.estimated && e.estimated);
        }
        let stats = engine.cache().unwrap().stats();
        assert_eq!(stats.hits, 0, "modes share no keys: {stats:?}");
    }
}
