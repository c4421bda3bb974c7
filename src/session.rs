//! The unified exploration session.
//!
//! [`ExplorationSession`] is the one-stop front end for the full
//! APEX → ConEx pipeline. It owns the resources both stages share —
//! the workload's block-compiled trace and the candidate-evaluation
//! cache — so the trace is compiled exactly once per session and every
//! evaluation is memoized across stages, scenarios and (with
//! [`ExplorationSession::eval_cache_file`]) across runs.
//!
//! ```
//! use memory_conex::prelude::*;
//!
//! let result = ExplorationSession::new(memory_conex::appmodel::benchmarks::vocoder())
//!     .preset(Preset::Fast)
//!     .run()
//!     .expect("exploration runs");
//! assert!(!result.conex.pareto_cost_latency().is_empty());
//! ```
//!
//! The staged entry points ([`ApexExplorer::explore`],
//! [`ConexExplorer::explore`]) remain available for driving the stages
//! by hand; the session produces bit-identical results — the shared
//! blocks and cache only remove redundant work.

use crate::checkpoint::{config_digest, Checkpoint};
use crate::live::{openmetrics_from_value, LiveShared};
use crate::report::{Progress, RunReport};
use mce_apex::{ApexConfig, ApexExplorer, ApexResult};
use mce_appmodel::{TraceBlocks, Workload};
use mce_budget::{Bounds, CancelToken, EvalBudget, Watchdog};
use mce_conex::design_point::workload_digest;
use mce_conex::eval_cache::DEFAULT_CAPACITY;
use mce_conex::explore::Phase1State;
use mce_conex::{CacheStats, ConexConfig, ConexExplorer, ConexResult, EvalCache, EvalEngine};
use mce_connlib::ConnectivityLibrary;
use mce_error::{atomic_write, sweep_stale_tmps, MceError};
use mce_sim::Preset;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Builder for — and runner of — one end-to-end exploration.
///
/// The budget/deadline knobs ([`max_evals`](ExplorationSession::max_evals),
/// [`max_archs`](ExplorationSession::max_archs),
/// [`deadline`](ExplorationSession::deadline),
/// [`candidate_timeout`](ExplorationSession::candidate_timeout),
/// [`watch_interrupt`](ExplorationSession::watch_interrupt)) bound the run
/// without changing what it computes: a bounded run stops at the next
/// safe point, reports *why*
/// ([`ConexResult::stop_reason`](mce_conex::ConexResult::stop_reason)),
/// force-writes its checkpoint (when configured) and still returns a
/// valid, resumable [`SessionResult`]. None of them enter the
/// configuration digest, so a bounded run resumes an unbounded run's
/// checkpoint and vice versa.
#[derive(Debug, Clone)]
pub struct ExplorationSession {
    workload: Workload,
    apex: ApexConfig,
    conex: ConexConfig,
    library: ConnectivityLibrary,
    cache_capacity: usize,
    eval_cache_file: Option<PathBuf>,
    checkpoint_file: Option<PathBuf>,
    checkpoint_every: usize,
    max_evals: Option<u64>,
    max_archs: Option<usize>,
    deadline: Option<Duration>,
    candidate_timeout: Option<Duration>,
    watch_interrupt: bool,
    live_status_file: Option<PathBuf>,
    live_every: Duration,
    metrics_out: Option<PathBuf>,
    explain: bool,
}

/// Everything one session run produced.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Stage 1: the memory-modules exploration.
    pub apex: ApexResult,
    /// Stage 2: the connectivity exploration over the selected memory
    /// architectures.
    pub conex: ConexResult,
    /// Lifetime statistics of the session's evaluation cache. Nonzero
    /// hits on a fresh session mean candidates recurred within the run;
    /// with a warm [`ExplorationSession::eval_cache_file`], prior runs
    /// are answered from disk.
    pub cache_stats: CacheStats,
    /// The run's summary report: config + workload digest, funnel
    /// counters, cache effectiveness, pareto-front sizes,
    /// frontier-evolution samples and (when tracing is enabled) latency
    /// histograms. Serialize with [`RunReport::to_json`].
    pub report: RunReport,
    /// Whether this run resumed from a checkpoint
    /// ([`ExplorationSession::checkpoint_file`]). Resumed results are
    /// bit-identical to uninterrupted ones; this only records how the
    /// run got there.
    pub resumed: bool,
}

impl ExplorationSession {
    /// A session over `workload` at [`Preset::Fast`] scale with the
    /// default AMBA-style connectivity library.
    pub fn new(workload: Workload) -> Self {
        ExplorationSession {
            workload,
            apex: ApexConfig::preset(Preset::Fast),
            conex: ConexConfig::preset(Preset::Fast),
            library: ConnectivityLibrary::amba(),
            cache_capacity: DEFAULT_CAPACITY,
            eval_cache_file: None,
            checkpoint_file: None,
            checkpoint_every: 1,
            max_evals: None,
            max_archs: None,
            deadline: None,
            candidate_timeout: None,
            watch_interrupt: false,
            live_status_file: None,
            live_every: Duration::from_millis(500),
            metrics_out: None,
            explain: false,
        }
    }

    /// Sets both stage configurations to `preset`.
    #[must_use]
    pub fn preset(mut self, preset: Preset) -> Self {
        self.apex = ApexConfig::preset(preset);
        self.conex = ConexConfig::preset(preset);
        self
    }

    /// Replaces the APEX stage configuration.
    #[must_use]
    pub fn apex_config(mut self, config: ApexConfig) -> Self {
        self.apex = config;
        self
    }

    /// Replaces the ConEx stage configuration.
    #[must_use]
    pub fn conex_config(mut self, config: ConexConfig) -> Self {
        self.conex = config;
        self
    }

    /// Draws connectivity candidates from a custom library.
    #[must_use]
    pub fn library(mut self, library: ConnectivityLibrary) -> Self {
        self.library = library;
        self
    }

    /// Caps the evaluation cache at `capacity` resident entries.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Persists the evaluation cache across runs: loaded from `path`
    /// before exploring (a missing file is a cold start, not an error)
    /// and saved back after.
    #[must_use]
    pub fn eval_cache_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.eval_cache_file = Some(path.into());
        self
    }

    /// Worker threads for APEX evaluation, ConEx estimation and full
    /// simulation (0 = one per core). Results are identical for any
    /// thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.conex.threads = threads;
        self
    }

    /// Makes the run crash-safe: progress is checkpointed to `path`
    /// after each Phase-I architecture, and a run finding a valid
    /// checkpoint there resumes from it instead of starting over —
    /// producing results bit-identical to an uninterrupted run. The
    /// checkpoint is deleted when the run completes.
    ///
    /// A checkpoint from a different workload or configuration (other
    /// than the thread count) is rejected with [`MceError::Checkpoint`];
    /// a corrupt or truncated one likewise — never silently ignored,
    /// never silently wrong. While resuming, the evaluation cache is
    /// restored from the checkpoint and any
    /// [`eval_cache_file`](ExplorationSession::eval_cache_file) is not
    /// re-read (it is still saved at the end).
    #[must_use]
    pub fn checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_file = Some(path.into());
        self
    }

    /// Checkpoints every `n` completed Phase-I architectures instead of
    /// every one (the last architecture always checkpoints). Values
    /// below 1 mean 1.
    #[must_use]
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Caps the run at `n` committed candidate evaluations (cache hits,
    /// coalesced twins and fresh simulations all count one). The budget
    /// is consumed in canonical probe order, so where it runs out — and
    /// therefore everything the run commits — is bit-identical across
    /// thread counts, cache state and checkpoint resumption. A resumed
    /// run re-consumes the units its replayed architectures consumed, so
    /// pass the same `n` to continue a budgeted run faithfully.
    #[must_use]
    pub fn max_evals(mut self, n: u64) -> Self {
        self.max_evals = Some(n);
        self
    }

    /// Caps Phase I at `n` memory architectures (checked at architecture
    /// boundaries; deterministic like
    /// [`max_evals`](ExplorationSession::max_evals)).
    #[must_use]
    pub fn max_archs(mut self, n: usize) -> Self {
        self.max_archs = Some(n);
        self
    }

    /// Stops the run at the next safe point once `d` of wall-clock time
    /// has elapsed (measured from [`run`](ExplorationSession::run)). The
    /// run still checkpoints and reports; only *where* it stops is
    /// nondeterministic.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Bounds each candidate's simulation at `d` of wall-clock time. A
    /// candidate over the limit degrades gracefully instead of wedging
    /// the run: a Phase-II point falls back to its Phase-I estimate, a
    /// Phase-I candidate is dropped. Degraded values are annotated in
    /// the result and never enter the evaluation cache.
    #[must_use]
    pub fn candidate_timeout(mut self, d: Duration) -> Self {
        self.candidate_timeout = Some(d);
        self
    }

    /// Makes the run stop cooperatively on SIGINT/SIGTERM (requires the
    /// process to have installed the flag-raising handlers —
    /// [`mce_budget::install_termination_handlers`] — or to raise the
    /// flag itself via [`mce_budget::raise_interrupt`]). Off by default:
    /// library users opt in, the CLI turns it on.
    #[must_use]
    pub fn watch_interrupt(mut self, watch: bool) -> Self {
        self.watch_interrupt = watch;
        self
    }

    /// Continuously publishes a live-status snapshot to `path` while the
    /// run executes: a `"running"` [`RunReport`] of what is committed so
    /// far, written atomically at every committed Phase-I architecture
    /// and on the wall-clock cadence of
    /// [`live_every`](ExplorationSession::live_every), then the run's
    /// final report. Each snapshot carries `wall_clock.live` progress
    /// facts ([`crate::report::LiveProgress`]). Watch it with `mce top`.
    /// Publishing is best-effort and read-only — a failed write never
    /// fails the run, and results are bit-identical with it on or off.
    #[must_use]
    pub fn live_status_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.live_status_file = Some(path.into());
        self
    }

    /// Wall-clock sampling cadence for the background time-series
    /// sampler and live-status publisher (default 500 ms, minimum 10 ms).
    #[must_use]
    pub fn live_every(mut self, d: Duration) -> Self {
        self.live_every = d.max(Duration::from_millis(10));
        self
    }

    /// Writes the final report's counters, gauges and histograms to
    /// `path` as OpenMetrics text
    /// ([`crate::live::openmetrics_from_value`], the `mce
    /// export-metrics` renderer). Families are empty unless tracing is
    /// enabled for the run.
    #[must_use]
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Captures frontier provenance ([`mce_conex::ArchProvenance`]):
    /// why each Phase-I point survived or was pruned, and where its
    /// metrics came from. Results are bit-identical with it on or off;
    /// only the report gains a `provenance` section. In a resumed run
    /// the replayed architectures are answered entirely from the
    /// restored cache, so their points all carry the `cache-hit` origin.
    #[must_use]
    pub fn explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Runs APEX then ConEx over the shared trace and cache, resuming
    /// from a [`checkpoint_file`](ExplorationSession::checkpoint_file)
    /// when one is present.
    ///
    /// # Errors
    ///
    /// Returns an [`MceError`] if a configured
    /// [`eval_cache_file`](ExplorationSession::eval_cache_file) exists
    /// but cannot be parsed or written back, if a checkpoint exists but
    /// is corrupt or belongs to a different run
    /// ([`MceError::Checkpoint`]), if a checkpoint cannot be written, or
    /// if an evaluation worker panics twice on the same candidate
    /// ([`MceError::WorkerPanic`]).
    pub fn run(&self) -> Result<SessionResult, MceError> {
        let start = Instant::now();
        // Clear temp files abandoned by crashed earlier runs from every
        // directory this run's atomic writers will target.
        for path in [
            &self.checkpoint_file,
            &self.eval_cache_file,
            &self.live_status_file,
            &self.metrics_out,
        ]
        .into_iter()
        .flatten()
        {
            sweep_stale_tmps(path);
        }
        let w_digest = workload_digest(&self.workload).to_hex();
        let c_digest = config_digest(&self.apex, &self.conex, &self.library, self.cache_capacity);
        let resume = match &self.checkpoint_file {
            Some(path) if path.exists() => {
                let ck = Checkpoint::load(path)?;
                ck.ensure_matches(&w_digest, &c_digest)?;
                Some(ck)
            }
            _ => None,
        };
        // The run's cache: restored from the checkpoint when resuming —
        // exact FIFO order and lifetime stats, so eviction behavior and
        // the report's cache section continue as if never interrupted.
        let cache = Arc::new(match (&resume, &self.eval_cache_file) {
            (Some(ck), _) => {
                let cache =
                    EvalCache::from_entries_fifo(ck.entries.iter().copied(), self.cache_capacity);
                cache.restore_stats(ck.cache_stats);
                cache
            }
            (None, Some(path)) if path.exists() => EvalCache::load(path, self.cache_capacity)?,
            _ => EvalCache::with_capacity(self.cache_capacity),
        });
        // One compilation serves both stages: blocks compiled at the
        // longer of the two trace lengths replay any shorter prefix.
        let blocks = Arc::new(TraceBlocks::compile(
            &self.workload,
            self.apex.trace_len.max(self.conex.trace_len),
        ));
        let apex = ApexExplorer::new(self.apex.clone())
            .with_threads(self.conex.threads)
            .explore_with_blocks(&self.workload, &blocks);
        // The run's bounds. The logical budget is created here — fresh
        // per run() call — and shared with the resume replay below, so a
        // resumed run re-consumes exactly the units its replayed
        // architectures consumed and then continues with what is left,
        // bit-identical to a never-interrupted budgeted run.
        let budget = self.max_evals.map(|n| Arc::new(EvalBudget::limited(n)));
        let bounds = Bounds {
            token: if self.deadline.is_some() || self.watch_interrupt {
                CancelToken::bounded(self.deadline, self.watch_interrupt)
            } else {
                CancelToken::never()
            },
            budget: budget.clone(),
            max_archs: self.max_archs,
            watchdog: self.candidate_timeout.map(|t| Arc::new(Watchdog::start(t))),
        };
        let engine = EvalEngine::with_blocks(&self.workload, blocks.clone())
            .with_cache(cache.clone())
            .with_bounds(bounds);
        let explorer = ConexExplorer::with_library(self.conex.clone(), self.library.clone())
            .with_explain(self.explain);
        let mem_archs = apex.selected();
        let state = match &resume {
            Some(ck) => {
                // Design points are not persisted; replay the completed
                // architectures through a *scratch* copy of the restored
                // cache (all hits, so this is cheap) and leave the real
                // cache exactly as checkpointed. The replay engine
                // carries only the shared logical budget — deadlines,
                // SIGINT and the watchdog never interrupt a replay.
                let scratch = Arc::new(EvalCache::from_entries_fifo(
                    ck.entries.iter().copied(),
                    self.cache_capacity,
                ));
                let scratch_engine = EvalEngine::with_blocks(&self.workload, blocks)
                    .with_cache(scratch)
                    .with_bounds(Bounds {
                        budget: budget.clone(),
                        ..Bounds::none()
                    });
                let state = explorer.phase1_partial_with(
                    &scratch_engine,
                    &mem_archs,
                    ck.archs_done,
                    &mut |_| Ok(()),
                )?;
                if state.frontier_evolution != ck.frontier {
                    return Err(MceError::checkpoint(
                        "replayed frontier diverges from the checkpointed one — the \
                         checkpoint does not describe this run",
                    ));
                }
                // The replay polluted the global counters; overwrite
                // them with the checkpointed values so totals continue
                // exactly where the interrupted run left off.
                for (name, value) in &ck.counters {
                    mce_obs::counter_restore(name, *value);
                }
                for (name, value) in &ck.gauges {
                    mce_obs::gauge_restore(name, *value);
                }
                state
            }
            None => Phase1State::default(),
        };
        let resumed = resume.is_some();
        let every = self.checkpoint_every;
        let total = mem_archs.len();
        let ck_path = self.checkpoint_file.clone();
        let ck_cache = cache.clone();
        // Live telemetry: the publisher behind the live-status file, plus
        // one background sampler feeding the wall-clock time-series
        // channel (and republishing the status file on its cadence).
        // Strictly read-only with respect to the exploration, and publish
        // failures never fail the run.
        let live = self.live_status_file.as_ref().map(|path| {
            let live = Arc::new(LiveRun {
                path: path.clone(),
                shared: LiveShared::new(
                    total,
                    self.max_evals,
                    self.deadline.map(|d| d.as_secs_f64()),
                    budget.clone(),
                ),
                session: self.clone(),
                cache: cache.clone(),
                start,
                resumed,
                committed: Mutex::new(Phase1State::default()),
            });
            live.commit(&state);
            live
        });
        let sampler = if mce_obs::tracing_enabled() || live.is_some() {
            let live = live.clone();
            Some(mce_obs::Sampler::start_with(self.live_every, move || {
                if let Some(live) = &live {
                    live.publish_running();
                }
            }))
        } else {
            None
        };
        // Track the latest committed Phase-I state so a truncated run can
        // force-write its checkpoint: a truncated architecture commits
        // nothing, so this state always describes the truncation point.
        let mut last_state = state.clone();
        let mut after_arch = |s: &Phase1State| -> Result<(), MceError> {
            last_state = s.clone();
            if let Some(path) = &ck_path {
                if s.archs_done.is_multiple_of(every) || s.archs_done == total {
                    Checkpoint::capture(w_digest.clone(), c_digest.clone(), s, &ck_cache)
                        .save(path)?;
                }
            }
            if let Some(live) = &live {
                live.commit(s);
            }
            Ok(())
        };
        let conex =
            explorer.explore_with_engine_resumable(&engine, mem_archs, state, &mut after_arch)?;
        // Stop the background sampler before finalizing, so the last
        // status snapshot on disk is the final one, not a racing sample.
        if let Some(sampler) = sampler {
            sampler.stop();
        }
        if conex.is_truncated() {
            // Stopped at a safe point: persist the progress so the next
            // run resumes here instead of starting over. (The eval-cache
            // spill below is still written too.)
            if let Some(path) = &self.checkpoint_file {
                Checkpoint::capture(w_digest.clone(), c_digest.clone(), &last_state, &cache)
                    .save(path)?;
            }
        } else if let Some(path) = &self.checkpoint_file {
            // The run completed; the checkpoint has served its purpose.
            std::fs::remove_file(path).ok();
        }
        if let Some(path) = &self.eval_cache_file {
            cache.save(path)?;
        }
        let cache_stats = cache.stats();
        let report = self.report(&cache_stats, Progress::Finished(&conex), start, resumed);
        if let Some(live) = &live {
            live.shared.publish(&live.path, report.clone());
        }
        if let Some(path) = &self.metrics_out {
            let doc = mce_obs::json::parse(&report.to_json())
                .map_err(|e| MceError::json("re-reading the run report", e))?;
            atomic_write(path, openmetrics_from_value(&doc)?.as_bytes())?;
        }
        Ok(SessionResult {
            apex,
            conex,
            cache_stats,
            report,
            resumed,
        })
    }

    /// The run report of `progress` — the one constructor behind the
    /// final report and every live-status snapshot.
    fn report(
        &self,
        cache_stats: &CacheStats,
        progress: Progress<'_>,
        start: Instant,
        resumed: bool,
    ) -> RunReport {
        RunReport::collect(
            &self.workload,
            &self.apex,
            &self.conex,
            self.cache_capacity,
            cache_stats,
            progress,
            start.elapsed().as_secs_f64(),
            resumed,
        )
    }
}

/// One run's live-status publisher, shared by the exploring thread (at
/// committed Phase-I boundaries) and the background sampler (on the
/// wall-clock cadence). Every snapshot is the run report of the latest
/// committed state; publishes are serialized under the `committed` lock,
/// so the file never steps back to an older state.
struct LiveRun {
    path: PathBuf,
    shared: LiveShared,
    session: ExplorationSession,
    cache: Arc<EvalCache>,
    start: Instant,
    resumed: bool,
    /// The committed Phase-I progress a snapshot reports (its frontier
    /// evolution and provenance; the design points stay with the run).
    committed: Mutex<Phase1State>,
}

impl LiveRun {
    /// Records a committed Phase-I boundary and publishes it.
    fn commit(&self, state: &Phase1State) {
        let mut committed = self
            .committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *committed = Phase1State {
            archs_done: state.archs_done,
            frontier_evolution: state.frontier_evolution.clone(),
            provenance: state.provenance.clone(),
            ..Phase1State::default()
        };
        self.publish(&committed);
    }

    /// Republishes the committed state (the sampler's cadence).
    fn publish_running(&self) {
        self.publish(
            &self
                .committed
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    fn publish(&self, committed: &Phase1State) {
        self.shared.record_arch(committed.archs_done);
        let report = self.session.report(
            &self.cache.stats(),
            Progress::Running(committed),
            self.start,
            self.resumed,
        );
        self.shared.publish(&self.path, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;

    #[test]
    fn session_matches_staged_pipeline() {
        let w = benchmarks::vocoder();
        let session = ExplorationSession::new(w.clone()).preset(Preset::Fast);
        let result = session.run().unwrap();
        let apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
        let conex = ConexExplorer::new(ConexConfig::preset(Preset::Fast))
            .explore(&w, apex.selected())
            .unwrap();
        assert_eq!(result.apex, apex);
        assert_eq!(
            result.conex.simulated().len(),
            conex.simulated().len(),
            "same shortlist"
        );
        for (a, b) in result.conex.simulated().iter().zip(conex.simulated()) {
            assert_eq!(a.metrics, b.metrics, "bit-identical metrics");
        }
    }

    #[test]
    fn warm_cache_file_round_trips() {
        let path = std::env::temp_dir().join(format!("mce_session_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let session = ExplorationSession::new(benchmarks::vocoder())
            .preset(Preset::Fast)
            .eval_cache_file(&path);
        let cold = session.run().unwrap();
        let warm = session.run().unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            warm.cache_stats.hits > cold.cache_stats.hits,
            "second run answers from the spill: {:?} vs {:?}",
            warm.cache_stats,
            cold.cache_stats
        );
        for (a, b) in cold.conex.simulated().iter().zip(warm.conex.simulated()) {
            assert_eq!(a.metrics, b.metrics, "warm cache never changes results");
        }
    }

    #[test]
    fn resume_from_a_mid_run_checkpoint_matches_uninterrupted() {
        let w = benchmarks::vocoder();
        let ck_path = std::env::temp_dir().join(format!("mce_resume_{}.json", std::process::id()));
        std::fs::remove_file(&ck_path).ok();
        let session = ExplorationSession::new(w.clone()).preset(Preset::Fast);
        let clean = session.run().unwrap();
        assert!(!clean.resumed);
        // Hand-build the checkpoint a run killed after its first
        // architecture would have left behind, then resume from it.
        let apex = ApexExplorer::new(ApexConfig::preset(Preset::Fast)).explore(&w);
        let cache = Arc::new(EvalCache::with_capacity(DEFAULT_CAPACITY));
        let engine = EvalEngine::new(&w, ConexConfig::preset(Preset::Fast).trace_len)
            .with_cache(cache.clone());
        let explorer = ConexExplorer::new(ConexConfig::preset(Preset::Fast));
        let state = explorer
            .phase1_partial_with(&engine, &apex.selected(), 1, &mut |_| Ok(()))
            .unwrap();
        Checkpoint::capture(
            workload_digest(&w).to_hex(),
            config_digest(
                &ApexConfig::preset(Preset::Fast),
                &ConexConfig::preset(Preset::Fast),
                &ConnectivityLibrary::amba(),
                DEFAULT_CAPACITY,
            ),
            &state,
            &cache,
        )
        .save(&ck_path)
        .unwrap();
        let resumed = session.clone().checkpoint_file(&ck_path).run().unwrap();
        assert!(resumed.resumed);
        assert!(!ck_path.exists(), "checkpoint consumed on success");
        assert_eq!(clean.conex.estimated(), resumed.conex.estimated());
        assert_eq!(clean.conex.simulated(), resumed.conex.simulated());
        assert_eq!(clean.cache_stats, resumed.cache_stats);
        // The acceptance bar: identical reports outside wall_clock.
        assert_eq!(
            crate::report::stable_view(&clean.report.to_json()).unwrap(),
            crate::report::stable_view(&resumed.report.to_json()).unwrap()
        );
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let ck_path = std::env::temp_dir().join(format!("mce_foreign_{}.json", std::process::id()));
        std::fs::remove_file(&ck_path).ok();
        // A valid checkpoint taken under a different workload…
        let other = benchmarks::compress();
        let cache = EvalCache::with_capacity(DEFAULT_CAPACITY);
        Checkpoint::capture(
            workload_digest(&other).to_hex(),
            "not the real config digest".to_owned(),
            &Phase1State::default(),
            &cache,
        )
        .save(&ck_path)
        .unwrap();
        // …must not be resumed by a vocoder session.
        let err = ExplorationSession::new(benchmarks::vocoder())
            .checkpoint_file(&ck_path)
            .run()
            .unwrap_err();
        assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
        // A corrupt checkpoint is an error too, not a silent cold start.
        std::fs::write(&ck_path, "not a checkpoint").unwrap();
        let err = ExplorationSession::new(benchmarks::vocoder())
            .checkpoint_file(&ck_path)
            .run()
            .unwrap_err();
        std::fs::remove_file(&ck_path).ok();
        assert!(matches!(err, MceError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn corrupt_cache_file_is_an_error() {
        let path = std::env::temp_dir().join(format!("mce_corrupt_{}.json", std::process::id()));
        std::fs::write(&path, "{definitely not a spill").unwrap();
        let err = ExplorationSession::new(benchmarks::vocoder())
            .eval_cache_file(&path)
            .run()
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, MceError::Json { .. }), "{err}");
    }
}
