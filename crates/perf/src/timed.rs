//! The timed pass: closed-loop, back-to-back `ExplorationSession::run`
//! calls with tracing off.

use crate::stats::{digest_of, fidelity, Fidelity};
use crate::workloads::{Run, Spill};
use crate::{stats, Metric};
use memory_conex::appmodel::TraceBlocks;
use memory_conex::conex::eval_cache::DEFAULT_CAPACITY;
use memory_conex::conex::EvalCache;
use memory_conex::obs::{self, NullSink};
use memory_conex::{MceError, RunReport, SessionResult};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up samples per run; their median is `setup_s`.
pub const SETUP_SAMPLES: usize = 21;

/// Fewest timed repetitions a run makes, so `explore_s` is a median of at
/// least three.
pub const MIN_REPS: usize = 3;

/// What the timed pass measured.
#[derive(Debug)]
pub struct Timed {
    /// Wall time of every valid timed repetition, seconds.
    pub explore_s: Vec<f64>,
    /// Timed repetitions run.
    pub attempted: usize,
    /// Repetitions that failed, were truncated or mismatched the expected
    /// digest.
    pub failed: usize,
    /// Result digest of the untimed warm-up run.
    pub digest: u64,
    /// Phase-I estimates plus Phase-II refines of one exploration.
    pub points: usize,
    /// Accesses the simulator replays in one exploration
    /// (`sim.accesses_replayed`, counted during the warm-up).
    pub accesses: u64,
    /// Per-run set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Phase-I estimate accuracy against Phase-II simulation.
    pub fidelity: Fidelity,
    /// The last valid repetition's run report.
    pub report: RunReport,
    /// Peak resident set size at the end of the timed pass, bytes.
    pub peak_rss_bytes: u64,
}

impl Timed {
    /// The end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let explore_s = stats::median(&self.explore_s);
        vec![
            Metric::new("explore_s", explore_s, "s"),
            Metric::new("points_per_s", self.points as f64 / explore_s, "1/s"),
            Metric::new(
                "sim_maccess_per_s",
                self.accesses as f64 / 1e6 / explore_s,
                "Maccess/s",
            ),
            Metric::new("setup_s", stats::median(&self.setup_s), "s"),
            Metric::new("peak_rss_mb", self.peak_rss_bytes as f64 / 1e6, "MB"),
            Metric::new("estimate_rank_tau", self.fidelity.rank_tau, "tau"),
        ]
    }
}

/// Runs the warm-up, the set-up samples and then timed repetitions until
/// `budget` has elapsed and at least [`MIN_REPS`] ran (`single` stops
/// after the first repetition).
/// Every repetition must match `expected` (the warm-up's own digest when
/// `None`).
///
/// # Errors
///
/// Fails when the untimed cold run or warm-up fails, or a spill file
/// cannot be prepared — the run has no baseline to compare against.
pub fn run(
    run: &Run,
    budget: Duration,
    single: bool,
    expected: Option<u64>,
) -> Result<Timed, MceError> {
    let session = run.session();
    if run.spec.spill == Spill::Warm {
        // The cold run whose spill every timed repetition loads.
        session.run()?;
    }
    // Untimed warm-up with a null sink installed, so the simulator's own
    // access counter is live.
    run.before_rep()
        .map_err(|e| MceError::io("clearing the spill", e))?;
    obs::install(Arc::new(NullSink::new()));
    let warm = session.run();
    let accesses = obs::counter_value("sim.accesses_replayed");
    obs::uninstall();
    let warm = warm?;
    let digest = digest_of(&warm.conex);
    let expected = expected.unwrap_or(digest);
    let setup_s = (0..SETUP_SAMPLES)
        .map(|_| time_setup(run))
        .collect::<Result<Vec<f64>, MceError>>()?;
    let mut explore_s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut report = warm.report.clone();
    let start = Instant::now();
    loop {
        run.before_rep()
            .map_err(|e| MceError::io("clearing the spill", e))?;
        let t = Instant::now();
        let out = session.run();
        let secs = t.elapsed().as_secs_f64();
        attempted += 1;
        match out.map(|r| check(run, &r, expected).map(|()| r)) {
            Ok(Ok(r)) => {
                explore_s.push(secs);
                report = r.report;
            }
            Ok(Err(why)) => {
                failed += 1;
                eprintln!("mce-perf: repetition {attempted} is wrong: {why}");
            }
            Err(e) => {
                failed += 1;
                eprintln!("mce-perf: repetition {attempted} failed: {e}");
            }
        }
        if single || (attempted >= MIN_REPS && start.elapsed() >= budget) {
            break;
        }
    }
    Ok(Timed {
        explore_s,
        attempted,
        failed,
        digest,
        points: warm.conex.estimated().len() + warm.conex.simulated().len(),
        accesses,
        setup_s,
        fidelity: fidelity(
            &run.workload,
            warm.conex.estimated(),
            warm.conex.simulated(),
        ),
        report,
        peak_rss_bytes: memory_conex::report::peak_rss_bytes().unwrap_or(0),
    })
}

/// Why a finished repetition does not count as correct, if it does not.
fn check(run: &Run, r: &SessionResult, expected: u64) -> Result<(), String> {
    if let Some(reason) = r.conex.stop_reason() {
        return Err(format!("truncated ({reason})"));
    }
    if r.conex.simulated().is_empty() {
        return Err("no design point was simulated".to_owned());
    }
    if run.spec.spill == Spill::Warm && r.cache_stats.misses > 0 {
        return Err(format!(
            "{} eval-cache misses on a warm spill",
            r.cache_stats.misses
        ));
    }
    let digest = digest_of(&r.conex);
    if digest != expected {
        return Err(format!(
            "result_digest {digest:016x}, expected {expected:016x}"
        ));
    }
    Ok(())
}

/// One sample of the per-run work before the first candidate: build the
/// workload, compile its trace and (on a warm workload) load the spill.
fn time_setup(run: &Run) -> Result<f64, MceError> {
    let t = Instant::now();
    let workload = run.spec.build(run.seed);
    black_box(TraceBlocks::compile(&workload, run.compiled_len()));
    if let (Spill::Warm, Some(path)) = (run.spec.spill, run.spill_path()) {
        black_box(EvalCache::load(path, DEFAULT_CAPACITY)?);
    }
    Ok(t.elapsed().as_secs_f64())
}
