//! The traced pass: the session's pipeline replayed as a sequence of
//! public layer calls, each timed from here, with the program's own
//! counters live behind a null sink.

use crate::spans::Recorder;
use crate::stats::{fidelity, median, result_digest};
use crate::workloads::{Run, Spill};
use crate::Metric;
use memory_conex::apex::ApexExplorer;
use memory_conex::appmodel::TraceBlocks;
use memory_conex::conex::eval_cache::DEFAULT_CAPACITY;
use memory_conex::conex::{ConexExplorer, EvalCache, EvalEngine};
use memory_conex::obs::{self, NullSink};
use memory_conex::sim::{simulate_blocks, simulate_sampled_blocks, SystemConfig};
use memory_conex::{MceError, RunReport};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Run id of the pipeline spans.
pub const PIPELINE: u32 = 0;
/// Run id of the spans measuring layers off the pipeline.
const PROBES: u32 = 1;
/// Phase-II systems the simulator micro-measurement replays.
const SIM_SYSTEMS: usize = 20;
/// Passes over those systems; the median pass is reported.
const SIM_PASSES: usize = 5;

/// What the traced pass measured: one field per per-layer metric (see
/// [`Layers::metrics`] for names and units).
#[derive(Debug, Default)]
pub struct Layers {
    /// Result digest of the replayed pipeline.
    pub digest: u64,
    /// Wall time of the replayed pipeline, seconds.
    pub pipeline_s: f64,
    /// Share of the pipeline span covered by its layer spans (0–1).
    pub coverage: f64,
    compile_ms: f64,
    apex_s: f64,
    apex_evals: u64,
    phase1_s: f64,
    slowest_arch_s: f64,
    estimates: usize,
    estimate_err_pct: f64,
    phase2_s: f64,
    refines: usize,
    cache_hits: u64,
    cache_probes: u64,
    cache_load_ms: f64,
    cache_save_ms: f64,
    spill_bytes: u64,
    sim_full_ns: f64,
    sim_sampled_ns: f64,
    accesses: u64,
    stall_cycles: u64,
    occupancy_pct: f64,
    to_json_ms: f64,
}

impl Layers {
    /// The per-layer metrics; `explore_s` is the timed pass's median, the
    /// base of the tracing overhead.
    pub fn metrics(&self, explore_s: f64) -> Vec<Metric> {
        let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
        let hit_ratio = if self.cache_probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_probes as f64
        };
        vec![
            Metric::new("appmodel.compile_ms", self.compile_ms, "ms"),
            Metric::new("apex.explore_s", self.apex_s, "s"),
            Metric::new("apex.evals", self.apex_evals as f64, "count"),
            Metric::new("conex.phase1_s", self.phase1_s, "s"),
            Metric::new("conex.phase1_slowest_arch_s", self.slowest_arch_s, "s"),
            Metric::new("conex.estimates", self.estimates as f64, "count"),
            Metric::new(
                "conex.estimate_us",
                per(self.phase1_s * 1e6, self.estimates),
                "us",
            ),
            Metric::new("conex.estimate_err_pct", self.estimate_err_pct, "%"),
            Metric::new("conex.phase2_s", self.phase2_s, "s"),
            Metric::new("conex.refines", self.refines as f64, "count"),
            Metric::new(
                "conex.refine_ms",
                per(self.phase2_s * 1e3, self.refines),
                "ms",
            ),
            Metric::new("cache.probes", self.cache_probes as f64, "count"),
            Metric::new("cache.hit_ratio", hit_ratio, "ratio"),
            Metric::new("cache.load_ms", self.cache_load_ms, "ms"),
            Metric::new("cache.save_ms", self.cache_save_ms, "ms"),
            Metric::new("cache.spill_kb", self.spill_bytes as f64 / 1024.0, "KiB"),
            Metric::new("sim.full_ns_per_access", self.sim_full_ns, "ns"),
            Metric::new("sim.sampled_ns_per_trace_access", self.sim_sampled_ns, "ns"),
            Metric::new("sim.accesses_replayed", self.accesses as f64, "count"),
            Metric::new(
                "sim.backpressure_stall_cycles",
                self.stall_cycles as f64,
                "cycles",
            ),
            Metric::new("par.occupancy_pct", self.occupancy_pct, "%"),
            Metric::new("report.to_json_ms", self.to_json_ms, "ms"),
            Metric::new("trace.coverage_pct", self.coverage * 100.0, "%"),
            Metric::new(
                "trace.overhead_pct",
                (self.pipeline_s / explore_s - 1.0) * 100.0,
                "%",
            ),
        ]
    }
}

/// Replays `run`'s pipeline layer by layer into `rec`, then measures the
/// layers the pipeline leaves out on this workload (spill I/O, report
/// serialization of `report`, single-threaded replay speed). `scratch`
/// holds the probe spill of a workload that has none.
///
/// # Errors
///
/// Propagates evaluation and spill I/O errors.
pub fn run(
    run: &Run,
    rec: &mut Recorder,
    report: &RunReport,
    scratch: &Path,
) -> Result<Layers, MceError> {
    run.before_rep()
        .map_err(|e| MceError::io("clearing the spill", e))?;
    obs::install(Arc::new(NullSink::new()));
    let piped = pipeline(run, rec);
    let [apex_evals, accesses, stall_cycles] = [
        "apex.candidates_evaluated",
        "sim.accesses_replayed",
        "sim.backpressure_stall_cycles",
    ]
    .map(obs::counter_value);
    let occupancy = obs::histogram_summary("par.worker_occupancy_pct");
    obs::uninstall();
    let (mut layers, cache, systems, blocks) = piped?;
    layers.apex_evals = apex_evals;
    layers.accesses = accesses;
    layers.stall_cycles = stall_cycles;
    // A one-thread region runs serially and records no lane occupancy.
    layers.occupancy_pct = occupancy.map_or(0.0, |h| h.p50 as f64);

    // Spill I/O where the pipeline itself does none.
    let probe_path = scratch.join("probe.spill.json");
    let spill_path = run.spill_path().unwrap_or(&probe_path);
    if run.spill_path().is_none() {
        let (saved, span) = rec.time("cache.save", None, PROBES, || cache.save(spill_path));
        saved?;
        layers.cache_save_ms = rec.secs(span) * 1e3;
    }
    if run.spec.spill != Spill::Warm {
        let (loaded, span) = rec.time("cache.load", None, PROBES, || {
            EvalCache::load(spill_path, DEFAULT_CAPACITY)
        });
        if loaded?.len() != cache.len() {
            return Err(MceError::invalid_input("the spill did not round-trip"));
        }
        layers.cache_load_ms = rec.secs(span) * 1e3;
    }
    layers.spill_bytes = std::fs::metadata(spill_path)
        .map_err(|e| MceError::io("sizing the spill", e))?
        .len();

    let (json, span) = rec.time("report.to_json", None, PROBES, || report.to_json());
    black_box(json);
    layers.to_json_ms = rec.secs(span) * 1e3;

    // Single-threaded replay speed over the first Phase-II systems.
    let systems = &systems[..systems.len().min(SIM_SYSTEMS)];
    let len = run.conex_config().trace_len;
    let sampling = run.conex_config().sampling;
    let replayed = (systems.len() * len).max(1) as f64;
    let w = &run.workload;
    let full = passes(rec, "sim.full", || {
        for sys in systems {
            black_box(simulate_blocks(sys, w, &blocks, len));
        }
    });
    let sampled = passes(rec, "sim.sampled", || {
        for sys in systems {
            black_box(simulate_sampled_blocks(sys, w, &blocks, len, sampling));
        }
    });
    layers.sim_full_ns = full * 1e9 / replayed;
    layers.sim_sampled_ns = sampled * 1e9 / replayed;
    Ok(layers)
}

type Piped = (Layers, Arc<EvalCache>, Vec<SystemConfig>, Arc<TraceBlocks>);

/// The calls `ExplorationSession::run` makes, in its order, each in a span
/// under one `pipeline` span.
fn pipeline(run: &Run, rec: &mut Recorder) -> Result<Piped, MceError> {
    let w = &run.workload;
    let conex = run.conex_config();
    let root = rec.open("pipeline", None, PIPELINE);
    let (blocks, span) = rec.time("appmodel.compile", Some(root), PIPELINE, || {
        Arc::new(TraceBlocks::compile(w, run.compiled_len()))
    });
    let compile_ms = rec.secs(span) * 1e3;
    let mut cache_load_ms = 0.0;
    let cache = Arc::new(match (run.spec.spill, run.spill_path()) {
        (Spill::Warm, Some(path)) => {
            let (loaded, span) = rec.time("cache.load", Some(root), PIPELINE, || {
                EvalCache::load(path, DEFAULT_CAPACITY)
            });
            cache_load_ms = rec.secs(span) * 1e3;
            loaded?
        }
        _ => EvalCache::with_capacity(DEFAULT_CAPACITY),
    });
    let (apex, apex_span) = rec.time("apex.explore", Some(root), PIPELINE, || {
        ApexExplorer::new(run.apex_config()).explore_with_blocks(w, &blocks)
    });
    let engine = EvalEngine::with_blocks(w, blocks.clone()).with_cache(cache.clone());
    let explorer = ConexExplorer::new(conex.clone());
    let archs = apex.selected();

    // Phase I, one child span per memory architecture.
    let phase1 = rec.open("conex.phase1", Some(root), PIPELINE);
    let mut marks = vec![Instant::now()];
    let state = explorer.phase1_partial_with(&engine, &archs, archs.len(), &mut |_| {
        marks.push(Instant::now());
        Ok(())
    })?;
    rec.close(phase1);
    let mut slowest_arch_s = 0.0f64;
    for pair in marks.windows(2) {
        let span = rec.record("conex.arch", pair[0], pair[1], Some(phase1), PIPELINE);
        slowest_arch_s = slowest_arch_s.max(rec.secs(span));
    }

    let (refined, phase2) = rec.time("conex.phase2", Some(root), PIPELINE, || {
        engine.refine_batch(&state.shortlist, conex.trace_len, conex.threads)
    });
    let refined = refined?;
    let mut cache_save_ms = 0.0;
    if let Some(path) = run.spill_path() {
        let (saved, span) = rec.time("cache.save", Some(root), PIPELINE, || cache.save(path));
        saved?;
        cache_save_ms = rec.secs(span) * 1e3;
    }
    rec.close(root);

    let stats = cache.stats();
    let layers = Layers {
        digest: result_digest(&state.estimated, &refined),
        estimate_err_pct: fidelity(w, &state.estimated, &refined).latency_err_pct,
        pipeline_s: rec.secs(root),
        coverage: rec.coverage(root),
        compile_ms,
        apex_s: rec.secs(apex_span),
        phase1_s: rec.secs(phase1),
        slowest_arch_s,
        estimates: state.estimated.len(),
        phase2_s: rec.secs(phase2),
        refines: refined.len(),
        cache_hits: stats.hits,
        cache_probes: stats.hits + stats.misses,
        cache_load_ms,
        cache_save_ms,
        ..Layers::default()
    };
    let systems = refined.into_iter().map(|p| p.system).collect();
    Ok((layers, cache, systems, blocks))
}

/// Runs `f` [`SIM_PASSES`] times, each in a `name` span, and returns the
/// median pass, seconds.
fn passes(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..SIM_PASSES)
        .map(|_| {
            let ((), span) = rec.time(name, None, PROBES, &mut f);
            rec.secs(span)
        })
        .collect();
    median(&secs)
}
