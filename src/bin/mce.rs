//! `mce` — command-line front end for the memory + connectivity explorer.
//!
//! ```text
//! mce benchmarks                               list built-in workload models
//! mce template                                 print a workload JSON template
//! mce classify <workload> [--trace N]          APEX pattern extraction
//! mce simulate <workload> [--cache KIB] [--trace N]
//!                                              simulate a cache-only baseline
//! mce explore  <workload> [--preset fast|paper] [--out FILE] [--threads N]
//!              [--eval-cache FILE] [--trace-out FILE] [--report-out FILE]
//!              [--checkpoint FILE] [--checkpoint-every N]
//!              [--max-evals N] [--max-archs N]
//!              [--deadline SECS] [--candidate-timeout MS]
//!              [--live-status FILE] [--live-every MS] [--metrics-out FILE]
//!              [--out-dir DIR] [--progress]
//!                                              full APEX + ConEx exploration
//! mce top      <report.json> [--interval MS] [--once]
//!                                              watch a --live-status file
//!                                              (or any run report) as a
//!                                              dashboard
//! mce report   <report.json>... [--out FILE] [--html]
//!                                              render run reports as
//!                                              markdown/HTML summaries
//! mce export-metrics <report.json> [--out FILE]
//!                                              render a run report (or a
//!                                              live-status file) as
//!                                              OpenMetrics
//! mce cache-check <spill.json> [--capacity N] [--repair]
//!                                              validate (and optionally
//!                                              repair) an eval-cache spill
//! mce diff     <A> <B> [--html] [--out FILE]
//!                                              structural comparison of two
//!                                              run reports; exits 0 iff
//!                                              their deterministic sections
//!                                              match
//! ```
//!
//! `<workload>` is either a built-in name (`compress`, `li`, `vocoder`,
//! `mix`) or a path to a workload JSON file (see `mce template`). A
//! workload file is checked against every invariant the workload
//! constructors enforce before it is used.
//!
//! Every command rejects an unknown `--flag`, and a value-taking flag
//! whose value is missing or itself a `--flag`, with a typed `invalid
//! argument` error and exit code 1.
//!
//! `--eval-cache FILE` persists the candidate-evaluation cache across runs:
//! loaded before exploring (a missing file is a cold start) and saved back
//! after, so a repeated exploration answers recurring candidates from disk.
//! Results are bit-identical with and without the cache.
//!
//! `--trace-out FILE` writes a Chrome trace-event JSON of the run (open it
//! in `chrome://tracing` or <https://ui.perfetto.dev>); `--progress` prints
//! live phase/progress lines to stderr, with `MCE_LOG=debug` raising the
//! message verbosity. Tracing never changes exploration results.
//!
//! `--report-out FILE` writes the run's [`RunReport`] JSON — deterministic
//! except for its trailing `"wall_clock"` section — which `mce report`
//! renders into a self-contained summary and CI archives as an artifact.
//! The textual exploration summary is also logged under `--out-dir`
//! (default `target/experiments/`).
//!
//! `--checkpoint FILE` makes the exploration crash-safe: progress is
//! checkpointed atomically after each Phase-I architecture (or every N
//! with `--checkpoint-every N`), and re-running the same command after a
//! kill resumes from the checkpoint, producing results bit-identical to
//! an uninterrupted run. The checkpoint is deleted on success; a corrupt
//! checkpoint or one from a different workload/configuration is a clean
//! error, never a silent cold start.
//!
//! `--max-evals N` / `--max-archs N` are deterministic *logical* budgets:
//! the run stops at the next safe point once N committed evaluations /
//! Phase-I architectures are reached, and the truncation point is
//! bit-identical for any `--threads` value, with or without
//! `--eval-cache`. `--deadline SECS` bounds the run's wall time and
//! `--candidate-timeout MS` arms a watchdog that reclaims any single
//! hung evaluation by degrading it to its Phase-I estimate (tagged in
//! the run report). Ctrl-C (SIGINT) stops the run at the next safe
//! point just like a deadline: a `--checkpoint` file is written so the
//! same command line resumes, the partial report is marked
//! `"truncated"`, and the process still exits 0 with a distinct
//! `exploration truncated (...)` status line.
//!
//! `--live-status FILE` continuously publishes a run-report snapshot of
//! the running exploration (`"status": "running"`, what is committed so
//! far, plus architecture progress and remaining budget under
//! `wall_clock.live`), rewritten atomically every committed architecture
//! and every `--live-every MS` (default 500); the last snapshot is the
//! final report. Watch it with `mce top FILE` — a refreshing dashboard on
//! a TTY, a single plain-text snapshot otherwise or with `--once`; phase,
//! rates and ETA are derived from the document. Publishing is
//! best-effort: a failed write never fails the run, and results are
//! bit-identical with live status on or off. `--metrics-out FILE` writes
//! the final report as OpenMetrics text, byte for byte what `mce
//! export-metrics` renders from the run's report.
//!
//! All file outputs (`--out`, `--report-out`, `--trace-out`, eval-cache
//! spills, checkpoints, experiment logs, live-status snapshots) are
//! written atomically — a sibling temporary plus rename — so a crash
//! mid-write never leaves a torn file behind.
//!
//! [`RunReport`]: memory_conex::RunReport

use mce_error::{atomic_write, MceError};
use memory_conex::apex::classify;
use memory_conex::appmodel::{benchmarks, AccessPattern, DataStructure, Workload, WorkloadBuilder};
use memory_conex::conex::Scenario;
use memory_conex::live;
use memory_conex::memlib::{CacheConfig, MemoryArchitecture};
use memory_conex::obs;
use memory_conex::report;
use memory_conex::sim::{simulate, Preset, SystemConfig};
use memory_conex::ExplorationSession;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    // Fault-injection test builds arm faults from `MCE_FAULT` so
    // subprocess kill-and-resume tests can crash this binary mid-run;
    // plain builds compile no hook at all. A malformed spec is a rejected
    // argument like any other: the typed error plus the usage text, not a
    // bare string.
    #[cfg(feature = "fault-injection")]
    if let Err(reason) = mce_faultinject::arm_from_env() {
        let e = MceError::invalid_arg(
            "MCE_FAULT",
            reason,
            "MCE_FAULT=<kind>:<N>[+][,...] (e.g. abort_at_eval:7, panic_at_eval:40+)",
        );
        eprintln!("error: {e}");
        eprintln!();
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            // The usage text helps with a command line the CLI could not
            // act on, not with a run that failed.
            if is_argument_error(e.as_ref()) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  mce benchmarks
  mce template
  mce classify <workload> [--trace N]
  mce simulate <workload> [--cache KIB] [--trace N]
  mce explore  <workload> [--preset fast|paper] [--out FILE] [--threads N]
               [--eval-cache FILE] [--trace-out FILE] [--report-out FILE]
               [--checkpoint FILE] [--checkpoint-every N]
               [--max-evals N] [--max-archs N]
               [--deadline SECS] [--candidate-timeout MS]
               [--live-status FILE] [--live-every MS] [--metrics-out FILE]
               [--out-dir DIR] [--progress]
  mce top      <report.json> [--interval MS] [--once]
  mce report   <report.json>... [--out FILE] [--html]
  mce export-metrics <report.json> [--out FILE]
  mce cache-check <spill.json> [--capacity N] [--repair]
  mce diff     <A> <B> [--html] [--out FILE]

<workload> = compress | li | vocoder | adpcm | jpeg | mix | path/to/workload.json

explore options:
  --preset P       exploration scale: fast or paper
  --threads N      worker threads for APEX evaluation, estimation and
                   simulation, N >= 1 (default: one per core; results are
                   identical for any N)
  --eval-cache FILE persist the candidate-evaluation cache across runs
                   (loaded if present, saved after; results unchanged)
  --trace-out FILE write a Chrome trace-event JSON of the run
                   (open in chrome://tracing or https://ui.perfetto.dev)
  --report-out FILE write the run-report JSON (schema v1; deterministic
                   except for its wall_clock section)
  --checkpoint FILE crash-safe mode: checkpoint progress to FILE and
                   resume from it if it exists; results are bit-identical
                   to an uninterrupted run; deleted on success
  --checkpoint-every N checkpoint every N Phase-I architectures
                   (default 1; the last architecture always checkpoints)
  --max-evals N    stop after N committed candidate evaluations (N >= 1);
                   deterministic: the same N truncates at the same point
                   for any --threads value, cache or no cache
  --max-archs N    stop after N Phase-I memory architectures (N >= 1);
                   deterministic like --max-evals
  --deadline SECS  stop at the next safe point after SECS seconds of wall
                   time (fractions allowed); the partial report is marked
                   truncated and the exit code stays 0
  --candidate-timeout MS reclaim any single evaluation running longer
                   than MS milliseconds by degrading it to its estimate
                   (tagged in the report's wall_clock.degraded section)
  --live-status FILE continuously publish a run-report snapshot to FILE
                   (atomic rewrites; watch it with `mce top`);
                   best-effort, never changes results or fails the run
  --live-every MS  live-status / time-series sampling cadence in
                   milliseconds (default 500, MS >= 10; requires
                   --live-status)
  --metrics-out FILE write the final report's counters/gauges/histograms
                   as OpenMetrics text to FILE
  --explain        capture frontier provenance: why each Phase-I point
                   survived or was pruned, and where its metrics came
                   from; adds the report's `provenance` section and
                   changes nothing else
  --progress       print live progress lines to stderr (MCE_LOG=debug
                   for more detail)

top options:
  --interval MS    dashboard refresh interval (default 500, MS >= 50)
  --once           print one plain-text snapshot and exit (also the
                   default when stdout is not a terminal)

report options:
  --out FILE       write the summary to FILE instead of stdout
  --html           render a self-contained HTML document instead of markdown

export-metrics options:
  --out FILE       write the OpenMetrics text to FILE instead of stdout

cache-check options:
  --capacity N     resident-entry capacity used when loading (default 65536)
  --repair         rewrite the spill with corrupt entries dropped
                   (atomic; without it a corrupt spill only reports);
                   exits 0 when the spill was already clean, 2 when
                   corrupt entries were dropped, 1 on unrepairable damage

diff options:
  <A> <B>          run-report files (a live-status file is one);
                   exits 0 iff the deterministic sections are identical,
                   1 when they differ
  --html           render a self-contained HTML document instead of markdown
  --out FILE       write the rendered diff to FILE instead of stdout";

type CliError = Box<dyn std::error::Error>;

/// A command line the CLI cannot act on: a missing command or operand,
/// or a flag that needs another. Like [`MceError::InvalidArg`], it is
/// reported with the usage text.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// A [`UsageError`] as a [`CliError`].
fn usage(reason: impl Into<String>) -> CliError {
    Box::new(UsageError(reason.into()))
}

/// True for errors in the command line itself, which `main` follows with
/// the usage text.
fn is_argument_error(e: &(dyn std::error::Error + 'static)) -> bool {
    e.is::<UsageError>()
        || matches!(
            e.downcast_ref::<MceError>(),
            Some(MceError::InvalidArg { .. })
        )
}

/// Runs one command; `Ok` carries the process exit code (0 for every
/// command except `cache-check`, which exits 2 to tell "clean" from
/// "repaired", and `diff`, which exits 1 when the runs differ).
fn run(args: &[String]) -> Result<u8, CliError> {
    let cmd = args.first().ok_or_else(|| usage("missing command"))?;
    match cmd.as_str() {
        "benchmarks" => cmd_benchmarks(&args[1..]).map(|()| 0),
        "template" => cmd_template(&args[1..]).map(|()| 0),
        "classify" => cmd_classify(&args[1..]).map(|()| 0),
        "simulate" => cmd_simulate(&args[1..]).map(|()| 0),
        "explore" => cmd_explore(&args[1..]).map(|()| 0),
        "top" => cmd_top(&args[1..]).map(|()| 0),
        "report" => cmd_report(&args[1..]).map(|()| 0),
        "export-metrics" => cmd_export_metrics(&args[1..]).map(|()| 0),
        "cache-check" => cmd_cache_check(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// Checks `args` against `flags` — the flags `mce <cmd>` accepts, in
/// usage form (`[--out FILE] [--html]`: a metavariable marks a
/// value-taking flag) — and returns the positional operands, in order.
/// An unknown `--flag`, or a value-taking flag whose value is missing or
/// itself flag-shaped, is a typed [`MceError::InvalidArg`]: a mistyped
/// or valueless flag never silently falls back to the default.
fn check_flags<'a>(cmd: &str, args: &'a [String], flags: &str) -> Result<Vec<&'a str>, MceError> {
    let mut operands = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            operands.push(arg.as_str());
            continue;
        }
        let meta = flags
            .split('[')
            .filter_map(|f| f.trim().strip_suffix(']'))
            .find_map(|f| match f.split_once(' ') {
                Some((name, meta)) => (name == arg).then_some(Some(meta)),
                None => (f == arg).then_some(None),
            })
            .ok_or_else(|| {
                let hint = format!("mce {cmd} {flags}");
                MceError::invalid_arg(arg, format!("unknown {cmd} flag"), hint.trim_end())
            })?;
        if let Some(meta) = meta {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                let hint = format!("{arg} {meta}");
                return Err(MceError::invalid_arg(
                    arg,
                    format!("needs a {meta} argument"),
                    hint,
                ));
            }
        }
    }
    Ok(operands)
}

/// The value of `--flag`, if present. Call after [`check_flags`], which
/// guarantees every value-taking flag carries a value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses an optional integer `--flag value`, rejecting non-numeric,
/// negative, overflowing and below-minimum values with a typed
/// [`MceError::InvalidArg`] carrying a one-line usage hint — never a
/// panic or a silent clamp.
fn numeric_flag<T>(
    args: &[String],
    flag: &'static str,
    min: T,
    hint: &'static str,
) -> Result<Option<T>, MceError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let Some(raw) = flag_value(args, flag) else {
        return Ok(None);
    };
    let v: T = raw
        .parse()
        .map_err(|e| MceError::invalid_arg(flag, format!("`{raw}` is not a number: {e}"), hint))?;
    if v < min {
        return Err(MceError::invalid_arg(
            flag,
            format!("must be at least {min}, got {v}"),
            hint,
        ));
    }
    Ok(Some(v))
}

/// Parses an optional `--deadline SECS` (positive, finite, fractions
/// allowed).
fn deadline_flag(args: &[String]) -> Result<Option<f64>, MceError> {
    let hint = "--deadline SECS (positive seconds, fractions allowed)";
    let Some(raw) = flag_value(args, "--deadline") else {
        return Ok(None);
    };
    let secs: f64 = raw.parse().map_err(|e| {
        MceError::invalid_arg("--deadline", format!("`{raw}` is not a number: {e}"), hint)
    })?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(MceError::invalid_arg(
            "--deadline",
            format!("must be a positive number of seconds, got `{raw}`"),
            hint,
        ));
    }
    Ok(Some(secs))
}

fn load_workload(args: &[String]) -> Result<Workload, CliError> {
    let name = args
        .first()
        .ok_or_else(|| usage("missing <workload> argument"))?;
    match name.as_str() {
        "compress" => Ok(benchmarks::compress()),
        "li" => Ok(benchmarks::li()),
        "vocoder" => Ok(benchmarks::vocoder()),
        "adpcm" => Ok(benchmarks::adpcm()),
        "jpeg" => Ok(benchmarks::jpeg()),
        "mix" => Ok(benchmarks::synthetic_mix(1)),
        path => {
            let body = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read workload file `{path}`: {e}"))?;
            let w: Workload = obs::json::from_str(&body)
                .map_err(|e| MceError::json(format!("workload `{path}`"), e))?;
            // Deserialization bypasses the constructors' checks.
            w.validate()?;
            Ok(w)
        }
    }
}

fn cmd_benchmarks(args: &[String]) -> Result<(), CliError> {
    check_flags("benchmarks", args, "")?;
    for w in benchmarks::all().into_iter().chain(benchmarks::extended()) {
        println!("{w}");
    }
    println!("{}", benchmarks::synthetic_mix(1));
    Ok(())
}

fn cmd_template(args: &[String]) -> Result<(), CliError> {
    check_flags("template", args, "")?;
    // A small but representative workload the user can edit.
    let template = WorkloadBuilder::new("my_app")
        .data_structure(
            DataStructure::new("input", 64 * 1024, 2, AccessPattern::Stream { stride: 2 })
                .with_hotness(5.0)
                .with_write_fraction(0.0),
        )
        .data_structure(
            DataStructure::new("table", 128 * 1024, 8, AccessPattern::SelfIndirect)
                .with_hotness(3.0),
        )
        .data_structure(
            DataStructure::new(
                "state",
                2 * 1024,
                4,
                AccessPattern::LoopNest {
                    working_set: 512,
                    reuse: 8,
                },
            )
            .with_hotness(4.0)
            .with_write_fraction(0.3),
        )
        .seed(1)
        .build();
    println!("{}", obs::json::to_string_pretty(&template));
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    check_flags("classify", args, "[--trace N]")?;
    let w = load_workload(args)?;
    let trace = numeric_flag::<usize>(args, "--trace", 1, "--trace N (accesses, N >= 1)")?
        .unwrap_or(30_000);
    println!(
        "pattern extraction for `{}` over {trace} accesses:\n",
        w.name()
    );
    for r in classify(&w, trace) {
        let ds = w.data_structure(r.ds);
        println!(
            "  {:<16} {:<14} share {:>5.1}%  stride-reg {:>4.2}  reuse {:>4.2}",
            ds.name(),
            r.class.to_string(),
            r.access_share * 100.0,
            r.stride_regularity,
            r.reuse_factor
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    check_flags("simulate", args, "[--cache KIB] [--trace N]")?;
    let w = load_workload(args)?;
    let kib =
        numeric_flag::<u64>(args, "--cache", 1, "--cache KIB (cache size, KIB >= 1)")?.unwrap_or(8);
    let trace = numeric_flag::<usize>(args, "--trace", 1, "--trace N (accesses, N >= 1)")?
        .unwrap_or(30_000);
    let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(kib));
    let sys = SystemConfig::with_shared_bus(&w, mem)?;
    let stats = simulate(&sys, &w, trace);
    println!("system: {sys}");
    println!("cost:   {} gates", sys.gate_cost());
    println!("result: {stats}");
    for (i, link) in stats.links.iter().enumerate() {
        println!(
            "  link {:<6} {:>8} transfers  {:>10} B  utilization {:>5.1}%",
            link.name,
            link.transfers,
            link.bytes,
            stats.link_utilization(i) * 100.0
        );
    }
    for m in &stats.modules {
        println!(
            "  module {:<6} {:>8} accesses  hit ratio {:>5.1}%",
            m.name,
            m.accesses,
            m.hit_ratio() * 100.0
        );
    }
    Ok(())
}

/// The CLI's observability wiring: builds the sink stack requested by
/// `--trace-out` / `--progress`, installs it for the duration of the
/// exploration, and writes the trace file on `finish`.
///
/// `need_metrics` (set by `--report-out`) guarantees the recorder is
/// active even when no sink was requested: a [`obs::NullSink`] discards
/// the event stream while the counter, gauge and histogram registries
/// keep collecting for the run report.
struct ObsSession {
    chrome: Option<(Arc<obs::ChromeTraceSink>, String)>,
    installed: bool,
}

impl ObsSession {
    fn start(trace_out: Option<&str>, progress: bool, need_metrics: bool) -> Self {
        let chrome = trace_out.map(|path| (Arc::new(obs::ChromeTraceSink::new()), path.to_owned()));
        let mut sinks: Vec<Arc<dyn obs::Sink>> = Vec::new();
        if let Some((sink, _)) = &chrome {
            sinks.push(sink.clone());
        }
        if progress {
            sinks.push(Arc::new(obs::ProgressReporter::new(Duration::from_millis(
                200,
            ))));
        }
        if sinks.is_empty() && need_metrics {
            sinks.push(Arc::new(obs::NullSink::new()));
        }
        let installed = !sinks.is_empty();
        if installed {
            obs::init_level_from_env();
            let sink: Arc<dyn obs::Sink> = if sinks.len() == 1 {
                sinks.pop().expect("one sink")
            } else {
                Arc::new(obs::MultiSink::new(sinks))
            };
            obs::install(sink);
        }
        ObsSession { chrome, installed }
    }

    fn finish(self) -> Result<(), CliError> {
        if self.installed {
            obs::uninstall();
        }
        if let Some((sink, path)) = self.chrome {
            atomic_write(&path, sink.to_chrome_json().as_bytes())
                .map_err(|e| format!("cannot write trace file `{path}`: {e}"))?;
            eprintln!("wrote trace {path}");
        }
        Ok(())
    }
}

fn cmd_explore(args: &[String]) -> Result<(), CliError> {
    use std::fmt::Write as _;

    check_flags(
        "explore",
        args,
        "[--preset P] [--out FILE] [--threads N] [--eval-cache FILE] \
         [--trace-out FILE] [--report-out FILE] [--checkpoint FILE] [--checkpoint-every N] \
         [--max-evals N] [--max-archs N] [--deadline SECS] [--candidate-timeout MS] \
         [--live-status FILE] [--live-every MS] [--metrics-out FILE] [--out-dir DIR] \
         [--explain] [--progress]",
    )?;
    let w = load_workload(args)?;
    let scale: Preset = flag_value(args, "--preset")
        .unwrap_or("fast")
        .parse()
        .map_err(usage)?;
    let mut session = ExplorationSession::new(w.clone()).preset(scale);
    if let Some(t) = numeric_flag::<usize>(args, "--threads", 1, "--threads N (N >= 1)")? {
        session = session.threads(t);
    }
    let cache_file = flag_value(args, "--eval-cache");
    if let Some(path) = cache_file {
        session = session.eval_cache_file(path);
    }
    let checkpoint_file = flag_value(args, "--checkpoint");
    if let Some(path) = checkpoint_file {
        session = session.checkpoint_file(path);
    }
    if let Some(n) = numeric_flag::<usize>(
        args,
        "--checkpoint-every",
        1,
        "--checkpoint-every N (N >= 1, requires --checkpoint FILE)",
    )? {
        if checkpoint_file.is_none() {
            return Err(usage("--checkpoint-every needs --checkpoint FILE"));
        }
        session = session.checkpoint_every(n);
    }
    if let Some(n) = numeric_flag::<u64>(args, "--max-evals", 1, "--max-evals N (N >= 1)")? {
        session = session.max_evals(n);
    }
    if let Some(n) = numeric_flag::<usize>(args, "--max-archs", 1, "--max-archs N (N >= 1)")? {
        session = session.max_archs(n);
    }
    if let Some(secs) = deadline_flag(args)? {
        session = session.deadline(Duration::from_secs_f64(secs));
    }
    if let Some(ms) = numeric_flag::<u64>(
        args,
        "--candidate-timeout",
        1,
        "--candidate-timeout MS (milliseconds, MS >= 1)",
    )? {
        session = session.candidate_timeout(Duration::from_millis(ms));
    }
    let live_status = flag_value(args, "--live-status");
    if let Some(path) = live_status {
        session = session.live_status_file(path);
    }
    if let Some(ms) = numeric_flag::<u64>(
        args,
        "--live-every",
        10,
        "--live-every MS (MS >= 10, requires --live-status FILE)",
    )? {
        if live_status.is_none() {
            return Err(usage("--live-every needs --live-status FILE"));
        }
        session = session.live_every(Duration::from_millis(ms));
    }
    let metrics_out = flag_value(args, "--metrics-out");
    if let Some(path) = metrics_out {
        session = session.metrics_out(path);
    }
    if args.iter().any(|a| a == "--explain") {
        session = session.explain(true);
    }
    // Verify a checkpoint before announcing the resume: a corrupt or
    // foreign one fails here, in one line, before any work starts. The
    // run loads it again.
    if let (Some(path), Some(_)) = (checkpoint_file, session.resume_checkpoint()?) {
        eprintln!("resuming from checkpoint {path}");
    }
    // Ctrl-C and a process manager's SIGTERM both become a cooperative
    // stop at the next safe point instead of killing the process: the
    // checkpoint and a truncated report are still written, and the exit
    // code stays 0.
    memory_conex::budget::install_termination_handlers();
    session = session.watch_interrupt(true);
    let report_out = flag_value(args, "--report-out");
    let obs_session = ObsSession::start(
        flag_value(args, "--trace-out"),
        args.iter().any(|a| a == "--progress"),
        report_out.is_some() || live_status.is_some() || metrics_out.is_some(),
    );
    eprintln!("exploring `{}` at {scale} scale...", w.name());
    let result = session.run()?;
    obs_session.finish()?;
    let conex = &result.conex;
    if let Some(reason) = conex.stop_reason() {
        // The distinct truncation status line: the run stopped at a safe
        // point, everything below covers the committed part, exit code 0.
        match checkpoint_file {
            Some(path) => eprintln!(
                "exploration truncated ({reason}): checkpoint saved to {path} — \
                 re-run the same command to resume"
            ),
            None => eprintln!(
                "exploration truncated ({reason}): partial results below \
                 (add --checkpoint FILE to make truncated runs resumable)"
            ),
        }
    }
    if !conex.degraded().is_empty() {
        eprintln!(
            "{} evaluation(s) hit --candidate-timeout and were degraded to estimates",
            conex.degraded().len()
        );
    }
    if let Some(path) = cache_file {
        let s = result.cache_stats;
        eprintln!(
            "eval-cache {path}: {} hits, {} misses, {} inserts",
            s.hits, s.misses, s.inserts
        );
    }
    if let Some(path) = live_status {
        eprintln!(
            "live status {path} holds the final snapshot (watch live runs with `mce top {path}`)"
        );
    }
    if let Some(path) = metrics_out {
        eprintln!("wrote metrics {path}");
    }
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "estimated {} candidates, fully simulated {} ({:.1}s)\n",
        conex.estimated().len(),
        conex.simulated().len(),
        conex.elapsed().as_secs_f64()
    );
    let _ = writeln!(summary, "cost/performance pareto:");
    for p in conex.pareto_cost_latency() {
        let _ = writeln!(
            summary,
            "  {:>8} gates  {:>7.2} cyc  {:>6.2} nJ  {}",
            p.metrics.cost_gates,
            p.metrics.latency_cycles,
            p.metrics.energy_nj,
            p.describe()
        );
    }
    // A quick power-constrained view at the median energy.
    let mut energies: Vec<f64> = conex
        .simulated()
        .iter()
        .map(|p| p.metrics.energy_nj)
        .collect();
    energies.sort_by(f64::total_cmp);
    if let Some(&median) = energies.get(energies.len() / 2) {
        let picks = Scenario::PowerConstrained {
            max_energy_nj: median,
        }
        .select(conex.simulated());
        let _ = writeln!(
            summary,
            "\npower-constrained (≤ median {median:.2} nJ): {} admissible pareto designs",
            picks.len()
        );
    }
    print!("{summary}");
    write_experiment_log(
        flag_value(args, "--out-dir").unwrap_or("target/experiments"),
        &w,
        scale,
        &summary,
    );
    if let Some(path) = report_out {
        atomic_write(path, result.report.to_json().as_bytes())
            .map_err(|e| format!("cannot write report file `{path}`: {e}"))?;
        eprintln!("wrote report {path}");
    }
    if let Some(path) = flag_value(args, "--out") {
        atomic_write(path, obs::json::to_string_pretty(conex).as_bytes())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Logs the textual exploration summary under the experiments directory
/// (one file per workload/preset, overwritten on re-runs). Logging is
/// best-effort: an unwritable directory warns but never fails the run.
///
/// Workload names come unchecked from workload files, so path separators
/// and control characters in the name become `_`: the log is always one
/// file directly inside `out_dir`.
fn write_experiment_log(out_dir: &str, w: &Workload, scale: Preset, summary: &str) {
    let dir = std::path::Path::new(out_dir);
    let name: String = w
        .name()
        .chars()
        .map(|c| {
            if std::path::is_separator(c) || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    let path = dir.join(format!("explore_{name}_{scale}.txt"));
    let written = std::fs::create_dir_all(dir)
        .map_err(|e| e.to_string())
        .and_then(|()| atomic_write(&path, summary.as_bytes()).map_err(|e| e.to_string()));
    match written {
        Ok(()) => eprintln!("logged {}", path.display()),
        Err(e) => eprintln!(
            "warning: cannot write experiment log {}: {e}",
            path.display()
        ),
    }
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let files = check_flags("report", args, "[--out FILE] [--html]")?;
    let html = args.iter().any(|a| a == "--html");
    if files.is_empty() {
        return Err(usage("report needs at least one run-report JSON file"));
    }
    let mut reports = Vec::new();
    for path in files {
        reports.push((path.to_owned(), load_report(path)?));
    }
    let markdown = report::render_markdown(&reports);
    let rendered = if html {
        report::markdown_to_html(&markdown)
    } else {
        markdown
    };
    match flag_value(args, "--out") {
        Some(path) => {
            atomic_write(path, rendered.as_bytes())
                .map_err(|e| format!("cannot write summary `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Loads and schema-checks one run report — a `--report-out` file or a
/// `--live-status` snapshot.
fn load_report(path: &str) -> Result<obs::json::Value, CliError> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read report file `{path}`: {e}"))?;
    let doc = obs::json::parse(&body)
        .map_err(|e| format!("report file `{path}` is not valid JSON: {e}"))?;
    report::check_report_schema(&doc).map_err(|e| format!("report file `{path}`: {e}"))?;
    Ok(doc)
}

/// The terminal's column count, re-queried on demand so a resize takes
/// effect on the next refresh: `COLUMNS` when set (shells export it),
/// `tput cols` as a fallback, 80 when neither answers. Floored at 20 —
/// below that no dashboard layout is sensible.
fn terminal_width() -> usize {
    let from_env = std::env::var("COLUMNS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let width = from_env.or_else(|| {
        std::process::Command::new("tput")
            .arg("cols")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<usize>().ok())
    });
    width.unwrap_or(80).max(20)
}

/// `mce top`: watches a `--live-status` file — or renders any run
/// report, running or finished. On a TTY it refreshes a full-screen
/// dashboard every `--interval` until the run leaves the `running`
/// state; with `--once` or a non-TTY stdout it prints a single plain-text
/// snapshot, so scripts and CI can capture it.
///
/// The status file is rewritten atomically by the exploring process, so
/// every read sees a complete document. A *missing* file is transient —
/// the writer may not have started yet, or is between a checkpoint
/// delete and its first write — so the watch shows a "waiting for
/// writer" frame and keeps polling. A *malformed* file is not: ten
/// consecutive parse failures end the watch with the error instead of
/// spinning forever.
fn cmd_top(args: &[String]) -> Result<(), CliError> {
    use std::io::{IsTerminal, Write as _};

    let path = *check_flags("top", args, "[--interval MS] [--once]")?
        .first()
        .ok_or_else(|| usage("top needs a live-status or run-report file argument"))?;
    let file = std::path::Path::new(path);
    if file.is_dir() {
        return Err(MceError::invalid_arg(
            path,
            "is a directory; top takes a live-status or run-report file",
            "mce top <report.json> [--interval MS] [--once]",
        )
        .into());
    }
    let interval =
        numeric_flag::<u64>(args, "--interval", 50, "--interval MS (MS >= 50)")?.unwrap_or(500);
    let once = args.iter().any(|a| a == "--once");
    let render = |width: usize| -> Result<(String, bool), CliError> {
        let doc = load_report(path)?;
        let active = doc.get("status").and_then(obs::json::Value::as_str) == Some("running");
        Ok((live::render_dashboard_with_width(path, &doc, width), active))
    };
    if once || !std::io::stdout().is_terminal() {
        print!("{}", render(terminal_width())?.0);
        return Ok(());
    }
    let mut failures = 0u32;
    loop {
        // Re-measured every refresh: a resized terminal gets a
        // re-fitted frame without restarting the watch.
        let width = terminal_width();
        let show = |frame: &str| {
            let mut stdout = std::io::stdout().lock();
            // Clear + home, then the frame: one write per refresh.
            let _ = write!(stdout, "\x1b[2J\x1b[H{frame}");
            let _ = stdout.flush();
        };
        if !file.exists() {
            // Transient by design — never counts toward the failure cap.
            show(&format!("mce top — waiting for writer… ({path})\n"));
            std::thread::sleep(Duration::from_millis(interval));
            continue;
        }
        match render(width) {
            Ok((frame, active)) => {
                failures = 0;
                show(&frame);
                if !active {
                    return Ok(());
                }
            }
            Err(e) => {
                failures += 1;
                if failures >= 10 {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// `mce export-metrics`: renders a run report — finished or a live-status
/// snapshot — as OpenMetrics text (to stdout or `--out FILE`), so any
/// Prometheus-compatible scraper can ingest a run's registries.
fn cmd_export_metrics(args: &[String]) -> Result<(), CliError> {
    let path = *check_flags("export-metrics", args, "[--out FILE]")?
        .first()
        .ok_or_else(|| usage("export-metrics needs a run-report JSON file"))?;
    let text = live::openmetrics_from_value(&load_report(path)?)?;
    match flag_value(args, "--out") {
        Some(out) => {
            atomic_write(out, text.as_bytes())
                .map_err(|e| format!("cannot write metrics `{out}`: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Offline eval-cache spill validation and repair.
///
/// Strictly parses every entry: a fully valid spill reports its entry
/// count; one with corrupt entries lists how many and fails — unless
/// `--repair` is given, which atomically rewrites the spill with the
/// corrupt entries dropped (the same salvage `mce explore --eval-cache`
/// applies at load time, made permanent). Document-level damage — not
/// JSON, wrong version — is never repairable.
///
/// Exit-code contract: 0 when the spill was already clean, 2 when
/// `--repair` dropped corrupt entries (repaired ≠ clean, so CI scripts
/// can tell them apart), 1 on any error (corruption without `--repair`,
/// unrepairable document damage, I/O failures).
fn cmd_cache_check(args: &[String]) -> Result<u8, CliError> {
    use memory_conex::conex::EvalCache;

    let path = *check_flags("cache-check", args, "[--capacity N] [--repair]")?
        .first()
        .ok_or_else(|| usage("cache-check needs a spill file argument"))?;
    let capacity = numeric_flag::<usize>(args, "--capacity", 1, "--capacity N (N >= 1)")?
        .unwrap_or(memory_conex::conex::eval_cache::DEFAULT_CAPACITY);
    let repair = args.iter().any(|a| a == "--repair");
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spill `{path}`: {e}"))?;
    // Strict first: a clean bill of health needs every entry to parse.
    match EvalCache::from_spill_json(&body, capacity) {
        Ok(cache) => {
            println!("{path}: valid, {} entries", cache.len());
            Ok(0)
        }
        Err(first_error) => {
            // Entry-level damage salvages; document-level damage re-errors.
            let (cache, dropped) = EvalCache::from_spill_json_salvage(&body, capacity)
                .map_err(|_| format!("{path}: unrepairable: {first_error}"))?;
            println!(
                "{path}: {} corrupt entr{} ({} intact)",
                dropped,
                if dropped == 1 { "y" } else { "ies" },
                cache.len()
            );
            if !repair {
                return Err(format!(
                    "{path}: corrupt entries found (re-run with --repair to drop them)"
                )
                .into());
            }
            cache
                .save(path)
                .map_err(|e| format!("cannot rewrite spill `{path}`: {e}"))?;
            println!(
                "{path}: repaired, {} entries kept, {dropped} dropped",
                cache.len()
            );
            Ok(2)
        }
    }
}

/// `mce diff`: structural comparison of two run-report files
/// (live-status snapshots included). Exits 0 iff the deterministic
/// sections are equal (wall clock, cache state and provenance never
/// affect the verdict), 1 when they differ.
fn cmd_diff(args: &[String]) -> Result<u8, CliError> {
    let (a, b) = match check_flags("diff", args, "[--html] [--out FILE]")?[..] {
        [a, b] => (a, b),
        _ => return Err(usage("diff needs exactly two run-report files")),
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let text_a = read(a)?;
    let text_b = read(b)?;
    let outcome = memory_conex::diff::diff_texts(a, &text_a, b, &text_b)?;
    emit_diff(args, outcome.markdown.clone())?;
    Ok(u8::from(!outcome.identical))
}

/// Writes a rendered diff to `--out` (or stdout), as HTML when `--html`.
fn emit_diff(args: &[String], markdown: String) -> Result<(), CliError> {
    let rendered = if args.iter().any(|a| a == "--html") {
        report::markdown_to_html(&markdown)
    } else {
        markdown
    };
    match flag_value(args, "--out") {
        Some(path) => {
            atomic_write(path, rendered.as_bytes())
                .map_err(|e| format!("cannot write diff `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["vocoder", "--trace", "123", "--cache", "4"]);
        assert_eq!(flag_value(&args, "--trace"), Some("123"));
        assert_eq!(flag_value(&args, "--cache"), Some("4"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn builtin_workloads_load() {
        for name in ["compress", "li", "vocoder", "adpcm", "jpeg", "mix"] {
            assert!(load_workload(&s(&[name])).is_ok(), "{name}");
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = load_workload(&s(&["/nonexistent/w.json"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn template_round_trips_through_serde() {
        let template = WorkloadBuilder::new("t")
            .data_structure(DataStructure::new("d", 1024, 4, AccessPattern::Random))
            .build();
        let json = obs::json::to_string(&template);
        let back: Workload = obs::json::from_str(&json).unwrap();
        assert_eq!(template, back);
    }

    #[test]
    fn experiment_log_stays_inside_the_out_dir() {
        let root = std::env::temp_dir().join(format!("mce_explog_{}", std::process::id()));
        let out = root.join("logs");
        // At a bare `explore_` prefix, `/../../up` would climb out of
        // `logs` and write into `root`.
        std::fs::create_dir_all(out.join("explore_")).unwrap();
        for name in ["a/b", "/../../up", "tab\there"] {
            let w = WorkloadBuilder::new(name)
                .data_structure(DataStructure::new("d", 1024, 4, AccessPattern::Random))
                .build();
            write_experiment_log(out.to_str().unwrap(), &w, Preset::Fast, name);
        }
        let mut logs: Vec<String> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_type().unwrap().is_file())
            .map(|e| std::fs::read_to_string(e.path()).unwrap())
            .collect();
        logs.sort();
        let escaped = std::fs::read_dir(&root).unwrap().count() != 1
            || std::fs::read_dir(out.join("explore_")).unwrap().count() != 0;
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(logs, ["/../../up", "a/b", "tab\there"]);
        assert!(!escaped, "a log was written outside the out dir");
    }

    #[test]
    fn explore_rejects_bad_threads() {
        let err = cmd_explore(&s(&["vocoder", "--threads", "abc"])).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
    }

    #[test]
    fn numeric_flags_reject_garbage_table_driven() {
        // Every rejected value renders as a typed InvalidArg: the flag
        // name, the reason, and a one-line usage hint — never a panic or
        // a silent clamp.
        let cases: &[(&[&str], &str)] = &[
            (&["explore", "vocoder", "--threads", "0"], "--threads"),
            (&["explore", "vocoder", "--threads", "-2"], "--threads"),
            (&["explore", "vocoder", "--threads", "abc"], "--threads"),
            (
                &[
                    "explore",
                    "vocoder",
                    "--threads",
                    "99999999999999999999999999",
                ],
                "--threads",
            ),
            (&["explore", "vocoder", "--max-evals", "0"], "--max-evals"),
            (&["explore", "vocoder", "--max-evals", "ten"], "--max-evals"),
            (&["explore", "vocoder", "--max-archs", "0"], "--max-archs"),
            (&["explore", "vocoder", "--max-archs", "-1"], "--max-archs"),
            (&["explore", "vocoder", "--deadline", "0"], "--deadline"),
            (&["explore", "vocoder", "--deadline", "-1.5"], "--deadline"),
            (&["explore", "vocoder", "--deadline", "NaN"], "--deadline"),
            (&["explore", "vocoder", "--deadline", "inf"], "--deadline"),
            (&["explore", "vocoder", "--deadline", "soon"], "--deadline"),
            (&["explore", "vocoder", "--deadline"], "--deadline"),
            (&["explore", "vocoder", "--threads"], "--threads"),
            (
                &["explore", "vocoder", "--candidate-timeout", "0"],
                "--candidate-timeout",
            ),
            (
                &["explore", "vocoder", "--candidate-timeout", "2.5"],
                "--candidate-timeout",
            ),
            (
                &[
                    "explore",
                    "vocoder",
                    "--checkpoint",
                    "c.json",
                    "--checkpoint-every",
                    "0",
                ],
                "--checkpoint-every",
            ),
            (
                &[
                    "explore",
                    "vocoder",
                    "--live-status",
                    "s.json",
                    "--live-every",
                    "5",
                ],
                "--live-every",
            ),
            (
                &[
                    "explore",
                    "vocoder",
                    "--live-status",
                    "s.json",
                    "--live-every",
                    "soon",
                ],
                "--live-every",
            ),
            (&["top", "s.json", "--interval", "0"], "--interval"),
            (&["top", "s.json", "--interval", "abc"], "--interval"),
            (&["classify", "vocoder", "--trace", "0"], "--trace"),
            (&["classify", "vocoder", "--trace", "-5"], "--trace"),
            (&["simulate", "vocoder", "--trace"], "--trace"),
            (&["simulate", "vocoder", "--cache", "-1"], "--cache"),
            (&["simulate", "vocoder", "--cache", "0"], "--cache"),
            (
                &["cache-check", "spill.json", "--capacity", "0"],
                "--capacity",
            ),
            (
                &["cache-check", "spill.json", "--capacity", "lots"],
                "--capacity",
            ),
            // Unknown flags and value-taking flags without a value: a
            // mistyped flag never silently runs unbounded, a valueless
            // output flag never silently drops its file.
            (&["explore", "vocoder", "--max-eval", "3"], "--max-eval"),
            (&["classify", "vocoder", "--trac", "100"], "--trac"),
            (&["simulate", "vocoder", "--bogus"], "--bogus"),
            (&["explore", "vocoder", "--report-out"], "--report-out"),
            (&["explore", "vocoder", "--eval-cache"], "--eval-cache"),
            (&["explore", "vocoder", "--trace-out"], "--trace-out"),
            (&["explore", "vocoder", "--metrics-out"], "--metrics-out"),
            (&["explore", "vocoder", "--out"], "--out"),
            (&["explore", "vocoder", "--out-dir"], "--out-dir"),
            (
                &["explore", "vocoder", "--report-out", "--progress"],
                "--report-out",
            ),
            (&["explore", "vocoder", "--preset"], "--preset"),
            (&["benchmarks", "--all"], "--all"),
            (&["template", "--out", "t.json"], "--out"),
            // The removed alias of `--preset` is an unknown flag too.
            (&["explore", "vocoder", "--scale", "fast"], "--scale"),
            (&["top", "s.json", "--onse"], "--onse"),
            (&["report", "r.json", "--out"], "--out"),
            (&["export-metrics", "s.json", "--html"], "--html"),
            (&["cache-check", "spill.json", "--fix"], "--fix"),
            (&["diff", "a.json", "b.json", "--out"], "--out"),
        ];
        for (args, flag) in cases {
            let err = run(&s(args)).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("invalid argument: {flag}:")),
                "{args:?} should render a typed InvalidArg for {flag}, got: {err}"
            );
            assert!(
                err.contains("usage:"),
                "{args:?} should carry a hint: {err}"
            );
        }
    }

    #[test]
    fn malformed_workload_files_are_typed_errors_table_driven() {
        // Deserialization bypasses the constructors, so every invariant
        // they assert is re-checked on load: each broken file is an
        // InvalidInput error, never a panic or a silently odd run. `file`
        // writes one data structure (footprint, element size, hotness,
        // write fraction) and the phases array.
        let file = |fp: u64, es: u64, hot: f64, wr: f64, phases: &str| {
            format!(
                "{{\"name\": \"t\", \"data_structures\": [{{\"name\": \"d\", \"footprint\": {fp}, \
                 \"element_size\": {es}, \"pattern\": \"Random\", \"hotness\": {hot:?}, \
                 \"write_fraction\": {wr:?}}}], \"seed\": 1, \"compute_gap\": 2, \"phases\": [{phases}]}}"
            )
        };
        let phase = |n: u64, scale: &str| {
            format!("{{\"name\": \"p\", \"accesses\": {n}, \"hotness_scale\": [{scale}]}}")
        };
        let no_ds = "{\"name\": \"t\", \"data_structures\": [], \"seed\": 1, \"compute_gap\": 2}";
        let cases = [
            (file(0, 4, 1.0, 0.2, ""), "footprint must be"),
            (file(64, 0, 1.0, 0.2, ""), "element size must"),
            (no_ds.to_owned(), "at least one data structure"),
            (file(4, 8, 1.0, 0.2, ""), "element larger"),
            (file(64, 4, -1.0, 0.2, ""), "hotness must be"),
            (file(64, 4, 0.0, 0.2, ""), "hotness must be"),
            (file(64, 4, 1.0, 1.5, ""), "write fraction"),
            (file(64, 4, 1.0, 0.2, &phase(0, "1.0")), "one access"),
            (file(64, 4, 1.0, 0.2, &phase(9, "")), "must scale every"),
            (
                file(64, 4, 1.0, 0.2, "")
                    .replace("\"compute_gap\": 2", "\"compute_gap\": 9223372036854775808"),
                "compute gap",
            ),
        ];
        let path = std::env::temp_dir().join(format!("mce_bad_wl_{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        std::fs::write(&path, file(64, 4, 1.0, 0.2, &phase(9, "1.0"))).unwrap();
        assert!(load_workload(&s(&[path_s])).is_ok(), "a valid file loads");
        for (body, expect) in cases {
            std::fs::write(&path, &body).unwrap();
            let err = run(&s(&["classify", path_s, "--trace", "100"])).unwrap_err();
            let err = err.downcast_ref::<MceError>().expect("typed error");
            assert!(matches!(err, MceError::InvalidInput { .. }), "{err}");
            assert!(err.to_string().contains(expect), "{expect}: {err}");
        }
        // A body that does not decode is a JSON error naming the file and
        // the field; so is nesting past the parser's depth cap.
        for (body, expect) in [
            (
                no_ds.replace("1,", "\"one\","),
                "Workload.seed: expected integer",
            ),
            ("[".repeat(50_000), "nesting deeper than"),
        ] {
            std::fs::write(&path, &body).unwrap();
            let err = load_workload(&s(&[path_s])).unwrap_err();
            let err = err.downcast_ref::<MceError>().expect("typed error");
            assert!(matches!(err, MceError::Json { .. }), "{err}");
            let text = err.to_string();
            assert!(
                text.contains(path_s) && text.contains(expect),
                "{expect}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explore_rejects_bad_preset() {
        let err = cmd_explore(&s(&["vocoder", "--preset", "bogus"])).unwrap_err();
        assert!(err.to_string().contains("unknown preset"), "{err}");
    }

    #[test]
    fn explore_rejects_bad_checkpoint_flags() {
        let err = cmd_explore(&s(&["vocoder", "--checkpoint-every", "2"])).unwrap_err();
        assert!(err.to_string().contains("--checkpoint FILE"), "{err}");
        // A valueless --checkpoint must not silently drop crash safety.
        let err = cmd_explore(&s(&["vocoder", "--checkpoint"])).unwrap_err();
        assert!(err.to_string().contains("FILE argument"), "{err}");
        let err = cmd_explore(&s(&["vocoder", "--checkpoint", "--progress"])).unwrap_err();
        assert!(err.to_string().contains("FILE argument"), "{err}");
        let err = cmd_explore(&s(&[
            "vocoder",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = cmd_explore(&s(&[
            "vocoder",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "abc",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--checkpoint-every"), "{err}");
    }

    #[test]
    fn explore_rejects_bad_live_flags() {
        // A valueless --live-status must not silently drop monitoring.
        let err = cmd_explore(&s(&["vocoder", "--live-status"])).unwrap_err();
        assert!(err.to_string().contains("FILE argument"), "{err}");
        let err = cmd_explore(&s(&["vocoder", "--live-status", "--progress"])).unwrap_err();
        assert!(err.to_string().contains("FILE argument"), "{err}");
        let err = cmd_explore(&s(&["vocoder", "--live-every", "200"])).unwrap_err();
        assert!(err.to_string().contains("--live-status FILE"), "{err}");
    }

    #[test]
    fn top_validates_its_input() {
        let err = cmd_top(&s(&["--once"])).unwrap_err();
        assert!(err.to_string().contains("run-report file"), "{err}");
        let err = cmd_top(&s(&["/nonexistent/status.json", "--once"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("mce_top_bad_{}.json", std::process::id()));
        std::fs::write(&bad, "{\"schema\": 99}").unwrap();
        let err = cmd_top(&s(&[bad.to_str().unwrap(), "--once"])).unwrap_err();
        std::fs::remove_file(&bad).ok();
        assert!(
            err.to_string().contains("unsupported run report schema"),
            "{err}"
        );
        // A directory is rejected up front, not read or watched.
        let err = cmd_top(&s(&[dir.to_str().unwrap(), "--once"])).unwrap_err();
        assert!(
            err.to_string()
                .contains("takes a live-status or run-report file"),
            "{err}"
        );
    }

    #[test]
    fn export_metrics_renders_openmetrics_from_a_report() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let src = dir.join(format!("mce_xm_src_{pid}.json"));
        let out = dir.join(format!("mce_xm_out_{pid}.txt"));
        std::fs::write(
            &src,
            "{\"schema\": 1, \"counters\": {\"conex.simulated\": 7}, \"gauges\": {}, \
             \"wall_clock\": {\"budget\": {}, \"histograms\": []}}",
        )
        .unwrap();
        cmd_export_metrics(&s(&[src.to_str().unwrap(), "--out", out.to_str().unwrap()])).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&out).ok();
        assert!(text.contains("mce_conex_simulated_total 7"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        let err = cmd_export_metrics(&s(&["/nonexistent/x.json"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        let err = cmd_export_metrics(&s(&[])).unwrap_err();
        assert!(err.to_string().contains("export-metrics needs"), "{err}");
    }

    #[test]
    fn cache_check_validates_and_repairs() {
        use memory_conex::conex::{CanonKey, EvalCache, Metrics};

        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("mce_cachecheck_{pid}.json"));
        let path_s = path.to_str().unwrap();

        // A valid spill passes without flags.
        let cache = EvalCache::new();
        cache.insert(
            CanonKey { hi: 1, lo: 2 },
            Metrics {
                cost_gates: 10,
                latency_cycles: 1.0,
                energy_nj: 0.5,
            },
        );
        cache.save(&path).unwrap();
        assert_eq!(cmd_cache_check(&s(&[path_s])).unwrap(), 0);

        // Corrupt one entry: reported and failed without --repair,
        // dropped with it, then clean again. The spill carries f64s as
        // hex bit patterns; flip a hex digit of the second entry's
        // latency, which its checksum no longer matches.
        cache.insert(
            CanonKey { hi: 3, lo: 4 },
            Metrics {
                cost_gates: 20,
                latency_cycles: 2.0,
                energy_nj: 1.0,
            },
        );
        let lat = format!("\"{:016x}\"", 2.0f64.to_bits());
        let spill = cache.to_spill_json();
        assert_eq!(spill.matches(&lat).count(), 1, "{spill}");
        let spill = spill.replace(&lat, &lat.replacen('4', "f", 1));
        std::fs::write(&path, spill).unwrap();
        let err = cmd_cache_check(&s(&[path_s])).unwrap_err();
        assert!(err.to_string().contains("--repair"), "{err}");
        // A repair that dropped entries exits 2 (repaired ≠ clean) …
        assert_eq!(cmd_cache_check(&s(&[path_s, "--repair"])).unwrap(), 2);
        // … and the now-clean spill is back to exit 0, --repair or not.
        assert_eq!(cmd_cache_check(&s(&[path_s])).unwrap(), 0);
        assert_eq!(
            cmd_cache_check(&s(&[path_s, "--repair"])).unwrap(),
            0,
            "--repair on a clean spill exits 0"
        );

        // Document-level damage is unrepairable.
        std::fs::write(&path, "{\"version\":999,\"entries\":[]}").unwrap();
        let err = cmd_cache_check(&s(&[path_s, "--repair"])).unwrap_err();
        assert!(err.to_string().contains("unrepairable"), "{err}");

        std::fs::remove_file(&path).ok();
        let err = cmd_cache_check(&s(&["--repair"])).unwrap_err();
        assert!(err.to_string().contains("spill file"), "{err}");
    }

    #[test]
    fn report_rejects_missing_and_malformed_inputs() {
        let err = cmd_report(&s(&[])).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        let err = cmd_report(&s(&["/nonexistent/report.json"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        let err = cmd_report(&s(&["file.json", "--frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown report flag"), "{err}");

        let dir = std::env::temp_dir();
        let bad_schema = dir.join(format!("mce_bad_schema_{}.json", std::process::id()));
        std::fs::write(&bad_schema, "{\"schema\": 999}").unwrap();
        let err = cmd_report(&s(&[bad_schema.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&bad_schema).ok();
        // The typed SchemaVersion error names the artifact and both
        // versions.
        assert!(
            err.to_string().contains("unsupported run report schema"),
            "{err}"
        );
        assert!(err.to_string().contains("999"), "{err}");
    }

    #[test]
    fn classify_and_simulate_run() {
        assert!(cmd_classify(&s(&["vocoder", "--trace", "2000"])).is_ok());
        assert!(cmd_simulate(&s(&["vocoder", "--cache", "2", "--trace", "2000"])).is_ok());
    }

    fn sample_report_text(enumerated: u64, elapsed: f64) -> String {
        format!(
            "{{\n  \"schema\": 1,\n  \"workload\": \"vocoder\",\n  \
             \"workload_digest\": \"abcd\",\n  \"status\": \"completed\",\n  \
             \"stop_reason\": null,\n  \"config\": {{\n    \"conex_trace_len\": 15000,\n    \
             \"local_keep\": 16\n  }},\n  \"counters\": {{\n    \
             \"conex.candidates_enumerated\": {enumerated}\n  }},\n  \
             \"wall_clock\": {{\"elapsed_s\": {elapsed}}}\n}}\n"
        )
    }

    #[test]
    fn diff_compares_report_files_end_to_end() {
        let dir = std::env::temp_dir().join(format!("mce_cli_diff_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_owned()
        };
        let a = write("a.json", &sample_report_text(120, 1.5));
        let rerun = write("rerun.json", &sample_report_text(120, 9.0));
        let b = write("b.json", &sample_report_text(220, 1.5));

        // Same deterministic sections (different wall clock) → 0;
        // perturbed counters → 1.
        assert_eq!(cmd_diff(&s(&[&a, &rerun])).unwrap(), 0);
        assert_eq!(cmd_diff(&s(&[&a, &b])).unwrap(), 1);
        let out_md = dir.join("diff.md");
        assert_eq!(
            cmd_diff(&s(&[&a, &b, "--out", out_md.to_str().unwrap()])).unwrap(),
            1
        );
        let md = std::fs::read_to_string(&out_md).unwrap();
        assert!(md.contains("Deterministic sections differ"), "{md}");
        assert!(md.contains("conex.candidates_enumerated"), "{md}");
        let out_html = dir.join("diff.html");
        cmd_diff(&s(&[&a, &b, "--html", "--out", out_html.to_str().unwrap()])).unwrap();
        assert!(std::fs::read_to_string(&out_html)
            .unwrap()
            .starts_with("<!DOCTYPE html>"));

        let missing = dir.join("missing.json");
        let err = cmd_diff(&s(&[missing.to_str().unwrap(), &b])).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        let err = cmd_diff(&s(&[&a])).unwrap_err();
        assert!(err.to_string().contains("exactly two"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
