//! `mce-perf` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release -p mce-perf -- --workload <name> [--seed N] [--seconds N]
//!     [--trace 0|1] [--trace-out FILE] [--smoke] [--expect-digest HEX]
//! ```
//!
//! Tables go to stderr; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). Exits 1 when
//! a result was wrong, 2 when the run could not be made.

use mce_perf::spans::Recorder;
use mce_perf::workloads::{self, Run, WORKLOADS};
use mce_perf::{stats, timed, traced, Metric};
use memory_conex::conex::design_point::workload_digest;
use memory_conex::prelude::Preset;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mce-perf --workload <name> [--seed N] [--seconds N] [--trace 0|1] \
                     [--trace-out FILE] [--smoke] [--expect-digest HEX]";

#[derive(Debug)]
struct Args {
    workload: &'static workloads::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    expect: Option<u64>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 0,
        seconds: 20,
        trace: false,
        trace_out: None,
        smoke: false,
        expect: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
                workload = Some(workloads::find(&v).ok_or_else(|| {
                    format!("unknown workload `{v}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--expect-digest" => {
                let v = value()?;
                args.expect = Some(u64::from_str_radix(&v, 16).map_err(|_| bad(&v))?);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mce-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spill files live next to the executable, inside the build directory.
    let work_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default()
        .join(format!("mce-perf-work-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))
        .and_then(|()| measure(&args, &work_dir));
    std::fs::remove_dir_all(&work_dir).ok();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mce-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs both passes, prints the report and returns whether every result
/// was correct.
fn measure(args: &Args, work_dir: &Path) -> Result<bool, String> {
    let preset = if args.smoke {
        Preset::Fast
    } else {
        Preset::Paper
    };
    let run = Run::new(args.workload, args.seed, preset, work_dir);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "mce-perf: {} seed {} (trace seed {:#x}, workload digest {}), preset {preset}, \
         {} thread(s) on {cores} core(s)",
        run.spec.name,
        run.seed,
        run.workload.seed(),
        workload_digest(&run.workload),
        run.threads,
    );
    let expected = args
        .expect
        .or((args.seed == 0 && !args.smoke).then_some(run.spec.pinned_digest));
    let budget = Duration::from_secs(args.seconds);
    let timed = timed::run(&run, budget, args.smoke, expected).map_err(|e| e.to_string())?;
    let e2e = timed.metrics();
    let (mut attempted, mut failed) = (timed.attempted, timed.failed);
    let samples: Vec<String> = timed.explore_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "explore_n {} (max {:.4} s; samples {}), {} estimates + refines, {} simulated accesses \
         per run, result_digest {:016x}",
        timed.explore_s.len(),
        timed.explore_s.iter().copied().fold(0.0, f64::max),
        samples.join(" "),
        timed.points,
        timed.accesses,
        timed.digest,
    );
    eprintln!(
        "estimate fidelity over {} Phase-II points: median latency error {:.3}%, Kendall tau \
         {:.4}; {} set-up samples",
        timed.fidelity.points,
        timed.fidelity.latency_err_pct,
        timed.fidelity.rank_tau,
        timed.setup_s.len()
    );
    print_table("end-to-end", &e2e);

    let mut rec = Recorder::default();
    let layers = if args.trace {
        let layers =
            traced::run(&run, &mut rec, &timed.report, work_dir).map_err(|e| e.to_string())?;
        attempted += 1;
        if layers.digest != timed.digest {
            failed += 1;
            eprintln!(
                "mce-perf: traced pass result_digest {:016x} differs from the timed pass",
                layers.digest
            );
        }
        let metrics = layers.metrics(stats::median(&timed.explore_s));
        print_table("per-layer", &metrics);
        print_self_times(&rec, layers.pipeline_s);
        Some(metrics)
    } else {
        None
    };
    if let Some(path) = &args.trace_out {
        std::fs::write(path, rec.chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    eprintln!(
        "error_rate {} ({failed} of {attempted} wrong)",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    println!(
        "{}",
        result_json(
            correct,
            attempted,
            failed,
            layers.as_deref().unwrap_or(&e2e)
        )
    );
    Ok(correct)
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title:<34} {:>16}  unit", "value");
    for m in metrics {
        eprintln!("{:<34} {:>16.6}  {}", m.name, m.value, m.unit);
    }
}

fn print_self_times(rec: &Recorder, pipeline_s: f64) {
    eprintln!(
        "{:<30} {:>6} {:>12} {:>12} {:>9}",
        "layer (run)", "calls", "total ms", "self ms", "self %"
    );
    for row in rec.self_times() {
        let pipeline = row.run == traced::PIPELINE;
        let run = if pipeline { "pipeline" } else { "probe" };
        eprintln!(
            "{:<30} {:>6} {:>12.3} {:>12.3} {:>9}",
            format!("{} ({run})", row.name),
            row.calls,
            row.total_us / 1e3,
            row.self_us / 1e3,
            if pipeline {
                format!("{:.1}", row.self_us / 1e4 / pipeline_s)
            } else {
                "-".to_owned()
            },
        );
    }
}

/// The machine-readable result line.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "vocoder-full",
            "--seed",
            "3",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "vocoder-full");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 7, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "vocoder-full", "--trace", "2"],
            &["--workload", "vocoder-full", "--seconds", "0"],
            &["--workload", "vocoder-full", "--expect-digest", "xyz"],
            &["--workload", "vocoder-full", "--bogus"],
            &["--workload"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_json_parses_with_every_field() {
        let line = result_json(true, 3, 0, &[Metric::new("explore_s", 1.25, "s")]);
        let doc = memory_conex::obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let m = doc.get("metrics").and_then(|m| m.get("explore_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
