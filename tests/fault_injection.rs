//! Fault-injection integration: every fault the `mce-faultinject`
//! harness can inject — worker panics (one-shot and sticky), a hard
//! process abort mid-run, failed file writes, and on-disk corruption of
//! spill and checkpoint files — must end in either a clean [`MceError`]
//! or a successful degraded/resumed run. Nothing here may panic the
//! caller or silently produce different results.
//!
//! `cargo test` enables the `fault-injection` feature of the whole stack
//! through the package's self-dev-dependency, so the hooks compiled into
//! the engine and `atomic_write` are live in this binary (and in the
//! `mce` binary the subprocess tests spawn).

use mce_faultinject as fi;
use memory_conex::appmodel::benchmarks;
use memory_conex::checkpoint::Checkpoint;
use memory_conex::conex::eval_cache::DEFAULT_CAPACITY;
use memory_conex::conex::{CanonKey, EvalCache, FrontierSnapshot, Metrics};
use memory_conex::obs;
use memory_conex::prelude::*;
use memory_conex::report::stable_view;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Armed faults and the observability recorder are process-global;
/// every test that touches either serializes here.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_fitest_{}_{name}", std::process::id()))
}

#[test]
fn one_shot_worker_panic_degrades_and_recovers() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fi::disarm();
    obs::uninstall();
    let session = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .threads(4);
    let clean = session.run().expect("clean run succeeds");

    // The 5th candidate evaluation panics once; the serial retry must
    // recover and the results must be bit-identical to the clean run.
    let sink = Arc::new(obs::MemorySink::new());
    obs::install(sink.clone());
    fi::arm(vec![fi::Fault::PanicAtEval {
        nth: 5,
        sticky: false,
    }]);
    let faulted = session.run();
    fi::disarm();
    obs::uninstall();
    let faulted = faulted.expect("a one-shot panic degrades, not fails");

    assert_eq!(clean.apex, faulted.apex);
    assert_eq!(clean.conex.estimated(), faulted.conex.estimated());
    assert_eq!(clean.conex.simulated(), faulted.conex.simulated());
    assert_eq!(clean.cache_stats, faulted.cache_stats);
    // The degradation is visible in the counters, not the results.
    let events = sink.take();
    let final_counter = |name: &str| -> u64 {
        events
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                obs::EventKind::Counter { name: n, value } if *n == name => Some(*value),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no counter `{name}` recorded"))
    };
    assert_eq!(final_counter("par.panics"), 1);
    assert_eq!(final_counter("par.degraded_regions"), 1);
}

#[test]
fn sticky_worker_panic_is_a_clean_worker_panic_error() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::uninstall();
    fi::arm(vec![fi::Fault::PanicAtEval {
        nth: 1,
        sticky: true,
    }]);
    let result = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .threads(4)
        .run();
    fi::disarm();
    match result.unwrap_err() {
        MceError::WorkerPanic {
            region,
            failed_items,
            first_panic,
        } => {
            assert!(region.starts_with("conex."), "region `{region}`");
            assert!(failed_items >= 1);
            assert!(first_panic.contains("injected panic"), "{first_panic}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn failed_atomic_write_is_clean_and_leaves_the_target_untouched() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let path = tmp("failwrite.txt");
    std::fs::write(&path, b"precious").unwrap();
    fi::arm(vec![fi::Fault::FailWrite { nth: 1 }]);
    let err = mce_error::atomic_write(&path, b"replacement");
    fi::disarm();
    let err = err.unwrap_err();
    assert!(matches!(err, MceError::Io { .. }), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"precious",
        "a failed write never touches the destination"
    );
    let tmp_sibling = path.with_file_name("failwrite.txt.tmp");
    assert!(!tmp_sibling.exists(), "no temp file left behind");
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_checkpoint_write_fails_the_run_cleanly() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::uninstall();
    let ck = tmp("ck_failwrite.json");
    std::fs::remove_file(&ck).ok();
    fi::arm(vec![fi::Fault::FailWrite { nth: 1 }]);
    let result = ExplorationSession::new(benchmarks::vocoder())
        .preset(Preset::Fast)
        .checkpoint_file(&ck)
        .run();
    fi::disarm();
    let err = result.unwrap_err();
    assert!(matches!(err, MceError::Io { .. }), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    assert!(!ck.exists(), "the failed checkpoint never materializes");
}

/// A small deterministic fixture cache whose spill the corruption sweeps
/// mangle.
fn fixture_cache() -> EvalCache {
    let cache = EvalCache::new();
    for i in 0..8u64 {
        cache.insert(
            CanonKey {
                hi: 0x1000 + i,
                lo: i.wrapping_mul(0x9e37_79b9),
            },
            Metrics {
                cost_gates: 10_000 + 137 * i,
                latency_cycles: 1.25 + i as f64,
                energy_nj: 0.125 * (i + 1) as f64,
            },
        );
    }
    cache
}

#[test]
fn corrupted_spill_files_never_panic_and_never_invent_entries() {
    // Takes the lock because the salvage accounting below reads the
    // process-global counter registry.
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::uninstall();
    obs::install(Arc::new(obs::NullSink::new()));
    let path = tmp("spill_corrupt.json");
    let cache = fixture_cache();
    cache.save(&path).unwrap();
    let originals = cache.entries_fifo();
    let pristine = std::fs::read(&path).unwrap();

    let salvage_counter = || {
        obs::counters_snapshot()
            .into_iter()
            .find(|(n, _)| *n == "eval_cache.salvage_dropped")
            .map_or(0, |(_, v)| v)
    };

    // Whatever the damage, loading either fails with a clean error or
    // salvages a subset of the original entries — bit-exact, no more —
    // and the `eval_cache.salvage_dropped` counter advances by exactly
    // the number of corrupt entries dropped.
    let check_load = |what: &str| {
        let counted_before = salvage_counter();
        match EvalCache::load_salvage(&path, DEFAULT_CAPACITY) {
            Err(e) => {
                let _ = e.to_string();
                assert_eq!(
                    salvage_counter(),
                    counted_before,
                    "{what}: a failed load must not count salvaged entries"
                );
            }
            Ok((salvaged, dropped)) => {
                let entries = salvaged.entries_fifo();
                assert!(
                    entries.len() + dropped <= originals.len() + 1,
                    "{what}: salvage grew the cache"
                );
                for (k, m) in &entries {
                    assert!(
                        originals.iter().any(|(ok, om)| ok == k && om == m),
                        "{what}: salvaged an entry that was never saved"
                    );
                }
                assert_eq!(
                    salvage_counter() - counted_before,
                    dropped as u64,
                    "{what}: salvage_dropped must match the corrupt-entry count exactly"
                );
            }
        }
    };

    // A write cut short at every possible byte boundary.
    for keep in 0..pristine.len() {
        std::fs::write(&path, &pristine).unwrap();
        fi::truncate_file(&path, keep).unwrap();
        check_load(&format!("truncated to {keep}"));
    }
    // Single bit flips across the file.
    for byte in (0..pristine.len()).step_by(3) {
        for bit in [0, 3, 7] {
            std::fs::write(&path, &pristine).unwrap();
            fi::flip_bit(&path, byte, bit).unwrap();
            check_load(&format!("bit {bit} of byte {byte} flipped"));
        }
    }
    obs::uninstall();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_checkpoint_files_never_panic_and_never_resume() {
    let path = tmp("ck_corrupt.json");
    let ck = Checkpoint {
        workload_digest: "00112233445566778899aabbccddeeff".to_owned(),
        config_digest: "ffeeddccbbaa99887766554433221100".to_owned(),
        archs_done: 2,
        counters: vec![("conex.estimate_jobs".to_owned(), 321)],
        gauges: vec![("conex.frontier_size_max".to_owned(), 9)],
        cache_stats: CacheStats {
            hits: 4,
            misses: 8,
            inserts: 8,
            evictions: 0,
        },
        frontier: vec![FrontierSnapshot {
            archs_explored: 1,
            estimated: 40,
            frontier_size: 5,
            hypervolume: 0.375,
        }],
        entries: fixture_cache().entries_fifo(),
    };
    ck.save(&path).unwrap();
    assert_eq!(Checkpoint::load(&path).unwrap(), ck, "pristine file loads");
    let pristine = std::fs::read(&path).unwrap();

    // Any damage anywhere — header or body — must surface as a clean
    // error: the digest line covers every body byte.
    for keep in 0..pristine.len() {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, MceError::Checkpoint { .. } | MceError::Io { .. }),
            "truncation to {keep}: {err}"
        );
    }
    for byte in (0..pristine.len()).step_by(2) {
        for bit in [0, 5] {
            std::fs::write(&path, &pristine).unwrap();
            fi::flip_bit(&path, byte, bit).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, MceError::Checkpoint { .. } | MceError::Io { .. }),
                "bit {bit} of byte {byte} flipped: {err}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The headline end-to-end proof: a run of the real `mce` binary is
/// killed by an injected `abort()` (the in-process stand-in for a
/// `SIGKILL`), then rerun with the same command line. The rerun resumes
/// from the checkpoint and its report equals an uninterrupted run's
/// outside the `wall_clock` section.
#[test]
fn aborted_cli_run_resumes_bit_identically() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let dir = tmp("cli_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let clean_report = dir.join("clean.json");
    let resumed_report = dir.join("resumed.json");
    let ck = dir.join("ck.json");
    let run = |fault: Option<String>, report: &PathBuf, checkpointed: bool| {
        let mut cmd = std::process::Command::new(bin);
        cmd.args(["explore", "vocoder", "--preset", "fast", "--report-out"])
            .arg(report)
            .args(["--out-dir"])
            .arg(dir.join("experiments"))
            .env_remove("MCE_FAULT");
        if checkpointed {
            cmd.arg("--checkpoint")
                .arg(&ck)
                .args(["--checkpoint-every", "1"]);
        }
        if let Some(spec) = fault {
            cmd.env("MCE_FAULT", spec);
        }
        cmd.output().expect("spawning the mce binary")
    };

    // 1. An uninterrupted run, to learn the eval count and the expected
    //    report bytes.
    let clean = run(None, &clean_report, false);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    let report_text = std::fs::read_to_string(&clean_report).unwrap();
    let doc = obs::json::parse(&report_text).expect("report is valid JSON");
    let estimate_jobs = doc
        .get("counters")
        .and_then(|c| c.get("conex.estimate_jobs"))
        .and_then(obs::json::Value::as_u64)
        .expect("report counts estimate jobs");

    // 2. Kill the process at the first Phase-II evaluation: Phase I is
    //    complete and checkpointed, the run is not.
    let faulted = run(
        Some(format!("abort_at_eval:{}", estimate_jobs + 1)),
        &resumed_report,
        true,
    );
    assert!(!faulted.status.success(), "the abort must kill the run");
    let stderr = String::from_utf8_lossy(&faulted.stderr);
    assert!(stderr.contains("aborting process"), "{stderr}");
    assert!(ck.exists(), "the killed run left its checkpoint behind");
    assert!(
        !resumed_report.exists(),
        "the killed run never wrote a report"
    );

    // 3. The same command line again, no fault: resume and finish.
    let resumed = run(None, &resumed_report, true);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
    assert!(!ck.exists(), "a finished run consumes its checkpoint");

    // 4. Identical outside the wall-clock section, which also records
    //    how each run executed.
    let resumed_text = std::fs::read_to_string(&resumed_report).unwrap();
    assert_eq!(
        stable_view(&report_text).unwrap(),
        stable_view(&resumed_text).unwrap(),
        "a resumed run must reproduce the uninterrupted report"
    );
    assert!(report_text.contains("\"resumed\": false"));
    assert!(resumed_text.contains("\"resumed\": true"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed `MCE_FAULT` spec is a rejected argument, not a crash or a
/// silently-ignored knob: the binary exits nonzero with the typed
/// `invalid argument` rendering and the usage text.
#[test]
fn malformed_fault_spec_is_a_typed_cli_error() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    for spec in [
        "bogus",
        "abort_at_eval",
        "abort_at_eval:x",
        "panic_at_eval:",
    ] {
        let out = std::process::Command::new(bin)
            .args(["explore", "vocoder", "--preset", "fast"])
            .env("MCE_FAULT", spec)
            .output()
            .expect("spawning the mce binary");
        assert!(
            !out.status.success(),
            "MCE_FAULT={spec} must be rejected, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid argument: MCE_FAULT"),
            "MCE_FAULT={spec}: expected a typed InvalidArg, got: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "MCE_FAULT={spec}: the rejection must carry the usage hint: {stderr}"
        );
    }
}

/// The `cache-check` subcommand end to end: valid, corrupt, repaired.
#[test]
fn cache_check_cli_round_trip() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_mce") else {
        eprintln!("skipping: mce binary path not provided by the harness");
        return;
    };
    let path = tmp("cli_spill.json");
    fixture_cache().save(&path).unwrap();
    let run = |extra: &[&str]| {
        std::process::Command::new(bin)
            .arg("cache-check")
            .arg(&path)
            .args(extra)
            .env_remove("MCE_FAULT")
            .output()
            .expect("spawning the mce binary")
    };
    assert!(run(&[]).status.success(), "pristine spill validates");

    // Flip one bit in the middle of the file: detected, repairable.
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    fi::flip_bit(&path, len / 2, 2).unwrap();
    let bad = run(&[]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "corruption without --repair must fail with exit 1"
    );
    // The exit-code contract: a repair that dropped entries exits 2, so
    // CI can tell "was clean" (0) from "had to repair" (2).
    let repaired = run(&["--repair"]);
    assert_eq!(
        repaired.status.code(),
        Some(2),
        "repair that dropped entries must exit 2: {}",
        String::from_utf8_lossy(&repaired.stderr)
    );
    let clean = run(&[]);
    assert_eq!(clean.status.code(), Some(0), "repaired spill validates");
    std::fs::remove_file(&path).ok();
}
