//! # mce-faultinject — deterministic fault injection for crash-safety tests
//!
//! Test support for proving the exploration stack survives the faults it
//! claims to survive: worker panics, hard process deaths mid-phase, and
//! failed or corrupted file writes. Production builds never compile the
//! hooks — they sit behind the `fault-injection` cargo feature of the
//! crates that call them, which only test builds enable.
//!
//! ## Hooks
//!
//! * [`on_eval`] — called by the evaluation engine before every candidate
//!   simulation. Armed with [`Fault::PanicAtEval`] it panics at the Nth
//!   evaluation (optionally at every evaluation from the Nth on); armed
//!   with [`Fault::AbortAtEval`] it aborts the whole process — the
//!   closest in-process stand-in for a `SIGKILL` mid-run; armed with
//!   [`Fault::SigkillAtEval`] it delivers an actual `SIGKILL` to itself,
//!   the real thing for supervisor crash-detection tests.
//! * [`on_write`] — called by `mce_error::atomic_write` before touching
//!   the filesystem. Armed with [`Fault::FailWrite`] the Kth write
//!   returns an injected [`io::Error`].
//! * [`on_job`] — called by the `mce serve` job executor at each job
//!   pickup. Armed with [`Fault::DieAtJob`] it `SIGKILL`s the daemon at
//!   the Nth pickup (the journal-durability crash test); armed with
//!   [`Fault::StallJob`] it asks the executor to wedge the Nth job until
//!   its deadline cancels it (the retry-after-timeout test).
//!
//! ## Arming
//!
//! In-process tests call [`arm`]/[`disarm`] directly. Subprocess tests
//! (kill-and-resume) set the `MCE_FAULT` environment variable — a
//! comma-separated list of specs such as `panic_at_eval:40`,
//! `panic_at_eval:40+` (sticky), `abort_at_eval:40`, `fail_write:2`,
//! `sigkill_at_eval:40`, `die_at_job:1` or
//! `stall_job:1` — and the `mce` binary arms it at startup via
//! [`arm_from_env`].
//!
//! The crate also ships the file-corruption helpers ([`flip_bit`],
//! [`truncate_file`]) the property tests use to mangle spill and
//! checkpoint files on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the worker closure at the `nth` candidate evaluation
    /// (1-based). `sticky` keeps panicking at every evaluation from the
    /// `nth` on, so the serial retry fails too.
    PanicAtEval {
        /// 1-based evaluation index that triggers the panic.
        nth: u64,
        /// Panic at every evaluation from `nth` on, not just once.
        sticky: bool,
    },
    /// Abort the whole process at the `nth` candidate evaluation — an
    /// unclean death no destructor or catch can intercept.
    AbortAtEval {
        /// 1-based evaluation index that triggers the abort.
        nth: u64,
    },
    /// Fail the `nth` atomic file write with an injected I/O error.
    FailWrite {
        /// 1-based write index that fails.
        nth: u64,
    },
    /// Hang the `nth` candidate evaluation: the evaluation sleeps in a
    /// loop until the caller's cancellation check trips (the watchdog
    /// reclaiming the lane, or a global cancel). Proves `--candidate-
    /// timeout` degrades a wedged evaluation instead of wedging the run.
    HangAtEval {
        /// 1-based evaluation index that hangs.
        nth: u64,
    },
    /// Deliver a real `SIGKILL` to the current process at the `nth`
    /// candidate evaluation — unlike [`Fault::AbortAtEval`] (a libc
    /// `abort`, which still raises a catchable-in-principle signal and
    /// runs no atexit), this is the genuine uncatchable kill a resumed
    /// run must recover from.
    SigkillAtEval {
        /// 1-based evaluation index that kills the process.
        nth: u64,
    },
    /// Deliver a real `SIGKILL` to the current process at the `nth` job
    /// pickup ([`on_job`]) — the daemon dies with the job journaled as
    /// `running`, and the restarted daemon must resume it from its
    /// checkpoint.
    DieAtJob {
        /// 1-based job-pickup index that kills the process.
        nth: u64,
    },
    /// Wedge the `nth` job picked up by the executor: [`on_job`] reports
    /// "stall this job" once, and the executor spins on the job's cancel
    /// token instead of exploring — until the per-job deadline trips and
    /// the retry schedule takes over. One-shot, so the retried attempt
    /// runs clean.
    StallJob {
        /// 1-based job-pickup index that stalls.
        nth: u64,
    },
}

struct State {
    enabled: AtomicBool,
    faults: Mutex<Vec<Fault>>,
    evals: AtomicU64,
    writes: AtomicU64,
    jobs: AtomicU64,
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| State {
        enabled: AtomicBool::new(false),
        faults: Mutex::new(Vec::new()),
        evals: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        jobs: AtomicU64::new(0),
    })
}

/// Arms the given faults, replacing any previous arming and resetting the
/// evaluation and write counters.
pub fn arm(faults: Vec<Fault>) {
    let s = state();
    *s.faults.lock().unwrap_or_else(PoisonError::into_inner) = faults;
    s.evals.store(0, Ordering::SeqCst);
    s.writes.store(0, Ordering::SeqCst);
    s.jobs.store(0, Ordering::SeqCst);
    s.enabled.store(true, Ordering::SeqCst);
}

/// Disarms all faults and resets the counters. Hooks return to a single
/// relaxed atomic load.
pub fn disarm() {
    let s = state();
    s.enabled.store(false, Ordering::SeqCst);
    s.faults
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    s.evals.store(0, Ordering::SeqCst);
    s.writes.store(0, Ordering::SeqCst);
    s.jobs.store(0, Ordering::SeqCst);
}

/// Parses one `MCE_FAULT` spec (e.g. `panic_at_eval:40`,
/// `panic_at_eval:40+`, `abort_at_eval:7`, `fail_write:2`).
///
/// # Errors
///
/// Returns a message naming the malformed spec.
pub fn parse_spec(spec: &str) -> Result<Fault, String> {
    let (kind, arg) = spec
        .split_once(':')
        .ok_or_else(|| format!("fault spec `{spec}` is missing `:N`"))?;
    let (digits, sticky) = match arg.strip_suffix('+') {
        Some(d) => (d, true),
        None => (arg, false),
    };
    let nth: u64 = digits
        .parse()
        .map_err(|_| format!("fault spec `{spec}`: `{arg}` is not a count"))?;
    if nth == 0 {
        return Err(format!("fault spec `{spec}`: counts are 1-based"));
    }
    match kind {
        "panic_at_eval" => Ok(Fault::PanicAtEval { nth, sticky }),
        "abort_at_eval" if !sticky => Ok(Fault::AbortAtEval { nth }),
        "fail_write" if !sticky => Ok(Fault::FailWrite { nth }),
        "hang_at_eval" if !sticky => Ok(Fault::HangAtEval { nth }),
        "sigkill_at_eval" if !sticky => Ok(Fault::SigkillAtEval { nth }),
        "die_at_job" if !sticky => Ok(Fault::DieAtJob { nth }),
        "stall_job" if !sticky => Ok(Fault::StallJob { nth }),
        _ => Err(format!("unknown fault spec `{spec}`")),
    }
}

/// Reads `MCE_FAULT` (a comma-separated spec list) and arms it. Unset or
/// empty leaves everything disarmed. Returns what was armed.
///
/// # Errors
///
/// Returns a message naming the first malformed spec; nothing is armed.
pub fn arm_from_env() -> Result<Vec<Fault>, String> {
    let Ok(var) = std::env::var("MCE_FAULT") else {
        return Ok(Vec::new());
    };
    let specs = var.trim();
    if specs.is_empty() {
        return Ok(Vec::new());
    }
    let faults = specs
        .split(',')
        .map(|s| parse_spec(s.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    arm(faults.clone());
    Ok(faults)
}

/// The evaluation hook: counts one candidate evaluation and fires any
/// armed [`Fault::PanicAtEval`] / [`Fault::AbortAtEval`] /
/// [`Fault::HangAtEval`] whose turn it is. No-op (one relaxed load) when
/// disarmed.
///
/// An armed hang blocks **forever** through this entry point — the
/// un-reclaimable wedge a caller without cooperative cancellation gets.
/// Callers that can be reclaimed use [`on_eval_blocking`] instead.
pub fn on_eval() {
    on_eval_blocking(&|| false);
}

/// [`on_eval`] with a cooperative escape hatch for [`Fault::HangAtEval`]:
/// an injected hang sleeps in a loop until `cancelled` returns `true`
/// (all other faults behave exactly as in [`on_eval`]). Returns whether
/// a hang fired — the evaluation was reclaimed and should be treated as
/// timed out.
pub fn on_eval_blocking(cancelled: &(dyn Fn() -> bool + Sync)) -> bool {
    let s = state();
    if !s.enabled.load(Ordering::Relaxed) {
        return false;
    }
    let n = s.evals.fetch_add(1, Ordering::SeqCst) + 1;
    let faults = s
        .faults
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut hung = false;
    for fault in faults {
        match fault {
            Fault::PanicAtEval { nth, sticky } if n == nth || (sticky && n > nth) => {
                panic!("injected panic at evaluation {n}");
            }
            Fault::AbortAtEval { nth } if n == nth => {
                eprintln!("mce-faultinject: aborting process at evaluation {n}");
                std::process::abort();
            }
            Fault::HangAtEval { nth } if n == nth => {
                eprintln!("mce-faultinject: hanging evaluation {n}");
                while !cancelled() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                hung = true;
            }
            Fault::SigkillAtEval { nth } if n == nth => {
                eprintln!("mce-faultinject: SIGKILL to self at evaluation {n}");
                // No libc in the tree: ask the platform `kill` for the
                // one signal nothing can catch, then wait for it to land.
                let _ = std::process::Command::new("kill")
                    .args(["-9", &std::process::id().to_string()])
                    .status();
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
            _ => {}
        }
    }
    hung
}

/// The job hook: counts one job pickup and fires any armed
/// [`Fault::DieAtJob`] (a real `SIGKILL` to the current process) or
/// [`Fault::StallJob`] whose turn it is. Returns `true` when the picked
/// job should stall — the executor then spins on the job's cancel token
/// instead of running the exploration. No-op (one relaxed load, always
/// `false`) when disarmed.
pub fn on_job() -> bool {
    let s = state();
    if !s.enabled.load(Ordering::Relaxed) {
        return false;
    }
    let n = s.jobs.fetch_add(1, Ordering::SeqCst) + 1;
    let faults = s
        .faults
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut stall = false;
    for fault in faults {
        match fault {
            Fault::DieAtJob { nth } if n == nth => {
                eprintln!("mce-faultinject: SIGKILL to self at job pickup {n}");
                let _ = std::process::Command::new("kill")
                    .args(["-9", &std::process::id().to_string()])
                    .status();
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
            Fault::StallJob { nth } if n == nth => {
                eprintln!("mce-faultinject: stalling job pickup {n}");
                stall = true;
            }
            _ => {}
        }
    }
    stall
}

/// The write hook: counts one atomic file write and fails it when an
/// armed [`Fault::FailWrite`] says so. No-op when disarmed.
///
/// # Errors
///
/// Returns the injected error on the armed write index.
pub fn on_write(path: &Path) -> io::Result<()> {
    let s = state();
    if !s.enabled.load(Ordering::Relaxed) {
        return Ok(());
    }
    let n = s.writes.fetch_add(1, Ordering::SeqCst) + 1;
    let faults = s
        .faults
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for fault in faults {
        if let Fault::FailWrite { nth } = fault {
            if n == nth {
                return Err(io::Error::other(format!(
                    "injected failure of write {n} (`{}`)",
                    path.display()
                )));
            }
        }
    }
    Ok(())
}

/// Flips one bit of the file at `path` (byte `byte_index`, bit `bit`,
/// both wrapped into range), simulating on-disk corruption.
///
/// # Errors
///
/// Returns the underlying I/O error; an empty file is an error too.
pub fn flip_bit(path: &Path, byte_index: usize, bit: u8) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cannot flip a bit of an empty file",
        ));
    }
    let i = byte_index % bytes.len();
    bytes[i] ^= 1 << (bit % 8);
    std::fs::write(path, bytes)
}

/// Truncates the file at `path` to its first `keep` bytes (no-op when it
/// is already shorter), simulating a write cut short by a crash.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn truncate_file(path: &Path, keep: usize) -> io::Result<()> {
    let bytes = std::fs::read(path)?;
    let keep = keep.min(bytes.len());
    std::fs::write(path, &bytes[..keep])
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed state is process-global; tests that arm serialize here.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn specs_parse_and_reject() {
        assert_eq!(
            parse_spec("panic_at_eval:40"),
            Ok(Fault::PanicAtEval {
                nth: 40,
                sticky: false
            })
        );
        assert_eq!(
            parse_spec("panic_at_eval:40+"),
            Ok(Fault::PanicAtEval {
                nth: 40,
                sticky: true
            })
        );
        assert_eq!(
            parse_spec("abort_at_eval:7"),
            Ok(Fault::AbortAtEval { nth: 7 })
        );
        assert_eq!(parse_spec("fail_write:2"), Ok(Fault::FailWrite { nth: 2 }));
        assert_eq!(
            parse_spec("hang_at_eval:5"),
            Ok(Fault::HangAtEval { nth: 5 })
        );
        assert_eq!(
            parse_spec("sigkill_at_eval:9"),
            Ok(Fault::SigkillAtEval { nth: 9 })
        );
        assert_eq!(parse_spec("die_at_job:1"), Ok(Fault::DieAtJob { nth: 1 }));
        assert_eq!(parse_spec("stall_job:2"), Ok(Fault::StallJob { nth: 2 }));
        for bad in [
            "panic_at_eval",
            "panic_at_eval:x",
            "frobnicate:1",
            "fail_write:0",
            "abort_at_eval:1+",
            "hang_at_eval:3+",
            "sigkill_at_eval:2+",
            "stall_heartbeat:0",
            "stall_heartbeat:3",
            "die_at_job:1+",
            "stall_job:0",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stalled_job_fires_at_the_nth_pickup_only() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(vec![Fault::StallJob { nth: 2 }]);
        assert!(!on_job(), "first pickup runs");
        assert!(on_job(), "second pickup stalls");
        assert!(!on_job(), "one-shot: the retry runs clean");
        disarm();
        assert!(!on_job(), "disarmed: jobs always run");
    }

    #[test]
    fn hang_blocks_until_the_check_trips() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(vec![Fault::HangAtEval { nth: 2 }]);
        assert!(!on_eval_blocking(&|| false), "first evaluation is clean");
        // The second hangs; a check that trips after a few polls reclaims it.
        let polls = AtomicU64::new(0);
        let reclaimed = on_eval_blocking(&|| polls.fetch_add(1, Ordering::SeqCst) >= 3);
        assert!(reclaimed, "hang reports the reclaim");
        assert!(polls.load(Ordering::SeqCst) >= 3);
        assert!(!on_eval_blocking(&|| false), "one-shot: the third is clean");
        disarm();
    }

    #[test]
    fn panic_fires_at_the_nth_eval_only() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(vec![Fault::PanicAtEval {
            nth: 3,
            sticky: false,
        }]);
        on_eval();
        on_eval();
        let caught = std::panic::catch_unwind(on_eval);
        assert!(caught.is_err(), "third evaluation panics");
        on_eval(); // one-shot: the fourth is clean
        disarm();
        on_eval(); // disarmed: clean
    }

    #[test]
    fn sticky_panic_keeps_firing() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(vec![Fault::PanicAtEval {
            nth: 1,
            sticky: true,
        }]);
        assert!(std::panic::catch_unwind(on_eval).is_err());
        assert!(std::panic::catch_unwind(on_eval).is_err());
        disarm();
    }

    #[test]
    fn write_failure_hits_the_kth_write() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        arm(vec![Fault::FailWrite { nth: 2 }]);
        let p = Path::new("ignored");
        assert!(on_write(p).is_ok());
        assert!(on_write(p).is_err(), "second write fails");
        assert!(on_write(p).is_ok());
        disarm();
        assert!(on_write(p).is_ok());
    }

    #[test]
    fn corruption_helpers_mutate_files() {
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let path = std::env::temp_dir().join(format!("mce_fi_{}.bin", std::process::id()));
        std::fs::write(&path, [0u8, 0, 0, 0]).unwrap();
        flip_bit(&path, 1, 3).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0u8, 8, 0, 0]);
        truncate_file(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 2);
        truncate_file(&path, 100).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            2,
            "longer keep is a no-op"
        );
        std::fs::remove_file(&path).ok();
    }
}
