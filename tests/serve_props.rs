//! Property tests for the serve job journal (`jobs.jsonl`): a
//! digest-framed write-ahead log. Replay must treat any damage —
//! truncation at every byte boundary, single bit flips — with
//! tail-drop semantics: the surviving events are always an exact
//! prefix of what was journaled, damaged records and everything after
//! them are dropped, and corruption never mis-parses into a different
//! job spec or lifecycle event, and never errors the daemon out. The
//! retry backoff schedule is pinned here too.

use memory_conex::appmodel::benchmarks;
use memory_conex::serve::journal::fold;
use memory_conex::serve::{backoff_after, replay, JobEvent, JobJournal, JobSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("mce_svprops_{}_{case}_{name}", std::process::id()))
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        workload: benchmarks::vocoder(),
        preset: "fast".to_owned(),
        threads: (seed % 3) as usize,
        max_evals: seed % 1000,
        max_archs: (seed % 50) as usize,
        deadline_ms: seed % 10_000,
        retry_budget: (seed % 4) as u32,
    }
}

/// A plausible journal drawn from `seed`: each job runs one of several
/// complete lifecycles (clean finish, deadline-retry into timeout,
/// crash recovery, cancel, terminal failure).
fn build_events(jobs: u64, seed: u64) -> Vec<JobEvent> {
    let mut events = Vec::new();
    let mut s = seed;
    for id in 1..=jobs {
        events.push(JobEvent::Submitted { id, spec: spec(s) });
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pid = 100 + id as u32;
        match (s >> 33) % 5 {
            0 => {
                events.push(JobEvent::Started {
                    id,
                    attempt: 1,
                    pid,
                });
                events.push(JobEvent::Done { id });
            }
            1 => {
                events.push(JobEvent::Started {
                    id,
                    attempt: 1,
                    pid,
                });
                events.push(JobEvent::Retrying {
                    id,
                    reason: "deadline exceeded".to_owned(),
                });
                events.push(JobEvent::Started {
                    id,
                    attempt: 2,
                    pid,
                });
                events.push(JobEvent::TimedOut { id });
            }
            2 => {
                events.push(JobEvent::Started {
                    id,
                    attempt: 1,
                    pid,
                });
                events.push(JobEvent::Requeued { id });
            }
            3 => events.push(JobEvent::Canceled { id }),
            _ => {
                events.push(JobEvent::Started {
                    id,
                    attempt: 1,
                    pid,
                });
                events.push(JobEvent::Failed {
                    id,
                    error: "simulator error".to_owned(),
                });
            }
        }
    }
    events
}

/// Appends `events` through the real fsyncing journal handle and
/// returns the on-disk text.
fn journal_text(path: &PathBuf, events: &[JobEvent]) -> String {
    let journal = JobJournal::open(path).expect("journal opens");
    for event in events {
        journal.append(event).expect("append succeeds");
    }
    std::fs::read_to_string(path).expect("journal reads back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the journal at *any* byte boundary replays to an exact
    /// prefix of the journaled events — never an error, never a mangled
    /// record — and the folded job table is the fold of that prefix.
    #[test]
    fn truncated_journals_replay_to_an_exact_prefix(
        jobs in 1u64..3,
        seed in 0u64..1_000_000,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("trunc", case);
        let events = build_events(jobs, seed);
        let text = journal_text(&path, &events);
        let (replayed, dropped) = replay(&path).expect("pristine journal replays");
        prop_assert_eq!(&replayed, &events);
        prop_assert_eq!(dropped, 0);
        for keep in 0..text.len() {
            std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();
            let (replayed, _dropped) = replay(&path)
                .expect("truncation must tail-drop, not error the daemon out");
            prop_assert!(
                replayed.len() <= events.len(),
                "truncation to {keep} bytes invented events"
            );
            prop_assert_eq!(
                &replayed[..],
                &events[..replayed.len()],
                "truncation to {} bytes is not an exact prefix",
                keep
            );
            // The job table the daemon would rebuild is the fold of the
            // surviving prefix — total even over the damaged journal.
            let _ = fold(&replayed);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in the journal either tail-drops
    /// the damaged line (and everything after it) or — when the line
    /// still frames and digests identically, which a one-bit flip cannot
    /// arrange — reproduces the original event. Replayed events are
    /// always an exact prefix; no flip ever re-aims a job at a different
    /// spec or state.
    #[test]
    fn bit_flipped_journals_never_misparse(
        jobs in 1u64..3,
        seed in 0u64..1_000_000,
        bit in 0usize..8,
        stride in 1usize..7,
        case in 0u64..u64::MAX,
    ) {
        let path = tmp("flip", case);
        let events = build_events(jobs, seed);
        let text = journal_text(&path, &events);
        let bytes = text.as_bytes();
        for byte in (0..bytes.len()).step_by(stride) {
            let mut mangled = bytes.to_vec();
            mangled[byte] ^= 1 << bit;
            if String::from_utf8(mangled.clone()).is_err() {
                continue; // the flip broke UTF-8; replay reports an I/O error
            }
            std::fs::write(&path, &mangled).unwrap();
            let (replayed, _dropped) = replay(&path)
                .expect("a bit flip must tail-drop, not error the daemon out");
            prop_assert!(
                replayed.len() <= events.len(),
                "bit {bit} of byte {byte} invented events"
            );
            prop_assert_eq!(
                &replayed[..],
                &events[..replayed.len()],
                "bit {} of byte {} flipped into *different* events",
                bit,
                byte
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For *arbitrary* restart counts — including the full `u32` range,
    /// far past where `base << restarts` would overflow — the backoff is
    /// monotone non-decreasing, never exceeds the cap once past it, and
    /// never panics. This is the schedule the serve executor and client
    /// lean on after a failure.
    #[test]
    fn backoff_is_monotone_capped_and_overflow_safe(
        restarts in any::<u32>(),
        base_ms in 0u64..10_000,
        cap_ms in 0u64..60_000,
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = Duration::from_millis(cap_ms);
        let here = backoff_after(restarts, base, cap);
        prop_assert!(here <= cap, "backoff({restarts}) = {here:?} exceeds the cap");
        if base_ms == 0 {
            prop_assert_eq!(here, Duration::ZERO, "zero base must disable the delay");
        }
        if restarts == 0 {
            prop_assert_eq!(here, Duration::ZERO, "no delay before the first restart");
        }
        // Monotone: one more restart never shrinks the delay. Saturate at
        // u32::MAX so the property also pins the overflow boundary.
        let next = backoff_after(restarts.saturating_add(1), base, cap);
        prop_assert!(
            next >= here,
            "backoff({restarts}) = {here:?} > backoff({}) = {next:?}",
            restarts.saturating_add(1)
        );
        // Deep into the schedule the cap is exact, not just an upper
        // bound: 30 saturated doublings of even 1 ms exceed any cap the
        // generator can draw.
        if base_ms > 0 && restarts >= 32 {
            prop_assert_eq!(here, cap, "the tail of the schedule must sit at the cap");
        }
    }
}

/// The restart backoff schedule is fully deterministic: zero before the
/// first restart, then doubling from the base until the cap, where it
/// stays — including far past the shift-overflow range.
#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let base = Duration::from_millis(250);
    let cap = Duration::from_secs(5);
    let schedule: Vec<u64> = (0..10)
        .map(|r| backoff_after(r, base, cap).as_millis() as u64)
        .collect();
    assert_eq!(
        schedule,
        [0, 250, 500, 1000, 2000, 4000, 5000, 5000, 5000, 5000]
    );
    assert_eq!(backoff_after(u32::MAX, base, cap), cap, "no shift overflow");
    assert_eq!(
        backoff_after(3, Duration::ZERO, cap),
        Duration::ZERO,
        "a zero base disables the delay entirely"
    );
}
