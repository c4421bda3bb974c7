//! Minimal deterministic parallel map over std scoped threads.
//!
//! Both exploration stages replay many independent candidates: APEX fully
//! simulates its memory architectures, ConEx estimates and simulates
//! thousands of connectivity pairings. This helper fans them out across
//! threads while preserving input order, so parallel and serial runs
//! produce identical results.
//!
//! ## Groups
//!
//! The mapped closure takes a *group*: a slice of consecutive items,
//! which the replay stages step in lockstep
//! ([`replay_group`](crate::replay::replay_group)). The partition depends
//! only on the item count, the thread count and the caller's group limit:
//! at most `max_group` items per group, sizes that differ by at most one,
//! and — with more than one thread — a group count that is a multiple of
//! the thread count wherever the limit allows, so equal-cost groups leave
//! no worker idle at the end. Workers pull groups from a shared atomic
//! cursor, which keeps them busy even when per-group cost varies.
//! Progress ticks and worker-lane item counts count items, not groups.
//!
//! ## Panic isolation
//!
//! A panicking worker closure does not poison the region: every group
//! runs under `catch_unwind`, a worker that catches a panic stops
//! claiming groups (its remaining share drains to the surviving workers),
//! and after the scope joins, every unfilled group — the panicked groups
//! plus anything left unclaimed when workers died — runs serially, still
//! under `catch_unwind`. Every group gets up to two attempts: a group
//! that panicked in the parallel pass is retried once, and an unclaimed
//! group whose first serial attempt panics is attempted once more. Only a
//! group that fails twice surfaces, as [`MceError::WorkerPanic`] from
//! [`try_par_map_named`], counting the items it held. Caught panics are
//! tallied on the `par.panics` counter and a degraded parallel region
//! bumps `par.degraded_regions`; clean regions touch neither, so
//! fault-free runs report identical counters with or without this layer.

use mce_error::MceError;
use mce_obs as obs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution record, gathered while the scope runs and emitted
/// as worker-lane events only after all workers have joined, so lane
/// events always appear in worker order.
struct LaneStats {
    start_us: u64,
    end_us: u64,
    busy_us: u64,
    items: u64,
}

/// Renders a panic payload for diagnostics (payloads are `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Maps `f` over consecutive groups of at most `max_group` items, using
/// up to `threads` OS threads (0 = one per available core), and returns
/// one output per item, in input order — equal to the serial
/// `items.chunks(k).flat_map(f).collect()` for any group size `k`; only
/// the wall-clock time differs. `f` must return one output per item of
/// its group, in order.
///
/// `name` labels the region for observability: when a `mce-obs` sink is
/// installed, the region emits rate-limited progress ticks and one
/// worker-lane span per thread (lanes are 1-based; the serial fallback
/// emits progress only). When tracing is disabled the extra cost is one
/// relaxed atomic load up front.
///
/// Worker panics are caught per group; see the [module docs](self) for
/// the partition, retry and degradation semantics.
///
/// # Errors
///
/// Returns [`MceError::WorkerPanic`] when a group's closure panics in the
/// parallel pass *and* in its serial retry.
pub fn try_par_map_named<T, R, F>(
    name: &'static str,
    items: &[T],
    threads: usize,
    max_group: usize,
    f: F,
) -> Result<Vec<R>, MceError>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let threads = effective_threads(threads, items.len());
    let groups = partition(items.len(), threads, max_group);
    let run = |g: usize| {
        let group = &items[groups[g].clone()];
        catch_unwind(AssertUnwindSafe(|| {
            let out = f(group);
            assert_eq!(out.len(), group.len(), "one output per group item");
            out
        }))
    };
    let tracing = obs::tracing_enabled();
    let total = items.len() as u64;
    // ~50 ticks per region regardless of size keeps progress readable and
    // the event stream small; a tick fires when a group crosses a step.
    let step = (items.len() / 50).max(1) as u64;
    let tick = |done: u64, n: u64| {
        if tracing && ((done - n) / step != done / step || done == total) {
            obs::progress(name, done, total);
        }
    };
    let mut slots: Vec<Option<Vec<R>>> = (0..groups.len()).map(|_| None).collect();
    if threads <= 1 || groups.len() <= 1 {
        let mut failed_once: Vec<(usize, String)> = Vec::new();
        let mut done = 0u64;
        for (g, slot) in slots.iter_mut().enumerate() {
            match run(g) {
                Ok(r) => *slot = Some(r),
                Err(p) => failed_once.push((g, panic_message(p.as_ref()))),
            }
            let n = groups[g].len() as u64;
            done += n;
            tick(done, n);
        }
        return finalize(name, &groups, slots, run, false, failed_once);
    }
    let mut lanes: Vec<Option<LaneStats>> = (0..threads).map(|_| None).collect();
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    {
        // One mutex per output slot over disjoint mutable borrows: the
        // atomic cursor hands each group to exactly one worker, so every
        // lock is uncontended — it only exists to satisfy the borrow
        // checker without `unsafe` (which this crate forbids).
        let cells: Vec<Mutex<&mut Option<Vec<R>>>> = slots.iter_mut().map(Mutex::new).collect();
        let lane_cells: Vec<Mutex<&mut Option<LaneStats>>> =
            lanes.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (run, tick, groups) = (&run, &tick, &groups);
                let (next, done, cells, lane_cells, failures) =
                    (&next, &done, &cells, &lane_cells, &failures);
                scope.spawn(move || {
                    let start_us = if tracing { obs::now_us() } else { 0 };
                    let mut busy_us = 0u64;
                    let mut n_items = 0u64;
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= groups.len() {
                            break;
                        }
                        let t0 = tracing.then(Instant::now);
                        let result = run(g);
                        if let Some(t0) = t0 {
                            busy_us += t0.elapsed().as_micros() as u64;
                        }
                        match result {
                            Ok(r) => {
                                **cells[g].lock().expect("slot mutex never poisoned") = Some(r);
                            }
                            Err(p) => {
                                failures
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .push((g, panic_message(p.as_ref())));
                                // This worker dies; its unclaimed share
                                // drains to the survivors (or to the
                                // serial retry pass when none survive).
                                break;
                            }
                        }
                        let n = groups[g].len();
                        n_items += n as u64;
                        let d = done.fetch_add(n, Ordering::Relaxed) + n;
                        tick(d as u64, n as u64);
                    }
                    if tracing {
                        let end_us = obs::now_us();
                        **lane_cells[w].lock().expect("lane mutex never poisoned") =
                            Some(LaneStats {
                                start_us,
                                end_us,
                                busy_us,
                                items: n_items,
                            });
                    }
                });
            }
        });
    }
    if tracing {
        for (w, lane) in lanes.iter().enumerate() {
            if let Some(stats) = lane {
                let dur = stats.end_us.saturating_sub(stats.start_us);
                obs::worker_span(
                    name,
                    (w + 1) as u32,
                    stats.start_us,
                    dur,
                    stats.busy_us,
                    stats.items,
                );
                // Per-worker occupancy distributions: how long each lane
                // ran and how much of that was inside the mapped closure.
                obs::histogram_record("par.worker_span_us", dur);
                obs::histogram_record("par.worker_busy_us", stats.busy_us);
                // Occupancy ratio (busy/span, percent) feeds the live
                // wall-channel series behind `mce top`'s worker view.
                if let Some(pct) = stats.busy_us.saturating_mul(100).checked_div(dur) {
                    obs::histogram_record("par.worker_occupancy_pct", pct.min(100));
                }
            }
        }
    }
    let mut caught = failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    caught.sort_unstable_by_key(|(g, _)| *g);
    finalize(name, &groups, slots, run, true, caught)
}

/// The post-join recovery pass: runs every unfilled group serially under
/// `catch_unwind`, giving each group up to two attempts total (groups in
/// `failed_once` — sorted, with their panic messages — already spent one
/// in the first pass), tallies the panic counters, and either flattens
/// the completed groups or reports the items of the twice-failed ones.
fn finalize<R>(
    name: &'static str,
    groups: &[Range<usize>],
    mut slots: Vec<Option<Vec<R>>>,
    run: impl Fn(usize) -> std::thread::Result<Vec<R>>,
    parallel: bool,
    failed_once: Vec<(usize, String)>,
) -> Result<Vec<R>, MceError> {
    let unfilled: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(g, s)| s.is_none().then_some(g))
        .collect();
    let mut panics = failed_once.len() as u64;
    if panics == 0 && unfilled.is_empty() {
        // The clean path: no counters, no retry — fault-free runs are
        // byte-identical to runs without this layer.
        return Ok(slots
            .into_iter()
            .flat_map(|s| s.expect("every group written exactly once"))
            .collect());
    }
    if parallel {
        obs::counter_add("par.degraded_regions", 1);
    }
    obs::info(|| {
        format!(
            "par: region `{name}`: {panics} worker panic(s); \
             retrying {} group(s) serially",
            unfilled.len()
        )
    });
    let mut first_panic = failed_once.first().map(|(_, msg)| msg.clone());
    let mut failed_items = 0usize;
    for g in unfilled {
        // A group that panicked in the first pass gets one more attempt;
        // an unclaimed group gets the same two as everything else.
        let attempts = if failed_once.binary_search_by_key(&g, |(g, _)| *g).is_ok() {
            1
        } else {
            2
        };
        for _ in 0..attempts {
            match run(g) {
                Ok(r) => {
                    slots[g] = Some(r);
                    break;
                }
                Err(p) => {
                    panics += 1;
                    first_panic.get_or_insert_with(|| panic_message(p.as_ref()));
                }
            }
        }
        if slots[g].is_none() {
            failed_items += groups[g].len();
        }
    }
    obs::counter_add("par.panics", panics);
    if failed_items > 0 {
        return Err(MceError::worker_panic(
            name,
            failed_items,
            first_panic.unwrap_or_else(|| "<unknown>".to_owned()),
        ));
    }
    Ok(slots
        .into_iter()
        .flat_map(|s| s.expect("every group retried successfully"))
        .collect())
}

/// Splits `len` items into consecutive groups for `threads` workers
/// (resolved by [`effective_threads`]): at most `max_group` items per
/// group (at least one), sizes that differ by at most one, and — with
/// more than one thread — a group count that is a multiple of `threads`
/// unless that would need empty groups.
fn partition(len: usize, threads: usize, max_group: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let mut count = len.div_ceil(max_group.max(1));
    if threads > 1 {
        count = count.next_multiple_of(threads);
    }
    let count = count.min(len);
    let (base, extra) = (len / count, len % count);
    (0..count)
        .map(|g| {
            let start = g * base + g.min(extra);
            start..start + base + usize::from(g < extra)
        })
        .collect()
}

/// Resolves the thread count: 0 means one per available core, and the
/// count never exceeds the number of items.
pub fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::MAX_GROUP;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    /// Lifts a per-item closure to a per-group one.
    fn each<T, R>(f: impl Fn(&T) -> R + Sync) -> impl Fn(&[T]) -> Vec<R> + Sync {
        move |group| group.iter().map(&f).collect()
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for max_group in [1, 3, MAX_GROUP] {
            let out = try_par_map_named("test", &items, 8, max_group, each(|x| x * 2)).unwrap();
            assert_eq!(out, expect, "groups of at most {max_group}");
        }
    }

    #[test]
    fn groups_are_consecutive_and_in_order() {
        // Each group sees a contiguous run of items; concatenating the
        // groups' outputs gives back the input, for any thread count.
        let items: Vec<usize> = (0..51).collect();
        for threads in [1, 2, 3] {
            let out = try_par_map_named("test", &items, threads, MAX_GROUP, |g: &[usize]| {
                assert!(g.windows(2).all(|w| w[1] == w[0] + 1), "{g:?}");
                g.to_vec()
            })
            .unwrap();
            assert_eq!(out, items, "threads={threads}");
        }
    }

    #[test]
    fn partition_rule() {
        for threads in [1, 2, 3, 0] {
            for len in 0..200 {
                let t = effective_threads(threads, len);
                let groups = partition(len, t, MAX_GROUP);
                // Consecutive, covering, non-empty.
                let mut next = 0;
                for g in &groups {
                    assert_eq!(g.start, next, "len={len} threads={threads}");
                    assert!(!g.is_empty() && g.len() <= MAX_GROUP, "{g:?}");
                    next = g.end;
                }
                assert_eq!(next, len);
                // Balanced: sizes differ by at most one.
                let sizes = groups.iter().map(Range::len);
                if let (Some(min), Some(max)) = (sizes.clone().min(), sizes.max()) {
                    assert!(max - min <= 1, "len={len} threads={threads}");
                }
                // Every worker gets the same number of groups.
                if t > 1 {
                    assert_eq!(groups.len() % t, 0, "len={len} threads={threads}");
                }
                // No more groups than the size limit needs (rounded up to
                // the thread count).
                let least = len.div_ceil(MAX_GROUP);
                assert!(
                    groups.len() < least + t.max(1),
                    "len={len} threads={threads}"
                );
            }
        }
        // APEX's 51 candidates on two threads: eight groups, not the
        // seven plain chunks of 8 that leave one worker a group behind.
        let sizes: Vec<usize> = partition(51, 2, MAX_GROUP).iter().map(Range::len).collect();
        assert_eq!(sizes, [7, 7, 7, 6, 6, 6, 6, 6]);
        // A group limit of one (the watchdog's) is one item per group.
        assert!(partition(5, 2, 1).iter().all(|g| g.len() == 1));
        assert_eq!(partition(5, 2, 1).len(), 5);
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(
            try_par_map_named("test", &items, 1, MAX_GROUP, each(|x| x + 1)).unwrap(),
            try_par_map_named("test", &items, 4, MAX_GROUP, each(|x| x + 1)).unwrap()
        );
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicU32::new(0);
        let items: Vec<u32> = (0..500).collect();
        try_par_map_named(
            "test",
            &items,
            6,
            MAX_GROUP,
            each(|_| counter.fetch_add(1, Ordering::Relaxed)),
        )
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(
            try_par_map_named("test", &empty, 4, MAX_GROUP, each(|x| *x))
                .unwrap()
                .is_empty()
        );
        assert_eq!(
            try_par_map_named("test", &[7u32], 4, MAX_GROUP, each(|x| *x)).unwrap(),
            vec![7]
        );
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different cost still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = try_par_map_named(
            "test",
            &items,
            4,
            MAX_GROUP,
            each(|&x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                x
            }),
        )
        .unwrap();
        assert_eq!(out, items);
    }

    #[test]
    fn named_region_emits_worker_lanes_and_progress() {
        // The only test in this crate installing the process-global
        // recorder; regions of tests running alongside may still emit into
        // it, so only this region's events count.
        let sink = std::sync::Arc::new(mce_obs::MemorySink::new());
        mce_obs::install(sink.clone());
        let items: Vec<u64> = (0..200).collect();
        let out = try_par_map_named("test.region", &items, 4, MAX_GROUP, each(|x| x + 1)).unwrap();
        mce_obs::uninstall();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(out, expect);
        let events = sink.take();
        let lane_items: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                mce_obs::EventKind::Worker {
                    name: "test.region",
                    items,
                    ..
                } => Some(items),
                _ => None,
            })
            .sum();
        assert_eq!(lane_items, 200, "worker lanes count items, not groups");
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                mce_obs::EventKind::Progress { name, done, total } if name == "test.region" && done == total
            )),
            "a final progress tick reports completion"
        );
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(8, 2), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn one_shot_panic_is_retried_and_recovers() {
        // Item 13 panics on its first attempt only; the serial retry of
        // its group succeeds, so the region completes with correct,
        // ordered output.
        for threads in [1, 4] {
            let tripped = AtomicBool::new(false);
            let items: Vec<u64> = (0..64).collect();
            let out = try_par_map_named(
                "test.flaky",
                &items,
                threads,
                MAX_GROUP,
                each(|&x| {
                    if x == 13 && !tripped.swap(true, Ordering::SeqCst) {
                        panic!("injected one-shot panic");
                    }
                    x * 3
                }),
            )
            .unwrap();
            let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sticky_panic_is_a_worker_panic_error() {
        for (threads, max_group) in [(1, 1), (4, 1), (1, MAX_GROUP), (4, MAX_GROUP)] {
            let items: Vec<u64> = (0..32).collect();
            let err = try_par_map_named(
                "test.sticky",
                &items,
                threads,
                max_group,
                each(|&x| {
                    if x == 5 {
                        panic!("always fails");
                    }
                    x
                }),
            )
            .unwrap_err();
            match err {
                MceError::WorkerPanic {
                    region,
                    failed_items,
                    first_panic,
                } => {
                    assert_eq!(region, "test.sticky");
                    // The failed group's items: 32 items make four
                    // groups of 8.
                    assert_eq!(failed_items, max_group);
                    assert!(first_panic.contains("always fails"), "{first_panic}");
                }
                other => panic!("expected WorkerPanic, got {other}"),
            }
        }
    }

    #[test]
    fn all_workers_dying_degrades_to_serial() {
        // Every item panics on its first attempt, so every worker dies on
        // its first claim and the bulk of the region runs in the serial
        // retry pass — which succeeds on the second attempt per item.
        let items: Vec<usize> = (0..40).collect();
        let attempts: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let out = try_par_map_named(
            "test.degrade",
            &items,
            4,
            1,
            each(|&i: &usize| {
                if attempts[i].fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt of {i} fails");
                }
                i * 2
            }),
        )
        .unwrap();
        let expect: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(out, expect);
        for a in &attempts {
            assert_eq!(a.load(Ordering::SeqCst), 2, "exactly one retry per item");
        }
    }
}
