//! Minimal deterministic parallel map over std scoped threads.
//!
//! Both exploration stages replay many independent candidates: APEX fully
//! simulates its memory architectures, ConEx estimates and simulates
//! thousands of connectivity pairings. This helper fans them out across
//! threads while preserving input order, so parallel and serial runs
//! produce identical results. Workers pull items from a shared atomic
//! cursor, which keeps them busy even when per-item cost varies.
//!
//! ## Panic isolation
//!
//! A panicking worker closure does not poison the region: every item runs
//! under `catch_unwind`, a worker that catches a panic stops claiming
//! items (its remaining share drains to the surviving workers), and after
//! the scope joins, every unfilled slot — the panicked items plus anything
//! left unclaimed when workers died — runs serially, still under
//! `catch_unwind`. Every item gets up to two attempts: a slot that
//! panicked in the parallel pass is retried once, and an unclaimed slot
//! whose first serial attempt panics is attempted once more. Only an item
//! that fails twice surfaces, as
//! [`MceError::WorkerPanic`] from [`try_par_map_named`]. Caught panics are
//! tallied on the `par.panics` counter and a degraded parallel region
//! bumps `par.degraded_regions`; clean regions touch neither, so
//! fault-free runs report identical counters with or without this layer.

use mce_error::MceError;
use mce_obs as obs;
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

/// Maps `f` over `items` using up to `threads` OS threads (0 = one per
/// available core), returning outputs in input order — equal to the
/// serial `items.iter().map(f).collect()`; only the wall-clock time
/// differs.
///
/// `name` labels the region for observability: when a `mce-obs` sink is
/// installed, the region emits rate-limited progress ticks and one
/// worker-lane span per thread (lanes are 1-based; the serial fallback
/// emits progress only). When tracing is disabled the extra cost is one
/// relaxed atomic load up front.
///
/// Worker panics are caught per item; see the [module docs](self) for the
/// retry and degradation semantics.
///
/// # Errors
///
/// Returns [`MceError::WorkerPanic`] when an item's closure panics in the
/// parallel pass *and* in its serial retry.
pub fn try_par_map_named<T, R, F>(
    name: &'static str,
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, MceError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads, items.len());
    let tracing = obs::tracing_enabled();
    let total = items.len() as u64;
    // ~50 ticks per region regardless of size keeps progress readable and
    // the event stream small.
    let step = (items.len() / 50).max(1) as u64;
    if threads <= 1 || items.len() <= 1 {
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut panics = 0u64;
        let mut first_panic: Option<String> = None;
        let mut failed_once: Vec<usize> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => slots[i] = Some(r),
                Err(p) => {
                    panics += 1;
                    failed_once.push(i);
                    first_panic.get_or_insert_with(|| panic_message(p.as_ref()));
                }
            }
            if tracing {
                let done = i as u64 + 1;
                if done.is_multiple_of(step) || done == total {
                    obs::progress(name, done, total);
                }
            }
        }
        return finalize(
            name,
            items,
            slots,
            &f,
            panics,
            first_panic,
            false,
            &failed_once,
        );
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut lanes: Vec<Option<LaneStats>> = (0..threads).map(|_| None).collect();
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    {
        // One mutex per output slot over disjoint mutable borrows: the
        // atomic cursor hands each index to exactly one worker, so every
        // lock is uncontended — it only exists to satisfy the borrow
        // checker without `unsafe` (which this crate forbids).
        let cells: Vec<Mutex<&mut Option<R>>> = slots.iter_mut().map(Mutex::new).collect();
        let lane_cells: Vec<Mutex<&mut Option<LaneStats>>> =
            lanes.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..threads {
                let f = &f;
                let next = &next;
                let done = &done;
                let cells = &cells;
                let lane_cells = &lane_cells;
                let failures = &failures;
                scope.spawn(move || {
                    let start_us = if tracing { obs::now_us() } else { 0 };
                    let mut busy_us = 0u64;
                    let mut n_items = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let t0 = tracing.then(Instant::now);
                        let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                        if let Some(t0) = t0 {
                            busy_us += t0.elapsed().as_micros() as u64;
                        }
                        match result {
                            Ok(r) => {
                                **cells[i].lock().expect("slot mutex never poisoned") = Some(r);
                            }
                            Err(p) => {
                                failures
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .push((i, panic_message(p.as_ref())));
                                // This worker dies; its unclaimed share
                                // drains to the survivors (or to the
                                // serial retry pass when none survive).
                                break;
                            }
                        }
                        n_items += 1;
                        if tracing {
                            let d = done.fetch_add(1, Ordering::Relaxed) as u64 + 1;
                            if d.is_multiple_of(step) || d == total {
                                obs::progress(name, d, total);
                            }
                        }
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
    caught.sort_unstable_by_key(|(i, _)| *i);
    let panics = caught.len() as u64;
    let first_panic = caught.first().map(|(_, msg)| msg.clone());
    let failed_once: Vec<usize> = caught.into_iter().map(|(i, _)| i).collect();
    finalize(
        name,
        items,
        slots,
        &f,
        panics,
        first_panic,
        true,
        &failed_once,
    )
}

/// The post-join recovery pass: runs every unfilled slot serially under
/// `catch_unwind`, giving each item up to two attempts total (slots in
/// `failed_once` — sorted — already spent one in the first pass), tallies
/// the panic counters, and either unwraps the completed slots or reports
/// the twice-failed items.
#[allow(clippy::too_many_arguments)]
fn finalize<T, R, F>(
    name: &'static str,
    items: &[T],
    mut slots: Vec<Option<R>>,
    f: &F,
    mut panics: u64,
    mut first_panic: Option<String>,
    parallel: bool,
    failed_once: &[usize],
) -> Result<Vec<R>, MceError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let unfilled: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    if panics == 0 && unfilled.is_empty() {
        // The clean path: no counters, no retry — fault-free runs are
        // byte-identical to runs without this layer.
        return Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot written exactly once"))
            .collect());
    }
    if parallel {
        obs::counter_add("par.degraded_regions", 1);
    }
    obs::info(|| {
        format!(
            "par: region `{name}`: {panics} worker panic(s); \
             retrying {} item(s) serially",
            unfilled.len()
        )
    });
    let mut failed_twice = 0usize;
    for i in unfilled {
        let attempt = || catch_unwind(AssertUnwindSafe(|| f(&items[i])));
        match attempt() {
            Ok(r) => slots[i] = Some(r),
            Err(p) => {
                panics += 1;
                first_panic.get_or_insert_with(|| panic_message(p.as_ref()));
                if failed_once.binary_search(&i).is_ok() {
                    // Second failure of an item that already panicked in
                    // the first pass.
                    failed_twice += 1;
                } else {
                    // An unclaimed slot: this was its first attempt, so it
                    // gets the same one-retry budget as everything else.
                    match attempt() {
                        Ok(r) => slots[i] = Some(r),
                        Err(p2) => {
                            panics += 1;
                            failed_twice += 1;
                            first_panic.get_or_insert_with(|| panic_message(p2.as_ref()));
                        }
                    }
                }
            }
        }
    }
    obs::counter_add("par.panics", panics);
    if failed_twice > 0 {
        return Err(MceError::worker_panic(
            name,
            failed_twice,
            first_panic.unwrap_or_else(|| "<unknown>".to_owned()),
        ));
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every slot retried successfully"))
        .collect())
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
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = try_par_map_named("test", &items, 8, |x| x * 2).unwrap();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(
            try_par_map_named("test", &items, 1, |x| x + 1).unwrap(),
            try_par_map_named("test", &items, 4, |x| x + 1).unwrap()
        );
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicU32::new(0);
        let items: Vec<u32> = (0..500).collect();
        try_par_map_named("test", &items, 6, |_| {
            counter.fetch_add(1, Ordering::Relaxed)
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(try_par_map_named("test", &empty, 4, |x| *x)
            .unwrap()
            .is_empty());
        assert_eq!(
            try_par_map_named("test", &[7u32], 4, |x| *x).unwrap(),
            vec![7]
        );
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different cost still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = try_par_map_named("test", &items, 4, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x
        })
        .unwrap();
        assert_eq!(out, items);
    }

    #[test]
    fn named_region_emits_worker_lanes_and_progress() {
        // The only test in this crate touching the process-global recorder,
        // so no cross-test serialization is needed here.
        let sink = std::sync::Arc::new(mce_obs::MemorySink::new());
        mce_obs::install(sink.clone());
        let items: Vec<u64> = (0..200).collect();
        let out = try_par_map_named("test.region", &items, 4, |x| x + 1).unwrap();
        mce_obs::uninstall();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(out, expect);
        let events = sink.take();
        let lane_items: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                mce_obs::EventKind::Worker { items, .. } => Some(items),
                _ => None,
            })
            .sum();
        assert_eq!(lane_items, 200, "worker lanes account for every item");
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                mce_obs::EventKind::Progress { done, total, .. } if done == total
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
        // Item 13 panics on its first attempt only; the serial retry
        // succeeds, so the region completes with correct, ordered output.
        for threads in [1, 4] {
            let tripped = AtomicBool::new(false);
            let items: Vec<u64> = (0..64).collect();
            let out = try_par_map_named("test.flaky", &items, threads, |&x| {
                if x == 13 && !tripped.swap(true, Ordering::SeqCst) {
                    panic!("injected one-shot panic");
                }
                x * 3
            })
            .unwrap();
            let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sticky_panic_is_a_worker_panic_error() {
        for threads in [1, 4] {
            let items: Vec<u64> = (0..32).collect();
            let err = try_par_map_named("test.sticky", &items, threads, |&x| {
                if x == 5 {
                    panic!("always fails");
                }
                x
            })
            .unwrap_err();
            match err {
                MceError::WorkerPanic {
                    region,
                    failed_items,
                    first_panic,
                } => {
                    assert_eq!(region, "test.sticky");
                    assert_eq!(failed_items, 1);
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
        let out = try_par_map_named("test.degrade", &items, 4, |&i| {
            if attempts[i].fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt of {i} fails");
            }
            i * 2
        })
        .unwrap();
        let expect: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(out, expect);
        for a in &attempts {
            assert_eq!(a.load(Ordering::SeqCst), 2, "exactly one retry per item");
        }
    }
}
