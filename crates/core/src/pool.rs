//! Pipeline-level worker pool built on localsim's persistent
//! epoch-barrier pool.
//!
//! The pipelines contain stages made of *independent units* — leftover
//! components after shattering, selected loopholes in the easy sweep —
//! whose computations read only state no other unit writes. This module
//! runs such units across a worker pool and returns the results
//! **in unit-index order**, so callers can merge colors, ledgers, and
//! telemetry deterministically: the observable outcome is bit-identical
//! at every thread count (pinned by `tests/pipeline_parallel.rs`).
//!
//! Thread-count semantics mirror the executors (`localsim`): `0` resolves
//! to [`localsim::default_threads`] (the `LOCALSIM_THREADS` / `--threads`
//! default), `1` runs inline on the calling thread, `k ≥ 2` leases a
//! persistent [`localsim::WorkerPool`] of `k` slots — parked threads
//! reused across calls on the same pipeline thread, not respawned per
//! stage — whose workers pull unit indices from a shared counter
//! (dynamic scheduling — component sizes are heavy-tailed, so static
//! chunking would idle workers).
//!
//! With a [`MetricsHub`] attached the pool decomposes its wall-clock into
//! the quantities ROADMAP item 1 needs: per-worker busy/idle/merge lanes
//! (`MetricsHub::worker_lane`), worker wake-up latency (`pool.spawn_ns` —
//! time from epoch publish to each worker's first claim), and caller-side
//! result collection (`pool.merge_ns`). Steals are reported two ways:
//! cumulatively per lane, and per epoch in the
//! `pool.steals_per_epoch_sched` histogram (one observation per pool
//! call). Everything except the `_ns` timings, the lane table, and the
//! `_sched`-suffixed scheduling metrics stays deterministic at every
//! thread count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use localsim::MetricsHub;

/// Resolves a configured thread count: `0` means the process default.
pub(crate) fn effective_threads(configured: usize) -> usize {
    if configured == 0 {
        localsim::default_threads()
    } else {
        configured
    }
}

/// Runs `f(0), f(1), …, f(len - 1)` on up to `threads` pool workers and
/// returns the results in index order, recording pool utilization into
/// `hub` when attached.
pub(crate) fn run_indexed_metered<T, F>(
    threads: usize,
    len: usize,
    hub: Option<&Arc<MetricsHub>>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with_metered(threads, len, hub, || (), |(), i| f(i))
}

/// [`run_indexed_metered`] with per-worker scratch state: every worker
/// calls `init` once and threads the state through each unit it executes
/// (the component pool uses this for its snapshot colorings, so scratch
/// is allocated per *worker*, not per unit).
///
/// `f` must produce a result that depends only on the unit index — not
/// on which worker ran it or in what order (scratch must be returned to
/// its post-`init` state before `f` returns). Under that contract the
/// output vector is identical at every thread count.
///
/// One claim loop serves every width: inline as slot 0 when one worker
/// suffices, on a leased pool otherwise. With `hub` attached the call
/// records `pool.calls` / `pool.units` counters, the `pool.call_ns`
/// histogram, caller-side merge time, and one busy/idle/merge lane per
/// worker slot; pooled calls add worker wake-up latency and the
/// per-epoch `pool.steals_per_epoch_sched` histogram. With `hub` absent
/// the loop takes no timestamps.
///
/// # Panics
///
/// Propagates panics from `f` (the epoch barrier rejoins all workers
/// first).
pub(crate) fn run_indexed_with_metered<S, T, I, F>(
    threads: usize,
    len: usize,
    hub: Option<&Arc<MetricsHub>>,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let k = threads.clamp(1, len.max(1));
    if let Some(hub) = hub {
        hub.counter("pool.calls").incr();
        hub.counter("pool.units").add(len as u64);
    }
    // Timestamps are taken only with a hub attached.
    let now = || hub.map(|_| Instant::now());
    let call_start = now();
    // A worker's fair share; anything claimed beyond it was "stolen"
    // from slower workers by the dynamic scheduler.
    let fair_share = len.div_ceil(k) as u64;
    let epoch_steals = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let work = |slot: usize| {
        if let (Some(hub), Some(start), true) = (hub, call_start, k > 1) {
            hub.counter("pool.spawn_ns").add(elapsed_ns(start));
        }
        let mut scratch = init();
        let (mut busy, mut idle, mut merge, mut claimed) = (0, 0, 0, 0u64);
        let mut prev = now();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            let work_start = now();
            idle += ns_between(prev, work_start);
            let out = f(&mut scratch, i);
            let work_end = now();
            busy += ns_between(work_start, work_end);
            *slots[i].lock().expect("pool slot poisoned") = Some(out);
            prev = now();
            merge += ns_between(work_end, prev);
            claimed += 1;
        }
        if let Some(hub) = hub {
            let lane = hub.worker_lane(slot);
            let steals = claimed.saturating_sub(fair_share);
            lane.busy_ns.fetch_add(busy, Ordering::Relaxed);
            lane.idle_ns.fetch_add(idle, Ordering::Relaxed);
            lane.merge_ns.fetch_add(merge, Ordering::Relaxed);
            lane.units.fetch_add(claimed, Ordering::Relaxed);
            lane.steals.fetch_add(steals, Ordering::Relaxed);
            epoch_steals.fetch_add(steals, Ordering::Relaxed);
        }
    };
    // One unit stream runs inline as slot 0, leaving the thread's
    // cached pool alone; wider calls lease a pool of `k` slots.
    if k == 1 {
        work(0);
    } else {
        localsim::pool_lease(k).run_epoch(&work);
    }
    if let (Some(hub), Some(start)) = (hub, call_start) {
        // Per-epoch steal reporting: one observation per pooled call, so
        // the histogram's count/quantiles expose how skewed each
        // individual epoch was, not just the run total. The `_sched`
        // suffix keeps it out of `deterministic_snapshot()` — which
        // worker over-claims depends on OS scheduling.
        if k > 1 {
            hub.histogram("pool.steals_per_epoch_sched")
                .observe(epoch_steals.load(Ordering::Relaxed));
        }
        hub.histogram("pool.call_ns").observe(elapsed_ns(start));
    }
    let collect_start = now();
    let out: Vec<T> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect();
    if let (Some(hub), Some(start)) = (hub, collect_start) {
        hub.counter("pool.merge_ns").add(elapsed_ns(start));
    }
    out
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `a` to `b`; `0` when no timestamps were taken.
#[inline]
fn ns_between(a: Option<Instant>, b: Option<Instant>) -> u64 {
    match (a, b) {
        (Some(a), Some(b)) => {
            u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order_at_every_thread_count() {
        for threads in [0, 1, 2, 4, 16] {
            let k = if threads == 0 { 1 } else { threads };
            let out = run_indexed_metered(k, 10, None, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scratch_is_per_worker() {
        // Each worker's scratch counts the units it ran; the sum over all
        // results must cover every unit exactly once.
        let out = run_indexed_with_metered(
            4,
            100,
            None,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(out.len(), 100);
        for (idx, (i, seen)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        assert!(run_indexed_metered(4, 0, None, |i| i).is_empty());
        assert_eq!(run_indexed_metered(64, 3, None, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn metered_results_match_and_units_account() {
        for threads in [1, 2, 4] {
            let hub = Arc::new(MetricsHub::new());
            let out = run_indexed_metered(threads, 50, Some(&hub), |i| i * 3);
            assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(hub.counter("pool.calls").get(), 1);
            assert_eq!(hub.counter("pool.units").get(), 50);
            let lanes = hub.worker_lanes();
            assert!(lanes.len() <= threads.max(1));
            let claimed: u64 = lanes.iter().map(|l| l.units).sum();
            assert_eq!(
                claimed, 50,
                "threads={threads}: every unit claimed exactly once"
            );
            assert_eq!(hub.histogram("pool.call_ns").count(), 1);
        }
    }

    #[test]
    fn metered_empty_call_is_safe() {
        let hub = Arc::new(MetricsHub::new());
        let out: Vec<usize> = run_indexed_metered(4, 0, Some(&hub), |i| i);
        assert!(out.is_empty());
        assert_eq!(hub.counter("pool.units").get(), 0);
    }

    #[test]
    fn steals_report_per_epoch_and_stay_out_of_deterministic_snapshot() {
        let hub = Arc::new(MetricsHub::new());
        // Three parallel calls = three epochs: the per-epoch histogram
        // must carry one observation per call, not a single cumulative
        // total.
        for _ in 0..3 {
            let _ = run_indexed_metered(4, 40, Some(&hub), |i| i);
        }
        assert_eq!(hub.histogram("pool.steals_per_epoch_sched").count(), 3);
        let det = serde::json::to_string(&hub.deterministic_snapshot());
        assert!(
            !det.contains("steals_per_epoch_sched"),
            "scheduling-dependent steal metrics must not leak into the \
             deterministic snapshot"
        );
        let full = serde::json::to_string(&hub.snapshot_value());
        assert!(full.contains("steals_per_epoch_sched"));
    }

    #[test]
    fn sequential_calls_record_no_epoch_steals() {
        let hub = Arc::new(MetricsHub::new());
        let _ = run_indexed_metered(1, 40, Some(&hub), |i| i);
        assert_eq!(hub.histogram("pool.steals_per_epoch_sched").count(), 0);
    }
}
