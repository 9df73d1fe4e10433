//! Shared machinery for the executors' deterministic parallel stepping
//! path: worklist segmentation, disjoint buffer splitting, and the
//! opt-in default thread count.
//!
//! A LOCAL round is embarrassingly parallel — every node reads only the
//! *previous* round's neighbor state — so the executors can step disjoint
//! contiguous slices of the live worklist on separate threads and merge
//! the results in segment order. Because each node's step sees exactly
//! the same inputs as in the sequential schedule, and all merges happen
//! in ascending segment order, outputs, round counts, and telemetry
//! event streams are bit-identical to the sequential path.

use std::sync::{Mutex, OnceLock};

use graphgen::NodeId;

use crate::pool::{self, PoolLease};

static THREADS: OnceLock<usize> = OnceLock::new();

/// The process-wide default thread count for executors, read once from
/// the `LOCALSIM_THREADS` environment variable: values `>= 2` enable the
/// parallel stepping path, `1` (or unset) keeps the sequential path, and
/// `0` or an unparsable value falls back to sequential with a one-time
/// notice on stderr (so a typo'd setting never goes silently ignored).
///
/// [`set_default_threads`] overrides the environment (the CLI's
/// `--threads K` flag uses it); the first of the two to run wins, and the
/// value never changes afterwards.
///
/// Primitives construct executors with
/// `Executor::new(g).with_threads(default_threads())`, so a pipeline can
/// be parallelized end to end without touching any call site. This is
/// safe to flip freely: the parallel path is bit-identical to the
/// sequential one (see `docs/PERFORMANCE.md`).
pub fn default_threads() -> usize {
    *THREADS.get_or_init(|| match std::env::var("LOCALSIM_THREADS") {
        Err(_) => 1,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(k) if k >= 2 => k,
            Ok(1) => 1,
            _ => {
                // OnceLock guarantees this fires at most once per process.
                eprintln!(
                    "localsim: LOCALSIM_THREADS={raw:?} is not a thread count >= 1; \
                     stepping sequentially"
                );
                1
            }
        },
    })
}

/// Pins the process-wide default thread count, overriding the
/// `LOCALSIM_THREADS` environment variable. Returns `false` if the
/// default was already resolved (by an earlier call or an earlier
/// [`default_threads`] read) — the established value stays in force, so
/// callers that care should invoke this before any executor runs.
///
/// This is also what keeps the persistent worker pools safe: every
/// [`crate::pool::lease`] snapshots its width from the value in force
/// when the executor run starts, and a pool's width never changes after
/// construction. A mid-run `set_default_threads` therefore cannot
/// resize a live pool — it returns `false` and has no effect (the error
/// path is pinned by `tests/threads_config.rs`).
pub fn set_default_threads(k: usize) -> bool {
    THREADS.set(k.max(1)).is_ok()
}

/// Splits a sorted live worklist into at most `threads` contiguous,
/// non-empty segments balanced by *degree weight* rather than node
/// count.
///
/// A node costs `deg(v) + 1` (the gather is linear in degree; `+ 1`
/// keeps isolated nodes from being free), looked up through the CSR
/// `offsets` table. Segments are closed greedily once they reach the
/// even share `ceil(total / k)`, so on a star or clique-with-tail the
/// hub's chunk stops growing the moment the hub is in it instead of
/// dragging `n / k` leaves along with it.
///
/// Guarantees, for `k = min(threads, live.len())` segments or fewer:
/// segments are contiguous, non-empty, cover `live` in order, and every
/// segment's weight is `< ceil(total / k) + max_single_weight` — i.e.
/// the imbalance over the even share is less than the heaviest single
/// node, which is the best any contiguous partition can promise
/// (pinned by `tests/partition.rs`, which property-tests this bound
/// through the crate root's `#[doc(hidden)]` re-export).
pub fn segments_weighted<'a>(
    live: &'a [NodeId],
    threads: usize,
    offsets: &[usize],
) -> Vec<&'a [NodeId]> {
    let k = threads.min(live.len()).max(1);
    if k <= 1 {
        return vec![live];
    }
    let weight = |v: NodeId| (offsets[v.index() + 1] - offsets[v.index()]) as u64 + 1;
    let total: u64 = live.iter().map(|&v| weight(v)).sum();
    let target = total.div_ceil(k as u64);
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &v) in live.iter().enumerate() {
        acc += weight(v);
        // Close the segment once it reaches the even share — or when the
        // nodes left (i included) are down to one per remaining segment,
        // so every segment stays non-empty.
        let segments_left = k - out.len();
        let must_close = segments_left > 1 && live.len() - i <= segments_left;
        if (acc >= target || must_close) && out.len() + 1 < k {
            out.push(&live[start..=i]);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(&live[start..]);
    debug_assert!(out.iter().all(|s| !s.is_empty()));
    out
}

/// The half-open node-index range covered by each segment of a sorted
/// worklist. Ranges are pairwise disjoint and ascending because the
/// worklist is sorted by node index. The one empty segment of an empty
/// worklist (a round whose every live node crashed) covers `0..0`.
pub(crate) fn segment_ranges(segs: &[&[NodeId]]) -> Vec<(usize, usize)> {
    segs.iter()
        .map(|s| match s {
            [] => (0, 0),
            [first, ..] => (first.index(), s[s.len() - 1].index() + 1),
        })
        .collect()
}

/// Splits one buffer into disjoint mutable sub-slices, one per range.
///
/// `ranges` must be ascending and non-overlapping (as produced by
/// [`segment_ranges`]); the slice for `(lo, hi)` covers exactly the
/// elements `lo..hi` of `data`, so a worker owning segment `i` indexes
/// it with `v.index() - lo`.
pub(crate) fn split_ranges<'a, T>(
    data: &'a mut [T],
    ranges: &[(usize, usize)],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest: &'a mut [T] = data;
    let mut base = 0usize;
    for &(lo, hi) in ranges {
        let tail = std::mem::take(&mut rest);
        let (_skipped, tail) = tail.split_at_mut(lo - base);
        let (mine, tail) = tail.split_at_mut(hi - lo);
        out.push(mine);
        rest = tail;
        base = hi;
    }
    out
}

/// Takes slot `slot`'s packet from one round's per-slot work cells
/// through a shared reference; slots past the segment count find none.
pub(crate) fn take_work<T>(cells: &[Mutex<Option<T>>], slot: usize) -> Option<T> {
    cells.get(slot)?.lock().expect("work slot poisoned").take()
}

/// Runs `step(slot)` for each of a round's `segs` segments: inline on
/// the calling thread for one segment, else on the pool in `lease`
/// (leased with `threads` slots on first use, parked between rounds).
pub(crate) fn run_segments<F: Fn(usize) + Sync>(
    lease: &mut Option<PoolLease>,
    threads: usize,
    segs: usize,
    step: &F,
) {
    if segs == 1 {
        step(0);
    } else {
        lease
            .get_or_insert_with(|| pool::lease(threads))
            .run_epoch(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    /// CSR offsets of a 14-node graph with every degree 1 — uniform
    /// weights, so the weighted split behaves like a count split.
    fn unit_offsets() -> Vec<usize> {
        (0..=14).collect()
    }

    #[test]
    fn segments_cover_worklist_in_order() {
        let live = ids(&[1, 4, 5, 9, 12]);
        let offsets = unit_offsets();
        let segs = segments_weighted(&live, 2, &offsets);
        assert_eq!(segs.len(), 2);
        let flat: Vec<NodeId> = segs.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, live);
        // More threads than nodes degrades to one node per segment.
        assert_eq!(segments_weighted(&live, 64, &offsets).len(), live.len());
        // One thread is the single-segment case the executors step inline.
        assert_eq!(segments_weighted(&live, 1, &offsets), vec![&live[..]]);
        // An empty worklist is one empty segment over the empty range.
        let none = segments_weighted(&[], 4, &offsets);
        assert_eq!(none, vec![&[][..]]);
        assert_eq!(segment_ranges(&none), vec![(0, 0)]);
    }

    #[test]
    fn split_ranges_are_disjoint_and_addressable() {
        let live = ids(&[1, 4, 5, 9, 12]);
        let segs = segments_weighted(&live, 3, &unit_offsets());
        let ranges = segment_ranges(&segs);
        let mut buf: Vec<i32> = (0..14).collect();
        let slices = split_ranges(&mut buf, &ranges);
        assert_eq!(slices.len(), segs.len());
        for (seg, ((lo, hi), slice)) in segs.iter().zip(ranges.iter().zip(slices)) {
            assert_eq!(slice.len(), hi - lo);
            for v in *seg {
                // The owning worker's view of node v.
                assert_eq!(slice[v.index() - lo], v.index() as i32);
            }
        }
    }
}
