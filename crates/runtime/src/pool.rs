//! A hand-rolled, std-only scoped thread pool.
//!
//! The pool hands out tiles of work items to OS threads from one shared
//! claim iterator (work stealing at tile granularity). Each worker writes
//! a result straight into its item's slot of one buffer, so results come
//! back **in item order** and the output of [`ThreadPool::map`] is
//! independent of the thread count and of scheduling. Threads are
//! spawned per call via [`std::thread::scope`]; for the coarse-grained
//! Monte Carlo items of this workspace (one sampled AS, one negotiation
//! cell, one activation schedule) the spawn cost is negligible against
//! the item cost.

use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::Instant;

/// A fixed-width pool of worker threads for deterministic parallel maps.
///
/// ```
/// use pan_runtime::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.map(&[1u64, 2, 3], |_idx, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool that runs at most `threads` workers per call.
    /// A request for zero threads is clamped to one.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// Creates a pool sized to [`std::thread::available_parallelism`]
    /// (one worker if the parallelism cannot be determined).
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(index)` for every index in `0..count` and returns the
    /// results in index order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` on any worker thread.
    pub fn run<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_with_tiled(count, 1, || (), |(), index| f(index))
    }

    /// Runs `f(state, index)` for every index in `0..count` and returns
    /// the results in index order. Every worker gets a private scratch
    /// state created by `init`, the pattern for sweeps that reuse
    /// per-worker buffers (e.g. visited-stamp arrays) across items.
    /// Results must not depend on the scratch state's history; the state
    /// exists to amortize allocations, not to carry information between
    /// items (which would break thread-count independence).
    ///
    /// Workers claim **contiguous tiles** of `tile` indices at a time and
    /// write each result straight into its slot of one result buffer. `f`
    /// receives the original item index, so the output is identical for
    /// any `tile`: tiling only changes which worker runs which items,
    /// never what an item computes.
    ///
    /// Use a tile when consecutive items touch overlapping memory (e.g.
    /// candidate pairs sorted by row): one worker then sweeps a run of
    /// neighboring items while the rows are cache-resident, instead of
    /// interleaving them with the other workers. A `tile` of zero is
    /// clamped to one (item-granularity stealing).
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `f` on any worker.
    pub fn run_with_tiled<S, R, I, F>(&self, count: usize, tile: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let tile = tile.max(1);
        let workers = self.threads.min(count.div_ceil(tile));
        // Handles acquired once per dispatch (noop until telemetry is
        // enabled); workers accumulate locally and flush once on exit,
        // so the per-item loop stays instrumentation-free.
        let busy_ns = pan_telemetry::histogram("runtime.worker.busy_ns");
        let enabled = busy_ns.is_live();
        if workers == 1 {
            // Inline fast path: no spawn, no synchronization. Identical
            // results by construction since `f` sees the same (state,
            // index) pairs a worker would.
            let _span = busy_ns.start();
            let mut state = init();
            return (0..count).map(|i| f(&mut state, i)).collect();
        }

        let start_delay_ns = pan_telemetry::histogram("runtime.worker.start_delay_ns");
        let tiles_claimed = pan_telemetry::counter("runtime.tiles.claimed");
        let cursor_overshoot = pan_telemetry::counter("runtime.cursor.overshoot");
        let dispatched = enabled.then(Instant::now);
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        // The claim lock is held only to take the next tile, never
        // while `f` runs, so a panicking item cannot poison it.
        let tiles = Mutex::new(slots.chunks_mut(tile).enumerate());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Queue wait: dispatch-to-first-instruction latency.
                    if let Some(t0) = dispatched {
                        start_delay_ns.record_duration(t0.elapsed());
                    }
                    let begun = enabled.then(Instant::now);
                    let mut claimed_tiles = 0u64;
                    let mut state = init();
                    loop {
                        // A statement of its own, so the guard drops
                        // before the tile runs: a `while let` would
                        // hold it through the loop body.
                        let next = tiles
                            .lock()
                            .expect("no item runs under the claim lock")
                            .next();
                        let Some((claimed, chunk)) = next else {
                            break;
                        };
                        claimed_tiles += 1;
                        for (index, slot) in (claimed * tile..).zip(chunk) {
                            *slot = Some(f(&mut state, index));
                        }
                    }
                    if let Some(begun) = begun {
                        busy_ns.record_duration(begun.elapsed());
                        tiles_claimed.add(claimed_tiles);
                        // The claim that found no tile left: the
                        // drain-contention signal.
                        cursor_overshoot.add(1);
                    }
                });
            }
            // `scope` joins all workers here and re-raises the first panic.
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index in 0..count was processed"))
            .collect()
    }

    /// Maps `f` over `items`, in parallel, preserving item order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` on any worker thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_with_tiled(items.len(), 1, || (), |(), i| f(i, &items[i]))
    }

    /// Maps `f` over `items` with a per-worker scratch state; see
    /// [`run_with_tiled`](Self::run_with_tiled).
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `f` on any worker.
    pub fn map_with<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        self.run_with_tiled(items.len(), 1, init, |state, i| f(state, i, &items[i]))
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.map(&items, |_, &x| x * 3), expected);
        }
    }

    #[test]
    fn zero_items_yield_empty_result() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.map(&[], |_, _: &u32| unreachable!("no items"));
        assert!(out.is_empty());
        let out: Vec<u32> = pool.run(0, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let pool = ThreadPool::new(32);
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(2, |i| i), vec![0, 1]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let pool = ThreadPool::new(4);
        let _ = pool.run(16, |i| {
            assert!(i != 7, "item 7 explodes");
            i
        });
    }

    #[test]
    #[should_panic]
    fn inline_panics_propagate_too() {
        let pool = ThreadPool::new(1);
        let _ = pool.run(4, |i| {
            assert!(i != 2, "item 2 explodes");
            i
        });
    }

    #[test]
    fn scratch_state_is_per_worker() {
        // Tag every scratch state with a unique id at init() time and
        // have each item record (worker id, per-worker sequence number).
        // Grouping by worker id must then yield a contiguous 1..=k
        // sequence per worker, and the groups must partition the items —
        // which fails if states were shared, reused, or created per item.
        let pool = ThreadPool::new(3);
        let next_id = AtomicUsize::new(0);
        let out = pool.run_with_tiled(
            16,
            1,
            || (next_id.fetch_add(1, Ordering::Relaxed), 0usize),
            |(worker, seen), i| {
                *seen += 1;
                (i, *worker, *seen)
            },
        );
        let workers_created = next_id.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&workers_created),
            "one init() per worker, not per item (got {workers_created})"
        );
        let mut per_worker: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, (item, worker, seq)) in out.into_iter().enumerate() {
            assert_eq!(item, i, "results stay in item order");
            per_worker.entry(worker).or_default().push(seq);
        }
        let mut total = 0;
        for (worker, seqs) in per_worker {
            let expected: Vec<usize> = (1..=seqs.len()).collect();
            assert_eq!(seqs, expected, "worker {worker} reused or shared state");
            total += seqs.len();
        }
        assert_eq!(total, 16, "the per-worker groups partition the items");
    }

    #[test]
    fn tiled_runs_match_item_granularity_for_any_tile() {
        let items: Vec<usize> = (0..101).collect();
        let reference: Vec<usize> = items.iter().map(|x| x * 7 + 1).collect();
        // Heap-owning results over a prime count, so every tile above one
        // leaves a short last tile.
        let words: Vec<String> = (0..97).map(|i| format!("item-{i}")).collect();
        for threads in [1, 3, 8] {
            let pool = ThreadPool::new(threads);
            for tile in [0, 1, 2, 16, 101, 500] {
                let out = pool.run_with_tiled(items.len(), tile, || (), |(), i| items[i] * 7 + 1);
                assert_eq!(out, reference, "tile {tile} at {threads} threads diverged");
                let out =
                    pool.run_with_tiled(words.len(), tile, || (), |(), i| format!("item-{i}"));
                assert_eq!(out, words, "tile {tile} at {threads} threads diverged");
            }
        }
    }

    #[test]
    #[should_panic]
    fn panic_in_a_middle_tile_propagates() {
        // Item 21 sits in the middle tile of 8 tiles of 5; the other
        // workers keep claiming tiles and must still drain and join.
        let pool = ThreadPool::new(4);
        let _ = pool.run_with_tiled(
            40,
            5,
            || (),
            |(), i| {
                assert!(i != 21, "item 21 explodes");
                i.to_string()
            },
        );
    }

    #[test]
    fn tiles_keep_consecutive_items_on_one_worker() {
        // With tiles of 8, the worker that claims a tile must process all
        // of its items; record worker ids per item and check each tile is
        // single-owner.
        let pool = ThreadPool::new(4);
        let next_id = AtomicUsize::new(0);
        let owners = pool.run_with_tiled(
            64,
            8,
            || next_id.fetch_add(1, Ordering::Relaxed),
            |worker, _i| *worker,
        );
        for tile in owners.chunks(8) {
            assert!(
                tile.iter().all(|&w| w == tile[0]),
                "a tile was split across workers: {tile:?}"
            );
        }
    }

    #[test]
    fn telemetry_records_worker_activity_when_enabled() {
        pan_telemetry::enable();
        let pool = ThreadPool::new(4);
        let out = pool.run_with_tiled(64, 4, || (), |(), i| i);
        assert_eq!(out.len(), 64);
        let snapshot = pan_telemetry::global().snapshot();
        let busy = snapshot
            .histograms
            .iter()
            .find(|(name, _)| name == "runtime.worker.busy_ns")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        assert!(busy >= 4, "each worker records one busy span, got {busy}");
        let claimed = snapshot
            .counters
            .iter()
            .find(|(name, _)| name == "runtime.tiles.claimed")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        assert!(claimed >= 16, "all 16 tiles were claimed, got {claimed}");
    }

    #[test]
    fn available_parallelism_pool_works() {
        let pool = ThreadPool::with_available_parallelism();
        assert!(pool.threads() >= 1);
        assert_eq!(pool.run(5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }
}
