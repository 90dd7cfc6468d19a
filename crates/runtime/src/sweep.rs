//! Deterministic parallel scenario sweeps.
//!
//! # Seed-derivation scheme
//!
//! A sweep is parameterized by a single **master seed**. Every work item
//! derives an independent ChaCha12 keystream from `(master seed, item
//! index)` using the cipher's native 64-bit *stream id*:
//!
//! - the ChaCha key is `seed_from_u64(master_seed)` — identical for all
//!   items of the sweep;
//! - item `i` reads **stream `i + 1`** of that key;
//! - stream `0` is reserved for the *coordinator* (the sequential phase
//!   that samples the work list itself, e.g. which source ASes to
//!   analyze), so coordinator draws can never collide with item draws.
//!
//! Because distinct ChaCha streams are cryptographically independent and
//! an item's stream depends only on its index, sweep results are
//! **bit-identical at any thread count** — the scheduling of items onto
//! workers cannot influence any random draw. This is the property the
//! figure pipeline's determinism gate (`--threads 1` vs `--threads 4`)
//! checks end to end.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::ThreadPool;

/// The RNG for work item `index` of a sweep with the given master seed;
/// see the [module docs](self) for the derivation scheme.
#[must_use]
pub fn item_rng(master_seed: u64, index: usize) -> ChaCha12Rng {
    let mut rng = ChaCha12Rng::seed_from_u64(master_seed);
    rng.set_stream(index as u64 + 1);
    rng
}

/// The RNG for the sequential coordinator phase of a sweep (stream 0 of
/// the master seed). Equivalent to `ChaCha12Rng::seed_from_u64(seed)`,
/// which is what the pre-runtime sequential analyses used — so analyses
/// ported to [`ScenarioSweep`] keep their historical sample selections.
#[must_use]
pub fn coordinator_rng(master_seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(master_seed)
}

/// A deterministic parallel map over a seeded scenario list.
///
/// Combines a [`ThreadPool`] with the module's seed-derivation scheme:
/// every item receives its own [`ChaCha12Rng`], and results come back in
/// item order regardless of the thread count.
///
/// ```
/// use pan_runtime::{ScenarioSweep, ThreadPool};
/// use rand::Rng;
///
/// let sequential = ScenarioSweep::new(ThreadPool::new(1), 42);
/// let parallel = ScenarioSweep::new(ThreadPool::new(4), 42);
/// let a: Vec<u64> = sequential.run(10, |_i, mut rng| rng.gen());
/// let b: Vec<u64> = parallel.run(10, |_i, mut rng| rng.gen());
/// assert_eq!(a, b); // bit-identical at any thread count
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    pool: ThreadPool,
    master_seed: u64,
}

impl ScenarioSweep {
    /// Creates a sweep that runs on `pool` with the given master seed.
    #[must_use]
    pub fn new(pool: ThreadPool, master_seed: u64) -> Self {
        ScenarioSweep { pool, master_seed }
    }

    /// A single-threaded sweep — the reference executor the parallel
    /// configurations must match bit for bit.
    #[must_use]
    pub fn sequential(master_seed: u64) -> Self {
        Self::new(ThreadPool::new(1), master_seed)
    }

    /// The master seed of the sweep.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// A sweep over the **same pool** with a different master seed — the
    /// handle pattern for long-running owners (e.g. a serving loop) that
    /// keep one pool alive across many independently-seeded workloads.
    #[must_use]
    pub fn reseeded(&self, master_seed: u64) -> ScenarioSweep {
        ScenarioSweep {
            pool: self.pool.clone(),
            master_seed,
        }
    }

    /// The coordinator RNG (stream 0); see [`coordinator_rng`].
    #[must_use]
    pub fn coordinator_rng(&self) -> ChaCha12Rng {
        coordinator_rng(self.master_seed)
    }

    /// Runs `f(index, rng)` for every index in `0..count`, each with its
    /// derived item stream, returning results in index order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` on any worker thread.
    pub fn run<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, ChaCha12Rng) -> R + Sync,
    {
        self.pool
            .run(count, |i| f(i, item_rng(self.master_seed, i)))
    }

    /// Maps `f(index, item, rng)` over `items` with derived per-item
    /// streams, returning results in item order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` on any worker thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, ChaCha12Rng) -> R + Sync,
    {
        self.pool
            .map(items, |i, item| f(i, item, item_rng(self.master_seed, i)))
    }

    /// Maps `f(state, index, item, rng)` over `items` with a per-worker
    /// scratch state, derived per-item streams and locality tiling:
    /// workers claim contiguous runs of `tile` items (see
    /// [`ThreadPool::run_with_tiled`]). Item RNG streams stay keyed by
    /// the item's index, so the output is bit-identical for any tile and
    /// thread count. The combination batch discovery needs: reusable
    /// per-worker buffers without sacrificing thread-count-independent
    /// randomness.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `f` on any worker.
    pub fn map_with_tiled<S, T, R, I, F>(&self, items: &[T], tile: usize, init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T, ChaCha12Rng) -> R + Sync,
    {
        self.pool
            .run_with_tiled(items.len(), tile, init, |state, i| {
                f(state, i, &items[i], item_rng(self.master_seed, i))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn item_streams_are_distinct_from_each_other_and_the_coordinator() {
        let mut draws: Vec<u64> = (0..16).map(|i| item_rng(9, i).gen()).collect();
        draws.push(coordinator_rng(9).gen());
        let unique: std::collections::BTreeSet<u64> = draws.iter().copied().collect();
        assert_eq!(unique.len(), draws.len(), "streams must not collide");
    }

    #[test]
    fn coordinator_matches_legacy_seeding() {
        use rand::SeedableRng;
        let mut legacy = ChaCha12Rng::seed_from_u64(1234);
        let mut coordinator = coordinator_rng(1234);
        for _ in 0..8 {
            assert_eq!(legacy.gen::<u64>(), coordinator.gen::<u64>());
        }
    }

    #[test]
    fn reseeded_sweeps_share_the_pool_but_not_the_streams() {
        let sweep = ScenarioSweep::new(ThreadPool::new(3), 7);
        let other = sweep.reseeded(8);
        assert_eq!(other.master_seed(), 8);
        let a: Vec<u64> = sweep.run(4, |_i, mut rng| rng.gen());
        let b: Vec<u64> = other.run(4, |_i, mut rng| rng.gen());
        assert_ne!(a, b, "a reseeded sweep derives different streams");
        let reference: Vec<u64> = ScenarioSweep::sequential(8).run(4, |_i, mut rng| rng.gen());
        assert_eq!(b, reference, "reseeding matches a fresh sweep bit for bit");
    }

    #[test]
    fn map_with_is_thread_count_independent() {
        let items: Vec<u32> = (0..64).collect();
        let reference = ScenarioSweep::sequential(5).map_with_tiled(
            &items,
            1,
            Vec::<u64>::new,
            |scratch, i, &item, mut rng| {
                scratch.push(u64::from(item)); // scratch history must not leak
                (i, rng.gen::<u64>())
            },
        );
        for threads in [2, 4, 8] {
            let parallel = ScenarioSweep::new(ThreadPool::new(threads), 5).map_with_tiled(
                &items,
                1,
                Vec::<u64>::new,
                |scratch, i, &item, mut rng| {
                    scratch.push(u64::from(item));
                    (i, rng.gen::<u64>())
                },
            );
            assert_eq!(reference, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn tiled_map_matches_untiled_bit_for_bit() {
        let items: Vec<u32> = (0..64).collect();
        let reference = ScenarioSweep::sequential(5).map_with_tiled(
            &items,
            1,
            Vec::<u64>::new,
            |scratch, i, &item, mut rng| {
                scratch.push(u64::from(item));
                (i, rng.gen::<u64>())
            },
        );
        for threads in [1, 2, 4] {
            for tile in [1, 7, 64, 1000] {
                let tiled = ScenarioSweep::new(ThreadPool::new(threads), 5).map_with_tiled(
                    &items,
                    tile,
                    Vec::<u64>::new,
                    |scratch, i, &item, mut rng| {
                        scratch.push(u64::from(item));
                        (i, rng.gen::<u64>())
                    },
                );
                assert_eq!(
                    reference, tiled,
                    "tile {tile} at {threads} threads diverged"
                );
            }
        }
    }

    #[test]
    fn run_with_hands_out_item_indexed_streams() {
        let sweep = ScenarioSweep::new(ThreadPool::new(3), 13);
        let items = [0u8; 8];
        let out = sweep.map_with_tiled(
            &items,
            3,
            || 0u8,
            |_s, i, _item, mut rng| rng.gen::<u64>() ^ i as u64,
        );
        for (i, &draw) in out.iter().enumerate() {
            assert_eq!(draw, item_rng(13, i).gen::<u64>() ^ i as u64);
        }
    }

    #[test]
    fn map_hands_out_item_indexed_streams() {
        let sweep = ScenarioSweep::new(ThreadPool::new(3), 21);
        let items = ["a", "b", "c", "d"];
        let out = sweep.map(&items, |i, item, mut rng| (i, *item, rng.gen::<u64>()));
        for (i, (idx, _item, draw)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*draw, item_rng(21, i).gen::<u64>());
        }
    }
}
