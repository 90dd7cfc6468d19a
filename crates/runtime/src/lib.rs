//! Parallel scenario-sweep runtime for the DSN'21 reproduction.
//!
//! Every result in the paper is a Monte Carlo sweep — sampled AS pairs,
//! negotiation scenario grids, path-diversity CDFs, activation-schedule
//! batches. This crate provides the two pieces that let those sweeps use
//! every hardware thread **without changing a single output bit**:
//!
//! - [`ThreadPool`]: a hand-rolled, std-only scoped thread pool whose
//!   `map`/`run` primitives return results in item order, independent of
//!   thread count and scheduling;
//! - [`ScenarioSweep`]: a deterministic parallel map over seeded
//!   scenario lists, where each work item derives its own
//!   [`rand_chacha`] stream from `(master seed, item index)` — see the
//!   [`sweep`] module for the derivation scheme.
//!
//! The crate deliberately has no dependencies beyond the workspace's
//! `rand`/`rand_chacha` (the build is fully offline): no rayon, no
//! crossbeam, no scoped-pool crates. `std::thread::scope` plus one
//! lock-guarded iterator of result tiles is all the sweeps of this
//! workspace need.
//!
//! # Determinism contract
//!
//! For any `pool_a`, `pool_b` and pure-per-item `f`:
//!
//! ```text
//! ScenarioSweep::new(pool_a, s).run(n, f) == ScenarioSweep::new(pool_b, s).run(n, f)
//! ```
//!
//! The figure pipeline's CI determinism gate runs `all_figures --quick`
//! at `--threads 1` and `--threads 4` and diffs the bytes.
//!
//! # Seed-derivation scheme and porting history
//!
//! The scheme (normative; do not re-litigate when porting more analyses):
//! every sweep has one **master seed**. The ChaCha12 *key* is
//! `seed_from_u64(master_seed)` for all items; work item `i` reads the
//! cipher's native 64-bit **stream `i + 1`** of that key, and **stream 0
//! is reserved for the coordinator** — the sequential phase that samples
//! the work list itself. Streams are cryptographically independent, so no
//! schedule can influence any draw; and because the coordinator stream
//! equals plain `seed_from_u64(seed)`, analyses ported from the old
//! sequential code keep their historical sample selections.
//!
//! Two deliberate output drifts exist relative to the pre-runtime code,
//! both at fixed seeds and both accepted rather than worked around:
//!
//! - **fig2** (PR 2): its grid cells previously derived cell RNGs ad hoc
//!   as `seed ^ (W << 8)`; they now use the per-index stream scheme
//!   above. The quick-mode plateau min-PoD moved 0.1137 → 0.1157 (paper
//!   value ≈ 0.10, so the reproduction claim is unaffected).
//! - **synthetic topologies** (PR 3): the `pan-datasets` generator
//!   replaced its O(n·pool) weighted-candidate scans with sublinear
//!   samplers (Fenwick-tree attachment, geometric-skip hub peering).
//!   The sampled distributions are identical, but the *number and order*
//!   of RNG draws differ, so every figure derived from a generated
//!   topology drifts at a fixed seed. Statistical shapes are asserted by
//!   tests (`datasets::internet`, `tests/internet_scale.rs`) and match
//!   the paper as before.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
mod pool;
pub mod sweep;

pub use cli::{RunFlags, RunOptions};
pub use pool::ThreadPool;
pub use sweep::{coordinator_rng, item_rng, ScenarioSweep};

#[cfg(test)]
mod proptests {
    use crate::{ScenarioSweep, ThreadPool};
    use proptest::prelude::*;
    use rand::Rng;

    proptest! {
        /// The tentpole property: sweep output is a function of
        /// (master seed, item count) only — never of the thread count.
        #[test]
        fn sweep_output_is_thread_count_independent(
            master_seed in 0u64..10_000,
            threads in 1usize..9,
            count in 0usize..64,
        ) {
            let work = |i: usize, mut rng: rand_chacha::ChaCha12Rng| -> (usize, u64, f64) {
                (i, rng.gen(), rng.gen_range(0.0..1.0))
            };
            let reference = ScenarioSweep::sequential(master_seed).run(count, work);
            let parallel =
                ScenarioSweep::new(ThreadPool::new(threads), master_seed).run(count, work);
            prop_assert_eq!(reference, parallel);
        }
    }
}
