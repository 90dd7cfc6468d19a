//! The incremental discovery engine behind
//! [`Engine::Incremental`](crate::Engine): dirty-AS candidate
//! maintenance with a lazily-invalidated surplus heap.
//!
//! A full-resweep round re-evaluates every candidate pair even though a
//! round's mutations (top-K adoptions) only touch the dense-table rows
//! of a few hundred ASes. Every quantity a candidate evaluation reads
//! lives in the two endpoint rows of the pair (graph adjacency, pricing
//! entries, flow entries, and the rows' totals), so a cached outcome
//! stays exact until one of its endpoints' rows changes. This module
//! exploits that locality:
//!
//! - [`EnumerationCache`] keeps the candidate enumeration across rounds
//!   while the graph is unchanged (invalidated when adoption registers a
//!   new peering link via
//!   [`AsGraph::with_added_peering_links`](pan_topology::AsGraph::with_added_peering_links),
//!   or when the driver is pointed at a different state). Both engines
//!   use it — re-enumerating ~157k pairs per round on a static graph was
//!   pure waste.
//! - [`IncrementalState`] keeps one evaluation slot per enumerated pair
//!   plus a surplus-ordered max-heap over the evaluated outcomes. Each
//!   round drains the [`MarketState`]'s dirty-row journal, re-evaluates
//!   only candidates intersecting the dirty set, pushes the refreshed
//!   entries (tagged with a per-slot generation), and drains the
//!   party-disjoint top-K off the heap. Superseded heap entries are
//!   dropped lazily when popped (their generation no longer matches
//!   their slot's).
//!
//! # Exactness contract
//!
//! The incremental engine is a *refactor*, not an approximation: every
//! round must be byte-identical to the full resweep at any thread
//! count. The load-bearing details, in order of subtlety:
//!
//! - **Heap order replicates the report ranking.** Entries order by
//!   `surplus` under [`f64::total_cmp`], ties broken by ascending
//!   `(x, y)` ASN pair — exactly the sort
//!   [`DiscoveryReport::from_outcomes`](crate::DiscoveryReport::from_outcomes)
//!   applies — so the heap pops candidates in the full engine's scan
//!   order. NaN surpluses are rejected before entering the heap (the
//!   evaluator already errors on non-finite utilities).
//! - **Aggregates are re-summed in enumeration order.** The round's
//!   `discovered_surplus` is an f64 sum whose value depends on summation
//!   order; it is recomputed over the cached outcomes in filtered
//!   enumeration order, through the full engine's summation
//!   (`discovery::tally`), never incrementally updated with deltas.
//! - **The below-threshold pop ends the scan.** The full engine stops
//!   its adoption scan at the first outcome that is non-viable or below
//!   `min_surplus`; everything the heap still holds ranks at or below
//!   that entry, so the entry is pushed back and the scan breaks.
//! - **Share jitter disables caching.** With
//!   [`DiscoveryConfig::noise`](crate::DiscoveryConfig::noise) `> 0`
//!   every pair's shares are drawn from its sweep stream *by filtered
//!   position*, so an outcome is not a function of the pair's rows
//!   alone; those configurations delegate to the full path (exact by
//!   construction, just not faster).
//!
//! Any superset of the true dirty set is sound — it costs extra
//! re-evaluations that reproduce the cached values bit for bit. The
//! engine leans on that: whole-table perturbations mark all rows
//! (`perturb`'s drift pass really does touch every row, so this is
//! precise, and shocked rounds are full resweeps), and a graph change or
//! unrecognized state rebuilds the cache from scratch.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use pan_econ::DirtyDrain;
use pan_runtime::ScenarioSweep;
use pan_topology::Asn;

use crate::discovery::{
    derive_pair_transit, enumerate_candidates, evaluate_candidate_with, rank_cmp, tally,
    BatchContext, CandidatePair, CandidatePolicy, NodePrograms, PairOutcome, PairScratch,
    PairTransit, CANDIDATE_TILE,
};
use crate::dynamics::{EvolutionConfig, MarketState, RoundScan};
use crate::Result;

/// The candidate enumeration of a known `(state, graph)` pair, reused
/// across rounds until the graph changes (new peering link) or the
/// driver is pointed at a different state.
#[derive(Debug, Clone)]
pub(crate) struct EnumerationCache {
    token: u64,
    graph_version: u64,
    /// The unfiltered enumeration (adopted pairs included — the adopted
    /// set changes every round, so filtering happens per round).
    pub(crate) pairs: Vec<CandidatePair>,
    /// Times the enumeration was (re)computed, including the first.
    pub(crate) rebuilds: usize,
    /// Rounds served from the cache without re-enumerating.
    pub(crate) reuses: usize,
}

/// Ensures `cache` holds the current enumeration of `state`, reusing it
/// when the state identity and graph version both match.
pub(crate) fn refresh_enumeration(
    cache: &mut Option<EnumerationCache>,
    state: &MarketState,
    policy: CandidatePolicy,
) {
    let (token, graph_version) = (state.cache_token(), state.graph_version());
    if let Some(cached) = cache {
        if cached.token == token && cached.graph_version == graph_version {
            cached.reuses += 1;
            pan_telemetry::counter("core.cache.enumeration.reuses").inc();
            return;
        }
    }
    pan_telemetry::counter("core.cache.enumeration.rebuilds").inc();
    let (rebuilds, reuses) = cache.as_ref().map_or((0, 0), |c| (c.rebuilds, c.reuses));
    *cache = Some(EnumerationCache {
        token,
        graph_version,
        pairs: enumerate_candidates(state.graph(), policy),
        rebuilds: rebuilds + 1,
        reuses,
    });
}

/// One cached candidate evaluation. The generation counts re-evaluations
/// of the slot; a heap entry is current iff its recorded generation
/// matches.
#[derive(Debug, Clone, Default)]
struct Slot {
    outcome: Option<PairOutcome>,
    generation: u32,
}

/// A surplus-ranked heap entry pointing at an evaluation slot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    surplus: f64,
    x: Asn,
    y: Asn,
    /// Index into the enumeration (and the parallel slot table).
    index: u32,
    generation: u32,
}

impl HeapEntry {
    /// Builds an entry, rejecting NaN surpluses — a NaN would make the
    /// ordering below inconsistent with the report ranking. (The
    /// evaluator errors on non-finite utilities long before this, so a
    /// `None` here indicates a bug upstream.)
    fn new(surplus: f64, x: Asn, y: Asn, index: u32, generation: u32) -> Option<Self> {
        if surplus.is_nan() {
            return None;
        }
        Some(HeapEntry {
            surplus,
            x,
            y,
            index,
            generation,
        })
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    /// Max-heap priority: the reverse of
    /// [`rank_cmp`](crate::discovery::rank_cmp), the report ranking
    /// (higher surplus first under [`f64::total_cmp`], then the smaller
    /// `(x, y)` ASN pair), so the best-ranked entry pops first. The
    /// generation tie-break only orders superseded duplicates of the
    /// same slot (skipped on pop anyway) so the order is total.
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(
            (other.surplus, other.x, other.y),
            (self.surplus, self.x, self.y),
        )
        .then_with(|| self.generation.cmp(&other.generation))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The persistent evaluation cache of the incremental engine; see the
/// [module docs](self) for the invariants.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalState {
    token: u64,
    graph_version: u64,
    /// The pricing revision the cached [`PairTransit`] structures were
    /// derived under; a bump drops them all (they depend on the transit
    /// pricing tables, never on flows).
    pricing_epoch: u64,
    /// Parallel to the enumeration: the cached evaluation per pair.
    slots: Vec<Slot>,
    /// Parallel to the enumeration: the pair's cached transit structure
    /// (graph- and pricing-derived, flow-independent — so it survives
    /// the adoption mutations that invalidate the evaluation slots).
    transit: Vec<Option<PairTransit>>,
    /// Lazily-invalidated max-heap over evaluated candidates.
    heap: BinaryHeap<HeapEntry>,
    /// Round scratch: the dirty-row bitmap, reused across rounds
    /// (cleared and resized at the top of every round).
    dirty_rows: Vec<bool>,
    /// Round scratch: this round's filtered candidate view.
    filtered: Vec<u32>,
    /// Round scratch: the stale subset of the filtered view.
    stale: Vec<u32>,
}

/// Ensures `cache` targets the current `(state, graph)` pair, rebuilding
/// it cold (every slot unevaluated, empty heap) on any mismatch — a cold
/// cache re-evaluates everything on its first round, which is always
/// sound.
pub(crate) fn ensure<'a>(
    cache: &'a mut Option<IncrementalState>,
    state: &MarketState,
    pairs: &[CandidatePair],
) -> &'a mut IncrementalState {
    let (token, graph_version) = (state.cache_token(), state.graph_version());
    let stale = match cache {
        Some(c) => c.token != token || c.graph_version != graph_version,
        None => true,
    };
    if stale {
        // Rebuilding keys and tables but carrying the round scratch
        // buffers keeps warm rounds allocation-free across rebuilds.
        let carried = cache.take();
        let (dirty_rows, filtered, stale) = carried
            .map(|c| (c.dirty_rows, c.filtered, c.stale))
            .unwrap_or_default();
        *cache = Some(IncrementalState {
            token,
            graph_version,
            pricing_epoch: state.pricing_epoch(),
            slots: vec![Slot::default(); pairs.len()],
            transit: vec![None; pairs.len()],
            heap: BinaryHeap::with_capacity(pairs.len()),
            dirty_rows,
            filtered,
            stale,
        });
    }
    cache.as_mut().expect("just ensured")
}

impl IncrementalState {
    /// Runs one incremental round: drain the state's dirty rows,
    /// re-evaluate intersecting candidates, merge into the heap, and
    /// adopt the party-disjoint top-K — producing the exact aggregates
    /// and adoptions of a full-resweep round.
    pub(crate) fn round(
        &mut self,
        state: &mut MarketState,
        config: &EvolutionConfig,
        round_sweep: &ScenarioSweep,
        pairs: &[CandidatePair],
        round: usize,
    ) -> Result<RoundScan> {
        let discovery = &config.discovery;

        // 1. Union the rows mutated since the last round into a bitmap
        // (the bitmap and index buffers below are round scratch taken
        // from `self`, so warm rounds allocate nothing).
        let drained = state.drain_dirty();
        let all_dirty = matches!(drained, DirtyDrain::All);
        let mut dirty_rows = std::mem::take(&mut self.dirty_rows);
        dirty_rows.clear();
        dirty_rows.resize(state.graph().node_count(), false);
        if let DirtyDrain::Rows(rows) = &drained {
            for &row in rows {
                dirty_rows[row as usize] = true;
            }
        }
        pan_telemetry::histogram("core.incremental.dirty_rows").record(match &drained {
            DirtyDrain::All => state.graph().node_count() as u64,
            DirtyDrain::Rows(rows) => rows.len() as u64,
        });

        // 2. This round's filtered candidate view, in enumeration order,
        // and the subset whose cached outcome is stale.
        let mut filtered = std::mem::take(&mut self.filtered);
        filtered.clear();
        let mut stale = std::mem::take(&mut self.stale);
        stale.clear();
        for (index, pair) in pairs.iter().enumerate() {
            if state.is_adopted(pair.x, pair.y) {
                continue;
            }
            let index = index as u32;
            filtered.push(index);
            let slot = &self.slots[index as usize];
            if slot.outcome.is_none()
                || all_dirty
                || dirty_rows[pair.x as usize]
                || dirty_rows[pair.y as usize]
            {
                stale.push(index);
            }
        }

        // 3. Re-evaluate the stale candidates in parallel through the
        // shared per-round node programs — the same evaluation path the
        // full engine takes at zero noise, so refreshed outcomes are
        // bit-identical to a full resweep's. The per-item RNG streams go
        // unused (noise == 0 — jitter delegates to the full path), so
        // stream assignment cannot influence results. Transit structures
        // are flow-independent, so they carry over from earlier rounds
        // unless the pricing tables changed; a cached structure is
        // bitwise what [`derive_pair_transit`] would return, so cache
        // hits cannot perturb the evaluation.
        if state.pricing_epoch() != self.pricing_epoch {
            self.pricing_epoch = state.pricing_epoch();
            self.transit.iter_mut().for_each(|t| *t = None);
        }
        pan_telemetry::histogram("core.incremental.stale_candidates").record(stale.len() as u64);
        let evaluated = if stale.is_empty() {
            Vec::new()
        } else {
            let ctx = BatchContext::new(state.graph(), state.econ(), state.flows())?;
            let programs = {
                let _span = pan_telemetry::histogram("core.phase.programs_ns").start();
                NodePrograms::build(&ctx, discovery.reroute_share, discovery.attract_share)?
            };
            {
                let _span = pan_telemetry::histogram("core.phase.derive_transit_ns").start();
                for &index in &stale {
                    let slot = &mut self.transit[index as usize];
                    if slot.is_none() {
                        *slot = Some(derive_pair_transit(&ctx, pairs[index as usize]));
                    }
                }
            }
            let transit = &self.transit;
            let _span = pan_telemetry::histogram("core.phase.evaluate_ns").start();
            round_sweep.map_with_tiled(
                &stale,
                CANDIDATE_TILE,
                PairScratch::new,
                |scratch, _i, &index, _rng| {
                    evaluate_candidate_with(
                        &ctx,
                        &programs,
                        transit[index as usize]
                            .as_ref()
                            .expect("every stale pair's transit structure was just derived"),
                        scratch,
                        pairs[index as usize],
                        discovery.grid,
                    )
                },
            )
        };
        let mut fresh = Vec::with_capacity(evaluated.len());
        for outcome in evaluated {
            match outcome {
                Ok(outcome) => fresh.push(outcome),
                Err(error) => {
                    // The dirty journal was already drained; resync
                    // conservatively so a caller that recovers from the
                    // error re-evaluates everything next round.
                    state.mark_all_dirty();
                    return Err(error);
                }
            }
        }

        // 4. Commit the refreshed outcomes and push their heap entries.
        for (&index, outcome) in stale.iter().zip(fresh) {
            let slot = &mut self.slots[index as usize];
            slot.generation = slot.generation.wrapping_add(1);
            let entry = HeapEntry::new(
                outcome.surplus,
                outcome.x,
                outcome.y,
                index,
                slot.generation,
            )
            .expect("the evaluator rejects non-finite surpluses");
            slot.outcome = Some(outcome);
            self.heap.push(entry);
        }

        // 5. Round aggregates, re-summed over the cached outcomes in
        // filtered enumeration order through the full engine's own
        // `tally` — the exact f64 summation of its rounds.
        let slots = &self.slots;
        let (concluded_flow_volume, concluded_cash, discovered_surplus) =
            tally(filtered.iter().map(|&index| {
                slots[index as usize]
                    .outcome
                    .as_ref()
                    .expect("every filtered slot was evaluated")
            }));

        // 6. Adoption scan: drain the heap best-first, mirroring the
        // full engine's sorted scan (see the module docs for why each
        // skip/break is exact).
        let _adopt_span = pan_telemetry::histogram("core.phase.adopt_ns").start();
        let mut busy: HashSet<u32> = HashSet::new();
        let mut agreements = Vec::new();
        let mut adopted_surplus = 0.0f64;
        let mut new_links = 0usize;
        let mut heap_pops = 0u64;
        let mut deferred: Vec<HeapEntry> = Vec::new();
        while agreements.len() < config.adopt_top {
            let Some(entry) = self.heap.pop() else {
                break;
            };
            heap_pops += 1;
            let slot = &self.slots[entry.index as usize];
            if entry.generation != slot.generation {
                continue; // superseded by a re-evaluation: drop lazily
            }
            let pair = pairs[entry.index as usize];
            if state.is_adopted(pair.x, pair.y) {
                continue; // adopted in an earlier round's scan: retire
            }
            let outcome = slot
                .outcome
                .as_ref()
                .expect("current-generation entries have outcomes");
            if outcome.cash.is_none() || outcome.surplus <= config.min_surplus {
                // The full scan breaks here; everything still heaped
                // ranks at or below this entry. Keep it for later rounds.
                deferred.push(entry);
                break;
            }
            if busy.contains(&pair.x) || busy.contains(&pair.y) {
                deferred.push(entry);
                continue;
            }
            match state.adopt_outcome(outcome, discovery.grid, config.min_surplus, round)? {
                Some(agreement) => {
                    busy.insert(pair.x);
                    busy.insert(pair.y);
                    adopted_surplus += agreement.joint_utility;
                    new_links += usize::from(agreement.new_link);
                    agreements.push(agreement);
                }
                // The refreshed surplus no longer clears the bar on the
                // current state. The mutations that consumed it marked
                // the endpoints dirty, so the slot re-evaluates next
                // round; until then the stale entry stays ranked.
                None => deferred.push(entry),
            }
        }
        self.heap.extend(deferred);
        pan_telemetry::counter("core.incremental.heap_pops").add(heap_pops);

        // 7. Compact once stale entries dominate the heap: rebuild from
        // the live slots. Determinism is unaffected — the heap's pop
        // order is fully determined by the (total) entry order.
        if self.heap.len() > 2 * filtered.len() + 64 {
            self.compact(state, pairs);
        }

        let candidates = filtered.len();
        self.dirty_rows = dirty_rows;
        self.filtered = filtered;
        self.stale = stale;

        Ok(RoundScan {
            candidates,
            concluded_flow_volume,
            concluded_cash,
            discovered_surplus,
            agreements,
            adopted_surplus,
            new_links,
        })
    }

    /// Rebuilds the heap from the current-generation outcomes of
    /// non-adopted pairs, discarding every lazily-invalidated entry.
    fn compact(&mut self, state: &MarketState, pairs: &[CandidatePair]) {
        let entries: Vec<HeapEntry> = pairs
            .iter()
            .enumerate()
            .filter_map(|(index, pair)| {
                if state.is_adopted(pair.x, pair.y) {
                    return None;
                }
                let slot = &self.slots[index];
                let outcome = slot.outcome.as_ref()?;
                HeapEntry::new(
                    outcome.surplus,
                    outcome.x,
                    outcome.y,
                    index as u32,
                    slot.generation,
                )
            })
            .collect();
        self.heap = BinaryHeap::from(entries);
    }

    /// Bytes resident in the engine's slot table, transit cache, heap,
    /// and round scratch — the incremental engine's contribution to a
    /// driver's memory footprint.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot>()
            + self.transit.capacity() * size_of::<Option<PairTransit>>()
            + self
                .transit
                .iter()
                .flatten()
                .map(PairTransit::heap_bytes)
                .sum::<usize>()
            + self.heap.capacity() * size_of::<HeapEntry>()
            + self.dirty_rows.capacity() * size_of::<bool>()
            + (self.filtered.capacity() + self.stale.capacity()) * size_of::<u32>()
    }

    /// The cached outcome of enumeration entry `index`, if evaluated —
    /// the dirty-set soundness test compares these against fresh
    /// evaluations bit for bit.
    #[cfg(test)]
    pub(crate) fn cached_outcome(&self, index: usize) -> Option<&PairOutcome> {
        self.slots.get(index).and_then(|slot| slot.outcome.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(surplus: f64, x: u32, y: u32, index: u32, generation: u32) -> HeapEntry {
        HeapEntry::new(surplus, Asn::new(x), Asn::new(y), index, generation)
            .expect("finite surplus")
    }

    #[test]
    fn heap_entries_reject_nan_surpluses() {
        assert!(HeapEntry::new(f64::NAN, Asn::new(1), Asn::new(2), 0, 1).is_none());
        assert!(HeapEntry::new(f64::INFINITY, Asn::new(1), Asn::new(2), 0, 1).is_some());
        assert!(HeapEntry::new(-0.0, Asn::new(1), Asn::new(2), 0, 1).is_some());
    }

    #[test]
    fn heap_order_matches_the_report_ranking() {
        // from_outcomes sorts by surplus descending (total_cmp), then
        // ascending (x, y); the heap must pop in exactly that order.
        let mut heap = BinaryHeap::new();
        heap.push(entry(1.0, 5, 6, 0, 1));
        heap.push(entry(2.0, 9, 10, 1, 1));
        heap.push(entry(2.0, 3, 4, 2, 1));
        heap.push(entry(-0.0, 7, 8, 3, 1)); // total_cmp: -0.0 < 0.0
        heap.push(entry(0.0, 1, 2, 4, 1));
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.index)).collect();
        assert_eq!(order, vec![2, 1, 0, 4, 3]);
    }

    #[test]
    fn generation_tie_break_keeps_the_order_total() {
        let older = entry(1.0, 1, 2, 0, 1);
        let newer = entry(1.0, 1, 2, 0, 2);
        assert_eq!(older.cmp(&older), Ordering::Equal);
        assert_eq!(older.cmp(&newer), Ordering::Less);
        assert_eq!(newer.cmp(&older), Ordering::Greater);
    }
}
