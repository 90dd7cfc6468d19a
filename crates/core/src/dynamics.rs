//! Multi-round agreement adoption dynamics: the market evolution of the
//! interconnection economy.
//!
//! The [`discovery`](crate::discovery) engine answers a *static*
//! question: which pairs profit from a mutuality agreement on today's
//! topology. This module iterates that question until it stops having
//! interesting answers — the codebase's first closed-loop workload:
//!
//! 1. **Discover**: run the batch evaluation over every candidate pair of
//!    the current [`MarketState`] (skipping pairs that already hold an
//!    agreement).
//! 2. **Adopt**: take the top-K party-disjoint outcomes with positive
//!    NBS surplus (an AS negotiates at most one agreement per round) and
//!    *materialize* them — the Eq. (9) flow volumes move into the
//!    [`FlowMatrix`] (provider traffic reroutes onto the new segments,
//!    attracted demand appears, the partner transits the whole volume),
//!    the Eq. (10)–(11) NBS transfer lands on the parties' cash ledgers,
//!    and a prospective (k-hop) pair first registers its new peering link
//!    in the graph/CSR layer.
//! 3. **Perturb** (optional): shock the market between rounds — traffic
//!    drift per link, transit-price shocks, peering-link failures — so
//!    the equilibrium keeps moving.
//! 4. Repeat until **fixed point** (an unshocked round adopts nothing:
//!    no adoptable surplus remains) or a round cap.
//!
//! Every random draw derives from the sweep's master seed: round `i`
//! draws its own ChaCha sub-seed as the `i`-th draw of the coordinator
//! stream, candidate evaluations use the round's per-item streams, and
//! perturbations use the round's coordinator stream — so an evolution
//! run is bit-identical at any thread count, like everything else built
//! on [`ScenarioSweep`].
//!
//! The loop itself lives in the resumable [`EvolutionDriver`]: rounds
//! can be stepped one at a time (the serving layer's `step` verb),
//! checkpointed into a versioned [`MarketSnapshot`], and restored to
//! continue the exact trajectory — the round counter is the only RNG
//! state, so a restored run re-derives the same sub-seed sequence an
//! uninterrupted one would. [`advise`] answers the per-AS version of
//! the discovery question on a resident state without a full sweep.
//!
//! Adoption re-evaluates each chosen pair against the *current* state
//! (earlier adoptions in the same round may have consumed its
//! opportunity) using the outcome's recorded
//! [`shares`](PairOutcome::shares), and skips it when the refreshed
//! surplus no longer clears the threshold. Because an adopted pair is
//! excluded from later rounds and adoption drains the rerouting
//! opportunity it was priced on, an unshocked evolution provably
//! terminates: each round either adopts a never-before-adopted pair or
//! reaches the fixed point.
//!
//! # One engine, cached across rounds
//!
//! Every round re-evaluates every non-adopted candidate. The driver
//! keeps only what provably survives a round: the candidate enumeration
//! (until adoption registers a new peering link) and each pair's
//! flow-independent transit structure (until a pricing table changes).
//! A warm round on a static graph therefore costs one node-program build
//! plus one programmed evaluation per candidate.
//!
//! Caching evaluated *outcomes* and re-evaluating only pairs whose
//! endpoint rows changed does not pay, because row-level dirtiness is
//! the wrong grain here: one adoption rewrites the rows of every
//! provider and customer of both parties and of the partner's grant
//! targets, the top-ranked agreements are between hubs, and a shock's
//! traffic drift touches every row. On a 10k-AS market a warm round's
//! adoptions dirtied 9,987 of 10,000 rows, so such a cache re-evaluates
//! nearly every candidate anyway and adds its own bookkeeping on top.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use pan_econ::{DenseEconomics, FlowMatrix};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_topology::{AsGraph, Asn, NeighborKind};

use crate::discovery::{
    collect_targets, derive_pair_transit, enumerate_candidates, enumerate_candidates_for,
    evaluate_candidate, evaluate_candidate_with, ranked_scan, tally, BatchContext, CandidatePair,
    CandidatePolicy, DiscoveryConfig, DiscoveryReport, NodePrograms, PairOutcome, PairScratch,
    PairTransit, CANDIDATE_TILE,
};
use crate::{AgreementError, Result};

/// Monotonic source of [`MarketState`] identity tokens: the caches on an
/// [`EvolutionDriver`] describe *one specific state*, and the token is
/// how they recognize it. Fresh on every construction, restore, and
/// clone, so a driver pointed at a different (or copied) state rebuilds
/// its caches instead of trusting stale ones.
static NEXT_STATE_TOKEN: AtomicU64 = AtomicU64::new(1);

fn next_state_token() -> u64 {
    NEXT_STATE_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// The evolving market: a topology with its dense economic tables, the
/// set of adopted agreements, and the parties' cumulative cash ledger.
///
/// The state owns its tables — adoption mutates flows (and, for
/// prospective pairs, the graph itself), so the borrowed
/// [`BatchContext`] of the static engine cannot express it.
#[derive(Debug)]
pub struct MarketState {
    graph: AsGraph,
    econ: DenseEconomics,
    flows: FlowMatrix,
    /// Cumulative NBS transfers per dense node index: positive = net
    /// receiver of compensation.
    cash: Vec<f64>,
    /// Adopted pairs by dense node index (`x < y`). Never iterated —
    /// membership tests only, so the hash order cannot leak into
    /// results.
    adopted: HashSet<(u32, u32)>,
    /// Identity token the driver-side caches key on; fresh per
    /// construction/clone (see [`NEXT_STATE_TOKEN`]).
    token: u64,
    /// Bumped whenever adoption registers a new peering link — the
    /// enumeration-cache invalidation signal.
    graph_version: u64,
    /// Bumped whenever a pricing table mutates (perturbation price
    /// shocks) — the invalidation signal for caches derived from
    /// pricing but not flows (the driver's per-pair transit
    /// structures). Flow mutations never bump it.
    pricing_epoch: u64,
    /// Coarse market revision: bumped on every adoption and every
    /// perturbation pass (which covers traffic drift, price shocks —
    /// i.e. pricing-epoch changes — and link failures). The serving
    /// layer keys its per-AS advise cache on this counter; see
    /// [`generation`](Self::generation) for the contract.
    generation: u64,
    /// Reusable adoption buffers — see [`AdoptScratch`]. Pure scratch:
    /// never serialized, never compared, reset-by-default on clone.
    adopt_scratch: AdoptScratch,
}

/// Reusable buffers for [`MarketState::adopt_outcome`] /
/// `materialize`, so the K adoptions of a round allocate nothing after
/// the first. Contents are dead between calls — every user clears or
/// overwrites before reading — so carrying them across rounds (or
/// losing them on an error path) cannot affect results.
#[derive(Debug, Default)]
struct AdoptScratch {
    /// Evaluator scratch for the adoption-time re-evaluation.
    eval: PairScratch,
    /// `(node, packed position, delta)` staging of `materialize`.
    deltas: Vec<(u32, usize, f64)>,
    /// Grant-target positions buffer of `materialize`.
    targets: Vec<u32>,
}

impl AdoptScratch {
    /// Bytes resident in the adoption buffers.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.eval.resident_bytes()
            + self.deltas.capacity() * size_of::<(u32, usize, f64)>()
            + self.targets.capacity() * size_of::<u32>()
    }
}

impl Clone for MarketState {
    /// Clones the market. The clone gets a fresh identity token: driver
    /// caches built against the original must not be trusted for the
    /// copy.
    fn clone(&self) -> Self {
        MarketState {
            graph: self.graph.clone(),
            econ: self.econ.clone(),
            flows: self.flows.clone(),
            cash: self.cash.clone(),
            adopted: self.adopted.clone(),
            token: next_state_token(),
            graph_version: self.graph_version,
            pricing_epoch: self.pricing_epoch,
            generation: self.generation,
            adopt_scratch: AdoptScratch::default(),
        }
    }
}

impl MarketState {
    /// Builds the initial state, checking that the tables match the
    /// graph shape.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::DimensionMismatch`] if `econ` or
    /// `flows` were built from a different graph.
    pub fn new(graph: AsGraph, econ: DenseEconomics, flows: FlowMatrix) -> Result<Self> {
        for actual in [econ.node_count(), flows.node_count()] {
            if actual != graph.node_count() {
                return Err(AgreementError::DimensionMismatch {
                    expected: graph.node_count(),
                    actual,
                });
            }
        }
        let cash = vec![0.0; graph.node_count()];
        Ok(MarketState {
            graph,
            econ,
            flows,
            cash,
            adopted: HashSet::new(),
            token: next_state_token(),
            graph_version: 0,
            pricing_epoch: 0,
            generation: 0,
            adopt_scratch: AdoptScratch::default(),
        })
    }

    /// Builds the standard resident market from any source graph: the
    /// shared [`pan_econ::market::standard_tables`] economy (tier-aware
    /// rates, degree-gravity flows at scale 1) assembled into a state.
    ///
    /// This is the one market constructor `evolve`, `serve`, the bench
    /// harness, and the tests share, so a market built from a synthetic
    /// generator run and one built from a real-internet snapshot differ
    /// only in the graph and the tier classifier.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::DimensionMismatch`] only if the shared
    /// table synthesis produced mis-shaped tables (i.e. never, absent a
    /// bug in `pan-econ`).
    pub fn standard(
        graph: AsGraph,
        tier_of: impl Fn(pan_topology::Asn) -> pan_econ::MarketTier,
    ) -> Result<Self> {
        let (econ, flows) = pan_econ::market::standard_tables(&graph, tier_of, 1.0);
        Self::new(graph, econ, flows)
    }

    /// Reassembles a state from its serialized parts (the checkpoint
    /// path, used by [`MarketSnapshot::restore`]): shape-checks the
    /// tables like [`new`](Self::new), and additionally validates the
    /// ledger (finite balances) and the adopted set (normalized `x < y`
    /// in-range pairs without duplicates).
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::DimensionMismatch`] for mis-shaped
    /// tables and [`AgreementError::Snapshot`] for an invalid ledger or
    /// adopted set.
    pub fn from_parts(
        graph: AsGraph,
        econ: DenseEconomics,
        flows: FlowMatrix,
        cash: Vec<f64>,
        adopted: Vec<(u32, u32)>,
    ) -> Result<Self> {
        let n = graph.node_count();
        for actual in [econ.node_count(), flows.node_count(), cash.len()] {
            if actual != n {
                return Err(AgreementError::DimensionMismatch {
                    expected: n,
                    actual,
                });
            }
        }
        for &balance in &cash {
            if !balance.is_finite() {
                return Err(AgreementError::Snapshot {
                    reason: format!("non-finite cash balance {balance}"),
                });
            }
        }
        let mut set = HashSet::with_capacity(adopted.len());
        for &(x, y) in &adopted {
            if x >= y || y >= n as u32 {
                return Err(AgreementError::Snapshot {
                    reason: format!("adopted pair ({x}, {y}) is not a normalized node-index pair"),
                });
            }
            if !set.insert((x, y)) {
                return Err(AgreementError::Snapshot {
                    reason: format!("adopted pair ({x}, {y}) appears twice"),
                });
            }
        }
        Ok(MarketState {
            graph,
            econ,
            flows,
            cash,
            adopted: set,
            token: next_state_token(),
            graph_version: 0,
            pricing_epoch: 0,
            generation: 0,
            adopt_scratch: AdoptScratch::default(),
        })
    }

    /// Identity token of this state instance; driver-side caches use it
    /// to recognize the state they were built against.
    pub(crate) fn cache_token(&self) -> u64 {
        self.token
    }

    /// Topology revision: bumped when adoption registers a new peering
    /// link, invalidating cached candidate enumerations.
    pub(crate) fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// Pricing revision: bumped whenever a pricing table mutates; see
    /// the field docs.
    pub(crate) fn pricing_epoch(&self) -> u64 {
        self.pricing_epoch
    }

    /// Coarse market revision for result caches (the serving layer's
    /// per-AS advise cache): bumped by every successful
    /// [`adopt_outcome`](Self::adopt_outcome) and every perturbation
    /// pass of [`EvolutionDriver::step`] — i.e. whenever a cached
    /// discovery answer computed on this state could change.
    ///
    /// The counter is **per state instance**: a clone inherits the
    /// current value and a restored checkpoint starts at 0, so caches
    /// must be dropped together with the instance they were built
    /// against (equality of `generation` across instances means
    /// nothing).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current topology (grows a peering link per adopted
    /// prospective pair).
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The current dense pricing tables.
    #[must_use]
    pub fn econ(&self) -> &DenseEconomics {
        &self.econ
    }

    /// The current dense flows.
    #[must_use]
    pub fn flows(&self) -> &FlowMatrix {
        &self.flows
    }

    /// Cumulative NBS cash balance of the AS at dense index `node`
    /// (positive = net receiver).
    #[must_use]
    pub fn cash_balance(&self, node: u32) -> f64 {
        self.cash[node as usize]
    }

    /// Number of agreements adopted so far.
    #[must_use]
    pub fn adopted_count(&self) -> usize {
        self.adopted.len()
    }

    /// `true` if the pair (by dense node index, either order) already
    /// holds an adopted agreement.
    #[must_use]
    pub fn is_adopted(&self, a: u32, b: u32) -> bool {
        self.adopted.contains(&(a.min(b), a.max(b)))
    }

    /// Approximate bytes the state keeps resident: the topology, the
    /// dense pricing/flow tables (including their SoA lanes), the cash
    /// ledger, the adopted set, and the adoption scratch. Computed from
    /// actual container capacities — the serving layer's `stats` verb
    /// and the scale benchmarks report this.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.graph.resident_bytes()
            + self.econ.resident_bytes()
            + self.flows.resident_bytes()
            + self.cash.capacity() * size_of::<f64>()
            + self.adopted.capacity() * (size_of::<(u32, u32)>() + size_of::<u64>())
            + self.adopt_scratch.resident_bytes()
    }

    /// The adopted pairs as a **sorted** list of normalized node-index
    /// pairs — the canonical order every serialization uses, so the hash
    /// set's iteration order can never leak into a wire format.
    #[must_use]
    pub fn adopted_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.adopted.iter().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Adopts one discovered outcome if it still clears `min_surplus` on
    /// the **current** state: re-evaluates the pair with the outcome's
    /// recorded shares, registers the peering link for prospective
    /// pairs, materializes the cash-optimal flow volumes, and books the
    /// NBS transfer. Returns `None` (without mutating the state) when
    /// the pair is already adopted or its refreshed surplus no longer
    /// qualifies.
    ///
    /// # Errors
    ///
    /// Propagates evaluation, remapping, and topology errors; rejects a
    /// non-finite or negative `min_surplus`.
    pub fn adopt_outcome(
        &mut self,
        outcome: &PairOutcome,
        grid: usize,
        min_surplus: f64,
        round: usize,
    ) -> Result<Option<AdoptedAgreement>> {
        if !min_surplus.is_finite() || min_surplus < 0.0 {
            return Err(AgreementError::InvalidFraction { value: min_surplus });
        }
        let (i, j) = (
            self.graph.index_of(outcome.x)?,
            self.graph.index_of(outcome.y)?,
        );
        let (x, y) = (i.min(j), i.max(j));
        if self.adopted.contains(&(x, y)) {
            return Ok(None);
        }
        // Re-evaluate against the current tables: adoptions earlier in
        // the round may have consumed this pair's opportunity. The
        // context sums flow totals only if a party's internal cost is
        // nonlinear, and the evaluator reuses its scratch, so repeated
        // adoptions on a linear-cost market allocate nothing here.
        let fresh = {
            let ctx = BatchContext::new(&self.graph, &self.econ, &self.flows)?;
            let pair = CandidatePair {
                x,
                y,
                peering_hops: outcome.peering_hops,
            };
            evaluate_candidate(
                &ctx,
                &mut self.adopt_scratch.eval,
                pair,
                outcome.shares.0,
                outcome.shares.1,
                grid,
            )?
        };
        let Some(cash) = fresh.cash else {
            return Ok(None);
        };
        if cash.joint_utility <= min_surplus {
            return Ok(None);
        }
        // Prospective partners first establish settlement-free peering:
        // the new link lands in the CSR layer and the dense tables are
        // remapped onto the extended shape (indices are preserved).
        let new_link = !self.graph.has_neighbor_kind(x, y, NeighborKind::Peer);
        if new_link {
            let next = self.graph.with_added_peering_links(&[(x, y)])?;
            self.econ = self.econ.remapped(&self.graph, &next)?;
            self.flows = self.flows.remapped(&self.graph, &next)?;
            self.graph = next;
            // Remapping is index-stable and only the parties' rows gain a
            // slot, but cached enumerations are now stale.
            self.graph_version += 1;
        }
        self.materialize(x, y, outcome.shares, (cash.reroute, cash.attract));
        // Eq. (10)–(11): X pays Π_{X→Y} to Y (negative = Y pays X).
        self.cash[x as usize] -= cash.transfer_x_to_y;
        self.cash[y as usize] += cash.transfer_x_to_y;
        self.adopted.insert((x, y));
        self.generation += 1;
        Ok(Some(AdoptedAgreement {
            round,
            x: self.graph.asn_at(x),
            y: self.graph.asn_at(y),
            peering_hops: outcome.peering_hops,
            new_link,
            shares: outcome.shares,
            reroute: cash.reroute,
            attract: cash.attract,
            joint_utility: cash.joint_utility,
            transfer_x_to_y: cash.transfer_x_to_y,
        }))
    }

    /// Applies the Eq. (9) flow volumes of the agreement at operating
    /// point `(r, a)` to the flow matrix — the exact flow deltas
    /// [`evaluate_candidate`] priced, kept link-symmetric (both mirror
    /// entries of every touched link move together).
    ///
    /// Both sides' deltas are computed against the same pre-adoption
    /// snapshot before any of them are applied, matching the joint
    /// evaluation: side `Y`'s reroutable provider flows must not include
    /// side `X`'s freshly materialized transit.
    fn materialize(&mut self, x: u32, y: u32, shares: (f64, f64), point: (f64, f64)) {
        let (reroute_share, attract_share) = shares;
        let (r, a) = point;
        // (node, packed position, delta) — applied after both sides are
        // collected. End-host deltas carry position == degree (the
        // trailing slot). Both lists live in the adoption scratch
        // (taken here, returned at the end) so repeated adoptions reuse
        // their capacity.
        let mut deltas = std::mem::take(&mut self.adopt_scratch.deltas);
        deltas.clear();
        let mut targets = std::mem::take(&mut self.adopt_scratch.targets);
        for (bene, partner) in [(x, y), (y, x)] {
            targets.clear();
            collect_targets(&self.graph, bene, partner, &mut targets);
            let nsegs = targets.len();
            if nsegs == 0 {
                continue;
            }
            let (p_end, e_end) = self.graph.class_boundaries(bene);
            let row = self.graph.neighbor_indices(bene);
            let mut volume = 0.0;
            for (pos, &p) in row[..p_end].iter().enumerate() {
                if p == partner {
                    continue;
                }
                let f = self.flows.flow(bene, pos);
                if f <= 0.0 {
                    continue;
                }
                let moved = r * reroute_share * f;
                if moved <= 0.0 {
                    continue;
                }
                deltas.push((bene, pos, -moved));
                let back = self
                    .graph
                    .neighbor_position(p, bene)
                    .expect("CSR adjacency is symmetric");
                deltas.push((p, back, -moved));
                volume += moved;
            }
            for (pos, &c) in row.iter().enumerate().skip(e_end) {
                let f = self.flows.flow(bene, pos);
                if f <= 0.0 {
                    continue;
                }
                let gained = a * attract_share * f;
                if gained <= 0.0 {
                    continue;
                }
                deltas.push((bene, pos, gained));
                let back = self
                    .graph
                    .neighbor_position(c, bene)
                    .expect("CSR adjacency is symmetric");
                deltas.push((c, back, gained));
                volume += gained;
            }
            let end_host_gain = a * attract_share * self.flows.end_host(bene);
            if end_host_gain > 0.0 {
                deltas.push((bene, row.len(), end_host_gain));
                volume += end_host_gain;
            }
            if volume <= 0.0 {
                continue;
            }
            // The whole volume crosses the (settlement-free) peering link
            // between the parties …
            let pos_partner = self
                .graph
                .neighbor_position(bene, partner)
                .expect("parties peer once adopted");
            let pos_bene = self
                .graph
                .neighbor_position(partner, bene)
                .expect("parties peer once adopted");
            deltas.push((bene, pos_partner, volume));
            deltas.push((partner, pos_bene, volume));
            // … and exits the partner split evenly across the granted
            // segments, as the default opportunities price it.
            let per_seg = volume / nsegs as f64;
            let partner_row = self.graph.neighbor_indices(partner);
            for &tpos in &targets {
                let t = partner_row[tpos as usize];
                deltas.push((partner, tpos as usize, per_seg));
                let back = self
                    .graph
                    .neighbor_position(t, partner)
                    .expect("CSR adjacency is symmetric");
                deltas.push((t, back, per_seg));
            }
        }
        // A negative result is clamped at zero. Each clamp is counted:
        // it means the deltas drained more flow than the entry held, a
        // conservation break that must not pass silently.
        let mut clamps = 0u64;
        for &(node, pos, delta) in &deltas {
            let updated = self.flows.flow(node, pos) + delta;
            clamps += u64::from(updated < 0.0);
            // `pos == degree` addresses the trailing end-host slot.
            self.flows.set(node, pos, updated.max(0.0));
        }
        pan_telemetry::counter("core.adopt.flow_clamps").add(clamps);
        self.adopt_scratch.deltas = deltas;
        self.adopt_scratch.targets = targets;
    }

    /// Shocks the market between rounds with magnitude `shock ∈ (0, 1]`:
    ///
    /// - **traffic drift**: every link's (symmetric) volume scales by
    ///   `1 + shock·U(−0.5, 1)` — growth-biased, as internet traffic is;
    ///   each AS's end-host demand drifts the same way;
    /// - **price shocks**: each transit link repriced with probability
    ///   `shock/20` by a factor `1 + shock·U(−1, 1)` (both entries of
    ///   the link move together, keeping the book consistent);
    /// - **link failures**: each peering link fails with probability
    ///   `shock/50` — its flows drop to zero (the traffic is lost until
    ///   the market re-routes it in later rounds).
    ///
    /// Draws come strictly in node-major, position-ascending order from
    /// `rng`, so a perturbation pass is deterministic for a given state
    /// and stream.
    fn perturb(&mut self, shock: f64, rng: &mut ChaCha12Rng) -> Result<PerturbationRecord> {
        self.generation += 1;
        let n = self.graph.node_count() as u32;
        // Pass 1: traffic drift, one factor per link (visited from its
        // lower-index endpoint) plus one per end-host slot.
        for i in 0..n {
            let row_len = self.graph.degree_of_index(i);
            for pos in 0..row_len {
                let j = self.graph.neighbor_indices(i)[pos];
                if j <= i {
                    continue;
                }
                let factor = 1.0 + shock * rng.gen_range(-0.5..1.0);
                let back = self
                    .graph
                    .neighbor_position(j, i)
                    .expect("CSR adjacency is symmetric");
                self.flows.set(i, pos, self.flows.flow(i, pos) * factor);
                self.flows.set(j, back, self.flows.flow(j, back) * factor);
            }
            let factor = 1.0 + shock * rng.gen_range(-0.5..1.0);
            self.flows.set_end_host(i, self.flows.end_host(i) * factor);
        }
        // Pass 2: transit-price shocks (visited from the provider side:
        // positions past `e_end` are the row owner's customers).
        let mut price_shocks = 0usize;
        for i in 0..n {
            let (_, e_end) = self.graph.class_boundaries(i);
            let row = self.graph.neighbor_indices(i);
            for (pos, &j) in row.iter().enumerate().skip(e_end) {
                if rng.gen::<f64>() >= shock / 20.0 {
                    continue;
                }
                let factor = 1.0 + shock * rng.gen_range(-1.0..1.0);
                let back = self
                    .graph
                    .neighbor_position(j, i)
                    .expect("CSR adjacency is symmetric");
                self.econ.scale_entry_price(i, pos, factor)?;
                self.econ.scale_entry_price(j, back, factor)?;
                price_shocks += 1;
            }
        }
        if price_shocks > 0 {
            self.pricing_epoch = self.pricing_epoch.wrapping_add(1);
            pan_telemetry::counter("econ.pricing.epoch_bumps").inc();
        }
        // Pass 3: peering-link failures.
        let mut failed_links = 0usize;
        for i in 0..n {
            let (p_end, e_end) = self.graph.class_boundaries(i);
            for pos in p_end..e_end {
                let j = self.graph.neighbor_indices(i)[pos];
                if j <= i {
                    continue;
                }
                if rng.gen::<f64>() >= shock / 50.0 {
                    continue;
                }
                let back = self
                    .graph
                    .neighbor_position(j, i)
                    .expect("CSR adjacency is symmetric");
                self.flows.set(i, pos, 0.0);
                self.flows.set(j, back, 0.0);
                failed_links += 1;
            }
        }
        Ok(PerturbationRecord {
            price_shocks,
            failed_links,
        })
    }
}

/// Bookkeeping of one perturbation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PerturbationRecord {
    price_shocks: usize,
    failed_links: usize,
}

/// Configuration of a market evolution run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvolutionConfig {
    /// Per-round discovery configuration. `top` is ignored — the
    /// engine always ranks the full candidate set and applies
    /// [`adopt_top`](Self::adopt_top) instead.
    pub discovery: DiscoveryConfig,
    /// Round cap (≥ 1). A run may stop earlier at a fixed point.
    pub rounds: usize,
    /// Maximum agreements adopted per round (≥ 1). Within a round,
    /// adopted pairs are **party-disjoint** — an AS negotiates at most
    /// one agreement per round — so the bound is on disjoint top-ranked
    /// pairs.
    pub adopt_top: usize,
    /// Minimum NBS surplus an outcome must clear (at discovery time and
    /// again at adoption time) to be adopted.
    pub min_surplus: f64,
    /// Perturbation magnitude in `[0, 1]`; `0` disables shocks, in which
    /// case a round without adoptions is a fixed point and ends the run.
    pub shock: f64,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            discovery: DiscoveryConfig::default(),
            rounds: 10,
            adopt_top: 10,
            min_surplus: 1e-6,
            shock: 0.0,
        }
    }
}

impl EvolutionConfig {
    fn validate(&self) -> Result<()> {
        self.discovery.validate()?;
        for (value, minimum) in [(self.rounds, 1), (self.adopt_top, 1)] {
            if value < minimum {
                return Err(AgreementError::DimensionMismatch {
                    expected: minimum,
                    actual: value,
                });
            }
        }
        // min_surplus is a utility, not a fraction: any finite
        // non-negative threshold is meaningful (f64::min would swallow
        // NaN/∞, so test finiteness directly).
        if !self.min_surplus.is_finite() || self.min_surplus < 0.0 {
            return Err(AgreementError::InvalidFraction {
                value: self.min_surplus,
            });
        }
        if !self.shock.is_finite() || !(0.0..=1.0).contains(&self.shock) {
            return Err(AgreementError::InvalidFraction { value: self.shock });
        }
        Ok(())
    }
}

/// One adopted agreement, as the evolution report records it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdoptedAgreement {
    /// Round (0-based) the agreement was adopted in.
    pub round: usize,
    /// First party.
    pub x: Asn,
    /// Second party.
    pub y: Asn,
    /// Peering-mesh distance at discovery time (1 = existing peers).
    pub peering_hops: u8,
    /// Whether adoption created a new peering link (prospective pairs).
    pub new_link: bool,
    /// Effective `(reroute, attract)` shares the agreement was priced
    /// with.
    pub shares: (f64, f64),
    /// Reroute fraction at the adopted operating point.
    pub reroute: f64,
    /// Attract fraction at the adopted operating point.
    pub attract: f64,
    /// Joint utility (NBS surplus) at adoption time.
    pub joint_utility: f64,
    /// NBS transfer `Π_{X→Y}` booked on the cash ledgers.
    pub transfer_x_to_y: f64,
}

/// Per-round trajectory entry of an evolution run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Candidate pairs evaluated (adopted pairs are excluded).
    pub candidates: usize,
    /// Candidates concluding under flow-volume optimization.
    pub concluded_flow_volume: usize,
    /// Candidates viable under cash compensation.
    pub concluded_cash: usize,
    /// Total NBS surplus visible to this round's discovery.
    pub discovered_surplus: f64,
    /// Agreements adopted this round.
    pub adopted: usize,
    /// Joint utility realized by this round's adoptions.
    pub adopted_surplus: f64,
    /// Peering links created by this round's adoptions.
    pub new_links: usize,
    /// Transit links repriced by this round's closing shock.
    pub price_shocks: usize,
    /// Peering links failed by this round's closing shock.
    pub failed_links: usize,
    /// Total flow volume in the market after the round's adoptions
    /// (before its closing shock).
    pub total_flow: f64,
    /// Wall-clock seconds the round took (discovery, adoption, and the
    /// closing shock). The only non-deterministic field: comparisons and
    /// determinism diffs must go through
    /// [`RoundRecord::with_zeroed_timing`] /
    /// [`EvolutionReport::with_zeroed_timings`].
    pub seconds: f64,
}

impl RoundRecord {
    /// The record with its wall-clock field zeroed — the canonical form
    /// for byte-identical trajectory comparisons.
    #[must_use]
    pub fn with_zeroed_timing(mut self) -> Self {
        self.seconds = 0.0;
        self
    }
}

/// Result of a market evolution run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionReport {
    /// Per-round trajectory, in round order.
    pub rounds: Vec<RoundRecord>,
    /// Every adopted agreement, in adoption order.
    pub agreements: Vec<AdoptedAgreement>,
    /// `true` if the run ended at a fixed point (an unshocked round
    /// without adoptable surplus) rather than the round cap.
    pub fixed_point: bool,
    /// Total joint utility realized across all adoptions.
    pub total_surplus: f64,
}

impl EvolutionReport {
    /// Total number of adopted agreements.
    #[must_use]
    pub fn total_adopted(&self) -> usize {
        self.agreements.len()
    }

    /// The report with every round's wall-clock field zeroed — what the
    /// determinism gates diff and what binaries print to stdout (timing
    /// stays on stderr and in bench records, per the workspace's
    /// byte-identical-output rule).
    #[must_use]
    pub fn with_zeroed_timings(&self) -> Self {
        let mut report = self.clone();
        for round in &mut report.rounds {
            round.seconds = 0.0;
        }
        report
    }
}

/// Everything one evolution round produced, as
/// [`EvolutionDriver::step`] returns it: the trajectory record, the
/// agreements adopted in the round, and whether the market reached a
/// fixed point.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The round's trajectory entry.
    pub record: RoundRecord,
    /// The agreements adopted this round, in adoption order.
    pub agreements: Vec<AdoptedAgreement>,
    /// `true` if this was an unshocked round without adoptable surplus —
    /// no later round can differ, the market is at a fixed point.
    pub fixed_point: bool,
}

/// What one round's discovery-and-adoption scan produced, assembled
/// into the [`RoundRecord`] by [`EvolutionDriver::step`].
#[derive(Debug)]
pub(crate) struct RoundScan {
    pub(crate) candidates: usize,
    pub(crate) concluded_flow_volume: usize,
    pub(crate) concluded_cash: usize,
    pub(crate) discovered_surplus: f64,
    pub(crate) agreements: Vec<AdoptedAgreement>,
    pub(crate) adopted_surplus: f64,
    pub(crate) new_links: usize,
}

/// The resumable round-stepping engine behind [`evolve`].
///
/// A driver owns the evolution configuration and the **round counter** —
/// the only RNG state of an evolution: round `i` derives its sub-seed as
/// the `i`-th draw of the sweep's coordinator stream, reconstructed by
/// position on every step. A driver resumed at counter `n`
/// ([`EvolutionDriver::resume`], [`MarketSnapshot::restore`]) therefore
/// continues the exact seed sequence an uninterrupted run would have
/// drawn, which is what makes checkpoint → restore → step reproduce an
/// uninterrupted trajectory byte for byte at any thread count.
///
/// Unlike the batch [`evolve`] loop, a driver has no notion of a final
/// round: every shocked round applies its closing perturbation, because
/// a resident market can always be stepped again later (the shock a
/// batch run would deem "unobservable" is observable after a restore).
///
/// The driver additionally owns per-state caches (the candidate
/// enumeration and the per-pair transit structures; see the [module
/// docs](self)). The caches never influence results — they are keyed on
/// the state's identity token and rebuilt cold whenever they do not
/// recognize the state — and are excluded from equality: two drivers
/// compare equal iff they would continue a trajectory identically.
#[derive(Debug, Clone)]
pub struct EvolutionDriver {
    config: EvolutionConfig,
    rounds_done: usize,
    enumeration: Option<EnumerationCache>,
    full: Option<FullEngineCache>,
}

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
fn refresh_enumeration(
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

/// The engine's cross-round cache: per-candidate [`PairTransit`]
/// structures plus the round's reusable index buffers.
///
/// Transit structures are pure functions of the graph and the transit
/// pricing tables (flows never enter — see [`derive_pair_transit`]), so
/// on a static-graph, stable-pricing market they are derived once and
/// reused every round; deriving them used to be roughly half of a full
/// resweep's work. Like the other driver caches this one never
/// influences results: a cache hit returns bitwise what a fresh
/// derivation would, and any key mismatch rebuilds cold.
#[derive(Debug, Clone, Default)]
pub(crate) struct FullEngineCache {
    token: u64,
    graph_version: u64,
    /// Pricing revision the cached transits were derived under; a bump
    /// drops them all (cheaper than tracking which links repriced).
    pricing_epoch: u64,
    /// Parallel to the enumeration: the pair's transit structure,
    /// derived lazily on the first round that evaluates it.
    transit: Vec<Option<PairTransit>>,
    /// Round scratch: this round's non-adopted enumeration indices.
    filtered: Vec<u32>,
    /// Round scratch: filtered indices whose transit slot is empty.
    missing: Vec<u32>,
    /// Ranked outcomes the previous round's adoption scan read — the
    /// size of this round's first ranked chunk. Rounds of one market
    /// scan to similar depths, so one selection usually covers the
    /// whole scan; the size never changes what is adopted.
    scan_depth: usize,
    /// Times the transit table was (re)built cold, including the first.
    pub(crate) rebuilds: usize,
    /// Rounds served with at least a partially warm table.
    pub(crate) reuses: usize,
}

impl FullEngineCache {
    /// Bytes resident in the cache's tables and buffers.
    #[must_use]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.transit.capacity() * std::mem::size_of::<Option<PairTransit>>()
            + self
                .transit
                .iter()
                .flatten()
                .map(PairTransit::heap_bytes)
                .sum::<usize>()
            + (self.filtered.capacity() + self.missing.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Ensures `cache` targets the current `(state, graph)` pair: rebuilds
/// the transit table cold on an identity/topology mismatch, drops every
/// cached transit (in place) on a pricing-epoch bump, and reuses it
/// otherwise. The round scratch buffers carry over in all cases.
fn ensure_full<'a>(
    cache: &'a mut Option<FullEngineCache>,
    state: &MarketState,
    pairs: &[CandidatePair],
) -> &'a mut FullEngineCache {
    let (token, graph_version, pricing_epoch) = (
        state.cache_token(),
        state.graph_version(),
        state.pricing_epoch(),
    );
    let stale = match cache {
        Some(c) => c.token != token || c.graph_version != graph_version,
        None => true,
    };
    if stale {
        let carried = cache.take().unwrap_or_default();
        pan_telemetry::counter("core.cache.full_engine.rebuilds").inc();
        *cache = Some(FullEngineCache {
            token,
            graph_version,
            pricing_epoch,
            transit: vec![None; pairs.len()],
            filtered: carried.filtered,
            missing: carried.missing,
            scan_depth: carried.scan_depth,
            rebuilds: carried.rebuilds + 1,
            reuses: carried.reuses,
        });
    } else {
        let c = cache.as_mut().expect("non-stale cache exists");
        if c.pricing_epoch != pricing_epoch {
            c.pricing_epoch = pricing_epoch;
            c.transit.iter_mut().for_each(|t| *t = None);
            pan_telemetry::counter("core.cache.full_engine.pricing_drops").inc();
        } else {
            c.reuses += 1;
            pan_telemetry::counter("core.cache.full_engine.reuses").inc();
        }
    }
    cache.as_mut().expect("just ensured")
}

impl PartialEq for EvolutionDriver {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.rounds_done == other.rounds_done
    }
}

impl EvolutionDriver {
    /// Creates a driver at round 0.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::InvalidFraction`] /
    /// [`AgreementError::DimensionMismatch`] for invalid configurations.
    pub fn new(config: EvolutionConfig) -> Result<Self> {
        Self::resume(config, 0)
    }

    /// Creates a driver that continues after `rounds_done` earlier
    /// rounds — the restore path.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::InvalidFraction`] /
    /// [`AgreementError::DimensionMismatch`] for invalid configurations.
    pub fn resume(config: EvolutionConfig, rounds_done: usize) -> Result<Self> {
        config.validate()?;
        Ok(EvolutionDriver {
            config,
            rounds_done,
            enumeration: None,
            full: None,
        })
    }

    /// The evolution configuration.
    #[must_use]
    pub fn config(&self) -> &EvolutionConfig {
        &self.config
    }

    /// Rounds applied so far — the RNG round counter a checkpoint
    /// persists.
    #[must_use]
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Approximate bytes the driver's caches keep resident: the
    /// candidate enumeration and the transit cache. Add to
    /// [`MarketState::resident_bytes`] for a session's total footprint.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.enumeration.as_ref().map_or(0, |e| {
            e.pairs.capacity() * std::mem::size_of::<CandidatePair>()
        }) + self
            .full
            .as_ref()
            .map_or(0, FullEngineCache::resident_bytes)
    }

    /// The sub-seed of the next round: the `rounds_done`-th draw of the
    /// sweep's coordinator stream, reconstructed by position so the
    /// sequence is independent of how the driver reached its counter.
    fn next_round_seed(&self, sweep: &ScenarioSweep) -> u64 {
        let mut rng = sweep.coordinator_rng();
        let mut seed = rng.gen();
        for _ in 0..self.rounds_done {
            seed = rng.gen();
        }
        seed
    }

    /// Runs one evolution round on `state`: discover on the current
    /// tables, adopt the best party-disjoint outcomes, apply the closing
    /// shock (if configured), and advance the round counter. Heavy work
    /// fans out over `sweep`; the result is bit-identical at any thread
    /// count.
    ///
    /// Stepping past a fixed point is well-defined: an unshocked
    /// exhausted market keeps producing zero-adoption rounds.
    ///
    /// # Errors
    ///
    /// Propagates evaluation, remapping, and topology errors.
    pub fn step(&mut self, state: &mut MarketState, sweep: &ScenarioSweep) -> Result<RoundOutcome> {
        let started = Instant::now();
        let round = self.rounds_done;
        let round_seed = self.next_round_seed(sweep);
        let round_sweep = sweep.reseeded(round_seed);
        let config = self.config;

        // Candidate enumeration is cached across rounds; it re-runs only
        // when the peering graph (or the state identity) changed.
        {
            let _span = pan_telemetry::histogram("core.phase.enumerate_ns").start();
            refresh_enumeration(&mut self.enumeration, state, config.discovery.policy);
        }
        let pairs = &self
            .enumeration
            .as_ref()
            .expect("enumeration cache was just refreshed")
            .pairs;

        let cache = ensure_full(&mut self.full, state, pairs);
        let scan = full_round(state, &config, &round_sweep, pairs, cache, round)?;
        let total_flow = state.flows.grand_total();

        // Fixed point: an unshocked round without adoptions cannot
        // change state — no later round would differ.
        let fixed_point = scan.agreements.is_empty() && config.shock == 0.0;

        // Shock the market for the next round. Every shocked round
        // perturbs — a resident market can always be stepped later, so
        // there is no "unobservable" closing shock.
        let perturbation = if config.shock > 0.0 {
            let _span = pan_telemetry::histogram("core.phase.shock_ns").start();
            state.perturb(config.shock, &mut pan_runtime::coordinator_rng(round_seed))?
        } else {
            PerturbationRecord::default()
        };

        self.rounds_done += 1;
        pan_telemetry::histogram("core.round_ns").record_duration(started.elapsed());
        Ok(RoundOutcome {
            record: RoundRecord {
                round,
                candidates: scan.candidates,
                concluded_flow_volume: scan.concluded_flow_volume,
                concluded_cash: scan.concluded_cash,
                discovered_surplus: scan.discovered_surplus,
                adopted: scan.agreements.len(),
                adopted_surplus: scan.adopted_surplus,
                new_links: scan.new_links,
                price_shocks: perturbation.price_shocks,
                failed_links: perturbation.failed_links,
                total_flow,
                seconds: started.elapsed().as_secs_f64(),
            },
            agreements: scan.agreements,
            fixed_point,
        })
    }

    /// The enumeration cache, for cache-behavior tests.
    #[cfg(test)]
    pub(crate) fn enumeration_cache(&self) -> Option<&EnumerationCache> {
        self.enumeration.as_ref()
    }

    /// The transit cache, for cache-behavior tests.
    #[cfg(test)]
    pub(crate) fn full_cache(&self) -> Option<&FullEngineCache> {
        self.full.as_ref()
    }
}

/// Keys a cold adoption scan ranks up front per agreement it may
/// adopt. Warm rounds size their first chunk from the previous round's
/// scan depth instead (see `FullEngineCache::scan_depth`): on the 10k-AS
/// markets party-disjointness skips so many hub pairs that a 25-adoption
/// scan reads 13k-25k outcomes.
const RANK_CHUNK_PER_ADOPTION: usize = 4;

/// One round: evaluate every non-adopted candidate, rank, and run the
/// party-disjoint adoption scan.
///
/// The round never assembles a sorted [`DiscoveryReport`]: its
/// aggregates are summed in filtered enumeration order (the report's
/// own [`tally`]), and the adoption scan reads the outcomes through
/// [`ranked_scan`], which ranks compact keys of the outcomes above
/// `min_surplus` a chunk at a time — the order a fully sorted report
/// would give, for only as many outcomes as the scan reaches.
fn full_round(
    state: &mut MarketState,
    config: &EvolutionConfig,
    round_sweep: &ScenarioSweep,
    pairs: &[CandidatePair],
    cache: &mut FullEngineCache,
    round: usize,
) -> Result<RoundScan> {
    // 1. This round's candidate view: the non-adopted enumeration
    // indices, in enumeration order (reusing the cache's buffer). The
    // sweeps below hand workers row-locality tiles of consecutive
    // candidates (see `CANDIDATE_TILE`); per-item RNG streams are still
    // assigned by filtered position, so the jittered path draws exactly
    // what the old filtered-list sweep drew.
    let mut filtered = std::mem::take(&mut cache.filtered);
    {
        let _span = pan_telemetry::histogram("core.phase.enumerate_ns").start();
        filtered.clear();
        filtered.extend(
            pairs
                .iter()
                .enumerate()
                .filter(|(_, p)| !state.is_adopted(p.x, p.y))
                .map(|(index, _)| index as u32),
        );
    }
    let evaluated = {
        let ctx = BatchContext::new(&state.graph, &state.econ, &state.flows)?;
        if config.discovery.noise == 0.0 {
            // Noise-free sweeps evaluate through the shared per-node
            // collapse — one row walk per node per round instead of one
            // per candidate. Transit structures are flow-independent, so
            // they live in the driver's cache across rounds; only the
            // slots emptied by a key change are (re)derived here, in
            // parallel.
            let programs = {
                let _span = pan_telemetry::histogram("core.phase.programs_ns").start();
                NodePrograms::build(
                    &ctx,
                    config.discovery.reroute_share,
                    config.discovery.attract_share,
                )?
            };
            let mut missing = std::mem::take(&mut cache.missing);
            missing.clear();
            missing.extend(
                filtered
                    .iter()
                    .copied()
                    .filter(|&index| cache.transit[index as usize].is_none()),
            );
            if !missing.is_empty() {
                let _span = pan_telemetry::histogram("core.phase.derive_transit_ns").start();
                let derived = round_sweep.map_with_tiled(
                    &missing,
                    CANDIDATE_TILE,
                    || (),
                    |(), _i, &index, _rng| derive_pair_transit(&ctx, pairs[index as usize]),
                );
                for (&index, transit) in missing.iter().zip(derived) {
                    cache.transit[index as usize] = Some(transit);
                }
            }
            cache.missing = missing;
            let transit = &cache.transit;
            let _span = pan_telemetry::histogram("core.phase.evaluate_ns").start();
            round_sweep.map_with_tiled(
                &filtered,
                CANDIDATE_TILE,
                PairScratch::new,
                |scratch, _i, &index, _rng| {
                    evaluate_candidate_with(
                        &ctx,
                        &programs,
                        transit[index as usize]
                            .as_ref()
                            .expect("every filtered pair's transit slot was just filled"),
                        scratch,
                        pairs[index as usize],
                        config.discovery.grid,
                    )
                },
            )
        } else {
            let _span = pan_telemetry::histogram("core.phase.evaluate_ns").start();
            round_sweep.map_with_tiled(
                &filtered,
                CANDIDATE_TILE,
                PairScratch::new,
                |scratch, _i, &index, mut rng| {
                    let (reroute, attract) = config.discovery.jittered_shares(&mut rng);
                    evaluate_candidate(
                        &ctx,
                        scratch,
                        pairs[index as usize],
                        reroute,
                        attract,
                        config.discovery.grid,
                    )
                },
            )
        }
    };
    cache.filtered = filtered;

    // 2. Rank: the round's aggregates in filtered enumeration order, and
    // the first chunk of the adoption ranking. The first error in
    // enumeration order fails the round, as before.
    let rank_span = pan_telemetry::histogram("core.phase.rank_ns").start();
    let outcomes = evaluated
        .into_iter()
        .collect::<Result<Vec<PairOutcome>>>()?;
    let (concluded_flow_volume, concluded_cash, discovered_surplus) = tally(outcomes.iter());
    let first_chunk = config
        .adopt_top
        .saturating_mul(RANK_CHUNK_PER_ADOPTION)
        .max(cache.scan_depth + cache.scan_depth / 4);
    // Per round rather than kept in the cache: the keys are dead once
    // the scan ends, and kept they would sit on top of the next round's
    // evaluation, where a market's memory peaks.
    let mut keys = Vec::new();
    let mut ranked = ranked_scan(&outcomes, config.min_surplus, &mut keys, first_chunk);
    drop(rank_span);

    // 3. Adopt the best adoptable outcomes, best-first, with
    // **disjoint parties**: an AS negotiates at most one agreement
    // per round. This keeps a hub from compounding its attraction
    // within a round and makes the round's adoptions (nearly)
    // independent of adoption order. The ranked scan ends at the first
    // outcome below the threshold.
    let _adopt_span = pan_telemetry::histogram("core.phase.adopt_ns").start();
    let mut busy = vec![false; state.graph.node_count()];
    let mut agreements = Vec::new();
    let mut adopted_surplus = 0.0;
    let mut new_links = 0usize;
    let mut scanned = 0usize;
    while agreements.len() < config.adopt_top {
        let Some(index) = ranked.next() else {
            break;
        };
        scanned += 1;
        // Outcome `index` evaluated filtered candidate `index`; adoption
        // keeps node indices stable, so its parties are the pair's.
        let pair = pairs[cache.filtered[index] as usize];
        let (i, j) = (pair.x as usize, pair.y as usize);
        if busy[i] || busy[j] {
            continue;
        }
        let outcome = &outcomes[index];
        debug_assert_eq!(
            (state.graph.asn_at(pair.x), state.graph.asn_at(pair.y)),
            (outcome.x, outcome.y)
        );
        if let Some(agreement) =
            state.adopt_outcome(outcome, config.discovery.grid, config.min_surplus, round)?
        {
            busy[i] = true;
            busy[j] = true;
            adopted_surplus += agreement.joint_utility;
            new_links += usize::from(agreement.new_link);
            agreements.push(agreement);
        }
    }
    cache.scan_depth = scanned;

    Ok(RoundScan {
        candidates: outcomes.len(),
        concluded_flow_volume,
        concluded_cash,
        discovered_surplus,
        agreements,
        adopted_surplus,
        new_links,
    })
}

/// Runs the multi-round market evolution on `state`; see the [module
/// docs](self) for the loop. Mutates `state` in place (callers keep it
/// for inspection) and returns the trajectory report. Bit-identical at
/// any thread count of `sweep` (timing fields aside — diff via
/// [`EvolutionReport::with_zeroed_timings`]).
///
/// The batch convenience over [`EvolutionDriver`]: steps until the round
/// cap or a fixed point.
///
/// # Errors
///
/// Returns [`AgreementError::InvalidFraction`] /
/// [`AgreementError::DimensionMismatch`] for invalid configurations and
/// propagates evaluation, remapping, and topology errors.
pub fn evolve(
    state: &mut MarketState,
    config: &EvolutionConfig,
    sweep: &ScenarioSweep,
) -> Result<EvolutionReport> {
    let mut driver = EvolutionDriver::new(*config)?;
    let mut report = EvolutionReport {
        rounds: Vec::new(),
        agreements: Vec::new(),
        fixed_point: false,
        total_surplus: 0.0,
    };
    for _ in 0..config.rounds {
        let outcome = driver.step(state, sweep)?;
        report.total_surplus += outcome.record.adopted_surplus;
        report.agreements.extend(outcome.agreements);
        report.rounds.push(outcome.record);
        if outcome.fixed_point {
            report.fixed_point = true;
            break;
        }
    }
    Ok(report)
}

/// Per-AS advisory query: "what should AS X do next?" — evaluate only
/// the candidate pairs involving `asn` on the current market state,
/// ranked by NBS surplus. The serving fast path: a resident 10k-AS
/// market answers in milliseconds because the sweep covers one AS's
/// neighborhood (see [`enumerate_candidates_for`]) instead of all ~157k
/// candidate pairs.
///
/// Already-adopted pairs are excluded. The evaluation uses the
/// configuration's base shares without the per-pair noise jitter: an
/// advisory answer must not depend on which sweep stream a pair would
/// have landed on. Deterministic at any thread count of `pool` (results
/// come back in candidate order and no RNG is involved).
///
/// # Errors
///
/// Returns [`pan_topology::TopologyError::UnknownAs`] (via
/// [`AgreementError::Topology`]) for an AS outside the market, rejects
/// invalid configurations, and propagates evaluation errors.
pub fn advise(
    state: &MarketState,
    config: &DiscoveryConfig,
    asn: Asn,
    top: usize,
    pool: &ThreadPool,
) -> Result<DiscoveryReport> {
    config.validate()?;
    let node = state.graph.index_of(asn)?;
    let candidates: Vec<CandidatePair> =
        enumerate_candidates_for(&state.graph, config.policy, node)
            .into_iter()
            .filter(|p| !state.is_adopted(p.x, p.y))
            .collect();
    let ctx = BatchContext::new(&state.graph, &state.econ, &state.flows)?;
    let evaluated = pool.map_with(&candidates, PairScratch::new, |scratch, _i, &pair| {
        evaluate_candidate(
            &ctx,
            scratch,
            pair,
            config.reroute_share,
            config.attract_share,
            config.grid,
        )
    });
    let mut outcomes = Vec::with_capacity(evaluated.len());
    for outcome in evaluated {
        outcomes.push(outcome?);
    }
    Ok(DiscoveryReport::from_outcomes(outcomes, top))
}

/// Wire-format tag of market checkpoints (the first header field).
pub const SNAPSHOT_FORMAT: &str = "pan-interconnect/market-state";

/// Current version of the checkpoint wire format. Bumped on any change
/// to the serialized shape; [`MarketSnapshot::from_json`] rejects other
/// versions instead of misinterpreting them.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A versioned, self-contained checkpoint of an evolving market: the
/// graph (CSR is rebuilt on restore), the dense pricing and flow tables,
/// the cash ledger, the adopted set (canonically sorted), the RNG round
/// counter, and the run parameters (master seed + evolution config) —
/// everything needed to resume a trajectory or diff it across code
/// versions.
///
/// The JSON encoding round-trips **byte-stably**:
/// `capture → to_json → from_json → restore → capture → to_json`
/// produces identical bytes (floats print in shortest round-trip form,
/// the adopted set is sorted, and no skipped/derived table is part of
/// the wire format).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarketSnapshot {
    format: String,
    version: u32,
    /// Master seed of the evolution's sweeps (restored runs must derive
    /// the same round sub-seed sequence).
    pub seed: u64,
    /// The RNG round counter: rounds already applied to the state.
    pub rounds_done: usize,
    /// The evolution configuration the trajectory is running under.
    pub config: EvolutionConfig,
    graph: AsGraph,
    econ: DenseEconomics,
    flows: FlowMatrix,
    cash: Vec<f64>,
    adopted: Vec<(u32, u32)>,
}

impl MarketSnapshot {
    /// Captures the state and its driver position into a checkpoint.
    #[must_use]
    pub fn capture(state: &MarketState, driver: &EvolutionDriver, seed: u64) -> Self {
        MarketSnapshot {
            format: SNAPSHOT_FORMAT.to_owned(),
            version: SNAPSHOT_VERSION,
            seed,
            rounds_done: driver.rounds_done(),
            config: *driver.config(),
            graph: state.graph.clone(),
            econ: state.econ.clone(),
            flows: state.flows.clone(),
            cash: state.cash.clone(),
            adopted: state.adopted_pairs(),
        }
    }

    /// Serializes the checkpoint as one line of JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoints serialize")
    }

    /// Parses a checkpoint, rejecting unknown formats and versions
    /// before looking at the payload.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::Snapshot`] for malformed JSON, a
    /// foreign format tag, or an unsupported version.
    pub fn from_json(text: &str) -> Result<Self> {
        let snapshot: MarketSnapshot =
            serde_json::from_str(text).map_err(|e| AgreementError::Snapshot {
                reason: format!("malformed checkpoint: {e}"),
            })?;
        if snapshot.format != SNAPSHOT_FORMAT {
            return Err(AgreementError::Snapshot {
                reason: format!(
                    "format tag {:?} is not {SNAPSHOT_FORMAT:?}",
                    snapshot.format
                ),
            });
        }
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(AgreementError::Snapshot {
                reason: format!(
                    "version {} is not the supported version {SNAPSHOT_VERSION}",
                    snapshot.version
                ),
            });
        }
        Ok(snapshot)
    }

    /// Validates the payload, rebuilds the graph's derived tables (ASN
    /// index + CSR adjacency), and reassembles the market and its
    /// driver. The checkpoint's [`seed`](Self::seed) is the master seed
    /// the caller must resume sweeps with.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::Snapshot`] /
    /// [`AgreementError::Topology`] / [`AgreementError::Econ`] when any
    /// component fails its wire-integrity check.
    pub fn restore(self) -> Result<(MarketState, EvolutionDriver)> {
        let MarketSnapshot {
            config,
            rounds_done,
            mut graph,
            econ,
            flows,
            cash,
            adopted,
            ..
        } = self;
        graph.validate()?;
        graph.rebuild_indices();
        econ.validate_shape(&graph)?;
        flows.validate_shape(&graph)?;
        let state = MarketState::from_parts(graph, econ, flows, cash, adopted)?;
        let driver = EvolutionDriver::resume(config, rounds_done)?;
        Ok((state, driver))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{evaluate_candidate_legacy, tests::assert_outcomes_match};
    use crate::CandidatePolicy;
    use pan_econ::{CostFunction, PricingFunction};
    use pan_runtime::ThreadPool;
    use pan_topology::{AsGraphBuilder, Relationship};

    const P: Asn = Asn::new(1); // expensive provider of X
    const B: Asn = Asn::new(2); // cheap provider of Y
    const X: Asn = Asn::new(3);
    const Y: Asn = Asn::new(4);
    const M: Asn = Asn::new(5); // peering middleman (k-hop fixture only)

    /// A market with one glaring arbitrage: X pays provider P a rate of
    /// 5 for 10 units of traffic that Y could exit via provider B at a
    /// rate of 1. `middleman` inserts M between X and Y (X–M–Y peering,
    /// X and Y not adjacent) with an internal cost that makes M itself
    /// useless as a partner — the profitable pair is then 2 hops apart.
    fn arbitrage_state(middleman: bool) -> MarketState {
        let mut b = AsGraphBuilder::new();
        b.add_link(P, X, Relationship::ProviderToCustomer).unwrap();
        b.add_link(B, Y, Relationship::ProviderToCustomer).unwrap();
        if middleman {
            b.add_link(X, M, Relationship::PeerToPeer).unwrap();
            b.add_link(M, Y, Relationship::PeerToPeer).unwrap();
        } else {
            b.add_link(X, Y, Relationship::PeerToPeer).unwrap();
        }
        let graph = b.build().unwrap();
        let econ = DenseEconomics::build(
            &graph,
            |provider, _| {
                PricingFunction::per_usage(if provider == P { 5.0 } else { 1.0 }).unwrap()
            },
            |_| PricingFunction::per_usage(1.0).unwrap(),
            |asn| CostFunction::linear(if asn == M { 3.0 } else { 0.001 }).unwrap(),
        );
        let mut flows = FlowMatrix::zeros(&graph);
        let (px, xp) = (graph.index_of(P).unwrap(), graph.index_of(X).unwrap());
        let pos = graph.neighbor_position(xp, px).unwrap();
        flows.set(xp, pos, 10.0);
        let back = graph.neighbor_position(px, xp).unwrap();
        flows.set(px, back, 10.0);
        MarketState::new(graph, econ, flows).unwrap()
    }

    fn evaluate_pair(state: &MarketState, x: Asn, y: Asn, shares: (f64, f64)) -> PairOutcome {
        let (i, j) = (
            state.graph().index_of(x).unwrap(),
            state.graph().index_of(y).unwrap(),
        );
        let ctx = BatchContext::new(state.graph(), state.econ(), state.flows()).unwrap();
        let mut scratch = PairScratch::new();
        evaluate_candidate(
            &ctx,
            &mut scratch,
            CandidatePair {
                x: i.min(j),
                y: i.max(j),
                peering_hops: 1,
            },
            shares.0,
            shares.1,
            3,
        )
        .unwrap()
    }

    #[test]
    fn adoption_drains_the_opportunity_to_a_fixed_point() {
        let mut state = arbitrage_state(false);
        let before = evaluate_pair(&state, X, Y, (1.0, 0.0));
        let cash = before.cash.expect("the arbitrage concludes");
        assert!(
            before.surplus > 39.0,
            "surplus ≈ 40, got {}",
            before.surplus
        );
        assert_eq!(cash.reroute, 1.0, "all traffic moves at the optimum");

        let agreement = state
            .adopt_outcome(&before, 3, 1e-6, 0)
            .unwrap()
            .expect("adoptable");
        assert!(!agreement.new_link, "the parties already peer");
        assert!((agreement.joint_utility - before.surplus).abs() < 1e-12);

        // Fixed-point sanity: the adopted operating point consumed the
        // entire priced opportunity, so re-evaluating the same pair on
        // the materialized flows finds ~zero residual surplus.
        let after = evaluate_pair(&state, X, Y, (1.0, 0.0));
        assert!(
            after.surplus.abs() < 1e-9,
            "residual surplus after adoption: {}",
            after.surplus
        );
        assert!(after.cash.is_none() && after.flow_volume.is_none());

        // The rerouted volume is on the peering link and Y's exit, and
        // X's provider link is empty.
        let g = state.graph();
        let (xi, yi) = (g.index_of(X).unwrap(), g.index_of(Y).unwrap());
        let (pi, bi) = (g.index_of(P).unwrap(), g.index_of(B).unwrap());
        let flow = |a: u32, b: u32| state.flows().flow(a, g.neighbor_position(a, b).unwrap());
        assert_eq!(flow(xi, pi), 0.0);
        assert_eq!(flow(xi, yi), 10.0);
        assert_eq!(flow(yi, bi), 10.0);
        assert_eq!(flow(bi, yi), 10.0, "mirror entries stay symmetric");

        // The NBS transfer landed on the ledgers, conserving cash.
        assert!((state.cash_balance(xi) + agreement.transfer_x_to_y).abs() < 1e-12);
        assert!((state.cash_balance(yi) - agreement.transfer_x_to_y).abs() < 1e-12);

        // Re-adoption of an adopted pair is a no-op.
        assert!(state.adopt_outcome(&before, 3, 1e-6, 1).unwrap().is_none());
    }

    fn arbitrage_config(policy: CandidatePolicy) -> EvolutionConfig {
        EvolutionConfig {
            discovery: DiscoveryConfig {
                policy,
                reroute_share: 1.0,
                attract_share: 0.0,
                grid: 3,
                noise: 0.0,
                top: 0,
            },
            rounds: 10,
            adopt_top: 5,
            min_surplus: 1e-6,
            shock: 0.0,
        }
    }

    #[test]
    fn evolve_reaches_a_fixed_point_on_the_arbitrage_market() {
        let mut state = arbitrage_state(false);
        let config = arbitrage_config(CandidatePolicy::PeeringAdjacent);
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(7)).unwrap();
        assert!(report.fixed_point, "unshocked runs terminate");
        assert_eq!(report.rounds.len(), 2, "adopt, then verify exhaustion");
        assert_eq!(report.rounds[0].adopted, 1);
        assert_eq!(report.rounds[1].adopted, 0);
        assert_eq!(report.total_adopted(), 1);
        assert_eq!((report.agreements[0].x, report.agreements[0].y), (X, Y));
        assert_eq!(report.agreements[0].round, 0);
        assert!(report.total_surplus > 39.0);
        assert_eq!(state.adopted_count(), 1);
    }

    #[test]
    fn prospective_adoption_registers_the_peering_link() {
        let mut state = arbitrage_state(true);
        let g = state.graph();
        let (xi, yi) = (g.index_of(X).unwrap(), g.index_of(Y).unwrap());
        assert_eq!(g.neighbor_kind_by_index(xi, yi), None, "not yet adjacent");
        let link_count = g.link_count();

        let config = arbitrage_config(CandidatePolicy::PeeringKHop {
            k: 2,
            per_source_cap: 0,
        });
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(7)).unwrap();
        assert!(report.fixed_point);
        let adopted = &report.agreements;
        assert_eq!(adopted.len(), 1, "only the 2-hop pair profits: {adopted:?}");
        assert_eq!((adopted[0].x, adopted[0].y), (X, Y));
        assert_eq!(adopted[0].peering_hops, 2);
        assert!(adopted[0].new_link);
        assert_eq!(report.rounds[0].new_links, 1);

        // The adjacency, tables, and flows all moved onto the new link.
        let g = state.graph();
        assert_eq!(g.link_count(), link_count + 1);
        assert_eq!(
            g.neighbor_kind_by_index(xi, yi),
            Some(NeighborKind::Peer),
            "adoption registered settlement-free peering"
        );
        let pos = g.neighbor_position(xi, yi).unwrap();
        assert_eq!(state.econ().entry(xi, pos).sign, 0.0);
        assert_eq!(state.flows().flow(xi, pos), 10.0, "rerouted volume");
    }

    /// Deterministic heterogeneous economics for synthetic internets —
    /// same construction as the discovery equivalence test.
    fn synthetic_state(ases: usize, seed: u64) -> MarketState {
        use pan_datasets::{InternetConfig, SyntheticInternet};
        let net = SyntheticInternet::generate(
            &InternetConfig {
                num_ases: ases,
                tier1_count: 6,
                ..InternetConfig::default()
            },
            seed,
        )
        .unwrap();
        let econ = DenseEconomics::build(
            &net.graph,
            |provider, customer| {
                let salt = u64::from(provider.get()) * 31 + u64::from(customer.get());
                PricingFunction::per_usage(1.0 + (salt % 17) as f64 * 0.25).unwrap()
            },
            |asn| PricingFunction::per_usage(2.0 + f64::from(asn.get() % 3)).unwrap(),
            |asn| CostFunction::linear(0.02 + f64::from(asn.get() % 5) * 0.01).unwrap(),
        );
        let flows = FlowMatrix::degree_gravity(&net.graph, 0.5);
        MarketState::new(net.graph.clone(), econ, flows).unwrap()
    }

    #[test]
    fn evolution_is_thread_count_independent() {
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                noise: 0.15,
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 3,
            adopt_top: 5,
            min_surplus: 1e-3,
            shock: 0.4,
        };
        let reference = {
            let mut state = synthetic_state(200, 23);
            evolve(&mut state, &config, &ScenarioSweep::sequential(9)).unwrap()
        };
        assert!(
            reference.total_adopted() > 0,
            "the synthetic market must trade"
        );
        assert!(
            reference
                .rounds
                .iter()
                .any(|r| r.price_shocks + r.failed_links > 0),
            "shocks must fire across 3 rounds"
        );
        for threads in [2, 4] {
            let mut state = synthetic_state(200, 23);
            let parallel = evolve(
                &mut state,
                &config,
                &ScenarioSweep::new(ThreadPool::new(threads), 9),
            )
            .unwrap();
            assert_eq!(
                reference.with_zeroed_timings(),
                parallel.with_zeroed_timings(),
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn dense_and_legacy_agree_after_adoption() {
        // Satellite: materializing agreements must keep the dense tables
        // equivalent to the sparse stack — evaluate the post-adoption
        // market with both engines.
        let mut state = synthetic_state(260, 23);
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                grid: 4,
                ..DiscoveryConfig::default()
            },
            rounds: 1,
            adopt_top: 8,
            min_surplus: 1e-6,
            shock: 0.0,
        };
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(5)).unwrap();
        assert!(report.total_adopted() > 0, "nothing was adopted");

        let graph = state.graph();
        let model = state.econ().to_business_model(graph);
        let candidates =
            crate::discovery::enumerate_candidates(graph, CandidatePolicy::PeeringAdjacent);
        let ctx = BatchContext::new(graph, state.econ(), state.flows()).unwrap();
        let mut scratch = PairScratch::new();
        let mut compared = 0usize;
        for &pair in candidates.iter().step_by(11) {
            let dense = evaluate_candidate(&ctx, &mut scratch, pair, 0.5, 0.2, 4).unwrap();
            let fx = state.flows().to_flow_vec(graph, pair.x);
            let fy = state.flows().to_flow_vec(graph, pair.y);
            let legacy = evaluate_candidate_legacy(&model, &fx, &fy, 0.5, 0.2, 4).unwrap();
            assert_outcomes_match(&dense, &legacy, 1e-6);
            compared += 1;
        }
        assert!(compared > 20);
        // And the full Eq. (1) utilities agree AS by AS.
        for i in 0..graph.node_count() as u32 {
            let f = state.flows().to_flow_vec(graph, i);
            let sparse = model.utility(&f).unwrap();
            let dense = state.econ().utility(state.flows(), i).unwrap();
            assert!(
                (sparse - dense).abs() < 1e-6,
                "AS {}: {sparse} vs {dense}",
                graph.asn_at(i)
            );
        }
    }

    #[test]
    fn cash_ledger_is_conserved() {
        let mut state = synthetic_state(200, 23);
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 2,
            adopt_top: 10,
            min_surplus: 1e-6,
            shock: 0.0,
        };
        let report = evolve(&mut state, &config, &ScenarioSweep::sequential(3)).unwrap();
        assert!(report.total_adopted() > 0);
        let net: f64 = (0..state.graph().node_count() as u32)
            .map(|i| state.cash_balance(i))
            .sum();
        assert!(net.abs() < 1e-9, "transfers are zero-sum, net {net}");
        let moved: f64 = report
            .agreements
            .iter()
            .map(|a| a.transfer_x_to_y.abs())
            .sum();
        assert!(moved > 0.0, "some compensation must flow");
    }

    #[test]
    fn driver_steps_reproduce_the_batch_evolve_loop() {
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                noise: 0.1,
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 4,
            adopt_top: 6,
            min_surplus: 1e-3,
            shock: 0.35,
        };
        let sweep = ScenarioSweep::sequential(11);
        let batch = {
            let mut state = synthetic_state(200, 23);
            evolve(&mut state, &config, &sweep).unwrap()
        };
        let mut state = synthetic_state(200, 23);
        let mut driver = EvolutionDriver::new(config).unwrap();
        for (i, expected) in batch.rounds.iter().enumerate() {
            assert_eq!(driver.rounds_done(), i);
            let outcome = driver.step(&mut state, &sweep).unwrap();
            assert_eq!(
                outcome.record.with_zeroed_timing(),
                expected.with_zeroed_timing(),
                "round {i} diverged"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable_and_restores_the_state() {
        let mut state = synthetic_state(200, 23);
        let config = arbitrage_config(CandidatePolicy::PeeringAdjacent);
        let sweep = ScenarioSweep::sequential(5);
        let mut driver = EvolutionDriver::new(config).unwrap();
        driver.step(&mut state, &sweep).unwrap();
        assert!(state.adopted_count() > 0, "the fixture must trade");

        let snapshot = MarketSnapshot::capture(&state, &driver, sweep.master_seed());
        let json = snapshot.to_json();
        let (restored, restored_driver) =
            MarketSnapshot::from_json(&json).unwrap().restore().unwrap();
        assert_eq!(restored_driver, driver);
        // Byte-stable: re-capturing the restored state reproduces the
        // exact checkpoint bytes.
        let json2 =
            MarketSnapshot::capture(&restored, &restored_driver, sweep.master_seed()).to_json();
        assert_eq!(json, json2, "checkpoint round trip must be byte-stable");
        // And the restored market behaves identically.
        assert_eq!(restored.adopted_pairs(), state.adopted_pairs());
        for i in 0..state.graph().node_count() as u32 {
            assert_eq!(restored.cash_balance(i), state.cash_balance(i));
        }
    }

    #[test]
    fn restore_continues_the_uninterrupted_trajectory() {
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                noise: 0.1,
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 6,
            adopt_top: 5,
            min_surplus: 1e-3,
            shock: 0.3,
        };
        let sweep = ScenarioSweep::sequential(17);
        let uninterrupted = {
            let mut state = synthetic_state(200, 23);
            evolve(&mut state, &config, &sweep).unwrap()
        };
        assert_eq!(uninterrupted.rounds.len(), 6, "shocked runs hit the cap");

        // Step 3 rounds, checkpoint, drop everything, restore, step 3 more.
        let mut state = synthetic_state(200, 23);
        let mut driver = EvolutionDriver::new(config).unwrap();
        let mut records = Vec::new();
        for _ in 0..3 {
            records.push(driver.step(&mut state, &sweep).unwrap().record);
        }
        let json = MarketSnapshot::capture(&state, &driver, sweep.master_seed()).to_json();
        drop((state, driver));

        let (mut state, mut driver) = MarketSnapshot::from_json(&json).unwrap().restore().unwrap();
        // Resume on a *different* thread count to prove both properties at
        // once: the trajectory is seed-positional, not schedule-dependent.
        let resumed_sweep = ScenarioSweep::new(ThreadPool::new(4), json_seed(&json));
        for _ in 0..3 {
            records.push(driver.step(&mut state, &resumed_sweep).unwrap().record);
        }
        let stitched: Vec<RoundRecord> = records
            .into_iter()
            .map(RoundRecord::with_zeroed_timing)
            .collect();
        let reference: Vec<RoundRecord> = uninterrupted
            .rounds
            .iter()
            .map(|r| r.with_zeroed_timing())
            .collect();
        assert_eq!(stitched, reference, "restored trajectory diverged");
    }

    /// Reads the master seed back out of a checkpoint, as a serving
    /// layer would.
    fn json_seed(json: &str) -> u64 {
        MarketSnapshot::from_json(json).unwrap().seed
    }

    #[test]
    fn snapshots_reject_foreign_headers_and_corrupt_payloads() {
        let mut state = arbitrage_state(false);
        let config = arbitrage_config(CandidatePolicy::PeeringAdjacent);
        let sweep = ScenarioSweep::sequential(5);
        let mut driver = EvolutionDriver::new(config).unwrap();
        driver.step(&mut state, &sweep).unwrap();
        let snapshot = MarketSnapshot::capture(&state, &driver, 5);

        assert!(matches!(
            MarketSnapshot::from_json("not json"),
            Err(AgreementError::Snapshot { .. })
        ));
        let mut wrong = snapshot.clone();
        wrong.format = "something-else".to_owned();
        assert!(matches!(
            MarketSnapshot::from_json(&wrong.to_json()),
            Err(AgreementError::Snapshot { .. })
        ));
        let mut wrong = snapshot.clone();
        wrong.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            MarketSnapshot::from_json(&wrong.to_json()),
            Err(AgreementError::Snapshot { .. })
        ));
        // Corrupt payloads die in restore's validation, not in a panic.
        let mut wrong = snapshot.clone();
        wrong.adopted.push((3, 3));
        assert!(wrong.restore().is_err(), "non-normalized adopted pair");
        let mut wrong = snapshot.clone();
        wrong.cash[0] = f64::INFINITY;
        assert!(wrong.restore().is_err(), "non-finite ledger balance");
        let mut wrong = snapshot.clone();
        wrong.cash.pop();
        assert!(wrong.restore().is_err(), "mis-sized ledger");
        snapshot.restore().expect("the pristine snapshot restores");
    }

    #[test]
    fn advise_finds_the_arbitrage_pair_for_both_parties() {
        let state = arbitrage_state(false);
        let config = DiscoveryConfig {
            reroute_share: 1.0,
            attract_share: 0.0,
            grid: 3,
            ..DiscoveryConfig::default()
        };
        let pool = ThreadPool::new(1);
        for party in [X, Y] {
            let report = advise(&state, &config, party, 0, &pool).unwrap();
            assert_eq!(report.candidates, 1, "one peer, one candidate");
            let best = &report.outcomes[0];
            assert_eq!((best.x, best.y), (X, Y));
            assert!(best.surplus > 39.0, "advise must see the arbitrage");
        }
        // A bystander has no profitable agreement to be advised about.
        let report = advise(&state, &config, P, 0, &pool).unwrap();
        assert!(report.outcomes.iter().all(|o| o.cash.is_none()));
        // Unknown ASes error instead of answering emptily.
        assert!(advise(&state, &config, Asn::new(999), 0, &pool).is_err());
    }

    #[test]
    fn advise_skips_adopted_pairs_and_matches_the_full_sweep() {
        let mut state = synthetic_state(200, 23);
        let config = DiscoveryConfig {
            grid: 3,
            ..DiscoveryConfig::default()
        };
        let pool = ThreadPool::new(2);
        // Pick the AS with the most peers so the advisory list is rich.
        let graph = state.graph();
        let node = (0..graph.node_count() as u32)
            .max_by_key(|&i| graph.peer_indices(i).len())
            .unwrap();
        let asn = graph.asn_at(node);

        let report = advise(&state, &config, asn, 0, &pool).unwrap();
        assert!(report.candidates > 1);
        // Every advisory outcome matches the corresponding pair of a full
        // (noise-free) discovery sweep.
        let ctx = BatchContext::new(state.graph(), state.econ(), state.flows()).unwrap();
        let full =
            crate::discovery::discover(&ctx, &config, &ScenarioSweep::sequential(1)).unwrap();
        for outcome in &report.outcomes {
            let twin = full
                .outcomes
                .iter()
                .find(|o| (o.x, o.y) == (outcome.x, outcome.y))
                .expect("advisory pairs are a subset of the full sweep");
            assert_eq!(outcome, twin, "advise diverged from discover");
        }

        // Adopt the best advisory outcome; it must vanish from the next
        // advisory answer.
        let best = report.outcomes[0].clone();
        assert!(best.cash.is_some(), "the synthetic market must trade");
        state
            .adopt_outcome(&best, config.grid, 1e-9, 0)
            .unwrap()
            .unwrap();
        let after = advise(&state, &config, asn, 0, &pool).unwrap();
        assert_eq!(after.candidates, report.candidates - 1);
        assert!(after
            .outcomes
            .iter()
            .all(|o| (o.x, o.y) != (best.x, best.y)));
    }

    #[test]
    fn invalid_evolution_configs_are_rejected() {
        let mut state = arbitrage_state(false);
        let sweep = ScenarioSweep::sequential(1);
        for config in [
            EvolutionConfig {
                rounds: 0,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                adopt_top: 0,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                shock: 1.5,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                min_surplus: f64::NAN,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                min_surplus: f64::INFINITY,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                min_surplus: -1.0,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                discovery: DiscoveryConfig {
                    grid: 1,
                    ..DiscoveryConfig::default()
                },
                ..EvolutionConfig::default()
            },
        ] {
            assert!(
                evolve(&mut state, &config, &sweep).is_err(),
                "{config:?} must be rejected"
            );
        }
        assert!(
            state
                .adopt_outcome(
                    &evaluate_pair(&state, X, Y, (1.0, 0.0)),
                    3,
                    f64::INFINITY,
                    0
                )
                .is_err(),
            "non-finite thresholds are rejected"
        );
    }

    #[test]
    fn generation_tracks_adoptions_and_perturbations() {
        let mut state = arbitrage_state(false);
        assert_eq!(state.generation(), 0);
        let outcome = evaluate_pair(&state, X, Y, (1.0, 0.0));
        state.adopt_outcome(&outcome, 3, 1e-6, 0).unwrap().unwrap();
        assert_eq!(state.generation(), 1, "adoption bumps the revision");
        // A refused re-adoption leaves the state (and counter) untouched.
        assert!(state.adopt_outcome(&outcome, 3, 1e-6, 1).unwrap().is_none());
        assert_eq!(state.generation(), 1);
        // Every perturbation pass bumps, whatever it ends up drawing.
        let mut rng = pan_runtime::coordinator_rng(9);
        state.perturb(0.2, &mut rng).unwrap();
        assert_eq!(state.generation(), 2);
        // Clones inherit the counter (they inherit the state it counts);
        // a rebuilt state starts over — cross-instance comparisons are
        // meaningless, which is why caches die with the instance.
        assert_eq!(state.clone().generation(), 2);
        assert_eq!(arbitrage_state(false).generation(), 0);
    }

    #[test]
    fn candidate_enumeration_is_cached_until_the_graph_changes() {
        // Static peering graph (PeeringAdjacent adoptions never create
        // links): one rebuild, then reuses.
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 3,
            adopt_top: 5,
            min_surplus: 1e-3,
            shock: 0.0,
        };
        let sweep = ScenarioSweep::sequential(9);
        let mut state = synthetic_state(200, 23);
        let mut driver = EvolutionDriver::new(config).unwrap();
        for _ in 0..3 {
            driver.step(&mut state, &sweep).unwrap();
        }
        let cache = driver.enumeration_cache().unwrap();
        assert_eq!(cache.rebuilds, 1, "static graphs enumerate once");
        assert_eq!(cache.reuses, 2);

        // A cloned state is a *different* state (fresh identity token):
        // stepping it through the same driver must not reuse the cache.
        let mut other = state.clone();
        driver.step(&mut other, &sweep).unwrap();
        assert_eq!(driver.enumeration_cache().unwrap().rebuilds, 2);

        // A prospective (k-hop) adoption registers a new peering link,
        // which invalidates the enumeration on the next round.
        let mut state = arbitrage_state(true);
        let config = arbitrage_config(CandidatePolicy::PeeringKHop {
            k: 2,
            per_source_cap: 0,
        });
        let sweep = ScenarioSweep::sequential(7);
        let mut driver = EvolutionDriver::new(config).unwrap();
        let adopted = driver.step(&mut state, &sweep).unwrap();
        assert_eq!(adopted.record.new_links, 1, "the fixture adds a link");
        driver.step(&mut state, &sweep).unwrap();
        let cache = driver.enumeration_cache().unwrap();
        assert_eq!(cache.rebuilds, 2, "the new link forces a re-enumeration");
        assert_eq!(cache.reuses, 0);
    }

    #[test]
    fn full_engine_transit_cache_reuses_across_static_rounds() {
        // Static peering graph, no shocks: the transit table fills on
        // round 0 and later rounds reuse it — while producing exactly
        // the trajectory a cache-less driver (fresh per round, so every
        // transit re-derived) produces.
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                grid: 3,
                ..DiscoveryConfig::default()
            },
            rounds: 3,
            adopt_top: 5,
            min_surplus: 1e-3,
            shock: 0.0,
        };
        let sweep = ScenarioSweep::sequential(9);
        let mut state = synthetic_state(200, 23);
        let mut driver = EvolutionDriver::new(config).unwrap();
        let mut warm = Vec::new();
        for _ in 0..3 {
            warm.push(driver.step(&mut state, &sweep).unwrap());
        }
        let cache = driver.full_cache().expect("full engine engaged");
        assert_eq!(cache.rebuilds, 1, "static graphs derive transits once");
        assert_eq!(cache.reuses, 2);
        assert!(
            driver.resident_bytes() > 0 && state.resident_bytes() > 0,
            "resident accounting covers the caches and the state"
        );

        let mut cold_state = synthetic_state(200, 23);
        for (round, outcome) in warm.iter().enumerate() {
            let mut cold = EvolutionDriver::resume(config, round).unwrap();
            let fresh = cold.step(&mut cold_state, &sweep).unwrap();
            assert_eq!(
                fresh.record.with_zeroed_timing(),
                outcome.record.with_zeroed_timing(),
                "round {round} diverged from the cold reference"
            );
            assert_eq!(fresh.agreements, outcome.agreements);
        }
    }

    /// Out-of-band mutation between driver rounds, mimicking a serving
    /// layer adopting an advisory answer on the resident market: the
    /// driver's cross-round caches must not hide the change from the
    /// next round.
    fn external_adopt(state: &mut MarketState, config: &EvolutionConfig, round: usize) {
        let graph = state.graph();
        let node = (0..graph.node_count() as u32)
            .max_by_key(|&i| graph.peer_indices(i).len())
            .unwrap();
        let asn = graph.asn_at(node);
        let report = advise(state, &config.discovery, asn, 0, &ThreadPool::new(1)).unwrap();
        let best = report
            .outcomes
            .iter()
            .find(|o| o.cash.is_some() && o.surplus > config.min_surplus)
            .cloned();
        if let Some(best) = best {
            state
                .adopt_outcome(&best, config.discovery.grid, config.min_surplus, round)
                .unwrap();
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// Random markets, random run parameters, random
            /// interleavings of {rounds, shocks, external adoptions}: a
            /// warm driver, at threads 1 and 4, must produce the
            /// trajectory and checkpoint of a cold driver rebuilt every
            /// round (every cross-round cache empty).
            #[test]
            fn random_markets_evolve_identically_on_warm_and_cold_drivers(
                ases in 200usize..320,
                net_seed in 0u64..64,
                master_seed in 0u64..64,
                shock in prop_oneof![Just(0.0), Just(0.3)],
                adopt_top in 3usize..9,
                rounds in 2usize..5,
                external in prop::bool::ANY,
            ) {
                let config = EvolutionConfig {
                    discovery: DiscoveryConfig {
                        grid: 3,
                        ..DiscoveryConfig::default()
                    },
                    rounds,
                    adopt_top,
                    min_surplus: 1e-3,
                    shock,
                };
                let run = |sweep: &ScenarioSweep, cold: bool| {
                    let mut state = synthetic_state(ases, net_seed);
                    let mut driver = EvolutionDriver::new(config).unwrap();
                    let mut records = Vec::new();
                    let mut agreements = Vec::new();
                    for round in 0..rounds {
                        if cold {
                            driver = EvolutionDriver::resume(config, round).unwrap();
                        }
                        let outcome = driver.step(&mut state, sweep).unwrap();
                        records.push(outcome.record.with_zeroed_timing());
                        agreements.extend(outcome.agreements);
                        if external && round == 0 {
                            external_adopt(&mut state, &config, round);
                        }
                    }
                    let json =
                        MarketSnapshot::capture(&state, &driver, sweep.master_seed()).to_json();
                    (records, agreements, json)
                };
                let t1 = ScenarioSweep::sequential(master_seed);
                let t4 = ScenarioSweep::new(ThreadPool::new(4), master_seed);
                let cold = run(&t1, true);
                let warm_t1 = run(&t1, false);
                prop_assert_eq!(&cold, &warm_t1, "t1 warm driver diverged");
                let warm_t4 = run(&t4, false);
                prop_assert_eq!(&cold, &warm_t4, "t4 warm driver diverged");
            }
        }
    }
}
