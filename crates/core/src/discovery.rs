//! Topology-wide agreement discovery: which AS pairs profit from
//! mutuality agreements?
//!
//! The paper's central question is answered by the per-pair stack
//! ([`AgreementScenario`] + the §IV optimizers) one hand-picked pair at a
//! time. This module asks it for **every candidate pair of an entire
//! synthetic internet** at once:
//!
//! 1. [`enumerate_candidates`] walks the CSR topology for candidate
//!    `(X, Y)` pairs — existing peers ([`CandidatePolicy::PeeringAdjacent`])
//!    or prospective partners within `k` hops of the peering mesh
//!    ([`CandidatePolicy::PeeringKHop`]).
//! 2. [`evaluate_candidate`] computes both parties' agreement utilities
//!    (Eq. 3/7) **incrementally** on the dense
//!    [`FlowMatrix`]/[`DenseEconomics`] tables: a candidate touches
//!    `O(degree)` row entries, each contributing a per-entry price delta,
//!    so no flow vectors are cloned and no maps are hashed. Because the
//!    touched deltas are linear in the uniform operating point `(r, a)`,
//!    linear pricing collapses into two scalars per party and the
//!    operating-point grid of Eq. (9)/(10) costs almost nothing.
//! 3. [`discover`] fans the candidate list out over a
//!    [`ScenarioSweep`] (per-worker scratch buffers, per-item RNG
//!    streams) and returns the concluded agreements ranked by NBS
//!    surplus — bit-identical at any thread count.
//!
//! The evolution engine (`dynamics`) runs the hotter
//! *programmed* variant instead: `NodePrograms` precomputes each
//! node's linear reroute/attract collapse **and** its transit-price
//! collapse (Σ sign·rate over the row, plus the nonlinear residue), and
//! a per-pair `PairTransit` summary subtracts the handful of excluded
//! targets (the beneficiary and its customers) from those per-node
//! totals. The per-round cost of the transit correction thus scales
//! with the excluded few instead of the ~1,500 targets an average hub
//! pair fans out to — the difference between streaming ~234M row
//! entries per 157k-pair round and touching almost none.
//!
//! [`evaluate_candidate_legacy`] runs the same grid through the original
//! allocation-heavy [`AgreementScenario`] path; it is the correctness
//! oracle for the dense engine and the "before" side of the
//! `BENCH_discovery.json` comparison.

use std::cmp::Ordering;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use pan_econ::{DenseEconomics, FlowMatrix, FlowVec};
use pan_runtime::ScenarioSweep;
use pan_topology::{AsGraph, Asn, NeighborKind};

use crate::cash::JOINT_TOLERANCE;
use crate::flow_volume::UTILITY_TOLERANCE;
use crate::nash::bargaining_transfer;
use crate::utility::{evaluate, OperatingPoint};
use crate::{Agreement, AgreementError, AgreementScenario, Result};

/// Tile width for candidate sweeps: workers claim runs of this many
/// consecutive candidates at a time. The enumeration is sorted by
/// primary row, so a tile's candidates share their `x`-side rows and
/// the touched `FlowMatrix`/`DenseEconomics` lanes stay cache-resident
/// across the run. Tiling only changes worker assignment, never what a
/// candidate computes (see `ThreadPool::run_with_tiled`), so any value
/// here is bit-identical; 256 candidates cover a few hub rows' worth of
/// entries without starving short sweeps of parallelism.
pub(crate) const CANDIDATE_TILE: usize = 256;

/// How candidate pairs are drawn from the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidatePolicy {
    /// Every existing peering link — the §VI population (a mutuality
    /// agreement upgrades an existing settlement-free relationship).
    PeeringAdjacent,
    /// Every pair within `k` hops of the peering mesh: `k = 1` equals
    /// [`PeeringAdjacent`](Self::PeeringAdjacent); larger `k` adds
    /// prospective partners that would first have to establish peering —
    /// pairs already holding a *transit* relationship are excluded, as
    /// they cannot additionally peer.
    /// `per_source_cap` bounds the pairs contributed per source AS
    /// (`0` = unbounded) — open-peering hubs otherwise make the 2-hop
    /// neighborhood quadratic. Each BFS level is enumerated in full
    /// before the cap applies; if the cap lands inside a level, the
    /// level's pairs are ranked by neighbor ASN and the smallest fill
    /// the remaining budget. The surviving set is therefore a canonical
    /// function of the topology — it cannot depend on CSR neighbor
    /// order, as a mid-level break would.
    PeeringKHop {
        /// Maximum peering-mesh distance.
        k: u8,
        /// Maximum candidate pairs per source AS (0 = unbounded),
        /// filled in BFS-level order with an ASN tie-break inside the
        /// last level.
        per_source_cap: usize,
    },
}

/// A candidate pair, by dense node index (`x < y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidatePair {
    /// First party (dense node index).
    pub x: u32,
    /// Second party (dense node index).
    pub y: u32,
    /// Distance of the pair in the peering mesh (1 = existing peers).
    pub peering_hops: u8,
}

/// Enumerates candidate pairs in deterministic order (ascending source
/// index, then CSR neighbor order / BFS discovery order).
#[must_use]
pub fn enumerate_candidates(graph: &AsGraph, policy: CandidatePolicy) -> Vec<CandidatePair> {
    let n = graph.node_count() as u32;
    let mut pairs = Vec::new();
    match policy {
        CandidatePolicy::PeeringAdjacent => {
            for x in 0..n {
                for &y in graph.peer_indices(x) {
                    if y > x {
                        pairs.push(CandidatePair {
                            x,
                            y,
                            peering_hops: 1,
                        });
                    }
                }
            }
        }
        CandidatePolicy::PeeringKHop { k, per_source_cap } => {
            let k = k.max(1);
            // Per-source BFS over peer links with a stamp array; visited
            // nodes are collected in discovery order.
            let mut stamp = vec![u32::MAX; n as usize];
            let mut frontier: Vec<u32> = Vec::new();
            let mut next: Vec<u32> = Vec::new();
            let mut level: Vec<u32> = Vec::new();
            for x in 0..n {
                stamp[x as usize] = x;
                frontier.clear();
                frontier.push(x);
                let mut contributed = 0usize;
                for depth in 1..=k {
                    next.clear();
                    level.clear();
                    for &u in &frontier {
                        for &v in graph.peer_indices(u) {
                            if stamp[v as usize] == x {
                                continue;
                            }
                            stamp[v as usize] = x;
                            next.push(v);
                            // A prospective pair must be free to establish
                            // peering: a pair that is k hops apart in the
                            // peering mesh can still be directly linked by
                            // a transit relationship, which rules it out
                            // (depth 1 pairs are peers by construction).
                            if v > x && (depth == 1 || graph.neighbor_kind_by_index(x, v).is_none())
                            {
                                level.push(v);
                            }
                        }
                    }
                    // The cap only ever applies to a *fully enumerated*
                    // level. When it lands inside one, the level's pairs
                    // are ranked by neighbor ASN and the smallest fill
                    // the remaining budget — a canonical selection that
                    // cannot depend on CSR neighbor order, as the old
                    // mid-level break did.
                    let truncated =
                        if per_source_cap > 0 && contributed + level.len() > per_source_cap {
                            level.sort_unstable_by_key(|&v| graph.asn_at(v));
                            level.truncate(per_source_cap - contributed);
                            true
                        } else {
                            false
                        };
                    contributed += level.len();
                    for &v in &level {
                        pairs.push(CandidatePair {
                            x,
                            y: v,
                            peering_hops: depth,
                        });
                    }
                    if truncated || (per_source_cap > 0 && contributed >= per_source_cap) {
                        break;
                    }
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
        }
    }
    pairs
}

/// Enumerates only the candidate pairs involving one AS — the serving
/// fast path behind per-AS advisory queries: instead of sweeping every
/// candidate of the topology, walk just `node`'s peering neighborhood
/// under the same policy rules as [`enumerate_candidates`].
///
/// The policy is applied from `node`'s perspective: its peers for
/// [`CandidatePolicy::PeeringAdjacent`], a BFS over the peering mesh for
/// [`CandidatePolicy::PeeringKHop`] (transit-linked pairs excluded, the
/// per-source cap filled in level order with the same canonical ASN
/// tie-break inside the last level). Unlike the full enumeration — where
/// each pair is emitted from its lower-indexed endpoint only — every
/// partner of `node` counts, on either side; pairs are normalized
/// (`x < y`) and returned in deterministic neighborhood order.
#[must_use]
pub fn enumerate_candidates_for(
    graph: &AsGraph,
    policy: CandidatePolicy,
    node: u32,
) -> Vec<CandidatePair> {
    let normalized = |partner: u32, depth: u8| CandidatePair {
        x: node.min(partner),
        y: node.max(partner),
        peering_hops: depth,
    };
    let mut pairs = Vec::new();
    match policy {
        CandidatePolicy::PeeringAdjacent => {
            for &y in graph.peer_indices(node) {
                pairs.push(normalized(y, 1));
            }
        }
        CandidatePolicy::PeeringKHop { k, per_source_cap } => {
            let k = k.max(1);
            let mut stamp = vec![false; graph.node_count()];
            stamp[node as usize] = true;
            let mut frontier = vec![node];
            let mut next: Vec<u32> = Vec::new();
            let mut level: Vec<u32> = Vec::new();
            let mut contributed = 0usize;
            for depth in 1..=k {
                next.clear();
                level.clear();
                for &u in &frontier {
                    for &v in graph.peer_indices(u) {
                        if stamp[v as usize] {
                            continue;
                        }
                        stamp[v as usize] = true;
                        next.push(v);
                        if depth == 1 || graph.neighbor_kind_by_index(node, v).is_none() {
                            level.push(v);
                        }
                    }
                }
                let truncated = if per_source_cap > 0 && contributed + level.len() > per_source_cap
                {
                    level.sort_unstable_by_key(|&v| graph.asn_at(v));
                    level.truncate(per_source_cap - contributed);
                    true
                } else {
                    false
                };
                contributed += level.len();
                for &v in &level {
                    pairs.push(normalized(v, depth));
                }
                if truncated || (per_source_cap > 0 && contributed >= per_source_cap) {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
    }
    pairs
}

/// Immutable batch-evaluation context: the topology and its dense flow
/// and pricing tables.
///
/// Per-AS flow totals are **not** precomputed: only nonlinear internal
/// costs read them, and the standard markets price internal cost
/// linearly. The first [`total`](Self::total) call fills them all at
/// once with [`FlowMatrix::totals`] (bitwise the per-row sums
/// [`FlowMatrix::total`] returns), and every later read on any thread
/// shares that vector; a linear-cost sweep never computes them.
#[derive(Debug, Clone)]
pub struct BatchContext<'a> {
    graph: &'a AsGraph,
    econ: &'a DenseEconomics,
    flows: &'a FlowMatrix,
    totals: OnceLock<Vec<f64>>,
}

impl<'a> BatchContext<'a> {
    /// Builds the context, checking that the tables match the graph
    /// shape. Allocates nothing: totals are filled on first use.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::DimensionMismatch`] if `econ` or `flows`
    /// were built from a different graph.
    pub fn new(
        graph: &'a AsGraph,
        econ: &'a DenseEconomics,
        flows: &'a FlowMatrix,
    ) -> Result<Self> {
        for actual in [econ.node_count(), flows.node_count()] {
            if actual != graph.node_count() {
                return Err(AgreementError::DimensionMismatch {
                    expected: graph.node_count(),
                    actual,
                });
            }
        }
        Ok(BatchContext {
            graph,
            econ,
            flows,
            totals: OnceLock::new(),
        })
    }

    /// The baseline flow total of `node` — the operand of its internal
    /// cost. The first call fills every node's total (see the type
    /// docs); evaluators read it once per party, outside the grid loop,
    /// and only for nonlinear internal costs.
    #[must_use]
    pub fn total(&self, node: u32) -> f64 {
        self.totals.get_or_init(|| self.flows.totals())[node as usize]
    }

    /// Whether any evaluation has needed the per-AS totals yet.
    #[cfg(test)]
    pub(crate) fn totals_filled(&self) -> bool {
        self.totals.get().is_some()
    }

    /// The topology.
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        self.graph
    }

    /// The dense pricing tables.
    #[must_use]
    pub fn econ(&self) -> &DenseEconomics {
        self.econ
    }

    /// The dense baseline flows.
    #[must_use]
    pub fn flows(&self) -> &FlowMatrix {
        self.flows
    }
}

/// Configuration of a discovery sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Candidate enumeration policy.
    pub policy: CandidatePolicy,
    /// Share of provider traffic assumed reroutable onto new segments
    /// (the market assumption of §IV, applied uniformly).
    pub reroute_share: f64,
    /// Share of customer/end-host traffic assumed attractable.
    pub attract_share: f64,
    /// Grid points per operating-point axis (`[0, 1]` inclusive, ≥ 2).
    pub grid: usize,
    /// Relative jitter applied per pair to both shares (drawn from the
    /// pair's sweep stream; `0` disables randomness entirely).
    pub noise: f64,
    /// Keep only the `top` highest-surplus outcomes in the report
    /// (`0` = keep every evaluated pair).
    pub top: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            policy: CandidatePolicy::PeeringAdjacent,
            reroute_share: 0.5,
            attract_share: 0.2,
            grid: 5,
            noise: 0.0,
            top: 0,
        }
    }
}

impl DiscoveryConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        for share in [self.reroute_share, self.attract_share, self.noise] {
            if !share.is_finite() || !(0.0..=1.0).contains(&share) {
                return Err(AgreementError::InvalidFraction { value: share });
            }
        }
        if self.grid < 2 {
            return Err(AgreementError::DimensionMismatch {
                expected: 2,
                actual: self.grid,
            });
        }
        Ok(())
    }

    /// The effective `(reroute, attract)` shares for one candidate pair:
    /// the configured shares with the per-pair noise jitter applied from
    /// the pair's RNG stream. The single implementation both [`discover`]
    /// and the dynamics engine draw from, so recorded
    /// [`PairOutcome::shares`] are reproducible everywhere.
    pub(crate) fn jittered_shares(&self, rng: &mut impl rand::Rng) -> (f64, f64) {
        let (mut reroute, mut attract) = (self.reroute_share, self.attract_share);
        if self.noise > 0.0 {
            let jitter_r: f64 = rng.gen_range(-1.0..1.0);
            let jitter_a: f64 = rng.gen_range(-1.0..1.0);
            reroute = (reroute * (1.0 + self.noise * jitter_r)).clamp(0.0, 1.0);
            attract = (attract * (1.0 + self.noise * jitter_a)).clamp(0.0, 1.0);
        }
        (reroute, attract)
    }
}

/// The flow-volume optimum of a pair (§IV-A over the uniform grid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowVolumePoint {
    /// Reroute fraction at the optimum.
    pub reroute: f64,
    /// Attract fraction at the optimum.
    pub attract: f64,
    /// Utility of `X` at the optimum.
    pub utility_x: f64,
    /// Utility of `Y` at the optimum.
    pub utility_y: f64,
}

impl FlowVolumePoint {
    /// The achieved Nash product.
    #[must_use]
    pub fn nash_product(&self) -> f64 {
        self.utility_x * self.utility_y
    }
}

/// The cash-compensation optimum of a pair (§IV-B + NBS, Eq. 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CashPoint {
    /// Reroute fraction at the welfare optimum.
    pub reroute: f64,
    /// Attract fraction at the welfare optimum.
    pub attract: f64,
    /// Joint utility `u_X + u_Y` (the NBS surplus).
    pub joint_utility: f64,
    /// NBS transfer `Π_{X→Y}` (negative: `Y` pays `X`).
    pub transfer_x_to_y: f64,
}

/// The evaluation of one candidate pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// First party.
    pub x: Asn,
    /// Second party.
    pub y: Asn,
    /// Peering-mesh distance of the pair (1 = existing peers).
    pub peering_hops: u8,
    /// Effective `(reroute, attract)` shares the evaluation used — the
    /// configured shares after any per-pair noise jitter. Recording them
    /// makes every outcome exactly reproducible (and adoptable) without
    /// replaying the sweep's RNG streams.
    pub shares: (f64, f64),
    /// New segments gained by `X` / by `Y`.
    pub segments: (usize, usize),
    /// Flow-volume optimum, if the agreement concludes under Eq. (9).
    pub flow_volume: Option<FlowVolumePoint>,
    /// Cash optimum, if the agreement is viable under Eq. (10).
    pub cash: Option<CashPoint>,
    /// The pair's NBS surplus: the best joint utility, clamped at zero.
    pub surplus: f64,
}

impl PairOutcome {
    /// `true` if either optimization method concludes the agreement.
    #[must_use]
    pub fn is_concluded(&self) -> bool {
        self.flow_volume.is_some() || self.cash.is_some()
    }
}

/// Aggregate result of a discovery sweep, ranked by surplus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryReport {
    /// Number of candidate pairs enumerated and evaluated.
    pub candidates: usize,
    /// Pairs concluding under flow-volume optimization.
    pub concluded_flow_volume: usize,
    /// Pairs viable under cash compensation.
    pub concluded_cash: usize,
    /// Sum of NBS surpluses over all viable pairs.
    pub total_surplus: f64,
    /// Outcomes ranked by surplus (descending), truncated to
    /// [`DiscoveryConfig::top`] when non-zero.
    pub outcomes: Vec<PairOutcome>,
}

impl DiscoveryReport {
    /// Assembles a report from evaluated outcomes: aggregate counts,
    /// the canonical ranking (surplus descending, ASN-pair tie-break),
    /// and top-`top` truncation (`0` = keep all). Both the dense sweep
    /// and the legacy comparison engine in `pan-bench` build their
    /// reports here, so their outputs stay comparable by construction.
    /// The evolution engine does not sort a report: it shares this
    /// function's comparator and aggregate sums, but ranks only the
    /// outcomes its adoption scan reads.
    ///
    /// Surpluses are ordered by [`f64::total_cmp`], so assembly never
    /// panics on unusual inputs; the engines themselves reject
    /// non-finite utilities ([`AgreementError::InvalidUtility`]), so
    /// engine-produced surpluses are always finite.
    #[must_use]
    pub fn from_outcomes(mut outcomes: Vec<PairOutcome>, top: usize) -> Self {
        let (concluded_flow_volume, concluded_cash, total_surplus) = tally(outcomes.iter());
        outcomes.sort_by(|a, b| rank_cmp((a.surplus, a.x, a.y), (b.surplus, b.x, b.y)));
        let candidates = outcomes.len();
        if top > 0 {
            outcomes.truncate(top);
        }
        DiscoveryReport {
            candidates,
            concluded_flow_volume,
            concluded_cash,
            total_surplus,
            outcomes,
        }
    }
}

/// A report's aggregates over `outcomes`, summed in iteration order:
/// `(concluded_flow_volume, concluded_cash, total_surplus)`. The f64
/// sum depends on its order, so every producer of these numbers — the
/// report and the evolution engine — sums through here, in
/// enumeration order.
pub(crate) fn tally<'a>(
    outcomes: impl Iterator<Item = &'a PairOutcome> + Clone,
) -> (usize, usize, f64) {
    (
        outcomes.clone().filter(|o| o.flow_volume.is_some()).count(),
        outcomes.clone().filter(|o| o.cash.is_some()).count(),
        outcomes.map(|o| o.surplus).sum(),
    )
}

/// The canonical ranking of discovered outcomes, over `(surplus, x, y)`:
/// surplus descending under [`f64::total_cmp`], then the ascending ASN
/// pair. The one place the rule lives — the report sort and the
/// evolution engine's [`ranked_scan`] both order through it.
pub(crate) fn rank_cmp(a: (f64, Asn, Asn), b: (f64, Asn, Asn)) -> Ordering {
    b.0.total_cmp(&a.0)
        .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
}

/// A 24-byte stand-in for one outcome in the adoption ranking: the
/// fields [`rank_cmp`] reads plus the outcome's index, so selecting
/// and sorting moves keys instead of ~140-byte outcomes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKey {
    surplus: f64,
    x: Asn,
    y: Asn,
    index: u32,
}

impl RankKey {
    /// [`rank_cmp`], then the outcome index: equal `(surplus, x, y)`
    /// keep their input order, as the stable report sort does.
    fn order(a: &RankKey, b: &RankKey) -> Ordering {
        rank_cmp((a.surplus, a.x, a.y), (b.surplus, b.x, b.y)).then(a.index.cmp(&b.index))
    }
}

/// The adoption scan's view of `outcomes`: their indices in the order
/// of `DiscoveryReport::from_outcomes(outcomes, 0).outcomes`, ending
/// where the scan breaks — at the first outcome without a cash optimum
/// or with `surplus <= min_surplus`.
///
/// Only outcomes with `surplus > min_surplus` get a key (written into
/// `keys`, which is cleared first). For non-NaN
/// surpluses — the engines clamp theirs through `f64::max`, so they
/// never see NaN — every keyed outcome ranks strictly ahead of every
/// other, so the keyed ranking is the report ranking's prefix and the
/// first unkeyed outcome is exactly where the report scan would break;
/// a keyed outcome without a cash optimum ends the scan as it would
/// there. The keys are ranked lazily, `first_chunk` at a time
/// (`select_nth_unstable_by` + a sort of the selected chunk), and the
/// chunk doubles each time the consumer reads past it, so a scan pays
/// for the depth it reads rather than for a sort of every outcome. The
/// first chunk is ranked before this returns.
pub(crate) fn ranked_scan<'a>(
    outcomes: &'a [PairOutcome],
    min_surplus: f64,
    keys: &'a mut Vec<RankKey>,
    first_chunk: usize,
) -> impl Iterator<Item = usize> + 'a {
    keys.clear();
    keys.extend(
        outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.surplus > min_surplus)
            .map(|(index, o)| RankKey {
                surplus: o.surplus,
                x: o.x,
                y: o.y,
                index: index as u32,
            }),
    );
    ChunkedRanking::new(keys, first_chunk).take_while(|&index| outcomes[index].cash.is_some())
}

/// Lazily ranked keys: `keys[..ready]` hold the best `ready` keys in
/// rank order, of which `keys[..next]` were already yielded.
struct ChunkedRanking<'a> {
    keys: &'a mut [RankKey],
    next: usize,
    ready: usize,
    chunk: usize,
}

impl<'a> ChunkedRanking<'a> {
    fn new(keys: &'a mut [RankKey], first_chunk: usize) -> Self {
        let mut ranking = ChunkedRanking {
            keys,
            next: 0,
            ready: 0,
            chunk: first_chunk.max(1),
        };
        ranking.rank_next_chunk();
        ranking
    }

    /// Moves the best `chunk` unranked keys, sorted, behind the ranked
    /// prefix, and doubles the chunk for the next call.
    fn rank_next_chunk(&mut self) {
        let rest = &mut self.keys[self.ready..];
        let take = self.chunk.min(rest.len());
        if take == 0 {
            return;
        }
        if take < rest.len() {
            rest.select_nth_unstable_by(take - 1, RankKey::order);
        }
        rest[..take].sort_unstable_by(RankKey::order);
        self.ready += take;
        self.chunk = self.chunk.saturating_mul(2);
    }
}

impl Iterator for ChunkedRanking<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.ready {
            self.rank_next_chunk();
        }
        let key = self.keys[..self.ready].get(self.next)?;
        self.next += 1;
        Some(key.index as usize)
    }
}

/// Reusable per-worker buffers for pair evaluation: per-row delta
/// coefficients (indexed by packed row position), the touched-position
/// lists that make resetting O(touched), and the nonlinear-entry
/// spill lists.
#[derive(Debug, Default)]
pub struct PairScratch {
    side: [SideScratch; 2],
}

#[derive(Debug, Default)]
struct SideScratch {
    /// Coefficient of `r` per touched row position.
    coeff_r: Vec<f64>,
    /// Coefficient of `a` per touched row position.
    coeff_a: Vec<f64>,
    /// Whether a position is already on the `touched` list (coefficients
    /// can be zero for genuinely touched entries, so zero-ness is not a
    /// usable marker).
    marked: Vec<bool>,
    touched: Vec<u32>,
    /// Entries whose pricing does not collapse linearly:
    /// `(baseline flow, A, B, entry index into the party's row)`.
    nonlinear: Vec<(f64, f64, f64, u32)>,
    /// Grant-target positions in the *partner's* row.
    targets: Vec<u32>,
}

impl PairScratch {
    /// Creates empty scratch (buffers grow to the hottest row and stay).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes resident in the scratch buffers — feeds the workspace's
    /// memory-budget accounting.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.side
            .iter()
            .map(|s| {
                (s.coeff_r.capacity() + s.coeff_a.capacity()) * size_of::<f64>()
                    + s.marked.capacity() * size_of::<bool>()
                    + (s.touched.capacity() + s.targets.capacity()) * size_of::<u32>()
                    + s.nonlinear.capacity() * size_of::<(f64, f64, f64, u32)>()
            })
            .sum()
    }
}

impl SideScratch {
    fn ensure(&mut self, row_len: usize) {
        if self.coeff_r.len() < row_len {
            self.coeff_r.resize(row_len, 0.0);
            self.coeff_a.resize(row_len, 0.0);
            self.marked.resize(row_len, false);
        }
    }

    fn touch(&mut self, pos: usize, dr: f64, da: f64) {
        if !self.marked[pos] {
            self.marked[pos] = true;
            self.touched.push(pos as u32);
        }
        self.coeff_r[pos] += dr;
        self.coeff_a[pos] += da;
    }

    fn reset(&mut self) {
        for &pos in &self.touched {
            self.coeff_r[pos as usize] = 0.0;
            self.coeff_a[pos as usize] = 0.0;
            self.marked[pos as usize] = false;
        }
        self.touched.clear();
        self.nonlinear.clear();
        self.targets.clear();
    }
}

/// Per-party linear collapse of the touched deltas:
/// `u(r, a) = lin_r·r + lin_a·a + Σ nonlinear residuals`.
struct PartyProgram {
    node: u32,
    lin_r: f64,
    lin_a: f64,
    /// Δtotal coefficients (for the internal-cost term).
    total_r: f64,
    total_a: f64,
    /// End-host delta coefficient of `a` (attract only).
    end_host_a: f64,
    end_host_linear: Option<f64>,
    internal_linear: Option<f64>,
    /// Baseline flow total, read only for a nonlinear internal cost.
    base_total: f64,
    segments: usize,
}

/// The mutuality grant targets for `beneficiary` via `partner`:
/// partner's providers and peers, minus the beneficiary itself and minus
/// the beneficiary's customers (§VI rule) — written into
/// `targets` as positions in the **partner's** packed row.
pub(crate) fn collect_targets(
    graph: &AsGraph,
    beneficiary: u32,
    partner: u32,
    targets: &mut Vec<u32>,
) {
    let (_, e_end) = graph.class_boundaries(partner);
    let row = graph.neighbor_indices(partner);
    for (pos, &t) in row[..e_end].iter().enumerate() {
        if t == beneficiary {
            continue;
        }
        if graph.has_neighbor_kind(beneficiary, t, NeighborKind::Customer) {
            continue;
        }
        targets.push(pos as u32);
    }
}

/// Evaluates one candidate pair on the dense tables over the uniform
/// operating-point grid; the math of Eq. (3)/(7) with the default
/// opportunity synthesis of
/// [`AgreementScenario::with_default_opportunities`].
///
/// # Errors
///
/// - [`AgreementError::DimensionMismatch`] if `grid < 2` (a single grid
///   point has no well-defined step; the legacy twin rejects it
///   identically).
/// - [`AgreementError::InvalidFraction`] for shares outside `[0, 1]`.
/// - [`AgreementError::InvalidUtility`] if the economics produce a
///   non-finite utility at any grid point (e.g. overflowing power-law
///   prices) — surfaced as an error instead of silently ranking the
///   pair as "no agreement".
/// - Propagates pricing errors for invalid flow volumes.
pub fn evaluate_candidate(
    ctx: &BatchContext<'_>,
    scratch: &mut PairScratch,
    pair: CandidatePair,
    reroute_share: f64,
    attract_share: f64,
    grid: usize,
) -> Result<PairOutcome> {
    if grid < 2 {
        return Err(AgreementError::DimensionMismatch {
            expected: 2,
            actual: grid,
        });
    }
    for share in [reroute_share, attract_share] {
        if !share.is_finite() || !(0.0..=1.0).contains(&share) {
            return Err(AgreementError::InvalidFraction { value: share });
        }
    }
    let graph = ctx.graph;
    let (x, y) = (pair.x, pair.y);
    debug_assert!(x != y, "candidate pairs have distinct parties");

    // Phase 1: grant targets of both sides (positions in partner rows).
    let [sx, sy] = &mut scratch.side;
    sx.reset();
    sy.reset();
    collect_targets(graph, x, y, &mut sx.targets); // x's gains, in y's row
    collect_targets(graph, y, x, &mut sy.targets); // y's gains, in x's row
    sx.ensure(graph.degree_of_index(x) + 1);
    sy.ensure(graph.degree_of_index(y) + 1);

    // Phase 2: accumulate per-entry (r, a) coefficients for both rows.
    let mut programs = [
        PartyProgram {
            node: x,
            lin_r: 0.0,
            lin_a: 0.0,
            total_r: 0.0,
            total_a: 0.0,
            end_host_a: 0.0,
            end_host_linear: ctx.econ.end_host_price(x).linear_rate(),
            internal_linear: ctx.econ.internal_cost(x).linear_rate(),
            base_total: 0.0,
            segments: sx.targets.len(),
        },
        PartyProgram {
            node: y,
            lin_r: 0.0,
            lin_a: 0.0,
            total_r: 0.0,
            total_a: 0.0,
            end_host_a: 0.0,
            end_host_linear: ctx.econ.end_host_price(y).linear_rate(),
            internal_linear: ctx.econ.internal_cost(y).linear_rate(),
            base_total: 0.0,
            segments: sy.targets.len(),
        },
    ];

    // Beneficiary-side deltas, and the induced partner-side transit.
    // Volume coefficients of the whole agreement (for the "any volume"
    // conclusion test): total rerouted volume per unit of `r` and total
    // attracted volume per unit of `a`.
    let mut volume_r = 0.0;
    let mut volume_a = 0.0;
    for side in 0..2 {
        let (bene, partner) = if side == 0 { (x, y) } else { (y, x) };
        let nsegs = programs[side].segments;
        if nsegs == 0 {
            continue;
        }
        let (p_end, e_end) = graph.class_boundaries(bene);
        let row = graph.neighbor_indices(bene);
        let [s0, s1] = &mut scratch.side;
        let (sb, sp) = if side == 0 { (s0, s1) } else { (s1, s0) };
        // Total reroutable volume R (per unit of r) and attractable
        // volume T (per unit of a), aggregated across the beneficiary's
        // nsegs segments (the per-segment split cancels on its own row).
        let mut reroutable = 0.0;
        let mut attractable = 0.0;
        for (pos, &p) in row[..p_end].iter().enumerate() {
            if p == partner {
                continue;
            }
            let f = ctx.flows.flow(bene, pos);
            if f <= 0.0 {
                continue;
            }
            let moved = reroute_share * f;
            sb.touch(pos, -moved, 0.0);
            reroutable += moved;
        }
        for pos in e_end..row.len() {
            let f = ctx.flows.flow(bene, pos);
            if f <= 0.0 {
                continue;
            }
            let gained = attract_share * f;
            sb.touch(pos, 0.0, gained);
            attractable += gained;
        }
        let end_host_gain = attract_share * ctx.flows.end_host(bene);
        attractable += end_host_gain;
        programs[side].end_host_a = end_host_gain;
        // The beneficiary's flow towards the partner grows by the full
        // segment volume. The link is (or would be) settlement-free
        // peering, so it contributes to the total only — tracked here as
        // untouched-entry coefficients (touched entries add theirs in
        // phase 3, and the end-host scalar adds its own).
        programs[side].total_r += reroutable;
        programs[side].total_a += attractable;

        // Partner side: the whole volume transits the partner — in on
        // the beneficiary link (settlement-free, totals only), out on
        // each target link (split evenly across the nsegs segments, as
        // the default opportunities do).
        let per_seg_r = reroutable / nsegs as f64;
        let per_seg_a = attractable / nsegs as f64;
        for i in 0..sb.targets.len() {
            sp.touch(sb.targets[i] as usize, per_seg_r, per_seg_a);
        }
        let other = 1 - side;
        programs[other].total_r += reroutable;
        programs[other].total_a += attractable;
        volume_r += reroutable;
        volume_a += attractable;
    }

    // Phase 3: collapse touched entries into linear coefficients,
    // spilling nonlinear ones.
    for (side, program) in programs.iter_mut().enumerate() {
        let s = &mut scratch.side[side];
        let node = program.node;
        // SoA lanes replace the per-entry enum dispatch; the zero rates
        // stored for skipped entries make the unconditional accumulate a
        // bitwise identity with the skip loop (see `signed_rate_row`).
        let rates = ctx.econ.signed_rate_row(node);
        let nonlinear = ctx.econ.nonlinear_row(node);
        for &pos in &s.touched {
            let (dr, da) = (s.coeff_r[pos as usize], s.coeff_a[pos as usize]);
            program.total_r += dr;
            program.total_a += da;
            if nonlinear[pos as usize] {
                s.nonlinear
                    .push((ctx.flows.flow(node, pos as usize), dr, da, pos));
            } else {
                program.lin_r += rates[pos as usize] * dr;
                program.lin_a += rates[pos as usize] * da;
            }
        }
        // End-host revenue from attraction (a scalar, not a row entry).
        program.total_a += program.end_host_a;
        if program.end_host_a != 0.0 {
            if let Some(rate) = program.end_host_linear {
                program.lin_a += rate * program.end_host_a;
            }
        }
        // Linear internal cost collapses too; a nonlinear one prices
        // against the baseline total, read once here instead of per
        // grid point.
        match program.internal_linear {
            Some(rate) => {
                program.lin_r -= rate * program.total_r;
                program.lin_a -= rate * program.total_a;
            }
            None => program.base_total = ctx.total(node),
        }
    }

    // Phase 4: scan the operating-point grid (grid >= 2 was validated on
    // entry, so `step` is finite).
    let step = 1.0 / (grid - 1) as f64;
    let mut best_fv: Option<(f64, f64, f64, f64)> = None;
    let mut best_fv_score = f64::NEG_INFINITY;
    let mut best_cash: Option<(f64, f64, f64, f64)> = None;
    let mut best_joint = f64::NEG_INFINITY;
    for ri in 0..grid {
        let r = ri as f64 * step;
        for ai in 0..grid {
            let a = ai as f64 * step;
            let mut utilities = [0.0f64; 2];
            for (side, program) in programs.iter().enumerate() {
                let mut u = program.lin_r * r + program.lin_a * a;
                let s = &scratch.side[side];
                for &(f, dr, da, pos) in &s.nonlinear {
                    let entry = ctx.econ.entry(program.node, pos as usize);
                    u += entry.utility_delta(f, dr * r + da * a)?;
                }
                if program.end_host_linear.is_none() && program.end_host_a != 0.0 {
                    let f = ctx.flows.end_host(program.node);
                    let price = ctx.econ.end_host_price(program.node);
                    u += price.price(f + program.end_host_a * a)? - price.price(f)?;
                }
                if program.internal_linear.is_none() {
                    let total = program.base_total;
                    let delta = program.total_r * r + program.total_a * a;
                    let cost = ctx.econ.internal_cost(program.node);
                    u -= cost.eval((total + delta).max(0.0))? - cost.eval(total)?;
                }
                if !u.is_finite() {
                    return Err(AgreementError::InvalidUtility { value: u });
                }
                utilities[side] = u;
            }
            let (ux, uy) = (utilities[0], utilities[1]);
            if ux >= -UTILITY_TOLERANCE && uy >= -UTILITY_TOLERANCE {
                let score = ux.max(0.0) * uy.max(0.0) + 1e-7 * (ux + uy);
                if score > best_fv_score {
                    best_fv_score = score;
                    best_fv = Some((r, a, ux, uy));
                }
            }
            let joint = ux + uy;
            if joint > best_joint {
                best_joint = joint;
                best_cash = Some((r, a, ux, uy));
            }
        }
    }

    // Phase 5: conclusions (same semantics as the §IV optimizers).
    let flow_volume = best_fv.and_then(|(r, a, ux, uy)| {
        let product = ux.max(0.0) * uy.max(0.0);
        let volume = r * volume_r + a * volume_a;
        (product > UTILITY_TOLERANCE && volume > UTILITY_TOLERANCE).then_some(FlowVolumePoint {
            reroute: r,
            attract: a,
            utility_x: ux,
            utility_y: uy,
        })
    });
    let cash = match best_cash {
        Some((r, a, ux, uy)) if ux + uy > JOINT_TOLERANCE => Some(CashPoint {
            reroute: r,
            attract: a,
            joint_utility: ux + uy,
            transfer_x_to_y: bargaining_transfer(ux, uy)?,
        }),
        _ => None,
    };
    let surplus = cash.map_or(0.0, |c| c.joint_utility.max(0.0));
    Ok(PairOutcome {
        x: graph.asn_at(x),
        y: graph.asn_at(y),
        peering_hops: pair.peering_hops,
        shares: (reroute_share, attract_share),
        segments: (programs[0].segments, programs[1].segments),
        flow_volume,
        cash,
        surplus,
    })
}

/// The once-per-round, per-node collapse behind
/// [`evaluate_candidate_with`]: every quantity of a pair evaluation
/// that depends on one endpoint's row alone — the beneficiary-side
/// reroute / attract deltas of phase 2 and their linear collapse of
/// phase 3 — computed once per node instead of once per candidate. A
/// hub AS with thousands of customer links sits on hundreds of
/// candidate pairs, and the per-pair evaluator walks its full row for
/// every one of them; a sweep's evaluation cost was
/// `Σ_pairs (deg(x) + deg(y))` where `Σ_nodes deg(n)` plus per-pair
/// target work suffices.
///
/// The collapse fixes the `(reroute, attract)` shares at build time, so
/// it serves noise-free configurations only: share jitter makes the
/// deltas per-pair again, and those sweeps keep using
/// [`evaluate_candidate`].
#[derive(Debug, Clone)]
pub struct NodePrograms {
    reroute_share: f64,
    attract_share: f64,
    nodes: Vec<NodeSide>,
    /// CSR spill of nonlinear own-row entries per node, the same tuple
    /// shape as the per-pair scratch: `(baseline flow, A, B, position)`.
    nonlinear: Vec<(f64, f64, f64, u32)>,
    /// `node_count + 1` prefix offsets into `nonlinear`.
    nonlinear_off: Vec<u32>,
    /// Per node, `Σ sign·rate` over the linear provider/peer entries of
    /// its row (position order) — the transit-side twin of the own-row
    /// collapse. A pair's grant targets are the partner's providers and
    /// peers minus a small §VI exclusion set, so the per-target linear
    /// fold becomes this sum minus the pair's [`SideTransit::excl_lin`].
    transit_lin: Vec<f64>,
    /// CSR of nonlinear provider/peer entry positions per node
    /// (ascending); the rare targets that still price per grid point.
    transit_nonlinear: Vec<u32>,
    /// `node_count + 1` prefix offsets into `transit_nonlinear`.
    transit_nonlinear_off: Vec<u32>,
}

/// One node's collapsed beneficiary-side program: what the node's own
/// packed row contributes to any agreement in which it is a
/// beneficiary, independent of the partner.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeSide {
    /// Total reroutable provider volume per unit of `r`.
    reroutable: f64,
    /// Total attractable volume per unit of `a`, end-host included.
    attractable: f64,
    /// The end-host share of `attractable`.
    end_host_gain: f64,
    /// Linear utility coefficient of `r` over the own-row deltas.
    lin_r: f64,
    /// Linear utility coefficient of `a` over the own-row deltas.
    lin_a: f64,
    /// Δtotal coefficient of `r` (own-row deltas plus the flow gained
    /// on the settlement-free partner link).
    total_r: f64,
    /// Δtotal coefficient of `a`, end-host arrivals double-counted as
    /// in the per-pair evaluator (they enter and terminate at the node).
    total_a: f64,
}

impl NodePrograms {
    /// Collapses every node's beneficiary-side deltas at fixed shares.
    ///
    /// # Errors
    ///
    /// Returns [`AgreementError::InvalidFraction`] for shares outside
    /// `[0, 1]` — the validation [`evaluate_candidate`] applies per
    /// pair, hoisted to build time.
    pub fn build(
        ctx: &BatchContext<'_>,
        reroute_share: f64,
        attract_share: f64,
    ) -> Result<NodePrograms> {
        for share in [reroute_share, attract_share] {
            if !share.is_finite() || !(0.0..=1.0).contains(&share) {
                return Err(AgreementError::InvalidFraction { value: share });
            }
        }
        let n = ctx.graph.node_count();
        let mut programs = NodePrograms {
            reroute_share,
            attract_share,
            nodes: Vec::with_capacity(n),
            nonlinear: Vec::new(),
            nonlinear_off: Vec::with_capacity(n + 1),
            transit_lin: Vec::with_capacity(n),
            transit_nonlinear: Vec::new(),
            transit_nonlinear_off: Vec::with_capacity(n + 1),
        };
        programs.nonlinear_off.push(0);
        programs.transit_nonlinear_off.push(0);
        for node in 0..n as u32 {
            let side = collapse_node(
                ctx,
                node,
                None,
                reroute_share,
                attract_share,
                &mut programs.nonlinear,
            );
            programs.nodes.push(side);
            programs.nonlinear_off.push(programs.nonlinear.len() as u32);
            // Transit collapse: the per-target fold of the per-pair
            // evaluator, summed once over the node's full provider/peer
            // segment in position order. The SoA rate lane streams
            // branch-free: skipped entries hold `0.0` there, and adding
            // a zero to a `+0.0`-seeded accumulator is a bitwise no-op,
            // so this sum matches the dispatching loop bit for bit.
            let (_, e_end) = ctx.graph.class_boundaries(node);
            let rates = ctx.econ.signed_rate_row(node);
            let mut lin = 0.0f64;
            for &rate in &rates[..e_end] {
                lin += rate;
            }
            for (pos, &nl) in ctx.econ.nonlinear_row(node)[..e_end].iter().enumerate() {
                if nl {
                    programs.transit_nonlinear.push(pos as u32);
                }
            }
            programs.transit_lin.push(lin);
            programs
                .transit_nonlinear_off
                .push(programs.transit_nonlinear.len() as u32);
        }
        Ok(programs)
    }

    /// The nonlinear own-row spill of `node`.
    fn nonlinear_of(&self, node: u32) -> &[(f64, f64, f64, u32)] {
        let (lo, hi) = (
            self.nonlinear_off[node as usize] as usize,
            self.nonlinear_off[node as usize + 1] as usize,
        );
        &self.nonlinear[lo..hi]
    }

    /// The nonlinear provider/peer entry positions of `node`.
    fn transit_nonlinear_of(&self, node: u32) -> &[u32] {
        let (lo, hi) = (
            self.transit_nonlinear_off[node as usize] as usize,
            self.transit_nonlinear_off[node as usize + 1] as usize,
        );
        &self.transit_nonlinear[lo..hi]
    }
}

/// Collapses one node's own-row deltas: provider reroutes
/// (`-share·f` per provider entry with positive flow), customer
/// attraction (`+share·f` per customer entry), the end-host gain, and
/// the linear utility collapse of all of them; nonlinear entries spill
/// into `spill` for per-grid-point evaluation. `skip_provider` excludes
/// the partner from the provider walk for (prospective k-hop) pairs
/// whose partner is simultaneously a provider — the per-pair
/// evaluator's `p == partner` skip.
fn collapse_node(
    ctx: &BatchContext<'_>,
    node: u32,
    skip_provider: Option<u32>,
    reroute_share: f64,
    attract_share: f64,
    spill: &mut Vec<(f64, f64, f64, u32)>,
) -> NodeSide {
    let graph = ctx.graph;
    let (p_end, e_end) = graph.class_boundaries(node);
    let row = graph.neighbor_indices(node);
    let mut side = NodeSide::default();
    // SoA lanes: one f64 load + one bool test per touched entry instead
    // of enum dispatch. `rates[pos]` is `sign·rate` (zero for peers), so
    // accumulating it unconditionally only ever adds `±0.0` where the
    // dispatching loop skipped — a bitwise summation identity.
    let rates = ctx.econ.signed_rate_row(node);
    let nonlinear = ctx.econ.nonlinear_row(node);
    let mut touch = |side: &mut NodeSide, pos: usize, dr: f64, da: f64| {
        side.total_r += dr;
        side.total_a += da;
        if nonlinear[pos] {
            spill.push((ctx.flows.flow(node, pos), dr, da, pos as u32));
        } else {
            side.lin_r += rates[pos] * dr;
            side.lin_a += rates[pos] * da;
        }
    };
    for (pos, &p) in row[..p_end].iter().enumerate() {
        if Some(p) == skip_provider {
            continue;
        }
        let f = ctx.flows.flow(node, pos);
        if f <= 0.0 {
            continue;
        }
        let moved = reroute_share * f;
        side.reroutable += moved;
        touch(&mut side, pos, -moved, 0.0);
    }
    for pos in e_end..row.len() {
        let f = ctx.flows.flow(node, pos);
        if f <= 0.0 {
            continue;
        }
        let gained = attract_share * f;
        side.attractable += gained;
        touch(&mut side, pos, 0.0, gained);
    }
    let end_host_gain = attract_share * ctx.flows.end_host(node);
    side.attractable += end_host_gain;
    side.end_host_gain = end_host_gain;
    // The flow gained toward the partner (the full segment volume) and
    // the end-host arrivals enter the node's Δtotal too, mirroring the
    // per-pair evaluator's phase-2 + end-of-phase-3 accounting.
    side.total_r += side.reroutable;
    side.total_a += side.attractable;
    side.total_a += end_host_gain;
    side
}

/// The pair-specific transit structure of one candidate: everything
/// [`evaluate_candidate_with`] needs beyond the per-node programs, and
/// a pure function of the graph and the (transit) pricing tables alone —
/// flows never enter, so the evolution engine caches these across
/// rounds and only rebuilds them when topology or pricing changes.
#[derive(Debug, Clone, Default)]
pub struct PairTransit {
    /// `[x-side, y-side]`, beneficiary order as in [`CandidatePair`].
    sides: [SideTransit; 2],
}

impl PairTransit {
    /// Bytes held **beyond** `size_of::<PairTransit>()` — the sides'
    /// exclusion-list capacity. Feeds the engine's resident-set
    /// accounting.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.sides
            .iter()
            .map(|s| s.excl_nonlinear.capacity() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// One beneficiary side of a [`PairTransit`]: the §VI grant-target set
/// of the pair, reduced to the partner's whole provider/peer segment
/// minus this exclusion summary.
#[derive(Debug, Clone, Default)]
pub(crate) struct SideTransit {
    /// Grant-target count: the partner's provider/peer segment length
    /// minus the exclusions (the beneficiary itself and its customers).
    nsegs: u32,
    /// `true` if the partner is simultaneously the beneficiary's
    /// provider (possible for prospective k-hop pairs), which
    /// invalidates the node's cached own-row collapse.
    provider_adjacent: bool,
    /// `Σ sign·rate` over the excluded linear entries (position order),
    /// subtracted from the partner's [`NodePrograms::transit_lin`] sum.
    excl_lin: f64,
    /// Excluded nonlinear entry positions (ascending), skipped when the
    /// partner's nonlinear transit entries are merged.
    excl_nonlinear: Vec<u32>,
}

/// Derives the transit structure of `pair`; see [`PairTransit`]. The
/// exclusion walk merges the partner's ASN-sorted provider and peer
/// segments against the beneficiary's ASN-sorted customer segment, so
/// the cost is `O(provpeer(partner) + customers(beneficiary))` — no
/// per-target membership probes and no materialized target list.
pub fn derive_pair_transit(ctx: &BatchContext<'_>, pair: CandidatePair) -> PairTransit {
    PairTransit {
        sides: [
            derive_side_transit(ctx, pair.x, pair.y),
            derive_side_transit(ctx, pair.y, pair.x),
        ],
    }
}

/// One side of [`derive_pair_transit`]: the exclusion summary of
/// `beneficiary`'s grant targets in `partner`'s row.
fn derive_side_transit(ctx: &BatchContext<'_>, beneficiary: u32, partner: u32) -> SideTransit {
    let graph = ctx.graph;
    let (p_end, e_end) = graph.class_boundaries(partner);
    let row = graph.neighbor_indices(partner);
    let (_, b_e_end) = graph.class_boundaries(beneficiary);
    let customers = &graph.neighbor_indices(beneficiary)[b_e_end..];
    let mut excluded = 0usize;
    let mut excl_lin = 0.0f64;
    let mut excl_nonlinear = Vec::new();
    // SoA lanes for the excluded entries: zero rates are stored for the
    // entries the dispatching loop skipped, so accumulating them keeps
    // `excl_lin` bit-identical (see `signed_rate_row`).
    let rates = ctx.econ.signed_rate_row(partner);
    let nonlinear = ctx.econ.nonlinear_row(partner);
    // Each class segment is sorted by neighbor ASN, as is the customer
    // segment — one two-pointer pass per segment finds every excluded
    // position in ascending position order.
    for (start, end) in [(0, p_end), (p_end, e_end)] {
        let mut c = 0usize;
        for (pos, &t) in row[start..end].iter().enumerate() {
            let pos = start + pos;
            if t != beneficiary {
                let target_asn = graph.asn_at(t);
                while c < customers.len() && graph.asn_at(customers[c]) < target_asn {
                    c += 1;
                }
                if customers.get(c) != Some(&t) {
                    continue;
                }
            }
            excluded += 1;
            if nonlinear[pos] {
                excl_nonlinear.push(pos as u32);
            } else {
                excl_lin += rates[pos];
            }
        }
    }
    SideTransit {
        nsegs: (e_end - excluded) as u32,
        provider_adjacent: graph.has_neighbor_kind(beneficiary, partner, NeighborKind::Provider),
        excl_lin,
        excl_nonlinear,
    }
}

/// The programmed twin of [`evaluate_candidate`]: evaluates one
/// candidate pair at the shares fixed in `programs`, reusing the
/// per-node collapse for everything row-local and the pair's
/// [`PairTransit`] exclusion summary for the grant-target fold (see
/// [`derive_pair_transit`]), leaving only scalar arithmetic, the rare
/// nonlinear merges, and the operating-point grid per call — `O(grid² +
/// nonlinear)` instead of `O(deg(x) + deg(y))`.
///
/// Results are a pure function of the endpoint rows (plus their
/// end-host and totals scalars), deterministic at any thread count, and
/// agree with [`evaluate_candidate`] up to f64 re-association — the
/// collapse sums the same model terms in a different order. The
/// evolution engine evaluates through this function on noise-free
/// configurations.
///
/// # Errors
///
/// Same surface as [`evaluate_candidate`]: `grid < 2` is rejected, and
/// non-finite utilities / pricing failures propagate.
pub fn evaluate_candidate_with(
    ctx: &BatchContext<'_>,
    programs: &NodePrograms,
    transit: &PairTransit,
    scratch: &mut PairScratch,
    pair: CandidatePair,
    grid: usize,
) -> Result<PairOutcome> {
    if grid < 2 {
        return Err(AgreementError::DimensionMismatch {
            expected: 2,
            actual: grid,
        });
    }
    let graph = ctx.graph;
    let (x, y) = (pair.x, pair.y);
    debug_assert!(x != y, "candidate pairs have distinct parties");

    let [sx, sy] = &mut scratch.side;
    sx.reset();
    sy.reset();
    let nsegs = [
        transit.sides[0].nsegs as usize,
        transit.sides[1].nsegs as usize,
    ];

    // Own-side programs. A side with no grant targets contributes
    // nothing (the per-pair evaluator skips it wholesale); a partner
    // that doubles as the beneficiary's provider (possible for
    // prospective k-hop pairs) invalidates the node's cached collapse,
    // which is then rebuilt locally with the provider skip.
    let mut own = [NodeSide::default(); 2];
    for (i, s) in [&mut *sx, &mut *sy].into_iter().enumerate() {
        let (bene, partner) = if i == 0 { (x, y) } else { (y, x) };
        if nsegs[i] == 0 {
            continue;
        }
        if transit.sides[i].provider_adjacent {
            own[i] = collapse_node(
                ctx,
                bene,
                Some(partner),
                programs.reroute_share,
                programs.attract_share,
                &mut s.nonlinear,
            );
        } else {
            own[i] = programs.nodes[bene as usize];
            s.nonlinear.extend_from_slice(programs.nonlinear_of(bene));
        }
    }

    let mut lin = [(own[0].lin_r, own[0].lin_a), (own[1].lin_r, own[1].lin_a)];
    let mut total = [
        (own[0].total_r, own[0].total_a),
        (own[1].total_r, own[1].total_a),
    ];
    let mut volume_r = 0.0;
    let mut volume_a = 0.0;

    // Partner-transit corrections: side i's whole segment volume
    // transits the partner — in on the settlement-free beneficiary link
    // (totals only), out on each of side i's target links in the
    // partner's row, split evenly across the segments. The per-target
    // linear fold collapses to the partner's precomputed segment sum
    // minus the pair's exclusions; nonlinear target entries merge with
    // the partner's own spill so combined coefficients price exactly
    // once, as the per-pair accumulation does.
    for (i, (own_side, side)) in own.iter().zip(&transit.sides).enumerate() {
        if side.nsegs == 0 {
            continue;
        }
        let o = 1 - i;
        let partner = if i == 0 { y } else { x };
        let nsegs_f = f64::from(side.nsegs);
        let per_seg_r = own_side.reroutable / nsegs_f;
        let per_seg_a = own_side.attractable / nsegs_f;
        total[o].0 += own_side.reroutable + per_seg_r * nsegs_f;
        total[o].1 += own_side.attractable + per_seg_a * nsegs_f;
        volume_r += own_side.reroutable;
        volume_a += own_side.attractable;
        let lin_sum = programs.transit_lin[partner as usize] - side.excl_lin;
        lin[o].0 += lin_sum * per_seg_r;
        lin[o].1 += lin_sum * per_seg_a;
        let merged = if i == 0 {
            &mut sy.nonlinear
        } else {
            &mut sx.nonlinear
        };
        let mut excl = side.excl_nonlinear.iter().copied().peekable();
        for &pos in programs.transit_nonlinear_of(partner) {
            while excl.peek().is_some_and(|&e| e < pos) {
                excl.next();
            }
            if excl.peek() == Some(&pos) {
                excl.next();
                continue;
            }
            if let Some(slot) = merged.iter_mut().find(|e| e.3 == pos) {
                slot.1 += per_seg_r;
                slot.2 += per_seg_a;
            } else {
                merged.push((
                    ctx.flows.flow(partner, pos as usize),
                    per_seg_r,
                    per_seg_a,
                    pos,
                ));
            }
        }
    }

    // Per-party scalar folds: linear end-host revenue and linear
    // internal cost collapse into the coefficients; nonlinear ones are
    // evaluated per grid point below, against the baseline total read
    // here once.
    let parties = [x, y];
    let mut end_host_linear = [None, None];
    let mut internal_linear = [None, None];
    let mut base_total = [0.0f64; 2];
    for i in 0..2 {
        let node = parties[i];
        end_host_linear[i] = ctx.econ.end_host_price(node).linear_rate();
        internal_linear[i] = ctx.econ.internal_cost(node).linear_rate();
        if own[i].end_host_gain != 0.0 {
            if let Some(rate) = end_host_linear[i] {
                lin[i].1 += rate * own[i].end_host_gain;
            }
        }
        match internal_linear[i] {
            Some(rate) => {
                lin[i].0 -= rate * total[i].0;
                lin[i].1 -= rate * total[i].1;
            }
            None => base_total[i] = ctx.total(node),
        }
    }

    // Operating-point grid and conclusions — the same scan as the
    // per-pair evaluator, over the collapsed coefficients.
    let step = 1.0 / (grid - 1) as f64;
    let mut best_fv: Option<(f64, f64, f64, f64)> = None;
    let mut best_fv_score = f64::NEG_INFINITY;
    let mut best_cash: Option<(f64, f64, f64, f64)> = None;
    let mut best_joint = f64::NEG_INFINITY;
    for ri in 0..grid {
        let r = ri as f64 * step;
        for ai in 0..grid {
            let a = ai as f64 * step;
            let mut utilities = [0.0f64; 2];
            for i in 0..2 {
                let node = parties[i];
                let mut u = lin[i].0 * r + lin[i].1 * a;
                for &(f, dr, da, pos) in &scratch.side[i].nonlinear {
                    let entry = ctx.econ.entry(node, pos as usize);
                    u += entry.utility_delta(f, dr * r + da * a)?;
                }
                if end_host_linear[i].is_none() && own[i].end_host_gain != 0.0 {
                    let f = ctx.flows.end_host(node);
                    let price = ctx.econ.end_host_price(node);
                    u += price.price(f + own[i].end_host_gain * a)? - price.price(f)?;
                }
                if internal_linear[i].is_none() {
                    let base = base_total[i];
                    let delta = total[i].0 * r + total[i].1 * a;
                    let cost = ctx.econ.internal_cost(node);
                    u -= cost.eval((base + delta).max(0.0))? - cost.eval(base)?;
                }
                if !u.is_finite() {
                    return Err(AgreementError::InvalidUtility { value: u });
                }
                utilities[i] = u;
            }
            let (ux, uy) = (utilities[0], utilities[1]);
            if ux >= -UTILITY_TOLERANCE && uy >= -UTILITY_TOLERANCE {
                let score = ux.max(0.0) * uy.max(0.0) + 1e-7 * (ux + uy);
                if score > best_fv_score {
                    best_fv_score = score;
                    best_fv = Some((r, a, ux, uy));
                }
            }
            let joint = ux + uy;
            if joint > best_joint {
                best_joint = joint;
                best_cash = Some((r, a, ux, uy));
            }
        }
    }

    let flow_volume = best_fv.and_then(|(r, a, ux, uy)| {
        let product = ux.max(0.0) * uy.max(0.0);
        let volume = r * volume_r + a * volume_a;
        (product > UTILITY_TOLERANCE && volume > UTILITY_TOLERANCE).then_some(FlowVolumePoint {
            reroute: r,
            attract: a,
            utility_x: ux,
            utility_y: uy,
        })
    });
    let cash = match best_cash {
        Some((r, a, ux, uy)) if ux + uy > JOINT_TOLERANCE => Some(CashPoint {
            reroute: r,
            attract: a,
            joint_utility: ux + uy,
            transfer_x_to_y: bargaining_transfer(ux, uy)?,
        }),
        _ => None,
    };
    let surplus = cash.map_or(0.0, |c| c.joint_utility.max(0.0));
    Ok(PairOutcome {
        x: graph.asn_at(x),
        y: graph.asn_at(y),
        peering_hops: pair.peering_hops,
        shares: (programs.reroute_share, programs.attract_share),
        segments: (nsegs[0], nsegs[1]),
        flow_volume,
        cash,
        surplus,
    })
}

/// Runs a full discovery sweep: enumerate candidates, evaluate each in
/// parallel (per-worker [`PairScratch`], per-item RNG stream), rank by
/// surplus. Output is bit-identical at any thread count of `sweep`.
///
/// # Errors
///
/// Returns [`AgreementError::InvalidFraction`] for invalid shares or
/// noise, and propagates evaluation errors.
pub fn discover(
    ctx: &BatchContext<'_>,
    config: &DiscoveryConfig,
    sweep: &ScenarioSweep,
) -> Result<DiscoveryReport> {
    config.validate()?;
    let candidates = enumerate_candidates(ctx.graph, config.policy);
    let evaluated: Vec<Result<PairOutcome>> = sweep.map_with_tiled(
        &candidates,
        CANDIDATE_TILE,
        PairScratch::new,
        |scratch, _i, &pair, mut rng| {
            let (reroute, attract) = config.jittered_shares(&mut rng);
            evaluate_candidate(ctx, scratch, pair, reroute, attract, config.grid)
        },
    );
    let mut outcomes = Vec::with_capacity(evaluated.len());
    for outcome in evaluated {
        outcomes.push(outcome?);
    }
    Ok(DiscoveryReport::from_outcomes(outcomes, config.top))
}

/// The "before" engine: evaluates one adjacent candidate pair through
/// the original sparse stack — [`Agreement::mutuality`],
/// [`AgreementScenario::with_default_opportunities`], and per-point
/// [`evaluate`] over the same uniform grid. Dense-engine oracle and the
/// baseline side of the dense-flow-refactor benchmark.
///
/// # Errors
///
/// Returns [`AgreementError::DimensionMismatch`] if `grid < 2` (same
/// rejection as [`evaluate_candidate`]), and propagates
/// agreement-construction and evaluation errors (e.g. the parties not
/// being peers).
pub fn evaluate_candidate_legacy(
    model: &pan_econ::BusinessModel,
    baseline_x: &FlowVec,
    baseline_y: &FlowVec,
    reroute_share: f64,
    attract_share: f64,
    grid: usize,
) -> Result<PairOutcome> {
    if grid < 2 {
        return Err(AgreementError::DimensionMismatch {
            expected: 2,
            actual: grid,
        });
    }
    let graph = model.graph();
    let (ax, ay) = (baseline_x.asn(), baseline_y.asn());
    let agreement = Agreement::mutuality(graph, ax, ay)?;
    let scenario = AgreementScenario::with_default_opportunities(
        model,
        agreement,
        baseline_x.clone(),
        baseline_y.clone(),
        reroute_share,
        attract_share,
    )?;
    let n = scenario.dimension();
    let segments_x = scenario
        .opportunities()
        .iter()
        .filter(|o| o.segment.beneficiary == ax)
        .count();
    let reroutable_total: f64 = scenario
        .opportunities()
        .iter()
        .map(crate::SegmentOpportunity::reroutable_total)
        .sum();
    let attractable_total: f64 = scenario
        .opportunities()
        .iter()
        .map(crate::SegmentOpportunity::attractable_total)
        .sum();

    let step = 1.0 / (grid - 1) as f64;
    let mut best_fv: Option<(f64, f64, f64, f64)> = None;
    let mut best_fv_score = f64::NEG_INFINITY;
    let mut best_cash: Option<(f64, f64, f64, f64)> = None;
    let mut best_joint = f64::NEG_INFINITY;
    for ri in 0..grid {
        let r = ri as f64 * step;
        for ai in 0..grid {
            let a = ai as f64 * step;
            let point = OperatingPoint::uniform(n, r, a)?;
            let eval = evaluate(&scenario, &point)?;
            let (ux, uy) = (eval.utility_x, eval.utility_y);
            if ux >= -UTILITY_TOLERANCE && uy >= -UTILITY_TOLERANCE {
                let score = ux.max(0.0) * uy.max(0.0) + 1e-7 * (ux + uy);
                if score > best_fv_score {
                    best_fv_score = score;
                    best_fv = Some((r, a, ux, uy));
                }
            }
            let joint = ux + uy;
            if joint > best_joint {
                best_joint = joint;
                best_cash = Some((r, a, ux, uy));
            }
        }
    }
    let flow_volume = best_fv.and_then(|(r, a, ux, uy)| {
        let product = ux.max(0.0) * uy.max(0.0);
        let volume = r * reroutable_total + a * attractable_total;
        (product > UTILITY_TOLERANCE && volume > UTILITY_TOLERANCE).then_some(FlowVolumePoint {
            reroute: r,
            attract: a,
            utility_x: ux,
            utility_y: uy,
        })
    });
    let cash = match best_cash {
        Some((r, a, ux, uy)) if ux + uy > JOINT_TOLERANCE => Some(CashPoint {
            reroute: r,
            attract: a,
            joint_utility: ux + uy,
            transfer_x_to_y: bargaining_transfer(ux, uy)?,
        }),
        _ => None,
    };
    let surplus = cash.map_or(0.0, |c| c.joint_utility.max(0.0));
    Ok(PairOutcome {
        x: ax,
        y: ay,
        peering_hops: 1,
        shares: (reroute_share, attract_share),
        segments: (segments_x, n - segments_x),
        flow_volume,
        cash,
        surplus,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::tests::{baselines, fig1_model};
    use pan_econ::{BusinessModel, CostFunction, PricingFunction};
    use pan_runtime::ThreadPool;
    use pan_topology::fixtures::{asn, fig1};

    /// Dense context over fig1 with the standard model and the D/E
    /// baselines loaded (all other rows zero).
    fn fig1_context(model: &BusinessModel) -> (DenseEconomics, FlowMatrix) {
        let graph = model.graph();
        let econ = DenseEconomics::from_model(model);
        let mut flows = FlowMatrix::zeros(graph);
        let (fd, fe) = baselines();
        flows.set_row(graph, &fd).unwrap();
        flows.set_row(graph, &fe).unwrap();
        (econ, flows)
    }

    fn pair_of(graph: &AsGraph, a: char, b: char) -> CandidatePair {
        let (i, j) = (
            graph.index_of(asn(a)).unwrap(),
            graph.index_of(asn(b)).unwrap(),
        );
        CandidatePair {
            x: i.min(j),
            y: i.max(j),
            peering_hops: 1,
        }
    }

    pub(crate) fn assert_outcomes_match(dense: &PairOutcome, legacy: &PairOutcome, tolerance: f64) {
        assert_eq!((dense.x, dense.y), (legacy.x, legacy.y));
        assert_eq!(dense.segments, legacy.segments, "{}-{}", dense.x, dense.y);
        assert_eq!(
            dense.flow_volume.is_some(),
            legacy.flow_volume.is_some(),
            "flow-volume conclusion diverged for {}-{}: {dense:?} vs {legacy:?}",
            dense.x,
            dense.y
        );
        assert_eq!(
            dense.cash.is_some(),
            legacy.cash.is_some(),
            "cash conclusion diverged for {}-{}",
            dense.x,
            dense.y
        );
        if let (Some(df), Some(lf)) = (&dense.flow_volume, &legacy.flow_volume) {
            assert_eq!((df.reroute, df.attract), (lf.reroute, lf.attract));
            assert!(
                (df.utility_x - lf.utility_x).abs() < tolerance,
                "{df:?} {lf:?}"
            );
            assert!(
                (df.utility_y - lf.utility_y).abs() < tolerance,
                "{df:?} {lf:?}"
            );
        }
        if let (Some(dc), Some(lc)) = (&dense.cash, &legacy.cash) {
            assert_eq!((dc.reroute, dc.attract), (lc.reroute, lc.attract));
            assert!(
                (dc.joint_utility - lc.joint_utility).abs() < tolerance,
                "{dc:?} {lc:?}"
            );
            assert!(
                (dc.transfer_x_to_y - lc.transfer_x_to_y).abs() < tolerance,
                "{dc:?} {lc:?}"
            );
        }
        assert!((dense.surplus - legacy.surplus).abs() < tolerance);
    }

    fn sorted_pairs(mut pairs: Vec<CandidatePair>) -> Vec<CandidatePair> {
        pairs.sort_by_key(|p| (p.x, p.y));
        pairs
    }

    #[test]
    fn per_as_candidates_match_the_full_enumeration() {
        let g = fig1();
        for policy in [
            CandidatePolicy::PeeringAdjacent,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 0,
            },
            CandidatePolicy::PeeringKHop {
                k: 3,
                per_source_cap: 0,
            },
        ] {
            let full = enumerate_candidates(&g, policy);
            for node in 0..g.node_count() as u32 {
                let mine = sorted_pairs(enumerate_candidates_for(&g, policy, node));
                let expected = sorted_pairs(
                    full.iter()
                        .copied()
                        .filter(|p| p.x == node || p.y == node)
                        .collect(),
                );
                assert_eq!(mine, expected, "node {node} under {policy:?}");
            }
        }
    }

    #[test]
    fn per_as_cap_truncates_levels_canonically() {
        let g = fig1();
        let uncapped = enumerate_candidates_for(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 3,
                per_source_cap: 0,
            },
            g.index_of(asn('C')).unwrap(),
        );
        assert!(uncapped.len() > 2, "fixture must have depth to truncate");
        let capped = enumerate_candidates_for(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 3,
                per_source_cap: 2,
            },
            g.index_of(asn('C')).unwrap(),
        );
        assert_eq!(capped.len(), 2);
        // The cap keeps whole levels first; a straddled level is ranked by
        // neighbor ASN, so the capped set is a canonical prefix selection.
        for pair in &capped {
            assert!(uncapped.contains(pair), "{pair:?} not in uncapped set");
        }
        let max_depth = capped.iter().map(|p| p.peering_hops).max().unwrap();
        for pair in &uncapped {
            if pair.peering_hops < max_depth {
                assert!(capped.contains(pair), "dropped a complete level {pair:?}");
            }
        }
    }

    #[test]
    fn adjacent_candidates_cover_fig1_peering_links() {
        let g = fig1();
        let pairs = enumerate_candidates(&g, CandidatePolicy::PeeringAdjacent);
        assert_eq!(pairs.len(), g.peering_link_count());
        for p in &pairs {
            assert!(p.x < p.y);
            assert_eq!(p.peering_hops, 1);
            assert_eq!(g.neighbor_kind_by_index(p.x, p.y), Some(NeighborKind::Peer));
        }
    }

    #[test]
    fn khop_candidates_extend_the_mesh() {
        let g = fig1();
        let one = enumerate_candidates(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 1,
                per_source_cap: 0,
            },
        );
        let adjacent = enumerate_candidates(&g, CandidatePolicy::PeeringAdjacent);
        assert_eq!(one.len(), adjacent.len(), "k = 1 equals adjacency");
        let two = enumerate_candidates(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 0,
            },
        );
        assert!(two.len() > one.len());
        // C–E are peers-of-peers through D.
        let (c, e) = (g.index_of(asn('C')).unwrap(), g.index_of(asn('E')).unwrap());
        assert!(two
            .iter()
            .any(|p| (p.x, p.y) == (c.min(e), c.max(e)) && p.peering_hops == 2));
        // A cap of one pair per source shrinks the list.
        let capped = enumerate_candidates(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 1,
            },
        );
        assert!(capped.len() < two.len());
    }

    #[test]
    fn khop_excludes_transit_linked_pairs() {
        use pan_topology::{AsGraphBuilder, Relationship};
        // X provides transit to Y, yet the two are also 2 peering hops
        // apart through M. They cannot *additionally* establish peering,
        // so the prospective enumeration must not offer them.
        let (x, y, m) = (Asn::new(1), Asn::new(2), Asn::new(3));
        let mut b = AsGraphBuilder::new();
        b.add_link(x, y, Relationship::ProviderToCustomer).unwrap();
        b.add_link(x, m, Relationship::PeerToPeer).unwrap();
        b.add_link(m, y, Relationship::PeerToPeer).unwrap();
        let g = b.build().unwrap();
        let pairs = enumerate_candidates(
            &g,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 0,
            },
        );
        let as_asns: Vec<(Asn, Asn, u8)> = pairs
            .iter()
            .map(|p| (g.asn_at(p.x), g.asn_at(p.y), p.peering_hops))
            .collect();
        assert!(
            !as_asns.iter().any(|&(a, b, _)| (a, b) == (x, y)),
            "transit-linked pair offered as prospective peering: {as_asns:?}"
        );
        assert!(as_asns.contains(&(x, m, 1)));
        assert!(as_asns.contains(&(y, m, 1)) || as_asns.contains(&(m, y, 1)));
    }

    #[test]
    fn khop_cap_finishes_depth_levels() {
        use std::collections::BTreeSet;
        // The cap is soft: once a source starts a depth level it keeps
        // every pair of that level, so the surviving set is a function
        // of the topology alone (a mid-level break would depend on CSR
        // neighbor order). Check on a synthetic internet, where sources
        // have several peers per level.
        let net = pan_datasets::SyntheticInternet::generate(
            &pan_datasets::InternetConfig {
                num_ases: 200,
                tier1_count: 5,
                ..pan_datasets::InternetConfig::default()
            },
            11,
        )
        .unwrap();
        let g = &net.graph;
        let uncapped = enumerate_candidates(
            g,
            CandidatePolicy::PeeringKHop {
                k: 3,
                per_source_cap: 0,
            },
        );
        let capped = enumerate_candidates(
            g,
            CandidatePolicy::PeeringKHop {
                k: 3,
                per_source_cap: 2,
            },
        );
        assert!(capped.len() < uncapped.len(), "cap must bite somewhere");
        // Oracle: per source, whole uncapped depth levels fill the cap in
        // BFS order; the level the cap lands in is truncated to the
        // remaining budget by ascending neighbor ASN — a canonical
        // selection, independent of enumeration order.
        let cap = 2usize;
        let mut expected: BTreeSet<(u32, u32, u8)> = BTreeSet::new();
        let mut by_source: std::collections::BTreeMap<u32, Vec<&CandidatePair>> =
            std::collections::BTreeMap::new();
        for p in &uncapped {
            by_source.entry(p.x).or_default().push(p);
        }
        for pairs in by_source.values() {
            let mut contributed = 0usize;
            for depth in 1..=3u8 {
                let mut level: Vec<u32> = pairs
                    .iter()
                    .filter(|p| p.peering_hops == depth)
                    .map(|p| p.y)
                    .collect();
                level.sort_unstable_by_key(|&v| g.asn_at(v));
                let truncated = contributed + level.len() > cap;
                level.truncate(cap - contributed);
                contributed += level.len();
                for y in level {
                    expected.insert((pairs[0].x, y, depth));
                }
                if truncated || contributed >= cap {
                    break;
                }
            }
        }
        let capped_set: BTreeSet<(u32, u32, u8)> =
            capped.iter().map(|p| (p.x, p.y, p.peering_hops)).collect();
        assert_eq!(capped_set, expected);
        assert_eq!(capped_set.len(), capped.len(), "no duplicate pairs");
        // The cap is now hard: no source exceeds it.
        let mut per_source = std::collections::BTreeMap::new();
        for p in &capped {
            *per_source.entry(p.x).or_insert(0usize) += 1;
        }
        assert!(per_source.values().all(|&c| c <= cap));
    }

    #[test]
    fn dense_matches_legacy_on_fig1() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        let (fd, fe) = baselines();
        for (reroute, attract, grid) in [(0.5, 0.2, 5), (0.6, 0.4, 9), (1.0, 0.0, 3), (0.0, 1.0, 4)]
        {
            let dense = evaluate_candidate(
                &ctx,
                &mut scratch,
                pair_of(model.graph(), 'D', 'E'),
                reroute,
                attract,
                grid,
            )
            .unwrap();
            // Party order: the dense pair is ordered by node index, and
            // D (inserted before E in fig1) is party X there too.
            let legacy =
                evaluate_candidate_legacy(&model, &fd, &fe, reroute, attract, grid).unwrap();
            assert_outcomes_match(&dense, &legacy, 1e-9);
            assert!(
                dense.is_concluded(),
                "D-E should profit at {reroute}/{attract}"
            );
        }
    }

    #[test]
    fn dense_matches_legacy_with_nonlinear_economics() {
        // Congestion pricing on D's provider link, a power-law internal
        // cost and congestion end-host pricing on E: exercises every
        // nonlinear spill path of the dense engine.
        let mut model = fig1_model();
        model.book_mut().set_transit_price(
            asn('A'),
            asn('D'),
            PricingFunction::congestion(0.05, 1.5).unwrap(),
        );
        model
            .book_mut()
            .set_end_host_price(asn('E'), PricingFunction::congestion(0.2, 1.2).unwrap());
        model.set_internal_cost(asn('E'), CostFunction::power_law(0.01, 1.3).unwrap());
        let (econ, mut flows) = fig1_context(&model);
        // Give E end-host demand so the end-host path is exercised.
        let e = model.graph().index_of(asn('E')).unwrap();
        flows.set_end_host(e, 9.0);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        let dense = evaluate_candidate(
            &ctx,
            &mut scratch,
            pair_of(model.graph(), 'D', 'E'),
            0.7,
            0.5,
            6,
        )
        .unwrap();
        let (fd, mut fe) = baselines();
        fe.set_end_host_flow(9.0);
        let legacy = evaluate_candidate_legacy(&model, &fd, &fe, 0.7, 0.5, 6).unwrap();
        assert_outcomes_match(&dense, &legacy, 1e-9);
    }

    #[test]
    fn dense_matches_legacy_across_a_synthetic_internet() {
        use pan_datasets::{InternetConfig, SyntheticInternet};
        let net = SyntheticInternet::generate(
            &InternetConfig {
                num_ases: 260,
                tier1_count: 6,
                ..InternetConfig::default()
            },
            23,
        )
        .unwrap();
        let graph = &net.graph;
        let econ = DenseEconomics::build(
            graph,
            |provider, customer| {
                // Deterministic heterogeneous per-usage rates.
                let salt = u64::from(provider.get()) * 31 + u64::from(customer.get());
                PricingFunction::per_usage(1.0 + (salt % 17) as f64 * 0.25).unwrap()
            },
            |asn| PricingFunction::per_usage(2.0 + f64::from(asn.get() % 3)).unwrap(),
            |asn| CostFunction::linear(0.02 + f64::from(asn.get() % 5) * 0.01).unwrap(),
        );
        let flows = FlowMatrix::degree_gravity(graph, 0.5);
        let ctx = BatchContext::new(graph, &econ, &flows).unwrap();
        let model = econ.to_business_model(graph);
        let mut scratch = PairScratch::new();
        let candidates = enumerate_candidates(graph, CandidatePolicy::PeeringAdjacent);
        assert!(candidates.len() > 100, "need a real mesh to compare");
        let mut concluded = 0usize;
        for &pair in candidates.iter().step_by(7) {
            let dense = evaluate_candidate(&ctx, &mut scratch, pair, 0.5, 0.2, 4).unwrap();
            let fx = flows.to_flow_vec(graph, pair.x);
            let fy = flows.to_flow_vec(graph, pair.y);
            let legacy = evaluate_candidate_legacy(&model, &fx, &fy, 0.5, 0.2, 4).unwrap();
            assert_outcomes_match(&dense, &legacy, 1e-6);
            concluded += usize::from(dense.is_concluded());
        }
        assert!(concluded > 0, "some pair should profit");
    }

    /// The programmed evaluation as the engines run it: derive the
    /// pair's transit structure, then evaluate through it.
    fn eval_programmed(
        ctx: &BatchContext<'_>,
        programs: &NodePrograms,
        scratch: &mut PairScratch,
        pair: CandidatePair,
        grid: usize,
    ) -> Result<PairOutcome> {
        let transit = derive_pair_transit(ctx, pair);
        evaluate_candidate_with(ctx, programs, &transit, scratch, pair, grid)
    }

    #[test]
    fn programmed_evaluator_matches_the_per_pair_evaluator() {
        // `evaluate_candidate_with` sums the same model terms as
        // `evaluate_candidate` in a different association, so the two
        // must agree to oracle tolerance on every candidate shape:
        // share extremes, nonlinear spill paths, and a provider-adjacent
        // partner (the cached collapse is invalid there and is rebuilt
        // with the provider skip).
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        for (reroute, attract, grid) in [(0.5, 0.2, 5), (0.6, 0.4, 9), (1.0, 0.0, 3), (0.0, 1.0, 4)]
        {
            let programs = NodePrograms::build(&ctx, reroute, attract).unwrap();
            let pair = pair_of(model.graph(), 'D', 'E');
            let programmed = eval_programmed(&ctx, &programs, &mut scratch, pair, grid).unwrap();
            let classic =
                evaluate_candidate(&ctx, &mut scratch, pair, reroute, attract, grid).unwrap();
            assert_outcomes_match(&programmed, &classic, 1e-9);
            // A pair whose partner is also a provider: exercised
            // directly (the enumerators never emit transit-adjacent
            // pairs, but the evaluator contract covers them).
            let transit = pair_of(model.graph(), 'A', 'D');
            let programmed = eval_programmed(&ctx, &programs, &mut scratch, transit, grid).unwrap();
            let classic =
                evaluate_candidate(&ctx, &mut scratch, transit, reroute, attract, grid).unwrap();
            assert_outcomes_match(&programmed, &classic, 1e-9);
        }
        assert!(matches!(
            eval_programmed(
                &ctx,
                &NodePrograms::build(&ctx, 0.5, 0.2).unwrap(),
                &mut scratch,
                pair_of(model.graph(), 'D', 'E'),
                1,
            ),
            Err(AgreementError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            NodePrograms::build(&ctx, 1.5, 0.2),
            Err(AgreementError::InvalidFraction { .. })
        ));
    }

    #[test]
    fn programmed_evaluator_matches_with_nonlinear_economics() {
        // Congestion pricing, power-law internal cost, and congestion
        // end-host pricing: every nonlinear spill and merge path of the
        // programmed evaluator, against the per-pair evaluator.
        let mut model = fig1_model();
        model.book_mut().set_transit_price(
            asn('A'),
            asn('D'),
            PricingFunction::congestion(0.05, 1.5).unwrap(),
        );
        model
            .book_mut()
            .set_end_host_price(asn('E'), PricingFunction::congestion(0.2, 1.2).unwrap());
        model.set_internal_cost(asn('E'), CostFunction::power_law(0.01, 1.3).unwrap());
        let (econ, mut flows) = fig1_context(&model);
        let e = model.graph().index_of(asn('E')).unwrap();
        flows.set_end_host(e, 9.0);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let programs = NodePrograms::build(&ctx, 0.7, 0.5).unwrap();
        let mut scratch = PairScratch::new();
        let pair = pair_of(model.graph(), 'D', 'E');
        let programmed = eval_programmed(&ctx, &programs, &mut scratch, pair, 6).unwrap();
        let classic = evaluate_candidate(&ctx, &mut scratch, pair, 0.7, 0.5, 6).unwrap();
        assert_outcomes_match(&programmed, &classic, 1e-9);
    }

    #[test]
    fn programmed_evaluator_matches_across_a_synthetic_internet() {
        use pan_datasets::{InternetConfig, SyntheticInternet};
        let net = SyntheticInternet::generate(
            &InternetConfig {
                num_ases: 260,
                tier1_count: 6,
                ..InternetConfig::default()
            },
            23,
        )
        .unwrap();
        let graph = &net.graph;
        let econ = DenseEconomics::build(
            graph,
            |provider, customer| {
                let salt = u64::from(provider.get()) * 31 + u64::from(customer.get());
                PricingFunction::per_usage(1.0 + (salt % 17) as f64 * 0.25).unwrap()
            },
            |asn| PricingFunction::per_usage(2.0 + f64::from(asn.get() % 3)).unwrap(),
            |asn| CostFunction::linear(0.02 + f64::from(asn.get() % 5) * 0.01).unwrap(),
        );
        let flows = FlowMatrix::degree_gravity(graph, 0.5);
        let ctx = BatchContext::new(graph, &econ, &flows).unwrap();
        let programs = NodePrograms::build(&ctx, 0.5, 0.2).unwrap();
        let mut scratch = PairScratch::new();
        // Adjacent peers and prospective k-hop pairs (which include
        // zero-segment sides on stub sources).
        let mut candidates = enumerate_candidates(graph, CandidatePolicy::PeeringAdjacent);
        candidates.extend(enumerate_candidates(
            graph,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 3,
            },
        ));
        assert!(candidates.len() > 200, "need a real mesh to compare");
        for &pair in &candidates {
            let programmed = eval_programmed(&ctx, &programs, &mut scratch, pair, 4).unwrap();
            let classic = evaluate_candidate(&ctx, &mut scratch, pair, 0.5, 0.2, 4).unwrap();
            assert_outcomes_match(&programmed, &classic, 1e-6);
        }
    }

    #[test]
    fn discover_is_thread_count_independent() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let config = DiscoveryConfig {
            noise: 0.15,
            ..DiscoveryConfig::default()
        };
        let reference = discover(&ctx, &config, &ScenarioSweep::sequential(7)).unwrap();
        for threads in [2, 4, 8] {
            let parallel = discover(
                &ctx,
                &config,
                &ScenarioSweep::new(ThreadPool::new(threads), 7),
            )
            .unwrap();
            assert_eq!(reference, parallel, "{threads} threads diverged");
        }
    }

    #[test]
    fn discover_ranks_by_surplus_and_truncates() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let full = discover(
            &ctx,
            &DiscoveryConfig::default(),
            &ScenarioSweep::sequential(1),
        )
        .unwrap();
        assert_eq!(full.candidates, model.graph().peering_link_count());
        assert!(full
            .outcomes
            .windows(2)
            .all(|w| w[0].surplus >= w[1].surplus));
        // Only D-E has baseline flows, so it must rank first.
        assert_eq!(
            (full.outcomes[0].x, full.outcomes[0].y),
            (asn('D'), asn('E'))
        );
        assert!(full.concluded_cash >= 1);
        assert!(full.total_surplus > 0.0);
        let top = discover(
            &ctx,
            &DiscoveryConfig {
                top: 1,
                ..DiscoveryConfig::default()
            },
            &ScenarioSweep::sequential(1),
        )
        .unwrap();
        assert_eq!(top.outcomes.len(), 1);
        assert_eq!(top.candidates, full.candidates);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        for config in [
            DiscoveryConfig {
                reroute_share: 1.5,
                ..DiscoveryConfig::default()
            },
            DiscoveryConfig {
                noise: f64::NAN,
                ..DiscoveryConfig::default()
            },
            DiscoveryConfig {
                grid: 1,
                ..DiscoveryConfig::default()
            },
        ] {
            assert!(
                discover(&ctx, &config, &ScenarioSweep::sequential(1)).is_err(),
                "{config:?} must be rejected"
            );
        }
    }

    #[test]
    fn mismatched_tables_are_rejected() {
        let model = fig1_model();
        let econ = DenseEconomics::from_model(&model);
        let other = pan_topology::fixtures::diamond();
        let flows = FlowMatrix::zeros(&other);
        assert!(BatchContext::new(model.graph(), &econ, &flows).is_err());
    }

    #[test]
    fn degenerate_grid_is_rejected_by_both_engines() {
        // `DiscoveryConfig::validate` rejects grid < 2; the two engine
        // twins must agree with it instead of silently clamping — a
        // single grid point has no well-defined step, and a silent clamp
        // would let `discover` and a direct evaluation disagree.
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        let pair = pair_of(model.graph(), 'D', 'E');
        let (fd, fe) = baselines();
        for grid in [0, 1] {
            let dense = evaluate_candidate(&ctx, &mut scratch, pair, 0.6, 0.3, grid);
            assert!(
                matches!(
                    dense,
                    Err(AgreementError::DimensionMismatch {
                        expected: 2,
                        actual,
                    }) if actual == grid
                ),
                "dense grid {grid} must error, got {dense:?}"
            );
            let legacy = evaluate_candidate_legacy(&model, &fd, &fe, 0.6, 0.3, grid);
            assert!(
                matches!(
                    legacy,
                    Err(AgreementError::DimensionMismatch {
                        expected: 2,
                        actual,
                    }) if actual == grid
                ),
                "legacy grid {grid} must error, got {legacy:?}"
            );
        }
        // grid = 2 is the smallest accepted value on both paths.
        let dense = evaluate_candidate(&ctx, &mut scratch, pair, 0.6, 0.3, 2).unwrap();
        let legacy = evaluate_candidate_legacy(&model, &fd, &fe, 0.6, 0.3, 2).unwrap();
        assert_outcomes_match(&dense, &legacy, 1e-9);
    }

    #[test]
    fn invalid_shares_are_rejected_by_the_dense_engine() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        let pair = pair_of(model.graph(), 'D', 'E');
        for (reroute, attract) in [(1.5, 0.2), (-0.1, 0.2), (0.5, f64::NAN)] {
            assert!(matches!(
                evaluate_candidate(&ctx, &mut scratch, pair, reroute, attract, 5),
                Err(AgreementError::InvalidFraction { .. })
            ));
        }
    }

    #[test]
    fn report_assembly_ranks_and_truncates() {
        let outcome = |x: u32, surplus: f64, cash: bool| PairOutcome {
            x: Asn::new(x),
            y: Asn::new(x + 100),
            peering_hops: 1,
            shares: (0.5, 0.2),
            segments: (1, 1),
            flow_volume: None,
            cash: cash.then_some(CashPoint {
                reroute: 1.0,
                attract: 0.0,
                joint_utility: surplus,
                transfer_x_to_y: 0.0,
            }),
            surplus,
        };
        let report = DiscoveryReport::from_outcomes(
            vec![
                outcome(1, 2.0, true),
                outcome(2, 5.0, true),
                outcome(3, 0.0, false),
            ],
            2,
        );
        assert_eq!(report.candidates, 3);
        assert_eq!(report.concluded_cash, 2);
        assert_eq!(report.concluded_flow_volume, 0);
        assert!((report.total_surplus - 7.0).abs() < 1e-12);
        assert_eq!(report.outcomes.len(), 2, "truncated to top");
        assert_eq!(report.outcomes[0].x, Asn::new(2), "highest surplus first");
        // A NaN surplus (impossible from the engines, which reject
        // non-finite utilities, but reachable through the public
        // constructor) must not panic the ranking.
        let report = DiscoveryReport::from_outcomes(
            vec![outcome(1, f64::NAN, false), outcome(2, 1.0, true)],
            0,
        );
        assert_eq!(report.candidates, 2);
        assert!(report.outcomes.iter().any(|o| o.surplus.is_nan()));
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_pairs() {
        let model = fig1_model();
        let (econ, flows) = fig1_context(&model);
        let ctx = BatchContext::new(model.graph(), &econ, &flows).unwrap();
        let mut scratch = PairScratch::new();
        let pair = pair_of(model.graph(), 'D', 'E');
        let first = evaluate_candidate(&ctx, &mut scratch, pair, 0.6, 0.3, 5).unwrap();
        // Evaluate an unrelated pair in between, then repeat.
        let _ = evaluate_candidate(
            &ctx,
            &mut scratch,
            pair_of(model.graph(), 'A', 'B'),
            0.6,
            0.3,
            5,
        )
        .unwrap();
        let second = evaluate_candidate(&ctx, &mut scratch, pair, 0.6, 0.3, 5).unwrap();
        assert_eq!(first, second);
    }

    /// One generated outcome for the ranked-scan equivalence: surplus
    /// on a coarse grid of levels (ties, and values exactly at the
    /// threshold), few ASNs (busy-party collisions), an optional cash
    /// optimum independent of the surplus, and a flag (carried in
    /// `peering_hops`) marking outcomes whose adoption-time refresh
    /// fails, so their parties stay free.
    fn scan_outcome(level: u8, x: u32, y: u32, cash: bool, refresh_fails: bool) -> PairOutcome {
        let surplus = f64::from(level) * 0.5;
        PairOutcome {
            x: Asn::new(x),
            y: Asn::new(y),
            peering_hops: if refresh_fails { 2 } else { 1 },
            shares: (0.5, 0.2),
            segments: (1, 1),
            flow_volume: None,
            cash: cash.then_some(CashPoint {
                reroute: 1.0,
                attract: 0.0,
                joint_utility: surplus,
                transfer_x_to_y: 0.0,
            }),
            surplus,
        }
    }

    /// The evolution round's party-disjoint adoption loop over a ranked
    /// sequence of outcomes: up to `adopt_top` adoptions, busy parties
    /// skipped, failed refreshes leaving their parties free.
    fn adopt_from<'a>(
        ranked: impl Iterator<Item = &'a PairOutcome>,
        adopt_top: usize,
    ) -> Vec<PairOutcome> {
        let mut busy = std::collections::HashSet::new();
        let mut adopted = Vec::new();
        let mut ranked = ranked;
        while adopted.len() < adopt_top {
            let Some(outcome) = ranked.next() else {
                break;
            };
            if busy.contains(&outcome.x) || busy.contains(&outcome.y) {
                continue;
            }
            if outcome.peering_hops == 2 {
                continue;
            }
            busy.insert(outcome.x);
            busy.insert(outcome.y);
            adopted.push(outcome.clone());
        }
        adopted
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The chunked key ranking reads exactly the report ranking's
        /// scan prefix, and an adoption loop over it adopts exactly
        /// what the same loop over the fully sorted report adopts —
        /// for tied surpluses, cash-less outcomes, surpluses at the
        /// threshold, any `adopt_top`, and first chunks small enough
        /// that busy-party skips force it to widen.
        #[test]
        fn ranked_scan_matches_the_sorted_report_scan(
            raw in prop::collection::vec((0u8..6, 1u32..6, 1u32..6, 0u8..4, 0u8..5), 0..60),
            threshold in 0u8..4,
            adopt_top in 0usize..12,
            first_chunk in 0usize..5,
        ) {
            let outcomes: Vec<PairOutcome> = raw
                .iter()
                .map(|&(level, x, y, cash, fails)| scan_outcome(level, x, y, cash > 0, fails == 0))
                .collect();
            let min_surplus = f64::from(threshold) * 0.5;
            let report = DiscoveryReport::from_outcomes(outcomes.clone(), 0);
            let prefix: Vec<&PairOutcome> = report
                .outcomes
                .iter()
                .take_while(|o| o.cash.is_some() && o.surplus > min_surplus)
                .collect();

            let mut keys = Vec::new();
            let scanned: Vec<&PairOutcome> =
                ranked_scan(&outcomes, min_surplus, &mut keys, first_chunk)
                    .map(|index| &outcomes[index])
                    .collect();
            prop_assert_eq!(&scanned, &prefix);

            let expected = adopt_from(prefix.iter().copied(), adopt_top);
            let adopted = adopt_from(
                ranked_scan(&outcomes, min_surplus, &mut keys, first_chunk)
                    .map(|index| &outcomes[index]),
                adopt_top,
            );
            prop_assert_eq!(adopted, expected);
        }
    }

    #[test]
    fn ranked_scan_widens_past_busy_hubs() {
        // One hub on the eight best pairs: a first chunk of two is used
        // up by hub pairs after the first adoption, so reaching the
        // second adoption takes two widenings.
        let mut outcomes: Vec<PairOutcome> = (0..8)
            .map(|i| scan_outcome(20 - i as u8, 1, 10 + i, true, false))
            .collect();
        outcomes.push(scan_outcome(3, 30, 31, true, false));
        outcomes.push(scan_outcome(0, 40, 41, false, false));
        let mut keys = Vec::new();
        let adopted = adopt_from(
            ranked_scan(&outcomes, 0.0, &mut keys, 2).map(|index| &outcomes[index]),
            2,
        );
        assert_eq!(adopted.len(), 2);
        assert_eq!((adopted[0].x, adopted[0].y), (Asn::new(1), Asn::new(10)));
        assert_eq!((adopted[1].x, adopted[1].y), (Asn::new(30), Asn::new(31)));
        assert_eq!(keys.len(), 9, "only outcomes above the threshold are keyed");
    }
}
