//! Dense, index-keyed flow and pricing tables for topology-wide batch
//! evaluation.
//!
//! The per-pair types of this crate ([`FlowVec`],
//! [`PricingBook`](crate::PricingBook), [`BusinessModel`]) are
//! `BTreeMap`/`HashMap`-keyed — fine for one
//! hand-picked agreement, hostile to a sweep over every candidate pair of
//! a 10k-AS internet. This module provides the batch counterparts, all
//! aligned with the CSR adjacency of [`AsGraph`]:
//!
//! - [`FlowMatrix`]: the flow decomposition `f_X` of *every* AS at once,
//!   one packed `f64` row per AS in [`AsGraph::neighbor_indices`] order
//!   plus a trailing end-host slot — reading `f_XY` is one indexed load.
//! - [`DenseEconomics`]: the pricing function and revenue/cost direction
//!   of every adjacency entry, the end-host price, and the internal-cost
//!   function of every AS, resolved once at construction so the hot loop
//!   never touches a hash table.
//!
//! Together they make the agreement utilities of Eq. (1)/(3) computable
//! per-entry and incrementally: a candidate agreement touches `O(degree)`
//! row entries, and its utility delta is the sum of the per-entry price
//! deltas plus the internal-cost delta — no flow-vector clones, no map
//! lookups, no re-evaluation of untouched flows.

use serde::{Deserialize, Serialize};

use pan_topology::{AsGraph, Asn};

use crate::{BusinessModel, CostFunction, EconError, FlowVec, PricingFunction, Result};

/// Dense per-AS flow decompositions for an entire topology.
///
/// Row `i` (an [`AsGraph`] node index) holds one volume per packed
/// neighbor of `i` — same order as [`AsGraph::neighbor_indices`] — plus a
/// trailing **end-host** slot (`f_{X,Γ_X}`), mirroring the [`FlowVec`]
/// convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMatrix {
    /// `node_count + 1` prefix offsets; row `i` spans
    /// `offsets[i]..offsets[i+1]` of `values` (length `degree(i) + 1`).
    offsets: Vec<u32>,
    values: Vec<f64>,
}

impl FlowMatrix {
    /// An all-zero matrix shaped for `graph`.
    #[must_use]
    pub fn zeros(graph: &AsGraph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for i in 0..n as u32 {
            total += graph.degree_of_index(i) as u32 + 1;
            offsets.push(total);
        }
        FlowMatrix {
            offsets,
            values: vec![0.0; total as usize],
        }
    }

    /// Degree-gravity baselines: the flow exchanged over every link is
    /// `scale · deg(a) · deg(b)` (the same model the bandwidth analysis
    /// of §VI-C uses for capacities), and the end-host flow of an AS is
    /// `scale · deg(X)²` — its "self-gravity" demand. One pass over the
    /// adjacency, no quadratic work.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    #[must_use]
    pub fn degree_gravity(graph: &AsGraph, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite, got {scale}"
        );
        let mut matrix = FlowMatrix::zeros(graph);
        for i in 0..graph.node_count() as u32 {
            let di = graph.degree_of_index(i) as f64;
            let start = matrix.offsets[i as usize] as usize;
            for (p, &j) in graph.neighbor_indices(i).iter().enumerate() {
                let dj = graph.degree_of_index(j) as f64;
                matrix.values[start + p] = scale * di * dj;
            }
            let end = matrix.offsets[i as usize + 1] as usize;
            matrix.values[end - 1] = scale * di * di;
        }
        matrix
    }

    /// Number of rows (ASes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The packed row of node `i`: neighbor volumes followed by the
    /// end-host volume.
    #[inline]
    #[must_use]
    pub fn row(&self, node: u32) -> &[f64] {
        &self.values[self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }

    /// Mutable access to the packed row of node `i`.
    #[inline]
    pub fn row_mut(&mut self, node: u32) -> &mut [f64] {
        &mut self.values
            [self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }

    /// The flow to the neighbor at packed position `pos` of node `i`.
    #[inline]
    #[must_use]
    pub fn flow(&self, node: u32, pos: usize) -> f64 {
        self.values[self.offsets[node as usize] as usize + pos]
    }

    /// Sets the flow to the neighbor at packed position `pos` of node `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for negative or non-finite volumes.
    #[inline]
    pub fn set(&mut self, node: u32, pos: usize, volume: f64) {
        debug_assert!(
            volume.is_finite() && volume >= 0.0,
            "flow volume must be finite and non-negative, got {volume}"
        );
        self.values[self.offsets[node as usize] as usize + pos] = volume.max(0.0);
    }

    /// The end-host flow `f_{X,Γ_X}` of node `i`.
    #[inline]
    #[must_use]
    pub fn end_host(&self, node: u32) -> f64 {
        self.values[self.offsets[node as usize + 1] as usize - 1]
    }

    /// Sets the end-host flow of node `i`.
    #[inline]
    pub fn set_end_host(&mut self, node: u32, volume: f64) {
        debug_assert!(
            volume.is_finite() && volume >= 0.0,
            "flow volume must be finite and non-negative, got {volume}"
        );
        let at = self.offsets[node as usize + 1] as usize - 1;
        self.values[at] = volume.max(0.0);
    }

    /// Total flow through node `i` (sum of the row, end-hosts included).
    #[must_use]
    pub fn total(&self, node: u32) -> f64 {
        self.row(node).iter().sum()
    }

    /// All per-node totals in node-index order (precompute once before a
    /// sweep instead of summing rows per candidate pair).
    #[must_use]
    pub fn totals(&self) -> Vec<f64> {
        (0..self.node_count() as u32)
            .map(|i| self.total(i))
            .collect()
    }

    /// Total flow through the whole matrix: the sum of the per-node
    /// totals in node order, without materializing them — bitwise
    /// identical to `totals().iter().sum()` (same per-row partial sums,
    /// same outer summation order).
    #[must_use]
    pub fn grand_total(&self) -> f64 {
        (0..self.node_count() as u32).map(|i| self.total(i)).sum()
    }

    /// Bytes resident in this matrix's heap allocations (capacities, not
    /// lengths — what the allocator actually holds).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>() + self.values.capacity() * size_of::<f64>()
    }

    /// Overwrites the row of `flows.asn()` from a [`FlowVec`].
    ///
    /// # Errors
    ///
    /// Returns [`EconError::Topology`] if the AS or one of its flow
    /// neighbors is unknown to `graph` / not adjacent.
    pub fn set_row(&mut self, graph: &AsGraph, flows: &FlowVec) -> Result<()> {
        let node = graph.index_of(flows.asn())?;
        let start = self.offsets[node as usize] as usize;
        self.row_mut(node).fill(0.0);
        for (neighbor, volume) in flows.iter() {
            if neighbor == flows.asn() {
                self.set_end_host(node, volume);
                continue;
            }
            let j = graph.index_of(neighbor)?;
            let pos = graph.neighbor_position(node, j).ok_or_else(|| {
                EconError::Topology(pan_topology::TopologyError::UnknownLink {
                    a: flows.asn(),
                    b: neighbor,
                })
            })?;
            self.values[start + pos] = volume;
        }
        Ok(())
    }

    /// Opens a zero-volume slot for a new link at each of its two ends,
    /// given as `(node, packed position)` — the positions
    /// [`AsGraph::add_peering_link`] returns. Keeps the matrix shaped for
    /// the graph after the link is added; every other volume keeps its
    /// value and its link.
    ///
    /// # Panics
    ///
    /// Panics if a position lies past the end of its node's neighbor
    /// entries.
    pub fn insert_link(&mut self, ends: [(u32, usize); 2]) {
        self.values.reserve_exact(ends.len());
        for (node, pos) in ends {
            let at = insert_at(&mut self.offsets, node, pos, 1);
            self.values.insert(at, 0.0);
        }
    }

    /// Deserialization hook: checks that the matrix is internally
    /// consistent and shaped for `graph` (one row per node, each of
    /// length `degree + 1`, finite non-negative volumes). The derive
    /// bypasses every constructor, so a matrix read from a checkpoint
    /// must pass here before any indexed accessor touches it.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::Topology`] /
    /// [`pan_topology::TopologyError::CorruptWire`] naming the first
    /// violation, or [`EconError::InvalidFlow`] for an invalid volume.
    pub fn validate_shape(&self, graph: &AsGraph) -> Result<()> {
        validate_offsets(&self.offsets, graph, 1, "flow matrix")?;
        if self.values.len() != *self.offsets.last().expect("validated non-empty") as usize {
            return Err(corrupt(format!(
                "flow matrix stores {} values for {} row slots",
                self.values.len(),
                self.offsets.last().expect("validated non-empty")
            )));
        }
        for &volume in &self.values {
            if !volume.is_finite() || volume < 0.0 {
                return Err(EconError::InvalidFlow { volume });
            }
        }
        Ok(())
    }

    /// Extracts the row of node `i` as an ASN-keyed [`FlowVec`]
    /// (zero-volume entries are skipped, matching sparse conventions).
    #[must_use]
    pub fn to_flow_vec(&self, graph: &AsGraph, node: u32) -> FlowVec {
        let mut flows = FlowVec::new(graph.asn_at(node));
        for (pos, &j) in graph.neighbor_indices(node).iter().enumerate() {
            let volume = self.flow(node, pos);
            if volume > 0.0 {
                flows.set(graph.asn_at(j), volume);
            }
        }
        let end_host = self.end_host(node);
        if end_host > 0.0 {
            flows.set_end_host_flow(end_host);
        }
        flows
    }
}

fn corrupt(reason: String) -> EconError {
    EconError::Topology(pan_topology::TopologyError::CorruptWire { reason })
}

/// Shared offset-table check for the dense wire formats: `node_count + 1`
/// monotone offsets starting at 0, with row `i` spanning
/// `degree(i) + extra_slots` entries.
fn validate_offsets(
    offsets: &[u32],
    graph: &AsGraph,
    extra_slots: usize,
    what: &str,
) -> Result<()> {
    let n = graph.node_count();
    if offsets.len() != n + 1 || offsets[0] != 0 {
        return Err(corrupt(format!(
            "{what} has {} offsets for {n} nodes",
            offsets.len()
        )));
    }
    for i in 0..n {
        let expected = graph.degree_of_index(i as u32) + extra_slots;
        let actual = offsets[i + 1].checked_sub(offsets[i]).map(|w| w as usize);
        if actual != Some(expected) {
            return Err(corrupt(format!(
                "{what} row {i} spans {actual:?} entries, graph degree implies {expected}"
            )));
        }
    }
    Ok(())
}

/// The absolute index at which a slot inserted at packed position `pos`
/// of row `node` lands, with every later row shifted by one; rows carry
/// `extra_slots` trailing slots past their neighbor entries.
fn insert_at(offsets: &mut [u32], node: u32, pos: usize, extra_slots: usize) -> usize {
    let node = node as usize;
    let row = offsets[node] as usize;
    let degree = offsets[node + 1] as usize - row - extra_slots;
    assert!(
        pos <= degree,
        "insert position {pos} out of range for node {node} (degree {degree})"
    );
    for offset in &mut offsets[node + 1..] {
        *offset += 1;
    }
    row + pos
}

/// The pricing attached to one packed adjacency entry of an AS: the
/// function, and whether its value is revenue (`+1`, customers), cost
/// (`−1`, providers), or settlement-free (`0`, peers) for the row owner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricedEntry {
    /// The pricing function of the link, from the row owner's side.
    pub price: PricingFunction,
    /// `+1.0` revenue, `−1.0` cost, `0.0` settlement-free.
    pub sign: f64,
}

impl PricedEntry {
    /// The signed utility delta of moving this entry from `flow` to
    /// `flow + delta` (clamped at zero, as flows cannot go negative).
    ///
    /// # Errors
    ///
    /// Propagates [`EconError::InvalidFlow`] for non-finite flows.
    #[inline]
    pub fn utility_delta(&self, flow: f64, delta: f64) -> Result<f64> {
        if self.sign == 0.0 || delta == 0.0 {
            return Ok(0.0);
        }
        if let Some(rate) = self.price.linear_rate() {
            // Linear fast path — exact as long as the new flow stays
            // non-negative, which callers guarantee (reroute never moves
            // more than the baseline).
            return Ok(self.sign * rate * ((flow + delta).max(0.0) - flow));
        }
        let new = (flow + delta).max(0.0);
        Ok(self.sign * (self.price.price(new)? - self.price.price(flow)?))
    }
}

/// The SoA lane classification of one entry. Mirrors the hot-loop
/// dispatch order exactly: settlement-free entries are skipped *before*
/// the price is inspected, so a peer entry with a nonlinear price is
/// `(0.0, false)` — not nonlinear — just as the dispatching loops never
/// pushed it to their nonlinear side lists.
#[inline]
fn lane_of(entry: &PricedEntry) -> (f64, bool) {
    if entry.sign == 0.0 {
        (0.0, false)
    } else {
        match entry.price.linear_rate() {
            Some(rate) => (entry.sign * rate, false),
            None => (0.0, true),
        }
    }
}

/// Dense per-entry economics for an entire topology: the batch
/// counterpart of [`BusinessModel`].
///
/// `entries` is parallel to the packed CSR adjacency (one [`PricedEntry`]
/// per `(node, neighbor position)`), so evaluating or perturbing the
/// utility of Eq. (1) is pure indexed arithmetic.
///
/// Alongside the entry table the struct maintains two derived
/// structure-of-arrays lanes, also parallel to the adjacency:
/// [`signed_rate_row`](Self::signed_rate_row) holds `sign · linear_rate`
/// for every linearly priced entry (and `0.0` for peers and nonlinear
/// entries), and [`nonlinear_row`](Self::nonlinear_row) flags the entries
/// whose price has no linear rate. The Σ sign·rate transit collapses of
/// the discovery engine stream the `f64` lane branch-free instead of
/// dispatching on the pricing enum per entry. The lanes are derived
/// state: they are rebuilt by every constructor and mutator and are
/// excluded from the wire format (the serialized form is unchanged from
/// pre-SoA checkpoints).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseEconomics {
    /// `node_count + 1` prefix offsets into `entries` (row `i` has
    /// `degree(i)` entries).
    offsets: Vec<u32>,
    entries: Vec<PricedEntry>,
    end_host_price: Vec<PricingFunction>,
    internal_cost: Vec<CostFunction>,
    /// SoA lane: `sign · linear_rate` per entry, `0.0` where the entry is
    /// settlement-free or nonlinear. Derived from `entries`; not wired.
    #[serde(skip)]
    signed_rate: Vec<f64>,
    /// SoA lane: `true` where the entry carries a nonlinear price that
    /// the linear lane cannot represent. Derived from `entries`.
    #[serde(skip)]
    nonlinear: Vec<bool>,
}

/// The wire format of [`DenseEconomics`] predates the SoA lanes, so
/// deserialization mirrors the derive field-by-field and then rebuilds
/// the derived lanes — every instance read from a checkpoint has valid
/// lanes without caller cooperation.
impl Deserialize for DenseEconomics {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let mut econ = DenseEconomics {
            offsets: Deserialize::from_value(v.field("offsets")?)?,
            entries: Deserialize::from_value(v.field("entries")?)?,
            end_host_price: Deserialize::from_value(v.field("end_host_price")?)?,
            internal_cost: Deserialize::from_value(v.field("internal_cost")?)?,
            signed_rate: Vec::new(),
            nonlinear: Vec::new(),
        };
        econ.rebuild_lanes();
        Ok(econ)
    }
}

impl DenseEconomics {
    /// Builds the dense tables from closures — the constructor for
    /// synthetic economies, where prices are derived from the topology
    /// rather than read from a hash-keyed book.
    ///
    /// `transit_price(provider, customer)` returns the price `provider`
    /// charges `customer`; it is invoked from both endpoints of a transit
    /// link with identical arguments, so it must be a pure function of
    /// them. `end_host_price` and `internal_cost` are invoked once per AS.
    pub fn build(
        graph: &AsGraph,
        mut transit_price: impl FnMut(Asn, Asn) -> PricingFunction,
        mut end_host_price: impl FnMut(Asn) -> PricingFunction,
        mut internal_cost: impl FnMut(Asn) -> CostFunction,
    ) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut entries = Vec::new();
        let mut end_host = Vec::with_capacity(n);
        let mut internal = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let me = graph.asn_at(i);
            let (p_end, e_end) = graph.class_boundaries(i);
            for (pos, &j) in graph.neighbor_indices(i).iter().enumerate() {
                let other = graph.asn_at(j);
                let entry = if pos < p_end {
                    // Provider of `me`: the provider charges `me`.
                    PricedEntry {
                        price: transit_price(other, me),
                        sign: -1.0,
                    }
                } else if pos < e_end {
                    PricedEntry {
                        price: PricingFunction::free(),
                        sign: 0.0,
                    }
                } else {
                    // Customer of `me`: `me` charges the customer.
                    PricedEntry {
                        price: transit_price(me, other),
                        sign: 1.0,
                    }
                };
                entries.push(entry);
            }
            offsets.push(entries.len() as u32);
            end_host.push(end_host_price(me));
            internal.push(internal_cost(me));
        }
        let mut econ = DenseEconomics {
            offsets,
            entries,
            end_host_price: end_host,
            internal_cost: internal,
            signed_rate: Vec::new(),
            nonlinear: Vec::new(),
        };
        econ.rebuild_lanes();
        econ
    }

    /// Resolves a map-keyed [`BusinessModel`] into dense tables (one
    /// hash lookup per link at build time, zero afterwards).
    #[must_use]
    pub fn from_model(model: &BusinessModel) -> Self {
        let book = model.book();
        DenseEconomics::build(
            model.graph(),
            |provider, customer| book.transit_price(provider, customer),
            |asn| book.end_host_price(asn),
            |asn| model.internal_cost(asn),
        )
    }

    /// Rebuilds an equivalent map-keyed [`BusinessModel`] (for the
    /// sparse per-pair optimizers and as the oracle in equivalence
    /// tests). `graph` must be the graph the tables were built from.
    #[must_use]
    pub fn to_business_model(&self, graph: &AsGraph) -> BusinessModel {
        let mut book = crate::PricingBook::new();
        for i in 0..graph.node_count() as u32 {
            let me = graph.asn_at(i);
            let (_, e_end) = graph.class_boundaries(i);
            for (pos, &j) in graph.neighbor_indices(i).iter().enumerate() {
                if pos >= e_end {
                    // Record each transit price once, from the provider side.
                    book.set_transit_price(me, graph.asn_at(j), self.entry(i, pos).price);
                }
            }
            book.set_end_host_price(me, self.end_host_price(i));
        }
        let mut model = BusinessModel::new(graph.clone(), book);
        for i in 0..graph.node_count() as u32 {
            model.set_internal_cost(graph.asn_at(i), self.internal_cost(i));
        }
        model
    }

    /// Inserts the settlement-free entry of a new peering link
    /// ([`PricingFunction::free`], `sign == 0`) at each of its two ends,
    /// given as `(node, packed position)` — the positions
    /// [`AsGraph::add_peering_link`] returns. That is what adopting a
    /// prospective mutuality agreement creates; every other entry keeps
    /// its price and its link.
    ///
    /// # Panics
    ///
    /// Panics if a position lies past the end of its node's row.
    pub fn insert_peering_link(&mut self, ends: [(u32, usize); 2]) {
        let entry = PricedEntry {
            price: PricingFunction::free(),
            sign: 0.0,
        };
        let (rate, nonlinear) = lane_of(&entry);
        self.entries.reserve_exact(ends.len());
        self.signed_rate.reserve_exact(ends.len());
        self.nonlinear.reserve_exact(ends.len());
        for (node, pos) in ends {
            let at = insert_at(&mut self.offsets, node, pos, 0);
            self.entries.insert(at, entry);
            self.signed_rate.insert(at, rate);
            self.nonlinear.insert(at, nonlinear);
        }
    }

    /// Scales the price of the packed adjacency entry at `pos` of `node`
    /// by `factor` (see [`PricingFunction::scaled`]) — one side of a
    /// market price shock. Transit links have **two** entries (one per
    /// endpoint); shock both for a consistent book.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a negative or
    /// non-finite factor.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a position of `node`'s row — a silent
    /// out-of-range write would reprice a different AS's link.
    pub fn scale_entry_price(&mut self, node: u32, pos: usize, factor: f64) -> Result<()> {
        let row = self.offsets[node as usize] as usize;
        let row_len = self.offsets[node as usize + 1] as usize - row;
        assert!(
            pos < row_len,
            "entry position {pos} out of range for node {node} (degree {row_len})"
        );
        let at = row + pos;
        self.entries[at].price = self.entries[at].price.scaled(factor)?;
        let (rate, nonlinear) = lane_of(&self.entries[at]);
        self.signed_rate[at] = rate;
        self.nonlinear[at] = nonlinear;
        Ok(())
    }

    /// Scales the end-host price of `node` by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`EconError::InvalidParameter`] for a negative or
    /// non-finite factor.
    pub fn scale_end_host_price(&mut self, node: u32, factor: f64) -> Result<()> {
        let price = &mut self.end_host_price[node as usize];
        *price = price.scaled(factor)?;
        Ok(())
    }

    /// Deserialization hook: checks that the tables are internally
    /// consistent and shaped for `graph` — one entry per packed adjacency
    /// slot, per-AS end-host and internal-cost tables of the right
    /// length, every pricing/cost function inside its constructor domain,
    /// and every entry sign consistent with the link's class (providers
    /// cost, customers earn, peers are settlement-free).
    ///
    /// # Errors
    ///
    /// Returns [`EconError::Topology`] /
    /// [`pan_topology::TopologyError::CorruptWire`] naming the first
    /// shape violation, or [`EconError::InvalidParameter`] for a function
    /// outside its domain.
    pub fn validate_shape(&self, graph: &AsGraph) -> Result<()> {
        let n = graph.node_count();
        validate_offsets(&self.offsets, graph, 0, "pricing table")?;
        if self.entries.len() != *self.offsets.last().expect("validated non-empty") as usize {
            return Err(corrupt(format!(
                "pricing table stores {} entries for {} adjacency slots",
                self.entries.len(),
                self.offsets.last().expect("validated non-empty")
            )));
        }
        for (name, len) in [
            ("end-host price", self.end_host_price.len()),
            ("internal cost", self.internal_cost.len()),
        ] {
            if len != n {
                return Err(corrupt(format!(
                    "{name} table has {len} rows for {n} nodes"
                )));
            }
        }
        for i in 0..n as u32 {
            let (p_end, e_end) = graph.class_boundaries(i);
            for pos in 0..graph.degree_of_index(i) {
                let entry = self.entry(i, pos);
                entry.price.validate_params()?;
                let expected_sign = if pos < p_end {
                    -1.0
                } else if pos < e_end {
                    0.0
                } else {
                    1.0
                };
                if entry.sign != expected_sign {
                    return Err(corrupt(format!(
                        "pricing entry ({i}, {pos}) has sign {}, link class implies {expected_sign}",
                        entry.sign
                    )));
                }
            }
            self.end_host_price(i).validate_params()?;
            self.internal_cost(i).validate_params()?;
        }
        Ok(())
    }

    /// Recomputes the SoA lanes from the entry table. Every constructor
    /// and entry mutator must leave the lanes in sync; this is the single
    /// place that derives them.
    fn rebuild_lanes(&mut self) {
        self.signed_rate.clear();
        self.nonlinear.clear();
        self.signed_rate.reserve_exact(self.entries.len());
        self.nonlinear.reserve_exact(self.entries.len());
        for entry in &self.entries {
            let (rate, nonlinear) = lane_of(entry);
            self.signed_rate.push(rate);
            self.nonlinear.push(nonlinear);
        }
    }

    /// The priced entry at packed position `pos` of node `i`.
    #[inline]
    #[must_use]
    pub fn entry(&self, node: u32, pos: usize) -> PricedEntry {
        self.entries[self.offsets[node as usize] as usize + pos]
    }

    /// SoA lane of node `i`: `sign · linear_rate` per packed adjacency
    /// position (`0.0` for settlement-free and nonlinear entries), in
    /// [`AsGraph::neighbor_indices`] order. Summing a prefix of this row
    /// is bitwise identical to the dispatching loop it replaces: the
    /// skipped entries contribute `+0.0`, and an accumulator that starts
    /// at `+0.0` is unchanged by adding either zero.
    #[inline]
    #[must_use]
    pub fn signed_rate_row(&self, node: u32) -> &[f64] {
        &self.signed_rate
            [self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }

    /// SoA lane of node `i`: which packed adjacency positions carry a
    /// nonlinear price (and therefore need the [`entry`](Self::entry)
    /// side table). Parallel to [`signed_rate_row`](Self::signed_rate_row).
    #[inline]
    #[must_use]
    pub fn nonlinear_row(&self, node: u32) -> &[bool] {
        &self.nonlinear
            [self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }

    /// Bytes resident in this table's heap allocations (capacities, not
    /// lengths — what the allocator actually holds).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.entries.capacity() * size_of::<PricedEntry>()
            + self.end_host_price.capacity() * size_of::<PricingFunction>()
            + self.internal_cost.capacity() * size_of::<CostFunction>()
            + self.signed_rate.capacity() * size_of::<f64>()
            + self.nonlinear.capacity() * size_of::<bool>()
    }

    /// The end-host pricing function of node `i`.
    #[inline]
    #[must_use]
    pub fn end_host_price(&self, node: u32) -> PricingFunction {
        self.end_host_price[node as usize]
    }

    /// The internal-cost function of node `i`.
    #[inline]
    #[must_use]
    pub fn internal_cost(&self, node: u32) -> CostFunction {
        self.internal_cost[node as usize]
    }

    /// Number of rows (ASes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Utility `U_X(f_X)` of node `i` per Eq. (1), evaluated from the
    /// dense row — the batch equivalent of [`BusinessModel::utility`].
    ///
    /// # Errors
    ///
    /// Propagates [`EconError::InvalidFlow`] for invalid volumes.
    pub fn utility(&self, flows: &FlowMatrix, node: u32) -> Result<f64> {
        let row = flows.row(node);
        let base = self.offsets[node as usize] as usize;
        let mut utility = 0.0;
        for (pos, &volume) in row[..row.len() - 1].iter().enumerate() {
            let entry = self.entries[base + pos];
            if entry.sign != 0.0 {
                utility += entry.sign * entry.price.price(volume)?;
            }
        }
        utility += self.end_host_price[node as usize].price(flows.end_host(node))?;
        utility -= self.internal_cost[node as usize].eval(flows.total(node))?;
        Ok(utility)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PricingBook;
    use pan_topology::fixtures::{asn, fig1};
    use proptest::prelude::*;

    fn model() -> BusinessModel {
        let g = fig1();
        let mut book = PricingBook::new();
        for (p, c, rate) in [
            ('A', 'D', 2.0),
            ('B', 'E', 2.0),
            ('B', 'G', 2.0),
            ('D', 'H', 3.0),
            ('E', 'I', 3.0),
        ] {
            book.set_transit_price(asn(p), asn(c), PricingFunction::per_usage(rate).unwrap());
        }
        book.set_end_host_price(asn('D'), PricingFunction::per_usage(4.0).unwrap());
        let mut m = BusinessModel::new(g, book);
        m.set_internal_cost(asn('D'), CostFunction::linear(0.1).unwrap());
        m
    }

    #[test]
    fn flow_matrix_round_trips_flow_vecs() {
        let g = fig1();
        let mut matrix = FlowMatrix::zeros(&g);
        let mut f = FlowVec::new(asn('D'));
        f.set(asn('A'), 15.0);
        f.set(asn('H'), 10.0);
        f.set(asn('E'), 5.0);
        f.set_end_host_flow(3.0);
        matrix.set_row(&g, &f).unwrap();
        let node = g.index_of(asn('D')).unwrap();
        assert_eq!(matrix.total(node), 33.0);
        assert_eq!(matrix.end_host(node), 3.0);
        let back = matrix.to_flow_vec(&g, node);
        assert_eq!(back, f);
    }

    #[test]
    fn set_row_rejects_non_neighbors() {
        let g = fig1();
        let mut matrix = FlowMatrix::zeros(&g);
        let mut f = FlowVec::new(asn('D'));
        f.set(asn('I'), 1.0); // I is not adjacent to D
        assert!(matrix.set_row(&g, &f).is_err());
        let f2 = FlowVec::new(Asn::new(999));
        assert!(matrix.set_row(&g, &f2).is_err());
    }

    #[test]
    fn dense_utility_matches_business_model() {
        let g = fig1();
        let m = model();
        let dense = DenseEconomics::from_model(&m);
        let mut matrix = FlowMatrix::zeros(&g);
        let mut f = FlowVec::new(asn('D'));
        f.set(asn('A'), 15.0);
        f.set(asn('H'), 10.0);
        f.set(asn('E'), 7.0);
        f.set_end_host_flow(5.0);
        matrix.set_row(&g, &f).unwrap();
        let node = g.index_of(asn('D')).unwrap();
        let sparse = m.utility(&f).unwrap();
        let fast = dense.utility(&matrix, node).unwrap();
        assert!(
            (sparse - fast).abs() < 1e-9,
            "sparse {sparse} vs dense {fast}"
        );
    }

    #[test]
    fn dense_utility_matches_for_every_as() {
        let g = fig1();
        let m = model();
        let dense = DenseEconomics::from_model(&m);
        let matrix = FlowMatrix::degree_gravity(&g, 1.0);
        for i in 0..g.node_count() as u32 {
            let f = matrix.to_flow_vec(&g, i);
            let sparse = m.utility(&f).unwrap();
            let fast = dense.utility(&matrix, i).unwrap();
            assert!(
                (sparse - fast).abs() < 1e-9,
                "AS {}: sparse {sparse} vs dense {fast}",
                g.asn_at(i)
            );
        }
    }

    #[test]
    fn business_model_round_trip_preserves_utilities() {
        let g = fig1();
        let m = model();
        let dense = DenseEconomics::from_model(&m);
        let rebuilt = dense.to_business_model(&g);
        let matrix = FlowMatrix::degree_gravity(&g, 2.0);
        for i in 0..g.node_count() as u32 {
            let f = matrix.to_flow_vec(&g, i);
            assert!(
                (m.utility(&f).unwrap() - rebuilt.utility(&f).unwrap()).abs() < 1e-9,
                "utility mismatch at {}",
                g.asn_at(i)
            );
        }
    }

    #[test]
    fn priced_entry_deltas_match_full_reevaluation() {
        let linear = PricedEntry {
            price: PricingFunction::per_usage(2.0).unwrap(),
            sign: -1.0,
        };
        assert_eq!(linear.utility_delta(10.0, -4.0).unwrap(), 8.0);
        let congestion = PricedEntry {
            price: PricingFunction::congestion(0.5, 2.0).unwrap(),
            sign: 1.0,
        };
        let expected = 0.5 * (12.0f64.powi(2) - 10.0f64.powi(2));
        assert!((congestion.utility_delta(10.0, 2.0).unwrap() - expected).abs() < 1e-9);
        let peer = PricedEntry {
            price: PricingFunction::free(),
            sign: 0.0,
        };
        assert_eq!(peer.utility_delta(10.0, 5.0).unwrap(), 0.0);
    }

    #[test]
    fn degree_gravity_is_symmetric_per_link() {
        let g = fig1();
        let matrix = FlowMatrix::degree_gravity(&g, 1.0);
        for i in 0..g.node_count() as u32 {
            for (pos, &j) in g.neighbor_indices(i).iter().enumerate() {
                let back = g.neighbor_position(j, i).unwrap();
                assert_eq!(matrix.flow(i, pos), matrix.flow(j, back));
            }
        }
    }

    #[test]
    fn entry_classification_matches_graph_roles() {
        let g = fig1();
        let dense = DenseEconomics::from_model(&model());
        for i in 0..g.node_count() as u32 {
            for (pos, &j) in g.neighbor_indices(i).iter().enumerate() {
                let expected = match g.neighbor_kind_by_index(i, j).unwrap() {
                    pan_topology::NeighborKind::Provider => -1.0,
                    pan_topology::NeighborKind::Peer => 0.0,
                    pan_topology::NeighborKind::Customer => 1.0,
                };
                assert_eq!(dense.entry(i, pos).sign, expected);
            }
        }
    }

    #[test]
    fn remap_follows_links_onto_an_extended_graph() {
        let g = fig1();
        let m = model();
        let dense = DenseEconomics::from_model(&m);
        let flows = FlowMatrix::degree_gravity(&g, 1.0);
        // C–E is not a link of fig1; add it as adopted peering.
        let (c, e) = (g.index_of(asn('C')).unwrap(), g.index_of(asn('E')).unwrap());
        let mut extended = g.clone();
        let (pos_ce, pos_ec) = extended.add_peering_link(c, e).unwrap();
        let (mut flows2, mut dense2) = (flows.clone(), dense.clone());
        flows2.insert_link([(c, pos_ce), (e, pos_ec)]);
        dense2.insert_peering_link([(c, pos_ce), (e, pos_ec)]);
        flows2.validate_shape(&extended).unwrap();
        dense2.validate_shape(&extended).unwrap();
        assert_eq!(flows2.node_count(), flows.node_count());
        // Every old volume and priced entry followed its link.
        for i in 0..g.node_count() as u32 {
            for (old_pos, &j) in g.neighbor_indices(i).iter().enumerate() {
                let new_pos = extended.neighbor_position(i, j).unwrap();
                assert_eq!(flows2.flow(i, new_pos), flows.flow(i, old_pos));
                assert_eq!(dense2.entry(i, new_pos), dense.entry(i, old_pos));
                assert_eq!(
                    dense2.signed_rate_row(i)[new_pos].to_bits(),
                    dense.signed_rate_row(i)[old_pos].to_bits()
                );
                assert_eq!(
                    dense2.nonlinear_row(i)[new_pos],
                    dense.nonlinear_row(i)[old_pos]
                );
            }
            assert_eq!(flows2.end_host(i), flows.end_host(i));
        }
        // The new link starts settlement-free with zero flow on both ends
        // and a +0.0, linear lane entry.
        for (node, pos) in [(c, pos_ce), (e, pos_ec)] {
            assert_eq!(flows2.flow(node, pos), 0.0);
            assert_eq!(
                dense2.entry(node, pos),
                PricedEntry {
                    price: PricingFunction::free(),
                    sign: 0.0
                }
            );
            assert_eq!(
                dense2.signed_rate_row(node)[pos].to_bits(),
                0.0f64.to_bits()
            );
            assert!(!dense2.nonlinear_row(node)[pos]);
        }
        // Utilities are unchanged (free zero-flow links contribute
        // nothing).
        for i in 0..g.node_count() as u32 {
            let before = dense.utility(&flows, i).unwrap();
            let after = dense2.utility(&flows2, i).unwrap();
            assert!((before - after).abs() < 1e-12, "AS {}", g.asn_at(i));
        }
        // The tables equal those built for the extended graph from
        // scratch, lanes included.
        let rebuilt =
            DenseEconomics::from_model(&BusinessModel::new(extended.clone(), m.book().clone()));
        assert_eq!(dense2.entries, rebuilt.entries);
        assert_eq!(dense2.offsets, rebuilt.offsets);
        let bits = |lane: &[f64]| lane.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dense2.signed_rate), bits(&rebuilt.signed_rate));
        assert_eq!(dense2.nonlinear, rebuilt.nonlinear);
        assert_eq!(flows2.offsets, FlowMatrix::zeros(&extended).offsets);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_past_the_row_panics() {
        let g = fig1();
        let mut flows = FlowMatrix::degree_gravity(&g, 1.0);
        let d = g.index_of(asn('D')).unwrap();
        // D's degree is 4; position 5 would land in the next row.
        flows.insert_link([(d, g.degree_of_index(d) + 1), (d, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scale_entry_price_rejects_out_of_row_positions() {
        let g = fig1();
        let mut dense = DenseEconomics::from_model(&model());
        let d = g.index_of(asn('D')).unwrap();
        // D's degree is 4; position 4 belongs to the next row.
        dense
            .scale_entry_price(d, g.degree_of_index(d), 1.1)
            .unwrap();
    }

    #[test]
    fn price_scaling_shocks_one_entry() {
        let g = fig1();
        let mut dense = DenseEconomics::from_model(&model());
        let d = g.index_of(asn('D')).unwrap();
        let a = g.index_of(asn('A')).unwrap();
        let pos = g.neighbor_position(d, a).unwrap();
        let before = dense.entry(d, pos).price;
        dense.scale_entry_price(d, pos, 1.5).unwrap();
        assert_eq!(dense.entry(d, pos).price.alpha(), before.alpha() * 1.5);
        assert_eq!(dense.entry(d, pos).price.beta(), before.beta());
        assert!(dense.scale_entry_price(d, pos, -1.0).is_err());
        let eh_before = dense.end_host_price(d);
        dense.scale_end_host_price(d, 0.5).unwrap();
        assert_eq!(dense.end_host_price(d).alpha(), eh_before.alpha() * 0.5);
        assert!(dense.scale_end_host_price(d, f64::NAN).is_err());
    }

    #[test]
    fn shape_validation_accepts_round_trips_and_rejects_corruption() {
        let g = fig1();
        let dense = DenseEconomics::from_model(&model());
        let flows = FlowMatrix::degree_gravity(&g, 1.0);
        flows.validate_shape(&g).expect("fresh matrix is valid");
        dense.validate_shape(&g).expect("fresh tables are valid");

        // Serde round trips stay valid.
        let flows_rt: FlowMatrix =
            serde_json::from_str(&serde_json::to_string(&flows).unwrap()).unwrap();
        flows_rt.validate_shape(&g).expect("round-tripped matrix");
        let dense_rt: DenseEconomics =
            serde_json::from_str(&serde_json::to_string(&dense).unwrap()).unwrap();
        dense_rt.validate_shape(&g).expect("round-tripped tables");

        // Wrong graph: fig1 tables against the diamond fixture.
        let other = pan_topology::fixtures::diamond();
        assert!(flows.validate_shape(&other).is_err());
        assert!(dense.validate_shape(&other).is_err());

        // Truncated values / negative volume.
        let mut corrupt = flows.clone();
        corrupt.values.pop();
        assert!(corrupt.validate_shape(&g).is_err());
        let mut corrupt = flows.clone();
        corrupt.values[0] = -1.0;
        assert!(matches!(
            corrupt.validate_shape(&g),
            Err(EconError::InvalidFlow { .. })
        ));

        // A sign inconsistent with the link class.
        let mut corrupt = dense.clone();
        corrupt.entries[0].sign = 0.5;
        assert!(corrupt.validate_shape(&g).is_err());
        let mut corrupt = dense.clone();
        // The derive bypasses the constructors, so a checkpoint can smuggle
        // in out-of-domain parameters — exactly what the hook must catch.
        corrupt.entries[0].price =
            serde_json::from_str(r#"{"alpha":-1.0,"beta":1.0}"#).expect("derive skips validation");
        assert!(corrupt.validate_shape(&g).is_err());
        let mut corrupt = dense.clone();
        corrupt.internal_cost[0] = CostFunction::Linear { rate: -3.0 };
        assert!(matches!(
            corrupt.validate_shape(&g),
            Err(EconError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn totals_and_zeros_shapes() {
        let g = fig1();
        let zeros = FlowMatrix::zeros(&g);
        assert_eq!(zeros.node_count(), g.node_count());
        assert!(zeros.totals().iter().all(|&t| t == 0.0));
        for i in 0..g.node_count() as u32 {
            assert_eq!(zeros.row(i).len(), g.degree_of_index(i) + 1);
        }
    }

    #[test]
    fn totals_twins_are_bitwise_identical() {
        let g = fig1();
        let flows = FlowMatrix::degree_gravity(&g, 0.37);
        let allocated = flows.totals();
        assert_eq!(allocated.len(), g.node_count());
        for (i, total) in allocated.iter().enumerate() {
            assert_eq!(total.to_bits(), flows.total(i as u32).to_bits());
        }
        let grand: f64 = allocated.iter().sum();
        assert_eq!(grand.to_bits(), flows.grand_total().to_bits());
    }

    #[test]
    fn resident_bytes_track_the_tables() {
        let g = fig1();
        let flows = FlowMatrix::degree_gravity(&g, 1.0);
        let dense = DenseEconomics::from_model(&model());
        let n = g.node_count();
        let slots: usize = (0..n as u32).map(|i| g.degree_of_index(i)).sum();
        assert!(flows.resident_bytes() >= (n + 1) * 4 + (slots + n) * 8);
        // Entry table + both SoA lanes + per-AS tables.
        assert!(dense.resident_bytes() >= (n + 1) * 4 + slots * (24 + 8 + 1));
    }

    /// The wire format must not grow the SoA lanes (pre-SoA checkpoints
    /// stay readable and new checkpoints stay readable by the pre-SoA
    /// code), and deserialization must rebuild them.
    #[test]
    fn soa_lanes_stay_off_the_wire() {
        let g = fig1();
        let dense = DenseEconomics::from_model(&model());
        let json = serde_json::to_string(&dense).unwrap();
        assert!(!json.contains("signed_rate"));
        assert!(!json.contains("nonlinear"));
        let back: DenseEconomics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dense);
        back.validate_shape(&g).unwrap();
        for i in 0..g.node_count() as u32 {
            assert_eq!(back.signed_rate_row(i), dense.signed_rate_row(i));
            assert_eq!(back.nonlinear_row(i), dense.nonlinear_row(i));
        }
    }

    /// What the dispatching hot loops computed per entry, for the
    /// differential lane tests: skip settlement-free entries before
    /// looking at the price, then split on the linear rate.
    fn dispatch_lane(entry: PricedEntry) -> (f64, bool) {
        if entry.sign == 0.0 {
            return (0.0, false);
        }
        match entry.price.linear_rate() {
            Some(rate) => (entry.sign * rate, false),
            None => (0.0, true),
        }
    }

    proptest! {
        /// SoA lanes agree bitwise with per-entry enum dispatch on random
        /// economics, including after a repricing mutation, and the
        /// branch-free stream sum over the rate lane reproduces the
        /// dispatching skip-loop's sum bit for bit (the `+0.0` terms the
        /// stream adds for skipped entries are summation identities).
        #[test]
        fn soa_lanes_agree_with_enum_dispatch(
            alphas in prop::collection::vec(0.0..50.0f64, 16),
            betas in prop::collection::vec(0.0..3.0f64, 16),
            end_alpha in 0.0..10.0f64,
            factor in 0.1..4.0f64,
        ) {
            let g = fig1();
            let mut next = 0usize;
            let mut pick = move || {
                let p = PricingFunction::new(alphas[next % 16], betas[next % 16]).unwrap();
                next += 1;
                p
            };
            let mut econ = DenseEconomics::build(
                &g,
                |_, _| pick(),
                |_| PricingFunction::new(end_alpha, 1.0).unwrap(),
                |_| CostFunction::linear(0.05).unwrap(),
            );
            // A mutation must keep the lanes in sync too.
            let node = 0u32;
            if g.degree_of_index(node) > 0 {
                econ.scale_entry_price(node, 0, factor).unwrap();
            }
            for i in 0..g.node_count() as u32 {
                let rates = econ.signed_rate_row(i);
                let nonlinear = econ.nonlinear_row(i);
                let mut dispatched = 0.0f64;
                for pos in 0..g.degree_of_index(i) {
                    let entry = econ.entry(i, pos);
                    let (want_rate, want_nonlinear) = dispatch_lane(entry);
                    prop_assert_eq!(rates[pos].to_bits(), want_rate.to_bits());
                    prop_assert_eq!(nonlinear[pos], want_nonlinear);
                    if entry.sign != 0.0 {
                        if let Some(rate) = entry.price.linear_rate() {
                            dispatched += entry.sign * rate;
                        }
                    }
                }
                let streamed: f64 = rates.iter().sum();
                prop_assert_eq!(streamed.to_bits(), dispatched.to_bits());
            }
        }
    }
}
