use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::{AsGraphBuilder, Asn, Relationship, Result, TopologyError};

/// A stable identifier for a link in an [`AsGraph`].
///
/// Link identifiers index auxiliary per-link tables such as the
/// [bandwidth model](crate::bandwidth) and the
/// [geographic annotations](crate::geo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Returns the numeric index of the link.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// The role a neighbor plays from the perspective of a given AS.
///
/// For an AS `X` the paper decomposes the neighborhood into the provider set
/// `π(X)`, the peer set `ε(X)`, and the customer set `γ(X)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NeighborKind {
    /// The neighbor sells transit to the AS (the neighbor is in `π(X)`).
    Provider,
    /// The neighbor peers settlement-free with the AS (in `ε(X)`).
    Peer,
    /// The neighbor buys transit from the AS (in `γ(X)`).
    Customer,
}

impl fmt::Display for NeighborKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeighborKind::Provider => write!(f, "provider"),
            NeighborKind::Peer => write!(f, "peer"),
            NeighborKind::Customer => write!(f, "customer"),
        }
    }
}

/// A resolved view of one link of an [`AsGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkRef {
    /// Identifier of the link.
    pub id: LinkId,
    /// First endpoint. For a transit link this is the **provider**.
    pub a: Asn,
    /// Second endpoint. For a transit link this is the **customer**.
    pub b: Asn,
    /// Relationship carried by the link.
    pub relationship: Relationship,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LinkRecord {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) relationship: Relationship,
}

const CLASS_PROVIDER: usize = 0;
const CLASS_PEER: usize = 1;
const CLASS_CUSTOMER: usize = 2;
const CLASSES: usize = 3;
/// The class a node holds in its neighbor's row, by the class the
/// neighbor holds in its own: a provider sees a customer, a peer a peer.
const MIRROR_CLASS: [usize; CLASSES] = [CLASS_CUSTOMER, CLASS_PEER, CLASS_PROVIDER];

/// Compressed-sparse-row adjacency: the fast path behind every neighbor
/// query of [`AsGraph`].
///
/// For node `i`, the three neighbor classes occupy the contiguous
/// segments `offsets[3i]..offsets[3i+1]` (providers),
/// `offsets[3i+1]..offsets[3i+2]` (peers), and
/// `offsets[3i+2]..offsets[3i+3]` (customers) of the packed `neighbors`
/// array; `link_ids` is parallel to `neighbors`, so resolving the link
/// of an adjacency entry is a single indexed load instead of a
/// `HashMap` lookup. Segments are sorted by neighbor ASN, which keeps
/// iteration order deterministic and makes membership tests a binary
/// search over a cache-resident slice.
///
/// `mirrors`, the mirror lane, is parallel to `neighbors` too: for the
/// entry of neighbor `j` in the row of `i`, it holds the position of `i`
/// within the row of `j`. Link-symmetric updates (both flow entries of
/// a link move together) then reach the other entry with one load
/// instead of a search of the neighbor's row. The lane is built on
/// first use: most graphs (generator output, discovery-only markets,
/// figure inputs and their clones) never update a link symmetrically,
/// and at 4 bytes per entry they should not carry it.
#[derive(Debug, Clone)]
pub(crate) struct CsrAdjacency {
    /// `3 * node_count + 1` prefix offsets into the packed arrays.
    offsets: Vec<u32>,
    /// Packed neighbor node indices, segment-sorted by neighbor ASN.
    neighbors: Vec<u32>,
    /// Link identifier of each packed adjacency entry.
    link_ids: Vec<u32>,
    /// Row-relative position of each packed entry's mirror entry, once
    /// something asked for one.
    mirrors: OnceLock<Vec<u32>>,
}

impl CsrAdjacency {
    /// Bytes resident in the packed CSR arrays.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.offsets.capacity()
            + self.neighbors.capacity()
            + self.link_ids.capacity()
            + self.mirrors.get().map_or(0, Vec::capacity))
            * std::mem::size_of::<u32>()
    }

    pub(crate) fn build(node_count: usize, links: &[LinkRecord], asns: &[Asn]) -> Self {
        let seg = |node: u32, class: usize| node as usize * CLASSES + class;
        let mut offsets = vec![0u32; node_count * CLASSES + 1];
        for link in links {
            match link.relationship {
                Relationship::ProviderToCustomer => {
                    offsets[seg(link.a, CLASS_CUSTOMER) + 1] += 1;
                    offsets[seg(link.b, CLASS_PROVIDER) + 1] += 1;
                }
                Relationship::PeerToPeer => {
                    offsets[seg(link.a, CLASS_PEER) + 1] += 1;
                    offsets[seg(link.b, CLASS_PEER) + 1] += 1;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let total = offsets.last().copied().unwrap_or(0) as usize;
        let mut neighbors = vec![0u32; total];
        let mut link_ids = vec![0u32; total];
        let mut cursors = offsets.clone();
        for (id, link) in links.iter().enumerate() {
            let entries = match link.relationship {
                Relationship::ProviderToCustomer => [
                    (seg(link.a, CLASS_CUSTOMER), link.b),
                    (seg(link.b, CLASS_PROVIDER), link.a),
                ],
                Relationship::PeerToPeer => [
                    (seg(link.a, CLASS_PEER), link.b),
                    (seg(link.b, CLASS_PEER), link.a),
                ],
            };
            for (slot, neighbor) in entries {
                let at = cursors[slot] as usize;
                neighbors[at] = neighbor;
                link_ids[at] = id as u32;
                cursors[slot] += 1;
            }
        }
        // Sort every segment by neighbor ASN (carrying link ids along) so
        // iteration order is deterministic and independent of insertion
        // order, and membership tests can binary-search.
        let mut zipped: Vec<(u32, u32)> = Vec::new();
        for s in 0..node_count * CLASSES {
            let range = offsets[s] as usize..offsets[s + 1] as usize;
            zipped.clear();
            zipped.extend(range.clone().map(|k| (neighbors[k], link_ids[k])));
            zipped.sort_unstable_by_key(|&(n, _)| asns[n as usize]);
            for (k, &(neighbor, link)) in range.zip(&zipped) {
                neighbors[k] = neighbor;
                link_ids[k] = link;
            }
        }
        CsrAdjacency {
            offsets,
            neighbors,
            link_ids,
            mirrors: OnceLock::new(),
        }
    }

    /// The mirror lane, built in O(E) on the first call. Node `i`
    /// appears in segment `(j, MIRROR_CLASS[c])` exactly when `j` appears
    /// in segment `(i, c)`, and that segment is sorted by ASN, so
    /// visiting the owners `i` in ascending ASN order fills each segment
    /// front to back: a cursor per segment counts out every mirror
    /// position, with no per-link table.
    fn mirrors(&self, asns: &[Asn]) -> &[u32] {
        self.mirrors.get_or_init(|| {
            let segments = self.offsets.len().saturating_sub(1);
            let mut owners: Vec<u32> = (0..(segments / CLASSES) as u32).collect();
            owners.sort_unstable_by_key(|&i| asns[i as usize]);
            let mut cursors = self.offsets[..segments].to_vec();
            let mut mirrors = vec![0u32; self.neighbors.len()];
            for &i in &owners {
                for class in 0..CLASSES {
                    let seg = i as usize * CLASSES + class;
                    let range = self.offsets[seg] as usize..self.offsets[seg + 1] as usize;
                    for (mirror, &j) in mirrors[range.clone()]
                        .iter_mut()
                        .zip(&self.neighbors[range])
                    {
                        let j = j as usize;
                        let cursor = &mut cursors[j * CLASSES + MIRROR_CLASS[class]];
                        *mirror = *cursor - self.offsets[j * CLASSES];
                        *cursor += 1;
                    }
                }
            }
            mirrors
        })
    }

    /// Inserts the two entries of peering link `link` between `a` and
    /// `b` at their ASN-sorted places in the peer segments, and returns
    /// their row-relative positions (in the row of `a`, then of `b`).
    /// Every entry behind an insertion point moves, so the mirror lane
    /// is dropped and rebuilt on its next use.
    fn insert_peering(&mut self, asns: &[Asn], a: u32, b: u32, link: u32) -> (usize, usize) {
        self.neighbors.reserve_exact(2);
        self.link_ids.reserve_exact(2);
        let mut insert = |owner: u32, neighbor: u32| {
            let seg = owner as usize * CLASSES + CLASS_PEER;
            let range = self.offsets[seg] as usize..self.offsets[seg + 1] as usize;
            let key = asns[neighbor as usize];
            let at =
                range.start + self.neighbors[range].partition_point(|&j| asns[j as usize] < key);
            self.neighbors.insert(at, neighbor);
            self.link_ids.insert(at, link);
            for offset in &mut self.offsets[seg + 1..] {
                *offset += 1;
            }
            at - self.offsets[owner as usize * CLASSES] as usize
        };
        let positions = (insert(a, b), insert(b, a));
        self.mirrors = OnceLock::new();
        positions
    }

    #[inline]
    fn segment(&self, node: u32, class: usize) -> std::ops::Range<usize> {
        let base = node as usize * CLASSES + class;
        self.offsets[base] as usize..self.offsets[base + 1] as usize
    }

    #[inline]
    fn class_slice(&self, node: u32, class: usize) -> &[u32] {
        &self.neighbors[self.segment(node, class)]
    }

    /// The packed slice spanning classes `from..=to` of `node` — legal
    /// because a node's class segments are adjacent in CSR order
    /// (providers, peers, customers).
    #[inline]
    fn span_slice(&self, node: u32, from: usize, to: usize) -> &[u32] {
        let base = node as usize * CLASSES;
        &self.neighbors[self.offsets[base + from] as usize..self.offsets[base + to + 1] as usize]
    }

    /// Total degree of `node`: the three class segments are contiguous.
    #[inline]
    fn degree(&self, node: u32) -> usize {
        let base = node as usize * CLASSES;
        (self.offsets[base + CLASSES] - self.offsets[base]) as usize
    }

    /// Position of `neighbor` within one segment slice. Small segments
    /// use a branch-light equality scan over the packed `u32`s (no ASN
    /// indirection, no order dependence); large segments (hubs with
    /// thousands of customers) binary-search the ASN-sorted order.
    #[inline]
    fn position_in(slice: &[u32], asns: &[Asn], neighbor: u32) -> Option<usize> {
        const SCAN_LIMIT: usize = 32;
        if slice.len() <= SCAN_LIMIT {
            slice.iter().position(|&j| j == neighbor)
        } else {
            slice
                .binary_search_by_key(&asns[neighbor as usize], |&j| asns[j as usize])
                .ok()
        }
    }

    /// Locates `neighbor` in the adjacency of `of`; returns the class
    /// and link.
    #[inline]
    fn find(&self, asns: &[Asn], of: u32, neighbor: u32) -> Option<(NeighborKind, LinkId)> {
        for (class, kind) in [
            (CLASS_PROVIDER, NeighborKind::Provider),
            (CLASS_PEER, NeighborKind::Peer),
            (CLASS_CUSTOMER, NeighborKind::Customer),
        ] {
            let range = self.segment(of, class);
            if let Some(pos) = Self::position_in(&self.neighbors[range.clone()], asns, neighbor) {
                return Some((kind, LinkId(self.link_ids[range.start + pos])));
            }
        }
        None
    }

    /// Membership test for one class only (no link resolution).
    #[inline]
    fn contains(&self, asns: &[Asn], of: u32, neighbor: u32, class: usize) -> bool {
        Self::position_in(self.class_slice(of, class), asns, neighbor).is_some()
    }

    /// Position of `neighbor` within the full packed neighbor row of
    /// `of` (providers, then peers, then customers), if adjacent.
    #[inline]
    fn position_in_row(&self, asns: &[Asn], of: u32, neighbor: u32) -> Option<usize> {
        let row_start = self.segment(of, CLASS_PROVIDER).start;
        for class in [CLASS_PROVIDER, CLASS_PEER, CLASS_CUSTOMER] {
            let range = self.segment(of, class);
            if let Some(pos) = Self::position_in(&self.neighbors[range.clone()], asns, neighbor) {
                return Some(range.start - row_start + pos);
            }
        }
        None
    }

    /// The packed link-id slice parallel to the full neighbor row of
    /// `node`.
    #[inline]
    fn link_row(&self, node: u32) -> &[u32] {
        let base = node as usize * CLASSES;
        &self.link_ids[self.offsets[base] as usize..self.offsets[base + CLASSES] as usize]
    }

    /// The mirror-lane entry of position `pos` in the row of `node`.
    #[inline]
    fn mirror(&self, asns: &[Asn], node: u32, pos: usize) -> usize {
        self.mirrors(asns)[self.offsets[node as usize * CLASSES] as usize + pos] as usize
    }

    /// Checks that the mirror lane is an involution: every entry's
    /// mirror lies in its neighbor's row, points back at the entry's
    /// owner over the same link, and has the entry itself as its mirror.
    /// Returns the first violation.
    fn check_mirrors(&self, asns: &[Asn]) -> std::result::Result<(), String> {
        let mirrors = self.mirrors(asns).len();
        if mirrors != self.neighbors.len() {
            return Err(format!(
                "mirror lane holds {mirrors} entries for {} adjacency entries",
                self.neighbors.len()
            ));
        }
        for node in 0..asns.len() as u32 {
            for (pos, &j) in self
                .span_slice(node, CLASS_PROVIDER, CLASS_CUSTOMER)
                .iter()
                .enumerate()
            {
                let back = self.mirror(asns, node, pos);
                let there = self.span_slice(j, CLASS_PROVIDER, CLASS_CUSTOMER);
                let link = self.link_row(node)[pos];
                if there.get(back) != Some(&node)
                    || self.link_row(j)[back] != link
                    || self.mirror(asns, j, back) != pos
                {
                    return Err(format!(
                        "mirror of {}'s entry {pos} ({}) is not its own mirror",
                        asns[node as usize], asns[j as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// An AS-level topology: the paper's mixed graph `G = (A, L↔, L↑)`.
///
/// The graph stores, for every AS `X`, the neighbor decomposition
/// `π(X)` / `ε(X)` / `γ(X)` as sorted index slices, which makes the
/// path-enumeration workloads of the evaluation (§VI) cache-friendly.
///
/// Graphs are constructed through [`AsGraphBuilder`], parsed from CAIDA
/// serial-2 files via [`caida::parse`](crate::caida::parse), or decoded
/// from their serialized form, which goes through the builder too.
/// The node set is fixed from then on; the only change a graph takes is
/// a new peering link ([`add_peering_link`](Self::add_peering_link)),
/// which keeps every node index and [`LinkId`].
///
/// Two access levels are offered:
///
/// - an **ASN-keyed API** ([`providers`](Self::providers),
///   [`peers`](Self::peers), [`customers`](Self::customers), …) for
///   ergonomic use, and
/// - an **index-based API** ([`provider_indices`](Self::provider_indices),
///   …) returning `&[u32]` slices for hot loops; indices are dense in
///   `0..node_count()` and stable for the lifetime of the graph.
///
/// Adjacency is stored in compressed-sparse-row form: one packed
/// neighbor array plus a parallel link-id array, built at construction
/// and grown in place by a new peering link. Neighbor iteration and link
/// lookups in the inner loops of the evaluation therefore touch
/// contiguous memory and never hash.
///
/// The wire format carries `asns` and `links` only. The ASN index and
/// the CSR tables are derived from them, and decoding derives them the
/// way [`AsGraphBuilder::build`] does, after the same checks (see the
/// `Deserialize` impl).
#[derive(Debug, Clone, Serialize)]
pub struct AsGraph {
    pub(crate) asns: Vec<Asn>,
    #[serde(skip)]
    pub(crate) index: HashMap<Asn, u32>,
    // Derivable from links + asns, so excluded from the wire format:
    // rebuilding on decode is cheaper than shipping ~3x the adjacency
    // payload and rules out inconsistent hand-edited state.
    #[serde(skip)]
    pub(crate) adjacency: CsrAdjacency,
    pub(crate) links: Vec<LinkRecord>,
}

impl AsGraph {
    /// Number of ASes in the graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of links (both peering and transit) in the graph.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Approximate bytes this graph keeps resident: the ASN list, the
    /// ASN→index map (estimated at the map's capacity times its entry
    /// footprint), the packed CSR adjacency, and the link records.
    /// Feeds the workspace's memory-budget accounting; not a wire or
    /// equality concern.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.asns.capacity() * size_of::<Asn>()
            + self.index.capacity() * (size_of::<(Asn, u32)>() + size_of::<u64>())
            + self.adjacency.resident_bytes()
            + self.links.capacity() * size_of::<LinkRecord>()
    }

    /// Returns `true` if the graph contains no ASes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Returns `true` if `asn` is a node of the graph.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.index.contains_key(&asn)
    }

    /// Iterates over all ASes in ascending ASN order of insertion index.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asns.iter().copied()
    }

    /// Resolves an ASN to its dense node index.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownAs`] if the AS is not in the graph.
    pub fn index_of(&self, asn: Asn) -> Result<u32> {
        self.index
            .get(&asn)
            .copied()
            .ok_or(TopologyError::UnknownAs { asn })
    }

    /// Returns the ASN at a dense node index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    #[must_use]
    pub fn asn_at(&self, idx: u32) -> Asn {
        self.asns[idx as usize]
    }

    /// The provider set `π(X)` as dense indices, sorted by ASN.
    #[inline]
    #[must_use]
    pub fn provider_indices(&self, idx: u32) -> &[u32] {
        self.adjacency.class_slice(idx, CLASS_PROVIDER)
    }

    /// The peer set `ε(X)` as dense indices, sorted by ASN.
    #[inline]
    #[must_use]
    pub fn peer_indices(&self, idx: u32) -> &[u32] {
        self.adjacency.class_slice(idx, CLASS_PEER)
    }

    /// The customer set `γ(X)` as dense indices, sorted by ASN.
    #[inline]
    #[must_use]
    pub fn customer_indices(&self, idx: u32) -> &[u32] {
        self.adjacency.class_slice(idx, CLASS_CUSTOMER)
    }

    /// The full neighborhood `π(X) ∪ ε(X) ∪ γ(X)` as one packed slice —
    /// a CSR-only fast path (the three class segments are adjacent), so
    /// "visit every neighbor" loops pay one bounds check instead of
    /// three.
    #[inline]
    #[must_use]
    pub fn neighbor_indices(&self, idx: u32) -> &[u32] {
        self.adjacency
            .span_slice(idx, CLASS_PROVIDER, CLASS_CUSTOMER)
    }

    /// The non-customer neighborhood `π(X) ∪ ε(X)` as one packed slice
    /// (providers and peers are adjacent segments) — the §VI grant
    /// targets of a mutuality agreement.
    #[inline]
    #[must_use]
    pub fn provider_peer_indices(&self, idx: u32) -> &[u32] {
        self.adjacency.span_slice(idx, CLASS_PROVIDER, CLASS_PEER)
    }

    /// Class boundaries within [`neighbor_indices`](Self::neighbor_indices):
    /// positions `..b.0` are providers, `b.0..b.1` peers, and `b.1..` are
    /// customers. Lets dense per-entry tables (flows, pricing) classify a
    /// packed row position without any per-entry lookup.
    #[inline]
    #[must_use]
    pub fn class_boundaries(&self, idx: u32) -> (usize, usize) {
        let providers = self.provider_indices(idx).len();
        let peers = self.peer_indices(idx).len();
        (providers, providers + peers)
    }

    /// Position of `neighbor` within the packed neighbor row of `of`
    /// ([`neighbor_indices`](Self::neighbor_indices) order), if the two
    /// are adjacent — the dense-row counterpart of
    /// [`neighbor_kind_by_index`](Self::neighbor_kind_by_index).
    #[inline]
    #[must_use]
    pub fn neighbor_position(&self, of: u32, neighbor: u32) -> Option<usize> {
        self.adjacency.position_in_row(&self.asns, of, neighbor)
    }

    /// The position of `node` within the packed row of its `pos`-th
    /// neighbor: for `j = neighbor_indices(node)[pos]`, the position `q`
    /// with `neighbor_indices(j)[q] == node`, the other entry of the same
    /// link. Equal to `neighbor_position(j, node)`, but read from the
    /// CSR's mirror lane with one indexed load instead of searching the
    /// row of `j`, which matters when `j` is a hub. Dense per-entry
    /// tables (flows, prices) use it to keep a link's two entries equal.
    ///
    /// The first call on a graph builds the lane in O(E) (4 bytes per
    /// entry, counted in [`resident_bytes`](Self::resident_bytes)); the
    /// lane is derived like the rest of the CSR, so it is never
    /// serialized, and clones share none of it until it exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no `pos`-th neighbor.
    #[inline]
    #[must_use]
    pub fn mirror_position(&self, node: u32, pos: usize) -> usize {
        assert!(
            pos < self.degree_of_index(node),
            "node {node} has no neighbor at position {pos}"
        );
        self.adjacency.mirror(&self.asns, node, pos)
    }

    /// The link indices parallel to [`neighbor_indices`](Self::neighbor_indices):
    /// entry `p` is the [`LinkId`] index of the link to the `p`-th packed
    /// neighbor, so per-[`LinkId`] tables can be joined against a row with
    /// indexed loads only.
    #[inline]
    #[must_use]
    pub fn neighbor_link_indices(&self, idx: u32) -> &[u32] {
        self.adjacency.link_row(idx)
    }

    fn neighbor_iter(&self, asn: Asn, class: usize) -> NeighborIter<'_> {
        let indices = match self.index.get(&asn) {
            Some(&i) => self.adjacency.class_slice(i, class),
            None => &[],
        };
        NeighborIter {
            graph: self,
            indices,
            pos: 0,
        }
    }

    /// Iterates over the providers `π(X)` of `asn`.
    ///
    /// Yields nothing if the AS is unknown; use [`index_of`](Self::index_of)
    /// first when absence should be an error.
    pub fn providers(&self, asn: Asn) -> NeighborIter<'_> {
        self.neighbor_iter(asn, CLASS_PROVIDER)
    }

    /// Iterates over the peers `ε(X)` of `asn`.
    pub fn peers(&self, asn: Asn) -> NeighborIter<'_> {
        self.neighbor_iter(asn, CLASS_PEER)
    }

    /// Iterates over the customers `γ(X)` of `asn`.
    pub fn customers(&self, asn: Asn) -> NeighborIter<'_> {
        self.neighbor_iter(asn, CLASS_CUSTOMER)
    }

    /// Total number of neighbors (node degree) of `asn`, or 0 if unknown.
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        match self.index.get(&asn) {
            Some(&i) => self.degree_of_index(i),
            None => 0,
        }
    }

    /// Total number of neighbors of the AS at dense index `idx`.
    #[inline]
    #[must_use]
    pub fn degree_of_index(&self, idx: u32) -> usize {
        self.adjacency.degree(idx)
    }

    /// Classifies `neighbor` from the perspective of `of`.
    ///
    /// Returns `None` if the two ASes are not adjacent or either is unknown.
    #[must_use]
    pub fn neighbor_kind(&self, of: Asn, neighbor: Asn) -> Option<NeighborKind> {
        let (&i, &j) = (self.index.get(&of)?, self.index.get(&neighbor)?);
        self.neighbor_kind_by_index(i, j)
    }

    /// Index-based variant of [`neighbor_kind`](Self::neighbor_kind).
    #[inline]
    #[must_use]
    pub fn neighbor_kind_by_index(&self, of: u32, neighbor: u32) -> Option<NeighborKind> {
        self.adjacency
            .find(&self.asns, of, neighbor)
            .map(|(kind, _)| kind)
    }

    /// `true` iff the AS at dense index `neighbor` plays `kind` for the
    /// AS at dense index `of` — the membership test of the §VI grant
    /// rules, resolved with a binary search over the CSR segment instead
    /// of a hash lookup.
    #[inline]
    #[must_use]
    pub fn has_neighbor_kind(&self, of: u32, neighbor: u32, kind: NeighborKind) -> bool {
        let class = match kind {
            NeighborKind::Provider => CLASS_PROVIDER,
            NeighborKind::Peer => CLASS_PEER,
            NeighborKind::Customer => CLASS_CUSTOMER,
        };
        self.adjacency.contains(&self.asns, of, neighbor, class)
    }

    /// The link connecting two dense node indices, if they are adjacent.
    #[inline]
    #[must_use]
    pub fn link_id_between_indices(&self, a: u32, b: u32) -> Option<LinkId> {
        self.adjacency.find(&self.asns, a, b).map(|(_, id)| id)
    }

    /// Looks up the link between two ASes.
    #[must_use]
    pub fn link_between(&self, a: Asn, b: Asn) -> Option<LinkRef> {
        let (&i, &j) = (self.index.get(&a)?, self.index.get(&b)?);
        let id = self.link_id_between_indices(i, j)?;
        Some(self.link(id))
    }

    /// Resolves a [`LinkId`] into a [`LinkRef`].
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this graph.
    #[must_use]
    pub fn link(&self, id: LinkId) -> LinkRef {
        let record = &self.links[id.index()];
        LinkRef {
            id,
            a: self.asns[record.a as usize],
            b: self.asns[record.b as usize],
            relationship: record.relationship,
        }
    }

    /// The dense node indices of a link's endpoints, in [`LinkRef`]
    /// order (`a` then `b`; the provider first for a transit link) — the
    /// index-based variant of [`link`](Self::link).
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this graph.
    #[must_use]
    pub fn link_endpoint_indices(&self, id: LinkId) -> (u32, u32) {
        let record = &self.links[id.index()];
        (record.a, record.b)
    }

    /// Iterates over all links of the graph in identifier order.
    pub fn links(&self) -> impl Iterator<Item = LinkRef> + '_ {
        (0..self.links.len() as u32).map(move |i| self.link(LinkId(i)))
    }

    /// Number of peering links in the graph (`|L↔|`).
    #[must_use]
    pub fn peering_link_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.relationship.is_peering())
            .count()
    }

    /// Number of provider–customer links in the graph (`|L↑|`).
    #[must_use]
    pub fn transit_link_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.relationship.is_transit())
            .count()
    }

    /// Adds a **peering** link between two dense node indices in place —
    /// the topology side of adopting a prospective (k-hop) mutuality
    /// agreement, which first has to establish settlement-free peering
    /// between the parties.
    ///
    /// Every node index and existing [`LinkId`] is kept; the new link
    /// takes the next identifier, with its endpoints in argument order.
    /// Its two adjacency entries land at their ASN-sorted places in the
    /// parties' peer segments, so the CSR equals the one the builder
    /// builds from the same links. Returns the new entry's position in
    /// the packed row of `a` and in that of `b` ([`neighbor_indices`](Self::neighbor_indices)
    /// order): the slots that CSR-aligned per-entry tables insert.
    ///
    /// # Errors
    ///
    /// - [`TopologyError::SelfLoop`] if `a == b`.
    /// - [`TopologyError::ConflictingLink`] if the two are already
    ///   adjacent — peering cannot be stacked on an existing relationship.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of bounds.
    pub fn add_peering_link(&mut self, a: u32, b: u32) -> Result<(usize, usize)> {
        if a == b {
            return Err(TopologyError::SelfLoop {
                asn: self.asn_at(a),
            });
        }
        if let Some(id) = self.link_id_between_indices(a, b) {
            return Err(TopologyError::ConflictingLink {
                a: self.asn_at(a),
                b: self.asn_at(b),
                existing: self.links[id.index()].relationship,
                new: Relationship::PeerToPeer,
            });
        }
        let id = self.links.len() as u32;
        self.links.reserve_exact(1);
        self.links.push(LinkRecord {
            a,
            b,
            relationship: Relationship::PeerToPeer,
        });
        Ok(self.adjacency.insert_peering(&self.asns, a, b, id))
    }

    /// Checks the CSR's mirror lane (see
    /// [`mirror_position`](Self::mirror_position), built here if no call
    /// built it before): the mirror of every entry's mirror is the entry
    /// itself, over the same link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::CorruptWire`] naming the first violation.
    pub fn validate(&self) -> Result<()> {
        self.adjacency
            .check_mirrors(&self.asns)
            .map_err(|reason| TopologyError::CorruptWire { reason })
    }

    /// ASes with no customers and at least one provider — "stub" ASes.
    pub fn stub_ases(&self) -> impl Iterator<Item = Asn> + '_ {
        (0..self.node_count() as u32)
            .filter(move |&i| {
                self.customer_indices(i).is_empty() && !self.provider_indices(i).is_empty()
            })
            .map(move |i| self.asn_at(i))
    }

    /// ASes with no providers — the "tier-1" core of the hierarchy.
    pub fn provider_free_ases(&self) -> impl Iterator<Item = Asn> + '_ {
        (0..self.node_count() as u32)
            .filter(move |&i| self.provider_indices(i).is_empty())
            .map(move |i| self.asn_at(i))
    }
}

/// Decodes `{asns, links}` through [`AsGraphBuilder`], so a decoded graph
/// passes every check a built one does (no self-loop, no conflicting
/// link, an acyclic provider hierarchy) and arrives with its index and
/// CSR built. A serialized graph is canonical, so the decoder also
/// rejects what the builder tolerates in a dataset: a repeated ASN, a
/// link endpoint outside the node table, and a repeated link.
impl Deserialize for AsGraph {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let asns: Vec<Asn> = Deserialize::from_value(v.field("asns")?)?;
        let links: Vec<LinkRecord> = Deserialize::from_value(v.field("links")?)?;
        decode(&asns, &links).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

fn decode(asns: &[Asn], links: &[LinkRecord]) -> Result<AsGraph> {
    let corrupt = |reason: String| Err(TopologyError::CorruptWire { reason });
    let mut builder = AsGraphBuilder::with_capacity(asns.len(), links.len());
    for (i, &asn) in asns.iter().enumerate() {
        if builder.add_as(asn) as usize != i {
            return corrupt(format!("{asn} appears twice in the node table"));
        }
    }
    for (id, link) in links.iter().enumerate() {
        let (Some(&a), Some(&b)) = (asns.get(link.a as usize), asns.get(link.b as usize)) else {
            return corrupt(format!(
                "link#{id} references node index {} of {} nodes",
                link.a.max(link.b),
                asns.len()
            ));
        };
        if builder.add_link(a, b, link.relationship)?.index() != id {
            return corrupt(format!("link#{id} repeats the link between {a} and {b}"));
        }
    }
    builder.build()
}

/// Iterator over the neighbors of an AS, yielding [`Asn`]s.
///
/// Produced by [`AsGraph::providers`], [`AsGraph::peers`], and
/// [`AsGraph::customers`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    graph: &'a AsGraph,
    indices: &'a [u32],
    pos: usize,
}

impl Iterator for NeighborIter<'_> {
    type Item = Asn;

    fn next(&mut self) -> Option<Asn> {
        let &idx = self.indices.get(self.pos)?;
        self.pos += 1;
        Some(self.graph.asns[idx as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.indices.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{asn as a, fig1};

    #[test]
    fn fig1_neighbor_decomposition() {
        let g = fig1();
        let d = a('D');
        let providers: Vec<_> = g.providers(d).collect();
        let peers: Vec<_> = g.peers(d).collect();
        let customers: Vec<_> = g.customers(d).collect();
        assert_eq!(providers, vec![a('A')]);
        assert_eq!(peers, vec![a('C'), a('E')]);
        assert_eq!(customers, vec![a('H')]);
    }

    #[test]
    fn neighbor_kind_is_perspective_dependent() {
        let g = fig1();
        assert_eq!(
            g.neighbor_kind(a('D'), a('A')),
            Some(NeighborKind::Provider)
        );
        assert_eq!(
            g.neighbor_kind(a('A'), a('D')),
            Some(NeighborKind::Customer)
        );
        assert_eq!(g.neighbor_kind(a('D'), a('E')), Some(NeighborKind::Peer));
        assert_eq!(g.neighbor_kind(a('E'), a('D')), Some(NeighborKind::Peer));
        assert_eq!(g.neighbor_kind(a('D'), a('I')), None);
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let g = fig1();
        let l1 = g.link_between(a('A'), a('D')).unwrap();
        let l2 = g.link_between(a('D'), a('A')).unwrap();
        assert_eq!(l1, l2);
        assert_eq!(l1.a, a('A'));
        assert_eq!(l1.b, a('D'));
        assert!(l1.relationship.is_transit());
    }

    #[test]
    fn counts() {
        let g = fig1();
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.link_count(), 9);
        assert_eq!(g.transit_link_count(), 5);
        assert_eq!(g.peering_link_count(), 4);
    }

    #[test]
    fn degree_and_indices_agree() {
        let g = fig1();
        for asn in g.ases() {
            let idx = g.index_of(asn).unwrap();
            assert_eq!(g.degree(asn), g.degree_of_index(idx));
            assert_eq!(g.asn_at(idx), asn);
        }
    }

    #[test]
    fn stub_and_core_classification() {
        let g = fig1();
        let stubs: Vec<_> = g.stub_ases().collect();
        assert!(stubs.contains(&a('H')));
        assert!(stubs.contains(&a('I')));
        assert!(stubs.contains(&a('G')));
        let core: Vec<_> = g.provider_free_ases().collect();
        assert!(core.contains(&a('A')));
        assert!(core.contains(&a('B')));
        assert!(!core.contains(&a('D')));
    }

    #[test]
    fn unknown_as_queries_are_empty_or_error() {
        let g = fig1();
        let ghost = Asn::new(999);
        assert_eq!(g.providers(ghost).count(), 0);
        assert_eq!(g.degree(ghost), 0);
        assert!(matches!(
            g.index_of(ghost),
            Err(TopologyError::UnknownAs { .. })
        ));
    }

    /// Decodes fig1's node and link tables after `edit`.
    fn decode_edited(edit: impl Fn(&mut Vec<Asn>, &mut Vec<LinkRecord>)) -> Result<AsGraph> {
        let g = fig1();
        let (mut asns, mut links) = (g.asns, g.links);
        edit(&mut asns, &mut links);
        decode(&asns, &links)
    }

    #[test]
    fn decode_accepts_well_formed_and_rejects_corrupt_wire_graphs() {
        decode_edited(|_, _| {}).expect("the tables of a built graph decode");
        let corrupt = |result: Result<AsGraph>, reason: &str| match result {
            Err(TopologyError::CorruptWire { reason: got }) => {
                assert!(got.contains(reason), "{got:?} lacks {reason:?}");
            }
            other => panic!("expected a corrupt-wire error, got {other:?}"),
        };
        corrupt(
            decode_edited(|asns, links| links[0].a = asns.len() as u32 + 7),
            "node index",
        );
        corrupt(decode_edited(|asns, _| asns[1] = asns[0]), "twice");
        // fig1 lists its transit links first and its peering links last.
        let reversed = |link: &LinkRecord| LinkRecord {
            a: link.b,
            b: link.a,
            ..link.clone()
        };
        corrupt(
            decode_edited(|_, links| links.push(links[0].clone())),
            "repeats",
        );
        corrupt(
            decode_edited(|_, links| links.push(reversed(links.last().unwrap()))),
            "repeats",
        );
        // What the builder rejects, decoding rejects with its error: a
        // self-loop, a reversed transit link, and a provider cycle (D's
        // customer H made A's provider; A is D's provider).
        assert!(matches!(
            decode_edited(|_, links| links[0].b = links[0].a),
            Err(TopologyError::SelfLoop { .. })
        ));
        assert!(matches!(
            decode_edited(|_, links| links.push(reversed(&links[0]))),
            Err(TopologyError::ConflictingLink { .. })
        ));
        assert!(matches!(
            decode_edited(|asns, links| {
                let index = |c: char| asns.iter().position(|&x| x == a(c)).unwrap() as u32;
                let (a, b) = (index('H'), index('A'));
                links.push(LinkRecord {
                    a,
                    b,
                    relationship: Relationship::ProviderToCustomer,
                });
            }),
            Err(TopologyError::ProviderCycle { .. })
        ));
    }

    #[test]
    fn serde_round_trip_with_rebuild() {
        let g = fig1();
        let json = serde_json::to_string(&g).unwrap();
        let back: AsGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(
            back.neighbor_kind(a('D'), a('A')),
            Some(NeighborKind::Provider)
        );
        assert_eq!(back.adjacency.offsets, g.adjacency.offsets);
        assert_eq!(back.adjacency.neighbors, g.adjacency.neighbors);
        assert_eq!(back.adjacency.link_ids, g.adjacency.link_ids);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn neighbor_iter_is_exact_size() {
        let g = fig1();
        let iter = g.peers(a('D'));
        assert_eq!(iter.len(), 2);
    }

    #[test]
    fn csr_link_ids_agree_with_link_between() {
        let g = fig1();
        for x in g.ases() {
            for y in g.ases() {
                let (ix, iy) = (g.index_of(x).unwrap(), g.index_of(y).unwrap());
                let by_index = g.link_id_between_indices(ix, iy);
                let by_asn = g.link_between(x, y).map(|l| l.id);
                assert_eq!(by_index, by_asn, "link ({x}, {y})");
            }
        }
    }

    #[test]
    fn has_neighbor_kind_matches_neighbor_kind() {
        let g = fig1();
        for x in 0..g.node_count() as u32 {
            for y in 0..g.node_count() as u32 {
                for kind in [
                    NeighborKind::Provider,
                    NeighborKind::Peer,
                    NeighborKind::Customer,
                ] {
                    assert_eq!(
                        g.has_neighbor_kind(x, y, kind),
                        g.neighbor_kind_by_index(x, y) == Some(kind),
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_position_agrees_with_packed_row() {
        let g = fig1();
        for x in 0..g.node_count() as u32 {
            let row = g.neighbor_indices(x);
            for (pos, &j) in row.iter().enumerate() {
                assert_eq!(g.neighbor_position(x, j), Some(pos));
            }
            for y in 0..g.node_count() as u32 {
                if !row.contains(&y) {
                    assert_eq!(g.neighbor_position(x, y), None);
                }
            }
        }
    }

    #[test]
    fn class_boundaries_partition_the_row() {
        let g = fig1();
        for x in 0..g.node_count() as u32 {
            let (p_end, e_end) = g.class_boundaries(x);
            let row = g.neighbor_indices(x);
            assert_eq!(&row[..p_end], g.provider_indices(x));
            assert_eq!(&row[p_end..e_end], g.peer_indices(x));
            assert_eq!(&row[e_end..], g.customer_indices(x));
        }
    }

    #[test]
    fn neighbor_link_indices_match_link_lookup() {
        let g = fig1();
        for x in 0..g.node_count() as u32 {
            let row = g.neighbor_indices(x);
            let links = g.neighbor_link_indices(x);
            assert_eq!(row.len(), links.len());
            for (&j, &l) in row.iter().zip(links) {
                assert_eq!(g.link_id_between_indices(x, j), Some(LinkId(l)));
            }
        }
    }

    #[test]
    fn added_peering_links_preserve_indices_and_extend_adjacency() {
        let g = fig1();
        // C and E are not adjacent in fig1 (peers-of-peers through D).
        let (c, e) = (g.index_of(a('C')).unwrap(), g.index_of(a('E')).unwrap());
        assert_eq!(g.neighbor_kind_by_index(c, e), None);
        let mut extended = g.clone();
        let (pos_c, pos_e) = extended.add_peering_link(c, e).unwrap();
        assert_eq!(extended.node_count(), g.node_count());
        assert_eq!(extended.link_count(), g.link_count() + 1);
        assert_eq!(extended.peering_link_count(), g.peering_link_count() + 1);
        assert_eq!(
            extended.neighbor_kind_by_index(c, e),
            Some(NeighborKind::Peer)
        );
        assert_eq!(extended.neighbor_position(c, e), Some(pos_c));
        assert_eq!(extended.neighbor_position(e, c), Some(pos_e));
        // Indices and existing links are untouched; the new link takes
        // the next identifier, endpoints in argument order.
        for asn in g.ases() {
            assert_eq!(
                g.index_of(asn).unwrap(),
                extended.index_of(asn).unwrap(),
                "{asn} moved"
            );
        }
        for link in g.links() {
            assert_eq!(extended.link(link.id), link);
        }
        let added = extended.link(LinkId(g.link_count() as u32));
        assert_eq!((added.a, added.b), (a('C'), a('E')));
        // Rejections: self-loops, existing links, the same pair again.
        let mut probe = g.clone();
        assert!(matches!(
            probe.add_peering_link(c, c),
            Err(TopologyError::SelfLoop { .. })
        ));
        let (d, h) = (g.index_of(a('D')).unwrap(), g.index_of(a('H')).unwrap());
        assert!(matches!(
            probe.add_peering_link(d, h),
            Err(TopologyError::ConflictingLink { .. })
        ));
        assert_eq!(
            probe.link_count(),
            g.link_count(),
            "a rejection adds nothing"
        );
        assert!(matches!(
            extended.add_peering_link(e, c),
            Err(TopologyError::ConflictingLink { .. })
        ));
    }

    /// Every entry's mirror, as [`AsGraph::mirror_position`] reads it
    /// from the lane and as [`AsGraph::neighbor_position`] searches it.
    fn assert_mirror_lane_matches_search(g: &AsGraph) {
        for node in 0..g.node_count() as u32 {
            for (pos, &j) in g.neighbor_indices(node).iter().enumerate() {
                assert_eq!(
                    Some(g.mirror_position(node, pos)),
                    g.neighbor_position(j, node),
                    "entry {pos} of node {node}"
                );
            }
        }
        g.validate().expect("the lane is an involution");
    }

    #[test]
    fn mirror_lane_matches_neighbor_search_on_fig1() {
        assert_mirror_lane_matches_search(&fig1());
    }

    #[test]
    fn resident_bytes_count_the_packed_arrays_and_the_lane() {
        let g = fig1();
        let entries = 2 * g.link_count();
        let offsets = CLASSES * g.node_count() + 1;
        // Offsets, then neighbors and link ids per entry; no lane yet.
        assert!(g.adjacency.mirrors.get().is_none());
        let without_lane = g.adjacency.resident_bytes();
        assert!(without_lane >= (offsets + 2 * entries) * 4);
        // The first mirror lookup adds the lane, 4 bytes per entry.
        let _ = g.mirror_position(0, 0);
        assert_eq!(g.adjacency.resident_bytes(), without_lane + entries * 4);
        assert!(g.resident_bytes() > g.adjacency.resident_bytes());
    }

    #[test]
    fn validate_rejects_a_corrupt_mirror_lane() {
        let mut g = fig1();
        let d = g.index_of(a('D')).unwrap();
        let start = g.adjacency.offsets[d as usize * CLASSES] as usize;
        // D's row holds A, C, E, H: point C's entry at E's mirror.
        let _ = g.mirror_position(d, 0);
        g.adjacency
            .mirrors
            .get_mut()
            .unwrap()
            .swap(start + 1, start + 2);
        assert!(matches!(
            g.validate(),
            Err(TopologyError::CorruptWire { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "no neighbor at position")]
    fn mirror_position_past_the_row_panics() {
        let g = fig1();
        let d = g.index_of(a('D')).unwrap();
        let _ = g.mirror_position(d, g.degree_of_index(d));
    }

    mod lane {
        use super::*;
        use crate::AsGraphBuilder;
        use proptest::prelude::*;

        /// A prime modulus: `i ↦ (i · scale + shift) mod ASN_MODULUS` is
        /// one-to-one for `i < ASN_MODULUS` and any `scale` not divisible
        /// by it.
        const ASN_MODULUS: u64 = 100_003;

        /// A random graph over `nodes` ASes with scrambled ASNs (so ASN
        /// order differs from index order): transit links point from a
        /// lower to a higher index, which rules out provider cycles, and
        /// every other drawn pair peers. Pairs that are already linked
        /// are skipped.
        fn random_graph(
            nodes: u32,
            (scale, shift): (u64, u64),
            links: &[(u32, u32, bool)],
        ) -> AsGraph {
            let asns: Vec<u32> = (0..u64::from(nodes))
                .map(|i| ((i * scale + shift) % ASN_MODULUS) as u32 + 1)
                .collect();
            let mut b = AsGraphBuilder::new();
            for &asn in &asns {
                b.add_as(Asn::new(asn));
            }
            for &(u, v, transit) in links {
                let (u, v) = (u % nodes, v % nodes);
                if u == v {
                    continue;
                }
                let (p, c) = (u.min(v), u.max(v));
                let relationship = if transit {
                    Relationship::ProviderToCustomer
                } else {
                    Relationship::PeerToPeer
                };
                let (x, y) = (Asn::new(asns[p as usize]), Asn::new(asns[c as usize]));
                let _ = b.add_link(x, y, relationship);
            }
            b.build().expect("tiers rule out provider cycles")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn mirror_lane_matches_neighbor_search(
                nodes in 2u32..60,
                scale in 1u64..ASN_MODULUS,
                shift in 0u64..ASN_MODULUS,
                links in prop::collection::vec((0u32..60, 0u32..60, prop::bool::ANY), 0..240),
                added in prop::collection::vec((0u32..60, 0u32..60), 0..8),
            ) {
                let g = random_graph(nodes, (scale, shift), &links);
                assert_mirror_lane_matches_search(&g);

                // New peering links between non-adjacent pairs, added in
                // place.
                let mut extended = g.clone();
                for &(u, v) in &added {
                    let (u, v) = (u % nodes, v % nodes);
                    if u != v && extended.neighbor_position(u, v).is_none() {
                        let (pos_u, pos_v) = extended.add_peering_link(u, v).unwrap();
                        prop_assert_eq!(extended.neighbor_position(u, v), Some(pos_u));
                        prop_assert_eq!(extended.neighbor_position(v, u), Some(pos_v));
                    }
                }
                assert_mirror_lane_matches_search(&extended);

                // The lane is off the wire. Decoding rebuilds the CSR from
                // the link table, and it must equal the one grown in place.
                let json = serde_json::to_string(&extended).unwrap();
                prop_assert!(!json.contains("mirrors"));
                let back: AsGraph = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(&extended.adjacency.offsets, &back.adjacency.offsets);
                prop_assert_eq!(&extended.adjacency.neighbors, &back.adjacency.neighbors);
                prop_assert_eq!(&extended.adjacency.link_ids, &back.adjacency.link_ids);
                assert_mirror_lane_matches_search(&back);
                prop_assert_eq!(back.adjacency.mirrors.get(), extended.adjacency.mirrors.get());
            }
        }
    }

    #[test]
    fn csr_segments_cover_every_link_twice() {
        let g = fig1();
        let total: usize = (0..g.node_count() as u32)
            .map(|i| g.degree_of_index(i))
            .sum();
        assert_eq!(total, 2 * g.link_count());
    }
}
