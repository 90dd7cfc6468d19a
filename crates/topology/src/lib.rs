//! AS-level Internet topology model.
//!
//! This crate implements the graph model of Scherrer et al., *Enabling Novel
//! Interconnection Agreements with Path-Aware Networking Architectures*
//! (DSN 2021), §III-A: the Internet is a mixed graph `G = (A, L↔, L↑)` whose
//! nodes are autonomous systems (ASes), whose undirected edges are
//! settlement-free peering links, and whose directed edges are
//! provider–customer links.
//!
//! The crate provides:
//!
//! - [`Asn`]: a newtype for AS numbers.
//! - [`Relationship`]: the business relationship encoded by a link.
//! - [`AsGraph`]: an index-accelerated mixed graph with the neighbor
//!   decomposition `π(X)` (providers), `ε(X)` (peers), and `γ(X)`
//!   (customers) used throughout the paper. Its node set is fixed; it
//!   grows only by new peering links, inserted in place.
//! - [`AsGraphBuilder`]: a validating builder for [`AsGraph`].
//! - [`caida`]: a parser and writer for the CAIDA AS-relationship
//!   *serial-2* text format, so real CAIDA snapshots can be loaded directly.
//! - [`snapshot`]: snapshot-directory loading — the relationships file,
//!   the `asn|lat|lon` geolocation sidecar, and snapshot enumeration for
//!   longitudinal runs.
//! - [`geo`]: geographic annotations (AS centroids and interconnection
//!   facilities) and great-circle distances, used by the paper's
//!   geodistance analysis (§VI-B).
//! - [`bandwidth`]: the degree-gravity link-capacity model used by the
//!   paper's bandwidth analysis (§VI-C).
//! - [`path`]: AS-level paths and the valley-free (Gao–Rexford) predicate.
//!
//! # Example
//!
//! ```
//! use pan_topology::{AsGraphBuilder, Asn, Relationship};
//!
//! // Build the left half of the paper's Fig. 1 topology.
//! let a = Asn::new(1);
//! let d = Asn::new(4);
//! let e = Asn::new(5);
//! let h = Asn::new(8);
//!
//! let mut builder = AsGraphBuilder::new();
//! builder.add_link(a, d, Relationship::ProviderToCustomer)?;
//! builder.add_link(d, h, Relationship::ProviderToCustomer)?;
//! builder.add_link(d, e, Relationship::PeerToPeer)?;
//! let graph = builder.build()?;
//!
//! assert!(graph.providers(d).any(|p| p == a));
//! assert!(graph.peers(d).any(|p| p == e));
//! assert!(graph.customers(d).any(|c| c == h));
//! # Ok::<(), pan_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod asn;
mod builder;
mod error;
mod graph;
mod relationship;

pub mod bandwidth;
pub mod caida;
pub mod fixtures;
pub mod geo;
pub mod path;
pub mod snapshot;

pub use asn::Asn;
pub use builder::AsGraphBuilder;
pub use error::TopologyError;
pub use graph::{AsGraph, LinkId, LinkRef, NeighborKind};
pub use relationship::Relationship;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
