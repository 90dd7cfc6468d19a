use std::fmt;

use crate::{Asn, Relationship};

/// Errors produced while constructing, parsing, or querying AS topologies.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A string could not be parsed as an AS number.
    InvalidAsn {
        /// The offending text.
        text: String,
    },
    /// A link connects an AS to itself.
    SelfLoop {
        /// The AS at both ends of the rejected link.
        asn: Asn,
    },
    /// Two links between the same pair of ASes carry conflicting relationships.
    ConflictingLink {
        /// First endpoint.
        a: Asn,
        /// Second endpoint.
        b: Asn,
        /// Relationship already recorded for the pair.
        existing: Relationship,
        /// Relationship of the rejected duplicate.
        new: Relationship,
    },
    /// The provider–customer hierarchy contains a cycle, which would make
    /// the "tier" structure of the Internet ill-defined.
    ProviderCycle {
        /// One AS on the detected cycle.
        on_cycle: Asn,
    },
    /// An operation referenced an AS that is not part of the graph.
    UnknownAs {
        /// The missing AS.
        asn: Asn,
    },
    /// An operation referenced a link that is not part of the graph.
    UnknownLink {
        /// First endpoint.
        a: Asn,
        /// Second endpoint.
        b: Asn,
    },
    /// A CAIDA serial-2 line could not be parsed.
    MalformedCaidaLine {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        text: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A geographic coordinate was out of range.
    InvalidCoordinate {
        /// Latitude in degrees.
        lat_deg: f64,
        /// Longitude in degrees.
        lon_deg: f64,
    },
    /// A path is empty or otherwise structurally invalid.
    InvalidPath {
        /// Human-readable reason.
        reason: String,
    },
    /// A serialized graph repeats an ASN or a link or names a node
    /// outside its node table, or a graph's mirror lane is broken
    /// ([`AsGraph::validate`](crate::AsGraph::validate)).
    CorruptWire {
        /// Human-readable reason.
        reason: String,
    },
    /// A snapshot file could not be read from disk.
    ///
    /// Stored as strings (not [`std::io::Error`]) so the error stays
    /// `Clone + PartialEq` like the rest of this enum.
    Io {
        /// Path of the file the operation touched.
        path: String,
        /// Human-readable reason from the underlying I/O error.
        reason: String,
    },
    /// A `asn|lat|lon` geolocation sidecar line could not be parsed.
    MalformedGeoLine {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        text: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A snapshot directory was missing, empty, or structurally invalid.
    InvalidSnapshot {
        /// Path of the offending directory or file.
        path: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidAsn { text } => {
                write!(f, "cannot parse {text:?} as an AS number")
            }
            TopologyError::SelfLoop { asn } => {
                write!(f, "link from {asn} to itself is not allowed")
            }
            TopologyError::ConflictingLink {
                a,
                b,
                existing,
                new,
            } => write!(
                f,
                "link {a}–{b} already recorded as {existing}, cannot also be {new}"
            ),
            TopologyError::ProviderCycle { on_cycle } => write!(
                f,
                "provider-customer hierarchy contains a cycle through {on_cycle}"
            ),
            TopologyError::UnknownAs { asn } => write!(f, "{asn} is not part of the graph"),
            TopologyError::UnknownLink { a, b } => {
                write!(f, "no link between {a} and {b} in the graph")
            }
            TopologyError::MalformedCaidaLine { line, text, reason } => {
                write!(f, "malformed CAIDA line {line} ({reason}): {text:?}")
            }
            TopologyError::InvalidCoordinate { lat_deg, lon_deg } => {
                write!(f, "invalid geographic coordinate ({lat_deg}, {lon_deg})")
            }
            TopologyError::InvalidPath { reason } => write!(f, "invalid path: {reason}"),
            TopologyError::CorruptWire { reason } => {
                write!(f, "corrupt serialized graph: {reason}")
            }
            TopologyError::Io { path, reason } => {
                write!(f, "cannot read {path}: {reason}")
            }
            TopologyError::MalformedGeoLine { line, text, reason } => {
                write!(f, "malformed geolocation line {line} ({reason}): {text:?}")
            }
            TopologyError::InvalidSnapshot { path, reason } => {
                write!(f, "invalid snapshot {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TopologyError::ConflictingLink {
            a: Asn::new(1),
            b: Asn::new(2),
            existing: Relationship::PeerToPeer,
            new: Relationship::ProviderToCustomer,
        };
        let text = err.to_string();
        assert!(text.contains("AS1"));
        assert!(text.contains("AS2"));
        assert!(text.contains("peer-to-peer"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&TopologyError::SelfLoop { asn: Asn::new(1) });
    }
}
