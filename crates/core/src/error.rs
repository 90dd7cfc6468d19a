use std::fmt;

use pan_topology::{Asn, TopologyError};

/// Errors produced while constructing, evaluating, or optimizing
/// interconnection agreements.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AgreementError {
    /// The two parties of an agreement must be distinct ASes.
    SameParty {
        /// The AS appearing on both sides.
        asn: Asn,
    },
    /// A granted AS is not a neighbor of the grantor in the claimed role.
    InvalidGrant {
        /// The granting party.
        grantor: Asn,
        /// The AS being granted access to.
        target: Asn,
        /// Human-readable reason.
        reason: String,
    },
    /// A mutuality-based agreement requires the parties to be peers.
    NotPeers {
        /// First party.
        x: Asn,
        /// Second party.
        y: Asn,
    },
    /// An operating point has the wrong dimension for its scenario.
    DimensionMismatch {
        /// Expected number of segment opportunities.
        expected: usize,
        /// Provided number of coordinates.
        actual: usize,
    },
    /// A fraction is outside `[0, 1]` or non-finite.
    InvalidFraction {
        /// The rejected value.
        value: f64,
    },
    /// A utility value is non-finite.
    InvalidUtility {
        /// The rejected value.
        value: f64,
    },
    /// A market checkpoint could not be parsed or failed validation.
    Snapshot {
        /// Human-readable reason.
        reason: String,
    },
    /// A market broke one of the invariants every round must keep
    /// (see `MarketState::check_invariants`).
    Invariant {
        /// Human-readable description of the first violation.
        reason: String,
    },
    /// An underlying economic computation failed.
    Econ(pan_econ::EconError),
    /// An underlying topology operation failed.
    Topology(TopologyError),
}

impl fmt::Display for AgreementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgreementError::SameParty { asn } => {
                write!(f, "agreement parties must be distinct, got {asn} twice")
            }
            AgreementError::InvalidGrant {
                grantor,
                target,
                reason,
            } => write!(
                f,
                "invalid grant by {grantor} of access to {target}: {reason}"
            ),
            AgreementError::NotPeers { x, y } => {
                write!(
                    f,
                    "mutuality-based agreements require peers, but {x} and {y} are not"
                )
            }
            AgreementError::DimensionMismatch { expected, actual } => write!(
                f,
                "operating point has {actual} coordinates, scenario expects {expected}"
            ),
            AgreementError::InvalidFraction { value } => {
                write!(f, "fractions must lie in [0, 1], got {value}")
            }
            AgreementError::InvalidUtility { value } => {
                write!(f, "utilities must be finite, got {value}")
            }
            AgreementError::Snapshot { reason } => {
                write!(f, "invalid market checkpoint: {reason}")
            }
            AgreementError::Invariant { reason } => {
                write!(f, "market invariant violated: {reason}")
            }
            AgreementError::Econ(err) => write!(f, "economic model error: {err}"),
            AgreementError::Topology(err) => write!(f, "topology error: {err}"),
        }
    }
}

impl std::error::Error for AgreementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgreementError::Econ(err) => Some(err),
            AgreementError::Topology(err) => Some(err),
            _ => None,
        }
    }
}

impl From<pan_econ::EconError> for AgreementError {
    fn from(err: pan_econ::EconError) -> Self {
        AgreementError::Econ(err)
    }
}

impl From<TopologyError> for AgreementError {
    fn from(err: TopologyError) -> Self {
        AgreementError::Topology(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = AgreementError::NotPeers {
            x: Asn::new(4),
            y: Asn::new(9),
        };
        let text = err.to_string();
        assert!(text.contains("AS4") && text.contains("AS9"));
    }

    #[test]
    fn sources_chain() {
        let err: AgreementError = TopologyError::UnknownAs { asn: Asn::new(1) }.into();
        assert!(std::error::Error::source(&err).is_some());
    }
}
