//! Mutuality-based interconnection agreements for path-aware networks.
//!
//! This crate implements the primary contribution of Scherrer, Legner,
//! Perrig, Schmid: *Enabling Novel Interconnection Agreements with
//! Path-Aware Networking Architectures* (DSN 2021):
//!
//! - [`Agreement`] / [`Grant`]: the agreement formalism of Eq. (2),
//!   including the classic peering agreement of §III-B1
//!   ([`Agreement::classic_peering`]) and the mutuality-based agreement of
//!   §III-B2/§VI ([`Agreement::mutuality`]).
//! - [`AgreementScenario`] + [`evaluate`]: agreement utilities
//!   `u_X(a) = U_X(f^{(a)}_X) − U_X(f_X)` per Eq. (3) and Eq. (7).
//! - [`FlowVolumeOptimizer`]: Nash-product optimization via flow-volume
//!   targets (§IV-A, Eq. 9).
//! - [`CashOptimizer`] / [`settle`]: optimization via cash compensation
//!   and the Nash Bargaining Solution (§IV-B, Eq. 10–11).
//! - [`negotiation`]: the claims-based bargaining game underlying §V
//!   (the BOSCO mechanism itself lives in the `pan-bosco` crate).
//! - [`discovery`]: the batch engine answering the paper's question at
//!   topology scale — enumerate every candidate pair of a synthetic
//!   internet, evaluate Eq. 3/7 incrementally on dense
//!   [`pan_econ::FlowMatrix`]/[`pan_econ::DenseEconomics`] tables, run
//!   Eq. 9–11 per pair, and rank concluded agreements by surplus.
//! - [`dynamics`]: multi-round market evolution on top of [`discovery`] —
//!   adopt the top agreements, materialize their flow volumes and NBS
//!   transfers (registering new peering links for prospective pairs),
//!   optionally shock the market, and iterate to a fixed point. Each
//!   round re-evaluates every non-adopted candidate; what stays valid
//!   across rounds (the candidate enumeration, per-pair transit
//!   structures) is cached on the resumable [`EvolutionDriver`].
//! - [`extension`]: extension of agreement paths (§III-B3) with the
//!   interdependency constraint on base-agreement targets.
//!
//! # Quick start
//!
//! ```
//! use pan_core::{Agreement, AgreementScenario, CashOptimizer, FlowVolumeOptimizer};
//! use pan_econ::{BusinessModel, CostFunction, FlowVec, PricingBook, PricingFunction};
//! use pan_topology::fixtures::{asn, fig1};
//!
//! // Economic setting on the paper's Fig. 1 topology.
//! let graph = fig1();
//! let mut book = PricingBook::new();
//! book.set_transit_price(asn('A'), asn('D'), PricingFunction::per_usage(2.0)?);
//! book.set_transit_price(asn('B'), asn('E'), PricingFunction::per_usage(2.0)?);
//! book.set_transit_price(asn('D'), asn('H'), PricingFunction::per_usage(3.0)?);
//! book.set_transit_price(asn('E'), asn('I'), PricingFunction::per_usage(3.0)?);
//! let mut model = BusinessModel::new(graph, book);
//! model.set_internal_cost(asn('D'), CostFunction::linear(0.05)?);
//! model.set_internal_cost(asn('E'), CostFunction::linear(0.05)?);
//!
//! // Baseline flows of the two parties.
//! let mut fd = FlowVec::new(asn('D'));
//! fd.set(asn('A'), 30.0);
//! fd.set(asn('H'), 25.0);
//! let mut fe = FlowVec::new(asn('E'));
//! fe.set(asn('B'), 28.0);
//! fe.set(asn('I'), 22.0);
//!
//! // The paper's mutuality-based agreement between peers D and E.
//! let ma = Agreement::mutuality(model.graph(), asn('D'), asn('E'))?;
//! let scenario =
//!     AgreementScenario::with_default_opportunities(&model, ma, fd, fe, 0.6, 0.3)?;
//!
//! // Optimize with both methods of §IV.
//! let flow_volume = FlowVolumeOptimizer::new().optimize(&scenario)?;
//! let cash = CashOptimizer::new().optimize(&scenario)?;
//! assert!(flow_volume.is_concluded() || cash.is_concluded());
//! # Ok::<(), pan_core::AgreementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod agreement;
mod error;
mod scenario;

#[cfg(test)]
mod golden_tests;

pub mod cash;
pub mod discovery;
pub mod dynamics;
pub mod estimate;
pub mod extension;
pub mod flow_volume;
pub mod grid;
pub mod nash;
pub mod negotiation;
pub mod utility;

pub use agreement::{Agreement, Grant, NewSegment};
pub use cash::{settle, CashAgreement, CashOptimizer, CashOutcome, CashSettlement};
pub use discovery::{
    discover, enumerate_candidates, enumerate_candidates_for, BatchContext, CandidatePair,
    CandidatePolicy, DiscoveryConfig, DiscoveryReport, PairOutcome, PairScratch,
};
pub use dynamics::{
    advise, evolve, AdoptedAgreement, EvolutionConfig, EvolutionDriver, EvolutionReport,
    MarketSnapshot, MarketState, RoundOutcome, RoundRecord,
};
pub use error::AgreementError;
pub use flow_volume::{FlowVolumeAgreement, FlowVolumeOptimizer, FlowVolumeOutcome};
pub use grid::{sweep_negotiation_grid, GridCell, GridConfig};
pub use scenario::{AgreementScenario, SegmentOpportunity};
pub use utility::{evaluate, segment_targets, Evaluation, OperatingPoint, SegmentTarget};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, AgreementError>;
