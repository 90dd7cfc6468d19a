//! Economic model of AS interconnection (§III-A of the paper).
//!
//! This crate formalizes the business calculation of an autonomous system:
//!
//! - [`PricingFunction`]: the per-link pricing function `p(f) = α·f^β`
//!   covering flat-rate (`β = 0`), pay-per-usage (`β = 1`), and
//!   congestion pricing (`β > 1`).
//! - [`CostFunction`]: non-negative, monotonically increasing internal-cost
//!   functions `i_X(f_X)`.
//! - [`FlowVec`] and [`SegmentFlows`]: per-neighbor flow decomposition
//!   `f_XY` and direction-independent path-segment volumes `f_XYZ`.
//! - [`PricingBook`]: the pricing functions of all provider–customer links
//!   (including the virtual end-host link `ℓ'` of each AS).
//! - [`BusinessModel`]: revenue, cost, and utility per Eq. (1):
//!   `U_X(f_X) = r_X(f_X) − c_X(f_X)`.
//! - [`traffic`]: gravity-model traffic matrices and path-based flow
//!   accounting to derive realistic baseline flows.
//!
//! # Example
//!
//! The paper's first worked example: for transit AS `D` in Fig. 1 to be
//! profitable, revenue from its customer `H` and its end-hosts must cover
//! the charge from provider `A` plus internal cost.
//!
//! ```
//! use pan_econ::{BusinessModel, CostFunction, FlowVec, PricingBook, PricingFunction};
//! use pan_topology::fixtures::{asn, fig1};
//!
//! let graph = fig1();
//! let (a, d, h) = (asn('A'), asn('D'), asn('H'));
//!
//! let mut book = PricingBook::new();
//! book.set_transit_price(a, d, PricingFunction::per_usage(2.0)?); // A charges D
//! book.set_transit_price(d, h, PricingFunction::per_usage(3.0)?); // D charges H
//!
//! let mut model = BusinessModel::new(graph, book);
//! model.set_internal_cost(d, CostFunction::linear(0.1)?);
//!
//! let mut flows = FlowVec::new(d);
//! flows.set(a, 10.0); // 10 units exchanged with provider A
//! flows.set(h, 10.0); // 10 units exchanged with customer H
//!
//! let utility = model.utility(&flows)?;
//! // revenue 3.0·10 = 30, provider cost 2.0·10 = 20, internal 0.1·20 = 2.
//! assert!((utility - 8.0).abs() < 1e-9);
//! # Ok::<(), pan_econ::EconError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod business;
mod cost;
mod error;
mod flow;
mod pricing;

pub mod dense;
pub mod market;
pub mod traffic;

pub use business::{BusinessModel, PricingBook};
pub use cost::CostFunction;
pub use dense::{DenseEconomics, FlowMatrix, PricedEntry};
pub use error::EconError;
pub use flow::{FlowVec, SegmentFlows, SegmentKey};
pub use market::MarketTier;
pub use pricing::PricingFunction;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EconError>;
