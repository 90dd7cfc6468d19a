//! Synthetic Internet datasets.
//!
//! The paper's evaluation (§VI) combines four publicly available datasets:
//!
//! 1. the CAIDA AS-relationship dataset (serial-2),
//! 2. the CAIDA Routeviews prefix-to-AS dataset,
//! 3. MaxMind's GeoLite2 IP-geolocation database, and
//! 4. the CAIDA geographic AS-relationship dataset (link facilities).
//!
//! Those exact snapshots are not redistributable, so this crate generates
//! **synthetic equivalents with the same schemas and the structural
//! properties the analysis is sensitive to**: a tiered, heavy-tailed AS
//! topology with geography-biased peering ([`internet`]), per-AS prefix
//! tables ([`prefix`]), per-prefix geolocation ([`geolite`]), and per-link
//! interconnection facilities ([`georel`]). All generators are
//! deterministic given a seed.
//!
//! The one-stop entry point is [`SyntheticInternet::generate`], which runs
//! the full pipeline and performs the same dataset joins as the paper
//! (prefix → location → AS centroid). [`MarketSource`] generalizes it:
//! the same pipeline output built either synthetically or from a
//! real-internet snapshot directory ([`source`]), with the synthetic
//! generators filling any fields a snapshot lacks.
//!
//! ```
//! use pan_datasets::{InternetConfig, SyntheticInternet};
//!
//! let config = InternetConfig { num_ases: 200, ..InternetConfig::default() };
//! let internet = SyntheticInternet::generate(&config, 7)?;
//! assert_eq!(internet.graph.node_count(), 200);
//! // Every AS has a geolocated centroid derived from its prefixes.
//! assert_eq!(internet.geo.annotated_as_count(), 200);
//! # Ok::<(), pan_datasets::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
pub mod geolite;
pub mod georel;
pub mod internet;
pub mod prefix;
pub mod rng;
pub mod sampler;
pub mod source;

pub use error::DatasetError;
pub use internet::{InternetConfig, SyntheticInternet, Tier};
pub use prefix::{Ipv4Prefix, PrefixTable};
pub use sampler::WeightedSampler;
pub use source::MarketSource;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, DatasetError>;
