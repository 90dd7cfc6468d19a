//! Unified market-ingestion layer: every way to obtain a market topology.
//!
//! [`MarketSource`] is the single entry point serve, bench, and tests use
//! to construct a market's input data. Both variants produce the same
//! [`SyntheticInternet`]-shaped output:
//!
//! - [`MarketSource::Synthetic`] runs the full generator pipeline —
//!   byte-identical to calling [`SyntheticInternet::generate`] directly.
//! - [`MarketSource::Caida`] loads a real-internet snapshot directory
//!   (CAIDA serial-2 relationships plus optional prefix/geo sidecars, see
//!   [`pan_topology::snapshot`]) and fills whatever the snapshot lacks with
//!   the synthetic generators: tiers are derived from the provider
//!   hierarchy, regions/home locations from the geo sidecar (or
//!   weighted-sampled like the generator), prefix portfolios from the
//!   sidecar (or generated), and facilities/capacities always
//!   synthetically.
//!
//! Construction is deterministic given the source and a seed, independent
//! of thread count: the snapshot is parsed on every build, and all
//! synthetic fill runs on labelled substreams of the seed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use pan_topology::geo::GeoPoint;
use pan_topology::snapshot;
use pan_topology::Asn;

use crate::internet::{default_regions, Skeleton, Tier};
use crate::{prefix, rng, DatasetError, InternetConfig, Result, SyntheticInternet};

/// Where a market's topology, geography, and prefix data come from.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketSource {
    /// The synthetic generator pipeline with the given configuration.
    Synthetic(InternetConfig),
    /// A real-internet snapshot directory.
    Caida {
        /// Directory holding either one snapshot (a `relationships.txt`
        /// directly inside) or a family of them (one subdirectory per
        /// snapshot, e.g. per year).
        dir: PathBuf,
        /// Snapshot name (subdirectory) to load; `None` picks `dir` itself
        /// when it is a single snapshot, otherwise the lexicographically
        /// last (newest) snapshot under it.
        snapshot: Option<String>,
    },
}

impl MarketSource {
    /// Builds the market input data for this source.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] for infeasible synthetic
    /// configurations; [`DatasetError::Snapshot`],
    /// [`DatasetError::MalformedPrefixLine`], and wrapped
    /// [`TopologyError`](pan_topology::TopologyError)s for snapshot
    /// problems.
    pub fn build(&self, seed: u64) -> Result<SyntheticInternet> {
        match self {
            MarketSource::Synthetic(config) => SyntheticInternet::generate(config, seed),
            MarketSource::Caida { dir, snapshot } => build_caida(dir, snapshot.as_deref(), seed),
        }
    }

    /// A short human-readable label for reports and serve session names.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MarketSource::Synthetic(config) => format!("synthetic:{}-as", config.num_ases),
            MarketSource::Caida { dir, snapshot } => match snapshot {
                Some(name) => format!("caida:{}/{name}", dir.display()),
                None => format!("caida:{}", dir.display()),
            },
        }
    }
}

/// Resolves the directory a [`MarketSource::Caida`] actually loads:
/// an explicit snapshot name, the directory itself when it directly holds
/// a relationships file, or the newest snapshot subdirectory.
pub fn resolve_snapshot_dir(dir: &Path, snapshot: Option<&str>) -> Result<PathBuf> {
    let chosen = match snapshot {
        Some(name) => dir.join(name),
        None if dir.join(snapshot::RELATIONSHIPS_FILE).is_file() => dir.to_path_buf(),
        None => {
            let names = snapshot::list_snapshots(dir)?;
            let newest = names.last().expect("list_snapshots never returns empty");
            dir.join(newest)
        }
    };
    if !chosen.join(snapshot::RELATIONSHIPS_FILE).is_file() {
        return Err(DatasetError::Snapshot {
            path: chosen.display().to_string(),
            reason: format!("no {} file", snapshot::RELATIONSHIPS_FILE),
        });
    }
    Ok(chosen)
}

fn read_sidecar(path: &Path) -> Result<Option<String>> {
    if !path.is_file() {
        return Ok(None);
    }
    std::fs::read_to_string(path)
        .map(Some)
        .map_err(|e| DatasetError::Snapshot {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
}

fn build_caida(dir: &Path, snapshot_name: Option<&str>, seed: u64) -> Result<SyntheticInternet> {
    let snap_dir = resolve_snapshot_dir(dir, snapshot_name)?;
    let graph = snapshot::load_relationships(&snap_dir.join(snapshot::RELATIONSHIPS_FILE))?;

    // Tiers fall out of the provider hierarchy: provider-free ASes are the
    // core (real snapshots: the tier-1 clique plus a few oddballs), ASes
    // that sell transit are the middle, pure customers are stubs.
    let mut tiers: HashMap<Asn, Tier> = HashMap::with_capacity(graph.node_count());
    for asn in graph.ases() {
        let tier = if graph.providers(asn).count() == 0 {
            Tier::Tier1
        } else if graph.customers(asn).count() > 0 {
            Tier::Transit
        } else {
            Tier::Stub
        };
        tiers.insert(asn, tier);
    }

    // Geo sidecar: measured AS locations override the prefix-join
    // centroids and anchor region assignment.
    let geo_path = snap_dir.join(snapshot::GEO_FILE);
    let sidecar_geo: Option<Vec<(Asn, GeoPoint)>> = match read_sidecar(&geo_path)? {
        Some(text) => {
            let entries = snapshot::parse_geo(&text)?;
            for &(asn, _) in &entries {
                if !graph.contains(asn) {
                    return Err(DatasetError::Snapshot {
                        path: geo_path.display().to_string(),
                        reason: format!("{asn} is not in the relationships graph"),
                    });
                }
            }
            Some(entries)
        }
        None => None,
    };
    let located: HashMap<Asn, GeoPoint> = sidecar_geo.iter().flatten().copied().collect();

    // Regions and home locations: a located AS homes at its measured
    // point and belongs to the nearest hub's region; the rest sample a
    // region by weight and home near its hub, exactly like the synthetic
    // generator — on snapshot-specific substreams so synthetic output is
    // untouched.
    let regions = default_regions();
    let region_weights: Vec<f64> = regions.iter().map(|r| r.weight).collect();
    let mut region_rng = rng::substream(seed, "caida-regions");
    let mut home_rng = rng::substream(seed, "caida-homes");
    let mut as_region: HashMap<Asn, usize> = HashMap::with_capacity(graph.node_count());
    let mut homes: HashMap<Asn, GeoPoint> = HashMap::with_capacity(graph.node_count());
    for asn in graph.ases() {
        if let Some(&point) = located.get(&asn) {
            let nearest = regions
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    point
                        .distance_km(a.hub)
                        .total_cmp(&point.distance_km(b.hub))
                })
                .map(|(i, _)| i)
                .expect("region table is non-empty");
            as_region.insert(asn, nearest);
            homes.insert(asn, point);
        } else {
            let region = rng::weighted_index(&mut region_rng, &region_weights)
                .expect("region table is non-empty");
            let spread = match tiers[&asn] {
                Tier::Tier1 => 10.0,
                Tier::Transit => 5.0,
                Tier::Stub => 2.5,
            };
            as_region.insert(asn, region);
            homes.insert(
                asn,
                crate::internet::jitter(regions[region].hub, spread, &mut home_rng),
            );
        }
    }

    // Prefix sidecar, validated against the graph during parsing.
    let pfx_path = snap_dir.join(snapshot::PREFIXES_FILE);
    let sidecar_prefixes = match read_sidecar(&pfx_path)? {
        Some(text) => Some(prefix::parse_pfx2as(&text, &graph)?),
        None => None,
    };

    let skeleton = Skeleton {
        graph,
        tiers,
        as_region,
        regions,
        homes,
    };
    Ok(SyntheticInternet::assemble(
        skeleton,
        sidecar_prefixes,
        sidecar_geo.as_deref(),
        seed,
        InternetConfig::default().capacity_scale,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_source_matches_direct_generation() {
        let config = InternetConfig {
            num_ases: 200,
            tier1_count: 4,
            ..InternetConfig::default()
        };
        let direct = SyntheticInternet::generate(&config, 7).unwrap();
        let sourced = MarketSource::Synthetic(config).build(7).unwrap();
        let links_a: Vec<_> = direct.graph.links().collect();
        let links_b: Vec<_> = sourced.graph.links().collect();
        assert_eq!(links_a, links_b);
        assert_eq!(direct.prefixes.len(), sourced.prefixes.len());
        for asn in direct.graph.ases() {
            assert_eq!(direct.geo.as_location(asn), sourced.geo.as_location(asn));
        }
    }

    #[test]
    fn labels_name_the_source() {
        let synthetic = MarketSource::Synthetic(InternetConfig::default());
        assert_eq!(synthetic.label(), "synthetic:4000-as");
        let caida = MarketSource::Caida {
            dir: PathBuf::from("/data/caida"),
            snapshot: Some("2024".to_owned()),
        };
        assert_eq!(caida.label(), "caida:/data/caida/2024");
    }

    #[test]
    fn missing_directory_is_a_snapshot_error() {
        let source = MarketSource::Caida {
            dir: PathBuf::from("/nonexistent-snapshots"),
            snapshot: None,
        };
        assert!(source.build(1).is_err());
    }
}
