//! Geographic annotations for AS topologies.
//!
//! The paper's geodistance analysis (§VI-B) needs two pieces of geographic
//! information:
//!
//! 1. the **center of gravity** of every AS, obtained by geolocating the
//!    AS's IP prefixes and averaging the coordinates, and
//! 2. the locations of **AS interconnections** (facilities where two ASes
//!    exchange traffic), from the CAIDA geographic AS-relationship dataset.
//!
//! This module provides [`GeoPoint`] (a validated WGS84 coordinate with
//! great-circle distance), [`GeoAnnotations`] (the two tables above, keyed
//! by [`Asn`] and [`LinkId`]), and the paper's path-geodistance metric
//! `d(π) = d(A₁,ℓ₁₂) + d(ℓ₁₂,ℓ₂₃) + d(ℓ₂₃,A₃)` minimized over facility
//! choices ([`GeoAnnotations::length3_geodistance`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{AsGraph, Asn, LinkId, Result, TopologyError};

/// Mean Earth radius in kilometers, used by the haversine formula.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface (WGS84 latitude/longitude in degrees).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a geographic point.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidCoordinate`] if the latitude is
    /// outside `[-90, 90]`, the longitude outside `[-180, 180]`, or either
    /// is not finite.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Result<Self> {
        if !lat_deg.is_finite()
            || !lon_deg.is_finite()
            || !(-90.0..=90.0).contains(&lat_deg)
            || !(-180.0..=180.0).contains(&lon_deg)
        {
            return Err(TopologyError::InvalidCoordinate { lat_deg, lon_deg });
        }
        Ok(GeoPoint { lat_deg, lon_deg })
    }

    /// Latitude in degrees.
    #[must_use]
    pub const fn lat_deg(self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees.
    #[must_use]
    pub const fn lon_deg(self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometers (haversine formula).
    ///
    /// # Example
    ///
    /// ```
    /// use pan_topology::geo::GeoPoint;
    ///
    /// let zurich = GeoPoint::new(47.37, 8.54)?;
    /// let new_york = GeoPoint::new(40.71, -74.01)?;
    /// let d = zurich.distance_km(new_york);
    /// assert!((6_200.0..6_500.0).contains(&d));
    /// # Ok::<(), pan_topology::TopologyError>(())
    /// ```
    #[must_use]
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Component-wise centroid of a set of points.
    ///
    /// This mirrors the paper's "center of gravity" computation: the
    /// coordinates of all prefixes of an AS are averaged arithmetically.
    /// (For the continental scales involved, arithmetic averaging of
    /// lat/lon matches the paper's methodology; antipodal pathologies are
    /// irrelevant at this granularity.) Returns `None` for an empty slice.
    #[must_use]
    pub fn centroid(points: &[GeoPoint]) -> Option<GeoPoint> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as f64;
        let lat = points.iter().map(|p| p.lat_deg).sum::<f64>() / n;
        let lon = points.iter().map(|p| p.lon_deg).sum::<f64>() / n;
        Some(GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        })
    }
}

/// Geographic annotations of an [`AsGraph`]: AS centroids and per-link
/// interconnection facilities.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GeoAnnotations {
    as_locations: HashMap<Asn, GeoPoint>,
    facilities: HashMap<LinkId, Vec<GeoPoint>>,
}

impl GeoAnnotations {
    /// Creates an empty annotation table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the center of gravity of an AS.
    pub fn set_as_location(&mut self, asn: Asn, location: GeoPoint) {
        self.as_locations.insert(asn, location);
    }

    /// Returns the center of gravity of an AS, if annotated.
    #[must_use]
    pub fn as_location(&self, asn: Asn) -> Option<GeoPoint> {
        self.as_locations.get(&asn).copied()
    }

    /// Number of annotated ASes.
    #[must_use]
    pub fn annotated_as_count(&self) -> usize {
        self.as_locations.len()
    }

    /// Adds interconnection facilities for a link, in order, with one
    /// table lookup. A link without facilities keeps `locations` itself,
    /// so a caller that sized it exactly pays for no spare capacity.
    pub fn extend_facilities(&mut self, link: LinkId, locations: Vec<GeoPoint>) {
        match self.facilities.entry(link) {
            Entry::Vacant(entry) => {
                entry.insert(locations);
            }
            Entry::Occupied(mut entry) => entry.get_mut().extend(locations),
        }
    }

    /// The known interconnection facilities of a link (possibly empty).
    #[must_use]
    pub fn facilities(&self, link: LinkId) -> &[GeoPoint] {
        self.facilities.get(&link).map_or(&[], Vec::as_slice)
    }

    /// Candidate locations for a link: its facilities if known, otherwise
    /// the midpoint of the endpoint AS centroids (fallback used when the
    /// geographic AS-relationship dataset has no row for the link).
    fn link_candidates(&self, graph: &AsGraph, link: LinkId) -> Vec<GeoPoint> {
        let known = self.facilities(link);
        if !known.is_empty() {
            return known.to_vec();
        }
        let l = graph.link(link);
        match (self.as_location(l.a), self.as_location(l.b)) {
            (Some(pa), Some(pb)) => {
                GeoPoint::centroid(&[pa, pb]).map_or_else(Vec::new, |m| vec![m])
            }
            _ => Vec::new(),
        }
    }

    /// Geodistance of a length-3 path `(a1, a2, a3)` per §VI-B of the paper:
    ///
    /// `d(π) = d(A₁, ℓ₁₂) + d(ℓ₁₂, ℓ₂₃) + d(ℓ₂₃, A₃)`,
    ///
    /// minimized over all known interconnection facilities for the two
    /// links. Returns `None` if either link is missing from the graph or
    /// required locations are unannotated.
    #[must_use]
    pub fn length3_geodistance(&self, graph: &AsGraph, a1: Asn, a2: Asn, a3: Asn) -> Option<f64> {
        let p1 = self.as_location(a1)?;
        let p3 = self.as_location(a3)?;
        let l12 = graph.link_between(a1, a2)?.id;
        let l23 = graph.link_between(a2, a3)?.id;
        let c12 = self.link_candidates(graph, l12);
        let c23 = self.link_candidates(graph, l23);
        if c12.is_empty() || c23.is_empty() {
            return None;
        }
        let mut best = f64::INFINITY;
        for &f12 in &c12 {
            let head = p1.distance_km(f12);
            for &f23 in &c23 {
                let d = head + f12.distance_km(f23) + f23.distance_km(p3);
                if d < best {
                    best = d;
                }
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{asn, fig1};

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(-91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, 181.0).is_err());
        assert!(GeoPoint::new(0.0, -181.0).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn distance_to_self_is_zero() {
        let z = p(47.37, 8.54);
        assert!(z.distance_km(z).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(47.37, 8.54);
        let b = p(40.71, -74.01);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
    }

    #[test]
    fn quarter_meridian_distance() {
        let equator = p(0.0, 0.0);
        let pole = p(90.0, 0.0);
        let d = equator.distance_km(pole);
        // A quarter of the Earth's circumference, ~10,007 km.
        assert!((d - 10_007.0).abs() < 10.0);
    }

    #[test]
    fn centroid_of_two_points() {
        let c = GeoPoint::centroid(&[p(0.0, 0.0), p(10.0, 20.0)]).unwrap();
        assert!((c.lat_deg() - 5.0).abs() < 1e-9);
        assert!((c.lon_deg() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(GeoPoint::centroid(&[]).is_none());
    }

    #[test]
    fn length3_geodistance_uses_best_facility_pair() {
        let g = fig1();
        let mut geo = GeoAnnotations::new();
        // A at (0,0), D at (0,10), E at (0,20).
        geo.set_as_location(asn('A'), p(0.0, 0.0));
        geo.set_as_location(asn('D'), p(0.0, 10.0));
        geo.set_as_location(asn('E'), p(0.0, 20.0));
        let l_ad = g.link_between(asn('A'), asn('D')).unwrap().id;
        let l_de = g.link_between(asn('D'), asn('E')).unwrap().id;
        // Two facilities for A–D: one nearby, one absurdly far.
        geo.extend_facilities(l_ad, vec![p(0.0, 5.0)]);
        geo.extend_facilities(l_ad, vec![p(80.0, 5.0)]);
        geo.extend_facilities(l_de, vec![p(0.0, 15.0)]);
        let d = geo
            .length3_geodistance(&g, asn('A'), asn('D'), asn('E'))
            .unwrap();
        // Optimal: (0,0)->(0,5)->(0,15)->(0,20) = 20 degrees along equator.
        let expected = p(0.0, 0.0).distance_km(p(0.0, 20.0));
        assert!((d - expected).abs() < 1.0, "d = {d}, expected ≈ {expected}");
    }

    #[test]
    fn length3_geodistance_falls_back_to_midpoints() {
        let g = fig1();
        let mut geo = GeoAnnotations::new();
        geo.set_as_location(asn('A'), p(0.0, 0.0));
        geo.set_as_location(asn('D'), p(0.0, 10.0));
        geo.set_as_location(asn('E'), p(0.0, 20.0));
        // No facilities: midpoints (0,5) and (0,15) are used.
        let d = geo
            .length3_geodistance(&g, asn('A'), asn('D'), asn('E'))
            .unwrap();
        let expected = p(0.0, 0.0).distance_km(p(0.0, 20.0));
        assert!((d - expected).abs() < 1.0);
    }

    #[test]
    fn length3_geodistance_missing_annotation_is_none() {
        let g = fig1();
        let geo = GeoAnnotations::new();
        assert!(geo
            .length3_geodistance(&g, asn('A'), asn('D'), asn('E'))
            .is_none());
    }

    #[test]
    fn length3_geodistance_missing_link_is_none() {
        let g = fig1();
        let mut geo = GeoAnnotations::new();
        for c in ['A', 'D', 'I'] {
            geo.set_as_location(asn(c), p(0.0, 0.0));
        }
        // A–I are not adjacent.
        assert!(geo
            .length3_geodistance(&g, asn('A'), asn('D'), asn('I'))
            .is_none());
    }
}
