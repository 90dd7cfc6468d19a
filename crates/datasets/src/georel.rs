//! Synthetic geographic AS-relationship data (interconnection facilities).
//!
//! The paper obtains the geolocation of AS interconnections from the CAIDA
//! geographic AS-relationship dataset (§VI-B). This module generates the
//! synthetic equivalent: every link receives one or more facilities placed
//! along the great-ellipse segment between the endpoint AS centroids, with
//! better-connected AS pairs receiving more facilities (large networks
//! interconnect in several cities).

use pan_topology::geo::{GeoAnnotations, GeoPoint};
use pan_topology::AsGraph;

use crate::internet::jitter;
use crate::rng::DeterministicRng;

/// Adds interconnection facilities for every link of `graph` to `geo`.
///
/// Facility count scales with the smaller endpoint degree:
/// 1 facility for small pairs up to 4 for pairs of well-connected ASes.
/// Facilities are placed at interpolation points between the endpoint
/// centroids with ±2° jitter. Links whose endpoints have no centroid are
/// skipped (the geodistance analysis will fall back to midpoints).
pub fn add_facilities(graph: &AsGraph, geo: &mut GeoAnnotations, rng: &mut DeterministicRng) {
    // Centroids by dense node index: one ASN lookup per AS instead of
    // two per link.
    let locations: Vec<Option<GeoPoint>> = graph.ases().map(|asn| geo.as_location(asn)).collect();
    for id in graph.links().map(|link| link.id) {
        let (a, b) = graph.link_endpoint_indices(id);
        let (Some(pa), Some(pb)) = (locations[a as usize], locations[b as usize]) else {
            continue;
        };
        let min_degree = graph.degree_of_index(a).min(graph.degree_of_index(b));
        let count = facility_count(min_degree);
        let facilities = (0..count).map(|i| {
            // Interpolation fraction spreads facilities along the segment:
            // a single facility sits at the midpoint.
            let t = (i as f64 + 1.0) / (count as f64 + 1.0);
            let lat = pa.lat_deg() + t * (pb.lat_deg() - pa.lat_deg());
            let lon = pa.lon_deg() + t * lon_delta(pa.lon_deg(), pb.lon_deg());
            let base = GeoPoint::new(lat.clamp(-89.0, 89.0), normalize_lon(lon))
                .expect("clamped coordinates are valid");
            jitter(base, 2.0, rng)
        });
        geo.extend_facilities(id, facilities.collect());
    }
}

/// Number of facilities for a link whose smaller endpoint degree is `d`.
fn facility_count(d: usize) -> usize {
    match d {
        0..=3 => 1,
        4..=10 => 2,
        11..=40 => 3,
        _ => 4,
    }
}

/// Signed longitude difference taking the short way around the globe.
fn lon_delta(from: f64, to: f64) -> f64 {
    let mut d = to - from;
    if d > 180.0 {
        d -= 360.0;
    } else if d < -180.0 {
        d += 360.0;
    }
    d
}

fn normalize_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use pan_topology::fixtures::{asn, fig1};

    fn annotated_fig1() -> (AsGraph, GeoAnnotations) {
        let g = fig1();
        let mut geo = GeoAnnotations::new();
        for (i, a) in g.ases().enumerate() {
            let p = GeoPoint::new(10.0 + i as f64, 10.0 + 2.0 * i as f64).unwrap();
            geo.set_as_location(a, p);
        }
        (g, geo)
    }

    #[test]
    fn every_link_gets_facilities() {
        let (g, mut geo) = annotated_fig1();
        add_facilities(&g, &mut geo, &mut rng::seeded(1));
        for link in g.links() {
            assert!(
                !geo.facilities(link.id).is_empty(),
                "link {} has no facility",
                link.id
            );
        }
    }

    #[test]
    fn facilities_lie_between_endpoints() {
        let (g, mut geo) = annotated_fig1();
        add_facilities(&g, &mut geo, &mut rng::seeded(1));
        let link = g.link_between(asn('A'), asn('D')).unwrap();
        let pa = geo.as_location(asn('A')).unwrap();
        let pb = geo.as_location(asn('D')).unwrap();
        let span = pa.distance_km(pb);
        for f in geo.facilities(link.id) {
            // Facility should be within the segment neighborhood
            // (segment length plus jitter allowance).
            assert!(pa.distance_km(*f) < span + 700.0);
            assert!(pb.distance_km(*f) < span + 700.0);
        }
    }

    #[test]
    fn unannotated_endpoints_are_skipped() {
        let g = fig1();
        let mut geo = GeoAnnotations::new();
        add_facilities(&g, &mut geo, &mut rng::seeded(1));
        for link in g.links() {
            assert!(geo.facilities(link.id).is_empty());
        }
    }

    #[test]
    fn facility_count_scales_with_degree() {
        assert_eq!(facility_count(1), 1);
        assert_eq!(facility_count(5), 2);
        assert_eq!(facility_count(20), 3);
        assert_eq!(facility_count(100), 4);
    }

    #[test]
    fn lon_delta_takes_short_way() {
        assert!((lon_delta(170.0, -170.0) - 20.0).abs() < 1e-12);
        assert!((lon_delta(-170.0, 170.0) + 20.0).abs() < 1e-12);
        assert!((lon_delta(0.0, 10.0) - 10.0).abs() < 1e-12);
    }
}
