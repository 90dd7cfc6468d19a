//! Snapshot-directory loading for real-internet (CAIDA-shaped) data.
//!
//! A *snapshot* is a directory holding one capture of the AS-level
//! internet:
//!
//! ```text
//! <dir>/2023/relationships.txt   # CAIDA serial-2, required
//! <dir>/2023/prefix2as.txt       # Routeviews-style pfx2as sidecar, optional
//! <dir>/2023/geo.txt             # asn|lat|lon sidecar, optional
//! <dir>/2024/...
//! ```
//!
//! This module owns the topology half of snapshot loading: parsing the
//! relationships graph and the geolocation sidecar, and enumerating the
//! snapshots under a directory. The prefix sidecar and the synthetic
//! fill for missing fields live in `pan-datasets`, which also exposes
//! the user-facing `MarketSource` entry point. Loading only reads: it
//! never writes into the snapshot directory.

use std::fs;
use std::path::Path;

use crate::geo::GeoPoint;
use crate::{caida, AsGraph, Asn, Result, TopologyError};

/// File name of the relationships document inside a snapshot directory.
pub const RELATIONSHIPS_FILE: &str = "relationships.txt";
/// File name of the optional prefix-origin sidecar.
pub const PREFIXES_FILE: &str = "prefix2as.txt";
/// File name of the optional AS-geolocation sidecar.
pub const GEO_FILE: &str = "geo.txt";

/// Loads a CAIDA serial-2 relationships file: reads it and
/// [`caida::parse`]s it.
///
/// # Errors
///
/// [`TopologyError::Io`] if the relationships file cannot be read, plus
/// everything [`caida::parse`] returns.
pub fn load_relationships(path: &Path) -> Result<AsGraph> {
    let text = fs::read_to_string(path).map_err(|e| TopologyError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })?;
    let _span = pan_telemetry::histogram("topology.snapshot.parse_ns").start();
    caida::parse(&text)
}

/// Parses an `asn|lat|lon` geolocation sidecar document.
///
/// Comment (`#`) and blank lines are skipped. Latitude/longitude are
/// degrees; out-of-range coordinates, bad numbers, and repeated ASNs are
/// rejected with 1-based line numbers. Entries are returned in file order.
///
/// # Errors
///
/// [`TopologyError::MalformedGeoLine`] on any invalid row.
pub fn parse_geo(text: &str) -> Result<Vec<(Asn, GeoPoint)>> {
    let mut out: Vec<(Asn, GeoPoint)> = Vec::new();
    let mut seen: std::collections::HashMap<Asn, usize> = std::collections::HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let malformed = |reason: String| TopologyError::MalformedGeoLine {
            line: lineno + 1,
            text: raw.to_owned(),
            reason,
        };
        let mut fields = line.split('|');
        let (Some(asn), Some(lat), Some(lon)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(malformed("expected asn|lat|lon".to_owned()));
        };
        let asn: Asn = asn
            .parse()
            .map_err(|_| malformed(format!("bad AS number {asn:?}")))?;
        let lat: f64 = lat
            .trim()
            .parse()
            .map_err(|_| malformed(format!("bad latitude {lat:?}")))?;
        let lon: f64 = lon
            .trim()
            .parse()
            .map_err(|_| malformed(format!("bad longitude {lon:?}")))?;
        let point = GeoPoint::new(lat, lon).map_err(|e| malformed(e.to_string()))?;
        if let Some(first) = seen.insert(asn, lineno + 1) {
            return Err(malformed(format!("{asn} already located on line {first}")));
        }
        out.push((asn, point));
    }
    Ok(out)
}

/// Lists the snapshot names under a directory: every immediate
/// subdirectory containing a [`RELATIONSHIPS_FILE`], sorted ascending by
/// name (so yearly snapshots come out oldest-first).
///
/// # Errors
///
/// [`TopologyError::Io`] if the directory cannot be read, and
/// [`TopologyError::InvalidSnapshot`] if no subdirectory holds a
/// relationships file.
pub fn list_snapshots(dir: &Path) -> Result<Vec<String>> {
    let entries = fs::read_dir(dir).map_err(|e| TopologyError::Io {
        path: dir.display().to_string(),
        reason: e.to_string(),
    })?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() && path.join(RELATIONSHIPS_FILE).is_file() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_owned());
            }
        }
    }
    if names.is_empty() {
        return Err(TopologyError::InvalidSnapshot {
            path: dir.display().to_string(),
            reason: format!("no subdirectory contains a {RELATIONSHIPS_FILE}"),
        });
    }
    names.sort_unstable();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pan-topology-snapshot-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_file_reports_io_error_with_path() {
        let err = load_relationships(Path::new("/nonexistent/rel.txt")).unwrap_err();
        match err {
            TopologyError::Io { path, .. } => assert!(path.contains("nonexistent")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_geo_accepts_comments_and_reports_line_numbers() {
        let table = parse_geo("# asn|lat|lon\n\n7|52.5|13.4\n9|-33.9|151.2\n").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, Asn::new(7));

        for (doc, want_line, want_reason) in [
            ("7|52.5", 1, "expected asn|lat|lon"),
            ("x|1.0|2.0", 1, "bad AS number"),
            ("7|north|2.0", 1, "bad latitude"),
            ("7|1.0|east", 1, "bad longitude"),
            ("7|99.0|2.0", 1, "invalid geographic coordinate"),
            ("7|1.0|2.0\n7|3.0|4.0", 2, "already located on line 1"),
        ] {
            match parse_geo(doc) {
                Err(TopologyError::MalformedGeoLine { line, reason, .. }) => {
                    assert_eq!(line, want_line, "doc: {doc:?}");
                    assert!(
                        reason.contains(want_reason),
                        "doc: {doc:?}, reason: {reason}"
                    );
                }
                other => panic!("doc {doc:?}: expected geo-line error, got {other:?}"),
            }
        }
    }

    #[test]
    fn list_snapshots_sorts_and_skips_incomplete_dirs() {
        let dir = temp_dir("list");
        for year in ["2024", "2023"] {
            let sub = dir.join(year);
            fs::create_dir_all(&sub).unwrap();
            fs::write(sub.join(RELATIONSHIPS_FILE), "1|2|-1\n").unwrap();
        }
        fs::create_dir_all(dir.join("incomplete")).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap(), vec!["2023", "2024"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_an_invalid_snapshot() {
        let dir = temp_dir("empty");
        assert!(matches!(
            list_snapshots(&dir),
            Err(TopologyError::InvalidSnapshot { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
