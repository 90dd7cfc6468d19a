//! Longitudinal real-internet runs: walk a directory of yearly CAIDA
//! snapshots, run the same evolution configuration over every year, and
//! diff the adopted agreement sets across consecutive years — which
//! mutuality agreements survive topology churn, which appear, which
//! disappear.
//!
//! ```console
//! longitudinal --caida snapshots --quick --json
//! longitudinal --caida snapshots --rounds 8 --bench-out BENCH_longitudinal.json
//! ```
//!
//! Accepts the shared [`ScenarioSpec`] flags; `--caida <dir>` names a
//! directory with one subdirectory per snapshot (e.g. per year), each
//! holding a `relationships.txt` plus optional sidecars (see
//! `pan_topology::snapshot`). Every snapshot is evolved from the same
//! seed and configuration, so cross-year differences are differences in
//! the market, not the method. Plus:
//!
//! - `--bench-out <path>`: write the record `BENCH_longitudinal.json`
//!   commits — per-year build/evolve timings, allocation counts, and peak
//!   RSS on top of the deterministic report;
//! - `--metrics-out <path>`: enable engine-wide telemetry and write the
//!   final registry snapshot (snapshot parse timings, phase breakdowns)
//!   as JSON.
//!
//! Timings go to **stderr**: stdout (and the `--json` dump) is
//! byte-identical at any `--threads` value — the property the CI
//! `longitudinal-smoke` job diffs. Loading a snapshot only reads its
//! directory.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use pan_bench::{
    evolution_config, market_tier, print_header, CountingAllocator, MemoryReport, MetricsSink,
    ReportSink, ScenarioSpec,
};
use pan_core::dynamics::{evolve, MarketState};
use pan_datasets::MarketSource;
use pan_topology::snapshot;

/// Count every heap allocation so the per-year memory sections can
/// distinguish build-heavy years from evolve-heavy ones.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Deterministic per-snapshot summary (no wall-clock).
#[derive(Debug, Clone, Serialize)]
struct YearSummary {
    snapshot: String,
    ases: usize,
    links: usize,
    transit_links: usize,
    peering_links: usize,
    rounds: usize,
    fixed_point: bool,
    adopted: usize,
    total_surplus: f64,
    new_links: usize,
    /// Adopted agreements as sorted unordered ASN pairs — the unit the
    /// cross-year diffs are computed over.
    adopted_pairs: Vec<(u32, u32)>,
}

/// Adopted-set delta between two consecutive snapshots.
#[derive(Debug, Clone, Serialize)]
struct YearDiff {
    from: String,
    to: String,
    kept: usize,
    gained_pairs: Vec<(u32, u32)>,
    lost_pairs: Vec<(u32, u32)>,
}

/// The deterministic report (`--json` stdout dump).
#[derive(Debug, Serialize)]
struct LongitudinalReport {
    years: Vec<YearSummary>,
    diffs: Vec<YearDiff>,
}

/// Wall-clock and memory facts, kept out of stdout.
#[derive(Debug, Serialize)]
struct YearTiming {
    snapshot: String,
    build_seconds: f64,
    evolve_seconds: f64,
    /// Cumulative allocation counters and peak RSS as of this year's
    /// finish — consecutive records subtract to per-year figures.
    memory: MemoryReport,
}

/// The `--bench-out` record (`BENCH_longitudinal.json`).
#[derive(Debug, Serialize)]
struct BenchRecord {
    threads: usize,
    seed: u64,
    quick: bool,
    timings: Vec<YearTiming>,
    report: LongitudinalReport,
}

fn sorted_pair(x: u32, y: u32) -> (u32, u32) {
    (x.min(y), x.max(y))
}

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    let metrics = MetricsSink::from_args(&mut rest);
    ScenarioSpec::expect_no_extras_for(&rest, "--bench-out <path>, --metrics-out <path>");
    assert!(
        !spec.source.caida.is_empty(),
        "longitudinal requires --caida <dir> (a directory with one subdirectory per snapshot)"
    );
    assert!(
        spec.source.snapshot.is_empty(),
        "longitudinal walks every snapshot in the directory; drop --snapshot"
    );
    let dir = PathBuf::from(&spec.source.caida);
    let names = snapshot::list_snapshots(&dir).unwrap_or_else(|e| panic!("{e}"));
    let config = evolution_config(&spec);

    print_header(
        "Longitudinal",
        "yearly CAIDA snapshots under one evolution configuration",
        &spec,
    );
    println!(
        "# snapshots: {} ({} … {}), rounds: {}, adopt-top: {}, min-surplus: {}",
        names.len(),
        names.first().expect("list_snapshots never returns empty"),
        names.last().expect("list_snapshots never returns empty"),
        config.rounds,
        config.adopt_top,
        config.min_surplus,
    );

    let mut years: Vec<YearSummary> = Vec::with_capacity(names.len());
    let mut timings: Vec<YearTiming> = Vec::with_capacity(names.len());
    let mut adopted_sets: Vec<BTreeSet<(u32, u32)>> = Vec::with_capacity(names.len());
    for name in &names {
        let source = MarketSource::Caida {
            dir: dir.clone(),
            snapshot: Some(name.clone()),
        };
        let t_build = Instant::now();
        let net = source
            .build(spec.seed)
            .unwrap_or_else(|e| panic!("cannot load snapshot {name}: {e}"));
        let build_seconds = t_build.elapsed().as_secs_f64();
        let mut state = MarketState::standard(net.graph.clone(), |asn| market_tier(&net, asn))
            .expect("tables match the graph");
        let t_evolve = Instant::now();
        let report = evolve(&mut state, &config, &spec.sweep()).expect("evolution succeeds");
        let evolve_seconds = t_evolve.elapsed().as_secs_f64();
        eprintln!(
            "# {name}: built {} ASes in {build_seconds:.2}s, evolved {} rounds \
             in {evolve_seconds:.2}s",
            net.graph.node_count(),
            report.rounds.len(),
        );

        let adopted: BTreeSet<(u32, u32)> = report
            .agreements
            .iter()
            .map(|a| sorted_pair(a.x.get(), a.y.get()))
            .collect();
        years.push(YearSummary {
            snapshot: name.clone(),
            ases: net.graph.node_count(),
            links: net.graph.link_count(),
            transit_links: net.graph.transit_link_count(),
            peering_links: net.graph.peering_link_count(),
            rounds: report.rounds.len(),
            fixed_point: report.fixed_point,
            adopted: adopted.len(),
            total_surplus: report.total_surplus,
            new_links: report.agreements.iter().filter(|a| a.new_link).count(),
            adopted_pairs: adopted.iter().copied().collect(),
        });
        timings.push(YearTiming {
            snapshot: name.clone(),
            build_seconds,
            evolve_seconds,
            memory: MemoryReport::capture(),
        });
        adopted_sets.push(adopted);
    }

    println!(
        "{:<10} {:>7} {:>7} {:>8} {:>8} {:>7} {:>8} {:>14} {:>6}",
        "snapshot", "ases", "links", "transit", "peering", "rounds", "adopted", "surplus", "new"
    );
    for y in &years {
        println!(
            "{:<10} {:>7} {:>7} {:>8} {:>8} {:>7} {:>8} {:>14.3} {:>6}",
            y.snapshot,
            y.ases,
            y.links,
            y.transit_links,
            y.peering_links,
            y.rounds,
            y.adopted,
            y.total_surplus,
            y.new_links,
        );
    }

    let mut diffs: Vec<YearDiff> = Vec::new();
    for i in 1..years.len() {
        let prev_set = &adopted_sets[i - 1];
        let next_set = &adopted_sets[i];
        let kept = prev_set.intersection(next_set).count();
        let gained: Vec<(u32, u32)> = next_set.difference(prev_set).copied().collect();
        let lost: Vec<(u32, u32)> = prev_set.difference(next_set).copied().collect();
        println!(
            "# {} → {}: {} kept, {} gained, {} lost",
            years[i - 1].snapshot,
            years[i].snapshot,
            kept,
            gained.len(),
            lost.len(),
        );
        diffs.push(YearDiff {
            from: years[i - 1].snapshot.clone(),
            to: years[i].snapshot.clone(),
            kept,
            gained_pairs: gained,
            lost_pairs: lost,
        });
    }

    let report = LongitudinalReport { years, diffs };
    sink.emit_json(&report);
    sink.write_record(&BenchRecord {
        threads: spec.threads,
        seed: spec.seed,
        quick: spec.quick,
        timings,
        report,
    });
    metrics.write();
}
