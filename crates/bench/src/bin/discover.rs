//! Topology-wide agreement discovery: sweep an entire internet —
//! synthetic or loaded from a CAIDA snapshot — for profitable mutuality
//! agreements (§III–§IV at scale).
//!
//! ```console
//! discover --quick --json --threads 4          # CI smoke: 10k ASes, 3×3 grid
//! discover --ases 20000 --khop 2 --top 50      # bigger net, prospective pairs
//! discover --caida snapshots --snapshot 2024   # real-internet snapshot
//! discover --engine legacy --limit 200         # "before" engine, for benchmarking
//! ```
//!
//! Accepts the shared [`ScenarioSpec`] flags plus:
//!
//! - `--engine dense|legacy`: the dense batch engine (default) or the
//!   original per-pair `AgreementScenario` stack;
//! - `--limit <N>`: evaluate only the first `N` candidates (0 = all;
//!   default 200 for the legacy engine, which is orders of magnitude
//!   slower);
//! - `--bench-out <path>`: write a JSON timing record
//!   (candidate-pairs/second) for `BENCH_discovery.json`.
//!
//! Timings go to **stderr** so stdout stays byte-identical at any
//! `--threads` value — the property the CI `discovery-smoke` job diffs.

use std::time::Instant;

use serde::Serialize;

use pan_bench::{
    at_market_scale, discovery_config, market_tables, print_header, CountingAllocator,
    MemoryReport, ReportSink, ScenarioSpec, UsageError,
};
use pan_core::discovery::{
    discover, enumerate_candidates, evaluate_candidate_legacy, BatchContext, DiscoveryReport,
    PairOutcome,
};

/// Count every heap allocation so the bench record's memory section can
/// distinguish steady-state allocation-free sweeps from regressions.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[derive(Debug, Serialize)]
struct BenchRecord {
    engine: String,
    ases: usize,
    threads: usize,
    candidate_pairs: usize,
    seconds: f64,
    pairs_per_second: f64,
    memory: MemoryReport,
}

fn print_report(report: &DiscoveryReport, engine: &str) {
    println!(
        "# engine: {engine}, candidates: {}, concluded: flow-volume {} ({:.1}%), cash {} ({:.1}%)",
        report.candidates,
        report.concluded_flow_volume,
        100.0 * report.concluded_flow_volume as f64 / report.candidates.max(1) as f64,
        report.concluded_cash,
        100.0 * report.concluded_cash as f64 / report.candidates.max(1) as f64,
    );
    println!("# total NBS surplus: {:.3}", report.total_surplus);
    println!(
        "{:<5} {:>9} {:>9} {:>5} {:>9} {:>14} {:>14} {:>14}",
        "rank", "X", "Y", "hops", "segments", "fv-nash", "cash-joint", "transfer X→Y"
    );
    for (rank, o) in report.outcomes.iter().take(20).enumerate() {
        println!(
            "{:<5} {:>9} {:>9} {:>5} {:>9} {:>14} {:>14} {:>14}",
            rank + 1,
            o.x.to_string(),
            o.y.to_string(),
            o.peering_hops,
            format!("{}+{}", o.segments.0, o.segments.1),
            o.flow_volume
                .map_or_else(|| "—".to_owned(), |f| format!("{:.3}", f.nash_product())),
            o.cash
                .map_or_else(|| "—".to_owned(), |c| format!("{:.3}", c.joint_utility)),
            o.cash
                .map_or_else(|| "—".to_owned(), |c| format!("{:.3}", c.transfer_x_to_y)),
        );
    }
}

/// The flags `discover` adds to the shared ones, for its usage line.
const OWN_FLAGS: &str = "--engine <dense|legacy>, --limit <N>, --bench-out <path>";

/// Exits with `message` and the usage (code 2).
fn malformed(message: String) -> ! {
    UsageError::Malformed(message).exit(OWN_FLAGS)
}

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    let mut engine = "dense".to_owned();
    let mut limit = 0usize;
    let mut extras = Vec::new();
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| {
            rest.next()
                .unwrap_or_else(|| malformed(format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--engine" => engine = value("--engine"),
            "--limit" => {
                let raw = value("--limit");
                limit = raw
                    .parse()
                    .unwrap_or_else(|_| malformed(format!("--limit expects a count, got {raw:?}")));
            }
            _ => extras.push(arg),
        }
    }
    ScenarioSpec::expect_no_extras_for(&extras, OWN_FLAGS);
    if engine != "dense" && engine != "legacy" {
        malformed(format!("--engine must be dense or legacy, got {engine:?}"));
    }
    // The discovery workload is internet-scale by definition; even
    // --quick sweeps a full 10k-AS topology (with a coarser grid).
    let spec = at_market_scale(spec);
    if engine == "legacy" && limit == 0 {
        limit = 200;
    }
    let config = discovery_config(&spec);
    let grid = config.grid;

    print_header(
        "Discovery",
        "topology-wide mutuality-agreement sweep, ranked by NBS surplus",
        &spec,
    );
    let t_gen = Instant::now();
    let (net, econ, flows) = market_tables(&spec);
    eprintln!(
        "# generated {} ASes in {:.2}s",
        net.graph.node_count(),
        t_gen.elapsed().as_secs_f64()
    );
    println!(
        "# topology: {} ASes, {} links ({} transit, {} peering)",
        net.graph.node_count(),
        net.graph.link_count(),
        net.graph.transit_link_count(),
        net.graph.peering_link_count()
    );
    let ctx = BatchContext::new(&net.graph, &econ, &flows).expect("tables match the graph");
    println!(
        "# policy: {:?}, shares: reroute {} / attract {}, grid {grid}×{grid}, noise {}",
        config.policy,
        spec.discovery.reroute_share,
        spec.discovery.attract_share,
        spec.discovery.noise
    );

    let (report, seconds) = if engine == "dense" {
        if limit > 0 {
            eprintln!("# note: --limit applies to the legacy engine; dense sweeps everything");
        }
        let t0 = Instant::now();
        let report = discover(&ctx, &config, &spec.sweep()).expect("discovery succeeds");
        (report, t0.elapsed().as_secs_f64())
    } else {
        // The pre-refactor path: per-pair sparse scenarios. Same math,
        // same grid — used as the benchmark baseline and sanity oracle.
        // `Agreement::mutuality` requires the parties to already peer,
        // so prospective (k-hop > 1) candidates are dense-engine-only.
        let model = econ.to_business_model(&net.graph);
        let mut candidates = enumerate_candidates(&net.graph, config.policy);
        let before = candidates.len();
        candidates.retain(|pair| pair.peering_hops == 1);
        if candidates.len() < before {
            eprintln!(
                "# note: legacy engine skips {} prospective (k-hop) candidates — \
                 the sparse stack only evaluates existing peers",
                before - candidates.len()
            );
        }
        if limit > 0 && candidates.len() > limit {
            candidates.truncate(limit);
        }
        let t0 = Instant::now();
        let outcomes: Vec<PairOutcome> = spec.pool().map(&candidates, |_i, pair| {
            let fx = flows.to_flow_vec(&net.graph, pair.x);
            let fy = flows.to_flow_vec(&net.graph, pair.y);
            evaluate_candidate_legacy(
                &model,
                &fx,
                &fy,
                spec.discovery.reroute_share,
                spec.discovery.attract_share,
                grid,
            )
            .expect("legacy evaluation succeeds")
        });
        let seconds = t0.elapsed().as_secs_f64();
        (
            DiscoveryReport::from_outcomes(outcomes, spec.discovery.top),
            seconds,
        )
    };

    print_report(&report, &engine);
    let rate = report.candidates as f64 / seconds.max(1e-9);
    eprintln!(
        "# swept {} candidate pairs in {seconds:.3}s — {rate:.0} pairs/s at {} threads",
        report.candidates, spec.threads
    );
    sink.emit_json(&report);
    sink.write_record(&BenchRecord {
        engine,
        ases: net.graph.node_count(),
        threads: spec.threads,
        candidate_pairs: report.candidates,
        seconds,
        pairs_per_second: rate,
        memory: MemoryReport::capture(),
    });
}
