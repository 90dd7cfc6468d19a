//! Topology-wide agreement discovery: sweep an entire internet —
//! synthetic or loaded from a CAIDA snapshot — for profitable mutuality
//! agreements (§III–§IV at scale).
//!
//! ```console
//! discover --quick --json --threads 4          # CI smoke: 10k ASes, 3×3 grid
//! discover --ases 20000 --khop 2 --top 50      # bigger net, prospective pairs
//! discover --caida snapshots --snapshot 2024   # real-internet snapshot
//! ```
//!
//! Accepts the shared [`ScenarioSpec`] flags plus `--bench-out <path>`,
//! which writes a JSON timing record (candidate-pairs/second). The
//! sparse per-pair stack the dense engine replaced is timed by the
//! `evaluate_24_pairs/legacy` case of
//! `cargo bench -p pan-bench --bench discovery`.
//!
//! Timings go to **stderr** so stdout stays byte-identical at any
//! `--threads` value — the property the CI `discovery-smoke` job diffs.

use std::time::Instant;

use serde::Serialize;

use pan_bench::{
    at_market_scale, discovery_config, market_tables, print_header, CountingAllocator,
    MemoryReport, ReportSink, ScenarioSpec,
};
use pan_core::discovery::{discover, BatchContext, DiscoveryReport};

/// Count every heap allocation so the bench record's memory section can
/// distinguish steady-state allocation-free sweeps from regressions.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[derive(Debug, Serialize)]
struct BenchRecord {
    ases: usize,
    threads: usize,
    candidate_pairs: usize,
    seconds: f64,
    pairs_per_second: f64,
    memory: MemoryReport,
}

fn print_report(report: &DiscoveryReport) {
    println!(
        "# candidates: {}, concluded: flow-volume {} ({:.1}%), cash {} ({:.1}%)",
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
const OWN_FLAGS: &str = "--bench-out <path>";

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    ScenarioSpec::expect_no_extras_for(&rest, OWN_FLAGS);
    // The discovery workload is internet-scale by definition; even
    // --quick sweeps a full 10k-AS topology (with a coarser grid).
    let spec = at_market_scale(spec);
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

    let t0 = Instant::now();
    let report = discover(&ctx, &config, &spec.sweep()).expect("discovery succeeds");
    let seconds = t0.elapsed().as_secs_f64();

    print_report(&report);
    let rate = report.candidates as f64 / seconds.max(1e-9);
    eprintln!(
        "# swept {} candidate pairs in {seconds:.3}s — {rate:.0} pairs/s at {} threads",
        report.candidates, spec.threads
    );
    sink.emit_json(&report);
    sink.write_record(&BenchRecord {
        ases: net.graph.node_count(),
        threads: spec.threads,
        candidate_pairs: report.candidates,
        seconds,
        pairs_per_second: rate,
        memory: MemoryReport::capture(),
    });
}
