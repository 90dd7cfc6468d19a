//! Multi-round agreement adoption dynamics on an internet — synthetic
//! or loaded from a CAIDA snapshot: discover profitable mutuality
//! agreements, adopt the best, let flows and cash respond, optionally
//! shock the market, and repeat until the economy reaches a fixed point
//! (or the round cap).
//!
//! ```console
//! evolve --quick --threads 4                   # CI smoke: 10k ASes, 4 rounds
//! evolve --rounds 20 --adopt-top 50 --shock 0.3
//! evolve --khop 2 --rounds 8                   # prospective pairs create links
//! evolve --caida snapshots --snapshot 2024     # real-internet snapshot
//! ```
//!
//! Accepts the shared [`ScenarioSpec`] flags (notably `--rounds`,
//! `--adopt-top`, `--min-surplus`, `--shock`) plus:
//!
//! - `--bench-out <path>`: write the round-by-round trajectory as a JSON
//!   record (`BENCH_evolution.json`);
//! - `--metrics-out <path>`: enable engine-wide telemetry and write the
//!   final registry snapshot (per-round phase breakdown, cache hit
//!   rates, pool accounting) as JSON.
//!
//! Timings go to **stderr** so stdout stays byte-identical at any
//! `--threads` value — the property the CI `evolution-smoke` job diffs.

use std::time::Instant;

use serde::Serialize;

use pan_bench::{
    at_market_scale, evolution_config, market_state, print_header, CountingAllocator, MemoryReport,
    MetricsSink, ReportSink, ScenarioSpec,
};
use pan_core::dynamics::{evolve, EvolutionReport};

/// Count every heap allocation so the bench record's memory section can
/// distinguish allocation-free steady-state rounds from regressions.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[derive(Debug, Serialize)]
struct BenchRecord {
    ases: usize,
    threads: usize,
    rounds_configured: usize,
    adopt_top: usize,
    shock: f64,
    fixed_point: bool,
    total_adopted: usize,
    total_surplus: f64,
    new_links: usize,
    seconds: f64,
    memory: MemoryReport,
    report: EvolutionReport,
}

fn print_report(report: &EvolutionReport) {
    println!(
        "{:<6} {:>10} {:>9} {:>14} {:>8} {:>14} {:>6} {:>7} {:>7} {:>14}",
        "round",
        "candidates",
        "cash-ok",
        "surplus-seen",
        "adopted",
        "surplus-taken",
        "links",
        "shocks",
        "fails",
        "total-flow"
    );
    for r in &report.rounds {
        println!(
            "{:<6} {:>10} {:>9} {:>14.3} {:>8} {:>14.3} {:>6} {:>7} {:>7} {:>14.1}",
            r.round,
            r.candidates,
            r.concluded_cash,
            r.discovered_surplus,
            r.adopted,
            r.adopted_surplus,
            r.new_links,
            r.price_shocks,
            r.failed_links,
            r.total_flow,
        );
    }
    println!(
        "# {} after {} rounds: {} agreements adopted, cumulative surplus {:.3}, {} new peering links",
        if report.fixed_point {
            "fixed point"
        } else {
            "round cap"
        },
        report.rounds.len(),
        report.total_adopted(),
        report.total_surplus,
        report.agreements.iter().filter(|a| a.new_link).count(),
    );
    if !report.agreements.is_empty() {
        println!(
            "{:<5} {:>9} {:>9} {:>5} {:>5} {:>4} {:>11} {:>14} {:>14}",
            "#", "X", "Y", "round", "hops", "new", "point r/a", "joint", "transfer X→Y"
        );
        for (rank, a) in report.agreements.iter().take(10).enumerate() {
            println!(
                "{:<5} {:>9} {:>9} {:>5} {:>5} {:>4} {:>11} {:>14.3} {:>14.3}",
                rank + 1,
                a.x.to_string(),
                a.y.to_string(),
                a.round,
                a.peering_hops,
                if a.new_link { "yes" } else { "—" },
                format!("{:.2}/{:.2}", a.reroute, a.attract),
                a.joint_utility,
                a.transfer_x_to_y,
            );
        }
    }
}

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    let metrics = MetricsSink::from_args(&mut rest);
    ScenarioSpec::expect_no_extras_for(&rest, "--bench-out <path>, --metrics-out <path>");
    // Like `discover`, the evolution workload is internet-scale by
    // definition; --quick keeps the grid coarse and the rounds few.
    let spec = at_market_scale(spec);
    let config = evolution_config(&spec);
    let grid = config.discovery.grid;

    print_header(
        "Evolution",
        "multi-round agreement adoption dynamics to a market fixed point",
        &spec,
    );
    let t_gen = Instant::now();
    let (net, mut state) = market_state(&spec);
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
    println!(
        "# policy: {:?}, shares: reroute {} / attract {}, grid {grid}×{grid}, noise {}",
        config.discovery.policy,
        spec.discovery.reroute_share,
        spec.discovery.attract_share,
        spec.discovery.noise
    );
    println!(
        "# rounds: {}, adopt-top: {}, min-surplus: {}, shock: {}",
        config.rounds, config.adopt_top, config.min_surplus, config.shock
    );

    let t0 = Instant::now();
    let report = evolve(&mut state, &config, &spec.sweep()).expect("evolution succeeds");
    let seconds = t0.elapsed().as_secs_f64();

    print_report(&report);
    eprintln!(
        "# evolved {} rounds in {seconds:.3}s ({:.3}s/round) at {} threads",
        report.rounds.len(),
        seconds / report.rounds.len().max(1) as f64,
        spec.threads
    );
    // stdout must stay byte-identical at any thread count: the JSON
    // dump zeroes the per-round wall-clock; the bench record keeps it.
    sink.emit_json(&report.with_zeroed_timings());
    sink.write_record(&BenchRecord {
        ases: net.graph.node_count(),
        threads: spec.threads,
        rounds_configured: config.rounds,
        adopt_top: config.adopt_top,
        shock: config.shock,
        fixed_point: report.fixed_point,
        total_adopted: report.total_adopted(),
        total_surplus: report.total_surplus,
        new_links: report.agreements.iter().filter(|a| a.new_link).count(),
        seconds,
        memory: MemoryReport::capture(),
        report,
    });
    metrics.write();
}
