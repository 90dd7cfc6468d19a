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
//! - `--engine <full|incremental>`: discovery engine (default `full`);
//!   both produce byte-identical stdout — the CI `incremental-smoke`
//!   job diffs them;
//! - `--compare-engines`: run the trajectory under both engines,
//!   assert equality, and record per-round timings of each;
//! - `--bench-out <path>`: write the round-by-round trajectory as a JSON
//!   record (`BENCH_evolution.json`);
//! - `--metrics-out <path>`: enable engine-wide telemetry and write the
//!   final registry snapshot (per-round phase breakdown, cache hit
//!   rates, pool accounting) as JSON.
//!
//! Timings (and the engine note) go to **stderr** so stdout stays
//! byte-identical at any `--threads` value and either `--engine` — the
//! property the CI `evolution-smoke` and `incremental-smoke` jobs diff.

use std::time::Instant;

use serde::Serialize;

use pan_bench::{
    at_market_scale, evolution_config, market_state, print_header, CountingAllocator, MemoryReport,
    MetricsSink, ReportSink, ScenarioSpec,
};
use pan_core::dynamics::{evolve_with_engine, Engine, EvolutionReport};

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

/// The `--compare-engines` record: one trajectory, two engines, with
/// the per-round wall-clock of each side by side.
#[derive(Debug, Serialize)]
struct CompareRecord {
    ases: usize,
    threads: usize,
    rounds_configured: usize,
    adopt_top: usize,
    shock: f64,
    fixed_point: bool,
    total_adopted: usize,
    total_surplus: f64,
    new_links: usize,
    full_seconds: f64,
    incremental_seconds: f64,
    /// Whole-run wall-clock ratio (includes the incremental engine's
    /// cold first round).
    speedup: f64,
    /// Ratio over rounds after the first — the steady state a resident
    /// market lives in.
    warm_speedup: f64,
    full_round_seconds: Vec<f64>,
    incremental_round_seconds: Vec<f64>,
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
    let mut engine = Engine::Full;
    let mut compare = false;
    let mut extras = Vec::new();
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("--engine requires a value: full, incremental"));
                engine = value.parse().unwrap_or_else(|e| panic!("{e}"));
            }
            "--compare-engines" => compare = true,
            _ => extras.push(arg),
        }
    }
    ScenarioSpec::expect_no_extras_for(
        &extras,
        "--engine <full|incremental>, --compare-engines, --bench-out <path>, \
         --metrics-out <path>",
    );
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

    if compare {
        // Same pristine market under both engines (the clone has a
        // fresh dirty journal, so neither run sees the other).
        let mut full_state = state.clone();
        eprintln!("# engine: full (reference pass)");
        let t_full = Instant::now();
        let full = evolve_with_engine(&mut full_state, &config, &spec.sweep(), Engine::Full)
            .expect("evolution succeeds");
        let full_seconds = t_full.elapsed().as_secs_f64();
        eprintln!("# engine: incremental (comparison pass)");
        let t_incr = Instant::now();
        let incremental =
            evolve_with_engine(&mut state, &config, &spec.sweep(), Engine::Incremental)
                .expect("evolution succeeds");
        let incremental_seconds = t_incr.elapsed().as_secs_f64();
        assert_eq!(
            full.with_zeroed_timings(),
            incremental.with_zeroed_timings(),
            "the engines diverged — the equivalence contract is broken"
        );

        print_report(&full);
        let per_round = |report: &EvolutionReport| -> Vec<f64> {
            report.rounds.iter().map(|r| r.seconds).collect()
        };
        let warm = |seconds: &[f64]| -> f64 {
            let tail = &seconds[1.min(seconds.len())..];
            tail.iter().sum::<f64>() / tail.len().max(1) as f64
        };
        let full_rounds = per_round(&full);
        let incremental_rounds = per_round(&incremental);
        let warm_speedup = warm(&full_rounds) / warm(&incremental_rounds).max(f64::MIN_POSITIVE);
        eprintln!(
            "# engines agree over {} rounds: full {full_seconds:.3}s, incremental \
             {incremental_seconds:.3}s ({:.1}x overall, {warm_speedup:.1}x warm rounds)",
            full.rounds.len(),
            full_seconds / incremental_seconds.max(f64::MIN_POSITIVE),
        );
        sink.emit_json(&full.with_zeroed_timings());
        sink.write_record(&CompareRecord {
            ases: net.graph.node_count(),
            threads: spec.threads,
            rounds_configured: config.rounds,
            adopt_top: config.adopt_top,
            shock: config.shock,
            fixed_point: full.fixed_point,
            total_adopted: full.total_adopted(),
            total_surplus: full.total_surplus,
            new_links: full.agreements.iter().filter(|a| a.new_link).count(),
            full_seconds,
            incremental_seconds,
            speedup: full_seconds / incremental_seconds.max(f64::MIN_POSITIVE),
            warm_speedup,
            full_round_seconds: full_rounds,
            incremental_round_seconds: incremental_rounds,
            memory: MemoryReport::capture(),
            report: full,
        });
        metrics.write();
        return;
    }

    eprintln!("# engine: {engine}");
    let t0 = Instant::now();
    let report =
        evolve_with_engine(&mut state, &config, &spec.sweep(), engine).expect("evolution succeeds");
    let seconds = t0.elapsed().as_secs_f64();

    print_report(&report);
    eprintln!(
        "# evolved {} rounds in {seconds:.3}s ({:.3}s/round) at {} threads",
        report.rounds.len(),
        seconds / report.rounds.len().max(1) as f64,
        spec.threads
    );
    // stdout must stay byte-identical at any thread count and engine:
    // the JSON dump zeroes the per-round wall-clock; the bench record
    // keeps it.
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
        report: report.clone(),
    });
    metrics.write();
}
