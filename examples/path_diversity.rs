//! Path-diversity gains from mutuality-based agreements (§VI).
//!
//! Generates a synthetic Internet (CAIDA-like structure), runs the
//! Fig. 3/4 diversity analysis on a sample of ASes, and the Fig. 5/6
//! geodistance and bandwidth analyses, printing the headline numbers the
//! paper reports.
//!
//! Run with: `cargo run --release --example path_diversity [--threads N] [--seed S]`

use pan_interconnect::datasets::{InternetConfig, SyntheticInternet};
use pan_interconnect::pathdiv::bandwidth::{analyze_pooled as analyze_bw, BandwidthConfig};
use pan_interconnect::pathdiv::diversity::{analyze_sample_pooled, DiversityConfig};
use pan_interconnect::pathdiv::geodistance::{analyze_pooled as analyze_geo, GeodistanceConfig};
use pan_interconnect::runtime::RunOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, _) = RunOptions::from_env(None);
    let pool = opts.pool();
    let net = SyntheticInternet::generate(
        &InternetConfig {
            num_ases: 1_000,
            ..InternetConfig::default()
        },
        opts.seed,
    )?;
    println!(
        "synthetic Internet: {} ASes, {} transit + {} peering links ({} worker threads)",
        net.graph.node_count(),
        net.graph.transit_link_count(),
        net.graph.peering_link_count(),
        opts.threads
    );

    // ---- Fig. 3/4: paths and destinations --------------------------
    let report = analyze_sample_pooled(
        &net.graph,
        &DiversityConfig {
            sample_size: 150,
            seed: opts.seed,
            top_n: vec![1, 5, 50],
        },
        &pool,
    );
    println!(
        "\nlength-3 paths per AS (sample of {}):",
        report.per_as.len()
    );
    println!(
        "  additional MA paths: mean {:.0}, max {}",
        report.mean_additional_paths(),
        report.max_additional_paths()
    );
    println!(
        "  additional destinations: mean {:.0}, max {}",
        report.mean_additional_destinations(),
        report.max_additional_destinations()
    );
    // Top-1 already helps substantially (the paper's "a handful of MAs
    // suffice" claim):
    let top1_mean = report
        .per_as
        .iter()
        .map(|a| a.top_n_paths[0].1 as f64)
        .sum::<f64>()
        / report.per_as.len().max(1) as f64;
    println!("  mean paths gained from the single best MA: {top1_mean:.0}");

    // ---- Fig. 5: geodistance ---------------------------------------
    let geo = analyze_geo(
        &net.graph,
        &net.geo,
        &GeodistanceConfig {
            sample_size: 150,
            seed: opts.seed,
        },
        &pool,
    );
    println!("\ngeodistance ({} AS pairs):", geo.pairs.len());
    println!(
        "  pairs gaining ≥1 path below the GRC minimum: {:.0}% (paper: ~50%)",
        geo.fraction_below_min(1) * 100.0
    );
    println!(
        "  pairs gaining ≥5 such paths: {:.0}% (paper: ~25%)",
        geo.fraction_below_min(5) * 100.0
    );
    if let Some(median) = geo.reduction_cdf().median() {
        println!(
            "  median geodistance reduction among improved pairs: {:.0}% (paper: ~24%)",
            median * 100.0
        );
    }

    // ---- Fig. 6: bandwidth ------------------------------------------
    let bw = analyze_bw(
        &net.graph,
        &net.capacities,
        &BandwidthConfig {
            sample_size: 150,
            seed: opts.seed,
        },
        &pool,
    );
    println!("\nbandwidth ({} AS pairs):", bw.pairs.len());
    println!(
        "  pairs gaining a path above the GRC maximum bandwidth: {:.0}% (paper: ~35%)",
        bw.fraction_above_max(1) * 100.0
    );
    if let Some(median) = bw.increase_cdf().median() {
        println!(
            "  median bandwidth increase among improved pairs: {:.0}% (paper: ~150%)",
            median * 100.0
        );
    }
    Ok(())
}
