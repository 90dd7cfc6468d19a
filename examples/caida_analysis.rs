//! Running the §VI analysis on a real CAIDA snapshot.
//!
//! Usage:
//!
//! ```console
//! cargo run --release --example caida_analysis -- 20200401.as-rel2.txt
//! ```
//!
//! With a path argument, parses the given CAIDA AS-relationship serial-2
//! file (the exact format of `data.caida.org/datasets/as-relationships/`)
//! and runs the Fig. 3/4 diversity analysis on it. Without arguments, it
//! generates a synthetic snapshot, writes it to a serial-2 file, and
//! reads it back — demonstrating that the pipeline is format-compatible
//! end to end.

use pan_interconnect::datasets::{InternetConfig, SyntheticInternet};
use pan_interconnect::pathdiv::diversity::{analyze_sample_pooled, DiversityConfig};
use pan_interconnect::pathdiv::figures::{fig3_series, is_stochastically_ordered};
use pan_interconnect::pathdiv::ma_stats::MaPopulation;
use pan_interconnect::runtime::RunOptions;
use pan_interconnect::topology::caida;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, snapshot) = RunOptions::from_env(Some("snapshot.as-rel2.txt"));
    let graph = match snapshot {
        Some(path) => {
            println!("parsing CAIDA snapshot {path} …");
            let text = std::fs::read_to_string(path)?;
            caida::parse(&text)?
        }
        None => {
            println!("no snapshot given — round-tripping a synthetic one through serial-2");
            let net = SyntheticInternet::generate(
                &InternetConfig {
                    num_ases: 800,
                    ..InternetConfig::default()
                },
                opts.seed,
            )?;
            let path = std::env::temp_dir().join("pan-interconnect-synthetic.as-rel2.txt");
            std::fs::write(&path, caida::to_string(&net.graph))?;
            println!("wrote {}", path.display());
            caida::parse(&std::fs::read_to_string(&path)?)?
        }
    };
    println!(
        "topology: {} ASes, {} provider-customer links, {} peering links",
        graph.node_count(),
        graph.transit_link_count(),
        graph.peering_link_count()
    );

    // The §VI MA population.
    let population = MaPopulation::enumerate(&graph);
    println!(
        "possible mutuality-based agreements: {} (median grant size {:.0})",
        population.len(),
        population.segment_count_cdf().median().unwrap_or(0.0)
    );

    // Fig. 3-style diversity analysis on a sample, fanned out over the
    // pan-runtime pool (bit-identical at any --threads value).
    let report = analyze_sample_pooled(
        &graph,
        &DiversityConfig {
            sample_size: 200,
            seed: opts.seed,
            top_n: vec![1, 5, 50],
        },
        &opts.pool(),
    );
    let series = fig3_series(&report);
    assert!(is_stochastically_ordered(&series));
    println!("\nlength-3 paths per AS (medians):");
    for s in &series {
        println!("  {:<14} {:>10.0}", s.name, s.cdf.median().unwrap_or(0.0));
    }
    println!(
        "\nadditional MA paths per AS: mean {:.0}, max {}",
        report.mean_additional_paths(),
        report.max_additional_paths()
    );
    println!(
        "additional destinations per AS: mean {:.0}, max {}",
        report.mean_additional_destinations(),
        report.max_additional_destinations()
    );
    Ok(())
}
