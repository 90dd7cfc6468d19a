//! Mechanism-assisted negotiation with BOSCO (§V).
//!
//! Sets up a BOSCO service for the paper's `U(1)` utility distribution,
//! prints the mechanism-information set (choice sets and equilibrium
//! strategies), verifies the equilibrium as the parties would, and then
//! simulates negotiations — showing individual rationality, soundness,
//! privacy, and the Price of Dishonesty.
//!
//! Run with: `cargo run --release --example bosco_negotiation [--threads N] [--seed S]`

use pan_interconnect::bosco::{BoscoService, GameOutcome, ServiceConfig, UtilityDistribution};
use pan_interconnect::runtime::RunOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, _) = RunOptions::from_env(None);
    // The BOSCO service estimates both parties' utilities as Unif[−1, 1]
    // (the paper's U(1)).
    let distribution = UtilityDistribution::uniform(-1.0, 1.0)?;
    let config = ServiceConfig {
        choices: 30,
        trials: 60,
        max_iterations: 500,
    };
    let service = BoscoService::construct(&config, distribution, distribution, opts.seed)?;
    println!(
        "BOSCO service constructed: PoD = {:.3} (mean over trials {:.3}, {} trials converged)",
        service.price_of_dishonesty(),
        service.mean_price_of_dishonesty(),
        service.trials_converged()
    );

    // The mechanism-information set is public to both parties…
    let info = service.info_set();
    println!(
        "choice sets: |V_X| = {}, |V_Y| = {} (including the −∞ cancel option)",
        info.choices_x.len(),
        info.choices_y.len()
    );
    // …and each party verifies the equilibrium before playing.
    assert!(info.equilibrium.verify(service.game(), 1e-9));
    println!("equilibrium verified by both parties ✓");

    let active_x = info
        .equilibrium
        .strategy_x
        .active_choice_count(&info.distribution_x);
    println!("equilibrium choices actually played by X: {active_x} (paper: ≈4)");
    if let Some(interval) = info.equilibrium.strategy_x.shortest_interval() {
        println!("privacy: shortest claim interval of X has length {interval:.3} (> 0)");
    }

    // Simulate negotiations over a grid of true utilities, fanned out
    // over the pan-runtime pool (each cell is independent; output order
    // is cell order, so the table is identical at any --threads value).
    println!("\n  u_X     u_Y   outcome");
    let cells: Vec<(f64, f64)> = (0..5)
        .flat_map(|i| (0..5).map(move |j| (-1.0 + 0.5 * f64::from(i), -1.0 + 0.5 * f64::from(j))))
        .collect();
    let outcomes = opts
        .pool()
        .map(&cells, |_idx, &(ux, uy)| service.execute(ux, uy));
    let mut concluded = 0usize;
    for (&(ux, uy), outcome) in cells.iter().zip(&outcomes) {
        match outcome {
            GameOutcome::Concluded {
                transfer_x_to_y,
                utility_x_after,
                utility_y_after,
                ..
            } => {
                concluded += 1;
                // Theorem 1 (strong individual rationality) and
                // Theorem 2 (soundness) hold per outcome:
                assert!(*utility_x_after >= -1e-9 && *utility_y_after >= -1e-9);
                assert!(ux + uy >= -1e-9);
                println!(
                    "{ux:6.2}  {uy:6.2}   concluded: Π = {transfer_x_to_y:6.3}, \
                     after = ({utility_x_after:.3}, {utility_y_after:.3})"
                );
            }
            GameOutcome::Cancelled => {
                println!("{ux:6.2}  {uy:6.2}   cancelled");
            }
        }
    }
    println!(
        "\n{concluded}/{} grid negotiations concluded ({} worker threads)",
        cells.len(),
        opts.threads
    );
    Ok(())
}
