//! Quickstart: the paper's running example end to end.
//!
//! Builds the Fig. 1 topology, sets up a plausible economic model,
//! concludes the mutuality-based agreement `a = [D(↑{A}); E(↑{B}, →{F})]`
//! with both optimization methods of §IV, and ships a packet over the
//! newly authorized GRC-violating path in the PAN simulator.
//!
//! Run with: `cargo run --example quickstart [--threads N] [--seed S]`

use pan_interconnect::agreements::{
    sweep_negotiation_grid, Agreement, AgreementScenario, CashOptimizer, FlowVolumeOptimizer,
    FlowVolumeOutcome, GridConfig,
};
use pan_interconnect::econ::{BusinessModel, CostFunction, FlowVec, PricingBook, PricingFunction};
use pan_interconnect::pan::Network;
use pan_interconnect::runtime::RunOptions;
use pan_interconnect::topology::fixtures::{asn, fig1};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, _) = RunOptions::from_env(None);

    // 1. The Fig. 1 topology.
    let graph = fig1();
    println!(
        "topology: {} ASes, {} transit links, {} peering links",
        graph.node_count(),
        graph.transit_link_count(),
        graph.peering_link_count()
    );

    // 2. Economic model: per-usage transit pricing, linear internal cost.
    let mut book = PricingBook::new();
    book.set_transit_price(asn('A'), asn('D'), PricingFunction::per_usage(2.0)?);
    book.set_transit_price(asn('B'), asn('E'), PricingFunction::per_usage(2.0)?);
    book.set_transit_price(asn('D'), asn('H'), PricingFunction::per_usage(3.0)?);
    book.set_transit_price(asn('E'), asn('I'), PricingFunction::per_usage(3.0)?);
    let mut model = BusinessModel::new(graph, book);
    model.set_internal_cost(asn('D'), CostFunction::linear(0.05)?);
    model.set_internal_cost(asn('E'), CostFunction::linear(0.05)?);

    // 3. Baseline flows of the two prospective partners.
    let mut flows_d = FlowVec::new(asn('D'));
    flows_d.set(asn('A'), 30.0);
    flows_d.set(asn('H'), 25.0);
    flows_d.set(asn('E'), 5.0);
    let mut flows_e = FlowVec::new(asn('E'));
    flows_e.set(asn('B'), 28.0);
    flows_e.set(asn('I'), 22.0);
    flows_e.set(asn('D'), 5.0);

    // 4. The mutuality-based agreement of §VI between peers D and E.
    let ma = Agreement::mutuality(model.graph(), asn('D'), asn('E'))?;
    println!("agreement: {ma}");
    let scenario = AgreementScenario::with_default_opportunities(
        &model,
        ma.clone(),
        flows_d,
        flows_e,
        0.6,
        0.3,
    )?;

    // 5. Optimize with flow-volume targets (§IV-A)…
    match FlowVolumeOptimizer::new().optimize(&scenario)? {
        FlowVolumeOutcome::Concluded(agreement) => {
            println!(
                "flow-volume agreement: u_D = {:.2}, u_E = {:.2}, Nash product = {:.2}",
                agreement.utility_x,
                agreement.utility_y,
                agreement.nash_product()
            );
            for target in &agreement.targets {
                println!(
                    "  segment {}: allowance {:.2} (attracted {:.2})",
                    target.segment, target.total_allowance, target.attracted_allowance
                );
            }
        }
        FlowVolumeOutcome::Degenerate { best_nash_product } => {
            println!("flow-volume optimization degenerate (best product {best_nash_product:.4})");
        }
    }

    // 6. …and with cash compensation (§IV-B).
    if let Some(cash) = CashOptimizer::new().optimize(&scenario)?.concluded() {
        println!(
            "cash agreement: joint utility {:.2}, transfer Π(D→E) = {:.2}, both end at {:.2}",
            cash.joint_utility(),
            cash.settlement.transfer_x_to_y,
            cash.settlement.utility_x_after
        );
    }

    // 7. Market-assumption robustness: sweep the (reroute, attract)
    //    scenario grid in parallel over the pan-runtime pool — results
    //    are bit-identical at any --threads value.
    let (flows_d, flows_e) = {
        let mut fd = FlowVec::new(asn('D'));
        fd.set(asn('A'), 30.0);
        fd.set(asn('H'), 25.0);
        fd.set(asn('E'), 5.0);
        let mut fe = FlowVec::new(asn('E'));
        fe.set(asn('B'), 28.0);
        fe.set(asn('I'), 22.0);
        fe.set(asn('D'), 5.0);
        (fd, fe)
    };
    let grid = GridConfig {
        master_seed: opts.seed,
        ..GridConfig::default()
    };
    let cells = sweep_negotiation_grid(&model, &ma, &flows_d, &flows_e, &grid, &opts.pool())?;
    let robust = cells.iter().filter(|c| c.conclusion_rate() > 0.5).count();
    println!(
        "scenario grid ({} cells × {} noisy trials, {} worker threads): \
         {robust} cells conclude in most trials",
        cells.len(),
        grid.trials_per_cell,
        opts.threads
    );

    // 8. Authorize the agreement in the PAN and use a new path.
    let mut network = Network::new(model.graph().clone());
    assert!(
        network.send(&[asn('D'), asn('E'), asn('B')]).is_err(),
        "GRC-violating path must be refused before the agreement"
    );
    network.authorize_agreement(&ma);
    let delivery = network.send(&[asn('H'), asn('D'), asn('E'), asn('B')])?;
    println!(
        "packet delivered over the new MA path H→D→E→B in {} hops",
        delivery.hops_traversed
    );
    Ok(())
}
