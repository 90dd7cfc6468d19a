//! Agreement economics in depth (§III–§IV).
//!
//! Walks through: the classic peering agreement of §III-B1, the
//! mutuality-based agreement of §III-B2, the comparison of flow-volume
//! vs. cash-compensation optimization (§IV-C) including a deliberately
//! hostile cost structure where only cash compensation can rescue the
//! deal, and the extension of agreement paths (§III-B3).
//!
//! Run with: `cargo run --example agreement_economics`

use pan_interconnect::agreements::extension::{remaining_allowance, PathExtension};
use pan_interconnect::agreements::{
    evaluate, sweep_negotiation_grid, Agreement, AgreementScenario, CashOptimizer,
    FlowVolumeOptimizer, FlowVolumeOutcome, GridConfig, OperatingPoint,
};
use pan_interconnect::econ::{BusinessModel, CostFunction, FlowVec, PricingBook, PricingFunction};
use pan_interconnect::runtime::RunOptions;
use pan_interconnect::topology::fixtures::{asn, fig1};

fn baselines() -> (FlowVec, FlowVec) {
    let mut fd = FlowVec::new(asn('D'));
    fd.set(asn('A'), 30.0);
    fd.set(asn('H'), 25.0);
    fd.set(asn('E'), 5.0);
    let mut fe = FlowVec::new(asn('E'));
    fe.set(asn('B'), 28.0);
    fe.set(asn('I'), 22.0);
    fe.set(asn('D'), 5.0);
    (fd, fe)
}

fn friendly_model() -> BusinessModel {
    let mut book = PricingBook::new();
    book.set_transit_price(asn('A'), asn('D'), PricingFunction::per_usage(2.0).unwrap());
    book.set_transit_price(asn('B'), asn('E'), PricingFunction::per_usage(2.0).unwrap());
    book.set_transit_price(asn('D'), asn('H'), PricingFunction::per_usage(3.0).unwrap());
    book.set_transit_price(asn('E'), asn('I'), PricingFunction::per_usage(3.0).unwrap());
    let mut model = BusinessModel::new(fig1(), book);
    model.set_internal_cost(asn('D'), CostFunction::linear(0.05).unwrap());
    model.set_internal_cost(asn('E'), CostFunction::linear(0.05).unwrap());
    model
}

/// §IV-C's "very dissimilar revenues and costs": E pays an exorbitant
/// provider rate, so any traffic D offloads onto E ruins E, while E has
/// little to gain in return.
fn hostile_model() -> BusinessModel {
    let mut book = PricingBook::new();
    book.set_transit_price(
        asn('A'),
        asn('D'),
        PricingFunction::per_usage(0.01).unwrap(),
    );
    book.set_transit_price(
        asn('B'),
        asn('E'),
        PricingFunction::per_usage(50.0).unwrap(),
    );
    let mut model = BusinessModel::new(fig1(), book);
    model.set_internal_cost(asn('D'), CostFunction::linear(5.0).unwrap());
    model.set_internal_cost(asn('E'), CostFunction::linear(5.0).unwrap());
    model
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, _) = RunOptions::from_env(None);

    // ----- Classic peering (§III-B1) --------------------------------
    let model = friendly_model();
    let peering = Agreement::classic_peering(model.graph(), asn('D'), asn('E'))?;
    println!("classic peering agreement: {peering}");
    let (fd, fe) = baselines();
    let scenario =
        AgreementScenario::with_default_opportunities(&model, peering, fd, fe, 0.8, 0.2)?;
    let eval = evaluate(&scenario, &OperatingPoint::full(scenario.dimension()))?;
    println!(
        "  fully exercised: u_D = {:.2}, u_E = {:.2}\n",
        eval.utility_x, eval.utility_y
    );

    // ----- Mutuality-based agreement (§III-B2, Eq. 6) ---------------
    let ma = Agreement::mutuality(model.graph(), asn('D'), asn('E'))?;
    println!("mutuality-based agreement: {ma}");
    let (fd, fe) = baselines();
    let scenario = AgreementScenario::with_default_opportunities(&model, ma, fd, fe, 0.6, 0.3)?;

    let flow_volume = FlowVolumeOptimizer::new().optimize(&scenario)?;
    let cash = CashOptimizer::new().optimize(&scenario)?;
    if let FlowVolumeOutcome::Concluded(fv) = &flow_volume {
        println!(
            "  flow-volume optimum: u_D = {:.2}, u_E = {:.2} (fairness gap {:.3})",
            fv.utility_x,
            fv.utility_y,
            (fv.utility_x - fv.utility_y).abs()
        );
    }
    if let Some(c) = cash.concluded() {
        println!(
            "  cash optimum: joint = {:.2}, Π(D→E) = {:.2}, post-transfer both = {:.2}",
            c.joint_utility(),
            c.settlement.transfer_x_to_y,
            c.settlement.utility_x_after
        );
        if let FlowVolumeOutcome::Concluded(fv) = &flow_volume {
            println!(
                "  §IV-C check: cash joint {:.2} ≥ flow-volume joint {:.2}",
                c.joint_utility(),
                fv.utility_x + fv.utility_y
            );
        }
    }

    // ----- Hostile economics: flow-volume degenerates (§IV-C) -------
    let hostile = hostile_model();
    let ma = Agreement::mutuality(hostile.graph(), asn('D'), asn('E'))?;
    let (fd, fe) = baselines();
    let scenario = AgreementScenario::with_default_opportunities(&hostile, ma, fd, fe, 0.6, 0.0)?;
    match FlowVolumeOptimizer::new().optimize(&scenario)? {
        FlowVolumeOutcome::Degenerate { best_nash_product } => println!(
            "\nhostile cost structure: flow-volume agreement degenerates \
             (best Nash product {best_nash_product:.4}) — as §IV-C predicts"
        ),
        FlowVolumeOutcome::Concluded(a) => println!(
            "\nhostile cost structure unexpectedly concluded: {:.3}/{:.3}",
            a.utility_x, a.utility_y
        ),
    }
    match CashOptimizer::new().optimize(&scenario)?.concluded() {
        Some(c) => println!(
            "  cash compensation still concludes with joint utility {:.2}",
            c.joint_utility()
        ),
        None => println!("  cash compensation is not viable either (joint surplus < 0)"),
    }

    // ----- Path extension (§III-B3) ----------------------------------
    // After the MA, E owns segment E–D–A and can resell access to F.
    let model = friendly_model();
    let ma = Agreement::mutuality(model.graph(), asn('D'), asn('E'))?;
    let (fd, fe) = baselines();
    let scenario = AgreementScenario::with_default_opportunities(&model, ma, fd, fe, 0.6, 0.3)?;
    if let FlowVolumeOutcome::Concluded(fv) = FlowVolumeOptimizer::new().optimize(&scenario)? {
        if let Some(target) = fv
            .targets
            .iter()
            .find(|t| t.segment.beneficiary == asn('E') && t.segment.target == asn('A'))
        {
            let extension = PathExtension::new(
                asn('E'),
                asn('F'),
                target.segment,
                target.total_allowance / 4.0,
            )?;
            println!(
                "\npath extension a′: E offers F the path {:?}",
                extension.extended_path().map(|a| a.to_string())
            );
            let own_usage = target.total_allowance / 2.0;
            let sold = extension.allowance;
            let remaining = remaining_allowance(target, own_usage, &[extension]);
            println!(
                "  base target {:.2}, E's own usage {:.2}, sold to F {:.2}, remaining {:.2}",
                target.total_allowance, own_usage, sold, remaining
            );
        }
    }

    // ----- Market-assumption map (§IV) -------------------------------
    // Under which (reroute, attract) assumptions does the MA survive
    // noisy baselines? The grid fans out over the pan-runtime pool and
    // is bit-identical at any --threads value.
    let model = friendly_model();
    let ma = Agreement::mutuality(model.graph(), asn('D'), asn('E'))?;
    let (fd, fe) = baselines();
    let grid = GridConfig {
        master_seed: opts.seed,
        ..GridConfig::default()
    };
    let cells = sweep_negotiation_grid(&model, &ma, &fd, &fe, &grid, &opts.pool())?;
    println!(
        "\nscenario grid ({} cells × {} noisy trials, {} worker threads):",
        cells.len(),
        grid.trials_per_cell,
        opts.threads
    );
    for cell in &cells {
        if cell.attract_share == 0.0 {
            println!(
                "  reroute {:.2}: conclusion rate {:4.0}%, mean joint utility {:.2}",
                cell.reroute_share,
                cell.conclusion_rate() * 100.0,
                cell.mean_joint_utility
            );
        }
    }
    Ok(())
}
