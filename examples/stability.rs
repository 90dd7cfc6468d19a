//! Why PANs don't need the Gao–Rexford conditions (§II).
//!
//! Contrasts the two substrates on the same GRC-violating agreements:
//!
//! 1. Under BGP, the D–E "sibling" agreement of Fig. 1 creates a wedgie
//!    (two stable states reached non-deterministically), and adding AS C
//!    with similar agreements creates a BAD GADGET that oscillates
//!    forever.
//! 2. Under the PAN, the very same paths are simply authorized and used:
//!    forwarding follows the header path and terminates after exactly
//!    `len − 1` hops, no matter which agreements exist.
//!
//! Run with: `cargo run --example stability [--threads N] [--seed S]`

use pan_interconnect::agreements::Agreement;
use pan_interconnect::bgp::batch::{run_schedule_batch, ScheduleBatch};
use pan_interconnect::bgp::{gadgets, stable_paths, Engine, RunResult, Schedule};
use pan_interconnect::pan::Network;
use pan_interconnect::runtime::RunOptions;
use pan_interconnect::topology::fixtures::{asn, fig1};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (opts, _) = RunOptions::from_env(None);
    println!("== BGP: the next-hop principle needs the GRC ==\n");

    // The Fig. 1 wedgie: D and E forward provider routes to each other.
    let wedgie = gadgets::fig1_wedgie();
    let solutions = stable_paths::solve(&wedgie);
    println!(
        "Fig. 1 D–E sibling agreement under BGP: {} stable states (a 'BGP wedgie')",
        solutions.len()
    );
    let mut first = Engine::new(&wedgie);
    let r1 = first.run(
        Schedule::explicit(vec![asn('D'), asn('E'), asn('D'), asn('E')]),
        100,
    );
    let mut second = Engine::new(&wedgie);
    let r2 = second.run(
        Schedule::explicit(vec![asn('E'), asn('D'), asn('E'), asn('D')]),
        100,
    );
    let (s1, s2) = (
        r1.converged_state().expect("wedgies converge"),
        r2.converged_state().expect("wedgies converge"),
    );
    println!(
        "two activation orders reach {} stable states",
        if s1 == s2 { "the SAME" } else { "DIFFERENT" }
    );
    for (name, state) in [("order D-first", s1), ("order E-first", s2)] {
        let route_d = state[&asn('D')].as_ref().map(ToString::to_string);
        println!("  {name}: D routes via {route_d:?}");
    }

    // The wedgie at scale: a batch of random activation schedules over
    // the pan-runtime pool — every run converges, but to which stable
    // state is schedule-dependent (the non-determinism the PAN removes).
    let batch = run_schedule_batch(
        &wedgie,
        &ScheduleBatch {
            schedules: 64,
            max_rounds: 200,
            master_seed: opts.seed,
        },
        &opts.pool(),
    );
    println!(
        "64 random activation schedules ({} worker threads): {} converged, \
         {} distinct stable states — outcome depends on timing alone",
        opts.threads, batch.converged, batch.distinct_stable_states
    );

    // Adding C with similar agreements: BAD GADGET.
    let bad = gadgets::fig1_bad_gadget();
    assert!(stable_paths::solve(&bad).is_empty());
    let mut engine = Engine::new(&bad);
    match engine.run(Schedule::round_robin(), 10_000) {
        RunResult::Oscillated {
            first_seen_round,
            repeat_round,
        } => println!(
            "\nadding AS C: no stable state exists; dynamics revisit round {first_seen_round} \
             at round {repeat_round} — persistent oscillation (BAD GADGET)"
        ),
        RunResult::Converged { .. } => unreachable!("BAD GADGET cannot converge"),
    }

    println!("\n== PAN: the same agreements are simply… fine ==\n");
    let mut network = Network::new(fig1());
    let ma_de = Agreement::mutuality(network.graph(), asn('D'), asn('E'))?;
    let ma_cd = Agreement::mutuality(network.graph(), asn('C'), asn('D'))?;
    network.authorize_agreement(&ma_de);
    network.authorize_agreement(&ma_cd);
    for path in [
        vec![asn('D'), asn('E'), asn('B')],
        vec![asn('E'), asn('D'), asn('A')],
        vec![asn('C'), asn('D'), asn('A')],
        vec![asn('H'), asn('D'), asn('E'), asn('B'), asn('G')],
    ] {
        let delivery = network.send(&path)?;
        let pretty: Vec<String> = path.iter().map(ToString::to_string).collect();
        println!(
            "delivered {} in exactly {} hops (= len − 1: no loops possible)",
            pretty.join(" → "),
            delivery.hops_traversed
        );
    }
    println!(
        "\nPAN forwarding follows the header path: convergence is a non-issue, \
         so the GRC are not needed for stability — only economics remain."
    );
    Ok(())
}
