//! Bit-exactness goldens for the evaluator hot path.
//!
//! The SoA pricing-lane layout (PR 8) rearranges *how* the collapse
//! loops read the dense tables without changing a single f64 operation
//! or its order. These tests pin that claim to golden digests captured
//! from the pre-SoA evaluator: every outcome of a fixed candidate set,
//! through both the per-pair evaluator and the programmed twin, hashed
//! bit-for-bit. Any re-association, reordering, or dropped term changes
//! the digest.

use pan_datasets::{InternetConfig, SyntheticInternet};
use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use pan_runtime::{ScenarioSweep, ThreadPool};

use crate::discovery::{
    derive_pair_transit, discover, enumerate_candidates, evaluate_candidate,
    evaluate_candidate_with, BatchContext, CandidatePair, CandidatePolicy, DiscoveryConfig,
    NodePrograms, PairOutcome, PairScratch,
};
use crate::dynamics::{advise, MarketState};

/// FNV-1a over a stream of u64 words — stable, dependency-free digest.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every f64 an outcome carries, as raw bits in a fixed field order.
pub(crate) fn outcome_words(o: &PairOutcome) -> Vec<u64> {
    let mut words = vec![
        u64::from(o.x.get()),
        u64::from(o.y.get()),
        u64::from(o.peering_hops),
        o.shares.0.to_bits(),
        o.shares.1.to_bits(),
        o.segments.0 as u64,
        o.segments.1 as u64,
        o.surplus.to_bits(),
    ];
    if let Some(fv) = &o.flow_volume {
        words.extend([
            1,
            fv.reroute.to_bits(),
            fv.attract.to_bits(),
            fv.utility_x.to_bits(),
            fv.utility_y.to_bits(),
        ]);
    } else {
        words.push(0);
    }
    if let Some(c) = &o.cash {
        words.extend([
            1,
            c.reroute.to_bits(),
            c.attract.to_bits(),
            c.joint_utility.to_bits(),
            c.transfer_x_to_y.to_bits(),
        ]);
    } else {
        words.push(0);
    }
    words
}

/// A 260-AS synthetic market with deliberately mixed pricing: most
/// links pay-per-usage, a salted minority on congestion curves (the
/// nonlinear side table), a few flat-rate (linear_rate == 0), plus
/// nonlinear end-host prices and internal costs on a second salt — so
/// the goldens cover every dispatch class the SoA split handles.
fn mixed_fixture() -> (SyntheticInternet, DenseEconomics, FlowMatrix) {
    fixture(true)
}

/// The golden market, with its salted power-law internal costs or, for
/// `power_law_costs == false`, linear internal costs everywhere.
fn fixture(power_law_costs: bool) -> (SyntheticInternet, DenseEconomics, FlowMatrix) {
    let net = SyntheticInternet::generate(
        &InternetConfig {
            num_ases: 260,
            tier1_count: 6,
            ..InternetConfig::default()
        },
        77,
    )
    .expect("fixture generates");
    let econ = DenseEconomics::build(
        &net.graph,
        |provider, customer| {
            let salt = u64::from(provider.get()) * 31 + u64::from(customer.get());
            match salt % 7 {
                0 => PricingFunction::congestion(0.02 + (salt % 5) as f64 * 0.01, 1.3).unwrap(),
                1 => PricingFunction::flat_rate(4.0).unwrap(),
                _ => PricingFunction::per_usage(1.0 + (salt % 17) as f64 * 0.25).unwrap(),
            }
        },
        |asn| {
            if asn.get() % 11 == 0 {
                PricingFunction::congestion(0.5, 1.2).unwrap()
            } else {
                PricingFunction::per_usage(2.0 + f64::from(asn.get() % 3)).unwrap()
            }
        },
        |asn| {
            if power_law_costs && asn.get() % 13 == 0 {
                CostFunction::power_law(0.01, 1.4).unwrap()
            } else {
                CostFunction::linear(0.02 + f64::from(asn.get() % 5) * 0.01).unwrap()
            }
        },
    );
    let flows = FlowMatrix::degree_gravity(&net.graph, 0.5);
    (net, econ, flows)
}

/// Golden digest of the per-pair evaluator on the mixed fixture,
/// captured from the pre-SoA (enum-dispatch) evaluator.
const GOLDEN_PER_PAIR: u64 = 0xdefb_c264_fcde_4d76;
/// Golden digest of the programmed evaluator on the same candidates,
/// captured from the pre-SoA (enum-dispatch) evaluator.
const GOLDEN_PROGRAMMED: u64 = 0x3434_9137_c679_3dd6;

#[test]
fn per_pair_evaluator_matches_pre_soa_golden() {
    let (net, econ, flows) = mixed_fixture();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).unwrap();
    let candidates = enumerate_candidates(&net.graph, CandidatePolicy::PeeringAdjacent);
    let mut scratch = PairScratch::new();
    let mut words = Vec::new();
    let mut evaluated = 0usize;
    for &pair in candidates.iter().step_by(3) {
        let outcome = evaluate_candidate(&ctx, &mut scratch, pair, 0.5, 0.2, 4).unwrap();
        words.extend(outcome_words(&outcome));
        evaluated += 1;
    }
    assert!(evaluated > 100, "fixture too small: {evaluated} pairs");
    let digest = fnv1a(words);
    assert_eq!(
        digest, GOLDEN_PER_PAIR,
        "per-pair evaluator drifted from the pre-SoA golden: 0x{digest:016x}"
    );
}

#[test]
fn programmed_evaluator_matches_pre_soa_golden() {
    let (net, econ, flows) = mixed_fixture();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).unwrap();
    let candidates = enumerate_candidates(&net.graph, CandidatePolicy::PeeringAdjacent);
    let programs = NodePrograms::build(&ctx, 0.5, 0.2).unwrap();
    let mut scratch = PairScratch::new();
    let mut words = Vec::new();
    let mut evaluated = 0usize;
    for &pair in candidates.iter().step_by(3) {
        let transit = derive_pair_transit(&net.graph, pair);
        let outcome =
            evaluate_candidate_with(&ctx, &programs, &transit, &mut scratch, pair, 4).unwrap();
        words.extend(outcome_words(&outcome));
        evaluated += 1;
    }
    assert!(evaluated > 100, "fixture too small: {evaluated} pairs");
    let digest = fnv1a(words);
    assert_eq!(
        digest, GOLDEN_PROGRAMMED,
        "programmed evaluator drifted from the pre-SoA golden: 0x{digest:016x}"
    );
}

/// Golden digest of the per-pair evaluator on the edge-case set of
/// [`per_pair_evaluator_matches_edge_case_golden`], captured from the
/// scatter/gather row walk (per-position coefficient buffers) that the
/// streaming walk replaced.
const GOLDEN_PER_PAIR_EDGES: u64 = 0xd376_93ce_a132_438a;

/// Zeroes both mirror entries of a salted subset of provider and peer
/// links, as link failures leave the flow table, and the end-host flow
/// of a salted subset of ASes.
fn fail_links(net: &SyntheticInternet, flows: &mut FlowMatrix) {
    let graph = &net.graph;
    for node in 0..graph.node_count() as u32 {
        let (_, e_end) = graph.class_boundaries(node);
        for (pos, &other) in graph.neighbor_indices(node)[..e_end].iter().enumerate() {
            let salt =
                u64::from(graph.asn_at(node).get()) * 7 + u64::from(graph.asn_at(other).get());
            let mirror_salt =
                u64::from(graph.asn_at(other).get()) * 7 + u64::from(graph.asn_at(node).get());
            if salt % 5 == 0 || mirror_salt % 5 == 0 {
                flows.set(node, pos, 0.0);
                let back = graph.neighbor_position(other, node).expect("symmetric CSR");
                flows.set(other, back, 0.0);
            }
        }
        if graph.asn_at(node).get() % 9 == 0 {
            flows.set_end_host(node, 0.0);
        }
    }
}

/// The edge cases of the per-pair row walk that the PeeringAdjacent
/// golden at fixed shares leaves out: jittered shares (with exact
/// `0.0` and `1.0` draws), prospective k-hop pairs (zero-segment sides
/// on stub sources), partners that are also the beneficiary's provider,
/// parties whose rows hold excluded providers with flow, and provider and peer flows zeroed as link failures leave them (the
/// `f <= 0` skips of the own-row walk).
#[test]
fn per_pair_evaluator_matches_edge_case_golden() {
    let (net, econ, mut flows) = mixed_fixture();
    fail_links(&net, &mut flows);
    let graph = &net.graph;
    let ctx = BatchContext::new(graph, &econ, &flows).unwrap();
    let mut candidates: Vec<CandidatePair> =
        enumerate_candidates(graph, CandidatePolicy::PeeringAdjacent)
            .into_iter()
            .step_by(2)
            .collect();
    candidates.extend(enumerate_candidates(
        graph,
        CandidatePolicy::PeeringKHop {
            k: 2,
            per_source_cap: 4,
        },
    ));
    // Provider-adjacent partners: the enumerators never emit them, but
    // the evaluator contract covers them. Synthetic internets index
    // every provider below its customers, so the reversed pair is the
    // one that puts the partner among x's own providers.
    for node in (0..graph.node_count() as u32).step_by(5) {
        if let Some(&provider) = graph.provider_indices(node).first() {
            for (x, y) in [(provider, node), (node, provider)] {
                candidates.push(CandidatePair {
                    x,
                    y,
                    peering_hops: 2,
                });
            }
        }
    }
    // A party two provider hops above the other: the provider between
    // them is a customer of one and a provider of the other, so the
    // lower party's row holds an excluded provider that it still
    // reroutes from.
    for node in (0..graph.node_count() as u32).step_by(3) {
        let grand = graph
            .provider_indices(node)
            .first()
            .and_then(|&p| graph.provider_indices(p).first());
        if let (Some(&grand), false) = (grand, graph.customer_indices(node).is_empty()) {
            candidates.push(CandidatePair {
                x: grand,
                y: node,
                peering_hops: 2,
            });
        }
    }
    let config = DiscoveryConfig {
        noise: 0.4,
        ..DiscoveryConfig::default()
    };
    let mut rng = ChaCha12Rng::seed_from_u64(20);
    let mut scratch = PairScratch::new();
    let mut words = Vec::new();
    let (mut zero_segment, mut provider_adjacent) = (0usize, 0usize);
    for (i, &pair) in candidates.iter().enumerate() {
        let (reroute, attract) = config.jittered_shares(&mut rng);
        let shares = match i % 7 {
            0 => (0.0, attract),
            1 => (1.0, attract),
            2 => (reroute, 0.0),
            3 => (reroute, 1.0),
            4 => (1.0, 0.0),
            _ => (reroute, attract),
        };
        let grid = 2 + i % 4;
        let outcome =
            evaluate_candidate(&ctx, &mut scratch, pair, shares.0, shares.1, grid).unwrap();
        zero_segment += usize::from(outcome.segments.0 == 0 || outcome.segments.1 == 0);
        provider_adjacent += usize::from(
            graph.provider_indices(pair.x).contains(&pair.y)
                || graph.provider_indices(pair.y).contains(&pair.x),
        );
        words.extend(outcome_words(&outcome));
    }
    assert!(zero_segment > 0, "no zero-segment side");
    assert!(provider_adjacent > 10, "too few provider-adjacent pairs");
    assert!(
        candidates.len() > 300,
        "fixture too small: {}",
        candidates.len()
    );
    let digest = fnv1a(words);
    assert_eq!(
        digest, GOLDEN_PER_PAIR_EDGES,
        "per-pair evaluator drifted from the edge-case golden: 0x{digest:016x}"
    );
}

/// Every sweep the engines run over one context: the per-pair
/// evaluator through [`discover`], and the programmed evaluator over
/// every candidate.
fn sweep_all(ctx: &BatchContext<'_>, net: &SyntheticInternet) {
    let sweep = ScenarioSweep::new(ThreadPool::new(2), 5);
    let config = DiscoveryConfig {
        grid: 4,
        ..DiscoveryConfig::default()
    };
    discover(ctx, &config, &sweep).unwrap();
    let programs = NodePrograms::build(ctx, 0.5, 0.2).unwrap();
    let mut scratch = PairScratch::new();
    for pair in enumerate_candidates(&net.graph, CandidatePolicy::PeeringAdjacent) {
        let transit = derive_pair_transit(&net.graph, pair);
        evaluate_candidate_with(ctx, &programs, &transit, &mut scratch, pair, 4).unwrap();
    }
}

#[test]
fn linear_cost_sweeps_never_sum_the_flow_totals() {
    let (net, econ, flows) = fixture(false);
    let ctx = BatchContext::new(&net.graph, &econ, &flows).unwrap();
    sweep_all(&ctx, &net);
    assert!(
        !ctx.totals_filled(),
        "a market without nonlinear internal costs read the flow totals"
    );
    // The same sweeps on the power-law market do read them.
    let (net, econ, flows) = mixed_fixture();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).unwrap();
    sweep_all(&ctx, &net);
    assert!(ctx.totals_filled());
}

#[test]
fn lazy_totals_are_the_per_row_sums() {
    let (net, econ, flows) = mixed_fixture();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).unwrap();
    for node in 0..net.graph.node_count() as u32 {
        assert_eq!(ctx.total(node).to_bits(), flows.total(node).to_bits());
    }
}

#[test]
fn advise_on_the_power_law_market_is_thread_count_independent() {
    let (net, econ, flows) = mixed_fixture();
    let state = MarketState::new(net.graph.clone(), econ, flows).unwrap();
    let config = DiscoveryConfig {
        grid: 4,
        ..DiscoveryConfig::default()
    };
    let (one, four) = (ThreadPool::new(1), ThreadPool::new(4));
    let mut power_law_parties = 0usize;
    let mut concluded = 0usize;
    for node in (0..net.graph.node_count() as u32).step_by(7) {
        let asn = net.graph.asn_at(node);
        let at_one = advise(&state, &config, asn, 0, &one).unwrap();
        let at_four = advise(&state, &config, asn, 0, &four).unwrap();
        assert_eq!(
            at_one, at_four,
            "advise for {asn} depends on the thread count"
        );
        assert_eq!(
            at_one.total_surplus.to_bits(),
            at_four.total_surplus.to_bits()
        );
        power_law_parties += at_one
            .outcomes
            .iter()
            .filter(|o| o.x.get() % 13 == 0 || o.y.get() % 13 == 0)
            .count();
        concluded += at_one.concluded_cash;
    }
    assert!(
        power_law_parties > 0,
        "no advised pair has a power-law party"
    );
    assert!(concluded > 0, "no advised pair concludes");
}
