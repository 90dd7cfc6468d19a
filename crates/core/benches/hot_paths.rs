//! Criterion microbenches for the three hot primitives of the dense
//! discovery engine — the units the raw-speed pass tiles and caches:
//!
//! - [`NodePrograms::build`]: the once-per-round collapse of every
//!   node's beneficiary-side deltas at fixed shares (amortized across
//!   all pairs of a noise-free round);
//! - [`derive_pair_transit`]: the per-pair exclusion walk, a function of
//!   the graph alone, that the full engine keeps with the candidate
//!   enumeration until the peering graph changes — on a sample of
//!   candidate pairs, and on a stub/tier-1 pair, where the walk gallops
//!   from the short list into the long one on both sides;
//! - [`evaluate_candidate_with`]: the per-pair grid search that remains
//!   on the hot path every noise-free round;
//! - [`evaluate_candidate`]: the streaming row walk over both parties'
//!   packed rows, on the same 24 pairs at jittered shares — the
//!   evaluator of every noisy round, of `discover`, of a cold `advise`
//!   and of each adoption's re-evaluation;
//! - [`MarketState::adopt_outcome`]: one adoption of the best-connected
//!   concluding peer pair — the re-evaluation plus the link-symmetric
//!   flow update that moves both entries of every touched link. Each
//!   iteration adopts on a fresh clone of the same market, so the row
//!   includes that clone.
//!
//! Together they decompose the cost of one round, so a regression in
//! any layer shows up here before it shows up in the `evolve`
//! wall-clock. Runs in the CI `bench-smoke` job via
//! `cargo bench -p pan-core -- --quick`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pan_core::discovery::{
    derive_pair_transit, enumerate_candidates, evaluate_candidate, evaluate_candidate_with,
    BatchContext, CandidatePair, CandidatePolicy, NodePrograms, PairScratch,
};
use pan_core::dynamics::MarketState;
use pan_datasets::{InternetConfig, SyntheticInternet};
use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};

fn testbed() -> (SyntheticInternet, DenseEconomics, FlowMatrix) {
    let net = SyntheticInternet::generate(
        &InternetConfig {
            num_ases: 600,
            tier1_count: 8,
            ..InternetConfig::default()
        },
        42,
    )
    .expect("valid config");
    let econ = DenseEconomics::build(
        &net.graph,
        |p, c| PricingFunction::per_usage(2.0 + f64::from((p.get() + c.get()) % 5) * 0.2).unwrap(),
        |_| PricingFunction::per_usage(2.5).unwrap(),
        |_| CostFunction::linear(0.05).unwrap(),
    );
    let flows = FlowMatrix::degree_gravity(&net.graph, 1.0);
    (net, econ, flows)
}

fn hot_paths(c: &mut Criterion) {
    let (net, econ, flows) = testbed();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).expect("tables match");
    let candidates = enumerate_candidates(&net.graph, CandidatePolicy::PeeringAdjacent);
    let sample: Vec<_> = candidates.iter().copied().step_by(97).take(24).collect();
    let mut group = c.benchmark_group("hot_paths");

    group.bench_function("node_programs_build_600as", |b| {
        b.iter(|| black_box(NodePrograms::build(&ctx, 0.5, 0.2).expect("valid shares")));
    });

    group.bench_function("derive_pair_transit_24_pairs", |b| {
        b.iter(|| {
            let mut excluded = 0usize;
            for &pair in &sample {
                let transit = derive_pair_transit(&net.graph, pair);
                excluded += transit.heap_bytes();
            }
            black_box(excluded)
        });
    });

    // The most-connected provider-free AS against a stub: the stub's
    // empty customer list gallops into the tier-1's provider/peer
    // segments, and the stub's shorter provider and peer segments
    // into the tier-1's customers.
    let graph = &net.graph;
    let tier1 = graph
        .provider_free_ases()
        .map(|asn| graph.index_of(asn).expect("listed ASes resolve"))
        .max_by_key(|&i| graph.degree_of_index(i))
        .expect("the synthetic internet has a tier-1 core");
    let stub = graph
        .stub_ases()
        .map(|asn| graph.index_of(asn).expect("listed ASes resolve"))
        .next()
        .expect("the synthetic internet has stubs");
    let stub_tier1 = CandidatePair {
        x: stub.min(tier1),
        y: stub.max(tier1),
        peering_hops: 1,
    };
    group.bench_function("derive_pair_transit_stub_tier1", |b| {
        b.iter(|| black_box(derive_pair_transit(graph, black_box(stub_tier1)).heap_bytes()));
    });

    group.bench_function("evaluate_candidate_with_24_pairs", |b| {
        let programs = NodePrograms::build(&ctx, 0.5, 0.2).expect("valid shares");
        let transits: Vec<_> = sample
            .iter()
            .map(|&pair| derive_pair_transit(&net.graph, pair))
            .collect();
        let mut scratch = PairScratch::new();
        b.iter(|| {
            let mut surplus = 0.0;
            for (&pair, transit) in sample.iter().zip(&transits) {
                surplus += evaluate_candidate_with(&ctx, &programs, transit, &mut scratch, pair, 5)
                    .expect("evaluation succeeds")
                    .surplus;
            }
            black_box(surplus)
        });
    });

    group.bench_function("evaluate_candidate_jittered_24_pairs", |b| {
        // ±10% jitter around the default shares, as a noisy round draws
        // them, fixed per pair so every iteration does the same work.
        let shares: Vec<(f64, f64)> = (0..sample.len())
            .map(|i| {
                let jitter = ((i * 7) % 21) as f64 / 100.0 - 0.1;
                (0.5 * (1.0 + jitter), 0.2 * (1.0 - jitter))
            })
            .collect();
        let mut scratch = PairScratch::new();
        b.iter(|| {
            let mut surplus = 0.0;
            for (&pair, &(reroute, attract)) in sample.iter().zip(&shares) {
                surplus += evaluate_candidate(&ctx, &mut scratch, pair, reroute, attract, 5)
                    .expect("evaluation succeeds")
                    .surplus;
            }
            black_box(surplus)
        });
    });

    // The concluding peer pair with the largest combined degree: its
    // adoption moves the most flow entries and grants the most targets.
    let hub_pair = candidates
        .iter()
        .copied()
        .filter(|&pair| {
            evaluate_candidate(&ctx, &mut PairScratch::new(), pair, 0.5, 0.2, 5)
                .expect("evaluation succeeds")
                .cash
                .is_some()
        })
        .max_by_key(|pair| graph.degree_of_index(pair.x) + graph.degree_of_index(pair.y))
        .expect("the synthetic internet has a concluding pair");
    let market =
        MarketState::new(net.graph.clone(), econ.clone(), flows.clone()).expect("tables match");
    // The check reads every mirror, which builds the graph's lazy mirror
    // lane: each clone then carries it, as a market past its first round
    // does.
    market
        .check_invariants()
        .expect("a fresh market is consistent");
    group.bench_function("adopt_outcome_hub_pair", |b| {
        b.iter(|| {
            let mut state = market.clone();
            let adopted = state
                .adopt_outcome(black_box(hub_pair), (0.5, 0.2), 5, 0.0, 0)
                .expect("adoption succeeds");
            black_box(adopted.map(|agreement| agreement.joint_utility))
        });
    });

    group.finish();
}

criterion_group!(benches, hot_paths);
criterion_main!(benches);
