//! Criterion benches for the topology-wide discovery engine: the dense
//! batch path vs. the legacy per-pair `AgreementScenario` path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pan_core::discovery::{
    discover, enumerate_candidates, evaluate_candidate, evaluate_candidate_legacy, BatchContext,
    CandidatePolicy, DiscoveryConfig, PairScratch,
};
use pan_datasets::{InternetConfig, SyntheticInternet};
use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};
use pan_runtime::ScenarioSweep;

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

fn pair_evaluation(c: &mut Criterion) {
    let (net, econ, flows) = testbed();
    let ctx = BatchContext::new(&net.graph, &econ, &flows).expect("tables match");
    let model = econ.to_business_model(&net.graph);
    let candidates = enumerate_candidates(&net.graph, CandidatePolicy::PeeringAdjacent);
    let sample: Vec<_> = candidates.iter().copied().step_by(97).take(24).collect();
    let mut group = c.benchmark_group("discovery");

    group.bench_function(BenchmarkId::new("evaluate_24_pairs", "dense"), |b| {
        let mut scratch = PairScratch::new();
        b.iter(|| {
            let mut surplus = 0.0;
            for &pair in &sample {
                surplus += evaluate_candidate(&ctx, &mut scratch, pair, 0.5, 0.2, 5)
                    .expect("evaluation succeeds")
                    .surplus;
            }
            black_box(surplus)
        });
    });

    group.bench_function(BenchmarkId::new("evaluate_24_pairs", "legacy"), |b| {
        b.iter(|| {
            let mut surplus = 0.0;
            for &pair in &sample {
                let fx = flows.to_flow_vec(&net.graph, pair.x);
                let fy = flows.to_flow_vec(&net.graph, pair.y);
                surplus += evaluate_candidate_legacy(&model, &fx, &fy, 0.5, 0.2, 5)
                    .expect("evaluation succeeds")
                    .surplus;
            }
            black_box(surplus)
        });
    });

    group.bench_function(BenchmarkId::new("full_sweep_600as", "dense"), |b| {
        let config = DiscoveryConfig {
            top: 10,
            ..DiscoveryConfig::default()
        };
        let sweep = ScenarioSweep::sequential(42);
        b.iter(|| {
            black_box(
                discover(&ctx, &config, &sweep)
                    .expect("sweep succeeds")
                    .candidates,
            )
        });
    });

    group.finish();
}

criterion_group!(benches, pair_evaluation);
criterion_main!(benches);
