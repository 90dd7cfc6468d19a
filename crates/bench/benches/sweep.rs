//! Criterion benches for the `pan-runtime` scenario-sweep runtime: pool
//! dispatch overhead, and the figure workloads at 1 vs. available
//! threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pan_datasets::{InternetConfig, SyntheticInternet};
use pan_pathdiv::diversity::{analyze_sample_pooled, DiversityConfig};
use pan_pathdiv::geodistance::{analyze_pooled, GeodistanceConfig};
use pan_runtime::{ScenarioSweep, ThreadPool};

fn net(n: usize) -> SyntheticInternet {
    SyntheticInternet::generate(
        &InternetConfig {
            num_ases: n,
            ..InternetConfig::default()
        },
        42,
    )
    .expect("valid config")
}

fn thread_counts() -> Vec<usize> {
    let available = ThreadPool::with_available_parallelism().threads();
    let mut counts = vec![1];
    if available > 1 {
        counts.push(available);
    }
    counts
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep/dispatch_1000_items");
    for &threads in &thread_counts() {
        let sweep = ScenarioSweep::new(ThreadPool::new(threads), 7);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                black_box(sweep.run(1_000, |i, _rng| i as u64));
            });
        });
    }
    group.finish();
}

fn bench_diversity_pooled(c: &mut Criterion) {
    let internet = net(600);
    let config = DiversityConfig {
        sample_size: 100,
        seed: 42,
        top_n: vec![1, 5, 50],
    };
    let mut group = c.benchmark_group("sweep/diversity_600as_100src");
    group.sample_size(10);
    for &threads in &thread_counts() {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| black_box(analyze_sample_pooled(&internet.graph, &config, &pool)));
        });
    }
    group.finish();
}

fn bench_geodistance_pooled(c: &mut Criterion) {
    let internet = net(600);
    let config = GeodistanceConfig {
        sample_size: 100,
        seed: 42,
    };
    let mut group = c.benchmark_group("sweep/geodistance_600as_100src");
    group.sample_size(10);
    for &threads in &thread_counts() {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                black_box(analyze_pooled(
                    &internet.graph,
                    &internet.geo,
                    &config,
                    &pool,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pool_dispatch,
    bench_diversity_pooled,
    bench_geodistance_pooled
);
criterion_main!(benches);
