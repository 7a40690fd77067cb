//! Range-query engine comparison: the per-query cost of the linear scan,
//! cover tree and k-means tree on an embedding-like workload.
//! This is the substrate ablation behind the paper's baseline differences.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laf_index::{CoverTree, KMeansTree, LinearScan, RangeQueryEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};
use std::hint::black_box;

fn dataset() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 1_000,
        dim: 64,
        clusters: 12,
        spread: 0.08,
        noise_fraction: 0.3,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn bench_engines(c: &mut Criterion) {
    let data = dataset();
    let eps = 0.35f32;
    let linear = LinearScan::new(&data, Metric::Cosine);
    let cover = CoverTree::new(&data, Metric::Cosine, 2.0);
    let kmeans = KMeansTree::new(&data, Metric::Cosine, 10, 0.6, 7);
    let engines: Vec<(&str, &dyn RangeQueryEngine)> = vec![
        ("linear", &linear),
        ("cover_tree", &cover),
        ("kmeans_tree", &kmeans),
    ];

    let mut group = c.benchmark_group("range_query");
    group.sample_size(20);
    for (name, engine) in &engines {
        group.bench_with_input(BenchmarkId::new("range", name), name, |bench, _| {
            let mut q = 0usize;
            bench.iter(|| {
                q = (q + 97) % data.len();
                black_box(engine.range(data.row(q), eps)).len()
            })
        });
        group.bench_with_input(BenchmarkId::new("knn10", name), name, |bench, _| {
            let mut q = 0usize;
            bench.iter(|| {
                q = (q + 131) % data.len();
                black_box(engine.knn(data.row(q), 10)).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
