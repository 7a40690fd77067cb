//! End-to-end clustering cost of every method on a small fixed workload —
//! the Criterion counterpart of the paper's Figure 1 bars.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laf_cardest::{NetConfig, RmiConfig, RmiEstimator, TrainingSetBuilder};
use laf_clustering::{
    BlockDbscan, Clusterer, Dbscan, DbscanPlusPlus, KnnBlockDbscan, RhoApproxDbscan,
};
use laf_core::{LafConfig, LafDbscan, LafDbscanPlusPlus, LafDbscanPlusPlusConfig};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::Dataset;
use std::hint::black_box;

fn dataset() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 600,
        dim: 48,
        clusters: 10,
        spread: 0.07,
        noise_fraction: 0.3,
        seed: 23,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn bench_clustering(c: &mut Criterion) {
    let data = dataset();
    let (eps, tau) = (0.35f32, 4usize);
    let training = TrainingSetBuilder {
        max_queries: Some(200),
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));

    let mut group = c.benchmark_group("clustering_end_to_end");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::from_parameter("DBSCAN"), &(), |b, _| {
        b.iter(|| black_box(Dbscan::with_params(eps, tau).cluster(&data)).n_clusters())
    });
    group.bench_with_input(BenchmarkId::from_parameter("DBSCAN++"), &(), |b, _| {
        b.iter(|| black_box(DbscanPlusPlus::with_params(eps, tau, 0.4).cluster(&data)).n_clusters())
    });
    group.bench_with_input(BenchmarkId::from_parameter("KNN-BLOCK"), &(), |b, _| {
        b.iter(|| black_box(KnnBlockDbscan::with_params(eps, tau).cluster(&data)).n_clusters())
    });
    group.bench_with_input(BenchmarkId::from_parameter("BLOCK-DBSCAN"), &(), |b, _| {
        b.iter(|| black_box(BlockDbscan::with_params(eps, tau).cluster(&data)).n_clusters())
    });
    group.bench_with_input(BenchmarkId::from_parameter("rho-approx"), &(), |b, _| {
        b.iter(|| black_box(RhoApproxDbscan::with_params(eps, tau).cluster(&data)).n_clusters())
    });
    group.bench_with_input(BenchmarkId::from_parameter("LAF-DBSCAN"), &(), |b, _| {
        b.iter(|| {
            let laf = LafDbscan::new(LafConfig::new(eps, tau, 1.5), &estimator);
            black_box(laf.cluster(&data)).n_clusters()
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("LAF-DBSCAN++"), &(), |b, _| {
        b.iter(|| {
            let laf_pp =
                LafDbscanPlusPlus::new(LafDbscanPlusPlusConfig::new(eps, tau, 0.2), &estimator);
            black_box(laf_pp.cluster(&data)).n_clusters()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
