//! Cardinality-estimator inference cost: the LAF gate's overhead per point
//! must be far cheaper than the range query it potentially replaces. This is
//! the ablation backing the paper's claim that "prediction time is constant
//! with the data scale".
//!
//! `cardinality_estimate` times one per-row `estimate`;
//! `cardinality_estimate_batch` times one `estimate_batch` over the gate's
//! prescan chunk of [`PRESCAN_BATCH`] rows, so its ns/iter divided by
//! [`PRESCAN_BATCH`] is the batched cost per row. Both run on the calling
//! thread. `rmi_one_stage` is the single network the pipeline serves,
//! `rmi_paper` the paper's [1, 2, 4] layout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laf_cardest::{
    CardinalityEstimator, ExactEstimator, HistogramEstimator, NetConfig, RmiConfig, RmiEstimator,
    SamplingEstimator, TrainingSetBuilder,
};
use laf_core::gate::PRESCAN_BATCH;
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};
use std::hint::black_box;

fn dataset() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 800,
        dim: 64,
        clusters: 10,
        spread: 0.08,
        noise_fraction: 0.3,
        seed: 11,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn bench_estimators(c: &mut Criterion) {
    let data = dataset();
    let training = TrainingSetBuilder {
        max_queries: Some(200),
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();

    let one_stage = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
    let rmi = RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::tiny()));
    let exact = ExactEstimator::new(&data, Metric::Cosine);
    let sampling = SamplingEstimator::new(&data, Metric::Cosine, data.len() / 10, 3);
    let histogram = HistogramEstimator::from_training(&training);

    let estimators: Vec<(&str, &dyn CardinalityEstimator)> = vec![
        ("rmi_one_stage", &one_stage),
        ("rmi_paper", &rmi),
        ("exact_range_count", &exact),
        ("sampling", &sampling),
        ("histogram", &histogram),
    ];

    let mut group = c.benchmark_group("cardinality_estimate");
    group.sample_size(30);
    for (name, est) in &estimators {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |bench, _| {
            let mut q = 0usize;
            bench.iter(|| {
                q = (q + 37) % data.len();
                black_box(est.estimate(data.row(q), 0.5))
            })
        });
    }
    group.finish();

    let batch: Vec<&[f32]> = data.rows().take(PRESCAN_BATCH).collect();
    let mut group = c.benchmark_group("cardinality_estimate_batch");
    for (name, est) in &estimators[..2] {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |bench, _| {
            bench.iter(|| black_box(est.estimate_batch(&batch, 0.5)))
        });
    }
    group.finish();

    // Training cost of the learned estimators (one sample each; training is
    // excluded from the paper's clustering times but reported here for
    // completeness).
    let mut group = c.benchmark_group("estimator_training");
    group.sample_size(10);
    group.bench_function("rmi_one_stage_tiny", |bench| {
        bench.iter(|| {
            black_box(RmiEstimator::train(
                &training,
                &RmiConfig::one_stage(NetConfig::tiny()),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
