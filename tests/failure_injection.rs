//! Failure-injection tests: LAF must degrade gracefully — never panic, never
//! produce an invalid labeling — when its estimator is broken or extreme.

use laf::prelude::*;

fn data() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 200,
        dim: 10,
        clusters: 4,
        noise_fraction: 0.25,
        seed: 77,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

/// Estimator that returns pathological values depending on the query index
/// parity encoded in its first coordinate sign.
struct Erratic;

impl CardinalityEstimator for Erratic {
    fn estimate(&self, query: &[f32], _eps: f32) -> f32 {
        match query.first() {
            Some(x) if *x > 0.5 => f32::NAN,
            Some(x) if *x > 0.0 => f32::MAX,
            Some(x) if *x > -0.5 => -42.0,
            _ => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "erratic"
    }
}

#[test]
fn nan_infinity_and_negative_estimates_never_panic() {
    let data = data();
    for alpha in [0.1f32, 1.0, 10.0] {
        let (result, stats) =
            LafDbscan::new(LafConfig::new(0.35, 3, alpha), Erratic).cluster_with_stats(&data);
        assert_eq!(result.len(), data.len());
        assert_eq!(
            stats.cardest_calls,
            stats.skipped_range_queries + stats.executed_range_queries
        );
        for &l in result.labels() {
            assert!(l >= -1);
        }
    }
}

#[test]
fn always_zero_estimator_is_the_worst_case_but_valid() {
    let data = data();
    let truth = Dbscan::with_params(0.35, 3).cluster(&data);
    let (result, stats) = LafDbscan::new(LafConfig::new(0.35, 3, 1.0), ConstantEstimator::new(0.0))
        .cluster_with_stats(&data);
    // Everything predicted non-core: all noise, zero range queries executed.
    assert_eq!(result.n_noise(), data.len());
    assert_eq!(stats.executed_range_queries, 0);
    // Quality collapses (that is the point of the post-processing needing
    // *some* executed queries to find partial neighbors).
    let ami = adjusted_mutual_information(truth.labels(), result.labels());
    assert!(ami <= 0.5, "AMI {ami} should be poor in the worst case");
}

#[test]
fn always_infinite_estimator_costs_nothing_in_quality() {
    let data = data();
    let truth = Dbscan::with_params(0.35, 3).cluster(&data);
    let result = LafDbscan::new(
        LafConfig::new(0.35, 3, 1.0),
        ConstantEstimator::new(f32::INFINITY),
    )
    .cluster(&data);
    assert_eq!(truth.labels(), result.labels());
}

#[test]
fn extreme_alphas_are_safe_for_both_laf_algorithms() {
    let data = data();
    let training = TrainingSetBuilder {
        max_queries: Some(80),
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));

    for alpha in [0.0f32, 0.001, 100.0, 10_000.0] {
        let laf = LafDbscan::new(LafConfig::new(0.35, 3, alpha), &estimator);
        let result = laf.cluster(&data);
        assert_eq!(result.len(), data.len());

        let mut cfg = LafDbscanPlusPlusConfig::new(0.35, 3, 0.2);
        cfg.laf.alpha = alpha;
        let laf_pp = LafDbscanPlusPlus::new(cfg, &estimator);
        let result = laf_pp.cluster(&data);
        assert_eq!(result.len(), data.len());
    }
}

#[test]
fn degenerate_clustering_parameters_are_safe() {
    let data = data();
    let est = ConstantEstimator::new(f32::INFINITY);

    // eps = 0: nothing is a neighbor of anything (strict inequality), so
    // every point is noise.
    let result = LafDbscan::new(LafConfig::new(0.0, 3, 1.0), &est).cluster(&data);
    assert_eq!(result.n_noise(), data.len());

    // tau = 0/1: every point is core; no noise.
    let result = LafDbscan::new(LafConfig::new(0.3, 1, 1.0), &est).cluster(&data);
    assert_eq!(result.n_noise(), 0);

    // eps covering the whole sphere: one cluster.
    let result = LafDbscan::new(LafConfig::new(2.1, 3, 1.0), &est).cluster(&data);
    assert_eq!(result.n_clusters(), 1);
}

#[test]
fn single_point_and_duplicate_datasets() {
    let single = Dataset::from_rows(vec![vec![1.0f32, 0.0, 0.0]]).unwrap();
    let est = ConstantEstimator::new(f32::INFINITY);
    let result = LafDbscan::new(LafConfig::new(0.5, 2, 1.0), &est).cluster(&single);
    assert_eq!(result.len(), 1);
    assert_eq!(result.n_noise(), 1);

    // 30 identical points: all mutual distance zero, one cluster regardless
    // of eps.
    let dup = Dataset::from_rows(vec![vec![0.6f32, 0.8, 0.0]; 30]).unwrap();
    let result = LafDbscan::new(LafConfig::new(1e-3, 5, 1.0), &est).cluster(&dup);
    assert_eq!(result.n_clusters(), 1);
    assert_eq!(result.n_noise(), 0);

    let truth = Dbscan::with_params(1e-3, 5).cluster(&dup);
    assert_eq!(truth.labels(), result.labels());
}
