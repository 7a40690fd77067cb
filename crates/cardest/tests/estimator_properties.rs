//! Property tests for the cardinality estimators.

use laf_cardest::{
    CardinalityEstimator, ExactEstimator, HistogramEstimator, NetConfig, RmiConfig, RmiEstimator,
    SamplingEstimator, TrainingSetBuilder,
};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{ops, Dataset, Metric};
use proptest::prelude::*;

/// A fixed dataset and trained estimators, built once (training inside a
/// proptest closure would dominate the runtime).
struct Fixture {
    data: Dataset,
    one_stage: RmiEstimator,
    rmi: RmiEstimator,
    histogram: HistogramEstimator,
    sampling: SamplingEstimator,
}

fn fixture() -> &'static Fixture {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 220,
            dim: 8,
            clusters: 5,
            noise_fraction: 0.25,
            seed: 17,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let training = TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        Fixture {
            one_stage: RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny())),
            rmi: RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::tiny())),
            histogram: HistogramEstimator::from_training(&training),
            sampling: SamplingEstimator::new(&data, Metric::Cosine, 40, 3),
            data,
        }
    })
}

fn unit_query() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, 8)
        .prop_filter("non-zero", |v| ops::norm(v) > 1e-3)
        .prop_map(|mut v| {
            ops::normalize_in_place(&mut v);
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_estimators_return_finite_nonnegative_values(q in unit_query(), eps in 0.05f32..1.5) {
        let f = fixture();
        let estimators: Vec<&dyn CardinalityEstimator> =
            vec![&f.one_stage, &f.rmi, &f.histogram, &f.sampling];
        for est in estimators {
            let v = est.estimate(&q, eps);
            prop_assert!(v.is_finite(), "{} produced {}", est.name(), v);
            prop_assert!(v >= 0.0, "{} produced {}", est.name(), v);
        }
    }

    #[test]
    fn exact_estimator_is_monotone_in_eps(q in unit_query(), e1 in 0.05f32..1.0, e2 in 0.05f32..1.0) {
        let f = fixture();
        let exact = ExactEstimator::new(&f.data, Metric::Cosine);
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(exact.estimate(&q, lo) <= exact.estimate(&q, hi));
    }

    #[test]
    fn exact_estimator_is_bounded_by_dataset_size(q in unit_query(), eps in 0.05f32..2.5) {
        let f = fixture();
        let exact = ExactEstimator::new(&f.data, Metric::Cosine);
        let v = exact.estimate(&q, eps);
        prop_assert!(v <= f.data.len() as f32);
    }

    #[test]
    fn histogram_is_monotone_in_eps(q in unit_query(), e1 in 0.05f32..1.0, e2 in 0.05f32..1.0) {
        let f = fixture();
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(f.histogram.estimate(&q, lo) <= f.histogram.estimate(&q, hi) + 1e-3);
    }

    #[test]
    fn sampling_estimator_never_exceeds_scaled_sample(q in unit_query(), eps in 0.05f32..2.5) {
        let f = fixture();
        let v = f.sampling.estimate(&q, eps);
        prop_assert!(v <= f.data.len() as f32 + 1e-3);
    }

    #[test]
    fn learned_estimators_are_deterministic(q in unit_query(), eps in 0.1f32..0.9) {
        let f = fixture();
        prop_assert_eq!(f.one_stage.estimate(&q, eps), f.one_stage.estimate(&q, eps));
        prop_assert_eq!(f.rmi.estimate(&q, eps), f.rmi.estimate(&q, eps));
    }
}
