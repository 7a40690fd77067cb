//! End-to-end kernel-mode agreement: LAF-DBSCAN's labels (and stats) must be
//! byte-identical whether the range-query engine runs the generic or the
//! specialized distance kernels, for every engine/metric combination.

use laf_core::{LafConfig, LafDbscan};
use laf_index::{build_engine_with_mode, EngineChoice, KernelMode};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};

fn eps_for(metric: Metric) -> f32 {
    metric.equivalent_threshold(0.25)
}

fn data() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 260,
        dim: 10,
        clusters: 5,
        noise_fraction: 0.2,
        seed: 77,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

#[test]
fn cluster_with_stats_labels_are_byte_identical_across_kernel_modes() {
    let data = data();
    let choices = [
        EngineChoice::Linear,
        EngineChoice::KMeansTree {
            branching: 4,
            leaf_ratio: 0.8,
        },
        EngineChoice::Ivf {
            nlist: 6,
            nprobe: 3,
        },
    ];
    for metric in Metric::ALL {
        let eps = eps_for(metric);
        let estimator = laf_cardest::ExactEstimator::new(&data, metric);
        for choice in choices {
            let cfg = LafConfig {
                eps,
                metric,
                engine: choice,
                ..LafConfig::new(eps, 4, 1.0)
            };
            let laf = LafDbscan::new(cfg, &estimator);
            let spec_engine =
                build_engine_with_mode(choice, &data, metric, KernelMode::Specialized);
            let generic_engine = build_engine_with_mode(choice, &data, metric, KernelMode::Generic);
            let (spec, spec_stats) = laf.cluster_with_stats_using(&data, spec_engine.as_ref());
            let (generic, generic_stats) =
                laf.cluster_with_stats_using(&data, generic_engine.as_ref());
            assert_eq!(
                spec.labels(),
                generic.labels(),
                "{metric:?} {choice:?}: labels diverged between kernel modes"
            );
            assert_eq!(
                spec_stats.skipped_range_queries, generic_stats.skipped_range_queries,
                "{metric:?} {choice:?}: gate behavior diverged"
            );
            assert_eq!(
                spec.distance_evaluations, generic.distance_evaluations,
                "{metric:?} {choice:?}: evaluation accounting diverged"
            );
        }
    }
}
