//! Property-based invariants of the LAF framework, checked across random
//! datasets and parameters.

use laf::prelude::*;
use proptest::prelude::*;

/// Small random directional-mixture dataset.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (40usize..120, 2usize..6, 0.0f64..0.4, any::<u64>()).prop_map(
        |(n_points, clusters, noise_fraction, seed)| {
            EmbeddingMixtureConfig {
                n_points,
                dim: 8,
                clusters,
                spread: 0.07,
                noise_fraction,
                size_skew: 0.5,
                subspace_fraction: 1.0,
                seed,
            }
            .generate()
            .expect("valid config")
            .0
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LAF-DBSCAN with the exact oracle estimator and α = 1 must reproduce
    /// plain DBSCAN exactly — this is the framework's core correctness claim
    /// (the gate only skips queries whose outcome is already determined).
    #[test]
    fn oracle_laf_equals_dbscan(data in dataset_strategy(), eps in 0.1f32..0.6, tau in 2usize..6) {
        let truth = Dbscan::with_params(eps, tau).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(eps, tau, 1.0),
            ExactEstimator::new(&data, Metric::Cosine),
        );
        let result = laf.cluster(&data);
        prop_assert_eq!(truth.labels(), result.labels());
    }

    /// The always-infinite estimator disables the gate entirely, so LAF
    /// degrades to DBSCAN for any α.
    #[test]
    fn infinite_estimator_is_plain_dbscan(
        data in dataset_strategy(),
        eps in 0.1f32..0.6,
        tau in 2usize..6,
        alpha in 0.5f32..10.0
    ) {
        let truth = Dbscan::with_params(eps, tau).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(eps, tau, alpha),
            ConstantEstimator::new(f32::INFINITY),
        );
        let result = laf.cluster(&data);
        prop_assert_eq!(truth.labels(), result.labels());
    }

    /// Every clustering labels every point with either noise or a valid
    /// cluster id, and cluster ids are compact (0..n_clusters).
    #[test]
    fn labels_are_complete_and_compact(
        data in dataset_strategy(),
        eps in 0.1f32..0.6,
        tau in 2usize..6,
        alpha in 0.5f32..4.0
    ) {
        let est = SamplingEstimator::new(&data, Metric::Cosine, (data.len() / 4).max(2), 7);
        let (result, stats) = LafDbscan::new(LafConfig::new(eps, tau, alpha), est)
            .cluster_with_stats(&data);
        prop_assert_eq!(result.len(), data.len());
        let n_clusters = result.n_clusters() as i64;
        for &l in result.labels() {
            prop_assert!(l == -1 || (0..n_clusters).contains(&l), "label {} out of range", l);
        }
        // Gate bookkeeping is consistent: one gate decision per point.
        prop_assert_eq!(stats.cardest_calls as usize, data.len());
        prop_assert_eq!(
            stats.cardest_calls,
            stats.skipped_range_queries + stats.executed_range_queries
        );
        prop_assert!(stats.predicted_stop_points <= stats.skipped_range_queries);
    }

    /// DBSCAN itself is invariant to the (exact) engine used underneath.
    #[test]
    fn dbscan_engine_invariance(data in dataset_strategy(), eps in 0.1f32..0.6, tau in 2usize..6) {
        let linear = Dbscan::new(DbscanConfig {
            eps,
            min_pts: tau,
            metric: Metric::Cosine,
            engine: EngineChoice::Linear,
        })
        .cluster(&data);
        let cover = Dbscan::new(DbscanConfig {
            eps,
            min_pts: tau,
            metric: Metric::Cosine,
            engine: EngineChoice::CoverTree { basis: 2.0 },
        })
        .cluster(&data);
        prop_assert_eq!(linear.labels(), cover.labels());
    }

    /// Post-processing only merges clusters: the number of clusters after a
    /// LAF run is never larger than the number DBSCAN finds plus the number
    /// of noise points (sanity bound), and never negative.
    #[test]
    fn post_processing_produces_sane_cluster_counts(
        data in dataset_strategy(),
        eps in 0.2f32..0.6,
        tau in 2usize..5
    ) {
        let est = SamplingEstimator::new(&data, Metric::Cosine, (data.len() / 3).max(2), 3);
        let result = LafDbscan::new(LafConfig::new(eps, tau, 1.0), est).cluster(&data);
        prop_assert!(result.n_clusters() <= data.len());
        let stats = result.stats();
        prop_assert_eq!(stats.n_points, data.len());
        prop_assert_eq!(stats.n_clustered() + result.n_noise(), data.len());
    }

    /// ARI/AMI of any approximate method against DBSCAN stays in the valid
    /// range, and comparing DBSCAN with itself gives exactly 1.
    #[test]
    fn metric_ranges_hold(data in dataset_strategy(), eps in 0.2f32..0.6, tau in 2usize..5) {
        let truth = Dbscan::with_params(eps, tau).cluster(&data);
        prop_assert!((adjusted_rand_index(truth.labels(), truth.labels()) - 1.0).abs() < 1e-9);
        let approx = DbscanPlusPlus::with_params(eps, tau, 0.5).cluster(&data);
        let ari = adjusted_rand_index(truth.labels(), approx.labels());
        let ami = adjusted_mutual_information(truth.labels(), approx.labels());
        prop_assert!((-1.0..=1.0 + 1e-9).contains(&ari), "ARI {}", ari);
        prop_assert!((-1.0..=1.0 + 1e-9).contains(&ami), "AMI {}", ami);
    }
}
