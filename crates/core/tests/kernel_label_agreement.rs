//! End-to-end kernel agreement: clustering on the linear scan's specialized
//! kernels must give byte-identical labels, gate counters and distance
//! evaluation counts to clustering on the brute-force `ReferenceScan`
//! (one generic `Metric::dist` per pair), for LAF-DBSCAN with the exact
//! estimator at α = 1 and for DBSCAN, under every metric.

use laf_clustering::Dbscan;
use laf_core::{LafConfig, LafDbscan};
use laf_index::{LinearScan, ReferenceScan};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};

fn eps_for(metric: Metric) -> f32 {
    metric.equivalent_threshold(0.25)
}

/// A small set with a dimension that leaves a tail after the 4-wide chunks,
/// and one at the benchmark's dimension.
fn datasets() -> Vec<Dataset> {
    [(260, 10, 77), (400, 64, 79)]
        .into_iter()
        .map(|(n_points, dim, seed)| {
            EmbeddingMixtureConfig {
                n_points,
                dim,
                clusters: 5,
                noise_fraction: 0.2,
                seed,
                ..Default::default()
            }
            .generate()
            .unwrap()
            .0
        })
        .collect()
}

#[test]
fn cluster_with_stats_labels_are_byte_identical_across_kernel_modes() {
    for data in datasets() {
        for metric in Metric::ALL {
            let eps = eps_for(metric);
            let estimator = laf_cardest::ExactEstimator::new(&data, metric);
            let cfg = LafConfig {
                eps,
                metric,
                ..LafConfig::new(eps, 4, 1.0)
            };
            let laf = LafDbscan::new(cfg, &estimator);
            let label = format!("dim {} {metric:?}", data.dim());
            let (scan, scan_stats) =
                laf.cluster_with_stats_using(&data, &LinearScan::new(&data, metric));
            let (reference, reference_stats) =
                laf.cluster_with_stats_using(&data, &ReferenceScan::new(&data, metric));
            assert_eq!(scan.labels(), reference.labels(), "{label}: labels");
            assert!(
                scan.n_clusters() > 1 && scan_stats.skipped_range_queries > 0,
                "{label}: the run should cluster and skip queries"
            );
            assert_eq!(scan_stats, reference_stats, "{label}: gate counters");
            assert_eq!(
                scan.skipped_range_queries, reference.skipped_range_queries,
                "{label}: skipped queries"
            );
            assert_eq!(
                scan.distance_evaluations, reference.distance_evaluations,
                "{label}: evaluation accounting"
            );
        }
    }
}

#[test]
fn dbscan_labels_and_evaluations_match_the_reference_scan() {
    for data in datasets() {
        for metric in Metric::ALL {
            let mut dbscan = Dbscan::with_params(eps_for(metric), 4);
            dbscan.config.metric = metric;
            let label = format!("dim {} {metric:?}", data.dim());
            let scan = dbscan.cluster_with_engine(&data, &LinearScan::new(&data, metric));
            let reference = dbscan.cluster_with_engine(&data, &ReferenceScan::new(&data, metric));
            assert_eq!(scan.labels(), reference.labels(), "{label}: labels");
            assert_eq!(
                scan.skipped_range_queries, reference.skipped_range_queries,
                "{label}: skipped queries"
            );
            assert_eq!(
                scan.distance_evaluations, reference.distance_evaluations,
                "{label}: evaluation accounting"
            );
        }
    }
}
