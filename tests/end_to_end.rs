//! End-to-end integration tests: the full pipeline (synthetic dataset →
//! estimator training → clustering → metrics) on every dataset family the
//! paper evaluates.

use laf::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared tiny catalog so the suite stays fast.
fn catalog() -> DatasetCatalog {
    DatasetCatalog {
        scale: 0.004,
        seed: 1234,
        dim_cap: Some(48),
    }
}

#[test]
fn every_preset_runs_through_the_full_pipeline() {
    let catalog = catalog();
    for name in ["NYT-150k", "Glove-150k", "MS-50k"] {
        let ds = catalog.generate(name).expect("preset generates");
        assert!(ds.data.is_normalized(1e-3), "{name} not normalized");

        let mut rng = StdRng::seed_from_u64(9);
        let (train, test) = ds.data.train_test_split(0.8, &mut rng);

        let training = TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        }
        .build(&train, &train)
        .expect("training set builds");
        let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));

        let eps = 0.4;
        let tau = 3;
        let truth = Dbscan::with_params(eps, tau).cluster(&test);
        let laf = LafDbscan::new(LafConfig::new(eps, tau, 1.0), estimator);
        let (result, stats) = laf.cluster_with_stats(&test);

        assert_eq!(result.len(), test.len(), "{name}: label count");
        let ari = adjusted_rand_index(truth.labels(), result.labels());
        let ami = adjusted_mutual_information(truth.labels(), result.labels());
        assert!(ari > 0.3, "{name}: ARI {ari} unreasonably low");
        assert!(ami > 0.2, "{name}: AMI {ami} unreasonably low");
        assert!(
            stats.cardest_calls > 0,
            "{name}: the estimator gate was never consulted"
        );
    }
}

#[test]
fn laf_dbscan_executes_fewer_range_queries_than_dbscan() {
    let ds = catalog().generate("Glove-150k").expect("preset");
    let eps = 0.4;
    let tau = 3;
    let truth = Dbscan::with_params(eps, tau).cluster(&ds.data);

    let training = TrainingSetBuilder {
        max_queries: Some(150),
        ..Default::default()
    }
    .build(&ds.data, &ds.data)
    .expect("training set");
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
    let (_, stats) =
        LafDbscan::new(LafConfig::new(eps, tau, 1.5), estimator).cluster_with_stats(&ds.data);

    assert!(
        stats.executed_range_queries < truth.range_queries,
        "LAF executed {} range queries, DBSCAN executed {}",
        stats.executed_range_queries,
        truth.range_queries
    );
    assert!(stats.skipped_range_queries > 0);
}

#[test]
fn all_methods_produce_complete_labelings_on_the_same_dataset() {
    let ds = catalog().generate("MS-50k").expect("preset");
    let data = &ds.data;
    let eps = 0.5;
    let tau = 3;

    let training = TrainingSetBuilder {
        max_queries: Some(100),
        ..Default::default()
    }
    .build(data, data)
    .expect("training set");
    let rmi = RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::tiny()));

    let clusterings: Vec<(&str, Clustering)> = vec![
        ("DBSCAN", Dbscan::with_params(eps, tau).cluster(data)),
        (
            "DBSCAN++",
            DbscanPlusPlus::with_params(eps, tau, 0.4).cluster(data),
        ),
        (
            "KNN-BLOCK",
            KnnBlockDbscan::with_params(eps, tau).cluster(data),
        ),
        (
            "BLOCK-DBSCAN",
            BlockDbscan::with_params(eps, tau).cluster(data),
        ),
        (
            "rho-approx",
            RhoApproxDbscan::with_params(eps, tau).cluster(data),
        ),
        (
            "LAF-DBSCAN",
            LafDbscan::new(LafConfig::new(eps, tau, 1.0), &rmi).cluster(data),
        ),
        (
            "LAF-DBSCAN++",
            LafDbscanPlusPlus::new(LafDbscanPlusPlusConfig::new(eps, tau, 0.2), &rmi).cluster(data),
        ),
    ];

    for (name, c) in &clusterings {
        assert_eq!(c.len(), data.len(), "{name}: missing labels");
        // Labels are either noise or a valid compact cluster id.
        let max_label = c.labels().iter().copied().max().unwrap();
        assert!(max_label < data.len() as i64, "{name}: label overflow");
        assert!(
            c.labels().iter().all(|&l| l >= -1),
            "{name}: invalid label below -1"
        );
    }
}

#[test]
fn dbscan_ground_truth_statistics_behave_like_table_2() {
    // The paper's Table 2: as ε grows (τ fixed), the noise ratio falls and
    // clusters merge (fewer, larger clusters) until everything collapses into
    // one cluster.
    let ds = catalog().generate("MS-50k").expect("preset");
    let mut previous_noise = f64::INFINITY;
    let mut ratios = Vec::new();
    for eps in [0.3f32, 0.5, 0.7, 0.95] {
        let c = Dbscan::with_params(eps, 5).cluster(&ds.data);
        let stats = c.stats();
        ratios.push((eps, stats.noise_ratio(), stats.n_clusters));
        assert!(
            stats.noise_ratio() <= previous_noise + 1e-9,
            "noise ratio must not increase with eps: {ratios:?}"
        );
        previous_noise = stats.noise_ratio();
    }
    // At the largest radius nearly everything is clustered together.
    let (_, final_noise, final_clusters) = *ratios.last().unwrap();
    assert!(final_noise < 0.5, "final noise ratio {final_noise}");
    assert!(final_clusters >= 1);
}

#[test]
fn missed_cluster_report_matches_the_table_6_shape() {
    // LAF with a deliberately aggressive alpha fully misses some clusters,
    // but — as in Table 6 — the missed clusters are small.
    let ds = catalog().generate("Glove-150k").expect("preset");
    let eps = 0.4;
    let tau = 3;
    let truth = Dbscan::with_params(eps, tau).cluster(&ds.data);

    let training = TrainingSetBuilder {
        max_queries: Some(150),
        ..Default::default()
    }
    .build(&ds.data, &ds.data)
    .expect("training set");
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
    let aggressive = LafDbscan::new(LafConfig::new(eps, tau, 6.0), estimator).cluster(&ds.data);

    let report = MissedClusterReport::compute(truth.labels(), aggressive.labels());
    assert_eq!(report.total_clusters, truth.n_clusters());
    assert!(report.missed_clusters <= report.total_clusters);
    if report.missed_clusters > 0 {
        // Missed clusters are small relative to the biggest true cluster.
        let largest = truth.stats().largest_cluster() as f64;
        assert!(
            report.avg_missed_cluster_size <= largest,
            "ASMC {} vs largest cluster {largest}",
            report.avg_missed_cluster_size
        );
    }
}
