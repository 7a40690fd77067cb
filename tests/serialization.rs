//! Round-trip tests for everything that can be persisted: datasets (binary
//! and JSON), trained estimators, configurations and clustering results.

use laf::prelude::*;
use laf::vector::io;

fn small_data() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 150,
        dim: 10,
        clusters: 4,
        noise_fraction: 0.2,
        seed: 3,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

#[test]
fn dataset_binary_and_json_files_round_trip() {
    let data = small_data();
    let dir = std::env::temp_dir().join("laf_integration_io");
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("ds.lafv");
    let json = dir.join("ds.json");

    io::save_binary(&data, &bin).unwrap();
    io::save_json(&data, &json).unwrap();
    assert_eq!(io::load_binary(&bin).unwrap(), data);
    assert_eq!(io::load_json(&json).unwrap(), data);

    std::fs::remove_file(bin).ok();
    std::fs::remove_file(json).ok();
}

#[test]
fn trained_estimators_round_trip_through_json() {
    let data = small_data();
    let training = TrainingSetBuilder {
        max_queries: Some(80),
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();

    let one_stage = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
    let rmi = RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::tiny()));
    let hist = HistogramEstimator::from_training(&training);

    let one_stage_back: RmiEstimator =
        serde_json::from_str(&serde_json::to_string(&one_stage).unwrap()).unwrap();
    let rmi_back: RmiEstimator =
        serde_json::from_str(&serde_json::to_string(&rmi).unwrap()).unwrap();
    let hist_back: HistogramEstimator =
        serde_json::from_str(&serde_json::to_string(&hist).unwrap()).unwrap();

    for i in (0..data.len()).step_by(13) {
        let q = data.row(i);
        for eps in [0.2f32, 0.5, 0.8] {
            assert_eq!(one_stage.estimate(q, eps), one_stage_back.estimate(q, eps));
            assert_eq!(rmi.estimate(q, eps), rmi_back.estimate(q, eps));
            assert_eq!(hist.estimate(q, eps), hist_back.estimate(q, eps));
        }
    }
}

#[test]
fn persisted_estimator_produces_identical_clustering() {
    let data = small_data();
    let training = TrainingSetBuilder {
        max_queries: Some(80),
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
    let restored: RmiEstimator =
        serde_json::from_str(&serde_json::to_string(&estimator).unwrap()).unwrap();

    let a = LafDbscan::new(LafConfig::new(0.35, 3, 1.0), estimator).cluster(&data);
    let b = LafDbscan::new(LafConfig::new(0.35, 3, 1.0), restored).cluster(&data);
    assert_eq!(a.labels(), b.labels());
}

#[test]
fn configurations_and_results_serialize() {
    let laf_cfg = LafConfig::new(0.55, 5, 7.7);
    let back: LafConfig = serde_json::from_str(&serde_json::to_string(&laf_cfg).unwrap()).unwrap();
    assert_eq!(laf_cfg, back);

    let pp_cfg = LafDbscanPlusPlusConfig::new(0.5, 3, 0.25);
    let back: LafDbscanPlusPlusConfig =
        serde_json::from_str(&serde_json::to_string(&pp_cfg).unwrap()).unwrap();
    assert_eq!(pp_cfg, back);

    let dbscan_cfg = DbscanConfig {
        eps: 0.5,
        min_pts: 5,
        metric: Metric::Cosine,
        engine: EngineChoice::KMeansTree {
            branching: 10,
            leaf_ratio: 0.6,
        },
    };
    let back: DbscanConfig =
        serde_json::from_str(&serde_json::to_string(&dbscan_cfg).unwrap()).unwrap();
    assert_eq!(dbscan_cfg, back);

    let data = small_data();
    let clustering = Dbscan::with_params(0.35, 3).cluster(&data);
    let back: Clustering =
        serde_json::from_str(&serde_json::to_string(&clustering).unwrap()).unwrap();
    assert_eq!(clustering.labels(), back.labels());

    let report = MissedClusterReport::compute(clustering.labels(), clustering.labels());
    let back: MissedClusterReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(report, back);
}

#[test]
fn snapshot_round_trips_with_bit_exact_estimates() {
    let data = small_data();
    let pipeline = LafPipeline::builder(LafConfig::new(0.35, 3, 1.0))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(80),
            ..Default::default()
        })
        .train(data)
        .unwrap();
    let bytes = pipeline.to_snapshot_bytes().unwrap();
    let warm = LafPipeline::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(warm.config(), pipeline.config());
    assert_eq!(warm.data(), pipeline.data());
    for i in (0..pipeline.data().len()).step_by(13) {
        let q = pipeline.data().row(i);
        for eps in [0.2f32, 0.5, 0.8] {
            assert_eq!(
                pipeline.estimate(q, eps).to_bits(),
                warm.estimate(q, eps).to_bits(),
                "row {i} eps {eps}"
            );
        }
    }
    assert_eq!(pipeline.cluster().labels(), warm.cluster().labels());
}

#[test]
fn training_set_round_trips() {
    let data = small_data();
    let ts = TrainingSetBuilder {
        max_queries: Some(20),
        thresholds: vec![0.3, 0.6],
        ..Default::default()
    }
    .build(&data, &data)
    .unwrap();
    let back: TrainingSet = serde_json::from_str(&serde_json::to_string(&ts).unwrap()).unwrap();
    assert_eq!(ts, back);
}
