//! Quickstart: cluster a synthetic embedding dataset with DBSCAN and
//! LAF-DBSCAN and compare quality and work.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use laf::prelude::*;
use std::time::Instant;

fn main() {
    // 1. Generate a small unit-normalized embedding dataset: 1,500 points in
    //    64 dimensions with 20 directional clusters and 30% noise.
    let (data, _planted) = EmbeddingMixtureConfig {
        n_points: 1_500,
        dim: 64,
        clusters: 20,
        spread: 0.07,
        noise_fraction: 0.3,
        seed: 42,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config");
    println!(
        "dataset: {} points, {} dims, unit-normalized: {}",
        data.len(),
        data.dim(),
        data.is_normalized(1e-3)
    );

    let eps = 0.35;
    let tau = 5;

    // 2. Ground truth: the original DBSCAN (this is what the paper compares
    //    every approximate method against).
    let t0 = Instant::now();
    let truth = Dbscan::with_params(eps, tau).cluster(&data);
    let dbscan_time = t0.elapsed();
    println!(
        "DBSCAN      : {:>8.3?}  clusters={:<4} noise_ratio={:.2}  range_queries={}",
        dbscan_time,
        truth.n_clusters(),
        truth.stats().noise_ratio(),
        truth.range_queries
    );

    // 3. Train the learned cardinality estimator on the same data
    //    (the paper trains on an 80% split; the quickstart keeps it simple).
    let t0 = Instant::now();
    let training = TrainingSetBuilder {
        max_queries: Some(500),
        ..Default::default()
    }
    .build(&data, &data)
    .expect("training set");
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::small()));
    println!(
        "estimator   : trained on {} samples in {:.3?} (final MSE {:.4})",
        training.len(),
        t0.elapsed(),
        estimator.report().final_loss
    );

    // 4. LAF-DBSCAN: same ε and τ, error factor α = 1.5.
    let t0 = Instant::now();
    let laf = LafDbscan::new(LafConfig::new(eps, tau, 1.5), estimator);
    let (result, stats) = laf.cluster_with_stats(&data);
    let laf_time = t0.elapsed();

    let ari = adjusted_rand_index(truth.labels(), result.labels());
    let ami = adjusted_mutual_information(truth.labels(), result.labels());
    println!(
        "LAF-DBSCAN  : {:>8.3?}  clusters={:<4} noise_ratio={:.2}  range_queries={} (skipped {})",
        laf_time,
        result.n_clusters(),
        result.stats().noise_ratio(),
        stats.executed_range_queries,
        stats.skipped_range_queries
    );
    println!(
        "quality vs DBSCAN: ARI={:.4}  AMI={:.4}  (1.0 = identical clustering)",
        ari, ami
    );
    println!(
        "work saved: {:.1}% of range queries skipped, {} false negatives repaired by post-processing",
        100.0 * stats.skip_ratio(),
        stats.detected_false_negatives
    );
}
