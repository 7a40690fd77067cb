//! Plugging a custom cardinality estimator into LAF.
//!
//! The framework is generic over [`CardinalityEstimator`], so anything that
//! can guess a neighbor count — a heuristic, an external model server, a
//! cached lookup table — can gate DBSCAN's range queries. This example
//! implements a tiny domain-specific estimator (distance to a set of pivot
//! points → interpolated count) and compares it against the exact oracle and
//! the learned estimator (a one-stage RMI: one MLP), including the
//! false-negative analysis the paper uses to explain quality differences.
//!
//! ```bash
//! cargo run --release --example custom_estimator
//! ```

use laf::cardest::calibration::EstimatorCalibrator;
use laf::prelude::*;

/// A pivot-based estimator: remembers `k` pivot points and, for each pivot,
/// the average cardinality of training points near it at each threshold.
/// Queries are answered from the nearest pivot's table. Cheap, query
/// sensitive, but much cruder than the learned models.
struct PivotEstimator {
    pivots: Vec<Vec<f32>>,
    thresholds: Vec<f32>,
    /// `tables[p][t]` = average cardinality near pivot `p` at threshold `t`.
    tables: Vec<Vec<f32>>,
}

impl PivotEstimator {
    fn train(data: &Dataset, thresholds: &[f32], n_pivots: usize) -> Self {
        let scan = LinearScan::new(data, Metric::Cosine);
        let stride = (data.len() / n_pivots.max(1)).max(1);
        let mut pivots = Vec::new();
        let mut tables = Vec::new();
        for i in (0..data.len()).step_by(stride).take(n_pivots) {
            let pivot = data.row(i).to_vec();
            let table: Vec<f32> = thresholds
                .iter()
                .map(|&eps| scan.range_count(&pivot, eps) as f32)
                .collect();
            pivots.push(pivot);
            tables.push(table);
        }
        Self {
            pivots,
            thresholds: thresholds.to_vec(),
            tables,
        }
    }
}

impl CardinalityEstimator for PivotEstimator {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        // Nearest pivot under cosine distance.
        let (best, _) = self
            .pivots
            .iter()
            .enumerate()
            .map(|(i, p)| (i, Metric::Cosine.dist(query, p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one pivot");
        // Nearest threshold in the table.
        let (slot, _) = self
            .thresholds
            .iter()
            .enumerate()
            .map(|(i, t)| (i, (t - eps).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one threshold");
        self.tables[best][slot]
    }

    fn name(&self) -> &'static str {
        "pivot"
    }
}

fn main() {
    let (data, _) = EmbeddingMixtureConfig {
        n_points: 1_200,
        dim: 48,
        clusters: 15,
        spread: 0.08,
        noise_fraction: 0.3,
        seed: 3,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config");

    let eps = 0.35;
    let tau = 4;
    let thresholds = TrainingSetBuilder::paper_thresholds();

    // Train all three estimators.
    let pivot = PivotEstimator::train(&data, &thresholds, 32);
    let training = TrainingSetBuilder {
        max_queries: Some(400),
        ..Default::default()
    }
    .build(&data, &data)
    .expect("training set");
    let learned = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::small()));
    let exact = ExactEstimator::new(&data, Metric::Cosine);

    // Core-prediction error analysis (the paper's Section 3.3 lens).
    let calibrator = EstimatorCalibrator::new(&data, Metric::Cosine);
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "estimator", "FN", "FP", "precision", "recall", "skip%"
    );
    let estimators: Vec<(&str, &dyn CardinalityEstimator)> =
        vec![("exact", &exact), ("rmi", &learned), ("pivot", &pivot)];
    for (name, est) in &estimators {
        let report = calibrator.core_prediction(*est, &data, eps, tau, 1.0);
        println!(
            "{:<10} {:>8} {:>8} {:>10.3} {:>10.3} {:>9.1}%",
            name,
            report.false_negatives,
            report.false_positives,
            report.precision(),
            report.recall(),
            100.0 * report.skip_ratio()
        );
    }

    // Cluster with each estimator and compare against DBSCAN.
    let truth = Dbscan::with_params(eps, tau).cluster(&data);
    println!(
        "\n{:<22} {:>8} {:>8} {:>10}",
        "method", "ARI", "AMI", "skipped"
    );
    for (name, result, skipped) in [
        {
            let (c, s) =
                LafDbscan::new(LafConfig::new(eps, tau, 1.0), &exact).cluster_with_stats(&data);
            ("LAF-DBSCAN + exact", c, s.skipped_range_queries)
        },
        {
            let (c, s) =
                LafDbscan::new(LafConfig::new(eps, tau, 1.0), &learned).cluster_with_stats(&data);
            ("LAF-DBSCAN + rmi", c, s.skipped_range_queries)
        },
        {
            let (c, s) =
                LafDbscan::new(LafConfig::new(eps, tau, 1.0), &pivot).cluster_with_stats(&data);
            ("LAF-DBSCAN + pivot", c, s.skipped_range_queries)
        },
    ] {
        println!(
            "{:<22} {:>8.4} {:>8.4} {:>10}",
            name,
            adjusted_rand_index(truth.labels(), result.labels()),
            adjusted_mutual_information(truth.labels(), result.labels()),
            skipped
        );
    }
    println!(
        "\n(any CardinalityEstimator implementation slots into the same gate; its FN/FP balance \
         directly controls the speed-quality trade-off, which is the paper's central argument.)"
    );
}
