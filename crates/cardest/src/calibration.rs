//! Estimator calibration and core-prediction error analysis.
//!
//! Section 3.3 of the paper explains its quality results through the number
//! of **false negative** core predictions (5687 / 2010 / 7425 on
//! NYT/Glove/MS-150k at ε = 0.5, τ = 3) and Section 3.2 discusses how the
//! error factor α shifts the balance between false negatives and false
//! positives. This module provides exactly that analysis for any
//! [`CardinalityEstimator`]:
//!
//! * [`QErrorReport`] — the regression view: how far the predicted
//!   cardinalities are from the true ones (mean/median/p95 q-error);
//! * [`CorePredictionReport`] — the classification view: confusion counts of
//!   the thresholded decision `prediction ≥ α·τ` against the ground truth
//!   `count ≥ τ`, which is the decision LAF actually gates range queries on.

use crate::estimator::CardinalityEstimator;
use crate::training::threshold_counts;
use laf_index::{LinearScan, RangeQueryEngine};
use laf_vector::{Dataset, Metric};
use serde::{Deserialize, Serialize};

/// Distribution summary of q-errors (`max(pred, true) / min(pred, true)`,
/// computed on counts offset by 1 so empty neighborhoods are well-defined).
///
/// A NaN or infinite prediction has no q-error: its pair is counted in
/// [`QErrorReport::non_finite`] and left out of the mean, median, p95 and
/// max, which summarize the finite pairs only (all 1.0 when there are none).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QErrorReport {
    /// Number of (query, ε) pairs evaluated, finite or not.
    pub evaluated: usize,
    /// Pairs whose prediction was NaN or ±∞. Reports written before this
    /// field existed decode with 0.
    #[serde(default)]
    pub non_finite: usize,
    /// Arithmetic mean q-error.
    pub mean: f64,
    /// Median q-error.
    pub median: f64,
    /// 95th-percentile q-error.
    pub p95: f64,
    /// Largest q-error observed.
    pub max: f64,
}

/// Confusion counts of the gate decision `estimate ≥ α·τ` versus the truth
/// `true_count ≥ τ`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CorePredictionReport {
    /// Points correctly predicted core.
    pub true_positives: usize,
    /// Points predicted core that are actually stop points (cost: an
    /// unnecessary range query — pure slowdown, no quality loss).
    pub false_positives: usize,
    /// Core points predicted as stop points (cost: potentially split or
    /// missed clusters — the error the post-processing repairs).
    pub false_negatives: usize,
    /// Points correctly predicted as stop points (the saved range queries).
    pub true_negatives: usize,
    /// The α used for the thresholding.
    pub alpha: f32,
    /// The τ used for the thresholding.
    pub tau: usize,
    /// The ε the counts were computed at.
    pub eps: f32,
}

impl CorePredictionReport {
    /// Precision of the core prediction (1.0 when there are no positives).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall of the core prediction (1.0 when there are no true cores).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Fraction of all points whose range query would be skipped.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_negatives + self.false_negatives) as f64 / total as f64
        }
    }

    /// Total number of evaluated points.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }
}

/// Calibrates an estimator against exact counts over a reference dataset.
pub struct EstimatorCalibrator<'a> {
    reference: &'a Dataset,
    metric: Metric,
}

impl<'a> EstimatorCalibrator<'a> {
    /// Calibrate against `reference` under `metric` (cosine in the paper).
    pub fn new(reference: &'a Dataset, metric: Metric) -> Self {
        Self { reference, metric }
    }

    /// Q-error distribution of `estimator` over the given query points and
    /// thresholds. The true counts of one query at all thresholds come from
    /// one pass over the reference rows.
    pub fn q_error(
        &self,
        estimator: &dyn CardinalityEstimator,
        queries: &Dataset,
        thresholds: &[f32],
    ) -> QErrorReport {
        let mut errors: Vec<f64> = Vec::with_capacity(queries.len() * thresholds.len());
        let mut non_finite = 0;
        for q in queries.rows() {
            let truths = threshold_counts(self.reference, self.metric, q, thresholds);
            for (&eps, truth) in thresholds.iter().zip(truths) {
                let estimate = estimator.estimate(q, eps);
                if !estimate.is_finite() {
                    non_finite += 1;
                    continue;
                }
                let predicted = estimate.max(0.0) as f64 + 1.0;
                let truth = truth as f64 + 1.0;
                errors.push(predicted.max(truth) / predicted.min(truth));
            }
        }
        summarize(errors, non_finite)
    }

    /// Confusion counts of the gate decision at `(eps, tau, alpha)` over the
    /// given query points.
    pub fn core_prediction(
        &self,
        estimator: &dyn CardinalityEstimator,
        queries: &Dataset,
        eps: f32,
        tau: usize,
        alpha: f32,
    ) -> CorePredictionReport {
        let scan = LinearScan::new(self.reference, self.metric);
        let threshold = alpha * tau as f32;
        let mut report = CorePredictionReport {
            alpha,
            tau,
            eps,
            ..Default::default()
        };
        for q in queries.rows() {
            let predicted_core = {
                let est = estimator.estimate(q, eps);
                !est.is_finite() || est >= threshold
            };
            let actually_core = scan.range_count(q, eps) >= tau;
            match (predicted_core, actually_core) {
                (true, true) => report.true_positives += 1,
                (true, false) => report.false_positives += 1,
                (false, true) => report.false_negatives += 1,
                (false, false) => report.true_negatives += 1,
            }
        }
        report
    }

    /// Sweep α and report the confusion counts at each value — the data
    /// behind the paper's "α controls the FP/FN balance" discussion.
    pub fn alpha_sweep(
        &self,
        estimator: &dyn CardinalityEstimator,
        queries: &Dataset,
        eps: f32,
        tau: usize,
        alphas: &[f32],
    ) -> Vec<CorePredictionReport> {
        alphas
            .iter()
            .map(|&a| self.core_prediction(estimator, queries, eps, tau, a))
            .collect()
    }
}

fn summarize(mut errors: Vec<f64>, non_finite: usize) -> QErrorReport {
    if errors.is_empty() {
        return QErrorReport {
            evaluated: non_finite,
            non_finite,
            mean: 1.0,
            median: 1.0,
            p95: 1.0,
            max: 1.0,
        };
    }
    errors.sort_by(|a, b| a.total_cmp(b));
    let n = errors.len();
    let mean = errors.iter().sum::<f64>() / n as f64;
    let pct = |p: f64| errors[((n as f64 - 1.0) * p).round() as usize];
    QErrorReport {
        evaluated: n + non_finite,
        non_finite,
        mean,
        median: pct(0.5),
        p95: pct(0.95),
        max: errors[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantEstimator, ExactEstimator};
    use laf_synth::EmbeddingMixtureConfig;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 180,
            dim: 8,
            clusters: 4,
            noise_fraction: 0.25,
            seed: 19,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn exact_estimator_has_perfect_q_error_and_confusion() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let exact = ExactEstimator::new(&d, Metric::Cosine);
        let q = calibrator.q_error(&exact, &d, &[0.2, 0.5, 0.8]);
        assert_eq!(q.evaluated, d.len() * 3);
        assert!((q.mean - 1.0).abs() < 1e-9);
        assert!((q.max - 1.0).abs() < 1e-9);

        let report = calibrator.core_prediction(&exact, &d, 0.4, 4, 1.0);
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.total(), d.len());
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn zero_estimator_is_all_false_negatives() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let zero = ConstantEstimator::new(0.0);
        let report = calibrator.core_prediction(&zero, &d, 0.4, 4, 1.0);
        assert_eq!(report.true_positives, 0);
        assert_eq!(report.false_positives, 0);
        assert!(report.false_negatives > 0);
        assert_eq!(report.recall(), 0.0);
        assert_eq!(report.precision(), 1.0);
        assert!(report.skip_ratio() > 0.99);
    }

    #[test]
    fn infinite_estimator_is_all_positives() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let inf = ConstantEstimator::new(f32::INFINITY);
        let report = calibrator.core_prediction(&inf, &d, 0.4, 4, 1.0);
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.true_negatives, 0);
        assert_eq!(report.skip_ratio(), 0.0);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn larger_alpha_increases_false_negatives_for_a_scaled_oracle() {
        // A half-scale oracle behaves like a learned estimator with a
        // systematic under-prediction; increasing alpha must then produce
        // (weakly) more false negatives and fewer false positives.
        struct Half<'a>(ExactEstimator<'a>);
        impl CardinalityEstimator for Half<'_> {
            fn estimate(&self, q: &[f32], eps: f32) -> f32 {
                self.0.estimate(q, eps) * 0.5
            }
            fn name(&self) -> &'static str {
                "half"
            }
        }
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let est = Half(ExactEstimator::new(&d, Metric::Cosine));
        let sweep = calibrator.alpha_sweep(&est, &d, 0.4, 4, &[0.25, 0.5, 1.0, 2.0, 4.0]);
        assert_eq!(sweep.len(), 5);
        for w in sweep.windows(2) {
            assert!(w[1].false_negatives >= w[0].false_negatives, "{sweep:?}");
            assert!(w[1].false_positives <= w[0].false_positives, "{sweep:?}");
        }
    }

    #[test]
    fn q_error_of_a_biased_estimator_is_above_one() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let biased = ConstantEstimator::new(1.0);
        let q = calibrator.q_error(&biased, &d, &[0.9]);
        assert!(q.mean > 1.0);
        assert!(q.p95 >= q.median);
        assert!(q.max >= q.p95);
    }

    #[test]
    fn non_finite_predictions_are_counted_and_left_out_of_the_q_errors() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let thresholds = [0.2, 0.5, 0.8];
        let pairs = d.len() * thresholds.len();
        let nan = calibrator.q_error(&ConstantEstimator::new(f32::NAN), &d, &thresholds);
        assert_eq!((nan.evaluated, nan.non_finite), (pairs, pairs));
        assert_eq!(
            (nan.mean, nan.median, nan.p95, nan.max),
            (1.0, 1.0, 1.0, 1.0)
        );

        // Queries with a positive first coordinate predict NaN: the other
        // pairs keep the exact estimator's perfect q-errors.
        struct PartlyNan<'a>(ExactEstimator<'a>);
        impl CardinalityEstimator for PartlyNan<'_> {
            fn estimate(&self, q: &[f32], eps: f32) -> f32 {
                if q[0] > 0.0 {
                    f32::NAN
                } else {
                    self.0.estimate(q, eps)
                }
            }
            fn name(&self) -> &'static str {
                "partly-nan"
            }
        }
        let positive = d.rows().filter(|q| q[0] > 0.0).count();
        assert!(positive > 0 && positive < d.len());
        let partly = PartlyNan(ExactEstimator::new(&d, Metric::Cosine));
        let q = calibrator.q_error(&partly, &d, &thresholds);
        assert_eq!(q.evaluated, pairs);
        assert_eq!(q.non_finite, positive * thresholds.len());
        assert_eq!((q.mean, q.max), (1.0, 1.0));

        // Reports written before the field existed decode with 0.
        let old = r#"{"evaluated":3,"mean":2.0,"median":2.0,"p95":3.0,"max":3.0}"#;
        let back: QErrorReport = serde_json::from_str(old).unwrap();
        assert_eq!((back.evaluated, back.non_finite), (3, 0));
    }

    #[test]
    fn empty_query_set_is_well_defined() {
        let d = data();
        let calibrator = EstimatorCalibrator::new(&d, Metric::Cosine);
        let exact = ExactEstimator::new(&d, Metric::Cosine);
        let empty = Dataset::new(8).unwrap();
        let q = calibrator.q_error(&exact, &empty, &[0.5]);
        assert_eq!(q.evaluated, 0);
        assert_eq!(q.mean, 1.0);
        let report = calibrator.core_prediction(&exact, &empty, 0.5, 3, 1.0);
        assert_eq!(report.total(), 0);
        assert_eq!(report.skip_ratio(), 0.0);
    }
}
