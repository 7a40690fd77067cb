//! The estimator abstraction plus the oracle / failure-injection estimators.

use laf_index::{LinearScan, RangeQueryEngine};
use laf_vector::{Dataset, Metric};

/// Predicts the number of dataset points within distance `eps` of `query`
/// **without executing the range query**.
///
/// LAF compares the prediction against `α·τ` (error factor times the DBSCAN
/// neighbor threshold) to decide whether the range query can be skipped.
pub trait CardinalityEstimator: Send + Sync {
    /// Predicted number of neighbors of `query` within `eps`.
    ///
    /// Implementations should return a non-negative finite value; the LAF
    /// layer treats non-finite predictions as "don't know" and falls back to
    /// executing the range query.
    fn estimate(&self, query: &[f32], eps: f32) -> f32;

    /// Predictions for a whole batch of queries at once, element-for-element
    /// identical (bit-exact) to calling [`CardinalityEstimator::estimate`]
    /// per query.
    ///
    /// The default implementation is the sequential loop (used by the
    /// traditional baselines and the failure-injection estimators);
    /// [`crate::RmiEstimator`] overrides it with matrix-shaped forward passes
    /// over the whole query batch, one per model and stage, and
    /// [`ExactEstimator`] forwards to the engine's blocked counting kernel.
    /// The LAF gate's prescan feeds entire datasets through this entry point.
    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        queries.iter().map(|q| self.estimate(q, eps)).collect()
    }

    /// Short name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Number of predictions served so far (diagnostics). Implementations
    /// that do not track this return `None`.
    fn predictions(&self) -> Option<u64> {
        None
    }
}

/// A regressed `ln(1 + count)` mapped back to a count: `expm1`, clamped at
/// zero. NaN stays NaN, so the gate reads a broken network's prediction as
/// "don't know" and executes the query; every other output keeps the bits
/// of `expm1(..).max(0.0)`.
pub(crate) fn count_from_log(log_count: f32) -> f32 {
    let count = log_count.exp_m1();
    if count.is_nan() {
        count
    } else {
        count.max(0.0)
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for &T {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        (**self).estimate(query, eps)
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        (**self).estimate_batch(queries, eps)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predictions(&self) -> Option<u64> {
        (**self).predictions()
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for Box<T> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        (**self).estimate(query, eps)
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        (**self).estimate_batch(queries, eps)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predictions(&self) -> Option<u64> {
        (**self).predictions()
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for std::sync::Arc<T> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        (**self).estimate(query, eps)
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        (**self).estimate_batch(queries, eps)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predictions(&self) -> Option<u64> {
        (**self).predictions()
    }
}

/// Oracle estimator: runs the actual range count. Useful for tests (LAF with
/// an exact oracle and α = 1 must reproduce DBSCAN exactly) and as an upper
/// bound in ablations. Obviously provides no speedup.
pub struct ExactEstimator<'a> {
    scan: LinearScan<'a>,
}

impl<'a> ExactEstimator<'a> {
    /// Build the oracle over `data` with the given metric.
    pub fn new(data: &'a Dataset, metric: Metric) -> Self {
        Self {
            scan: LinearScan::new(data, metric),
        }
    }
}

impl CardinalityEstimator for ExactEstimator<'_> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.scan.range_count(query, eps) as f32
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        self.scan
            .range_count_batch(queries, eps)
            .into_iter()
            .map(|c| c as f32)
            .collect()
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// Failure-injection estimator: always answers the same value, regardless of
/// the query. `ConstantEstimator::new(0.0)` makes LAF predict every point as
/// a stop point; `f32::INFINITY` makes it predict every point as core (i.e.
/// degrade to plain DBSCAN); `f32::NAN` exercises the non-finite fallback.
#[derive(Debug, Clone, Copy)]
pub struct ConstantEstimator {
    value: f32,
}

impl ConstantEstimator {
    /// Estimator that always answers `value`.
    pub fn new(value: f32) -> Self {
        Self { value }
    }
}

impl CardinalityEstimator for ConstantEstimator {
    fn estimate(&self, _query: &[f32], _eps: f32) -> f32 {
        self.value
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        let mut d = Dataset::from_rows(vec![
            vec![1.0f32, 0.0],
            vec![0.99, 0.14],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
        ])
        .unwrap();
        d.normalize();
        d
    }

    #[test]
    fn exact_estimator_counts_exactly() {
        let d = data();
        let est = ExactEstimator::new(&d, Metric::Cosine);
        assert_eq!(est.estimate(d.row(0), 0.05), 2.0);
        assert_eq!(est.estimate(d.row(0), 1.5), 3.0);
        assert_eq!(est.estimate(d.row(0), 2.5), 4.0);
        assert_eq!(est.name(), "exact");
        assert!(est.predictions().is_none());
    }

    #[test]
    fn constant_estimator_ignores_input() {
        let d = data();
        let zero = ConstantEstimator::new(0.0);
        let inf = ConstantEstimator::new(f32::INFINITY);
        assert_eq!(zero.estimate(d.row(0), 0.5), 0.0);
        assert_eq!(zero.estimate(d.row(3), 2.0), 0.0);
        assert_eq!(inf.estimate(d.row(1), 0.1), f32::INFINITY);
        assert_eq!(zero.name(), "constant");
    }
}
