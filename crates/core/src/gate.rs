//! The cardinality-estimation gate placed in front of every range query.

use crate::config::LafConfig;
use laf_cardest::CardinalityEstimator;
use laf_vector::Dataset;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of points fed to [`laf_cardest::CardinalityEstimator::estimate_batch`]
/// per prescan batch. Batches are distributed over the rayon thread pool, so
/// this bounds both the matrix size of the RMI's forward passes and the
/// granularity of the parallel split.
pub const PRESCAN_BATCH: usize = 256;

/// Outcome of one gate decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// The estimator predicts a stop point: the range query may be skipped.
    Skip,
    /// The range query must be executed (predicted core, or the prediction
    /// was non-finite and the gate fell back to executing).
    Execute,
}

/// Precomputed gate decisions for every point of a dataset, produced by
/// [`CardEstGate::prescan`].
///
/// The decisions are indexed by dataset row. Consuming a decision through
/// [`CardEstGate::decide`] updates the gate's call/skip counters exactly as a
/// sequential [`CardEstGate::predicts_stop_point`] call would, so the
/// bookkeeping (and therefore [`crate::LafStats`]) is identical between the
/// prescan-driven and the point-at-a-time execution models.
#[derive(Debug, Clone)]
pub struct Prescan {
    decisions: Vec<GateDecision>,
    /// Number of estimator batches the prescan issued.
    pub batches: u64,
    /// Size of every batch except possibly the last: the prescanned row count
    /// capped at [`PRESCAN_BATCH`] (0 when nothing was prescanned).
    pub batch_size: u64,
    /// Size of the final batch actually fed to `estimate_batch`. Equals
    /// [`Prescan::batch_size`] when the row count divides evenly into full
    /// batches; smaller when the tail batch is short; 0 when nothing was
    /// prescanned.
    pub last_batch_size: u64,
}

impl Prescan {
    /// Decision for dataset row `idx`, without touching any counters.
    pub fn decision(&self, idx: usize) -> GateDecision {
        self.decisions[idx]
    }

    /// Number of prescanned points.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when no points were prescanned.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of points predicted to be stop points.
    pub fn predicted_stop_points(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| **d == GateDecision::Skip)
            .count()
    }
}

/// Wraps a [`CardinalityEstimator`] together with the `α·τ` skip threshold
/// and counts how the gate decided.
///
/// The gate answers one question: *may the range query for this point be
/// skipped?* It may be skipped exactly when the predicted cardinality is
/// finite and below `α·τ` (lines 6 and 22 of Algorithm 1). Non-finite
/// predictions (a failing estimator) conservatively execute the query, so a
/// broken model can never corrupt the clustering — only slow it down.
///
/// Counters are atomic (relaxed), so a gate shared across threads — e.g.
/// during the parallel [`CardEstGate::prescan`] — stays consistent.
pub struct CardEstGate<'a> {
    estimator: &'a dyn CardinalityEstimator,
    eps: f32,
    threshold: f32,
    calls: AtomicU64,
    skips: AtomicU64,
}

impl<'a> CardEstGate<'a> {
    /// Build the gate for one clustering run.
    pub fn new(estimator: &'a dyn CardinalityEstimator, config: &LafConfig) -> Self {
        Self {
            estimator,
            eps: config.eps,
            threshold: config.skip_threshold(),
            calls: AtomicU64::new(0),
            skips: AtomicU64::new(0),
        }
    }

    /// Classify one raw prediction. `Skip` exactly when the prediction is
    /// finite and below the `α·τ` threshold.
    fn classify(&self, prediction: f32) -> GateDecision {
        if prediction.is_finite() && prediction < self.threshold {
            GateDecision::Skip
        } else {
            GateDecision::Execute
        }
    }

    /// `true` when the estimator predicts `query` is a stop point
    /// (non-core / noise) and its range query can be skipped.
    pub fn predicts_stop_point(&self, query: &[f32]) -> bool {
        let prediction = self.estimator.estimate(query, self.eps);
        self.record(self.classify(prediction))
    }

    /// Batch-predict the cardinality of **every** dataset row up front.
    ///
    /// Rows are chunked into [`PRESCAN_BATCH`]-sized batches, the batches are
    /// fanned out over the current rayon thread pool, and each batch runs one
    /// [`CardinalityEstimator::estimate_batch`] call (for the RMI, one
    /// matrix-shaped forward pass per model and stage). Because `estimate_batch` is
    /// bit-exact with per-query `estimate`, the returned decisions are
    /// byte-identical to what the sequential gate would have decided at each
    /// point — Algorithm 1 consumes them via [`CardEstGate::decide`] without
    /// any behavioral difference.
    ///
    /// The call/skip counters are **not** advanced here: a prescan is a
    /// prediction pass, not a decision pass. Counters advance when the
    /// clustering loop actually consumes a decision, keeping
    /// `calls == skips + executed` regardless of execution model.
    ///
    /// Both batched estimator paths run on the exact register tiles of
    /// `laf_vector::tile`: each RMI model's `predict_batch` scores its weight
    /// rows, four per `ProbeBlock` call, against up to sixteen batch
    /// activations, and
    /// the exact oracle's `range_count_batch` goes through the linear
    /// scan's packed probe block — so the prescan inherits the kernel
    /// layer's speedups without any change here.
    pub fn prescan(&self, data: &Dataset) -> Prescan {
        let rows: Vec<&[f32]> = data.rows().collect();
        self.prescan_rows(&rows)
    }

    /// Batch-predict the cardinality of an explicit row subset. Decisions are
    /// indexed by **position in `rows`**, not by dataset row — LAF-DBSCAN++
    /// uses this to prescan only its sampled points, so the estimator cost
    /// stays proportional to the sample size the algorithm's sampling exists
    /// to achieve. Same batching, parallelism and counter semantics as
    /// [`CardEstGate::prescan`].
    pub fn prescan_rows(&self, rows: &[&[f32]]) -> Prescan {
        let decisions: Vec<Vec<GateDecision>> = rows
            .par_chunks(PRESCAN_BATCH)
            .map(|batch| {
                self.estimator
                    .estimate_batch(batch, self.eps)
                    .into_iter()
                    .map(|p| self.classify(p))
                    .collect()
            })
            .collect();
        let batches = decisions.len() as u64;
        // Per-run batch accounting: every batch is PRESCAN_BATCH long (capped
        // at the row count) except the final one, which holds the remainder.
        let last_batch_size = match rows.len() % PRESCAN_BATCH {
            0 => rows.len().min(PRESCAN_BATCH) as u64,
            tail => tail as u64,
        };
        Prescan {
            decisions: decisions.into_iter().flatten().collect(),
            batches,
            batch_size: rows.len().min(PRESCAN_BATCH) as u64,
            last_batch_size,
        }
    }

    /// Consume the prescanned decision for row `idx`: returns `true` when
    /// the range query may be skipped, advancing the call/skip counters
    /// exactly like [`CardEstGate::predicts_stop_point`].
    pub fn decide(&self, prescan: &Prescan, idx: usize) -> bool {
        self.record(prescan.decision(idx))
    }

    fn record(&self, decision: GateDecision) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let skip = decision == GateDecision::Skip;
        if skip {
            self.skips.fetch_add(1, Ordering::Relaxed);
        }
        skip
    }

    /// Number of gate decisions made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Number of decisions that skipped the range query.
    pub fn skips(&self) -> u64 {
        self.skips.load(Ordering::Relaxed)
    }

    /// The `α·τ` threshold in use.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{ConstantEstimator, ExactEstimator};
    use laf_vector::Metric;

    #[test]
    fn gate_skips_below_threshold_only() {
        let cfg = LafConfig::new(0.5, 5, 2.0); // threshold 10
        let low = ConstantEstimator::new(3.0);
        let gate = CardEstGate::new(&low, &cfg);
        assert!(gate.predicts_stop_point(&[0.0]));
        assert_eq!(gate.threshold(), 10.0);

        let high = ConstantEstimator::new(50.0);
        let gate = CardEstGate::new(&high, &cfg);
        assert!(!gate.predicts_stop_point(&[0.0]));
        assert_eq!(gate.calls(), 1);
        assert_eq!(gate.skips(), 0);
    }

    #[test]
    fn non_finite_predictions_never_skip() {
        let cfg = LafConfig::new(0.5, 3, 1.0);
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let broken = ConstantEstimator::new(value);
            let gate = CardEstGate::new(&broken, &cfg);
            // NEG_INFINITY is non-finite too: still execute the query.
            assert!(!gate.predicts_stop_point(&[1.0]), "value {value}");
        }
    }

    #[test]
    fn counters_accumulate() {
        let cfg = LafConfig::new(0.5, 3, 1.0);
        let est = ConstantEstimator::new(0.0);
        let gate = CardEstGate::new(&est, &cfg);
        for _ in 0..5 {
            assert!(gate.predicts_stop_point(&[0.0]));
        }
        assert_eq!(gate.calls(), 5);
        assert_eq!(gate.skips(), 5);
    }

    #[test]
    fn prescan_matches_sequential_decisions_and_counts_nothing() {
        let mut data = laf_vector::Dataset::new(2).unwrap();
        for i in 0..600 {
            let angle = i as f32 * 0.01;
            data.push(&[angle.cos(), angle.sin()]).unwrap();
        }
        let est = ExactEstimator::new(&data, Metric::Cosine);
        let cfg = LafConfig::new(0.05, 30, 1.0);
        let gate = CardEstGate::new(&est, &cfg);

        let prescan = gate.prescan(&data);
        assert_eq!(prescan.len(), data.len());
        assert!(prescan.batches >= 2, "600 points should span >= 2 batches");
        assert_eq!(prescan.batch_size, PRESCAN_BATCH as u64);
        // 600 = 2 full batches of 256 + a short tail of 88: the accounting
        // must report the tail, not the capped first-batch size.
        assert_eq!(prescan.batches, 3);
        assert_eq!(prescan.last_batch_size, 88);
        // Prescan does not advance the decision counters.
        assert_eq!(gate.calls(), 0);
        assert_eq!(gate.skips(), 0);

        // Every prescanned decision equals the sequential gate decision, and
        // consuming them advances the counters identically.
        for i in 0..data.len() {
            let sequential = gate.predicts_stop_point(data.row(i));
            let precomputed = gate.decide(&prescan, i);
            assert_eq!(sequential, precomputed, "row {i}");
        }
        assert_eq!(gate.calls(), 2 * data.len() as u64);
    }

    #[test]
    fn prescan_counts_predicted_stop_points() {
        let mut data = laf_vector::Dataset::new(2).unwrap();
        data.push(&[1.0, 0.0]).unwrap();
        data.push(&[0.0, 1.0]).unwrap();
        let zero = ConstantEstimator::new(0.0);
        let cfg = LafConfig::new(0.5, 3, 1.0);
        let gate = CardEstGate::new(&zero, &cfg);
        let prescan = gate.prescan(&data);
        assert!(!prescan.is_empty());
        assert_eq!(prescan.predicted_stop_points(), 2);
        assert_eq!(prescan.decision(0), GateDecision::Skip);
        // A single short batch: full and last sizes coincide.
        assert_eq!(prescan.batches, 1);
        assert_eq!(prescan.batch_size, 2);
        assert_eq!(prescan.last_batch_size, 2);
    }

    #[test]
    fn prescan_batch_accounting_on_exact_multiples_and_empty_sets() {
        let zero = ConstantEstimator::new(0.0);
        let cfg = LafConfig::new(0.5, 3, 1.0);
        let gate = CardEstGate::new(&zero, &cfg);

        // Exactly 2 full batches: the last batch is a full one.
        let row = vec![1.0f32, 0.0];
        let rows: Vec<&[f32]> = (0..2 * PRESCAN_BATCH).map(|_| row.as_slice()).collect();
        let prescan = gate.prescan_rows(&rows);
        assert_eq!(prescan.batches, 2);
        assert_eq!(prescan.batch_size, PRESCAN_BATCH as u64);
        assert_eq!(prescan.last_batch_size, PRESCAN_BATCH as u64);

        // Nothing prescanned: all counts are zero.
        let prescan = gate.prescan_rows(&[]);
        assert!(prescan.is_empty());
        assert_eq!(prescan.batches, 0);
        assert_eq!(prescan.batch_size, 0);
        assert_eq!(prescan.last_batch_size, 0);
    }
}
