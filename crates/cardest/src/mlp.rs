//! Single-MLP learned cardinality estimator.

use crate::estimator::{count_from_log, CardinalityEstimator};
use crate::nn::{Mlp, NetConfig, TrainReport};
use crate::training::TrainingSet;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A cardinality estimator backed by one multi-layer perceptron.
///
/// The network regresses `ln(1 + cardinality)` from the concatenation of the
/// query vector and the distance threshold; [`CardinalityEstimator::estimate`]
/// maps the prediction back through `expm1` and clamps it to be non-negative
/// (a NaN prediction stays NaN, so the gate executes the query).
/// This is both a building block of the paper's RMI ([`crate::RmiEstimator`])
/// and a natural single-model ablation.
#[derive(Debug, Serialize, Deserialize)]
pub struct MlpEstimator {
    net: Mlp,
    data_dim: usize,
    report: TrainReport,
    #[serde(skip)]
    predictions: AtomicU64,
}

impl Clone for MlpEstimator {
    fn clone(&self) -> Self {
        Self {
            net: self.net.clone(),
            data_dim: self.data_dim,
            report: self.report,
            predictions: AtomicU64::new(self.predictions.load(Ordering::Relaxed)),
        }
    }
}

impl MlpEstimator {
    /// Train an estimator on a prepared [`TrainingSet`].
    ///
    /// # Panics
    /// Panics if the training set is empty (there is nothing to learn from);
    /// callers construct training sets through [`crate::TrainingSetBuilder`],
    /// which never produces an empty set for non-empty data.
    pub fn train(training: &TrainingSet, cfg: &NetConfig) -> Self {
        assert!(
            !training.is_empty(),
            "cannot train an MLP estimator on an empty training set"
        );
        let (xs, ys) = training.as_xy();
        let mut net = Mlp::new(training.feature_dim(), &cfg.hidden, cfg.seed);
        let report = net.train(&xs, &ys, cfg);
        Self {
            net,
            data_dim: training.dim,
            report,
            predictions: AtomicU64::new(0),
        }
    }

    /// A degraded-mode estimator that can never gate a query off the exact
    /// path: every prediction is the constant `expm1(80)` (≈ 5.5e34, still
    /// finite in `f32`), far above any `α·τ` threshold, so the gate always
    /// runs the range query. Snapshot loads substitute this for a corrupt
    /// estimator section instead of failing the load — exact-only serving
    /// beats no serving, and answers stay correct because the gate only
    /// ever *skips* work it believes is fruitless.
    pub fn gate_off(data_dim: usize) -> Self {
        Self {
            net: Mlp::constant(data_dim + 1, 80.0),
            data_dim,
            report: TrainReport {
                epochs: 0,
                initial_loss: 0.0,
                final_loss: 0.0,
            },
            predictions: AtomicU64::new(0),
        }
    }

    /// Training summary (initial/final MSE in log-cardinality space).
    pub fn report(&self) -> TrainReport {
        self.report
    }

    /// The underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Dimensionality of the data vectors the estimator expects.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// Append the estimator (training report, data dimensionality and the
    /// network's raw weight bits) to `buf` in the little-endian binary form.
    ///
    /// Exists alongside the serde JSON representation for the snapshot
    /// subsystem: the binary form is both compact (4 bytes per weight instead
    /// of decimal text) and **bit-exact**, which is what makes loaded
    /// snapshots produce byte-identical estimates, gate decisions and cluster
    /// labels. See [`crate::Mlp::encode_binary`].
    pub fn encode_binary(&self, buf: &mut impl bytes::BufMut) {
        buf.put_u32_le(self.data_dim as u32);
        buf.put_u64_le(self.report.epochs as u64);
        buf.put_f32_le(self.report.initial_loss);
        buf.put_f32_le(self.report.final_loss);
        self.net.encode_binary(buf);
    }

    /// Inverse of [`MlpEstimator::encode_binary`], advancing the cursor.
    ///
    /// # Errors
    /// Returns [`laf_vector::VectorError::MalformedPayload`] on truncation or
    /// when the embedded network's input width does not equal
    /// `data_dim + 1` (query features plus the ε threshold).
    pub fn decode_binary(bytes: &mut &[u8]) -> Result<Self, laf_vector::VectorError> {
        use bytes::Buf;
        if bytes.remaining() < 20 {
            return Err(laf_vector::VectorError::MalformedPayload(format!(
                "truncated estimator header: {} bytes",
                bytes.remaining()
            )));
        }
        let data_dim = bytes.get_u32_le() as usize;
        let epochs = bytes.get_u64_le() as usize;
        let initial_loss = bytes.get_f32_le();
        let final_loss = bytes.get_f32_le();
        let net = Mlp::decode_binary(bytes)?;
        if net.input_dim() != data_dim + 1 {
            return Err(laf_vector::VectorError::MalformedPayload(format!(
                "network input width {} does not match data_dim {} + 1",
                net.input_dim(),
                data_dim
            )));
        }
        Ok(Self {
            net,
            data_dim,
            report: TrainReport {
                epochs,
                initial_loss,
                final_loss,
            },
            predictions: AtomicU64::new(0),
        })
    }
}

impl CardinalityEstimator for MlpEstimator {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        assert_eq!(
            query.len(),
            self.data_dim,
            "query dimensionality does not match the training data"
        );
        self.predictions.fetch_add(1, Ordering::Relaxed);
        let mut features = Vec::with_capacity(query.len() + 1);
        features.extend_from_slice(query);
        features.push(eps);
        count_from_log(self.net.predict(&features))
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        let features: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| {
                assert_eq!(
                    q.len(),
                    self.data_dim,
                    "query dimensionality does not match the training data"
                );
                let mut f = Vec::with_capacity(q.len() + 1);
                f.extend_from_slice(q);
                f.push(eps);
                f
            })
            .collect();
        self.predictions
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let refs: Vec<&[f32]> = features.iter().map(Vec::as_slice).collect();
        self.net
            .predict_batch(&refs)
            .into_iter()
            .map(count_from_log)
            .collect()
    }

    fn name(&self) -> &'static str {
        "mlp"
    }

    fn predictions(&self) -> Option<u64> {
        Some(self.predictions.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingSetBuilder;
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::Dataset;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 200,
            dim: 8,
            clusters: 4,
            noise_fraction: 0.2,
            spread: 0.06,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn train_small(data: &Dataset) -> MlpEstimator {
        let ts = TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        }
        .build(data, data)
        .unwrap();
        MlpEstimator::train(&ts, &NetConfig::tiny())
    }

    #[test]
    fn training_produces_finite_nonnegative_estimates() {
        let data = data();
        let est = train_small(&data);
        assert_eq!(est.data_dim(), 8);
        assert!(est.report().final_loss.is_finite());
        for i in (0..data.len()).step_by(17) {
            for eps in [0.1f32, 0.5, 0.9] {
                let e = est.estimate(data.row(i), eps);
                assert!(e.is_finite() && e >= 0.0, "estimate {e}");
            }
        }
        assert!(est.predictions().unwrap() > 0);
    }

    #[test]
    fn estimates_correlate_with_true_cardinalities() {
        let data = data();
        let est = train_small(&data);
        let oracle = crate::ExactEstimator::new(&data, laf_vector::Metric::Cosine);
        // Average estimate at a large radius must exceed the average at a
        // small radius (the estimator must have learned the monotone trend).
        let mut small_sum = 0.0f64;
        let mut large_sum = 0.0f64;
        let mut true_small = 0.0f64;
        let mut true_large = 0.0f64;
        let n = 40usize;
        for i in 0..n {
            let q = data.row(i * 3);
            small_sum += est.estimate(q, 0.1) as f64;
            large_sum += est.estimate(q, 0.9) as f64;
            true_small += oracle.estimate(q, 0.1) as f64;
            true_large += oracle.estimate(q, 0.9) as f64;
        }
        assert!(true_large > true_small);
        assert!(
            large_sum > small_sum,
            "learned estimator lost the monotone trend: {large_sum} <= {small_sum}"
        );
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let ts = crate::TrainingSet {
            dim: 4,
            thresholds: vec![0.5],
            samples: vec![],
        };
        let _ = MlpEstimator::train(&ts, &NetConfig::tiny());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_query_dim_panics() {
        let data = data();
        let est = train_small(&data);
        let _ = est.estimate(&[1.0, 2.0], 0.5);
    }

    #[test]
    fn estimate_batch_is_bit_exact_with_per_query_estimates() {
        let data = data();
        let est = train_small(&data);
        let queries: Vec<&[f32]> = (0..data.len()).step_by(3).map(|i| data.row(i)).collect();
        for eps in [0.1f32, 0.5, 0.9] {
            let batched = est.estimate_batch(&queries, eps);
            assert_eq!(batched.len(), queries.len());
            for (qi, q) in queries.iter().enumerate() {
                // Bit-exact: the batched forward pass computes the same dot
                // products in the same order as the scalar path.
                assert_eq!(batched[qi], est.estimate(q, eps), "query {qi} eps {eps}");
            }
        }
        // The batch counts toward the prediction counter once per query.
        let before = est.predictions().unwrap();
        let _ = est.estimate_batch(&queries, 0.5);
        assert_eq!(est.predictions().unwrap(), before + queries.len() as u64);
    }

    #[test]
    fn serde_round_trip_preserves_estimates() {
        let data = data();
        let est = train_small(&data);
        let json = serde_json::to_string(&est).unwrap();
        let back: MlpEstimator = serde_json::from_str(&json).unwrap();
        let q = data.row(0);
        assert_eq!(est.estimate(q, 0.5), back.estimate(q, 0.5));
        assert_eq!(est.name(), "mlp");
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let data = data();
        let est = train_small(&data);
        let mut buf: Vec<u8> = Vec::new();
        est.encode_binary(&mut buf);
        let back = MlpEstimator::decode_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.data_dim(), est.data_dim());
        assert_eq!(back.report(), est.report());
        for i in (0..data.len()).step_by(11) {
            for eps in [0.1f32, 0.5, 0.9] {
                assert_eq!(
                    est.estimate(data.row(i), eps).to_bits(),
                    back.estimate(data.row(i), eps).to_bits(),
                    "row {i} eps {eps}"
                );
            }
        }
    }

    #[test]
    fn binary_decode_rejects_dim_mismatch_and_truncation() {
        let data = data();
        let est = train_small(&data);
        let mut buf: Vec<u8> = Vec::new();
        est.encode_binary(&mut buf);
        assert!(MlpEstimator::decode_binary(&mut &buf[..10]).is_err());
        // Lie about data_dim: the embedded net expects data_dim + 1 inputs.
        let mut bad = buf.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(MlpEstimator::decode_binary(&mut bad.as_slice()).is_err());
    }
}
