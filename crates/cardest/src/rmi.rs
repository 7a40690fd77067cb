//! Recursive Model Index (RMI) cardinality estimator — the crate's one
//! learned estimator.
//!
//! The paper borrows its estimator from CardNet's strong baseline: a
//! three-stage RMI whose stages contain 1, 2 and 4 fully-connected neural
//! networks from top to bottom ([`RmiConfig::paper_stages`]). The root model
//! routes each input to one of the second-stage models, which in turn
//! routes to one of the third-stage models; the leaf model's prediction is
//! the answer. Every member model is an [`Mlp`] from this crate (Kraska et
//! al., "The Case for Learned Index Structures", SIGMOD 2018, built RMIs
//! over linear and NN models for learned indexing).
//!
//! A one-stage RMI ([`RmiConfig::one_stage`]) is a single MLP trained on the
//! whole training set. It is what the LAF pipeline trains and its snapshots
//! store, and the only layout with a binary form
//! ([`RmiEstimator::encode_binary`]).
//!
//! Routing follows the standard RMI recipe: a model's prediction (in
//! normalized target space) selects the child whose bucket the prediction
//! falls into. A model whose bucket receives no training samples trains on
//! the full training set, so every leaf is usable at inference time.
//!
//! Inference runs stage by stage: every row of a batch passes the root in
//! one [`Mlp::predict_batch`], then each later stage makes one
//! `predict_batch` per model over the rows routed to it. The stages
//! partition the batch, so batching adds no arithmetic, and `predict_batch`
//! is bit-exact per row whatever the batch, so a batched estimate equals the
//! one-row estimate bit for bit.

use crate::estimator::{count_from_log, CardinalityEstimator};
use crate::nn::{Mlp, NetConfig, TrainReport};
use crate::training::TrainingSet;
use laf_vector::VectorError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the RMI structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmiConfig {
    /// Number of models per stage, from root to leaves. The paper uses
    /// `[1, 2, 4]`.
    pub stage_sizes: Vec<usize>,
    /// Hyper-parameters for every member network.
    pub net: NetConfig,
}

impl RmiConfig {
    /// The paper's three-stage layout (1, 2, 4 models) with the given
    /// per-model network configuration.
    pub fn paper_stages(net: NetConfig) -> Self {
        Self {
            stage_sizes: vec![1, 2, 4],
            net,
        }
    }

    /// A root model alone: one MLP trained on the whole training set, the
    /// layout the LAF pipeline serves.
    pub fn one_stage(net: NetConfig) -> Self {
        Self {
            stage_sizes: vec![1],
            net,
        }
    }
}

impl Default for RmiConfig {
    fn default() -> Self {
        Self::paper_stages(NetConfig::small())
    }
}

/// Recursive model index over [`Mlp`] regressors.
///
/// The networks regress `ln(1 + cardinality)` from the concatenation of the
/// query vector and the distance threshold;
/// [`CardinalityEstimator::estimate`] maps the leaf's prediction back
/// through `expm1` and clamps it to be non-negative (a NaN prediction stays
/// NaN, so the gate executes the query).
#[derive(Debug, Serialize)]
pub struct RmiEstimator {
    /// `stages[s][m]` is model `m` of stage `s`; `stages[0]` holds the root
    /// alone.
    stages: Vec<Vec<Mlp>>,
    data_dim: usize,
    /// Minimum and maximum regression target seen in training, used to
    /// normalize predictions for routing. A one-stage RMI never routes, so
    /// its binary form omits them and decodes them as zero.
    target_min: f32,
    target_max: f32,
    /// The root model's training summary.
    report: TrainReport,
    #[serde(skip)]
    predictions: AtomicU64,
}

/// Reads the derived serialized form, `{stages, data_dim, target_min,
/// target_max, report}`, and refuses a layout that estimation would panic
/// on: no stage, a root stage of other than one model, an empty later
/// stage, or a member network whose input width is not `data_dim + 1`.
impl Deserialize for RmiEstimator {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::de::Error::expected("object", v))?;
        let field = |name: &str| {
            serde::value::find(obj, name).ok_or_else(|| {
                serde::de::Error::msg(format!("missing RmiEstimator field `{name}`"))
            })
        };
        let stages = Vec::<Vec<Mlp>>::from_value(field("stages")?)?;
        let data_dim = usize::from_value(field("data_dim")?)?;
        let invalid = |why: String| Err(serde::de::Error::msg(format!("invalid RMI: {why}")));
        match stages.first().map(Vec::len) {
            None => return invalid("no stages".into()),
            Some(1) => {}
            Some(n) => return invalid(format!("the root stage holds {n} models, not 1")),
        }
        if let Some(s) = stages.iter().position(Vec::is_empty) {
            return invalid(format!("stage {s} holds no model"));
        }
        if let Some(net) = stages
            .iter()
            .flatten()
            .find(|m| m.input_dim() != data_dim + 1)
        {
            return invalid(format!(
                "a network's input width {} does not match data_dim {data_dim} + 1",
                net.input_dim()
            ));
        }
        Ok(Self {
            stages,
            data_dim,
            target_min: f32::from_value(field("target_min")?)?,
            target_max: f32::from_value(field("target_max")?)?,
            report: TrainReport::from_value(field("report")?)?,
            predictions: AtomicU64::new(0),
        })
    }
}

impl Clone for RmiEstimator {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.clone(),
            data_dim: self.data_dim,
            target_min: self.target_min,
            target_max: self.target_max,
            report: self.report,
            predictions: AtomicU64::new(self.predictions.load(Ordering::Relaxed)),
        }
    }
}

impl RmiEstimator {
    /// Train the RMI on a prepared [`TrainingSet`].
    ///
    /// The root uses `cfg.net.seed` and the training set's sample order, so
    /// a one-stage RMI is bit-identical to one [`Mlp`] trained on
    /// [`TrainingSet::as_xy`].
    ///
    /// # Panics
    /// Panics if the training set is empty or the stage layout is empty or
    /// does not start with a single root model.
    pub fn train(training: &TrainingSet, cfg: &RmiConfig) -> Self {
        assert!(
            !training.is_empty(),
            "cannot train an RMI estimator on an empty training set"
        );
        assert!(
            !cfg.stage_sizes.is_empty() && cfg.stage_sizes[0] == 1,
            "RMI stage layout must start with a single root model"
        );
        assert!(
            cfg.stage_sizes.iter().all(|&s| s > 0),
            "RMI stages must be non-empty"
        );

        let (xs, ys) = training.as_xy();
        let target_min = ys.iter().copied().fold(f32::INFINITY, f32::min);
        let target_max = ys.iter().copied().fold(f32::NEG_INFINITY, f32::max);

        let feature_dim = training.feature_dim();
        let mut stages: Vec<Vec<Mlp>> = Vec::with_capacity(cfg.stage_sizes.len());
        let mut root_report = None;

        // assignment[i] = which model of the *current* stage sample i belongs to.
        let mut assignment = vec![0usize; xs.len()];

        for (stage_idx, &n_models) in cfg.stage_sizes.iter().enumerate() {
            let next_n = cfg.stage_sizes.get(stage_idx + 1).copied();
            let mut stage_models: Vec<Mlp> = Vec::with_capacity(n_models);
            let mut next_assignment = vec![0usize; xs.len()];

            for model_idx in 0..n_models {
                // Samples routed to this model.
                let members: Vec<usize> = (0..xs.len())
                    .filter(|&i| assignment[i] == model_idx)
                    .collect();
                let seed = cfg
                    .net
                    .seed
                    .wrapping_add((stage_idx as u64) << 16)
                    .wrapping_add(model_idx as u64);
                let mut net = Mlp::new(feature_dim, &cfg.net.hidden, seed);
                // A bucket holding every sample, or none (the fallback that
                // keeps the model usable at inference time), trains on the
                // training matrix itself; only a proper subset is copied.
                let report = if members.is_empty() || members.len() == xs.len() {
                    net.train(&xs, &ys, &cfg.net)
                } else {
                    let sub_x: Vec<Vec<f32>> = members.iter().map(|&i| xs[i].clone()).collect();
                    let sub_y: Vec<f32> = members.iter().map(|&i| ys[i]).collect();
                    net.train(&sub_x, &sub_y, &cfg.net)
                };
                root_report.get_or_insert(report);

                // Route this model's members to the next stage.
                if let Some(next_n) = next_n {
                    for &i in &members {
                        let pred = net.predict(&xs[i]);
                        next_assignment[i] = route(pred, target_min, target_max, next_n);
                    }
                }
                stage_models.push(net);
            }
            stages.push(stage_models);
            assignment = next_assignment;
        }

        Self {
            stages,
            data_dim: training.dim,
            target_min,
            target_max,
            report: root_report.expect("the layout starts with a root model"),
            predictions: AtomicU64::new(0),
        }
    }

    /// A one-stage RMI around `root`.
    fn one_stage(root: Mlp, data_dim: usize, report: TrainReport) -> Self {
        Self {
            stages: vec![vec![root]],
            data_dim,
            target_min: 0.0,
            target_max: 0.0,
            report,
            predictions: AtomicU64::new(0),
        }
    }

    /// A degraded-mode estimator that can never gate a query off the exact
    /// path: a one-stage RMI whose every prediction is the constant
    /// `expm1(80)` (≈ 5.5e34, still finite in `f32`), far above any `α·τ`
    /// threshold, so the gate always runs the range query. Snapshot loads
    /// substitute this for a corrupt estimator section instead of failing
    /// the load — exact-only serving beats no serving, and answers stay
    /// correct because the gate only ever *skips* work it believes is
    /// fruitless.
    pub fn gate_off(data_dim: usize) -> Self {
        let report = TrainReport {
            epochs: 0,
            initial_loss: 0.0,
            final_loss: 0.0,
        };
        Self::one_stage(Mlp::constant(data_dim + 1, 80.0), data_dim, report)
    }

    /// The root model's training summary (initial/final MSE in
    /// log-cardinality space).
    pub fn report(&self) -> TrainReport {
        self.report
    }

    /// Number of stages in the index.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of models per stage, root first.
    pub fn stage_sizes(&self) -> Vec<usize> {
        self.stages.iter().map(Vec::len).collect()
    }

    /// Dimensionality of the data vectors the estimator expects.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// Total number of member models.
    pub fn model_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Append a one-stage RMI (data dimensionality, the root's training
    /// report and its raw weight bits) to `buf` in the little-endian binary
    /// form: the estimator section of every snapshot format version.
    ///
    /// Exists alongside the serde JSON representation for the snapshot
    /// subsystem: the binary form is both compact (4 bytes per weight instead
    /// of decimal text) and **bit-exact**, which is what makes loaded
    /// snapshots produce byte-identical estimates, gate decisions and cluster
    /// labels. See [`crate::Mlp::encode_binary`].
    ///
    /// # Errors
    /// [`VectorError::InvalidParameter`], with nothing written, when the RMI
    /// has more than one stage: the form holds one network, and a reader
    /// would serve the root alone.
    pub fn encode_binary(&self, buf: &mut impl bytes::BufMut) -> Result<(), VectorError> {
        self.check_binary_form()?;
        buf.put_u32_le(self.data_dim as u32);
        buf.put_u64_le(self.report.epochs as u64);
        buf.put_f32_le(self.report.initial_loss);
        buf.put_f32_le(self.report.final_loss);
        self.stages[0][0].encode_binary(buf);
        Ok(())
    }

    /// Whether [`RmiEstimator::encode_binary`] can encode this RMI, without
    /// encoding it: a writer that must not start a file it cannot finish
    /// asks first.
    ///
    /// # Errors
    /// The error `encode_binary` returns for an RMI of more than one stage.
    pub fn check_binary_form(&self) -> Result<(), VectorError> {
        if self.stages.len() != 1 {
            return Err(VectorError::InvalidParameter(format!(
                "only a one-stage RMI has a binary form, this one has {} stages",
                self.stages.len()
            )));
        }
        Ok(())
    }

    /// Inverse of [`RmiEstimator::encode_binary`], advancing the cursor.
    ///
    /// # Errors
    /// Returns [`VectorError::MalformedPayload`] on truncation or when the
    /// embedded network's input width does not equal `data_dim + 1` (query
    /// features plus the ε threshold).
    pub fn decode_binary(bytes: &mut &[u8]) -> Result<Self, VectorError> {
        use bytes::Buf;
        if bytes.remaining() < 20 {
            return Err(VectorError::MalformedPayload(format!(
                "truncated estimator header: {} bytes",
                bytes.remaining()
            )));
        }
        let data_dim = bytes.get_u32_le() as usize;
        let report = TrainReport {
            epochs: bytes.get_u64_le() as usize,
            initial_loss: bytes.get_f32_le(),
            final_loss: bytes.get_f32_le(),
        };
        let root = Mlp::decode_binary(bytes)?;
        if root.input_dim() != data_dim + 1 {
            return Err(VectorError::MalformedPayload(format!(
                "network input width {} does not match data_dim {} + 1",
                root.input_dim(),
                data_dim
            )));
        }
        Ok(Self::one_stage(root, data_dim, report))
    }
}

/// Map a prediction in `[target_min, target_max]` to a child index in
/// `0..n_children`.
fn route(pred: f32, target_min: f32, target_max: f32, n_children: usize) -> usize {
    if n_children <= 1 {
        return 0;
    }
    let span = (target_max - target_min).max(1e-9);
    let normalized = ((pred - target_min) / span).clamp(0.0, 1.0);
    ((normalized * n_children as f32) as usize).min(n_children - 1)
}

impl CardinalityEstimator for RmiEstimator {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.estimate_batch(&[query], eps)[0]
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        let width = self.data_dim + 1;
        let mut features = Vec::with_capacity(queries.len() * width);
        for q in queries {
            assert_eq!(
                q.len(),
                self.data_dim,
                "query dimensionality does not match the training data"
            );
            features.extend_from_slice(q);
            features.push(eps);
        }
        self.predictions
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let rows: Vec<&[f32]> = features.chunks_exact(width).collect();

        let mut preds = self.stages[0][0].predict_batch(&rows);
        for stage in &self.stages[1..] {
            let routes: Vec<usize> = preds
                .iter()
                .map(|&p| route(p, self.target_min, self.target_max, stage.len()))
                .collect();
            for (model_idx, model) in stage.iter().enumerate() {
                let members: Vec<usize> = (0..rows.len())
                    .filter(|&i| routes[i] == model_idx)
                    .collect();
                let group: Vec<&[f32]> = members.iter().map(|&i| rows[i]).collect();
                for (i, pred) in members.into_iter().zip(model.predict_batch(&group)) {
                    preds[i] = pred;
                }
            }
        }
        preds.into_iter().map(count_from_log).collect()
    }

    fn name(&self) -> &'static str {
        "rmi"
    }

    fn predictions(&self) -> Option<u64> {
        Some(self.predictions.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingSetBuilder;
    use crate::{CardinalityEstimator, ExactEstimator};
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::{Dataset, Metric};

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 250,
            dim: 8,
            clusters: 5,
            noise_fraction: 0.2,
            spread: 0.06,
            seed: 77,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn training(data: &Dataset) -> TrainingSet {
        TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        }
        .build(data, data)
        .unwrap()
    }

    fn train_rmi(data: &Dataset) -> RmiEstimator {
        RmiEstimator::train(&training(data), &RmiConfig::paper_stages(NetConfig::tiny()))
    }

    fn train_one_stage(data: &Dataset) -> RmiEstimator {
        RmiEstimator::train(&training(data), &RmiConfig::one_stage(NetConfig::tiny()))
    }

    #[test]
    fn paper_layout_has_seven_models_in_three_stages() {
        let data = data();
        let rmi = train_rmi(&data);
        assert_eq!(rmi.n_stages(), 3);
        assert_eq!(rmi.stage_sizes(), &[1, 2, 4]);
        assert_eq!(rmi.model_count(), 7);
        assert_eq!(rmi.data_dim(), 8);
    }

    fn assert_finite_and_nonnegative(rmi: &RmiEstimator, data: &Dataset) {
        assert_eq!(rmi.data_dim(), 8);
        assert!(rmi.report().final_loss.is_finite());
        for i in (0..data.len()).step_by(23) {
            for eps in [0.1f32, 0.5, 0.9] {
                let e = rmi.estimate(data.row(i), eps);
                assert!(e.is_finite() && e >= 0.0, "estimate {e}");
            }
        }
        assert!(rmi.predictions().unwrap() > 0);
        assert_eq!(rmi.name(), "rmi");
    }

    #[test]
    fn estimates_are_finite_and_nonnegative() {
        let data = data();
        assert_finite_and_nonnegative(&train_rmi(&data), &data);
    }

    #[test]
    fn one_stage_estimates_are_finite_and_nonnegative() {
        let data = data();
        assert_finite_and_nonnegative(&train_one_stage(&data), &data);
    }

    /// The average estimate at a large radius must exceed the average at a
    /// small radius: the estimator must have learned the monotone trend.
    fn assert_monotone_trend(rmi: &RmiEstimator, data: &Dataset) {
        let oracle = ExactEstimator::new(data, Metric::Cosine);
        let mut est_small = 0.0f64;
        let mut est_large = 0.0f64;
        let mut true_small = 0.0f64;
        let mut true_large = 0.0f64;
        for i in (0..data.len()).step_by(5) {
            let q = data.row(i);
            est_small += rmi.estimate(q, 0.1) as f64;
            est_large += rmi.estimate(q, 0.9) as f64;
            true_small += oracle.estimate(q, 0.1) as f64;
            true_large += oracle.estimate(q, 0.9) as f64;
        }
        assert!(true_large > true_small);
        assert!(
            est_large > est_small,
            "{} stages lost the monotone trend: {est_large} <= {est_small}",
            rmi.n_stages()
        );
    }

    #[test]
    fn rmi_learns_the_monotone_trend() {
        let data = data();
        assert_monotone_trend(&train_rmi(&data), &data);
    }

    #[test]
    fn one_stage_rmi_learns_the_monotone_trend() {
        let data = data();
        assert_monotone_trend(&train_one_stage(&data), &data);
    }

    #[test]
    fn one_stage_rmi_is_the_single_mlp_trained_on_the_whole_set() {
        let data = data();
        let ts = training(&data);
        let cfg = NetConfig::tiny();
        let rmi = RmiEstimator::train(&ts, &RmiConfig::one_stage(cfg.clone()));
        let (xs, ys) = ts.as_xy();
        let mut mlp = Mlp::new(ts.feature_dim(), &cfg.hidden, cfg.seed);
        assert_eq!(rmi.report(), mlp.train(&xs, &ys, &cfg));
        let mut mlp_bits = Vec::new();
        mlp.encode_binary(&mut mlp_bits);
        let mut rmi_bits = Vec::new();
        rmi.encode_binary(&mut rmi_bits).unwrap();
        assert_eq!(&rmi_bits[20..], &mlp_bits[..], "root weights differ");
    }

    #[test]
    fn a_nan_network_estimates_nan() {
        // A NaN feature in one sample turns every member's weights NaN; the
        // estimate must stay NaN so the gate executes the query.
        let data = data();
        let mut ts = TrainingSetBuilder {
            max_queries: Some(10),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        *ts.samples[0].features.last_mut().unwrap() = f32::NAN;
        let rmi = RmiEstimator::train(&ts, &RmiConfig::paper_stages(NetConfig::tiny()));
        assert!(rmi.estimate(data.row(0), 0.5).is_nan());
    }

    /// The leaf a row's per-row walk through the stages ends at.
    fn leaf_of(rmi: &RmiEstimator, query: &[f32], eps: f32) -> usize {
        let mut features = query.to_vec();
        features.push(eps);
        let mut model_idx = 0;
        for (s, stage) in rmi.stages.iter().enumerate().skip(1) {
            let pred = rmi.stages[s - 1][model_idx].predict(&features);
            model_idx = route(pred, rmi.target_min, rmi.target_max, stage.len());
        }
        model_idx
    }

    #[test]
    fn estimate_batch_is_bit_exact_with_per_row_estimates_at_every_batch_size() {
        let data = data();
        let rmi = train_rmi(&data);
        let rows: Vec<&[f32]> = data.rows().collect();
        let mut leaves = std::collections::BTreeSet::new();
        for eps in [0.1f32, 0.5, 0.9] {
            for len in [1, 15, 16, 17, rows.len()] {
                let batch = &rows[..len];
                let before = rmi.predictions().unwrap();
                let batched = rmi.estimate_batch(batch, eps);
                assert_eq!(rmi.predictions().unwrap(), before + len as u64);
                assert_eq!(batched.len(), len);
                for (i, q) in batch.iter().enumerate() {
                    assert_eq!(
                        batched[i].to_bits(),
                        rmi.estimate(q, eps).to_bits(),
                        "row {i} of {len} at eps {eps}"
                    );
                    leaves.insert(leaf_of(&rmi, q, eps));
                }
            }
        }
        assert!(
            leaves.len() >= 2,
            "the rows reached only leaves {leaves:?}: the batch never split"
        );
        assert!(rmi.estimate_batch(&[], 0.5).is_empty());
    }

    #[test]
    fn routing_is_stable_and_in_bounds() {
        assert_eq!(route(0.5, 0.0, 1.0, 1), 0);
        assert_eq!(route(-5.0, 0.0, 1.0, 4), 0);
        assert_eq!(route(10.0, 0.0, 1.0, 4), 3);
        assert_eq!(route(0.49, 0.0, 1.0, 2), 0);
        assert_eq!(route(0.51, 0.0, 1.0, 2), 1);
        // Degenerate target span must not divide by zero.
        assert_eq!(route(0.3, 0.3, 0.3, 4), 0);
    }

    #[test]
    #[should_panic(expected = "single root")]
    fn invalid_stage_layout_panics() {
        let data = data();
        let ts = TrainingSetBuilder {
            max_queries: Some(10),
            thresholds: vec![0.5],
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        let cfg = RmiConfig {
            stage_sizes: vec![2, 4],
            net: NetConfig::tiny(),
        };
        let _ = RmiEstimator::train(&ts, &cfg);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let ts = TrainingSet {
            dim: 4,
            thresholds: vec![0.5],
            samples: vec![],
        };
        let _ = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_query_dim_panics() {
        let data = data();
        let rmi = train_one_stage(&data);
        let _ = rmi.estimate(&[1.0, 2.0], 0.5);
    }

    fn assert_serde_round_trip(rmi: &RmiEstimator, data: &Dataset) {
        let json = serde_json::to_string(rmi).unwrap();
        let back: RmiEstimator = serde_json::from_str(&json).unwrap();
        let q = data.row(3);
        assert_eq!(rmi.estimate(q, 0.4), back.estimate(q, 0.4));
        assert_eq!(back.report(), rmi.report());
        assert_eq!(back.stage_sizes(), rmi.stage_sizes());
    }

    #[test]
    fn serde_round_trip_preserves_estimates() {
        let data = data();
        assert_serde_round_trip(&train_rmi(&data), &data);
    }

    #[test]
    fn one_stage_serde_round_trip_preserves_estimates() {
        let data = data();
        assert_serde_round_trip(&train_one_stage(&data), &data);
    }

    #[test]
    fn serde_refuses_layouts_that_estimation_would_panic_on() {
        use serde::value::Value;
        let data = data();
        let Value::Object(fields) = train_rmi(&data).to_value() else {
            panic!("an RMI serializes as an object");
        };
        let with = |key: &str, value: Value| {
            let mut bad = fields.clone();
            bad.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            Value::Object(bad)
        };
        let Some((_, Value::Array(stages))) = fields.iter().find(|(k, _)| k == "stages") else {
            panic!("stages serialize as an array");
        };
        let empty = Value::Array(Vec::new());
        let cases = [
            with("stages", Value::Array(Vec::new())),
            with("stages", Value::Array(vec![empty.clone()])),
            with("stages", Value::Array(vec![stages[1].clone()])),
            with("stages", Value::Array(vec![stages[0].clone(), empty])),
            with("data_dim", (data.dim() + 1).to_value()),
        ];
        for bad in &cases {
            assert!(RmiEstimator::from_value(bad).is_err(), "decoded {bad:?}");
        }
        let back = RmiEstimator::from_value(&Value::Object(fields)).unwrap();
        assert_eq!(back.stage_sizes(), &[1, 2, 4]);
    }

    #[test]
    fn one_stage_binary_round_trip_is_bit_exact() {
        let data = data();
        let rmi = train_one_stage(&data);
        let mut buf: Vec<u8> = Vec::new();
        rmi.encode_binary(&mut buf).unwrap();
        let mut cursor = buf.as_slice();
        let back = RmiEstimator::decode_binary(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "decode must consume the whole form");
        assert_eq!(back.stage_sizes(), &[1]);
        assert_eq!(back.data_dim(), rmi.data_dim());
        assert_eq!(back.report(), rmi.report());
        let rows: Vec<&[f32]> = data.rows().step_by(11).collect();
        for eps in [0.1f32, 0.5, 0.9] {
            let expected = rmi.estimate_batch(&rows, eps);
            for (want, got) in expected.iter().zip(back.estimate_batch(&rows, eps)) {
                assert_eq!(want.to_bits(), got.to_bits(), "eps {eps}");
            }
        }
        let mut again = Vec::new();
        back.encode_binary(&mut again).unwrap();
        assert_eq!(again, buf, "re-encoding changed the bytes");
    }

    #[test]
    fn binary_decode_rejects_dim_mismatch_and_truncation() {
        let data = data();
        let rmi = train_one_stage(&data);
        let mut buf: Vec<u8> = Vec::new();
        rmi.encode_binary(&mut buf).unwrap();
        for cut in [10, 20, buf.len() - 1] {
            assert!(
                matches!(
                    RmiEstimator::decode_binary(&mut &buf[..cut]),
                    Err(VectorError::MalformedPayload(_))
                ),
                "a form cut at {cut} bytes decoded"
            );
        }
        // Lie about data_dim: the embedded net expects data_dim + 1 inputs.
        let mut bad = buf.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(matches!(
            RmiEstimator::decode_binary(&mut bad.as_slice()),
            Err(VectorError::MalformedPayload(_))
        ));
    }

    #[test]
    fn gate_off_round_trips_through_the_binary_form() {
        // A degraded load substitutes `gate_off`; saving that pipeline again
        // must encode it, and the reload must still never skip a query.
        let gate_off = RmiEstimator::gate_off(8);
        let mut buf: Vec<u8> = Vec::new();
        gate_off.encode_binary(&mut buf).unwrap();
        let back = RmiEstimator::decode_binary(&mut buf.as_slice()).unwrap();
        let e = back.estimate(&[0.5; 8], 0.3);
        assert!(e.is_finite() && e > 1.0e30, "gate-off estimate {e}");
        assert_eq!(e.to_bits(), gate_off.estimate(&[0.5; 8], 0.3).to_bits());
    }

    #[test]
    fn a_multi_stage_rmi_has_no_binary_form() {
        let data = data();
        let rmi = train_rmi(&data);
        let mut buf: Vec<u8> = Vec::new();
        assert!(matches!(
            rmi.encode_binary(&mut buf),
            Err(VectorError::InvalidParameter(_))
        ));
        assert!(buf.is_empty(), "a refused encode wrote {} bytes", buf.len());
    }
}
