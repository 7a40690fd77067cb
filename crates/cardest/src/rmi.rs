//! Recursive Model Index (RMI) cardinality estimator — the paper's model.
//!
//! The paper borrows its estimator from CardNet's strong baseline: a
//! three-stage RMI whose stages contain 1, 2 and 4 fully-connected neural
//! networks from top to bottom. The root model routes each input to one of
//! the second-stage models, which in turn routes to one of the third-stage
//! models; the leaf model's prediction is the answer. Every member model is
//! an [`Mlp`] from this crate (Kraska et al.'s original RMI used the same
//! idea over linear/NN models for learned indexing).
//!
//! Routing follows the standard RMI recipe: a model's prediction (in
//! normalized target space) selects the child whose bucket the prediction
//! falls into. Buckets that receive no training samples inherit their
//! parent's training subset so every leaf is usable at inference time.

use crate::estimator::{count_from_log, CardinalityEstimator};
use crate::nn::{Mlp, NetConfig};
use crate::training::TrainingSet;
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
}

impl Default for RmiConfig {
    fn default() -> Self {
        Self::paper_stages(NetConfig::small())
    }
}

/// Three-stage (configurable) recursive model index over [`Mlp`] regressors.
#[derive(Debug, Serialize, Deserialize)]
pub struct RmiEstimator {
    /// `stages[s][m]` is model `m` of stage `s`.
    stages: Vec<Vec<Mlp>>,
    stage_sizes: Vec<usize>,
    data_dim: usize,
    /// Minimum and maximum regression target seen in training, used to
    /// normalize predictions for routing.
    target_min: f32,
    target_max: f32,
    #[serde(skip)]
    predictions: AtomicU64,
}

impl RmiEstimator {
    /// Train the RMI on a prepared [`TrainingSet`].
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
        let n_stages = cfg.stage_sizes.len();
        let mut stages: Vec<Vec<Mlp>> = Vec::with_capacity(n_stages);

        // assignment[i] = which model of the *current* stage sample i belongs to.
        let mut assignment = vec![0usize; xs.len()];

        for (stage_idx, &n_models) in cfg.stage_sizes.iter().enumerate() {
            let mut stage_models: Vec<Mlp> = Vec::with_capacity(n_models);
            let mut next_assignment = vec![0usize; xs.len()];

            for model_idx in 0..n_models {
                // Samples routed to this model.
                let member_indices: Vec<usize> = (0..xs.len())
                    .filter(|&i| assignment[i] == model_idx)
                    .collect();
                // Empty bucket: fall back to the full training set so the
                // model is still usable at inference time.
                let effective: Vec<usize> = if member_indices.is_empty() {
                    (0..xs.len()).collect()
                } else {
                    member_indices.clone()
                };
                let sub_x: Vec<Vec<f32>> = effective.iter().map(|&i| xs[i].clone()).collect();
                let sub_y: Vec<f32> = effective.iter().map(|&i| ys[i]).collect();

                let seed = cfg
                    .net
                    .seed
                    .wrapping_add((stage_idx as u64) << 16)
                    .wrapping_add(model_idx as u64);
                let mut net = Mlp::new(feature_dim, &cfg.net.hidden, seed);
                net.train(&sub_x, &sub_y, &cfg.net);

                // Route this model's members to the next stage.
                if stage_idx + 1 < n_stages {
                    let next_n = cfg.stage_sizes[stage_idx + 1];
                    for &i in &member_indices {
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
            stage_sizes: cfg.stage_sizes.clone(),
            data_dim: training.dim,
            target_min,
            target_max,
            predictions: AtomicU64::new(0),
        }
    }

    /// Number of stages in the index.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of models per stage, root first.
    pub fn stage_sizes(&self) -> &[usize] {
        &self.stage_sizes
    }

    /// Dimensionality of the data vectors the estimator expects.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// Total number of member models.
    pub fn model_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
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
        assert_eq!(
            query.len(),
            self.data_dim,
            "query dimensionality does not match the training data"
        );
        self.predictions.fetch_add(1, Ordering::Relaxed);
        let mut features = Vec::with_capacity(query.len() + 1);
        features.extend_from_slice(query);
        features.push(eps);

        let mut model_idx = 0usize;
        let mut pred = 0.0f32;
        for (stage_idx, stage) in self.stages.iter().enumerate() {
            let model = &stage[model_idx.min(stage.len() - 1)];
            pred = model.predict(&features);
            if stage_idx + 1 < self.stages.len() {
                model_idx = route(
                    pred,
                    self.target_min,
                    self.target_max,
                    self.stages[stage_idx + 1].len(),
                );
            }
        }
        count_from_log(pred)
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

    fn train_rmi(data: &Dataset) -> RmiEstimator {
        let ts = TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        }
        .build(data, data)
        .unwrap();
        RmiEstimator::train(&ts, &RmiConfig::paper_stages(NetConfig::tiny()))
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

    #[test]
    fn estimates_are_finite_and_nonnegative() {
        let data = data();
        let rmi = train_rmi(&data);
        for i in (0..data.len()).step_by(23) {
            for eps in [0.1f32, 0.5, 0.9] {
                let e = rmi.estimate(data.row(i), eps);
                assert!(e.is_finite() && e >= 0.0);
            }
        }
        assert!(rmi.predictions().unwrap() > 0);
        assert_eq!(rmi.name(), "rmi");
    }

    #[test]
    fn rmi_learns_the_monotone_trend() {
        let data = data();
        let rmi = train_rmi(&data);
        let oracle = ExactEstimator::new(&data, Metric::Cosine);
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
        assert!(est_large > est_small);
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
    fn serde_round_trip_preserves_estimates() {
        let data = data();
        let rmi = train_rmi(&data);
        let json = serde_json::to_string(&rmi).unwrap();
        let back: RmiEstimator = serde_json::from_str(&json).unwrap();
        let q = data.row(3);
        assert_eq!(rmi.estimate(q, 0.4), back.estimate(q, 0.4));
    }
}
