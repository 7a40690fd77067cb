//! LAF-DBSCAN++ — the LAF plugin applied to the sampling-based DBSCAN++.
//!
//! The paper uses this algorithm to demonstrate that LAF is generic: the same
//! two modules (cardinality-estimation gate and post-processing) accelerate
//! DBSCAN++ as well. Concretely:
//!
//! * the sample fraction is chosen as `p = δ + R_c`, where `R_c` is the
//!   fraction of points the estimator predicts to be core and δ is a
//!   user-supplied offset in 0.1–0.3 (Section 3.1 of the paper);
//! * inside the sampled subset, every core-detection range query is gated by
//!   the estimator with the fixed error factor α = 1.0;
//! * skipped points are tracked in the partial-neighbor map and the standard
//!   post-processing merges wrongly separated clusters at the end.

use crate::config::{LafConfig, LafStats};
use crate::gate::{CardEstGate, GateDecision};
use crate::partial::PartialNeighborMap;
use crate::post::PostProcessor;
use laf_cardest::CardinalityEstimator;
use laf_clustering::{
    join_window, label_from_cores, Clusterer, Clustering, DbscanPlusPlus, DbscanPlusPlusConfig,
    JoinTally, RangeJoin,
};
use laf_index::{build_engine, RangeQueryEngine};
use laf_vector::Dataset;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters specific to LAF-DBSCAN++ (everything else lives in
/// [`LafConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LafDbscanPlusPlusConfig {
    /// Shared LAF parameters. The paper fixes `alpha = 1.0` for this
    /// algorithm; the field is honored as configured so ablations can vary it.
    pub laf: LafConfig,
    /// Offset δ added to the predicted core ratio when choosing the sample
    /// fraction (paper: 0.1–0.3).
    pub delta: f64,
    /// Number of points used to estimate the predicted-core ratio `R_c`
    /// (capped at the dataset size).
    pub core_ratio_probe: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for LafDbscanPlusPlusConfig {
    fn default() -> Self {
        Self {
            laf: LafConfig {
                alpha: 1.0,
                ..LafConfig::default()
            },
            delta: 0.2,
            core_ratio_probe: 1_000,
            seed: 0xDB5C,
        }
    }
}

impl LafDbscanPlusPlusConfig {
    /// Convenience constructor (α stays 1.0 as in the paper).
    pub fn new(eps: f32, min_pts: usize, delta: f64) -> Self {
        Self {
            laf: LafConfig {
                eps,
                min_pts,
                alpha: 1.0,
                ..LafConfig::default()
            },
            delta,
            ..Default::default()
        }
    }
}

/// DBSCAN++ accelerated by the LAF plugin.
pub struct LafDbscanPlusPlus<E: CardinalityEstimator> {
    /// Algorithm parameters.
    pub config: LafDbscanPlusPlusConfig,
    estimator: E,
}

impl<E: CardinalityEstimator> LafDbscanPlusPlus<E> {
    /// Build LAF-DBSCAN++ from a configuration and a trained estimator.
    pub fn new(config: LafDbscanPlusPlusConfig, estimator: E) -> Self {
        Self { config, estimator }
    }

    /// Borrow the estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// Estimate the predicted-core ratio `R_c` over a probe of the dataset
    /// and derive the sample fraction `p = δ + R_c` (clamped into (0, 1]).
    ///
    /// The probe rows are estimated with one batched
    /// [`CardinalityEstimator::estimate_batch`] call (bit-exact with the
    /// per-point loop this method used before), inside the configured pool
    /// so an estimator that fans out internally (e.g. the exact oracle's
    /// blocked scan) honors the threads knob.
    pub fn sample_fraction(&self, data: &Dataset) -> f64 {
        self.config
            .laf
            .run_in_pool(|| self.fraction_on_current_pool(data))
    }

    /// [`LafDbscanPlusPlus::sample_fraction`] on the current rayon pool.
    fn fraction_on_current_pool(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return self.config.delta.clamp(0.05, 1.0);
        }
        let cfg = &self.config;
        let probe = cfg.core_ratio_probe.max(1).min(data.len());
        let stride = (data.len() / probe).max(1);
        let threshold = cfg.laf.skip_threshold();
        let rows: Vec<&[f32]> = (0..data.len())
            .step_by(stride)
            .map(|i| data.row(i))
            .collect();
        let estimates = self.estimator.estimate_batch(&rows, cfg.laf.eps);
        let predicted_core = estimates
            .iter()
            .filter(|est| !est.is_finite() || **est >= threshold)
            .count();
        let r_c = predicted_core as f64 / rows.len().max(1) as f64;
        (cfg.delta + r_c).clamp(0.05, 1.0)
    }

    /// Run the clustering and return the LAF bookkeeping counters.
    ///
    /// One pool of [`LafConfig::threads`] workers serves the whole run: the
    /// sample-fraction probe, the prescan of the sampled points, the
    /// windowed `range_batch` calls of phase 1 (see
    /// [`crate::LafDbscan::cluster_with_stats`]; here a window is the next
    /// sampled `Execute` points) and the closest-core assignment of
    /// [`label_from_cores`].
    pub fn cluster_with_stats(&self, data: &Dataset) -> (Clustering, LafStats) {
        let start = Instant::now();
        if data.is_empty() {
            return (Clustering::new(Vec::new()), LafStats::default());
        }
        let laf = &self.config.laf;
        let engine = build_engine(laf.engine, data, laf.metric);
        let (mut clustering, stats, _) = self.cluster_windowed(data, engine.as_ref(), None);
        clustering.elapsed = start.elapsed();
        (clustering, stats)
    }

    /// [`LafDbscanPlusPlus::cluster_with_stats`] over a caller-supplied
    /// engine, with the join's window forced to `window` rows (`None`:
    /// [`join_window`]), plus what the join did.
    pub(crate) fn cluster_windowed(
        &self,
        data: &Dataset,
        engine: &dyn RangeQueryEngine,
        window: Option<usize>,
    ) -> (Clustering, LafStats, JoinTally) {
        let n = data.len();
        let cfg = &self.config;
        cfg.laf.run_in_pool(|| {
            let eps = cfg.laf.eps;
            let tau = cfg.laf.min_pts;
            let gate = CardEstGate::new(&self.estimator, &cfg.laf);
            let mut partial = PartialNeighborMap::new();
            let mut executed_queries = 0u64;

            // Sample subset with p = δ + R_c (reusing DBSCAN++'s sampler so the
            // subset matches the baseline's given the same fraction and seed).
            let fraction = self.fraction_on_current_pool(data);
            let sampler = DbscanPlusPlus::new(DbscanPlusPlusConfig {
                eps,
                min_pts: tau,
                sample_fraction: fraction,
                metric: cfg.laf.metric,
                engine: cfg.laf.engine,
                seed: cfg.seed,
            });
            let sample = sampler.sample_indices(n);

            // LAF: batch-predict the sampled points' cardinalities up front
            // (parallel, batched; see `LafDbscan::cluster_with_stats` for the
            // execution model). Only the sample is prescanned — estimating the
            // whole dataset would re-introduce the O(n) estimator cost that
            // sampling exists to avoid. Decisions are indexed by sample slot.
            let sample_rows: Vec<&[f32]> = sample.iter().map(|&s| data.row(s)).collect();
            let prescan = gate.prescan_rows(&sample_rows);
            let window = window.unwrap_or_else(|| join_window(n));
            let mut join = RangeJoin::new(engine, data, eps, window);

            // Phase 1: gated core detection inside the sample.
            let mut core_points: Vec<usize> = Vec::new();
            let mut core_neighbors: Vec<Vec<u32>> = Vec::new();
            for (slot, &s) in sample.iter().enumerate() {
                if gate.decide(&prescan, slot) {
                    partial.register_stop_point(s as u32);
                    continue;
                }
                let next = (slot + 1..sample.len())
                    .filter(|&t| prescan.decision(t) == GateDecision::Execute)
                    .map(|t| sample[t]);
                let neighbors = join.take(s, next);
                executed_queries += 1;
                partial.update(s as u32, &neighbors);
                if neighbors.len() >= tau {
                    core_points.push(s);
                    core_neighbors.push(neighbors);
                }
            }

            // Phases 2–3: grow clusters over the sampled core points, then
            // assign the remaining points to the closest core point within ε.
            let mut labels =
                label_from_cores(data, cfg.laf.metric, eps, &core_points, &core_neighbors);

            // Phase 4: post-processing merges clusters separated by false
            // negatives among the skipped sampled points (switchable only for
            // ablation studies).
            let report = if cfg.laf.post_processing {
                PostProcessor::new(tau).process(&mut labels, &partial)
            } else {
                Default::default()
            };

            let stats = LafStats {
                cardest_calls: gate.calls(),
                skipped_range_queries: gate.skips(),
                executed_range_queries: executed_queries,
                predicted_stop_points: partial.len() as u64,
                detected_false_negatives: report.detected_false_negatives,
                merged_clusters: report.merged_clusters,
                prescan_batches: prescan.batches,
                prescan_batch_size: prescan.batch_size,
                prescan_last_batch_size: prescan.last_batch_size,
            };

            let mut clustering = Clustering::new(labels);
            clustering.normalize_ids();
            clustering.range_queries = executed_queries;
            clustering.skipped_range_queries = stats.skipped_range_queries;
            clustering.distance_evaluations = engine.distance_evaluations();
            (clustering, stats, join.tally())
        })
    }
}

impl<E: CardinalityEstimator> Clusterer for LafDbscanPlusPlus<E> {
    fn cluster(&self, data: &Dataset) -> Clustering {
        self.cluster_with_stats(data).0
    }

    fn name(&self) -> &'static str {
        "LAF-DBSCAN++"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{
        ConstantEstimator, ExactEstimator, NetConfig, RmiConfig, RmiEstimator, TrainingSetBuilder,
    };
    use laf_clustering::Dbscan;
    use laf_metrics::adjusted_rand_index;
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::Metric;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim: 12,
            clusters: 5,
            spread: 0.05,
            noise_fraction: 0.2,
            seed: 131,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn sample_fraction_combines_delta_and_core_ratio() {
        let data = data();
        // Estimator that calls everything core: R_c = 1 → fraction clamps to 1.
        let all_core = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::new(0.25, 4, 0.2),
            ConstantEstimator::new(f32::INFINITY),
        );
        assert_eq!(all_core.sample_fraction(&data), 1.0);
        // Estimator that calls nothing core: fraction = δ.
        let none_core = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::new(0.25, 4, 0.2),
            ConstantEstimator::new(0.0),
        );
        assert!((none_core.sample_fraction(&data) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn oracle_estimator_matches_full_sample_dbscan_pp_quality() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf_pp = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::new(0.25, 4, 0.3),
            ExactEstimator::new(&data, Metric::Cosine),
        );
        let (result, stats) = laf_pp.cluster_with_stats(&data);
        let ari = adjusted_rand_index(truth.labels(), result.labels());
        assert!(ari > 0.6, "ARI {ari}");
        // The oracle skips exactly the non-core sampled points.
        assert!(stats.skipped_range_queries > 0);
        assert!(stats.executed_range_queries > 0);
    }

    #[test]
    fn learned_estimator_is_faster_than_dbscan_pp_in_queries() {
        let data = data();
        let ts = TrainingSetBuilder {
            max_queries: Some(150),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        let estimator = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
        let laf_pp = LafDbscanPlusPlus::new(LafDbscanPlusPlusConfig::new(0.25, 4, 0.2), estimator);
        let (result, stats) = laf_pp.cluster_with_stats(&data);
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let ari = adjusted_rand_index(truth.labels(), result.labels());
        assert!(ari > 0.4, "ARI {ari}");
        // Every gate decision either skipped or executed the range query.
        assert_eq!(
            stats.executed_range_queries + stats.skipped_range_queries,
            stats.cardest_calls
        );
    }

    #[test]
    fn empty_dataset() {
        let empty = Dataset::new(4).unwrap();
        let laf_pp = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::default(),
            ConstantEstimator::new(1.0),
        );
        let (result, stats) = laf_pp.cluster_with_stats(&empty);
        assert!(result.is_empty());
        assert_eq!(stats, LafStats::default());
        assert_eq!(laf_pp.name(), "LAF-DBSCAN++");
    }

    #[test]
    fn zero_estimator_gives_all_noise() {
        let data = data();
        let laf_pp = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::new(0.25, 4, 0.2),
            ConstantEstimator::new(0.0),
        );
        let (result, stats) = laf_pp.cluster_with_stats(&data);
        assert_eq!(result.n_noise(), data.len());
        assert_eq!(stats.executed_range_queries, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = data();
        let run = || {
            LafDbscanPlusPlus::new(
                LafDbscanPlusPlusConfig::new(0.25, 4, 0.3),
                ExactEstimator::new(&data, Metric::Cosine),
            )
            .cluster(&data)
        };
        assert_eq!(run().labels(), run().labels());
    }
}
