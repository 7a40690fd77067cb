//! LAF configuration and run statistics.

use laf_index::EngineChoice;
use laf_vector::Metric;
use serde::{Deserialize, Serialize};

/// Parameters shared by the LAF-enhanced algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LafConfig {
    /// Distance threshold ε.
    pub eps: f32,
    /// Minimum number of neighbors τ.
    pub min_pts: usize,
    /// Error factor α: the cardinality prediction is compared against `α·τ`.
    /// The paper tunes this per dataset (Table 1: 1.15–7.7 for LAF-DBSCAN)
    /// and fixes it to 1.0 for LAF-DBSCAN++.
    pub alpha: f32,
    /// Distance metric (the paper's method targets angular distances).
    pub metric: Metric,
    /// Range-query engine used for the queries that are not skipped.
    pub engine: EngineChoice,
    /// Whether the post-processing module runs after clustering. The paper's
    /// framework always enables it; the switch exists for the ablation
    /// benchmarks that quantify how much quality the module recovers.
    #[serde(default = "default_post_processing")]
    pub post_processing: bool,
    /// Number of worker threads of the pool one clustering run builds. `0`
    /// means "use all available cores". The pool runs the gate prescan, the
    /// windowed `range_batch` calls that compute the executed points'
    /// ε-neighbourhoods (see `laf_clustering::RangeJoin`) and LAF-DBSCAN++'s
    /// closest-core assignment. The labelling loop itself stays on the
    /// calling thread; cluster assignments and [`LafStats`] are
    /// byte-identical for every thread count.
    #[serde(default)]
    pub threads: usize,
}

fn default_post_processing() -> bool {
    true
}

impl Default for LafConfig {
    fn default() -> Self {
        Self {
            eps: 0.5,
            min_pts: 3,
            alpha: 1.0,
            metric: Metric::Cosine,
            engine: EngineChoice::Linear,
            post_processing: true,
            threads: 0,
        }
    }
}

impl LafConfig {
    /// Convenience constructor.
    pub fn new(eps: f32, min_pts: usize, alpha: f32) -> Self {
        Self {
            eps,
            min_pts,
            alpha,
            ..Default::default()
        }
    }

    /// The skip threshold `α·τ` the estimator output is compared against.
    pub fn skip_threshold(&self) -> f32 {
        self.alpha * self.min_pts as f32
    }

    /// Build the pool of [`LafConfig::threads`] workers and run `op` inside
    /// it, so every parallel call `op` makes — prescan, join windows,
    /// assignment — shares one pool. Falls back to the ambient pool when
    /// construction fails (e.g. thread spawning denied) instead of
    /// panicking. A clustering run calls this once, around the whole run.
    pub(crate) fn run_in_pool<R>(&self, op: impl FnOnce() -> R) -> R {
        match rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
        {
            Ok(pool) => pool.install(op),
            Err(_) => op(),
        }
    }
}

/// Counters describing how much work LAF saved and how much repair the
/// post-processing performed. Attached to every LAF clustering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LafStats {
    /// Number of cardinality-estimator invocations.
    pub cardest_calls: u64,
    /// Range queries skipped because the estimator predicted a stop point.
    pub skipped_range_queries: u64,
    /// Range queries actually executed.
    pub executed_range_queries: u64,
    /// Predicted stop points recorded in the partial-neighbor map.
    pub predicted_stop_points: u64,
    /// Detected false negatives (`|E(P)| ≥ τ`) found by post-processing.
    pub detected_false_negatives: u64,
    /// Number of cluster-merge operations the post-processing performed.
    pub merged_clusters: u64,
    /// Number of estimator batches issued by the gate prescan (0 when the
    /// run had no prescan, e.g. on an empty dataset).
    #[serde(default)]
    pub prescan_batches: u64,
    /// Size of every prescan batch except possibly the last: the prescanned
    /// row count capped at [`crate::gate::PRESCAN_BATCH`].
    #[serde(default)]
    pub prescan_batch_size: u64,
    /// Size of the final prescan batch actually fed to `estimate_batch`
    /// (smaller than `prescan_batch_size` when the row count does not divide
    /// evenly into full batches; 0 when the run had no prescan).
    #[serde(default)]
    pub prescan_last_batch_size: u64,
}

impl LafStats {
    /// Fraction of gate decisions that skipped the range query.
    pub fn skip_ratio(&self) -> f64 {
        if self.cardest_calls == 0 {
            0.0
        } else {
            self.skipped_range_queries as f64 / self.cardest_calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_threshold_is_alpha_times_tau() {
        let cfg = LafConfig::new(0.5, 5, 2.0);
        assert_eq!(cfg.skip_threshold(), 10.0);
        let default = LafConfig::default();
        assert_eq!(default.skip_threshold(), default.min_pts as f32);
    }

    #[test]
    fn stats_skip_ratio() {
        let mut stats = LafStats::default();
        assert_eq!(stats.skip_ratio(), 0.0);
        stats.cardest_calls = 10;
        stats.skipped_range_queries = 4;
        assert!((stats.skip_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = LafConfig::new(0.55, 5, 7.7);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: LafConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
