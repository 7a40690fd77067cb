//! DBSCAN++ (Jang & Jiang 2018) — the sampling-based variant LAF also
//! accelerates.
//!
//! DBSCAN++ samples a fraction `p` of the points, determines which of the
//! *sampled* points are core **with respect to the entire dataset**, grows
//! clusters over those sampled core points, and finally assigns every
//! remaining unclassified point to the cluster of its closest core point
//! (within ε; points with no core point within ε stay noise). Only the
//! sampled points pay for range queries, which is where the speedup comes
//! from; the quality loss comes from core points outside the sample being
//! invisible to the cluster-growing phase.
//!
//! Execution: the sampled points' range queries run through a
//! [`RangeJoin`] in windows of consecutive sampled points, one
//! `range_batch` call per window on the current rayon pool. The cluster
//! growth and the closest-core assignment are [`label_from_cores`], which
//! LAF-DBSCAN++ shares; the assignment fans the points out over the same
//! pool. Labels are identical to one `range` call per sampled point and a
//! sequential assignment.

use crate::join::{join_window, JoinTally, RangeJoin};
use crate::result::{Clusterer, Clustering, NOISE, UNDEFINED};
use laf_index::{build_engine, EngineChoice, RangeQueryEngine};
use laf_vector::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// DBSCAN++ parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbscanPlusPlusConfig {
    /// Distance threshold ε.
    pub eps: f32,
    /// Minimum number of neighbors τ.
    pub min_pts: usize,
    /// Fraction of points sampled into the subset, in `(0, 1]`. The paper
    /// sets `p = δ + R_c` where `R_c` is the predicted core-point ratio and
    /// δ ∈ [0.1, 0.3]; the resulting values land in 0.2–0.6.
    pub sample_fraction: f64,
    /// Distance metric.
    pub metric: Metric,
    /// Range-query engine.
    pub engine: EngineChoice,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for DbscanPlusPlusConfig {
    fn default() -> Self {
        Self {
            eps: 0.5,
            min_pts: 3,
            sample_fraction: 0.3,
            metric: Metric::Cosine,
            engine: EngineChoice::Linear,
            seed: 0xDB5C,
        }
    }
}

impl DbscanPlusPlusConfig {
    /// Convenience constructor.
    pub fn new(eps: f32, min_pts: usize, sample_fraction: f64) -> Self {
        Self {
            eps,
            min_pts,
            sample_fraction,
            ..Default::default()
        }
    }
}

/// The DBSCAN++ algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbscanPlusPlus {
    /// Algorithm parameters.
    pub config: DbscanPlusPlusConfig,
}

impl DbscanPlusPlus {
    /// Create a DBSCAN++ instance.
    pub fn new(config: DbscanPlusPlusConfig) -> Self {
        Self { config }
    }

    /// Shorthand constructor.
    pub fn with_params(eps: f32, min_pts: usize, sample_fraction: f64) -> Self {
        Self::new(DbscanPlusPlusConfig::new(eps, min_pts, sample_fraction))
    }

    /// The sampled subset used for core detection (exposed so LAF-DBSCAN++
    /// can reuse exactly the same subset selection logic).
    pub fn sample_indices(&self, n: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut rng);
        let keep = ((n as f64) * self.config.sample_fraction.clamp(0.0, 1.0)).round() as usize;
        indices.truncate(keep.max(1).min(n));
        indices.sort_unstable();
        indices
    }

    /// Run DBSCAN++ with an externally constructed engine.
    pub fn cluster_with_engine(&self, data: &Dataset, engine: &dyn RangeQueryEngine) -> Clustering {
        self.cluster_windowed(data, engine, join_window(data.len()))
            .0
    }

    /// [`DbscanPlusPlus::cluster_with_engine`] with the join's window forced
    /// to `window` rows, plus what the join did.
    pub(crate) fn cluster_windowed(
        &self,
        data: &Dataset,
        engine: &dyn RangeQueryEngine,
        window: usize,
    ) -> (Clustering, JoinTally) {
        let start = Instant::now();
        let n = data.len();
        if n == 0 {
            return (Clustering::new(Vec::new()), JoinTally::default());
        }
        let eps = self.config.eps;
        let tau = self.config.min_pts;
        let mut join = RangeJoin::new(engine, data, eps, window);
        let mut range_queries = 0u64;

        // Phase 1: core detection within the sample, w.r.t. the whole dataset.
        let sample = self.sample_indices(n);
        let mut core_points: Vec<usize> = Vec::new();
        let mut core_neighbors: Vec<Vec<u32>> = Vec::new();
        for (slot, &s) in sample.iter().enumerate() {
            let neighbors = join.take(s, sample[slot + 1..].iter().copied());
            range_queries += 1;
            if neighbors.len() >= tau {
                core_points.push(s);
                core_neighbors.push(neighbors);
            }
        }

        // Phases 2–3.
        let labels = label_from_cores(data, self.config.metric, eps, &core_points, &core_neighbors);

        let mut clustering = Clustering::new(labels);
        clustering.elapsed = start.elapsed();
        clustering.range_queries = range_queries;
        clustering.distance_evaluations = engine.distance_evaluations();
        (clustering, join.tally())
    }
}

/// Phases 2–3 of DBSCAN++, shared with LAF-DBSCAN++: grow clusters over the
/// sampled core points, then give every other point the cluster of its
/// closest core point within ε, or noise.
///
/// `core_neighbors[i]` is the ε-neighbourhood of `core_points[i]`; two core
/// points share a cluster when one lies in the other's neighbourhood. The
/// assignment fans the points out over the current rayon pool. Each point
/// reads only the final labels of core points, so the labels do not depend
/// on the thread count.
pub fn label_from_cores(
    data: &Dataset,
    metric: Metric,
    eps: f32,
    core_points: &[usize],
    core_neighbors: &[Vec<u32>],
) -> Vec<i64> {
    let n = data.len();
    let mut labels = vec![UNDEFINED; n];
    let mut core_slot: Vec<Option<usize>> = vec![None; n];
    for (slot, &c) in core_points.iter().enumerate() {
        core_slot[c] = Some(slot);
    }
    let mut next_cluster: i64 = -1;
    for (slot, &c) in core_points.iter().enumerate() {
        if labels[c] != UNDEFINED {
            continue;
        }
        next_cluster += 1;
        // BFS over core points connected through ε-neighborhoods.
        let mut queue = vec![slot];
        labels[c] = next_cluster;
        while let Some(cur_slot) = queue.pop() {
            for &nb in &core_neighbors[cur_slot] {
                let nb = nb as usize;
                if let Some(nb_slot) = core_slot[nb] {
                    if labels[nb] == UNDEFINED {
                        labels[nb] = next_cluster;
                        queue.push(nb_slot);
                    }
                }
            }
        }
    }

    // Every other point (non-core sampled points and unsampled points)
    // joins the cluster of its closest core point within ε; otherwise it is
    // noise.
    let labels = &labels;
    (0..n)
        .into_par_iter()
        .map(|p| {
            if labels[p] != UNDEFINED {
                return labels[p];
            }
            let row = data.row(p);
            let mut best: Option<(f32, i64)> = None;
            for &c in core_points {
                let d = metric.dist(row, data.row(c));
                if d < eps {
                    match best {
                        Some((bd, _)) if bd <= d => {}
                        _ => best = Some((d, labels[c])),
                    }
                }
            }
            best.map(|(_, l)| l).unwrap_or(NOISE)
        })
        .collect()
}

impl Clusterer for DbscanPlusPlus {
    fn cluster(&self, data: &Dataset) -> Clustering {
        let engine = build_engine(self.config.engine, data, self.config.metric);
        self.cluster_with_engine(data, engine.as_ref())
    }

    fn name(&self) -> &'static str {
        "DBSCAN++"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::Dbscan;
    use laf_metrics::adjusted_rand_index;
    use laf_synth::EmbeddingMixtureConfig;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim: 12,
            clusters: 5,
            spread: 0.05,
            noise_fraction: 0.2,
            seed: 61,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn sample_indices_respect_fraction_and_are_unique() {
        let algo = DbscanPlusPlus::with_params(0.3, 4, 0.25);
        let idx = algo.sample_indices(200);
        assert_eq!(idx.len(), 50);
        let mut sorted = idx.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), idx.len());
        assert!(idx.iter().all(|&i| i < 200));
        // Degenerate fractions are clamped to at least one point.
        let tiny = DbscanPlusPlus::with_params(0.3, 4, 0.0);
        assert_eq!(tiny.sample_indices(10).len(), 1);
        let full = DbscanPlusPlus::with_params(0.3, 4, 1.0);
        assert_eq!(full.sample_indices(10).len(), 10);
    }

    #[test]
    fn full_sample_fraction_approximates_dbscan_closely() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let pp = DbscanPlusPlus::with_params(0.25, 4, 1.0).cluster(&data);
        let ari = adjusted_rand_index(truth.labels(), pp.labels());
        assert!(ari > 0.9, "ARI {ari} too low for p=1.0");
    }

    #[test]
    fn moderate_sample_keeps_reasonable_quality_with_fewer_queries() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let pp = DbscanPlusPlus::with_params(0.25, 4, 0.4).cluster(&data);
        let ari = adjusted_rand_index(truth.labels(), pp.labels());
        assert!(ari > 0.5, "ARI {ari} too low for p=0.4");
        assert!(
            pp.range_queries < truth.range_queries,
            "sampling must issue fewer range queries ({} vs {})",
            pp.range_queries,
            truth.range_queries
        );
    }

    #[test]
    fn empty_dataset_is_handled() {
        let empty = Dataset::new(4).unwrap();
        let result = DbscanPlusPlus::with_params(0.3, 3, 0.5).cluster(&empty);
        assert!(result.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = data();
        let a = DbscanPlusPlus::with_params(0.25, 4, 0.3).cluster(&data);
        let b = DbscanPlusPlus::with_params(0.25, 4, 0.3).cluster(&data);
        assert_eq!(a.labels(), b.labels());
        let mut cfg = DbscanPlusPlusConfig::new(0.25, 4, 0.3);
        cfg.seed = 777;
        let c = DbscanPlusPlus::new(cfg).cluster(&data);
        // A different sample may (and generally does) change some labels.
        assert_eq!(c.len(), a.len());
    }

    #[test]
    fn no_core_points_means_all_noise() {
        let data = data();
        // τ larger than the dataset: nothing can be core.
        let result = DbscanPlusPlus::with_params(0.25, data.len() + 1, 0.5).cluster(&data);
        assert_eq!(result.n_noise(), data.len());
        assert_eq!(result.n_clusters(), 0);
    }
}
