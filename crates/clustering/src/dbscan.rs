//! Original DBSCAN (Ester et al. 1996) — the paper's ground truth.
//!
//! The implementation follows the black-text lines of the paper's
//! Algorithm 1 exactly (the red lines are the LAF additions, implemented in
//! the `laf-core` crate): every unclassified point consumes its ε-range
//! query; if it has at least τ neighbors it becomes a core point and its
//! cluster is expanded through a seed list, consuming one range query per
//! newly reached point that has not been classified yet.
//!
//! The queries themselves run through a [`RangeJoin`]: each point is
//! queried exactly once, so when the loop reaches a point whose list is not
//! computed yet, that list is computed together with the lists of the next
//! unclassified points the loop will reach (its seed list's, or the outer
//! loop's), in one `range_batch` call on the current rayon pool. Labels and
//! counters are identical to one `range` call per point.

use crate::join::{join_window, JoinTally, RangeJoin};
use crate::result::{Clusterer, Clustering, NOISE, UNDEFINED};
use laf_index::{build_engine, EngineChoice, RangeQueryEngine};
use laf_vector::{Dataset, Metric};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// DBSCAN parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbscanConfig {
    /// Distance threshold ε.
    pub eps: f32,
    /// Minimum number of neighbors τ (the range query result includes the
    /// query point itself, as in the paper).
    pub min_pts: usize,
    /// Distance metric (the paper's evaluation uses cosine distance).
    pub metric: Metric,
    /// Which range-query engine executes the queries.
    pub engine: EngineChoice,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        Self {
            eps: 0.5,
            min_pts: 3,
            metric: Metric::Cosine,
            engine: EngineChoice::Linear,
        }
    }
}

impl DbscanConfig {
    /// Convenience constructor with the paper's default metric (cosine) and
    /// the exact linear-scan engine.
    pub fn new(eps: f32, min_pts: usize) -> Self {
        Self {
            eps,
            min_pts,
            ..Default::default()
        }
    }
}

/// The original DBSCAN algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dbscan {
    /// Algorithm parameters.
    pub config: DbscanConfig,
}

impl Dbscan {
    /// Create a DBSCAN instance.
    pub fn new(config: DbscanConfig) -> Self {
        Self { config }
    }

    /// Shorthand for `Dbscan::new(DbscanConfig::new(eps, min_pts))`.
    pub fn with_params(eps: f32, min_pts: usize) -> Self {
        Self::new(DbscanConfig::new(eps, min_pts))
    }

    /// Run DBSCAN using an externally constructed engine (used by tests and
    /// ablations; [`Clusterer::cluster`] builds the engine from the config).
    pub fn cluster_with_engine(&self, data: &Dataset, engine: &dyn RangeQueryEngine) -> Clustering {
        self.cluster_windowed(data, engine, join_window(data.len()))
            .0
    }

    /// [`Dbscan::cluster_with_engine`] with the join's window forced to
    /// `window` rows, plus what the join did.
    pub(crate) fn cluster_windowed(
        &self,
        data: &Dataset,
        engine: &dyn RangeQueryEngine,
        window: usize,
    ) -> (Clustering, JoinTally) {
        let start = Instant::now();
        let n = data.len();
        let eps = self.config.eps;
        let tau = self.config.min_pts;
        let mut labels = vec![UNDEFINED; n];
        let mut join = RangeJoin::new(engine, data, eps, window);
        let mut range_queries = 0u64;
        let mut next_cluster: i64 = -1;

        for p in 0..n {
            if labels[p] != UNDEFINED {
                continue;
            }
            let next = (p + 1..n).filter(|&r| labels[r] == UNDEFINED);
            let neighbors = join.take(p, next);
            range_queries += 1;
            if neighbors.len() < tau {
                labels[p] = NOISE;
                continue;
            }
            next_cluster += 1;
            labels[p] = next_cluster;

            // Seed list: N \ {P}.
            let mut seeds: Vec<u32> = neighbors.into_iter().filter(|&q| q as usize != p).collect();
            let mut cursor = 0usize;
            while cursor < seeds.len() {
                let q = seeds[cursor] as usize;
                cursor += 1;
                if labels[q] == NOISE {
                    // Border point reached from a core point.
                    labels[q] = next_cluster;
                }
                if labels[q] != UNDEFINED {
                    continue;
                }
                labels[q] = next_cluster;
                let next = seeds[cursor..]
                    .iter()
                    .map(|&r| r as usize)
                    .filter(|&r| labels[r] == UNDEFINED);
                let q_neighbors = join.take(q, next);
                range_queries += 1;
                if q_neighbors.len() >= tau {
                    seeds.extend(q_neighbors);
                }
            }
        }

        let mut clustering = Clustering::new(labels);
        // Canonicalize cluster ids to first-appearance order so that two
        // algorithms producing the same partition (e.g. DBSCAN and
        // LAF-DBSCAN with an exact estimator) also produce identical labels.
        clustering.normalize_ids();
        clustering.elapsed = start.elapsed();
        clustering.range_queries = range_queries;
        clustering.distance_evaluations = engine.distance_evaluations();
        (clustering, join.tally())
    }
}

impl Clusterer for Dbscan {
    fn cluster(&self, data: &Dataset) -> Clustering {
        let engine = build_engine(self.config.engine, data, self.config.metric);
        self.cluster_with_engine(data, engine.as_ref())
    }

    fn name(&self) -> &'static str {
        "DBSCAN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::ops;

    /// Three tight angular clusters plus two isolated points.
    fn toy() -> Dataset {
        let mut rows = Vec::new();
        let centers = [0.0f32, 1.2, 2.4];
        for &c in &centers {
            for k in 0..5 {
                let a = c + k as f32 * 0.01;
                rows.push(vec![a.cos(), a.sin()]);
            }
        }
        rows.push(vec![(-1.0f32).cos(), (-1.0f32).sin()]);
        rows.push(vec![(-2.2f32).cos(), (-2.2f32).sin()]);
        let mut d = Dataset::from_rows(rows).unwrap();
        d.normalize();
        d
    }

    #[test]
    fn clusters_tight_groups_and_flags_noise() {
        let data = toy();
        let dbscan = Dbscan::with_params(0.01, 3);
        let result = dbscan.cluster(&data);
        assert_eq!(result.len(), 17);
        assert_eq!(result.n_clusters(), 3);
        assert_eq!(result.n_noise(), 2);
        // Points of the same planted group share a label.
        for g in 0..3 {
            let base = result.label(g * 5);
            assert!(base >= 0);
            for k in 1..5 {
                assert_eq!(result.label(g * 5 + k), base);
            }
        }
        // The two stragglers are noise.
        assert_eq!(result.label(15), NOISE);
        assert_eq!(result.label(16), NOISE);
        assert!(result.range_queries >= data.len() as u64 - 2);
        assert!(result.distance_evaluations > 0);
    }

    #[test]
    fn huge_eps_gives_one_cluster_tiny_eps_gives_all_noise() {
        let data = toy();
        let all_one = Dbscan::with_params(2.0, 3).cluster(&data);
        assert_eq!(all_one.n_clusters(), 1);
        assert_eq!(all_one.n_noise(), 0);

        let all_noise = Dbscan::with_params(1e-6, 3).cluster(&data);
        assert_eq!(all_noise.n_clusters(), 0);
        assert_eq!(all_noise.n_noise(), data.len());
    }

    #[test]
    fn min_pts_one_makes_every_point_core() {
        let data = toy();
        let result = Dbscan::with_params(0.01, 1).cluster(&data);
        assert_eq!(result.n_noise(), 0);
        assert_eq!(result.n_clusters(), 5);
    }

    #[test]
    fn engines_agree_on_the_result() {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 220,
            dim: 12,
            clusters: 5,
            noise_fraction: 0.25,
            seed: 9,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let linear = Dbscan::new(DbscanConfig {
            eps: 0.25,
            min_pts: 4,
            metric: Metric::Cosine,
            engine: EngineChoice::Linear,
        })
        .cluster(&data);
        let cover = Dbscan::new(DbscanConfig {
            eps: 0.25,
            min_pts: 4,
            metric: Metric::Cosine,
            engine: EngineChoice::CoverTree { basis: 2.0 },
        })
        .cluster(&data);
        // Exact engines must produce identical partitions (cluster ids may
        // in principle differ, but the deterministic scan order makes them
        // equal here).
        assert_eq!(linear.labels(), cover.labels());
    }

    #[test]
    fn border_points_join_a_cluster() {
        // A chain: dense core of 4 points, one border point reachable from a
        // core point but itself having too few neighbors.
        let mut rows = Vec::new();
        for k in 0..4 {
            let a = k as f32 * 0.005;
            rows.push(vec![a.cos(), a.sin()]);
        }
        let border = 0.06f32;
        rows.push(vec![border.cos(), border.sin()]);
        let far = 2.0f32;
        rows.push(vec![far.cos(), far.sin()]);
        let mut data = Dataset::from_rows(rows).unwrap();
        data.normalize();
        // eps in cosine distance ≈ 1 - cos(0.05 rad) ≈ 1.25e-3 — border point
        // is within eps of the nearest core point only.
        let result = Dbscan::with_params(2.5e-3, 3).cluster(&data);
        assert_eq!(result.n_clusters(), 1);
        assert_eq!(result.label(4), result.label(0), "border point must join");
        assert_eq!(result.label(5), NOISE);
    }

    #[test]
    fn deterministic_across_runs() {
        let data = toy();
        let a = Dbscan::with_params(0.01, 3).cluster(&data);
        let b = Dbscan::with_params(0.01, 3).cluster(&data);
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn normalized_vectors_preserve_cosine_neighborhoods() {
        // Sanity: unit normalization leaves cosine distances intact, so the
        // clustering of scaled copies matches the clustering of originals.
        let data = toy();
        let mut scaled_rows: Vec<Vec<f32>> = data.rows().map(|r| r.to_vec()).collect();
        for r in scaled_rows.iter_mut() {
            ops::scale_in_place(r, 3.7);
        }
        let mut scaled = Dataset::from_rows(scaled_rows).unwrap();
        scaled.normalize();
        let a = Dbscan::with_params(0.01, 3).cluster(&data);
        let b = Dbscan::with_params(0.01, 3).cluster(&scaled);
        assert_eq!(a.labels(), b.labels());
    }
}
