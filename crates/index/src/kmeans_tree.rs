//! FLANN-style hierarchical k-means tree (the KNN-BLOCK DBSCAN substrate).
//!
//! KNN-BLOCK DBSCAN prunes DBSCAN's distance computations using approximate
//! k-nearest-neighbor queries answered by a k-means tree, tuned by two
//! parameters the paper controls explicitly: the **branching factor** (set to
//! 10) and the **ratio of leaves to check** (set to 0.6; swept 0.001–0.3 in
//! the trade-off study). This module implements that index: the dataset is
//! recursively partitioned by k-means into `branching` children per node, and
//! queries perform a best-bin-first traversal that stops after visiting
//! `leaf_ratio` of the leaves — so both knobs have exactly the paper's
//! semantics (smaller ratio ⇒ faster and less accurate).
//!
//! Queries are therefore **approximate**: `range` and `knn` may miss
//! neighbors that live in unvisited leaves. The exact-oracle comparison lives
//! in the tests, which check recall rather than equality.

use crate::engine::{Neighbor, RangeQueryEngine, TotalDist};
use crate::persist::{PersistError, PersistedEngine, PersistedKMeansTree, PersistedKmNode};
use laf_vector::{ops, Dataset, Metric, PreparedQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

const LEAF_SIZE: usize = 24;
const KMEANS_ITERS: usize = 6;

#[derive(Debug)]
struct KmNode {
    centroid: Vec<f32>,
    /// `ops::norm(centroid)`, cached at construction for the traversal's
    /// prepared distance.
    centroid_norm: f32,
    children: Vec<u32>,
    /// Points stored at this node (leaves only).
    points: Vec<u32>,
}

/// Hierarchical k-means tree for approximate neighbor search.
pub struct KMeansTree<'a> {
    data: &'a Dataset,
    metric: Metric,
    branching: usize,
    leaf_ratio: f64,
    nodes: Vec<KmNode>,
    root: Option<u32>,
    n_leaves: usize,
    evaluations: AtomicU64,
}

impl<'a> KMeansTree<'a> {
    /// Build a k-means tree over `data`.
    ///
    /// `branching` is clamped to at least 2; `leaf_ratio` is clamped into
    /// `(0, 1]`.
    pub fn new(
        data: &'a Dataset,
        metric: Metric,
        branching: usize,
        leaf_ratio: f64,
        seed: u64,
    ) -> Self {
        let branching = branching.max(2);
        let leaf_ratio = if leaf_ratio <= 0.0 {
            0.01
        } else {
            leaf_ratio.min(1.0)
        };
        let mut tree = Self {
            data,
            metric,
            branching,
            leaf_ratio,
            nodes: Vec::new(),
            root: None,
            n_leaves: 0,
            evaluations: AtomicU64::new(0),
        };
        if !data.is_empty() {
            let mut rng = StdRng::seed_from_u64(seed);
            let all: Vec<u32> = (0..data.len() as u32).collect();
            let root = tree.build(all, &mut rng);
            tree.root = Some(root);
        }
        tree
    }

    /// Rebuild a tree from a [persisted structure](PersistedKMeansTree),
    /// skipping every k-means iteration the original construction ran. The
    /// leaf count is recomputed from the node arena; the caller is expected to
    /// have [validated](PersistedEngine::validate) the structure against
    /// `data`.
    ///
    /// # Errors
    /// Returns [`PersistError`] when the clamped-parameter invariants of
    /// [`KMeansTree::new`] do not hold (branching < 2, leaf ratio outside
    /// `(0, 1]`).
    pub fn from_persisted(
        data: &'a Dataset,
        p: &PersistedKMeansTree,
    ) -> Result<Self, PersistError> {
        if p.branching < 2 {
            return Err(PersistError::new(format!(
                "branching {} below the minimum of 2",
                p.branching
            )));
        }
        if !(p.leaf_ratio > 0.0 && p.leaf_ratio <= 1.0) {
            return Err(PersistError::new(format!(
                "leaf ratio {} outside (0, 1]",
                p.leaf_ratio
            )));
        }
        let nodes: Vec<KmNode> = p
            .nodes
            .iter()
            .map(|n| KmNode {
                centroid: n.centroid.clone(),
                centroid_norm: ops::norm(&n.centroid),
                children: n.children.clone(),
                points: n.points.clone(),
            })
            .collect();
        let n_leaves = nodes.iter().filter(|n| n.children.is_empty()).count();
        Ok(Self {
            data,
            metric: p.metric,
            branching: p.branching as usize,
            leaf_ratio: p.leaf_ratio,
            nodes,
            root: p.root,
            n_leaves,
            evaluations: AtomicU64::new(0),
        })
    }

    /// The branching factor the tree was built with.
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// The fraction of leaves each query visits.
    pub fn leaf_ratio(&self) -> f64 {
        self.leaf_ratio
    }

    /// Number of leaves (diagnostics / tests).
    pub fn leaf_count(&self) -> usize {
        self.n_leaves
    }

    fn build(&mut self, points: Vec<u32>, rng: &mut StdRng) -> u32 {
        let centroid = ops::mean(
            points.iter().map(|&p| self.data.row(p as usize)),
            self.data.dim(),
        )
        .expect("build is never called with an empty point set");

        if points.len() <= LEAF_SIZE.max(self.branching) {
            let id = self.nodes.len() as u32;
            let centroid_norm = ops::norm(&centroid);
            self.nodes.push(KmNode {
                centroid,
                centroid_norm,
                children: Vec::new(),
                points,
            });
            self.n_leaves += 1;
            return id;
        }

        let assignment = self.kmeans(&points, rng);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.branching];
        for (&p, &a) in points.iter().zip(&assignment) {
            buckets[a].push(p);
        }
        let non_empty: Vec<Vec<u32>> = buckets.into_iter().filter(|b| !b.is_empty()).collect();
        if non_empty.len() <= 1 {
            // k-means failed to split (identical points); make a leaf.
            let id = self.nodes.len() as u32;
            let centroid_norm = ops::norm(&centroid);
            self.nodes.push(KmNode {
                centroid,
                centroid_norm,
                children: Vec::new(),
                points,
            });
            self.n_leaves += 1;
            return id;
        }

        let children: Vec<u32> = non_empty.into_iter().map(|b| self.build(b, rng)).collect();
        let id = self.nodes.len() as u32;
        let centroid_norm = ops::norm(&centroid);
        self.nodes.push(KmNode {
            centroid,
            centroid_norm,
            children,
            points: Vec::new(),
        });
        id
    }

    /// A few Lloyd iterations over the given subset; returns the per-point
    /// cluster assignment in `0..branching`.
    fn kmeans(&self, points: &[u32], rng: &mut StdRng) -> Vec<usize> {
        let k = self.branching.min(points.len());
        let dim = self.data.dim();
        // Initialize centroids from random distinct points.
        let mut centroid_ids: Vec<usize> = (0..points.len()).collect();
        for i in 0..k {
            let j = rng.gen_range(i..points.len());
            centroid_ids.swap(i, j);
        }
        let mut centroids: Vec<Vec<f32>> = centroid_ids[..k]
            .iter()
            .map(|&i| self.data.row(points[i] as usize).to_vec())
            .collect();
        let mut assignment = vec![0usize; points.len()];
        let row_norms = self.data.row_norms();
        for _ in 0..KMEANS_ITERS {
            // Assign. Row norms come from the dataset cache; centroid norms
            // are recomputed once per Lloyd iteration (the centroids just
            // moved). Distances are bit-identical to `Metric::dist`.
            let iter_norms: Vec<f32> = centroids.iter().map(|c| ops::norm(c)).collect();
            self.evaluations
                .fetch_add((points.len() * centroids.len()) as u64, Ordering::Relaxed);
            for (slot, &p) in points.iter().enumerate() {
                let row = self.data.row(p as usize);
                let prep = self
                    .metric
                    .prepare_with_norm(row, row_norms.norm(p as usize));
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c_idx, c) in centroids.iter().enumerate() {
                    let d = prep.dist(c, iter_norms[c_idx]);
                    if d < best_d {
                        best_d = d;
                        best = c_idx;
                    }
                }
                assignment[slot] = best;
            }
            // Update.
            let mut sums = vec![vec![0.0f32; dim]; k];
            let mut counts = vec![0usize; k];
            for (slot, &p) in points.iter().enumerate() {
                let a = assignment[slot];
                ops::axpy(1.0, self.data.row(p as usize), &mut sums[a]);
                counts[a] += 1;
            }
            for (c_idx, sum) in sums.into_iter().enumerate() {
                if counts[c_idx] > 0 {
                    let mut c = sum;
                    ops::scale_in_place(&mut c, 1.0 / counts[c_idx] as f32);
                    centroids[c_idx] = c;
                }
            }
        }
        assignment
    }

    /// Best-bin-first traversal visiting up to `leaf_budget` leaves; calls
    /// `visit` with each leaf's point list. The caller prepares the query
    /// once for both the traversal and its leaf scan; every centroid
    /// comparison then costs a single dot product (centroid norms are cached
    /// on the nodes). Adds the query's
    /// distance evaluations to the counter in one step: one per centroid
    /// compared, plus one per point of the visited leaves, which every caller
    /// scans in full.
    fn traverse<F: FnMut(&[u32])>(&self, prep: &PreparedQuery<'_>, mut visit: F) {
        let Some(root) = self.root else { return };
        let leaf_budget = ((self.n_leaves as f64) * self.leaf_ratio).ceil().max(1.0) as usize;
        let mut visited = 0usize;
        let mut evals = 0u64;
        let mut pq: BinaryHeap<Reverse<(TotalDist, u32)>> = BinaryHeap::new();
        pq.push(Reverse((TotalDist(0.0), root)));
        while let Some(Reverse((_, node_id))) = pq.pop() {
            if visited >= leaf_budget {
                break;
            }
            let node = &self.nodes[node_id as usize];
            if node.children.is_empty() {
                visit(&node.points);
                evals += node.points.len() as u64;
                visited += 1;
                continue;
            }
            evals += node.children.len() as u64;
            for &child in &node.children {
                let c = &self.nodes[child as usize];
                let d = prep.dist(&c.centroid, c.centroid_norm);
                pq.push(Reverse((TotalDist(d), child)));
            }
        }
        self.evaluations.fetch_add(evals, Ordering::Relaxed);
    }
}

impl RangeQueryEngine for KMeansTree<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let mut out = Vec::new();
        let norms = self.data.row_norms();
        let probe = self.metric.probe(q, eps);
        self.traverse(probe.prepared(), |points| {
            for &p in points {
                let i = p as usize;
                if probe.within(self.data.row(i), norms.norm(i)) {
                    out.push(p);
                }
            }
        });
        out.sort_unstable();
        out
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        let norms = self.data.row_norms();
        let prep = self.metric.prepare(q);
        self.traverse(&prep, |points| {
            for &p in points {
                let i = p as usize;
                let d = prep.dist(self.data.row(i), norms.norm(i));
                if best.len() < k || d < best.last().map(|n| n.dist).unwrap_or(f32::INFINITY) {
                    best.push(Neighbor::new(p, d));
                    best.sort_unstable();
                    best.truncate(k);
                }
            }
        });
        best
    }

    fn persist(&self) -> Option<PersistedEngine> {
        Some(PersistedEngine::KMeansTree(PersistedKMeansTree {
            metric: self.metric,
            branching: self.branching as u32,
            leaf_ratio: self.leaf_ratio,
            root: self.root,
            nodes: self
                .nodes
                .iter()
                .map(|n| PersistedKmNode {
                    centroid: n.centroid.clone(),
                    children: n.children.clone(),
                    points: n.points.clone(),
                })
                .collect(),
        }))
    }

    fn distance_evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn reset_distance_evaluations(&self) {
        self.evaluations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceScan;
    use laf_synth::EmbeddingMixtureConfig;

    fn sample_data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 500,
            dim: 16,
            clusters: 8,
            noise_fraction: 0.2,
            seed: 23,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::new(3).unwrap();
        let tree = KMeansTree::new(&data, Metric::Cosine, 4, 0.5, 1);
        assert!(tree.range(&[1.0, 0.0, 0.0], 0.5).is_empty());
        assert!(tree.knn(&[1.0, 0.0, 0.0], 5).is_empty());
        assert_eq!(tree.num_points(), 0);
    }

    #[test]
    fn parameters_are_clamped() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 0, -1.0, 1);
        assert!(tree.branching() >= 2);
        assert!(tree.leaf_ratio() > 0.0 && tree.leaf_ratio() <= 1.0);
        let tree = KMeansTree::new(&data, Metric::Cosine, 4, 5.0, 1);
        assert_eq!(tree.leaf_ratio(), 1.0);
    }

    #[test]
    fn full_leaf_ratio_matches_exact_range() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 5, 1.0, 7);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        for &q in &[0usize, 111, 499] {
            for &eps in &[0.1f32, 0.3] {
                let expected = oracle.range(data.row(q), eps);
                let got = tree.range(data.row(q), eps);
                assert_eq!(got, expected, "q={q} eps={eps}");
            }
        }
    }

    #[test]
    fn partial_leaf_ratio_has_reasonable_recall_and_no_false_positives() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 8, 0.4, 7);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        let mut found = 0usize;
        let mut total = 0usize;
        for q in (0..data.len()).step_by(25) {
            let expected = oracle.range(data.row(q), 0.15);
            let got = tree.range(data.row(q), 0.15);
            for g in &got {
                assert!(expected.contains(g), "false positive neighbor {g}");
            }
            found += got.len();
            total += expected.len();
        }
        assert!(total > 0);
        let recall = found as f64 / total as f64;
        assert!(recall > 0.5, "recall too low: {recall}");
    }

    #[test]
    fn knn_self_is_nearest_with_full_budget() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 6, 1.0, 3);
        for &q in &[1usize, 250, 499] {
            let knn = tree.knn(data.row(q), 5);
            assert_eq!(knn.len(), 5);
            assert_eq!(knn[0].index as usize, q);
            assert!(knn[0].dist < 1e-4);
            assert!(knn.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn smaller_leaf_ratio_visits_fewer_points() {
        let data = sample_data();
        let fast = KMeansTree::new(&data, Metric::Cosine, 8, 0.05, 7);
        let slow = KMeansTree::new(&data, Metric::Cosine, 8, 1.0, 7);
        fast.reset_distance_evaluations();
        slow.reset_distance_evaluations();
        let _ = fast.range(data.row(10), 0.2);
        let _ = slow.range(data.row(10), 0.2);
        assert!(fast.distance_evaluations() < slow.distance_evaluations());
    }

    #[test]
    fn knn_k_zero_and_leaf_count() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 4, 0.5, 11);
        assert!(tree.knn(data.row(0), 0).is_empty());
        assert!(tree.leaf_count() >= 2);
    }
}
