//! Cover-tree style metric index (the BLOCK-DBSCAN substrate).
//!
//! BLOCK-DBSCAN accelerates DBSCAN with cover-tree based range queries whose
//! behaviour is controlled by a *basis* parameter (the paper sets it to 2 and
//! sweeps 1.1–5 in the trade-off study). This module implements a
//! hierarchical ball cover with the same role and the same knob: every node
//! covers its descendants within `radius`, and children shrink the covering
//! radius by roughly a factor of `basis` per level. Range queries prune whole
//! subtrees with the triangle inequality, and wholesale-accept subtrees that
//! are entirely inside the query ball.
//!
//! Cosine distance is not a metric, so — exactly like the paper does for its
//! Euclidean-only baselines — the tree operates internally in Euclidean space
//! over the (unit-normalized) vectors and converts thresholds through
//! Equation (1). Results are reported back in the engine's public metric.

use crate::engine::{Neighbor, RangeQueryEngine, TotalDist};
use crate::persist::{PersistError, PersistedCoverTree, PersistedCtNode, PersistedEngine};
use laf_vector::{cosine_to_euclidean, euclidean_to_cosine, Dataset, Metric};
use std::sync::atomic::{AtomicU64, Ordering};

const LEAF_SIZE: usize = 16;
const MAX_CHILDREN: usize = 24;

#[derive(Debug)]
struct Node {
    /// Dataset row index of this node's center.
    center: u32,
    /// Covering radius: every point in the subtree is within `radius` of the
    /// center (internal Euclidean distance).
    radius: f32,
    /// Child node ids (empty for leaves).
    children: Vec<u32>,
    /// Points owned directly by this node (all points for leaves, just the
    /// center for internal nodes).
    points: Vec<u32>,
}

/// Hierarchical ball-cover index with triangle-inequality pruning.
pub struct CoverTree<'a> {
    data: &'a Dataset,
    metric: Metric,
    basis: f32,
    nodes: Vec<Node>,
    root: Option<u32>,
    evaluations: AtomicU64,
}

impl<'a> CoverTree<'a> {
    /// Build a cover tree over `data`.
    ///
    /// `basis` must be greater than 1; values ≤ 1 are clamped to 1.1. Larger
    /// bases give shallower trees with coarser pruning (the paper's
    /// trade-off sweep varies exactly this knob).
    pub fn new(data: &'a Dataset, metric: Metric, basis: f32) -> Self {
        let basis = if basis <= 1.0 { 1.1 } else { basis };
        let mut tree = Self {
            data,
            metric,
            basis,
            nodes: Vec::new(),
            root: None,
            evaluations: AtomicU64::new(0),
        };
        if !data.is_empty() {
            let all: Vec<u32> = (0..data.len() as u32).collect();
            let root = tree.build(all);
            tree.root = Some(root);
        }
        tree
    }

    /// Re-attach a persisted node arena to `data`, skipping the
    /// farthest-point-sampling construction. Callers normally go through
    /// [`crate::restore_engine`], which validates the structure against the
    /// dataset first; the restored tree answers every query byte-identically
    /// to the tree the structure was extracted from (the arena determines
    /// the traversal completely).
    ///
    /// # Errors
    /// Returns [`PersistError`] when the structural parameters are outside
    /// their valid domains (deep consistency with the dataset is
    /// [`PersistedEngine::validate`]'s job).
    pub fn from_persisted(data: &'a Dataset, p: &PersistedCoverTree) -> Result<Self, PersistError> {
        if !(p.basis.is_finite() && p.basis > 1.0) {
            return Err(PersistError::new(format!(
                "cover-tree basis {} is not greater than 1",
                p.basis
            )));
        }
        match p.root {
            Some(root) if (root as usize) >= p.nodes.len() => {
                return Err(PersistError::new(format!(
                    "root id {root} out of range for {} nodes",
                    p.nodes.len()
                )));
            }
            None if !p.nodes.is_empty() => {
                return Err(PersistError::new("tree has nodes but no root".to_string()));
            }
            _ => {}
        }
        Ok(Self {
            data,
            metric: p.metric,
            basis: p.basis,
            nodes: p
                .nodes
                .iter()
                .map(|n| Node {
                    center: n.center,
                    radius: n.radius,
                    children: n.children.clone(),
                    points: n.points.clone(),
                })
                .collect(),
            root: p.root,
            evaluations: AtomicU64::new(0),
        })
    }

    /// The basis this tree was built with.
    pub fn basis(&self) -> f32 {
        self.basis
    }

    /// Number of nodes in the tree (diagnostics / tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn euc(&self, a: &[f32], b: &[f32]) -> f32 {
        // Internal distances use Euclidean geometry; the public metric only
        // affects threshold conversion.
        Metric::Euclidean.dist(a, b)
    }

    /// Convert a public-metric threshold into the internal Euclidean one.
    fn eps_to_internal(&self, eps: f32) -> f32 {
        match self.metric {
            Metric::Euclidean => eps,
            Metric::SquaredEuclidean => eps.max(0.0).sqrt(),
            Metric::Cosine => cosine_to_euclidean(eps),
            Metric::Angular => {
                // angular a = acos(1 - d_cos)/π  ⇒  d_cos = 1 - cos(aπ)
                let d_cos = 1.0 - (eps.clamp(0.0, 1.0) * std::f32::consts::PI).cos();
                cosine_to_euclidean(d_cos)
            }
            Metric::NegDot => {
                // For unit vectors -dot = d_cos - 1.
                cosine_to_euclidean(eps + 1.0)
            }
        }
    }

    /// Convert an internal Euclidean distance back to the public metric.
    fn dist_to_public(&self, d_euc: f32) -> f32 {
        match self.metric {
            Metric::Euclidean => d_euc,
            Metric::SquaredEuclidean => d_euc * d_euc,
            Metric::Cosine => euclidean_to_cosine(d_euc),
            Metric::Angular => {
                let d_cos = euclidean_to_cosine(d_euc);
                (1.0 - d_cos).clamp(-1.0, 1.0).acos() / std::f32::consts::PI
            }
            Metric::NegDot => euclidean_to_cosine(d_euc) - 1.0,
        }
    }

    fn build(&mut self, points: Vec<u32>) -> u32 {
        debug_assert!(!points.is_empty());
        let center = points[0];
        let center_row = self.data.row(center as usize);
        let radius = points
            .iter()
            .map(|&p| self.euc(center_row, self.data.row(p as usize)))
            .fold(0.0f32, f32::max);

        if points.len() <= LEAF_SIZE || radius <= 1e-7 {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                center,
                radius,
                children: Vec::new(),
                points,
            });
            return id;
        }

        // Farthest-point sampling of child centers until every point is
        // within radius/basis of some center (or we hit the fanout cap).
        let target = radius / self.basis;
        let mut centers: Vec<u32> = vec![center];
        // dist_to_nearest_center[i] tracks the distance of points[i] to its
        // closest chosen center.
        let mut nearest: Vec<f32> = points
            .iter()
            .map(|&p| self.euc(center_row, self.data.row(p as usize)))
            .collect();
        while centers.len() < MAX_CHILDREN {
            let (far_pos, &far_dist) = nearest
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty");
            if far_dist <= target {
                break;
            }
            let new_center = points[far_pos];
            centers.push(new_center);
            let new_row = self.data.row(new_center as usize);
            for (i, &p) in points.iter().enumerate() {
                let d = self.euc(new_row, self.data.row(p as usize));
                if d < nearest[i] {
                    nearest[i] = d;
                }
            }
        }

        // Assign each point to its nearest center.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); centers.len()];
        for &p in &points {
            let row = self.data.row(p as usize);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c_idx, &c) in centers.iter().enumerate() {
                let d = self.euc(row, self.data.row(c as usize));
                if d < best_d {
                    best_d = d;
                    best = c_idx;
                }
            }
            buckets[best].push(p);
        }

        // Degenerate split (all points landed in one bucket): make a leaf to
        // guarantee termination.
        if buckets.iter().filter(|b| !b.is_empty()).count() <= 1 {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node {
                center,
                radius,
                children: Vec::new(),
                points,
            });
            return id;
        }

        let children: Vec<u32> = buckets
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|b| self.build(b))
            .collect();

        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            radius,
            children,
            // The center is also a member of one of the child buckets, so the
            // subtree below already accounts for it; internal nodes own no
            // points of their own.
            points: Vec::new(),
        });
        id
    }

    /// Recursive range query in internal (Euclidean) space. Distance
    /// evaluations are counted into `evals`; the caller adds them to the
    /// shared counter once per query.
    fn range_rec(
        &self,
        node_id: u32,
        q: &[f32],
        eps_euc: f32,
        out: &mut Vec<u32>,
        evals: &mut u64,
    ) {
        let node = &self.nodes[node_id as usize];
        let center_row = self.data.row(node.center as usize);
        *evals += 1;
        let d_center = self.euc(q, center_row);

        // Entire subtree outside the query ball.
        if d_center - node.radius >= eps_euc {
            return;
        }

        if node.children.is_empty() {
            // Leaf: check owned points individually.
            for &p in &node.points {
                let d = if p == node.center {
                    d_center
                } else {
                    *evals += 1;
                    self.euc(q, self.data.row(p as usize))
                };
                if d < eps_euc {
                    out.push(p);
                }
            }
            return;
        }

        // Internal node: its center lives in one of the children, so only the
        // children need to be visited.
        for &child in &node.children {
            self.range_rec(child, q, eps_euc, out, evals);
        }
    }

    /// Recursive k-NN search; counts into `evals` like
    /// [`CoverTree::range_rec`].
    fn knn_rec(
        &self,
        node_id: u32,
        q: &[f32],
        heap: &mut Vec<Neighbor>,
        k: usize,
        evals: &mut u64,
    ) {
        let node = &self.nodes[node_id as usize];
        let center_row = self.data.row(node.center as usize);
        *evals += 1;
        let d_center = self.euc(q, center_row);

        let worst = if heap.len() < k {
            f32::INFINITY
        } else {
            heap.last().map(|n| n.dist).unwrap_or(f32::INFINITY)
        };
        if d_center - node.radius >= worst {
            return;
        }

        let push = |idx: u32, dist: f32, heap: &mut Vec<Neighbor>| {
            if heap.len() < k || dist < heap.last().map(|n| n.dist).unwrap_or(f32::INFINITY) {
                heap.push(Neighbor::new(idx, dist));
                heap.sort_unstable();
                heap.truncate(k);
            }
        };

        if node.children.is_empty() {
            for &p in &node.points {
                let d = if p == node.center {
                    d_center
                } else {
                    *evals += 1;
                    self.euc(q, self.data.row(p as usize))
                };
                push(p, d, heap);
            }
            return;
        }

        // Visit children closest-first for better pruning (the center is a
        // member of one child's subtree, so it is not pushed here).
        let mut order: Vec<(TotalDist, u32)> = node
            .children
            .iter()
            .map(|&c| {
                let cn = &self.nodes[c as usize];
                (TotalDist(self.euc(q, self.data.row(cn.center as usize))), c)
            })
            .collect();
        *evals += order.len() as u64;
        order.sort_unstable();
        for (_, c) in order {
            self.knn_rec(c, q, heap, k, evals);
        }
    }
}

impl RangeQueryEngine for CoverTree<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let eps_euc = self.eps_to_internal(eps);
        let mut out = Vec::new();
        let mut evals = 0;
        self.range_rec(root, q, eps_euc, &mut out, &mut evals);
        self.evaluations.fetch_add(evals, Ordering::Relaxed);
        out.sort_unstable();
        out
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let mut heap = Vec::with_capacity(k + 1);
        let mut evals = 0;
        self.knn_rec(root, q, &mut heap, k.min(self.data.len()), &mut evals);
        self.evaluations.fetch_add(evals, Ordering::Relaxed);
        for n in heap.iter_mut() {
            n.dist = self.dist_to_public(n.dist);
        }
        heap
    }

    fn persist(&self) -> Option<PersistedEngine> {
        Some(PersistedEngine::CoverTree(PersistedCoverTree {
            metric: self.metric,
            basis: self.basis,
            root: self.root,
            nodes: self
                .nodes
                .iter()
                .map(|n| PersistedCtNode {
                    center: n.center,
                    radius: n.radius,
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
        let cfg = EmbeddingMixtureConfig {
            n_points: 400,
            dim: 24,
            clusters: 6,
            noise_fraction: 0.2,
            seed: 17,
            ..Default::default()
        };
        cfg.generate().unwrap().0
    }

    #[test]
    fn empty_dataset_yields_empty_results() {
        let data = Dataset::new(4).unwrap();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        assert_eq!(tree.num_points(), 0);
        assert!(tree.range(&[1.0, 0.0, 0.0, 0.0], 0.5).is_empty());
        assert!(tree.knn(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn basis_is_clamped() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 0.5);
        assert!(tree.basis() > 1.0);
    }

    #[test]
    fn range_matches_linear_scan_cosine() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        for &q in &[0usize, 17, 99, 333] {
            for &eps in &[0.05f32, 0.2, 0.5] {
                let mut expected = oracle.range(data.row(q), eps);
                expected.sort_unstable();
                let got = tree.range(data.row(q), eps);
                assert_eq!(got, expected, "q={q} eps={eps}");
            }
        }
    }

    #[test]
    fn range_matches_linear_scan_euclidean() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Euclidean, 1.5);
        let oracle = ReferenceScan::new(&data, Metric::Euclidean);
        for &q in &[3usize, 42, 250] {
            for &eps in &[0.2f32, 0.6, 1.2] {
                let mut expected = oracle.range(data.row(q), eps);
                expected.sort_unstable();
                assert_eq!(tree.range(data.row(q), eps), expected, "q={q} eps={eps}");
            }
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        for &q in &[5usize, 123, 399] {
            let expected = oracle.knn(data.row(q), 10);
            let got = tree.knn(data.row(q), 10);
            assert_eq!(got.len(), 10);
            let exp_idx: Vec<u32> = expected.iter().map(|n| n.index).collect();
            let got_idx: Vec<u32> = got.iter().map(|n| n.index).collect();
            // Distances must agree; ties may permute indices.
            for (e, g) in expected.iter().zip(&got) {
                assert!(
                    (e.dist - g.dist).abs() < 1e-4,
                    "q={q} {exp_idx:?} vs {got_idx:?}"
                );
            }
        }
    }

    #[test]
    fn pruning_saves_distance_evaluations_for_small_eps() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        tree.reset_distance_evaluations();
        let _ = tree.range(data.row(0), 0.02);
        let tree_evals = tree.distance_evaluations();
        assert!(
            tree_evals < data.len() as u64,
            "cover tree should prune: {tree_evals} >= {}",
            data.len()
        );
    }

    #[test]
    fn basis_changes_tree_structure_but_not_results() {
        let data = sample_data();
        let fine = CoverTree::new(&data, Metric::Cosine, 1.2);
        let coarse = CoverTree::new(&data, Metric::Cosine, 4.0);
        assert!(fine.node_count() > 1);
        assert!(coarse.node_count() > 1);
        assert_ne!(fine.node_count(), coarse.node_count());
        for &q in &[0usize, 57, 311] {
            assert_eq!(
                fine.range(data.row(q), 0.25),
                coarse.range(data.row(q), 0.25)
            );
        }
    }

    #[test]
    fn knn_k_zero_is_empty() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        assert!(tree.knn(data.row(0), 0).is_empty());
    }

    #[test]
    fn persisted_arena_round_trips_bit_identically() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        let persisted = tree.persist().expect("cover tree persists its arena");
        persisted.validate(data.len(), data.dim()).unwrap();
        let bytes = persisted.encode();
        let decoded = PersistedEngine::decode(&bytes).unwrap();
        assert_eq!(decoded, persisted, "codec round trip");
        let restored = crate::persist::restore_engine(&decoded, &data).unwrap();
        for &q in &[0usize, 17, 99, 333] {
            for &eps in &[0.05f32, 0.2, 0.5] {
                assert_eq!(
                    restored.range(data.row(q), eps),
                    tree.range(data.row(q), eps)
                );
            }
            assert_eq!(restored.knn(data.row(q), 10), tree.knn(data.row(q), 10));
        }
    }

    #[test]
    fn persisted_arena_rejects_inconsistent_structures() {
        let data = sample_data();
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        let PersistedEngine::CoverTree(good) = tree.persist().unwrap() else {
            panic!("wrong persisted kind");
        };
        // A center out of range.
        let mut bad = good.clone();
        bad.nodes[0].center = data.len() as u32;
        assert!(PersistedEngine::CoverTree(bad)
            .validate(data.len(), data.dim())
            .is_err());
        // A basis that would not have been accepted at construction.
        let mut bad = good.clone();
        bad.basis = 1.0;
        assert!(PersistedEngine::CoverTree(bad)
            .validate(data.len(), data.dim())
            .is_err());
        // Dropping a leaf's points breaks exactly-once coverage.
        let mut bad = good.clone();
        let leaf = bad
            .nodes
            .iter()
            .position(|n| !n.points.is_empty())
            .expect("tree has a leaf");
        bad.nodes[leaf].points.pop();
        assert!(PersistedEngine::CoverTree(bad)
            .validate(data.len(), data.dim())
            .is_err());
        // The pristine structure still validates.
        assert!(PersistedEngine::CoverTree(good)
            .validate(data.len(), data.dim())
            .is_ok());
    }
}
