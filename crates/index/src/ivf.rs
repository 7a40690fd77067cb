//! IVF (inverted-file) index.
//!
//! The paper's introduction motivates LAF with embedding-retrieval systems
//! that pair clustering with approximate search structures; the inverted
//! file — a flat k-means coarse quantizer whose posting lists are probed
//! closest-first — is the workhorse of that world (FAISS' `IVFFlat`). It is
//! included here as an additional engine for the substrate ablation: unlike
//! the cover tree it gives up exactness, and unlike the k-means *tree* its
//! recall knob is the **number of probed lists** rather than a leaf ratio.

use crate::engine::{Neighbor, RangeQueryEngine, TotalDist};
use crate::persist::{PersistError, PersistedEngine, PersistedIvf, PersistedIvfList};
use laf_vector::{ops, Dataset, Metric, PreparedQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

const KMEANS_ITERS: usize = 8;

/// Inverted-file index with a k-means coarse quantizer.
pub struct IvfIndex<'a> {
    data: &'a Dataset,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    /// L2 norm of each centroid (`ops::norm`), kept in lockstep with
    /// `centroids` so probe ordering needs one dot per centroid.
    centroid_norms: Vec<f32>,
    lists: Vec<Vec<u32>>,
    nprobe: usize,
    evaluations: AtomicU64,
}

fn norms_of(centroids: &[Vec<f32>]) -> Vec<f32> {
    centroids.iter().map(|c| ops::norm(c)).collect()
}

impl<'a> IvfIndex<'a> {
    /// Build an IVF index with `nlist` coarse centroids; queries probe the
    /// `nprobe` closest lists. Both are clamped to sane ranges.
    pub fn new(data: &'a Dataset, metric: Metric, nlist: usize, nprobe: usize, seed: u64) -> Self {
        let nlist = nlist.clamp(1, data.len().max(1));
        let nprobe = nprobe.clamp(1, nlist);
        let mut index = Self {
            data,
            metric,
            centroids: Vec::new(),
            centroid_norms: Vec::new(),
            lists: Vec::new(),
            nprobe,
            evaluations: AtomicU64::new(0),
        };
        if data.is_empty() {
            return index;
        }
        index.train(nlist, seed);
        index
    }

    /// Rebuild an index from a [persisted structure](PersistedIvf), skipping
    /// the coarse-quantizer k-means training. The caller is expected to have
    /// [validated](PersistedEngine::validate) the structure against `data`.
    ///
    /// # Errors
    /// Returns [`PersistError`] when `nprobe` falls outside the valid range
    /// for the persisted list count over a non-empty dataset.
    pub fn from_persisted(data: &'a Dataset, p: &PersistedIvf) -> Result<Self, PersistError> {
        if !data.is_empty() && (p.nprobe == 0 || p.nprobe as usize > p.lists.len()) {
            return Err(PersistError::new(format!(
                "nprobe {} outside 1..={} lists",
                p.nprobe,
                p.lists.len()
            )));
        }
        let centroids: Vec<Vec<f32>> = p.lists.iter().map(|l| l.centroid.clone()).collect();
        let centroid_norms = norms_of(&centroids);
        Ok(Self {
            data,
            metric: p.metric,
            centroids,
            centroid_norms,
            lists: p.lists.iter().map(|l| l.points.clone()).collect(),
            nprobe: p.nprobe as usize,
            evaluations: AtomicU64::new(0),
        })
    }

    /// Number of posting lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Number of lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    fn train(&mut self, nlist: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.data.len();
        let dim = self.data.dim();
        // k-means++ style seeding kept simple: random distinct rows.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..nlist {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        let mut centroids: Vec<Vec<f32>> = ids[..nlist]
            .iter()
            .map(|&i| self.data.row(i).to_vec())
            .collect();
        let mut assignment = vec![0usize; n];
        let row_norms = self.data.row_norms();
        for _ in 0..KMEANS_ITERS {
            // Centroid norms are recomputed once per Lloyd iteration (the
            // centroids just moved); row norms come from the dataset cache.
            // Assignment distances are bit-identical to `Metric::dist`.
            let iter_norms = norms_of(&centroids);
            for (i, row) in self.data.rows().enumerate() {
                let prep = self.metric.prepare_with_norm(row, row_norms.norm(i));
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = prep.dist(centroid, iter_norms[c]);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignment[i] = best;
            }
            let mut sums = vec![vec![0.0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (i, row) in self.data.rows().enumerate() {
                ops::axpy(1.0, row, &mut sums[assignment[i]]);
                counts[assignment[i]] += 1;
            }
            for (c, sum) in sums.into_iter().enumerate() {
                if counts[c] > 0 {
                    let mut centroid = sum;
                    ops::scale_in_place(&mut centroid, 1.0 / counts[c] as f32);
                    centroids[c] = centroid;
                }
            }
        }
        let mut lists = vec![Vec::new(); nlist];
        for (i, &a) in assignment.iter().enumerate() {
            lists[a].push(i as u32);
        }
        // Drop empty lists (their centroids are meaningless).
        let mut kept_centroids = Vec::new();
        let mut kept_lists = Vec::new();
        for (centroid, list) in centroids.into_iter().zip(lists) {
            if !list.is_empty() {
                kept_centroids.push(centroid);
                kept_lists.push(list);
            }
        }
        self.nprobe = self.nprobe.min(kept_lists.len().max(1));
        self.centroid_norms = norms_of(&kept_centroids);
        self.centroids = kept_centroids;
        self.lists = kept_lists;
    }

    /// The posting lists to probe for a query the caller prepared once for
    /// both the ranking and its list scan, closest centroid first. Adds the
    /// query's distance evaluations to the counter in one step: one per
    /// centroid, plus one per point of the probed lists, which every caller
    /// scans in full.
    fn probe_order(&self, prep: &PreparedQuery<'_>) -> Vec<usize> {
        let mut order: Vec<(TotalDist, usize)> = self
            .centroids
            .iter()
            .zip(&self.centroid_norms)
            .enumerate()
            .map(|(i, (c, &norm))| (TotalDist(prep.dist(c, norm)), i))
            .collect();
        order.sort_unstable();
        order.truncate(self.nprobe);
        let probed: Vec<usize> = order.into_iter().map(|(_, i)| i).collect();
        let scanned: usize = probed.iter().map(|&l| self.lists[l].len()).sum();
        self.evaluations
            .fetch_add((self.centroids.len() + scanned) as u64, Ordering::Relaxed);
        probed
    }
}

impl RangeQueryEngine for IvfIndex<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        if self.lists.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let norms = self.data.row_norms();
        let probe = self.metric.probe(q, eps);
        for list_id in self.probe_order(probe.prepared()) {
            for &p in &self.lists[list_id] {
                let i = p as usize;
                if probe.within(self.data.row(i), norms.norm(i)) {
                    out.push(p);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 || self.lists.is_empty() {
            return Vec::new();
        }
        let norms = self.data.row_norms();
        let prep = self.metric.prepare(q);
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        for list_id in self.probe_order(&prep) {
            for &p in &self.lists[list_id] {
                let i = p as usize;
                let d = prep.dist(self.data.row(i), norms.norm(i));
                if best.len() < k || d < best.last().map(|n| n.dist).unwrap_or(f32::INFINITY) {
                    best.push(Neighbor::new(p, d));
                    best.sort_unstable();
                    best.truncate(k);
                }
            }
        }
        best
    }

    fn persist(&self) -> Option<PersistedEngine> {
        Some(PersistedEngine::Ivf(PersistedIvf {
            metric: self.metric,
            nprobe: self.nprobe as u32,
            dim: self.data.dim() as u32,
            lists: self
                .centroids
                .iter()
                .zip(&self.lists)
                .map(|(centroid, points)| PersistedIvfList {
                    centroid: centroid.clone(),
                    points: points.clone(),
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
            n_points: 400,
            dim: 16,
            clusters: 8,
            noise_fraction: 0.2,
            seed: 37,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::new(4).unwrap();
        let ivf = IvfIndex::new(&data, Metric::Cosine, 8, 2, 1);
        assert_eq!(ivf.num_points(), 0);
        assert!(ivf.range(&[1.0, 0.0, 0.0, 0.0], 0.5).is_empty());
        assert!(ivf.knn(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn probing_all_lists_is_exact() {
        let data = sample_data();
        let ivf = IvfIndex::new(&data, Metric::Cosine, 10, 10, 5);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        for &q in &[0usize, 133, 399] {
            for &eps in &[0.1f32, 0.3] {
                assert_eq!(
                    ivf.range(data.row(q), eps),
                    oracle.range(data.row(q), eps),
                    "q={q} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn partial_probing_has_no_false_positives_and_decent_recall() {
        let data = sample_data();
        let ivf = IvfIndex::new(&data, Metric::Cosine, 16, 4, 5);
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        let mut found = 0usize;
        let mut total = 0usize;
        for q in (0..data.len()).step_by(20) {
            let exact = oracle.range(data.row(q), 0.15);
            let approx = ivf.range(data.row(q), 0.15);
            for a in &approx {
                assert!(exact.contains(a));
            }
            found += approx.len();
            total += exact.len();
        }
        assert!(total > 0);
        assert!(
            found as f64 / total as f64 > 0.6,
            "recall {}",
            found as f64 / total as f64
        );
    }

    #[test]
    fn fewer_probes_means_less_work() {
        let data = sample_data();
        let narrow = IvfIndex::new(&data, Metric::Cosine, 16, 1, 5);
        let wide = IvfIndex::new(&data, Metric::Cosine, 16, 16, 5);
        narrow.reset_distance_evaluations();
        wide.reset_distance_evaluations();
        let _ = narrow.range(data.row(7), 0.3);
        let _ = wide.range(data.row(7), 0.3);
        assert!(narrow.distance_evaluations() < wide.distance_evaluations());
        assert!(narrow.nprobe() < wide.nprobe());
        assert!(narrow.nlist() >= 2);
    }

    #[test]
    fn knn_self_is_first_with_full_probing() {
        let data = sample_data();
        let ivf = IvfIndex::new(&data, Metric::Cosine, 8, 8, 3);
        let knn = ivf.knn(data.row(42), 5);
        assert_eq!(knn.len(), 5);
        assert_eq!(knn[0].index, 42);
        assert!(knn.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let data = sample_data();
        let ivf = IvfIndex::new(&data, Metric::Cosine, 0, 0, 1);
        assert!(ivf.nlist() >= 1);
        assert!(ivf.nprobe() >= 1);
        let huge = IvfIndex::new(&data, Metric::Cosine, 10_000, 10_000, 1);
        assert!(huge.nlist() <= data.len());
    }
}
