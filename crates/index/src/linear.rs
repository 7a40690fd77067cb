//! Exact brute-force range queries.
//!
//! This is the substrate of the original DBSCAN, DBSCAN++ and the LAF
//! variants in the paper (their cost model is "one range query = one full
//! scan"), and it is the correctness oracle every other engine is tested
//! against.
//!
//! The scan loops run on the metric-specialized kernels of
//! [`laf_vector::kernel`] by default: the query norm is computed once per
//! query and row norms come from the dataset's lazily-built cache. The dot
//! products come from the exact register tiles of [`laf_vector::tile`]: a
//! single query scores eight rows per step ([`tile::dot_rows8`]), and a
//! block of up to [`tile::BLOCK_PROBES`] queries is packed once and scored
//! against each row in one step ([`tile::ProbeBlock`]). Every row is then
//! decided by [`MetricKernel::within_dot`]. The tiles keep `ops::dot`'s
//! accumulation order per pair, so results are bit-identical to the generic
//! [`Metric::dist`] evaluation (available via [`KernelMode::Generic`], which
//! the kernel benchmarks use as baseline).

use crate::engine::{KernelMode, Neighbor, RangeQueryEngine};
use crate::persist::PersistedEngine;
use crate::topk::TopK;
use laf_vector::tile::{self, ProbeBlock, ROW_TILE};
use laf_vector::{Dataset, Metric, MetricKernel};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of queries processed per cache block in the batched kernels: the
/// block is packed into one [`ProbeBlock`] and each dataset row is scored
/// against all of it in one step while the row is hot.
const QUERY_BLOCK: usize = tile::BLOCK_PROBES;

/// Exact linear-scan engine.
pub struct LinearScan<'a> {
    data: &'a Dataset,
    metric: Metric,
    kernel: MetricKernel,
    mode: KernelMode,
    evaluations: AtomicU64,
}

impl<'a> LinearScan<'a> {
    /// Index `data` under `metric` with the default (specialized) kernels.
    pub fn new(data: &'a Dataset, metric: Metric) -> Self {
        Self::with_kernel_mode(data, metric, KernelMode::default())
    }

    /// Index `data` under `metric` with an explicit [`KernelMode`].
    pub fn with_kernel_mode(data: &'a Dataset, metric: Metric, mode: KernelMode) -> Self {
        Self {
            data,
            metric,
            kernel: MetricKernel::new(metric),
            mode,
            evaluations: AtomicU64::new(0),
        }
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Dataset {
        self.data
    }

    /// The kernel mode the scan loops run on.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// One full-scan range query without touching the evaluation counter
    /// (the batch entry points account for the whole batch up front).
    fn range_uncounted(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let mut hits = Vec::new();
        match self.mode {
            KernelMode::Generic => {
                for (i, row) in self.data.rows().enumerate() {
                    if self.metric.dist(q, row) < eps {
                        hits.push(i as u32);
                    }
                }
            }
            KernelMode::Specialized => self.scan(q, eps, |i| hits.push(i as u32)),
        }
        hits
    }

    /// Uncounted variant of [`RangeQueryEngine::range_count`].
    fn range_count_uncounted(&self, q: &[f32], eps: f32) -> usize {
        match self.mode {
            KernelMode::Generic => self
                .data
                .rows()
                .filter(|row| self.metric.dist(q, row) < eps)
                .count(),
            KernelMode::Specialized => {
                let mut count = 0;
                self.scan(q, eps, |_| count += 1);
                count
            }
        }
    }

    /// The specialized single-query scan: calls `hit(i)`, in ascending
    /// order, for every row `i` within `eps` of `q`. Rows go through the row
    /// tile eight at a time; the last `n % 8` rows take the scalar
    /// predicate.
    fn scan(&self, q: &[f32], eps: f32, mut hit: impl FnMut(usize)) {
        let norms = self.data.row_norms();
        let probe = self.kernel.probe(q, eps);
        let dim = self.data.dim();
        let tiled = self.data.len() / ROW_TILE * ROW_TILE;
        let (head, rest) = self.data.as_flat().split_at(tiled * dim);
        for (t, rows) in head.chunks_exact(ROW_TILE * dim).enumerate() {
            let dots = tile::dot_rows8(q, rows);
            for (r, (x, &dot)) in rows.chunks_exact(dim).zip(&dots).enumerate() {
                let i = t * ROW_TILE + r;
                if self
                    .kernel
                    .within_dot(&probe, dot, x, norms.norm(i), norms.sq(i))
                {
                    hit(i);
                }
            }
        }
        for (r, x) in rest.chunks_exact(dim).enumerate() {
            let i = tiled + r;
            if self.kernel.within(&probe, x, norms.norm(i), norms.sq(i)) {
                hit(i);
            }
        }
    }

    /// Uncounted top-k scan through the shared bounded selector
    /// ([`crate::topk::TopK`]): the k best neighbors seen so far are kept
    /// under `Neighbor`'s total order (distance then index, NaN-safe)
    /// instead of materializing and sorting all `n` candidates. Equivalent to
    /// collect-all-then-sort by construction: both retain exactly the
    /// k smallest elements of the same total order, emitted ascending.
    fn knn_uncounted(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let k = k.min(self.data.len());
        if k == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k);
        match self.mode {
            KernelMode::Generic => {
                for (i, row) in self.data.rows().enumerate() {
                    top.push(Neighbor::new(i as u32, self.metric.dist(q, row)));
                }
            }
            KernelMode::Specialized => {
                let norms = self.data.row_norms();
                let prep = self.kernel.prepare(q);
                for (i, row) in self.data.rows().enumerate() {
                    top.push(Neighbor::new(
                        i as u32,
                        self.kernel.dist(&prep, row, norms.norm(i)),
                    ));
                }
            }
        }
        top.into_sorted()
    }

    /// Blocked range scan for up to [`QUERY_BLOCK`] queries: rows outer,
    /// the packed query block inner.
    fn range_block(&self, block: &[&[f32]], eps: f32) -> Vec<Vec<u32>> {
        let mut hits: Vec<Vec<u32>> = vec![Vec::new(); block.len()];
        match self.mode {
            KernelMode::Generic => {
                for (i, row) in self.data.rows().enumerate() {
                    for (slot, q) in block.iter().enumerate() {
                        if self.metric.dist(q, row) < eps {
                            hits[slot].push(i as u32);
                        }
                    }
                }
            }
            KernelMode::Specialized => {
                self.scan_block(block, eps, |slot, i| hits[slot].push(i as u32))
            }
        }
        hits
    }

    /// Blocked counting scan, same structure as [`LinearScan::range_block`].
    fn range_count_block(&self, block: &[&[f32]], eps: f32) -> Vec<usize> {
        let mut counts = vec![0usize; block.len()];
        match self.mode {
            KernelMode::Generic => {
                for row in self.data.rows() {
                    for (slot, q) in block.iter().enumerate() {
                        if self.metric.dist(q, row) < eps {
                            counts[slot] += 1;
                        }
                    }
                }
            }
            KernelMode::Specialized => self.scan_block(block, eps, |slot, _| counts[slot] += 1),
        }
        counts
    }

    /// The specialized block scan: calls `hit(slot, i)`, rows in ascending
    /// order, for every row `i` within `eps` of `block[slot]`. The block is
    /// packed once; each row is scored against all of it in one step.
    fn scan_block(&self, block: &[&[f32]], eps: f32, mut hit: impl FnMut(usize, usize)) {
        let norms = self.data.row_norms();
        let probes: Vec<_> = block.iter().map(|q| self.kernel.probe(q, eps)).collect();
        let packed = ProbeBlock::new(block);
        let mut dots = [0.0f32; QUERY_BLOCK];
        let dots = &mut dots[..block.len()];
        for (i, x) in self.data.rows().enumerate() {
            packed.dots(x, dots);
            let (x_norm, x_sq) = (norms.norm(i), norms.sq(i));
            for (slot, (probe, &dot)) in probes.iter().zip(dots.iter()).enumerate() {
                if self.kernel.within_dot(probe, dot, x, x_norm, x_sq) {
                    hit(slot, i);
                }
            }
        }
    }
}

impl RangeQueryEngine for LinearScan<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        self.evaluations
            .fetch_add(self.data.len() as u64, Ordering::Relaxed);
        self.range_uncounted(q, eps)
    }

    fn range_count(&self, q: &[f32], eps: f32) -> usize {
        self.evaluations
            .fetch_add(self.data.len() as u64, Ordering::Relaxed);
        self.range_count_uncounted(q, eps)
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        self.evaluations
            .fetch_add(self.data.len() as u64, Ordering::Relaxed);
        self.knn_uncounted(q, k)
    }

    fn range_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<Vec<u32>> {
        // One batch-level bump regardless of batch size, so the accounting is
        // identical between the small-batch fan-out and the blocked path
        // (previously the small path counted once per query instead).
        self.evaluations.fetch_add(
            (queries.len() as u64) * (self.data.len() as u64),
            Ordering::Relaxed,
        );
        // Below one cache block there is nothing to amortize; fan the
        // queries out individually so small batches still parallelize.
        if queries.len() < QUERY_BLOCK {
            return queries
                .par_iter()
                .map(|q| self.range_uncounted(q, eps))
                .collect();
        }
        let per_block: Vec<Vec<Vec<u32>>> = queries
            .par_chunks(QUERY_BLOCK)
            .map(|block| self.range_block(block, eps))
            .collect();
        per_block.into_iter().flatten().collect()
    }

    fn range_count_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<usize> {
        self.evaluations.fetch_add(
            (queries.len() as u64) * (self.data.len() as u64),
            Ordering::Relaxed,
        );
        if queries.len() < QUERY_BLOCK {
            return queries
                .par_iter()
                .map(|q| self.range_count_uncounted(q, eps))
                .collect();
        }
        let per_block: Vec<Vec<usize>> = queries
            .par_chunks(QUERY_BLOCK)
            .map(|block| self.range_count_block(block, eps))
            .collect();
        per_block.into_iter().flatten().collect()
    }

    fn knn_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        self.evaluations.fetch_add(
            (queries.len() as u64) * (self.data.len() as u64),
            Ordering::Relaxed,
        );
        queries
            .par_iter()
            .map(|q| self.knn_uncounted(q, k))
            .collect()
    }

    fn persist(&self) -> Option<PersistedEngine> {
        // Nothing to save — the marker just records that the engine was a
        // linear scan so warm starts skip the config-rebuild fallback.
        Some(PersistedEngine::Linear {
            metric: self.metric,
        })
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
    use laf_vector::ops;

    fn toy() -> Dataset {
        // Points on the unit circle at known angles.
        let angles = [0.0f32, 0.05, 0.1, 1.0, 2.0, 3.1];
        let rows: Vec<Vec<f32>> = angles.iter().map(|a| vec![a.cos(), a.sin()]).collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn range_finds_exactly_the_close_points() {
        let data = toy();
        let engine = LinearScan::new(&data, Metric::Cosine);
        // Cosine distance 1-cos(angle). For angle 0.1, d ≈ 0.005.
        let hits = engine.range(data.row(0), 0.01);
        assert_eq!(hits, vec![0, 1, 2]);
        let count = engine.range_count(data.row(0), 0.01);
        assert_eq!(count, 3);
    }

    #[test]
    fn knn_orders_by_distance_and_clamps_k() {
        let data = toy();
        let engine = LinearScan::new(&data, Metric::Cosine);
        let knn = engine.knn(data.row(0), 3);
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].index, 0);
        assert!(knn[0].dist <= knn[1].dist && knn[1].dist <= knn[2].dist);
        let all = engine.knn(data.row(0), 100);
        assert_eq!(all.len(), data.len());
        assert!(engine.knn(data.row(0), 0).is_empty());
    }

    #[test]
    fn knn_heap_matches_collect_then_sort_including_nan_ties() {
        // Dataset with exact duplicates (distance ties resolved by index) and
        // a NaN row (NaN distances sort last under the total order).
        let mut rows: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.6, 0.8],
            vec![1.0, 0.0], // duplicate of row 0
            vec![0.0, 1.0],
            vec![0.6, 0.8], // duplicate of row 1
        ];
        rows.push(vec![f32::NAN, 0.0]);
        let data = Dataset::from_rows(rows).unwrap();
        for metric in [Metric::Cosine, Metric::Euclidean, Metric::NegDot] {
            let engine = LinearScan::new(&data, metric);
            let q = [0.8f32, 0.6];
            for k in 0..=data.len() + 2 {
                // Reference: the old algorithm.
                let mut all: Vec<Neighbor> = data
                    .rows()
                    .enumerate()
                    .map(|(i, row)| Neighbor::new(i as u32, metric.dist(&q, row)))
                    .collect();
                all.sort_unstable();
                all.truncate(k.min(data.len()));
                let got = engine.knn(&q, k);
                assert_eq!(got.len(), all.len(), "{metric:?} k={k}");
                for (g, e) in got.iter().zip(&all) {
                    assert_eq!(g.index, e.index, "{metric:?} k={k}");
                    assert_eq!(g.dist.to_bits(), e.dist.to_bits(), "{metric:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn generic_and_specialized_modes_agree_bitwise() {
        let data = toy();
        for metric in [
            Metric::Cosine,
            Metric::Angular,
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::NegDot,
        ] {
            let spec = LinearScan::new(&data, metric);
            let gen = LinearScan::with_kernel_mode(&data, metric, KernelMode::Generic);
            assert_eq!(spec.kernel_mode(), KernelMode::Specialized);
            assert_eq!(gen.kernel_mode(), KernelMode::Generic);
            let queries: Vec<&[f32]> = (0..data.len()).map(|i| data.row(i)).collect();
            for eps in [0.01f32, 0.3, 1.5] {
                let eps = if metric == Metric::NegDot {
                    eps - 1.0
                } else {
                    eps
                };
                assert_eq!(
                    spec.range_batch(&queries, eps),
                    gen.range_batch(&queries, eps),
                    "{metric:?} eps={eps}"
                );
                assert_eq!(
                    spec.range_count_batch(&queries, eps),
                    gen.range_count_batch(&queries, eps),
                    "{metric:?} eps={eps}"
                );
                for q in &queries {
                    assert_eq!(spec.range(q, eps), gen.range(q, eps));
                }
            }
            for (a, b) in spec
                .knn_batch(&queries, 4)
                .iter()
                .zip(gen.knn_batch(&queries, 4))
            {
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_accounting_is_identical_for_small_and_blocked_batches() {
        // The invariant: every batch entry point adds exactly
        // queries.len() * data.len() evaluations, whether the batch takes the
        // small fan-out path (< QUERY_BLOCK) or the blocked path.
        let data = toy();
        for mode in [KernelMode::Specialized, KernelMode::Generic] {
            let engine = LinearScan::with_kernel_mode(&data, Metric::Cosine, mode);
            let small: Vec<&[f32]> = (0..QUERY_BLOCK - 1)
                .map(|i| data.row(i % data.len()))
                .collect();
            let large: Vec<&[f32]> = (0..3 * QUERY_BLOCK)
                .map(|i| data.row(i % data.len()))
                .collect();

            engine.reset_distance_evaluations();
            let _ = engine.range_batch(&small, 0.3);
            assert_eq!(
                engine.distance_evaluations(),
                (small.len() * data.len()) as u64,
                "{mode:?} small range_batch"
            );

            engine.reset_distance_evaluations();
            let _ = engine.range_batch(&large, 0.3);
            assert_eq!(
                engine.distance_evaluations(),
                (large.len() * data.len()) as u64,
                "{mode:?} blocked range_batch"
            );

            engine.reset_distance_evaluations();
            let _ = engine.range_count_batch(&small, 0.3);
            let _ = engine.range_count_batch(&large, 0.3);
            assert_eq!(
                engine.distance_evaluations(),
                ((small.len() + large.len()) * data.len()) as u64,
                "{mode:?} range_count_batch"
            );

            engine.reset_distance_evaluations();
            let _ = engine.knn_batch(&small, 2);
            assert_eq!(
                engine.distance_evaluations(),
                (small.len() * data.len()) as u64,
                "{mode:?} knn_batch"
            );
        }
    }

    #[test]
    fn distance_evaluation_counter_tracks_work() {
        let data = toy();
        let engine = LinearScan::new(&data, Metric::Cosine);
        assert_eq!(engine.distance_evaluations(), 0);
        engine.range(data.row(0), 0.5);
        assert_eq!(engine.distance_evaluations(), data.len() as u64);
        engine.knn(data.row(0), 2);
        assert_eq!(engine.distance_evaluations(), 2 * data.len() as u64);
        engine.reset_distance_evaluations();
        assert_eq!(engine.distance_evaluations(), 0);
    }

    #[test]
    fn works_with_euclidean_metric_and_off_dataset_queries() {
        let data = toy();
        let engine = LinearScan::new(&data, Metric::Euclidean);
        assert_eq!(engine.metric(), Metric::Euclidean);
        let mut q = vec![0.999f32, 0.001];
        ops::normalize_in_place(&mut q);
        let hits = engine.range(&q, 0.2);
        assert!(hits.contains(&0));
        assert!(!hits.contains(&5));
        assert_eq!(engine.num_points(), 6);
        assert_eq!(engine.dataset().len(), 6);
    }
}
