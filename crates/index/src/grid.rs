//! ε-grid index (the ρ-approximate DBSCAN substrate).
//!
//! Gan & Tao's ρ-approximate DBSCAN buckets points into a grid whose cell
//! side is proportional to ε; core status and cluster connectivity are then
//! resolved cell-by-cell. The construction is extremely effective in 2–3
//! dimensions but degrades badly as dimensionality grows — the number of
//! non-empty cells approaches the number of points and almost every pair of
//! cells must still be examined — which is exactly why the paper's Table 4
//! finds ρ-approximate DBSCAN *slower than plain DBSCAN* on 768-dimensional
//! embeddings. This module reproduces that behaviour honestly: the grid is
//! exact (range queries prune with per-cell bounding boxes) and the overhead
//! it pays in high dimension is the overhead the paper measured.
//!
//! Like the cover tree, the grid operates internally in Euclidean space over
//! the normalized vectors and converts cosine thresholds via Equation (1).

use crate::engine::{KernelMode, Neighbor, RangeQueryEngine, TotalDist};
use crate::persist::{PersistError, PersistedCell, PersistedEngine, PersistedGrid};
use laf_vector::distance::DistanceMetric;
use laf_vector::EuclideanDistance;
use laf_vector::{cosine_to_euclidean, euclidean_to_cosine, Dataset, Metric, MetricKernel};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Queries per cache block in the batched kernels: every populated cell's
/// bounding box and point list is visited once per block instead of once per
/// query. See `laf_index::linear` for the same technique on the flat scan.
const QUERY_BLOCK: usize = 16;

/// Smallest usable cell side length (internal Euclidean units).
///
/// This is the **single** degenerate-cell-side guard of the grid engine:
/// [`GridIndex::new`] clamps any non-finite or smaller requested side up to
/// this value, and [`crate::engine::build_engine`] passes its
/// `eps_hint * cell_side` product through unguarded so the clamp applied here
/// is the only one. A clamped side still yields a correct (merely
/// finer-than-requested) grid; it never silently swaps in a coarser geometry.
pub const MIN_CELL_SIDE: f32 = 1e-6;

/// A populated grid cell.
#[derive(Debug)]
struct Cell {
    /// Quantized coordinates of the cell (one entry per dimension).
    coords: Vec<i32>,
    /// Dataset rows falling in this cell.
    points: Vec<u32>,
}

/// Exact grid index with bounding-box pruning.
pub struct GridIndex<'a> {
    data: &'a Dataset,
    metric: Metric,
    /// Cell side length in internal Euclidean space.
    cell_side: f32,
    cells: Vec<Cell>,
    /// Map from quantized coordinates to position in `cells`.
    lookup: HashMap<Vec<i32>, u32>,
    /// Candidate verification runs in the internal Euclidean space, so the
    /// specialized kernel is always the Euclidean one regardless of the
    /// public metric.
    verify_kernel: MetricKernel,
    mode: KernelMode,
    evaluations: AtomicU64,
}

impl<'a> GridIndex<'a> {
    /// Build a grid with the given cell side length (internal Euclidean
    /// units). Gan & Tao use `ε/√d`; [`crate::engine::build_engine`] computes
    /// the side from its `eps_hint`. Sides below [`MIN_CELL_SIDE`] (or
    /// non-finite) are clamped up to it — see the constant's documentation.
    pub fn new(data: &'a Dataset, metric: Metric, cell_side: f32) -> Self {
        Self::with_kernel_mode(data, metric, cell_side, KernelMode::default())
    }

    /// [`GridIndex::new`] with an explicit [`KernelMode`] for the candidate
    /// verification loops.
    pub fn with_kernel_mode(
        data: &'a Dataset,
        metric: Metric,
        cell_side: f32,
        mode: KernelMode,
    ) -> Self {
        let cell_side = if cell_side.is_finite() && cell_side >= MIN_CELL_SIDE {
            cell_side
        } else {
            MIN_CELL_SIDE
        };
        let mut lookup: HashMap<Vec<i32>, u32> = HashMap::new();
        let mut cells: Vec<Cell> = Vec::new();
        for (i, row) in data.rows().enumerate() {
            let coords = quantize(row, cell_side);
            match lookup.get(&coords) {
                Some(&cell_id) => cells[cell_id as usize].points.push(i as u32),
                None => {
                    let cell_id = cells.len() as u32;
                    lookup.insert(coords.clone(), cell_id);
                    cells.push(Cell {
                        coords,
                        points: vec![i as u32],
                    });
                }
            }
        }
        Self {
            data,
            metric,
            cell_side,
            cells,
            lookup,
            verify_kernel: MetricKernel::new(Metric::Euclidean),
            mode,
            evaluations: AtomicU64::new(0),
        }
    }

    /// The kernel mode the verification loops run on.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// Rebuild a grid from a [persisted structure](PersistedGrid) without
    /// re-quantizing any row: only the coordinate→cell lookup map is
    /// reconstructed (a hash insert per cell). The caller is expected to have
    /// [validated](PersistedEngine::validate) the structure against `data`;
    /// this constructor re-checks nothing beyond what it touches.
    ///
    /// # Errors
    /// Returns [`PersistError`] when two cells share coordinates (the lookup
    /// map would silently drop one).
    pub fn from_persisted(data: &'a Dataset, p: &PersistedGrid) -> Result<Self, PersistError> {
        let mut lookup: HashMap<Vec<i32>, u32> = HashMap::with_capacity(p.cells.len());
        let mut cells: Vec<Cell> = Vec::with_capacity(p.cells.len());
        for cell in &p.cells {
            let cell_id = cells.len() as u32;
            if lookup.insert(cell.coords.clone(), cell_id).is_some() {
                return Err(PersistError::new(
                    "grid holds two cells with identical coordinates",
                ));
            }
            cells.push(Cell {
                coords: cell.coords.clone(),
                points: cell.points.clone(),
            });
        }
        Ok(Self {
            data,
            metric: p.metric,
            cell_side: p.cell_side,
            cells,
            lookup,
            verify_kernel: MetricKernel::new(Metric::Euclidean),
            mode: KernelMode::default(),
            evaluations: AtomicU64::new(0),
        })
    }

    /// Number of non-empty cells (diagnostics: in high dimension this
    /// approaches the number of points, which is the degradation the paper's
    /// Table 4 demonstrates).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cell side length in internal Euclidean units.
    pub fn cell_side(&self) -> f32 {
        self.cell_side
    }

    /// All points sharing the query's cell (the "same cell" primitive of
    /// ρ-approximate DBSCAN: those points are within `ε√d` of each other by
    /// construction).
    pub fn cell_mates(&self, q: &[f32]) -> &[u32] {
        let coords = quantize(q, self.cell_side);
        match self.lookup.get(&coords) {
            Some(&cell_id) => &self.cells[cell_id as usize].points,
            None => &[],
        }
    }

    fn eps_to_internal(&self, eps: f32) -> f32 {
        match self.metric {
            Metric::Euclidean => eps,
            Metric::SquaredEuclidean => eps.max(0.0).sqrt(),
            Metric::Cosine => cosine_to_euclidean(eps),
            Metric::Angular => {
                let d_cos = 1.0 - (eps.clamp(0.0, 1.0) * std::f32::consts::PI).cos();
                cosine_to_euclidean(d_cos)
            }
            Metric::NegDot => cosine_to_euclidean(eps + 1.0),
        }
    }

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

    /// Shared body of the blocked batch kernels: visit every cell once per
    /// block, box-prune per query, and verify the surviving (query, point)
    /// pairs — calling `hit(slot, point)` for each point within range.
    ///
    /// In specialized mode the queries that pass a cell's box check are
    /// verified four at a time against each of the cell's points through the
    /// [`MetricKernel::within4`] mini-GEMM tile (each point row is loaded
    /// once per four queries); `norms` must then be `Some`. Generic mode is
    /// the plain per-pair [`EuclideanDistance`] comparison. Both arms count
    /// one evaluation per surviving pair into `evals`.
    fn verify_block(
        &self,
        block: &[&[f32]],
        eps_euc: f32,
        norms: Option<&laf_vector::RowNorms>,
        evals: &mut u64,
        mut hit: impl FnMut(usize, u32),
    ) {
        match self.mode {
            KernelMode::Generic => {
                for cell in &self.cells {
                    for (slot, q) in block.iter().enumerate() {
                        if self.box_distance(q, &cell.coords) >= eps_euc {
                            continue;
                        }
                        for &p in &cell.points {
                            *evals += 1;
                            if EuclideanDistance.dist(q, self.data.row(p as usize)) < eps_euc {
                                hit(slot, p);
                            }
                        }
                    }
                }
            }
            KernelMode::Specialized => {
                let norms = norms.expect("specialized mode passes the norm cache");
                let probes: Vec<_> = block
                    .iter()
                    .map(|q| self.verify_kernel.probe(q, eps_euc))
                    .collect();
                let mut active: Vec<usize> = Vec::with_capacity(block.len());
                for cell in &self.cells {
                    active.clear();
                    active.extend(block.iter().enumerate().filter_map(|(slot, q)| {
                        (self.box_distance(q, &cell.coords) < eps_euc).then_some(slot)
                    }));
                    if active.is_empty() {
                        continue;
                    }
                    *evals += (active.len() * cell.points.len()) as u64;
                    let (tiles, rest) = active.split_at(active.len() / 4 * 4);
                    for &p in &cell.points {
                        let i = p as usize;
                        let row = self.data.row(i);
                        let (row_norm, row_sq) = (norms.norm(i), norms.sq(i));
                        for tile in tiles.chunks_exact(4) {
                            let tile_probes = [
                                probes[tile[0]],
                                probes[tile[1]],
                                probes[tile[2]],
                                probes[tile[3]],
                            ];
                            let lanes =
                                self.verify_kernel
                                    .within4(&tile_probes, row, row_norm, row_sq);
                            for (lane, &slot) in tile.iter().enumerate() {
                                if lanes[lane] {
                                    hit(slot, p);
                                }
                            }
                        }
                        for &slot in rest {
                            if self
                                .verify_kernel
                                .within(&probes[slot], row, row_norm, row_sq)
                            {
                                hit(slot, p);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Minimum possible Euclidean distance from `q` to any point inside the
    /// cell's bounding box.
    fn box_distance(&self, q: &[f32], coords: &[i32]) -> f32 {
        let mut sum = 0.0f32;
        for (d, &c) in coords.iter().enumerate() {
            let lo = c as f32 * self.cell_side;
            let hi = lo + self.cell_side;
            let x = q[d];
            let gap = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            sum += gap * gap;
        }
        sum.sqrt()
    }
}

// i32 coordinates: with the normalized vectors every engine indexes (|x| <= 1)
// and a cell side clamped to MIN_CELL_SIDE = 1e-6, quantized coordinates reach
// at most ~1e6 — comfortably inside i32. The previous i16 coordinates
// saturated at 32767, collapsing distinct points into boundary cells whose
// bounding boxes did not contain them, which made box-distance pruning skip
// cells holding true neighbors.
fn quantize(v: &[f32], cell_side: f32) -> Vec<i32> {
    v.iter()
        .map(|&x| {
            let q = (x / cell_side).floor();
            q.clamp(i32::MIN as f32, i32::MAX as f32) as i32
        })
        .collect()
}

impl RangeQueryEngine for GridIndex<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        // One query, internal Euclidean space: the kernel's scalar Euclidean
        // predicate is exactly this subtract-form comparison, so both kernel
        // modes share one implementation here — the specialized win lives in
        // the batch paths, where `within4` amortizes the row loads across
        // four queries.
        let eps_euc = self.eps_to_internal(eps);
        let mut out = Vec::new();
        let mut evals = 0u64;
        for cell in &self.cells {
            if self.box_distance(q, &cell.coords) >= eps_euc {
                continue;
            }
            evals += cell.points.len() as u64;
            for &p in &cell.points {
                if EuclideanDistance.dist(q, self.data.row(p as usize)) < eps_euc {
                    out.push(p);
                }
            }
        }
        self.evaluations.fetch_add(evals, Ordering::Relaxed);
        out.sort_unstable();
        out
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 || self.data.is_empty() {
            return Vec::new();
        }
        // Visit cells in order of box distance; stop when the k-th best
        // distance is closer than the next cell could possibly be.
        let mut order: Vec<(TotalDist, u32)> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (TotalDist(self.box_distance(q, &c.coords)), i as u32))
            .collect();
        order.sort_unstable();
        let k = k.min(self.data.len());
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        let mut evals = 0u64;
        for (TotalDist(box_d), cell_id) in order {
            if best.len() == k && box_d >= best.last().map(|n| n.dist).unwrap_or(f32::INFINITY) {
                break;
            }
            let points = &self.cells[cell_id as usize].points;
            evals += points.len() as u64;
            for &p in points {
                let d = EuclideanDistance.dist(q, self.data.row(p as usize));
                if best.len() < k || d < best.last().map(|n| n.dist).unwrap_or(f32::INFINITY) {
                    best.push(Neighbor::new(p, d));
                    best.sort_unstable();
                    best.truncate(k);
                }
            }
        }
        self.evaluations.fetch_add(evals, Ordering::Relaxed);
        for n in best.iter_mut() {
            n.dist = self.dist_to_public(n.dist);
        }
        best
    }

    fn range_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<Vec<u32>> {
        let eps_euc = self.eps_to_internal(eps);
        // Norm cache only in specialized mode — the generic arm stays the
        // true pre-kernel baseline.
        let norms = match self.mode {
            KernelMode::Specialized => Some(self.data.row_norms()),
            KernelMode::Generic => None,
        };
        let per_block: Vec<(Vec<Vec<u32>>, u64)> = queries
            .par_chunks(QUERY_BLOCK)
            .map(|block| {
                let mut hits: Vec<Vec<u32>> = vec![Vec::new(); block.len()];
                let mut evals = 0u64;
                self.verify_block(block, eps_euc, norms, &mut evals, |slot, p| {
                    hits[slot].push(p)
                });
                for h in hits.iter_mut() {
                    h.sort_unstable();
                }
                (hits, evals)
            })
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for (hits, evals) in per_block {
            self.evaluations.fetch_add(evals, Ordering::Relaxed);
            out.extend(hits);
        }
        out
    }

    fn range_count_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<usize> {
        let eps_euc = self.eps_to_internal(eps);
        let norms = match self.mode {
            KernelMode::Specialized => Some(self.data.row_norms()),
            KernelMode::Generic => None,
        };
        let per_block: Vec<(Vec<usize>, u64)> = queries
            .par_chunks(QUERY_BLOCK)
            .map(|block| {
                let mut counts = vec![0usize; block.len()];
                let mut evals = 0u64;
                self.verify_block(block, eps_euc, norms, &mut evals, |slot, _p| {
                    counts[slot] += 1
                });
                (counts, evals)
            })
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for (counts, evals) in per_block {
            self.evaluations.fetch_add(evals, Ordering::Relaxed);
            out.extend(counts);
        }
        out
    }

    fn persist(&self) -> Option<PersistedEngine> {
        Some(PersistedEngine::Grid(PersistedGrid {
            metric: self.metric,
            cell_side: self.cell_side,
            dim: self.data.dim() as u32,
            cells: self
                .cells
                .iter()
                .map(|c| PersistedCell {
                    coords: c.coords.clone(),
                    points: c.points.clone(),
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
    use crate::linear::LinearScan;
    use laf_synth::EmbeddingMixtureConfig;

    fn sample_data(dim: usize) -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim,
            clusters: 5,
            noise_fraction: 0.2,
            seed: 31,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn range_matches_linear_scan_cosine() {
        let data = sample_data(12);
        // Cell side ≈ eps_euc / sqrt(d)
        let eps = 0.3f32;
        let side = cosine_to_euclidean(eps) / (12.0f32).sqrt();
        let grid = GridIndex::new(&data, Metric::Cosine, side);
        let oracle = LinearScan::new(&data, Metric::Cosine);
        for &q in &[0usize, 50, 299] {
            let expected = oracle.range(data.row(q), eps);
            let got = grid.range(data.row(q), eps);
            assert_eq!(got, expected, "q={q}");
        }
    }

    #[test]
    fn range_matches_linear_scan_euclidean_low_dim() {
        let data = sample_data(3);
        let grid = GridIndex::new(&data, Metric::Euclidean, 0.1);
        let oracle = LinearScan::new(&data, Metric::Euclidean);
        for &q in &[1usize, 100, 200] {
            for &eps in &[0.1f32, 0.4, 1.0] {
                assert_eq!(
                    grid.range(data.row(q), eps),
                    oracle.range(data.row(q), eps),
                    "q={q} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn low_dim_grid_prunes_work() {
        let data = sample_data(3);
        let grid = GridIndex::new(&data, Metric::Euclidean, 0.05);
        grid.reset_distance_evaluations();
        let _ = grid.range(data.row(0), 0.1);
        assert!(
            grid.distance_evaluations() < data.len() as u64,
            "low-dimensional grid should prune: {}",
            grid.distance_evaluations()
        );
    }

    #[test]
    fn high_dim_grid_degenerates_to_one_point_per_cell() {
        let data = sample_data(48);
        let side = cosine_to_euclidean(0.3) / (48.0f32).sqrt();
        let grid = GridIndex::new(&data, Metric::Cosine, side);
        // The curse of dimensionality: almost every point gets its own cell.
        assert!(
            grid.cell_count() as f64 > data.len() as f64 * 0.9,
            "cells={} points={}",
            grid.cell_count(),
            data.len()
        );
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = sample_data(8);
        let grid = GridIndex::new(&data, Metric::Cosine, 0.1);
        let oracle = LinearScan::new(&data, Metric::Cosine);
        for &q in &[3usize, 77, 250] {
            let expected = oracle.knn(data.row(q), 7);
            let got = grid.knn(data.row(q), 7);
            assert_eq!(got.len(), 7);
            for (e, g) in expected.iter().zip(&got) {
                assert!((e.dist - g.dist).abs() < 1e-3, "q={q}");
            }
        }
    }

    #[test]
    fn cell_mates_contains_the_point_itself() {
        let data = sample_data(6);
        let grid = GridIndex::new(&data, Metric::Cosine, 0.2);
        for q in [0usize, 10, 200] {
            let mates = grid.cell_mates(data.row(q));
            assert!(mates.contains(&(q as u32)));
        }
    }

    #[test]
    fn degenerate_cell_side_is_clamped() {
        let data = sample_data(4);
        for degenerate in [0.0f32, -1.0, f32::NAN, f32::INFINITY, 1e-9] {
            let grid = GridIndex::new(&data, Metric::Cosine, degenerate);
            assert_eq!(grid.cell_side(), MIN_CELL_SIDE, "input {degenerate}");
            assert_eq!(grid.num_points(), data.len());
        }
        // A tiny-but-valid side is honored exactly, not swapped for a coarser
        // fallback geometry.
        let tiny = 2e-6f32;
        let grid = GridIndex::new(&data, Metric::Cosine, tiny);
        assert_eq!(grid.cell_side(), tiny);
    }

    #[test]
    fn sub_i16_cell_side_does_not_saturate_quantization() {
        // Cell side below 1/32767: quantized coordinates of unit-norm points
        // overflow i16. With saturating i16 coordinates the points collapse
        // into boundary cells whose bounding boxes lie far away from them,
        // and box-distance pruning then skips cells holding true neighbors.
        let data = sample_data(3);
        let side = 1e-5f32; // |x| near 1 quantizes to ~1e5 >> 32767
        let grid = GridIndex::new(&data, Metric::Euclidean, side);
        assert_eq!(grid.cell_side(), side);
        let oracle = LinearScan::new(&data, Metric::Euclidean);
        for q in 0..data.len() {
            let hits = grid.range(data.row(q), 0.1);
            assert!(
                hits.contains(&(q as u32)),
                "query {q} must find itself at a sub-1/32767 cell side"
            );
            assert_eq!(
                hits,
                oracle.range(data.row(q), 0.1),
                "query {q} disagrees with the exact scan"
            );
        }
    }

    #[test]
    fn knn_k_zero_is_empty() {
        let data = sample_data(4);
        let grid = GridIndex::new(&data, Metric::Cosine, 0.1);
        assert!(grid.knn(data.row(0), 0).is_empty());
    }
}
