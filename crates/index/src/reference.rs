//! The brute-force reference engine.
//!
//! [`ReferenceScan`] answers every query with one [`Metric::dist`] call per
//! (query, row) pair and nothing else: no norm cache, no register tiles, no
//! blocked batch path. It is the engine the tests check every other engine
//! against, and the baseline of the kernel gate in `laf-bench`'s
//! `exp_gates`. No [`crate::EngineChoice`] names it, so no config,
//! snapshot or CLI can select it.

use crate::engine::{Neighbor, RangeQueryEngine};
use laf_vector::{Dataset, Metric};
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact scan over `Metric::dist`, the reference every engine answers like.
pub struct ReferenceScan<'a> {
    data: &'a Dataset,
    metric: Metric,
    evaluations: AtomicU64,
}

impl<'a> ReferenceScan<'a> {
    /// Index `data` under `metric`.
    pub fn new(data: &'a Dataset, metric: Metric) -> Self {
        Self {
            data,
            metric,
            evaluations: AtomicU64::new(0),
        }
    }

    /// The distance from `q` to every row, in row order. Counts `n`
    /// evaluations.
    fn dists<'s>(&'s self, q: &'s [f32]) -> impl Iterator<Item = f32> + 's {
        self.evaluations
            .fetch_add(self.data.len() as u64, Ordering::Relaxed);
        self.data.rows().map(move |row| self.metric.dist(q, row))
    }
}

impl RangeQueryEngine for ReferenceScan<'_> {
    fn num_points(&self) -> usize {
        self.data.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        (0u32..)
            .zip(self.dists(q))
            .filter(|&(_, d)| d < eps)
            .map(|(i, _)| i)
            .collect()
    }

    fn range_count(&self, q: &[f32], eps: f32) -> usize {
        self.dists(q).filter(|&d| d < eps).count()
    }

    /// Collect every row, sort under `Neighbor`'s total order (distance,
    /// then index, NaN-safe), keep the first `k`.
    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = (0u32..)
            .zip(self.dists(q))
            .map(|(i, d)| Neighbor::new(i, d))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all
    }

    fn distance_evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn reset_distance_evaluations(&self) {
        self.evaluations.store(0, Ordering::Relaxed);
    }
}
