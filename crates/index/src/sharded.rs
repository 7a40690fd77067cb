//! Parallel scatter-gather over per-shard engines.
//!
//! [`ShardedEngine`] presents N engines — each indexing one contiguous slice
//! of a logical dataset — as a single [`RangeQueryEngine`]. Queries fan out
//! across the shards in parallel (rayon) and the per-shard answers are
//! merged so every result is **bit-identical** to the unsharded engine over
//! the concatenated dataset:
//!
//! * `range` — every shard reports its hits ascending in shard-local row
//!   ids; rebasing by the shard's global start offset and concatenating in
//!   shard order therefore reproduces the globally ascending hit list of the
//!   unsharded scan, element for element.
//! * `range_count` — the sum of per-shard counts.
//! * `knn` — each shard returns its local top-k; the local ids are rebased
//!   to global row ids **before** the lists are merged through the shared
//!   NaN-safe bounded selector ([`crate::topk::TopK`]), so duplicate-distance
//!   ties resolve by global index exactly as a single scan would.
//! * `distance_evaluations` — the sum over shards (each shard scans only its
//!   own rows, so the total equals the unsharded count for exact engines).
//!
//! The merge relies on every engine in this crate emitting `range` hits in
//! ascending row order (they all do — it is part of the engine contract the
//! agreement tests pin down) and on row-id rebasing being a strictly
//! monotone map from (shard, local) to global ids, which
//! [`laf_vector::ShardMap`] guarantees for contiguous slices.

use crate::engine::{Neighbor, RangeQueryEngine};
use crate::topk::TopK;
use laf_vector::{Metric, ShardMap, VectorError};
use rayon::prelude::*;

/// A scatter-gather [`RangeQueryEngine`] over per-shard engines.
///
/// Construction validates the fan-out invariants once (at least one shard,
/// uniform metric, engine sizes matching the [`ShardMap`]), so the query
/// paths can merge without re-checking.
pub struct ShardedEngine<'a> {
    shards: Vec<Box<dyn RangeQueryEngine + 'a>>,
    map: ShardMap,
}

impl<'a> ShardedEngine<'a> {
    /// Assemble a sharded engine from per-shard engines and the row layout
    /// they were built over.
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] when `shards` is empty,
    /// when the shard count or any shard's point count disagrees with
    /// `map`, or when the shards disagree on the metric.
    pub fn new(
        shards: Vec<Box<dyn RangeQueryEngine + 'a>>,
        map: ShardMap,
    ) -> Result<Self, VectorError> {
        if shards.is_empty() {
            return Err(VectorError::InvalidParameter(
                "a sharded engine needs at least one shard".to_string(),
            ));
        }
        if shards.len() != map.n_shards() {
            return Err(VectorError::InvalidParameter(format!(
                "{} shard engines but the shard map describes {} shards",
                shards.len(),
                map.n_shards()
            )));
        }
        let metric = shards[0].metric();
        for (s, engine) in shards.iter().enumerate() {
            if engine.metric() != metric {
                return Err(VectorError::InvalidParameter(format!(
                    "shard {s} answers under {:?} but shard 0 answers under {metric:?}",
                    engine.metric()
                )));
            }
            if engine.num_points() != map.shard_len(s) {
                return Err(VectorError::InvalidParameter(format!(
                    "shard {s} indexes {} points but the shard map assigns it {}",
                    engine.num_points(),
                    map.shard_len(s)
                )));
            }
        }
        Ok(Self { shards, map })
    }

    /// Number of shards queries fan out across.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global row layout of the shards.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Rebase one shard's local hit list into global row ids.
    #[inline]
    fn rebase(&self, shard: usize, hits: Vec<u32>) -> Vec<u32> {
        let start = self.map.start(shard) as u32;
        hits.into_iter().map(|i| i + start).collect()
    }
}

impl RangeQueryEngine for ShardedEngine<'_> {
    fn num_points(&self) -> usize {
        self.map.total_rows()
    }

    fn metric(&self) -> Metric {
        self.shards[0].metric()
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let per_shard: Vec<Vec<u32>> = (0..self.shards.len())
            .into_par_iter()
            .map(|s| self.rebase(s, self.shards[s].range(q, eps)))
            .collect();
        let total = per_shard.iter().map(Vec::len).sum();
        let mut merged = Vec::with_capacity(total);
        for hits in per_shard {
            merged.extend(hits);
        }
        merged
    }

    fn range_count(&self, q: &[f32], eps: f32) -> usize {
        self.shards
            .par_iter()
            .map(|engine| engine.range_count(q, eps))
            .sum()
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let per_shard: Vec<Vec<Neighbor>> = (0..self.shards.len())
            .into_par_iter()
            .map(|s| {
                let start = self.map.start(s) as u32;
                self.shards[s]
                    .knn(q, k)
                    .into_iter()
                    .map(|n| Neighbor::new(n.index + start, n.dist))
                    .collect()
            })
            .collect();
        let mut top = TopK::new(k.min(self.num_points()));
        for local in per_shard {
            top.extend(local);
        }
        top.into_sorted()
    }

    // `persist` stays `None`: the per-shard structures are persisted
    // individually by the snapshot layer (one engine section per shard), so
    // there is no single-engine structure to save here.

    fn distance_evaluations(&self) -> u64 {
        self.shards
            .iter()
            .map(|engine| engine.distance_evaluations())
            .sum()
    }

    fn reset_distance_evaluations(&self) {
        for engine in &self.shards {
            engine.reset_distance_evaluations();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineChoice};
    use crate::linear::LinearScan;
    use laf_vector::Dataset;

    fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
        // Small deterministic blob mixture, unit-normalized.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32 - 0.5
        };
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let center = (i % 3) as f32;
                let mut row: Vec<f32> = (0..dim).map(|d| center + (d as f32) * 0.1).collect();
                for v in row.iter_mut() {
                    *v += next() * 0.3;
                }
                laf_vector::ops::normalize_in_place(&mut row);
                row
            })
            .collect();
        Dataset::from_rows(rows).unwrap()
    }

    /// Build a sharded engine over shard slices of `data`.
    fn build_sharded<'a>(
        shard_data: &'a [Dataset],
        map: &ShardMap,
        choice: EngineChoice,
        metric: Metric,
    ) -> ShardedEngine<'a> {
        let engines = shard_data
            .iter()
            .map(|d| build_engine(choice, d, metric))
            .collect();
        ShardedEngine::new(engines, map.clone()).unwrap()
    }

    fn shard_slices(data: &Dataset, map: &ShardMap) -> Vec<Dataset> {
        let shared = data.clone().into_shared();
        (0..map.n_shards())
            .map(|s| shared.slice_rows(map.start(s), map.shard_len(s)).unwrap())
            .collect()
    }

    #[test]
    fn scatter_gather_matches_the_unsharded_oracle_bitwise() {
        let data = clustered(61, 6, 9);
        let eps = 0.25f32;
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let oracle = LinearScan::new(&data, metric);
            for n in [1usize, 2, 3, 7] {
                let map = ShardMap::even_split(data.len(), n);
                let slices = shard_slices(&data, &map);
                let sharded = build_sharded(&slices, &map, EngineChoice::Linear, metric);
                assert_eq!(sharded.num_points(), data.len());
                assert_eq!(sharded.metric(), metric);
                assert_eq!(sharded.n_shards(), n.min(data.len()));
                for qi in [0usize, 17, 42, 60] {
                    let q = data.row(qi);
                    assert_eq!(
                        sharded.range(q, eps),
                        oracle.range(q, eps),
                        "{metric:?} n={n} q={qi}: range must be bit-identical"
                    );
                    assert_eq!(sharded.range_count(q, eps), oracle.range_count(q, eps));
                    for k in [0usize, 1, 5, 61, 100] {
                        let got = sharded.knn(q, k);
                        let expected = oracle.knn(q, k);
                        assert_eq!(got.len(), expected.len(), "{metric:?} n={n} k={k}");
                        for (g, e) in got.iter().zip(&expected) {
                            assert_eq!(g.index, e.index, "{metric:?} n={n} k={k}");
                            assert_eq!(g.dist.to_bits(), e.dist.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_defaults_agree_with_per_query_calls() {
        let data = clustered(40, 5, 3);
        let map = ShardMap::even_split(data.len(), 3);
        let slices = shard_slices(&data, &map);
        let sharded = build_sharded(&slices, &map, EngineChoice::Linear, Metric::Cosine);
        let queries: Vec<&[f32]> = (0..8).map(|i| data.row(i * 3)).collect();
        let batch = sharded.range_batch(&queries, 0.3);
        let counts = sharded.range_count_batch(&queries, 0.3);
        let knns = sharded.knn_batch(&queries, 4);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], sharded.range(q, 0.3));
            assert_eq!(counts[i], sharded.range_count(q, 0.3));
            assert_eq!(knns[i], sharded.knn(q, 4));
        }
    }

    #[test]
    fn evaluation_accounting_sums_over_shards() {
        let data = clustered(30, 4, 5);
        let map = ShardMap::even_split(data.len(), 2);
        let slices = shard_slices(&data, &map);
        let sharded = build_sharded(&slices, &map, EngineChoice::Linear, Metric::Cosine);
        assert_eq!(sharded.distance_evaluations(), 0);
        sharded.range(data.row(0), 0.3);
        // A linear scan touches every row exactly once, shard by shard.
        assert_eq!(sharded.distance_evaluations(), data.len() as u64);
        sharded.reset_distance_evaluations();
        assert_eq!(sharded.distance_evaluations(), 0);
    }

    #[test]
    fn sharded_engine_does_not_persist_as_a_single_structure() {
        let data = clustered(20, 4, 7);
        let map = ShardMap::even_split(data.len(), 2);
        let slices = shard_slices(&data, &map);
        let sharded = build_sharded(&slices, &map, EngineChoice::Linear, Metric::Cosine);
        assert!(sharded.persist().is_none());
    }

    #[test]
    fn construction_validates_the_fan_out_invariants() {
        let data = clustered(20, 4, 11);
        let map = ShardMap::even_split(data.len(), 2);
        let slices = shard_slices(&data, &map);

        // No shards at all.
        assert!(ShardedEngine::new(Vec::new(), map.clone()).is_err());

        // Shard count disagreeing with the map.
        let one: Vec<Box<dyn RangeQueryEngine>> =
            vec![Box::new(LinearScan::new(&slices[0], Metric::Cosine))];
        assert!(ShardedEngine::new(one, map.clone()).is_err());

        // Metric mismatch across shards.
        let mixed: Vec<Box<dyn RangeQueryEngine>> = vec![
            Box::new(LinearScan::new(&slices[0], Metric::Cosine)),
            Box::new(LinearScan::new(&slices[1], Metric::Euclidean)),
        ];
        assert!(ShardedEngine::new(mixed, map.clone()).is_err());

        // Engine size disagreeing with the map's layout.
        let short = slices[1].slice_rows(0, slices[1].len() - 1).unwrap();
        let wrong_size: Vec<Box<dyn RangeQueryEngine>> = vec![
            Box::new(LinearScan::new(&slices[0], Metric::Cosine)),
            Box::new(LinearScan::new(&short, Metric::Cosine)),
        ];
        assert!(ShardedEngine::new(wrong_size, map).is_err());
    }

    #[test]
    fn sharded_engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedEngine<'static>>();
    }
}
