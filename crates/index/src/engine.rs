//! The [`RangeQueryEngine`] abstraction and engine selection.
//!
//! [`EngineChoice`] names the four engines that configs, snapshots and CLIs
//! can select. The brute-force [`crate::ReferenceScan`] the tests check them
//! against is deliberately not among them.

use laf_vector::{Dataset, Metric};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// NaN-safe total order over `f32` distances (IEEE 754 `totalOrder`, via
/// [`f32::total_cmp`]). Wrapping a distance in `TotalDist` makes it usable as
/// a sort key or inside [`Ord`]-requiring collections; NaNs sort after every
/// finite value instead of poisoning the comparison.
///
/// Equality follows the same total order (so `-0.0 != 0.0` and
/// `NaN == NaN`), keeping the `Eq`/`Ord` contract `a == b ⟺ cmp == Equal`
/// that derived IEEE `PartialEq` would violate.
#[derive(Debug, Clone, Copy)]
pub struct TotalDist(pub f32);

impl PartialEq for TotalDist {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TotalDist {}

impl PartialOrd for TotalDist {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalDist {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A neighbor returned by a k-nearest-neighbor query.
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    /// Row index of the neighbor in the indexed dataset.
    pub index: u32,
    /// Distance from the query to the neighbor under the engine's metric.
    pub dist: f32,
}

impl Neighbor {
    /// Convenience constructor.
    pub fn new(index: u32, dist: f32) -> Self {
        Self { index, dist }
    }
}

// Neighbors order by distance (NaN-safe, through [`TotalDist`]) with the row
// index as tie-breaker, so `sort`/`sort_unstable` on a neighbor list is
// total, deterministic, and equivalent to the stable by-distance sorts the
// knn paths previously open-coded (candidates are generated in index order).
// Equality is defined through the same total order so the `Eq`/`Ord`
// contract holds even for NaN / signed-zero distances.
impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        TotalDist(self.dist)
            .cmp(&TotalDist(other.dist))
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// Common interface of every neighbor-search substrate.
///
/// Engines are built over a borrowed [`Dataset`] and answer queries for
/// arbitrary query vectors (not only dataset rows), because LAF's cardinality
/// estimator is trained on held-out query points.
pub trait RangeQueryEngine: Send + Sync {
    /// Number of indexed points.
    fn num_points(&self) -> usize;

    /// The distance metric the engine answers queries under.
    fn metric(&self) -> Metric;

    /// Exact or approximate ε-range query: indices of all indexed points `x`
    /// with `dist(q, x) < eps`.
    ///
    /// Whether the result is exact depends on the engine; see each engine's
    /// documentation.
    fn range(&self, q: &[f32], eps: f32) -> Vec<u32>;

    /// Number of points within `eps` of `q`. Engines override this when they
    /// can count more cheaply than materializing the neighbor list.
    fn range_count(&self, q: &[f32], eps: f32) -> usize {
        self.range(q, eps).len()
    }

    /// k-nearest-neighbor query, closest first. `k` is clamped to the number
    /// of indexed points.
    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor>;

    /// Batched ε-range query: one neighbor list per query, identical to
    /// calling [`RangeQueryEngine::range`] per query.
    ///
    /// The default implementation fans the queries out over the current
    /// rayon thread pool (engines are `Sync`, so concurrent `&self` queries
    /// are safe); `linear` overrides it with cache-blocked kernels that
    /// additionally amortize dataset traversal across queries.
    fn range_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<Vec<u32>> {
        queries.par_iter().map(|q| self.range(q, eps)).collect()
    }

    /// Batched neighbor count: one count per query, identical to calling
    /// [`RangeQueryEngine::range_count`] per query. Parallel by default, see
    /// [`RangeQueryEngine::range_batch`].
    fn range_count_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<usize> {
        queries
            .par_iter()
            .map(|q| self.range_count(q, eps))
            .collect()
    }

    /// Batched k-nearest-neighbor query: one neighbor list per query,
    /// identical to calling [`RangeQueryEngine::knn`] per query. Parallel by
    /// default, see [`RangeQueryEngine::range_batch`].
    fn knn_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
        queries.par_iter().map(|q| self.knn(q, k)).collect()
    }

    /// Extract the engine's built structure as owned, serializable data (see
    /// [`crate::persist`]), or `None` for engines whose construction is not
    /// worth persisting. The default is `None`; engines with an expensive
    /// build phase (cover-tree and k-means tree construction, IVF training)
    /// override it so snapshots can skip the rebuild on warm starts via
    /// [`crate::restore_engine`].
    fn persist(&self) -> Option<crate::persist::PersistedEngine> {
        None
    }

    /// Total number of query-to-point distance evaluations performed so far.
    /// Used by the benchmark harness to report computation saved.
    fn distance_evaluations(&self) -> u64;

    /// Reset the distance-evaluation counter.
    fn reset_distance_evaluations(&self);
}

/// Declarative engine selection, used in clusterer configs, CLI flags and
/// ablation benchmarks.
///
/// Snapshots that name the retired exact ε-grid (`{"kind":"grid",…}`) load
/// as [`EngineChoice::Linear`], which answers identically (see
/// `laf_core::snapshot`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "kind")]
#[derive(Default)]
pub enum EngineChoice {
    /// Exact brute-force scan.
    #[default]
    Linear,
    /// Cover-tree style metric tree. `basis` mirrors BLOCK-DBSCAN's cover
    /// tree basis parameter (paper default 2.0).
    CoverTree {
        /// Radius decay basis (> 1).
        basis: f32,
    },
    /// FLANN-style k-means tree for approximate search. `branching` and
    /// `leaf_ratio` mirror the two knobs the paper tunes for KNN-BLOCK
    /// DBSCAN (branching factor 10, ratio of leaves to check 0.6).
    KMeansTree {
        /// Fanout of each internal node.
        branching: usize,
        /// Fraction of leaves visited per query, in (0, 1].
        leaf_ratio: f64,
    },
    /// Inverted-file index (k-means coarse quantizer, probe the closest
    /// `nprobe` of `nlist` posting lists). Approximate.
    Ivf {
        /// Number of posting lists.
        nlist: usize,
        /// Number of lists probed per query.
        nprobe: usize,
    },
}

/// Build the engine described by `choice` over `data` under `metric`. No
/// engine depends on the query radius, so one build serves every ε.
pub fn build_engine<'a>(
    choice: EngineChoice,
    data: &'a Dataset,
    metric: Metric,
) -> Box<dyn RangeQueryEngine + 'a> {
    match choice {
        EngineChoice::Linear => Box::new(crate::linear::LinearScan::new(data, metric)),
        EngineChoice::CoverTree { basis } => {
            Box::new(crate::cover_tree::CoverTree::new(data, metric, basis))
        }
        EngineChoice::KMeansTree {
            branching,
            leaf_ratio,
        } => Box::new(crate::kmeans_tree::KMeansTree::new(
            data, metric, branching, leaf_ratio, 0xC0FFEE,
        )),
        EngineChoice::Ivf { nlist, nprobe } => Box::new(crate::ivf::IvfIndex::new(
            data, metric, nlist, nprobe, 0xC0FFEE,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_vector::Dataset;

    fn toy() -> Dataset {
        let mut d = Dataset::from_rows(vec![
            vec![1.0f32, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
        ])
        .unwrap();
        d.normalize();
        d
    }

    #[test]
    fn neighbor_constructor() {
        let n = Neighbor::new(3, 0.25);
        assert_eq!(n.index, 3);
        assert_eq!(n.dist, 0.25);
    }

    #[test]
    fn default_choice_is_linear() {
        assert_eq!(EngineChoice::default(), EngineChoice::Linear);
    }

    #[test]
    fn build_engine_constructs_every_variant() {
        let data = toy();
        let choices = [
            EngineChoice::Linear,
            EngineChoice::CoverTree { basis: 2.0 },
            EngineChoice::KMeansTree {
                branching: 2,
                leaf_ratio: 1.0,
            },
            EngineChoice::Ivf {
                nlist: 2,
                nprobe: 2,
            },
        ];
        for c in choices {
            let engine = build_engine(c, &data, Metric::Cosine);
            assert_eq!(engine.num_points(), 4, "engine {c:?}");
            assert_eq!(engine.metric(), Metric::Cosine);
            // Every engine must find the query point's duplicate region.
            let hits = engine.range(data.row(0), 0.2);
            assert!(hits.contains(&0), "engine {c:?} missed exact duplicate");
        }
    }

    #[test]
    fn engine_choice_serde_round_trip() {
        let c = EngineChoice::KMeansTree {
            branching: 10,
            leaf_ratio: 0.6,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineChoice = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
