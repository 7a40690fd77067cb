//! # laf-index
//!
//! Range-query and nearest-neighbor engines used by every clustering
//! algorithm in the LAF-DBSCAN reproduction.
//!
//! DBSCAN's cost is dominated by ε-range queries; the approximate baselines
//! the paper compares against differ mostly in *which neighbor-search
//! substrate they use*:
//!
//! * original DBSCAN, DBSCAN++ and LAF-DBSCAN issue exact range queries —
//!   [`LinearScan`] here, checked in the tests against the brute-force
//!   [`ReferenceScan`] (one `Metric::dist` per pair, selectable by no
//!   config);
//! * BLOCK-DBSCAN relies on a cover tree — [`CoverTree`];
//! * KNN-BLOCK DBSCAN relies on a FLANN-style k-means tree for approximate
//!   k-nearest-neighbor queries — [`KMeansTree`];
//! * an inverted-file index ([`IvfIndex`]) is the approximate
//!   posting-list substrate of the engine ablation.
//!
//! ρ-approximate DBSCAN keeps its own ε-grid inside
//! `laf_clustering::rho_approx`; no engine here serves it.
//!
//! All engines implement [`RangeQueryEngine`] so the clustering layer can be
//! written once and benchmarked against any substrate, and all engines count
//! the number of distance evaluations they perform
//! ([`RangeQueryEngine::distance_evaluations`]) so the benchmark harness can
//! report *work saved* in addition to wall-clock time.
//!
//! For datasets split into shards, [`ShardedEngine`] fans each query out
//! across per-shard engines in parallel and merges the answers
//! bit-identically to the unsharded path (row-id rebasing for `range`,
//! summation for `range_count`, a NaN-safe [`TopK`] merge for `knn`).

#![warn(missing_docs)]

pub mod cover_tree;
pub mod engine;
pub mod ivf;
pub mod kmeans_tree;
pub mod linear;
pub mod persist;
pub mod reference;
pub mod sharded;
pub mod topk;

pub use cover_tree::CoverTree;
pub use engine::{build_engine, EngineChoice, Neighbor, RangeQueryEngine, TotalDist};
pub use ivf::IvfIndex;
pub use kmeans_tree::KMeansTree;
pub use linear::LinearScan;
pub use persist::{
    restore_engine, PersistError, PersistedCoverTree, PersistedCtNode, PersistedEngine,
};
pub use reference::ReferenceScan;
pub use sharded::ShardedEngine;
pub use topk::TopK;
