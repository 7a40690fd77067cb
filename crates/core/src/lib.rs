//! # laf-core
//!
//! The paper's contribution: **LAF**, a Learned Accelerator Framework for
//! angular-distance DBSCAN-like clustering, and the two algorithms built on
//! it, **LAF-DBSCAN** (Algorithm 1) and **LAF-DBSCAN++**.
//!
//! LAF is a plugin with two halves:
//!
//! 1. **Cardinality-estimation gate** ([`CardEstGate`]): before any range
//!    query for a point `P`, ask a [`laf_cardest::CardinalityEstimator`] how
//!    many neighbors `P` has within ε. If the prediction is below `α·τ`
//!    (error factor times the core threshold), skip the range query entirely
//!    and treat `P` as a *predicted stop point* (non-core/noise).
//! 2. **Post-processing** ([`PostProcessor`] over a [`PartialNeighborMap`]):
//!    predicted stop points never execute range queries, but whenever some
//!    *other* point's range query finds them, that point is recorded as a
//!    partial neighbor (Algorithm 2, `UpdatePartialNeighbors`). After
//!    clustering, any predicted stop point with at least τ recorded partial
//!    neighbors is a detected false negative: the clusters around it were
//!    wrongly separated, and the post-processor merges them into one
//!    (Algorithm 3).
//!
//! The error factor α exposes the speed/quality trade-off the paper studies
//! in its Figures 2–3: larger α ⇒ more skipped queries ⇒ faster and less
//! accurate; smaller α ⇒ fewer false negatives ⇒ slower and more accurate.
//!
//! # Prescan / batch execution model
//!
//! Algorithm 1 as written is one-point-at-a-time: each point asks the
//! estimator for one prediction just before its range query. Since every
//! point is predicted at most once and the prediction does not depend on any
//! clustering state, the predictions can all be computed **before** the main
//! loop. Both [`LafDbscan`] and [`LafDbscanPlusPlus`] therefore run in two
//! stages:
//!
//! 1. **Prescan** ([`CardEstGate::prescan`]): the dataset's rows are chunked
//!    into batches (of [`gate::PRESCAN_BATCH`] points), the batches fan out
//!    over a rayon thread pool, and each batch runs a single
//!    [`laf_cardest::CardinalityEstimator::estimate_batch`] call — for the
//!    MLP/RMI estimators a matrix-shaped forward pass that streams each
//!    weight row once per batch instead of once per point. The raw
//!    predictions are folded into per-point [`GateDecision`]s.
//! 2. **Join, then label**: the BFS cluster growth of Algorithm 1 runs
//!    unchanged on the calling thread, reading precomputed decisions via
//!    [`CardEstGate::decide`] instead of invoking the estimator. Each point
//!    leaves `UNDEFINED` once, so the executed range queries are exactly the
//!    prescan's `Execute` points; a [`laf_clustering::RangeJoin`] computes
//!    their ε-neighbourhoods in windowed `range_batch` calls on the pool,
//!    ahead of the loop, and hands each list out when the loop reaches it.
//!
//! Batched estimation and batched range queries are bit-exact with their
//! per-point forms, and the gate's call/skip counters and the partial-neighbor
//! updates advance when a decision or list is *consumed*, not when it is
//! precomputed — so cluster assignments and [`LafStats`] are byte-identical
//! to the point-at-a-time execution model.
//!
//! The [`LafConfig::threads`] knob sizes the one pool a clustering run builds
//! (`0` = all cores). It composes with the α trade-off discussed above but is
//! orthogonal to it: α changes *what* is computed (which range queries run,
//! and therefore the output); `threads` only changes *how fast* the prescan
//! and the join's range queries run, never the output.
//!
//! # Train once, serve many
//!
//! The estimator is trained offline and amortized across clustering runs.
//! The [`snapshot`] module persists a trained pipeline (dataset, estimator
//! weights, configuration) in a versioned, checksummed binary format, and
//! [`LafPipeline`] wraps the two lifecycle paths: a **cold** start trains and
//! optionally saves ([`LafPipelineBuilder::train_and_save`]); a **warm**
//! start restores from a snapshot ([`LafPipeline::load`]) and serves
//! immediately, bit-exact with the process that trained it.
//!
//! Pipelines can additionally be **sharded**
//! ([`LafPipelineBuilder::shards`]): the snapshot then carries one dataset
//! slice and one persisted engine structure per shard (format v4), warm
//! starts restore a `laf_index::ShardedEngine` that fans queries out across
//! the shards in parallel, and every merged answer — range hits, counts,
//! knn orderings, cluster labels, [`LafStats`] — is bit-identical to the
//! unsharded pipeline's.

#![warn(missing_docs)]

pub mod config;
#[cfg(test)]
mod differential;
/// The deterministic failpoint registry (re-exported from
/// [`laf_vector::fault`]): the storage plane consults named sites at its
/// failure-prone edges; a no-op unless the `fault-injection` feature is
/// enabled.
pub use laf_vector::fault;
pub mod gate;
pub mod laf_dbscan;
pub mod laf_dbscan_pp;
pub mod mutable;
pub mod partial;
pub mod pipeline;
pub mod post;
pub mod snapshot;
pub mod wal;

pub use config::{LafConfig, LafStats};
pub use gate::{CardEstGate, GateDecision, Prescan};
pub use laf_dbscan::LafDbscan;
pub use laf_dbscan_pp::{LafDbscanPlusPlus, LafDbscanPlusPlusConfig};
pub use mutable::{Manifest, MutablePipeline, MANIFEST_FILE, WAL_FILE};
pub use partial::PartialNeighborMap;
pub use pipeline::{LafPipeline, LafPipelineBuilder, SharedEngine};
pub use post::PostProcessor;
pub use snapshot::{
    section_id, DegradedLoad, DegradedSection, Snapshot, SnapshotError, SnapshotShard,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{Wal, WalOp, WalRecord};
