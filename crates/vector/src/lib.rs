//! # laf-vector
//!
//! Dense vector substrate for the LAF-DBSCAN reproduction.
//!
//! The paper clusters high-dimensional, unit-normalized neural embeddings
//! under the **angular (cosine) distance**. This crate provides everything
//! the clustering and estimation layers need to talk about such data:
//!
//! * [`Dataset`] — a contiguous, row-major `f32` matrix with cheap row access,
//!   normalization, sampling and serialization, backed either by an owned
//!   buffer, zero-copy by a memory-mapped file ([`DataBacking`], built in
//!   [`mapped`]), or by a reference-counted window into a shared allocation
//!   ([`Dataset::slice_rows`] shard views).
//! * [`ShardMap`] — the shard-aware row-id mapping that rebases shard-local
//!   hits to global row ids for the scatter-gather engine.
//! * [`Distance`] — the distance-metric abstraction with [`CosineDistance`],
//!   [`AngularDistance`], [`EuclideanDistance`], [`SquaredEuclideanDistance`]
//!   and [`DotProductSimilarity`] implementations, plus the cosine↔Euclidean
//!   conversion of Equation (1) in the paper.
//! * [`MetricKernel`] — metric-specialized distance kernels: per-row norm
//!   caching ([`Dataset::row_norms`]), dot-only predicates with threshold
//!   pushdown, and one decision entry point for dots computed in a tile
//!   ([`MetricKernel::within_dot`]), all bit-identical to the generic
//!   evaluation.
//! * [`tile`] — the exact register tiles of the linear scan: one probe
//!   against eight rows ([`tile::dot_rows8`]) and up to sixteen packed
//!   probes against one row ([`tile::ProbeBlock`]), on SSE2 resp. AVX2
//!   chosen by runtime CPU detection and the [`ops::dot`] / [`ops::dot4`]
//!   loops elsewhere. They score several independent pairs per step under
//!   [`ops::dot`]'s unchanged accumulation order, so every lane keeps its
//!   bits.
//! * [`DeltaSegment`] and [`TombstoneSet`] — the mutable-plane substrate:
//!   an append-only segment of inserted rows plus a deletion bitmap with
//!   O(1) physical→dense rank queries (see [`delta`]).
//! * [`GaussianRandomProjection`] — the ANN-benchmark-style dimensionality
//!   reduction the paper applies to the NYTimes bag-of-words vectors.
//! * [`fault`] — the deterministic failpoint registry the storage plane
//!   consults at its failure-prone edges (a no-op unless the
//!   `fault-injection` feature is enabled).
//! * low-level kernels in [`ops`] used by every other crate.
//!
//! All public items are documented; see the crate-level tests and the
//! property tests under `tests/` for the invariants the substrate upholds.

#![warn(missing_docs)]

pub mod dataset;
pub mod delta;
pub mod distance;
pub mod error;
pub mod fault;
pub mod io;
pub mod kernel;
pub mod mapped;
pub mod ops;
pub mod projection;
pub mod shard;
pub mod stats;
pub mod tile;

#[cfg(target_endian = "little")]
pub use dataset::MappedSlice;
pub use dataset::{DataBacking, Dataset, DatasetBuilder, RowNorms, SharedSlice};
pub use delta::{DeltaSegment, TombstoneSet};
pub use distance::{
    cosine_to_euclidean, euclidean_to_cosine, AngularDistance, CosineDistance, DistanceMetric,
    DotProductSimilarity, EuclideanDistance, Metric, SquaredEuclideanDistance,
};
pub use error::VectorError;
pub use fault::{FaultMode, FaultPlan};
pub use kernel::{MetricKernel, PreparedQuery, RangeProbe};
pub use projection::GaussianRandomProjection;
pub use shard::ShardMap;

/// Alias kept for API clarity: every distance used in this workspace is an
/// object-safe implementation of [`DistanceMetric`].
pub use distance::DistanceMetric as Distance;
