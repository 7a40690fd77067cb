//! # laf
//!
//! Facade crate for the **LAF-DBSCAN** reproduction (Wang & Wang, *Learned
//! Accelerator Framework for Angular-Distance-Based High-Dimensional DBSCAN*,
//! EDBT 2023). Downstream users depend on this crate and get the whole stack:
//!
//! ```
//! use laf::prelude::*;
//!
//! // 1. Get (or generate) unit-normalized embeddings.
//! let (data, _) = EmbeddingMixtureConfig {
//!     n_points: 400,
//!     dim: 16,
//!     clusters: 6,
//!     ..Default::default()
//! }
//! .generate()
//! .unwrap();
//!
//! // 2. Train the learned cardinality estimator: a one-stage RMI (one
//! //    network); `RmiConfig::paper_stages` gives the paper's 1/2/4 layout.
//! let training = TrainingSetBuilder::default().build(&data, &data).unwrap();
//! let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
//!
//! // 3. Cluster with LAF-DBSCAN.
//! let laf = LafDbscan::new(LafConfig::new(0.3, 4, 1.0), estimator);
//! let clustering = laf.cluster(&data);
//! assert_eq!(clustering.len(), data.len());
//! ```
//!
//! The individual layers are re-exported as modules: [`vector`], [`synth`],
//! [`index`], [`cardest`], [`clustering`], [`core`], [`metrics`].
//!
//! For production serving, train once and persist the pipeline with
//! [`core::LafPipeline::save`], then restore it in any number of serving
//! processes with [`core::LafPipeline::load`] (or
//! [`core::LafPipeline::load_mmap`] for the zero-copy warm start) — no
//! retraining, bit-exact results. See the `train_serve` example.

#![warn(missing_docs)]

/// Dense vectors, distances, projection, dataset container ([`laf_vector`]).
pub mod vector {
    pub use laf_vector::*;
}

/// Synthetic workload generators ([`laf_synth`]).
pub mod synth {
    pub use laf_synth::*;
}

/// Range-query and KNN engines ([`laf_index`]).
pub mod index {
    pub use laf_index::*;
}

/// Learned cardinality estimation ([`laf_cardest`]).
pub mod cardest {
    pub use laf_cardest::*;
}

/// DBSCAN and the approximate baselines ([`laf_clustering`]).
pub mod clustering {
    pub use laf_clustering::*;
}

/// The LAF framework itself ([`laf_core`]).
pub mod core {
    pub use laf_core::*;
}

/// Clustering quality metrics ([`laf_metrics`]).
pub mod metrics {
    pub use laf_metrics::*;
}

/// Concurrent serving front: request coalescing, admission control,
/// snapshot hot-reload ([`laf_serve`]).
pub mod serve {
    pub use laf_serve::*;
}

/// The unified error type of the facade: every fallible layer folds into
/// one enum, so applications can hold a single error type across snapshot
/// I/O, the serving front and the tenant cache instead of juggling
/// `SnapshotError` / `ServeError` / `CacheError` per call site.
///
/// Marked `#[non_exhaustive]`: new layers add variants without a breaking
/// change, so matches need a wildcard arm. `From` conversions from each
/// layer error make `?` work directly in functions returning
/// `Result<_, laf::Error>`.
#[non_exhaustive]
#[derive(Debug)]
pub enum Error {
    /// Snapshot encoding, decoding or I/O failed ([`core::SnapshotError`]).
    Snapshot(core::SnapshotError),
    /// The serving front rejected a submission ([`serve::ServeError`]).
    Serve(serve::ServeError),
    /// The multi-tenant snapshot cache failed ([`serve::CacheError`]).
    Cache(serve::CacheError),
    /// A write reached a mutable pipeline but was rejected
    /// ([`serve::WriteError`]).
    Write(serve::WriteError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Serve(e) => write!(f, "serve error: {e}"),
            Error::Cache(e) => write!(f, "cache error: {e}"),
            Error::Write(e) => write!(f, "write error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Snapshot(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Cache(e) => Some(e),
            Error::Write(e) => Some(e),
        }
    }
}

impl From<core::SnapshotError> for Error {
    fn from(e: core::SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<serve::ServeError> for Error {
    fn from(e: serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<serve::CacheError> for Error {
    fn from(e: serve::CacheError) -> Self {
        Error::Cache(e)
    }
}

impl From<serve::WriteError> for Error {
    fn from(e: serve::WriteError) -> Self {
        Error::Write(e)
    }
}

/// One-stop import for applications.
///
/// Error handling: the prelude exports the unified [`crate::Error`]; import
/// the per-layer error types from their modules ([`crate::core`],
/// [`crate::serve`]) when a single layer is meant.
pub mod prelude {
    pub use crate::Error;
    pub use laf_cardest::{
        CardinalityEstimator, ConstantEstimator, ExactEstimator, HistogramEstimator, Mlp,
        NetConfig, RmiConfig, RmiEstimator, SamplingEstimator, TrainingSet, TrainingSetBuilder,
    };
    pub use laf_clustering::{
        BlockDbscan, BlockDbscanConfig, Clusterer, Clustering, Dbscan, DbscanConfig,
        DbscanPlusPlus, DbscanPlusPlusConfig, KnnBlockDbscan, KnnBlockDbscanConfig,
        RhoApproxDbscan, RhoApproxDbscanConfig,
    };
    pub use laf_core::{
        section_id, CardEstGate, GateDecision, LafConfig, LafDbscan, LafDbscanPlusPlus,
        LafDbscanPlusPlusConfig, LafPipeline, LafPipelineBuilder, LafStats, Manifest,
        MutablePipeline, PartialNeighborMap, PostProcessor, Prescan, SharedEngine, Snapshot,
        SnapshotShard, Wal, WalOp, WalRecord,
    };
    pub use laf_index::{
        build_engine, restore_engine, CoverTree, EngineChoice, KMeansTree, LinearScan, Neighbor,
        PersistedEngine, RangeQueryEngine, ShardedEngine, TopK, TotalDist,
    };
    pub use laf_metrics::{
        adjusted_mutual_information, adjusted_rand_index, normalized_mutual_information,
        ClusteringStats, ContingencyTable, MissedClusterReport,
    };
    pub use laf_serve::{
        CacheConfig, CacheStatsReport, LafServer, MaintenanceConfig, MaintenanceSupervisor,
        PinnedSnapshot, QueryRequest, QueryResponse, ReplicaSet, ServeConfig, ServeStats,
        ServeStatsReport, Served, SnapshotCache, SnapshotSource, TenantHealth, TenantServer,
        Ticket, WriteError,
    };
    pub use laf_synth::{
        BagOfWordsConfig, DatasetCatalog, DatasetSpec, EmbeddingMixtureConfig, SyntheticDataset,
    };
    pub use laf_vector::{
        cosine_to_euclidean, euclidean_to_cosine, Dataset, DeltaSegment, GaussianRandomProjection,
        Metric, ShardMap, TombstoneSet,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_whole_pipeline() {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 120,
            dim: 8,
            clusters: 3,
            seed: 2,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let truth = Dbscan::with_params(0.3, 3).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(0.3, 3, 1.0),
            ExactEstimator::new(&data, Metric::Cosine),
        );
        let result = laf.cluster(&data);
        assert_eq!(result.labels(), truth.labels());
        assert!((adjusted_rand_index(truth.labels(), result.labels()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn facade_snapshot_round_trip() {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 100,
            dim: 6,
            clusters: 3,
            seed: 8,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let pipeline = LafPipeline::builder(LafConfig::new(0.3, 3, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(50),
                ..Default::default()
            })
            .train(data)
            .unwrap();
        let dir = std::env::temp_dir().join("laf_facade_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("facade.lafs");
        pipeline.save(&path).unwrap();
        let warm = LafPipeline::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(pipeline.cluster().labels(), warm.cluster().labels());
    }
}
