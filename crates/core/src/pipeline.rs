//! Train-once / serve-many pipeline over the snapshot boundary.
//!
//! [`LafPipeline`] packages a [`LafConfig`], the indexed [`Dataset`] and a
//! trained one-stage [`RmiEstimator`] (a single network,
//! [`RmiConfig::one_stage`]) behind one handle with two ways in:
//!
//! * **Cold start** — [`LafPipelineBuilder::train`] builds the training set,
//!   fits the estimator and (optionally, via
//!   [`LafPipelineBuilder::train_and_save`]) persists a [`Snapshot`], paying
//!   the full offline training cost once;
//! * **Warm start** — [`LafPipeline::load`] restores a snapshot and is ready
//!   to serve immediately. With a format-v2 snapshot the **built** range-query
//!   engine (cover-tree and k-means tree nodes, IVF posting lists — see
//!   [`laf_index::persist`]) is restored directly, skipping the construction
//!   cost; a v1 snapshot (or one whose engine section was dropped) falls back
//!   to rebuilding from the restored [`laf_index::EngineChoice`].
//!
//! Because the snapshot stores the estimator's raw weight bits and the
//! restored engine structure answers queries identically to the one built at
//! training time, a warm pipeline is **bit-exact** with the process that
//! trained it: per-point estimates, gate decisions, cluster labels and
//! [`LafStats`] are byte-identical between the cold and warm paths.

use crate::config::{LafConfig, LafStats};
use crate::laf_dbscan::LafDbscan;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotShard};
use laf_cardest::{
    CardinalityEstimator, EstimatorCalibrator, NetConfig, QErrorReport, RmiConfig, RmiEstimator,
    TrainingSetBuilder,
};
use laf_clustering::Clustering;
use laf_index::{build_engine, restore_engine, PersistedEngine, RangeQueryEngine, ShardedEngine};
use laf_vector::{Dataset, ShardMap, VectorError};
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Number of calibration queries sampled when
/// [`LafPipelineBuilder::calibrate`] is enabled.
const CALIBRATION_QUERIES: usize = 256;

/// Builder for the **cold** (training) path of a [`LafPipeline`].
#[derive(Debug, Clone)]
pub struct LafPipelineBuilder {
    config: LafConfig,
    net: NetConfig,
    training: TrainingSetBuilder,
    calibrate: bool,
    shards: usize,
}

impl LafPipelineBuilder {
    /// Start a builder for the given clustering configuration. The training
    /// set is counted under the config's metric by default.
    pub fn new(config: LafConfig) -> Self {
        let training = TrainingSetBuilder {
            metric: config.metric,
            ..TrainingSetBuilder::default()
        };
        Self {
            config,
            net: NetConfig::small(),
            training,
            calibrate: false,
            shards: 1,
        }
    }

    /// Network architecture / optimizer hyper-parameters of the estimator's
    /// one network (default [`NetConfig::small`]).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Training-set construction parameters (threshold grid, query cap,
    /// seed). The builder's `metric` field is ignored:
    /// [`LafPipelineBuilder::train`] always counts cardinalities under the
    /// [`LafConfig`]'s metric, because an estimator trained under a different
    /// metric than the gate queries would be systematically wrong.
    pub fn training(mut self, training: TrainingSetBuilder) -> Self {
        self.training = training;
        self
    }

    /// Also compute a q-error calibration report over a sample of the
    /// training data and carry it in the pipeline (and its snapshots) as a
    /// serving-time diagnostic. Off by default: calibration runs exact range
    /// counts, which is measurable on large datasets.
    pub fn calibrate(mut self, on: bool) -> Self {
        self.calibrate = on;
        self
    }

    /// Split the dataset into `n` shards (default 1 — unsharded).
    ///
    /// With two or more shards the trained snapshot carries one dataset
    /// slice and, for persistable engine choices, one built engine structure
    /// *per shard* (snapshot format v4), and every warm start serves queries
    /// through a [`laf_index::ShardedEngine`] that fans out across the
    /// shards in parallel and merges the answers bit-identically to the
    /// unsharded path — labels, stats and knn orderings included. Shard
    /// counts larger than the dataset are clamped; `0` behaves like `1`.
    /// The estimator and its training are unaffected: cardinality estimates
    /// are a property of the whole dataset, not of its layout.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// **Cold start**: fit the estimator, a one-stage [`RmiEstimator`], on
    /// `data` and assemble the pipeline.
    ///
    /// # Errors
    /// Rejects a learning rate that cannot train ([`NetConfig::validate`])
    /// and propagates training-set construction failures (empty dataset,
    /// empty threshold grid), both as [`SnapshotError::Vector`].
    pub fn train(self, data: Dataset) -> Result<LafPipeline, SnapshotError> {
        self.net.validate()?;
        // The estimator must predict cardinalities under the metric the gate
        // will query with, whatever the supplied training builder says — a
        // `..Default::default()` override must not silently flip the metric
        // back to cosine under a euclidean config.
        let training_builder = TrainingSetBuilder {
            metric: self.config.metric,
            ..self.training
        };
        let training = training_builder.build(&data, &data)?;
        let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(self.net));
        let calibration = if self.calibrate {
            use rand::SeedableRng;
            // Distinct stream from the training-query sampler (which seeds
            // `StdRng` from the seed directly): calibrating on the exact
            // query set the network was fitted to would overstate serving
            // accuracy.
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(training_builder.seed ^ 0xCA11_B8A7_E5EE_D000);
            let (queries, _) = data.sample(CALIBRATION_QUERIES, &mut rng);
            Some(EstimatorCalibrator::new(&data, self.config.metric).q_error(
                &estimator,
                &queries,
                &training.thresholds,
            ))
        } else {
            None
        };
        // Persist the built engine structure(s) so warm starts (and this
        // pipeline's own clustering runs) skip the construction cost.
        let shard_map = if self.shards >= 2 {
            let map = ShardMap::even_split(data.len(), self.shards);
            // A dataset smaller than two rows degenerates to one shard;
            // treat that as unsharded rather than writing a trivial manifest.
            (map.n_shards() >= 2).then_some(map)
        } else {
            None
        };
        let build_persisted =
            |slice: &Dataset| build_engine(self.config.engine, slice, self.config.metric).persist();
        let (data, shards, engine) = match shard_map {
            Some(map) => {
                // Shard slices are zero-copy views into one shared
                // allocation, so sharding costs no extra dataset memory.
                let data = data.into_shared();
                let shards = (0..map.n_shards())
                    .map(|s| {
                        let slice = data.slice_rows(map.start(s), map.shard_len(s))?;
                        let engine = build_persisted(&slice);
                        Ok(SnapshotShard {
                            data: slice,
                            engine,
                        })
                    })
                    .collect::<Result<Vec<_>, VectorError>>()?;
                (data, shards, None)
            }
            None => {
                let engine = build_persisted(&data);
                (data, Vec::new(), engine)
            }
        };
        Ok(LafPipeline::from_snapshot(Snapshot {
            config: self.config,
            data,
            estimator,
            calibration,
            engine,
            shards,
        }))
    }

    /// Cold start plus persistence: train on `data`, save the snapshot to
    /// `path`, return the live pipeline.
    pub fn train_and_save<P: AsRef<Path>>(
        self,
        data: Dataset,
        path: P,
    ) -> Result<LafPipeline, SnapshotError> {
        let pipeline = self.train(data)?;
        pipeline.save(path)?;
        Ok(pipeline)
    }
}

/// A range-query engine shared across threads, co-owned with the snapshot
/// it indexes.
///
/// Engines borrow the [`Dataset`] they index, which would normally tie their
/// lifetime to a `&LafPipeline` borrow and force every serving call to
/// rebuild (or re-restore) the structure. `SharedEngine` instead co-owns the
/// pipeline's `Arc<Snapshot>` alongside the engine built over it, so the
/// handle is `'static`, [`Clone`] is a reference-count bump, and one built
/// engine can serve concurrent callers for as long as any handle lives —
/// exactly what the `laf_serve` dispatcher and repeated
/// [`LafPipeline::cluster_with_stats`] calls need.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<EngineHolder>,
}

/// Owns the engine together with the snapshot whose dataset it borrows.
///
/// Field order is load-bearing: struct fields drop in declaration order, so
/// `engine` (which holds pointers into `_snapshot`'s dataset) is destroyed
/// strictly before the snapshot it references.
struct EngineHolder {
    engine: Box<dyn RangeQueryEngine + 'static>,
    _snapshot: Arc<Snapshot>,
}

impl SharedEngine {
    /// Build (or restore) the engine for `snapshot`, co-owning the snapshot.
    fn new(snapshot: Arc<Snapshot>) -> Self {
        // SAFETY: `data` — and every shard's dataset below — lives inside
        // the `Arc<Snapshot>` heap allocation (the shard `Vec`'s buffer is
        // owned by it), whose addresses are stable for the allocation's
        // whole lifetime and whose contents are never mutated after
        // construction (`Snapshot` has no interior mutability in its
        // datasets). The holder below keeps that allocation alive for at
        // least as long as the engine, and the field order guarantees the
        // engine drops first, so the forged `'static` references are never
        // dangling while reachable.
        let data: &'static Dataset = unsafe { &*std::ptr::addr_of!(snapshot.data) };
        let engine: Box<dyn RangeQueryEngine + 'static> = 'build: {
            if !snapshot.shards.is_empty() {
                let cfg = &snapshot.config;
                let mut engines: Vec<Box<dyn RangeQueryEngine + 'static>> =
                    Vec::with_capacity(snapshot.shards.len());
                let mut lens: Vec<usize> = Vec::with_capacity(snapshot.shards.len());
                for shard in &snapshot.shards {
                    // SAFETY: see above — the shard lives in the Arc'd
                    // snapshot's shard buffer, which is never mutated.
                    let shard_data: &'static Dataset = unsafe { &*std::ptr::addr_of!(shard.data) };
                    let shard_engine = 'shard: {
                        if let Some(persisted) = &shard.engine {
                            if let Ok(engine) = restore_engine(persisted, shard_data) {
                                break 'shard engine;
                            }
                        }
                        build_engine(cfg.engine, shard_data, cfg.metric)
                    };
                    lens.push(shard_data.len());
                    engines.push(shard_engine);
                }
                // An inconsistent hand-assembled shard layout (`Snapshot`
                // has public fields) degrades to one engine over the full
                // dataset rather than panicking mid-serve.
                if let Ok(map) = ShardMap::from_lens(&lens) {
                    if map.total_rows() == data.len() {
                        if let Ok(sharded) = ShardedEngine::new(engines, map) {
                            break 'build Box::new(sharded);
                        }
                    }
                }
            }
            if let Some(persisted) = &snapshot.engine {
                // restore_engine re-validates the structure even though
                // snapshot decoding already did: `Snapshot` has public fields
                // and `from_snapshot` accepts hand-assembled values, so this
                // path cannot assume a decode-validated structure. An
                // inconsistent in-process assembly degrades to the rebuild
                // path rather than panicking mid-serve.
                if let Ok(engine) = restore_engine(persisted, data) {
                    break 'build engine;
                }
            }
            let cfg = &snapshot.config;
            build_engine(cfg.engine, data, cfg.metric)
        };
        Self {
            inner: Arc::new(EngineHolder {
                engine,
                _snapshot: snapshot,
            }),
        }
    }

    /// The engine itself. [`Deref`] makes this implicit at call sites; the
    /// explicit form is handy when a `&dyn RangeQueryEngine` is needed.
    pub fn get(&self) -> &dyn RangeQueryEngine {
        self.inner.engine.as_ref()
    }

    /// Whether two handles share one underlying engine build.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl Deref for SharedEngine {
    type Target = dyn RangeQueryEngine;

    fn deref(&self) -> &Self::Target {
        self.inner.engine.as_ref()
    }
}

impl fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedEngine")
            .field("num_points", &self.get().num_points())
            .finish_non_exhaustive()
    }
}

/// A trained, servable LAF clustering pipeline (see the
/// [module documentation](self)).
///
/// The snapshot is held behind an [`Arc`] and the built engine is cached in
/// a [`OnceLock`], so the pipeline is cheaply shareable: wrap it in an
/// `Arc<LafPipeline>`, fan it out to any number of threads, and every
/// serving call after the first reuses one engine build.
#[derive(Debug)]
pub struct LafPipeline {
    snapshot: Arc<Snapshot>,
    engine_cache: OnceLock<SharedEngine>,
}

impl LafPipeline {
    /// Builder for the cold (training) path.
    pub fn builder(config: LafConfig) -> LafPipelineBuilder {
        LafPipelineBuilder::new(config)
    }

    /// Assemble a pipeline from already-constructed parts (e.g. an estimator
    /// trained under a custom regime). No engine structure is persisted;
    /// [`LafPipeline::engine`] rebuilds from the config until the pipeline is
    /// saved and reloaded through the cold path. Only a one-stage estimator
    /// can be saved: [`Snapshot::encode`] refuses a multi-stage RMI.
    pub fn from_parts(config: LafConfig, data: Dataset, estimator: RmiEstimator) -> Self {
        Self::from_snapshot(Snapshot {
            config,
            data,
            estimator,
            calibration: None,
            engine: None,
            shards: Vec::new(),
        })
    }

    /// Wrap a decoded [`Snapshot`].
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        Self {
            snapshot: Arc::new(snapshot),
            engine_cache: OnceLock::new(),
        }
    }

    /// **Warm start**: restore a pipeline from a snapshot file and be ready
    /// to serve without retraining. The dataset is copied into an owned
    /// buffer; see [`LafPipeline::load_mmap`] for the zero-copy variant.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Ok(Self::from_snapshot(Snapshot::load(path)?))
    }

    /// **Zero-copy warm start**: memory-map the snapshot and serve the
    /// dataset in place.
    ///
    /// Identical results to [`LafPipeline::load`] — every checksum is still
    /// verified once against the mapping — but for a format-v3 snapshot the
    /// dataset section is *not* copied into a fresh `Vec<f32>`: the pipeline
    /// borrows it from the kernel mapping ([`laf_vector::mapped`]), so warm
    /// start pays O(index-restore) instead of O(dataset) allocation+copy
    /// work, needs only read access to the file, and every serving process
    /// mapping the same snapshot shares one set of page-cache pages. Older
    /// snapshot versions (and misaligned hand-built files or big-endian
    /// hosts) transparently fall back to the copying path.
    pub fn load_mmap<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Ok(Self::from_snapshot(Snapshot::open_mmap(path)?))
    }

    /// Warm start that *degrades* instead of failing on corruption in a
    /// derived snapshot section: a corrupt engine section is rebuilt from
    /// the dataset (answers byte-identical to a clean load), a corrupt
    /// estimator serves gate-off exact-only, a corrupt calibration summary
    /// is dropped. The [`crate::DegradedLoad`] report lists every
    /// substitution; structural corruption (config, dataset, shard layout)
    /// still fails. See [`crate::snapshot::Snapshot::decode_degraded`].
    pub fn load_degraded<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, crate::DegradedLoad), SnapshotError> {
        let (snapshot, report) = Snapshot::load_degraded(path)?;
        Ok((Self::from_snapshot(snapshot), report))
    }

    /// Zero-copy twin of [`LafPipeline::load_degraded`].
    pub fn load_mmap_degraded<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, crate::DegradedLoad), SnapshotError> {
        let (snapshot, report) = Snapshot::open_mmap_degraded(path)?;
        Ok((Self::from_snapshot(snapshot), report))
    }

    /// Restore a pipeline from in-memory snapshot bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::from_snapshot(Snapshot::decode(bytes)?))
    }

    /// Persist the pipeline as a versioned binary snapshot.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        self.snapshot.save(path)
    }

    /// Encode the pipeline into in-memory snapshot bytes.
    pub fn to_snapshot_bytes(&self) -> Result<bytes::Bytes, SnapshotError> {
        self.snapshot.encode()
    }

    /// Consume the pipeline, releasing its snapshot parts.
    ///
    /// Cheap (a move) unless a [`SharedEngine`] handle from
    /// [`LafPipeline::engine`] is still alive elsewhere, in which case the
    /// snapshot is still co-owned and must be cloned out.
    pub fn into_snapshot(self) -> Snapshot {
        // Dropping the cache first releases the engine's co-ownership, which
        // is what makes the `try_unwrap` fast path the common case.
        drop(self.engine_cache);
        Arc::try_unwrap(self.snapshot).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The pipeline's snapshot, shared. Clones are reference-count bumps;
    /// the serving layer uses this to keep old epochs alive while they
    /// drain.
    pub fn snapshot_arc(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The clustering configuration (including the engine choice).
    pub fn config(&self) -> &LafConfig {
        &self.snapshot.config
    }

    /// The indexed dataset.
    pub fn data(&self) -> &Dataset {
        &self.snapshot.data
    }

    /// The trained estimator.
    pub fn estimator(&self) -> &RmiEstimator {
        &self.snapshot.estimator
    }

    /// Calibration summary captured at training time, if any.
    pub fn calibration(&self) -> Option<&QErrorReport> {
        self.snapshot.calibration.as_ref()
    }

    /// The persisted engine structure carried by this pipeline's snapshot,
    /// if any (`None` for v1 snapshots, non-persistable engines, and
    /// [`LafPipeline::from_parts`] pipelines).
    pub fn persisted_engine(&self) -> Option<&PersistedEngine> {
        self.snapshot.engine.as_ref()
    }

    /// The range-query engine over the restored dataset. When the snapshot
    /// carries a [persisted structure](LafPipeline::persisted_engine) it is
    /// restored directly — no tree construction, k-means clustering or IVF
    /// training — otherwise the engine is rebuilt from the restored
    /// configuration (the v1 fallback path).
    ///
    /// The build happens **once per pipeline**: the engine is cached and
    /// every subsequent call (from any thread) returns a handle to the same
    /// underlying structure. The handle co-owns the snapshot, so it may
    /// outlive the pipeline — the serving layer relies on this to drain
    /// in-flight batches on an old epoch after a hot-reload swap.
    pub fn engine(&self) -> SharedEngine {
        self.engine_cache
            .get_or_init(|| SharedEngine::new(Arc::clone(&self.snapshot)))
            .clone()
    }

    /// Predicted cardinality of `query` at radius `eps` (serving-plane entry
    /// point for callers that gate their own queries).
    pub fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.snapshot.estimator.estimate(query, eps)
    }

    /// Batched [`LafPipeline::estimate`], bit-exact with the per-query form.
    pub fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        self.snapshot.estimator.estimate_batch(queries, eps)
    }

    /// Run LAF-DBSCAN over the pipeline's dataset.
    pub fn cluster(&self) -> Clustering {
        self.cluster_with_stats().0
    }

    /// Run LAF-DBSCAN over the pipeline's dataset, returning the LAF
    /// bookkeeping counters alongside the clustering. Range queries go
    /// through [`LafPipeline::engine`], so a pipeline restored from a v2
    /// snapshot serves its first clustering without rebuilding the engine.
    pub fn cluster_with_stats(&self) -> (Clustering, LafStats) {
        let engine = self.engine();
        LafDbscan::new(self.snapshot.config.clone(), &self.snapshot.estimator)
            .cluster_with_stats_using(&self.snapshot.data, engine.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_index::EngineChoice;
    use laf_synth::EmbeddingMixtureConfig;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 220,
            dim: 10,
            clusters: 4,
            noise_fraction: 0.2,
            seed: 41,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn builder() -> LafPipelineBuilder {
        LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(100),
                ..Default::default()
            })
    }

    #[test]
    fn warm_pipeline_is_bit_exact_with_the_cold_one() {
        let dir = std::env::temp_dir().join("laf_core_pipeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.lafs");

        let cold = builder().train_and_save(data(), &path).unwrap();
        let warm = LafPipeline::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(warm.config(), cold.config());
        assert_eq!(warm.data(), cold.data());

        let (cold_clustering, cold_stats) = cold.cluster_with_stats();
        let (warm_clustering, warm_stats) = warm.cluster_with_stats();
        assert_eq!(cold_clustering.labels(), warm_clustering.labels());
        assert_eq!(cold_stats, warm_stats);

        let rows: Vec<&[f32]> = cold.data().rows().collect();
        let cold_estimates = cold.estimate_batch(&rows, cold.config().eps);
        let warm_estimates = warm.estimate_batch(&rows, warm.config().eps);
        for (i, (a, b)) in cold_estimates.iter().zip(&warm_estimates).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "estimate {i} differs");
        }
    }

    #[test]
    fn corrupt_engine_section_loads_degraded_with_identical_labels() {
        // The acceptance bar for degraded loads: flipping a bit inside the
        // persisted engine section must not fail the warm start — the
        // engine is rebuilt from the (intact) dataset, and every cluster
        // label is byte-identical to a clean load's.
        let dir = std::env::temp_dir().join("laf_core_pipeline_degraded_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("degraded_{}.lafs", std::process::id()));

        let mut config = LafConfig::new(0.3, 4, 1.0);
        config.engine = EngineChoice::CoverTree { basis: 2.0 };
        let cold = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(100),
                ..Default::default()
            })
            .train_and_save(data(), &path)
            .unwrap();
        assert!(cold.persisted_engine().is_some(), "cover trees persist");

        // Flip one bit in the middle of the engine section's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header_len = 12 + count * 24;
        let mut flipped = false;
        for entry in 0..count {
            let at = 12 + entry * 24;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if id != crate::snapshot::section_id::ENGINE {
                continue;
            }
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            bytes[header_len + offset + len / 2] ^= 0x01;
            flipped = true;
        }
        assert!(flipped, "engine section present in the file");
        std::fs::write(&path, &bytes).unwrap();

        assert!(LafPipeline::load(&path).is_err(), "strict load must reject");
        for degraded_load in [LafPipeline::load_degraded, LafPipeline::load_mmap_degraded] {
            let (warm, report) = degraded_load(&path).unwrap();
            assert_eq!(report.sections, vec![crate::DegradedSection::Engine]);
            assert!(warm.persisted_engine().is_none());
            let (cold_clustering, _) = cold.cluster_with_stats();
            let (warm_clustering, _) = warm.cluster_with_stats();
            assert_eq!(
                cold_clustering.labels(),
                warm_clustering.labels(),
                "degraded rebuild must produce byte-identical labels"
            );
            for i in (0..cold.data().len()).step_by(23) {
                assert_eq!(
                    cold.engine().get().range(cold.data().row(i), 0.3),
                    warm.engine().get().range(warm.data().row(i), 0.3),
                    "row {i} range answers"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_warm_start_is_zero_copy_and_bit_exact() {
        let dir = std::env::temp_dir().join("laf_core_pipeline_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mmap_{}.lafs", std::process::id()));

        let config = LafConfig {
            engine: EngineChoice::KMeansTree {
                branching: 4,
                leaf_ratio: 0.6,
            },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let cold = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train_and_save(data(), &path)
            .unwrap();

        let warm = LafPipeline::load_mmap(&path).unwrap();
        assert!(
            cfg!(target_endian = "big") || warm.data().is_mapped(),
            "v3 snapshot must serve the dataset from the mapping"
        );
        assert!(
            warm.persisted_engine().is_some(),
            "mapped load must still restore the persisted engine"
        );
        assert_eq!(warm.data(), cold.data());

        let (cold_clustering, cold_stats) = cold.cluster_with_stats();
        let (warm_clustering, warm_stats) = warm.cluster_with_stats();
        assert_eq!(cold_clustering.labels(), warm_clustering.labels());
        assert_eq!(cold_stats, warm_stats);

        // The mapped pipeline needs only read access; dropping it unmaps.
        drop(warm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_bytes_round_trip_in_memory() {
        let cold = builder().train(data()).unwrap();
        let bytes = cold.to_snapshot_bytes().unwrap();
        let warm = LafPipeline::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(
            cold.cluster().labels(),
            warm.cluster().labels(),
            "in-memory snapshot must preserve labels"
        );
    }

    #[test]
    fn calibration_is_captured_and_persisted_when_requested() {
        let cold = builder().calibrate(true).train(data()).unwrap();
        let report = cold.calibration().expect("calibration requested");
        assert!(report.evaluated > 0);
        assert!(report.mean >= 1.0);
        let bytes = cold.to_snapshot_bytes().unwrap();
        let warm = LafPipeline::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(warm.calibration(), cold.calibration());
    }

    #[test]
    fn warm_pipeline_restores_the_persisted_engine_for_every_choice() {
        // The v2 acceptance bar: for each persistable engine the warm
        // pipeline restores the *built* structure (no rebuild) and its first
        // clustering is byte-identical to the training process.
        for choice in [
            EngineChoice::CoverTree { basis: 2.0 },
            EngineChoice::KMeansTree {
                branching: 4,
                leaf_ratio: 0.6,
            },
            EngineChoice::Ivf {
                nlist: 6,
                nprobe: 2,
            },
        ] {
            let config = LafConfig {
                engine: choice,
                ..LafConfig::new(0.3, 4, 1.0)
            };
            let cold = LafPipeline::builder(config)
                .net(NetConfig::tiny())
                .training(TrainingSetBuilder {
                    max_queries: Some(60),
                    ..Default::default()
                })
                .train(data())
                .unwrap();
            assert!(
                cold.persisted_engine().is_some(),
                "{choice:?}: cold path must persist the built engine"
            );
            let warm =
                LafPipeline::from_snapshot_bytes(&cold.to_snapshot_bytes().unwrap()).unwrap();
            let persisted = warm
                .persisted_engine()
                .unwrap_or_else(|| panic!("{choice:?}: engine must survive the snapshot"));
            assert!(persisted.matches_choice(&choice), "{choice:?}");

            let (cold_clustering, cold_stats) = cold.cluster_with_stats();
            let (warm_clustering, warm_stats) = warm.cluster_with_stats();
            assert_eq!(
                cold_clustering.labels(),
                warm_clustering.labels(),
                "{choice:?}: labels must be byte-identical"
            );
            assert_eq!(cold_stats, warm_stats, "{choice:?}");
        }
    }

    #[test]
    fn cover_tree_pipelines_persist_their_arena() {
        let config = LafConfig {
            engine: EngineChoice::CoverTree { basis: 2.0 },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let cold = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data())
            .unwrap();
        // The arena-flattening persist path covers every engine kind now;
        // warm starts restore the cover tree instead of rebuilding it.
        assert!(cold.persisted_engine().is_some());
        let warm = LafPipeline::from_snapshot_bytes(&cold.to_snapshot_bytes().unwrap()).unwrap();
        assert!(warm.persisted_engine().is_some());
        assert_eq!(warm.engine().num_points(), warm.data().len());
        assert_eq!(
            cold.cluster().labels(),
            warm.cluster().labels(),
            "restored arena must stay bit-exact"
        );
    }

    #[test]
    fn engine_is_rebuilt_from_the_restored_choice() {
        let config = LafConfig {
            engine: EngineChoice::CoverTree { basis: 2.0 },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let cold = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data())
            .unwrap();
        let warm = LafPipeline::from_snapshot_bytes(&cold.to_snapshot_bytes().unwrap()).unwrap();
        assert_eq!(
            warm.config().engine,
            EngineChoice::CoverTree { basis: 2.0 },
            "engine choice must survive the snapshot"
        );
        let engine = warm.engine();
        assert_eq!(engine.num_points(), warm.data().len());
        let hits = engine.range(warm.data().row(0), 0.3);
        assert!(hits.contains(&0));
    }

    #[test]
    fn training_builder_override_cannot_flip_the_metric() {
        // The idiomatic `..Default::default()` override resets the builder's
        // metric field to cosine; the pipeline must still train under the
        // config's metric, or gate decisions would be systematically wrong.
        let config = LafConfig {
            metric: laf_vector::Metric::Euclidean,
            eps: 0.6,
            ..LafConfig::new(0.6, 4, 1.0)
        };
        let euclidean = LafPipeline::builder(config.clone())
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default() // metric: Cosine — must be overridden
            })
            .train(data())
            .unwrap();
        // Train a cosine pipeline from the identical builder inputs: if the
        // metric override worked, the learned weights must differ.
        let cosine = LafPipeline::builder(LafConfig::new(0.6, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data())
            .unwrap();
        let q = data();
        let q = q.row(0);
        assert_ne!(
            euclidean.estimate(q, 0.6).to_bits(),
            cosine.estimate(q, 0.6).to_bits(),
            "estimator must have been trained under the config's metric"
        );
    }

    #[test]
    fn calibration_queries_use_a_distinct_stream_from_training() {
        // Calibrating on the exact query sample the network was fitted to
        // would overstate accuracy. The calibration sampler must not replay
        // the training sampler's permutation.
        use rand::SeedableRng;
        let seed = TrainingSetBuilder::default().seed;
        let d = data();
        let mut train_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (_, train_idx) = d.sample(super::CALIBRATION_QUERIES, &mut train_rng);
        let mut calib_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCA11_B8A7_E5EE_D000);
        let (_, calib_idx) = d.sample(super::CALIBRATION_QUERIES, &mut calib_rng);
        assert_ne!(
            train_idx, calib_idx,
            "calibration must not replay the training sample order"
        );
    }

    #[test]
    fn engine_is_built_once_and_shared_across_calls() {
        let config = LafConfig {
            engine: EngineChoice::CoverTree { basis: 2.0 },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let pipeline = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data())
            .unwrap();
        let first = pipeline.engine();
        let second = pipeline.engine();
        assert!(
            SharedEngine::ptr_eq(&first, &second),
            "repeated engine() calls must observe the same cached build"
        );
        // The cache must not change what the pipeline computes: labels from
        // repeated runs (all through the cached engine) stay byte-identical.
        let (a, stats_a) = pipeline.cluster_with_stats();
        let (b, stats_b) = pipeline.cluster_with_stats();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn shared_engine_outlives_its_pipeline() {
        let pipeline = builder().train(data()).unwrap();
        let n = pipeline.data().len();
        let q: Vec<f32> = pipeline.data().row(0).to_vec();
        let engine = pipeline.engine();
        drop(pipeline);
        // The handle co-owns the snapshot; queries still serve.
        assert_eq!(engine.num_points(), n);
        assert!(engine.range(&q, 0.3).contains(&0));
    }

    #[test]
    fn into_snapshot_survives_live_engine_handles() {
        let pipeline = builder().train(data()).unwrap();
        let engine = pipeline.engine();
        let labels_before = pipeline.cluster().labels().to_vec();
        // A live handle forces the clone fallback; the round-tripped
        // snapshot must still be fully usable and bit-exact.
        let snapshot = pipeline.into_snapshot();
        assert_eq!(engine.num_points(), snapshot.data.len());
        let revived = LafPipeline::from_snapshot(snapshot);
        assert_eq!(revived.cluster().labels(), labels_before.as_slice());
    }

    #[test]
    fn sharded_pipelines_cluster_bit_identically_to_unsharded() {
        // The tentpole guarantee at the pipeline level: same training
        // inputs, different shard counts, byte-identical outputs.
        let config = LafConfig {
            engine: EngineChoice::CoverTree { basis: 2.0 },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let mk = |shards: usize| {
            LafPipeline::builder(config.clone())
                .net(NetConfig::tiny())
                .training(TrainingSetBuilder {
                    max_queries: Some(60),
                    ..Default::default()
                })
                .shards(shards)
                .train(data())
                .unwrap()
        };
        let unsharded = mk(1);
        let (base_clustering, base_stats) = unsharded.cluster_with_stats();
        for n in [2usize, 3, 7] {
            let sharded = mk(n);
            assert_eq!(sharded.snapshot_arc().shards.len(), n, "{n} shards");
            assert!(sharded.persisted_engine().is_none());
            let (clustering, stats) = sharded.cluster_with_stats();
            assert_eq!(
                clustering.labels(),
                base_clustering.labels(),
                "{n} shards: labels must be byte-identical"
            );
            assert_eq!(stats, base_stats, "{n} shards");
        }
    }

    #[test]
    fn sharded_warm_start_restores_per_shard_engines_via_mmap() {
        let dir = std::env::temp_dir().join("laf_core_pipeline_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sharded_{}.lafs", std::process::id()));
        let config = LafConfig {
            engine: EngineChoice::Ivf {
                nlist: 4,
                nprobe: 4,
            },
            ..LafConfig::new(0.3, 4, 1.0)
        };
        let cold = LafPipeline::builder(config)
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .shards(3)
            .train_and_save(data(), &path)
            .unwrap();
        let warm = LafPipeline::load_mmap(&path).unwrap();
        let snap = warm.snapshot_arc();
        assert_eq!(snap.shards.len(), 3);
        for (i, shard) in snap.shards.iter().enumerate() {
            assert!(
                cfg!(target_endian = "big") || shard.data.is_mapped(),
                "shard {i} must be served from the mapping"
            );
            assert!(
                shard.engine.is_some(),
                "shard {i} must carry its persisted engine"
            );
        }
        let (cold_clustering, cold_stats) = cold.cluster_with_stats();
        let (warm_clustering, warm_stats) = warm.cluster_with_stats();
        assert_eq!(cold_clustering.labels(), warm_clustering.labels());
        assert_eq!(cold_stats, warm_stats);
        drop(warm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_counts_larger_than_the_dataset_are_clamped() {
        let pipeline = builder().shards(10_000).train(data()).unwrap();
        let snap = pipeline.snapshot_arc();
        assert_eq!(snap.shards.len(), snap.data.len(), "one row per shard");
        assert_eq!(
            snap.shards.iter().map(|s| s.data.len()).sum::<usize>(),
            snap.data.len()
        );
        assert_eq!(pipeline.engine().num_points(), snap.data.len());
    }

    #[test]
    fn pipeline_and_engine_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LafPipeline>();
        assert_send_sync::<SharedEngine>();
        assert_send_sync::<std::sync::Arc<LafPipeline>>();
    }

    #[test]
    fn training_on_an_empty_dataset_fails_cleanly() {
        let empty = Dataset::new(8).unwrap();
        let err = builder().train(empty).unwrap_err();
        assert!(matches!(err, SnapshotError::Vector(_)));
    }

    #[test]
    fn bad_training_parameters_fail_cleanly() {
        // No training query would panic the trainer on an empty set; a
        // non-finite threshold or learning rate would train a network that
        // predicts NaN, and a zero or negative learning rate never descends.
        let no_queries = TrainingSetBuilder {
            max_queries: Some(0),
            ..TrainingSetBuilder::default()
        };
        let mut bad = vec![builder().training(no_queries)];
        for eps in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            bad.push(builder().training(TrainingSetBuilder {
                thresholds: vec![0.1, 0.2, eps, 0.4],
                ..TrainingSetBuilder::default()
            }));
        }
        for learning_rate in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1e-3] {
            bad.push(builder().net(NetConfig {
                learning_rate,
                ..NetConfig::tiny()
            }));
        }
        for builder in bad {
            let err = builder.clone().train(data());
            assert!(
                matches!(
                    err,
                    Err(SnapshotError::Vector(VectorError::InvalidParameter(_)))
                ),
                "{builder:?}"
            );
        }
    }
}
