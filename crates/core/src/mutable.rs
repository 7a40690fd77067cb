//! The mutable serving plane: WAL-backed insert/delete over a frozen base.
//!
//! [`crate::LafPipeline`] is train-once/serve-frozen. [`MutablePipeline`]
//! layers mutability on top without giving up bit-exact reads, LSM-style:
//!
//! * the **base** — an immutable v4 snapshot (served via mmap) with its
//!   built range-query engine;
//! * a **delta segment** ([`laf_vector::DeltaSegment`]) of rows inserted
//!   since the base was built, scanned linearly alongside the base engine;
//! * a **tombstone bitmap** ([`laf_vector::TombstoneSet`]) masking deleted
//!   rows (base or delta) out of every answer;
//! * a **write-ahead log** ([`crate::wal`]) that records every mutation
//!   before it is applied, so reopening after a crash loses nothing;
//! * **compaction** ([`MutablePipeline::compact`]), which folds delta and
//!   tombstones into a fresh base snapshot and truncates the log.
//!
//! # Directory layout
//!
//! A mutable pipeline lives in a directory:
//!
//! ```text
//! dir/MANIFEST        JSON: current base file, base LSN, generation
//! dir/base-<g>.lafs   the generation-<g> base snapshot (format v4)
//! dir/wal.log         the write-ahead log (mutations past the base LSN)
//! ```
//!
//! The `MANIFEST` is the recovery authority and is replaced atomically
//! (write-temp + rename). Compaction orders its steps so every crash
//! window recovers exactly: write the new base, flip the manifest (its
//! `base_lsn` records which WAL prefix the base already folds in), then
//! truncate the log. Each step is made durable before the next runs — the
//! base file and manifest are fsynced, and the directory is fsynced after
//! each creation/rename — so the ordering holds across power loss, not just
//! process crashes. A crash before the flip replays the full log over the
//! old base; a crash after the flip but before the truncate skips the
//! already-folded prefix by LSN. Nothing is lost or applied twice.
//!
//! # Dense live ids and bit-exact reads
//!
//! All query answers and all delete targets use **dense live ids**: the
//! surviving rows numbered `0..len` in physical order (base rows first,
//! then delta rows). These are exactly the row ids of a from-scratch
//! pipeline built over the surviving rows, so for the exact engine
//! configurations `range` / `range_count` answers are **bit-identical** to
//! that from-scratch pipeline — before and after compaction — and `knn`
//! matches wherever the engine computes per-point distances the way a
//! linear scan does (everything except the cover tree's internal-Euclidean
//! reporting). The merge uses the same idioms as the sharded engine:
//! ascending-id concatenation for `range`, summation for counts, and a
//! NaN-safe [`laf_index::TopK`] merge for `knn`.

use crate::config::LafConfig;
use crate::pipeline::LafPipeline;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::wal::{Wal, WalOp, WalRecord};
use laf_index::{build_engine, LinearScan, Neighbor, RangeQueryEngine, TopK};
use laf_vector::fault;
use laf_vector::{Dataset, DeltaSegment, TombstoneSet};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the manifest file inside a mutable pipeline directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the write-ahead log file inside a mutable pipeline directory.
pub const WAL_FILE: &str = "wal.log";

/// fsync a directory so the creations/renames inside it are durable — a
/// file's own fsync does not cover its directory entry, and the compaction
/// crash ordering (base before manifest before truncate) only holds if each
/// step's entry reaches disk before the next step runs.
fn sync_dir(dir: &Path) -> Result<(), SnapshotError> {
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// The recovery authority of a mutable pipeline directory: which base
/// snapshot is current and which WAL prefix it already folds in.
///
/// Serialized as JSON and replaced atomically (write-temp + rename), so a
/// reader always sees either the old or the new manifest, never a torn one.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Manifest {
    /// File name (relative to the directory) of the current base snapshot.
    pub base: String,
    /// Every WAL record with `lsn <= base_lsn` is already folded into the
    /// base; replay applies only records past it.
    pub base_lsn: u64,
    /// Compaction generation, used to name the next base file.
    pub generation: u64,
}

impl Manifest {
    fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    fn read(dir: &Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(Self::path(dir))?;
        Ok(serde_json::from_str(&text)?)
    }

    /// Write atomically and durably: serialize to `MANIFEST.tmp`, fsync,
    /// rename over the live file, fsync the directory (without which a
    /// power loss could undo the rename even though the caller moved on to
    /// truncating the WAL).
    fn write(&self, dir: &Path) -> Result<(), SnapshotError> {
        let tmp = dir.join("MANIFEST.tmp");
        let json = serde_json::to_string_pretty(self)?;
        {
            let mut file = std::fs::File::create(&tmp)?;
            use std::io::Write;
            file.write_all(json.as_bytes())?;
            file.sync_data()?;
        }
        // Failpoint `manifest.rename`: crash after the temp manifest is
        // durable but before the atomic flip — the recovery authority still
        // points at the old base, so replay must cover the full log.
        if fault::fire("manifest.rename") {
            return Err(fault::injected("manifest.rename").into());
        }
        std::fs::rename(&tmp, Self::path(dir))?;
        sync_dir(dir)?;
        Ok(())
    }
}

/// A built engine over a point-in-time copy of the delta rows, cached by
/// [`MutablePipeline`] so repeated `knn` calls don't pay the engine build
/// (k-means tree, IVF training, …) per query.
///
/// Engines borrow the [`Dataset`] they index, so the holder owns a stable
/// copy of the delta's dataset alongside the engine — the same co-ownership
/// idiom as the pipeline-level `SharedEngine`. Field order is load-bearing:
/// `engine` holds pointers into `data`'s allocation and must drop first.
struct DeltaEngine {
    engine: Box<dyn RangeQueryEngine + 'static>,
    _data: Box<Dataset>,
}

impl DeltaEngine {
    fn build(delta: &DeltaSegment, config: &LafConfig) -> Self {
        // Snapshot the delta rows: the copy is immutable for the holder's
        // whole lifetime, unlike the live segment a later insert may grow
        // (and reallocate) under the cache.
        let data = Box::new(delta.dataset().clone());
        // SAFETY: `data` is boxed, so the `Dataset` the engine borrows has a
        // stable address for the holder's whole lifetime (moving the holder
        // moves the box pointer, not the pointee), its heap buffers are
        // owned by it, and nothing mutates it after this point. The field
        // order above drops the engine strictly before the dataset, so the
        // forged `'static` references are never dangling.
        let data_ref: &'static Dataset = unsafe { &*std::ptr::from_ref::<Dataset>(data.as_ref()) };
        let engine = build_engine(config.engine, data_ref, config.metric);
        Self {
            engine,
            _data: data,
        }
    }
}

impl std::fmt::Debug for DeltaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaEngine")
            .field("num_points", &self.engine.num_points())
            .finish_non_exhaustive()
    }
}

/// A serving pipeline that accepts inserts and deletes (see the
/// [module docs](self) for the design).
///
/// Reads take `&self`; mutations take `&mut self`. The struct is `Send`, so
/// a serving front can own it from a single dispatcher thread (the
/// `laf_serve` write routing does exactly that).
#[derive(Debug)]
pub struct MutablePipeline {
    dir: PathBuf,
    base: Arc<LafPipeline>,
    generation: u64,
    wal: Wal,
    delta: DeltaSegment,
    /// Covers the whole physical space: base rows `0..base_len`, then delta
    /// rows `base_len..base_len + delta.len()`.
    tombstones: TombstoneSet,
    /// LSN of the last applied mutation (0 when none since the base).
    last_lsn: u64,
    /// Lazily built knn engine over the current delta rows; reset whenever
    /// the delta changes (insert, compaction). Deletes only touch the
    /// tombstone bitmap — which is applied outside the engine — so they
    /// leave the cache valid.
    delta_engine: OnceCell<DeltaEngine>,
}

impl MutablePipeline {
    /// Initialize `dir` as a mutable pipeline directory with `pipeline` as
    /// its generation-0 base, then open it.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] when `dir` already holds a manifest (it is
    /// already initialized — use [`MutablePipeline::open`]) or on I/O and
    /// encoding failures.
    pub fn create<P: AsRef<Path>>(dir: P, pipeline: &LafPipeline) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if Manifest::path(dir).exists() {
            return Err(SnapshotError::Malformed(format!(
                "{} is already a mutable pipeline directory",
                dir.display()
            )));
        }
        let base_name = "base-0.lafs".to_string();
        pipeline.save(dir.join(&base_name))?;
        // A stale log from an aborted earlier initialization must not be
        // replayed over the fresh base.
        std::fs::remove_file(dir.join(WAL_FILE)).ok();
        // The base's directory entry must be durable before the manifest
        // points at it.
        sync_dir(dir)?;
        Manifest {
            base: base_name,
            base_lsn: 0,
            generation: 0,
        }
        .write(dir)?;
        Self::open(dir)
    }

    /// Open a mutable pipeline directory: read the manifest, mmap the base
    /// snapshot, replay the WAL tail (records past the manifest's
    /// `base_lsn`) into a fresh delta segment and tombstone set. A torn WAL
    /// tail is truncated away by [`Wal::open`]; every acknowledged write
    /// before it is recovered.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on a missing/corrupt manifest or base
    /// snapshot, WAL header damage, or replayed records inconsistent with
    /// the base (wrong row dimensionality, delete target out of range).
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Manifest::read(&dir)?;
        let base = LafPipeline::load_mmap(dir.join(&manifest.base))?;
        let (mut wal, records) = Wal::open(dir.join(WAL_FILE))?;
        // A log truncated by a compaction reopens empty with its sequence
        // reset to 1, but the manifest still says LSNs <= base_lsn are
        // folded into the base. Resume numbering past that point, or new
        // writes would commit at already-folded LSNs and the next replay
        // would skip them (and a later compaction would regress base_lsn).
        wal.set_lsn_floor(manifest.base_lsn);
        let base_len = base.data().len();
        let dim = base.data().dim();
        let mut this = Self {
            dir,
            base: Arc::new(base),
            generation: manifest.generation,
            wal,
            delta: DeltaSegment::new(dim).map_err(SnapshotError::Vector)?,
            tombstones: TombstoneSet::new(base_len),
            last_lsn: manifest.base_lsn,
            delta_engine: OnceCell::new(),
        };
        for WalRecord { lsn, op } in records {
            if lsn <= manifest.base_lsn {
                continue; // already folded into the base by a compaction
            }
            this.apply(&op)?;
            this.last_lsn = lsn;
        }
        Ok(this)
    }

    /// Apply a mutation to the in-memory delta state. Used both by the live
    /// write path (after the WAL append) and by replay.
    fn apply(&mut self, op: &WalOp) -> Result<(), SnapshotError> {
        match op {
            WalOp::Insert(row) => {
                self.delta.push(row).map_err(SnapshotError::Vector)?;
                self.tombstones.grow_to(self.phys_len());
                // The cached delta engine indexes a stale copy of the rows.
                self.delta_engine = OnceCell::new();
            }
            WalOp::Delete(dense) => {
                let phys = self
                    .tombstones
                    .select_live(*dense as usize)
                    .ok_or_else(|| {
                        SnapshotError::Malformed(format!(
                            "delete target {dense} out of {} live rows",
                            self.len()
                        ))
                    })?;
                self.tombstones.mark(phys);
            }
        }
        Ok(())
    }

    /// Insert a row, returning the LSN the write committed at. The row's
    /// dense live id is [`MutablePipeline::len`]` - 1` until a preceding
    /// row is deleted.
    ///
    /// The write is logged before it is applied; call
    /// [`MutablePipeline::sync`] to force it to stable storage.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on a dimensionality mismatch or WAL I/O
    /// failure (a failed write is not applied).
    pub fn insert(&mut self, row: &[f32]) -> Result<u64, SnapshotError> {
        if row.len() != self.dim() {
            return Err(SnapshotError::Malformed(format!(
                "inserted row has {} dimensions, dataset has {}",
                row.len(),
                self.dim()
            )));
        }
        let lsn = self.wal.append(&WalOp::Insert(row.to_vec()))?;
        self.apply(&WalOp::Insert(row.to_vec()))
            .expect("validated insert cannot fail to apply");
        self.last_lsn = lsn;
        Ok(lsn)
    }

    /// Delete the row with dense live id `dense`, returning the commit LSN.
    /// Later rows shift down by one dense id, exactly as they would in a
    /// from-scratch dataset without the row.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] when `dense >= self.len()` or on WAL I/O
    /// failure (a failed write is not applied).
    pub fn delete(&mut self, dense: usize) -> Result<u64, SnapshotError> {
        if dense >= self.len() {
            return Err(SnapshotError::Malformed(format!(
                "delete target {dense} out of {} live rows",
                self.len()
            )));
        }
        let lsn = self.wal.append(&WalOp::Delete(dense as u64))?;
        self.apply(&WalOp::Delete(dense as u64))
            .expect("validated delete cannot fail to apply");
        self.last_lsn = lsn;
        Ok(lsn)
    }

    /// Flush logged writes to stable storage (`fdatasync` on the WAL).
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on I/O failure.
    pub fn sync(&self) -> Result<(), SnapshotError> {
        self.wal.sync()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.tombstones.live()
    }

    /// Whether no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.base.data().dim()
    }

    /// Rows in the delta segment (inserted since the current base).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Deleted rows masked by the tombstone bitmap.
    pub fn deleted(&self) -> usize {
        self.tombstones.deleted()
    }

    /// Mutations outstanding against the current base — the delta rows plus
    /// tombstones a compaction would fold in. Serving fronts use this as
    /// their compaction trigger.
    pub fn pending_ops(&self) -> usize {
        self.delta.len() + self.tombstones.deleted()
    }

    /// LSN of the last applied mutation (equals the manifest's `base_lsn`
    /// right after a compaction).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Byte length of the write-ahead log, i.e. the durability frontier:
    /// every operation whose frame ends at or before this offset survives
    /// a crash. Kill-point tests truncate copies of the log to offsets
    /// recorded from here.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// The directory this pipeline lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The frozen base pipeline (shared; replaced by
    /// [`MutablePipeline::compact`]).
    pub fn base(&self) -> &Arc<LafPipeline> {
        &self.base
    }

    fn base_len(&self) -> usize {
        self.base.data().len()
    }

    fn phys_len(&self) -> usize {
        self.base_len() + self.delta.len()
    }

    /// The row with dense live id `dense`.
    ///
    /// # Panics
    /// Panics when `dense >= self.len()`.
    pub fn row(&self, dense: usize) -> &[f32] {
        let phys = self
            .tombstones
            .select_live(dense)
            .expect("dense id in range");
        if phys < self.base_len() {
            self.base.data().row(phys)
        } else {
            self.delta.row(phys - self.base_len())
        }
    }

    /// Materialize the live rows, in dense order, as an owned dataset —
    /// exactly the dataset a from-scratch pipeline over the surviving rows
    /// would be built on (compaction serves from this).
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on an allocation-layer failure.
    pub fn live_dataset(&self) -> Result<laf_vector::Dataset, SnapshotError> {
        let mut out = laf_vector::Dataset::with_capacity(self.dim(), self.len())
            .map_err(SnapshotError::Vector)?;
        let base_len = self.base_len();
        for phys in self.tombstones.iter_live() {
            let row = if phys < base_len {
                self.base.data().row(phys)
            } else {
                self.delta.row(phys - base_len)
            };
            out.push(row).map_err(SnapshotError::Vector)?;
        }
        Ok(out)
    }

    /// Linear-scan engine over the delta rows, built with the same metric
    /// and kernel defaults as the base engine's scan loops. Used for range
    /// queries, where membership (`dist < eps`) is engine-independent.
    fn delta_scan(&self) -> LinearScan<'_> {
        LinearScan::new(self.delta.dataset(), self.base.config().metric)
    }

    /// Delta engine of the **same kind** as the base engine, used for knn.
    /// Reported knn distances are a per-pair function of the engine kind
    /// (e.g. the cover tree scores through its internal Euclidean
    /// conversion rather than the linear-scan kernel), so scoring delta
    /// rows with a matching engine makes the merged (distance, id) multiset
    /// identical to a from-scratch engine's over the live rows.
    ///
    /// Built at most once per delta state: the [`DeltaEngine`] cache is
    /// reset whenever the delta changes, so back-to-back knn queries (the
    /// common serving shape) don't pay an engine build each.
    fn delta_knn_engine(&self) -> &dyn RangeQueryEngine {
        self.delta_engine
            .get_or_init(|| DeltaEngine::build(&self.delta, self.base.config()))
            .engine
            .as_ref()
    }

    /// ε-range query: dense live ids within `eps` of `query`, ascending —
    /// bit-identical to a from-scratch pipeline over the live rows (for
    /// exact engine configurations; see the [module docs](self)).
    pub fn range(&self, query: &[f32], eps: f32) -> Vec<u32> {
        let base_len = self.base_len();
        let mut out: Vec<u32> = Vec::new();
        for phys in self.base.engine().get().range(query, eps) {
            if let Some(dense) = self.tombstones.dense_of(phys as usize) {
                out.push(dense as u32);
            }
        }
        // Delta dense ids all exceed base dense ids (physical order is
        // preserved by densification), so appending keeps the list sorted.
        if !self.delta.is_empty() {
            for local in self.delta_scan().range(query, eps) {
                if let Some(dense) = self.tombstones.dense_of(base_len + local as usize) {
                    out.push(dense as u32);
                }
            }
        }
        out
    }

    /// ε-range count over the live rows.
    pub fn range_count(&self, query: &[f32], eps: f32) -> usize {
        if self.tombstones.deleted() == 0 {
            // No masking needed: counts add like the sharded merge.
            let base = self.base.engine().get().range_count(query, eps);
            let delta = if self.delta.is_empty() {
                0
            } else {
                self.delta_scan().range_count(query, eps)
            };
            return base + delta;
        }
        let base_len = self.base_len();
        let mut count = self
            .base
            .engine()
            .get()
            .range(query, eps)
            .into_iter()
            .filter(|&p| !self.tombstones.contains(p as usize))
            .count();
        if !self.delta.is_empty() {
            count += self
                .delta_scan()
                .range(query, eps)
                .into_iter()
                .filter(|&l| !self.tombstones.contains(base_len + l as usize))
                .count();
        }
        count
    }

    /// k-nearest-neighbor query over the live rows, results in the
    /// [`TopK`] order (distance, then dense id).
    ///
    /// The base engine is asked for `k + deleted` neighbors so that masked
    /// rows can never crowd live ones out of the answer; survivors from
    /// base and delta merge through the same [`TopK`] a from-scratch
    /// engine's scan would use.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let k = k.min(self.len());
        let over = k + self.tombstones.deleted();
        let base_len = self.base_len();
        let mut top = TopK::new(k);
        for n in self.base.engine().get().knn(query, over) {
            if let Some(dense) = self.tombstones.dense_of(n.index as usize) {
                top.push(Neighbor::new(dense as u32, n.dist));
            }
        }
        if !self.delta.is_empty() {
            for n in self.delta_knn_engine().knn(query, over) {
                if let Some(dense) = self.tombstones.dense_of(base_len + n.index as usize) {
                    top.push(Neighbor::new(dense as u32, n.dist));
                }
            }
        }
        top.into_sorted()
    }

    /// Learned cardinality estimate from the **base** estimator. The
    /// estimator is trained on the base dataset and is not updated by
    /// mutations; estimates drift with the delta until a compaction (which
    /// carries the estimator over unchanged — retraining is an offline
    /// decision, not a compaction side effect).
    pub fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.base.estimate(query, eps)
    }

    /// Fold the delta segment and tombstones into a fresh base snapshot and
    /// truncate the WAL. Dense live ids are unchanged (survivors keep their
    /// physical order), so every answer after a compaction is bit-identical
    /// to the answer before it.
    ///
    /// Crash safety (see the [module docs](self)): the new base file is
    /// written and synced first, then the manifest flips atomically with
    /// `base_lsn` set to the last folded LSN, then the log is truncated. A
    /// reopen from any window in between recovers exactly the committed
    /// writes.
    ///
    /// No-op when nothing is pending.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] on I/O or encoding failures; the pipeline
    /// state is unchanged on error.
    pub fn compact(&mut self) -> Result<(), SnapshotError> {
        if self.pending_ops() == 0 {
            return Ok(());
        }
        let cfg = self.base.config().clone();
        let data = self.live_dataset()?;
        let persisted = build_engine(cfg.engine, &data, cfg.metric).persist();
        let snapshot = Snapshot {
            config: cfg,
            data,
            estimator: self.base.estimator().clone(),
            calibration: self.base.calibration().copied(),
            engine: persisted,
            shards: Vec::new(),
        };
        let generation = self.generation + 1;
        let base_name = format!("base-{generation}.lafs");
        let pipeline = LafPipeline::from_snapshot(snapshot);
        pipeline.save(self.dir.join(&base_name))?;
        // Crash ordering: the new base (synced to disk by `save`) and its
        // directory entry must be durable before the manifest can point at
        // it; `Manifest::write` then syncs its own rename before the WAL
        // truncation below makes the log unable to rebuild the delta.
        //
        // Failpoint `compact.dir_fsync`: crash between writing the new base
        // and making its directory entry durable — the manifest still names
        // the old base and the stray `base-<g+1>.lafs` must be tolerated.
        if fault::fire("compact.dir_fsync") {
            return Err(fault::injected("compact.dir_fsync").into());
        }
        sync_dir(&self.dir)?;
        // Reload the new base through the same mmap path `open` uses — so a
        // compacted pipeline serves exactly like a reopened one — and do it
        // *before* the manifest flips: a reload failure then aborts the
        // compaction with the directory and this handle both still on the
        // old generation (the stray next-generation base file is tolerated
        // and overwritten by a retry). Reloading after the flip could
        // strand the handle behind the on-disk manifest — its delta would
        // still hold folded rows, and acknowledged writes after the
        // failure would replay incorrectly on the next open.
        let base = LafPipeline::load_mmap(self.dir.join(&base_name))?;
        let delta = DeltaSegment::new(base.data().dim()).map_err(SnapshotError::Vector)?;
        Manifest {
            base: base_name,
            base_lsn: self.last_lsn,
            generation,
        }
        .write(&self.dir)?;
        // The flip is durable: commit the in-memory generation before the
        // WAL truncation, so even a truncation failure leaves this handle
        // consistent with the manifest (stale log records at or below
        // `base_lsn` are skipped by replay regardless).
        let old_base = format!("base-{}.lafs", self.generation);
        self.base = Arc::new(base);
        self.generation = generation;
        self.delta = delta;
        self.tombstones = TombstoneSet::new(self.base_len());
        self.delta_engine = OnceCell::new();
        self.wal.truncate()?;
        std::fs::remove_file(self.dir.join(old_base)).ok();
        Ok(())
    }
}
