//! Versioned, checksummed binary snapshots — the boundary between the
//! offline training plane and the online serving plane.
//!
//! The paper's premise is *train once, serve many*: the cardinality estimator
//! is fitted offline and then amortized across clustering runs. A
//! [`Snapshot`] persists everything a serving process needs to rebuild the
//! exact training-time pipeline:
//!
//! * the [`LafConfig`] (ε, τ, α, metric and the [`laf_index::EngineChoice`]
//!   needed to rebuild the range-query engine),
//! * the [`Dataset`] (flat-buffer encoded via [`laf_vector::io`]),
//! * the trained estimator, a one-stage [`RmiEstimator`] (raw IEEE-754
//!   weight bits via [`RmiEstimator::encode_binary`] — **bit-exact**, not a
//!   text round-trip; every format version's estimator section decodes as a
//!   one-stage RMI, and [`Snapshot::encode`] refuses a multi-stage one),
//! * optionally a [`QErrorReport`] calibration summary captured at train
//!   time,
//! * optionally (format v2) the **built range-query engine structure**
//!   ([`laf_index::PersistedEngine`]: cover-tree and k-means tree nodes, IVF
//!   posting lists), so a warm start restores the engine instead of paying
//!   the tree / k-means construction cost again.
//!
//! # Wire format
//!
//! All integers little-endian. **Version 4** (current writer):
//!
//! ```text
//! magic              4 bytes   b"LAFS"
//! format version     u32       4
//! section count      u32
//! section table      count x { id: u32, offset: u64, len: u64, crc: u32 }
//!                              (offsets relative to the payload start; `crc`
//!                               is CRC-32 (IEEE) over that section's body)
//! payload            section bodies, each padded with leading zero bytes so
//!                              its absolute file offset is a multiple of 8
//! header checksum    u32       CRC-32 (IEEE) over every byte before the
//!                              payload (magic, version, count, table)
//! ```
//!
//! Version 4 adds **sharding** on top of version 3's container. An
//! unsharded snapshot keeps the classic sections (config, dataset,
//! estimator, optional calibration, optional engine — see [`section_id`]).
//! A sharded snapshot ([`Snapshot::shards`] non-empty) replaces the global
//! dataset and engine sections with a [`section_id::SHARD_MANIFEST`]
//! (shard count + per-shard row counts) and one dataset section per shard
//! ([`section_id::shard_dataset`]) plus, when the engine choice is
//! persistable, one engine section per shard
//! ([`section_id::shard_engine`]). Shard slices cover the dataset in global
//! row order, so the decoder rebuilds the full dataset by concatenation —
//! and `laf_index::ShardedEngine` answers queries over the restored
//! per-shard structures bit-identically to the unsharded path.
//!
//! **Version 3** (read, no longer written) is the same container without
//! shard sections. It differs from version 2 in exactly one rule: **every
//! section body starts at an 8-byte-aligned file offset** (the writer
//! inserts zero padding before a section as needed, and the reader rejects
//! nonzero padding so every byte of the file stays covered by a check).
//! Alignment is what makes zero-copy warm starts possible: a memory-mapped
//! v3 file places the dataset section's `f32` payload at a 4-byte-aligned
//! address, so [`Snapshot::open_mmap`] can serve it **in place** (see
//! [`laf_vector::mapped`]) instead of copying it into a fresh `Vec<f32>` —
//! warm-start cost becomes O(index-restore) instead of O(dataset), and all
//! serving processes mapping one snapshot share one set of page-cache pages.
//! Since the writer is also streaming ([`Snapshot::encode_to_writer`]), the
//! encoded snapshot never needs to be assembled in memory on either side.
//!
//! **Version 2** (read, no longer written) is the same layout without the
//! alignment rule. The per-section CRC table is what v2 bought besides the
//! engine section: a flipped byte is reported as *"section `estimator` (id
//! 3) checksum mismatch"* instead of one opaque whole-file failure, so
//! operators know which artifact to regenerate.
//!
//! **Version 1** (read, no longer written):
//!
//! ```text
//! magic / version / count      as above, version 1
//! section table      count x { id: u32, offset: u64, len: u64 }
//! payload            concatenated section bodies
//! checksum           u32       CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Compatibility rules: a reader **rejects** an unknown format version or any
//! checksum mismatch, **ignores** unknown section ids (so a newer writer may
//! append sections without breaking older readers), and **requires** the
//! config and estimator sections plus either the dataset section or a shard
//! manifest with every shard-dataset section it declares. Engine sections
//! are optional in both directions: a v1 snapshot (or a newer snapshot
//! whose engine was not persistable) simply rebuilds the engine from the
//! restored [`laf_index::EngineChoice`] — the v1 serving behaviour. Loading
//! a v1/v2 file through [`Snapshot::open_mmap`] works but copies the
//! dataset (their writers guaranteed no alignment), as does a v3+/v4 file
//! whose dataset section is misaligned or a big-endian host: the zero-copy
//! reinterpret is an optimization, never a compatibility cliff. Committed
//! files of every version (`tests/fixtures/golden_v{1,2,3,4}*.lafs`) pin the
//! readers.
//!
//! **Retired engine.** Files written while the exact ε-grid engine existed
//! name it in their config (`{"kind":"grid",…}`) and may carry its structure
//! (engine kind 1, see [`laf_index::persist`]). The grid's answers equal the
//! linear scan's, so the decoder reads such a config as
//! [`laf_index::EngineChoice::Linear`] and such a section as the linear
//! marker: the load is clean and serves through the exact scan.

use crate::config::LafConfig;
use bytes::{Buf, Bytes};
use laf_cardest::{QErrorReport, RmiEstimator};
use laf_index::{EngineChoice, PersistError, PersistedEngine};
use laf_vector::fault;
use laf_vector::mapped::{self, Mmap};
use laf_vector::{io as vio, Dataset, VectorError};
use serde_json::Value;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a LAF snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"LAFS";
/// Current snapshot format version (what [`Snapshot::encode`] writes).
pub const SNAPSHOT_VERSION: u32 = 4;
/// Oldest snapshot format version this reader still accepts.
pub const SNAPSHOT_MIN_VERSION: u32 = 1;
/// Alignment (in bytes, relative to the file start) every section body is
/// padded to since format v3, so a mapped dataset section can be
/// reinterpreted as `&[f32]` in place.
pub const SECTION_ALIGN: usize = 8;

/// The single registry of snapshot section ids.
///
/// Every writer, the decoder and the corruption-error formatter share these
/// constants and the [`name`](section_id::name) helper, so a section can
/// never be written under one id and reported under another name.
pub mod section_id {
    /// JSON-encoded [`crate::LafConfig`] (JSON inside the binary container
    /// so configuration fields can evolve under serde's defaulting rules
    /// without a format-version bump).
    pub const CONFIG: u32 = 1;
    /// Flat-buffer encoded [`laf_vector::Dataset`] (`laf_vector::io`
    /// format). Absent from sharded (v4 manifest) files, whose rows live in
    /// the per-shard dataset sections instead.
    pub const DATASET: u32 = 2;
    /// Binary one-stage `RmiEstimator` (raw weight bits).
    pub const ESTIMATOR: u32 = 3;
    /// JSON-encoded `QErrorReport` calibration summary (optional).
    pub const CALIBRATION: u32 = 4;
    /// Binary built engine structure (`laf_index::persist` format,
    /// optional, v2+, unsharded files only).
    pub const ENGINE: u32 = 5;
    /// Sharded-layout manifest (v4): shard count (`u32`) followed by one
    /// `u64` row count per shard, in shard order. Presence of this section
    /// is what makes a v4 file sharded.
    pub const SHARD_MANIFEST: u32 = 6;
    /// First shard-dataset section id; shard `i`'s dataset slice is stored
    /// under [`shard_dataset`]`(i)` in `laf_vector::io` format.
    pub const SHARD_DATASET_BASE: u32 = 0x1000;
    /// First shard-engine section id; shard `i`'s persisted engine
    /// structure (optional per shard) is stored under [`shard_engine`]`(i)`.
    pub const SHARD_ENGINE_BASE: u32 = 0x2000;
    /// Maximum number of shards one snapshot may carry: keeps the shard id
    /// ranges disjoint and bounds the decoder's manifest-driven work.
    pub const MAX_SHARDS: u32 = SHARD_ENGINE_BASE - SHARD_DATASET_BASE;

    /// Section id of shard `i`'s dataset slice.
    pub fn shard_dataset(i: u32) -> u32 {
        debug_assert!(i < MAX_SHARDS);
        SHARD_DATASET_BASE + i
    }

    /// Section id of shard `i`'s persisted engine structure.
    pub fn shard_engine(i: u32) -> u32 {
        debug_assert!(i < MAX_SHARDS);
        SHARD_ENGINE_BASE + i
    }

    /// Human-readable name of a section id, shared by corruption errors and
    /// the decoders.
    pub fn name(id: u32) -> &'static str {
        match id {
            CONFIG => "config",
            DATASET => "dataset",
            ESTIMATOR => "estimator",
            CALIBRATION => "calibration",
            ENGINE => "engine",
            SHARD_MANIFEST => "shard-manifest",
            id if (SHARD_DATASET_BASE..SHARD_DATASET_BASE + MAX_SHARDS).contains(&id) => {
                "shard-dataset"
            }
            id if (SHARD_ENGINE_BASE..SHARD_ENGINE_BASE + MAX_SHARDS).contains(&id) => {
                "shard-engine"
            }
            _ => "unknown",
        }
    }
}

/// Errors produced while encoding, decoding or (de)serializing snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// Structural problem in the snapshot bytes (bad magic, unsupported
    /// version, checksum mismatch, a section spilling past the payload,
    /// missing required sections). Overlapping or duplicate-id sections are
    /// *not* rejected: each lookup bounds-checks independently and the first
    /// table entry with a matching id wins.
    Malformed(String),
    /// A section body failed to decode (dataset payload, estimator weights).
    Vector(VectorError),
    /// The engine section failed to decode or is inconsistent with the
    /// dataset/config it was persisted alongside.
    Engine(PersistError),
    /// A JSON section failed to (de)serialize.
    Json(serde_json::Error),
    /// Filesystem failure during load/save.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::Vector(e) => write!(f, "snapshot section error: {e}"),
            SnapshotError::Engine(e) => write!(f, "snapshot engine section error: {e}"),
            SnapshotError::Json(e) => write!(f, "snapshot JSON section error: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Vector(e) => Some(e),
            SnapshotError::Engine(e) => Some(e),
            SnapshotError::Json(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Malformed(_) => None,
        }
    }
}

impl From<VectorError> for SnapshotError {
    fn from(e: VectorError) -> Self {
        SnapshotError::Vector(e)
    }
}

impl From<PersistError> for SnapshotError {
    fn from(e: PersistError) -> Self {
        SnapshotError::Engine(e)
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Json(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Slicing-by-8 CRC-32 (IEEE 802.3, reflected) lookup tables, built at
/// compile time. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// table `k` maps a byte to its CRC contribution from `k` positions deeper
/// in the message, letting [`Crc32::update`] fold 8 input bytes per step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected).
///
/// Slicing-by-8 rather than bitwise: since format v3 the section checksums
/// are the *dominant* cost of an mmap warm start (the dataset itself is
/// served in place, so the CRC pass is the only O(dataset) work left), and
/// the streaming writer checksums the dataset section chunk by chunk without
/// materializing it — both want the many-times-cheaper per-byte step.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feed `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

/// A parsed section table — `(id, offset, len)` entries with offsets into
/// the second element, the payload slice.
type ParsedSections<'a> = (Vec<(u32, usize, usize)>, &'a [u8]);

/// A section dropped by a degraded parse: `(id, stored_crc, computed_crc)`.
type DroppedSection = (u32, u32, u32);

/// One section a degraded load ([`Snapshot::decode_degraded`] and friends)
/// could not serve from the file and compensated for instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradedSection {
    /// The global engine section (id 5) was corrupt; the engine was rebuilt
    /// from the dataset. Rebuilt structures are deterministic functions of
    /// the dataset and config, so answers are byte-identical to a clean
    /// load's.
    Engine,
    /// Shard `i`'s engine section (id `0x2000 + i`) was corrupt; that
    /// shard's engine was rebuilt from its dataset slice.
    ShardEngine(u32),
    /// The estimator section was corrupt; a gate-off constant estimator was
    /// substituted ([`RmiEstimator::gate_off`]), so the pipeline serves
    /// exact-only — correct answers, none of the learned speedup.
    Estimator,
    /// The calibration summary was corrupt and dropped (it is advisory).
    Calibration,
}

impl fmt::Display for DegradedSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedSection::Engine => write!(f, "engine (rebuilt from dataset)"),
            DegradedSection::ShardEngine(i) => {
                write!(f, "shard-engine {i} (rebuilt from shard dataset)")
            }
            DegradedSection::Estimator => write!(f, "estimator (serving gate-off exact-only)"),
            DegradedSection::Calibration => write!(f, "calibration (dropped)"),
        }
    }
}

/// Report of a degraded snapshot load: which sections failed their CRC and
/// what the loader substituted. Empty means the load was clean.
///
/// Only *derived* sections degrade — engines (rebuildable from the dataset),
/// the estimator (replaceable by a gate-off constant) and the advisory
/// calibration summary. Corruption in a structural section (config, dataset,
/// shard manifest, shard dataset) still fails the load: there is nothing
/// correct to substitute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedLoad {
    /// The degraded sections, in section-table order.
    pub sections: Vec<DegradedSection>,
}

impl DegradedLoad {
    /// Whether every section verified and decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.sections.is_empty()
    }
}

impl fmt::Display for DegradedLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sections.is_empty() {
            return write!(f, "clean load");
        }
        write!(f, "degraded load: ")?;
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Everything a serving process needs to rebuild a trained LAF pipeline.
///
/// See the [module documentation](self) for the wire format. Snapshots are
/// usually handled through [`crate::LafPipeline`]; the raw type is exposed
/// for tooling that inspects or rewrites snapshot files.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The configuration the pipeline was trained under, including the
    /// engine choice used to rebuild the range-query index at load time.
    pub config: LafConfig,
    /// The indexed dataset.
    pub data: Dataset,
    /// The trained estimator (bit-exact across save/load).
    pub estimator: RmiEstimator,
    /// Calibration summary captured at training time, when requested.
    pub calibration: Option<QErrorReport>,
    /// The built range-query engine structure, when the engine persists one
    /// ([`laf_index::RangeQueryEngine::persist`] returns `Some`). `None` for
    /// v1 snapshots and non-persistable engines; the serving side then
    /// rebuilds from [`LafConfig::engine`].
    ///
    /// Always `None` for sharded snapshots, whose engine structures live per
    /// shard in [`Snapshot::shards`].
    pub engine: Option<PersistedEngine>,
    /// Shard layout of a sharded (format v4) snapshot, in shard order.
    ///
    /// Empty means unsharded — the classic single-dataset layout. When
    /// non-empty (two shards or more), [`Snapshot::data`] still holds the
    /// full logical dataset and each entry's
    /// [`data`](SnapshotShard::data) is that shard's contiguous row slice —
    /// after a decode the owned slices are zero-copy views into the very
    /// allocation behind [`Snapshot::data`], and mapped slices are served in
    /// place from the file mapping.
    pub shards: Vec<SnapshotShard>,
}

/// One shard of a sharded (format v4) snapshot: the dataset slice plus,
/// when the engine choice is persistable, the engine structure built over
/// exactly those rows. Row ids inside the persisted structure are
/// shard-local; `laf_index::ShardedEngine` rebases them at query time.
#[derive(Debug, Clone)]
pub struct SnapshotShard {
    /// This shard's contiguous slice of the dataset, in global row order.
    pub data: Dataset,
    /// The engine structure persisted over this shard's rows, when the
    /// configured engine choice is persistable.
    pub engine: Option<PersistedEngine>,
}

impl Snapshot {
    /// `(len, crc)` of a dataset section without materializing its encoding:
    /// a CRC pre-pass over the same bounded chunks the writer streams later.
    fn dataset_entry(data: &Dataset) -> (u64, u32) {
        let mut crc = Crc32::new();
        let mut len = 0u64;
        let _ = vio::encode_chunked::<std::convert::Infallible>(data, |chunk| {
            crc.update(chunk);
            len += chunk.len() as u64;
            Ok(())
        });
        debug_assert_eq!(len as usize, vio::encoded_len(data));
        (len, crc.finalize())
    }

    /// Encode into the current (version-4) snapshot format: per-section CRC
    /// table and 8-byte-aligned section bodies. An unsharded snapshot keeps
    /// the classic single-dataset section layout (now under version 4); a
    /// sharded one writes the shard manifest plus per-shard dataset and
    /// engine sections. Equivalent to [`Snapshot::encode_to_writer`] into a
    /// fresh buffer.
    pub fn encode(&self) -> Result<Bytes, SnapshotError> {
        let mut buf: Vec<u8> = Vec::new();
        self.encode_to_writer(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// Stream the version-4 encoding into `writer` without ever assembling
    /// the whole snapshot in memory.
    ///
    /// The small sections (config, estimator, calibration, engines, shard
    /// manifest) are materialized — they are KBs — but every dataset
    /// section, which is where the bytes are, is checksummed and written in
    /// bounded chunks via [`laf_vector::io::encode_chunked`]. Peak
    /// writer-side memory is O(small sections + one chunk) instead of
    /// O(snapshot), roughly halving train-time peak RSS for large datasets
    /// (the old path held the dataset *and* its full encoding alive
    /// simultaneously).
    ///
    /// # Errors
    /// Propagates section serialization failures and writer I/O errors,
    /// refuses an estimator of more than one stage
    /// ([`SnapshotError::Vector`]: the estimator section holds one network),
    /// and rejects an inconsistent shard layout (shard rows not summing to the
    /// dataset, a shard with a different dimensionality, a global engine on
    /// a sharded snapshot). Callers handing in a buffered writer should
    /// flush it afterwards (the [`Snapshot::save`] convenience does).
    pub fn encode_to_writer<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        self.check_encodable()?;
        let sharded = !self.shards.is_empty();

        // Section bodies: `Dataset` bodies are streamed, never materialized.
        enum Body<'a> {
            Bytes(Vec<u8>),
            Dataset(&'a Dataset),
        }
        let config_json = serde_json::to_string(&self.config)?;
        let mut estimator_bytes: Vec<u8> = Vec::new();
        self.estimator.encode_binary(&mut estimator_bytes)?;
        let calibration_json = self
            .calibration
            .as_ref()
            .map(serde_json::to_string)
            .transpose()?;

        let mut sections: Vec<(u32, u64, u32, Body<'_>)> =
            Vec::with_capacity(5 + 2 * self.shards.len());
        let push_bytes = |sections: &mut Vec<(u32, u64, u32, Body<'_>)>, id: u32, body: Vec<u8>| {
            sections.push((id, body.len() as u64, crc32(&body), Body::Bytes(body)));
        };
        push_bytes(&mut sections, section_id::CONFIG, config_json.into_bytes());
        if !sharded {
            let (len, crc) = Self::dataset_entry(&self.data);
            sections.push((section_id::DATASET, len, crc, Body::Dataset(&self.data)));
        }
        push_bytes(&mut sections, section_id::ESTIMATOR, estimator_bytes);
        if let Some(json) = calibration_json {
            push_bytes(&mut sections, section_id::CALIBRATION, json.into_bytes());
        }
        if !sharded {
            if let Some(engine) = &self.engine {
                push_bytes(&mut sections, section_id::ENGINE, engine.encode());
            }
        } else {
            let mut manifest: Vec<u8> = Vec::with_capacity(4 + 8 * self.shards.len());
            manifest.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
            for shard in &self.shards {
                manifest.extend_from_slice(&(shard.data.len() as u64).to_le_bytes());
            }
            push_bytes(&mut sections, section_id::SHARD_MANIFEST, manifest);
            for (i, shard) in self.shards.iter().enumerate() {
                let (len, crc) = Self::dataset_entry(&shard.data);
                sections.push((
                    section_id::shard_dataset(i as u32),
                    len,
                    crc,
                    Body::Dataset(&shard.data),
                ));
                if let Some(engine) = &shard.engine {
                    push_bytes(
                        &mut sections,
                        section_id::shard_engine(i as u32),
                        engine.encode(),
                    );
                }
            }
        }

        // Lay out the payload: each section body starts at a file offset
        // that is a multiple of SECTION_ALIGN, with zero padding in between.
        let header_len = 12 + sections.len() * 24;
        let mut header: Vec<u8> = Vec::with_capacity(header_len);
        header.extend_from_slice(SNAPSHOT_MAGIC);
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut pads: Vec<usize> = Vec::with_capacity(sections.len());
        let mut offset = 0u64;
        for (id, len, crc, _) in &sections {
            let absolute = header_len as u64 + offset;
            let pad =
                (SECTION_ALIGN as u64 - absolute % SECTION_ALIGN as u64) % SECTION_ALIGN as u64;
            pads.push(pad as usize);
            offset += pad;
            header.extend_from_slice(&id.to_le_bytes());
            header.extend_from_slice(&offset.to_le_bytes());
            header.extend_from_slice(&len.to_le_bytes());
            header.extend_from_slice(&crc.to_le_bytes());
            offset += len;
        }
        let header_crc = crc32(&header);

        writer.write_all(&header)?;
        const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
        for ((_, _, _, body), pad) in sections.iter().zip(&pads) {
            writer.write_all(&ZEROS[..*pad])?;
            match body {
                Body::Bytes(bytes) => writer.write_all(bytes)?,
                Body::Dataset(data) => vio::encode_chunked(data, |chunk| writer.write_all(chunk))?,
            }
        }
        writer.write_all(&header_crc.to_le_bytes())?;
        Ok(())
    }

    /// Parse a version-1 header: verify the whole-file checksum, return the
    /// `(id, offset, len)` table and the payload slice.
    fn parse_v1(bytes: &[u8]) -> Result<ParsedSections<'_>, SnapshotError> {
        let (body, stored) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(stored.try_into().expect("4-byte split"));
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(SnapshotError::Malformed(format!(
                "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let mut cursor: &[u8] = &body[8..]; // past magic + version
        let count = cursor.get_u32_le() as usize;
        if cursor.remaining() < count * 20 {
            return Err(SnapshotError::Malformed(format!(
                "section table for {count} sections exceeds the payload"
            )));
        }
        let mut table: Vec<(u32, usize, usize)> = Vec::with_capacity(count);
        for _ in 0..count {
            let id = cursor.get_u32_le();
            let offset = cursor.get_u64_le() as usize;
            let len = cursor.get_u64_le() as usize;
            table.push((id, offset, len));
        }
        Ok((table, cursor))
    }

    /// The error a failed section CRC produces, shared by the strict parse
    /// and the degraded-load policy (which re-raises it for structural
    /// sections), so both report corruption identically.
    fn mismatch_error(id: u32, stored: u32, computed: u32) -> SnapshotError {
        SnapshotError::Malformed(format!(
            "section `{}` (id {id}) checksum mismatch: stored {stored:#010x}, computed {computed:#010x}",
            section_id::name(id)
        ))
    }

    /// Parse a version-2/3 header: verify the header/table checksum, then
    /// verify **every** section's CRC (known or not) so corruption is
    /// reported by section name before any body is parsed. For version 3,
    /// additionally require every payload byte *outside* the listed sections
    /// (the alignment padding) to be zero, so no byte of the file escapes
    /// verification.
    ///
    /// With `dropped` set (the degraded-load path), a section failing its
    /// CRC is recorded there and excluded from the returned table instead of
    /// failing the parse — the caller decides which exclusions are
    /// survivable. Its bytes still count toward the padding-coverage spans,
    /// so the v3 "every byte is checked" rule keeps holding.
    fn parse_tabled<'a>(
        bytes: &'a [u8],
        version: u32,
        mut dropped: Option<&mut Vec<DroppedSection>>,
    ) -> Result<ParsedSections<'a>, SnapshotError> {
        let mut cursor: &[u8] = &bytes[8..];
        let count = cursor.get_u32_le() as usize;
        let header_len = 12 + count * 24;
        if bytes.len() < header_len + 4 {
            return Err(SnapshotError::Malformed(format!(
                "section table for {count} sections exceeds the file"
            )));
        }
        let stored = &bytes[bytes.len() - 4..];
        let stored_crc = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
        let actual_crc = crc32(&bytes[..header_len]);
        if stored_crc != actual_crc {
            return Err(SnapshotError::Malformed(format!(
                "header checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let payload = &bytes[header_len..bytes.len() - 4];
        let mut table: Vec<(u32, usize, usize)> = Vec::with_capacity(count);
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(count);
        for _ in 0..count {
            let id = cursor.get_u32_le();
            let offset = cursor.get_u64_le() as usize;
            let len = cursor.get_u64_le() as usize;
            let crc = cursor.get_u32_le();
            let end = offset.checked_add(len).ok_or_else(|| {
                SnapshotError::Malformed(format!(
                    "section `{}` (id {id}) length overflow",
                    section_id::name(id)
                ))
            })?;
            if end > payload.len() {
                return Err(SnapshotError::Malformed(format!(
                    "section `{}` (id {id}) spans {offset}..{end} but the payload holds {} bytes",
                    section_id::name(id),
                    payload.len()
                )));
            }
            spans.push((offset, end));
            let mut actual = crc32(&payload[offset..end]);
            // Failpoint `mmap.section.bitflip`: model a flipped bit in a
            // mapped section body by perturbing the *computed* CRC — the
            // injected corruption is therefore always detected here (and
            // handled exactly like real media corruption), never silently
            // served to a query.
            if fault::fire("mmap.section.bitflip") {
                actual = !actual;
            }
            if actual != crc {
                if let Some(list) = dropped.as_deref_mut() {
                    list.push((id, crc, actual));
                    continue;
                }
                return Err(Self::mismatch_error(id, crc, actual));
            }
            table.push((id, offset, len));
        }
        if version >= 3 {
            Self::check_padding(&spans, payload)?;
        }
        Ok((table, payload))
    }

    /// Verify that every payload byte not covered by a listed section is
    /// zero — format v3's padding rule. Keeps the "every corrupted byte is
    /// detected" property the per-section CRCs give the section bodies.
    fn check_padding(spans: &[(usize, usize)], payload: &[u8]) -> Result<(), SnapshotError> {
        let mut spans: Vec<(usize, usize)> = spans.to_vec();
        spans.sort_unstable();
        spans.push((payload.len(), payload.len()));
        let mut cursor = 0usize;
        for (start, end) in spans {
            if start > cursor {
                if let Some(i) = payload[cursor..start].iter().position(|&b| b != 0) {
                    return Err(SnapshotError::Malformed(format!(
                        "nonzero padding byte at payload offset {}",
                        cursor + i
                    )));
                }
            }
            cursor = cursor.max(end);
        }
        Ok(())
    }

    /// Decode a snapshot produced by [`Snapshot::encode`] (version 3) or an
    /// older writer (versions 1 and 2). The dataset is always copied into an
    /// owned buffer; use [`Snapshot::open_mmap`] / [`Snapshot::decode_mapped`]
    /// for the zero-copy path.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Malformed`] on any structural problem and the
    /// wrapped section error when a section body fails to decode. Checksums
    /// are verified **before** any section is parsed, so a corrupted file is
    /// rejected rather than half-loaded; since format v2 the failing section
    /// is named.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_impl(bytes, None, None)
    }

    /// Decode like [`Snapshot::decode`], but *degrade* instead of failing
    /// when a derived section is corrupt: a corrupt engine section (global
    /// or per shard) is dropped so the caller rebuilds it from the dataset,
    /// a corrupt estimator section is replaced by a gate-off constant
    /// estimator ([`RmiEstimator::gate_off`], exact-only serving), and a
    /// corrupt calibration summary is dropped. Every substitution is listed
    /// in the returned [`DegradedLoad`] — degradation is typed and
    /// reported, never silent.
    ///
    /// # Errors
    /// Corruption in a structural section (config, dataset, shard manifest,
    /// shard dataset) and every structural problem [`Snapshot::decode`]
    /// rejects still fail: those have no correct substitute. Version-1
    /// files carry one whole-file checksum, so any corruption fails them.
    pub fn decode_degraded(bytes: &[u8]) -> Result<(Self, DegradedLoad), SnapshotError> {
        let mut report = DegradedLoad::default();
        let snap = Self::decode_impl(bytes, None, Some(&mut report))?;
        Ok((snap, report))
    }

    /// Decode a snapshot directly from a shared file mapping.
    ///
    /// Identical validation to [`Snapshot::decode`] — every checksum is
    /// verified once, against the mapping — but for a format-v3 file whose
    /// dataset section meets the alignment rule (every file the v3 writer
    /// produces does), the dataset is served **in place** from the mapping:
    /// no `Vec<f32>` allocation, no copy, page-cache pages shared with every
    /// other process mapping the same file. Misaligned v3 files, v1/v2
    /// files and big-endian hosts fall back to the copying path
    /// transparently.
    pub fn decode_mapped(map: &Arc<Mmap>) -> Result<Self, SnapshotError> {
        Self::decode_impl(&map[..], Some(map), None)
    }

    /// Degraded-mode twin of [`Snapshot::decode_mapped`]; see
    /// [`Snapshot::decode_degraded`] for the degradation policy.
    pub fn decode_mapped_degraded(map: &Arc<Mmap>) -> Result<(Self, DegradedLoad), SnapshotError> {
        let mut report = DegradedLoad::default();
        let snap = Self::decode_impl(&map[..], Some(map), Some(&mut report))?;
        Ok((snap, report))
    }

    fn decode_impl(
        bytes: &[u8],
        map: Option<&Arc<Mmap>>,
        degraded: Option<&mut DegradedLoad>,
    ) -> Result<Self, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::Malformed(format!(
                "{} bytes is shorter than the fixed header",
                bytes.len()
            )));
        }
        let mut cursor: &[u8] = bytes;
        let mut magic = [0u8; 4];
        cursor.copy_to_slice(&mut magic);
        if &magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Malformed(format!("bad magic {magic:?}")));
        }
        let version = cursor.get_u32_le();
        let mut dropped: Vec<DroppedSection> = Vec::new();
        let (table, payload) = match version {
            // v1 has one whole-file checksum: corruption cannot be pinned to
            // a section, so the degraded path has nothing finer to offer.
            1 => Self::parse_v1(bytes)?,
            2..=4 => Self::parse_tabled(
                bytes,
                version,
                if degraded.is_some() {
                    Some(&mut dropped)
                } else {
                    None
                },
            )?,
            _ => {
                return Err(SnapshotError::Malformed(format!(
                    "unsupported snapshot version {version} (this reader supports \
                     {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
                )))
            }
        };

        // Degraded-load policy: derived sections degrade, structural
        // sections do not. The survivable exclusions are recorded on the
        // caller's report; anything else re-raises the strict parse's error.
        let mut estimator_dropped = false;
        if let Some(report) = degraded {
            for &(id, stored, computed) in &dropped {
                let section = match id {
                    section_id::ENGINE => DegradedSection::Engine,
                    section_id::ESTIMATOR => {
                        estimator_dropped = true;
                        DegradedSection::Estimator
                    }
                    section_id::CALIBRATION => DegradedSection::Calibration,
                    id if (section_id::SHARD_ENGINE_BASE
                        ..section_id::SHARD_ENGINE_BASE + section_id::MAX_SHARDS)
                        .contains(&id) =>
                    {
                        DegradedSection::ShardEngine(id - section_id::SHARD_ENGINE_BASE)
                    }
                    _ => return Err(Self::mismatch_error(id, stored, computed)),
                };
                report.sections.push(section);
            }
        }

        let section = |wanted: u32| -> Result<Option<&[u8]>, SnapshotError> {
            for &(id, offset, len) in &table {
                if id != wanted {
                    continue;
                }
                let end = offset.checked_add(len).ok_or_else(|| {
                    SnapshotError::Malformed(format!("section {id} length overflow"))
                })?;
                if end > payload.len() {
                    return Err(SnapshotError::Malformed(format!(
                        "section {id} spans {offset}..{end} but the payload holds {} bytes",
                        payload.len()
                    )));
                }
                return Ok(Some(&payload[offset..end]));
            }
            Ok(None)
        };
        let required = |wanted: u32, name: &str| -> Result<&[u8], SnapshotError> {
            section(wanted)?.ok_or_else(|| {
                SnapshotError::Malformed(format!("missing required section {name} (id {wanted})"))
            })
        };

        let config = Self::decode_config(required(section_id::CONFIG, "config")?)?;
        let manifest = if version >= 4 {
            section(section_id::SHARD_MANIFEST)?
        } else {
            None
        };
        let (data, shards) = match manifest {
            Some(manifest) => {
                if section(section_id::DATASET)?.is_some() || section(section_id::ENGINE)?.is_some()
                {
                    return Err(SnapshotError::Malformed(
                        "sharded snapshot must not carry global dataset or engine sections".into(),
                    ));
                }
                let mut m = manifest;
                if m.len() < 4 {
                    return Err(SnapshotError::Malformed(
                        "shard manifest is shorter than its shard count".into(),
                    ));
                }
                let count = m.get_u32_le() as usize;
                if count == 0 || count > section_id::MAX_SHARDS as usize {
                    return Err(SnapshotError::Malformed(format!(
                        "shard manifest declares {count} shards (supported: 1..={})",
                        section_id::MAX_SHARDS
                    )));
                }
                if m.len() != count * 8 {
                    return Err(SnapshotError::Malformed(format!(
                        "shard manifest holds {} bytes of row counts for {count} shards",
                        m.len()
                    )));
                }
                let lens: Vec<usize> = (0..count).map(|_| m.get_u64_le() as usize).collect();
                let mut shard_datas: Vec<Dataset> = Vec::with_capacity(count);
                for (i, &rows) in lens.iter().enumerate() {
                    let sec = required(section_id::shard_dataset(i as u32), "shard-dataset")?;
                    let d = match map {
                        // Manifests exist only in v4+ files, whose writer
                        // guarantees section alignment, so every shard slice
                        // is eligible for the in-place reinterpret.
                        // `dataset_from_map` still re-checks the actual
                        // pointer and falls back to copying when a
                        // (hand-built) file is misaligned.
                        Some(map) => {
                            let offset = sec.as_ptr() as usize - bytes.as_ptr() as usize;
                            mapped::dataset_from_map(map, offset, sec.len())?
                        }
                        None => vio::decode(sec)?,
                    };
                    if d.len() != rows {
                        return Err(SnapshotError::Malformed(format!(
                            "shard {i} holds {} rows but the manifest declares {rows}",
                            d.len()
                        )));
                    }
                    if let Some(first) = shard_datas.first() {
                        if d.dim() != first.dim() {
                            return Err(SnapshotError::Malformed(format!(
                                "shard {i} is {}-dimensional but shard 0 is {}-dimensional",
                                d.dim(),
                                first.dim()
                            )));
                        }
                    }
                    shard_datas.push(d);
                }
                let dim = shard_datas[0].dim();
                let mut flat: Vec<f32> = Vec::with_capacity(lens.iter().sum::<usize>() * dim);
                for d in &shard_datas {
                    flat.extend_from_slice(d.as_flat());
                }
                let full = Dataset::from_flat(dim, flat)?;
                // Owned decodes drop the per-shard copies and re-slice views
                // of the concatenated buffer, so steady-state memory stays
                // 1× the dataset; mapped shards are already zero-copy and
                // keep their file-backed views (the concatenation is then
                // the only owned copy).
                let (full, shard_datas) = if shard_datas.iter().any(Dataset::is_mapped) {
                    (full, shard_datas)
                } else {
                    let shared = full.into_shared();
                    let mut views = Vec::with_capacity(count);
                    let mut start = 0usize;
                    for &rows in &lens {
                        views.push(shared.slice_rows(start, rows)?);
                        start += rows;
                    }
                    (shared, views)
                };
                let mut shards = Vec::with_capacity(count);
                for (i, d) in shard_datas.into_iter().enumerate() {
                    let engine = section(section_id::shard_engine(i as u32))?
                        .map(PersistedEngine::decode)
                        .transpose()?;
                    if let Some(engine) = &engine {
                        Self::validate_engine(engine, &config, d.len(), d.dim())?;
                    }
                    shards.push(SnapshotShard { data: d, engine });
                }
                (full, shards)
            }
            None => {
                let dataset_section = required(section_id::DATASET, "dataset")?;
                let data = match map {
                    // Zero-copy only for v3+: those writers are the ones
                    // that guarantee section alignment. `dataset_from_map`
                    // still re-checks the actual pointer and falls back to
                    // copying when a (hand-built) file is misaligned.
                    Some(map) if version >= 3 => {
                        let offset = dataset_section.as_ptr() as usize - bytes.as_ptr() as usize;
                        mapped::dataset_from_map(map, offset, dataset_section.len())?
                    }
                    _ => vio::decode(dataset_section)?,
                };
                (data, Vec::new())
            }
        };
        let estimator = match section(section_id::ESTIMATOR)? {
            Some(mut estimator_bytes) => {
                let estimator = RmiEstimator::decode_binary(&mut estimator_bytes)?;
                if !estimator_bytes.is_empty() {
                    return Err(SnapshotError::Malformed(format!(
                        "{} trailing bytes after the estimator section",
                        estimator_bytes.len()
                    )));
                }
                estimator
            }
            // The corrupt estimator section was excluded by the degraded
            // parse: serve gate-off exact-only rather than failing the load.
            None if estimator_dropped => RmiEstimator::gate_off(data.dim()),
            None => {
                return Err(SnapshotError::Malformed(format!(
                    "missing required section estimator (id {})",
                    section_id::ESTIMATOR
                )))
            }
        };
        if estimator.data_dim() != data.dim() {
            return Err(SnapshotError::Malformed(format!(
                "estimator expects {}-dimensional queries but the dataset is {}-dimensional",
                estimator.data_dim(),
                data.dim()
            )));
        }
        let calibration = section(section_id::CALIBRATION)?
            .map(|b| -> Result<QErrorReport, SnapshotError> {
                Ok(serde_json::from_str(std::str::from_utf8(b).map_err(
                    |e| SnapshotError::Malformed(format!("calibration is not UTF-8: {e}")),
                )?)?)
            })
            .transpose()?;
        let engine = section(section_id::ENGINE)?
            .map(PersistedEngine::decode)
            .transpose()?;
        if let Some(engine) = &engine {
            Self::validate_engine(engine, &config, data.len(), data.dim())?;
        }

        Ok(Self {
            config,
            data,
            estimator,
            calibration,
            engine,
            shards,
        })
    }

    /// Parse the JSON config section. A config naming the retired ε-grid
    /// engine (`{"kind":"grid",…}`) reads as [`EngineChoice::Linear`]: the
    /// grid was exact, so the linear scan gives the same answers.
    fn decode_config(bytes: &[u8]) -> Result<LafConfig, SnapshotError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| SnapshotError::Malformed(format!("config is not UTF-8: {e}")))?;
        let mut config = serde_json::parse(text)?;
        if let Value::Object(fields) = &mut config {
            if let Some((_, engine)) = fields.iter_mut().find(|(key, _)| key == "engine") {
                let kind = engine
                    .as_object()
                    .and_then(|e| serde::value::find(e, "kind"));
                if kind.and_then(Value::as_str) == Some("grid") {
                    *engine = serde_json::to_value(&EngineChoice::Linear)?;
                }
            }
        }
        Ok(serde_json::from_value(&config)?)
    }

    /// Engine-section sanity checks shared by the global and per-shard
    /// paths: the persisted metric and structure kind must match the config,
    /// and the structure must cover exactly the rows it is restored over.
    fn validate_engine(
        engine: &PersistedEngine,
        config: &LafConfig,
        len: usize,
        dim: usize,
    ) -> Result<(), SnapshotError> {
        if engine.metric() != config.metric {
            return Err(SnapshotError::Malformed(format!(
                "engine section was persisted under {:?} but the config metric is {:?}",
                engine.metric(),
                config.metric
            )));
        }
        if !engine.matches_choice(&config.engine) {
            return Err(SnapshotError::Malformed(format!(
                "engine section holds a `{}` structure but the config engine is {:?}",
                engine.kind(),
                config.engine
            )));
        }
        engine.validate(len, dim)?;
        Ok(())
    }

    /// The checks [`Snapshot::encode_to_writer`] documents under its
    /// errors, short of I/O: a snapshot that passes them encodes.
    fn check_encodable(&self) -> Result<(), SnapshotError> {
        self.estimator.check_binary_form()?;
        if self.shards.len() > section_id::MAX_SHARDS as usize {
            return Err(SnapshotError::Malformed(format!(
                "{} shards exceed the format limit of {}",
                self.shards.len(),
                section_id::MAX_SHARDS
            )));
        }
        if self.shards.is_empty() {
            return Ok(());
        }
        if self.engine.is_some() {
            return Err(SnapshotError::Malformed(
                "sharded snapshots persist engine structures per shard, not globally".into(),
            ));
        }
        let total: usize = self.shards.iter().map(|s| s.data.len()).sum();
        if total != self.data.len() {
            return Err(SnapshotError::Malformed(format!(
                "shard row counts sum to {total} but the dataset holds {} rows",
                self.data.len()
            )));
        }
        if let Some(s) = self.shards.iter().find(|s| s.data.dim() != self.data.dim()) {
            return Err(SnapshotError::Malformed(format!(
                "shard dimensionality {} disagrees with the dataset's {}",
                s.data.dim(),
                self.data.dim()
            )));
        }
        Ok(())
    }

    /// Write the encoded snapshot to `path`, streaming via
    /// [`Snapshot::encode_to_writer`] so the file is never assembled in
    /// memory.
    ///
    /// A snapshot that cannot be encoded (see
    /// [`Snapshot::encode_to_writer`]) is refused before `path` is opened,
    /// so a file already there keeps its contents.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        self.check_encodable()?;
        let file = fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(file);
        self.encode_to_writer(&mut writer)?;
        writer.flush()?;
        // Failpoint `snapshot.save.fsync`: crash with the full file in the
        // page cache but not on stable storage — callers sequencing
        // durability steps against this file must treat the save as failed.
        if fault::fire("snapshot.save.fsync") {
            return Err(fault::injected("snapshot.save.fsync").into());
        }
        // fsync so callers sequencing durability steps against this file
        // (compaction flips its manifest only once the new base is on disk)
        // get contents-on-stable-storage, not just contents-in-page-cache.
        writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Read and decode a snapshot previously written with [`Snapshot::save`],
    /// copying the dataset into an owned buffer.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = fs::read(path)?;
        Self::decode(&bytes)
    }

    /// Degraded-mode twin of [`Snapshot::load`]; see
    /// [`Snapshot::decode_degraded`] for the degradation policy.
    pub fn load_degraded<P: AsRef<Path>>(path: P) -> Result<(Self, DegradedLoad), SnapshotError> {
        let bytes = fs::read(path)?;
        Self::decode_degraded(&bytes)
    }

    /// Validate the fixed header and section table of the snapshot at
    /// `path` without decoding (or CRC-checking) any section body: magic,
    /// supported version, header checksum, and every table entry in bounds.
    /// Cheap — O(table), not O(file) — for v2+ files, which is what lets a
    /// snapshot cache reject a damaged file at registration time instead of
    /// discovering it at first pin under load. (v1 files have only a
    /// whole-file checksum, so validating them costs one pass.)
    ///
    /// # Errors
    /// Returns [`SnapshotError`] naming the structural problem; I/O errors
    /// from opening/mapping the file pass through.
    pub fn validate_header<P: AsRef<Path>>(path: P) -> Result<(), SnapshotError> {
        let map = mapped::map_file(path)?;
        let bytes = &map[..];
        let version = Self::check_magic(bytes)?;
        match version {
            1 => {
                Self::parse_v1(bytes)?;
            }
            _ => {
                let mut cursor: &[u8] = &bytes[8..];
                let count = cursor.get_u32_le() as usize;
                let header_len = 12 + count * 24;
                if bytes.len() < header_len + 4 {
                    return Err(SnapshotError::Malformed(format!(
                        "section table for {count} sections exceeds the file"
                    )));
                }
                let stored = &bytes[bytes.len() - 4..];
                let stored_crc = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
                let actual_crc = crc32(&bytes[..header_len]);
                if stored_crc != actual_crc {
                    return Err(SnapshotError::Malformed(format!(
                        "header checksum mismatch: stored {stored_crc:#010x}, \
                         computed {actual_crc:#010x}"
                    )));
                }
                let payload_len = bytes.len() - header_len - 4;
                for _ in 0..count {
                    let id = cursor.get_u32_le();
                    let offset = cursor.get_u64_le() as usize;
                    let len = cursor.get_u64_le() as usize;
                    let _crc = cursor.get_u32_le();
                    let end = offset.checked_add(len).ok_or_else(|| {
                        SnapshotError::Malformed(format!(
                            "section `{}` (id {id}) length overflow",
                            section_id::name(id)
                        ))
                    })?;
                    if end > payload_len {
                        return Err(SnapshotError::Malformed(format!(
                            "section `{}` (id {id}) spans {offset}..{end} but the payload \
                             holds {payload_len} bytes",
                            section_id::name(id)
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-verify **every** checksum of the snapshot at `path` — header,
    /// per-section CRCs, the v3 padding rule — without decoding any body.
    /// This is the scrub primitive: a full O(file) integrity pass a cache
    /// can run in the background against resident entries to catch media
    /// corruption before a reload trips over it.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] naming the corrupt section (v2+) or the
    /// checksum mismatch (v1); I/O errors pass through.
    pub fn verify_file<P: AsRef<Path>>(path: P) -> Result<(), SnapshotError> {
        let map = mapped::map_file(path)?;
        let bytes = &map[..];
        let version = Self::check_magic(bytes)?;
        match version {
            1 => {
                Self::parse_v1(bytes)?;
            }
            _ => {
                Self::parse_tabled(bytes, version, None)?;
            }
        }
        Ok(())
    }

    /// Shared entry check: minimum length, magic bytes, supported version.
    fn check_magic(bytes: &[u8]) -> Result<u32, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::Malformed(format!(
                "{} bytes is shorter than the fixed header",
                bytes.len()
            )));
        }
        let mut magic = [0u8; 4];
        let mut cursor: &[u8] = bytes;
        cursor.copy_to_slice(&mut magic);
        if &magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Malformed(format!("bad magic {magic:?}")));
        }
        let version = cursor.get_u32_le();
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(SnapshotError::Malformed(format!(
                "unsupported snapshot version {version} (this reader supports \
                 {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
            )));
        }
        Ok(version)
    }

    /// Memory-map the snapshot at `path` and decode it zero-copy: the file
    /// is validated (every checksum verified once, against the mapping) and
    /// the dataset section of a format-v3 file is served in place — see
    /// [`Snapshot::decode_mapped`]. Needs only read access to the file.
    pub fn open_mmap<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let map = mapped::map_file(path)?;
        Self::decode_mapped(&map)
    }

    /// Degraded-mode twin of [`Snapshot::open_mmap`]; see
    /// [`Snapshot::decode_degraded`] for the degradation policy.
    pub fn open_mmap_degraded<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, DegradedLoad), SnapshotError> {
        let map = mapped::map_file(path)?;
        Self::decode_mapped_degraded(&map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use laf_cardest::{CardinalityEstimator, NetConfig, RmiConfig, TrainingSetBuilder};
    use laf_clustering::{Clusterer, Dbscan};
    use laf_index::build_engine;
    use laf_synth::EmbeddingMixtureConfig;

    fn trained_snapshot() -> Snapshot {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 120,
            dim: 6,
            clusters: 3,
            seed: 77,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let training = TrainingSetBuilder {
            max_queries: Some(60),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::tiny()));
        Snapshot {
            config: LafConfig::new(0.3, 4, 1.5),
            data,
            estimator,
            calibration: None,
            engine: None,
            shards: Vec::new(),
        }
    }

    /// The same snapshot split into `n` shards with per-shard engine
    /// structures (when the choice is persistable).
    fn sharded_snapshot(choice: EngineChoice, n: usize) -> Snapshot {
        let mut snap = trained_snapshot();
        snap.config.engine = choice;
        snap.data = snap.data.into_shared();
        let map = laf_vector::ShardMap::even_split(snap.data.len(), n);
        snap.shards = (0..map.n_shards())
            .map(|s| {
                let data = snap
                    .data
                    .slice_rows(map.start(s), map.shard_len(s))
                    .unwrap();
                let engine = build_engine(choice, &data, snap.config.metric).persist();
                SnapshotShard { data, engine }
            })
            .collect();
        snap
    }

    /// The same snapshot with a persisted engine structure attached.
    fn snapshot_with_engine(choice: EngineChoice) -> Snapshot {
        let mut snap = trained_snapshot();
        snap.config.engine = choice;
        let persisted = {
            let engine = build_engine(choice, &snap.data, snap.config.metric);
            engine.persist()
        };
        snap.engine = persisted;
        snap
    }

    /// Hand-build a raw snapshot file in either format version from explicit
    /// `(id, body)` sections.
    fn build_raw(version: u32, sections: &[(u32, &[u8])]) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_slice(SNAPSHOT_MAGIC);
        buf.put_u32_le(version);
        buf.put_u32_le(sections.len() as u32);
        let mut offset = 0u64;
        for (id, body) in sections {
            buf.put_u32_le(*id);
            buf.put_u64_le(offset);
            buf.put_u64_le(body.len() as u64);
            if version >= 2 {
                buf.put_u32_le(crc32(body));
            }
            offset += body.len() as u64;
        }
        let header_crc = crc32(&buf);
        for (_, body) in sections {
            buf.put_slice(body);
        }
        if version >= 2 {
            buf.put_u32_le(header_crc);
        } else {
            let crc = crc32(&buf);
            buf.put_u32_le(crc);
        }
        buf
    }

    /// The classic unsharded section bodies of `snap` (config, dataset,
    /// estimator, optional calibration, optional engine), in payload order.
    fn raw_sections(snap: &Snapshot) -> Vec<(u32, Vec<u8>)> {
        let mut estimator = Vec::new();
        snap.estimator.encode_binary(&mut estimator).unwrap();
        let mut sections = vec![
            (
                section_id::CONFIG,
                serde_json::to_string(&snap.config).unwrap().into_bytes(),
            ),
            (section_id::DATASET, vio::encode(&snap.data).to_vec()),
            (section_id::ESTIMATOR, estimator),
        ];
        if let Some(report) = &snap.calibration {
            let json = serde_json::to_string(report).unwrap();
            sections.push((section_id::CALIBRATION, json.into_bytes()));
        }
        if let Some(engine) = &snap.engine {
            sections.push((section_id::ENGINE, engine.encode()));
        }
        sections
    }

    /// `snap` hand-built in the legacy container of format `version`.
    fn legacy_bytes(version: u32, snap: &Snapshot) -> Vec<u8> {
        let sections = raw_sections(snap);
        let refs: Vec<(u32, &[u8])> = sections.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        build_raw(version, &refs)
    }

    /// The committed unsharded format-v4 fixture. It was written while the
    /// ε-grid engine existed: its config names the grid and its engine
    /// section holds a grid structure (engine kind 1).
    const GRID_ERA_V4: &[u8] = include_bytes!("../../../tests/fixtures/golden_v4.lafs");

    /// Absolute `(start, len)` of section `wanted`'s body inside an encoded
    /// v2+ snapshot, read from the (trusted) header table.
    fn section_span(bytes: &[u8], wanted: u32) -> (usize, usize) {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header_len = 12 + count * 24;
        for entry in 0..count {
            let at = 12 + entry * 24;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if id != wanted {
                continue;
            }
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            return (header_len + offset, len);
        }
        panic!("section {wanted} not present");
    }

    /// `bytes` with one bit flipped in the middle of section `id`'s body.
    fn corrupt_section(bytes: &[u8], id: u32) -> Vec<u8> {
        let (start, len) = section_span(bytes, id);
        assert!(len > 0, "section {id} is empty");
        let mut corrupt = bytes.to_vec();
        corrupt[start + len / 2] ^= 0x01;
        corrupt
    }

    #[test]
    fn degraded_decode_survives_a_corrupt_engine_section() {
        // A grid-era file: the clean load reads the retired grid as the
        // linear scan, in the config and in the engine section.
        let bytes = GRID_ERA_V4;
        let (snap, clean) = Snapshot::decode_degraded(bytes).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.to_string(), "clean load");
        assert_eq!(snap.config.engine, EngineChoice::Linear);
        assert_eq!(
            snap.engine,
            Some(PersistedEngine::Linear {
                metric: snap.config.metric
            })
        );
        let corrupt = corrupt_section(bytes, section_id::ENGINE);
        // The strict path still rejects the file outright, naming the
        // section.
        let err = Snapshot::decode(&corrupt).unwrap_err().to_string();
        assert!(
            err.contains("section `engine`") && err.contains("checksum mismatch"),
            "unexpected error: {err}"
        );
        let (back, report) = Snapshot::decode_degraded(&corrupt).unwrap();
        assert_eq!(report.sections, vec![DegradedSection::Engine]);
        assert!(!report.is_clean());
        assert!(back.engine.is_none(), "corrupt engine must be dropped");
        // Everything the engine is derived from survived untouched, and the
        // rebuild the config asks for is the linear scan.
        assert_eq!(back.data, snap.data);
        assert_eq!(back.config, snap.config);
        assert_eq!(back.config.engine, EngineChoice::Linear);
    }

    #[test]
    fn degraded_decode_substitutes_a_gate_off_estimator() {
        let snap = trained_snapshot();
        let bytes = snap.encode().unwrap().to_vec();
        let corrupt = corrupt_section(&bytes, section_id::ESTIMATOR);
        assert!(Snapshot::decode(&corrupt).is_err());
        let (back, report) = Snapshot::decode_degraded(&corrupt).unwrap();
        assert_eq!(report.sections, vec![DegradedSection::Estimator]);
        assert_eq!(back.estimator.data_dim(), snap.data.dim());
        // The substitute predicts an enormous finite cardinality for every
        // query, so no gate threshold can ever skip a range query.
        for i in (0..back.data.len()).step_by(29) {
            let e =
                laf_cardest::CardinalityEstimator::estimate(&back.estimator, back.data.row(i), 0.3);
            assert!(e.is_finite() && e > 1.0e30, "gate-off estimate {e}");
        }
        assert!(report.to_string().contains("exact-only"));
        // Clustered through the degraded pipeline, every range query runs
        // and the labels are exact DBSCAN's.
        let exact = Dbscan::with_params(back.config.eps, back.config.min_pts).cluster(&back.data);
        let (clustering, stats) = crate::LafPipeline::from_snapshot(back).cluster_with_stats();
        assert_eq!(stats.skipped_range_queries, 0, "gate-off skips nothing");
        assert_eq!(clustering.labels(), exact.labels());
    }

    #[test]
    fn degraded_decode_drops_a_corrupt_calibration_summary() {
        let mut snap = trained_snapshot();
        snap.calibration = Some(QErrorReport {
            evaluated: 9,
            non_finite: 0,
            mean: 1.3,
            median: 1.1,
            p95: 2.2,
            max: 4.4,
        });
        let bytes = snap.encode().unwrap().to_vec();
        let corrupt = corrupt_section(&bytes, section_id::CALIBRATION);
        let (back, report) = Snapshot::decode_degraded(&corrupt).unwrap();
        assert_eq!(report.sections, vec![DegradedSection::Calibration]);
        assert!(back.calibration.is_none());
        assert_eq!(back.data, snap.data);
    }

    #[test]
    fn degraded_decode_still_fails_on_structural_corruption() {
        let snap = snapshot_with_engine(EngineChoice::Linear);
        let bytes = snap.encode().unwrap().to_vec();
        for id in [section_id::CONFIG, section_id::DATASET] {
            let corrupt = corrupt_section(&bytes, id);
            let err = Snapshot::decode_degraded(&corrupt).unwrap_err().to_string();
            assert!(
                err.contains(&format!("section `{}`", section_id::name(id)))
                    && err.contains("checksum mismatch"),
                "structural section {id} must hard-fail, got: {err}"
            );
        }
        // Sharded structural sections hard-fail the same way.
        let sharded = sharded_snapshot(EngineChoice::CoverTree { basis: 2.0 }, 3);
        let sbytes = sharded.encode().unwrap().to_vec();
        for id in [section_id::SHARD_MANIFEST, section_id::shard_dataset(1)] {
            let corrupt = corrupt_section(&sbytes, id);
            assert!(Snapshot::decode_degraded(&corrupt).is_err(), "section {id}");
        }
    }

    #[test]
    fn degraded_decode_rebuilds_only_the_corrupt_shard_engine() {
        let snap = sharded_snapshot(EngineChoice::CoverTree { basis: 2.0 }, 3);
        let bytes = snap.encode().unwrap().to_vec();
        let corrupt = corrupt_section(&bytes, section_id::shard_engine(1));
        let (back, report) = Snapshot::decode_degraded(&corrupt).unwrap();
        assert_eq!(report.sections, vec![DegradedSection::ShardEngine(1)]);
        assert!(back.shards[0].engine.is_some());
        assert!(
            back.shards[1].engine.is_none(),
            "corrupt shard engine drops"
        );
        assert!(back.shards[2].engine.is_some());
        assert_eq!(back.data, snap.data);
    }

    #[test]
    fn validate_header_is_shallow_and_verify_file_is_deep() {
        let snap = snapshot_with_engine(EngineChoice::CoverTree { basis: 2.0 });
        let path = temp_path("verify.lafs");
        snap.save(&path).unwrap();
        Snapshot::validate_header(&path).unwrap();
        Snapshot::verify_file(&path).unwrap();

        // A body flip passes the shallow header check but fails the scrub.
        let bytes = fs::read(&path).unwrap();
        let body_corrupt = corrupt_section(&bytes, section_id::DATASET);
        fs::write(&path, &body_corrupt).unwrap();
        Snapshot::validate_header(&path).unwrap();
        let err = Snapshot::verify_file(&path).unwrap_err().to_string();
        assert!(err.contains("section `dataset`"), "unexpected error: {err}");

        // A header flip fails both.
        let mut header_corrupt = bytes.clone();
        header_corrupt[9] ^= 0x01; // inside the section count
        fs::write(&path, &header_corrupt).unwrap();
        assert!(Snapshot::validate_header(&path).is_err());
        assert!(Snapshot::verify_file(&path).is_err());
        fs::remove_file(path).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_round_trip_is_bit_exact() {
        let snap = trained_snapshot();
        let bytes = snap.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.data, snap.data);
        assert!(back.calibration.is_none());
        assert!(back.engine.is_none());
        for i in 0..snap.data.len() {
            assert_eq!(
                snap.estimator.estimate(snap.data.row(i), 0.4).to_bits(),
                back.estimator.estimate(back.data.row(i), 0.4).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn v1_snapshots_still_load_without_an_engine() {
        // The backward-compatibility guarantee: a v1 file decodes through the
        // legacy path and reports no persisted engine, so serving falls back
        // to rebuilding from the config.
        let snap = trained_snapshot();
        let bytes = legacy_bytes(1, &snap);
        assert_eq!(bytes[4], 1, "a format-1 file");
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.data, snap.data);
        assert!(back.engine.is_none());
    }

    #[test]
    fn engine_section_round_trips_for_every_persistable_choice() {
        for choice in [
            EngineChoice::Linear,
            EngineChoice::KMeansTree {
                branching: 3,
                leaf_ratio: 0.7,
            },
            EngineChoice::Ivf {
                nlist: 4,
                nprobe: 2,
            },
            EngineChoice::CoverTree { basis: 2.0 },
        ] {
            let snap = snapshot_with_engine(choice);
            let persisted = snap.engine.clone().expect("persistable engine");
            let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
            assert_eq!(back.engine.as_ref(), Some(&persisted), "{choice:?}");
        }
    }

    #[test]
    fn omitted_engine_section_is_not_fatal() {
        // Every engine kind persists now, but the engine section stays
        // optional on the wire (v1 snapshots, hand-assembled values): an
        // omitted section decodes to `None` and serving rebuilds from the
        // config.
        let mut snap = snapshot_with_engine(EngineChoice::CoverTree { basis: 2.0 });
        assert!(snap.engine.is_some(), "cover trees persist their arena");
        snap.engine = None;
        let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert!(back.engine.is_none());
        assert_eq!(back.config.engine, EngineChoice::CoverTree { basis: 2.0 });
    }

    #[test]
    fn calibration_section_round_trips() {
        let mut snap = trained_snapshot();
        snap.calibration = Some(QErrorReport {
            evaluated: 42,
            non_finite: 2,
            mean: 1.5,
            median: 1.2,
            p95: 3.0,
            max: 9.0,
        });
        let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert_eq!(back.calibration, snap.calibration);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        let mut v1 = snap.clone();
        v1.engine = None;
        for bytes in [
            snap.encode().unwrap().to_vec(),
            legacy_bytes(2, &snap),
            legacy_bytes(1, &v1),
        ] {
            // Flip one byte at a sample of positions spread over the whole
            // file: a check (header/per-section CRC in v2+, whole-file CRC
            // in v1, the zero-padding rule in v3) must reject every one.
            let stride = (bytes.len() / 64).max(1);
            for pos in (0..bytes.len()).step_by(stride) {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 0x40;
                assert!(
                    Snapshot::decode(&corrupt).is_err(),
                    "flip at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn corruption_in_each_section_names_that_section() {
        // Flip one byte in the middle of every section's body and demand the
        // decode error name the section — this is the operational win of the
        // v2 per-section CRC table over v1's single whole-file checksum.
        let mut snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        snap.calibration = Some(QErrorReport {
            evaluated: 10,
            non_finite: 0,
            mean: 1.1,
            median: 1.0,
            p95: 2.0,
            max: 3.0,
        });
        let bytes = snap.encode().unwrap().to_vec();
        // Re-derive the section layout from the (trusted) header.
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        assert_eq!(count, 5, "config, dataset, estimator, calibration, engine");
        let header_len = 12 + count * 24;
        for entry in 0..count {
            let at = 12 + entry * 24;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            assert!(len > 0, "section {id} is empty");
            let mut corrupt = bytes.clone();
            corrupt[header_len + offset + len / 2] ^= 0x01;
            let err = Snapshot::decode(&corrupt).unwrap_err().to_string();
            let name = section_id::name(id);
            assert!(
                err.contains(&format!("section `{name}`")) && err.contains("checksum mismatch"),
                "flip inside section {id} produced: {err}"
            );
        }
    }

    #[test]
    fn unsupported_version_is_rejected_with_a_clear_error() {
        let snap = trained_snapshot();
        let sections = raw_sections(&snap);
        let refs: Vec<(u32, &[u8])> = sections.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        let bytes = build_raw(99, &refs);
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("version 99"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncated_and_oversized_inputs_are_rejected() {
        let snap = trained_snapshot();
        for bytes in [snap.encode().unwrap().to_vec(), legacy_bytes(1, &snap)] {
            assert!(Snapshot::decode(&bytes[..8]).is_err());
            let mut extended = bytes.to_vec();
            extended.extend_from_slice(&[0u8; 16]);
            assert!(Snapshot::decode(&extended).is_err());
        }
        assert!(Snapshot::decode(&[]).is_err());
    }

    #[test]
    fn unknown_sections_are_ignored_for_forward_compat() {
        // Append an extra section id 999 in both format versions: a
        // same-version reader must skip it and load the rest normally.
        let snap = trained_snapshot();
        let sections = raw_sections(&snap);
        let mystery = b"from-the-future".to_vec();
        let mut refs: Vec<(u32, &[u8])> =
            sections.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        refs.push((999, &mystery));
        for version in [1, 2, 3, 4] {
            let bytes = build_raw(version, &refs);
            let back = Snapshot::decode(&bytes).unwrap();
            assert_eq!(back.config, snap.config, "version {version}");
            assert_eq!(back.data, snap.data, "version {version}");
        }
    }

    #[test]
    fn missing_required_section_is_named_in_the_error() {
        // Rebuild with only config + dataset: the estimator must be reported.
        let snap = trained_snapshot();
        let sections = raw_sections(&snap);
        let refs: Vec<(u32, &[u8])> = sections
            .iter()
            .filter(|(id, _)| *id != section_id::ESTIMATOR)
            .map(|(i, b)| (*i, b.as_slice()))
            .collect();
        for version in [1, 2, 3, 4] {
            let bytes = build_raw(version, &refs);
            let err = Snapshot::decode(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("estimator"),
                "version {version}: unexpected error: {err}"
            );
        }
    }

    #[test]
    fn engine_config_mismatch_is_rejected() {
        // An engine section whose kind disagrees with the config's engine
        // choice is a malformed snapshot, not a silent fallback.
        let mut snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        snap.config.engine = EngineChoice::Linear;
        let err = Snapshot::decode(&snap.encode().unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("kmeans_tree"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn engine_dataset_mismatch_is_rejected() {
        // A structurally valid engine section persisted over a *different*
        // dataset must fail validation instead of serving wrong neighbors.
        let snap = snapshot_with_engine(EngineChoice::Ivf {
            nlist: 4,
            nprobe: 2,
        });
        let (other, _) = EmbeddingMixtureConfig {
            n_points: 40,
            dim: 6,
            clusters: 2,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let mismatched = Snapshot {
            data: other,
            ..snap
        };
        // Retrain-free estimator/dataset dim both 6, so only the engine
        // coverage check can object.
        let err = Snapshot::decode(&mismatched.encode().unwrap()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Engine(_)),
            "unexpected error: {err}"
        );
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("laf_core_snapshot_v3_test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn encode_writes_version_4_with_eight_byte_aligned_sections() {
        let mut snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        snap.calibration = Some(QErrorReport {
            evaluated: 5,
            non_finite: 0,
            mean: 1.2,
            median: 1.1,
            p95: 2.5,
            max: 4.0,
        });
        let bytes = snap.encode().unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            4,
            "encode must write format version 4"
        );
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        assert_eq!(count, 5);
        let header_len = 12 + count * 24;
        for entry in 0..count {
            let at = 12 + entry * 24;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            assert_eq!(
                (header_len + offset) % SECTION_ALIGN,
                0,
                "section {id} body must start at an 8-byte-aligned file offset"
            );
        }
        // The padded layout still round-trips bit-exactly.
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.data, snap.data);
        assert_eq!(back.calibration, snap.calibration);
        assert_eq!(back.engine, snap.engine);
    }

    #[test]
    fn v2_snapshots_still_load_with_their_engine() {
        let snap = snapshot_with_engine(EngineChoice::Ivf {
            nlist: 4,
            nprobe: 2,
        });
        let bytes = legacy_bytes(2, &snap);
        assert_eq!(bytes[4], 2, "a format-2 file");
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.data, snap.data);
        assert_eq!(back.engine, snap.engine);
    }

    #[test]
    fn v3_snapshots_still_load_with_the_classic_layout() {
        let snap = snapshot_with_engine(EngineChoice::CoverTree { basis: 2.0 });
        let bytes = legacy_bytes(3, &snap);
        assert_eq!(bytes[4], 3, "a format-3 file");
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.data, snap.data);
        assert_eq!(back.engine, snap.engine);
        assert!(back.shards.is_empty());
    }

    #[test]
    fn sharded_snapshots_round_trip_with_per_shard_engines() {
        for n in [1usize, 3] {
            let snap = sharded_snapshot(EngineChoice::CoverTree { basis: 2.0 }, n);
            let bytes = snap.encode().unwrap();
            assert_eq!(bytes[4], 4, "sharded encode must write format version 4");
            let back = Snapshot::decode(&bytes).unwrap();
            assert_eq!(back.config, snap.config);
            assert_eq!(back.data, snap.data, "{n} shards");
            assert!(back.engine.is_none());
            assert_eq!(back.shards.len(), snap.shards.len());
            for (i, (b, s)) in back.shards.iter().zip(&snap.shards).enumerate() {
                assert_eq!(b.data, s.data, "{n} shards: shard {i} rows");
                assert_eq!(b.engine, s.engine, "{n} shards: shard {i} engine");
            }
        }
    }

    #[test]
    fn sharded_decode_reslices_one_shared_allocation() {
        // The owned decode path must not keep two copies of the dataset
        // alive: each shard is a zero-copy view into the concatenated
        // allocation behind `Snapshot::data`.
        let snap = sharded_snapshot(EngineChoice::Linear, 3);
        let back = Snapshot::decode(&snap.encode().unwrap()).unwrap();
        assert!(back.data.backing().is_shared());
        let mut start = 0usize;
        for (i, shard) in back.shards.iter().enumerate() {
            assert!(shard.data.backing().is_shared(), "shard {i}");
            assert_eq!(
                shard.data.as_flat().as_ptr(),
                back.data.as_flat()[start * back.data.dim()..].as_ptr(),
                "shard {i} must alias the full dataset's buffer"
            );
            start += shard.data.len();
        }
        assert_eq!(start, back.data.len());
    }

    #[test]
    fn sharded_mmap_serves_every_shard_in_place() {
        let snap = sharded_snapshot(
            EngineChoice::Ivf {
                nlist: 4,
                nprobe: 4,
            },
            3,
        );
        let path = temp_path("sharded_mapped.lafs");
        snap.save(&path).unwrap();
        let back = Snapshot::open_mmap(&path).unwrap();
        for (i, shard) in back.shards.iter().enumerate() {
            assert!(
                cfg!(target_endian = "big") || shard.data.is_mapped(),
                "shard {i} of a v4 file written by save() must load zero-copy"
            );
        }
        assert_eq!(back.data, snap.data);
        for (b, s) in back.shards.iter().zip(&snap.shards) {
            assert_eq!(b.data, s.data);
            assert_eq!(b.engine, s.engine);
        }
        fs::remove_file(path).ok();
    }

    #[test]
    fn shard_manifest_row_count_mismatch_is_rejected() {
        // Hand-build a v4 file whose manifest disagrees with the shard
        // sections' actual row counts.
        let snap = trained_snapshot();
        let shared = snap.data.clone().into_shared();
        let a = shared.slice_rows(0, 50).unwrap();
        let b = shared.slice_rows(50, 70).unwrap();
        let sections = raw_sections(&snap);
        let mut manifest: Vec<u8> = Vec::new();
        manifest.extend_from_slice(&2u32.to_le_bytes());
        manifest.extend_from_slice(&60u64.to_le_bytes());
        manifest.extend_from_slice(&60u64.to_le_bytes());
        let enc_a = vio::encode(&a);
        let enc_b = vio::encode(&b);
        let refs: Vec<(u32, &[u8])> = vec![
            (section_id::CONFIG, sections[0].1.as_slice()),
            (section_id::ESTIMATOR, sections[2].1.as_slice()),
            (section_id::SHARD_MANIFEST, manifest.as_slice()),
            (section_id::shard_dataset(0), enc_a.as_ref()),
            (section_id::shard_dataset(1), enc_b.as_ref()),
        ];
        let err = Snapshot::decode(&build_raw(4, &refs))
            .unwrap_err()
            .to_string();
        assert!(err.contains("manifest declares"), "unexpected error: {err}");
    }

    #[test]
    fn sharded_corruption_names_the_shard_section() {
        let snap = sharded_snapshot(EngineChoice::CoverTree { basis: 2.0 }, 3);
        let bytes = snap.encode().unwrap().to_vec();
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header_len = 12 + count * 24;
        let mut seen = 0usize;
        for entry in 0..count {
            let at = 12 + entry * 24;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let name = section_id::name(id);
            if name != "shard-dataset" && name != "shard-engine" && name != "shard-manifest" {
                continue;
            }
            seen += 1;
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            let mut corrupt = bytes.clone();
            corrupt[header_len + offset + len / 2] ^= 0x01;
            let err = Snapshot::decode(&corrupt).unwrap_err().to_string();
            assert!(
                err.contains(&format!("section `{name}`")) && err.contains("checksum mismatch"),
                "flip inside section {id} produced: {err}"
            );
        }
        assert_eq!(seen, 7, "manifest + 3 shard datasets + 3 shard engines");
    }

    #[test]
    fn encode_rejects_inconsistent_shard_layouts() {
        // A global engine alongside shards is a layout bug, not a file.
        let mut with_global = sharded_snapshot(EngineChoice::CoverTree { basis: 2.0 }, 2);
        with_global.engine = with_global.shards[0].engine.clone();
        assert!(with_global.encode().is_err());
        // Shard rows must cover the dataset exactly.
        let mut short = sharded_snapshot(EngineChoice::Linear, 3);
        short.shards.pop();
        let err = short.encode().unwrap_err().to_string();
        assert!(err.contains("row counts"), "unexpected error: {err}");
    }

    #[test]
    fn encode_refuses_a_multi_stage_estimator() {
        // The estimator section holds one network: a paper-layout RMI must
        // not reach a reader that would serve its root alone.
        let mut snap = trained_snapshot();
        let training = TrainingSetBuilder {
            max_queries: Some(60),
            ..Default::default()
        }
        .build(&snap.data, &snap.data)
        .unwrap();
        snap.estimator =
            RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::tiny()));
        let mut sink: Vec<u8> = Vec::new();
        // Saved over a valid snapshot, the refused one leaves that file.
        let valid = trained_snapshot();
        let path = temp_path("refused.lafs");
        valid.save(&path).unwrap();
        let results = [
            snap.encode().map(drop),
            snap.encode_to_writer(&mut sink),
            snap.save(&path),
        ];
        for result in results {
            assert!(
                matches!(
                    result,
                    Err(SnapshotError::Vector(VectorError::InvalidParameter(_)))
                ),
                "unexpected result: {result:?}"
            );
        }
        assert!(
            sink.is_empty(),
            "a refused encode wrote {} bytes",
            sink.len()
        );
        let kept = Snapshot::load(&path).unwrap();
        assert_eq!(kept.encode().unwrap(), valid.encode().unwrap());
        fs::remove_file(path).ok();
    }

    #[test]
    fn section_id_names_cover_the_shard_ranges() {
        assert_eq!(section_id::name(section_id::CONFIG), "config");
        assert_eq!(
            section_id::name(section_id::SHARD_MANIFEST),
            "shard-manifest"
        );
        assert_eq!(
            section_id::name(section_id::shard_dataset(0)),
            "shard-dataset"
        );
        assert_eq!(
            section_id::name(section_id::shard_dataset(section_id::MAX_SHARDS - 1)),
            "shard-dataset"
        );
        assert_eq!(
            section_id::name(section_id::shard_engine(0)),
            "shard-engine"
        );
        assert_eq!(
            section_id::name(section_id::shard_engine(section_id::MAX_SHARDS - 1)),
            "shard-engine"
        );
        assert_eq!(section_id::name(999), "unknown");
    }

    #[test]
    fn save_streams_bytes_identical_to_encode() {
        // encode_to_writer is the single writer; save must stream exactly
        // the bytes encode() materializes.
        let snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        let path = temp_path("stream.lafs");
        snap.save(&path).unwrap();
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(on_disk, snap.encode().unwrap().to_vec());
        fs::remove_file(path).ok();
    }

    #[test]
    fn open_mmap_serves_the_dataset_in_place() {
        let snap = snapshot_with_engine(EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 0.7,
        });
        let path = temp_path("mapped.lafs");
        snap.save(&path).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert!(
            cfg!(target_endian = "big") || mapped.data.is_mapped(),
            "a v3 file written by save() must load zero-copy"
        );
        assert_eq!(mapped.data, snap.data);
        assert_eq!(mapped.config, snap.config);
        assert_eq!(mapped.engine, snap.engine);
        // The copying loader agrees with the mapped one bit for bit.
        let copied = Snapshot::load(&path).unwrap();
        assert!(!copied.data.is_mapped());
        assert_eq!(copied.data, mapped.data);
        fs::remove_file(path).ok();
    }

    #[test]
    fn open_mmap_on_v1_and_v2_files_falls_back_to_copying() {
        let snap = trained_snapshot();
        for version in [1u32, 2] {
            let bytes = legacy_bytes(version, &snap);
            let path = temp_path(&format!("legacy_v{version}.lafs"));
            fs::write(&path, &bytes).unwrap();
            let back = Snapshot::open_mmap(&path).unwrap();
            assert!(
                !back.data.is_mapped(),
                "v{version} files must load through the copying path"
            );
            assert_eq!(back.data, snap.data, "version {version}");
            fs::remove_file(path).ok();
        }
    }

    #[test]
    fn misaligned_v3_dataset_falls_back_to_an_owned_copy() {
        // Hand-craft a v3 file that violates the writer's alignment rule: a
        // filler section sized so the dataset's f32 payload lands on an odd
        // file offset. The loader must transparently copy instead of
        // reinterpreting, with byte-identical contents.
        let snap = trained_snapshot();
        let sections = raw_sections(&snap);
        let config = &sections[0];
        assert_eq!(config.0, section_id::CONFIG);
        let header_len = 12 + 4 * 24;
        let mut filler_len = 1usize;
        while (header_len + config.1.len() + filler_len + 20).is_multiple_of(4) {
            filler_len += 1;
        }
        let filler = vec![0xABu8; filler_len];
        let refs: Vec<(u32, &[u8])> = vec![
            (sections[0].0, sections[0].1.as_slice()),
            (999, filler.as_slice()),
            (sections[1].0, sections[1].1.as_slice()),
            (sections[2].0, sections[2].1.as_slice()),
        ];
        assert_eq!(refs[2].0, section_id::DATASET);
        let bytes = build_raw(3, &refs);
        let path = temp_path("misaligned_v3.lafs");
        fs::write(&path, &bytes).unwrap();
        let back = Snapshot::open_mmap(&path).unwrap();
        assert!(
            !back.data.is_mapped(),
            "misaligned payload must not be reinterpreted"
        );
        assert_eq!(back.data, snap.data, "fallback copy must be byte-identical");
        fs::remove_file(path).ok();
    }

    #[test]
    fn nonzero_padding_is_rejected_in_v3() {
        // The alignment padding is the only part of a v3 file no CRC covers;
        // the zero rule keeps "every corrupted byte is detected" true.
        let snap = trained_snapshot();
        let bytes = snap.encode().unwrap().to_vec();
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header_len = 12 + count * 24;
        // header_len = 12 + 24·count ≡ 4 (mod 8), so the first section is
        // always preceded by exactly 4 padding bytes.
        let first_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        assert_eq!(first_offset, 4, "expected 4 bytes of leading padding");
        let mut corrupt = bytes.clone();
        corrupt[header_len] = 0x5A;
        let err = Snapshot::decode(&corrupt).unwrap_err().to_string();
        assert!(err.contains("padding"), "unexpected error: {err}");
    }

    #[test]
    fn file_round_trip() {
        let snap = trained_snapshot();
        let dir = std::env::temp_dir().join("laf_core_snapshot_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.lafs");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.data, snap.data);
        fs::remove_file(path).ok();
        assert!(matches!(
            Snapshot::load("/nonexistent/nope.lafs"),
            Err(SnapshotError::Io(_))
        ));
    }
}
