//! Owned, serializable forms of the built range-query engines.
//!
//! Every engine in this crate indexes a **borrowed** [`Dataset`], so the
//! engines themselves cannot be stored in a snapshot. What *can* be stored is
//! the expensive part of their construction — cover-tree and k-means tree
//! nodes, IVF posting lists — as plain owned data. This module defines
//! those owned forms ([`PersistedEngine`] and its per-engine payloads), a
//! compact little-endian binary codec for them, and [`restore_engine`], which
//! re-attaches a persisted structure to a dataset without re-running the
//! tree / k-means work a fresh [`crate::build_engine`] would pay.
//!
//! Extraction is exposed through [`crate::RangeQueryEngine::persist`]: every
//! engine kind returns `Some(structure)` — the cover tree's node arena is
//! flattened like the k-means tree's ([`PersistedCoverTree`]) — so snapshots
//! never fall back to rebuilding from the [`crate::EngineChoice`] unless the
//! snapshot predates structure persistence (format v1).
//!
//! # Wire format (engine structure version 1)
//!
//! All integers little-endian:
//!
//! ```text
//! magic      4 bytes   b"LAFE"
//! version    u32       currently 1
//! kind       u32       0 = linear, 1 = retired ε-grid (read only),
//!                      2 = k-means tree, 3 = IVF, 4 = cover tree
//! metric     u8        0 cosine, 1 angular, 2 euclidean, 3 squared, 4 negdot
//! body       kind-specific (see the `encode_into` source)
//! ```
//!
//! Kind 1 is the structure of the retired ε-grid engine. The grid was exact,
//! so its answers equal the linear scan's: the decoder reads a kind-1
//! section as the [`PersistedEngine::Linear`] marker with its stored metric
//! and skips the body unread (the containing snapshot has already
//! CRC-checked it). No writer emits kind 1, and the number stays reserved.
//!
//! The decoder validates every element count against the number of bytes
//! actually remaining **before** allocating, so a corrupted or hostile header
//! cannot request a multi-gigabyte allocation from a kilobyte payload (the
//! same discipline as the dataset decoder in `laf_vector::io`). Integrity is
//! the containing snapshot's job (per-section CRC-32 in format v2);
//! consistency with the dataset the structure is restored over is checked by
//! [`PersistedEngine::validate`].

use crate::cover_tree::CoverTree;
use crate::engine::{EngineChoice, RangeQueryEngine};
use crate::ivf::IvfIndex;
use crate::kmeans_tree::KMeansTree;
use crate::linear::LinearScan;
use bytes::{Buf, BufMut};
use laf_vector::{Dataset, Metric};
use std::fmt;

/// Magic bytes prefixing an encoded engine structure.
pub const ENGINE_MAGIC: &[u8; 4] = b"LAFE";
/// Current engine-structure format version. The decoder rejects any other.
pub const ENGINE_FORMAT_VERSION: u32 = 1;

const KIND_LINEAR: u32 = 0;
/// The retired ε-grid; decoded as [`PersistedEngine::Linear`].
const KIND_RETIRED_GRID: u32 = 1;
const KIND_KMEANS_TREE: u32 = 2;
const KIND_IVF: u32 = 3;
const KIND_COVER: u32 = 4;

/// Error produced while encoding, decoding or restoring a persisted engine
/// structure.
#[derive(Debug)]
pub struct PersistError(String);

impl PersistError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "persisted engine: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

fn metric_tag(metric: Metric) -> u8 {
    match metric {
        Metric::Cosine => 0,
        Metric::Angular => 1,
        Metric::Euclidean => 2,
        Metric::SquaredEuclidean => 3,
        Metric::NegDot => 4,
    }
}

fn metric_from_tag(tag: u8) -> Result<Metric, PersistError> {
    Ok(match tag {
        0 => Metric::Cosine,
        1 => Metric::Angular,
        2 => Metric::Euclidean,
        3 => Metric::SquaredEuclidean,
        4 => Metric::NegDot,
        other => return Err(PersistError::new(format!("unknown metric tag {other}"))),
    })
}

/// Guard against allocation-bomb headers: `count` elements of at least
/// `min_bytes` each must fit in the bytes actually remaining.
fn check_count(
    count: u64,
    min_bytes: usize,
    remaining: usize,
    what: &str,
) -> Result<usize, PersistError> {
    let need = count
        .checked_mul(min_bytes as u64)
        .ok_or_else(|| PersistError::new(format!("{what} count {count} overflows")))?;
    if need > remaining as u64 {
        return Err(PersistError::new(format!(
            "{what} count {count} needs at least {need} bytes but only {remaining} remain"
        )));
    }
    Ok(count as usize)
}

/// One k-means tree node. Leaves carry points and no children; internal
/// nodes carry children and no points.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedKmNode {
    /// Mean of the points below this node.
    pub centroid: Vec<f32>,
    /// Child node ids (empty for leaves).
    pub children: Vec<u32>,
    /// Dataset rows stored at this node (leaves only).
    pub points: Vec<u32>,
}

/// The built structure of a [`KMeansTree`]: everything the recursive k-means
/// construction produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedKMeansTree {
    /// Metric the tree answers queries under.
    pub metric: Metric,
    /// Branching factor the tree was built with.
    pub branching: u32,
    /// Fraction of leaves each query visits.
    pub leaf_ratio: f64,
    /// Root node id (`None` only for an empty dataset).
    pub root: Option<u32>,
    /// Flat node arena; child ids index into it.
    pub nodes: Vec<PersistedKmNode>,
}

/// One IVF posting list with its coarse centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedIvfList {
    /// Coarse quantizer centroid of this list.
    pub centroid: Vec<f32>,
    /// Dataset rows assigned to this list.
    pub points: Vec<u32>,
}

/// The built structure of an [`IvfIndex`]: the trained coarse quantizer and
/// its posting lists.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedIvf {
    /// Metric the index answers queries under.
    pub metric: Metric,
    /// Number of posting lists probed per query.
    pub nprobe: u32,
    /// Dimensionality of the centroids (and the indexed dataset).
    pub dim: u32,
    /// Non-empty posting lists.
    pub lists: Vec<PersistedIvfList>,
}

/// One cover-tree node. Leaves carry points and no children; internal nodes
/// carry children and no points (their center row is owned by one of the
/// child subtrees).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedCtNode {
    /// Dataset row index of this node's center.
    pub center: u32,
    /// Covering radius in the tree's internal Euclidean space.
    pub radius: f32,
    /// Child node ids (empty for leaves).
    pub children: Vec<u32>,
    /// Dataset rows stored at this node (leaves only).
    pub points: Vec<u32>,
}

/// The built structure of a [`CoverTree`]: the flat node arena the
/// farthest-point-sampling construction produces, plus the basis knob.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedCoverTree {
    /// Metric the tree answers queries under (internally the tree works in
    /// Euclidean space and converts thresholds; see [`crate::cover_tree`]).
    pub metric: Metric,
    /// Basis the tree was built with (strictly greater than 1).
    pub basis: f32,
    /// Root node id (`None` only for an empty dataset).
    pub root: Option<u32>,
    /// Flat node arena; child ids index into it.
    pub nodes: Vec<PersistedCtNode>,
}

/// An owned, serializable engine structure, extracted from a built engine via
/// [`RangeQueryEngine::persist`] and re-attached to a dataset via
/// [`restore_engine`].
///
/// The `Linear` variant is a deliberate no-op marker: a [`LinearScan`] has no
/// construction cost worth persisting, but recording it lets a snapshot say
/// "the engine was linear" without falling back to the config-rebuild path.
/// Sections of the retired ε-grid decode to it too (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum PersistedEngine {
    /// Marker for an exact [`LinearScan`] (nothing to persist beyond the
    /// metric).
    Linear {
        /// Metric the scan answers queries under.
        metric: Metric,
    },
    /// A built [`KMeansTree`].
    KMeansTree(PersistedKMeansTree),
    /// A built [`IvfIndex`].
    Ivf(PersistedIvf),
    /// A built [`CoverTree`].
    CoverTree(PersistedCoverTree),
}

impl PersistedEngine {
    /// Human-readable engine kind, used in error messages and bench reports.
    pub fn kind(&self) -> &'static str {
        match self {
            PersistedEngine::Linear { .. } => "linear",
            PersistedEngine::KMeansTree(_) => "kmeans_tree",
            PersistedEngine::Ivf(_) => "ivf",
            PersistedEngine::CoverTree(_) => "cover_tree",
        }
    }

    /// Metric the persisted structure answers queries under.
    pub fn metric(&self) -> Metric {
        match self {
            PersistedEngine::Linear { metric } => *metric,
            PersistedEngine::KMeansTree(t) => t.metric,
            PersistedEngine::Ivf(i) => i.metric,
            PersistedEngine::CoverTree(t) => t.metric,
        }
    }

    /// Whether this structure is the built form of the given
    /// [`EngineChoice`] variant (kind comparison only; parameters such as the
    /// branching factor are carried by the structure itself).
    pub fn matches_choice(&self, choice: &EngineChoice) -> bool {
        matches!(
            (self, choice),
            (PersistedEngine::Linear { .. }, EngineChoice::Linear)
                | (
                    PersistedEngine::KMeansTree(_),
                    EngineChoice::KMeansTree { .. }
                )
                | (PersistedEngine::Ivf(_), EngineChoice::Ivf { .. })
                | (
                    PersistedEngine::CoverTree(_),
                    EngineChoice::CoverTree { .. }
                )
        )
    }

    /// Append the binary encoding (see the [module docs](self)) to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_slice(ENGINE_MAGIC);
        buf.put_u32_le(ENGINE_FORMAT_VERSION);
        match self {
            PersistedEngine::Linear { metric } => {
                buf.put_u32_le(KIND_LINEAR);
                buf.put_u8(metric_tag(*metric));
            }
            PersistedEngine::KMeansTree(t) => {
                buf.put_u32_le(KIND_KMEANS_TREE);
                buf.put_u8(metric_tag(t.metric));
                buf.put_u32_le(t.branching);
                buf.put_f64_le(t.leaf_ratio);
                match t.root {
                    Some(root) => {
                        buf.put_u8(1);
                        buf.put_u32_le(root);
                    }
                    None => {
                        buf.put_u8(0);
                        buf.put_u32_le(0);
                    }
                }
                let dim = t.nodes.first().map_or(0, |n| n.centroid.len());
                buf.put_u32_le(dim as u32);
                buf.put_u64_le(t.nodes.len() as u64);
                for node in &t.nodes {
                    for &x in &node.centroid {
                        buf.put_f32_le(x);
                    }
                    buf.put_u32_le(node.children.len() as u32);
                    for &c in &node.children {
                        buf.put_u32_le(c);
                    }
                    buf.put_u32_le(node.points.len() as u32);
                    for &p in &node.points {
                        buf.put_u32_le(p);
                    }
                }
            }
            PersistedEngine::Ivf(i) => {
                buf.put_u32_le(KIND_IVF);
                buf.put_u8(metric_tag(i.metric));
                buf.put_u32_le(i.nprobe);
                buf.put_u32_le(i.dim);
                buf.put_u64_le(i.lists.len() as u64);
                for list in &i.lists {
                    for &x in &list.centroid {
                        buf.put_f32_le(x);
                    }
                    buf.put_u32_le(list.points.len() as u32);
                    for &p in &list.points {
                        buf.put_u32_le(p);
                    }
                }
            }
            PersistedEngine::CoverTree(t) => {
                buf.put_u32_le(KIND_COVER);
                buf.put_u8(metric_tag(t.metric));
                buf.put_f32_le(t.basis);
                match t.root {
                    Some(root) => {
                        buf.put_u8(1);
                        buf.put_u32_le(root);
                    }
                    None => {
                        buf.put_u8(0);
                        buf.put_u32_le(0);
                    }
                }
                buf.put_u64_le(t.nodes.len() as u64);
                for node in &t.nodes {
                    buf.put_u32_le(node.center);
                    buf.put_f32_le(node.radius);
                    buf.put_u32_le(node.children.len() as u32);
                    for &c in &node.children {
                        buf.put_u32_le(c);
                    }
                    buf.put_u32_le(node.points.len() as u32);
                    for &p in &node.points {
                        buf.put_u32_le(p);
                    }
                }
            }
        }
    }

    /// Encode into a fresh byte vector (convenience over
    /// [`PersistedEngine::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode a structure produced by [`PersistedEngine::encode_into`]. A
    /// structure of the retired ε-grid (kind 1) decodes as the
    /// [`PersistedEngine::Linear`] marker with its stored metric.
    ///
    /// # Errors
    /// Returns [`PersistError`] on bad magic, an unsupported version, an
    /// unknown kind or metric tag, element counts that exceed the remaining
    /// payload (allocation-bomb guard), truncation, or trailing bytes.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.remaining() < 13 {
            return Err(PersistError::new(format!(
                "{} bytes is shorter than the fixed header",
                bytes.remaining()
            )));
        }
        let mut magic = [0u8; 4];
        bytes.copy_to_slice(&mut magic);
        if &magic != ENGINE_MAGIC {
            return Err(PersistError::new(format!("bad magic {magic:?}")));
        }
        let version = bytes.get_u32_le();
        if version != ENGINE_FORMAT_VERSION {
            return Err(PersistError::new(format!(
                "unsupported engine structure version {version} (this reader supports {ENGINE_FORMAT_VERSION})"
            )));
        }
        let kind = bytes.get_u32_le();
        let metric = metric_from_tag(bytes.get_u8())?;
        let engine = match kind {
            KIND_LINEAR => PersistedEngine::Linear { metric },
            // The body is skipped unread: the snapshot container has
            // already CRC-checked it, and the linear scan needs none of it.
            KIND_RETIRED_GRID => return Ok(PersistedEngine::Linear { metric }),
            KIND_KMEANS_TREE => {
                PersistedEngine::KMeansTree(Self::decode_kmeans_tree(&mut bytes, metric)?)
            }
            KIND_IVF => PersistedEngine::Ivf(Self::decode_ivf(&mut bytes, metric)?),
            KIND_COVER => PersistedEngine::CoverTree(Self::decode_cover(&mut bytes, metric)?),
            other => return Err(PersistError::new(format!("unknown engine kind {other}"))),
        };
        if bytes.remaining() != 0 {
            return Err(PersistError::new(format!(
                "{} trailing bytes after the engine structure",
                bytes.remaining()
            )));
        }
        Ok(engine)
    }

    fn decode_kmeans_tree(
        bytes: &mut &[u8],
        metric: Metric,
    ) -> Result<PersistedKMeansTree, PersistError> {
        if bytes.remaining() < 29 {
            return Err(PersistError::new("k-means tree header truncated"));
        }
        let branching = bytes.get_u32_le();
        let leaf_ratio = bytes.get_f64_le();
        let has_root = bytes.get_u8();
        let root_id = bytes.get_u32_le();
        let root = match has_root {
            0 => None,
            1 => Some(root_id),
            other => {
                return Err(PersistError::new(format!(
                    "invalid root presence flag {other}"
                )))
            }
        };
        let dim = bytes.get_u32_le() as usize;
        let n_nodes = bytes.get_u64_le();
        // Each node carries at least its centroid and two counts.
        let min_node = dim.saturating_mul(4).saturating_add(8);
        let n_nodes = check_count(n_nodes, min_node.max(8), bytes.remaining(), "k-means node")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            if bytes.remaining() < dim * 4 + 4 {
                return Err(PersistError::new("k-means node truncated"));
            }
            let mut centroid = Vec::with_capacity(dim);
            for _ in 0..dim {
                centroid.push(bytes.get_f32_le());
            }
            let n_children = bytes.get_u32_le() as u64;
            let n_children = check_count(n_children, 4, bytes.remaining(), "k-means child")?;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                children.push(bytes.get_u32_le());
            }
            if bytes.remaining() < 4 {
                return Err(PersistError::new("k-means node truncated"));
            }
            let n_points = bytes.get_u32_le() as u64;
            let n_points = check_count(n_points, 4, bytes.remaining(), "k-means leaf point")?;
            let mut points = Vec::with_capacity(n_points);
            for _ in 0..n_points {
                points.push(bytes.get_u32_le());
            }
            nodes.push(PersistedKmNode {
                centroid,
                children,
                points,
            });
        }
        Ok(PersistedKMeansTree {
            metric,
            branching,
            leaf_ratio,
            root,
            nodes,
        })
    }

    fn decode_ivf(bytes: &mut &[u8], metric: Metric) -> Result<PersistedIvf, PersistError> {
        if bytes.remaining() < 16 {
            return Err(PersistError::new("IVF header truncated"));
        }
        let nprobe = bytes.get_u32_le();
        let dim = bytes.get_u32_le();
        let n_lists = bytes.get_u64_le();
        let min_list = (dim as usize).saturating_mul(4).saturating_add(4);
        let n_lists = check_count(n_lists, min_list.max(4), bytes.remaining(), "IVF list")?;
        let mut lists = Vec::with_capacity(n_lists);
        for _ in 0..n_lists {
            if bytes.remaining() < dim as usize * 4 + 4 {
                return Err(PersistError::new("IVF list truncated"));
            }
            let mut centroid = Vec::with_capacity(dim as usize);
            for _ in 0..dim {
                centroid.push(bytes.get_f32_le());
            }
            let n_points = bytes.get_u32_le() as u64;
            let n_points = check_count(n_points, 4, bytes.remaining(), "IVF list point")?;
            let mut points = Vec::with_capacity(n_points);
            for _ in 0..n_points {
                points.push(bytes.get_u32_le());
            }
            lists.push(PersistedIvfList { centroid, points });
        }
        Ok(PersistedIvf {
            metric,
            nprobe,
            dim,
            lists,
        })
    }

    fn decode_cover(bytes: &mut &[u8], metric: Metric) -> Result<PersistedCoverTree, PersistError> {
        if bytes.remaining() < 17 {
            return Err(PersistError::new("cover tree header truncated"));
        }
        let basis = bytes.get_f32_le();
        let has_root = bytes.get_u8();
        let root_id = bytes.get_u32_le();
        let root = match has_root {
            0 => None,
            1 => Some(root_id),
            other => {
                return Err(PersistError::new(format!(
                    "invalid root presence flag {other}"
                )))
            }
        };
        let n_nodes = bytes.get_u64_le();
        // Each node carries at least its center, radius and two counts.
        let n_nodes = check_count(n_nodes, 16, bytes.remaining(), "cover-tree node")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            if bytes.remaining() < 12 {
                return Err(PersistError::new("cover-tree node truncated"));
            }
            let center = bytes.get_u32_le();
            let radius = bytes.get_f32_le();
            let n_children = bytes.get_u32_le() as u64;
            let n_children = check_count(n_children, 4, bytes.remaining(), "cover-tree child")?;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                children.push(bytes.get_u32_le());
            }
            if bytes.remaining() < 4 {
                return Err(PersistError::new("cover-tree node truncated"));
            }
            let n_points = bytes.get_u32_le() as u64;
            let n_points = check_count(n_points, 4, bytes.remaining(), "cover-tree leaf point")?;
            let mut points = Vec::with_capacity(n_points);
            for _ in 0..n_points {
                points.push(bytes.get_u32_le());
            }
            nodes.push(PersistedCtNode {
                center,
                radius,
                children,
                points,
            });
        }
        Ok(PersistedCoverTree {
            metric,
            basis,
            root,
            nodes,
        })
    }

    /// Check the structure is consistent with a dataset of `n_points` rows in
    /// `dim` dimensions: coordinate/centroid dimensionalities match, every
    /// point index is in range, every row is bucketed **exactly once** (a
    /// duplicated index cannot mask an omitted row), the k-means and cover
    /// tree arenas are single well-formed trees (so traversal terminates and
    /// visits each leaf at most once), and the structural parameters are in
    /// their valid domains.
    ///
    /// # Errors
    /// Returns [`PersistError`] naming the first inconsistency found.
    pub fn validate(&self, n_points: usize, dim: usize) -> Result<(), PersistError> {
        // Marks each bucketed row; a row seen twice is rejected immediately,
        // so the final exactly-once check reduces to comparing counts.
        fn mark_rows(
            points: &[u32],
            seen: &mut [bool],
            covered: &mut u64,
        ) -> Result<(), PersistError> {
            for &p in points {
                let Some(slot) = seen.get_mut(p as usize) else {
                    return Err(PersistError::new(format!(
                        "point index {p} out of range for {} dataset rows",
                        seen.len()
                    )));
                };
                if *slot {
                    return Err(PersistError::new(format!(
                        "point index {p} is bucketed more than once"
                    )));
                }
                *slot = true;
                *covered += 1;
            }
            Ok(())
        }
        let check_coverage = |covered: u64| -> Result<(), PersistError> {
            if covered != n_points as u64 {
                return Err(PersistError::new(format!(
                    "structure buckets {covered} points but the dataset has {n_points} rows"
                )));
            }
            Ok(())
        };
        let mut seen = vec![false; n_points];
        match self {
            PersistedEngine::Linear { .. } => Ok(()),
            PersistedEngine::KMeansTree(t) => {
                if t.branching < 2 {
                    return Err(PersistError::new(format!(
                        "branching {} below the minimum of 2",
                        t.branching
                    )));
                }
                if !(t.leaf_ratio > 0.0 && t.leaf_ratio <= 1.0) {
                    return Err(PersistError::new(format!(
                        "leaf ratio {} outside (0, 1]",
                        t.leaf_ratio
                    )));
                }
                let root = match t.root {
                    Some(root) if (root as usize) < t.nodes.len() => root as usize,
                    Some(root) => {
                        return Err(PersistError::new(format!(
                            "root id {root} out of range for {} nodes",
                            t.nodes.len()
                        )))
                    }
                    None if t.nodes.is_empty() && n_points == 0 => return Ok(()),
                    None => {
                        return Err(PersistError::new(
                            "tree has nodes or points but no root".to_string(),
                        ))
                    }
                };
                // The builder pushes children before their parent, so a
                // well-formed arena has every child id strictly below its
                // parent's and every node referenced by exactly one parent
                // (the root, pushed last, by none). Enforcing that shape
                // rules out cycles and shared subtrees — without it a
                // CRC-valid crafted section could make `traverse` loop
                // forever or visit a leaf twice.
                let mut has_parent = vec![false; t.nodes.len()];
                let mut covered = 0u64;
                for (id, node) in t.nodes.iter().enumerate() {
                    if node.centroid.len() != dim {
                        return Err(PersistError::new(
                            "k-means centroid dimension mismatch".to_string(),
                        ));
                    }
                    // Points live on leaves only: `traverse` never visits an
                    // internal node's point list, so points stored there
                    // would pass the coverage count yet be unreachable.
                    if !node.children.is_empty() && !node.points.is_empty() {
                        return Err(PersistError::new(format!(
                            "internal node {id} carries {} points (points belong to leaves)",
                            node.points.len()
                        )));
                    }
                    for &c in &node.children {
                        let c = c as usize;
                        if c >= id {
                            return Err(PersistError::new(format!(
                                "child id {c} is not strictly below its parent node {id}"
                            )));
                        }
                        if has_parent[c] {
                            return Err(PersistError::new(format!(
                                "node {c} is referenced by more than one parent"
                            )));
                        }
                        has_parent[c] = true;
                    }
                    mark_rows(&node.points, &mut seen, &mut covered)?;
                }
                // Exactly one parentless node — and it must be the root:
                // every other node then chains parent-to-parent (indices
                // strictly increasing) up to it, so the whole arena is
                // reachable from the root.
                if has_parent[root] {
                    return Err(PersistError::new(format!(
                        "root node {root} is referenced as another node's child"
                    )));
                }
                if let Some(orphan) = (0..t.nodes.len()).find(|&i| i != root && !has_parent[i]) {
                    return Err(PersistError::new(format!(
                        "node {orphan} is unreachable from the root"
                    )));
                }
                check_coverage(covered)
            }
            PersistedEngine::Ivf(i) => {
                if i.dim as usize != dim {
                    return Err(PersistError::new(format!(
                        "IVF centroids are {}-dimensional but the dataset is {dim}-dimensional",
                        i.dim
                    )));
                }
                if n_points > 0 && (i.nprobe == 0 || i.nprobe as usize > i.lists.len()) {
                    return Err(PersistError::new(format!(
                        "nprobe {} outside 1..={} lists",
                        i.nprobe,
                        i.lists.len()
                    )));
                }
                let mut covered = 0u64;
                for list in &i.lists {
                    if list.centroid.len() != dim {
                        return Err(PersistError::new(
                            "IVF centroid dimension mismatch".to_string(),
                        ));
                    }
                    if list.points.is_empty() {
                        return Err(PersistError::new("IVF holds an empty posting list"));
                    }
                    mark_rows(&list.points, &mut seen, &mut covered)?;
                }
                check_coverage(covered)
            }
            PersistedEngine::CoverTree(t) => {
                if !(t.basis.is_finite() && t.basis > 1.0) {
                    return Err(PersistError::new(format!(
                        "cover-tree basis {} is not greater than 1",
                        t.basis
                    )));
                }
                let root = match t.root {
                    Some(root) if (root as usize) < t.nodes.len() => root as usize,
                    Some(root) => {
                        return Err(PersistError::new(format!(
                            "root id {root} out of range for {} nodes",
                            t.nodes.len()
                        )))
                    }
                    None if t.nodes.is_empty() && n_points == 0 => return Ok(()),
                    None => {
                        return Err(PersistError::new(
                            "tree has nodes or points but no root".to_string(),
                        ))
                    }
                };
                // Same shape discipline as the k-means arena (children are
                // pushed before their parent): child ids strictly below the
                // parent's and exactly one parentless node, the root — this
                // rules out cycles and shared subtrees, so the recursive
                // range/knn traversals terminate and visit each leaf once.
                let mut has_parent = vec![false; t.nodes.len()];
                let mut covered = 0u64;
                for (id, node) in t.nodes.iter().enumerate() {
                    if node.center as usize >= n_points {
                        return Err(PersistError::new(format!(
                            "node {id} center {} out of range for {n_points} dataset rows",
                            node.center
                        )));
                    }
                    if !(node.radius.is_finite() && node.radius >= 0.0) {
                        return Err(PersistError::new(format!(
                            "node {id} radius {} is not a finite non-negative value",
                            node.radius
                        )));
                    }
                    // Points live on leaves only: the traversals never read
                    // an internal node's point list, so points stored there
                    // would pass the coverage count yet be unreachable.
                    if !node.children.is_empty() && !node.points.is_empty() {
                        return Err(PersistError::new(format!(
                            "internal node {id} carries {} points (points belong to leaves)",
                            node.points.len()
                        )));
                    }
                    for &c in &node.children {
                        let c = c as usize;
                        if c >= id {
                            return Err(PersistError::new(format!(
                                "child id {c} is not strictly below its parent node {id}"
                            )));
                        }
                        if has_parent[c] {
                            return Err(PersistError::new(format!(
                                "node {c} is referenced by more than one parent"
                            )));
                        }
                        has_parent[c] = true;
                    }
                    mark_rows(&node.points, &mut seen, &mut covered)?;
                }
                if has_parent[root] {
                    return Err(PersistError::new(format!(
                        "root node {root} is referenced as another node's child"
                    )));
                }
                if let Some(orphan) = (0..t.nodes.len()).find(|&i| i != root && !has_parent[i]) {
                    return Err(PersistError::new(format!(
                        "node {orphan} is unreachable from the root"
                    )));
                }
                check_coverage(covered)
            }
        }
    }
}

/// Re-attach a persisted engine structure to `data`, skipping the
/// construction work a fresh [`crate::build_engine`] would repeat. The
/// structure is [validated](PersistedEngine::validate) against the dataset
/// first; the resulting engine answers every query byte-identically to the
/// engine the structure was extracted from.
///
/// # Errors
/// Returns [`PersistError`] when the structure is inconsistent with `data`.
pub fn restore_engine<'a>(
    persisted: &PersistedEngine,
    data: &'a Dataset,
) -> Result<Box<dyn RangeQueryEngine + 'a>, PersistError> {
    persisted.validate(data.len(), data.dim())?;
    Ok(match persisted {
        PersistedEngine::Linear { metric } => Box::new(LinearScan::new(data, *metric)),
        PersistedEngine::KMeansTree(t) => Box::new(KMeansTree::from_persisted(data, t)?),
        PersistedEngine::Ivf(i) => Box::new(IvfIndex::from_persisted(data, i)?),
        PersistedEngine::CoverTree(t) => Box::new(CoverTree::from_persisted(data, t)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_engine;
    use laf_synth::EmbeddingMixtureConfig;

    fn sample_data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 260,
            dim: 10,
            clusters: 4,
            noise_fraction: 0.2,
            seed: 91,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn choices() -> Vec<EngineChoice> {
        vec![
            EngineChoice::Linear,
            EngineChoice::KMeansTree {
                branching: 4,
                leaf_ratio: 0.6,
            },
            EngineChoice::Ivf {
                nlist: 8,
                nprobe: 3,
            },
            EngineChoice::CoverTree { basis: 2.0 },
        ]
    }

    #[test]
    fn every_persistable_engine_round_trips_byte_identically() {
        let data = sample_data();
        for choice in choices() {
            let built = build_engine(choice, &data, Metric::Cosine);
            let persisted = built.persist().expect("persistable engine");
            assert!(persisted.matches_choice(&choice), "{choice:?}");
            let bytes = persisted.encode();
            let decoded = PersistedEngine::decode(&bytes).unwrap();
            assert_eq!(decoded, persisted, "{choice:?}");
            let restored = restore_engine(&decoded, &data).unwrap();
            assert_eq!(restored.num_points(), data.len());
            assert_eq!(restored.metric(), Metric::Cosine);
            for &q in &[0usize, 100, 259] {
                assert_eq!(
                    restored.range(data.row(q), 0.3),
                    built.range(data.row(q), 0.3),
                    "{choice:?} q={q}"
                );
                let a = restored.knn(data.row(q), 5);
                let b = built.knn(data.row(q), 5);
                assert_eq!(a.len(), b.len(), "{choice:?} q={q}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.index, y.index, "{choice:?} q={q}");
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{choice:?} q={q}");
                }
            }
        }
    }

    #[test]
    fn every_engine_kind_is_persistable() {
        let data = sample_data();
        let built = build_engine(
            EngineChoice::CoverTree { basis: 2.0 },
            &data,
            Metric::Cosine,
        );
        assert!(built.persist().is_some(), "cover tree flattens its arena");
    }

    #[test]
    fn decode_rejects_bad_magic_version_kind_and_metric() {
        let data = sample_data();
        let engine = build_engine(EngineChoice::Linear, &data, Metric::Cosine);
        let bytes = engine.persist().unwrap().encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(PersistedEngine::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(PersistedEngine::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("version 99"));
        let mut bad = bytes.clone();
        bad[8] = 200;
        assert!(PersistedEngine::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("kind"));
        let mut bad = bytes.clone();
        bad[12] = 77;
        assert!(PersistedEngine::decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("metric tag"));
        assert!(PersistedEngine::decode(&bytes[..6]).is_err());
        let mut extended = bytes;
        extended.push(0);
        assert!(PersistedEngine::decode(&extended)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn allocation_bomb_headers_are_rejected_before_allocating() {
        let data = sample_data();
        for choice in [
            EngineChoice::KMeansTree {
                branching: 4,
                leaf_ratio: 0.6,
            },
            EngineChoice::Ivf {
                nlist: 8,
                nprobe: 3,
            },
        ] {
            let built = build_engine(choice, &data, Metric::Cosine);
            let mut bytes = built.persist().unwrap().encode();
            // The element-count u64 sits right after the kind-specific fixed
            // header; overwrite it with u64::MAX at every plausible offset and
            // demand a clean error rather than an OOM / capacity panic.
            for offset in 13..bytes.len().min(64) {
                let mut bomb = bytes.clone();
                if offset + 8 > bomb.len() {
                    break;
                }
                bomb[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                // Any outcome but a panic/OOM is acceptable; most offsets must
                // error out on the count-vs-remaining check.
                let _ = PersistedEngine::decode(&bomb);
            }
            // Targeted: the documented count field itself.
            let count_offset = match choice {
                EngineChoice::KMeansTree { .. } => 34, // ... branching4 ratio8 root5 dim4
                EngineChoice::Ivf { .. } => 21,        // ... nprobe4 dim4
                _ => unreachable!(),
            };
            bytes[count_offset..count_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = PersistedEngine::decode(&bytes).unwrap_err().to_string();
            assert!(
                err.contains("count") || err.contains("overflow"),
                "{choice:?}: {err}"
            );
        }
    }

    #[test]
    fn validate_rejects_out_of_range_points_and_bad_coverage() {
        let data = sample_data();
        let built = build_engine(
            EngineChoice::Ivf {
                nlist: 8,
                nprobe: 3,
            },
            &data,
            Metric::Cosine,
        );
        let persisted = built.persist().unwrap();
        // Consistent with its own dataset…
        persisted.validate(data.len(), data.dim()).unwrap();
        // …but not with a smaller or differently-shaped one.
        assert!(persisted.validate(10, data.dim()).is_err());
        assert!(persisted.validate(data.len(), data.dim() + 1).is_err());
        if let PersistedEngine::Ivf(mut ivf) = persisted {
            ivf.lists[0].points[0] = u32::MAX;
            assert!(PersistedEngine::Ivf(ivf)
                .validate(data.len(), data.dim())
                .unwrap_err()
                .to_string()
                .contains("out of range"));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn validate_rejects_duplicated_rows_that_mask_omitted_ones() {
        // A duplicated index keeps the total count right, so a plain counter
        // would accept a structure that can never return the omitted row.
        let data = sample_data();
        let built = build_engine(
            EngineChoice::Ivf {
                nlist: 8,
                nprobe: 3,
            },
            &data,
            Metric::Cosine,
        );
        let PersistedEngine::Ivf(mut ivf) = built.persist().unwrap() else {
            unreachable!();
        };
        let dup = ivf.lists[1].points[0];
        ivf.lists[0].points[0] = dup;
        let err = PersistedEngine::Ivf(ivf)
            .validate(data.len(), data.dim())
            .unwrap_err()
            .to_string();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn validate_rejects_malformed_tree_arenas() {
        // A CRC-valid but cyclic / shared / disconnected arena must be
        // rejected at validation time — `traverse` would otherwise loop
        // forever or visit leaves twice while serving.
        let data = sample_data();
        let built = build_engine(
            EngineChoice::KMeansTree {
                branching: 4,
                leaf_ratio: 0.6,
            },
            &data,
            Metric::Cosine,
        );
        let PersistedEngine::KMeansTree(tree) = built.persist().unwrap() else {
            unreachable!();
        };
        let internal = tree
            .nodes
            .iter()
            .position(|n| !n.children.is_empty())
            .expect("tree has an internal node") as u32;

        // Self-referencing child (the minimal cycle).
        let mut cyclic = tree.clone();
        cyclic.nodes[internal as usize].children[0] = internal;
        let err = PersistedEngine::KMeansTree(cyclic)
            .validate(data.len(), data.dim())
            .unwrap_err()
            .to_string();
        assert!(err.contains("not strictly below"), "{err}");

        // Shared subtree: two parents pointing at the same child.
        let mut shared = tree.clone();
        let child = shared.nodes[internal as usize].children[0];
        *shared.nodes[internal as usize].children.last_mut().unwrap() = child;
        let err = PersistedEngine::KMeansTree(shared)
            .validate(data.len(), data.dim())
            .unwrap_err()
            .to_string();
        assert!(err.contains("more than one parent"), "{err}");

        // Disconnected node: drop a child edge, its subtree becomes orphaned.
        let mut orphaned = tree.clone();
        orphaned.nodes[internal as usize].children.pop();
        let err = PersistedEngine::KMeansTree(orphaned)
            .validate(data.len(), data.dim())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unreachable"), "{err}");

        // Points on an internal node: coverage would still add up, but
        // `traverse` only visits leaf point lists, so those rows could never
        // be returned by a query.
        let mut misplaced = tree.clone();
        let leaf = misplaced
            .nodes
            .iter()
            .position(|n| n.children.is_empty() && !n.points.is_empty())
            .expect("tree has a populated leaf");
        let moved = std::mem::take(&mut misplaced.nodes[leaf].points);
        misplaced.nodes[internal as usize].points = moved;
        let err = PersistedEngine::KMeansTree(misplaced)
            .validate(data.len(), data.dim())
            .unwrap_err()
            .to_string();
        assert!(err.contains("points belong to leaves"), "{err}");
    }

    #[test]
    fn restore_preserves_tuning_parameters() {
        let data = sample_data();
        let tree = KMeansTree::new(&data, Metric::Cosine, 7, 0.35, 0xC0FFEE);
        let persisted = RangeQueryEngine::persist(&tree).unwrap();
        if let PersistedEngine::KMeansTree(p) = &persisted {
            let restored = KMeansTree::from_persisted(&data, p).unwrap();
            assert_eq!(restored.branching(), tree.branching());
            assert_eq!(restored.leaf_ratio(), tree.leaf_ratio());
            assert_eq!(restored.leaf_count(), tree.leaf_count());
        } else {
            unreachable!();
        }

        let ivf = IvfIndex::new(&data, Metric::Cosine, 9, 4, 0xC0FFEE);
        let persisted = RangeQueryEngine::persist(&ivf).unwrap();
        if let PersistedEngine::Ivf(p) = &persisted {
            let restored = IvfIndex::from_persisted(&data, p).unwrap();
            assert_eq!(restored.nlist(), ivf.nlist());
            assert_eq!(restored.nprobe(), ivf.nprobe());
        } else {
            unreachable!();
        }
    }

    #[test]
    fn retired_grid_structures_decode_as_the_linear_marker() {
        // Kind 1 was the exact ε-grid: its body is skipped unread and the
        // section stands for a linear scan under the stored metric.
        for (tag, metric) in [(0u8, Metric::Cosine), (2, Metric::Euclidean)] {
            let mut bytes = Vec::new();
            bytes.put_slice(ENGINE_MAGIC);
            bytes.put_u32_le(ENGINE_FORMAT_VERSION);
            bytes.put_u32_le(KIND_RETIRED_GRID);
            bytes.put_u8(tag);
            for body in [&[][..], &[0xAB; 37][..]] {
                let mut section = bytes.clone();
                section.put_slice(body);
                assert_eq!(
                    PersistedEngine::decode(&section).unwrap(),
                    PersistedEngine::Linear { metric },
                    "{} body bytes",
                    body.len()
                );
            }
            // The header is still checked: a short section still errors.
            assert!(PersistedEngine::decode(&bytes[..12]).is_err());
        }
    }

    #[test]
    fn empty_dataset_structures_round_trip() {
        let empty = Dataset::new(5).unwrap();
        let tree = KMeansTree::new(&empty, Metric::Cosine, 4, 0.5, 1);
        let persisted = RangeQueryEngine::persist(&tree).unwrap();
        let bytes = persisted.encode();
        let decoded = PersistedEngine::decode(&bytes).unwrap();
        let restored = restore_engine(&decoded, &empty).unwrap();
        assert_eq!(restored.num_points(), 0);
        assert!(restored.range(&[0.0; 5], 0.5).is_empty());
    }
}
