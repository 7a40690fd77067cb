//! The [`Dataset`] container: a contiguous row-major `f32` matrix.
//!
//! Every clustering algorithm and every range-query engine in this workspace
//! consumes data through this type. Rows are stored contiguously so that the
//! distance kernels in [`crate::ops`] operate on cache-friendly slices.

use crate::error::VectorError;
use crate::ops;
#[cfg(target_endian = "little")]
use memmap2::Mmap;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The storage behind a [`Dataset`]'s flat `f32` buffer: an owned `Vec<f32>`
/// (every mutating constructor), a reference-counted window into a shared
/// heap buffer (shard views over one logical dataset — see
/// [`Dataset::slice_rows`]), or a borrowed window into a memory-mapped
/// snapshot file (zero-copy warm starts — see [`crate::mapped`]).
///
/// Every accessor on [`Dataset`] goes through [`DataBacking::as_slice`], so
/// distance kernels, engines and clustering code are oblivious to which
/// variant they are reading. Mutating a mapped or shared dataset
/// transparently promotes it to an owned copy first (copy-on-write); the
/// serving path never mutates, so it stays zero-copy.
#[derive(Clone, Debug)]
pub enum DataBacking {
    /// Heap-owned flat buffer (the classic backing).
    Owned(Vec<f32>),
    /// A window into a reference-counted heap buffer. This is how N shard
    /// views of one logical dataset share a single allocation: the full
    /// dataset and every [`Dataset::slice_rows`] view bump the same `Arc`.
    SharedOwned(SharedSlice),
    /// A validated window into a shared read-only file mapping. Only
    /// constructed on little-endian targets (the on-disk format is
    /// little-endian `f32`, so reinterpreting the mapped bytes is only valid
    /// there) by [`crate::mapped::dataset_from_map`], which verifies
    /// alignment and bounds before the window exists — [`MappedSlice`]'s
    /// fields are private, so safe downstream code cannot forge an
    /// unvalidated one.
    #[cfg(target_endian = "little")]
    Mapped(MappedSlice),
}

/// A bounds-checked `f32` window into a reference-counted heap buffer.
///
/// Fields are private for the same reason as [`MappedSlice`]: every value is
/// constructed through [`Dataset::into_shared`] / [`Dataset::slice_rows`],
/// which guarantee `offset + len <= buf.len()`.
#[derive(Clone, Debug)]
pub struct SharedSlice {
    /// The shared allocation keeping the window alive.
    buf: Arc<Vec<f32>>,
    /// Offset of the first element within `buf`, in `f32` elements.
    offset: usize,
    /// Number of `f32` elements in the window.
    len: usize,
}

impl SharedSlice {
    /// The shared `f32` view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.offset..self.offset + self.len]
    }
}

/// A bounds- and alignment-checked `f32` window into an [`Mmap`].
///
/// Deliberately opaque: the `unsafe` reinterpret in
/// [`MappedSlice::as_slice`] is sound only because every value of this type
/// went through [`crate::mapped::dataset_from_map`]'s validation, so the
/// fields are private and there is no public constructor.
#[cfg(target_endian = "little")]
#[derive(Clone, Debug)]
pub struct MappedSlice {
    /// The file mapping keeping the window alive.
    map: Arc<Mmap>,
    /// Byte offset of the first `f32` within the mapping (4-byte aligned,
    /// enforced at construction).
    offset: usize,
    /// Number of `f32` elements in the window.
    len: usize,
}

#[cfg(target_endian = "little")]
impl MappedSlice {
    /// The mapped `f32` view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: construction (crate::mapped::dataset_from_map) verified
        // that `offset..offset + len * 4` lies inside the mapping and that
        // `base + offset` is 4-byte aligned; the Arc keeps the mapping alive
        // for the borrow, the mapping is immutable, and every bit pattern is
        // a valid f32.
        unsafe {
            std::slice::from_raw_parts(self.map.as_ptr().add(self.offset) as *const f32, self.len)
        }
    }
}

impl DataBacking {
    /// The flat `f32` view, whichever variant backs it.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        match self {
            DataBacking::Owned(v) => v,
            DataBacking::SharedOwned(window) => window.as_slice(),
            #[cfg(target_endian = "little")]
            DataBacking::Mapped(window) => window.as_slice(),
        }
    }

    /// `true` for the memory-mapped variant.
    pub fn is_mapped(&self) -> bool {
        match self {
            DataBacking::Owned(_) | DataBacking::SharedOwned(_) => false,
            #[cfg(target_endian = "little")]
            DataBacking::Mapped(_) => true,
        }
    }

    /// `true` for the reference-counted shared-heap variant.
    pub fn is_shared(&self) -> bool {
        matches!(self, DataBacking::SharedOwned(_))
    }
}

/// Per-row L2 norms of a [`Dataset`], built lazily by [`Dataset::row_norms`]
/// and cached until the next mutation.
///
/// Both the squared norm (`dot(row, row)`, used by the Euclidean threshold
/// pushdown) and the norm itself (`dot(row, row).sqrt()`, bit-identical to
/// [`ops::norm`], used by the cosine-family kernels) are stored, so the
/// prepared metric forms never recompute either inside a scan loop.
#[derive(Debug)]
pub struct RowNorms {
    sq: Vec<f32>,
    norms: Vec<f32>,
}

impl RowNorms {
    /// L2 norm of row `i`, bit-identical to `ops::norm(dataset.row(i))`.
    #[inline]
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// Squared L2 norm of row `i`, bit-identical to
    /// `ops::dot(dataset.row(i), dataset.row(i))`.
    #[inline]
    pub fn sq(&self, i: usize) -> f32 {
        self.sq[i]
    }

    /// All row norms, indexed by row.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// All squared row norms, indexed by row.
    #[inline]
    pub fn sq_norms(&self) -> &[f32] {
        &self.sq
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// `true` when the cache covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }
}

/// A dense, row-major matrix of `f32` vectors.
///
/// Invariants:
/// * `data.as_slice().len() == len * dim`
/// * `dim > 0` once the first row has been pushed.
/// * `norms`, when populated, caches the current rows' L2 norms (every
///   mutating path funnels through the private `owned_mut` choke point,
///   which clears it).
#[derive(Clone, Debug)]
pub struct Dataset {
    dim: usize,
    len: usize,
    data: DataBacking,
    /// Lazily-built per-row norm cache. `Arc` keeps clones cheap; `OnceLock`
    /// makes the lazy build race-free across concurrent readers.
    norms: OnceLock<Arc<RowNorms>>,
}

/// Semantic equality: same shape, same flat contents — an owned dataset and
/// a mapped dataset over the same bytes compare equal.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.len == other.len && self.as_flat() == other.as_flat()
    }
}

/// Serializes as `{dim, len, data}` with the flat buffer materialized, the
/// same shape the pre-backing derive produced, so JSON fixtures are
/// unaffected by which variant backs the dataset.
impl Serialize for Dataset {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("len".to_string(), self.len.to_value()),
            (
                "data".to_string(),
                serde::value::Value::Array(self.as_flat().iter().map(|x| x.to_value()).collect()),
            ),
        ])
    }
}

impl Deserialize for Dataset {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::de::Error::expected("object", v))?;
        let field = |name: &str| {
            serde::value::find(obj, name)
                .ok_or_else(|| serde::de::Error::msg(format!("missing Dataset field `{name}`")))
        };
        let dim = usize::from_value(field("dim")?)?;
        let len = usize::from_value(field("len")?)?;
        let data = Vec::<f32>::from_value(field("data")?)?;
        let ds = Dataset::from_flat(dim, data)
            .map_err(|e| serde::de::Error::msg(format!("invalid Dataset: {e}")))?;
        if ds.len() != len {
            return Err(serde::de::Error::msg(format!(
                "Dataset `len` field says {len} rows but the buffer holds {}",
                ds.len()
            )));
        }
        Ok(ds)
    }
}

impl Dataset {
    /// Create an empty dataset with the given dimensionality.
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, VectorError> {
        if dim == 0 {
            return Err(VectorError::InvalidParameter(
                "dataset dimensionality must be positive".to_string(),
            ));
        }
        Ok(Self {
            dim,
            len: 0,
            data: DataBacking::Owned(Vec::new()),
            norms: OnceLock::new(),
        })
    }

    /// Create an empty dataset with capacity pre-reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Result<Self, VectorError> {
        let mut d = Self::new(dim)?;
        d.owned_mut().reserve(rows * dim);
        Ok(d)
    }

    /// Build a dataset from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`VectorError::DimensionMismatch`] if the buffer length is not
    /// a multiple of `dim`, or [`VectorError::InvalidParameter`] if `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self, VectorError> {
        if dim == 0 {
            return Err(VectorError::InvalidParameter(
                "dataset dimensionality must be positive".to_string(),
            ));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(VectorError::DimensionMismatch {
                expected: dim,
                found: data.len() % dim,
            });
        }
        let len = data.len() / dim;
        Ok(Self {
            dim,
            len,
            data: DataBacking::Owned(data),
            norms: OnceLock::new(),
        })
    }

    /// Build a dataset over a window of a shared file mapping, without
    /// copying. Used by [`crate::mapped::dataset_from_map`], which performs
    /// the bounds/alignment validation this constructor relies on.
    #[cfg(target_endian = "little")]
    pub(crate) fn from_mapped(
        dim: usize,
        map: Arc<Mmap>,
        byte_offset: usize,
        floats: usize,
    ) -> Self {
        debug_assert!(dim > 0 && floats.is_multiple_of(dim));
        Self {
            dim,
            len: floats / dim,
            data: DataBacking::Mapped(MappedSlice {
                map,
                offset: byte_offset,
                len: floats,
            }),
            norms: OnceLock::new(),
        }
    }

    /// The storage variant backing this dataset (owned or mapped).
    pub fn backing(&self) -> &DataBacking {
        &self.data
    }

    /// `true` when the flat buffer is served zero-copy from a file mapping
    /// rather than an owned heap allocation.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Per-row L2 norms, built on first use and cached until the next
    /// mutation.
    ///
    /// The cache is what turns the prepared cosine distance
    /// ([`crate::Metric::prepare`]) into a single dot product: dataset rows are immutable while
    /// serving, so `||x||` is computed once per row per dataset generation
    /// instead of once per distance evaluation. Any mutating accessor
    /// (including the copy-on-write promotion of a mapped backing) clears the
    /// cache; the next `row_norms` call rebuilds it against the new rows.
    pub fn row_norms(&self) -> &RowNorms {
        self.norms.get_or_init(|| {
            let mut sq = Vec::with_capacity(self.len);
            let mut norms = Vec::with_capacity(self.len);
            for row in self.rows() {
                let s = ops::dot(row, row);
                sq.push(s);
                norms.push(s.sqrt());
            }
            Arc::new(RowNorms { sq, norms })
        })
    }

    /// `true` when the norm cache is currently populated (diagnostics/tests).
    pub fn has_norm_cache(&self) -> bool {
        self.norms.get().is_some()
    }

    /// Mutable access to the owned buffer, promoting a mapped or shared
    /// backing to an owned copy first (copy-on-write). Drops the norm cache:
    /// the rows are about to change, so cached norms would go stale.
    fn owned_mut(&mut self) -> &mut Vec<f32> {
        self.norms.take();
        if !matches!(self.data, DataBacking::Owned(_)) {
            self.data = DataBacking::Owned(self.data.as_slice().to_vec());
        }
        match &mut self.data {
            DataBacking::Owned(v) => v,
            _ => unreachable!("non-owned backing promoted above"),
        }
    }

    /// Build a dataset from an iterator of rows.
    ///
    /// # Errors
    /// Returns [`VectorError::DimensionMismatch`] if any row differs in length
    /// from the first row, or [`VectorError::EmptyDataset`] if the iterator is
    /// empty.
    pub fn from_rows<I, R>(rows: I) -> Result<Self, VectorError>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f32]>,
    {
        let mut iter = rows.into_iter();
        let first = iter.next().ok_or(VectorError::EmptyDataset)?;
        let first = first.as_ref();
        let dim = first.len();
        let mut ds = Dataset::new(dim)?;
        ds.push(first)?;
        for row in iter {
            ds.push(row.as_ref())?;
        }
        Ok(ds)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the dataset has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`. Use [`Dataset::try_row`] for a checked
    /// variant.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Checked row access.
    pub fn try_row(&self, i: usize) -> Result<&[f32], VectorError> {
        if i >= self.len {
            return Err(VectorError::RowOutOfBounds {
                index: i,
                len: self.len,
            });
        }
        Ok(self.row(i))
    }

    /// Append a row.
    ///
    /// # Errors
    /// Returns [`VectorError::DimensionMismatch`] if `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f32]) -> Result<(), VectorError> {
        if row.len() != self.dim {
            return Err(VectorError::DimensionMismatch {
                expected: self.dim,
                found: row.len(),
            });
        }
        self.owned_mut().extend_from_slice(row);
        self.len += 1;
        Ok(())
    }

    /// Iterate over rows as slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.as_slice().chunks_exact(self.dim)
    }

    /// The flat row-major buffer backing this dataset.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Convert an owned backing into a reference-counted shared one without
    /// copying, so [`Dataset::slice_rows`] views can share the allocation.
    /// Mapped and already-shared backings are returned unchanged; the norm
    /// cache survives (the rows do not change).
    pub fn into_shared(mut self) -> Self {
        if let DataBacking::Owned(v) = self.data {
            let len = v.len();
            self.data = DataBacking::SharedOwned(SharedSlice {
                buf: Arc::new(v),
                offset: 0,
                len,
            });
        }
        self
    }

    /// A view of `rows` consecutive rows starting at row `start`, as its own
    /// [`Dataset`]. This is the shard-view primitive: over a shared backing
    /// ([`Dataset::into_shared`]) or a mapped backing the view costs one
    /// reference-count bump and no copy; over a plain owned backing the rows
    /// are copied.
    ///
    /// # Errors
    /// Returns [`VectorError::RowOutOfBounds`] if `start + rows` exceeds the
    /// dataset length.
    pub fn slice_rows(&self, start: usize, rows: usize) -> Result<Dataset, VectorError> {
        let end = start.checked_add(rows).ok_or(VectorError::RowOutOfBounds {
            index: usize::MAX,
            len: self.len,
        })?;
        if end > self.len {
            return Err(VectorError::RowOutOfBounds {
                index: end,
                len: self.len,
            });
        }
        let data = match &self.data {
            DataBacking::Owned(v) => {
                DataBacking::Owned(v[start * self.dim..end * self.dim].to_vec())
            }
            DataBacking::SharedOwned(s) => DataBacking::SharedOwned(SharedSlice {
                buf: Arc::clone(&s.buf),
                offset: s.offset + start * self.dim,
                len: rows * self.dim,
            }),
            // A row boundary is a multiple of `dim * 4` bytes past a 4-byte
            // aligned offset, so the view stays alignment-valid.
            #[cfg(target_endian = "little")]
            DataBacking::Mapped(m) => DataBacking::Mapped(MappedSlice {
                map: Arc::clone(&m.map),
                offset: m.offset + start * self.dim * std::mem::size_of::<f32>(),
                len: rows * self.dim,
            }),
        };
        Ok(Dataset {
            dim: self.dim,
            len: rows,
            data,
            norms: OnceLock::new(),
        })
    }

    /// L2-normalize every row in place (rows with near-zero norm are left
    /// unchanged). Returns the number of rows that could not be normalized.
    pub fn normalize(&mut self) -> usize {
        let (dim, len) = (self.dim, self.len);
        let data = self.owned_mut();
        let mut degenerate = 0;
        for i in 0..len {
            let row = &mut data[i * dim..(i + 1) * dim];
            if ops::normalize_in_place(row) <= 1e-12 {
                degenerate += 1;
            }
        }
        degenerate
    }

    /// `true` when every row has unit L2 norm within `tol`.
    pub fn is_normalized(&self, tol: f32) -> bool {
        self.rows().all(|r| (ops::norm(r) - 1.0).abs() <= tol)
    }

    /// Select the rows at `indices` (in order) into a new dataset.
    ///
    /// # Errors
    /// Returns [`VectorError::RowOutOfBounds`] for any invalid index.
    pub fn select(&self, indices: &[usize]) -> Result<Dataset, VectorError> {
        let mut out = Dataset::with_capacity(self.dim, indices.len())?;
        for &i in indices {
            out.push(self.try_row(i)?)?;
        }
        Ok(out)
    }

    /// Uniformly sample `count` distinct rows without replacement.
    ///
    /// If `count >= len`, a copy of the whole dataset (in shuffled order) is
    /// returned. The returned vector contains the chosen original indices in
    /// the order they appear in the sample.
    pub fn sample<R: Rng>(&self, count: usize, rng: &mut R) -> (Dataset, Vec<usize>) {
        let mut indices: Vec<usize> = (0..self.len).collect();
        indices.shuffle(rng);
        indices.truncate(count.min(self.len));
        let ds = self
            .select(&indices)
            .expect("indices generated from 0..len are always valid");
        (ds, indices)
    }

    /// Split into a training prefix and testing suffix after a seeded shuffle,
    /// using `train_fraction` (paper: 0.8). Returns `(train, test)`.
    pub fn train_test_split<R: Rng>(&self, train_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        let mut indices: Vec<usize> = (0..self.len).collect();
        indices.shuffle(rng);
        let n_train = ((self.len as f64) * train_fraction).round() as usize;
        let n_train = n_train.min(self.len);
        let train = self
            .select(&indices[..n_train])
            .expect("split indices are valid");
        let test = self
            .select(&indices[n_train..])
            .expect("split indices are valid");
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::from_rows(vec![
            vec![1.0f32, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 4.0],
            vec![-1.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.row(2), &[3.0, 4.0]);
        assert_eq!(d.try_row(1).unwrap(), &[0.0, 2.0]);
        assert!(matches!(
            d.try_row(10),
            Err(VectorError::RowOutOfBounds { index: 10, len: 4 })
        ));
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(Dataset::new(0).is_err());
        assert!(Dataset::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn from_flat_checks_multiple() {
        assert!(Dataset::from_flat(3, vec![1.0; 7]).is_err());
        let d = Dataset::from_flat(3, vec![1.0; 9]).unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn from_rows_rejects_ragged_and_empty() {
        let ragged: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(Dataset::from_rows(ragged).is_err());
        let empty: Vec<Vec<f32>> = vec![];
        assert!(matches!(
            Dataset::from_rows(empty),
            Err(VectorError::EmptyDataset)
        ));
    }

    #[test]
    fn push_and_extend() {
        let mut d = Dataset::new(2).unwrap();
        d.push(&[1.0, 2.0]).unwrap();
        assert!(d.push(&[1.0]).is_err());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn normalize_makes_unit_rows() {
        let mut d = toy();
        assert!(!d.is_normalized(1e-4));
        let degenerate = d.normalize();
        assert_eq!(degenerate, 0);
        assert!(d.is_normalized(1e-4));
        assert!((crate::ops::norm(d.row(2)) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_reports_degenerate_rows() {
        let mut d = Dataset::from_rows(vec![vec![0.0f32, 0.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(d.normalize(), 1);
    }

    #[test]
    fn select_and_sample() {
        let d = toy();
        let s = d.select(&[3, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[-1.0, 1.0]);
        assert!(d.select(&[99]).is_err());

        let mut rng = StdRng::seed_from_u64(7);
        let (sample, idx) = d.sample(2, &mut rng);
        assert_eq!(sample.len(), 2);
        assert_eq!(idx.len(), 2);
        assert_ne!(idx[0], idx[1]);

        let (all, idx_all) = d.sample(100, &mut rng);
        assert_eq!(all.len(), 4);
        assert_eq!(idx_all.len(), 4);
    }

    #[test]
    fn train_test_split_partitions_rows() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.train_test_split(0.75, &mut rng);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(train.dim(), 2);
    }

    #[test]
    fn rows_iterator_is_exact_size() {
        let d = toy();
        let it = d.rows();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let d = toy();
        let json = serde_json::to_string(&d).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn row_norms_match_ops_norm_bitwise() {
        let d = toy();
        assert!(!d.has_norm_cache());
        let cache = d.row_norms();
        assert_eq!(cache.len(), d.len());
        assert!(!cache.is_empty());
        for (i, row) in d.rows().enumerate() {
            assert_eq!(cache.norm(i).to_bits(), crate::ops::norm(row).to_bits());
            assert_eq!(cache.sq(i).to_bits(), crate::ops::dot(row, row).to_bits());
        }
        assert_eq!(cache.norms().len(), d.len());
        assert_eq!(cache.sq_norms().len(), d.len());
        assert!(d.has_norm_cache());
    }

    #[test]
    fn norm_cache_is_invalidated_by_every_mutating_path() {
        // push
        let mut d = toy();
        d.row_norms();
        d.push(&[5.0, 12.0]).unwrap();
        assert!(!d.has_norm_cache(), "push must drop the cache");
        assert_eq!(d.row_norms().norm(4), 13.0);

        // normalize
        let mut d = toy();
        d.row_norms();
        d.normalize();
        assert!(!d.has_norm_cache(), "normalize must drop the cache");
        assert!((d.row_norms().norm(2) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn shared_views_alias_one_allocation() {
        let shared = toy().into_shared();
        assert!(shared.backing().is_shared());
        assert!(!shared.is_mapped());
        assert_eq!(shared, toy(), "into_shared must not change contents");

        let head = shared.slice_rows(0, 2).unwrap();
        let tail = shared.slice_rows(2, 2).unwrap();
        assert!(head.backing().is_shared() && tail.backing().is_shared());
        assert_eq!(head.row(1), toy().row(1));
        assert_eq!(tail.row(0), toy().row(2));
        // The views and the full dataset read from the same buffer.
        assert_eq!(
            shared.as_flat().as_ptr(),
            head.as_flat().as_ptr(),
            "head view must alias the shared allocation"
        );
        assert!(shared.slice_rows(3, 2).is_err(), "out-of-bounds view");
        // Empty views are fine (an empty shard).
        assert_eq!(shared.slice_rows(4, 0).unwrap().len(), 0);
    }

    #[test]
    fn slice_rows_on_owned_copies() {
        let d = toy();
        let view = d.slice_rows(1, 2).unwrap();
        assert!(!view.backing().is_shared());
        assert_eq!(view.row(0), d.row(1));
        assert_eq!(view.row(1), d.row(2));
    }

    #[test]
    fn mutating_a_shared_view_promotes_copy_on_write() {
        let shared = toy().into_shared();
        let mut view = shared.slice_rows(0, 2).unwrap();
        view.row_norms();
        view.push(&[42.0, 0.0]).unwrap();
        assert!(
            !view.backing().is_shared(),
            "mutation must promote to owned"
        );
        assert!(!view.has_norm_cache(), "mutation must drop the cache");
        assert_eq!(view.row(2), [42.0, 0.0]);
        // The shared buffer itself is untouched.
        assert_eq!(shared.row(0), toy().row(0));
    }

    #[test]
    fn shared_round_trips_through_serde_and_into_flat() {
        let shared = toy().into_shared();
        let json = serde_json::to_string(&shared).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, shared);
        let view = shared.slice_rows(2, 2).unwrap();
        let json = serde_json::to_string(&view).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.as_flat(), view.as_flat());
    }

    #[test]
    fn norm_cache_survives_clone_cheaply() {
        let d = toy();
        d.row_norms();
        let cloned = d.clone();
        assert!(cloned.has_norm_cache(), "clone shares the Arc'd cache");
        assert_eq!(cloned.row_norms().norms(), d.row_norms().norms());
    }
}
