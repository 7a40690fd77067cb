//! Prepared forms of a [`Metric`], with threshold pushdown.
//!
//! Every range query in the workspace bottoms out in a `dist(q, x) < eps`
//! comparison. Evaluated generically through [`Metric::dist`], the paper's
//! primary metric (cosine) recomputes **both** vector norms on every call —
//! three full dot products per distance evaluation — even though dataset
//! rows are immutable during serving and the query is reused across the
//! whole scan. This module removes that waste without changing a single
//! result:
//!
//! * [`Metric::prepare`] computes the query's norm **once per query**;
//! * [`crate::Dataset::row_norms`] caches every row's norm **once per
//!   dataset generation**;
//! * the hot predicates then need **one** dot product per row.
//!
//! # Bit-exactness contract
//!
//! Every prepared path returns *exactly* the result the generic
//! [`Metric::dist`] comparison would have produced — same bits, same
//! degenerate-vector semantics (zero-norm rows keep similarity 0), same NaN
//! behavior — because both evaluate the metric's one formula (see
//! [`crate::distance`]). The per-metric strategies:
//!
//! * **Cosine / Angular / NegDot** — the formula is a function of
//!   `dot(q, x)`, `||q||` and `||x||`; the prepared forms feed it both norms
//!   from caches (bit-identical by construction, since the caches store
//!   exactly `ops::norm(row)`). The O(d) work drops from 3 dot products to
//!   1; the residual `div`/`clamp` (and `acos` for angular) are O(1) per row.
//!   A pure algebraic pushdown (`dot > t·||x||`) would be ~equally fast but
//!   cannot reproduce the scalar path's rounding at the decision boundary,
//!   so it is *not* used for the value-producing cosine family.
//! * **Euclidean / SquaredEuclidean** — in the **tiled scans** the
//!   predicate is pushed down into the dot domain: `||q||² + ||x||² −
//!   2·dot(q,x)` is compared against `eps²` (resp. `eps`) inside a certified
//!   error band. Rows that land clearly inside/outside the band are decided
//!   from the tile's dot lane; rows within the band (a vanishing fraction)
//!   fall back to the exact subtract-form evaluation, so the decision always
//!   matches the scalar path bit-for-bit. The **scalar** predicate and
//!   distance *values* keep the subtract-form kernel: it is already a
//!   single fused pass over both vectors, and a dot-form value would differ
//!   in final ulps.
//!
//! # Tiled scans
//!
//! Tiled scans decide rows through two entry points, both equal to
//! [`RangeProbe::within`] bit for bit. [`RangeProbe::within_dot`] decides
//! one pair from a dot the caller computed in a tile (the row tile of
//! [`crate::tile`]). [`Metric::block`] packs up to sixteen queries into a
//! [`RangeBlock`], whose [`RangeBlock::hits`] returns the hit masks of a
//! group of up to four consecutive rows against all of them: on the packed
//! tiers (AVX-512, which scores the whole group per step, and AVX2), cosine
//! lanes are decided in registers with `within_dot`'s IEEE operations in its
//! order; other tiers and metrics decide each lane of the group's dots with
//! `within_dot`. Every tile lane reproduces `ops::dot`'s accumulation order,
//! so the tiles change how many pairs are in flight, never a bit of a
//! result. [`RangeProbe`] stays
//! opaque: callers hand it back, or rank tree nodes with its
//! [`RangeProbe::prepared`] query, and never read its constants.
//!
//! No engine accepts a custom metric. The cover tree, whose traversal is not
//! a row scan, evaluates [`Metric::dist`] per pair, and so does
//! `laf_index::ReferenceScan`, the brute-force engine the tests check the
//! prepared forms against.

use crate::distance::Metric;
use crate::ops;
use crate::tile::{CosineTest, ProbeBlock, Tier, BLOCK_PROBES, BLOCK_ROWS};

/// Relative half-width of the certified error band used by the Euclidean
/// threshold pushdown, as a multiple of `dim · f32::EPSILON` (see
/// [`RangeProbe::within_dot`]). The factor is deliberately generous: a wider
/// band only sends more rows to the exact fallback, never changes a result.
const EUCLID_BAND_FACTOR: f64 = 8.0;

/// Relative slop covering the `eps → eps²` threshold rounding and the final
/// `sqrt` comparison of the Euclidean pushdown.
const EUCLID_THRESHOLD_SLOP: f64 = 1e-6;

/// Absolute floor of the certified error band. The relative model above
/// assumes every f32 rounding error is proportional to the value, which
/// fails once squared magnitudes reach the subnormal range (gradual
/// underflow rounds with unbounded *relative* error, and products below the
/// smallest subnormal flush to zero outright). Any comparison this close to
/// zero routes to the exact fallback instead. The floor is far above every
/// subnormal-regime error (≤ a few times 1.4e-45 per operation) yet
/// vanishingly small for realistic data, so it never costs a fast path that
/// the relative band would have taken correctly.
const EUCLID_BAND_ABS_FLOOR: f64 = (8.0 * f32::MIN_POSITIVE) as f64;

/// Magnitude ceiling for the Euclidean pushdown's fast paths. Above this the
/// scalar subtract-form evaluation can overflow `f32` to infinity while the
/// `f64` dot-form stays finite — the two would then disagree (`inf < eps` is
/// false even for thresholds the finite dot-form value passes), so such rows
/// always take the exact fallback. `f32::MAX / 8` leaves headroom for the
/// sum of squares and the error band.
const EUCLID_OVERFLOW_GUARD: f64 = (f32::MAX / 8.0) as f64;

impl Metric {
    /// Prepare `q` for repeated [`PreparedQuery::dist`] evaluations (one dot
    /// product, amortized over the whole scan).
    pub fn prepare(self, q: &[f32]) -> PreparedQuery<'_> {
        self.prepare_with_norm(q, ops::dot(q, q).sqrt())
    }

    /// [`Metric::prepare`] with the query's norm supplied by the caller, for
    /// queries that are themselves cached dataset rows (k-means assignment
    /// sweeps prepare every row against the current centroids).
    ///
    /// `norm` must be bit-identical to `ops::norm(q)` — e.g. read from
    /// [`crate::Dataset::row_norms`] — or the bit-exactness contract breaks.
    pub fn prepare_with_norm(self, q: &[f32], norm: f32) -> PreparedQuery<'_> {
        PreparedQuery {
            metric: self,
            q,
            norm,
        }
    }

    /// Prepare `q` for repeated [`RangeProbe::within`] /
    /// [`RangeProbe::within_dot`] predicates against threshold `eps`.
    pub fn probe(self, q: &[f32], eps: f32) -> RangeProbe<'_> {
        let sq = ops::dot(q, q);
        let (accept_below, reject_above) = match self {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                let t = if self == Metric::Euclidean {
                    (eps as f64) * (eps as f64)
                } else {
                    eps as f64
                };
                (
                    t * (1.0 - EUCLID_THRESHOLD_SLOP),
                    t * (1.0 + EUCLID_THRESHOLD_SLOP),
                )
            }
            _ => (0.0, 0.0),
        };
        RangeProbe {
            prepared: self.prepare_with_norm(q, sq.sqrt()),
            sq,
            eps,
            accept_below,
            reject_above,
        }
    }

    /// Prepare up to [`BLOCK_PROBES`] queries for [`RangeBlock::hits`]
    /// against threshold `eps`, on the fastest tier the running CPU supports.
    ///
    /// # Panics
    /// Panics unless `1 <= queries.len() <= BLOCK_PROBES` and every query
    /// has the same length.
    pub fn block<'q>(self, queries: &[&'q [f32]], eps: f32) -> RangeBlock<'q> {
        RangeBlock::with_tier(self, queries, eps, Tier::detect())
    }
}

/// A query prepared for repeated distance evaluations: the norm work that
/// the generic path redoes per row, done once.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'q> {
    metric: Metric,
    q: &'q [f32],
    /// `ops::norm(q)` (bit-identical — computed as `dot(q,q).sqrt()`).
    norm: f32,
}

impl PreparedQuery<'_> {
    /// Distance from the prepared query `q` to row `x` with cached norm
    /// `x_norm`, bit-identical to `metric.dist(q, x)`.
    ///
    /// `x_norm` must be the row's L2 norm as produced by
    /// [`crate::Dataset::row_norms`] (i.e. bit-identical to
    /// `ops::norm(x)`); it is ignored by the metrics that do not need it.
    #[inline]
    pub fn dist(&self, x: &[f32], x_norm: f32) -> f32 {
        match self.metric {
            Metric::Euclidean | Metric::SquaredEuclidean => self
                .metric
                .dist_from_squared(ops::squared_euclidean(self.q, x)),
            _ => self
                .metric
                .dist_from_dot(|| ops::dot(self.q, x), self.norm, x_norm),
        }
    }
}

/// A query prepared for a fixed-threshold range predicate: on top of
/// [`PreparedQuery`], the threshold constants of the Euclidean pushdown are
/// precomputed so the per-row epilogue is branch-cheap.
#[derive(Debug, Clone, Copy)]
pub struct RangeProbe<'q> {
    prepared: PreparedQuery<'q>,
    /// `dot(q, q)` — the squared norm used by the Euclidean pushdown.
    sq: f32,
    eps: f32,
    /// Fast-accept threshold in the squared-distance domain (f64; Euclidean
    /// family only).
    accept_below: f64,
    /// Fast-reject threshold in the squared-distance domain (f64; Euclidean
    /// family only).
    reject_above: f64,
}

impl<'q> RangeProbe<'q> {
    /// The probe's query prepared for distance evaluations, bit-identical
    /// to `metric.prepare(q)`: the tree engines rank their nodes with it
    /// instead of preparing the query a second time.
    pub fn prepared(&self) -> &PreparedQuery<'q> {
        &self.prepared
    }

    /// The range predicate `metric.dist(q, x) < eps` for the probe's query
    /// `q` and threshold `eps`, on the prepared distance: one dot product for the cosine family, the
    /// exact subtract form for the Euclidean family (already a single fused
    /// pass over both vectors, so the dot-form pushdown only pays off behind
    /// a tile that computes the dot anyway: [`RangeProbe::within_dot`]).
    ///
    /// `x_norm` must come from [`crate::Dataset::row_norms`] (or equal
    /// `ops::norm(x)` bit-for-bit).
    #[inline]
    pub fn within(&self, x: &[f32], x_norm: f32) -> bool {
        self.prepared.dist(x, x_norm) < self.eps
    }

    /// The range predicate of [`RangeProbe::within`], decided from a dot
    /// product the caller already has: the entry point of the row tile of
    /// [`crate::tile`], and of every lane [`RangeBlock::hits`] does not
    /// decide in registers.
    ///
    /// `dot` must be bit-identical to `ops::dot(q, x)` — every
    /// tile lane is — and `x_norm`/`x_sq` must come from
    /// [`crate::Dataset::row_norms`]. The cosine family then evaluates its
    /// formula from the dot; the Euclidean family decides clear rows in the
    /// dot domain and re-evaluates boundary rows in the exact subtract form.
    /// Either way the result equals [`RangeProbe::within`].
    #[inline]
    pub fn within_dot(&self, dot: f32, x: &[f32], x_norm: f32, x_sq: f32) -> bool {
        let PreparedQuery { metric, norm, .. } = self.prepared;
        match metric {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                self.euclid_decide(dot, x, x_norm, x_sq)
            }
            _ => metric.dist_from_dot(|| dot, norm, x_norm) < self.eps,
        }
    }

    /// Decide a Euclidean-family predicate from the precomputed dot, with the
    /// certified error band: clear accepts/rejects come from the dot-form
    /// squared distance, boundary rows take [`RangeProbe::within`], so the
    /// result always equals the generic comparison.
    #[inline]
    fn euclid_decide(&self, dot: f32, x: &[f32], x_norm: f32, x_sq: f32) -> bool {
        // Distances are non-negative (or NaN): a non-positive or NaN eps can
        // never admit a row, exactly as the generic `dist < eps` would decide.
        if self.eps <= 0.0 || self.eps.is_nan() {
            return false;
        }
        let q_sq = self.sq as f64;
        let r_sq = x_sq as f64;
        let d = dot as f64;
        let se_dot = q_sq + r_sq - 2.0 * d;
        // Conservative bound on |se_dot - se_subtract|: both forms err from
        // the true value by at most ~dim·ε·magnitude. Magnitudes near f32
        // overflow skip the fast paths entirely (see EUCLID_OVERFLOW_GUARD).
        let magnitude = q_sq + r_sq + 2.0 * d.abs();
        if magnitude < EUCLID_OVERFLOW_GUARD {
            let tol =
                EUCLID_BAND_FACTOR * (x.len() as f64 + 4.0) * (f32::EPSILON as f64) * magnitude
                    + EUCLID_BAND_ABS_FLOOR;
            if se_dot + tol < self.accept_below {
                return true;
            }
            if se_dot - tol > self.reject_above {
                return false;
            }
        }
        // Boundary band (or NaN anywhere): decide exactly like the scalar
        // path.
        self.within(x, x_norm)
    }
}

/// Up to [`BLOCK_PROBES`] range probes sharing one metric and threshold,
/// packed into one [`ProbeBlock`]: [`RangeBlock::hits`] decides all of them
/// against a group of up to [`BLOCK_ROWS`] consecutive rows per call.
#[derive(Debug, Clone)]
pub struct RangeBlock<'q> {
    probes: Vec<RangeProbe<'q>>,
    block: ProbeBlock<'q>,
    /// The cosine test the block decides in registers (packed tiers only).
    fused: Option<CosineTest>,
}

impl<'q> RangeBlock<'q> {
    /// [`Metric::block`] on an explicit tier (the seam the tier tests
    /// force).
    pub(crate) fn with_tier(metric: Metric, queries: &[&'q [f32]], eps: f32, tier: Tier) -> Self {
        let block = ProbeBlock::with_tier(queries, tier);
        let probes: Vec<RangeProbe<'q>> = queries.iter().map(|q| metric.probe(q, eps)).collect();
        let packed = tier.probes_per_load().is_some();
        let fused = (packed && metric == Metric::Cosine).then(|| CosineTest {
            norms: std::array::from_fn(|p| probes.get(p).map_or(0.0, |probe| probe.prepared.norm)),
            eps,
        });
        Self {
            probes,
            block,
            fused,
        }
    }

    /// Bit `p` of `masks[r]` is set iff [`RangeProbe::within`] holds for
    /// query `p` against row `r` of the `norms.len()` rows stored back to
    /// back in `rows` (row `r` is `rows[r * dim..(r + 1) * dim]`); higher
    /// bits, and the masks past the group, are clear. `norms[r]`/`sqs[r]`
    /// are row `r`'s norm and squared norm from
    /// [`crate::Dataset::row_norms`].
    ///
    /// # Panics
    /// Panics unless `1 <= norms.len() <= BLOCK_ROWS`, `sqs.len()` equals
    /// it, and `rows` holds that many rows of the queries' length.
    #[inline]
    pub fn hits(&self, rows: &[f32], norms: &[f32], sqs: &[f32]) -> [u32; BLOCK_ROWS] {
        assert_eq!(
            norms.len(),
            sqs.len(),
            "RangeBlock::hits: norm count mismatch"
        );
        if let Some(test) = &self.fused {
            return self.block.lane_hits(test, rows, norms);
        }
        let mut dots = [[0.0f32; BLOCK_PROBES]; BLOCK_ROWS];
        let group = norms.len();
        self.block.dots(rows, &mut dots[..group]);
        let dim = rows.len() / group;
        let mut masks = [0; BLOCK_ROWS];
        for (r, (mask, row_dots)) in masks.iter_mut().zip(&dots[..group]).enumerate() {
            let x = &rows[r * dim..(r + 1) * dim];
            for (p, (probe, &dot)) in self.probes.iter().zip(row_dots).enumerate() {
                if probe.within_dot(dot, x, norms[r], sqs[r]) {
                    *mask |= 1 << p;
                }
            }
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn rows(dim: usize, n: usize, scale: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.31).sin() * scale)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dist_is_bit_identical_to_generic_for_every_metric() {
        for dim in [1usize, 3, 8, 17] {
            let data = Dataset::from_rows(rows(dim, 12, 2.5)).unwrap();
            let norms = data.row_norms();
            let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.7).cos()).collect();
            for metric in Metric::ALL {
                let prep = metric.prepare(&q);
                for (i, row) in data.rows().enumerate() {
                    assert_eq!(
                        prep.dist(row, norms.norm(i)).to_bits(),
                        metric.dist(&q, row).to_bits(),
                        "{metric:?} dim {dim} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn within_agrees_with_generic_predicate_including_degenerate_rows() {
        for dim in [2usize, 5, 16] {
            let mut all = rows(dim, 20, 1.0);
            all.push(vec![0.0; dim]); // zero vector: similarity-0 semantics
            all.push(vec![1e-13; dim]); // just below the degenerate cutoff
            let data = Dataset::from_rows(all).unwrap();
            let norms = data.row_norms();
            let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 1.3).sin() * 3.0).collect();
            for metric in Metric::ALL {
                for eps in [-0.5f32, 0.0, 1e-6, 0.3, 1.0, 2.0, f32::INFINITY, f32::NAN] {
                    let probe = metric.probe(&q, eps);
                    for (i, row) in data.rows().enumerate() {
                        assert_eq!(
                            probe.within(row, norms.norm(i)),
                            metric.dist(&q, row) < eps,
                            "{metric:?} dim {dim} row {i} eps {eps}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn euclid_boundary_rows_fall_back_to_exact_evaluation() {
        // Construct a query/row pair whose distance sits exactly at eps: the
        // batch tile's pushdown band must route it to the subtract-form
        // fallback and agree with the generic comparison (the scalar
        // predicate evaluates the exact form directly).
        let q = vec![0.0f32, 0.0];
        let row = vec![3.0f32, 4.0];
        let data = Dataset::from_rows(vec![row.clone()]).unwrap();
        let norms = data.row_norms();
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
            let exact_dist = metric.dist(&q, &row); // 5 resp. 25
            for eps in [exact_dist, exact_dist + 1e-6, exact_dist - 1e-6] {
                let probe = metric.probe(&q, eps);
                assert_eq!(
                    probe.within(&row, norms.norm(0)),
                    exact_dist < eps,
                    "{metric:?} scalar eps {eps}"
                );
                let dot = ops::dot(&q, &row);
                assert_eq!(
                    probe.within_dot(dot, &row, norms.norm(0), norms.sq(0)),
                    exact_dist < eps,
                    "{metric:?} tile eps {eps}"
                );
            }
        }
    }

    #[test]
    fn euclid_tile_agrees_when_subtract_form_overflows_f32() {
        // The f32 subtract-form squared distance overflows to inf here while
        // the f64 dot-form stays finite (~1.3e39 < eps² = 1e40): the fast
        // accept must NOT fire — the generic path sees inf < 1e20 == false.
        let q = vec![1.8e19f32, 0.0];
        let row = vec![-1.8e19f32, 0.0];
        let data = Dataset::from_rows(vec![row.clone()]).unwrap();
        let norms = data.row_norms();
        for (metric, eps) in [
            (Metric::Euclidean, 1e20f32),
            (Metric::SquaredEuclidean, f32::MAX),
        ] {
            let expected = metric.dist(&q, &row) < eps;
            let probe = metric.probe(&q, eps);
            assert_eq!(
                probe.within(&row, norms.norm(0)),
                expected,
                "{metric:?} scalar"
            );
            let dot = ops::dot(&q, &row);
            assert_eq!(
                probe.within_dot(dot, &row, norms.norm(0), norms.sq(0)),
                expected,
                "{metric:?} tile"
            );
        }
    }

    /// Sixteen probes and the rows they are tested against. The probes
    /// alternate ordinary vectors with edge cases, rotated by `dim` so each
    /// edge case visits every odd lane: zero and 1e-13 vectors (the norm
    /// guard), a NaN, a +∞ and a −∞ coordinate, subnormal and signed-zero
    /// vectors. The rows hold the same edge cases, ordinary rows, and copies
    /// of the probes (distance 0), one scaled and one negated (similarities
    /// that round past ±1): fourteen of them, so a walk in groups of three
    /// or four rows ends on a short group.
    fn block_vectors(dim: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let plain = |seed: usize| -> Vec<f32> {
            (0..dim)
                .map(|j| ((seed * 131 + j * 17) as f32 * 0.7371).sin())
                .collect()
        };
        let with = |seed: usize, v: f32| {
            let mut x = plain(seed);
            if dim > 0 {
                x[seed % dim] = v;
            }
            x
        };
        let edges = |seed: usize| {
            vec![
                vec![0.0; dim],
                vec![1e-13; dim],
                with(seed, f32::NAN),
                with(seed + 1, f32::INFINITY),
                with(seed + 2, f32::NEG_INFINITY),
                vec![f32::MIN_POSITIVE / 4.0; dim],
                vec![-0.0; dim],
                with(seed + 3, -0.0),
            ]
        };
        let mut odd = edges(100);
        odd.rotate_left(dim % 8);
        let probes: Vec<Vec<f32>> = (0..8).flat_map(|p| [plain(p), odd[p].clone()]).collect();
        let mut rows = vec![plain(50), plain(51), probes[0].clone(), probes[2].clone()];
        rows.push(probes[4].iter().map(|v| 3.0 * v).collect());
        rows.push(probes[6].iter().map(|v| -v).collect());
        rows.extend(edges(200));
        (probes, rows)
    }

    #[test]
    fn block_hits_equal_within_on_every_tier() {
        let tiers: Vec<Tier> = Tier::ALL.into_iter().filter(|t| t.is_supported()).collect();
        for dim in 0..=70usize {
            let (probes, rows) = block_vectors(dim);
            let flat = rows.concat();
            let x_norms: Vec<f32> = rows.iter().map(|x| ops::norm(x)).collect();
            let x_sqs: Vec<f32> = rows.iter().map(|x| ops::dot(x, x)).collect();
            let queries: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();
            for metric in Metric::ALL {
                // Two thresholds sit exactly on a computed distance.
                let boundary = [
                    metric.dist(queries[0], &rows[0]),
                    metric.dist(queries[2], &rows[1]),
                ];
                let fixed = [-0.5f32, 0.0, 1e-6, 0.3, 1.0, 2.0, f32::INFINITY, f32::NAN];
                for eps in fixed.into_iter().chain(boundary) {
                    // want[r]: bit p set iff probe p is within eps of row r.
                    let scalar: Vec<RangeProbe> =
                        queries.iter().map(|q| metric.probe(q, eps)).collect();
                    let want: Vec<u32> = rows
                        .iter()
                        .zip(&x_norms)
                        .map(|(x, &x_norm)| {
                            scalar.iter().enumerate().fold(0, |mask, (p, probe)| {
                                mask | u32::from(probe.within(x, x_norm)) << p
                            })
                        })
                        .collect();
                    for &tier in &tiers {
                        for len in 1..=BLOCK_PROBES {
                            let block = RangeBlock::with_tier(metric, &queries[..len], eps, tier);
                            let size = 1 + len % BLOCK_ROWS;
                            for start in (0..rows.len()).step_by(size) {
                                let group = start..(start + size).min(rows.len());
                                let masks = block.hits(
                                    &flat[start * dim..group.end * dim],
                                    &x_norms[group.clone()],
                                    &x_sqs[group.clone()],
                                );
                                // Masks past the group stay clear.
                                let want = want[group.clone()].iter().chain([&0; BLOCK_ROWS]);
                                for (k, (&mask, &want)) in masks.iter().zip(want).enumerate() {
                                    assert_eq!(
                                        mask,
                                        want & ((1 << len) - 1),
                                        "{tier:?} {metric:?} dim {dim} probes {len} eps {eps} row {} of {group:?}",
                                        group.start + k
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
