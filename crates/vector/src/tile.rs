//! Exact register tiles: several independent dot products per step.
//!
//! [`ops::dot`] keeps its four partial sums in one vector register, so a
//! scan that scores one (query, row) pair at a time runs one dependency
//! chain: every add waits for the previous one. The tiles below score
//! several *independent* pairs per step, the register-tiled micro-kernel of
//! Goto & van de Geijn (ACM TOMS 2008), so the adds of different pairs
//! overlap in the pipeline:
//!
//! * the **row tile** ([`dot_rows8`]) scores one probe against [`ROW_TILE`]
//!   consecutive dataset rows, one SSE2 register of partial sums per row;
//! * the **packed probe block** ([`ProbeBlock`]) lays up to
//!   [`BLOCK_PROBES`] probes out chunk by chunk, four per 512-bit AVX-512
//!   register or two per 256-bit AVX2 register, and scores all of them
//!   against a group of up to [`BLOCK_ROWS`] consecutive rows per call.
//!
//! On AVX-512 the block is blocked on both operands: each row's 4-element
//! chunk is broadcast once and each load of four probes' chunks is used for
//! every row of the group, so sixteen probes against four rows keep sixteen
//! independent accumulators in flight. On AVX2 sixteen 256-bit registers are
//! too few for a second row, and the call scores the group's rows one after
//! another.
//!
//! On both packed tiers the block can instead decide a cosine range test on
//! every lane in registers right after the reduction, with the IEEE
//! operations of the cosine formula behind [`crate::RangeProbe::within_dot`]
//! in the same order (reached through [`crate::Metric::block`]). That lane
//! form, once per register width, is the one other place the cosine
//! expression is written.
//!
//! # Accumulation contract
//!
//! Every lane is bit-identical to [`ops::dot`] on the same pair; only the
//! interleaving of pairs changes, never the order of one pair's operations:
//!
//! * four partial sums `s0..s3` over the 4-element chunks, each a separate
//!   multiply then add (no FMA intrinsic, `mul_add` or `fma` target
//!   feature: a fused multiply-add rounds once instead of twice);
//! * the `dim % 4` tail summed sequentially per pair, starting from `+0.0`;
//! * the reduction `s0 + s1 + s2 + s3 + tail` in that order, as a 4×4
//!   transpose of four pairs' partial sums followed by vertical adds, the
//!   tail always added (it is `+0.0` when `dim % 4 == 0`).
//!
//! # Tiers
//!
//! * **AVX-512** — the packed block, four probes per load and up to
//!   [`BLOCK_ROWS`] rows per step, when `is_x86_feature_detected!("avx512f")`
//!   holds at [`ProbeBlock::new`].
//! * **AVX2** — the packed block, two probes per load and one row per step,
//!   when `is_x86_feature_detected!("avx2")` holds instead.
//! * **SSE2** — the row tile, on every x86_64 CPU (SSE2 is part of the
//!   baseline, so there is nothing to detect).
//! * **Portable** — everything else: the row tile is the per-lane
//!   [`ops::dot`] loop, and the block is [`ops::dot4`] over groups of four
//!   probes with [`ops::dot`] for the rest, row by row. Both keep every bit
//!   too.
//!
//! The tier is chosen by runtime CPU detection only; there is no option to
//! pick one.

use crate::ops;

/// Rows the row tile ([`dot_rows8`]) scores per call.
pub const ROW_TILE: usize = 8;

/// Most probes one [`ProbeBlock`] holds.
pub const BLOCK_PROBES: usize = 16;

/// Most consecutive rows one [`ProbeBlock::dots`] (or
/// [`crate::RangeBlock::hits`]) call scores.
pub const BLOCK_ROWS: usize = 4;

/// Instruction-set tier a tile runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// 512-bit AVX-512F registers (packed block, up to [`BLOCK_ROWS`] rows
    /// per step; the row tile runs SSE2).
    Avx512,
    /// 256-bit AVX2 registers (packed block, one row per step; the row tile
    /// runs SSE2).
    Avx2,
    /// 128-bit SSE2 registers, part of the x86_64 baseline (row tile; the
    /// block runs the portable loop).
    Sse2,
    /// The [`ops::dot`] / [`ops::dot4`] loops.
    Portable,
}

impl Tier {
    /// Every tier, fastest first.
    pub(crate) const ALL: [Tier; 4] = [Tier::Avx512, Tier::Avx2, Tier::Sse2, Tier::Portable];

    /// Whether the running CPU can execute this tier.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            Tier::Portable => true,
            Tier::Sse2 => cfg!(target_arch = "x86_64"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx512 | Tier::Avx2 => false,
        }
    }

    /// The fastest tier the running CPU supports.
    pub(crate) fn detect() -> Tier {
        Tier::ALL
            .into_iter()
            .find(|tier| tier.is_supported())
            .expect("the portable tier is always supported")
    }

    /// Probes whose chunks one load of the packed block holds, or `None`
    /// where the block runs the portable loop. The packed tiers are also
    /// the ones that decide cosine lanes in registers.
    pub(crate) fn probes_per_load(self) -> Option<usize> {
        match self {
            Tier::Avx512 => Some(4),
            Tier::Avx2 => Some(2),
            Tier::Sse2 | Tier::Portable => None,
        }
    }
}

/// The row tile's tier: SSE2 wherever it exists.
const ROW_TILE_TIER: Tier = if cfg!(target_arch = "x86_64") {
    Tier::Sse2
} else {
    Tier::Portable
};

/// `[dot(q, row_0), …, dot(q, row_7)]` for the [`ROW_TILE`] rows stored back
/// to back in `rows` (row `r` is `rows[r * q.len()..(r + 1) * q.len()]`),
/// each lane bit-identical to [`ops::dot`].
///
/// # Panics
/// Panics if `rows.len() != ROW_TILE * q.len()`.
#[inline]
pub fn dot_rows8(q: &[f32], rows: &[f32]) -> [f32; ROW_TILE] {
    dot_rows8_on(ROW_TILE_TIER, q, rows)
}

/// [`dot_rows8`] on an explicit tier (the seam the tier tests force).
/// `Avx512` and `Avx2` run the SSE2 tile: the row tile has no wider form.
#[inline]
pub(crate) fn dot_rows8_on(tier: Tier, q: &[f32], rows: &[f32]) -> [f32; ROW_TILE] {
    let dim = q.len();
    assert_eq!(rows.len(), ROW_TILE * dim, "dot_rows8: length mismatch");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline, so every CPU this
        // code runs on supports the `#[target_feature]` of the kernel.
        Tier::Avx512 | Tier::Avx2 | Tier::Sse2 => unsafe { x86::rows8_sse2(q, rows) },
        _ => std::array::from_fn(|r| ops::dot(q, &rows[r * dim..(r + 1) * dim])),
    }
}

/// Up to [`BLOCK_PROBES`] probes prepared for the block tile, which scores
/// all of them against a group of up to [`BLOCK_ROWS`] consecutive rows per
/// [`ProbeBlock::dots`] call (or decides a cosine range test on all of
/// them, for [`crate::RangeBlock::hits`]).
///
/// On the packed tiers the probes' 4-element chunks are packed chunk-major:
/// probe `p`'s chunk `c` sits at `(c * slots + p) * 4`, where `slots` is the
/// probe count rounded up to a multiple of the probes one load holds (four
/// on AVX-512, two on AVX2). The tier is detected once, at construction.
#[derive(Debug, Clone)]
pub struct ProbeBlock<'q> {
    probes: Vec<&'q [f32]>,
    dim: usize,
    tier: Tier,
    /// Probe slots of the packing, padding included; 0 on the unpacked
    /// tiers.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    slots: usize,
    /// The chunk-major packing the packed kernels read (a padding slot holds
    /// zeros and its lane is never returned); empty on the other tiers.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    packed: Vec<f32>,
}

impl<'q> ProbeBlock<'q> {
    /// Prepare `probes` for the fastest tier the running CPU supports.
    ///
    /// # Panics
    /// Panics unless `1 <= probes.len() <= BLOCK_PROBES` and every probe
    /// has the same length.
    pub fn new(probes: &[&'q [f32]]) -> Self {
        Self::with_tier(probes, Tier::detect())
    }

    /// [`ProbeBlock::new`] on an explicit tier (the seam the tier tests
    /// force). `Sse2` runs the portable loop: the block has no 128-bit form.
    ///
    /// # Panics
    /// Also panics if the running CPU does not support `tier`: the packed
    /// kernels rely on this check.
    pub(crate) fn with_tier(probes: &[&'q [f32]], tier: Tier) -> Self {
        assert!(tier.is_supported(), "ProbeBlock: {tier:?} is not supported");
        assert!(
            (1..=BLOCK_PROBES).contains(&probes.len()),
            "ProbeBlock: {} probes, expected 1..={BLOCK_PROBES}",
            probes.len()
        );
        let dim = probes[0].len();
        assert!(
            probes.iter().all(|p| p.len() == dim),
            "ProbeBlock: length mismatch"
        );
        let mut slots = 0;
        let mut packed = Vec::new();
        if let Some(per_load) = tier.probes_per_load() {
            slots = probes.len().next_multiple_of(per_load);
            packed = vec![0.0f32; dim / 4 * slots * 4];
            for (p, probe) in probes.iter().enumerate() {
                for (c, chunk) in probe.chunks_exact(4).enumerate() {
                    let at = (c * slots + p) * 4;
                    packed[at..at + 4].copy_from_slice(chunk);
                }
            }
        }
        Self {
            probes: probes.to_vec(),
            dim,
            tier,
            slots,
            packed,
        }
    }

    /// `out[r][p] = dot(probe_p, row_r)` for every probe `p` and each of the
    /// `out.len()` rows stored back to back in `rows` (row `r` is
    /// `rows[r * dim..(r + 1) * dim]`), each bit-identical to [`ops::dot`].
    /// Lanes from the probe count on are left unspecified.
    ///
    /// # Panics
    /// Panics unless `1 <= out.len() <= BLOCK_ROWS` and `rows.len()` is
    /// `out.len()` times the probes' length.
    #[inline]
    pub fn dots(&self, rows: &[f32], out: &mut [[f32; BLOCK_PROBES]]) {
        self.check_group(rows, out.len());
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 | Tier::Avx2 => {
                // SAFETY: the block's tier is a packed one, which `with_tier`
                // checked the running CPU supports.
                unsafe { self.packed_kernel(rows, x86::Epilogue::Store(out)) };
            }
            _ => {
                let len = self.probes.len();
                let fours = len / 4 * 4;
                for (r, lanes) in out.iter_mut().enumerate() {
                    let x = &rows[r * self.dim..(r + 1) * self.dim];
                    let (out4, rest) = lanes[..len].split_at_mut(fours);
                    for (o, p) in out4.chunks_exact_mut(4).zip(self.probes.chunks_exact(4)) {
                        o.copy_from_slice(&ops::dot4(p[0], p[1], p[2], p[3], x));
                    }
                    for (o, probe) in rest.iter_mut().zip(&self.probes[fours..]) {
                        *o = ops::dot(probe, x);
                    }
                }
            }
        }
    }

    /// Bit `p` of `masks[r]` is set iff `test` holds for probe `p` against
    /// row `r` of the `norms.len()` rows stored back to back in `rows`, row
    /// `r` having norm `norms[r]`; higher bits, and the masks of rows past
    /// the group, are clear. The dots are never stored.
    ///
    /// # Panics
    /// Panics on a malformed group (as [`ProbeBlock::dots`]), or off the
    /// packed tiers.
    #[inline]
    pub(crate) fn lane_hits(
        &self,
        test: &CosineTest,
        rows: &[f32],
        norms: &[f32],
    ) -> [u32; BLOCK_ROWS] {
        self.check_group(rows, norms.len());
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 | Tier::Avx2 => {
                // SAFETY: as in `dots`.
                let masks = unsafe { self.packed_kernel(rows, x86::Epilogue::Decide(test, norms)) };
                // A padding slot's zero probe passes a cosine test at ε > 1.
                masks.map(|mask| mask & ((1 << self.probes.len()) - 1))
            }
            _ => unreachable!("only the packed block decides lanes in registers"),
        }
    }

    /// Panics unless `rows` holds a group of `group` rows of the probes'
    /// length, with `1 <= group <= BLOCK_ROWS`.
    fn check_group(&self, rows: &[f32], group: usize) {
        assert!(
            (1..=BLOCK_ROWS).contains(&group),
            "ProbeBlock: {group} rows, expected 1..={BLOCK_ROWS}"
        );
        assert_eq!(rows.len(), group * self.dim, "ProbeBlock: length mismatch");
    }

    /// The packed kernel of this block's tier over the group `rows`, each
    /// pair's `dim % 4` tail summed sequentially from `+0.0` as
    /// [`ops::dot`] sums it.
    ///
    /// # Safety
    /// The block's tier must be AVX-512 or AVX2: `with_tier` asserted that
    /// the running CPU supports it before storing it. (A group that failed
    /// `check_group` panics.)
    #[cfg(target_arch = "x86_64")]
    unsafe fn packed_kernel(&self, rows: &[f32], epilogue: x86::Epilogue<'_>) -> [u32; BLOCK_ROWS] {
        let mut tails = [[0.0f32; BLOCK_PROBES]; BLOCK_ROWS];
        if !self.dim.is_multiple_of(4) {
            for (r, row_tails) in tails.iter_mut().enumerate().take(epilogue.rows()) {
                let x = &rows[r * self.dim..(r + 1) * self.dim];
                for (tail, probe) in row_tails.iter_mut().zip(&self.probes) {
                    for j in self.dim / 4 * 4..self.dim {
                        *tail += probe[j] * x[j];
                    }
                }
            }
        }
        let (packed, slots, dim) = (&self.packed[..], self.slots, self.dim);
        // SAFETY: the caller guarantees the tier, which selects its kernel.
        unsafe {
            match self.tier {
                Tier::Avx512 => x86::block_avx512(packed, slots, rows, dim, &tails, epilogue),
                Tier::Avx2 => x86::block_avx2(packed, slots, rows, dim, &tails, epilogue),
                Tier::Sse2 | Tier::Portable => unreachable!("the block is not packed"),
            }
        }
    }
}

/// The cosine range test [`ProbeBlock::lane_hits`] decides per lane, with
/// the IEEE operations of [`crate::RangeProbe::within_dot`] in the same
/// order: `1 − sim < eps`, where `sim` is `dot / (norms[p] · x_norm)`
/// clamped to `[−1, 1]` (NaN stays NaN), or `+0.0` when a norm is at most
/// `1e-12`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CosineTest {
    /// The probes' norms, zero in padding slots.
    pub(crate) norms: [f32; BLOCK_PROBES],
    pub(crate) eps: f32,
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernels behind the SSE2 row tile and the AVX-512 and
    //! AVX2 blocks.

    use super::{CosineTest, BLOCK_PROBES, BLOCK_ROWS, ROW_TILE};
    use std::arch::x86_64::*;

    /// `s0 + s1 + s2 + s3 + tail` for four pairs whose partial sums are the
    /// lanes of `s[0..4]`: a 4×4 transpose turns pair-major registers into
    /// sum-major ones, then vertical adds run in `ops::dot`'s order.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn reduce4_sse2(s: [__m128; 4], tail: __m128) -> __m128 {
        let t0 = _mm_unpacklo_ps(s[0], s[1]);
        let t1 = _mm_unpacklo_ps(s[2], s[3]);
        let t2 = _mm_unpackhi_ps(s[0], s[1]);
        let t3 = _mm_unpackhi_ps(s[2], s[3]);
        let s0 = _mm_movelh_ps(t0, t1);
        let s1 = _mm_movehl_ps(t1, t0);
        let s2 = _mm_movelh_ps(t2, t3);
        let s3 = _mm_movehl_ps(t3, t2);
        _mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_add_ps(s0, s1), s2), s3), tail)
    }

    /// The SSE2 row tile: `q` against the [`ROW_TILE`] rows of `rows`.
    /// Register `r` holds row `r`'s partial sums `s0..s3`, accumulated in
    /// chunk order from `+0.0` with a separate multiply and add, exactly as
    /// `ops::dot` accumulates them.
    #[target_feature(enable = "sse2")]
    pub(super) fn rows8_sse2(q: &[f32], rows: &[f32]) -> [f32; ROW_TILE] {
        let dim = q.len();
        assert_eq!(rows.len(), ROW_TILE * dim, "rows8_sse2: length mismatch");
        let chunks = dim / 4;
        let mut acc = [_mm_setzero_ps(); ROW_TILE];
        for c in 0..chunks {
            // SAFETY: `4c + 4 <= 4 * chunks <= dim = q.len()`.
            let qv = unsafe { _mm_loadu_ps(q.as_ptr().add(4 * c)) };
            for (r, s) in acc.iter_mut().enumerate() {
                // SAFETY: `r * dim + 4c + 4 <= (r + 1) * dim <= rows.len()`
                // (asserted above).
                let xv = unsafe { _mm_loadu_ps(rows.as_ptr().add(r * dim + 4 * c)) };
                *s = _mm_add_ps(*s, _mm_mul_ps(qv, xv));
            }
        }
        let mut tails = [0.0f32; ROW_TILE];
        for (r, tail) in tails.iter_mut().enumerate() {
            let row = &rows[r * dim..(r + 1) * dim];
            for j in chunks * 4..dim {
                *tail += q[j] * row[j];
            }
        }
        let mut out = [0.0f32; ROW_TILE];
        let groups = acc.chunks_exact(4).zip(tails.chunks_exact(4));
        for ((s, t), o) in groups.zip(out.chunks_exact_mut(4)) {
            // SAFETY: `t` and `o` hold four floats each.
            unsafe {
                let tail = _mm_loadu_ps(t.as_ptr());
                _mm_storeu_ps(o.as_mut_ptr(), reduce4_sse2([s[0], s[1], s[2], s[3]], tail));
            }
        }
        out
    }

    /// What a packed kernel does with the dot lanes of each row of its
    /// group: store them (row `r`'s probe `p` at `out[r][p]`), or decide
    /// them against rows of the given norms (row `r`'s at `norms[r]`).
    pub(super) enum Epilogue<'a> {
        Store(&'a mut [[f32; BLOCK_PROBES]]),
        Decide(&'a CosineTest, &'a [f32]),
    }

    impl Epilogue<'_> {
        /// The rows of the group.
        pub(super) fn rows(&self) -> usize {
            match self {
                Epilogue::Store(out) => out.len(),
                Epilogue::Decide(_, norms) => norms.len(),
            }
        }
    }

    /// The packed block on AVX-512: all `slots` probe slots of `packed`
    /// against the group of `epilogue.rows()` rows of length `dim` in
    /// `rows`, finished by `epilogue`. Returns each row's mask of decided
    /// lanes (bit `p` for slot `p`, padding included), 0 when storing and
    /// past the group.
    ///
    /// # Safety
    /// The running CPU must support AVX-512F. (A slot count other than 4,
    /// 8, 12 or 16, or a group of other than 1..=`BLOCK_ROWS` rows, panics.)
    pub(super) unsafe fn block_avx512(
        packed: &[f32],
        slots: usize,
        rows: &[f32],
        dim: usize,
        tails: &[[f32; BLOCK_PROBES]; BLOCK_ROWS],
        mut epilogue: Epilogue<'_>,
    ) -> [u32; BLOCK_ROWS] {
        let e = &mut epilogue;
        // SAFETY: the caller guarantees AVX-512F, the only requirement of
        // the `#[target_feature]` functions called here.
        unsafe {
            match slots / 4 {
                1 => rows_avx512::<1>(packed, rows, dim, tails, e),
                2 => rows_avx512::<2>(packed, rows, dim, tails, e),
                3 => rows_avx512::<3>(packed, rows, dim, tails, e),
                4 => rows_avx512::<4>(packed, rows, dim, tails, e),
                _ => unreachable!("a probe block has 4..=16 probe slots in fours"),
            }
        }
    }

    /// [`block_avx512`] with `4 * A` probe slots, dispatched on the group's
    /// row count.
    #[target_feature(enable = "avx512f")]
    fn rows_avx512<const A: usize>(
        packed: &[f32],
        rows: &[f32],
        dim: usize,
        tails: &[[f32; BLOCK_PROBES]; BLOCK_ROWS],
        epilogue: &mut Epilogue<'_>,
    ) -> [u32; BLOCK_ROWS] {
        match epilogue.rows() {
            1 => block_avx512_n::<A, 1>(packed, rows, dim, tails, epilogue),
            2 => block_avx512_n::<A, 2>(packed, rows, dim, tails, epilogue),
            3 => block_avx512_n::<A, 3>(packed, rows, dim, tails, epilogue),
            4 => block_avx512_n::<A, 4>(packed, rows, dim, tails, epilogue),
            _ => unreachable!("a row group has 1..=4 rows"),
        }
    }

    /// [`block_avx512`] with `4 * A` probe slots against `R` rows:
    /// register `acc[r][a]` holds, in its 128-bit lane `k`, the partial sums
    /// of probe `4a + k` against row `r`. Each chunk of a row is broadcast
    /// to all four lanes once, and each probe load serves every row.
    #[target_feature(enable = "avx512f")]
    fn block_avx512_n<const A: usize, const R: usize>(
        packed: &[f32],
        rows: &[f32],
        dim: usize,
        tails: &[[f32; BLOCK_PROBES]; BLOCK_ROWS],
        epilogue: &mut Epilogue<'_>,
    ) -> [u32; BLOCK_ROWS] {
        let slots = 4 * A;
        let chunks = dim / 4;
        assert_eq!(
            packed.len(),
            chunks * slots * 4,
            "block_avx512: bad packing"
        );
        assert_eq!(rows.len(), R * dim, "block_avx512: bad row group");
        let mut acc = [[_mm512_setzero_ps(); A]; R];
        for c in 0..chunks {
            let mut xv = [_mm512_setzero_ps(); R];
            for (r, v) in xv.iter_mut().enumerate() {
                // SAFETY: `r * dim + 4c + 4 <= (r + 1) * dim <= rows.len()`
                // (asserted above).
                let chunk = unsafe { _mm_loadu_ps(rows.as_ptr().add(r * dim + 4 * c)) };
                *v = _mm512_broadcast_f32x4(chunk);
            }
            let base = c * slots * 4;
            for a in 0..A {
                // SAFETY: `base + 16a + 16 <= (c + 1) * slots * 4 <=
                // packed.len()` (asserted above).
                let qv = unsafe { _mm512_loadu_ps(packed.as_ptr().add(base + 16 * a)) };
                for (s, x) in acc.iter_mut().zip(&xv) {
                    s[a] = _mm512_add_ps(s[a], _mm512_mul_ps(qv, *x));
                }
            }
        }
        // The in-lane transpose leaves probe `4a + k` at position `4k + a`;
        // the permute restores probe order before the tail is added.
        let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        let mut masks = [0; BLOCK_ROWS];
        for (r, row_acc) in acc.iter().enumerate() {
            let mut s = [_mm512_setzero_ps(); 4];
            s[..A].copy_from_slice(row_acc);
            let t0 = _mm512_unpacklo_ps(s[0], s[1]);
            let t1 = _mm512_unpacklo_ps(s[2], s[3]);
            let t2 = _mm512_unpackhi_ps(s[0], s[1]);
            let t3 = _mm512_unpackhi_ps(s[2], s[3]);
            let s0 = _mm512_shuffle_ps::<0x44>(t0, t1);
            let s1 = _mm512_shuffle_ps::<0xEE>(t0, t1);
            let s2 = _mm512_shuffle_ps::<0x44>(t2, t3);
            let s3 = _mm512_shuffle_ps::<0xEE>(t2, t3);
            let sum = _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(s0, s1), s2), s3);
            let sum = _mm512_permutexvar_ps(order, sum);
            // SAFETY: `tails[r]` holds `BLOCK_PROBES` = 16 floats.
            let dot = _mm512_add_ps(sum, unsafe { _mm512_loadu_ps(tails[r].as_ptr()) });
            match epilogue {
                // SAFETY: `out[r]` holds 16 floats, and `r < R` rows of
                // `out` exist (`rows_avx512` dispatched on its length).
                Epilogue::Store(out) => unsafe { _mm512_storeu_ps(out[r].as_mut_ptr(), dot) },
                Epilogue::Decide(test, norms) => {
                    masks[r] = u32::from(decide_avx512(test, dot, norms[r]));
                }
            }
        }
        masks
    }

    /// `test` on the sixteen dot lanes of one row: bit `p` set where probe
    /// `p` passes. The operations are `RangeProbe::within_dot`'s, in its
    /// order, as in [`decide_avx2`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn decide_avx512(test: &CosineTest, dot: __m512, x_norm: f32) -> __mmask16 {
        // SAFETY: `test.norms` holds `BLOCK_PROBES` = 16 floats.
        let qn = unsafe { _mm512_loadu_ps(test.norms.as_ptr()) };
        let xn = _mm512_set1_ps(x_norm);
        let one = _mm512_set1_ps(1.0);
        let sim = _mm512_div_ps(dot, _mm512_mul_ps(qn, xn));
        let sim = _mm512_min_ps(one, _mm512_max_ps(_mm512_set1_ps(-1.0), sim));
        let tiny = _mm512_set1_ps(1e-12);
        let degenerate =
            _mm512_cmp_ps_mask::<_CMP_LE_OQ>(qn, tiny) | _mm512_cmp_ps_mask::<_CMP_LE_OQ>(xn, tiny);
        let sim = _mm512_maskz_mov_ps(!degenerate, sim);
        _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_sub_ps(one, sim), _mm512_set1_ps(test.eps))
    }

    /// The packed block on AVX2: all `slots` probe slots of `packed`
    /// against each row of the group of `epilogue.rows()` rows of length
    /// `dim` in `rows`, one row after another, finished by `epilogue`.
    /// Returns what [`block_avx512`] returns.
    ///
    /// # Safety
    /// The running CPU must support AVX2. (An odd slot count or one above
    /// 16 panics.)
    pub(super) unsafe fn block_avx2(
        packed: &[f32],
        slots: usize,
        rows: &[f32],
        dim: usize,
        tails: &[[f32; BLOCK_PROBES]; BLOCK_ROWS],
        mut epilogue: Epilogue<'_>,
    ) -> [u32; BLOCK_ROWS] {
        let mut masks = [0; BLOCK_ROWS];
        for (r, mask) in masks.iter_mut().enumerate().take(epilogue.rows()) {
            let x = &rows[r * dim..(r + 1) * dim];
            let (t, e) = (&tails[r], &mut epilogue);
            // SAFETY: the caller guarantees AVX2, the only requirement of
            // the `#[target_feature]` functions called here.
            *mask = unsafe {
                match slots / 2 {
                    1 => block_avx2_n::<1>(packed, x, t, e, r),
                    2 => block_avx2_n::<2>(packed, x, t, e, r),
                    3 => block_avx2_n::<3>(packed, x, t, e, r),
                    4 => block_avx2_n::<4>(packed, x, t, e, r),
                    5 => block_avx2_n::<5>(packed, x, t, e, r),
                    6 => block_avx2_n::<6>(packed, x, t, e, r),
                    7 => block_avx2_n::<7>(packed, x, t, e, r),
                    8 => block_avx2_n::<8>(packed, x, t, e, r),
                    _ => unreachable!("a probe block has 2..=16 even probe slots"),
                }
            };
        }
        masks
    }

    /// [`block_avx2`] with `2 * A` probe slots against row `r` of the group,
    /// `x`: register `a` holds the partial sums of probes `2a` (low half)
    /// and `2a + 1` (high half).
    #[target_feature(enable = "avx2")]
    fn block_avx2_n<const A: usize>(
        packed: &[f32],
        x: &[f32],
        tails: &[f32; BLOCK_PROBES],
        epilogue: &mut Epilogue<'_>,
        r: usize,
    ) -> u32 {
        let slots = 2 * A;
        let chunks = x.len() / 4;
        assert_eq!(packed.len(), chunks * slots * 4, "block_avx2: bad packing");
        let mut acc = [_mm256_setzero_ps(); A];
        for c in 0..chunks {
            // SAFETY: `4c + 4 <= 4 * chunks <= x.len()`.
            let half = unsafe { _mm_loadu_ps(x.as_ptr().add(4 * c)) };
            let xv = _mm256_set_m128(half, half);
            let base = c * slots * 4;
            for (a, s) in acc.iter_mut().enumerate() {
                // SAFETY: `base + 8a + 8 <= (c + 1) * slots * 4 <=
                // packed.len()` (asserted above).
                let qv = unsafe { _mm256_loadu_ps(packed.as_ptr().add(base + 8 * a)) };
                *s = _mm256_add_ps(*s, _mm256_mul_ps(qv, xv));
            }
        }
        // Per group of four registers (eight probes), the in-lane transpose
        // leaves probes [0 2 4 6 | 1 3 5 7]; the permute restores probe
        // order before the tail is added.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut mask = 0;
        for g in 0..A.div_ceil(4) {
            let mut s = [_mm256_setzero_ps(); 4];
            let n = (A - 4 * g).min(4);
            s[..n].copy_from_slice(&acc[4 * g..4 * g + n]);
            let t0 = _mm256_unpacklo_ps(s[0], s[1]);
            let t1 = _mm256_unpacklo_ps(s[2], s[3]);
            let t2 = _mm256_unpackhi_ps(s[0], s[1]);
            let t3 = _mm256_unpackhi_ps(s[2], s[3]);
            let s0 = _mm256_shuffle_ps::<0x44>(t0, t1);
            let s1 = _mm256_shuffle_ps::<0xEE>(t0, t1);
            let s2 = _mm256_shuffle_ps::<0x44>(t2, t3);
            let s3 = _mm256_shuffle_ps::<0xEE>(t2, t3);
            let sum = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(s0, s1), s2), s3);
            let sum = _mm256_permutevar8x32_ps(sum, order);
            // SAFETY: `g < A.div_ceil(4) <= 2`, so `8g + 8 <= BLOCK_PROBES`
            // floats of `tails`.
            let dot = _mm256_add_ps(sum, unsafe { _mm256_loadu_ps(tails.as_ptr().add(8 * g)) });
            match epilogue {
                // SAFETY: as for `tails`, and row `r` of `out` exists
                // (`block_avx2` walks `out.len()` rows).
                Epilogue::Store(out) => unsafe {
                    _mm256_storeu_ps(out[r].as_mut_ptr().add(8 * g), dot)
                },
                Epilogue::Decide(test, norms) => {
                    let hit = decide_avx2(test, g, dot, norms[r]);
                    mask |= (_mm256_movemask_ps(hit) as u32) << (8 * g);
                }
            }
        }
        mask
    }

    /// `test` on the dots of probes `8g..8g + 8`: all-ones in each lane that
    /// passes. The operations are `RangeProbe::within_dot`'s, in its order.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn decide_avx2(test: &CosineTest, g: usize, dot: __m256, x_norm: f32) -> __m256 {
        // SAFETY: `g <= 1`, so `8g + 8 <= BLOCK_PROBES` floats.
        let qn = unsafe { _mm256_loadu_ps(test.norms.as_ptr().add(8 * g)) };
        let xn = _mm256_set1_ps(x_norm);
        let one = _mm256_set1_ps(1.0);
        let sim = _mm256_div_ps(dot, _mm256_mul_ps(qn, xn));
        // `max`/`min` return their second operand when either is NaN, so a
        // NaN `sim` passes through the clamp as in `f32::clamp`.
        let sim = _mm256_min_ps(one, _mm256_max_ps(_mm256_set1_ps(-1.0), sim));
        let tiny = _mm256_set1_ps(1e-12);
        let degenerate = _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LE_OQ>(qn, tiny),
            _mm256_cmp_ps::<_CMP_LE_OQ>(xn, tiny),
        );
        let sim = _mm256_andnot_ps(degenerate, sim);
        _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_sub_ps(one, sim), _mm256_set1_ps(test.eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bits equal, or both NaN: Rust leaves NaN payloads unspecified, so two
    /// NaN results need not share their bits even on one path.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Deterministic values covering the contract's edge cases: mixed
    /// magnitudes, exact zeros of both signs, subnormals and (when
    /// `special`) NaN and infinities.
    fn value(i: usize, special: bool) -> f32 {
        match i % 23 {
            3 => 0.0,
            7 => -0.0,
            11 => f32::MIN_POSITIVE / 3.0,
            13 if special => f32::NAN,
            17 if special => f32::INFINITY,
            19 if special => f32::NEG_INFINITY,
            _ => ((i as f32) * 0.7371).sin() * 10f32.powi((i % 7) as i32 - 3),
        }
    }

    fn vector(seed: usize, dim: usize, special: bool) -> Vec<f32> {
        (0..dim)
            .map(|j| value(seed * 131 + j * 17 + 1, special))
            .collect()
    }

    fn supported() -> Vec<Tier> {
        Tier::ALL.into_iter().filter(|t| t.is_supported()).collect()
    }

    #[test]
    fn detection_and_baseline() {
        let tiers = supported();
        assert!(tiers.contains(&Tier::Portable));
        assert_eq!(tiers.contains(&Tier::Sse2), cfg!(target_arch = "x86_64"));
        assert_eq!(Tier::detect(), tiers[0]);
    }

    #[test]
    fn every_supported_tier_is_bit_identical_to_dot() {
        for tier in supported() {
            for special in [false, true] {
                for dim in 0..=70usize {
                    let q = vector(0, dim, special);
                    let rows: Vec<f32> = (1..=ROW_TILE)
                        .flat_map(|r| vector(r, dim, special))
                        .collect();
                    let lanes = dot_rows8_on(tier, &q, &rows);
                    for (r, &lane) in lanes.iter().enumerate() {
                        let row = &rows[r * dim..(r + 1) * dim];
                        assert!(
                            same(lane, ops::dot(&q, row)),
                            "row tile {tier:?} dim {dim} row {r}"
                        );
                    }

                    let probes: Vec<Vec<f32>> = (0..BLOCK_PROBES)
                        .map(|p| vector(p + 20, dim, special))
                        .collect();
                    // Seven rows, walked in groups of 1..=4 rows (by block
                    // size), so groups of two to four end on a short one.
                    let xs: Vec<Vec<f32>> = (0..7).map(|r| vector(r + 99, dim, special)).collect();
                    let flat = xs.concat();
                    for len in 1..=BLOCK_PROBES {
                        let refs: Vec<&[f32]> = probes[..len].iter().map(Vec::as_slice).collect();
                        let block = ProbeBlock::with_tier(&refs, tier);
                        let size = 1 + len % BLOCK_ROWS;
                        for start in (0..xs.len()).step_by(size) {
                            let group = start..(start + size).min(xs.len());
                            let mut out = [[f32::NAN; BLOCK_PROBES]; BLOCK_ROWS];
                            let n = group.len();
                            block.dots(&flat[start * dim..group.end * dim], &mut out[..n]);
                            for (lanes, r) in out.iter().zip(group) {
                                for (p, (&lane, probe)) in lanes.iter().zip(&refs).enumerate() {
                                    assert!(
                                        same(lane, ops::dot(probe, &xs[r])),
                                        "block {tier:?} dim {dim} len {len} row {r} of {n} probe {p}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn row_tile_rejects_a_short_buffer() {
        let _ = dot_rows8(&[1.0, 2.0], &[0.0; 15]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn block_rejects_a_row_of_another_length() {
        let q = [1.0f32, 2.0];
        let block = ProbeBlock::new(&[&q[..]]);
        block.dots(&[1.0], &mut [[0.0; BLOCK_PROBES]]);
    }

    #[test]
    #[should_panic(expected = "expected 1..=4")]
    fn block_rejects_a_group_of_five_rows() {
        let q = [1.0f32, 2.0];
        let block = ProbeBlock::new(&[&q[..]]);
        block.dots(&[0.0; 10], &mut [[0.0; BLOCK_PROBES]; BLOCK_ROWS + 1]);
    }

    #[test]
    #[should_panic(expected = "expected 1..=16")]
    fn block_rejects_too_many_probes() {
        let q = [1.0f32];
        let _ = ProbeBlock::new(&[&q[..]; BLOCK_PROBES + 1]);
    }
}
