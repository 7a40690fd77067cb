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
//!   [`BLOCK_PROBES`] probes out chunk by chunk, two per 256-bit AVX2
//!   register, and scores all of them against one row per call.
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
//! * **AVX2** — the packed block, when `is_x86_feature_detected!("avx2")`
//!   holds at [`ProbeBlock::new`].
//! * **SSE2** — the row tile, on every x86_64 CPU (SSE2 is part of the
//!   baseline, so there is nothing to detect).
//! * **Portable** — everything else: the row tile is the per-lane
//!   [`ops::dot`] loop, and the block is [`ops::dot4`] over groups of four
//!   probes with [`ops::dot`] for the rest. Both keep every bit too.
//!
//! The tier is chosen by runtime CPU detection only; there is no option to
//! pick one.

use crate::ops;

/// Rows the row tile ([`dot_rows8`]) scores per call.
pub const ROW_TILE: usize = 8;

/// Most probes one [`ProbeBlock`] holds.
pub const BLOCK_PROBES: usize = 16;

/// Instruction-set tier a tile runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// 256-bit AVX2 registers (packed block; the row tile runs SSE2).
    Avx2,
    /// 128-bit SSE2 registers, part of the x86_64 baseline (row tile; the
    /// block runs the portable loop).
    Sse2,
    /// The [`ops::dot`] / [`ops::dot4`] loops.
    Portable,
}

impl Tier {
    /// Every tier, fastest first.
    pub(crate) const ALL: [Tier; 3] = [Tier::Avx2, Tier::Sse2, Tier::Portable];

    /// Whether the running CPU can execute this tier.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            Tier::Portable => true,
            Tier::Sse2 => cfg!(target_arch = "x86_64"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 => false,
        }
    }

    /// The fastest tier the running CPU supports.
    pub(crate) fn detect() -> Tier {
        Tier::ALL
            .into_iter()
            .find(|tier| tier.is_supported())
            .expect("the portable tier is always supported")
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
/// `Avx2` runs the SSE2 tile: the row tile has no 256-bit form.
#[inline]
pub(crate) fn dot_rows8_on(tier: Tier, q: &[f32], rows: &[f32]) -> [f32; ROW_TILE] {
    let dim = q.len();
    assert_eq!(rows.len(), ROW_TILE * dim, "dot_rows8: length mismatch");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline, so every CPU this
        // code runs on supports the `#[target_feature]` of the kernel.
        Tier::Avx2 | Tier::Sse2 => unsafe { x86::rows8_sse2(q, rows) },
        _ => std::array::from_fn(|r| ops::dot(q, &rows[r * dim..(r + 1) * dim])),
    }
}

/// Up to [`BLOCK_PROBES`] probes prepared for the block tile, which scores
/// all of them against one row per [`ProbeBlock::dots`] call.
///
/// On the AVX2 tier the probes' 4-element chunks are packed chunk-major:
/// probe `p`'s chunk `c` sits at `(c * lanes + p) * 4`, where `lanes` is the
/// probe count rounded up to even, so one 256-bit load holds two probes'
/// chunks. The tier is detected once, at construction.
#[derive(Debug, Clone)]
pub struct ProbeBlock<'q> {
    probes: Vec<&'q [f32]>,
    dim: usize,
    tier: Tier,
    /// The chunk-major packing the AVX2 kernel reads (a padding slot holds
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
    /// Also panics if the running CPU does not support `tier`: the AVX2
    /// kernel relies on this check.
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
        let mut packed = Vec::new();
        if tier == Tier::Avx2 {
            let lanes = probes.len().next_multiple_of(2);
            packed = vec![0.0f32; dim / 4 * lanes * 4];
            for (p, probe) in probes.iter().enumerate() {
                for (c, chunk) in probe.chunks_exact(4).enumerate() {
                    let at = (c * lanes + p) * 4;
                    packed[at..at + 4].copy_from_slice(chunk);
                }
            }
        }
        Self {
            probes: probes.to_vec(),
            dim,
            tier,
            packed,
        }
    }

    /// `out[p] = dot(probe_p, x)` for every probe, each bit-identical to
    /// [`ops::dot`].
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the probes' length or `out.len()`
    /// from the probe count.
    #[inline]
    pub fn dots(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.dim, "ProbeBlock::dots: length mismatch");
        assert_eq!(
            out.len(),
            self.probes.len(),
            "ProbeBlock::dots: output length mismatch"
        );
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                let chunks = self.dim / 4;
                let mut tails = [0.0f32; BLOCK_PROBES];
                for (tail, probe) in tails.iter_mut().zip(&self.probes) {
                    for j in chunks * 4..self.dim {
                        *tail += probe[j] * x[j];
                    }
                }
                let slots = self.probes.len().next_multiple_of(2);
                let mut lanes = [0.0f32; BLOCK_PROBES];
                // SAFETY: `with_tier` asserted that the running CPU supports
                // AVX2 before storing `Tier::Avx2`.
                unsafe { x86::block_avx2(&self.packed, slots, x, &tails, &mut lanes) };
                out.copy_from_slice(&lanes[..out.len()]);
            }
            _ => {
                let fours = self.probes.len() / 4 * 4;
                let (out4, rest) = out.split_at_mut(fours);
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernels behind the SSE2 row tile and the AVX2 block.

    use super::{BLOCK_PROBES, ROW_TILE};
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

    /// The packed block on AVX2: all `lanes` probe slots of `packed`
    /// against `x`, into `out[..lanes]`.
    ///
    /// # Safety
    /// The running CPU must support AVX2.
    pub(super) unsafe fn block_avx2(
        packed: &[f32],
        lanes: usize,
        x: &[f32],
        tails: &[f32; BLOCK_PROBES],
        out: &mut [f32; BLOCK_PROBES],
    ) {
        // SAFETY: the caller guarantees AVX2, the only requirement of the
        // `#[target_feature]` functions called here.
        unsafe {
            match lanes / 2 {
                1 => block_avx2_n::<1>(packed, x, tails, out),
                2 => block_avx2_n::<2>(packed, x, tails, out),
                3 => block_avx2_n::<3>(packed, x, tails, out),
                4 => block_avx2_n::<4>(packed, x, tails, out),
                5 => block_avx2_n::<5>(packed, x, tails, out),
                6 => block_avx2_n::<6>(packed, x, tails, out),
                7 => block_avx2_n::<7>(packed, x, tails, out),
                8 => block_avx2_n::<8>(packed, x, tails, out),
                _ => unreachable!("a probe block has 2..=16 even probe slots"),
            }
        }
    }

    /// [`block_avx2`] with `2 * A` probe slots: register `a` holds the
    /// partial sums of probes `2a` (low half) and `2a + 1` (high half).
    #[target_feature(enable = "avx2")]
    fn block_avx2_n<const A: usize>(
        packed: &[f32],
        x: &[f32],
        tails: &[f32; BLOCK_PROBES],
        out: &mut [f32; BLOCK_PROBES],
    ) {
        let lanes = 2 * A;
        let chunks = x.len() / 4;
        assert_eq!(packed.len(), chunks * lanes * 4, "block_avx2: bad packing");
        let mut acc = [_mm256_setzero_ps(); A];
        for c in 0..chunks {
            // SAFETY: `4c + 4 <= 4 * chunks <= x.len()`.
            let half = unsafe { _mm_loadu_ps(x.as_ptr().add(4 * c)) };
            let xv = _mm256_set_m128(half, half);
            let base = c * lanes * 4;
            for (a, s) in acc.iter_mut().enumerate() {
                // SAFETY: `base + 8a + 8 <= (c + 1) * lanes * 4 <=
                // packed.len()` (asserted above).
                let qv = unsafe { _mm256_loadu_ps(packed.as_ptr().add(base + 8 * a)) };
                *s = _mm256_add_ps(*s, _mm256_mul_ps(qv, xv));
            }
        }
        // Per group of four registers (eight probes), the in-lane transpose
        // leaves probes [0 2 4 6 | 1 3 5 7]; the permute restores probe
        // order before the tail is added.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
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
            // floats of `tails` and `out`.
            unsafe {
                let tail = _mm256_loadu_ps(tails.as_ptr().add(8 * g));
                _mm256_storeu_ps(out.as_mut_ptr().add(8 * g), _mm256_add_ps(sum, tail));
            }
        }
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
                    let x = vector(99, dim, special);
                    for len in 1..=BLOCK_PROBES {
                        let refs: Vec<&[f32]> = probes[..len].iter().map(Vec::as_slice).collect();
                        let block = ProbeBlock::with_tier(&refs, tier);
                        let mut out = vec![f32::NAN; len];
                        block.dots(&x, &mut out);
                        for (p, (&lane, probe)) in out.iter().zip(&refs).enumerate() {
                            assert!(
                                same(lane, ops::dot(probe, &x)),
                                "block {tier:?} dim {dim} len {len} probe {p}"
                            );
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
        block.dots(&[1.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "expected 1..=16")]
    fn block_rejects_too_many_probes() {
        let q = [1.0f32];
        let _ = ProbeBlock::new(&[&q[..]; BLOCK_PROBES + 1]);
    }
}
