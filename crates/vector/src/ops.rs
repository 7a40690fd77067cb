//! Low-level dense vector kernels.
//!
//! [`dot`] defines the workspace's accumulation contract: four partial sums
//! over 4-element chunks (a separate multiply and add each, never fused), a
//! sequential tail for `len % 4`, and the reduction `s0 + s1 + s2 + s3 +
//! tail` in that order. Everything that must agree bit for bit with a scalar
//! distance — [`dot4`], the register tiles of [`crate::tile`], the
//! specialized metric kernels and the MLP's batch forward — reproduces that
//! order per pair. The loops here are plain Rust over slices whose lengths
//! are asserted once up front; LLVM keeps each pair's four sums in one
//! vector register, a single add chain, which is why the linear scan's hot
//! loops run on [`crate::tile`] instead.

/// Dot product of two equally sized slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Four independent accumulators let LLVM vectorize without reassociation
    // concerns dominating the loop.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    s0 + s1 + s2 + s3 + tail
}

/// Register-tiled 4-query dot-product micro-kernel: the mini-GEMM building
/// block of the query-major batch paths.
///
/// Computes `[dot(q0, x), dot(q1, x), dot(q2, x), dot(q3, x)]` while loading
/// each element of `x` from memory **once** for all four queries — a 4×1
/// outer-product tile held entirely in registers. In a blocked scan this
/// quarters the dominant memory traffic (the dataset row stream) relative to
/// four independent [`dot`] calls.
///
/// Every lane replicates [`dot`]'s exact accumulation order (four unrolled
/// partial sums plus a tail, combined as `s0 + s1 + s2 + s3 + tail`), so each
/// returned value is **bit-identical** to the corresponding scalar `dot`
/// call. The specialized kernels and the MLP batch forward rely on this for
/// their byte-identical-results guarantee.
///
/// # Panics
/// Panics if any slice length differs from `x.len()`.
#[inline]
pub fn dot4(q0: &[f32], q1: &[f32], q2: &[f32], q3: &[f32], x: &[f32]) -> [f32; 4] {
    let n = x.len();
    assert_eq!(q0.len(), n, "dot4: length mismatch");
    assert_eq!(q1.len(), n, "dot4: length mismatch");
    assert_eq!(q2.len(), n, "dot4: length mismatch");
    assert_eq!(q3.len(), n, "dot4: length mismatch");
    let chunks = n / 4;
    // 4 lanes x 4 unrolled accumulators: a 4x4 register tile.
    let mut acc = [[0.0f32; 4]; 4];
    for i in 0..chunks {
        let j = i * 4;
        let (x0, x1, x2, x3) = (x[j], x[j + 1], x[j + 2], x[j + 3]);
        acc[0][0] += q0[j] * x0;
        acc[0][1] += q0[j + 1] * x1;
        acc[0][2] += q0[j + 2] * x2;
        acc[0][3] += q0[j + 3] * x3;
        acc[1][0] += q1[j] * x0;
        acc[1][1] += q1[j + 1] * x1;
        acc[1][2] += q1[j + 2] * x2;
        acc[1][3] += q1[j + 3] * x3;
        acc[2][0] += q2[j] * x0;
        acc[2][1] += q2[j + 1] * x1;
        acc[2][2] += q2[j + 2] * x2;
        acc[2][3] += q2[j + 3] * x3;
        acc[3][0] += q3[j] * x0;
        acc[3][1] += q3[j + 1] * x1;
        acc[3][2] += q3[j + 2] * x2;
        acc[3][3] += q3[j + 3] * x3;
    }
    let mut tails = [0.0f32; 4];
    for j in chunks * 4..n {
        let xv = x[j];
        tails[0] += q0[j] * xv;
        tails[1] += q1[j] * xv;
        tails[2] += q2[j] * xv;
        tails[3] += q3[j] * xv;
    }
    [
        acc[0][0] + acc[0][1] + acc[0][2] + acc[0][3] + tails[0],
        acc[1][0] + acc[1][1] + acc[1][2] + acc[1][3] + tails[1],
        acc[2][0] + acc[2][1] + acc[2][2] + acc[2][3] + tails[2],
        acc[3][0] + acc[3][1] + acc[3][2] + acc[3][3] + tails[3],
    ]
}

/// Squared Euclidean distance between two equally sized slices.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_euclidean: length mismatch");
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        let d = a[j] - b[j];
        tail += d * d;
    }
    s0 + s1 + s2 + s3 + tail
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Normalize `a` to unit L2 norm in place.
///
/// Vectors with a norm below `1e-12` are left untouched (they carry no
/// directional information and normalizing them would produce NaNs).
/// Returns the original norm.
#[inline]
pub fn normalize_in_place(a: &mut [f32]) -> f32 {
    let n = norm(a);
    if n > 1e-12 {
        let inv = 1.0 / n;
        for x in a.iter_mut() {
            *x *= inv;
        }
    }
    n
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scale a vector in place by `alpha`.
#[inline]
pub fn scale_in_place(a: &mut [f32], alpha: f32) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

/// Element-wise mean of a set of equally sized rows. Returns `None` when
/// `rows` is empty.
pub fn mean<'a, I>(rows: I, dim: usize) -> Option<Vec<f32>>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut acc = vec![0.0f32; dim];
    let mut count = 0usize;
    for row in rows {
        assert_eq!(row.len(), dim, "mean: row dimension mismatch");
        axpy(1.0, row, &mut acc);
        count += 1;
    }
    if count == 0 {
        return None;
    }
    scale_in_place(&mut acc, 1.0 / count as f32);
    Some(acc)
}

/// Cosine similarity between two vectors (not assumed normalized).
///
/// Returns 0 when either vector has (near-)zero norm.
#[inline]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= 1e-12 || nb <= 1e-12 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn dot4_lanes_are_bit_identical_to_scalar_dot() {
        // Odd length exercises the tail; distinct per-lane data exercises the
        // full register tile.
        for len in [0usize, 1, 3, 4, 7, 13, 64] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let qs: Vec<Vec<f32>> = (0..4)
                .map(|l| {
                    (0..len)
                        .map(|i| ((i + l * 7) as f32 * 0.11).cos() * (l as f32 + 0.5))
                        .collect()
                })
                .collect();
            let tiled = dot4(&qs[0], &qs[1], &qs[2], &qs[3], &x);
            for l in 0..4 {
                assert_eq!(
                    tiled[l].to_bits(),
                    dot(&qs[l], &x).to_bits(),
                    "lane {l} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot4_panics_on_length_mismatch() {
        let _ = dot4(&[1.0], &[1.0], &[1.0], &[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn squared_euclidean_matches_naive() {
        let a = [1.0f32, -2.0, 3.5, 0.0, 7.25];
        let b = [0.5f32, 2.0, -3.5, 1.0, 7.25];
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((squared_euclidean(&a, &b) - naive).abs() < 1e-5);
    }

    #[test]
    fn norm_of_unit_axis_is_one() {
        let mut v = vec![0.0f32; 17];
        v[9] = 1.0;
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_in_place_produces_unit_norm() {
        let mut v: Vec<f32> = (1..20).map(|i| i as f32).collect();
        let old = normalize_in_place(&mut v);
        assert!(old > 1.0);
        assert!((norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0f32; 8];
        let old = normalize_in_place(&mut v);
        assert_eq!(old, 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn mean_of_rows() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = mean(rows.iter().map(|r| r.as_slice()), 2).unwrap();
        assert_eq!(m, vec![3.0, 4.0]);
    }

    #[test]
    fn mean_of_nothing_is_none() {
        assert!(mean(std::iter::empty(), 4).is_none());
    }

    #[test]
    fn cosine_similarity_bounds_and_degenerate() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &a), 0.0);
    }
}
