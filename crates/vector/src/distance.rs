//! Distance metrics.
//!
//! The paper's method is defined for **angular distances**, with cosine
//! distance as the concrete metric used throughout its evaluation. Some of
//! the baselines it compares against only support Euclidean distance, so the
//! paper converts thresholds via Equation (1), valid for unit-norm vectors:
//!
//! ```text
//! d_euc(u, v) = sqrt(2 * d_cos(u, v))      when ||u|| = ||v|| = 1
//! ```
//!
//! [`cosine_to_euclidean`] / [`euclidean_to_cosine`] implement that
//! conversion so every engine in this workspace can speak either language.
//!
//! [`Metric`] is the workspace's one metric type. Each metric's scalar
//! expression is written once, in one of two private formulas: the cosine
//! family (cosine, angular, neg-dot) from `(dot, ‖q‖, ‖x‖)`, and the
//! Euclidean family from the squared distance. [`Metric::dist`] and the
//! prepared forms of [`crate::kernel`] (the norm-cached distance, the range
//! predicates and the tiled decisions) all call them, so every path answers
//! with the same bits by construction.

use crate::ops;
use serde::{Deserialize, Serialize};

/// The built-in distance metrics, named by configuration files, snapshots
/// and engines. [`Metric::dist`] evaluates one pair; the prepared forms
/// ([`Metric::prepare`], [`Metric::probe`], [`Metric::block`]) evaluate a
/// query against cached row norms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
#[derive(Default)]
pub enum Metric {
    /// `1 - cos(a, b)`, bounded to `[0, 2]`: the paper's primary metric. It
    /// is *not* a true metric (no triangle inequality), which is one reason
    /// the paper's framework relies on range counting rather than
    /// metric-tree pruning.
    #[default]
    Cosine,
    /// `acos(cos(a, b)) / pi`, bounded to `[0, 1]`: a proper metric.
    Angular,
    /// L2 distance.
    Euclidean,
    /// Squared L2 distance: not a metric, but monotone in the L2 distance,
    /// so range queries can square their thresholds instead.
    SquaredEuclidean,
    /// Negative inner product `-<a, b>`, for maximum-inner-product style
    /// workloads; cosine distance minus one on unit-normalized data.
    NegDot,
}

impl Metric {
    /// Every built-in metric, in declaration order. The kernel-agreement
    /// tests iterate this instead of hand-copying the list.
    pub const ALL: [Metric; 5] = [
        Metric::Cosine,
        Metric::Angular,
        Metric::Euclidean,
        Metric::SquaredEuclidean,
        Metric::NegDot,
    ];

    /// Translate a cosine-distance threshold into this metric's equivalent
    /// threshold over **unit-normalized** vectors — Equation (1) of the
    /// paper generalized to every built-in metric, so one ε setting can
    /// drive an engine under any of them and select the same neighborhood.
    pub fn equivalent_threshold(&self, d_cos: f32) -> f32 {
        match self {
            Metric::Cosine => d_cos,
            Metric::Angular => {
                (1.0 - d_cos.clamp(0.0, 2.0)).clamp(-1.0, 1.0).acos() / std::f32::consts::PI
            }
            Metric::Euclidean => cosine_to_euclidean(d_cos),
            Metric::SquaredEuclidean => {
                let e = cosine_to_euclidean(d_cos);
                e * e
            }
            Metric::NegDot => d_cos - 1.0,
        }
    }

    /// Compute the distance under this metric.
    #[inline]
    pub fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                self.dist_from_squared(ops::squared_euclidean(a, b))
            }
            // Neg-dot reads neither norm, so none is computed for it.
            Metric::NegDot => self.dist_from_dot(|| ops::dot(a, b), 0.0, 0.0),
            Metric::Cosine | Metric::Angular => {
                self.dist_from_dot(|| ops::dot(a, b), ops::norm(a), ops::norm(b))
            }
        }
    }

    /// The cosine family's formula: the distance of a pair with dot product
    /// `dot()` and norms `q_norm`, `x_norm` (neg-dot reads only the dot).
    ///
    /// # Panics
    /// Panics for the Euclidean family.
    #[inline]
    pub(crate) fn dist_from_dot(self, dot: impl FnOnce() -> f32, q_norm: f32, x_norm: f32) -> f32 {
        match self {
            Metric::Cosine => 1.0 - similarity(dot, q_norm, x_norm),
            Metric::Angular => {
                similarity(dot, q_norm, x_norm).clamp(-1.0, 1.0).acos() / std::f32::consts::PI
            }
            Metric::NegDot => -dot(),
            Metric::Euclidean | Metric::SquaredEuclidean => {
                unreachable!("{self:?} is not of the cosine family")
            }
        }
    }

    /// The Euclidean family's formula: the distance of a pair whose squared
    /// L2 distance (subtract form, [`ops::squared_euclidean`]) is `se`.
    ///
    /// # Panics
    /// Panics for the cosine family.
    #[inline]
    pub(crate) fn dist_from_squared(self, se: f32) -> f32 {
        match self {
            Metric::Euclidean => se.sqrt(),
            Metric::SquaredEuclidean => se,
            _ => unreachable!("{self:?} is not of the Euclidean family"),
        }
    }
}

/// Cosine similarity from `dot()` and the two norms: 0 when a norm is at
/// most `1e-12` (no direction; the dot is then never computed), otherwise
/// clamped to `[-1, 1]` (NaN passes through) so rounding cannot push it
/// past ±1.
#[inline]
fn similarity(dot: impl FnOnce() -> f32, q_norm: f32, x_norm: f32) -> f32 {
    if q_norm <= 1e-12 || x_norm <= 1e-12 {
        return 0.0;
    }
    (dot() / (q_norm * x_norm)).clamp(-1.0, 1.0)
}

/// Equation (1) of the paper: convert a cosine-distance threshold into the
/// equivalent Euclidean threshold, valid for unit-normalized vectors.
///
/// Cosine distances live in `[0, 2]`; out-of-domain inputs are clamped into
/// that range before converting, so the result is always a valid Euclidean
/// distance between unit vectors (also `[0, 2]`).
#[inline]
pub fn cosine_to_euclidean(d_cos: f32) -> f32 {
    (2.0 * d_cos.clamp(0.0, 2.0)).sqrt()
}

/// Inverse of [`cosine_to_euclidean`]: convert a Euclidean threshold over
/// unit-normalized vectors into the equivalent cosine-distance threshold.
///
/// Euclidean distances between unit vectors live in `[0, 2]`; out-of-domain
/// inputs are clamped into that range before converting instead of producing
/// cosine "distances" above 2.
#[inline]
pub fn euclidean_to_cosine(d_euc: f32) -> f32 {
    let d_euc = d_euc.clamp(0.0, 2.0);
    d_euc * d_euc / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: &[f32]) -> Vec<f32> {
        let mut v = v.to_vec();
        ops::normalize_in_place(&mut v);
        v
    }

    #[test]
    fn cosine_distance_identity_and_orthogonality() {
        let a = unit(&[1.0, 2.0, 3.0]);
        let b = unit(&[-2.0, 1.0, 0.0]);
        assert!(Metric::Cosine.dist(&a, &a).abs() < 1e-5);
        assert!((Metric::Cosine.dist(&a, &b) - 1.0).abs() < 1e-5);
        let neg: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!((Metric::Cosine.dist(&a, &neg) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn angular_distance_is_bounded_and_symmetric() {
        let a = unit(&[0.3, -0.7, 0.1, 0.9]);
        let b = unit(&[0.5, 0.5, -0.5, 0.2]);
        let d1 = Metric::Angular.dist(&a, &b);
        let d2 = Metric::Angular.dist(&b, &a);
        assert!((d1 - d2).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&d1));
        assert!(Metric::Angular.dist(&a, &a) < 1e-3);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert!((Metric::Euclidean.dist(&a, &b) - 5.0).abs() < 1e-6);
        assert!((Metric::SquaredEuclidean.dist(&a, &b) - 25.0).abs() < 1e-5);
    }

    #[test]
    fn dot_product_similarity_sign() {
        let a = [1.0f32, 0.0];
        assert_eq!(Metric::NegDot.dist(&a, &a), -1.0);
    }

    /// Each formula against values computed by hand, bit for bit, through
    /// both entry points: the generic [`Metric::dist`] and the prepared
    /// distance with the row's norm supplied.
    #[test]
    fn each_formula_reads_hand_computed_values() {
        use std::f32::consts::SQRT_2;
        const NAN: f32 = f32::NAN;
        // Per case: the pair, then the distances in `Metric::ALL` order
        // (cosine, angular, Euclidean, squared Euclidean, neg-dot).
        let cases: [([f32; 2], [f32; 2], [f32; 5]); 8] = [
            // Identical, orthogonal and antiparallel axis vectors; a +0.0
            // dot reads -0.0 under neg-dot.
            ([1.0, 0.0], [1.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1.0]),
            ([1.0, 0.0], [0.0, 1.0], [1.0, 0.5, SQRT_2, 2.0, -0.0]),
            ([1.0, 0.0], [-1.0, 0.0], [2.0, 1.0, 2.0, 4.0, 1.0]),
            ([0.0, 3.0], [4.0, 0.0], [1.0, 0.5, 5.0, 25.0, -0.0]),
            // 6 / (√2 · √18) rounds to 1.0000001; the clamp makes it 1.
            ([1.0, 1.0], [3.0, 3.0], [0.0, 0.0, 2.0 * SQRT_2, 8.0, -6.0]),
            // A zero norm has no direction: similarity 0.
            ([1.0, 0.0], [0.0, 0.0], [1.0, 0.5, 1.0, 1.0, -0.0]),
            // ‖x‖ = 1.4e-13 is under the 1e-12 guard; 1 - 1e-13 rounds to 1.
            ([1.0, 0.0], [1e-13, 1e-13], [1.0, 0.5, 1.0, 1.0, -1e-13]),
            ([1.0, 0.0], [NAN, 0.0], [NAN; 5]),
        ];
        for (q, x, want) in cases {
            for (metric, want) in Metric::ALL.into_iter().zip(want) {
                let generic = metric.dist(&q, &x);
                let prepared = metric.prepare(&q).dist(&x, ops::norm(&x));
                for got in [generic, prepared] {
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{metric:?} {q:?} {x:?}: {got:e} ({:#x}), want {want:e} ({:#x})",
                        got.to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn equation_1_conversion_on_unit_vectors() {
        // Paper example: d_cos = 0.5 corresponds to d_euc = 1.0.
        assert!((cosine_to_euclidean(0.5) - 1.0).abs() < 1e-6);
        assert!((euclidean_to_cosine(1.0) - 0.5).abs() < 1e-6);
        // The conversions must be mutual inverses on the valid range.
        for i in 0..=20 {
            let d_cos = i as f32 * 0.1;
            let back = euclidean_to_cosine(cosine_to_euclidean(d_cos));
            assert!((back - d_cos).abs() < 1e-5, "d_cos={d_cos} back={back}");
        }
    }

    #[test]
    fn equation_1_agrees_with_actual_distances() {
        let a = unit(&[0.2, 0.5, -0.1, 0.8]);
        let b = unit(&[-0.3, 0.4, 0.9, 0.1]);
        let d_cos = Metric::Cosine.dist(&a, &b);
        let d_euc = Metric::Euclidean.dist(&a, &b);
        assert!((cosine_to_euclidean(d_cos) - d_euc).abs() < 1e-4);
    }

    #[test]
    fn equivalent_threshold_selects_the_same_neighborhood() {
        // On unit vectors, a point within cosine distance 0.3 of the query
        // must be within the translated threshold under every metric, and a
        // point outside must stay outside.
        let q = unit(&[0.2, 0.5, -0.1, 0.8]);
        let near = unit(&[0.25, 0.52, -0.05, 0.78]);
        let far = unit(&[-0.3, 0.4, 0.9, 0.1]);
        let d_cos = 0.3f32;
        assert!(Metric::Cosine.dist(&q, &near) < d_cos);
        assert!(Metric::Cosine.dist(&q, &far) >= d_cos);
        for metric in Metric::ALL {
            let eps = metric.equivalent_threshold(d_cos);
            assert!(
                metric.dist(&q, &near) < eps,
                "{metric:?}: near point excluded"
            );
            assert!(
                metric.dist(&q, &far) >= eps,
                "{metric:?}: far point included"
            );
        }
        assert_eq!(Metric::ALL.len(), 5);
    }

    #[test]
    fn metric_serde_round_trip() {
        assert_eq!(Metric::default(), Metric::Cosine);
        let m = Metric::SquaredEuclidean;
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(s, "\"squared_euclidean\"");
        let back: Metric = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
