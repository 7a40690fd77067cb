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

use crate::ops;
use serde::{Deserialize, Serialize};

/// Object-safe distance abstraction used by every range-query engine and
/// clusterer in the workspace.
pub trait DistanceMetric: Send + Sync {
    /// Distance between two equal-length vectors.
    fn dist(&self, a: &[f32], b: &[f32]) -> f32;

    /// Human-readable metric name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Whether this metric satisfies the triangle inequality (needed by the
    /// cover tree). Cosine *distance* does not; the angular distance and the
    /// Euclidean distance do.
    fn is_metric(&self) -> bool {
        true
    }
}

/// Cosine distance `1 - cos(a, b)`, bounded to `[0, 2]`.
///
/// This is the paper's primary metric. Note it is *not* a true metric (no
/// triangle inequality), which is one reason the paper's framework relies on
/// range counting rather than metric-tree pruning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CosineDistance;

impl DistanceMetric for CosineDistance {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        1.0 - ops::cosine_similarity(a, b)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// Angular distance `acos(cos(a, b)) / pi`, bounded to `[0, 1]`.
///
/// Unlike plain cosine distance this *is* a proper metric, which matters for
/// the cover-tree based BLOCK-DBSCAN baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AngularDistance;

impl DistanceMetric for AngularDistance {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        ops::cosine_similarity(a, b).clamp(-1.0, 1.0).acos() / std::f32::consts::PI
    }

    fn name(&self) -> &'static str {
        "angular"
    }
}

/// Euclidean (L2) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EuclideanDistance;

impl DistanceMetric for EuclideanDistance {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        ops::squared_euclidean(a, b).sqrt()
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// Squared Euclidean distance (cheaper; not a metric because the triangle
/// inequality fails, but monotone in Euclidean distance so range queries can
/// square their thresholds instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SquaredEuclideanDistance;

impl DistanceMetric for SquaredEuclideanDistance {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        ops::squared_euclidean(a, b)
    }

    fn name(&self) -> &'static str {
        "sq_euclidean"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// Negative inner product, treated as a "distance" (`-<a,b>`). Useful for
/// maximum-inner-product style workloads; equal to cosine distance minus one
/// on unit-normalized data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DotProductSimilarity;

impl DistanceMetric for DotProductSimilarity {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        -ops::dot(a, b)
    }

    fn name(&self) -> &'static str {
        "neg_dot"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// Enumeration of the built-in metrics, convenient for configuration files
/// and CLI flags. Convert to a concrete metric with [`Metric::boxed`] or use
/// [`Metric::dist`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
#[derive(Default)]
pub enum Metric {
    /// `1 - cos(a, b)`.
    #[default]
    Cosine,
    /// `acos(cos(a, b)) / pi`.
    Angular,
    /// L2 distance.
    Euclidean,
    /// Squared L2 distance.
    SquaredEuclidean,
    /// Negative inner product.
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
            Metric::Cosine => CosineDistance.dist(a, b),
            Metric::Angular => AngularDistance.dist(a, b),
            Metric::Euclidean => EuclideanDistance.dist(a, b),
            Metric::SquaredEuclidean => SquaredEuclideanDistance.dist(a, b),
            Metric::NegDot => DotProductSimilarity.dist(a, b),
        }
    }

    /// Box the corresponding [`DistanceMetric`] implementation.
    pub fn boxed(&self) -> Box<dyn DistanceMetric> {
        match self {
            Metric::Cosine => Box::new(CosineDistance),
            Metric::Angular => Box::new(AngularDistance),
            Metric::Euclidean => Box::new(EuclideanDistance),
            Metric::SquaredEuclidean => Box::new(SquaredEuclideanDistance),
            Metric::NegDot => Box::new(DotProductSimilarity),
        }
    }

    /// Name of the metric, matching [`DistanceMetric::name`].
    pub fn name(&self) -> &'static str {
        self.boxed().name()
    }
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
        assert!(CosineDistance.dist(&a, &a).abs() < 1e-5);
        assert!((CosineDistance.dist(&a, &b) - 1.0).abs() < 1e-5);
        let neg: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!((CosineDistance.dist(&a, &neg) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn angular_distance_is_bounded_and_symmetric() {
        let a = unit(&[0.3, -0.7, 0.1, 0.9]);
        let b = unit(&[0.5, 0.5, -0.5, 0.2]);
        let d1 = AngularDistance.dist(&a, &b);
        let d2 = AngularDistance.dist(&b, &a);
        assert!((d1 - d2).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&d1));
        assert!(AngularDistance.dist(&a, &a) < 1e-3);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert!((EuclideanDistance.dist(&a, &b) - 5.0).abs() < 1e-6);
        assert!((SquaredEuclideanDistance.dist(&a, &b) - 25.0).abs() < 1e-5);
    }

    #[test]
    fn dot_product_similarity_sign() {
        let a = [1.0f32, 0.0];
        assert_eq!(DotProductSimilarity.dist(&a, &a), -1.0);
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
        let d_cos = CosineDistance.dist(&a, &b);
        let d_euc = EuclideanDistance.dist(&a, &b);
        assert!((cosine_to_euclidean(d_cos) - d_euc).abs() < 1e-4);
    }

    #[test]
    fn metric_enum_dispatch_matches_structs() {
        let a = unit(&[1.0, 2.0, 3.0]);
        let b = unit(&[3.0, 2.0, 1.0]);
        assert_eq!(Metric::Cosine.dist(&a, &b), CosineDistance.dist(&a, &b));
        assert_eq!(
            Metric::Euclidean.dist(&a, &b),
            EuclideanDistance.dist(&a, &b)
        );
        assert_eq!(Metric::default(), Metric::Cosine);
        assert_eq!(Metric::Angular.name(), "angular");
        assert!(!Metric::Cosine.boxed().is_metric());
        assert!(Metric::Euclidean.boxed().is_metric());
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
        assert!(CosineDistance.dist(&q, &near) < d_cos);
        assert!(CosineDistance.dist(&q, &far) >= d_cos);
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
        let m = Metric::SquaredEuclidean;
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(s, "\"squared_euclidean\"");
        let back: Metric = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }
}
