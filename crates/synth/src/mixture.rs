//! Directional Gaussian-mixture generator.
//!
//! Embedding spaces produced by neural encoders are, for the purposes of
//! angular-distance DBSCAN, well modelled by a mixture of directional
//! clusters on the unit sphere plus a fraction of isotropic "noise"
//! directions. This module draws such mixtures:
//!
//! 1. sample `clusters` unit-norm centers uniformly on the sphere;
//! 2. assign cluster sizes with a configurable Zipf-like skew (real corpora
//!    have a few dominant topics and a long tail of small ones);
//! 3. draw each member as `center + N(0, spread^2 I)` re-normalized to the
//!    sphere — equivalent in practice to a von Mises–Fisher draw with
//!    concentration `~ 1/spread^2`;
//! 4. draw `noise_fraction` of the points as uniform directions.

use crate::GeneratorLabels;
use laf_vector::{ops, Dataset, VectorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Configuration for the directional mixture generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingMixtureConfig {
    /// Total number of points to generate (clustered + noise).
    pub n_points: usize,
    /// Dimensionality of the embedding space.
    pub dim: usize,
    /// Number of planted clusters.
    pub clusters: usize,
    /// Standard deviation of the per-coordinate Gaussian perturbation added
    /// to a cluster center before re-normalization. Larger values produce
    /// more diffuse, harder-to-separate clusters.
    pub spread: f32,
    /// Fraction of points drawn as uniform-direction noise, in `[0, 1)`.
    pub noise_fraction: f64,
    /// Skew of the cluster-size distribution: cluster `k` (0-based) receives
    /// weight `(k + 1)^{-skew}`. `0.0` gives equal sizes; `1.0` is a
    /// Zipf-like long tail.
    pub size_skew: f64,
    /// Fraction of coordinates in which each cluster is "active". Lower
    /// values give clusters confined to axis-aligned subspaces, mimicking
    /// the higher intrinsic dimensionality variation of passage embeddings.
    pub subspace_fraction: f64,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
}

impl Default for EmbeddingMixtureConfig {
    fn default() -> Self {
        Self {
            n_points: 2_000,
            dim: 64,
            clusters: 20,
            spread: 0.08,
            noise_fraction: 0.3,
            size_skew: 0.7,
            subspace_fraction: 1.0,
            seed: 42,
        }
    }
}

impl EmbeddingMixtureConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] when any field is outside
    /// its legal range.
    pub fn validate(&self) -> Result<(), VectorError> {
        if self.n_points == 0 {
            return Err(VectorError::InvalidParameter(
                "n_points must be positive".into(),
            ));
        }
        if self.dim == 0 {
            return Err(VectorError::InvalidParameter("dim must be positive".into()));
        }
        if self.clusters == 0 {
            return Err(VectorError::InvalidParameter(
                "clusters must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.noise_fraction) {
            return Err(VectorError::InvalidParameter(
                "noise_fraction must be in [0, 1)".into(),
            ));
        }
        if self.spread <= 0.0 || !self.spread.is_finite() {
            return Err(VectorError::InvalidParameter(
                "spread must be positive and finite".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.subspace_fraction) || self.subspace_fraction == 0.0 {
            return Err(VectorError::InvalidParameter(
                "subspace_fraction must be in (0, 1]".into(),
            ));
        }
        if self.size_skew < 0.0 {
            return Err(VectorError::InvalidParameter(
                "size_skew must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Generate the dataset and the planted labels.
    ///
    /// # Errors
    /// Propagates [`VectorError::InvalidParameter`] from [`Self::validate`].
    pub fn generate(&self) -> Result<(Dataset, GeneratorLabels), VectorError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let normal = Normal::new(0.0f64, 1.0).expect("unit normal is valid");

        let n_noise = (self.n_points as f64 * self.noise_fraction).round() as usize;
        let n_clustered = self.n_points - n_noise;

        // Cluster centers: uniform directions.
        let centers: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| sample_unit_direction(self.dim, &normal, &mut rng))
            .collect();

        // Optional axis-aligned active subspace per cluster.
        let active_dims = ((self.dim as f64) * self.subspace_fraction).ceil() as usize;
        let subspaces: Vec<Vec<usize>> = (0..self.clusters)
            .map(|_| {
                let mut dims: Vec<usize> = (0..self.dim).collect();
                partial_shuffle(&mut dims, active_dims.max(1), &mut rng);
                dims.truncate(active_dims.max(1));
                dims
            })
            .collect();

        // Cluster sizes from the skewed weights.
        let sizes = skewed_sizes(n_clustered, self.clusters, self.size_skew);

        let mut data = Dataset::with_capacity(self.dim, self.n_points)?;
        let mut labels: GeneratorLabels = Vec::with_capacity(self.n_points);

        for (cluster_id, (&size, center)) in sizes.iter().zip(&centers).enumerate() {
            for _ in 0..size {
                let mut point = center.clone();
                for &d in &subspaces[cluster_id] {
                    point[d] += (normal.sample(&mut rng) as f32) * self.spread;
                }
                ops::normalize_in_place(&mut point);
                data.push(&point)?;
                labels.push(Some(cluster_id));
            }
        }

        for _ in 0..n_noise {
            let point = sample_unit_direction(self.dim, &normal, &mut rng);
            data.push(&point)?;
            labels.push(None);
        }

        // Shuffle so that cluster membership is not encoded in row order.
        let mut order: Vec<usize> = (0..data.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let shuffled = data.select(&order)?;
        let shuffled_labels = order.iter().map(|&i| labels[i]).collect();
        Ok((shuffled, shuffled_labels))
    }
}

/// Sample a uniform direction on the unit sphere in `dim` dimensions.
fn sample_unit_direction<R: Rng>(dim: usize, normal: &Normal<f64>, rng: &mut R) -> Vec<f32> {
    loop {
        let mut v: Vec<f32> = (0..dim).map(|_| normal.sample(rng) as f32).collect();
        if ops::normalize_in_place(&mut v) > 1e-9 {
            return v;
        }
    }
}

/// Fisher–Yates prefix shuffle: after the call the first `k` elements are a
/// uniform random sample of the slice.
fn partial_shuffle<T, R: Rng>(items: &mut [T], k: usize, rng: &mut R) {
    let n = items.len();
    for i in 0..k.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        items.swap(i, j);
    }
}

/// Split `total` points over `clusters` clusters with weights `(k+1)^-skew`,
/// guaranteeing every cluster receives at least one point when
/// `total >= clusters`.
fn skewed_sizes(total: usize, clusters: usize, skew: f64) -> Vec<usize> {
    if total == 0 {
        return vec![0; clusters];
    }
    let weights: Vec<f64> = (0..clusters)
        .map(|k| ((k + 1) as f64).powf(-skew))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / weight_sum) * total as f64).floor() as usize)
        .collect();
    // Ensure minimum of one point per cluster where possible.
    if total >= clusters {
        for s in sizes.iter_mut() {
            if *s == 0 {
                *s = 1;
            }
        }
    }
    // Fix up rounding so the sizes sum to exactly `total`.
    let mut assigned: usize = sizes.iter().sum();
    let mut k = 0usize;
    while assigned < total {
        sizes[k % clusters] += 1;
        assigned += 1;
        k += 1;
    }
    while assigned > total {
        let idx = sizes
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 1)
            .map(|(i, _)| i)
            .next_back()
            .unwrap_or(0);
        if sizes[idx] == 0 {
            break;
        }
        sizes[idx] -= 1;
        assigned -= 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_vector::Metric;

    #[test]
    fn default_config_is_valid() {
        assert!(EmbeddingMixtureConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = EmbeddingMixtureConfig::default();
        for cfg in [
            EmbeddingMixtureConfig {
                n_points: 0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                dim: 0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                clusters: 0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                noise_fraction: 1.0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                noise_fraction: -0.1,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                spread: 0.0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                spread: f32::NAN,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                subspace_fraction: 0.0,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                subspace_fraction: 1.5,
                ..base.clone()
            },
            EmbeddingMixtureConfig {
                size_skew: -1.0,
                ..base
            },
        ] {
            assert!(
                cfg.generate().is_err(),
                "config should be rejected: {cfg:?}"
            );
        }
    }

    #[test]
    fn generates_requested_shape_and_normalization() {
        let cfg = EmbeddingMixtureConfig {
            n_points: 500,
            dim: 32,
            clusters: 8,
            noise_fraction: 0.2,
            seed: 1,
            ..Default::default()
        };
        let (data, labels) = cfg.generate().unwrap();
        assert_eq!(data.len(), 500);
        assert_eq!(data.dim(), 32);
        assert_eq!(labels.len(), 500);
        assert!(data.is_normalized(1e-3));
        let n_noise = labels.iter().filter(|l| l.is_none()).count();
        assert_eq!(n_noise, 100);
        let max_label = labels.iter().flatten().max().copied().unwrap();
        assert!(max_label < 8);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = EmbeddingMixtureConfig {
            n_points: 200,
            dim: 16,
            seed: 99,
            ..Default::default()
        };
        let (a, la) = cfg.generate().unwrap();
        let (b, lb) = cfg.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(la, lb);
        let cfg2 = EmbeddingMixtureConfig { seed: 100, ..cfg };
        let (c, _) = cfg2.generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn intra_cluster_distances_are_smaller_than_inter_cluster() {
        let cfg = EmbeddingMixtureConfig {
            n_points: 600,
            dim: 48,
            clusters: 6,
            spread: 0.05,
            noise_fraction: 0.1,
            size_skew: 0.0,
            seed: 5,
            ..Default::default()
        };
        let (data, labels) = cfg.generate().unwrap();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in (0..data.len()).step_by(7) {
            for j in (i + 1..data.len()).step_by(11) {
                let d = Metric::Cosine.dist(data.row(i), data.row(j));
                match (labels[i], labels[j]) {
                    (Some(a), Some(b)) if a == b => intra.push(d),
                    (Some(_), Some(_)) => inter.push(d),
                    _ => {}
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(!intra.is_empty() && !inter.is_empty());
        assert!(
            mean(&intra) * 3.0 < mean(&inter),
            "intra {} should be much smaller than inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn skewed_sizes_sum_and_cover() {
        for (total, clusters, skew) in [(100, 7, 0.0), (100, 7, 1.2), (23, 23, 2.0), (5, 10, 1.0)] {
            let sizes = skewed_sizes(total, clusters, skew);
            assert_eq!(sizes.len(), clusters);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            if total >= clusters {
                assert!(sizes.iter().all(|&s| s >= 1));
            }
        }
        assert_eq!(skewed_sizes(0, 4, 1.0), vec![0; 4]);
    }

    #[test]
    fn size_skew_produces_unequal_clusters() {
        let sizes = skewed_sizes(1_000, 10, 1.5);
        assert!(sizes[0] > sizes[9] * 3);
    }

    #[test]
    fn subspace_fraction_limits_perturbed_dimensions() {
        let cfg = EmbeddingMixtureConfig {
            n_points: 50,
            dim: 64,
            clusters: 2,
            subspace_fraction: 0.1,
            noise_fraction: 0.0,
            seed: 3,
            ..Default::default()
        };
        let (data, labels) = cfg.generate().unwrap();
        assert_eq!(data.len(), 50);
        assert!(labels.iter().all(|l| l.is_some()));
    }
}
