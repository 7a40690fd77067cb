//! Training-set construction for learned cardinality estimators.
//!
//! The paper trains its estimator on `(query, threshold) → cardinality`
//! pairs where thresholds are cosine distances between 0.1 and 0.9 — a
//! bounded range, which is precisely the paper's argument for focusing on
//! angular distance (a regressor generalizes better when the training set
//! can cover the input domain). The builder here:
//!
//! 1. takes the training split of a dataset,
//! 2. samples (or uses all) query points from it,
//! 3. counts their exact neighbors at every threshold in the grid in one
//!    brute-force pass per query (queries in parallel): each row's distance
//!    is computed once and counted against every threshold, and
//! 4. emits features `[query ⊕ ε]` with targets `ln(1 + count)` — the log
//!    transform keeps the regression well-conditioned across the orders of
//!    magnitude that cardinalities span.

use laf_vector::{Dataset, Metric, VectorError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One training pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSample {
    /// Feature vector: the query point's coordinates followed by the
    /// distance threshold ε.
    pub features: Vec<f32>,
    /// Regression target: `ln(1 + true_cardinality)`.
    pub log_cardinality: f32,
    /// The raw neighbor count, kept for evaluation and calibration.
    pub cardinality: u32,
}

/// A complete training set (plus the metadata needed to interpret it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSet {
    /// Dimensionality of the underlying data (features are `dim + 1` long).
    pub dim: usize,
    /// The threshold grid the samples were generated over.
    pub thresholds: Vec<f32>,
    /// The samples.
    pub samples: Vec<TrainingSample>,
}

impl TrainingSet {
    /// Feature dimensionality (`dim + 1`: the query plus ε).
    pub fn feature_dim(&self) -> usize {
        self.dim + 1
    }

    /// Borrow the features/targets as parallel vectors for [`crate::Mlp::train`].
    pub fn as_xy(&self) -> (Vec<Vec<f32>>, Vec<f32>) {
        let xs = self.samples.iter().map(|s| s.features.clone()).collect();
        let ys = self.samples.iter().map(|s| s.log_cardinality).collect();
        (xs, ys)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Builder for [`TrainingSet`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSetBuilder {
    /// Distance metric the cardinalities are counted under.
    pub metric: Metric,
    /// Threshold grid (the paper uses 0.1, 0.2, …, 0.9 for cosine distance).
    pub thresholds: Vec<f32>,
    /// Maximum number of query points sampled from the training data
    /// (`None` uses every point). Each query point produces one sample per
    /// threshold.
    pub max_queries: Option<usize>,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for TrainingSetBuilder {
    fn default() -> Self {
        Self {
            metric: Metric::Cosine,
            thresholds: Self::paper_thresholds(),
            max_queries: Some(2_000),
            seed: 0x7EA,
        }
    }
}

impl TrainingSetBuilder {
    /// The paper's cosine-distance threshold grid: 0.1 to 0.9 in steps of 0.1.
    pub fn paper_thresholds() -> Vec<f32> {
        (1..=9).map(|i| i as f32 * 0.1).collect()
    }

    /// Build the training set by counting exact cardinalities of queries
    /// drawn from `queries` against `reference` (for DBSCAN both are the
    /// training split of the dataset).
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] if the threshold grid is
    /// empty or holds a NaN or infinite threshold, or if `max_queries` is
    /// `Some(0)`; [`VectorError::DimensionMismatch`] if the query/reference
    /// dimensions disagree; and [`VectorError::EmptyDataset`] if either
    /// dataset is empty.
    pub fn build(
        &self,
        queries: &Dataset,
        reference: &Dataset,
    ) -> Result<TrainingSet, VectorError> {
        if self.thresholds.is_empty() {
            return Err(VectorError::InvalidParameter(
                "threshold grid must be non-empty".into(),
            ));
        }
        if let Some(eps) = self.thresholds.iter().find(|eps| !eps.is_finite()) {
            return Err(VectorError::InvalidParameter(format!(
                "threshold {eps} is not finite"
            )));
        }
        if self.max_queries == Some(0) {
            return Err(VectorError::InvalidParameter(
                "max_queries must be positive".into(),
            ));
        }
        if queries.is_empty() || reference.is_empty() {
            return Err(VectorError::EmptyDataset);
        }
        if queries.dim() != reference.dim() {
            return Err(VectorError::DimensionMismatch {
                expected: reference.dim(),
                found: queries.dim(),
            });
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let query_set = match self.max_queries {
            Some(cap) if cap < queries.len() => queries.sample(cap, &mut rng).0,
            _ => queries.clone(),
        };

        let thresholds = &self.thresholds;
        let samples: Vec<TrainingSample> = (0..query_set.len())
            .into_par_iter()
            .flat_map_iter(|qi| {
                let q = query_set.row(qi);
                let counts = threshold_counts(reference, self.metric, q, thresholds);
                thresholds.iter().zip(counts).map(move |(&eps, count)| {
                    let count = count as u32;
                    let mut features = q.to_vec();
                    features.push(eps);
                    TrainingSample {
                        features,
                        log_cardinality: (count as f32).ln_1p(),
                        cardinality: count,
                    }
                })
            })
            .collect();

        Ok(TrainingSet {
            dim: reference.dim(),
            thresholds: self.thresholds.clone(),
            samples,
        })
    }
}

/// Exact neighbor counts of `q` in `reference` at every threshold, in one
/// pass: the query is prepared once ([`Metric::prepare`]), and each row's
/// prepared distance is computed once and counted against every threshold.
/// `counts[t]` equals `LinearScan::range_count(q, thresholds[t])` because
/// both equal the generic `metric.dist(q, x) < thresholds[t]` count: the
/// prepared distance is bit-identical to [`Metric::dist`].
pub(crate) fn threshold_counts(
    reference: &Dataset,
    metric: Metric,
    q: &[f32],
    thresholds: &[f32],
) -> Vec<usize> {
    let prepared = metric.prepare(q);
    let norms = reference.row_norms().norms();
    let mut counts = vec![0usize; thresholds.len()];
    for (x, &x_norm) in reference.rows().zip(norms) {
        let dist = prepared.dist(x, x_norm);
        for (count, &eps) in counts.iter_mut().zip(thresholds) {
            *count += usize::from(dist < eps);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_synth::EmbeddingMixtureConfig;

    fn small_data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 150,
            dim: 8,
            clusters: 4,
            noise_fraction: 0.2,
            seed: 3,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn paper_threshold_grid() {
        let t = TrainingSetBuilder::paper_thresholds();
        assert_eq!(t.len(), 9);
        assert!((t[0] - 0.1).abs() < 1e-6);
        assert!((t[8] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn builds_one_sample_per_query_per_threshold() {
        let data = small_data();
        let builder = TrainingSetBuilder {
            max_queries: Some(20),
            thresholds: vec![0.2, 0.5],
            ..Default::default()
        };
        let ts = builder.build(&data, &data).unwrap();
        assert_eq!(ts.len(), 40);
        assert_eq!(ts.dim, 8);
        assert_eq!(ts.feature_dim(), 9);
        assert!(!ts.is_empty());
        for s in &ts.samples {
            assert_eq!(s.features.len(), 9);
            let eps = *s.features.last().unwrap();
            assert!(eps == 0.2 || eps == 0.5);
            assert!((s.log_cardinality - (s.cardinality as f32).ln_1p()).abs() < 1e-6);
            // Every query is a dataset member, so it is its own neighbor.
            assert!(s.cardinality >= 1);
        }
    }

    #[test]
    fn cardinality_is_monotone_in_threshold_for_same_query() {
        let data = small_data();
        let builder = TrainingSetBuilder {
            max_queries: Some(10),
            thresholds: vec![0.1, 0.3, 0.6, 0.9],
            ..Default::default()
        };
        let ts = builder.build(&data, &data).unwrap();
        // Samples for one query are consecutive (per the flat_map order).
        for chunk in ts.samples.chunks(4) {
            for w in chunk.windows(2) {
                assert!(
                    w[1].cardinality >= w[0].cardinality,
                    "cardinality must grow with eps"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = small_data();
        let empty = Dataset::new(8).unwrap();
        let wrong_dim = Dataset::from_rows(vec![vec![1.0f32; 4]]).unwrap();
        let builder = TrainingSetBuilder::default();
        assert!(builder.build(&empty, &data).is_err());
        assert!(builder.build(&data, &empty).is_err());
        assert!(builder.build(&wrong_dim, &data).is_err());
        let no_thresholds = TrainingSetBuilder {
            thresholds: vec![],
            ..Default::default()
        };
        assert!(no_thresholds.build(&data, &data).is_err());
        let no_queries = TrainingSetBuilder {
            max_queries: Some(0),
            ..Default::default()
        };
        let mut invalid = vec![no_queries];
        for eps in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            invalid.push(TrainingSetBuilder {
                thresholds: vec![0.1, eps, 0.5],
                ..Default::default()
            });
        }
        for builder in invalid {
            assert!(
                matches!(
                    builder.build(&data, &data),
                    Err(VectorError::InvalidParameter(_))
                ),
                "{builder:?}"
            );
        }
    }

    #[test]
    fn one_pass_counts_equal_per_threshold_range_counts_for_every_metric() {
        use laf_index::{LinearScan, RangeQueryEngine};
        // Rows mixing magnitudes with the degenerate cases every metric
        // must agree on: NaN and infinite coordinates, zero vectors.
        let dim = 7;
        let mut rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.61).sin() * (1 + i % 4) as f32)
                    .collect()
            })
            .collect();
        rows[3][2] = f32::NAN;
        rows[9][0] = f32::INFINITY;
        rows[17][5] = f32::NEG_INFINITY;
        rows[21] = vec![0.0; dim];
        rows[30] = vec![-0.0; dim];
        let data = Dataset::from_rows(&rows).unwrap();
        // The calibrator counts over unchecked grids: NaN and ∞ included.
        let thresholds = [
            -1.0f32,
            0.0,
            1e-6,
            0.1,
            0.35,
            0.9,
            1.5,
            4.0,
            30.0,
            f32::INFINITY,
            f32::NAN,
        ];
        for metric in Metric::ALL {
            let scan = LinearScan::new(&data, metric);
            for (qi, q) in rows.iter().enumerate() {
                let counts = threshold_counts(&data, metric, q, &thresholds);
                for (&eps, &count) in thresholds.iter().zip(&counts) {
                    assert_eq!(
                        count,
                        scan.range_count(q, eps),
                        "{metric:?} query {qi} eps {eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_queries_caps_the_sample_count() {
        let data = small_data();
        let capped = TrainingSetBuilder {
            max_queries: Some(5),
            thresholds: vec![0.5],
            ..Default::default()
        };
        assert_eq!(capped.build(&data, &data).unwrap().len(), 5);
        let uncapped = TrainingSetBuilder {
            max_queries: None,
            thresholds: vec![0.5],
            ..Default::default()
        };
        assert_eq!(uncapped.build(&data, &data).unwrap().len(), data.len());
    }

    #[test]
    fn as_xy_matches_samples() {
        let data = small_data();
        let builder = TrainingSetBuilder {
            max_queries: Some(3),
            thresholds: vec![0.4],
            ..Default::default()
        };
        let ts = builder.build(&data, &data).unwrap();
        let (xs, ys) = ts.as_xy();
        assert_eq!(xs.len(), ts.len());
        assert_eq!(ys.len(), ts.len());
        assert_eq!(xs[0], ts.samples[0].features);
        assert_eq!(ys[0], ts.samples[0].log_cardinality);
    }
}
