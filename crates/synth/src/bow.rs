//! Bag-of-words generator (NYTimes stand-in).
//!
//! The paper's NYT-150k dataset is built by sampling 150k NYTimes
//! bag-of-words vectors, Gaussian-random-projecting them to 256 dimensions
//! and L2-normalizing (the ANN-benchmark recipe). This module synthesizes
//! documents with the statistical features that matter for that pipeline:
//!
//! * a Zipf-distributed vocabulary (few very common words, long tail);
//! * planted topics, each with its own preferred vocabulary slice, so the
//!   projected vectors form directional clusters;
//! * Poisson-ish document lengths;
//! * a fraction of "off-topic" documents that act as noise.
//!
//! The output is produced by running the sparse counts through the *same*
//! [`GaussianRandomProjection`] + normalization code used for real data.

use crate::GeneratorLabels;
use laf_vector::{Dataset, GaussianRandomProjection, VectorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic bag-of-words corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BagOfWordsConfig {
    /// Number of documents to generate.
    pub n_docs: usize,
    /// Vocabulary size (dimensionality of the sparse count vectors).
    pub vocab_size: usize,
    /// Output dimensionality after Gaussian random projection
    /// (the paper projects NYTimes to 256).
    pub projected_dim: usize,
    /// Number of planted topics.
    pub topics: usize,
    /// Average number of word occurrences per document.
    pub avg_doc_len: usize,
    /// Probability that a word in an on-topic document is drawn from the
    /// topic's preferred vocabulary slice rather than the global background.
    pub topic_affinity: f64,
    /// Fraction of documents that are drawn purely from the background
    /// distribution (acting as noise), in `[0, 1)`.
    pub offtopic_fraction: f64,
    /// Zipf exponent for the word-frequency distribution.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BagOfWordsConfig {
    fn default() -> Self {
        Self {
            n_docs: 2_000,
            vocab_size: 5_000,
            projected_dim: 256,
            topics: 15,
            avg_doc_len: 120,
            topic_affinity: 0.85,
            offtopic_fraction: 0.25,
            zipf_exponent: 1.1,
            seed: 7,
        }
    }
}

impl BagOfWordsConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] when any field is outside
    /// its legal range.
    pub fn validate(&self) -> Result<(), VectorError> {
        if self.n_docs == 0 || self.vocab_size == 0 || self.projected_dim == 0 {
            return Err(VectorError::InvalidParameter(
                "n_docs, vocab_size and projected_dim must be positive".into(),
            ));
        }
        if self.topics == 0 || self.topics > self.vocab_size {
            return Err(VectorError::InvalidParameter(
                "topics must be in 1..=vocab_size".into(),
            ));
        }
        if self.avg_doc_len == 0 {
            return Err(VectorError::InvalidParameter(
                "avg_doc_len must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.topic_affinity) {
            return Err(VectorError::InvalidParameter(
                "topic_affinity must be in [0, 1]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.offtopic_fraction) {
            return Err(VectorError::InvalidParameter(
                "offtopic_fraction must be in [0, 1)".into(),
            ));
        }
        if self.zipf_exponent <= 0.0 {
            return Err(VectorError::InvalidParameter(
                "zipf_exponent must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Generate the projected, normalized dataset together with planted
    /// topic labels (`None` for off-topic / noise documents).
    ///
    /// # Errors
    /// Propagates validation errors and projection dimension errors.
    pub fn generate(&self) -> Result<(Dataset, GeneratorLabels), VectorError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.vocab_size as u64, self.zipf_exponent)
            .map_err(|e| VectorError::InvalidParameter(format!("zipf: {e}")))?;

        // Each topic prefers a contiguous slice of the vocabulary (after a
        // random permutation, so slices are arbitrary word groups).
        let mut permutation: Vec<usize> = (0..self.vocab_size).collect();
        for i in (1..permutation.len()).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        let slice_len = (self.vocab_size / self.topics).max(1);

        let projection =
            GaussianRandomProjection::new(self.vocab_size, self.projected_dim, &mut rng)?;

        let mut sparse_rows: Vec<Vec<f32>> = Vec::with_capacity(self.n_docs);
        let mut labels: GeneratorLabels = Vec::with_capacity(self.n_docs);

        for _ in 0..self.n_docs {
            let off_topic = rng.gen_bool(self.offtopic_fraction);
            let topic = if off_topic {
                None
            } else {
                Some(rng.gen_range(0..self.topics))
            };
            let doc_len = sample_doc_len(self.avg_doc_len, &mut rng);
            let mut counts = vec![0.0f32; self.vocab_size];
            for _ in 0..doc_len {
                let word = match topic {
                    Some(t) if rng.gen_bool(self.topic_affinity) => {
                        // Word from the topic's preferred slice, Zipf-ranked
                        // within the slice.
                        let rank = (zipf.sample(&mut rng) as usize - 1) % slice_len;
                        permutation[(t * slice_len + rank) % self.vocab_size]
                    }
                    _ => {
                        // Background word, Zipf-ranked over the whole vocab.
                        let rank = (zipf.sample(&mut rng) as usize - 1) % self.vocab_size;
                        permutation[rank]
                    }
                };
                counts[word] += 1.0;
            }
            sparse_rows.push(counts);
            labels.push(topic);
        }

        let sparse = Dataset::from_rows(sparse_rows)?;
        let projected = projection.project_dataset(&sparse, true)?;
        Ok((projected, labels))
    }
}

/// Geometric-ish document length with the requested mean, at least 1.
fn sample_doc_len<R: Rng>(avg: usize, rng: &mut R) -> usize {
    // Uniform on [avg/2, 3*avg/2] is a good-enough length model and avoids
    // pathological short documents.
    let lo = (avg / 2).max(1);
    let hi = (3 * avg / 2).max(lo + 1);
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_vector::Metric;

    fn small() -> BagOfWordsConfig {
        BagOfWordsConfig {
            n_docs: 300,
            vocab_size: 800,
            projected_dim: 64,
            topics: 6,
            avg_doc_len: 60,
            seed: 13,
            ..Default::default()
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert!(BagOfWordsConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = small();
        for cfg in [
            BagOfWordsConfig {
                n_docs: 0,
                ..base.clone()
            },
            BagOfWordsConfig {
                vocab_size: 0,
                ..base.clone()
            },
            BagOfWordsConfig {
                projected_dim: 0,
                ..base.clone()
            },
            BagOfWordsConfig {
                topics: 0,
                ..base.clone()
            },
            BagOfWordsConfig {
                topics: 10_000,
                ..base.clone()
            },
            BagOfWordsConfig {
                avg_doc_len: 0,
                ..base.clone()
            },
            BagOfWordsConfig {
                topic_affinity: 1.5,
                ..base.clone()
            },
            BagOfWordsConfig {
                offtopic_fraction: 1.0,
                ..base.clone()
            },
            BagOfWordsConfig {
                zipf_exponent: 0.0,
                ..base
            },
        ] {
            assert!(cfg.generate().is_err(), "should reject {cfg:?}");
        }
    }

    #[test]
    fn generates_projected_normalized_documents() {
        let cfg = small();
        let (data, labels) = cfg.generate().unwrap();
        assert_eq!(data.len(), 300);
        assert_eq!(data.dim(), 64);
        assert_eq!(labels.len(), 300);
        assert!(data.is_normalized(1e-3));
        // Some documents should be off-topic and some on-topic.
        assert!(labels.iter().any(|l| l.is_none()));
        assert!(labels.iter().any(|l| l.is_some()));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small();
        let (a, la) = cfg.generate().unwrap();
        let (b, lb) = cfg.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn same_topic_documents_are_angularly_closer() {
        let cfg = BagOfWordsConfig {
            n_docs: 400,
            topics: 4,
            topic_affinity: 0.95,
            offtopic_fraction: 0.05,
            ..small()
        };
        let (data, labels) = cfg.generate().unwrap();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in (0..data.len()).step_by(3) {
            for j in (i + 1..data.len()).step_by(5) {
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
            mean(&intra) < mean(&inter),
            "intra {} < inter {} expected",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn doc_len_sampler_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let l = sample_doc_len(10, &mut rng);
            assert!((5..15).contains(&l));
        }
        assert!(sample_doc_len(1, &mut rng) >= 1);
    }
}
