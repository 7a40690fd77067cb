//! Named dataset presets mirroring Table 1 of the paper.
//!
//! | Name       | #Points (paper) | Dim | α (paper) | Type              |
//! |------------|-----------------|-----|-----------|-------------------|
//! | NYT-150k   | 150,000         | 256 | 1.15      | Bag-of-words      |
//! | Glove-150k | 150,000         | 200 | 2.0       | Word embedding    |
//! | MS-150k    | 152,185         | 768 | 7.7       | Passage embedding |
//! | MS-100k    | 107,400         | 768 | 2.0       | Passage embedding |
//! | MS-50k     |  53,700         | 768 | 1.5       | Passage embedding |
//!
//! Real corpora are replaced by the synthetic generators in this crate (see
//! DESIGN.md §4). A [`DatasetCatalog`] carries a single `scale` factor in
//! `(0, 1]`: `scale = 1.0` generates the paper-sized datasets (slow!), the
//! default `scale = 0.02` generates proportionally smaller ones so the full
//! experiment suite runs on a laptop.

use crate::bow::BagOfWordsConfig;
use crate::mixture::EmbeddingMixtureConfig;
use crate::GeneratorLabels;
use laf_vector::{Dataset, VectorError};
use serde::{Deserialize, Serialize};

/// The kind of vectors a preset models (the "Type" column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VectorType {
    /// Projected bag-of-words counts (NYTimes family).
    BagOfWords,
    /// Word embeddings (GloVe family).
    WordEmbedding,
    /// Passage embeddings (MS MARCO family).
    PassageEmbedding,
}

impl VectorType {
    /// Human-readable label matching the paper's Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            VectorType::BagOfWords => "Bag-of-words",
            VectorType::WordEmbedding => "Word embedding",
            VectorType::PassageEmbedding => "Passage embedding",
        }
    }
}

/// Static description of one dataset preset (the row of Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Preset name, e.g. `"MS-150k"`.
    pub name: &'static str,
    /// Number of points the paper's dataset contains.
    pub paper_points: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Error factor α the paper uses for LAF-DBSCAN on this dataset (Table 1).
    pub paper_alpha: f32,
    /// Vector type.
    pub vector_type: VectorType,
}

/// All five presets of Table 1, in the paper's order.
pub const SPECS: [DatasetSpec; 5] = [
    DatasetSpec {
        name: "NYT-150k",
        paper_points: 150_000,
        dim: 256,
        paper_alpha: 1.15,
        vector_type: VectorType::BagOfWords,
    },
    DatasetSpec {
        name: "Glove-150k",
        paper_points: 150_000,
        dim: 200,
        paper_alpha: 2.0,
        vector_type: VectorType::WordEmbedding,
    },
    DatasetSpec {
        name: "MS-150k",
        paper_points: 152_185,
        dim: 768,
        paper_alpha: 7.7,
        vector_type: VectorType::PassageEmbedding,
    },
    DatasetSpec {
        name: "MS-100k",
        paper_points: 107_400,
        dim: 768,
        paper_alpha: 2.0,
        vector_type: VectorType::PassageEmbedding,
    },
    DatasetSpec {
        name: "MS-50k",
        paper_points: 53_700,
        dim: 768,
        paper_alpha: 1.5,
        vector_type: VectorType::PassageEmbedding,
    },
];

/// A generated synthetic dataset with its provenance.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The preset this dataset was generated from.
    pub spec: DatasetSpec,
    /// Actual number of points generated (`paper_points * scale`).
    pub n_points: usize,
    /// The generated, unit-normalized vectors.
    pub data: Dataset,
    /// Planted generator labels (for tests; the paper uses DBSCAN as truth).
    pub labels: GeneratorLabels,
}

/// Factory for the five presets at a common scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetCatalog {
    /// Fraction of the paper's dataset size to generate, in `(0, 1]`.
    pub scale: f64,
    /// Base RNG seed; each preset derives its own seed from this.
    pub seed: u64,
    /// Cap on the dimensionality of generated data. The paper's MS MARCO
    /// family is 768-dimensional; generating and clustering that at full
    /// width is expensive, so tests use a smaller cap. `None` keeps the
    /// paper's dimensions.
    pub dim_cap: Option<usize>,
}

impl Default for DatasetCatalog {
    fn default() -> Self {
        Self {
            scale: 0.02,
            seed: 20230206, // arXiv submission date of the paper
            dim_cap: None,
        }
    }
}

impl DatasetCatalog {
    /// Tiny catalog for unit/integration tests: a few hundred points,
    /// dimensionality capped at 48.
    pub fn tiny() -> Self {
        Self {
            scale: 0.002,
            seed: 99,
            dim_cap: Some(48),
        }
    }

    /// Validate the scale factor.
    fn validate(&self) -> Result<(), VectorError> {
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(VectorError::InvalidParameter(
                "catalog scale must be in (0, 1]".into(),
            ));
        }
        Ok(())
    }

    fn scaled_points(&self, spec: &DatasetSpec) -> usize {
        ((spec.paper_points as f64) * self.scale).round().max(50.0) as usize
    }

    fn capped_dim(&self, dim: usize) -> usize {
        match self.dim_cap {
            Some(cap) => dim.min(cap),
            None => dim,
        }
    }

    /// Look up a preset spec by (case-insensitive) name.
    pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
        SPECS.iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// Generate a preset by name (`"NYT-150k"`, `"Glove-150k"`, `"MS-150k"`,
    /// `"MS-100k"`, `"MS-50k"`).
    ///
    /// # Errors
    /// Returns [`VectorError::InvalidParameter`] for an unknown name or an
    /// invalid scale, and propagates generator errors.
    pub fn generate(&self, name: &str) -> Result<SyntheticDataset, VectorError> {
        self.validate()?;
        let spec = Self::spec(name).ok_or_else(|| {
            VectorError::InvalidParameter(format!("unknown dataset preset '{name}'"))
        })?;
        let n_points = self.scaled_points(spec);
        let dim = self.capped_dim(spec.dim);
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(spec.name.len() as u64 + spec.dim as u64);

        let (data, labels) = match spec.vector_type {
            VectorType::BagOfWords => {
                let cfg = BagOfWordsConfig {
                    n_docs: n_points,
                    vocab_size: (dim * 20).max(500),
                    projected_dim: dim,
                    topics: (n_points / 40).clamp(8, 60),
                    avg_doc_len: 120,
                    topic_affinity: 0.85,
                    offtopic_fraction: 0.3,
                    zipf_exponent: 1.1,
                    seed,
                };
                cfg.generate()?
            }
            VectorType::WordEmbedding => {
                let cfg = EmbeddingMixtureConfig {
                    n_points,
                    dim,
                    clusters: (n_points / 30).clamp(10, 80),
                    spread: 0.09,
                    noise_fraction: 0.30,
                    size_skew: 0.8,
                    subspace_fraction: 1.0,
                    seed,
                };
                cfg.generate()?
            }
            VectorType::PassageEmbedding => {
                // Higher dimension, more and smaller clusters, wider spread:
                // this reproduces the paper's "MS is the hardest family"
                // observation (more false negatives, lower absolute scores).
                let cfg = EmbeddingMixtureConfig {
                    n_points,
                    dim,
                    clusters: (n_points / 20).clamp(15, 150),
                    spread: 0.14,
                    noise_fraction: 0.40,
                    size_skew: 1.0,
                    subspace_fraction: 0.6,
                    seed,
                };
                cfg.generate()?
            }
        };

        Ok(SyntheticDataset {
            spec: spec.clone(),
            n_points: data.len(),
            data,
            labels,
        })
    }

    /// Generate the three largest datasets used in the paper's efficiency /
    /// effectiveness evaluation (NYT-150k, Glove-150k, MS-150k).
    pub fn largest_three(&self) -> Result<Vec<SyntheticDataset>, VectorError> {
        ["NYT-150k", "Glove-150k", "MS-150k"]
            .iter()
            .map(|n| self.generate(n))
            .collect()
    }

    /// Generate the MS MARCO scale family (MS-50k, MS-100k, MS-150k), used in
    /// the paper's scalability evaluation.
    pub fn ms_family(&self) -> Result<Vec<SyntheticDataset>, VectorError> {
        ["MS-50k", "MS-100k", "MS-150k"]
            .iter()
            .map(|n| self.generate(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_1() {
        assert_eq!(SPECS.len(), 5);
        let ms150 = DatasetCatalog::spec("ms-150k").unwrap();
        assert_eq!(ms150.dim, 768);
        assert_eq!(ms150.paper_points, 152_185);
        assert!((ms150.paper_alpha - 7.7).abs() < 1e-6);
        let nyt = DatasetCatalog::spec("NYT-150k").unwrap();
        assert_eq!(nyt.dim, 256);
        assert_eq!(nyt.vector_type, VectorType::BagOfWords);
        assert_eq!(nyt.vector_type.label(), "Bag-of-words");
        assert!(DatasetCatalog::spec("bogus").is_none());
    }

    #[test]
    fn invalid_scale_is_rejected() {
        let cat = DatasetCatalog {
            scale: 0.0,
            ..Default::default()
        };
        assert!(cat.generate("MS-50k").is_err());
        let cat = DatasetCatalog {
            scale: 1.5,
            ..Default::default()
        };
        assert!(cat.generate("MS-50k").is_err());
    }

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(DatasetCatalog::tiny().generate("MS-1M").is_err());
    }

    #[test]
    fn tiny_catalog_generates_all_presets() {
        let cat = DatasetCatalog::tiny();
        for spec in &SPECS {
            let ds = cat.generate(spec.name).unwrap();
            assert!(ds.n_points >= 50, "{} too small", spec.name);
            assert_eq!(ds.data.len(), ds.labels.len());
            assert!(ds.data.is_normalized(1e-3), "{} not normalized", spec.name);
            assert!(ds.data.dim() <= 48);
            assert_eq!(ds.spec.name, spec.name);
        }
    }

    #[test]
    fn scale_controls_size_monotonically() {
        let small = DatasetCatalog {
            scale: 0.002,
            dim_cap: Some(32),
            ..Default::default()
        };
        let larger = DatasetCatalog {
            scale: 0.004,
            dim_cap: Some(32),
            ..Default::default()
        };
        let a = small.generate("Glove-150k").unwrap();
        let b = larger.generate("Glove-150k").unwrap();
        assert!(b.n_points > a.n_points);
    }

    #[test]
    fn ms_family_sizes_increase() {
        let cat = DatasetCatalog {
            scale: 0.003,
            dim_cap: Some(32),
            ..Default::default()
        };
        let family = cat.ms_family().unwrap();
        assert_eq!(family.len(), 3);
        assert!(family[0].n_points < family[1].n_points);
        assert!(family[1].n_points < family[2].n_points);
    }

    #[test]
    fn largest_three_names() {
        let cat = DatasetCatalog::tiny();
        let three = cat.largest_three().unwrap();
        let names: Vec<_> = three.iter().map(|d| d.spec.name).collect();
        assert_eq!(names, vec!["NYT-150k", "Glove-150k", "MS-150k"]);
    }

    #[test]
    fn generation_is_deterministic() {
        let cat = DatasetCatalog::tiny();
        let a = cat.generate("MS-50k").unwrap();
        let b = cat.generate("MS-50k").unwrap();
        assert_eq!(a.data, b.data);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn dim_cap_none_keeps_paper_dims() {
        let cat = DatasetCatalog {
            scale: 0.001,
            seed: 1,
            dim_cap: None,
        };
        let nyt = cat.generate("NYT-150k").unwrap();
        assert_eq!(nyt.data.dim(), 256);
    }
}
