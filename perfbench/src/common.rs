//! What every workload shares: the estimator recipe, seeded inputs, the
//! run's scratch directory and the small statistics helpers.

use laf::cardest::{NetConfig, TrainingSetBuilder};
use laf::core::{LafConfig, LafPipelineBuilder};
use laf::synth::EmbeddingMixtureConfig;
use laf::vector::Dataset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Range radius (cosine distance) of every workload.
pub const EPS: f32 = 0.35;
/// DBSCAN neighbour threshold τ.
pub const TAU: usize = 4;
/// LAF error factor α.
pub const ALPHA: f32 = 1.0;
/// `k` of the serve mix's knn requests.
pub const KNN_K: usize = 10;
/// Requests one client keeps in flight.
pub const IN_FLIGHT: usize = 64;

/// Shape of a generated directional mixture.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub dim: usize,
    pub clusters: usize,
    pub noise: f64,
}

impl Shape {
    pub fn label(&self) -> String {
        format!("{}x{}", self.n, self.dim)
    }
}

/// Sizes of one run. `full` is what the benchmark measures; `smoke` runs
/// every code path at a scale that finishes in seconds, for the tests.
///
/// A run measures in rounds: each round takes one sample of every timed
/// metric (a clustering, a group of warm loads, a pass of operations), so
/// every metric's samples spread over the whole run instead of sitting in
/// one stretch of it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub cluster_shape: Shape,
    pub serve_shape: Shape,
    pub epochs: usize,
    pub train_queries: usize,
    /// Rounds of the `cluster` workload (one clustering and one cold
    /// set-up each).
    pub cluster_rounds: usize,
    /// Rounds of `serve` and of `serve-mutable` (one pass each).
    pub serve: PassPlan,
    pub mutable: PassPlan,
    /// Warm loads per round.
    pub loads_per_round: usize,
    /// Clusterings of the small serve bases per round.
    pub small_clusters_per_round: usize,
    /// Direct engine queries per pass, and passes per round (`cluster`).
    pub direct_queries: usize,
    pub direct_passes: usize,
}

/// The rounds of a serve workload. `serve` runs many short passes: its
/// per-pass figures swing with each core's speed. `serve-mutable` runs
/// longer ones, so every pass holds several compactions and its tail
/// latency always includes them.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    pub rounds: usize,
    /// Operations per pass.
    pub ops: usize,
    /// A cold set-up is timed every this many rounds.
    pub setup_every: usize,
}

impl Scale {
    /// The measured scale. `seconds` sizes the fixed work: the round counts
    /// are derived from it once, they are not a timer. At 25 each workload
    /// runs for about 25 s on a 2-vCPU KVM Xeon guest.
    pub fn full(seconds: u64) -> Self {
        let s = seconds.max(1) as f64 / 25.0;
        let rounds = |base: f64| ((base * s).round() as usize).max(3);
        Self {
            cluster_shape: Shape {
                n: 8000,
                dim: 64,
                clusters: 20,
                noise: 0.3,
            },
            serve_shape: Shape {
                n: 400,
                dim: 32,
                clusters: 12,
                noise: 0.2,
            },
            epochs: 30,
            train_queries: 400,
            cluster_rounds: rounds(7.0),
            serve: PassPlan {
                rounds: rounds(625.0),
                ops: 2000,
                setup_every: 50,
            },
            // About 2060 writes a pass against a compaction every 400: the
            // compaction phase at each round's end walks through the cycle
            // instead of repeating, so warm loads see every WAL length.
            mutable: PassPlan {
                rounds: rounds(125.0),
                ops: 10_300,
                setup_every: 10,
            },
            loads_per_round: 5,
            small_clusters_per_round: 2,
            // Short passes: a varying share of queries runs twice as slow
            // in bursts of a fraction of a second, so a pass's p99 is clean
            // only when the pass is short enough to fall between bursts.
            direct_queries: 250,
            direct_passes: 16,
        }
    }

    pub fn smoke() -> Self {
        let tiny = Shape {
            n: 300,
            dim: 16,
            clusters: 5,
            noise: 0.2,
        };
        Self {
            cluster_shape: tiny,
            serve_shape: Shape { n: 200, ..tiny },
            epochs: 3,
            train_queries: 60,
            cluster_rounds: 2,
            serve: PassPlan {
                rounds: 2,
                ops: 600,
                setup_every: 1,
            },
            mutable: PassPlan {
                rounds: 2,
                ops: 600,
                setup_every: 1,
            },
            loads_per_round: 2,
            small_clusters_per_round: 1,
            direct_queries: 50,
            direct_passes: 1,
        }
    }
}

/// The one estimator recipe every workload trains: `NetConfig::small` at
/// the scale's epochs, linear engine, cosine, ε/τ/α as above.
pub fn builder(scale: &Scale) -> LafPipelineBuilder {
    laf::core::LafPipeline::builder(LafConfig::new(EPS, TAU, ALPHA))
        .net(NetConfig {
            epochs: scale.epochs,
            ..NetConfig::small()
        })
        .training(TrainingSetBuilder {
            max_queries: Some(scale.train_queries),
            ..Default::default()
        })
}

/// SplitMix64: derives independent per-purpose seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for op streams and query choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0) % n as u64) as usize
    }
}

/// A seeded directional mixture of `shape`.
pub fn mixture(shape: Shape, seed: u64) -> Dataset {
    EmbeddingMixtureConfig {
        n_points: shape.n,
        dim: shape.dim,
        clusters: shape.clusters,
        noise_fraction: shape.noise,
        seed,
        ..Default::default()
    }
    .generate()
    .expect("benchmark mixture shapes are valid")
    .0
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of its samples a run reports: the 10th percentile of a
/// lower-is-better metric, the 90th of a higher-is-better one (nearest
/// rank, so the best sample below ten). The 2-vCPU hosts this benchmark was
/// built on switch each core between two speeds about 30 % apart, in
/// stretches of 0.5 to 15 seconds, so a run-level median flips with
/// whichever state held most of the run; a low quantile of samples spread
/// over the run follows the faster state whenever the run saw it for a
/// tenth of its samples, and a median over runs absorbs the runs that did
/// not.
pub const ROUND_QUANTILE: f64 = 0.1;

/// A run's figure for lower-is-better samples (times, latencies).
pub fn fast_low(values: &[f64]) -> f64 {
    quantile(values, ROUND_QUANTILE)
}

/// A run's figure for higher-is-better samples (throughput).
pub fn fast_high(values: &[f64]) -> f64 {
    quantile(values, 1.0 - ROUND_QUANTILE)
}

/// Nearest-rank quantile `q` in `0..=1` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The run's scratch directory, inside the working directory (the
/// checkout), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(".bench_work").join(format!(
            "{workload}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while a
        // concurrent run still owns a sibling.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copy every regular file of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
