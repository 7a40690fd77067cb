//! Cold-vs-warm startup benchmark for the snapshot subsystem.
//!
//! The train-once/serve-many story only holds if warm startup (load a
//! snapshot, cluster) is materially cheaper than cold startup (build the
//! training set, train the estimator, save, cluster). This experiment
//! measures both paths end-to-end, verifies the warm pipeline is bit-exact
//! with the cold one (labels, [`laf_core::LafStats`] and per-point
//! estimates), measures **rebuild-vs-restore** for every persistable
//! range-query engine (format v2 stores the built structure — see
//! [`laf_index::persist`]), and writes `<results_dir>/BENCH_snapshot.json`.

use crate::harness::HarnessConfig;
use crate::report::{format_seconds, print_table, write_json};
use laf_cardest::{MlpEstimator, TrainingSetBuilder};
use laf_core::{LafConfig, LafPipeline, Snapshot};
use laf_index::{build_engine, restore_engine, EngineChoice, PersistedEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};
use serde::Serialize;
use std::time::Instant;

/// Wall-clock breakdown of one startup path.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PhaseTimings {
    /// Training-set construction + estimator fitting (cold path only).
    pub train_seconds: f64,
    /// Snapshot encode + write (cold) or read + decode (warm).
    pub snapshot_seconds: f64,
    /// First clustering run after startup.
    pub first_cluster_seconds: f64,
    /// Sum of the above: time from process start to first served result.
    pub total_seconds: f64,
}

/// Bit-exactness verdict between the cold and warm pipelines.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BitExactness {
    /// Cluster labels byte-identical.
    pub labels: bool,
    /// `LafStats` counters identical.
    pub stats: bool,
    /// Per-point estimates bit-identical (compared as raw `f32` bits).
    pub estimates: bool,
}

/// Rebuild-vs-restore comparison for one engine kind: the cost of
/// constructing the engine from scratch versus decoding + re-attaching its
/// persisted structure (what a v2 warm start pays).
#[derive(Debug, Clone, Serialize)]
pub struct EngineStartup {
    /// Engine kind (`linear`, `kmeans_tree`, `ivf`).
    pub engine: String,
    /// Seconds to build the engine from the raw dataset.
    pub build_seconds: f64,
    /// Seconds to decode the persisted structure and restore the engine.
    pub restore_seconds: f64,
    /// `build_seconds / restore_seconds` — what persistence saves per warm
    /// start for this engine.
    pub restore_speedup: f64,
    /// Encoded structure size in bytes (the engine section's payload).
    pub encoded_bytes: u64,
    /// Whether the restored engine answered probe queries identically to the
    /// engine it was extracted from (must be `true`).
    pub agree: bool,
}

/// Mmap-vs-decode warm-start comparison at one dataset scale: what the
/// format-v3 zero-copy load ([`Snapshot::open_mmap`]) saves over the
/// copying decode ([`Snapshot::load`]) for the same snapshot file.
#[derive(Debug, Clone, Serialize)]
pub struct MmapStartup {
    /// Dataset rows at this scale.
    pub n_points: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Best-of-N seconds for read + copying decode (`Snapshot::load`).
    pub decode_seconds: f64,
    /// Best-of-N seconds for mmap + checksum + in-place load
    /// (`Snapshot::open_mmap`).
    pub mmap_seconds: f64,
    /// `decode_seconds / mmap_seconds`.
    pub mmap_speedup: f64,
    /// Whether the mapped load actually served the dataset in place (false
    /// only on big-endian hosts or misaligned files — never for files this
    /// writer produced on the CI targets).
    pub dataset_mapped: bool,
    /// Labels and stats byte-identical between the owned-backed and
    /// mapped-backed pipelines (must be `true`).
    pub identical: bool,
}

/// The full experiment record written to `BENCH_snapshot.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotBenchReport {
    /// Dataset rows.
    pub n_points: usize,
    /// Dataset dimensionality.
    pub dim: usize,
    /// Encoded snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Cold path: train → save → first clustering.
    pub cold: PhaseTimings,
    /// Warm path: load → first clustering.
    pub warm: PhaseTimings,
    /// `cold.total_seconds / warm.total_seconds` — the startup amortization
    /// a serving fleet gains per process after one training run.
    pub warm_startup_speedup: f64,
    /// Cold-vs-warm result comparison (all must be `true`).
    pub bit_exact: BitExactness,
    /// Rebuild-vs-restore comparison per persistable engine kind.
    pub engines: Vec<EngineStartup>,
    /// Mmap-vs-decode warm starts at increasing dataset scales (last row is
    /// the default scale, the one the regression gate applies to).
    pub mmap: Vec<MmapStartup>,
}

/// Measure build-from-scratch vs decode-and-restore for every persistable
/// engine kind over `data`.
fn engine_startup_matrix(data: &Dataset, eps: f32) -> Vec<EngineStartup> {
    let choices = [
        EngineChoice::Linear,
        // The paper's KNN-BLOCK DBSCAN tuning (branching 10, ratio 0.6).
        EngineChoice::KMeansTree {
            branching: 10,
            leaf_ratio: 0.6,
        },
        EngineChoice::Ivf {
            nlist: 32,
            nprobe: 8,
        },
    ];
    let mut out = Vec::with_capacity(choices.len());
    for choice in choices {
        let t = Instant::now();
        let built = build_engine(choice, data, Metric::Cosine);
        let build_seconds = t.elapsed().as_secs_f64();

        let encoded = built
            .persist()
            .expect("every engine in the matrix is persistable")
            .encode();

        let t = Instant::now();
        let decoded = PersistedEngine::decode(&encoded).expect("round trip");
        let restored = restore_engine(&decoded, data).expect("restore over the same dataset");
        let restore_seconds = t.elapsed().as_secs_f64();

        let agree = (0..data.len())
            .step_by((data.len() / 8).max(1))
            .all(|q| built.range(data.row(q), eps) == restored.range(data.row(q), eps));

        out.push(EngineStartup {
            engine: decoded.kind().to_string(),
            build_seconds,
            restore_seconds,
            restore_speedup: if restore_seconds > 0.0 {
                build_seconds / restore_seconds
            } else {
                0.0
            },
            encoded_bytes: encoded.len() as u64,
            agree,
        });
    }
    out
}

/// Bit-exact estimator clone via the binary codec (the estimator type is
/// deliberately not `Clone`; the snapshot weight codec is its round-trip).
fn clone_estimator(estimator: &MlpEstimator) -> MlpEstimator {
    let mut bytes: Vec<u8> = Vec::new();
    estimator.encode_binary(&mut bytes);
    MlpEstimator::decode_binary(&mut bytes.as_slice()).expect("bit-exact estimator round trip")
}

/// Measure mmap-vs-decode warm starts for one snapshot over `data`, timing
/// each loader best-of-3 and verifying the two pipelines cluster
/// identically.
fn mmap_startup_row(config: &LafConfig, data: Dataset, estimator: MlpEstimator) -> MmapStartup {
    let n_points = data.len();
    let path = std::env::temp_dir().join(format!(
        "laf_bench_mmap_{n_points}_{}.lafs",
        std::process::id()
    ));
    let snapshot = Snapshot {
        config: config.clone(),
        data,
        estimator,
        calibration: None,
        engine: None,
        shards: Vec::new(),
    };
    snapshot.save(&path).expect("snapshot save");
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    let best_of = |load: &dyn Fn() -> Snapshot| -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let snap = load();
                let elapsed = t.elapsed().as_secs_f64();
                drop(snap);
                elapsed
            })
            .fold(f64::INFINITY, f64::min)
    };
    let decode_seconds = best_of(&|| Snapshot::load(&path).expect("copying load"));
    let mmap_seconds = best_of(&|| Snapshot::open_mmap(&path).expect("mapped load"));

    let owned = LafPipeline::from_snapshot(Snapshot::load(&path).expect("copying load"));
    let mapped = LafPipeline::from_snapshot(Snapshot::open_mmap(&path).expect("mapped load"));
    let dataset_mapped = mapped.data().is_mapped();
    let (owned_clustering, owned_stats) = owned.cluster_with_stats();
    let (mapped_clustering, mapped_stats) = mapped.cluster_with_stats();
    let identical = owned_clustering.labels() == mapped_clustering.labels()
        && owned_stats == mapped_stats
        && owned.data() == mapped.data();
    drop(mapped);
    std::fs::remove_file(&path).ok();

    MmapStartup {
        n_points,
        snapshot_bytes,
        decode_seconds,
        mmap_seconds,
        mmap_speedup: if mmap_seconds > 0.0 {
            decode_seconds / mmap_seconds
        } else {
            0.0
        },
        dataset_mapped,
        identical,
    }
}

fn bench_dataset(cfg: &HarnessConfig) -> Dataset {
    let n_points = ((1_000_000.0 * cfg.scale) as usize).clamp(500, 24_000);
    let dim = cfg.dim_cap.unwrap_or(64).clamp(8, 128);
    EmbeddingMixtureConfig {
        n_points,
        dim,
        clusters: 12,
        noise_fraction: 0.2,
        seed: cfg.seed,
        ..Default::default()
    }
    .generate()
    .expect("valid benchmark dataset config")
    .0
}

/// Run the cold and warm paths and write `BENCH_snapshot.json`.
pub fn run(cfg: &HarnessConfig) -> SnapshotBenchReport {
    let data = bench_dataset(cfg);
    let n_points = data.len();
    let dim = data.dim();
    let laf_config = LafConfig::new(0.35, 4, 1.0);
    let snapshot_path = std::env::temp_dir().join(format!(
        "laf_bench_snapshot_{n_points}x{dim}_{}.lafs",
        std::process::id()
    ));
    println!("\nsnapshot cold-vs-warm startup: {n_points} points x {dim} dims");

    // --- Cold path: train, save, first clustering --------------------------
    let t = Instant::now();
    let cold_pipeline = LafPipeline::builder(laf_config.clone())
        .net(cfg.net.clone())
        .training(TrainingSetBuilder {
            max_queries: Some(cfg.train_queries),
            ..Default::default()
        })
        .train(data)
        .expect("cold training");
    let cold_train = t.elapsed().as_secs_f64();

    let t = Instant::now();
    cold_pipeline
        .save(&snapshot_path)
        .expect("snapshot save must succeed");
    let cold_save = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot_path).map_or(0, |m| m.len());

    let t = Instant::now();
    let (cold_clustering, cold_stats) = cold_pipeline.cluster_with_stats();
    let cold_cluster = t.elapsed().as_secs_f64();

    // --- Warm path: load, first clustering ---------------------------------
    let t = Instant::now();
    let warm_pipeline = LafPipeline::load(&snapshot_path).expect("snapshot load must succeed");
    let warm_load = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (warm_clustering, warm_stats) = warm_pipeline.cluster_with_stats();
    let warm_cluster = t.elapsed().as_secs_f64();
    std::fs::remove_file(&snapshot_path).ok();

    // --- Rebuild vs restore, per persistable engine --------------------------
    let engines = engine_startup_matrix(cold_pipeline.data(), laf_config.eps);

    // --- Mmap vs copying decode, quarter scale then default scale ----------
    // Same trained estimator at both scales (cloned bit-exactly through the
    // weight codec), so the rows differ only in the dataset section the two
    // loaders handle differently.
    let small_cfg = HarnessConfig {
        scale: cfg.scale / 4.0,
        ..cfg.clone()
    };
    let mmap = vec![
        mmap_startup_row(
            &laf_config,
            bench_dataset(&small_cfg),
            clone_estimator(cold_pipeline.estimator()),
        ),
        mmap_startup_row(
            &laf_config,
            cold_pipeline.data().clone(),
            clone_estimator(cold_pipeline.estimator()),
        ),
    ];

    // --- Bit-exactness -----------------------------------------------------
    let rows: Vec<&[f32]> = cold_pipeline.data().rows().collect();
    let cold_estimates = cold_pipeline.estimate_batch(&rows, laf_config.eps);
    let warm_rows: Vec<&[f32]> = warm_pipeline.data().rows().collect();
    let warm_estimates = warm_pipeline.estimate_batch(&warm_rows, laf_config.eps);
    let bit_exact = BitExactness {
        labels: cold_clustering.labels() == warm_clustering.labels(),
        stats: cold_stats == warm_stats,
        estimates: cold_estimates.len() == warm_estimates.len()
            && cold_estimates
                .iter()
                .zip(&warm_estimates)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
    };

    let cold = PhaseTimings {
        train_seconds: cold_train,
        snapshot_seconds: cold_save,
        first_cluster_seconds: cold_cluster,
        total_seconds: cold_train + cold_save + cold_cluster,
    };
    let warm = PhaseTimings {
        train_seconds: 0.0,
        snapshot_seconds: warm_load,
        first_cluster_seconds: warm_cluster,
        total_seconds: warm_load + warm_cluster,
    };
    let report = SnapshotBenchReport {
        n_points,
        dim,
        snapshot_bytes,
        cold,
        warm,
        warm_startup_speedup: if warm.total_seconds > 0.0 {
            cold.total_seconds / warm.total_seconds
        } else {
            0.0
        },
        bit_exact,
        engines,
        mmap,
    };

    let rows = vec![
        vec![
            "cold (train+save+cluster)".to_string(),
            format_seconds(cold.train_seconds),
            format_seconds(cold.snapshot_seconds),
            format_seconds(cold.first_cluster_seconds),
            format_seconds(cold.total_seconds),
        ],
        vec![
            "warm (load+cluster)".to_string(),
            "-".to_string(),
            format_seconds(warm.snapshot_seconds),
            format_seconds(warm.first_cluster_seconds),
            format_seconds(warm.total_seconds),
        ],
    ];
    print_table(
        "Snapshot: cold vs warm startup to first served clustering",
        &["path", "train", "snapshot", "cluster", "total"],
        &rows,
    );
    println!(
        "snapshot size {} bytes; warm startup speedup {:.1}x; bit-exact: labels={} stats={} estimates={}",
        report.snapshot_bytes,
        report.warm_startup_speedup,
        bit_exact.labels,
        bit_exact.stats,
        bit_exact.estimates,
    );

    let engine_rows: Vec<Vec<String>> = report
        .engines
        .iter()
        .map(|e| {
            vec![
                e.engine.clone(),
                format_seconds(e.build_seconds),
                format_seconds(e.restore_seconds),
                format!("{:.1}x", e.restore_speedup),
                e.encoded_bytes.to_string(),
                e.agree.to_string(),
            ]
        })
        .collect();
    print_table(
        "Engine structure persistence: rebuild vs restore (format v2+)",
        &["engine", "build", "restore", "speedup", "bytes", "agree"],
        &engine_rows,
    );

    let mmap_rows: Vec<Vec<String>> = report
        .mmap
        .iter()
        .map(|m| {
            vec![
                m.n_points.to_string(),
                m.snapshot_bytes.to_string(),
                format_seconds(m.decode_seconds),
                format_seconds(m.mmap_seconds),
                format!("{:.1}x", m.mmap_speedup),
                m.dataset_mapped.to_string(),
                m.identical.to_string(),
            ]
        })
        .collect();
    print_table(
        "Zero-copy warm start: mmap+checksum vs read+copying decode (format v3)",
        &[
            "points",
            "bytes",
            "decode",
            "mmap",
            "speedup",
            "mapped",
            "identical",
        ],
        &mmap_rows,
    );
    if let [small, big] = report.mmap.as_slice() {
        println!(
            "load-cost growth {} -> {} points ({:.1}x data): decode {:.1}x, mmap {:.1}x",
            small.n_points,
            big.n_points,
            big.n_points as f64 / small.n_points.max(1) as f64,
            big.decode_seconds / small.decode_seconds.max(f64::EPSILON),
            big.mmap_seconds / small.mmap_seconds.max(f64::EPSILON),
        );
    }

    write_json(&cfg.results_dir, "BENCH_snapshot", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::NetConfig;

    #[test]
    fn cold_and_warm_paths_are_measured_and_bit_exact() {
        let cfg = HarnessConfig {
            scale: 0.001,
            dim_cap: Some(12),
            train_queries: 60,
            net: NetConfig::tiny(),
            results_dir: std::env::temp_dir().join("laf_bench_snapshot_test"),
            ..Default::default()
        };
        let report = run(&cfg);
        assert!(report.snapshot_bytes > 0);
        assert!(report.cold.train_seconds > 0.0);
        assert!(report.warm.total_seconds > 0.0);
        // The acceptance bar of the whole subsystem: a loaded pipeline is
        // indistinguishable from the one that trained.
        assert!(report.bit_exact.labels, "labels must be byte-identical");
        assert!(report.bit_exact.stats, "stats must be identical");
        assert!(
            report.bit_exact.estimates,
            "estimates must be bit-identical"
        );
        // The per-engine matrix covers every persistable kind and every
        // restored engine answers probe queries identically to its builder.
        let kinds: Vec<&str> = report.engines.iter().map(|e| e.engine.as_str()).collect();
        assert_eq!(kinds, ["linear", "kmeans_tree", "ivf"]);
        for e in &report.engines {
            assert!(e.agree, "{}: restored engine diverged", e.engine);
            assert!(e.encoded_bytes > 0, "{}", e.engine);
        }
        // Two mmap-vs-decode rows (quarter scale, default scale), each with
        // the mapped pipeline clustering identically to the owned one.
        assert_eq!(report.mmap.len(), 2);
        assert!(report.mmap[0].n_points <= report.mmap[1].n_points);
        for m in &report.mmap {
            assert!(m.identical, "{} points: mapped load diverged", m.n_points);
            assert!(m.snapshot_bytes > 0);
            assert!(
                cfg!(target_endian = "big") || m.dataset_mapped,
                "{} points: dataset must be served from the mapping",
                m.n_points
            );
        }
        assert!(cfg.results_dir.join("BENCH_snapshot.json").exists());
    }
}
