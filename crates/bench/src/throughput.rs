//! Throughput experiment for the batched, parallel query pipeline.
//!
//! Not a paper exhibit: this measures the systems contribution of this
//! repository — queries/second of the batched range kernels
//! ([`laf_index::RangeQueryEngine::range_count_batch`],
//! [`laf_index::RangeQueryEngine::range_batch`]) and of batched estimator
//! inference ([`laf_cardest::CardinalityEstimator::estimate_batch`]) as a
//! function of **batch size** and **thread count**, against the one-point-
//! at-a-time baselines the seed implementation used — plus the **kernel
//! matrix**: generic vs specialized distance kernels, per metric, per
//! engine, scalar and batch, with a clustering-label equality check for
//! every engine/metric combination (the specialized kernels' bit-exactness
//! contract, enforced end to end).
//!
//! Results are printed as tables and written to
//! `<results_dir>/BENCH_throughput.json`. The `exp_throughput` binary exits
//! non-zero when the specialized cosine linear-scan kernel falls below 2x
//! the generic one or when any label check diverges.

use crate::harness::HarnessConfig;
use crate::report::{print_table, write_json};
use laf_cardest::{CardinalityEstimator, MlpEstimator, TrainingSetBuilder};
use laf_clustering::Dbscan;
use laf_index::{build_engine_with_mode, EngineChoice, KernelMode, LinearScan, RangeQueryEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};
use serde::Serialize;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRecord {
    /// What was measured (`linear.range_count`, `mlp.estimate`, ...).
    pub kernel: String,
    /// `per_query` for the point-at-a-time baseline, `batch` for the
    /// batched kernel.
    pub mode: String,
    /// Queries handed to one batched call (1 for the per-query baseline).
    pub batch_size: usize,
    /// Worker threads installed for the call.
    pub threads: usize,
    /// Total queries executed during the measurement.
    pub queries: u64,
    /// Wall-clock seconds of the measurement.
    pub seconds: f64,
    /// Queries per second.
    pub queries_per_sec: f64,
    /// Speedup over this kernel's 1-thread per-query baseline.
    pub speedup: f64,
}

/// One cell of the kernel matrix: a (engine, metric, scalar/batch,
/// generic/specialized) combination.
#[derive(Debug, Clone, Serialize)]
pub struct KernelMatrixRecord {
    /// Engine under test (`linear`).
    pub engine: String,
    /// Metric name ([`Metric::name`]).
    pub metric: String,
    /// `scalar` (one `range_count` per query) or `batch`
    /// (`range_count_batch` over the whole query set).
    pub mode: String,
    /// `generic` or `specialized` ([`KernelMode`]).
    pub kernel: String,
    /// Total queries executed during the measurement.
    pub queries: u64,
    /// Wall-clock seconds of the measurement.
    pub seconds: f64,
    /// Queries per second.
    pub queries_per_sec: f64,
    /// Speedup over the generic kernel of the same (engine, metric, mode)
    /// cell (1.0 for the generic rows themselves).
    pub speedup_vs_generic: f64,
}

/// One clustering-label equality check between the kernel modes.
#[derive(Debug, Clone, Serialize)]
pub struct LabelCheckRecord {
    /// Engine under test.
    pub engine: String,
    /// Metric name.
    pub metric: String,
    /// Points clustered.
    pub n_points: usize,
    /// `true` when the generic and specialized runs produced byte-identical
    /// labels.
    pub identical: bool,
}

/// Everything the throughput experiment measures, persisted as one JSON
/// object.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// The batch-size / thread-count sweep of the batched pipeline.
    pub records: Vec<ThroughputRecord>,
    /// Generic-vs-specialized kernel comparison per engine/metric/mode.
    pub kernel_matrix: Vec<KernelMatrixRecord>,
    /// Clustering label equality per engine/metric.
    pub label_checks: Vec<LabelCheckRecord>,
}

impl ThroughputReport {
    /// Speedup of the specialized cosine linear-scan scalar kernel over the
    /// generic one — the headline number the CI gate enforces.
    pub fn cosine_linear_scalar_speedup(&self) -> f64 {
        self.kernel_matrix
            .iter()
            .find(|r| {
                r.engine == "linear"
                    && r.metric == "cosine"
                    && r.mode == "scalar"
                    && r.kernel == "specialized"
            })
            .map(|r| r.speedup_vs_generic)
            .unwrap_or(0.0)
    }

    /// `true` when every engine/metric label check was byte-identical.
    pub fn labels_identical_everywhere(&self) -> bool {
        !self.label_checks.is_empty() && self.label_checks.iter().all(|c| c.identical)
    }
}

/// Thread counts swept by the experiment.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Batch sizes swept by the experiment.
pub const BATCH_SWEEP: [usize; 3] = [16, 64, 256];
/// Metrics covered by the kernel matrix and the label checks.
pub const KERNEL_METRICS: [Metric; 5] = Metric::ALL;

/// A range threshold equivalent to cosine-distance 0.3 under each metric
/// (the benchmark data is unit-normalized, so Equation (1) applies).
fn eps_for(metric: Metric) -> f32 {
    metric.equivalent_threshold(0.3)
}

fn bench_dataset(cfg: &HarnessConfig) -> Dataset {
    // Sized so that at the default LAF_SCALE (0.008) the scan working set is
    // ~16k x 64 dims ≈ 4 MB — large enough to stream from memory rather than
    // cache, the regime the blocked kernels target. Smaller LAF_SCALE values
    // shrink it proportionally (the unit test relies on this to stay fast in
    // debug builds); the cap keeps large-scale runs to a few seconds.
    let n_points = ((2_000_000.0 * cfg.scale) as usize).clamp(1_000, 48_000);
    let dim = cfg.dim_cap.unwrap_or(64).clamp(8, 128);
    EmbeddingMixtureConfig {
        n_points,
        dim,
        clusters: 16,
        noise_fraction: 0.2,
        seed: cfg.seed,
        ..Default::default()
    }
    .generate()
    .expect("valid benchmark dataset config")
    .0
}

/// Time `work` (which executes `queries_per_round` queries per call) by
/// repeating it until ~0.2 s have elapsed; returns (queries, seconds).
fn measure(queries_per_round: u64, mut work: impl FnMut()) -> (u64, f64) {
    // One untimed warm-up round.
    work();
    let started = Instant::now();
    let mut queries = 0u64;
    while started.elapsed().as_secs_f64() < 0.2 {
        work();
        queries += queries_per_round;
    }
    (queries, started.elapsed().as_secs_f64())
}

fn record(
    kernel: &str,
    mode: &str,
    batch_size: usize,
    threads: usize,
    queries: u64,
    seconds: f64,
    baseline_qps: f64,
) -> ThroughputRecord {
    let qps = queries as f64 / seconds;
    ThroughputRecord {
        kernel: kernel.to_string(),
        mode: mode.to_string(),
        batch_size,
        threads,
        queries,
        seconds,
        queries_per_sec: qps,
        speedup: if baseline_qps > 0.0 {
            qps / baseline_qps
        } else {
            0.0
        },
    }
}

/// Measure one kernel-matrix cell: queries/sec of `engine` answering the
/// query set in the given mode, single-threaded so the comparison isolates
/// the kernel itself rather than pool scheduling.
fn measure_matrix_cell(
    engine: &dyn RangeQueryEngine,
    queries: &[&[f32]],
    eps: f32,
    batch: bool,
) -> (u64, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    measure(queries.len() as u64, || {
        pool.install(|| {
            if batch {
                std::hint::black_box(engine.range_count_batch(queries, eps));
            } else {
                for q in queries {
                    std::hint::black_box(engine.range_count(q, eps));
                }
            }
        })
    })
}

/// The generic-vs-specialized kernel matrix over the row-scanning engine.
fn kernel_matrix(data: &Dataset, queries: &[&[f32]]) -> Vec<KernelMatrixRecord> {
    let engines: [(&str, EngineChoice); 1] = [("linear", EngineChoice::Linear)];
    let mut records = Vec::new();
    for (engine_name, choice) in engines {
        for metric in KERNEL_METRICS {
            let eps = eps_for(metric);
            let generic = build_engine_with_mode(choice, data, metric, KernelMode::Generic);
            let specialized = build_engine_with_mode(choice, data, metric, KernelMode::Specialized);
            for (mode_name, batch) in [("scalar", false), ("batch", true)] {
                let (gq, gs) = measure_matrix_cell(generic.as_ref(), queries, eps, batch);
                let generic_qps = gq as f64 / gs;
                records.push(KernelMatrixRecord {
                    engine: engine_name.to_string(),
                    metric: metric.name().to_string(),
                    mode: mode_name.to_string(),
                    kernel: "generic".to_string(),
                    queries: gq,
                    seconds: gs,
                    queries_per_sec: generic_qps,
                    speedup_vs_generic: 1.0,
                });
                let (sq, ss) = measure_matrix_cell(specialized.as_ref(), queries, eps, batch);
                let specialized_qps = sq as f64 / ss;
                records.push(KernelMatrixRecord {
                    engine: engine_name.to_string(),
                    metric: metric.name().to_string(),
                    mode: mode_name.to_string(),
                    kernel: "specialized".to_string(),
                    queries: sq,
                    seconds: ss,
                    queries_per_sec: specialized_qps,
                    speedup_vs_generic: if generic_qps > 0.0 {
                        specialized_qps / generic_qps
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    records
}

/// Full-DBSCAN label equality between the kernel modes for every
/// engine/metric combination (run on a subsample so the quadratic scan
/// stays affordable at every scale).
fn label_checks(data: &Dataset) -> Vec<LabelCheckRecord> {
    let n = data.len().min(1_200);
    let subset = data
        .select(&(0..n).collect::<Vec<_>>())
        .expect("prefix indices are valid");
    let choices: [(&str, EngineChoice); 3] = [
        ("linear", EngineChoice::Linear),
        (
            "kmeans_tree",
            EngineChoice::KMeansTree {
                branching: 8,
                leaf_ratio: 0.6,
            },
        ),
        (
            "ivf",
            EngineChoice::Ivf {
                nlist: 16,
                nprobe: 4,
            },
        ),
    ];
    let mut checks = Vec::new();
    for (engine_name, choice) in choices {
        for metric in KERNEL_METRICS {
            let eps = eps_for(metric);
            let mut dbscan = Dbscan::with_params(eps, 4);
            dbscan.config.metric = metric;
            dbscan.config.engine = choice;
            let generic_engine =
                build_engine_with_mode(choice, &subset, metric, KernelMode::Generic);
            let specialized_engine =
                build_engine_with_mode(choice, &subset, metric, KernelMode::Specialized);
            let generic = dbscan.cluster_with_engine(&subset, generic_engine.as_ref());
            let specialized = dbscan.cluster_with_engine(&subset, specialized_engine.as_ref());
            checks.push(LabelCheckRecord {
                engine: engine_name.to_string(),
                metric: metric.name().to_string(),
                n_points: subset.len(),
                identical: generic.labels() == specialized.labels(),
            });
        }
    }
    checks
}

/// Run the sweep and write `BENCH_throughput.json`.
pub fn run(cfg: &HarnessConfig) -> ThroughputReport {
    let data = bench_dataset(cfg);
    let eps = 0.35f32;
    let n_queries = 256.min(data.len());
    let queries: Vec<&[f32]> = (0..n_queries).map(|i| data.row(i)).collect();
    println!(
        "\nthroughput sweep: {} points x {} dims, {} queries, eps {eps} \
         ({} host cores)",
        data.len(),
        data.dim(),
        n_queries,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut records = Vec::new();

    // --- Engine kernel: LinearScan::range_count ---------------------------
    let scan = LinearScan::new(&data, Metric::Cosine);
    let (q, s) = measure(n_queries as u64, || {
        for query in &queries {
            std::hint::black_box(scan.range_count(query, eps));
        }
    });
    let baseline_qps = q as f64 / s;
    records.push(record(
        "linear.range_count",
        "per_query",
        1,
        1,
        q,
        s,
        baseline_qps,
    ));

    for &threads in &THREAD_SWEEP {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for &batch in &BATCH_SWEEP {
            let (q, s) = measure(n_queries as u64, || {
                pool.install(|| {
                    for group in queries.chunks(batch) {
                        std::hint::black_box(scan.range_count_batch(group, eps));
                    }
                })
            });
            records.push(record(
                "linear.range_count",
                "batch",
                batch,
                threads,
                q,
                s,
                baseline_qps,
            ));
        }
    }

    // --- Estimator kernel: MLP estimate ----------------------------------
    let training = TrainingSetBuilder {
        max_queries: Some(cfg.train_queries.min(200)),
        ..Default::default()
    }
    .build(&data, &data)
    .expect("training set");
    let mlp = MlpEstimator::train(&training, &cfg.net);
    let (q, s) = measure(n_queries as u64, || {
        for query in &queries {
            std::hint::black_box(mlp.estimate(query, eps));
        }
    });
    let mlp_baseline_qps = q as f64 / s;
    records.push(record(
        "mlp.estimate",
        "per_query",
        1,
        1,
        q,
        s,
        mlp_baseline_qps,
    ));

    for &threads in &THREAD_SWEEP {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for &batch in &BATCH_SWEEP {
            let (q, s) = measure(n_queries as u64, || {
                pool.install(|| {
                    for group in queries.chunks(batch) {
                        std::hint::black_box(mlp.estimate_batch(group, eps));
                    }
                })
            });
            records.push(record(
                "mlp.estimate",
                "batch",
                batch,
                threads,
                q,
                s,
                mlp_baseline_qps,
            ));
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.mode.clone(),
                r.batch_size.to_string(),
                r.threads.to_string(),
                format!("{:.0}", r.queries_per_sec),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        "Throughput: batched parallel kernels vs one-point-at-a-time baselines",
        &["kernel", "mode", "batch", "threads", "queries/s", "speedup"],
        &rows,
    );

    // --- Kernel matrix: generic vs specialized, per metric, per engine ----
    let matrix = kernel_matrix(&data, &queries);
    let matrix_rows: Vec<Vec<String>> = matrix
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                r.metric.clone(),
                r.mode.clone(),
                r.kernel.clone(),
                format!("{:.0}", r.queries_per_sec),
                format!("{:.2}x", r.speedup_vs_generic),
            ]
        })
        .collect();
    print_table(
        "Kernel matrix: specialized (norm-cached, dot-only) vs generic dispatch",
        &["engine", "metric", "mode", "kernel", "queries/s", "speedup"],
        &matrix_rows,
    );

    // --- Label checks: bit-exactness enforced end to end ------------------
    let checks = label_checks(&data);
    let check_rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.engine.clone(),
                c.metric.clone(),
                c.n_points.to_string(),
                if c.identical { "ok" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Clustering labels: generic vs specialized kernels",
        &["engine", "metric", "points", "labels"],
        &check_rows,
    );

    let report = ThroughputReport {
        records,
        kernel_matrix: matrix,
        label_checks: checks,
    };
    println!(
        "\nspecialized cosine linear scan: {:.2}x the generic kernel (gate: >= 2x)",
        report.cosine_linear_scalar_speedup()
    );
    write_json(&cfg.results_dir, "BENCH_throughput", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::NetConfig;

    #[test]
    fn sweep_produces_complete_well_formed_records() {
        let cfg = HarnessConfig {
            scale: 0.0005,
            dim_cap: Some(16),
            train_queries: 40,
            net: NetConfig::tiny(),
            results_dir: std::env::temp_dir().join("laf_bench_throughput_test"),
            ..Default::default()
        };
        let report = run(&cfg);
        // 1 per-query baseline + threads x batches records, per kernel.
        // Wall-clock *magnitudes* are deliberately not asserted — timing
        // assertions flake on contended CI runners; the performance evidence
        // lives in BENCH_throughput.json, not in the test suite.
        let expected_per_kernel = 1 + THREAD_SWEEP.len() * BATCH_SWEEP.len();
        assert_eq!(report.records.len(), 2 * expected_per_kernel);
        assert!(report
            .records
            .iter()
            .all(|r| r.queries_per_sec > 0.0 && r.speedup > 0.0 && r.queries > 0));
        // Kernel matrix: 1 engine x metrics x {scalar,batch} x
        // {generic,specialized}.
        assert_eq!(report.kernel_matrix.len(), KERNEL_METRICS.len() * 2 * 2);
        assert!(report
            .kernel_matrix
            .iter()
            .all(|r| r.queries_per_sec > 0.0 && r.queries > 0));
        assert!(report.cosine_linear_scalar_speedup() > 0.0);
        // Label checks: 3 engines x metrics, and correctness (unlike speed)
        // is asserted even at smoke scale — the specialized kernels are
        // bit-exact by contract, on any machine.
        assert_eq!(report.label_checks.len(), 3 * KERNEL_METRICS.len());
        assert!(
            report.labels_identical_everywhere(),
            "kernel modes produced diverging labels: {:?}",
            report
                .label_checks
                .iter()
                .filter(|c| !c.identical)
                .collect::<Vec<_>>()
        );
        assert!(cfg.results_dir.join("BENCH_throughput.json").exists());
    }
}
