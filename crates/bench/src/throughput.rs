//! The kernel gate: single-thread cosine `range_count` on the linear scan
//! against the brute-force reference.
//!
//! Not a paper exhibit. [`LinearScan`] answers with the metric-specialized
//! kernels (cached row norms, one dot product per row, register tiles);
//! [`ReferenceScan`] calls `Metric::dist` once per pair, which recomputes
//! both norms. Both give the same answers bit for bit (the index and core
//! agreement tests check that), so the ratio of their query rates is the
//! kernel layer's whole contribution. The report is printed and written to
//! `<results_dir>/BENCH_throughput.json`; the `exp_throughput` binary exits
//! non-zero when the ratio falls below [`MIN_SPEEDUP`].
//!
//! Batched and multi-threaded query rates are measured by the repository
//! benchmark (`perfbench`: `index.batch_us`, `index.batch_1t_us`,
//! `cardest.estimate_batch_us`) on its own workload.

use crate::harness::HarnessConfig;
use crate::report::write_json;
use laf_index::{LinearScan, RangeQueryEngine, ReferenceScan};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};
use serde::Serialize;
use std::time::Instant;

/// The least `LinearScan` / `ReferenceScan` query-rate ratio
/// `exp_throughput` accepts.
pub const MIN_SPEEDUP: f64 = 2.0;

/// What the kernel gate measured.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Indexed rows.
    pub points: usize,
    /// Row dimensionality.
    pub dim: usize,
    /// Queries per measured round (dataset rows).
    pub queries: usize,
    /// Cosine range threshold.
    pub eps: f32,
    /// `ReferenceScan::range_count` queries per second, one thread.
    pub reference_qps: f64,
    /// `LinearScan::range_count` queries per second, one thread.
    pub linear_qps: f64,
    /// `linear_qps / reference_qps`.
    pub speedup: f64,
}

fn bench_dataset(cfg: &HarnessConfig) -> Dataset {
    // Sized so that at the default LAF_SCALE (0.008) the scan working set is
    // ~16k x 64 dims ≈ 4 MB — large enough to stream from memory rather than
    // cache. Smaller LAF_SCALE values shrink it proportionally (the unit test
    // relies on this to stay fast in debug builds); the cap keeps large-scale
    // runs to a few seconds.
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

/// Queries per second of `engine` answering `range_count` for every query
/// in turn on the calling thread: one untimed warm-up round, then rounds
/// until ~0.2 s have elapsed.
fn queries_per_sec(engine: &dyn RangeQueryEngine, queries: &[&[f32]], eps: f32) -> f64 {
    let round = || {
        for q in queries {
            std::hint::black_box(engine.range_count(q, eps));
        }
    };
    round();
    let started = Instant::now();
    let mut answered = 0usize;
    while started.elapsed().as_secs_f64() < 0.2 {
        round();
        answered += queries.len();
    }
    answered as f64 / started.elapsed().as_secs_f64()
}

/// Measure the gate and write `BENCH_throughput.json`.
pub fn run(cfg: &HarnessConfig) -> ThroughputReport {
    let data = bench_dataset(cfg);
    let eps = Metric::Cosine.equivalent_threshold(0.3);
    let queries: Vec<&[f32]> = data.rows().take(256).collect();
    let reference_qps = queries_per_sec(&ReferenceScan::new(&data, Metric::Cosine), &queries, eps);
    let linear_qps = queries_per_sec(&LinearScan::new(&data, Metric::Cosine), &queries, eps);
    let report = ThroughputReport {
        points: data.len(),
        dim: data.dim(),
        queries: queries.len(),
        eps,
        reference_qps,
        linear_qps,
        speedup: linear_qps / reference_qps,
    };
    println!(
        "\nkernel gate: {} points x {} dims, {} cosine range_count queries at eps {eps}, \
         one thread\n  ReferenceScan {:.0} queries/s, LinearScan {:.0} queries/s: \
         {:.2}x (gate: >= {MIN_SPEEDUP}x)",
        report.points,
        report.dim,
        report.queries,
        report.reference_qps,
        report.linear_qps,
        report.speedup,
    );
    write_json(&cfg.results_dir, "BENCH_throughput", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_gate_report_is_well_formed() {
        let cfg = HarnessConfig {
            scale: 0.0005,
            dim_cap: Some(16),
            results_dir: std::env::temp_dir().join("laf_bench_throughput_test"),
            ..Default::default()
        };
        let report = run(&cfg);
        // The ratio itself is not asserted: timing assertions flake on
        // contended runners and debug builds. The binary gates it.
        assert_eq!(
            (report.points, report.dim, report.queries),
            (1_000, 16, 256)
        );
        assert!(report.reference_qps > 0.0 && report.linear_qps > 0.0);
        assert!(report.speedup > 0.0);
        assert!(cfg.results_dir.join("BENCH_throughput.json").exists());
    }
}
