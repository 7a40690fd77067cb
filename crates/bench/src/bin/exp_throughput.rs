//! The kernel gate: single-thread cosine `range_count` queries/sec of the
//! linear scan against the brute-force `ReferenceScan`. Writes
//! `BENCH_throughput.json`.
//!
//! Exits non-zero when the linear scan is below 2x the reference at the
//! configured scale: the norm cache turns three dot products per distance
//! into one, so losing that ratio means the kernel layer regressed. That
//! both engines give the same answers is checked by the index and core
//! agreement tests (`kernel_agreement`, `kernel_label_agreement`).

fn main() {
    let cfg = laf_bench::HarnessConfig::from_env();
    let report = laf_bench::throughput::run(&cfg);
    let min = laf_bench::throughput::MIN_SPEEDUP;
    assert!(
        report.speedup >= min,
        "LinearScan must be >= {min}x ReferenceScan on cosine range_count, measured {:.2}x",
        report.speedup
    );
}
