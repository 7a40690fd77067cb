//! Cold (train + save) vs warm (load) startup of the snapshot pipeline,
//! with a bit-exactness check between the two paths and a rebuild-vs-restore
//! matrix over every persistable engine. Writes `BENCH_snapshot.json`.
//!
//! Exits non-zero when any of the regression gates fail, so CI's bench-smoke
//! job can run this binary directly:
//!
//! * the warm pipeline must be bit-exact with the cold one;
//! * warm restore must be faster than cold training (the whole point of the
//!   train-once/serve-many split);
//! * restoring the persisted k-means tree / IVF structures must beat
//!   rebuilding them (the point of snapshot format v2). The linear scan is
//!   not gated: it has nothing to rebuild;
//! * the mmap load (`Snapshot::open_mmap`, format v3) must be faster than
//!   the copying decode at the default scale, must actually serve the
//!   dataset from the mapping (on little-endian hosts), and the
//!   mapped-backed pipeline must cluster byte-identically to the
//!   owned-backed one at every measured scale (the point of format v3).

fn main() {
    let cfg = laf_bench::HarnessConfig::from_env();
    let report = laf_bench::snapshot_bench::run(&cfg);
    assert!(
        report.bit_exact.labels && report.bit_exact.stats && report.bit_exact.estimates,
        "warm pipeline diverged from the cold one: {:?}",
        report.bit_exact
    );
    // The first clustering runs on both paths and is identical work, so the
    // startup comparison is restore-vs-train (the phase persistence removes)
    // plus total-vs-total (which folds the equal clustering cost into both).
    assert!(
        report.warm.snapshot_seconds < report.cold.train_seconds,
        "warm restore ({:.3}s) must be faster than cold training ({:.3}s)",
        report.warm.snapshot_seconds,
        report.cold.train_seconds
    );
    assert!(
        report.warm.total_seconds < report.cold.total_seconds,
        "warm startup to first result ({:.3}s) must beat cold ({:.3}s)",
        report.warm.total_seconds,
        report.cold.total_seconds
    );
    for engine in &report.engines {
        assert!(engine.agree, "{}: restored engine diverged", engine.engine);
        if matches!(engine.engine.as_str(), "kmeans_tree" | "ivf") {
            assert!(
                engine.restore_seconds < engine.build_seconds,
                "{}: restore ({:.4}s) must beat rebuild ({:.4}s)",
                engine.engine,
                engine.restore_seconds,
                engine.build_seconds
            );
        }
    }
    for m in &report.mmap {
        assert!(
            m.identical,
            "{} points: mapped pipeline diverged from the owned one",
            m.n_points
        );
    }
    let default_scale = report
        .mmap
        .last()
        .expect("mmap matrix measures at least the default scale");
    assert!(
        cfg!(target_endian = "big") || default_scale.dataset_mapped,
        "the default-scale mmap load must serve the dataset in place"
    );
    assert!(
        default_scale.mmap_seconds < default_scale.decode_seconds,
        "mmap load ({:.4}s) must beat the copying decode ({:.4}s) at the default scale",
        default_scale.mmap_seconds,
        default_scale.decode_seconds
    );
}
