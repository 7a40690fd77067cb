//! Cross-process snapshot round-trip: a pipeline loaded in a **different
//! process** must be bit-exact with the process that trained it.
//!
//! Same-process round-trip tests cannot catch bugs where in-memory state
//! leaks into equality (e.g. an estimator that only looks identical because
//! the original weights are still alive). This test re-executes the current
//! test binary as a child "serving" process: the parent trains, saves a
//! snapshot and fingerprints its results; the child knows nothing but the
//! snapshot file, loads it, and writes its own fingerprint for the parent to
//! compare byte for byte.
//!
//! The fingerprint covers everything the acceptance bar names: cluster
//! labels, `LafStats`, and per-point estimates (as raw IEEE-754 bits).

use laf::prelude::*;
use std::path::PathBuf;
use std::process::Command;

/// Byte fingerprint of a pipeline's observable behaviour: labels (`i64` LE),
/// the serialized `LafStats`, and every per-point estimate's `f32` bits.
fn fingerprint(pipeline: &LafPipeline) -> Vec<u8> {
    let (clustering, stats) = pipeline.cluster_with_stats();
    let mut buf: Vec<u8> = Vec::new();
    for &label in clustering.labels() {
        buf.extend_from_slice(&label.to_le_bytes());
    }
    buf.extend_from_slice(
        serde_json::to_string(&stats)
            .expect("stats serialize")
            .as_bytes(),
    );
    let rows: Vec<&[f32]> = pipeline.data().rows().collect();
    for estimate in pipeline.estimate_batch(&rows, pipeline.config().eps) {
        buf.extend_from_slice(&estimate.to_bits().to_le_bytes());
    }
    buf
}

#[test]
fn cross_process_round_trip_is_bit_exact() {
    // Child role: triggered by the env vars the parent sets below. The child
    // has no access to the parent's in-memory pipeline — only the file.
    if let (Ok(snapshot), Ok(out)) = (
        std::env::var("LAF_SNAPSHOT_SERVE_PATH"),
        std::env::var("LAF_SNAPSHOT_FINGERPRINT_OUT"),
    ) {
        let warm = LafPipeline::load(&snapshot).expect("child: snapshot load");
        std::fs::write(&out, fingerprint(&warm)).expect("child: write fingerprint");
        return;
    }

    // Parent role: train, save, fingerprint.
    let dir = std::env::temp_dir().join(format!("laf_snapshot_xproc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("pipeline.lafs");
    let fingerprint_path = dir.join("child.fp");

    let (data, _) = EmbeddingMixtureConfig {
        n_points: 300,
        dim: 12,
        clusters: 5,
        noise_fraction: 0.2,
        seed: 123,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let cold = LafPipeline::builder(LafConfig::new(0.3, 4, 1.2))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        })
        .train(data)
        .unwrap();
    cold.save(&snapshot_path).unwrap();
    let parent_fp = fingerprint(&cold);

    // Re-execute this test binary as the serving process.
    let exe: PathBuf = std::env::current_exe().expect("test binary path");
    let status = Command::new(exe)
        .arg("cross_process_round_trip_is_bit_exact")
        .arg("--exact")
        .env("LAF_SNAPSHOT_SERVE_PATH", &snapshot_path)
        .env("LAF_SNAPSHOT_FINGERPRINT_OUT", &fingerprint_path)
        .status()
        .expect("spawn serving child process");
    assert!(status.success(), "child serving process failed: {status}");

    let child_fp = std::fs::read(&fingerprint_path).expect("child fingerprint written");
    assert!(
        parent_fp == child_fp,
        "cross-process fingerprints differ: parent {} bytes, child {} bytes",
        parent_fp.len(),
        child_fp.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
