//! Backward-compatibility gate: the committed **format-v1 golden fixture**
//! must keep loading through the current reader's v1 fallback path and
//! reproduce the cluster labels recorded in its sidecar byte for byte.
//!
//! The fixture pair (`tests/fixtures/golden_v1.lafs` + `.labels`) is
//! committed; no writer of format 1 remains, so the file cannot be
//! regenerated, only kept. If this test fails, the change under review
//! breaks already-deployed v1 snapshots.

use laf::prelude::*;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    // The `laf` crate lives at crates/laf; the fixtures are committed at the
    // workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{name}"))
}

#[test]
fn committed_v1_fixture_loads_and_reproduces_its_labels() {
    let snapshot = fixture_path("golden_v1.lafs");
    let pipeline = LafPipeline::load(&snapshot)
        .unwrap_or_else(|e| panic!("v1 backward compatibility broken: {e} (fixture {snapshot:?})"));
    assert!(
        pipeline.persisted_engine().is_none(),
        "a v1 snapshot has no engine section — the rebuild fallback must be exercised"
    );

    let sidecar = std::fs::read(fixture_path("golden_v1.lafs.labels")).expect("labels sidecar");
    let reference: Vec<i64> = sidecar
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    assert!(!reference.is_empty(), "sidecar must hold labels");

    let (clustering, _) = pipeline.cluster_with_stats();
    assert_eq!(
        clustering.labels(),
        reference.as_slice(),
        "v1 fixture labels diverged from the committed sidecar"
    );
}
