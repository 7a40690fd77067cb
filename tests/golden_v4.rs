//! Forward-compatibility gate for the **format-v4 golden fixtures**: the
//! committed unsharded (`golden_v4.lafs`) and 3-shard
//! (`golden_v4_sharded.lafs`) snapshots must keep decoding through the
//! current reader — by copy and by mmap — and reproduce the cluster labels
//! recorded in their sidecars byte for byte. The sharded fixture is the
//! compatibility contract for deployed scatter-gather snapshots: its shard
//! manifest, per-shard dataset sections, and per-shard engine sections all
//! have to survive every future format change.
//!
//! The fixtures are generated by `examples/golden_fixture.rs`
//! (`gen-v4` / `gen-v4-sharded`) and committed; regenerating them is a
//! deliberate compatibility decision, never a side effect.

use laf::prelude::*;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    // The `laf` crate lives at crates/laf; the fixtures are committed at the
    // workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{name}"))
}

fn sidecar_labels(name: &str) -> Vec<i64> {
    let sidecar = std::fs::read(fixture_path(name)).expect("labels sidecar");
    let labels: Vec<i64> = sidecar
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    assert!(!labels.is_empty(), "sidecar must hold labels");
    labels
}

fn assert_reproduces_sidecar(fixture: &str, pipeline: &LafPipeline, path: &str) {
    let (clustering, _) = pipeline.cluster_with_stats();
    assert_eq!(
        clustering.labels(),
        sidecar_labels(&format!("{fixture}.labels")).as_slice(),
        "{fixture} labels diverged from the committed sidecar ({path})"
    );
}

#[test]
fn committed_v4_fixture_loads_by_copy_and_by_mmap() {
    let fixture = "golden_v4.lafs";
    let file = fixture_path(fixture);
    let bytes = std::fs::read(&file).expect("committed v4 fixture");
    assert_eq!(&bytes[..4], laf::core::SNAPSHOT_MAGIC, "bad magic");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        4,
        "the v4 fixture must be written at format version 4"
    );

    let cold = LafPipeline::load(&file).expect("v4 fixture must load by copy");
    assert!(
        cold.snapshot_arc().shards.is_empty(),
        "the unsharded fixture decodes to the classic (shard-free) layout"
    );
    assert_reproduces_sidecar(fixture, &cold, "copy");

    let warm = LafPipeline::load_mmap(&file).expect("v4 fixture must load by mmap");
    assert!(warm.data().is_mapped() || cfg!(target_endian = "big"));
    assert_reproduces_sidecar(fixture, &warm, "mmap");
}

#[test]
fn committed_sharded_v4_fixture_restores_every_shard() {
    let fixture = "golden_v4_sharded.lafs";
    let file = fixture_path(fixture);

    for (name, pipeline) in [
        (
            "copy",
            LafPipeline::load(&file).expect("sharded fixture loads"),
        ),
        (
            "mmap",
            LafPipeline::load_mmap(&file).expect("sharded fixture mmaps"),
        ),
    ] {
        let snapshot = pipeline.snapshot_arc();
        assert_eq!(snapshot.shards.len(), 3, "{name}: three shard sections");
        assert!(
            snapshot.engine.is_none(),
            "{name}: a sharded snapshot has no global engine section"
        );
        let total: usize = snapshot.shards.iter().map(|s| s.data.len()).sum();
        assert_eq!(
            total,
            snapshot.data.len(),
            "{name}: shard rows cover the dataset"
        );
        for (i, shard) in snapshot.shards.iter().enumerate() {
            assert!(
                shard.engine.is_some(),
                "{name}: shard {i} must carry its persisted engine structure"
            );
        }
        assert_reproduces_sidecar(fixture, &pipeline, name);
    }
}

#[test]
fn older_format_versions_still_encode_and_decode() {
    // Re-encode the unsharded fixture's snapshot through every legacy
    // writer and decode the result with the current reader: v1–v3 files
    // produced by older deployments must keep working.
    let pipeline = LafPipeline::load(fixture_path("golden_v4.lafs")).expect("v4 fixture must load");
    let reference = pipeline.cluster().labels().to_vec();
    let snapshot = pipeline.into_snapshot();
    let encoded = [
        ("v1", snapshot.encode_v1().expect("v1 encode")),
        ("v2", snapshot.encode_v2().expect("v2 encode")),
        ("v3", snapshot.encode_v3().expect("v3 encode")),
    ];
    for (version, bytes) in encoded {
        let decoded = LafPipeline::from_snapshot_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{version} round-trip broken: {e}"));
        assert_eq!(
            decoded.cluster().labels(),
            reference.as_slice(),
            "{version} re-encoded snapshot diverged from the v4 fixture labels"
        );
    }
}
