//! Compatibility gate for the committed **golden snapshot fixtures** of
//! formats 2–4: the unsharded (`golden_v4.lafs`) and 3-shard
//! (`golden_v4_sharded.lafs`) format-v4 snapshots, and the same unsharded
//! snapshot in the legacy containers (`golden_v2.lafs`, `golden_v3.lafs`).
//! Each must keep decoding through the current reader — strict and
//! degraded, by copy and by mmap — and reproduce the cluster labels
//! recorded in its sidecar byte for byte. The sharded fixture is the
//! compatibility contract for deployed scatter-gather snapshots: its shard
//! manifest, per-shard dataset sections, and per-shard engine sections all
//! have to survive every future format change.
//!
//! All four files were written while the exact ε-grid engine existed: their
//! config names it and their engine sections hold grid structures. The grid
//! is retired, and its answers equal the linear scan's, so these files must
//! load as the linear scan — with a clean load report, since nothing is
//! degraded. The v2/v3 files share the v4 file's label sidecar.
//!
//! The fixtures are committed; regenerating them is a deliberate
//! compatibility decision, never a side effect.

use laf::core::DegradedLoad;
use laf::prelude::*;
use std::path::{Path, PathBuf};

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

/// Every way a serving process opens a snapshot file: strict and degraded,
/// by copy and by mmap. Strict loads have no report; they count as clean.
fn every_load(file: &Path) -> Vec<(&'static str, LafPipeline, DegradedLoad)> {
    let strict = |name, loaded: Result<LafPipeline, _>| {
        let pipeline = loaded.unwrap_or_else(|e| panic!("{file:?} {name}: {e}"));
        (name, pipeline, DegradedLoad::default())
    };
    let degraded = |name, loaded: Result<(LafPipeline, DegradedLoad), _>| {
        let (pipeline, report) = loaded.unwrap_or_else(|e| panic!("{file:?} {name}: {e}"));
        (name, pipeline, report)
    };
    vec![
        strict("copy", LafPipeline::load(file)),
        strict("mmap", LafPipeline::load_mmap(file)),
        degraded("degraded copy", LafPipeline::load_degraded(file)),
        degraded("degraded mmap", LafPipeline::load_mmap_degraded(file)),
    ]
}

/// A grid-era fixture loads as the linear scan under every load path: the
/// config names the linear engine, every persisted engine (global or per
/// shard) is the linear marker under the config's metric, the load is
/// clean, and the labels equal the sidecar.
fn assert_grid_era_fixture_loads_as_linear(fixture: &str, labels: &str) {
    for (name, pipeline, report) in every_load(&fixture_path(fixture)) {
        let snapshot = pipeline.snapshot_arc();
        let config = &snapshot.config;
        assert_eq!(config.engine, EngineChoice::Linear, "{fixture} {name}");
        let engines: Vec<&PersistedEngine> = snapshot
            .engine
            .iter()
            .chain(snapshot.shards.iter().filter_map(|s| s.engine.as_ref()))
            .collect();
        assert_eq!(
            engines.len(),
            snapshot.shards.len().max(1),
            "{fixture} {name}: one engine section per shard"
        );
        for engine in engines {
            assert_eq!(
                *engine,
                PersistedEngine::Linear {
                    metric: config.metric
                },
                "{fixture} {name}"
            );
        }
        assert!(report.is_clean(), "{fixture} {name}: {report}");
        let (clustering, _) = pipeline.cluster_with_stats();
        assert_eq!(
            clustering.labels(),
            sidecar_labels(labels).as_slice(),
            "{fixture} labels diverged from the committed sidecar ({name})"
        );
    }
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

    assert_grid_era_fixture_loads_as_linear(fixture, "golden_v4.lafs.labels");
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

    assert_grid_era_fixture_loads_as_linear(fixture, "golden_v4_sharded.lafs.labels");
}

#[test]
fn older_format_fixtures_still_decode() {
    // v2 and v3 hold the unsharded v4 fixture's snapshot in the legacy
    // containers (no alignment rule, resp. aligned without shard sections):
    // files produced by older deployments must keep working.
    for (fixture, version) in [("golden_v2.lafs", 2u32), ("golden_v3.lafs", 3)] {
        let bytes = std::fs::read(fixture_path(fixture)).expect("committed fixture");
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            version,
            "{fixture} must be written at format version {version}"
        );
        assert_grid_era_fixture_loads_as_linear(fixture, "golden_v4.lafs.labels");
    }
    // v1 has no engine section: every load path rebuilds from the config.
    let fixture = "golden_v1.lafs";
    for (name, pipeline, report) in every_load(&fixture_path(fixture)) {
        assert!(pipeline.persisted_engine().is_none(), "{name}");
        assert_eq!(pipeline.config().engine, EngineChoice::Linear, "{name}");
        assert!(report.is_clean(), "{name}: {report}");
        assert_reproduces_sidecar(fixture, &pipeline, name);
    }
}

/// The estimator section of each committed fixture, re-encoded.
fn estimator_bytes(pipeline: &LafPipeline) -> Vec<u8> {
    let mut bytes = Vec::new();
    pipeline
        .snapshot_arc()
        .estimator
        .encode_binary(&mut bytes)
        .expect("a snapshot's estimator has one stage");
    bytes
}

#[test]
fn retraining_the_fixture_recipe_reproduces_every_committed_estimator() {
    // The recipe every fixture was trained with: a seeded 160×8 mixture,
    // `NetConfig::tiny()` and 60 training queries over the default grid.
    // Training is deterministic, so retraining must reproduce the
    // committed weights bit for bit: this pins the exact training counts
    // and the trainer's arithmetic to the files deployed snapshots hold.
    let (data, _) = EmbeddingMixtureConfig {
        n_points: 160,
        dim: 8,
        clusters: 3,
        noise_fraction: 0.15,
        seed: 7,
        ..Default::default()
    }
    .generate()
    .expect("valid fixture dataset config");
    let retrained = LafPipeline::builder(LafConfig::new(0.3, 4, 1.2))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(60),
            ..Default::default()
        })
        .train(data)
        .expect("fixture recipe trains");
    let expected = estimator_bytes(&retrained);
    for fixture in ["golden_v1.lafs", "golden_v4.lafs", "golden_v4_sharded.lafs"] {
        let committed = LafPipeline::load(fixture_path(fixture)).expect("committed fixture");
        assert!(
            estimator_bytes(&committed) == expected,
            "{fixture}: the retrained estimator differs from the committed one"
        );
    }
}
