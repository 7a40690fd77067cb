//! Generate / verify the committed **golden snapshot fixtures**.
//!
//! `tests/fixtures/golden_v1.lafs` is a version-1 snapshot committed to the
//! repository together with a `.labels` sidecar recording the clustering the
//! generating process observed. CI (and the `golden_v1` integration test)
//! loads the fixture through the current reader and asserts the labels still
//! match byte for byte — so a change that breaks v1 backward compatibility
//! fails the build instead of breaking deployed serving fleets.
//!
//! `tests/fixtures/golden_v4.lafs` (unsharded) and
//! `tests/fixtures/golden_v4_sharded.lafs` (3 shards, per-shard engines) pin
//! the **current** format the same way for the `golden_v4` integration test:
//! the sharded fixture is the compatibility contract for every deployed
//! scatter-gather snapshot.
//!
//! ```bash
//! # Verify the committed fixtures against the current reader (what CI runs):
//! cargo run --release -p laf --example golden_fixture -- check tests/fixtures/golden_v1.lafs
//! cargo run --release -p laf --example golden_fixture -- check-v4 tests/fixtures/golden_v4_sharded.lafs
//!
//! # Regenerate a fixture (only needed if the training pipeline itself
//! # changes deliberately — the files are deterministic for a given source
//! # tree, so a diff here is a compatibility decision, not noise):
//! cargo run --release -p laf --example golden_fixture -- gen tests/fixtures/golden_v1.lafs
//! cargo run --release -p laf --example golden_fixture -- gen-v4 tests/fixtures/golden_v4.lafs
//! cargo run --release -p laf --example golden_fixture -- gen-v4-sharded tests/fixtures/golden_v4_sharded.lafs
//! ```

use laf::prelude::*;

/// Fixed, deterministic training inputs: everything is seeded, so `gen`
/// produces identical bytes on every run of the same source tree. `shards`
/// ≥ 2 produces a sharded pipeline (format v4's manifest layout); the v4
/// fixtures use a grid engine so the per-shard engine sections carry real
/// persisted structure.
fn fixture_pipeline(shards: usize, grid: bool) -> LafPipeline {
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
    let mut config = LafConfig::new(0.3, 4, 1.2);
    if grid {
        config.engine = EngineChoice::Grid { cell_side: 0.3 };
    }
    LafPipeline::builder(config)
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(60),
            ..Default::default()
        })
        .shards(shards)
        .train(data)
        .expect("fixture training")
}

fn labels_sidecar(path: &str) -> String {
    format!("{path}.labels")
}

fn write_labels_sidecar(path: &str, labels: &[i64]) {
    let mut label_bytes = Vec::with_capacity(labels.len() * 8);
    for &l in labels {
        label_bytes.extend_from_slice(&l.to_le_bytes());
    }
    std::fs::write(labels_sidecar(path), label_bytes).expect("write labels sidecar");
}

fn read_labels_sidecar(path: &str) -> Vec<i64> {
    let sidecar = std::fs::read(labels_sidecar(path)).expect("labels sidecar");
    sidecar
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn gen(path: &str) {
    let pipeline = fixture_pipeline(1, false);
    let snapshot = pipeline.into_snapshot();
    let bytes = snapshot.encode_v1().expect("v1 encode");
    std::fs::write(path, &bytes).expect("write fixture");
    // Record the labels the v1-era pipeline produces so `check` can assert
    // the current reader reproduces them exactly.
    let (clustering, _) = LafPipeline::from_snapshot(snapshot).cluster_with_stats();
    write_labels_sidecar(path, clustering.labels());
    println!(
        "[gen] wrote v1 fixture {path} ({} bytes) and sidecar ({} labels)",
        bytes.len(),
        clustering.len()
    );
}

fn gen_v4(path: &str, shards: usize) {
    let pipeline = fixture_pipeline(shards, true);
    pipeline.save(path).expect("write v4 fixture");
    let (clustering, _) = pipeline.cluster_with_stats();
    write_labels_sidecar(path, clustering.labels());
    let n_shards = pipeline.snapshot_arc().shards.len();
    println!(
        "[gen-v4] wrote v4 fixture {path} ({} bytes, {} shard sections) and sidecar ({} labels)",
        std::fs::metadata(path).expect("fixture size").len(),
        n_shards,
        clustering.len()
    );
}

fn check_v4(path: &str) {
    let reference = read_labels_sidecar(path);
    // Both warm-start paths must decode the fixture and reproduce the
    // committed labels byte for byte.
    for (name, pipeline) in [
        (
            "load",
            LafPipeline::load(path).expect("golden v4 fixture must load"),
        ),
        (
            "load_mmap",
            LafPipeline::load_mmap(path).expect("golden v4 fixture must mmap"),
        ),
    ] {
        let snapshot = pipeline.snapshot_arc();
        let sharded = !snapshot.shards.is_empty();
        if sharded {
            assert!(
                snapshot.shards.iter().all(|s| s.engine.is_some()),
                "every shard of the sharded fixture carries a persisted engine"
            );
        }
        let (clustering, _) = pipeline.cluster_with_stats();
        assert_eq!(
            clustering.labels(),
            reference.as_slice(),
            "v4 compatibility broken ({name}): labels differ from the committed sidecar"
        );
    }
    println!(
        "[check-v4] OK: {path} decodes via both warm-start paths; {} labels byte-identical",
        reference.len()
    );
}

fn check(path: &str) {
    let pipeline = LafPipeline::load(path).expect("golden v1 fixture must load");
    assert!(
        pipeline.persisted_engine().is_none(),
        "a v1 snapshot carries no engine section; the fallback path must be exercised"
    );
    let (clustering, stats) = pipeline.cluster_with_stats();
    let reference = read_labels_sidecar(path);
    assert_eq!(
        clustering.labels(),
        reference.as_slice(),
        "v1 backward compatibility broken: labels differ from the committed sidecar"
    );
    println!(
        "[check] OK: v1 fixture loads via the fallback path; {} labels byte-identical \
         ({} clusters, {} skipped / {} executed queries)",
        reference.len(),
        clustering.n_clusters(),
        stats.skipped_range_queries,
        stats.executed_range_queries
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, path] if mode == "gen" => gen(path),
        [mode, path] if mode == "check" => check(path),
        [mode, path] if mode == "gen-v4" => gen_v4(path, 1),
        [mode, path] if mode == "gen-v4-sharded" => gen_v4(path, 3),
        [mode, path] if mode == "check-v4" => check_v4(path),
        _ => {
            eprintln!(
                "usage: golden_fixture \
                 [gen | check | gen-v4 | gen-v4-sharded | check-v4] <fixture.lafs>"
            );
            std::process::exit(2);
        }
    }
}
