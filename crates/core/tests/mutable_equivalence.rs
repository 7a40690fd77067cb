//! The mutable-plane read contract: a [`MutablePipeline`] with interleaved
//! inserts and deletes must answer `range` / `range_count` / `knn`
//! **bit-identically** to a from-scratch engine (and pipeline) built over
//! the equivalent final dataset — before compaction, after a reopen
//! (WAL-replay path), after compaction, and after further writes on the
//! compacted base. The compacted base must also cluster (labels and
//! `LafStats`) like a from-scratch pipeline over the live rows. Exercised
//! for every exact engine configuration (the k-means tree visiting every
//! leaf and IVF probing every list are exact).
//! `knn` distance bits match because the merge path scores delta rows
//! with an engine of the same kind as the base, so every (distance, id)
//! pair is the same floating-point evaluation a from-scratch engine
//! would produce.

use laf_cardest::{NetConfig, TrainingSetBuilder};
use laf_core::{LafConfig, LafPipeline, MutablePipeline};
use laf_index::{build_engine, EngineChoice};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::Dataset;
use std::path::PathBuf;

const DIM: usize = 8;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laf_mutable_equivalence_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn gen_data(n: usize, seed: u64) -> Dataset {
    EmbeddingMixtureConfig {
        n_points: n,
        dim: DIM,
        clusters: 3,
        noise_fraction: 0.15,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn train(config: LafConfig) -> LafPipeline {
    LafPipeline::builder(config)
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(40),
            ..Default::default()
        })
        .train(gen_data(120, 5))
        .unwrap()
}

/// Assert every read answer matches a from-scratch engine over the live
/// rows, bit for bit.
fn assert_matches_from_scratch(
    mutable: &MutablePipeline,
    choice: EngineChoice,
    config: &LafConfig,
    stage: &str,
) {
    let live = mutable.live_dataset().unwrap();
    assert_eq!(live.len(), mutable.len(), "{stage}: live row count");
    let fresh = build_engine(choice, &live, config.metric);
    let queries = gen_data(12, 99);
    for q in queries.rows() {
        for eps in [0.15f32, 0.3, 0.5] {
            assert_eq!(
                mutable.range(q, eps),
                fresh.range(q, eps),
                "{stage}: range {choice:?} eps={eps}"
            );
            assert_eq!(
                mutable.range_count(q, eps),
                fresh.range_count(q, eps),
                "{stage}: range_count {choice:?} eps={eps}"
            );
        }
        let got = mutable.knn(q, 7);
        let want = fresh.knn(q, 7);
        assert_eq!(got.len(), want.len(), "{stage}: knn len {choice:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.index, w.index, "{stage}: knn index {choice:?}");
            assert_eq!(
                g.dist.to_bits(),
                w.dist.to_bits(),
                "{stage}: knn dist bits {choice:?}"
            );
        }
    }
}

/// Interleave inserts and deletes touching base rows, fresh delta rows, and
/// re-deletions of shifted ids.
fn mutate(mutable: &mut MutablePipeline) {
    let extra = gen_data(30, 6);
    for i in 0..10 {
        mutable.insert(extra.row(i)).unwrap();
    }
    mutable.delete(3).unwrap(); // base row
    mutable.delete(0).unwrap(); // base row, shifts everything down
    mutable.delete(mutable.len() - 2).unwrap(); // delta row
    for i in 10..16 {
        mutable.insert(extra.row(i)).unwrap();
    }
    mutable.delete(60).unwrap();
    mutable.delete(60).unwrap(); // the next row, after the shift
    mutable.delete(mutable.len() - 1).unwrap(); // newest delta row
}

fn run_scenario(tag: &str, choice: EngineChoice) {
    let config = LafConfig {
        engine: choice,
        ..LafConfig::new(0.3, 4, 1.0)
    };
    let trained = train(config.clone());
    let dir = unique_dir(tag);
    let mut mutable = MutablePipeline::create(&dir, &trained).unwrap();
    assert_eq!(mutable.len(), 120);

    mutate(&mut mutable);
    assert_matches_from_scratch(&mutable, choice, &config, "pre-compaction");
    let live_before = mutable.live_dataset().unwrap();

    // Reopen: the WAL-replay path must rebuild the identical state.
    mutable.sync().unwrap();
    drop(mutable);
    let mut mutable = MutablePipeline::open(&dir).unwrap();
    assert_eq!(
        mutable.live_dataset().unwrap().as_flat(),
        live_before.as_flat(),
        "replayed state matches the in-memory state bit for bit"
    );
    assert_matches_from_scratch(&mutable, choice, &config, "post-reopen");

    // Compaction folds everything into a fresh base without changing any
    // answer: dense ids are stable.
    mutable.compact().unwrap();
    assert_eq!(mutable.delta_len(), 0);
    assert_eq!(mutable.deleted(), 0);
    assert_eq!(
        mutable.live_dataset().unwrap().as_flat(),
        live_before.as_flat(),
        "compaction preserves the live rows in dense order"
    );
    assert_matches_from_scratch(&mutable, choice, &config, "post-compaction");
    // The compacted base clusters like a pipeline built from scratch over
    // the live rows with the trained config and estimator.
    let scratch = LafPipeline::from_parts(config.clone(), live_before, trained.estimator().clone());
    let (want, want_stats) = scratch.cluster_with_stats();
    let (got, got_stats) = mutable.base().cluster_with_stats();
    assert_eq!(got.labels(), want.labels(), "{tag}: compacted labels");
    assert_eq!(got_stats, want_stats, "{tag}: compacted LafStats");

    // Writes keep working against the compacted base.
    mutate(&mut mutable);
    assert_matches_from_scratch(&mutable, choice, &config, "post-compaction writes");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn linear_matches_from_scratch() {
    run_scenario("linear", EngineChoice::Linear);
}

#[test]
fn exhaustive_kmeans_tree_matches_from_scratch() {
    run_scenario(
        "kmeans",
        EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 1.0,
        },
    );
}

#[test]
fn exhaustive_ivf_matches_from_scratch() {
    run_scenario(
        "ivf",
        EngineChoice::Ivf {
            nlist: 4,
            nprobe: 4,
        },
    );
}

#[test]
fn cover_tree_matches_from_scratch() {
    run_scenario("cover", EngineChoice::CoverTree { basis: 2.0 });
}

#[test]
fn mutable_answers_match_a_from_scratch_pipeline() {
    // The full-pipeline flavor of the same contract: a `LafPipeline`
    // assembled over the live rows (same estimator, so the serving stack
    // around the engine is held fixed) answers through its engine exactly
    // like the mutable merge path.
    let config = LafConfig::new(0.3, 4, 1.0);
    let trained = train(config.clone());
    let dir = unique_dir("pipeline");
    let mut mutable = MutablePipeline::create(&dir, &trained).unwrap();
    mutate(&mut mutable);
    let fresh = LafPipeline::from_parts(
        config,
        mutable.live_dataset().unwrap(),
        mutable.base().estimator().clone(),
    );
    let engine = fresh.engine();
    let queries = gen_data(8, 77);
    for q in queries.rows() {
        assert_eq!(mutable.range(q, 0.3), engine.get().range(q, 0.3));
        assert_eq!(
            mutable.range_count(q, 0.3),
            engine.get().range_count(q, 0.3)
        );
        let (got, want) = (mutable.knn(q, 5), engine.get().knn(q, 5));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.index, g.dist.to_bits()), (w.index, w.dist.to_bits()));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delete_validates_the_dense_id_space() {
    let trained = train(LafConfig::new(0.3, 4, 1.0));
    let dir = unique_dir("validation");
    let mut mutable = MutablePipeline::create(&dir, &trained).unwrap();
    let n = mutable.len();
    assert!(mutable.delete(n).is_err(), "one past the end is rejected");
    assert!(mutable.insert(&[0.0; 3]).is_err(), "wrong dim is rejected");
    assert_eq!(mutable.len(), n, "failed writes are not applied");
    mutable.delete(n - 1).unwrap();
    assert!(mutable.delete(n - 1).is_err(), "id space shrank");
    std::fs::remove_dir_all(&dir).ok();
}
