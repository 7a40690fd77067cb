//! Differential oracle for the join under LAF-DBSCAN and LAF-DBSCAN++: each
//! loop against its per-row reference — one `engine.range` per executed
//! point — over every engine, both metrics, `LafConfig::threads` 1 and 2,
//! windows forced through the crate-private seam, and estimators from the
//! exact oracle to a NaN constant.

use crate::config::{LafConfig, LafStats};
use crate::gate::{CardEstGate, Prescan};
use crate::laf_dbscan::LafDbscan;
use crate::laf_dbscan_pp::{LafDbscanPlusPlus, LafDbscanPlusPlusConfig};
use crate::partial::PartialNeighborMap;
use crate::post::{PostProcessor, PostReport};
use laf_cardest::{CardinalityEstimator, ConstantEstimator, ExactEstimator, SamplingEstimator};
use laf_clustering::{
    label_from_cores, Clustering, DbscanPlusPlus, DbscanPlusPlusConfig, JoinTally, NOISE, UNDEFINED,
};
use laf_index::{build_engine, EngineChoice, RangeQueryEngine, ShardedEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric, ShardMap};

/// LAF-DBSCAN's loop as it ran before the join.
fn reference_laf_dbscan<E: CardinalityEstimator>(
    laf: &LafDbscan<E>,
    data: &Dataset,
    engine: &dyn RangeQueryEngine,
) -> (Clustering, LafStats) {
    let n = data.len();
    let cfg = &laf.config;
    let gate = CardEstGate::new(laf.estimator(), cfg);
    let (eps, tau) = (cfg.eps, cfg.min_pts);
    let prescan = cfg.run_in_pool(|| gate.prescan(data));
    let mut labels = vec![UNDEFINED; n];
    let mut partial = PartialNeighborMap::new();
    let mut next_cluster: i64 = -1;
    let mut executed_queries = 0u64;
    for p in 0..n {
        if labels[p] != UNDEFINED {
            continue;
        }
        if gate.decide(&prescan, p) {
            labels[p] = NOISE;
            partial.register_stop_point(p as u32);
            continue;
        }
        let neighbors = engine.range(data.row(p), eps);
        executed_queries += 1;
        partial.update(p as u32, &neighbors);
        if neighbors.len() < tau {
            labels[p] = NOISE;
            continue;
        }
        next_cluster += 1;
        labels[p] = next_cluster;
        let mut seeds: Vec<u32> = neighbors.into_iter().filter(|&q| q as usize != p).collect();
        let mut cursor = 0usize;
        while cursor < seeds.len() {
            let q = seeds[cursor] as usize;
            cursor += 1;
            if labels[q] == NOISE {
                labels[q] = next_cluster;
            }
            if labels[q] != UNDEFINED {
                continue;
            }
            labels[q] = next_cluster;
            if !gate.decide(&prescan, q) {
                let q_neighbors = engine.range(data.row(q), eps);
                executed_queries += 1;
                partial.update(q as u32, &q_neighbors);
                if q_neighbors.len() >= tau {
                    seeds.extend(q_neighbors);
                }
            } else {
                partial.register_stop_point(q as u32);
            }
        }
    }
    let report = if cfg.post_processing {
        PostProcessor::new(tau).process(&mut labels, &partial)
    } else {
        Default::default()
    };
    finish(
        labels,
        &gate,
        executed_queries,
        &partial,
        report,
        &prescan,
        engine,
    )
}

/// LAF-DBSCAN++ as it ran before the join.
fn reference_laf_dbscan_pp<E: CardinalityEstimator>(
    laf_pp: &LafDbscanPlusPlus<E>,
    data: &Dataset,
    engine: &dyn RangeQueryEngine,
) -> (Clustering, LafStats) {
    let n = data.len();
    let cfg = &laf_pp.config;
    let (eps, tau) = (cfg.laf.eps, cfg.laf.min_pts);
    let gate = CardEstGate::new(laf_pp.estimator(), &cfg.laf);
    let mut partial = PartialNeighborMap::new();
    let mut executed_queries = 0u64;
    let sample = DbscanPlusPlus::new(DbscanPlusPlusConfig {
        eps,
        min_pts: tau,
        sample_fraction: laf_pp.sample_fraction(data),
        metric: cfg.laf.metric,
        engine: cfg.laf.engine,
        seed: cfg.seed,
    })
    .sample_indices(n);
    let sample_rows: Vec<&[f32]> = sample.iter().map(|&s| data.row(s)).collect();
    let prescan = cfg.laf.run_in_pool(|| gate.prescan_rows(&sample_rows));
    let mut core_points: Vec<usize> = Vec::new();
    let mut core_neighbors: Vec<Vec<u32>> = Vec::new();
    for (slot, &s) in sample.iter().enumerate() {
        if gate.decide(&prescan, slot) {
            partial.register_stop_point(s as u32);
            continue;
        }
        let neighbors = engine.range(data.row(s), eps);
        executed_queries += 1;
        partial.update(s as u32, &neighbors);
        if neighbors.len() >= tau {
            core_points.push(s);
            core_neighbors.push(neighbors);
        }
    }
    let mut labels = label_from_cores(data, cfg.laf.metric, eps, &core_points, &core_neighbors);
    let report = if cfg.laf.post_processing {
        PostProcessor::new(tau).process(&mut labels, &partial)
    } else {
        Default::default()
    };
    finish(
        labels,
        &gate,
        executed_queries,
        &partial,
        report,
        &prescan,
        engine,
    )
}

/// The counters and the clustering both references return.
fn finish(
    labels: Vec<i64>,
    gate: &CardEstGate<'_>,
    executed_queries: u64,
    partial: &PartialNeighborMap,
    report: PostReport,
    prescan: &Prescan,
    engine: &dyn RangeQueryEngine,
) -> (Clustering, LafStats) {
    let stats = LafStats {
        cardest_calls: gate.calls(),
        skipped_range_queries: gate.skips(),
        executed_range_queries: executed_queries,
        predicted_stop_points: partial.len() as u64,
        detected_false_negatives: report.detected_false_negatives,
        merged_clusters: report.merged_clusters,
        prescan_batches: prescan.batches,
        prescan_batch_size: prescan.batch_size,
        prescan_last_batch_size: prescan.last_batch_size,
    };
    let mut clustering = Clustering::new(labels);
    clustering.normalize_ids();
    clustering.range_queries = executed_queries;
    clustering.skipped_range_queries = stats.skipped_range_queries;
    clustering.distance_evaluations = engine.distance_evaluations();
    (clustering, stats)
}

/// The exact oracle with every estimate scaled by 0.4: a gate that skips
/// core points, so post-processing has false negatives to repair.
struct Pessimistic<'a>(ExactEstimator<'a>);

impl CardinalityEstimator for Pessimistic<'_> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.0.estimate(query, eps) * 0.4
    }

    fn name(&self) -> &'static str {
        "pessimistic"
    }
}

fn mixture() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 160,
        dim: 8,
        clusters: 4,
        spread: 0.2,
        noise_fraction: 0.25,
        seed: 16,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

/// ε per metric: unit vectors at cosine distance c are `sqrt(2c)` apart.
fn eps_for(metric: Metric) -> f32 {
    match metric {
        Metric::Euclidean => 0.63,
        _ => 0.2,
    }
}

/// Every estimator of the matrix, by name.
fn estimators(
    data: &Dataset,
    metric: Metric,
) -> Vec<(&'static str, Box<dyn CardinalityEstimator + '_>)> {
    vec![
        ("exact", Box::new(ExactEstimator::new(data, metric))),
        (
            "sampling",
            Box::new(SamplingEstimator::new(data, metric, 40, 7)),
        ),
        (
            "exact x0.4",
            Box::new(Pessimistic(ExactEstimator::new(data, metric))),
        ),
        ("constant 0", Box::new(ConstantEstimator::new(0.0))),
        (
            "constant inf",
            Box::new(ConstantEstimator::new(f32::INFINITY)),
        ),
        ("constant NaN", Box::new(ConstantEstimator::new(f32::NAN))),
    ]
}

/// Run `f` over every engine of the matrix: the four engine choices and a
/// 3-way sharded linear scan.
fn for_each_engine(data: &Dataset, metric: Metric, mut f: impl FnMut(&str, &dyn RangeQueryEngine)) {
    let choices = [
        EngineChoice::Linear,
        EngineChoice::CoverTree { basis: 2.0 },
        EngineChoice::KMeansTree {
            branching: 4,
            leaf_ratio: 0.5,
        },
        EngineChoice::Ivf {
            nlist: 8,
            nprobe: 3,
        },
    ];
    for choice in choices {
        let engine = build_engine(choice, data, metric);
        f(&format!("{choice:?}"), engine.as_ref());
    }
    let map = ShardMap::even_split(data.len(), 3);
    let slices: Vec<Dataset> = (0..3)
        .map(|s| data.slice_rows(map.start(s), map.shard_len(s)).unwrap())
        .collect();
    let shards = slices
        .iter()
        .map(|slice| build_engine(EngineChoice::Linear, slice, metric))
        .collect();
    let sharded = ShardedEngine::new(shards, map).unwrap();
    f("sharded x3", &sharded);
}

/// Labels, `LafStats` and the clustering's counters equal, and the join
/// handed out every list it computed once while holding at most `2W`.
fn assert_same(
    case: &str,
    window: usize,
    got: (Clustering, LafStats, JoinTally),
    want: &(Clustering, LafStats),
) {
    let (clustering, stats, tally) = got;
    let (want, want_stats) = want;
    assert_eq!(clustering.labels(), want.labels(), "{case}: labels");
    assert_eq!(&stats, want_stats, "{case}: LafStats");
    assert_eq!(
        (
            clustering.range_queries,
            clustering.skipped_range_queries,
            clustering.distance_evaluations
        ),
        (
            want.range_queries,
            want.skipped_range_queries,
            want.distance_evaluations
        ),
        "{case}: range queries, skipped queries, distance evaluations"
    );
    assert_eq!(
        tally.computed, stats.executed_range_queries,
        "{case}: lists computed"
    );
    assert_eq!(tally.handed_out, tally.computed, "{case}: lists handed out");
    assert!(
        tally.peak_resident <= 2 * window,
        "{case}: {} lists resident at window {window}",
        tally.peak_resident
    );
}

#[test]
fn joined_loops_match_their_per_row_references() {
    let data = mixture();
    let n = data.len();
    for metric in [Metric::Cosine, Metric::Euclidean] {
        let eps = eps_for(metric);
        let estimators = estimators(&data, metric);
        for_each_engine(&data, metric, |name, engine| {
            for (estimator_name, estimator) in &estimators {
                let laf_cfg = LafConfig {
                    metric,
                    ..LafConfig::new(eps, 4, 1.0)
                };
                let pp_cfg = LafDbscanPlusPlusConfig {
                    laf: laf_cfg.clone(),
                    delta: 0.2,
                    ..Default::default()
                };
                engine.reset_distance_evaluations();
                let want = reference_laf_dbscan(
                    &LafDbscan::new(laf_cfg.clone(), estimator),
                    &data,
                    engine,
                );
                engine.reset_distance_evaluations();
                let want_pp = reference_laf_dbscan_pp(
                    &LafDbscanPlusPlus::new(pp_cfg.clone(), estimator),
                    &data,
                    engine,
                );
                for threads in [1, 2] {
                    let laf = LafDbscan::new(
                        LafConfig {
                            threads,
                            ..laf_cfg.clone()
                        },
                        estimator,
                    );
                    let mut pp = pp_cfg.clone();
                    pp.laf.threads = threads;
                    let laf_pp = LafDbscanPlusPlus::new(pp, estimator);
                    for window in [1, 2, 3, 17, n] {
                        let case = format!(
                            "{name} {metric:?} {estimator_name} threads {threads} window {window}"
                        );
                        engine.reset_distance_evaluations();
                        let got = laf.cluster_windowed(&data, engine, Some(window));
                        assert_same(&format!("LAF-DBSCAN {case}"), window, got, &want);
                        engine.reset_distance_evaluations();
                        let got = laf_pp.cluster_windowed(&data, engine, Some(window));
                        assert_same(&format!("LAF-DBSCAN++ {case}"), window, got, &want_pp);
                    }
                }
            }
        });
    }
}

#[test]
fn the_matrix_exercises_skips_and_repairs() {
    // The pessimistic gate skips core points, so the matrix covers runs in
    // which post-processing detects false negatives and merges clusters.
    let data = mixture();
    let laf = LafDbscan::new(
        LafConfig::new(eps_for(Metric::Cosine), 4, 1.0),
        Pessimistic(ExactEstimator::new(&data, Metric::Cosine)),
    );
    let engine = build_engine(EngineChoice::Linear, &data, Metric::Cosine);
    let (clustering, stats) = reference_laf_dbscan(&laf, &data, engine.as_ref());
    assert!(clustering.n_clusters() > 1);
    assert!(stats.skipped_range_queries > 0 && stats.executed_range_queries > 0);
    assert!(stats.detected_false_negatives > 0, "{stats:?}");
}
