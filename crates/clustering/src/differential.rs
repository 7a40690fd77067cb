//! Differential oracle for the join under DBSCAN and DBSCAN++: each loop
//! against its per-row reference — one `engine.range` per consumed row and a
//! sequential closest-core assignment — over every engine, both metrics, one
//! and two pool threads, and windows forced through the crate-private seam.

use crate::dbscan::DbscanConfig;
use crate::dbscan_pp::DbscanPlusPlusConfig;
use crate::join::JoinTally;
use crate::{Clustering, Dbscan, DbscanPlusPlus, NOISE, UNDEFINED};
use laf_index::{build_engine, EngineChoice, RangeQueryEngine, ShardedEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric, ShardMap};

/// DBSCAN's loop as it ran before the join.
fn reference_dbscan(
    config: &DbscanConfig,
    data: &Dataset,
    engine: &dyn RangeQueryEngine,
) -> Clustering {
    let n = data.len();
    let (eps, tau) = (config.eps, config.min_pts);
    let mut labels = vec![UNDEFINED; n];
    let mut range_queries = 0u64;
    let mut next_cluster: i64 = -1;
    for p in 0..n {
        if labels[p] != UNDEFINED {
            continue;
        }
        let neighbors = engine.range(data.row(p), eps);
        range_queries += 1;
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
            let q_neighbors = engine.range(data.row(q), eps);
            range_queries += 1;
            if q_neighbors.len() >= tau {
                seeds.extend(q_neighbors);
            }
        }
    }
    let mut clustering = Clustering::new(labels);
    clustering.normalize_ids();
    clustering.range_queries = range_queries;
    clustering.distance_evaluations = engine.distance_evaluations();
    clustering
}

/// DBSCAN++ as it ran before the join, with its sequential assignment.
fn reference_dbscan_pp(
    algo: &DbscanPlusPlus,
    data: &Dataset,
    engine: &dyn RangeQueryEngine,
) -> Clustering {
    let n = data.len();
    let (eps, tau, metric) = (algo.config.eps, algo.config.min_pts, algo.config.metric);
    let mut range_queries = 0u64;
    let mut core_points: Vec<usize> = Vec::new();
    let mut core_neighbors: Vec<Vec<u32>> = Vec::new();
    for s in algo.sample_indices(n) {
        let neighbors = engine.range(data.row(s), eps);
        range_queries += 1;
        if neighbors.len() >= tau {
            core_points.push(s);
            core_neighbors.push(neighbors);
        }
    }
    let mut labels = vec![UNDEFINED; n];
    let mut core_slot: Vec<Option<usize>> = vec![None; n];
    for (slot, &c) in core_points.iter().enumerate() {
        core_slot[c] = Some(slot);
    }
    let mut next_cluster: i64 = -1;
    for (slot, &c) in core_points.iter().enumerate() {
        if labels[c] != UNDEFINED {
            continue;
        }
        next_cluster += 1;
        let mut queue = vec![slot];
        labels[c] = next_cluster;
        while let Some(cur_slot) = queue.pop() {
            for &nb in &core_neighbors[cur_slot] {
                let nb = nb as usize;
                if let Some(nb_slot) = core_slot[nb] {
                    if labels[nb] == UNDEFINED {
                        labels[nb] = next_cluster;
                        queue.push(nb_slot);
                    }
                }
            }
        }
    }
    for p in 0..n {
        if labels[p] != UNDEFINED {
            continue;
        }
        let row = data.row(p);
        let mut best: Option<(f32, i64)> = None;
        for &c in &core_points {
            let d = metric.dist(row, data.row(c));
            if d < eps {
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, labels[c])),
                }
            }
        }
        labels[p] = best.map(|(_, l)| l).unwrap_or(NOISE);
    }
    let mut clustering = Clustering::new(labels);
    clustering.range_queries = range_queries;
    clustering.distance_evaluations = engine.distance_evaluations();
    clustering
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

/// Run `run` on a pool of `threads` workers with the engine's evaluation
/// counter reset first.
fn fresh<R>(threads: usize, engine: &dyn RangeQueryEngine, run: impl FnOnce() -> R) -> R {
    engine.reset_distance_evaluations();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(run)
}

/// Labels and counters equal, and the join handed out every list it
/// computed once while holding at most `2W` of them.
fn assert_same(case: &str, window: usize, got: &(Clustering, JoinTally), want: &Clustering) {
    let (clustering, tally) = got;
    assert_eq!(clustering.labels(), want.labels(), "{case}: labels");
    assert_eq!(
        clustering.range_queries, want.range_queries,
        "{case}: range queries"
    );
    assert_eq!(
        clustering.distance_evaluations, want.distance_evaluations,
        "{case}: distance evaluations"
    );
    assert_eq!(tally.computed, want.range_queries, "{case}: lists computed");
    assert_eq!(
        tally.handed_out, want.range_queries,
        "{case}: lists handed out"
    );
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
        let dbscan = DbscanConfig {
            eps,
            min_pts: 4,
            metric,
            engine: EngineChoice::Linear,
        };
        let pp = DbscanPlusPlus::new(DbscanPlusPlusConfig {
            eps,
            min_pts: 4,
            sample_fraction: 0.4,
            metric,
            engine: EngineChoice::Linear,
            seed: 5,
        });
        for_each_engine(&data, metric, |name, engine| {
            let want = fresh(1, engine, || reference_dbscan(&dbscan, &data, engine));
            assert!(
                want.n_clusters() > 1 && want.n_noise() > 0,
                "{name}: a vacuous case"
            );
            let want_pp = fresh(1, engine, || reference_dbscan_pp(&pp, &data, engine));
            for threads in [1, 2] {
                for window in [1, 2, 3, 17, n] {
                    let case = format!("{name} {metric:?} threads {threads} window {window}");
                    let got = fresh(threads, engine, || {
                        Dbscan::new(dbscan.clone()).cluster_windowed(&data, engine, window)
                    });
                    assert_same(&format!("DBSCAN {case}"), window, &got, &want);
                    let got = fresh(threads, engine, || {
                        pp.cluster_windowed(&data, engine, window)
                    });
                    assert_same(&format!("DBSCAN++ {case}"), window, &got, &want_pp);
                }
            }
        });
    }
}
