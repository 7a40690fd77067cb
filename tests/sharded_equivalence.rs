//! Property test for the sharded scatter-gather contract: a
//! `ShardedEngine` fanning queries out over N dataset slices must be
//! **bit-identical** to the single engine over the whole dataset — same
//! range hits in the same order, same counts, same knn neighbors and
//! ordering, and same LAF-DBSCAN labels and stats — for every persistable
//! engine kind (in its exhaustive configuration, where the approximate
//! engines are exact), every metric, and both owned and memory-mapped
//! backings. This is the contract that lets format-v4 sharded snapshots
//! claim equivalence with their unsharded twins.

use laf::prelude::*;
use laf::vector::{io, mapped, ops};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic flat buffer of `rows` unit-normalized `dim`-vectors.
fn unit_rows(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat: Vec<f32> = (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for row in flat.chunks_mut(dim) {
        if ops::normalize_in_place(row) <= 1e-12 {
            row[0] = 1.0;
            for x in &mut row[1..] {
                *x = 0.0;
            }
        }
    }
    flat
}

/// Write `owned`'s binary encoding to a unique temp file and map it back.
fn mapped_twin(owned: &Dataset) -> (Dataset, std::path::PathBuf) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "laf_sharded_equivalence_{}_{}.lafv",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    io::save_binary(owned, &path).expect("write dataset");
    let map = mapped::map_file(&path).expect("map dataset file");
    let twin = mapped::dataset_from_map(&map, 0, map.len()).expect("decode mapped dataset");
    (twin, path)
}

/// Every persistable engine in its **exhaustive** configuration: k-means
/// tree visiting every leaf and IVF probing every list are exact, so all
/// three must match the linear scan bit for bit — sharded or not.
fn exhaustive_choices() -> [EngineChoice; 3] {
    [
        EngineChoice::Linear,
        EngineChoice::KMeansTree {
            branching: 3,
            leaf_ratio: 1.0,
        },
        EngineChoice::Ivf {
            nlist: 4,
            nprobe: 4,
        },
    ]
}

/// Build a [`ShardedEngine`] over `n` even slices of `data` and hand it to
/// `f`. (The per-shard engines borrow the slice datasets, so both live in
/// this scope.)
fn with_sharded<R>(
    data: &Dataset,
    n: usize,
    choice: EngineChoice,
    metric: Metric,
    f: impl FnOnce(&dyn RangeQueryEngine) -> R,
) -> R {
    let map = ShardMap::even_split(data.len(), n);
    let slices: Vec<Dataset> = (0..map.n_shards())
        .map(|s| data.slice_rows(map.start(s), map.shard_len(s)).unwrap())
        .collect();
    let engines: Vec<Box<dyn RangeQueryEngine + '_>> = slices
        .iter()
        .map(|slice| build_engine(choice, slice, metric))
        .collect();
    let sharded = ShardedEngine::new(engines, map).expect("uniform shard engines");
    f(&sharded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_queries_match_the_unsharded_engine_bit_for_bit(
        rows in 24usize..72,
        dim in 2usize..7,
        seed in 0u64..1_000_000,
        eps in 0.25f32..0.55,
    ) {
        let owned = Dataset::from_flat(dim, unit_rows(rows, dim, seed)).unwrap();
        let (mapped_ds, path) = mapped_twin(&owned);
        let queries: Vec<&[f32]> =
            (0..rows.min(6)).map(|i| owned.row(i * (rows / rows.min(6)))).collect();

        for metric in [Metric::Cosine, Metric::Euclidean] {
            for choice in exhaustive_choices() {
                let full = build_engine(choice, &owned, metric);
                let want_range: Vec<Vec<u32>> =
                    queries.iter().map(|q| full.range(q, eps)).collect();
                let want_count: Vec<usize> =
                    queries.iter().map(|q| full.range_count(q, eps)).collect();
                let want_knn: Vec<Vec<Neighbor>> =
                    queries.iter().map(|q| full.knn(q, 5)).collect();

                for backing in [&owned, &mapped_ds] {
                    for n in [1usize, 2, 3, 7] {
                        with_sharded(backing, n, choice, metric, |sharded| {
                            prop_assert_eq!(sharded.num_points(), rows);
                            for (i, q) in queries.iter().enumerate() {
                                prop_assert_eq!(
                                    &sharded.range(q, eps), &want_range[i],
                                    "{:?}/{:?} n={} mapped={}: range diverged",
                                    choice, metric, n, backing.is_mapped()
                                );
                                prop_assert_eq!(
                                    sharded.range_count(q, eps), want_count[i],
                                    "{:?}/{:?} n={}: range_count diverged",
                                    choice, metric, n
                                );
                                prop_assert_eq!(
                                    &sharded.knn(q, 5), &want_knn[i],
                                    "{:?}/{:?} n={}: knn diverged",
                                    choice, metric, n
                                );
                            }
                            Ok(())
                        })?;
                    }
                }
            }
        }

        drop(mapped_ds);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sharded_clustering_labels_and_stats_are_bit_identical(
        rows in 30usize..70,
        dim in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let owned = Dataset::from_flat(dim, unit_rows(rows, dim, seed)).unwrap();
        let (mapped_ds, path) = mapped_twin(&owned);

        for metric in [Metric::Cosine, Metric::Euclidean] {
            for choice in exhaustive_choices() {
                let config = LafConfig {
                    engine: choice,
                    metric,
                    ..LafConfig::new(0.4, 3, 1.0)
                };
                let laf = LafDbscan::new(
                    config.clone(),
                    ExactEstimator::new(&owned, metric),
                );
                let full = build_engine(choice, &owned, metric);
                let (want_clustering, want_stats) =
                    laf.cluster_with_stats_using(&owned, full.as_ref());

                for backing in [&owned, &mapped_ds] {
                    for n in [1usize, 2, 3, 7] {
                        let (clustering, stats) = with_sharded(
                            backing, n, choice, metric,
                            |sharded| laf.cluster_with_stats_using(backing, sharded),
                        );
                        prop_assert_eq!(
                            clustering.labels(), want_clustering.labels(),
                            "{:?}/{:?} n={} mapped={}: labels diverged",
                            choice, metric, n, backing.is_mapped()
                        );
                        prop_assert_eq!(
                            &stats, &want_stats,
                            "{:?}/{:?} n={}: stats diverged", choice, metric, n
                        );
                    }
                }
            }
        }

        drop(mapped_ds);
        std::fs::remove_file(path).ok();
    }
}
