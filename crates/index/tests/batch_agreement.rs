//! Cross-engine batch/sequential agreement and concurrency properties.
//!
//! * For **every** [`EngineChoice`], the batched entry points
//!   (`range_batch`, `range_count_batch`, `knn_batch`) must return exactly
//!   what the per-query calls return — the batched kernels are pure
//!   reorganizations of the same arithmetic. Every choice below is exact, so
//!   its range answers must also equal the brute-force [`ReferenceScan`]'s.
//! * Engines are queried concurrently through `&self`; the atomic
//!   distance-evaluation counters must account for every evaluation exactly
//!   once regardless of the thread count.

use laf_index::{build_engine, EngineChoice, LinearScan, RangeQueryEngine, ReferenceScan};
use laf_vector::{ops, Dataset, Metric};
use proptest::prelude::*;

/// All engine variants, with parameters small enough for property-sized data.
fn all_choices() -> [EngineChoice; 4] {
    [
        EngineChoice::Linear,
        EngineChoice::CoverTree { basis: 2.0 },
        EngineChoice::KMeansTree {
            branching: 4,
            leaf_ratio: 1.0,
        },
        EngineChoice::Ivf {
            nlist: 4,
            nprobe: 4,
        },
    ]
}

fn unit_rows(dim: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        prop::collection::vec(-1.0f32..1.0, dim).prop_filter("non-zero", |v| ops::norm(v) > 1e-3),
        8..max_rows,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|mut r| {
                ops::normalize_in_place(&mut r);
                r
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_queries_match_per_query_results_on_every_engine(
        rows in unit_rows(8, 48),
        eps in 0.05f32..1.2,
        k in 1usize..8
    ) {
        let data = Dataset::from_rows(rows).unwrap();
        // Mix of dataset rows and perturbed off-dataset queries, more
        // queries than one batch block so the blocked kernels split.
        let mut query_storage: Vec<Vec<f32>> = Vec::new();
        for i in 0..data.len() {
            query_storage.push(data.row(i).to_vec());
            if i % 3 == 0 {
                let mut q: Vec<f32> = data.row(i).iter().map(|x| x * 0.9 + 0.01).collect();
                ops::normalize_in_place(&mut q);
                query_storage.push(q);
            }
        }
        let queries: Vec<&[f32]> = query_storage.iter().map(Vec::as_slice).collect();
        let reference = ReferenceScan::new(&data, Metric::Cosine);
        let want_ranges = reference.range_batch(&queries, eps);
        let want_counts = reference.range_count_batch(&queries, eps);

        for choice in all_choices() {
            let engine = build_engine(choice, &data, Metric::Cosine);

            let batch_ranges = engine.range_batch(&queries, eps);
            let batch_counts = engine.range_count_batch(&queries, eps);
            let batch_knns = engine.knn_batch(&queries, k);
            prop_assert_eq!(batch_ranges.len(), queries.len());
            prop_assert_eq!(batch_counts.len(), queries.len());
            prop_assert_eq!(batch_knns.len(), queries.len());
            prop_assert_eq!(&batch_ranges, &want_ranges, "engine {:?}", choice);
            prop_assert_eq!(&batch_counts, &want_counts, "engine {:?}", choice);

            for (qi, q) in queries.iter().enumerate() {
                prop_assert_eq!(
                    &batch_ranges[qi],
                    &engine.range(q, eps),
                    "range_batch disagrees, engine {:?} query {}",
                    choice,
                    qi
                );
                prop_assert_eq!(
                    batch_counts[qi],
                    engine.range_count(q, eps),
                    "range_count_batch disagrees, engine {:?} query {}",
                    choice,
                    qi
                );
                prop_assert_eq!(
                    &batch_knns[qi],
                    &engine.knn(q, k),
                    "knn_batch disagrees, engine {:?} query {}",
                    choice,
                    qi
                );
            }
        }
    }
}

/// Deterministic unit-vector fan used by the concurrency tests.
fn fan_dataset(n: usize) -> Dataset {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let a = i as f32 * 0.013;
            vec![a.cos(), a.sin()]
        })
        .collect();
    Dataset::from_rows(rows).unwrap()
}

#[test]
fn two_threads_sharing_one_engine_count_every_evaluation() {
    let data = fan_dataset(400);
    let engine = LinearScan::new(&data, Metric::Cosine);

    // Single-threaded reference total for the whole workload.
    let workload = |engine: &LinearScan, lo: usize, hi: usize| {
        for i in lo..hi {
            std::hint::black_box(engine.range(data.row(i), 0.3));
            std::hint::black_box(engine.range_count(data.row(i), 0.2));
            std::hint::black_box(engine.knn(data.row(i), 5));
        }
    };
    workload(&engine, 0, data.len());
    let single_threaded_total = engine.distance_evaluations();
    engine.reset_distance_evaluations();

    // Same workload split across two threads hammering the shared engine.
    let n = data.len();
    std::thread::scope(|scope| {
        let engine = &engine;
        let mid = n / 2;
        let a = scope.spawn(move || workload(engine, 0, mid));
        let b = scope.spawn(move || workload(engine, mid, n));
        a.join().unwrap();
        b.join().unwrap();
    });
    assert_eq!(
        engine.distance_evaluations(),
        single_threaded_total,
        "atomic counters must not lose evaluations under concurrency"
    );
}

#[test]
fn parallel_batch_kernels_count_every_evaluation() {
    let data = fan_dataset(300);
    let queries: Vec<&[f32]> = (0..data.len()).map(|i| data.row(i)).collect();

    for choice in all_choices() {
        let engine = build_engine(choice, &data, Metric::Cosine);
        // Construction itself may evaluate distances (k-means, cover sets);
        // only query-time work is compared.
        engine.reset_distance_evaluations();

        // Sequential reference.
        for q in &queries {
            std::hint::black_box(engine.range(q, 0.3));
        }
        let sequential = engine.distance_evaluations();
        engine.reset_distance_evaluations();

        let _ = engine.range_batch(&queries, 0.3);
        assert_eq!(
            engine.distance_evaluations(),
            sequential,
            "batched kernel must perform (and count) the same work, engine {choice:?}"
        );
    }
}
