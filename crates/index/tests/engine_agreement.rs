//! Property tests: every exact engine agrees with the brute-force
//! [`ReferenceScan`], and approximate engines never report false positives.

use laf_index::{CoverTree, KMeansTree, LinearScan, RangeQueryEngine, ReferenceScan};
use laf_vector::{ops, Dataset, Metric};
use proptest::prelude::*;

fn unit_rows(dim: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        prop::collection::vec(-1.0f32..1.0, dim).prop_filter("non-zero", |v| ops::norm(v) > 1e-3),
        4..max_rows,
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cover_tree_agrees_with_linear_scan(
        rows in unit_rows(8, 60),
        eps in 0.05f32..1.5,
        q_pick in 0usize..60
    ) {
        let data = Dataset::from_rows(rows).unwrap();
        let q = q_pick % data.len();
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        let tree = CoverTree::new(&data, Metric::Cosine, 2.0);
        let expected = oracle.range(data.row(q), eps);
        prop_assert_eq!(tree.range(data.row(q), eps), expected);
        prop_assert_eq!(
            tree.range_count(data.row(q), eps),
            oracle.range_count(data.row(q), eps)
        );
    }

    #[test]
    fn kmeans_tree_full_budget_agrees_and_partial_budget_is_sound(
        rows in unit_rows(8, 60),
        eps in 0.05f32..1.0,
        q_pick in 0usize..60
    ) {
        let data = Dataset::from_rows(rows).unwrap();
        let q = q_pick % data.len();
        let oracle = ReferenceScan::new(&data, Metric::Cosine);
        let expected = oracle.range(data.row(q), eps);

        let full = KMeansTree::new(&data, Metric::Cosine, 4, 1.0, 5);
        prop_assert_eq!(full.range(data.row(q), eps), expected.clone());

        let partial = KMeansTree::new(&data, Metric::Cosine, 4, 0.3, 5);
        let got = partial.range(data.row(q), eps);
        for g in &got {
            prop_assert!(expected.contains(g), "false positive {}", g);
        }
    }

    #[test]
    fn knn_first_neighbor_is_self_for_all_engines(
        rows in unit_rows(8, 40),
        q_pick in 0usize..40
    ) {
        let data = Dataset::from_rows(rows).unwrap();
        let q = q_pick % data.len();
        let engines: Vec<Box<dyn RangeQueryEngine>> = vec![
            Box::new(LinearScan::new(&data, Metric::Cosine)),
            Box::new(CoverTree::new(&data, Metric::Cosine, 2.0)),
            Box::new(KMeansTree::new(&data, Metric::Cosine, 3, 1.0, 9)),
        ];
        for engine in &engines {
            let knn = engine.knn(data.row(q), 1);
            prop_assert_eq!(knn.len(), 1);
            prop_assert!(knn[0].dist < 1e-3, "self distance {}", knn[0].dist);
        }
    }
}
