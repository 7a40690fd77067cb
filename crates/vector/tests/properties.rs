//! Property-based tests for the vector substrate.

use laf_vector::{cosine_to_euclidean, euclidean_to_cosine, io, ops, Dataset, Metric};
use proptest::prelude::*;

/// Strategy producing a non-degenerate vector of the given dimension.
fn vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, dim).prop_filter("non-zero norm", |v| ops::norm(v) > 1e-3)
}

fn unit_vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    vector(dim).prop_map(|mut v| {
        ops::normalize_in_place(&mut v);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cosine_distance_is_bounded_and_symmetric(a in unit_vector(16), b in unit_vector(16)) {
        let d_ab = Metric::Cosine.dist(&a, &b);
        let d_ba = Metric::Cosine.dist(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-5);
        prop_assert!((-1e-5..=2.0 + 1e-5).contains(&d_ab));
    }

    #[test]
    fn cosine_self_distance_is_zero(a in unit_vector(24)) {
        prop_assert!(Metric::Cosine.dist(&a, &a).abs() < 1e-4);
    }

    #[test]
    fn angular_distance_triangle_inequality(
        a in unit_vector(8), b in unit_vector(8), c in unit_vector(8)
    ) {
        // Angular distance is a proper metric on the unit sphere.
        let ab = Metric::Angular.dist(&a, &b);
        let bc = Metric::Angular.dist(&b, &c);
        let ac = Metric::Angular.dist(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-4, "ac={ac} ab={ab} bc={bc}");
    }

    #[test]
    fn equation_1_holds_on_unit_vectors(a in unit_vector(32), b in unit_vector(32)) {
        let d_cos = Metric::Cosine.dist(&a, &b);
        let d_euc = Metric::Euclidean.dist(&a, &b);
        prop_assert!((cosine_to_euclidean(d_cos) - d_euc).abs() < 1e-3,
            "cos={d_cos} euc={d_euc}");
        prop_assert!((euclidean_to_cosine(d_euc) - d_cos).abs() < 1e-3);
    }

    #[test]
    fn equation_1_round_trips_on_the_valid_domain(d_cos in 0.0f32..2.0) {
        // Cosine distances live in [0, 2]; the conversion into Euclidean
        // space and back must be the identity within float tolerance.
        let d_euc = cosine_to_euclidean(d_cos);
        prop_assert!((0.0..=2.0).contains(&d_euc), "euclidean {d_euc} out of range");
        let back = euclidean_to_cosine(d_euc);
        prop_assert!((back - d_cos).abs() < 1e-5, "d_cos={d_cos} back={back}");
    }

    #[test]
    fn equation_1_clamps_out_of_domain_inputs(x in -10.0f32..10.0) {
        // Inputs outside [0, 2] (impossible for unit vectors, but reachable
        // through misuse or float drift) are clamped into the valid domain
        // instead of producing negative or >2 "distances".
        let e = cosine_to_euclidean(x);
        prop_assert!((0.0..=2.0).contains(&e), "cosine_to_euclidean({x}) = {e}");
        let c = euclidean_to_cosine(x);
        prop_assert!((0.0..=2.0).contains(&c), "euclidean_to_cosine({x}) = {c}");
        // Clamping is saturation: in-domain inputs are untouched.
        if (0.0..=2.0).contains(&x) {
            prop_assert_eq!(c, x * x / 2.0);
        }
    }

    #[test]
    fn euclidean_triangle_inequality(a in vector(12), b in vector(12), c in vector(12)) {
        let ab = Metric::Euclidean.dist(&a, &b);
        let bc = Metric::Euclidean.dist(&b, &c);
        let ac = Metric::Euclidean.dist(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-3);
    }

    #[test]
    fn dataset_normalization_is_idempotent(
        rows in prop::collection::vec(vector(6), 1..20)
    ) {
        let mut d = Dataset::from_rows(rows).unwrap();
        d.normalize();
        let once = d.clone();
        d.normalize();
        for (a, b) in once.rows().zip(d.rows()) {
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }
        prop_assert!(d.is_normalized(1e-3));
    }

    #[test]
    fn binary_encoding_round_trips(
        rows in prop::collection::vec(prop::collection::vec(-100.0f32..100.0, 5), 1..30)
    ) {
        let d = Dataset::from_rows(rows).unwrap();
        let bytes = io::encode(&d);
        let back = io::decode(&bytes).unwrap();
        prop_assert_eq!(d, back);
    }

    #[test]
    fn sample_indices_are_unique_and_valid(
        rows in prop::collection::vec(vector(4), 2..40),
        count in 1usize..40,
        seed in any::<u64>()
    ) {
        use rand::SeedableRng;
        let d = Dataset::from_rows(rows).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (sample, idx) = d.sample(count, &mut rng);
        prop_assert_eq!(sample.len(), idx.len());
        prop_assert!(sample.len() <= d.len());
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len(), "duplicate sample indices");
        prop_assert!(idx.iter().all(|&i| i < d.len()));
    }

    #[test]
    fn train_test_split_is_a_partition(
        rows in prop::collection::vec(vector(3), 2..50),
        frac in 0.1f64..0.9,
        seed in any::<u64>()
    ) {
        use rand::SeedableRng;
        let d = Dataset::from_rows(rows).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (train, test) = d.train_test_split(frac, &mut rng);
        prop_assert_eq!(train.len() + test.len(), d.len());
    }
}
