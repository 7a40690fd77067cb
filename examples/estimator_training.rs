//! Cardinality-estimator comparison: exact oracle, the paper's [1, 2, 4]
//! RMI, a one-stage RMI (a single MLP), sampling and histogram baselines.
//!
//! The paper's framework is agnostic to the estimator; this example shows how
//! the different estimators in `laf-cardest` trade accuracy (mean q-error
//! against the exact counts) for prediction cost, which is what ultimately
//! drives LAF's speed-quality trade-off.
//!
//! ```bash
//! cargo run --release --example estimator_training
//! ```

use laf::prelude::*;
use std::time::Instant;

/// Mean q-error (max(pred, true)/min(pred, true), with 0 mapped to 1) over a
/// set of held-out queries.
fn mean_q_error(
    estimator: &dyn CardinalityEstimator,
    oracle: &ExactEstimator<'_>,
    queries: &Dataset,
    eps: f32,
) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for q in queries.rows() {
        let predicted = estimator.estimate(q, eps).max(0.0) as f64 + 1.0;
        let truth = oracle.estimate(q, eps) as f64 + 1.0;
        total += (predicted.max(truth)) / (predicted.min(truth));
        count += 1;
    }
    total / count.max(1) as f64
}

fn main() {
    let (data, _) = EmbeddingMixtureConfig {
        n_points: 1_500,
        dim: 48,
        clusters: 12,
        spread: 0.08,
        noise_fraction: 0.3,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config");

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    use rand::SeedableRng;
    let (train, test) = data.train_test_split(0.8, &mut rng);
    println!(
        "train {} points / test {} points, dim {}",
        train.len(),
        test.len(),
        train.dim()
    );

    // Training pairs over the paper's threshold grid (cosine 0.1–0.9).
    let t0 = Instant::now();
    let training = TrainingSetBuilder {
        max_queries: Some(600),
        ..Default::default()
    }
    .build(&train, &train)
    .expect("training set");
    println!(
        "training set: {} samples over {} thresholds ({:.2?})",
        training.len(),
        training.thresholds.len(),
        t0.elapsed()
    );

    // Train the learned estimators: a one-stage RMI (one MLP) and the
    // paper's three stages.
    let t0 = Instant::now();
    let mlp = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::small()));
    let mlp_time = t0.elapsed();
    let t0 = Instant::now();
    let rmi = RmiEstimator::train(&training, &RmiConfig::paper_stages(NetConfig::small()));
    let rmi_time = t0.elapsed();

    // Non-learned baselines.
    let sampling = SamplingEstimator::new(&train, Metric::Cosine, train.len() / 10, 3);
    let histogram = HistogramEstimator::from_training(&training);

    // Evaluate q-error on held-out queries against the exact counts over the
    // training data (the reference the estimators were fitted to).
    let oracle = ExactEstimator::new(&train, Metric::Cosine);
    let (eval_queries, _) = test.sample(200, &mut rng);

    println!("\nmean q-error by threshold (lower is better, 1.0 is perfect):");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "eps", "MLP", "RMI", "sampling", "histogram"
    );
    for eps in [0.2f32, 0.4, 0.6, 0.8] {
        println!(
            "{:>6.1} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            eps,
            mean_q_error(&mlp, &oracle, &eval_queries, eps),
            mean_q_error(&rmi, &oracle, &eval_queries, eps),
            mean_q_error(&sampling, &oracle, &eval_queries, eps),
            mean_q_error(&histogram, &oracle, &eval_queries, eps),
        );
    }

    println!(
        "\ntraining time: MLP {:.2?}, RMI {:.2?}",
        mlp_time, rmi_time
    );
    println!(
        "model sizes  : MLP {} member model, RMI {} member models",
        mlp.model_count(),
        rmi.model_count()
    );
    println!(
        "\n(the learned estimators are query-sensitive — unlike the histogram — and far cheaper \
         at prediction time than sampling, which is why the paper gates DBSCAN's range queries \
         with them.)"
    );
}
