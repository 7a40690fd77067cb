//! Speed–quality trade-off sweep (the paper's Figures 2 and 3).
//!
//! Sweeps LAF-DBSCAN's error factor α and DBSCAN++ / LAF-DBSCAN++'s sample
//! fraction and prints `(time, AMI)` points: exactly the curves the paper
//! plots. Larger α skips more range queries (faster) at the cost of more
//! false negatives (lower AMI).
//!
//! ```bash
//! cargo run --release --example tradeoff_sweep
//! ```

use laf::prelude::*;
use std::time::Instant;

fn main() {
    let (data, _) = EmbeddingMixtureConfig {
        n_points: 1_200,
        dim: 48,
        clusters: 15,
        spread: 0.08,
        noise_fraction: 0.3,
        seed: 17,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config");

    let eps = 0.35;
    let tau = 3;

    let truth = Dbscan::with_params(eps, tau).cluster(&data);
    println!(
        "ground truth: {} clusters, noise ratio {:.2}",
        truth.n_clusters(),
        truth.stats().noise_ratio()
    );

    let training = TrainingSetBuilder {
        max_queries: Some(400),
        ..Default::default()
    }
    .build(&data, &data)
    .expect("training set");
    let estimator = RmiEstimator::train(&training, &RmiConfig::one_stage(NetConfig::small()));

    // LAF-DBSCAN: sweep the error factor α (the paper varies 1.1–15).
    println!("\nLAF-DBSCAN trade-off (varying alpha):");
    println!(
        "{:>7} {:>10} {:>8} {:>8} {:>14}",
        "alpha", "time (s)", "ARI", "AMI", "skipped"
    );
    for alpha in [0.5f32, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0] {
        let laf = LafDbscan::new(LafConfig::new(eps, tau, alpha), &estimator);
        let started = Instant::now();
        let (result, stats) = laf.cluster_with_stats(&data);
        let secs = started.elapsed().as_secs_f64();
        println!(
            "{:>7.1} {:>10.3} {:>8.4} {:>8.4} {:>13.1}%",
            alpha,
            secs,
            adjusted_rand_index(truth.labels(), result.labels()),
            adjusted_mutual_information(truth.labels(), result.labels()),
            100.0 * stats.skip_ratio()
        );
    }

    // DBSCAN++ vs LAF-DBSCAN++: sweep the sample fraction offset δ.
    println!("\nDBSCAN++ vs LAF-DBSCAN++ trade-off (varying delta / sample fraction):");
    println!(
        "{:>7} {:>16} {:>8} {:>18} {:>8}",
        "delta", "DBSCAN++ time(s)", "AMI", "LAF-DBSCAN++ time(s)", "AMI"
    );
    for delta in [0.1f64, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let started = Instant::now();
        let pp = DbscanPlusPlus::with_params(eps, tau, delta.min(1.0)).cluster(&data);
        let pp_time = started.elapsed().as_secs_f64();
        let pp_ami = adjusted_mutual_information(truth.labels(), pp.labels());

        let laf_pp = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig::new(eps, tau, delta.min(0.3)),
            &estimator,
        );
        let started = Instant::now();
        let lpp = laf_pp.cluster(&data);
        let lpp_time = started.elapsed().as_secs_f64();
        let lpp_ami = adjusted_mutual_information(truth.labels(), lpp.labels());

        println!(
            "{:>7.1} {:>16.3} {:>8.4} {:>18.3} {:>8.4}",
            delta, pp_time, pp_ami, lpp_time, lpp_ami
        );
    }

    println!(
        "\n(the paper's conclusion — the LAF variants dominate the high-quality region of the \
         trade-off — shows up as LAF rows reaching comparable AMI in less time.)"
    );
}
