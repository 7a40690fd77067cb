//! LAF-DBSCAN (Algorithm 1 of the paper).
//!
//! The control flow below follows Algorithm 1 line by line: the black-text
//! lines are the original DBSCAN, the lines marked `LAF:` in comments are the
//! framework's insertions (cardinality-estimation gate, partial-neighbor
//! tracking and post-processing).

use crate::config::{LafConfig, LafStats};
use crate::gate::{CardEstGate, GateDecision};
use crate::partial::PartialNeighborMap;
use crate::post::PostProcessor;
use laf_cardest::CardinalityEstimator;
use laf_clustering::{join_window, Clusterer, Clustering, JoinTally, RangeJoin, NOISE, UNDEFINED};
use laf_index::{build_engine, RangeQueryEngine};
use laf_vector::Dataset;
use std::time::Instant;

/// DBSCAN accelerated by the LAF plugin.
///
/// Generic over the cardinality estimator so the same algorithm can run with
/// the paper's RMI, the pipeline's one-stage RMI, the traditional baselines, or the exact
/// oracle used in tests (`LAF-DBSCAN` with the oracle and α = 1 reproduces
/// plain DBSCAN exactly).
pub struct LafDbscan<E: CardinalityEstimator> {
    /// Shared LAF parameters (ε, τ, α, metric, engine).
    pub config: LafConfig,
    estimator: E,
}

impl<E: CardinalityEstimator> LafDbscan<E> {
    /// Build LAF-DBSCAN from a configuration and a trained estimator.
    pub fn new(config: LafConfig, estimator: E) -> Self {
        Self { config, estimator }
    }

    /// Borrow the estimator (e.g. to inspect prediction counters).
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// Run the clustering and also return the LAF bookkeeping counters.
    ///
    /// Execution model: one pool of [`LafConfig::threads`] workers serves the
    /// whole run, in two steps.
    ///
    /// 1. **Prescan.** The gate decisions for **all** points are computed up
    ///    front by a parallel, batched prescan ([`CardEstGate::prescan`] —
    ///    one `estimate_batch` call per chunk of points).
    /// 2. **Join, then label.** The BFS expansion of Algorithm 1 runs on the
    ///    calling thread and consumes the decisions through
    ///    [`CardEstGate::decide`]. Each point leaves `UNDEFINED` once, so the
    ///    executed range queries are exactly the prescan's `Execute` points;
    ///    a [`RangeJoin`] computes their ε-neighbourhoods in windows. When
    ///    the loop reaches an executed point whose list is not computed yet,
    ///    the join computes it together with the next undefined `Execute`
    ///    points the loop will reach — its seed list's while a cluster
    ///    expands, the outer loop's otherwise — in one `range_batch` call on
    ///    the pool, and hands each list out at the moment the loop would
    ///    have issued the query.
    ///
    /// Batched estimation and batched range queries are bit-exact with their
    /// per-point forms, and every counter and `UpdatePartialNeighbors` call
    /// fires at consumption time, so labels *and* statistics are
    /// byte-identical to point-at-a-time execution.
    pub fn cluster_with_stats(&self, data: &Dataset) -> (Clustering, LafStats) {
        let cfg = &self.config;
        let engine = build_engine(cfg.engine, data, cfg.metric);
        self.cluster_with_stats_using(data, engine.as_ref())
    }

    /// [`LafDbscan::cluster_with_stats`] with a caller-supplied range-query
    /// engine over `data` — the entry point for serving layers that restore a
    /// persisted engine structure from a snapshot instead of rebuilding one
    /// per run (see [`crate::LafPipeline::engine`]).
    ///
    /// The engine's distance-evaluation counter is read at the end of the run
    /// and attached to the returned [`Clustering`]; pass a freshly built or
    /// freshly restored engine (or reset the counter) if per-run numbers
    /// matter.
    pub fn cluster_with_stats_using(
        &self,
        data: &Dataset,
        engine: &dyn RangeQueryEngine,
    ) -> (Clustering, LafStats) {
        let (clustering, stats, _) = self.cluster_windowed(data, engine, None);
        (clustering, stats)
    }

    /// [`LafDbscan::cluster_with_stats_using`] with the join's window forced
    /// to `window` rows (`None`: [`join_window`]), plus what the join did.
    pub(crate) fn cluster_windowed(
        &self,
        data: &Dataset,
        engine: &dyn RangeQueryEngine,
        window: Option<usize>,
    ) -> (Clustering, LafStats, JoinTally) {
        let start = Instant::now();
        let n = data.len();
        if n == 0 {
            return (
                Clustering::new(Vec::new()),
                LafStats::default(),
                JoinTally::default(),
            );
        }
        let cfg = &self.config;
        cfg.run_in_pool(|| {
            let gate = CardEstGate::new(&self.estimator, cfg);
            let tau = cfg.min_pts;

            // LAF: batch-predict every point's cardinality before the main loop.
            let prescan = gate.prescan(data);
            let executes = |r: usize| prescan.decision(r) == GateDecision::Execute;
            let window = window.unwrap_or_else(|| join_window(n));
            let mut join = RangeJoin::new(engine, data, cfg.eps, window);

            // Algorithm 1, lines 1–3.
            let mut labels = vec![UNDEFINED; n];
            let mut partial = PartialNeighborMap::new(); // LAF: the map E.
            let mut next_cluster: i64 = -1;
            let mut executed_queries = 0u64;

            // Line 4: for each point P in D.
            for p in 0..n {
                // Line 5.
                if labels[p] != UNDEFINED {
                    continue;
                }
                // LAF, lines 6–9: skip the range query for predicted stop points.
                if gate.decide(&prescan, p) {
                    labels[p] = NOISE;
                    partial.register_stop_point(p as u32);
                    continue;
                }
                // Line 10: the range query.
                let next = (p + 1..n).filter(|&r| labels[r] == UNDEFINED && executes(r));
                let neighbors = join.take(p, next);
                executed_queries += 1;
                // LAF, line 11: UpdatePartialNeighbors.
                partial.update(p as u32, &neighbors);
                // Lines 12–14: double check with the true neighbor count.
                if neighbors.len() < tau {
                    labels[p] = NOISE;
                    continue;
                }
                // Lines 15–17.
                next_cluster += 1;
                labels[p] = next_cluster;
                let mut seeds: Vec<u32> =
                    neighbors.into_iter().filter(|&q| q as usize != p).collect();
                // Lines 18–27: expand the cluster through the seed list.
                let mut cursor = 0usize;
                while cursor < seeds.len() {
                    let q = seeds[cursor] as usize;
                    cursor += 1;
                    // Line 19: noise points become border points.
                    if labels[q] == NOISE {
                        labels[q] = next_cluster;
                    }
                    // Line 20.
                    if labels[q] != UNDEFINED {
                        continue;
                    }
                    // Line 21.
                    labels[q] = next_cluster;
                    // LAF, line 22: gate the expansion query too.
                    if !gate.decide(&prescan, q) {
                        // Line 23.
                        let next = seeds[cursor..]
                            .iter()
                            .map(|&r| r as usize)
                            .filter(|&r| labels[r] == UNDEFINED && executes(r));
                        let q_neighbors = join.take(q, next);
                        executed_queries += 1;
                        // LAF, line 24.
                        partial.update(q as u32, &q_neighbors);
                        // Line 25.
                        if q_neighbors.len() >= tau {
                            seeds.extend(q_neighbors);
                        }
                    } else {
                        // LAF, lines 26–27.
                        partial.register_stop_point(q as u32);
                    }
                }
            }

            // LAF, line 28: post-processing merges clusters separated by false
            // negatives (switchable only for ablation studies).
            let report = if cfg.post_processing {
                PostProcessor::new(tau).process(&mut labels, &partial)
            } else {
                Default::default()
            };

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
            clustering.elapsed = start.elapsed();
            clustering.range_queries = executed_queries;
            clustering.skipped_range_queries = stats.skipped_range_queries;
            clustering.distance_evaluations = engine.distance_evaluations();
            (clustering, stats, join.tally())
        })
    }
}

impl<E: CardinalityEstimator> Clusterer for LafDbscan<E> {
    fn cluster(&self, data: &Dataset) -> Clustering {
        self.cluster_with_stats(data).0
    }

    fn name(&self) -> &'static str {
        "LAF-DBSCAN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{
        ConstantEstimator, ExactEstimator, NetConfig, RmiConfig, RmiEstimator, TrainingSetBuilder,
    };
    use laf_clustering::Dbscan;
    use laf_metrics::{adjusted_mutual_information, adjusted_rand_index};
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::Metric;

    fn data() -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim: 12,
            clusters: 5,
            spread: 0.05,
            noise_fraction: 0.2,
            seed: 111,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    #[test]
    fn oracle_estimator_with_alpha_one_reproduces_dbscan_exactly() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(0.25, 4, 1.0),
            ExactEstimator::new(&data, Metric::Cosine),
        );
        let (result, stats) = laf.cluster_with_stats(&data);
        assert_eq!(result.labels(), truth.labels());
        // The oracle never produces false negatives, so post-processing has
        // nothing to do.
        assert_eq!(stats.detected_false_negatives, 0);
        assert_eq!(stats.merged_clusters, 0);
        // With an exact oracle the skipped queries are exactly the queries
        // DBSCAN would have executed for stop points.
        assert!(stats.skipped_range_queries > 0);
        assert!(stats.executed_range_queries < truth.range_queries);
    }

    #[test]
    fn always_zero_estimator_marks_everything_noise() {
        let data = data();
        let laf = LafDbscan::new(LafConfig::new(0.25, 4, 1.0), ConstantEstimator::new(0.0));
        let (result, stats) = laf.cluster_with_stats(&data);
        assert_eq!(result.n_noise(), data.len());
        assert_eq!(stats.executed_range_queries, 0);
        assert_eq!(stats.skipped_range_queries, data.len() as u64);
        // Nobody executed a range query, so no partial neighbors were ever
        // recorded and post-processing cannot repair anything.
        assert_eq!(stats.detected_false_negatives, 0);
    }

    #[test]
    fn always_infinite_estimator_degrades_to_plain_dbscan() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(0.25, 4, 1.0),
            ConstantEstimator::new(f32::INFINITY),
        );
        let (result, stats) = laf.cluster_with_stats(&data);
        assert_eq!(result.labels(), truth.labels());
        assert_eq!(stats.skipped_range_queries, 0);
        assert_eq!(stats.executed_range_queries, truth.range_queries);
    }

    #[test]
    fn nan_estimator_is_harmless() {
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(0.25, 4, 1.0),
            ConstantEstimator::new(f32::NAN),
        );
        let result = laf.cluster(&data);
        assert_eq!(result.labels(), truth.labels());
    }

    #[test]
    fn nan_network_is_harmless() {
        // One sample with a NaN threshold feature poisons every weight of
        // the network it trains, so the estimator predicts NaN everywhere;
        // the gate must then execute every query, exactly as DBSCAN does.
        let data = data();
        let mut ts = TrainingSetBuilder {
            max_queries: Some(40),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        *ts.samples[0].features.last_mut().unwrap() = f32::NAN;
        let estimator = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
        assert!(estimator.estimate(data.row(0), 0.25).is_nan());
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(LafConfig::new(0.25, 4, 1.0), estimator);
        let (result, stats) = laf.cluster_with_stats(&data);
        assert_eq!(result.labels(), truth.labels());
        assert_eq!(stats.skipped_range_queries, 0);
    }

    #[test]
    fn learned_estimator_keeps_quality_high_and_skips_queries() {
        let data = data();
        let ts = TrainingSetBuilder {
            max_queries: Some(150),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        let estimator = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(LafConfig::new(0.25, 4, 1.0), estimator);
        let (result, stats) = laf.cluster_with_stats(&data);
        let ari = adjusted_rand_index(truth.labels(), result.labels());
        let ami = adjusted_mutual_information(truth.labels(), result.labels());
        assert!(ari > 0.5, "ARI {ari}");
        assert!(ami > 0.5, "AMI {ami}");
        assert!(
            stats.executed_range_queries < truth.range_queries,
            "LAF must execute fewer range queries ({} vs {})",
            stats.executed_range_queries,
            truth.range_queries
        );
    }

    #[test]
    fn larger_alpha_skips_more_queries() {
        let data = data();
        let ts = TrainingSetBuilder {
            max_queries: Some(150),
            ..Default::default()
        }
        .build(&data, &data)
        .unwrap();
        let est_small = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
        let est_large = RmiEstimator::train(&ts, &RmiConfig::one_stage(NetConfig::tiny()));
        let (_, stats_small) =
            LafDbscan::new(LafConfig::new(0.25, 4, 0.5), est_small).cluster_with_stats(&data);
        let (_, stats_large) =
            LafDbscan::new(LafConfig::new(0.25, 4, 4.0), est_large).cluster_with_stats(&data);
        assert!(
            stats_large.skipped_range_queries >= stats_small.skipped_range_queries,
            "alpha=4 skipped {} vs alpha=0.5 skipped {}",
            stats_large.skipped_range_queries,
            stats_small.skipped_range_queries
        );
    }

    #[test]
    fn post_processing_repairs_quality_of_a_pessimistic_estimator() {
        // An estimator that under-predicts by a constant factor produces
        // false negatives; the partial-neighbor map must recover most of the
        // lost structure compared to switching post-processing off
        // (simulated by τ = ∞ post threshold).
        struct Pessimistic<'a>(ExactEstimator<'a>);
        impl laf_cardest::CardinalityEstimator for Pessimistic<'_> {
            fn estimate(&self, query: &[f32], eps: f32) -> f32 {
                self.0.estimate(query, eps) * 0.4
            }
            fn name(&self) -> &'static str {
                "pessimistic"
            }
        }
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let laf = LafDbscan::new(
            LafConfig::new(0.25, 4, 1.0),
            Pessimistic(ExactEstimator::new(&data, Metric::Cosine)),
        );
        let (result, stats) = laf.cluster_with_stats(&data);
        assert!(stats.skipped_range_queries > 0);
        let ari = adjusted_rand_index(truth.labels(), result.labels());
        assert!(ari > 0.4, "ARI {ari} after post-processing");
    }

    #[test]
    fn post_processing_ablation_never_hurts_quality() {
        // Same pessimistic estimator as above; switching the post-processing
        // module off must not improve quality (usually it clearly degrades).
        struct Pessimistic<'a>(ExactEstimator<'a>);
        impl laf_cardest::CardinalityEstimator for Pessimistic<'_> {
            fn estimate(&self, query: &[f32], eps: f32) -> f32 {
                self.0.estimate(query, eps) * 0.4
            }
            fn name(&self) -> &'static str {
                "pessimistic"
            }
        }
        let data = data();
        let truth = Dbscan::with_params(0.25, 4).cluster(&data);
        let with_post = LafDbscan::new(
            LafConfig::new(0.25, 4, 1.0),
            Pessimistic(ExactEstimator::new(&data, Metric::Cosine)),
        )
        .cluster(&data);
        let without_post = LafDbscan::new(
            LafConfig {
                post_processing: false,
                ..LafConfig::new(0.25, 4, 1.0)
            },
            Pessimistic(ExactEstimator::new(&data, Metric::Cosine)),
        )
        .cluster(&data);
        let ami_with = adjusted_mutual_information(truth.labels(), with_post.labels());
        let ami_without = adjusted_mutual_information(truth.labels(), without_post.labels());
        assert!(
            ami_with >= ami_without - 1e-9,
            "post-processing must not hurt: with={ami_with} without={ami_without}"
        );
    }

    #[test]
    fn empty_dataset() {
        let empty = Dataset::new(4).unwrap();
        let laf = LafDbscan::new(LafConfig::default(), ConstantEstimator::new(10.0));
        let (result, stats) = laf.cluster_with_stats(&empty);
        assert!(result.is_empty());
        assert_eq!(stats, LafStats::default());
        assert_eq!(laf.name(), "LAF-DBSCAN");
        assert_eq!(laf.estimator().name(), "constant");
    }
}
