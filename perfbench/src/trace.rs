//! Spans around the calls LAF-DBSCAN makes into the `index` and `cardest`
//! layers, recorded from outside the program.
//!
//! [`TimedEngine`] and [`TimedEstimator`] implement the public
//! `RangeQueryEngine` and `CardinalityEstimator` traits by forwarding to the
//! pipeline's own engine and estimator, timing each call. The traced run
//! hands them to `LafDbscan::cluster_with_stats_using`, so it executes the
//! same clustering as the untraced run and must return the same labels.

use laf::cardest::CardinalityEstimator;
use laf::core::{LafConfig, LafDbscan};
use laf::index::{Neighbor, RangeQueryEngine};
use laf::vector::{Dataset, Metric};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A range-query engine that times every `range` call of its inner engine.
pub struct TimedEngine<'a> {
    inner: &'a dyn RangeQueryEngine,
    tau: usize,
    /// Executed queries kept for the batch replay, at most this many.
    keep: usize,
    calls_ns: Mutex<Vec<u64>>,
    kept: Mutex<Vec<Vec<f32>>>,
    wasted: AtomicU64,
}

impl<'a> TimedEngine<'a> {
    pub fn new(inner: &'a dyn RangeQueryEngine, tau: usize, keep: usize) -> Self {
        Self {
            inner,
            tau,
            keep,
            calls_ns: Mutex::new(Vec::new()),
            kept: Mutex::new(Vec::new()),
            wasted: AtomicU64::new(0),
        }
    }
}

impl RangeQueryEngine for TimedEngine<'_> {
    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn metric(&self) -> Metric {
        self.inner.metric()
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let start = Instant::now();
        let hits = self.inner.range(q, eps);
        let ns = start.elapsed().as_nanos() as u64;
        self.calls_ns.lock().expect("span log poisoned").push(ns);
        // An executed query that finds fewer than τ neighbours was a gate
        // false positive: the query ran but the point is not core.
        if hits.len() < self.tau {
            self.wasted.fetch_add(1, Ordering::Relaxed);
        }
        let mut kept = self.kept.lock().expect("query log poisoned");
        if kept.len() < self.keep {
            kept.push(q.to_vec());
        }
        hits
    }

    fn range_count(&self, q: &[f32], eps: f32) -> usize {
        self.inner.range_count(q, eps)
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        self.inner.knn(q, k)
    }

    fn distance_evaluations(&self) -> u64 {
        self.inner.distance_evaluations()
    }

    fn reset_distance_evaluations(&self) {
        self.inner.reset_distance_evaluations()
    }
}

/// An estimator that records the span covering all of its `estimate_batch`
/// calls. The gate's prescan runs those calls in parallel chunks, so the
/// span from the first start to the last end is the prescan's wall time,
/// not the sum over threads.
pub struct TimedEstimator<'a, E> {
    inner: &'a E,
    origin: Instant,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    calls: AtomicU64,
}

impl<'a, E: CardinalityEstimator> TimedEstimator<'a, E> {
    pub fn new(inner: &'a E) -> Self {
        Self {
            inner,
            origin: Instant::now(),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn span_s(&self) -> f64 {
        let first = self.first_ns.load(Ordering::Relaxed);
        let last = self.last_ns.load(Ordering::Relaxed);
        last.saturating_sub(first) as f64 / 1e9
    }
}

impl<E: CardinalityEstimator> CardinalityEstimator for TimedEstimator<'_, E> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        self.inner.estimate(query, eps)
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.estimate_batch(queries, eps);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.first_ns.fetch_min(start, Ordering::Relaxed);
        self.last_ns.fetch_max(end, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predictions(&self) -> Option<u64> {
        self.inner.predictions()
    }
}

/// One traced clustering run, split by layer.
#[derive(Debug, Clone)]
pub struct TracedCluster {
    pub labels: Vec<i64>,
    pub wall_s: f64,
    pub range_s: f64,
    pub range_calls: u64,
    pub range_p50_us: f64,
    pub distance_evals: u64,
    pub estimate_batch_s: f64,
    pub estimate_batch_calls: u64,
    /// Wall time minus the `index` and `cardest` spans: expansion, the
    /// partial-neighbour map and post-processing.
    pub self_s: f64,
    pub executed: u64,
    pub skipped: u64,
    pub wasted: u64,
    pub false_negatives: u64,
    pub merged_clusters: u64,
    /// The first executed queries, for the batch replay.
    pub queries: Vec<Vec<f32>>,
}

/// Run LAF-DBSCAN over `data` with `engine` and `estimator` wrapped in the
/// timing shims.
pub fn traced_cluster<E: CardinalityEstimator>(
    config: &LafConfig,
    estimator: &E,
    data: &Dataset,
    engine: &dyn RangeQueryEngine,
    keep_queries: usize,
) -> TracedCluster {
    let timed_engine = TimedEngine::new(engine, config.min_pts, keep_queries);
    let laf = LafDbscan::new(config.clone(), TimedEstimator::new(estimator));
    let evals_before = engine.distance_evaluations();
    let start = Instant::now();
    let (clustering, stats) = laf.cluster_with_stats_using(data, &timed_engine);
    let wall_s = start.elapsed().as_secs_f64();
    let distance_evals = engine.distance_evaluations() - evals_before;

    let calls_ns = timed_engine
        .calls_ns
        .into_inner()
        .expect("span log poisoned");
    let range_s = calls_ns.iter().sum::<u64>() as f64 / 1e9;
    let range_p50_us = if calls_ns.is_empty() {
        0.0
    } else {
        let us: Vec<f64> = calls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        crate::common::median(&us)
    };
    let estimate_batch_s = laf.estimator().span_s();
    TracedCluster {
        labels: clustering.labels().to_vec(),
        wall_s,
        range_s,
        range_calls: calls_ns.len() as u64,
        range_p50_us,
        distance_evals,
        estimate_batch_s,
        estimate_batch_calls: laf.estimator().calls.load(Ordering::Relaxed),
        self_s: wall_s - range_s - estimate_batch_s,
        executed: stats.executed_range_queries,
        skipped: stats.skipped_range_queries,
        wasted: timed_engine.wasted.load(Ordering::Relaxed),
        false_negatives: stats.detected_false_negatives,
        merged_clusters: stats.merged_clusters,
        queries: timed_engine.kept.into_inner().expect("query log poisoned"),
    }
}
