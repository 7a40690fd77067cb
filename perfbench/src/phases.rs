//! Measurements every workload takes on its own data: the clustering with
//! its oracle and traced twins, warm loads, operation passes, the
//! batch-kernel replay, the mutable probe and the serve counters.

use crate::common::{fast_high, fast_low, median, quantile, timed, Scale, EPS, TAU};
use crate::report::Report;
use crate::trace::{traced_cluster, TracedCluster};
use laf::cardest::CardinalityEstimator;
use laf::clustering::{Clusterer, Clustering, Dbscan};
use laf::core::{LafConfig, LafPipeline, MutablePipeline};
use laf::index::RangeQueryEngine;
use laf::metrics::{adjusted_mutual_information, adjusted_rand_index};
use laf::serve::{ServeStats, ServeStatsReport};
use laf::vector::Dataset;
use std::fmt::Display;
use std::path::Path;

/// Lowest ARI and AMI against exact DBSCAN a run accepts. The learned gate
/// at α = 1 may mislabel a few boundary points; anything below this is a
/// broken clustering, not a gate miss.
pub const QUALITY_FLOOR: f64 = 0.9;

/// Executed queries the traced run keeps for the batch replay.
const REPLAY_QUERIES: usize = 2048;

/// What a clustering measurement runs: `untraced` is the workload's own
/// clustering call, timed as is; the traced twins rebuild the same
/// clustering from `config`, `estimator`, `data` and `engine` with the
/// engine and estimator wrapped in timing shims.
pub struct ClusterJob<'a, E> {
    pub untraced: Box<dyn Fn() -> Clustering + 'a>,
    pub config: &'a LafConfig,
    pub estimator: &'a E,
    pub data: &'a Dataset,
    pub engine: &'a dyn RangeQueryEngine,
}

/// The clustering measurement. [`ClusterTimer::new`] runs the untimed
/// warm-up and scores its labels against exact DBSCAN (`ari`, `ami`, the
/// oracle outside any timing); each [`ClusterTimer::rep`] is one timed
/// clustering that must repeat the warm-up's labels, followed when tracing
/// by two traced twins that must repeat them too: one on the configured
/// pool and one with `threads: 1`, under which the rayon shim runs the
/// gate's prescan on the calling thread. [`ClusterTimer::finish`] reports
/// `cluster_s` and the traced split.
pub struct ClusterTimer<'a, E: CardinalityEstimator> {
    job: ClusterJob<'a, E>,
    labels: Vec<i64>,
    times: Vec<f64>,
    trace: bool,
    traced_walls: Vec<f64>,
    /// Per repetition: the pooled twin's prescan span minus the one-thread
    /// twin's.
    fanout_net_s: Vec<f64>,
    /// The one-thread twins' prescan spans.
    sequential_prescan_s: Vec<f64>,
    /// The pooled traced run with the lowest wall time.
    fastest: Option<TracedCluster>,
}

impl<'a, E: CardinalityEstimator> ClusterTimer<'a, E> {
    pub fn new(report: &mut Report, job: ClusterJob<'a, E>, trace: bool) -> Self {
        let labels = (job.untraced)().labels().to_vec();
        let truth = Dbscan::with_params(EPS, TAU).cluster(job.data);
        let ari = adjusted_rand_index(truth.labels(), &labels);
        let ami = adjusted_mutual_information(truth.labels(), &labels);
        report.set("ari", ari);
        report.set("ami", ami);
        report.check(ari >= QUALITY_FLOOR && ami >= QUALITY_FLOOR, || {
            format!("clustering quality ARI {ari} / AMI {ami} below {QUALITY_FLOOR}")
        });
        Self {
            job,
            labels,
            times: Vec::new(),
            trace,
            traced_walls: Vec::new(),
            fanout_net_s: Vec::new(),
            sequential_prescan_s: Vec::new(),
            fastest: None,
        }
    }

    pub fn rep(&mut self, report: &mut Report) {
        let (clustering, seconds) = timed(&self.job.untraced);
        report.check(clustering.labels() == self.labels.as_slice(), || {
            format!(
                "clustering repetition {} changed the labels",
                self.times.len()
            )
        });
        self.times.push(seconds);
        if !self.trace {
            return;
        }
        let job = &self.job;
        let pooled = traced_cluster(
            job.config,
            job.estimator,
            job.data,
            job.engine,
            REPLAY_QUERIES,
        );
        let one_thread = LafConfig {
            threads: 1,
            ..job.config.clone()
        };
        let sequential = traced_cluster(&one_thread, job.estimator, job.data, job.engine, 0);
        for (twin, run) in [("pooled", &pooled), ("threads=1", &sequential)] {
            report.check(run.labels == self.labels, || {
                format!("traced {twin} clustering labels differ from the untraced run")
            });
        }
        self.fanout_net_s
            .push(pooled.estimate_batch_s - sequential.estimate_batch_s);
        self.sequential_prescan_s.push(sequential.estimate_batch_s);
        self.traced_walls.push(pooled.wall_s);
        if self
            .fastest
            .as_ref()
            .is_none_or(|f| pooled.wall_s < f.wall_s)
        {
            self.fastest = Some(pooled);
        }
    }

    /// Report `cluster_s` and, when tracing, the per-layer split of the
    /// fastest pooled traced run, `trace.overhead_s` (the traced runs'
    /// figure minus the untraced ones'), and the prescan figures of the
    /// one-thread twins. Returns the fastest traced run's executed queries
    /// (empty when untraced).
    pub fn finish(self, report: &mut Report) -> Vec<Vec<f32>> {
        let data = self.job.data;
        let cluster_s = fast_low(&self.times);
        report.set("cluster_s", cluster_s);
        report.note(format!(
            "cluster_s: {} timed clusterings of {} points after 1 warm-up, spread over the rounds",
            self.times.len(),
            data.len()
        ));
        let Some(traced) = self.fastest else {
            return Vec::new();
        };
        report.set("index.range_s", traced.range_s);
        report.set("index.range_calls", traced.range_calls as f64);
        report.set("index.range_p50_us", traced.range_p50_us);
        report.set("index.distance_evals", traced.distance_evals as f64);
        let macs = traced.distance_evals as f64 * data.dim() as f64;
        report.set(
            "index.gmacs",
            if traced.range_s > 0.0 {
                macs / traced.range_s / 1e9
            } else {
                0.0
            },
        );
        report.set("cardest.estimate_batch_s", traced.estimate_batch_s);
        report.set(
            "cardest.estimate_batch_calls",
            traced.estimate_batch_calls as f64,
        );
        report.set("core.self_s", traced.self_s);
        report.set("core.executed_queries", traced.executed as f64);
        report.set("core.skipped_queries", traced.skipped as f64);
        report.set("core.wasted_queries", traced.wasted as f64);
        report.set("core.false_negatives", traced.false_negatives as f64);
        report.set("core.merged_clusters", traced.merged_clusters as f64);
        report.set("trace.overhead_s", fast_low(&self.traced_walls) - cluster_s);
        report.set("rayon.fanout_net_us", median(&self.fanout_net_s) * 1e6);
        report.set(
            "cardest.estimate_batch_us",
            fast_low(&self.sequential_prescan_s) / data.len() as f64 * 1e6,
        );
        report.note(format!(
            "traced clustering ({} pooled runs, one after each timed one; split of the fastest): \
             wall {} s = index.range_s + cardest.estimate_batch_s + core.self_s; \
             gate useful/attempted {}/{} executed queries",
            self.traced_walls.len(),
            traced.wall_s,
            traced.executed - traced.wasted,
            traced.executed
        ));
        report.note(format!(
            "prescan: {} estimate_batch calls over {} rows; rayon.fanout_net_us is the \
             median over {} repetitions of the pooled prescan span minus the threads=1 \
             twin's, cardest.estimate_batch_us the threads=1 span per row",
            traced.estimate_batch_calls,
            data.len(),
            self.fanout_net_s.len()
        ));
        traced.queries
    }
}

/// Median milliseconds of `k` warm loads, one round's `load_ms` sample.
/// A failed load is a failed operation.
pub fn load_round<T, E: Display>(
    report: &mut Report,
    k: usize,
    load: impl Fn() -> Result<T, E>,
) -> f64 {
    let ms: Vec<f64> = (0..k)
        .map(|_| {
            let (loaded, seconds) = timed(&load);
            if let Err(err) = loaded {
                report.check(false, || format!("warm load failed: {err}"));
            } else {
                report.check(true, String::new);
            }
            seconds * 1e3
        })
        .collect();
    median(&ms)
}

/// `load_ms` over the rounds' warm-load samples of `what`.
pub fn set_load_ms(report: &mut Report, loads: &[f64], scale: &Scale, what: &str) {
    if loads.is_empty() {
        return;
    }
    report.set("load_ms", fast_low(loads));
    report.note(format!(
        "load_ms: {} rounds of {} {what} calls",
        loads.len(),
        scale.loads_per_round
    ));
}

/// Per-pass samples of an operation stream: throughput and the median and
/// 99th-percentile latency of each pass.
#[derive(Debug, Default)]
pub struct Passes {
    qps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    ops: usize,
}

impl Passes {
    pub fn push(&mut self, wall_s: f64, latencies_us: &[f64]) {
        self.qps.push(latencies_us.len() as f64 / wall_s);
        self.p50.push(quantile(latencies_us, 0.5));
        self.p99.push(quantile(latencies_us, 0.99));
        self.ops = latencies_us.len();
    }

    /// Report `qps`, `p50_us` and `p99_us` over the passes.
    pub fn finish(&self, report: &mut Report, client: &str) {
        report.set("qps", fast_high(&self.qps));
        report.set("p50_us", fast_low(&self.p50));
        report.set("p99_us", fast_low(&self.p99));
        report.note(format!(
            "qps/p50_us/p99_us: {client}; {} passes of {} ops spread over the rounds \
             (each pass's percentiles over its {} latency samples)",
            self.qps.len(),
            self.ops,
            self.ops
        ));
    }
}

/// Median wall time of `passes` runs of `pass`, on the default pool
/// (`threads == 0`) or inside a `threads`-thread install.
pub fn replay_pass_s(threads: usize, passes: usize, pass: impl Fn()) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim always builds");
    pass(); // warm-up
    let times: Vec<f64> = (0..passes)
        .map(|_| pool.install(|| timed(&pass).1))
        .collect();
    median(&times)
}

/// `index.batch_us` (default pool) and `index.batch_1t_us` (one thread)
/// from `per_request_s`: the replay's seconds per request under a given
/// thread count.
pub fn set_index_replay(report: &mut Report, per_request_s: impl Fn(usize) -> f64) {
    report.set("index.batch_us", per_request_s(0) * 1e6);
    report.set("index.batch_1t_us", per_request_s(1) * 1e6);
}

/// Microseconds per query of `estimate_batch` over `queries` in groups of
/// `group`, on the default pool.
pub fn estimate_replay_us(pipeline: &LafPipeline, queries: &[&[f32]], group: usize) -> f64 {
    let pass_s = replay_pass_s(0, 5, || {
        for chunk in queries.chunks(group.max(1)) {
            std::hint::black_box(pipeline.estimate_batch(chunk, EPS));
        }
    });
    pass_s / queries.len().max(1) as f64 * 1e6
}

/// The serve counters of a run's timed passes. A workload without a server
/// passes `None`: its serve layer did no work.
pub fn set_serve_stats(report: &mut Report, stats: Option<&ServeStatsReport>) {
    let idle = ServeStats::default().report();
    let s = stats.unwrap_or(&idle);
    report.set("serve.batches", s.batches as f64);
    report.set("serve.mean_occupancy", s.mean_batch_occupancy);
    report.set(
        "serve.tile_share",
        if s.batches == 0 {
            0.0
        } else {
            s.tile_batches as f64 / s.batches as f64
        },
    );
    report.set("serve.peak_queue_depth", s.peak_queue_depth as f64);
    report.set("serve.reloads", s.reloads as f64);
    report.set("serve.compact_failures", s.compact_failures as f64);
    report.set("serve.wal_sync_retries", s.wal_sync_retries as f64);
}

/// Time public `MutablePipeline` calls on the mutable directory `dir`:
/// reopen, merged reads, insert plus sync, and compaction.
pub fn mutable_probe(
    report: &mut Report,
    scale: &Scale,
    dir: &Path,
    queries: &[&[f32]],
    rows: &[&[f32]],
) {
    let reopen_ms: Vec<f64> = (0..scale.loads_per_round * 2)
        .map(|_| load_round(report, 1, || MutablePipeline::open(dir)))
        .collect();
    report.set("core.reopen_ms", median(&reopen_ms));

    let mut pipeline = match MutablePipeline::open(dir) {
        Ok(pipeline) => pipeline,
        Err(err) => {
            report.check(false, || format!("mutable probe could not open: {err}"));
            return;
        }
    };
    let read_us: Vec<f64> = queries
        .iter()
        .map(|q| timed(|| pipeline.range_count(q, EPS)).1 * 1e6)
        .collect();
    report.set("core.mutable_read_us", median(&read_us));

    let mut insert_us = Vec::new();
    let mut compact_ms = Vec::new();
    let per_round = rows.len().div_ceil(3).max(1);
    for round in rows.chunks(per_round) {
        for row in round {
            let (written, seconds) = timed(|| pipeline.insert(row).and_then(|_| pipeline.sync()));
            report.check(written.is_ok(), || "probe insert failed".to_string());
            insert_us.push(seconds * 1e6);
        }
        let (compacted, seconds) = timed(|| pipeline.compact());
        report.check(compacted.is_ok(), || "probe compaction failed".to_string());
        compact_ms.push(seconds * 1e3);
    }
    report.set("core.wal_insert_us", median(&insert_us));
    report.set("core.compact_ms", median(&compact_ms));
    report.note(format!(
        "mutable probe: {} reopens, {} reads, {} inserts+sync, {} compactions over {} base rows",
        reopen_ms.len(),
        read_us.len(),
        insert_us.len(),
        compact_ms.len(),
        pipeline.base().data().len()
    ));
}
