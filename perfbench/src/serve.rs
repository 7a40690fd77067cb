//! `serve` and `serve-mutable`: one client thread keeping [`IN_FLIGHT`]
//! requests in flight through `LafServer::submit_async`, a closed loop over
//! a seeded 400×32 base.
//!
//! `serve` is a frozen server with the default `ServeConfig` and a 70 %
//! range-count / 10 % range / 10 % knn / 10 % estimate mix; every answer is
//! compared bit-exact with the synchronous answer computed before the run.
//! `serve-mutable` is `LafServer::start_mutable` with an 80 % range-count /
//! 10 % insert / 10 % delete stream and `compact_threshold` equal to the
//! base row count; every write must be acknowledged, and after the run the
//! server's counts must equal a from-scratch `LinearScan` over the live
//! rows.

use crate::common::{
    builder, copy_dir, mix, mixture, quantile, PassPlan, Rng, Scale, Shape, WorkDir, EPS,
    IN_FLIGHT, KNN_K,
};
use crate::phases::{
    estimate_replay_us, load_round, mutable_probe, replay_pass_s, set_index_replay, set_load_ms,
    set_serve_stats, ClusterJob, ClusterTimer, Passes,
};
use crate::report::Report;
use crate::{cold_start, Setups};
use laf::core::{LafDbscan, LafPipeline, MutablePipeline, SnapshotError};
use laf::index::{LinearScan, Neighbor, RangeQueryEngine};
use laf::serve::{
    LafServer, QueryRequest, QueryResponse, ServeConfig, ServeStatsReport, Served, Ticket,
};
use laf::vector::Dataset;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Distinct query vectors the request streams draw from.
const QUERY_POOL: usize = 256;
/// Distinct rows the insert stream draws from.
const INSERT_POOL: usize = 512;
/// How far the mutable stream lets the live row count drift from the base.
const LIVE_DRIFT: usize = 16;
/// Queries of the replays: the pool cycled to at least this many.
const REPLAY_QUERIES: usize = 4096;

/// One operation of a request stream, naming pool entries by index.
#[derive(Debug, Clone, Copy)]
enum Op {
    Range(usize),
    Count(usize),
    Knn(usize),
    Estimate(usize),
    Insert(usize),
    Delete(u64),
}

impl Op {
    fn request(self, queries: &[Vec<f32>], rows: &[&[f32]]) -> QueryRequest {
        let query = |q: usize| queries[q].clone();
        match self {
            Op::Range(q) => QueryRequest::Range {
                query: query(q),
                eps: EPS,
            },
            Op::Count(q) => QueryRequest::RangeCount {
                query: query(q),
                eps: EPS,
            },
            Op::Knn(q) => QueryRequest::Knn {
                query: query(q),
                k: KNN_K,
            },
            Op::Estimate(q) => QueryRequest::Estimate {
                query: query(q),
                eps: EPS,
            },
            Op::Insert(r) => QueryRequest::Insert {
                row: rows[r].to_vec(),
            },
            Op::Delete(dense) => QueryRequest::Delete { dense },
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_))
    }
}

/// The frozen mix: 70 % range-count, 10 % each range, knn and estimate.
fn frozen_ops(rng: &mut Rng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let q = rng.below(QUERY_POOL);
            match rng.below(10) {
                0 => Op::Range(q),
                1 => Op::Knn(q),
                2 => Op::Estimate(q),
                _ => Op::Count(q),
            }
        })
        .collect()
}

/// The mutable stream: 80 % range-count, 10 % insert, 10 % delete of a live
/// dense id. `live` tracks the live row count the stream leaves behind; the
/// server answers in submission order, so every delete target is live. A
/// write that would move the live count more than [`LIVE_DRIFT`] rows from
/// `base` flips to the other kind, so every seed serves the same size.
fn mutable_ops(rng: &mut Rng, count: usize, base: usize, live: &mut usize) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let insert = match rng.below(10) {
                0 => *live < base + LIVE_DRIFT,
                1 => *live <= base.saturating_sub(LIVE_DRIFT).max(1),
                _ => return Op::Count(rng.below(QUERY_POOL)),
            };
            if insert {
                *live += 1;
                Op::Insert(rng.below(INSERT_POOL))
            } else {
                let dense = rng.below(*live) as u64;
                *live -= 1;
                Op::Delete(dense)
            }
        })
        .collect()
}

/// Synchronous answers of the frozen pipeline, per pool query.
struct Expected {
    range: Vec<Vec<u32>>,
    count: Vec<usize>,
    knn: Vec<Vec<Neighbor>>,
    estimate: Vec<f32>,
}

impl Expected {
    fn new(pipeline: &LafPipeline, queries: &[Vec<f32>]) -> Self {
        let engine = pipeline.engine();
        Self {
            range: queries.iter().map(|q| engine.range(q, EPS)).collect(),
            count: queries.iter().map(|q| engine.range_count(q, EPS)).collect(),
            knn: queries.iter().map(|q| engine.knn(q, KNN_K)).collect(),
            estimate: queries.iter().map(|q| pipeline.estimate(q, EPS)).collect(),
        }
    }

    /// Bit-exact comparison of a served answer with the synchronous one.
    fn matches(&self, op: Op, response: &QueryResponse) -> bool {
        match (op, response) {
            (Op::Range(q), QueryResponse::Range(hits)) => *hits == self.range[q],
            (Op::Count(q), QueryResponse::Count(n)) => *n == self.count[q],
            (Op::Knn(q), QueryResponse::Knn(got)) => {
                got.len() == self.knn[q].len()
                    && got
                        .iter()
                        .zip(&self.knn[q])
                        .all(|(a, b)| a.index == b.index && a.dist.to_bits() == b.dist.to_bits())
            }
            (Op::Estimate(q), QueryResponse::Estimate(e)) => {
                e.to_bits() == self.estimate[q].to_bits()
            }
            _ => false,
        }
    }
}

/// A mutable-stream answer is right in kind: reads count, writes are
/// acknowledged. Read values are checked against the end state.
fn acknowledged(op: Op, response: &QueryResponse) -> bool {
    matches!(
        (op, response),
        (Op::Count(_), QueryResponse::Count(_))
            | (Op::Insert(_) | Op::Delete(_), QueryResponse::Written { .. })
    )
}

/// Latencies of one closed-loop pass, in submission order.
struct Pass {
    wall_s: f64,
    latencies_us: Vec<f64>,
}

/// Drive `ops` through `server` from this thread with up to [`IN_FLIGHT`]
/// tickets outstanding, waiting on the oldest. A rejected submission or a
/// wrong answer is a failure.
fn drive(
    server: &LafServer,
    ops: &[Op],
    queries: &[Vec<f32>],
    rows: &[&[f32]],
    report: &mut Report,
    check: &dyn Fn(Op, &QueryResponse) -> bool,
) -> Pass {
    let mut inflight: VecDeque<(usize, Instant, Ticket<QueryResponse>)> =
        VecDeque::with_capacity(IN_FLIGHT);
    let mut latencies_us = vec![0.0; ops.len()];
    let mut next = 0;
    let start = Instant::now();
    loop {
        while inflight.len() < IN_FLIGHT && next < ops.len() {
            let request = ops[next].request(queries, rows);
            let submitted = Instant::now();
            match server.submit_async(request) {
                Ok(ticket) => inflight.push_back((next, submitted, ticket)),
                Err(err) => report.check(false, || format!("op {next} refused: {err}")),
            }
            next += 1;
        }
        let Some((i, submitted, ticket)) = inflight.pop_front() else {
            break;
        };
        let served = ticket.wait();
        latencies_us[i] = submitted.elapsed().as_secs_f64() * 1e6;
        report.check(check(ops[i], &served.value), || {
            format!("op {i} ({:?}) answered {:?}", ops[i], served.value)
        });
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        latencies_us,
    }
}

/// The timed rounds of a serve workload: each round is one pass of
/// `plan.ops` operations followed, while no request is in flight, by a
/// timed cold `setup` every `plan.setup_every` rounds and by `between`,
/// which takes the round's other samples. Sets `qps`, `p50_us` and
/// `p99_us` and returns the server counters of the timed rounds with every
/// timed latency, tagged write or read.
#[allow(clippy::too_many_arguments)]
fn rounds(
    report: &mut Report,
    plan: &PassPlan,
    server: &LafServer,
    queries: &[Vec<f32>],
    rows: &[&[f32]],
    next_ops: &mut dyn FnMut(usize) -> Vec<Op>,
    check: &dyn Fn(Op, &QueryResponse) -> bool,
    setup: &mut dyn FnMut(&mut Report),
    between: &mut dyn FnMut(&mut Report),
) -> (ServeStatsReport, Vec<(bool, f64)>) {
    server.stats().reset();
    let mut passes = Passes::default();
    let mut tagged = Vec::new();
    for round in 0..plan.rounds {
        let ops = next_ops(plan.ops);
        let pass = drive(server, &ops, queries, rows, report, check);
        passes.push(pass.wall_s, &pass.latencies_us);
        tagged.extend(ops.iter().map(|op| op.is_write()).zip(pass.latencies_us));
        if round % plan.setup_every == 0 {
            setup(report);
        }
        between(report);
    }
    passes.finish(
        report,
        &format!("closed loop, 1 client thread x {IN_FLIGHT} in flight"),
    );
    (server.stats_report(), tagged)
}

/// An untimed warm-up of two rounds' operations.
fn warm_up(
    report: &mut Report,
    plan: &PassPlan,
    server: &LafServer,
    queries: &[Vec<f32>],
    rows: &[&[f32]],
    next_ops: &mut dyn FnMut(usize) -> Vec<Op>,
    check: &dyn Fn(Op, &QueryResponse) -> bool,
) {
    let ops = next_ops(plan.ops * 2);
    drive(server, &ops, queries, rows, report, check);
}

/// Print-only split of the timed latencies by kind.
fn note_kind_p99(report: &mut Report, tagged: &[(bool, f64)]) {
    for (write, name) in [(false, "serve.read_p99_us"), (true, "serve.write_p99_us")] {
        let us: Vec<f64> = tagged
            .iter()
            .filter(|(w, _)| *w == write)
            .map(|(_, us)| *us)
            .collect();
        if !us.is_empty() {
            report.note(format!(
                "{name} = {} us over {} ops",
                quantile(&us, 0.99),
                us.len()
            ));
        }
    }
}

/// Seconds per query of `call` over `queries` in batches of `group`,
/// cycled to at least [`REPLAY_QUERIES`] queries per pass.
fn per_query_s(threads: usize, queries: &[&[f32]], group: usize, call: impl Fn(&[&[f32]])) -> f64 {
    let group = group.clamp(1, queries.len());
    let batches: Vec<&[&[f32]]> = queries.chunks_exact(group).collect();
    let rounds = REPLAY_QUERIES.div_ceil(batches.len() * group);
    let pass_s = replay_pass_s(threads, 5, || {
        for _ in 0..rounds {
            for batch in &batches {
                call(batch);
            }
        }
    });
    pass_s / (rounds * batches.len() * group) as f64
}

/// Group size of a kind with `share` of a batch of `occupancy` requests.
fn group(share: f64, occupancy: f64) -> usize {
    ((share * occupancy).round() as usize).max(1)
}

fn pool(data: &Dataset, rng: &mut Rng) -> Vec<Vec<f32>> {
    (0..QUERY_POOL)
        .map(|_| data.row(rng.below(data.len())).to_vec())
        .collect()
}

pub fn run(scale: &Scale, seed: u64, trace: bool, mutable: bool) -> Report {
    let name = if mutable { "serve-mutable" } else { "serve" };
    let mut report = Report::new(name);
    let shape = scale.serve_shape;
    // Base rows and inserted rows are a seeded split of one mixture, so
    // writes come from the distribution the estimator was trained on.
    let all = mixture(
        Shape {
            n: shape.n + INSERT_POOL,
            ..shape
        },
        mix(seed, 2),
    );
    let mut rng = Rng::new(mix(seed, 3));
    let mut order: Vec<usize> = (0..all.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let split = |ids: &[usize]| all.select(ids).expect("ids index the mixture");
    let (data, inserts) = (split(&order[..shape.n]), split(&order[shape.n..]));
    let queries = pool(&data, &mut rng);
    let rows: Vec<&[f32]> = inserts.rows().collect();
    let work = WorkDir::new(name).expect("create the run's scratch directory");
    report.note(format!(
        "dataset: {} directional mixture ({} clusters, noise {}), seed {seed}; \
         {QUERY_POOL} pooled queries",
        shape.label(),
        shape.clusters,
        shape.noise
    ));
    if mutable {
        run_mutable(
            &mut report,
            scale,
            seed,
            trace,
            &work,
            &data,
            &queries,
            &rows,
        );
    } else {
        run_frozen(
            &mut report,
            scale,
            seed,
            trace,
            &work,
            &data,
            &queries,
            &rows,
        );
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn run_frozen(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    trace: bool,
    work: &WorkDir,
    data: &Dataset,
    queries: &[Vec<f32>],
    rows: &[&[f32]],
) {
    let snapshot = |i: usize| work.path(&format!("serve-{i}.lafs"));
    let mut setups = Setups::new(
        |i| (data.clone(), snapshot(i)),
        |(input, path): (_, PathBuf)| {
            cold_start(scale, input, &path).map(|p| LafServer::start(p, ServeConfig::default()))
        },
    );
    let Some(server) = setups.run(report) else {
        return;
    };
    let path = snapshot(0);
    let reference = match LafPipeline::load_mmap(&path) {
        Ok(p) => p,
        Err(err) => return report.check(false, || format!("reference load failed: {err}")),
    };
    let expected = Expected::new(&reference, queries);
    let check = |op, response: &QueryResponse| expected.matches(op, response);
    let mut rng = Rng::new(mix(seed, 6));
    let mut next_ops = |n| frozen_ops(&mut rng, n);
    warm_up(
        report,
        &scale.serve,
        &server,
        queries,
        rows,
        &mut next_ops,
        &check,
    );

    let engine = reference.engine();
    let job = ClusterJob {
        untraced: Box::new(|| reference.cluster_with_stats().0),
        config: reference.config(),
        estimator: reference.estimator(),
        data: reference.data(),
        engine: engine.get(),
    };
    let mut timer = ClusterTimer::new(report, job, trace);
    let mut loads = Vec::new();
    let (stats, tagged) = rounds(
        report,
        &scale.serve,
        &server,
        queries,
        rows,
        &mut next_ops,
        &check,
        &mut |report| drop(setups.run(report)),
        &mut |report| {
            loads.push(load_round(report, scale.loads_per_round, || {
                LafPipeline::load_mmap(&path)
            }));
            for _ in 0..scale.small_clusters_per_round {
                timer.rep(report);
            }
        },
    );
    server.shutdown();
    setups.finish(report);
    note_kind_p99(report, &tagged);
    set_load_ms(report, &loads, scale, "LafPipeline::load_mmap");
    timer.finish(report);
    if !trace {
        return;
    }
    // Replay the dispatcher's kernel calls at the batch composition the
    // run observed: each kind's share of the mean occupancy.
    let m = stats.mean_batch_occupancy;
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    set_index_replay(report, |threads| {
        0.7 * per_query_s(threads, &refs, group(0.7, m), |b| {
            std::hint::black_box(engine.range_count_batch(b, EPS));
        }) + 0.1
            * per_query_s(threads, &refs, group(0.1, m), |b| {
                std::hint::black_box(engine.range_batch(b, EPS));
            })
            + 0.1
                * per_query_s(threads, &refs, group(0.1, m), |b| {
                    std::hint::black_box(engine.knn_batch(b, KNN_K));
                })
    });
    let cycled: Vec<&[f32]> = refs.iter().cycle().take(REPLAY_QUERIES).copied().collect();
    let est_us = estimate_replay_us(&reference, &cycled, group(0.1, m));
    report.note(format!(
        "index replay: range_count/range/knn batches of {}/{}/{} (mean occupancy {m}); \
         estimate_batch replay: {est_us} us per query in batches of {}",
        group(0.7, m),
        group(0.1, m),
        group(0.1, m),
        group(0.1, m)
    ));
    if let (Some(qps), Some(index_us)) = (report.get("qps"), report.get("index.batch_us")) {
        report.note(format!(
            "serve.overhead_us = {} us (1e6/qps minus the weighted replay)",
            1e6 / qps - index_us - 0.1 * est_us
        ));
    }
    set_serve_stats(report, Some(&stats));
    let probe = work.path("probe");
    match MutablePipeline::create(&probe, &reference) {
        Ok(created) => drop(created),
        Err(err) => report.check(false, || format!("mutable probe create failed: {err}")),
    }
    mutable_probe(report, scale, &probe, &refs, &rows[..rows.len().min(30)]);
}

/// A synchronous read through the server: once it is answered, every
/// earlier write is committed and any compaction it triggered is done, so
/// the directory is at rest until the next submission.
fn quiesce(report: &mut Report, server: &LafServer, query: &[f32]) -> Option<usize> {
    let request = QueryRequest::RangeCount {
        query: query.to_vec(),
        eps: EPS,
    };
    let count = match server.submit(request) {
        Ok(Served {
            value: QueryResponse::Count(n),
            ..
        }) => Some(n),
        _ => None,
    };
    report.check(count.is_some(), || "synchronous read failed".to_string());
    count
}

#[allow(clippy::too_many_arguments)]
fn run_mutable(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    trace: bool,
    work: &WorkDir,
    data: &Dataset,
    queries: &[Vec<f32>],
    rows: &[&[f32]],
) {
    let config = ServeConfig {
        compact_threshold: data.len(),
        ..ServeConfig::default()
    };
    let dir = |i: usize| work.path(&format!("mutable-{i}"));
    let mut setups = Setups::new(
        |i| (data.clone(), dir(i)),
        |(input, path): (_, PathBuf)| -> Result<LafServer, SnapshotError> {
            let trained = builder(scale).train(input)?;
            let pipeline = MutablePipeline::create(&path, &trained)?;
            Ok(LafServer::start_mutable(pipeline, config))
        },
    );
    let Some(server) = setups.run(report) else {
        return;
    };
    let path = dir(0);
    let mut rng = Rng::new(mix(seed, 6));
    let mut live = data.len();
    let mut next_ops = |n| mutable_ops(&mut rng, n, data.len(), &mut live);
    warm_up(
        report,
        &scale.mutable,
        &server,
        queries,
        rows,
        &mut next_ops,
        &acknowledged,
    );

    // The clustering samples use the live rows as of the end of the
    // warm-up, read from a copy of the directory at rest.
    quiesce(report, &server, &queries[0]);
    let at_rest = work.path("at-rest");
    let opened = copy_dir(&path, &at_rest)
        .map_err(SnapshotError::from)
        .and_then(|()| MutablePipeline::open(&at_rest))
        .and_then(|p| Ok((p.live_dataset()?, Arc::clone(p.base()))));
    let (live_rows, base) = match opened {
        Ok(opened) => opened,
        Err(err) => return report.check(false, || format!("reading the live rows failed: {err}")),
    };
    let scan = LinearScan::new(&live_rows, base.config().metric);
    // The live rows have no pipeline of their own: the untraced run is the
    // generic clustering call over them.
    let laf = LafDbscan::new(base.config().clone(), base.estimator());
    let job = ClusterJob {
        untraced: Box::new(|| laf.cluster_with_stats_using(&live_rows, &scan).0),
        config: base.config(),
        estimator: base.estimator(),
        data: &live_rows,
        engine: &scan,
    };
    let mut timer = ClusterTimer::new(report, job, trace);

    let mut loads = Vec::new();
    let copy = work.path("restart");
    let (stats, tagged) = rounds(
        report,
        &scale.mutable,
        &server,
        queries,
        rows,
        &mut next_ops,
        &acknowledged,
        &mut |report| drop(setups.run(report)),
        &mut |report| {
            quiesce(report, &server, &queries[0]);
            match copy_dir(&path, &copy) {
                Ok(()) => loads.push(load_round(report, scale.loads_per_round, || {
                    MutablePipeline::open(&copy)
                })),
                Err(err) => report.check(false, || format!("copying the directory failed: {err}")),
            }
            let _ = std::fs::remove_dir_all(&copy);
            for _ in 0..scale.small_clusters_per_round {
                timer.rep(report);
            }
        },
    );
    // End state: counts through the server against a from-scratch scan of
    // the live rows after shutdown.
    let served: Vec<Option<usize>> = queries
        .iter()
        .take(64)
        .map(|q| quiesce(report, &server, q))
        .collect();
    server.shutdown();
    setups.finish(report);
    note_kind_p99(report, &tagged);
    report.note(format!(
        "writes: group commit, one fdatasync per dispatched batch that wrote; \
         compact_threshold {} ({} compactions published in the timed passes)",
        data.len(),
        stats.reloads
    ));
    set_load_ms(
        report,
        &loads,
        scale,
        "MutablePipeline::open (restart from a copy)",
    );
    timer.finish(report);

    let reopened = match MutablePipeline::open(&path) {
        Ok(p) => p,
        Err(err) => return report.check(false, || format!("reopen failed: {err}")),
    };
    let end_rows = match reopened.live_dataset() {
        Ok(d) => d,
        Err(err) => return report.check(false, || format!("live dataset failed: {err}")),
    };
    report.check(end_rows.len() == live, || {
        format!(
            "{} live rows after the run, the stream left {live}",
            end_rows.len()
        )
    });
    let end_scan = LinearScan::new(&end_rows, base.config().metric);
    for (i, (q, got)) in queries.iter().zip(&served).enumerate() {
        let want = end_scan.range_count(q, EPS);
        report.check(*got == Some(want), || {
            format!("end-state count {i}: served {got:?}, from-scratch {want}")
        });
    }
    if !trace {
        return;
    }
    // A what-if price: reads here are answered one at a time under the
    // pipeline lock, with no batch kernel and no rayon. The replay prices
    // the same reads through the coalesced batch kernel over the base.
    let m = stats.mean_batch_occupancy;
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let engine = reopened.base().engine();
    set_index_replay(report, |threads| {
        0.8 * per_query_s(threads, &refs, group(0.8, m), |b| {
            std::hint::black_box(engine.range_count_batch(b, EPS));
        })
    });
    report.note(format!(
        "index replay (what-if, not a call the workload makes): range_count batches \
         of {} over the base (mean occupancy {m})",
        group(0.8, m)
    ));
    set_serve_stats(report, Some(&stats));
    drop(reopened);
    let probe = work.path("probe");
    if let Err(err) = copy_dir(&path, &probe) {
        return report.check(false, || {
            format!("copying the mutable directory failed: {err}")
        });
    }
    mutable_probe(report, scale, &probe, &refs, &rows[..rows.len().min(30)]);
}
