//! `cluster`: the paper's workload. A full LAF-DBSCAN clustering of a
//! seeded 8000×64 directional mixture on a warm, mmap-loaded pipeline, plus
//! one client issuing direct engine range queries one at a time. The
//! `index` range kernel dominates; the serve layer stays idle.

use crate::common::{mix, mixture, timed, Rng, Scale, Shape, WorkDir, EPS};
use crate::phases::{
    load_round, mutable_probe, replay_pass_s, set_index_replay, set_load_ms, set_serve_stats,
    ClusterJob, ClusterTimer, Passes,
};
use crate::report::Report;
use crate::{cold_start, Setups};
use laf::core::{LafPipeline, MutablePipeline};
use std::time::Instant;

/// Batch size of the what-if `range_batch` replay: the dispatcher's default
/// `max_batch`, the largest batch the serving path hands a kernel.
const REPLAY_BATCH: usize = 64;

pub fn run(scale: &Scale, seed: u64, trace: bool) -> Report {
    let mut report = Report::new("cluster");
    let shape = scale.cluster_shape;
    let data = mixture(shape, mix(seed, 1));
    let work = WorkDir::new("cluster").expect("create the run's scratch directory");
    report.note(format!(
        "dataset: {} directional mixture ({} clusters, noise {}), seed {seed}",
        shape.label(),
        shape.clusters,
        shape.noise
    ));

    let snapshot = |i: usize| work.path(&format!("cluster-{i}.lafs"));
    let mut setups = Setups::new(
        |i| (data.clone(), snapshot(i)),
        |(input, path): (_, std::path::PathBuf)| cold_start(scale, input, &path),
    );
    let Some(pipeline) = setups.run(&mut report) else {
        return report;
    };
    let snapshot = snapshot(0);
    let engine = pipeline.engine();
    let job = ClusterJob {
        untraced: Box::new(|| pipeline.cluster_with_stats().0),
        config: pipeline.config(),
        estimator: pipeline.estimator(),
        data: pipeline.data(),
        engine: engine.get(),
    };
    let mut timer = ClusterTimer::new(&mut report, job, trace);

    // One client, one query in flight: direct `range` calls on the
    // pipeline's engine, each checked against the batch path's answer.
    let mut rng = Rng::new(mix(seed, 4));
    let rows: Vec<&[f32]> = (0..scale.direct_queries)
        .map(|_| pipeline.data().row(rng.below(pipeline.data().len())))
        .collect();
    let expected = engine.range_batch(&rows, EPS);
    for q in rows.iter().take(rows.len() / 10) {
        std::hint::black_box(engine.range(q, EPS));
    }

    let mut loads = Vec::new();
    let mut passes = Passes::default();
    // The direct passes run between the set-up and the clustering: a
    // clustering right after a set-up's allocation churn runs slower.
    for _ in 0..scale.cluster_rounds {
        drop(setups.run(&mut report));
        for _ in 0..scale.direct_passes {
            let mut latencies = Vec::with_capacity(rows.len());
            let start = Instant::now();
            for (i, (q, want)) in rows.iter().zip(&expected).enumerate() {
                let (hits, seconds) = timed(|| engine.range(q, EPS));
                latencies.push(seconds * 1e6);
                report.check(&hits == want, || format!("direct range query {i} diverged"));
            }
            passes.push(start.elapsed().as_secs_f64(), &latencies);
        }
        loads.push(load_round(&mut report, scale.loads_per_round, || {
            LafPipeline::load_mmap(&snapshot)
        }));
        timer.rep(&mut report);
    }
    setups.finish(&mut report);
    set_load_ms(&mut report, &loads, scale, "LafPipeline::load_mmap");
    passes.finish(
        &mut report,
        "direct engine range queries, 1 client x 1 in flight",
    );
    let executed = timer.finish(&mut report);

    if trace {
        // A what-if price: the clustering calls `range` one query at a
        // time, never `range_batch`. This replays its executed queries
        // through the batch kernel in dispatcher-sized batches, which is
        // what a batched expansion would pay.
        let queries: Vec<&[f32]> = executed.iter().map(Vec::as_slice).collect();
        let n = queries.len().max(1) as f64;
        set_index_replay(&mut report, |threads| {
            replay_pass_s(threads, 3, || {
                for chunk in queries.chunks(REPLAY_BATCH) {
                    std::hint::black_box(engine.range_batch(chunk, EPS));
                }
            }) / n
        });
        report.note(format!(
            "index replay (what-if, not a call the workload makes): range_batch in groups \
             of {REPLAY_BATCH} over {} executed queries",
            queries.len()
        ));
        set_serve_stats(&mut report, None);

        let probe = work.path("probe");
        match MutablePipeline::create(&probe, &pipeline) {
            Ok(created) => drop(created),
            Err(err) => report.check(false, || format!("mutable probe create failed: {err}")),
        }
        let inserts = mixture(Shape { n: 30, ..shape }, mix(seed, 5));
        let insert_rows: Vec<&[f32]> = inserts.rows().collect();
        let reads: Vec<&[f32]> = rows.iter().take(100).copied().collect();
        mutable_probe(&mut report, scale, &probe, &reads, &insert_rows);
    }
    report
}
