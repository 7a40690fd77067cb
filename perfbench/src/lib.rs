//! The repository benchmark.
//!
//! Three seeded workloads, each dominated by a different layer, run from
//! one process with one client thread:
//!
//! - `cluster`: full LAF-DBSCAN over an 8000×64 mixture (`index` range
//!   kernel, `cardest` prescan, `core` expansion; serve idle);
//! - `serve`: a frozen coalescing server over a 400×32 base (`serve`
//!   dispatcher, batch kernels, `rayon` fan-out);
//! - `serve-mutable`: the mutable server over the same base shape (`serve`
//!   in-order path, `core` WAL group commit and compaction).
//!
//! Every workload reports the same end-to-end metrics in its own terms and,
//! in a separate traced run, the same per-layer metrics (see
//! [`report`]). The work is fixed and seeded; nothing is a time window.

pub mod cluster;
pub mod common;
pub mod phases;
pub mod report;
pub mod serve;
pub mod trace;

use common::{builder, fast_low, timed, Scale};
use laf::core::{LafPipeline, SnapshotError};
use report::Report;
use std::fmt::Display;
use std::path::Path;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cluster,
    Serve,
    ServeMutable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Cluster, Workload::Serve, Workload::ServeMutable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cluster => "cluster",
            Workload::Serve => "serve",
            Workload::ServeMutable => "serve-mutable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload once. `trace` adds the traced run and reports the
    /// per-layer metrics; the end-to-end ones are measured either way.
    pub fn run(self, scale: &Scale, seed: u64, trace: bool) -> Report {
        let mut report = match self {
            Workload::Cluster => cluster::run(scale, seed, trace),
            Workload::Serve => serve::run(scale, seed, trace, false),
            Workload::ServeMutable => serve::run(scale, seed, trace, true),
        };
        report.finish(trace);
        report
    }
}

/// Cold start of a frozen pipeline: train, persist the engine, save the
/// snapshot to `snapshot`, mmap-load it and restore its engine.
pub fn cold_start(
    scale: &Scale,
    data: laf::vector::Dataset,
    snapshot: &Path,
) -> Result<LafPipeline, SnapshotError> {
    builder(scale).train(data)?.save(snapshot)?;
    let pipeline = LafPipeline::load_mmap(snapshot)?;
    pipeline.engine();
    Ok(pipeline)
}

/// Timed cold set-ups, reported as `setup_s` through [`common::fast_low`]
/// (the best one, as runs make fewer than ten). The first is the run's
/// pipeline or server; the workloads spread further ones over their rounds
/// and drop each once timed, so set-up is sampled across the run.
pub struct Setups<P, S> {
    prepare: P,
    start: S,
    seconds: Vec<f64>,
}

impl<I, T, E, P, S> Setups<P, S>
where
    E: Display,
    P: FnMut(usize) -> I,
    S: FnMut(I) -> Result<T, E>,
{
    /// `prepare(i)` makes set-up `i`'s input outside the timing; `start`
    /// turns it into a ready pipeline or server and is timed.
    pub fn new(prepare: P, start: S) -> Self {
        Self {
            prepare,
            start,
            seconds: Vec::new(),
        }
    }

    /// One timed set-up; a failed one is a failed operation.
    pub fn run(&mut self, report: &mut Report) -> Option<T> {
        let input = (self.prepare)(self.seconds.len());
        let (ready, seconds) = timed(|| (self.start)(input));
        self.seconds.push(seconds);
        match ready {
            Ok(ready) => {
                report.check(true, String::new);
                Some(ready)
            }
            Err(err) => {
                report.check(false, || format!("set-up failed: {err}"));
                None
            }
        }
    }

    /// Report `setup_s`.
    pub fn finish(&self, report: &mut Report) {
        report.set("setup_s", fast_low(&self.seconds));
        report.note(format!("setup_s: {} cold set-ups", self.seconds.len()));
    }
}
