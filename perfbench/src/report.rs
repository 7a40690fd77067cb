//! The metric registry and the result a run prints.
//!
//! Every workload emits every metric below; `BENCHMARK.json` at the
//! repository root lists the same names and units, and the smoke test keeps
//! the two in step. A per-layer metric of a layer the workload leaves idle
//! is an honest zero, and only ever a count: every per-layer *time* is
//! measured on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("load_ms", "ms"),
    ("cluster_s", "s"),
    ("ari", "ratio"),
    ("ami", "ratio"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.range_s", "s"),
    ("index.range_calls", "count"),
    ("index.range_p50_us", "us"),
    ("index.distance_evals", "count"),
    ("index.gmacs", "GMAC/s"),
    ("cardest.estimate_batch_s", "s"),
    ("cardest.estimate_batch_calls", "count"),
    ("core.self_s", "s"),
    ("core.executed_queries", "count"),
    ("core.skipped_queries", "count"),
    ("core.wasted_queries", "count"),
    ("core.false_negatives", "count"),
    ("core.merged_clusters", "count"),
    ("trace.overhead_s", "s"),
    ("index.batch_us", "us"),
    ("index.batch_1t_us", "us"),
    ("rayon.fanout_net_us", "us"),
    ("cardest.estimate_batch_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_occupancy", "count"),
    ("serve.tile_share", "ratio"),
    ("serve.peak_queue_depth", "count"),
    ("serve.reloads", "count"),
    ("serve.compact_failures", "count"),
    ("serve.wal_sync_retries", "count"),
    ("core.mutable_read_us", "us"),
    ("core.wal_insert_us", "us"),
    ("core.compact_ms", "ms"),
    ("core.reopen_ms", "ms"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Failure messages kept for printing; the count is always exact.
const KEPT_FAILURES: usize = 8;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    /// Count one checked operation; `ok == false` makes it a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Record a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite: {value}"));
            return;
        }
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A printed-only line: sample counts, shapes, print-only figures.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The registry half this run reports: per-layer when traced.
    pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable block: every measured metric by name with its unit,
    /// the error rate with both counts, the notes and kept failures.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let w = &self.workload;
        for line in &self.notes {
            let _ = writeln!(out, "[{w}] {line}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "[{w}] {name} = {v} {unit}");
            }
        }
        let _ = writeln!(
            out,
            "[{w}] error_rate = {} ratio ({} failed / {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            let _ = writeln!(out, "[{w}] FAILED: {failure}");
        }
        out
    }

    /// The result line's `metrics` object for the chosen registry half,
    /// with `prefix` before every name. A metric the run did not measure is
    /// left out, and counted as a failure by [`Report::finish`].
    fn metrics_json(&self, trace: bool, prefix: &str, out: &mut String) {
        for (name, unit) in Self::registry(trace) {
            if let Some(v) = self.values.get(name) {
                if !out.ends_with('{') {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{prefix}{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                );
            }
        }
    }

    /// Fail the run for every registered metric it did not measure.
    pub fn finish(&mut self, trace: bool) {
        let missing: Vec<&str> = Self::registry(trace)
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.values.contains_key(name))
            .collect();
        for name in missing {
            self.fail(format!("metric {name} was not measured"));
        }
    }
}

/// The last line of standard output: one JSON object over every report.
/// One workload names its metrics plainly; several prefix each name with
/// `<workload>/`.
pub fn result_line(reports: &[Report], trace: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = reports.iter().all(Report::correct);
    let mut metrics = String::from("{");
    for report in reports {
        let prefix = if reports.len() == 1 {
            String::new()
        } else {
            format!("{}/", report.workload)
        };
        report.metrics_json(trace, &prefix, &mut metrics);
    }
    metrics.push('}');
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}
