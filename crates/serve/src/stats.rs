//! Aggregate serving counters: admission, batch occupancy, reloads.

use laf_vector::tile::BLOCK_PROBES;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive) of the batch-occupancy histogram buckets: exact
/// sizes up to [`crate::TILE`], the dispatcher's early-flush size, then
/// power-of-two ranges up to the default `max_batch`. Only batches of at
/// least [`BLOCK_PROBES`] (16) queries can reach the linear scan's blocked
/// path, and [`ServeStatsReport::tile_batches`] counts those; smaller ones
/// run one scan per query.
const OCCUPANCY_BOUNDS: [u64; 8] = [1, 2, 3, 4, 8, 16, 32, 64];

/// Number of occupancy buckets (the bounds above plus an overflow bucket).
pub const OCCUPANCY_BUCKETS: usize = OCCUPANCY_BOUNDS.len() + 1;

/// Human-readable label for occupancy bucket `i`.
fn bucket_label(i: usize) -> String {
    match i {
        0..=3 => format!("{}", OCCUPANCY_BOUNDS[i]),
        _ if i < OCCUPANCY_BOUNDS.len() => {
            format!("{}-{}", OCCUPANCY_BOUNDS[i - 1] + 1, OCCUPANCY_BOUNDS[i])
        }
        _ => format!(">{}", OCCUPANCY_BOUNDS[OCCUPANCY_BOUNDS.len() - 1]),
    }
}

fn bucket_index(batch_size: usize) -> usize {
    OCCUPANCY_BOUNDS
        .iter()
        .position(|&b| batch_size as u64 <= b)
        .unwrap_or(OCCUPANCY_BOUNDS.len())
}

/// Lock-free aggregate counters maintained by a [`crate::LafServer`].
///
/// All counters are monotone (relaxed atomics); [`ServeStats::report`] takes
/// a point-in-time snapshot. Counts observed while requests are in flight
/// may be mid-update relative to each other — exact invariants (e.g.
/// `submitted == completed + rejected`) hold once the server is idle or shut
/// down.
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    tile_batches: AtomicU64,
    reloads: AtomicU64,
    compact_failures: AtomicU64,
    timeouts: AtomicU64,
    wal_sync_retries: AtomicU64,
    compact_retries: AtomicU64,
    flush_retries: AtomicU64,
    reload_failures: AtomicU64,
    peak_queue_depth: AtomicU64,
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
}

impl ServeStats {
    /// Record an admitted request and the queue depth it observed.
    pub(crate) fn record_submit(&self, queue_depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Record a request rejected by admission control.
    pub(crate) fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dispatched batch of `size` requests. `frozen` is false on
    /// a mutable server, which answers each read on its own.
    pub(crate) fn record_batch(&self, size: usize, frozen: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(size as u64, Ordering::Relaxed);
        if frozen && size >= BLOCK_PROBES {
            self.tile_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.occupancy[bucket_index(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a snapshot hot-reload.
    pub(crate) fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed background compaction (the error itself is not
    /// surfaced to any request — this counter is the diagnostic).
    pub(crate) fn record_compact_failure(&self) {
        self.compact_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a blocking request that gave up waiting (its deadline
    /// expired before the dispatcher served it).
    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried WAL sync (the retry that *followed* a transient
    /// sync failure — a group commit that needed two attempts counts one).
    pub(crate) fn record_wal_sync_retry(&self) {
        self.wal_sync_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried background compaction attempt.
    pub(crate) fn record_compact_retry(&self) {
        self.compact_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried dispatcher flush (a transient stall absorbed
    /// before the batch was dispatched — the batch is never dropped).
    pub(crate) fn record_flush_retry(&self) {
        self.flush_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a snapshot hot-reload whose epoch flip failed: the server
    /// kept serving the previous epoch.
    pub(crate) fn record_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Background compactions that failed so far.
    pub fn compact_failures(&self) -> u64 {
        self.compact_failures.load(Ordering::Relaxed)
    }

    /// Blocking requests that hit their deadline so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// WAL sync retries performed so far.
    pub fn wal_sync_retries(&self) -> u64 {
        self.wal_sync_retries.load(Ordering::Relaxed)
    }

    /// Background compaction retries performed so far.
    pub fn compact_retries(&self) -> u64 {
        self.compact_retries.load(Ordering::Relaxed)
    }

    /// Dispatcher flush retries performed so far.
    pub fn flush_retries(&self) -> u64 {
        self.flush_retries.load(Ordering::Relaxed)
    }

    /// Hot-reload epoch flips that failed so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// Requests admitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests answered so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of every counter.
    pub fn report(&self) -> ServeStatsReport {
        let batches = self.batches.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        ServeStatsReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            batches,
            tile_batches: self.tile_batches.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            compact_failures: self.compact_failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wal_sync_retries: self.wal_sync_retries.load(Ordering::Relaxed),
            compact_retries: self.compact_retries.load(Ordering::Relaxed),
            flush_retries: self.flush_retries.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            mean_batch_occupancy: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            occupancy: self
                .occupancy
                .iter()
                .enumerate()
                .map(|(i, c)| OccupancyBucket {
                    batch_size: bucket_label(i),
                    batches: c.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Zero every counter (e.g. between warmup and the timed bench window).
    pub fn reset(&self) {
        self.submitted.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.completed.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.tile_batches.store(0, Ordering::Relaxed);
        self.reloads.store(0, Ordering::Relaxed);
        self.compact_failures.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.wal_sync_retries.store(0, Ordering::Relaxed);
        self.compact_retries.store(0, Ordering::Relaxed);
        self.flush_retries.store(0, Ordering::Relaxed);
        self.reload_failures.store(0, Ordering::Relaxed);
        self.peak_queue_depth.store(0, Ordering::Relaxed);
        for bucket in &self.occupancy {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// One row of the batch-occupancy histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyBucket {
    /// Batch-size range this bucket covers (`"1"`..`"4"` exact, then ranges).
    pub batch_size: String,
    /// Number of dispatched batches whose size fell in the range.
    pub batches: u64,
}

/// Serializable snapshot of [`ServeStats`], printed by the
/// `serve-concurrent` example mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStatsReport {
    /// Requests admitted past admission control.
    pub submitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Kernel batches dispatched.
    pub batches: u64,
    /// Batches of a frozen server ([`crate::LafServer::start`]) with at
    /// least `laf_vector::tile::BLOCK_PROBES` (16) requests: large enough
    /// for the linear scan's blocked path, which a batch only reaches if
    /// one kind and parameter fill a block. A mutable server answers each
    /// read on its own, so it counts none.
    pub tile_batches: u64,
    /// Snapshot hot-reloads performed.
    pub reloads: u64,
    /// Background compactions that failed (mutable servers only; the
    /// dispatcher backs off until the write backlog grows further).
    pub compact_failures: u64,
    /// Blocking requests that hit their [`crate::ServeConfig`] deadline
    /// and unblocked with [`crate::ServeError::Timeout`].
    #[serde(default)]
    pub timeouts: u64,
    /// Transient WAL group-commit sync failures absorbed by retry.
    #[serde(default)]
    pub wal_sync_retries: u64,
    /// Transient background-compaction failures absorbed by retry.
    #[serde(default)]
    pub compact_retries: u64,
    /// Transient dispatcher flush stalls absorbed by retry (the
    /// `serve.coalesce.flush` failpoint; no batch is ever dropped).
    #[serde(default)]
    pub flush_retries: u64,
    /// Hot-reload epoch flips that failed ([`crate::ServeError::ReloadFailed`]);
    /// the server kept serving the previous epoch.
    #[serde(default)]
    pub reload_failures: u64,
    /// Highest queue depth observed at submission time.
    pub peak_queue_depth: u64,
    /// `completed / batches` — the average coalescing factor.
    pub mean_batch_occupancy: f64,
    /// Histogram of dispatched batch sizes.
    pub occupancy: Vec<OccupancyBucket>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_exact_tile_sizes_then_ranges() {
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(64), 7);
        assert_eq!(bucket_index(65), 8);
        assert_eq!(bucket_label(0), "1");
        assert_eq!(bucket_label(4), "5-8");
        assert_eq!(bucket_label(8), ">64");
    }

    #[test]
    fn report_reflects_recorded_events() {
        let stats = ServeStats::default();
        stats.record_submit(3);
        stats.record_submit(7);
        stats.record_reject();
        stats.record_batch(4, true);
        stats.record_batch(1, true);
        stats.record_batch(16, true);
        stats.record_batch(17, true);
        stats.record_batch(16, false);
        stats.record_reload();
        let report = stats.report();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 54);
        assert_eq!(report.batches, 5);
        // A batch of 4 stays below the 16-probe block; a mutable server's
        // batch of 16 is answered one read at a time.
        assert_eq!(report.tile_batches, 2, "the frozen batches of 16 and 17");
        assert_eq!(report.reloads, 1);
        assert_eq!(report.peak_queue_depth, 7);
        assert!((report.mean_batch_occupancy - 10.8).abs() < 1e-12);
        assert_eq!(report.occupancy[3].batches, 1, "one size-4 batch");
        assert_eq!(report.occupancy[0].batches, 1, "one size-1 batch");

        stats.reset();
        let zeroed = stats.report();
        assert_eq!(zeroed.submitted, 0);
        assert_eq!(zeroed.batches, 0);
        assert!(zeroed.occupancy.iter().all(|b| b.batches == 0));
    }

    #[test]
    fn report_serde_round_trip() {
        let stats = ServeStats::default();
        stats.record_submit(1);
        stats.record_batch(3, true);
        let report = stats.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeStatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
