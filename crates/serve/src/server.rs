//! The coalescing dispatcher: [`LafServer`].

use crate::config::{ServeConfig, TILE};
use crate::request::{QueryRequest, QueryResponse, WriteError};
use crate::stats::{ServeStats, ServeStatsReport};
use laf_core::fault;
use laf_core::{LafPipeline, MutablePipeline, SharedEngine, SnapshotError};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry budget for the dispatcher's transient-I/O edges: a failed WAL
/// group-commit sync is retried up to this many times before the batch's
/// writes are rejected, and a failed background compaction up to
/// [`COMPACT_RETRIES`] times before the failure latches the backoff floor.
/// Backoff doubles from [`RETRY_BACKOFF_BASE_US`] per retry.
const WAL_SYNC_RETRIES: u32 = 3;
/// Immediate re-attempts of a failed background compaction (see
/// [`WAL_SYNC_RETRIES`]); the existing backlog-growth backoff still governs
/// when a batch re-attempts after these are exhausted.
const COMPACT_RETRIES: u32 = 2;

/// Retry budget for a transient dispatcher flush stall (the
/// `serve.coalesce.flush` failpoint). The batch is dispatched after the
/// budget regardless — a stall delays a flush, it never drops one.
const FLUSH_RETRIES: u32 = 3;
/// First-retry backoff; retry `n` sleeps `base << (n - 1)` microseconds.
const RETRY_BACKOFF_BASE_US: u64 = 100;

/// Sleep before retry number `attempt` (1-based) of a transient failure.
fn retry_backoff(attempt: u32) {
    std::thread::sleep(Duration::from_micros(
        RETRY_BACKOFF_BASE_US << (attempt - 1).min(10),
    ));
}

/// Why a submission did not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue already held
    /// `depth` requests against a bound of `limit`. The caller owns the
    /// retry policy (back off, shed load, or fail the end-user request);
    /// the server never buffers beyond the bound.
    Overloaded {
        /// Queue depth observed at submission time.
        depth: usize,
        /// The configured `max_queue_depth`.
        limit: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// A write was submitted to a server without a mutable pipeline (one
    /// started with [`LafServer::start`] rather than
    /// [`LafServer::start_mutable`]).
    ReadOnly,
    /// The caller's deadline expired before the dispatcher served the
    /// request ([`ServeConfig::request_deadline_us`] on the blocking paths,
    /// or an explicit [`Ticket::wait_timeout`]). The request itself is
    /// **not** cancelled: the dispatcher still answers and counts it, the
    /// result is simply abandoned — exactly like dropping a ticket.
    Timeout {
        /// How long the caller waited before giving up, in microseconds.
        waited_us: u64,
    },
    /// A [`LafServer::reload`] epoch flip failed; the server kept serving
    /// the previous epoch. The caller still owns the replacement workflow
    /// (rebuild the pipeline and reload again).
    ReloadFailed,
    /// A read's query vector, or a [`LafServer::reload`] replacement's
    /// rows, do not have the dimensionality the server was started with.
    /// Rejected before anything is queued or swapped.
    DimensionMismatch {
        /// The served dimensionality, fixed at start.
        expected: usize,
        /// The length that was offered.
        actual: usize,
    },
    /// [`LafServer::reload`] was called on a mutable server, whose epochs
    /// are published by its own compactions.
    Mutable,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, limit } => {
                write!(f, "server overloaded: queue depth {depth} at limit {limit}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::ReadOnly => write!(f, "server is read-only: writes need start_mutable"),
            ServeError::Timeout { waited_us } => {
                write!(f, "request deadline expired after {waited_us}us")
            }
            ServeError::ReloadFailed => {
                write!(
                    f,
                    "epoch flip failed: the previous snapshot is still serving"
                )
            }
            ServeError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "dimensionality mismatch: served {expected}, got {actual}"
                )
            }
            ServeError::Mutable => {
                write!(
                    f,
                    "reload on a mutable server: compaction publishes its epochs"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A served result, tagged with the snapshot epoch that produced it.
///
/// Hot-reload makes the epoch part of the response contract: a caller that
/// races a [`LafServer::reload`] can tell which snapshot answered, and the
/// stress tests use it to verify responses are never torn across epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served<T> {
    /// The epoch of the snapshot that served this result (starts at 1,
    /// incremented by every [`LafServer::reload`]).
    pub epoch: u64,
    /// The result itself.
    pub value: T,
}

/// Batch-grouping key: requests dispatch through one kernel call iff they
/// share a kind and its parameter (ε compared by bit pattern — the kernels
/// take one ε per batch). Writes never group (they only occur on the
/// mutable path, which processes the batch in queue order).
fn group_key(request: &QueryRequest) -> (u8, u64) {
    match request {
        QueryRequest::Range { eps, .. } => (0, eps.to_bits() as u64),
        QueryRequest::RangeCount { eps, .. } => (1, eps.to_bits() as u64),
        QueryRequest::Knn { k, .. } => (2, *k as u64),
        QueryRequest::Estimate { eps, .. } => (3, eps.to_bits() as u64),
        QueryRequest::Insert { .. } => (4, 0),
        QueryRequest::Delete { dense } => (5, *dense),
    }
}

/// `Ok` when `actual` matches the dimensionality the server was started with.
fn check_dim(expected: usize, actual: usize) -> Result<(), ServeError> {
    if actual == expected {
        Ok(())
    } else {
        Err(ServeError::DimensionMismatch { expected, actual })
    }
}

/// The rendezvous cell a blocked caller waits on.
struct Slot<T> {
    filled: Mutex<Option<Served<T>>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    fn deliver(&self, epoch: u64, value: T) {
        *self.filled.lock().unwrap() = Some(Served { epoch, value });
        self.ready.notify_one();
    }

    fn wait(&self) -> Served<T> {
        let mut guard = self.filled.lock().unwrap();
        loop {
            match guard.take() {
                Some(served) => return served,
                None => guard = self.ready.wait(guard).unwrap(),
            }
        }
    }

    /// Like [`Slot::wait`], but give up after `timeout`; `Err` carries the
    /// microseconds actually waited.
    fn wait_deadline(&self, timeout: Duration) -> Result<Served<T>, u64> {
        let start = Instant::now();
        let mut guard = self.filled.lock().unwrap();
        loop {
            if let Some(served) = guard.take() {
                return Ok(served);
            }
            let elapsed = start.elapsed();
            let Some(remaining) = timeout.checked_sub(elapsed) else {
                return Err(elapsed.as_micros() as u64);
            };
            (guard, _) = self.ready.wait_timeout(guard, remaining).unwrap();
        }
    }
}

/// A queued request: the caller's own [`QueryRequest`], which owns its
/// query vector so it outlives the caller's borrow while the batch waits in
/// the window.
struct Pending {
    request: QueryRequest,
    slot: Arc<Slot<QueryResponse>>,
    submitted: Instant,
}

/// A handle to a submitted-but-not-yet-answered request.
///
/// Returned by [`LafServer::submit_async`] as a `Ticket<QueryResponse>`.
/// Holding several tickets pipelines requests: a client keeps N submissions
/// in flight and the dispatcher sees a deeper queue to coalesce from, which
/// is how a single-connection caller still fills whole batches. Waiting
/// consumes the ticket; dropping it abandons the result (the request is
/// still answered and counted, nobody observes the value).
#[must_use = "a ticket does nothing until waited on; drop abandons the result"]
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
    shared: Arc<Shared>,
}

impl<T> Ticket<T> {
    /// Block until the dispatcher delivers this request's result.
    pub fn wait(self) -> Served<T> {
        self.slot.wait()
    }

    /// Block at most `timeout` for the result. On expiry the ticket is
    /// consumed and the result abandoned — the dispatcher still answers and
    /// counts the request, exactly as if the ticket were dropped — and the
    /// timeout is counted on [`crate::ServeStats`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Served<T>, ServeError> {
        self.slot.wait_deadline(timeout).map_err(|waited_us| {
            self.shared.stats.record_timeout();
            ServeError::Timeout { waited_us }
        })
    }

    /// Whether the result is already delivered (a `wait` would not block).
    pub fn is_ready(&self) -> bool {
        self.slot.filled.lock().unwrap().is_some()
    }
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// One snapshot generation: the pipeline plus its built engine. In-flight
/// batches hold an `Arc<EpochState>` clone, so a reload never invalidates a
/// batch mid-dispatch — the old epoch drains, then drops.
struct EpochState {
    epoch: u64,
    pipeline: Arc<LafPipeline>,
    engine: SharedEngine,
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    /// Row dimensionality, fixed at start: every read's query vector and
    /// every reloaded pipeline must match it.
    dim: usize,
    state: Mutex<QueueState>,
    /// Signals the dispatcher: work arrived or shutdown was requested.
    wake: Condvar,
    current: Mutex<Arc<EpochState>>,
    /// The mutable pipeline, when this server was started with
    /// [`LafServer::start_mutable`]. Only the dispatcher locks it on the
    /// hot path (batches are processed in queue order under one guard), so
    /// the mutex is uncontended in steady state.
    mutable: Option<Mutex<MutablePipeline>>,
    stats: ServeStats,
}

/// A concurrent serving front over a [`LafPipeline`].
///
/// Callers from any number of threads submit [`QueryRequest`]s and block
/// until their [`QueryResponse`] is ready, or hold a [`Ticket`]. A dedicated
/// dispatcher thread coalesces queued requests into merged batches and runs
/// them through the engine's batch kernels, so concurrent single-query
/// callers get the blocked batch kernels that a synchronous
/// one-caller-at-a-time handle can never reach. See the crate docs for the
/// flush policy, admission control and the hot-reload epoch model.
pub struct LafServer {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl fmt::Debug for LafServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LafServer")
            .field("config", &self.shared.config)
            .field("epoch", &self.current_epoch())
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl LafServer {
    /// Start serving `pipeline` under `config`.
    ///
    /// Builds (or restores) the pipeline's engine eagerly — the first
    /// request should not pay the construction cost — and spawns the
    /// dispatcher thread. The server stops (draining every queued request)
    /// on [`LafServer::shutdown`] or drop.
    pub fn start(pipeline: LafPipeline, config: ServeConfig) -> Self {
        let engine = pipeline.engine();
        Self::start_inner(
            EpochState {
                epoch: 1,
                pipeline: Arc::new(pipeline),
                engine,
            },
            config,
            None,
        )
    }

    /// Start a **mutable** serving front over a [`MutablePipeline`].
    ///
    /// Reads answer through the pipeline's merged base+delta path
    /// (bit-identical to a from-scratch pipeline over the live rows) and
    /// writes route through its write-ahead log, all processed **in queue
    /// order** by the dispatcher — a caller that pipelines an insert
    /// followed by a read observes its own write. Writes in one batch are
    /// group-committed: a single WAL sync covers the batch, and results are
    /// delivered only after it succeeds.
    ///
    /// When [`ServeConfig::compact_threshold`] is non-zero, the dispatcher
    /// folds the delta into a fresh base snapshot after any batch that
    /// leaves at least that many pending operations, and publishes the
    /// compacted base as a new epoch — the same epoch-tagged flip as
    /// [`LafServer::reload`], so readers can tell exactly which base
    /// generation served them.
    pub fn start_mutable(mutable: MutablePipeline, config: ServeConfig) -> Self {
        let engine = mutable.base().engine();
        let epoch = EpochState {
            epoch: 1,
            pipeline: Arc::clone(mutable.base()),
            engine,
        };
        Self::start_inner(epoch, config, Some(mutable))
    }

    fn start_inner(
        epoch: EpochState,
        config: ServeConfig,
        mutable: Option<MutablePipeline>,
    ) -> Self {
        let shared = Arc::new(Shared {
            config,
            dim: epoch.pipeline.data().dim(),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            current: Mutex::new(Arc::new(epoch)),
            mutable: mutable.map(Mutex::new),
            stats: ServeStats::default(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("laf-serve-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Whether this server was started with [`LafServer::start_mutable`]
    /// (writes are admitted and reads see the mutable merge path).
    pub fn is_mutable(&self) -> bool {
        self.shared.mutable.is_some()
    }

    /// Submit any request kind without blocking on its result.
    ///
    /// This is the server's only front door: one entry point for every read
    /// and write kind, so routers hold a single `QueryRequest` value. The
    /// returned [`Ticket`] resolves to the same bits as the synchronous
    /// engine call on the snapshot of the resolved epoch (for example
    /// `pipeline.engine().range(query, eps)` for a
    /// [`QueryRequest::Range`]); submitting several tickets before waiting
    /// pipelines requests from one thread.
    ///
    /// # Errors
    /// Besides admission control ([`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`]): a read whose query vector does not have
    /// the served dimensionality fails with
    /// [`ServeError::DimensionMismatch`], and the write kinds fail with
    /// [`ServeError::ReadOnly`] unless the server is mutable
    /// ([`LafServer::start_mutable`]). An inserted row of the wrong length is
    /// admitted and answered with [`WriteError::DimensionMismatch`].
    pub fn submit_async(&self, request: QueryRequest) -> Result<Ticket<QueryResponse>, ServeError> {
        match request.read_query() {
            Some(query) => check_dim(self.shared.dim, query.len())?,
            None if self.shared.mutable.is_none() => return Err(ServeError::ReadOnly),
            None => {}
        }
        Ok(Ticket {
            slot: self.enqueue(request)?,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submit any request kind and block until it is served; see
    /// [`LafServer::submit_async`]. Applies
    /// [`ServeConfig::request_deadline_us`] when one is set and waits
    /// indefinitely otherwise.
    pub fn submit(&self, request: QueryRequest) -> Result<Served<QueryResponse>, ServeError> {
        let ticket = self.submit_async(request)?;
        match self.shared.config.deadline() {
            Some(deadline) => ticket.wait_timeout(deadline),
            None => Ok(ticket.wait()),
        }
    }

    /// Atomically swap the served snapshot: an epoch-tagged
    /// `Arc<LafPipeline>` flip.
    ///
    /// The replacement's engine is built **before** the swap is visible, so
    /// no request ever pays the construction cost inline. Requests already
    /// drained into a batch finish on the epoch they were dispatched with
    /// (their batch holds the old `Arc`); requests dispatched after the swap
    /// see the new one. Returns the new epoch number.
    ///
    /// # Errors
    /// [`ServeError::ReloadFailed`] when the epoch flip itself fails (the
    /// `serve.reload.swap` failpoint under fault injection). The failure is
    /// atomic: the previous epoch keeps serving, the replacement is
    /// discarded, and [`ServeStatsReport::reload_failures`] counts it.
    /// [`ServeError::DimensionMismatch`] when the replacement's rows do not
    /// have the served dimensionality, and [`ServeError::Mutable`] on a
    /// mutable server, which publishes new epochs itself through
    /// compaction; both are rejected before the engine is built.
    pub fn reload(&self, pipeline: LafPipeline) -> Result<u64, ServeError> {
        if self.is_mutable() {
            return Err(ServeError::Mutable);
        }
        check_dim(self.shared.dim, pipeline.data().dim())?;
        let engine = pipeline.engine();
        let pipeline = Arc::new(pipeline);
        let mut current = self.shared.current.lock().unwrap();
        // Failpoint: the flip fails after the engine build, before any
        // request can observe the replacement — all-or-nothing.
        if fault::fire("serve.reload.swap") {
            self.shared.stats.record_reload_failure();
            return Err(ServeError::ReloadFailed);
        }
        let epoch = current.epoch + 1;
        *current = Arc::new(EpochState {
            epoch,
            pipeline,
            engine,
        });
        self.shared.stats.record_reload();
        Ok(epoch)
    }

    /// The epoch new requests are currently served under.
    pub fn current_epoch(&self) -> u64 {
        self.shared.current.lock().unwrap().epoch
    }

    /// Live aggregate counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Convenience for [`ServeStats::report`].
    pub fn stats_report(&self) -> ServeStatsReport {
        self.shared.stats.report()
    }

    /// Requests currently queued (excluding any batch being dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Stop admitting requests, drain everything already queued, join the
    /// dispatcher and return the final counters. Dropping the server does
    /// the same minus the report.
    pub fn shutdown(mut self) -> ServeStatsReport {
        self.shutdown_inner();
        self.shared.stats.report()
    }

    fn shutdown_inner(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }

    fn enqueue(&self, request: QueryRequest) -> Result<Arc<Slot<QueryResponse>>, ServeError> {
        let slot = Arc::new(Slot {
            filled: Mutex::new(None),
            ready: Condvar::new(),
        });
        let depth = {
            let mut state = self.shared.state.lock().unwrap();
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let depth = state.queue.len();
            if depth >= self.shared.config.max_queue_depth {
                self.shared.stats.record_reject();
                return Err(ServeError::Overloaded {
                    depth,
                    limit: self.shared.config.max_queue_depth,
                });
            }
            state.queue.push_back(Pending {
                request,
                slot: Arc::clone(&slot),
                submitted: Instant::now(),
            });
            let depth = state.queue.len();
            self.shared.stats.record_submit(depth);
            depth
        };
        // Wake the dispatcher only when this submission changes what it
        // would do: the first request arms the window deadline, and a whole
        // multiple of TILE or a full batch makes a flush eligible right now.
        // Intermediate depths would be spurious wake-ups (the dispatcher
        // re-checks and goes back to sleep), and under load those wake-ups
        // are the dominant per-request dispatch cost. Depths skipped here
        // are never lost: the dispatcher re-reads the whole queue at every
        // wake and at the window deadline.
        let max_batch = self.shared.config.max_batch.max(1);
        if depth == 1 || depth >= max_batch || (max_batch >= TILE && depth % TILE == 0) {
            self.shared.wake.notify_one();
        }
        Ok(slot)
    }
}

impl Drop for LafServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The dispatcher thread: wait for work, apply the flush policy, run the
/// merged batch through the batch kernels, scatter results.
fn dispatch_loop(shared: &Shared) {
    let window = shared.config.window();
    let max_batch = shared.config.max_batch.max(1);
    // Backoff latch for failed compactions: pending-op count the backlog
    // must reach before compaction is attempted again (0 = no failure
    // outstanding). Dispatcher-local — only this thread compacts.
    let mut compact_floor = 0usize;
    loop {
        let batch: Vec<Pending> = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.queue.is_empty() {
                    if state.shutdown {
                        drop(state);
                        // Final durability point: queued writes were group-
                        // committed per batch, but make shutdown an explicit
                        // sync so a clean stop never depends on batch timing.
                        if let Some(mutable) = &shared.mutable {
                            let _ = mutable.lock().unwrap().sync();
                        }
                        return;
                    }
                    state = shared.wake.wait(state).unwrap();
                    continue;
                }
                let n = state.queue.len();
                let oldest = state.queue.front().expect("queue is non-empty").submitted;
                // Flush policy, in priority order: drain on shutdown; flush a
                // full batch; flush the largest multiple of TILE at once (a
                // latency heuristic, see `TILE`); flush whatever is queued
                // once the oldest request has waited out the window;
                // otherwise sleep until that deadline.
                let take = if state.shutdown || n >= max_batch {
                    max_batch.min(n)
                } else if n >= TILE && max_batch >= TILE {
                    (n - n % TILE).min(max_batch)
                } else if oldest.elapsed() >= window {
                    n
                } else {
                    let remaining = window.saturating_sub(oldest.elapsed());
                    let (guard, _) = shared.wake.wait_timeout(state, remaining).unwrap();
                    state = guard;
                    continue;
                };
                break state.queue.drain(..take).collect();
            }
        };
        // Failpoint: a transient flush stall (the downstream kernel pool is
        // briefly saturated). Retried with the dispatcher's usual doubling
        // backoff; the batch is dispatched after the budget no matter what —
        // a stall delays answers, it never drops them.
        let mut flush_attempt = 0;
        while fault::fire("serve.coalesce.flush") && flush_attempt < FLUSH_RETRIES {
            flush_attempt += 1;
            shared.stats.record_flush_retry();
            retry_backoff(flush_attempt);
        }
        shared
            .stats
            .record_batch(batch.len(), shared.mutable.is_none());
        match &shared.mutable {
            Some(mutable) => answer_mutable(shared, mutable, &batch, &mut compact_floor),
            None => {
                // The whole batch is answered by ONE epoch: grab the current
                // handle once, outside the queue lock. A concurrent reload
                // after this point affects the next batch, never this one.
                let epoch = Arc::clone(&shared.current.lock().unwrap());
                answer(&epoch, &batch);
            }
        }
    }
}

/// Answer one batch on the mutable path: every request — read or write —
/// is processed **in queue order** against the merged base+delta state, so
/// a pipelined caller reads its own writes. Successful writes are
/// group-committed with one WAL sync before any of them is acknowledged; if
/// the sync fails, their acks degrade to [`WriteError::Storage`] (the
/// in-memory state may be ahead of the log, exactly as if the process had
/// crashed before the sync — replay recovers the synced prefix).
///
/// After delivery, folds the delta into a fresh base and publishes it as a
/// new epoch when [`ServeConfig::compact_threshold`] is reached. A failed
/// compaction is counted on [`ServeStats`] and raises `compact_floor` so
/// the (likely still-failing, full-rebuild-sized) attempt is not retried on
/// every subsequent batch — only once the write backlog has grown by
/// another threshold's worth of operations.
fn answer_mutable(
    shared: &Shared,
    mutable: &Mutex<MutablePipeline>,
    batch: &[Pending],
    compact_floor: &mut usize,
) {
    let mut pipeline = mutable.lock().unwrap();
    let epoch = shared.current.lock().unwrap().epoch;
    let mut responses: Vec<QueryResponse> = Vec::with_capacity(batch.len());
    let mut wrote = false;
    for pending in batch {
        let response = match &pending.request {
            QueryRequest::Range { query, eps } => QueryResponse::Range(pipeline.range(query, *eps)),
            QueryRequest::RangeCount { query, eps } => {
                QueryResponse::Count(pipeline.range_count(query, *eps))
            }
            QueryRequest::Knn { query, k } => QueryResponse::Knn(pipeline.knn(query, *k)),
            QueryRequest::Estimate { query, eps } => {
                QueryResponse::Estimate(pipeline.estimate(query, *eps))
            }
            QueryRequest::Insert { row } => match pipeline.insert(row) {
                Ok(lsn) => {
                    wrote = true;
                    QueryResponse::Written { lsn }
                }
                Err(SnapshotError::Malformed(_)) => {
                    QueryResponse::Rejected(WriteError::DimensionMismatch)
                }
                Err(_) => QueryResponse::Rejected(WriteError::Storage),
            },
            QueryRequest::Delete { dense } => match pipeline.delete(*dense as usize) {
                Ok(lsn) => {
                    wrote = true;
                    QueryResponse::Written { lsn }
                }
                Err(SnapshotError::Malformed(_)) => {
                    QueryResponse::Rejected(WriteError::OutOfBounds)
                }
                Err(_) => QueryResponse::Rejected(WriteError::Storage),
            },
        };
        responses.push(response);
    }
    // Group commit with bounded retry: a transient sync failure (a busy
    // device, an injected fault) is retried with doubling backoff before
    // the batch's writes are rejected. Rejecting is still safe — the
    // in-memory state may be ahead of the log, exactly as if the process
    // had crashed before the sync — but a retry that lands keeps the acks.
    let mut commit_failed = false;
    if wrote {
        for attempt in 0..=WAL_SYNC_RETRIES {
            if attempt > 0 {
                retry_backoff(attempt);
                shared.stats.record_wal_sync_retry();
            }
            commit_failed = pipeline.sync().is_err();
            if !commit_failed {
                break;
            }
        }
    }
    for (pending, response) in batch.iter().zip(responses) {
        let response = match response {
            QueryResponse::Written { .. } if commit_failed => {
                QueryResponse::Rejected(WriteError::Storage)
            }
            other => other,
        };
        pending.slot.deliver(epoch, response);
    }

    let threshold = shared.config.compact_threshold;
    let pending = pipeline.pending_ops();
    if threshold != 0 && pending >= threshold && pending >= *compact_floor {
        // Bounded immediate retry for transient compaction I/O errors;
        // compact() mutates nothing visible until its manifest flip, so a
        // failed attempt is safe to re-run. Only after the retries are
        // exhausted does the failure latch the backlog-growth backoff.
        let mut result = pipeline.compact();
        let mut attempt = 0;
        while result.is_err() && attempt < COMPACT_RETRIES {
            attempt += 1;
            retry_backoff(attempt);
            shared.stats.record_compact_retry();
            result = pipeline.compact();
        }
        match result {
            Ok(()) => {
                *compact_floor = 0;
                // Failpoint: the post-compaction epoch flip fails. Safe to
                // skip — mutable reads go through the pipeline directly, so
                // only the epoch *tag* on responses stays behind until the
                // next successful publish. The compaction itself is durable.
                if fault::fire("serve.reload.swap") {
                    shared.stats.record_reload_failure();
                } else {
                    let engine = pipeline.base().engine();
                    let mut current = shared.current.lock().unwrap();
                    *current = Arc::new(EpochState {
                        epoch: current.epoch + 1,
                        pipeline: Arc::clone(pipeline.base()),
                        engine,
                    });
                    shared.stats.record_reload();
                }
            }
            Err(_) => {
                shared.stats.record_compact_failure();
                *compact_floor = pending + threshold;
            }
        }
    }
}

/// Run one merged batch through the kernels and deliver each result.
fn answer(epoch: &EpochState, batch: &[Pending]) {
    // Partition by (kind, parameter) so every group becomes exactly one
    // batch-kernel call; each engine guarantees its batch entry points are
    // bit-identical to the per-query forms, which is what makes coalescing
    // invisible to callers. A uniform batch (one kind, one parameter — the
    // common serving shape) skips the partition map entirely.
    let first_key = group_key(&batch[0].request);
    if batch.iter().all(|p| group_key(&p.request) == first_key) {
        let group: Vec<&Pending> = batch.iter().collect();
        return answer_group(epoch, &group);
    }
    let mut groups: HashMap<(u8, u64), Vec<&Pending>> = HashMap::new();
    for pending in batch {
        groups
            .entry(group_key(&pending.request))
            .or_default()
            .push(pending);
    }
    for group in groups.values() {
        answer_group(epoch, group);
    }
}

/// One batch-kernel call for a group that shares a (kind, parameter) key.
fn answer_group(epoch: &EpochState, group: &[&Pending]) {
    let queries: Vec<&[f32]> = group
        .iter()
        .filter_map(|p| p.request.read_query())
        .collect();
    let responses: Vec<QueryResponse> = match group[0].request {
        QueryRequest::Range { eps, .. } => {
            let results = epoch.engine.range_batch(&queries, eps);
            results.into_iter().map(QueryResponse::Range).collect()
        }
        QueryRequest::RangeCount { eps, .. } => {
            let results = epoch.engine.range_count_batch(&queries, eps);
            results.into_iter().map(QueryResponse::Count).collect()
        }
        QueryRequest::Knn { k, .. } => {
            let results = epoch.engine.knn_batch(&queries, k);
            results.into_iter().map(QueryResponse::Knn).collect()
        }
        QueryRequest::Estimate { eps, .. } => {
            let results = epoch.pipeline.estimate_batch(&queries, eps);
            results.into_iter().map(QueryResponse::Estimate).collect()
        }
        QueryRequest::Insert { .. } | QueryRequest::Delete { .. } => {
            unreachable!("writes are admitted only on mutable servers, which answer in order")
        }
    };
    for (pending, response) in group.iter().zip(responses) {
        pending.slot.deliver(epoch.epoch, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::LafConfig;
    use laf_index::Neighbor;
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::Dataset;

    fn data(seed: u64, dim: usize) -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim,
            clusters: 4,
            noise_fraction: 0.2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn pipeline_of_dim(seed: u64, dim: usize) -> LafPipeline {
        LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data(seed, dim))
            .unwrap()
    }

    fn pipeline(seed: u64) -> LafPipeline {
        pipeline_of_dim(seed, 12)
    }

    fn range(query: &[f32], eps: f32) -> QueryRequest {
        QueryRequest::Range {
            query: query.to_vec(),
            eps,
        }
    }

    fn count(query: &[f32], eps: f32) -> QueryRequest {
        QueryRequest::RangeCount {
            query: query.to_vec(),
            eps,
        }
    }

    fn insert(row: &[f32]) -> QueryRequest {
        QueryRequest::Insert { row: row.to_vec() }
    }

    fn hits(response: QueryResponse) -> Vec<u32> {
        match response {
            QueryResponse::Range(hits) => hits,
            other => panic!("expected a range response, got {other:?}"),
        }
    }

    fn n(response: QueryResponse) -> usize {
        match response {
            QueryResponse::Count(n) => n,
            other => panic!("expected a count response, got {other:?}"),
        }
    }

    fn lsn(response: QueryResponse) -> Result<u64, WriteError> {
        match response {
            QueryResponse::Written { lsn } => Ok(lsn),
            QueryResponse::Rejected(err) => Err(err),
            other => panic!("expected a write response, got {other:?}"),
        }
    }

    fn assert_knn_bits(got: &[Neighbor], want: &[Neighbor], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.index, b.index, "{what}");
            assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "{what}");
        }
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn server_is_shareable_across_threads() {
        assert_send_sync::<LafServer>();
        assert_send_sync::<ServeError>();
        assert_send_sync::<Served<Vec<u32>>>();
    }

    #[test]
    fn served_results_match_the_synchronous_path() {
        let pipeline = pipeline(7);
        let engine = pipeline.engine();
        let queries: Vec<Vec<f32>> = (0..40).map(|i| pipeline.data().row(i).to_vec()).collect();
        let expected_range: Vec<Vec<u32>> = queries.iter().map(|q| engine.range(q, 0.3)).collect();
        let expected_count: Vec<usize> =
            queries.iter().map(|q| engine.range_count(q, 0.3)).collect();
        let expected_knn: Vec<Vec<Neighbor>> = queries.iter().map(|q| engine.knn(q, 5)).collect();
        let expected_est: Vec<f32> = queries.iter().map(|q| pipeline.estimate(q, 0.3)).collect();

        let server = LafServer::start(pipeline, ServeConfig::default());
        std::thread::scope(|scope| {
            for (i, q) in queries.iter().enumerate() {
                let server = &server;
                let expected_range = &expected_range;
                let expected_count = &expected_count;
                let expected_knn = &expected_knn;
                let expected_est = &expected_est;
                scope.spawn(move || {
                    let served = server.submit(range(q, 0.3)).unwrap();
                    assert_eq!(served.epoch, 1);
                    assert_eq!(hits(served.value), expected_range[i], "range query {i}");
                    let served = server.submit(count(q, 0.3)).unwrap();
                    assert_eq!(n(served.value), expected_count[i], "count query {i}");
                    let knn = QueryRequest::Knn {
                        query: q.clone(),
                        k: 5,
                    };
                    match server.submit(knn).unwrap().value {
                        QueryResponse::Knn(got) => {
                            assert_knn_bits(&got, &expected_knn[i], &format!("knn query {i}"))
                        }
                        other => panic!("knn request answered with {other:?}"),
                    }
                    let est = QueryRequest::Estimate {
                        query: q.clone(),
                        eps: 0.3,
                    };
                    match server.submit(est).unwrap().value {
                        QueryResponse::Estimate(est) => {
                            assert_eq!(est.to_bits(), expected_est[i].to_bits(), "estimate {i}")
                        }
                        other => panic!("estimate request answered with {other:?}"),
                    }
                });
            }
        });
        let report = server.shutdown();
        assert_eq!(report.submitted, 160);
        assert_eq!(report.completed, 160);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn tickets_pipeline_requests_from_one_thread() {
        let pipeline = pipeline(31);
        let engine = pipeline.engine();
        let queries: Vec<Vec<f32>> = (0..12).map(|i| pipeline.data().row(i).to_vec()).collect();
        let expected: Vec<usize> = queries.iter().map(|q| engine.range_count(q, 0.3)).collect();
        let server = LafServer::start(pipeline, ServeConfig::default());
        let tickets: Vec<Ticket<QueryResponse>> = queries
            .iter()
            .map(|q| server.submit_async(count(q, 0.3)).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait();
            assert_eq!(served.epoch, 1);
            assert_eq!(n(served.value), expected[i], "pipelined count query {i}");
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 12);
        assert!(
            report.batches < 12,
            "12 pipelined submissions from one thread must coalesce \
             (got {} batches)",
            report.batches
        );
    }

    #[test]
    fn dropped_tickets_are_still_answered_and_counted() {
        let pipeline = pipeline(37);
        let q: Vec<f32> = pipeline.data().row(0).to_vec();
        let server = LafServer::start(pipeline, ServeConfig::default());
        let kept = server.submit_async(count(&q, 0.3)).unwrap();
        drop(server.submit_async(count(&q, 0.3)).unwrap());
        let served = kept.wait();
        assert_eq!(served.epoch, 1);
        let report = server.shutdown();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.completed, 2, "abandoned tickets still drain");
    }

    #[test]
    fn uncoalesced_config_serves_identically() {
        let pipeline = pipeline(9);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(3).to_vec();
        let expected = engine.range(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::uncoalesced());
        assert_eq!(hits(server.submit(range(&q, 0.3)).unwrap().value), expected);
    }

    #[test]
    fn coalescing_actually_batches_under_concurrency() {
        let pipeline = pipeline(11);
        let queries: Vec<Vec<f32>> = (0..64).map(|i| pipeline.data().row(i).to_vec()).collect();
        let server = LafServer::start(
            pipeline,
            ServeConfig {
                coalesce_window_us: 5_000,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for q in &queries {
                let server = &server;
                scope.spawn(move || {
                    server.submit(range(q, 0.3)).unwrap();
                });
            }
        });
        let report = server.shutdown();
        assert_eq!(report.completed, 64);
        assert!(
            report.batches < 64,
            "64 concurrent requests must coalesce into fewer than 64 batches \
             (got {} batches, mean occupancy {:.2})",
            report.batches,
            report.mean_batch_occupancy
        );
    }

    /// A server whose config lets tests park 3 clients in the queue: below
    /// `TILE`, inside a long window, the dispatcher will not flush
    /// them until woken.
    fn parking_server(config: ServeConfig, seed: u64) -> (LafServer, Vec<f32>) {
        let pipeline = pipeline(seed);
        let q: Vec<f32> = pipeline.data().row(0).to_vec();
        (LafServer::start(pipeline, config), q)
    }

    fn wait_for_depth(server: &LafServer, depth: usize) {
        while server.queue_depth() < depth {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Wake the dispatcher into its shutdown drain without consuming the
    /// server (scoped client threads still borrow it).
    fn trigger_shutdown(server: &LafServer) {
        server.shared.state.lock().unwrap().shutdown = true;
        server.shared.wake.notify_all();
    }

    #[test]
    fn admission_control_rejects_beyond_the_bound() {
        let (server, q) = parking_server(
            ServeConfig {
                coalesce_window_us: 500_000,
                max_batch: 8,
                max_queue_depth: 3,
                ..ServeConfig::default()
            },
            13,
        );
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let server = &server;
                let q = &q;
                scope.spawn(move || {
                    let _ = server.submit(range(q, 0.3));
                });
            }
            wait_for_depth(&server, 3);
            // The queue is pinned at the bound until the window expires; one
            // more submission must bounce rather than buffer.
            match server.submit(count(&q, 0.3)) {
                Err(ServeError::Overloaded { depth, limit }) => {
                    assert_eq!(limit, 3);
                    assert!(depth >= limit);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
            trigger_shutdown(&server);
        });
        let report = server.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (server, q) = parking_server(
            ServeConfig {
                coalesce_window_us: 500_000,
                ..ServeConfig::default()
            },
            17,
        );
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let server = &server;
                let q = &q;
                scope.spawn(move || {
                    // Queued mid-window; shutdown must still answer it
                    // rather than losing it.
                    server.submit(range(q, 0.3)).unwrap();
                });
            }
            wait_for_depth(&server, 3);
            trigger_shutdown(&server);
        });
        let report = server.shutdown();
        assert_eq!(report.submitted, 3);
        assert_eq!(report.completed, 3, "no request may be lost");
    }

    #[test]
    fn reload_swaps_epochs_and_prebuilds_the_engine() {
        let server = LafServer::start(pipeline(19), ServeConfig::default());
        assert_eq!(server.current_epoch(), 1);
        let replacement = pipeline(23);
        let q: Vec<f32> = replacement.data().row(0).to_vec();
        let expected = replacement.engine().range(&q, 0.3);
        assert_eq!(server.reload(replacement).unwrap(), 2);
        assert_eq!(server.current_epoch(), 2);
        let served = server.submit(range(&q, 0.3)).unwrap();
        assert_eq!(served.epoch, 2);
        assert_eq!(hits(served.value), expected);
        assert_eq!(server.stats_report().reloads, 1);
    }

    fn mutable_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("laf_serve_mutable_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn submit_answers_every_kind_like_the_synchronous_engine() {
        let pipeline = pipeline(43);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(5).to_vec();
        let expected_range = engine.range(&q, 0.3);
        let expected_count = engine.range_count(&q, 0.3);
        let expected_knn = engine.knn(&q, 3);
        let expected_est = pipeline.estimate(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::default());
        assert!(!server.is_mutable());
        assert_eq!(
            hits(server.submit(range(&q, 0.3)).unwrap().value),
            expected_range
        );
        assert_eq!(
            n(server.submit(count(&q, 0.3)).unwrap().value),
            expected_count
        );
        match server
            .submit(QueryRequest::Knn {
                query: q.clone(),
                k: 3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Knn(neighbors) => assert_knn_bits(&neighbors, &expected_knn, "knn"),
            other => panic!("knn request answered with {other:?}"),
        }
        match server
            .submit(QueryRequest::Estimate {
                query: q.clone(),
                eps: 0.3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Estimate(est) => assert_eq!(est.to_bits(), expected_est.to_bits()),
            other => panic!("estimate request answered with {other:?}"),
        }
        // Writes bounce at submission on a read-only server.
        assert_eq!(server.submit(insert(&q)).unwrap_err(), ServeError::ReadOnly);
        assert_eq!(
            server
                .submit_async(QueryRequest::Delete { dense: 0 })
                .unwrap_err(),
            ServeError::ReadOnly
        );
    }

    #[test]
    fn malformed_reads_are_rejected_and_the_frozen_server_keeps_serving() {
        let pipeline = pipeline(79);
        let q: Vec<f32> = pipeline.data().row(2).to_vec();
        let expected = pipeline.engine().range_count(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::default());
        let short = &q[..11];
        let malformed = [
            range(short, 0.3),
            count(short, 0.3),
            QueryRequest::Knn {
                query: short.to_vec(),
                k: 3,
            },
            QueryRequest::Estimate {
                query: short.to_vec(),
                eps: 0.3,
            },
        ];
        for request in malformed {
            assert_eq!(
                server.submit_async(request).unwrap_err(),
                ServeError::DimensionMismatch {
                    expected: 12,
                    actual: 11
                }
            );
        }
        let long = [q.as_slice(), &[0.5]].concat();
        assert_eq!(
            server.submit(count(&long, 0.3)).unwrap_err(),
            ServeError::DimensionMismatch {
                expected: 12,
                actual: 13
            }
        );
        // The dispatcher never saw them: a well-formed read is still served.
        let ticket = server.submit_async(count(&q, 0.3)).unwrap();
        let served = ticket.wait_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(n(served.value), expected);

        // A replacement of another dimensionality is refused before the
        // swap; the old epoch keeps serving.
        assert_eq!(
            server.reload(pipeline_of_dim(83, 8)).unwrap_err(),
            ServeError::DimensionMismatch {
                expected: 12,
                actual: 8
            }
        );
        assert_eq!(server.current_epoch(), 1);
        assert_eq!(server.stats_report().reloads, 0);
        assert!(ServeError::DimensionMismatch {
            expected: 12,
            actual: 8
        }
        .to_string()
        .contains("served 12, got 8"));
        let report = server.shutdown();
        assert_eq!(report.submitted, 1, "rejected reads are never queued");
    }

    #[test]
    fn malformed_reads_are_rejected_and_the_mutable_server_keeps_serving() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(89);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let expected = frozen.engine().range_count(&q, 0.3);
        let dir = mutable_dir("malformed");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        assert_eq!(
            server.submit_async(count(&q[..7], 0.3)).unwrap_err(),
            ServeError::DimensionMismatch {
                expected: 12,
                actual: 7
            }
        );
        // The pipeline lock is not poisoned and the dispatcher is alive:
        // reads and writes after the rejected one are answered in time.
        let wait = Duration::from_secs(10);
        let t_count = server.submit_async(count(&q, 0.3)).unwrap();
        let t_short_row = server.submit_async(insert(&q[..7])).unwrap();
        assert_eq!(n(t_count.wait_timeout(wait).unwrap().value), expected);
        assert_eq!(
            lsn(t_short_row.wait_timeout(wait).unwrap().value),
            Err(WriteError::DimensionMismatch),
            "inserted rows keep their processing-time rejection"
        );
        // A mutable server's epochs come from its compactions only.
        assert_eq!(server.reload(frozen).unwrap_err(), ServeError::Mutable);
        assert_eq!(server.current_epoch(), 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutable_server_reads_its_own_writes_in_queue_order() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(47);
        let n_base = frozen.data().len() as u32;
        let dir = mutable_dir("ryw");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        assert!(server.is_mutable());

        // Pipeline an insert, a read that must see it, a delete, and a read
        // that must see the delete — all in flight before any wait.
        let row = vec![9.0f32; 12];
        let t_insert = server.submit_async(insert(&row)).unwrap();
        let t_seen = server.submit_async(count(&row, 1e-3)).unwrap();
        let t_delete = server
            .submit_async(QueryRequest::Delete {
                dense: n_base as u64,
            })
            .unwrap();
        let t_gone = server.submit_async(count(&row, 1e-3)).unwrap();
        assert_eq!(
            lsn(t_insert.wait().value),
            Ok(1),
            "first WAL record is LSN 1"
        );
        assert_eq!(
            n(t_seen.wait().value),
            1,
            "a pipelined read sees the insert"
        );
        assert_eq!(lsn(t_delete.wait().value), Ok(2));
        assert_eq!(n(t_gone.wait().value), 0, "and then sees the delete");

        // Processing-time rejections come back through the response.
        assert_eq!(
            lsn(server.submit(insert(&[1.0])).unwrap().value),
            Err(WriteError::DimensionMismatch)
        );
        let delete = QueryRequest::Delete { dense: u64::MAX };
        assert_eq!(
            lsn(server.submit(delete).unwrap().value),
            Err(WriteError::OutOfBounds)
        );
        assert_eq!(
            server.stats_report().tile_batches,
            0,
            "a mutable server answers each read on its own"
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_threshold_publishes_new_epochs() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(53);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let before = server.submit(range(&q, 0.3)).unwrap();
        assert_eq!(before.epoch, 1);
        let row = vec![4.0f32; 12];
        lsn(server.submit(insert(&row)).unwrap().value).unwrap();
        // The write batch left pending_ops >= 1, so the dispatcher folded
        // the delta into a new base and published it as epoch 2; answers
        // are unchanged by the fold.
        let after = server.submit(range(&q, 0.3)).unwrap();
        assert_eq!(after.epoch, 2, "compaction bumps the served epoch");
        assert_eq!(hits(after.value), hits(before.value));
        assert_eq!(n(server.submit(count(&row, 1e-3)).unwrap().value), 1);
        assert_eq!(server.stats_report().reloads, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_compaction_is_counted_and_backed_off() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(59);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact_fail");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        // Block the manifest flip: `Manifest::write` creates MANIFEST.tmp,
        // which fails (EISDIR) while this directory squats on the name, so
        // every compaction attempt errors after the write batch is acked.
        let blocker = dir.join("MANIFEST.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let row = vec![4.0f32; 12];
        lsn(server.submit(insert(&row)).unwrap().value).unwrap();
        let reads = server.submit(range(&q, 0.3)).unwrap();
        assert_eq!(reads.epoch, 1, "no epoch published by a failed compaction");
        let report = server.stats_report();
        assert_eq!(report.reloads, 0);
        assert_eq!(report.compact_failures, 1, "failure surfaced in stats");
        // Backoff: read-only batches (backlog unchanged) must not retry the
        // failing full rebuild.
        server.submit(range(&q, 0.3)).unwrap();
        server.submit(count(&q, 0.3)).unwrap();
        assert_eq!(
            server.stats_report().compact_failures,
            1,
            "no retry until the backlog grows"
        );
        // Once the backlog grows past the floor (old pending 1 + threshold
        // 1 = 2) and the blocker is gone, compaction recovers, publishes an
        // epoch, and resets the latch.
        std::fs::remove_dir(&blocker).unwrap();
        lsn(server.submit(insert(&row)).unwrap().value).unwrap();
        let after = server.submit(range(&q, 0.3)).unwrap();
        assert_eq!(after.epoch, 2, "recovered compaction publishes an epoch");
        assert_eq!(hits(after.value), hits(reads.value));
        let report = server.stats_report();
        assert_eq!(report.reloads, 1);
        assert_eq!(report.compact_failures, 1);
        assert_eq!(n(server.submit(count(&row, 1e-3)).unwrap().value), 2);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutable_server_state_survives_shutdown_and_reopen() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(59);
        let dir = mutable_dir("durable");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let n_before = mutable.len();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        let row = vec![2.5f32; 12];
        lsn(server.submit(insert(&row)).unwrap().value).unwrap();
        let delete = QueryRequest::Delete { dense: 0 };
        lsn(server.submit(delete).unwrap().value).unwrap();
        server.shutdown();
        let reopened = MutablePipeline::open(&dir).unwrap();
        assert_eq!(reopened.len(), n_before, "+1 insert, -1 delete");
        assert_eq!(reopened.last_lsn(), 2, "both writes recovered from the WAL");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_times_out_parked_requests() {
        let (server, q) = parking_server(
            ServeConfig {
                coalesce_window_us: 500_000,
                max_batch: 8,
                request_deadline_us: 2_000,
                ..ServeConfig::default()
            },
            61,
        );
        // One parked request — below `TILE`, inside the long window —
        // must unblock with a typed timeout, not hang for the window.
        match server.submit(range(&q, 0.3)) {
            Err(ServeError::Timeout { waited_us }) => assert!(waited_us >= 2_000, "{waited_us}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(server.stats_report().timeouts, 1);
        // The dispatcher still answers the abandoned request on drain.
        let report = server.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1, "timed-out requests still drain");
    }

    #[test]
    fn wait_timeout_returns_the_result_when_served_in_time() {
        let pipeline = pipeline(67);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(1).to_vec();
        let expected = engine.range_count(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::default());
        let ticket = server.submit_async(count(&q, 0.3)).unwrap();
        let served = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(n(served.value), expected);
        assert_eq!(server.stats_report().timeouts, 0);
        assert!(ServeError::Timeout { waited_us: 7 }
            .to_string()
            .contains("7us"));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_wal_sync_failures_are_absorbed_by_retry() {
        use laf_core::fault::{self, FaultMode, FaultPlan};
        use laf_core::MutablePipeline;
        let frozen = pipeline(71);
        let dir = mutable_dir("wal_retry");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        let row = vec![3.0f32; 12];
        // The registry is process-wide and sibling tests also sync; if one
        // of them consumes the single armed firing, re-arm and try again.
        let mut absorbed = false;
        for _ in 0..5 {
            fault::install(FaultPlan::new(1).with_site("wal.sync", FaultMode::OnceAt(0)));
            let written = lsn(server.submit(insert(&row)).unwrap().value);
            assert!(
                written.is_ok(),
                "a single transient sync failure must be retried away"
            );
            if server.stats_report().wal_sync_retries > 0 {
                absorbed = true;
                break;
            }
        }
        fault::clear();
        assert!(absorbed, "retry counter never advanced");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_compaction_failures_are_absorbed_by_retry() {
        use laf_core::fault::{self, FaultMode, FaultPlan};
        use laf_core::MutablePipeline;
        let frozen = pipeline(73);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact_retry");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let before = server.submit(range(&q, 0.3)).unwrap();
        fault::install(FaultPlan::new(2).with_site("compact.dir_fsync", FaultMode::OnceAt(0)));
        let row = vec![4.0f32; 12];
        lsn(server.submit(insert(&row)).unwrap().value).unwrap();
        fault::clear();
        let after = server.submit(range(&q, 0.3)).unwrap();
        let report = server.stats_report();
        assert_eq!(
            report.compact_failures, 0,
            "one transient fsync failure must not latch a compaction failure"
        );
        assert_eq!(
            after.epoch, 2,
            "retried compaction still publishes its epoch"
        );
        assert_eq!(hits(after.value), hits(before.value));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let mut server = LafServer::start(pipeline(29), ServeConfig::default());
        let q = vec![0.0f32; 12];
        server.shutdown_inner();
        assert_eq!(
            server.submit(range(&q, 0.3)).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(
            ServeError::ShuttingDown.to_string(),
            "server is shutting down"
        );
        let overloaded = ServeError::Overloaded { depth: 4, limit: 4 };
        assert!(overloaded.to_string().contains("queue depth 4"));
    }
}
