//! # laf-serve
//!
//! Concurrent serving front for trained LAF pipelines: request coalescing
//! into the batch kernels, admission control, and atomic snapshot
//! hot-reload.
//!
//! ## Why a serving layer
//!
//! [`laf_core::LafPipeline`] is a synchronous handle: each caller runs its
//! own query, one at a time, on the scalar kernel path. But the linear scan
//! underneath has a blocked batch path: it packs up to 16 queries
//! (`laf_vector::tile::BLOCK_PROBES`) and scores each dataset row against
//! all of them while the row is hot — throughput that independent
//! single-query callers can never reach. [`LafServer`] closes that gap with
//! the standard continuous-batching idea: requests from any number of
//! threads land in a queue, a dispatcher thread merges them inside a
//! bounded micro-batch window, one batch-kernel call answers the whole
//! merged batch, and the per-request results scatter back to the blocked
//! callers. Each engine's batch entry points are bit-identical to its
//! per-query forms, so coalescing is invisible to callers — same results,
//! better throughput.
//!
//! Submission comes in two shapes: [`LafServer::submit`] blocks until its
//! result is served, and [`LafServer::submit_async`] returns a [`Ticket`]
//! immediately so one caller can keep several requests in flight. Pipelined
//! tickets are how a single connection still fills whole batches: the
//! dispatcher coalesces whatever is queued, no matter how many threads
//! queued it.
//!
//! ## One front door
//!
//! Every request kind — the four reads and the two writes — is a variant of
//! [`QueryRequest`], answered by the matching [`QueryResponse`] variant.
//! [`LafServer::submit`] / [`LafServer::submit_async`] (and
//! [`TenantServer::submit`] for multi-tenant routing) are the only request
//! methods, and the dispatcher queues, groups and answers the caller's
//! `QueryRequest` as submitted. The served dimensionality is fixed at
//! start: a read of another length fails at submission with
//! [`ServeError::DimensionMismatch`] and never reaches the kernels.
//!
//! ## Mutable serving
//!
//! [`LafServer::start_mutable`] serves a [`laf_core::MutablePipeline`]:
//! insert/delete requests route through its write-ahead log and reads
//! answer through the merged base+delta path, all in queue order, so a
//! caller that pipelines a write then a read observes its own write.
//! Writes in one batch share a single WAL sync (group commit) and are
//! acknowledged only after it succeeds. With
//! [`ServeConfig::compact_threshold`] set, the dispatcher folds the delta
//! into a fresh base snapshot in the background of the request stream and
//! publishes it as a new epoch — the mutable plane's hot-reload.
//!
//! ## Flush policy
//!
//! The dispatcher flushes the queue into a batch when the first of these
//! holds:
//!
//! 1. **Size cap** — `max_batch` requests are queued (takes `max_batch`);
//! 2. **Early flush** — at least [`TILE`] (= 4) requests are queued (takes
//!    the largest multiple of [`TILE`]). This is a latency heuristic, not a
//!    kernel width: the linear scan blocks 16 queries at a time and answers
//!    a smaller batch with one scan per query (see [`TILE`]);
//! 3. **Deadline** — the oldest queued request has waited
//!    `coalesce_window_us` (takes everything queued): the window bounds the
//!    queueing latency a lone request can pay;
//! 4. **Shutdown** — the server is stopping: everything queued is drained
//!    and answered, never dropped.
//!
//! ## Admission control
//!
//! The queue is bounded by `max_queue_depth`. A submission that finds the
//! queue full fails fast with [`ServeError::Overloaded`] instead of
//! buffering without limit — under sustained overload the queue would
//! otherwise grow unboundedly, turning a throughput deficit into unbounded
//! memory growth and unbounded latency. Rejected requests are counted on
//! [`ServeStats`]; the retry policy belongs to the caller.
//!
//! ## Hot reload
//!
//! [`LafServer::reload`] swaps the served snapshot atomically: the
//! replacement pipeline's engine is built *before* the swap, then an
//! epoch-tagged `Arc` flip makes it current. Batches already dispatched
//! drain on the epoch they started with (they hold the old `Arc`, which the
//! mmap snapshot path makes cheap to keep alive); every response carries
//! the epoch that served it ([`Served::epoch`]), so callers can tell
//! exactly which snapshot generation answered. No lock is held across any
//! kernel work and no request is ever lost or answered by a mix of epochs.
//!
//! ## Multi-tenant snapshot cache
//!
//! A host that serves many tenants cannot keep every snapshot resident.
//! [`SnapshotCache`] is a buffer manager over snapshot files: tenants
//! register their (read-only) snapshot paths, [`SnapshotCache::pin`]
//! returns a pinned pipeline — loading it via mmap on a miss, evicting
//! the least recently used unpinned snapshots when the byte budget or
//! entry cap would be exceeded — and dropping the [`PinnedSnapshot`]
//! guard makes the entry evictable again. Pinned
//! entries are never evicted; an admission that cannot make room fails
//! with the typed [`CacheError::Overloaded`], and a non-loading
//! [`SnapshotCache::try_pin`] reports cold tenants as
//! [`CacheError::Evicted`]. [`TenantServer`] routes per-tenant queries
//! through the cache with answers bit-identical to the tenant's own
//! pipeline.
//!
//! ## Self-healing maintenance
//!
//! [`SnapshotCache::scrub`] detects on-disk corruption and quarantines it;
//! [`MaintenanceSupervisor`] closes the loop unattended: a background
//! thread periodically scrubs, and drives every quarantined tenant through
//! a `Healthy → Quarantined → Repairing → Healthy | Failed` state machine
//! by re-fetching a known-good snapshot from a [`SnapshotSource`] (an
//! ordered replica set), fully CRC-verifying each candidate, and
//! publishing it through the ordinary [`SnapshotCache::register`] path —
//! so concurrent pins never observe a half-repaired tenant. Pacing is
//! injectable ([`MaintenanceConfig::scrub_interval_us`] `0` = manual
//! [`MaintenanceSupervisor::tick`]s, the mode the chaos tests drive) and
//! every transition is counted on [`CacheStatsReport`].
//!
//! ```
//! use laf_serve::{LafServer, QueryRequest, QueryResponse, ServeConfig};
//! # use laf_core::{LafConfig, LafPipeline};
//! # use laf_cardest::{NetConfig, TrainingSetBuilder};
//! # let (data, _) = laf_synth::EmbeddingMixtureConfig {
//! #     n_points: 200, dim: 8, clusters: 3, ..Default::default()
//! # }.generate().unwrap();
//! # let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
//! #     .net(NetConfig::tiny())
//! #     .training(TrainingSetBuilder { max_queries: Some(40), ..Default::default() })
//! #     .train(data).unwrap();
//! let query: Vec<f32> = pipeline.data().row(0).to_vec();
//! let server = LafServer::start(pipeline, ServeConfig::default());
//! std::thread::scope(|scope| {
//!     for _ in 0..8 {
//!         let (server, query) = (&server, &query);
//!         scope.spawn(move || {
//!             let request = QueryRequest::Range { query: query.clone(), eps: 0.3 };
//!             match server.submit(request).expect("admitted").value {
//!                 QueryResponse::Range(hits) => assert!(hits.contains(&0)),
//!                 other => panic!("range request answered with {other:?}"),
//!             }
//!         });
//!     }
//! });
//! let report = server.shutdown();
//! assert_eq!(report.completed, 8);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod maintenance;
mod request;
mod server;
mod stats;
mod tenant;

pub use cache::{
    CacheConfig, CacheError, CacheStats, CacheStatsReport, PinnedSnapshot, ScrubReport,
    SnapshotCache,
};
pub use config::{ServeConfig, TILE};
pub use maintenance::{
    MaintenanceConfig, MaintenanceSupervisor, RepairError, ReplicaSet, SnapshotSource, TenantHealth,
};
pub use request::{QueryRequest, QueryResponse, WriteError};
pub use server::{LafServer, ServeError, Served, Ticket};
pub use stats::{OccupancyBucket, ServeStats, ServeStatsReport, OCCUPANCY_BUCKETS};
pub use tenant::TenantServer;
