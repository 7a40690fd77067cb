//! The request/response surface shared by every serving front.
//!
//! [`QueryRequest`] is the single front door: one enum covers the four read
//! kinds plus the two write kinds of the mutable plane, and
//! [`QueryResponse`] is the one answer type. [`crate::LafServer::submit`] /
//! [`crate::LafServer::submit_async`] and [`crate::TenantServer::submit`]
//! are the only request methods, and the dispatcher queues the caller's
//! request as it was submitted. Both enums are `#[non_exhaustive]`: new
//! request kinds are an additive change, so routers matching on them must
//! carry a wildcard arm.

use laf_index::Neighbor;

/// Why a write reached the mutable pipeline but was not applied.
///
/// Distinct from [`crate::ServeError`], which covers *submission* failures:
/// a `WriteError` is delivered through the response (the request was
/// admitted, processed in order, and durably rejected without side effects).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The inserted row's dimensionality does not match the dataset's.
    DimensionMismatch,
    /// The delete target is not a live dense id (it may have been deleted
    /// by an earlier write in the same queue).
    OutOfBounds,
    /// Appending to or syncing the write-ahead log failed; the write is
    /// neither applied nor durable.
    Storage,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::DimensionMismatch => write!(f, "row dimensionality mismatch"),
            WriteError::OutOfBounds => write!(f, "delete target is not a live dense id"),
            WriteError::Storage => write!(f, "write-ahead log I/O failure"),
        }
    }
}

impl std::error::Error for WriteError {}

/// One request, any kind: the argument to [`crate::LafServer::submit`],
/// [`crate::LafServer::submit_async`] and [`crate::TenantServer::submit`].
///
/// Read kinds are answered on every server; their query vector must have
/// the served dimensionality, or the request is rejected with
/// [`crate::ServeError::DimensionMismatch`] (or
/// [`crate::CacheError::DimensionMismatch`] on a tenant server). The write
/// kinds route through the write-ahead log of a mutable server
/// ([`crate::LafServer::start_mutable`]) and are rejected with
/// [`crate::ServeError::ReadOnly`] (or [`crate::CacheError::ReadOnly`] on a
/// tenant server) everywhere else.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// ε-range query: ids of rows within `eps` of `query`, ascending.
    Range {
        /// The query vector.
        query: Vec<f32>,
        /// The range radius, in the configured metric.
        eps: f32,
    },
    /// ε-range count: how many rows lie within `eps` of `query`.
    RangeCount {
        /// The query vector.
        query: Vec<f32>,
        /// The range radius, in the configured metric.
        eps: f32,
    },
    /// k-nearest-neighbor query.
    Knn {
        /// The query vector.
        query: Vec<f32>,
        /// How many neighbors to return.
        k: usize,
    },
    /// Learned cardinality estimate for an ε-range count.
    Estimate {
        /// The query vector.
        query: Vec<f32>,
        /// The range radius, in the configured metric.
        eps: f32,
    },
    /// Insert a row (mutable servers only); logged before it is applied.
    Insert {
        /// The row to append.
        row: Vec<f32>,
    },
    /// Delete the row with this dense live id (mutable servers only).
    Delete {
        /// Dense live id of the row to delete, at the time this request is
        /// processed (earlier queued deletes shift later ids down).
        dense: u64,
    },
}

impl QueryRequest {
    /// The query vector of a read kind; `None` for the write kinds.
    pub(crate) fn read_query(&self) -> Option<&[f32]> {
        match self {
            QueryRequest::Range { query, .. }
            | QueryRequest::RangeCount { query, .. }
            | QueryRequest::Knn { query, .. }
            | QueryRequest::Estimate { query, .. } => Some(query),
            QueryRequest::Insert { .. } | QueryRequest::Delete { .. } => None,
        }
    }
}

/// The answer to a [`QueryRequest`], same-kind by construction: `Range`
/// requests resolve to [`QueryResponse::Range`], and so on; the write kinds
/// resolve to [`QueryResponse::Written`] on success and
/// [`QueryResponse::Rejected`] when the pipeline refused the write.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Row ids within range, ascending.
    Range(Vec<u32>),
    /// The neighbor count.
    Count(usize),
    /// The k nearest neighbors, nearest first.
    Knn(Vec<Neighbor>),
    /// The learned estimate.
    Estimate(f32),
    /// The write committed; `lsn` is its log sequence number.
    Written {
        /// Log sequence number assigned by the write-ahead log.
        lsn: u64,
    },
    /// The write was admitted but durably rejected without side effects.
    Rejected(WriteError),
}
