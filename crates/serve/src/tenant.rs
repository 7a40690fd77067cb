//! Multi-tenant request routing over a [`SnapshotCache`].
//!
//! [`TenantServer`] is the thin serving front for hosts that hold many
//! tenants' snapshots behind one memory budget: every query names a tenant,
//! the server pins that tenant's pipeline in the shared [`SnapshotCache`]
//! (loading it on a miss, evicting colder tenants as needed), runs the
//! query against the cached engine, and releases the pin when the answer is
//! built. Results are bit-identical to querying the tenant's pipeline
//! directly — the cache only changes *when* snapshots are resident, never
//! what they answer.

use crate::cache::{CacheError, PinnedSnapshot, SnapshotCache};
use crate::maintenance::{MaintenanceConfig, MaintenanceSupervisor, SnapshotSource};
use crate::request::{QueryRequest, QueryResponse};
use laf_clustering::Clustering;
use laf_core::LafStats;
use std::sync::Arc;

/// Routes per-tenant queries through a shared [`SnapshotCache`].
///
/// Cloning is cheap (the cache is shared); a `TenantServer` per worker
/// thread is the intended usage.
#[derive(Debug, Clone)]
pub struct TenantServer {
    cache: Arc<SnapshotCache>,
}

impl TenantServer {
    /// A server routing through `cache`.
    pub fn new(cache: Arc<SnapshotCache>) -> Self {
        Self { cache }
    }

    /// The underlying cache (for registration, stats, or direct pinning).
    pub fn cache(&self) -> &Arc<SnapshotCache> {
        &self.cache
    }

    /// Start a self-healing [`MaintenanceSupervisor`] over this server's
    /// cache: periodic scrub, quarantine, and replica-backed repair of
    /// every tenant the cache serves (see [`MaintenanceSupervisor`]). The
    /// supervisor stops and joins when the returned handle drops; requests
    /// keep flowing through `self` while it runs.
    pub fn start_maintenance(
        &self,
        source: Arc<dyn SnapshotSource>,
        config: MaintenanceConfig,
    ) -> MaintenanceSupervisor {
        MaintenanceSupervisor::start(Arc::clone(&self.cache), source, config)
    }

    /// Pin `tenant`'s pipeline for a multi-query request. Prefer
    /// [`TenantServer::submit`] for single lookups; use an explicit pin when
    /// several queries must see the same snapshot generation.
    pub fn pin(&self, tenant: &str) -> Result<PinnedSnapshot, CacheError> {
        self.cache.pin(tenant)
    }

    /// Answer any [`QueryRequest`] over `tenant`'s snapshot. Read kinds pin
    /// the tenant's pipeline for exactly one query and fail with
    /// [`CacheError::DimensionMismatch`] when the query vector does not
    /// have the tenant's dimensionality. Write kinds fail with
    /// [`CacheError::ReadOnly`] (cached snapshots are shared, mmap'd and
    /// immutable — a tenant that takes writes needs its own mutable server,
    /// [`crate::LafServer::start_mutable`]).
    pub fn submit(&self, tenant: &str, request: QueryRequest) -> Result<QueryResponse, CacheError> {
        let Some(actual) = request.read_query().map(<[f32]>::len) else {
            return Err(CacheError::ReadOnly {
                tenant: tenant.to_string(),
            });
        };
        let pin = self.cache.pin(tenant)?;
        let expected = pin.data().dim();
        if actual != expected {
            return Err(CacheError::DimensionMismatch {
                tenant: tenant.to_string(),
                expected,
                actual,
            });
        }
        Ok(match request {
            QueryRequest::Range { query, eps } => {
                QueryResponse::Range(pin.engine().get().range(&query, eps))
            }
            QueryRequest::RangeCount { query, eps } => {
                QueryResponse::Count(pin.engine().get().range_count(&query, eps))
            }
            QueryRequest::Knn { query, k } => QueryResponse::Knn(pin.engine().get().knn(&query, k)),
            QueryRequest::Estimate { query, eps } => {
                QueryResponse::Estimate(pin.estimate(&query, eps))
            }
            QueryRequest::Insert { .. } | QueryRequest::Delete { .. } => {
                unreachable!("write kinds rejected before pinning")
            }
        })
    }

    /// Run LAF-DBSCAN over `tenant`'s snapshot dataset.
    pub fn cluster_with_stats(&self, tenant: &str) -> Result<(Clustering, LafStats), CacheError> {
        let pin = self.cache.pin(tenant)?;
        Ok(pin.cluster_with_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, SnapshotCache};
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::{LafConfig, LafPipeline};
    use laf_synth::EmbeddingMixtureConfig;
    use std::path::PathBuf;

    fn snapshot_file(name: &str, seed: u64) -> (PathBuf, u64, LafPipeline) {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 90,
            dim: 6,
            clusters: 2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let dir = std::env::temp_dir().join("laf_serve_tenant");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.lafs", std::process::id()));
        let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(40),
                ..Default::default()
            })
            .train_and_save(data, &path)
            .unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        (path, bytes, pipeline)
    }

    #[test]
    fn tenant_queries_match_the_direct_pipeline() {
        let (pa, bytes, direct_a) = snapshot_file("a", 11);
        let (pb, _, direct_b) = snapshot_file("b", 22);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        let server = TenantServer::new(Arc::clone(&cache));
        for (tenant, direct) in [("a", &direct_a), ("b", &direct_b)] {
            let q: Vec<f32> = direct.data().row(0).to_vec();
            let engine = direct.engine();
            let submit = |request| server.submit(tenant, request).unwrap();
            match submit(QueryRequest::Range {
                query: q.clone(),
                eps: 0.3,
            }) {
                QueryResponse::Range(hits) => assert_eq!(hits, engine.get().range(&q, 0.3)),
                other => panic!("range request answered with {other:?}"),
            }
            match submit(QueryRequest::RangeCount {
                query: q.clone(),
                eps: 0.3,
            }) {
                QueryResponse::Count(n) => assert_eq!(n, engine.get().range_count(&q, 0.3)),
                other => panic!("count request answered with {other:?}"),
            }
            match submit(QueryRequest::Knn {
                query: q.clone(),
                k: 5,
            }) {
                QueryResponse::Knn(neighbors) => assert_eq!(neighbors, engine.get().knn(&q, 5)),
                other => panic!("knn request answered with {other:?}"),
            }
            match submit(QueryRequest::Estimate {
                query: q.clone(),
                eps: 0.3,
            }) {
                QueryResponse::Estimate(est) => assert_eq!(est, direct.estimate(&q, 0.3)),
                other => panic!("estimate request answered with {other:?}"),
            }
            let (clustering, stats) = server.cluster_with_stats(tenant).unwrap();
            let (want_clustering, want_stats) = direct.cluster_with_stats();
            assert_eq!(clustering.labels(), want_clustering.labels());
            assert_eq!(stats, want_stats);
        }
        // Every query after the two misses was a hit.
        let report = cache.report();
        assert_eq!(report.misses, 2);
        assert_eq!(report.pins, report.unpins, "all pins released");
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn tenant_writes_are_rejected_as_read_only() {
        let cache = SnapshotCache::new(CacheConfig::default());
        let server = TenantServer::new(cache);
        // Rejected before the pin: no UnknownTenant for a write, even on a
        // tenant that was never registered — the kind is wrong regardless.
        match server
            .submit("anyone", QueryRequest::Insert { row: vec![0.0] })
            .unwrap_err()
        {
            CacheError::ReadOnly { tenant } => assert_eq!(tenant, "anyone"),
            other => panic!("expected ReadOnly, got {other}"),
        }
        assert!(matches!(
            server
                .submit("anyone", QueryRequest::Delete { dense: 0 })
                .unwrap_err(),
            CacheError::ReadOnly { .. }
        ));
    }

    #[test]
    fn unknown_tenants_surface_the_cache_error() {
        let cache = SnapshotCache::new(CacheConfig::default());
        let server = TenantServer::new(cache);
        let request = QueryRequest::Range {
            query: vec![0.0],
            eps: 0.3,
        };
        assert!(matches!(
            server.submit("ghost", request).unwrap_err(),
            CacheError::UnknownTenant(_)
        ));
    }

    #[test]
    fn tenant_reads_of_the_wrong_dimensionality_are_typed_errors() {
        let (path, _, direct) = snapshot_file("dim", 33);
        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("t", &path).unwrap();
        let server = TenantServer::new(Arc::clone(&cache));
        let q: Vec<f32> = direct.data().row(0).to_vec();
        let short = q[..5].to_vec();
        let malformed = [
            QueryRequest::Range {
                query: short.clone(),
                eps: 0.3,
            },
            QueryRequest::RangeCount {
                query: short.clone(),
                eps: 0.3,
            },
            QueryRequest::Knn {
                query: short.clone(),
                k: 3,
            },
            QueryRequest::Estimate {
                query: short,
                eps: 0.3,
            },
        ];
        for request in malformed {
            let err = server.submit("t", request).unwrap_err();
            assert!(
                matches!(
                    &err,
                    CacheError::DimensionMismatch { tenant, expected: 6, actual: 5 } if tenant == "t"
                ),
                "{err}"
            );
            assert!(err.to_string().contains("6-dimensional rows"), "{err}");
        }
        // The caller survived, and the tenant still answers well-formed reads.
        let request = QueryRequest::RangeCount {
            query: q.clone(),
            eps: 0.3,
        };
        match server.submit("t", request).unwrap() {
            QueryResponse::Count(n) => assert_eq!(n, direct.engine().get().range_count(&q, 0.3)),
            other => panic!("count request answered with {other:?}"),
        }
        let report = cache.report();
        assert_eq!(
            report.pins, report.unpins,
            "rejected reads release their pin"
        );
        std::fs::remove_file(path).ok();
    }
}
