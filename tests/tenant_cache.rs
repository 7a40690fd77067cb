//! Stress test for the multi-tenant snapshot cache: four tenants hammer a
//! cache with room for only **two** resident snapshots from concurrent
//! reader threads. The invariants under contention:
//!
//! * resident bytes never exceed the byte budget (checked after every
//!   operation and at the end from the cache's own accounting);
//! * only unpinned snapshots are evicted — a pinned pipeline keeps
//!   answering correctly even while its tenant is the eviction victim of
//!   choice, and `Overloaded` is returned instead of evicting it;
//! * every answer is bit-identical to the tenant's own pipeline, no matter
//!   how many times the snapshot was evicted and reloaded in between;
//! * every pin is a hit or a miss, pins and unpins balance, and the
//!   hit/miss/eviction counters are mutually consistent with residency.
//!
//! Tenant `t` is trained with `t + 1` shards, so sharded snapshots go
//! through the cache as well as the classic layout.

use laf::prelude::*;
use laf::serve::CacheError;
use std::path::PathBuf;
use std::sync::Arc;

const TENANTS: usize = 4;
const ROUNDS: usize = 12;

fn snapshot_file(dir: &std::path::Path, tenant: usize) -> (PathBuf, LafPipeline) {
    let (data, _) = laf::synth::EmbeddingMixtureConfig {
        n_points: 90,
        dim: 6,
        clusters: 2,
        seed: 100 + tenant as u64,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let path = dir.join(format!("tenant{tenant}_{}.lafs", std::process::id()));
    let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(40),
            ..Default::default()
        })
        .shards(tenant + 1)
        .train_and_save(data, &path)
        .unwrap();
    (path, pipeline)
}

#[test]
fn four_tenants_through_a_two_snapshot_cache_under_concurrency() {
    let dir = std::env::temp_dir().join("laf_tenant_cache_stress");
    std::fs::create_dir_all(&dir).unwrap();
    let (paths, directs): (Vec<PathBuf>, Vec<LafPipeline>) =
        (0..TENANTS).map(|t| snapshot_file(&dir, t)).unzip();
    let bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .max()
        .unwrap();

    // Budget for two resident snapshots of the largest size; the entry cap
    // holds residency at two whatever the sizes.
    let cache = SnapshotCache::new(CacheConfig {
        byte_budget: bytes * 2 + bytes / 2,
        max_entries: 2,
        tenant_quota: 0,
    });
    for (t, path) in paths.iter().enumerate() {
        cache.register(&format!("t{t}"), path).unwrap();
    }
    let server = TenantServer::new(Arc::clone(&cache));

    // Reference answers straight from each tenant's own pipeline:
    // (query, range hits, range count, knn).
    type Reference = (Vec<f32>, Vec<u32>, usize, Vec<Neighbor>);
    let expected: Vec<Reference> = directs
        .iter()
        .map(|p| {
            let q: Vec<f32> = p.data().row(3).to_vec();
            let engine = p.engine();
            (
                q.clone(),
                engine.get().range(&q, 0.3),
                engine.get().range_count(&q, 0.3),
                engine.get().knn(&q, 5),
            )
        })
        .collect();

    std::thread::scope(|scope| {
        for reader in 0..TENANTS {
            let (server, cache, expected) = (&server, &cache, &expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each reader walks the tenants starting from its own,
                    // so at any moment different readers want different
                    // snapshots and the 2-slot cache churns.
                    let t = (reader + round) % TENANTS;
                    let tenant = format!("t{t}");
                    let (q, want_range, want_count, want_knn) = &expected[t];
                    // A pinned snapshot must answer correctly even while
                    // other readers force evictions around it; Overloaded
                    // (every slot pinned elsewhere) is the one admissible
                    // failure and means this round proved pin-safety.
                    let pin = match cache.pin(&tenant) {
                        Ok(pin) => pin,
                        Err(CacheError::Overloaded { .. }) => continue,
                        Err(e) => panic!("reader {reader}: unexpected error {e}"),
                    };
                    assert_eq!(&pin.engine().get().range(q, 0.3), want_range);
                    assert_eq!(pin.engine().get().range_count(q, 0.3), *want_count);
                    drop(pin);
                    let request = QueryRequest::Knn {
                        query: q.clone(),
                        k: 5,
                    };
                    match server.submit(&tenant, request) {
                        Ok(QueryResponse::Knn(knn)) => assert_eq!(&knn, want_knn),
                        Ok(other) => panic!("reader {reader}: knn answered with {other:?}"),
                        Err(CacheError::Overloaded { .. }) => {}
                        Err(e) => panic!("reader {reader}: unexpected error {e}"),
                    }
                    let report = cache.report();
                    assert!(
                        report.resident_bytes <= report.byte_budget,
                        "budget exceeded mid-run: {} > {}",
                        report.resident_bytes,
                        report.byte_budget
                    );
                    assert!(report.resident_entries <= 2);
                }
            });
        }
    });

    // With both slots pinned, a third tenant is rejected, not admitted.
    let held = [cache.pin("t0").unwrap(), cache.pin("t1").unwrap()];
    assert!(matches!(
        cache.pin("t2").unwrap_err(),
        CacheError::Overloaded { .. }
    ));
    drop(held);

    let report = cache.report();
    assert!(report.resident_bytes <= report.byte_budget);
    assert!(report.resident_entries <= 2);
    assert!(report.rejections >= 1);
    assert_eq!(
        report.pins,
        report.hits + report.misses,
        "every pin is a hit or a miss; rejections are neither"
    );
    assert_eq!(report.pins, report.unpins, "all pins must be released");
    assert!(
        report.misses > report.resident_entries as u64,
        "four tenants through two slots must reload evicted snapshots \
         (misses {}, resident {})",
        report.misses,
        report.resident_entries
    );
    assert_eq!(
        report.evictions,
        report.misses - report.resident_entries as u64,
        "every miss beyond the resident set must have evicted exactly one victim"
    );
    assert!(report.hits + report.misses + report.rejections > 0);

    for p in paths {
        std::fs::remove_file(p).ok();
    }
}
