//! Chaos harness for the sharded/tenant serving plane: run randomized,
//! seed-deterministic fault schedules against a multi-tenant
//! [`TenantServer`] (one tenant sharded) with a self-healing
//! [`MaintenanceSupervisor`] attached, and hold the plane to the
//! robustness contract — every query either succeeds **bit-identical** to
//! a fault-free oracle or fails with a typed [`CacheError`]; never a
//! panic, never a silently wrong answer. Corruption is injected two ways:
//! real bit-flips written into registered snapshot files (detected by the
//! scrub's CRC re-verification) and failpoint-driven repair-fetch
//! failures (`cache.repair.fetch`), plus pin-time mmap failures
//! (`cache.pin.mmap`) and load-time section flips
//! (`mmap.section.bitflip`). The supervisor runs in manual-tick mode so
//! every maintenance pass is an explicit, replayable step; at the end of
//! each run every tenant with a live good replica must return to
//! `Healthy` within the tick budget with no operator intervention, and a
//! concurrency phase proves the supervisor never deadlocks against
//! concurrent pins.
//!
//! Seeds come from a fixed battery plus an optional `LAF_CHAOS_SEED`
//! environment override (CI passes a fresh one per run); a failing seed is
//! dumped to `results/chaos_failure.json` before the panic propagates so
//! the schedule can be replayed locally.

#![cfg(feature = "fault-injection")]

use laf::cardest::{NetConfig, TrainingSetBuilder};
use laf::core::fault::{self, FaultMode, FaultPlan};
use laf::core::{LafConfig, LafPipeline};
use laf::serve::{
    CacheConfig, MaintenanceConfig, QueryRequest, QueryResponse, ReplicaSet, SnapshotCache,
    SnapshotSource, TenantHealth, TenantServer,
};
use laf::synth::EmbeddingMixtureConfig;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const DIM: usize = 6;
const EPS: f32 = 0.3;
const KNN_K: usize = 5;
const OPS_PER_SEED: usize = 70;
const QUERIES_PER_TENANT: usize = 6;
/// Scrub ticks a tenant with a live good replica gets to return to
/// `Healthy` in the fault-free heal phase (one should suffice: a pass
/// quarantines and repairs in the same tick).
const HEAL_TICK_BUDGET: usize = 4;

/// The fixed seed battery CI replays on every run.
const FIXED_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The serve-layer failpoint sites this harness arms.
const SITES: [&str; 3] = [
    "cache.pin.mmap",
    "mmap.section.bitflip",
    "cache.repair.fetch",
];

/// (tenant id, data seed, shard count) — tenant `t1` serves a sharded
/// snapshot, so repairs and scatter-gather loads cover the sharded plane.
const TENANTS: [(&str, u64, usize); 3] = [("t0", 11, 1), ("t1", 22, 3), ("t2", 33, 1)];
const REPLICAS: usize = 3;

/// Serialize every test in this binary: the failpoint registry is
/// process-wide, so a plan armed by one test must never fire inside
/// another test running on a sibling thread.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// splitmix64 — the op-sequence PRNG. Deterministic per seed and
/// independent of the fault registry's own draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The chaos plan for one seed. `cache.repair.fetch` is armed with a
/// *finite* schedule — the first `(seed % 4) + 1` fetch attempts fail —
/// so repairs are forced through their retry/backoff/next-candidate path
/// but self-healing is still guaranteed for every seed, including the
/// fresh one CI passes.
fn chaos_plan(seed: u64) -> FaultPlan {
    let failing_fetches: Vec<u64> = (0..(seed % 4) + 1).collect();
    FaultPlan::new(seed)
        .with_site("cache.pin.mmap", FaultMode::Probability(0.05))
        .with_site("mmap.section.bitflip", FaultMode::Probability(0.02))
        .with_site("cache.repair.fetch", FaultMode::Schedule(failing_fetches))
}

/// Run `f` on the fault-free plane: injection paused (consultations do not
/// advance the schedule), so oracle and recovery paths never trip.
fn fault_free<T>(f: impl FnOnce() -> T) -> T {
    fault::set_enabled(false);
    let out = f();
    fault::set_enabled(true);
    out
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laf_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault-free ground truth for one query on one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    range: Vec<u32>,
    count: usize,
    knn: Vec<(u32, u32)>,
    estimate: u32,
}

/// One tenant's clean snapshot bytes plus oracle answers for its queries.
struct TenantFixture {
    name: &'static str,
    clean: Vec<u8>,
    queries: Vec<Vec<f32>>,
    expect: Vec<Expected>,
}

/// Train every tenant once (the expensive part, shared across seeds) and
/// precompute the oracle: answers from the freshly-loaded clean snapshot,
/// computed with no faults armed.
fn fixtures() -> Vec<TenantFixture> {
    let dir = unique_dir("tenant_fixtures");
    TENANTS
        .iter()
        .map(|&(name, seed, shards)| {
            let (data, _) = EmbeddingMixtureConfig {
                n_points: 120,
                dim: DIM,
                clusters: 2,
                noise_fraction: 0.1,
                seed,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let path = dir.join(format!("{name}.lafs"));
            LafPipeline::builder(LafConfig::new(EPS, 4, 1.0))
                .net(NetConfig::tiny())
                .training(TrainingSetBuilder {
                    max_queries: Some(40),
                    ..Default::default()
                })
                .shards(shards)
                .train_and_save(data, &path)
                .unwrap();
            // The oracle answers from the same load path the cache uses, so
            // "bit-exact" compares mmap-served plane against mmap-served
            // plane.
            let loaded = LafPipeline::load_mmap(&path).unwrap();
            let queries: Vec<Vec<f32>> = (0..QUERIES_PER_TENANT)
                .map(|i| loaded.data().row(i * 7).to_vec())
                .collect();
            let engine = loaded.engine();
            let expect = queries
                .iter()
                .map(|q| Expected {
                    range: engine.get().range(q, EPS),
                    count: engine.get().range_count(q, EPS),
                    knn: engine
                        .get()
                        .knn(q, KNN_K)
                        .into_iter()
                        .map(|n| (n.index, n.dist.to_bits()))
                        .collect(),
                    estimate: loaded.estimate(q, EPS).to_bits(),
                })
                .collect();
            drop(loaded);
            let clean = std::fs::read(&path).unwrap();
            TenantFixture {
                name,
                clean,
                queries,
                expect,
            }
        })
        .collect()
}

/// XOR one mid-file byte in place — real on-disk corruption for the scrub
/// to find (a section body, past the header `register` validates).
fn flip_mid_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

/// Everything observable about one seed's run — compared across replays to
/// prove the schedule is deterministic end to end.
#[derive(Debug, Clone, PartialEq)]
struct ChaosReport {
    typed_errors: u64,
    corrupt_ops: u64,
    ticks: u64,
    quarantines: u64,
    repairs_attempted: u64,
    repairs_succeeded: u64,
    repairs_failed: u64,
    trips: Vec<(&'static str, u64)>,
}

/// Run one query through the server and hold the contract: `Ok` must be
/// bit-identical to the oracle, `Err` must be a typed cache error.
/// Returns whether the query erred.
fn check_query(
    server: &TenantServer,
    fixture: &TenantFixture,
    qi: usize,
    kind: u64,
    context: &str,
) -> bool {
    let query = fixture.queries[qi].clone();
    let want = &fixture.expect[qi];
    let request = match kind % 4 {
        0 => QueryRequest::Range { query, eps: EPS },
        1 => QueryRequest::RangeCount { query, eps: EPS },
        2 => QueryRequest::Knn { query, k: KNN_K },
        _ => QueryRequest::Estimate { query, eps: EPS },
    };
    match server.submit(fixture.name, request) {
        Ok(QueryResponse::Range(hits)) => assert_eq!(hits, want.range, "{context}: range diverged"),
        Ok(QueryResponse::Count(n)) => {
            assert_eq!(n, want.count, "{context}: range_count diverged")
        }
        Ok(QueryResponse::Knn(neighbors)) => {
            let bits: Vec<(u32, u32)> = neighbors
                .into_iter()
                .map(|n| (n.index, n.dist.to_bits()))
                .collect();
            assert_eq!(bits, want.knn, "{context}: knn diverged");
        }
        Ok(QueryResponse::Estimate(est)) => {
            assert_eq!(est.to_bits(), want.estimate, "{context}: estimate diverged")
        }
        Ok(other) => panic!("{context}: read answered with {other:?}"),
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{context}");
            return true;
        }
    }
    false
}

/// One chaos run: a seed-deterministic op stream of queries, real
/// file corruption + maintenance ticks against the supervised
/// multi-tenant plane, then a fault-free concurrency (no-deadlock) phase
/// and a final self-healing battery.
fn run_chaos_seed(seed: u64, fixtures: &[TenantFixture]) -> ChaosReport {
    let dir = unique_dir(&format!("tenant_{seed}"));
    let replica_path = |t: &str, i: usize| -> PathBuf { dir.join(format!("{t}_r{i}.lafs")) };
    let restore_clean = |fixture: &TenantFixture| {
        for i in 0..REPLICAS {
            std::fs::write(replica_path(fixture.name, i), &fixture.clean).unwrap();
        }
    };

    let cache = SnapshotCache::new(CacheConfig {
        max_entries: 2, // fewer slots than tenants: constant eviction churn
        ..CacheConfig::default()
    });
    let source = Arc::new(ReplicaSet::new());
    for fixture in fixtures {
        restore_clean(fixture);
        cache
            .register(fixture.name, replica_path(fixture.name, 0))
            .unwrap();
        source.set(
            fixture.name,
            (0..REPLICAS).map(|i| replica_path(fixture.name, i)),
        );
    }
    let server = TenantServer::new(Arc::clone(&cache));
    // Manual-tick mode with one repair at a time: every failpoint
    // consultation happens in a deterministic, single-file order, so the
    // seeded schedule is replayable.
    let supervisor = server.start_maintenance(
        Arc::clone(&source) as Arc<dyn SnapshotSource>,
        MaintenanceConfig {
            scrub_interval_us: 0,
            jitter_us: 0,
            max_concurrent_repairs: 1,
            repair_retries: 1,
            repair_backoff_us: 10,
        },
    );

    fault::install(chaos_plan(seed));
    let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut typed_errors = 0u64;
    let mut corrupt_ops = 0u64;
    let mut ticks = 0u64;

    for step in 0..OPS_PER_SEED {
        let r = splitmix(&mut rng);
        let fixture = &fixtures[(r >> 8) as usize % fixtures.len()];
        match r % 100 {
            // Queries: bit-exact or typed, never anything else.
            0..=59 => {
                let qi = (r >> 16) as usize % QUERIES_PER_TENANT;
                let context = format!("seed {seed} step {step} tenant {}", fixture.name);
                if check_query(&server, fixture, qi, r >> 24, &context) {
                    typed_errors += 1;
                }
            }
            // Real corruption: restore every replica to clean bytes, make
            // the tenant resident, then flip a byte in the *registered*
            // file and immediately run a maintenance pass. No query touches
            // the tenant between the flip and the tick, so the corrupted
            // mmap is quarantined (or repaired) before it can serve.
            60..=79 => {
                restore_clean(fixture);
                match cache.pin(fixture.name) {
                    Ok(pin) => {
                        drop(pin);
                        let registered = cache.registered_path(fixture.name).unwrap();
                        flip_mid_byte(&registered);
                        corrupt_ops += 1;
                    }
                    Err(e) => {
                        // A failed pin (pin.mmap fault, quarantine) leaves
                        // nothing resident to corrupt; still typed.
                        assert!(!e.to_string().is_empty(), "seed {seed} step {step}");
                        typed_errors += 1;
                    }
                }
                supervisor.tick();
                ticks += 1;
            }
            // A plain maintenance pass at an arbitrary point in the stream.
            _ => {
                supervisor.tick();
                ticks += 1;
            }
        }
    }
    let trips: Vec<(&'static str, u64)> = SITES.iter().map(|&s| (s, fault::trips(s))).collect();

    // Concurrency phase, faults paused: first heal everything (clean
    // replicas + one pass), then hammer the plane from reader threads
    // while the supervisor keeps scrubbing. thread::scope joining at all
    // is the assertion: the supervisor must never deadlock against
    // concurrent pins.
    fault_free(|| {
        for fixture in fixtures {
            restore_clean(fixture);
        }
        supervisor.tick();
        for fixture in fixtures {
            assert_eq!(
                supervisor.health(fixture.name),
                TenantHealth::Healthy,
                "seed {seed}: tenant {} not healed before the concurrency phase",
                fixture.name
            );
        }
        std::thread::scope(|scope| {
            for reader in 0..3u64 {
                let server = &server;
                scope.spawn(move || {
                    let mut rng = seed ^ (0xA076_1D64_78BD_642F ^ reader);
                    for i in 0..40 {
                        let r = splitmix(&mut rng);
                        let fixture = &fixtures[(r >> 8) as usize % fixtures.len()];
                        let qi = (r >> 16) as usize % QUERIES_PER_TENANT;
                        let context = format!(
                            "seed {seed} reader {reader} query {i} tenant {}",
                            fixture.name
                        );
                        // Typed errors are legitimate here (three readers
                        // over two cache slots race pins into Overloaded);
                        // check_query still forbids wrong answers.
                        let _ = check_query(server, fixture, qi, r >> 24, &context);
                    }
                });
            }
            for _ in 0..5 {
                supervisor.tick();
            }
        });
    });
    fault::clear();

    // Final self-healing battery, no faults at all: corrupt each tenant's
    // registered file while good replicas exist (one tenant at a time —
    // the cache holds fewer slots than tenants, and only a *resident*
    // corruption is scrubbable), and require the tenant back to Healthy
    // within the tick budget with zero operator intervention — then every
    // answer bit-exact again.
    for fixture in fixtures {
        restore_clean(fixture);
        drop(cache.pin(fixture.name).unwrap()); // resident, so the scrub sees it
        flip_mid_byte(&cache.registered_path(fixture.name).unwrap());
        let healed = (0..HEAL_TICK_BUDGET).any(|_| {
            supervisor.tick();
            supervisor.health(fixture.name) == TenantHealth::Healthy
        });
        assert!(
            healed,
            "seed {seed}: tenant {} with live good replicas did not self-heal within \
             {HEAL_TICK_BUDGET} ticks: {:?}",
            fixture.name,
            supervisor.health_report()
        );
    }
    assert!(
        cache.quarantined().is_empty(),
        "seed {seed}: healed plane still has quarantined tenants"
    );
    for fixture in fixtures {
        for qi in 0..QUERIES_PER_TENANT {
            for kind in 0..4u64 {
                let context = format!("seed {seed} healed tenant {}", fixture.name);
                assert!(
                    !check_query(&server, fixture, qi, kind, &context),
                    "{context}: queries after self-heal must succeed"
                );
            }
        }
    }

    let stats = cache.report();
    assert!(
        stats.repairs_succeeded >= fixtures.len() as u64,
        "seed {seed}: the final battery alone repairs every tenant"
    );
    assert!(stats.repairs_attempted >= stats.repairs_succeeded);
    assert!(stats.quarantines >= fixtures.len() as u64);
    assert!(
        stats.mean_time_to_repair_us > 0.0,
        "seed {seed}: successful repairs must report a time-to-repair"
    );
    assert!(
        stats.scrub_passes > ticks,
        "every tick runs at least one pass"
    );

    drop(supervisor);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    ChaosReport {
        typed_errors,
        corrupt_ops,
        ticks,
        quarantines: stats.quarantines,
        repairs_attempted: stats.repairs_attempted,
        repairs_succeeded: stats.repairs_succeeded,
        repairs_failed: stats.repairs_failed,
        trips,
    }
}

/// Persist the failing seed so the exact schedule can be replayed with
/// `LAF_CHAOS_SEED=<seed>` (CI uploads this file as an artifact).
fn dump_failing_seed(seed: u64) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).ok();
    let sites: Vec<String> = SITES.iter().map(|s| format!("\"{s}\"")).collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"replay\": \"LAF_CHAOS_SEED={seed} cargo test -p laf --features fault-injection --test chaos_tenant\",\n  \"sites\": [{}]\n}}\n",
        sites.join(", ")
    );
    std::fs::write(dir.join("chaos_failure.json"), json).ok();
    eprintln!("chaos: failing FaultPlan seed {seed} written to results/chaos_failure.json");
}

#[test]
fn tenant_chaos_schedules_never_panic_and_always_self_heal() {
    let _guard = exclusive();
    let fixtures = fixtures();

    let mut seeds: Vec<u64> = FIXED_SEEDS.to_vec();
    if let Ok(s) = std::env::var("LAF_CHAOS_SEED") {
        if let Ok(fresh) = s.trim().parse::<u64>() {
            seeds.push(fresh);
        }
    }

    for seed in seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_chaos_seed(seed, &fixtures)));
        fault::set_enabled(true);
        fault::clear();
        match outcome {
            Ok(report) => {
                let injected: u64 = report.trips.iter().map(|(_, n)| n).sum();
                println!(
                    "tenant chaos seed {seed}: {injected} faults tripped, {} typed errors, \
                     {} corruptions over {} ticks, repairs {}/{} succeeded ({} failed)",
                    report.typed_errors,
                    report.corrupt_ops,
                    report.ticks,
                    report.repairs_succeeded,
                    report.repairs_attempted,
                    report.repairs_failed,
                );
            }
            Err(payload) => {
                dump_failing_seed(seed);
                resume_unwind(payload);
            }
        }
    }
}

/// Replaying a seed must reproduce the run bit for bit — same trips per
/// site, same typed-error and repair counts — or a CI failure seed would
/// be useless locally. (Wall-clock–dependent numbers like time-to-repair
/// are deliberately outside the report.)
#[test]
fn replaying_a_tenant_seed_reproduces_the_run_exactly() {
    let _guard = exclusive();
    let fixtures = fixtures();
    let first = run_chaos_seed(13, &fixtures);
    let second = run_chaos_seed(13, &fixtures);
    assert_eq!(first, second, "seed 13 replay diverged");
    assert!(
        first.trips.iter().any(|&(_, n)| n > 0),
        "seed 13 tripped no faults at all — the chaos plan is not exercising anything"
    );
}
