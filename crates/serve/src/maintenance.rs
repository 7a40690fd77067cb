//! Self-healing maintenance plane: a supervised scrub/repair loop.
//!
//! A [`SnapshotCache`] detects corruption ([`SnapshotCache::scrub`]) and
//! contains it (quarantine, typed errors on pin) — but until something
//! *drives* the scrub and re-fetches a good file, a quarantined tenant
//! stays dark until an operator re-registers it. [`MaintenanceSupervisor`]
//! closes that loop: a background thread periodically scrubs the cache and,
//! for every quarantined tenant, walks a per-tenant health state machine
//!
//! ```text
//! Healthy ──scrub finds corruption──▶ Quarantined
//!                                         │ repair pass
//!                                         ▼
//!                                     Repairing
//!                    candidate verified + registered ╱ ╲ every replica exhausted
//!                                         ▼              ▼
//!                                      Healthy        Failed{reason}
//!                                                        │ retried next pass /
//!                                                        │ operator re-register
//!                                                        ▼
//!                                                     Healthy
//! ```
//!
//! Repairs re-fetch a known-good snapshot through a [`SnapshotSource`] (an
//! ordered replica set). Every candidate is **fully CRC-verified**
//! ([`laf_core::snapshot::Snapshot::verify_file`], the same check the scrub
//! itself runs) and then published through the cache's ordinary
//! [`SnapshotCache::register`] path — the same eager-validation,
//! quarantine-lifting re-registration an operator would perform. Concurrent
//! pins therefore never observe a half-repaired tenant: they fail typed
//! ([`CacheError::Quarantined`]) until the instant the verified file is
//! registered, and serve the repaired snapshot afterwards.
//!
//! Pacing is injectable for determinism: with
//! [`MaintenanceConfig::scrub_interval_us`] non-zero the supervisor's
//! thread self-schedules on a (deterministically jittered) timer; with `0`
//! it runs a pass only when [`MaintenanceSupervisor::tick`] is called —
//! which blocks until the pass completes, so chaos tests step maintenance
//! explicitly instead of sleeping. Every transition is counted on
//! [`crate::CacheStatsReport`] (scrub passes, quarantines, repairs
//! attempted / succeeded / failed, mean time-to-repair).

use crate::cache::{CacheError, SnapshotCache};
use laf_core::fault;
use laf_core::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`MaintenanceSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceConfig {
    /// Microseconds between automatic maintenance passes. `0` disables the
    /// timer entirely: passes run only when
    /// [`MaintenanceSupervisor::tick`] is called — the deterministic mode
    /// the chaos tests drive, so they step maintenance explicitly instead
    /// of sleeping.
    pub scrub_interval_us: u64,
    /// Upper bound on the per-pass jitter added to `scrub_interval_us`, in
    /// microseconds. The jitter is drawn deterministically from the pass
    /// index (no ambient RNG), and exists to de-synchronize the scrub
    /// cadence across a fleet of supervisors sharing storage.
    pub jitter_us: u64,
    /// How many quarantined tenants one pass repairs concurrently; the
    /// rest wait for the next pass's workers. Clamped to at least 1.
    pub max_concurrent_repairs: usize,
    /// Fetch retries per replica candidate after its first failure, before
    /// the repair moves on to the next candidate.
    pub repair_retries: u32,
    /// Backoff before retry `n` of a candidate fetch: `repair_backoff_us
    /// << (n - 1)` microseconds (doubling, capped at 10 doublings).
    pub repair_backoff_us: u64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            scrub_interval_us: 5_000_000,
            jitter_us: 500_000,
            max_concurrent_repairs: 2,
            repair_retries: 2,
            repair_backoff_us: 200,
        }
    }
}

/// Where repairs fetch known-good snapshots from: an ordered list of
/// candidate files per tenant, best first.
///
/// The contract: `replicas` returns candidate **paths to complete snapshot
/// files** for the tenant, in the order the repair should try them. The
/// supervisor fully CRC-verifies each candidate before publishing it, so a
/// source may list candidates optimistically (a stale mirror, a file
/// mid-copy) — a bad candidate costs a verification pass, never a wrong
/// answer. Closures implement the trait directly; [`ReplicaSet`] is the
/// ready-made table-backed source.
pub trait SnapshotSource: Send + Sync {
    /// Ordered candidate snapshot files for repairing `tenant`. Empty means
    /// "no replica exists" and the repair fails with
    /// [`RepairError::NoReplicas`].
    fn replicas(&self, tenant: &str) -> Vec<PathBuf>;
}

impl<F> SnapshotSource for F
where
    F: Fn(&str) -> Vec<PathBuf> + Send + Sync,
{
    fn replicas(&self, tenant: &str) -> Vec<PathBuf> {
        self(tenant)
    }
}

/// A table-backed [`SnapshotSource`]: per-tenant ordered replica paths,
/// updatable while a supervisor holds the source (wrap it in an [`Arc`]).
#[derive(Debug, Default)]
pub struct ReplicaSet {
    replicas: Mutex<HashMap<String, Vec<PathBuf>>>,
}

impl ReplicaSet {
    /// An empty replica set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace `tenant`'s candidate list (ordered, best first).
    pub fn set<I, P>(&self, tenant: &str, paths: I)
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        self.replicas.lock().expect("replica lock").insert(
            tenant.to_string(),
            paths.into_iter().map(Into::into).collect(),
        );
    }

    /// Append one candidate to `tenant`'s list.
    pub fn push<P: Into<PathBuf>>(&self, tenant: &str, path: P) {
        self.replicas
            .lock()
            .expect("replica lock")
            .entry(tenant.to_string())
            .or_default()
            .push(path.into());
    }
}

impl SnapshotSource for ReplicaSet {
    fn replicas(&self, tenant: &str) -> Vec<PathBuf> {
        self.replicas
            .lock()
            .expect("replica lock")
            .get(tenant)
            .cloned()
            .unwrap_or_default()
    }
}

/// Where a tenant sits in the supervisor's health state machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantHealth {
    /// Serving normally (or never seen by the supervisor).
    Healthy,
    /// A scrub pass found corruption; pins fail typed until repaired.
    Quarantined,
    /// A repair is fetching and verifying replica candidates right now.
    /// Pins still fail with [`CacheError::Quarantined`] — the quarantine
    /// lifts only when a verified candidate is registered.
    Repairing,
    /// Every replica candidate was exhausted. Retried on later passes (a
    /// replica may come back); an operator re-register also recovers it.
    Failed {
        /// Display form of the [`RepairError`] that exhausted the repair.
        reason: String,
    },
}

/// A repair that could not restore the tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The [`SnapshotSource`] listed no candidates for the tenant.
    NoReplicas {
        /// The tenant with no replicas.
        tenant: String,
    },
    /// Every candidate failed to fetch, verify, or register, even after
    /// the per-candidate retry budget.
    Exhausted {
        /// The tenant whose repair was exhausted.
        tenant: String,
        /// Candidates the source listed.
        candidates: usize,
        /// Total fetch attempts across candidates and retries.
        attempts: u32,
        /// Display form of the last candidate's failure.
        last_error: String,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::NoReplicas { tenant } => {
                write!(f, "no replica candidates for tenant `{tenant}`")
            }
            RepairError::Exhausted {
                tenant,
                candidates,
                attempts,
                last_error,
            } => write!(
                f,
                "repair of tenant `{tenant}` exhausted {candidates} replica \
                 candidate(s) in {attempts} attempt(s); last error: {last_error}"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

struct HealthRecord {
    state: TenantHealth,
    /// When the tenant left `Healthy` — the start of the time-to-repair
    /// window credited when a repair lands.
    down_since: Instant,
}

struct SupervisorState {
    stop: bool,
    /// Manual passes requested by [`MaintenanceSupervisor::tick`] but not
    /// yet run.
    pending_ticks: u64,
    /// Passes completed over the supervisor's lifetime.
    passes: u64,
    health: HashMap<String, HealthRecord>,
}

struct SupervisorShared {
    cache: Arc<SnapshotCache>,
    source: Arc<dyn SnapshotSource>,
    config: MaintenanceConfig,
    state: Mutex<SupervisorState>,
    /// Wakes the maintenance thread: a tick was requested or stop was set.
    wake: Condvar,
    /// Signals pass completion back to blocked `tick()` callers.
    pass_done: Condvar,
}

/// The background maintenance thread driving scrub and repair; see the
/// module docs for the state machine and the publish contract.
///
/// Owned like a server handle: created over an `Arc<SnapshotCache>` (via
/// [`MaintenanceSupervisor::start`] or
/// [`crate::TenantServer::start_maintenance`]), stopped and joined cleanly
/// on drop.
pub struct MaintenanceSupervisor {
    shared: Arc<SupervisorShared>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for MaintenanceSupervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaintenanceSupervisor")
            .field("config", &self.shared.config)
            .field("passes", &self.passes())
            .finish_non_exhaustive()
    }
}

impl MaintenanceSupervisor {
    /// Start the maintenance thread over `cache`, repairing from `source`.
    pub fn start(
        cache: Arc<SnapshotCache>,
        source: Arc<dyn SnapshotSource>,
        config: MaintenanceConfig,
    ) -> Self {
        let shared = Arc::new(SupervisorShared {
            cache,
            source,
            config,
            state: Mutex::new(SupervisorState {
                stop: false,
                pending_ticks: 0,
                passes: 0,
                health: HashMap::new(),
            }),
            wake: Condvar::new(),
            pass_done: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("laf-serve-maintenance".into())
                .spawn(move || maintenance_loop(&shared))
                .expect("spawn maintenance thread")
        };
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// The supervisor's knobs.
    pub fn config(&self) -> &MaintenanceConfig {
        &self.shared.config
    }

    /// Run one maintenance pass now (scrub + repairs) and block until it
    /// completes. This is the deterministic pacing hook: tests step
    /// maintenance with `tick()` instead of sleeping, and the pass still
    /// runs on the real maintenance thread — same locks, same interleaving
    /// with concurrent pins as the timer-driven mode. No-op after the
    /// supervisor stopped.
    pub fn tick(&self) {
        let mut state = self.shared.state.lock().expect("supervisor lock");
        if state.stop {
            return;
        }
        let target = state.passes + state.pending_ticks + 1;
        state.pending_ticks += 1;
        self.shared.wake.notify_all();
        while state.passes < target && !state.stop {
            state = self.shared.pass_done.wait(state).expect("supervisor lock");
        }
    }

    /// Maintenance passes completed so far.
    pub fn passes(&self) -> u64 {
        self.shared.state.lock().expect("supervisor lock").passes
    }

    /// `tenant`'s position in the health state machine. Tenants the
    /// supervisor has never seen quarantined report [`TenantHealth::Healthy`].
    pub fn health(&self, tenant: &str) -> TenantHealth {
        self.shared
            .state
            .lock()
            .expect("supervisor lock")
            .health
            .get(tenant)
            .map(|r| r.state.clone())
            .unwrap_or(TenantHealth::Healthy)
    }

    /// Every tenant the supervisor has tracked, with its current health,
    /// sorted by tenant id.
    pub fn health_report(&self) -> Vec<(String, TenantHealth)> {
        let state = self.shared.state.lock().expect("supervisor lock");
        let mut out: Vec<(String, TenantHealth)> = state
            .health
            .iter()
            .map(|(t, r)| (t.clone(), r.state.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Repair `tenant` synchronously on the caller's thread, walking the
    /// same `Quarantined → Repairing → Healthy | Failed` transitions (and
    /// counting the same stats) as a supervisor pass. Returns the replica
    /// path that was published, or the typed [`RepairError`].
    pub fn repair(&self, tenant: &str) -> Result<PathBuf, RepairError> {
        repair_tenant(&self.shared, tenant)
    }
}

impl Drop for MaintenanceSupervisor {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("supervisor lock");
            state.stop = true;
        }
        // Wake both the maintenance thread and any tick() waiters.
        self.shared.wake.notify_all();
        self.shared.pass_done.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Deterministic per-pass jitter: splitmix64 of the pass index, folded
/// into `[0, jitter_us]`. No wall clock, no ambient RNG — restarting a
/// supervisor reproduces the same cadence.
fn jitter_us(config: &MaintenanceConfig, pass_index: u64) -> u64 {
    if config.jitter_us == 0 {
        return 0;
    }
    let mut z = pass_index
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % (config.jitter_us + 1)
}

fn maintenance_loop(shared: &SupervisorShared) {
    let interval = (shared.config.scrub_interval_us > 0)
        .then(|| Duration::from_micros(shared.config.scrub_interval_us));
    let mut pass_index: u64 = 0;
    loop {
        // Wait for a reason to run a pass: a manual tick, the timer, or
        // stop (which exits without running).
        {
            let mut state = shared.state.lock().expect("supervisor lock");
            loop {
                if state.stop {
                    return;
                }
                if state.pending_ticks > 0 {
                    state.pending_ticks -= 1;
                    break;
                }
                match interval {
                    Some(every) => {
                        let wait =
                            every + Duration::from_micros(jitter_us(&shared.config, pass_index));
                        let (guard, timeout) = shared
                            .wake
                            .wait_timeout(state, wait)
                            .expect("supervisor lock");
                        state = guard;
                        if timeout.timed_out() {
                            if state.stop {
                                return;
                            }
                            break;
                        }
                    }
                    None => state = shared.wake.wait(state).expect("supervisor lock"),
                }
            }
        }
        run_pass(shared);
        pass_index += 1;
        let mut state = shared.state.lock().expect("supervisor lock");
        state.passes += 1;
        drop(state);
        shared.pass_done.notify_all();
    }
}

/// One maintenance pass: scrub, reconcile the health map against the
/// cache's quarantine set, then repair every quarantined tenant (bounded
/// concurrency, deterministic tenant order).
fn run_pass(shared: &SupervisorShared) {
    let _scrub = shared.cache.scrub();
    let now = Instant::now();
    let quarantined = shared.cache.quarantined();
    let targets: Vec<String> = {
        let mut state = shared.state.lock().expect("supervisor lock");
        // Newly-quarantined tenants enter the state machine; the
        // quarantine instant starts their time-to-repair clock.
        for tenant in &quarantined {
            let record = state
                .health
                .entry(tenant.clone())
                .or_insert_with(|| HealthRecord {
                    state: TenantHealth::Healthy,
                    down_since: now,
                });
            if record.state == TenantHealth::Healthy {
                record.state = TenantHealth::Quarantined;
                record.down_since = now;
            }
        }
        // Tenants no longer quarantined recovered outside this loop — an
        // operator re-registered a fresh file — and return to Healthy.
        for (tenant, record) in state.health.iter_mut() {
            if record.state != TenantHealth::Healthy
                && record.state != TenantHealth::Repairing
                && !quarantined.contains(tenant)
            {
                record.state = TenantHealth::Healthy;
            }
        }
        // Repair every quarantined tenant — including Failed ones from
        // earlier passes: a replica that was unreachable may be back.
        let mut targets: Vec<String> = state
            .health
            .iter()
            .filter(|(tenant, record)| {
                record.state != TenantHealth::Repairing && quarantined.iter().any(|q| q == *tenant)
            })
            .map(|(tenant, _)| tenant.clone())
            .collect();
        targets.sort();
        targets
    };
    if targets.is_empty() {
        return;
    }
    let workers = shared
        .config
        .max_concurrent_repairs
        .max(1)
        .min(targets.len());
    if workers <= 1 {
        for tenant in &targets {
            let _ = repair_tenant(shared, tenant);
        }
        return;
    }
    // Bounded fan-out: `workers` threads pull tenants off a shared cursor,
    // so no pass ever runs more than `max_concurrent_repairs` fetches at
    // once no matter how many tenants rotted together.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(tenant) = targets.get(i) else { break };
                let _ = repair_tenant(shared, tenant);
            });
        }
    });
}

/// Walk one tenant through `Repairing` and land on `Healthy` or
/// `Failed{reason}`, counting every transition on the cache stats.
fn repair_tenant(shared: &SupervisorShared, tenant: &str) -> Result<PathBuf, RepairError> {
    let down_since = {
        let mut state = shared.state.lock().expect("supervisor lock");
        if state.stop {
            return Err(RepairError::NoReplicas {
                tenant: tenant.to_string(),
            });
        }
        let record = state
            .health
            .entry(tenant.to_string())
            .or_insert_with(|| HealthRecord {
                state: TenantHealth::Quarantined,
                down_since: Instant::now(),
            });
        record.state = TenantHealth::Repairing;
        record.down_since
    };
    shared.cache.stats().record_repair_attempt();
    let outcome = fetch_and_register(shared, tenant);
    let mut state = shared.state.lock().expect("supervisor lock");
    if let Some(record) = state.health.get_mut(tenant) {
        match &outcome {
            Ok(_) => {
                record.state = TenantHealth::Healthy;
                shared
                    .cache
                    .stats()
                    .record_repair_success(down_since.elapsed().as_micros() as u64);
            }
            Err(err) => {
                record.state = TenantHealth::Failed {
                    reason: err.to_string(),
                };
                shared.cache.stats().record_repair_failure();
            }
        }
    }
    outcome
}

/// Try every replica candidate in order, each with the configured
/// exponential-backoff retry budget; the first candidate that fetches,
/// fully CRC-verifies, and registers wins.
fn fetch_and_register(shared: &SupervisorShared, tenant: &str) -> Result<PathBuf, RepairError> {
    let candidates = shared.source.replicas(tenant);
    if candidates.is_empty() {
        return Err(RepairError::NoReplicas {
            tenant: tenant.to_string(),
        });
    }
    let mut attempts = 0u32;
    let mut last_error = String::new();
    for path in &candidates {
        for retry in 0..=shared.config.repair_retries {
            if retry > 0 {
                std::thread::sleep(Duration::from_micros(
                    shared.config.repair_backoff_us << (retry - 1).min(10),
                ));
            }
            attempts += 1;
            match fetch_candidate(shared, tenant, path) {
                Ok(()) => return Ok(path.clone()),
                Err(e) => last_error = e,
            }
        }
    }
    Err(RepairError::Exhausted {
        tenant: tenant.to_string(),
        candidates: candidates.len(),
        attempts,
        last_error,
    })
}

/// One fetch attempt: the `cache.repair.fetch` failpoint models the
/// replica read failing (an unreachable replica host, an I/O error
/// mid-copy); a surviving candidate is CRC-verified section by section —
/// a replica that is itself rotten must never be published — and then
/// registered, which lifts the quarantine atomically under the cache lock.
fn fetch_candidate(shared: &SupervisorShared, tenant: &str, path: &PathBuf) -> Result<(), String> {
    if fault::fire("cache.repair.fetch") {
        return Err(fault::injected("cache.repair.fetch").to_string());
    }
    Snapshot::verify_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    shared
        .cache
        .register(tenant, path)
        .map_err(|e: CacheError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::{section_id, LafConfig, LafPipeline};
    use laf_synth::EmbeddingMixtureConfig;
    use std::path::Path;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("laf_serve_maint_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_file(dir: &Path, name: &str, seed: u64) -> PathBuf {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 80,
            dim: 6,
            clusters: 2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let path = dir.join(format!("{name}.lafs"));
        LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(40),
                ..Default::default()
            })
            // Calibrated, so the file has all five unsharded sections.
            .calibrate(true)
            .train_and_save(data, &path)
            .unwrap();
        path
    }

    /// XOR one mid-file byte in place (call twice to restore).
    fn flip_byte(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    /// XOR one bit in the middle of section `id`'s body, found through the
    /// file's section table (`[magic, version, count]` then 24 bytes per
    /// section: id, offset, length, CRC).
    fn flip_section_bit(path: &Path, id: u32) {
        let mut bytes = std::fs::read(path).unwrap();
        let word = |at: usize, len: usize| {
            let mut le = [0u8; 8];
            le[..len].copy_from_slice(&bytes[at..at + len]);
            u64::from_le_bytes(le) as usize
        };
        let count = word(8, 4);
        let entry = (0..count)
            .map(|e| 12 + e * 24)
            .find(|&at| word(at, 4) == id as usize)
            .unwrap_or_else(|| panic!("no `{}` section", section_id::name(id)));
        let (offset, len) = (word(entry + 4, 8), word(entry + 12, 8));
        bytes[12 + count * 24 + offset + len / 2] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    fn manual_config() -> MaintenanceConfig {
        MaintenanceConfig {
            scrub_interval_us: 0,
            jitter_us: 0,
            max_concurrent_repairs: 2,
            repair_retries: 1,
            repair_backoff_us: 10,
        }
    }

    #[test]
    fn supervisor_heals_a_quarantined_tenant_from_a_replica() {
        const SECTIONS: [u32; 5] = [
            section_id::DATASET,
            section_id::ENGINE,
            section_id::ESTIMATOR,
            section_id::CALIBRATION,
            section_id::CONFIG,
        ];
        let dir = temp_dir("heal");
        let replica = snapshot_file(&dir, "replica", 1);
        let cache = SnapshotCache::new(CacheConfig::default());
        let source = Arc::new(ReplicaSet::new());
        // One tenant per section, each serving its own copy of the replica.
        for id in SECTIONS {
            let tenant = section_id::name(id);
            let primary = dir.join(format!("{tenant}.lafs"));
            std::fs::copy(&replica, &primary).unwrap();
            cache.register(tenant, &primary).unwrap();
            drop(cache.pin(tenant).unwrap()); // resident, so the scrub sees it
            source.set(tenant, [primary, replica.clone()]);
        }
        let supervisor = MaintenanceSupervisor::start(Arc::clone(&cache), source, manual_config());

        // A clean pass changes nothing.
        supervisor.tick();
        assert_eq!(supervisor.passes(), 1);
        assert!(cache.quarantined().is_empty());

        // Rot one section of a registered file per pass; the pass must
        // quarantine AND heal that tenant (the primary candidate fails
        // verification, the replica wins).
        for id in SECTIONS {
            let tenant = section_id::name(id);
            flip_section_bit(&dir.join(format!("{tenant}.lafs")), id);
            supervisor.tick();
            assert_eq!(supervisor.health(tenant), TenantHealth::Healthy, "{tenant}");
            assert!(cache.quarantined().is_empty(), "{tenant}");
            assert_eq!(cache.registered_path(tenant), Some(replica.clone()));
            assert_eq!(cache.pin(tenant).unwrap().tenant(), tenant);
        }

        let report = cache.report();
        assert_eq!(report.scrub_passes, 6);
        assert_eq!(report.quarantines, 5);
        assert_eq!(report.repairs_attempted, 5);
        assert_eq!(report.repairs_succeeded, 5);
        assert_eq!(report.repairs_failed, 0);
        assert!(report.mean_time_to_repair_us > 0.0);
        drop(supervisor);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_exhaustion_fails_typed_and_manual_reregister_recovers() {
        let dir = temp_dir("exhaust");
        let primary = snapshot_file(&dir, "primary", 2);
        let rotten = dir.join("rotten.lafs");
        std::fs::copy(&primary, &rotten).unwrap();
        flip_byte(&rotten); // the only replica is itself corrupt

        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &primary).unwrap();
        drop(cache.pin("a").unwrap());
        let source = Arc::new(ReplicaSet::new());
        source.set("a", [rotten.clone()]);
        let supervisor = MaintenanceSupervisor::start(Arc::clone(&cache), source, manual_config());

        flip_byte(&primary);
        supervisor.tick();
        match supervisor.health("a") {
            TenantHealth::Failed { reason } => {
                assert!(reason.contains("exhausted"), "{reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // Still quarantined: pins stay typed, never a torn read.
        assert!(matches!(
            cache.pin("a").unwrap_err(),
            CacheError::Quarantined { .. }
        ));
        // Failed tenants are retried on later passes (and keep failing
        // while no good replica exists).
        supervisor.tick();
        assert!(matches!(
            supervisor.health("a"),
            TenantHealth::Failed { .. }
        ));
        let report = cache.report();
        assert_eq!(report.repairs_attempted, 2);
        assert_eq!(report.repairs_failed, 2);
        assert_eq!(report.repairs_succeeded, 0);

        // Operator recovery: repair the file, re-register, next pass
        // reconciles the health map back to Healthy.
        flip_byte(&primary);
        cache.register("a", &primary).unwrap();
        assert!(cache.pin("a").is_ok());
        supervisor.tick();
        assert_eq!(supervisor.health("a"), TenantHealth::Healthy);
        drop(supervisor);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn direct_repair_returns_the_typed_error() {
        let dir = temp_dir("typed");
        let primary = snapshot_file(&dir, "primary", 3);
        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &primary).unwrap();
        let supervisor = MaintenanceSupervisor::start(
            Arc::clone(&cache),
            Arc::new(ReplicaSet::new()),
            manual_config(),
        );
        let err = supervisor.repair("a").unwrap_err();
        assert_eq!(
            err,
            RepairError::NoReplicas {
                tenant: "a".to_string()
            }
        );
        assert!(err.to_string().contains("no replica"), "{err}");
        assert!(matches!(
            supervisor.health("a"),
            TenantHealth::Failed { .. }
        ));
        drop(supervisor);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pinned_snapshot_survives_scrub_and_heals_after_unpin() {
        let dir = temp_dir("pinrace");
        let primary = snapshot_file(&dir, "primary", 4);
        let replica = dir.join("replica.lafs");
        std::fs::copy(&primary, &replica).unwrap();

        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &primary).unwrap();
        let pin = cache.pin("a").unwrap();
        let before = pin.pipeline();
        let source = Arc::new(ReplicaSet::new());
        source.set("a", [replica.clone()]);
        let supervisor = MaintenanceSupervisor::start(Arc::clone(&cache), source, manual_config());

        // Corrupt the pinned tenant's file: the pass must NOT quarantine
        // or evict it (the mmap is mid-query), only report it.
        flip_byte(&primary);
        supervisor.tick();
        assert_eq!(supervisor.health("a"), TenantHealth::Healthy);
        assert!(cache.resident("a"), "a pinned entry is never evicted");
        assert!(Arc::ptr_eq(&before, &pin.pipeline()));
        assert_eq!(cache.report().scrub_skipped_pinned, 1);
        assert_eq!(cache.report().quarantines, 0);

        // Once the pin drops, the next pass quarantines and heals.
        drop(pin);
        supervisor.tick();
        assert_eq!(supervisor.health("a"), TenantHealth::Healthy);
        assert_eq!(cache.registered_path("a"), Some(replica.clone()));
        let after = cache.pin("a").unwrap().pipeline();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "the healed tenant serves the repaired replica"
        );
        drop(supervisor);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A [`SnapshotSource`] that parks the repair until released, so the
    /// test can observe the `Repairing` state from outside.
    struct GatedSource {
        inner: ReplicaSet,
        entered: Mutex<bool>,
        entered_cv: Condvar,
        release: Mutex<bool>,
        release_cv: Condvar,
    }

    impl GatedSource {
        fn new() -> Self {
            Self {
                inner: ReplicaSet::new(),
                entered: Mutex::new(false),
                entered_cv: Condvar::new(),
                release: Mutex::new(false),
                release_cv: Condvar::new(),
            }
        }

        fn wait_entered(&self) {
            let mut entered = self.entered.lock().unwrap();
            while !*entered {
                entered = self.entered_cv.wait(entered).unwrap();
            }
        }

        fn release(&self) {
            *self.release.lock().unwrap() = true;
            self.release_cv.notify_all();
        }
    }

    impl SnapshotSource for GatedSource {
        fn replicas(&self, tenant: &str) -> Vec<PathBuf> {
            *self.entered.lock().unwrap() = true;
            self.entered_cv.notify_all();
            let mut release = self.release.lock().unwrap();
            while !*release {
                release = self.release_cv.wait(release).unwrap();
            }
            self.inner.replicas(tenant)
        }
    }

    #[test]
    fn pins_during_repairing_fail_typed_until_the_repair_publishes() {
        let dir = temp_dir("midrepair");
        let primary = snapshot_file(&dir, "primary", 5);
        let replica = dir.join("replica.lafs");
        std::fs::copy(&primary, &replica).unwrap();

        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &primary).unwrap();
        drop(cache.pin("a").unwrap());
        let source = Arc::new(GatedSource::new());
        source.inner.set("a", [replica.clone()]);
        let supervisor = MaintenanceSupervisor::start(
            Arc::clone(&cache),
            Arc::clone(&source) as Arc<dyn SnapshotSource>,
            manual_config(),
        );

        flip_byte(&primary);
        std::thread::scope(|scope| {
            let ticker = scope.spawn(|| supervisor.tick());
            source.wait_entered();
            // Mid-repair: the health machine says Repairing and pins are
            // still the typed quarantine error — never a torn read of a
            // half-published snapshot.
            assert_eq!(supervisor.health("a"), TenantHealth::Repairing);
            assert!(matches!(
                cache.pin("a").unwrap_err(),
                CacheError::Quarantined { .. }
            ));
            source.release();
            ticker.join().unwrap();
        });
        assert_eq!(supervisor.health("a"), TenantHealth::Healthy);
        assert!(cache.pin("a").is_ok());
        drop(supervisor);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timer_mode_runs_passes_without_manual_ticks_and_drops_cleanly() {
        let cache = SnapshotCache::new(CacheConfig::default());
        let supervisor = MaintenanceSupervisor::start(
            Arc::clone(&cache),
            Arc::new(ReplicaSet::new()),
            MaintenanceConfig {
                scrub_interval_us: 1_000,
                jitter_us: 500,
                ..MaintenanceConfig::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        while supervisor.passes() < 2 {
            assert!(Instant::now() < deadline, "timer passes never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Manual ticks compose with the timer.
        let before = supervisor.passes();
        supervisor.tick();
        assert!(supervisor.passes() > before);
        drop(supervisor); // must join, not hang
    }

    #[test]
    fn closure_sources_and_config_serde_work() {
        let source: Arc<dyn SnapshotSource> =
            Arc::new(|tenant: &str| vec![PathBuf::from(format!("/replicas/{tenant}.lafs"))]);
        assert_eq!(
            source.replicas("x"),
            vec![PathBuf::from("/replicas/x.lafs")]
        );
        let config = MaintenanceConfig::default();
        let json = serde_json::to_string(&config).unwrap();
        let back: MaintenanceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        let health = TenantHealth::Failed { reason: "x".into() };
        let json = serde_json::to_string(&health).unwrap();
        let back: TenantHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(health, back);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let config = MaintenanceConfig {
            jitter_us: 100,
            ..MaintenanceConfig::default()
        };
        for pass in 0..50 {
            let a = jitter_us(&config, pass);
            assert_eq!(a, jitter_us(&config, pass));
            assert!(a <= 100);
        }
        let none = MaintenanceConfig {
            jitter_us: 0,
            ..MaintenanceConfig::default()
        };
        assert_eq!(jitter_us(&none, 7), 0);
    }
}
