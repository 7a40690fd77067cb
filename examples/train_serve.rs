//! Two-phase train/serve demo of the snapshot subsystem.
//!
//! The paper's estimator is *trained once* and amortized across clustering
//! runs; this example splits that lifecycle across two process invocations:
//!
//! ```bash
//! # Offline training plane: fit the estimator, persist the snapshot
//! # (plus a `.labels` sidecar recording the training process's clustering).
//! cargo run --release --example train_serve -- train /tmp/pipeline.lafs
//!
//! # Same, but with a non-default range-query engine — snapshot format v2
//! # persists the *built* engine structure, so the serving side restores it
//! # instead of re-running the k-means construction:
//! cargo run --release --example train_serve -- train /tmp/pipeline.lafs kmeans_tree
//!
//! # Online serving plane (any number of processes, any time later):
//! # restore, cluster, and verify the labels match the training process
//! # byte for byte.
//! cargo run --release --example train_serve -- serve /tmp/pipeline.lafs
//!
//! # Same, but zero-copy: memory-map the snapshot and serve the dataset in
//! # place (format v3). Needs only read access to the file — works on a
//! # chmod 444 snapshot — and shares page-cache pages across every serving
//! # process mapping the same file:
//! cargo run --release --example train_serve -- serve-mmap /tmp/pipeline.lafs
//!
//! # Concurrent serving front: N pipelined client threads against one
//! # LafServer, results checked bit-for-bit against the synchronous path,
//! # then the batch-occupancy histogram — the coalescing win, from the CLI:
//! cargo run --release --example train_serve -- serve-concurrent /tmp/pipeline.lafs 4
//!
//! # Multi-tenant cache: serve two snapshots through a SnapshotCache whose
//! # byte budget holds only one of them, so every tenant switch evicts and
//! # reloads (mmap, read-only files suffice); each tenant's labels are
//! # verified against its own sidecar and the cache counters are checked:
//! cargo run --release --example train_serve -- serve-tenants /tmp/a.lafs /tmp/b.lafs
//!
//! # Mutable plane crash-recovery smoke: build a mutable pipeline
//! # directory, write through the WAL, tear the log tail at several byte
//! # offsets, reopen each copy, and assert recovery lands exactly on the
//! # committed prefix; then compact and verify answers are unchanged:
//! cargo run --release --example train_serve -- serve-mutable /tmp/mutable-dir
//!
//! # Or run all phases in sequence against a temp file:
//! cargo run --release --example train_serve [engine]
//! ```
//!
//! Engines: `linear` (default), `kmeans_tree`, `ivf`, `cover_tree`. Every
//! engine persists its built structure, so the serve phase restores it
//! instead of rebuilding.
//!
//! The serve phase fails loudly (non-zero exit) if the restored pipeline's
//! labels differ from the sidecar — this is the round-trip smoke check CI
//! runs to catch snapshot format regressions.

use laf::prelude::*;
use laf::serve::ServeError;
use std::time::Instant;

fn demo_dataset() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 2_000,
        dim: 32,
        clusters: 8,
        noise_fraction: 0.2,
        seed: 42,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config")
    .0
}

/// Sidecar with the labels the training process observed, so an independent
/// serve process can verify bit-exactness: little-endian `i64` per point.
fn labels_sidecar(snapshot_path: &str) -> String {
    format!("{snapshot_path}.labels")
}

fn write_labels(path: &str, labels: &[i64]) {
    let mut bytes = Vec::with_capacity(labels.len() * 8);
    for &l in labels {
        bytes.extend_from_slice(&l.to_le_bytes());
    }
    std::fs::write(path, bytes).expect("write labels sidecar");
}

fn read_labels(path: &str) -> Option<Vec<i64>> {
    let bytes = std::fs::read(path).ok()?;
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

fn parse_engine(name: &str) -> EngineChoice {
    match name {
        "linear" => EngineChoice::Linear,
        "kmeans_tree" => EngineChoice::KMeansTree {
            branching: 10,
            leaf_ratio: 0.6,
        },
        "ivf" => EngineChoice::Ivf {
            nlist: 16,
            nprobe: 16,
        },
        "cover_tree" => EngineChoice::CoverTree { basis: 2.0 },
        other => {
            eprintln!("unknown engine `{other}` (use linear | kmeans_tree | ivf | cover_tree)");
            std::process::exit(2);
        }
    }
}

fn train(snapshot_path: &str, engine: EngineChoice) {
    let data = demo_dataset();
    println!(
        "[train] {} points x {} dims, engine {engine:?}",
        data.len(),
        data.dim()
    );

    let t = Instant::now();
    let pipeline = LafPipeline::builder(LafConfig {
        engine,
        ..LafConfig::new(0.35, 4, 1.0)
    })
    .training(TrainingSetBuilder {
        max_queries: Some(400),
        ..Default::default()
    })
    .calibrate(true)
    .train(data)
    .expect("training");
    println!("[train] estimator fitted in {:.2?}", t.elapsed());
    if let Some(report) = pipeline.calibration() {
        println!(
            "[train] calibration: mean q-error {:.3}, p95 {:.3} over {} pairs ({} non-finite)",
            report.mean, report.p95, report.evaluated, report.non_finite
        );
    }

    let t = Instant::now();
    pipeline.save(snapshot_path).expect("snapshot save");
    let size = std::fs::metadata(snapshot_path).map_or(0, |m| m.len());
    println!(
        "[train] snapshot saved to {snapshot_path} ({size} bytes, engine structure {}) in {:.2?}",
        match pipeline.persisted_engine() {
            Some(e) => format!("persisted: {}", e.kind()),
            None => "not persisted (rebuild on load)".to_string(),
        },
        t.elapsed()
    );

    let (clustering, stats) = pipeline.cluster_with_stats();
    println!(
        "[train] reference clustering: {} clusters, {} noise, {} skipped / {} executed queries",
        clustering.n_clusters(),
        clustering.n_noise(),
        stats.skipped_range_queries,
        stats.executed_range_queries
    );
    write_labels(&labels_sidecar(snapshot_path), clustering.labels());
}

/// Format version from a `.lafs` header (bytes 4..8), `None` if unreadable.
fn snapshot_format_version(snapshot_path: &str) -> Option<u32> {
    use std::io::Read;
    let mut header = [0u8; 8];
    std::fs::File::open(snapshot_path)
        .and_then(|mut f| f.read_exact(&mut header))
        .ok()?;
    Some(u32::from_le_bytes(
        header[4..8].try_into().expect("4 bytes"),
    ))
}

fn serve(snapshot_path: &str, mmap: bool) {
    let t = Instant::now();
    let pipeline = if mmap {
        LafPipeline::load_mmap(snapshot_path).expect("snapshot mmap load")
    } else {
        LafPipeline::load(snapshot_path).expect("snapshot load")
    };
    println!(
        "[serve] warm start: {} points x {} dims restored in {:.2?} (no retraining; dataset {}; engine {})",
        pipeline.data().len(),
        pipeline.data().dim(),
        t.elapsed(),
        if pipeline.data().is_mapped() {
            "served zero-copy from the file mapping"
        } else {
            "copied into an owned buffer"
        },
        match pipeline.persisted_engine() {
            Some(e) => format!("`{}` restored without rebuild", e.kind()),
            None => "rebuilt from config".to_string(),
        }
    );
    if mmap && cfg!(target_endian = "little") && snapshot_format_version(snapshot_path) >= Some(3) {
        // The zero-copy path is the whole point of serve-mmap: fail loudly
        // if a format-v3 snapshot fell back to copying. Older snapshots are
        // *expected* to fall back (their writers guaranteed no alignment),
        // so the assert is gated on the file's actual format version.
        assert!(
            pipeline.data().is_mapped(),
            "serve-mmap on a v3 snapshot must map the dataset in place"
        );
    }

    let t = Instant::now();
    let (clustering, stats) = pipeline.cluster_with_stats();
    println!(
        "[serve] first clustering served in {:.2?}: {} clusters, {} noise, skip ratio {:.2}",
        t.elapsed(),
        clustering.n_clusters(),
        clustering.n_noise(),
        stats.skip_ratio()
    );

    match read_labels(&labels_sidecar(snapshot_path)) {
        Some(reference) => {
            assert_eq!(
                clustering.labels(),
                reference.as_slice(),
                "loaded pipeline produced different labels than the training process"
            );
            println!(
                "[serve] OK: labels byte-identical to the training process ({} points)",
                reference.len()
            );
        }
        None => println!("[serve] no labels sidecar found; skipping the bit-exactness check"),
    }
}

/// Concurrent serving plane: `n_clients` threads, each keeping several
/// range-count requests in flight against one [`LafServer`], every answer
/// checked bit-for-bit against the synchronous engine path. Prints the
/// batch-occupancy histogram at the end — the direct evidence of how well
/// the dispatcher coalesced independent requests into `dot4` tiles.
fn serve_concurrent(snapshot_path: &str, n_clients: usize) {
    /// Requests each client keeps in flight (via [`Ticket`]s) so the
    /// dispatcher always has batch-mates to merge.
    const PIPELINE_DEPTH: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 2_000;
    const N_QUERIES: usize = 64;
    const EPS: f32 = 0.35;

    let pipeline = LafPipeline::load(snapshot_path).expect("snapshot load");
    let stride = (pipeline.data().len() / N_QUERIES).max(1);
    let queries: Vec<Vec<f32>> = (0..N_QUERIES.min(pipeline.data().len()))
        .map(|i| pipeline.data().row(i * stride).to_vec())
        .collect();
    // Ground truth from the synchronous path, before the server takes the
    // pipeline: coalescing must be invisible to callers.
    let engine = pipeline.engine();
    let expected: Vec<usize> = queries.iter().map(|q| engine.range_count(q, EPS)).collect();
    drop(engine);

    let server = LafServer::start(pipeline, ServeConfig::default());
    println!(
        "[serve-concurrent] {n_clients} clients x {REQUESTS_PER_CLIENT} range-count requests, \
         pipeline depth {PIPELINE_DEPTH}, window {}us, max batch {}",
        server.config().coalesce_window_us,
        server.config().max_batch
    );

    let t = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..n_clients {
            let (server, queries, expected) = (&server, &queries, &expected);
            scope.spawn(move || {
                let mut inflight: std::collections::VecDeque<(usize, Ticket<QueryResponse>)> =
                    std::collections::VecDeque::with_capacity(PIPELINE_DEPTH);
                let mut issued = 0usize;
                let mut i = client; // stagger the query cycle per client
                while issued < REQUESTS_PER_CLIENT || !inflight.is_empty() {
                    while issued < REQUESTS_PER_CLIENT && inflight.len() < PIPELINE_DEPTH {
                        i = (i + 1) % queries.len();
                        let request = QueryRequest::RangeCount {
                            query: queries[i].clone(),
                            eps: EPS,
                        };
                        match server.submit_async(request) {
                            Ok(ticket) => {
                                inflight.push_back((i, ticket));
                                issued += 1;
                            }
                            // Queue full: stop issuing, drain one, retry.
                            Err(ServeError::Overloaded { .. }) => break,
                            Err(e) => panic!("submission failed: {e}"),
                        }
                    }
                    let Some((qi, ticket)) = inflight.pop_front() else {
                        break;
                    };
                    match ticket.wait().value {
                        QueryResponse::Count(n) => assert_eq!(
                            n, expected[qi],
                            "served result diverged from the synchronous path"
                        ),
                        other => panic!("range-count request answered with {other:?}"),
                    }
                }
            });
        }
    });
    let elapsed = t.elapsed();
    let report = server.shutdown();

    let total = n_clients * REQUESTS_PER_CLIENT;
    println!(
        "[serve-concurrent] {} requests served in {:.2?} ({:.0} qps), all bit-identical \
         to the synchronous path",
        report.completed,
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "[serve-concurrent] {} batches, mean occupancy {:.2}, {} of at least 16 requests, \
         peak queue depth {}, {} rejected",
        report.batches,
        report.mean_batch_occupancy,
        report.tile_batches,
        report.peak_queue_depth,
        report.rejected
    );
    println!("[serve-concurrent] batch-occupancy histogram (batch size -> batches):");
    let peak = report
        .occupancy
        .iter()
        .map(|b| b.batches)
        .max()
        .unwrap_or(0);
    for bucket in &report.occupancy {
        let bar = if peak == 0 {
            0
        } else {
            (bucket.batches * 40).div_ceil(peak) as usize
        };
        println!(
            "    {:>6} | {:<40} {}",
            bucket.batch_size,
            "#".repeat(bar),
            bucket.batches
        );
    }
    assert_eq!(
        report.completed, report.submitted,
        "every admitted request must be answered"
    );
}

/// Multi-tenant serving plane: two snapshots behind one [`SnapshotCache`]
/// whose byte budget holds only **one** of them. Every tenant switch in the
/// alternating access pattern below therefore evicts the other tenant and
/// reloads from disk (by mmap — read-only snapshot files suffice), while
/// back-to-back queries on the same tenant hit the resident entry. Each
/// tenant's clustering is verified against its own training sidecar, and
/// the cache's accounting is asserted to balance.
fn serve_tenants(path_a: &str, path_b: &str) {
    const ROUNDS: usize = 2;
    const EPS: f32 = 0.35;

    let size = |p: &str| std::fs::metadata(p).expect("snapshot metadata").len();
    let (a, b) = (size(path_a), size(path_b));
    // Fits either snapshot alone, never both: the eviction path is
    // guaranteed to run on every tenant switch.
    let budget = a.max(b) + a.min(b) / 2;
    let cache = SnapshotCache::new(CacheConfig {
        byte_budget: budget,
        max_entries: 2,
        tenant_quota: 0,
    });
    cache.register("a", path_a).expect("register tenant a");
    cache.register("b", path_b).expect("register tenant b");
    let server = TenantServer::new(cache.clone());
    println!(
        "[serve-tenants] byte budget {budget} holds one of ({a}, {b}) bytes: \
         every tenant switch must evict"
    );

    for _ in 0..ROUNDS {
        for (tenant, path) in [("a", path_a), ("b", path_b)] {
            // One pin across the whole request: the miss (or hit) below
            // keeps the snapshot resident for both the query and the
            // clustering, and the entry stays pinned — ineligible for
            // eviction — until the guard drops.
            let pin = server.pin(tenant).expect("tenant admission");
            let query: Vec<f32> = pin.data().row(0).to_vec();
            let count = pin.engine().get().range_count(&query, EPS);
            assert!(count >= 1, "row 0 must at least match itself");
            let (clustering, _) = pin.cluster_with_stats();
            match read_labels(&labels_sidecar(path)) {
                Some(reference) => assert_eq!(
                    clustering.labels(),
                    reference.as_slice(),
                    "tenant `{tenant}` labels diverged through the cache"
                ),
                None => println!("[serve-tenants] no sidecar for `{tenant}`; skipping label check"),
            }
        }
    }

    let report = cache.report();
    println!(
        "[serve-tenants] {} hits / {} misses / {} evictions, {} of {} bytes resident",
        report.hits, report.misses, report.evictions, report.resident_bytes, budget
    );
    assert!(
        report.evictions >= 1,
        "a cache sized for one snapshot must have evicted on tenant switches"
    );
    assert_eq!(report.pins, report.unpins, "every pin must be released");
    assert!(
        report.resident_bytes <= budget,
        "resident bytes exceed the byte budget"
    );
    assert_eq!(
        report.pins,
        report.hits + report.misses,
        "every pin must be classified as a hit or a miss"
    );
    println!("[serve-tenants] OK: both tenants bit-identical, cache accounting balanced");
}

/// Mutable-plane crash-recovery smoke. Builds a small mutable pipeline in
/// `dir`, applies a synced insert/delete workload recording the WAL byte
/// boundary and live-row bits after every operation, then for several kill
/// points — including one that tears the final frame mid-record — copies
/// the directory, truncates the log at the kill point, reopens, and asserts
/// the recovered rows are bit-identical to the longest committed prefix.
/// Finishes by proving post-recovery durability (insert, sync, reopen) and
/// compacting, verifying answers are unchanged by the fold.
fn serve_mutable(dir: &str) {
    use laf::core::WAL_FILE;

    let (data, _) = EmbeddingMixtureConfig {
        n_points: 800,
        dim: 16,
        clusters: 4,
        noise_fraction: 0.15,
        seed: 7,
        ..Default::default()
    }
    .generate()
    .expect("valid generator config");
    let pipeline = LafPipeline::builder(LafConfig::new(0.35, 4, 1.0))
        .training(TrainingSetBuilder {
            max_queries: Some(120),
            ..Default::default()
        })
        .train(data)
        .expect("training");

    std::fs::remove_dir_all(dir).ok();
    let mut mutable = MutablePipeline::create(dir, &pipeline).expect("mutable create");
    println!(
        "[serve-mutable] {} base rows x {} dims in {dir}",
        mutable.len(),
        mutable.dim()
    );

    let live_bits = |m: &MutablePipeline| -> Vec<u32> {
        let live = m.live_dataset().expect("live rows materialize");
        live.as_flat().iter().map(|v| v.to_bits()).collect()
    };
    let copy_dir = |from: &str, to: &std::path::Path| {
        std::fs::remove_dir_all(to).ok();
        std::fs::create_dir_all(to).expect("scratch dir");
        for entry in std::fs::read_dir(from).expect("read mutable dir") {
            let entry = entry.expect("dir entry");
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
        }
    };

    // A synced workload, recording the durability frontier and the exact
    // live-row bits after every operation.
    let row: Vec<f32> = mutable.row(0).to_vec();
    let mut boundaries: Vec<u64> = Vec::new();
    let mut states: Vec<Vec<u32>> = vec![live_bits(&mutable)]; // states[i] = after i ops
    for op in 0..8usize {
        if op % 3 == 2 {
            mutable.delete(op * 13 % mutable.len()).expect("delete");
        } else {
            let mut r = row.clone();
            r[0] += op as f32;
            mutable.insert(&r).expect("insert");
        }
        mutable.sync().expect("sync");
        boundaries.push(mutable.wal_len_bytes());
        states.push(live_bits(&mutable));
    }
    let full_len = *boundaries.last().expect("non-empty workload");

    // Kill points: mid-frame tears (last frame and an interior frame) plus
    // every exact frame boundary.
    let mut kill_points: Vec<u64> = vec![full_len - 3, boundaries[3] + 5];
    kill_points.extend(boundaries.iter().copied());
    let scratch = std::path::PathBuf::from(format!("{dir}-crash"));
    for &kill in &kill_points {
        copy_dir(dir, &scratch);
        let wal = scratch.join(WAL_FILE);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("open wal copy");
        file.set_len(kill).expect("truncate to kill point");
        drop(file);
        let reopened = MutablePipeline::open(&scratch).expect("recovery must succeed");
        let committed = boundaries.iter().filter(|&&b| b <= kill).count();
        assert_eq!(
            live_bits(&reopened),
            states[committed],
            "kill at byte {kill}: recovery must land exactly on the {committed}-op prefix"
        );
    }
    println!(
        "[serve-mutable] {} kill points recovered exactly (workload {} ops, {} WAL bytes)",
        kill_points.len(),
        boundaries.len(),
        full_len
    );

    // Post-recovery durability on the last torn copy: a write after replay
    // must survive its own crash-reopen cycle.
    let mut recovered = MutablePipeline::open(&scratch).expect("reopen torn copy");
    let len_before = recovered.len();
    recovered.insert(&row).expect("post-recovery insert");
    recovered.sync().expect("post-recovery sync");
    drop(recovered);
    let recovered = MutablePipeline::open(&scratch).expect("reopen after recovery write");
    assert_eq!(recovered.len(), len_before + 1, "post-recovery write lost");
    drop(recovered);
    std::fs::remove_dir_all(&scratch).ok();

    // Compaction must not change a single answer.
    let query: Vec<f32> = mutable.row(1).to_vec();
    let range_before = mutable.range(&query, 0.35);
    let knn_before = mutable.knn(&query, 8);
    mutable.compact().expect("compaction");
    assert_eq!(mutable.pending_ops(), 0, "compaction must fold everything");
    assert_eq!(mutable.generation(), 1, "compaction must bump generation");
    assert_eq!(
        mutable.range(&query, 0.35),
        range_before,
        "range answers must be unchanged by compaction"
    );
    let knn_after = mutable.knn(&query, 8);
    assert_eq!(knn_before.len(), knn_after.len());
    for (a, b) in knn_before.iter().zip(&knn_after) {
        assert_eq!(
            (a.index, a.dist.to_bits()),
            (b.index, b.dist.to_bits()),
            "knn answers must be bit-identical across compaction"
        );
    }
    println!(
        "[serve-mutable] OK: committed prefix recovered at every kill point, \
         answers bit-identical across compaction (generation {})",
        mutable.generation()
    );
}

fn parse_clients(arg: &str) -> usize {
    match arg.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("client count must be a positive integer, got `{arg}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [phase, path] if phase == "train" => train(path, EngineChoice::Linear),
        [phase, path, engine] if phase == "train" => train(path, parse_engine(engine)),
        [phase, path] if phase == "serve" => serve(path, false),
        [phase, path] if phase == "serve-mmap" => serve(path, true),
        [phase, path] if phase == "serve-concurrent" => serve_concurrent(path, 4),
        [phase, path, n] if phase == "serve-concurrent" => {
            serve_concurrent(path, parse_clients(n));
        }
        [phase, path_a, path_b] if phase == "serve-tenants" => serve_tenants(path_a, path_b),
        [phase, dir] if phase == "serve-mutable" => serve_mutable(dir),
        [] | [_] => {
            let engine = args
                .first()
                .map_or(EngineChoice::Linear, |e| parse_engine(e));
            let path = std::env::temp_dir()
                .join(format!("laf_train_serve_demo_{}.lafs", std::process::id()));
            let path = path.to_string_lossy().into_owned();
            train(&path, engine);
            serve(&path, false);
            serve(&path, true);
            serve_concurrent(&path, 4);
            // Two tenants over the same snapshot file still churn the
            // cache: the budget holds one resident entry, not two.
            serve_tenants(&path, &path);
            let mutable_dir = format!("{path}.mutable");
            serve_mutable(&mutable_dir);
            std::fs::remove_dir_all(&mutable_dir).ok();
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(labels_sidecar(&path)).ok();
        }
        _ => {
            eprintln!(
                "usage: train_serve [train <snapshot> [engine] | serve <snapshot> | \
                 serve-mmap <snapshot> | serve-concurrent <snapshot> [clients] | \
                 serve-tenants <snapshot_a> <snapshot_b> | serve-mutable <dir> | [engine]]"
            );
            std::process::exit(2);
        }
    }
}
