//! # laf-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section on the synthetic stand-in datasets.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `exp_table1` | Table 1 — dataset inventory |
//! | `exp_table2` | Table 2 — (noise ratio, #clusters) grid over (ε, τ) |
//! | `exp_table3` | Table 3 — ARI/AMI of the approximate methods on the three largest datasets |
//! | `exp_table4` | Table 4 — ρ-approximate DBSCAN vs DBSCAN runtimes |
//! | `exp_table5` | Table 5 — quality across the MS scale family |
//! | `exp_table6` | Table 6 — fully-missed-cluster statistics of LAF-DBSCAN |
//! | `exp_fig1`   | Figure 1 — clustering time bars at the three (ε, τ) settings |
//! | `exp_fig2`   | Figure 2 — speed–quality trade-off on MS-150k |
//! | `exp_fig3`   | Figure 3 — speed–quality trade-off on Glove-150k |
//! | `exp_fig4`   | Figure 4 — scalability over MS-50k/100k/150k |
//! | `exp_throughput` | (not a paper exhibit) the kernel gate: single-thread cosine `range_count` of the linear scan vs the brute-force `ReferenceScan`, exit non-zero below 2x |
//! | `exp_snapshot` | (not a paper exhibit) cold (train+save) vs warm (load) startup to first served clustering |
//! | `exp_serving` | (not a paper exhibit) coalesced vs one-at-a-time dispatch through the serving front, per offered load |
//! | `exp_sharding` | (not a paper exhibit) sharded scatter-gather fan-out vs the unsharded engine, plus tenant-cache churn counters |
//! | `exp_mutable` | (not a paper exhibit) WAL insert throughput, base+delta read overhead, crash-recovery time, post-compaction bit-exactness |
//! | `exp_faults` | (not a paper exhibit) degraded-load matrix on corrupt snapshot sections, cache scrub/quarantine, seeded chaos replay (with `--features fault-injection`) |
//! | `run_all`    | all of the above, writing JSON into `results/` |
//!
//! Scale is controlled by environment variables so the same binaries serve
//! quick smoke runs and larger overnight runs:
//!
//! * `LAF_SCALE` — fraction of the paper's dataset sizes (default `0.008`,
//!   i.e. ≈1,200 points for the 150k datasets);
//! * `LAF_DIM_CAP` — cap on data dimensionality (default `64`; set to `0`
//!   for the paper's full 200/256/768 dimensions);
//! * `LAF_TRAIN_QUERIES` — queries used to build the estimator training set
//!   (default `400`);
//! * `LAF_RESULTS_DIR` — where JSON results are written (default `results`).

#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod fault_bench;
pub mod harness;
pub mod mutable_bench;
pub mod report;
pub mod serving;
pub mod sharding;
pub mod snapshot_bench;
pub mod throughput;

pub use harness::{HarnessConfig, Method, MethodOutcome, PreparedDataset, SettingOutcome};
pub use report::{format_seconds, print_table, write_json};
