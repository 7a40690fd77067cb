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
//! | `exp_ablation` | (not a paper exhibit) estimator, post-processing and range-engine ablations |
//! | `exp_gates`  | (not a paper exhibit) the systems gates: eight timing comparisons (kernel, warm start, engine restore, mmap load, group commit, coalesced dispatch), exit non-zero when one misses its bound |
//! | `run_all`    | Tables 2–6, Figures 1–4 and the ablations in one process, writing JSON into `results/` |
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
//!
//! An unset or empty variable keeps its default. Any other value the
//! harness cannot use makes a binary print the error and exit with code 2
//! (see [`HarnessConfig::from_env`]).

#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod gates;
pub mod harness;
pub mod report;

pub use harness::{HarnessConfig, Method, MethodOutcome, PreparedDataset, SettingOutcome};
pub use report::{format_seconds, print_table, write_json};
