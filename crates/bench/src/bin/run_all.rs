//! Runs the paper harness in one process: Tables 2–6, Figures 1–4 and the
//! ablations, writing every JSON record into the results directory.

use std::time::Instant;

fn main() {
    let cfg = laf_bench::HarnessConfig::from_env();
    println!(
        "LAF-DBSCAN paper harness (scale={}, dim_cap={:?}, train_queries={})",
        cfg.scale, cfg.dim_cap, cfg.train_queries
    );
    let started = Instant::now();
    let _ = laf_bench::experiments::table2(&cfg);
    let _ = laf_bench::experiments::table3(&cfg);
    let _ = laf_bench::experiments::table4(&cfg);
    let _ = laf_bench::experiments::table5(&cfg);
    let _ = laf_bench::experiments::table6(&cfg);
    let _ = laf_bench::experiments::fig1(&cfg);
    let _ = laf_bench::experiments::fig_tradeoff(&cfg, "MS-150k", "fig2");
    let _ = laf_bench::experiments::fig_tradeoff(&cfg, "Glove-150k", "fig3");
    let _ = laf_bench::experiments::fig4(&cfg);
    let _ = laf_bench::ablation::run(&cfg);
    println!("\npaper harness finished in {:.1?}", started.elapsed());
}
