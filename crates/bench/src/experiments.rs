//! One function per table/figure of the paper. Each function prints the
//! reproduction of that exhibit and writes a JSON record under the results
//! directory, so the binaries in `src/bin/` stay one-liners and `run_all`
//! can regenerate everything in a single process.

use crate::harness::{
    evaluate_setting, missed_cluster_analysis, run_method, tradeoff_sweep, HarnessConfig, Method,
    MethodOutcome, SettingOutcome,
};
use crate::report::{format_seconds, print_table, write_json};
use laf_clustering::{Clusterer, Dbscan, RhoApproxDbscan};
use laf_metrics::ClusteringStats;
use serde::Serialize;
use std::time::Instant;

/// The three (ε, τ) settings the paper reports throughout its evaluation.
pub const PAPER_SETTINGS: [(f32, usize); 3] = [(0.5, 3), (0.55, 5), (0.6, 5)];

/// Table 2 — (noise ratio, number of clusters) of plain DBSCAN over the
/// (ε, τ) grid, on the MS scale family.
pub fn table2(cfg: &HarnessConfig) -> Vec<SettingStats> {
    let datasets = cfg.prepare_ms_family();
    let grid: [(f32, usize); 5] = [(0.5, 3), (0.5, 5), (0.55, 5), (0.6, 5), (0.7, 5)];
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for &(eps, tau) in &grid {
        let mut row = vec![format!("({eps}, {tau})")];
        for prepared in &datasets {
            let clustering = Dbscan::with_params(eps, tau).cluster(&prepared.test);
            let stats = clustering.stats();
            row.push(format!(
                "({:.2}, {})",
                stats.noise_ratio(),
                stats.n_clusters
            ));
            records.push(SettingStats {
                dataset: prepared.name.clone(),
                eps,
                tau,
                noise_ratio: stats.noise_ratio(),
                n_clusters: stats.n_clusters,
                proper: stats.is_proper(0.6, 20),
            });
        }
        rows.push(row);
    }
    let mut headers = vec!["(eps, tau)"];
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    headers.extend(names.iter().map(String::as_str));
    print_table(
        "Table 2: (noise ratio, #clusters) of DBSCAN over the (eps, tau) grid",
        &headers,
        &rows,
    );
    println!("{}", table2_note(&records));
    write_json(&cfg.results_dir, "table2", &records);
    records
}

/// The note printed under Table 2, stating what the run measured. For each
/// dataset: whether its noise ratio is non-increasing as ε grows (cells of
/// equal τ compared), and how many settings pass the paper's criterion
/// (`is_proper(0.6, 20)`).
fn table2_note(records: &[SettingStats]) -> String {
    let mut note = String::from(
        "(the paper keeps settings with noise ratio < 0.6 and >= 20 clusters, \
         and reports noise falling as eps grows; this run measured:)",
    );
    let mut seen: Vec<&str> = Vec::new();
    for record in records {
        let name = record.dataset.as_str();
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let cells: Vec<&SettingStats> = records.iter().filter(|r| r.dataset == name).collect();
        // (noise at a smaller eps, noise at a larger eps), at equal tau.
        let pairs = || {
            cells.iter().flat_map(|a| {
                cells
                    .iter()
                    .filter(move |b| a.tau == b.tau && a.eps < b.eps)
                    .map(move |b| (a.noise_ratio, b.noise_ratio))
            })
        };
        let trend = if pairs().any(|(before, after)| after > before) {
            "no"
        } else if pairs().any(|(before, after)| after < before) {
            "yes"
        } else {
            "yes, but flat"
        };
        let proper = cells.iter().filter(|c| c.proper).count();
        note.push_str(&format!(
            "\n  {name}: noise non-increasing as eps grows: {trend}; {proper} of {} settings proper",
            cells.len()
        ));
    }
    note
}

/// One Table 2 cell.
#[derive(Debug, Clone, Serialize)]
pub struct SettingStats {
    /// Dataset name.
    pub dataset: String,
    /// Distance threshold.
    pub eps: f32,
    /// Neighbor threshold.
    pub tau: usize,
    /// Noise ratio of the DBSCAN clustering.
    pub noise_ratio: f64,
    /// Number of clusters.
    pub n_clusters: usize,
    /// Whether the paper's "proper setting" criterion holds.
    pub proper: bool,
}

/// Table 3 — ARI and AMI of the approximate methods on the three largest
/// datasets at the three paper settings. Returns every setting outcome.
pub fn table3(cfg: &HarnessConfig) -> Vec<SettingOutcome> {
    let datasets = cfg.prepare_largest_three();
    let mut all = Vec::new();
    for &(eps, tau) in &PAPER_SETTINGS {
        for prepared in &datasets {
            all.push(evaluate_setting(cfg, prepared, eps, tau, &Method::TABLE3));
        }
    }
    for metric in ["ARI", "AMI"] {
        let mut rows = Vec::new();
        for &(eps, tau) in &PAPER_SETTINGS {
            for method in Method::TABLE3 {
                let mut row = vec![format!("({eps},{tau})"), method.label().to_string()];
                for prepared in &datasets {
                    let setting = all
                        .iter()
                        .find(|s| s.dataset == prepared.name && s.eps == eps && s.tau == tau)
                        .expect("setting was evaluated");
                    let outcome = setting
                        .outcomes
                        .iter()
                        .find(|o| o.method == method.label())
                        .expect("method was evaluated");
                    let v = if metric == "ARI" {
                        outcome.ari
                    } else {
                        outcome.ami
                    };
                    row.push(format!("{v:.4}"));
                }
                rows.push(row);
            }
        }
        let mut headers = vec!["(eps,tau)", "Method"];
        let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
        headers.extend(names.iter().map(String::as_str));
        print_table(
            &format!("Table 3 ({metric}): clustering quality on the three largest datasets"),
            &headers,
            &rows,
        );
    }
    write_json(&cfg.results_dir, "table3", &all);
    all
}

/// Table 4 — ρ-approximate DBSCAN vs DBSCAN clustering time on the MS scale
/// family.
pub fn table4(cfg: &HarnessConfig) -> Vec<MethodOutcome> {
    let datasets = cfg.prepare_ms_family();
    let mut outcomes = Vec::new();
    let mut rows = Vec::new();
    for &(eps, tau) in &PAPER_SETTINGS {
        let mut row = vec![format!("({eps}, {tau})")];
        for prepared in &datasets {
            let started = Instant::now();
            let _rho = RhoApproxDbscan::with_params(eps, tau).cluster(&prepared.test);
            let rho_seconds = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let _db = Dbscan::with_params(eps, tau).cluster(&prepared.test);
            let db_seconds = started.elapsed().as_secs_f64();
            row.push(format!(
                "{} / {}",
                format_seconds(rho_seconds),
                format_seconds(db_seconds)
            ));
            let (rho_outcome, _) =
                run_method(cfg, Method::RhoApprox, prepared, eps, tau, None, None);
            outcomes.push(MethodOutcome {
                seconds: rho_seconds,
                ..rho_outcome
            });
            outcomes.push(MethodOutcome {
                method: "DBSCAN".to_string(),
                dataset: prepared.name.clone(),
                eps,
                tau,
                seconds: db_seconds,
                ari: 1.0,
                ami: 1.0,
                n_clusters: 0,
                noise_ratio: 0.0,
                range_queries: 0,
                skipped_range_queries: 0,
                knob: 0.0,
            });
        }
        rows.push(row);
    }
    let mut headers = vec!["(eps, tau)"];
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    headers.extend(names.iter().map(String::as_str));
    print_table(
        "Table 4: rho-approximate DBSCAN time / DBSCAN time",
        &headers,
        &rows,
    );
    println!(
        "(the paper's point: in high dimension the grid bookkeeping makes rho-approximate \
         DBSCAN slower than plain DBSCAN, so it is excluded from the other experiments.)"
    );
    write_json(&cfg.results_dir, "table4", &outcomes);
    outcomes
}

/// Table 5 — quality of the approximate methods across the MS scale family
/// at (ε, τ) = (0.55, 5).
pub fn table5(cfg: &HarnessConfig) -> Vec<SettingOutcome> {
    let datasets = cfg.prepare_ms_family();
    let (eps, tau) = (0.55f32, 5usize);
    let all: Vec<SettingOutcome> = datasets
        .iter()
        .map(|p| evaluate_setting(cfg, p, eps, tau, &Method::TABLE3))
        .collect();
    for metric in ["ARI", "AMI"] {
        let mut rows = Vec::new();
        for method in Method::TABLE3 {
            let mut row = vec![method.label().to_string()];
            for setting in &all {
                let outcome = setting
                    .outcomes
                    .iter()
                    .find(|o| o.method == method.label())
                    .expect("method evaluated");
                let v = if metric == "ARI" {
                    outcome.ari
                } else {
                    outcome.ami
                };
                row.push(format!("{v:.4}"));
            }
            rows.push(row);
        }
        let mut headers = vec!["Method"];
        let names: Vec<String> = all.iter().map(|s| s.dataset.clone()).collect();
        headers.extend(names.iter().map(String::as_str));
        print_table(
            &format!("Table 5 ({metric}): quality across dataset scales (eps=0.55, tau=5)"),
            &headers,
            &rows,
        );
    }
    write_json(&cfg.results_dir, "table5", &all);
    all
}

/// Table 6 — fully-missed-cluster statistics of LAF-DBSCAN in its
/// worst-quality settings.
pub fn table6(cfg: &HarnessConfig) -> Vec<serde_json::Value> {
    let cases = [
        ("NYT-150k", 0.5f32, 3usize),
        ("Glove-150k", 0.55, 5),
        ("MS-150k", 0.55, 5),
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, eps, tau) in cases {
        let prepared = cfg.prepare(name);
        let (report, _) = missed_cluster_analysis(cfg, &prepared, eps, tau);
        rows.push(vec![
            format!("({eps}, {tau})"),
            name.to_string(),
            format!("{}/{}", report.missed_clusters, report.total_clusters),
            format!("{}/{}", report.missed_points, report.total_clustered_points),
            format!("{:.2}", report.avg_missed_cluster_size),
        ]);
        records.push(serde_json::json!({
            "dataset": name,
            "eps": eps,
            "tau": tau,
            "missed_clusters": report.missed_clusters,
            "total_clusters": report.total_clusters,
            "missed_points": report.missed_points,
            "total_clustered_points": report.total_clustered_points,
            "avg_missed_cluster_size": report.avg_missed_cluster_size,
        }));
    }
    print_table(
        "Table 6: fully missed clusters of LAF-DBSCAN (MC/TC, MP/TPC, ASMC)",
        &["(eps, tau)", "Dataset", "MC/TC", "MP/TPC", "ASMC"],
        &rows,
    );
    println!(
        "(the paper's observation: missed clusters can be numerous but are tiny, so their \
         impact on overall quality is negligible.)"
    );
    write_json(&cfg.results_dir, "table6", &records);
    records
}

/// Figure 1 — clustering time of every method on the three largest datasets
/// at each paper setting.
pub fn fig1(cfg: &HarnessConfig) -> Vec<SettingOutcome> {
    let datasets = cfg.prepare_largest_three();
    let mut methods = vec![Method::Dbscan];
    methods.extend(Method::TABLE3);
    let mut all = Vec::new();
    for &(eps, tau) in &PAPER_SETTINGS {
        let mut rows = Vec::new();
        for prepared in &datasets {
            let setting = evaluate_setting(cfg, prepared, eps, tau, &Method::TABLE3);
            for m in &methods {
                let outcome = setting
                    .outcomes
                    .iter()
                    .find(|o| o.method == m.label())
                    .expect("method evaluated");
                rows.push(vec![
                    prepared.name.clone(),
                    m.label().to_string(),
                    format_seconds(outcome.seconds),
                    outcome.range_queries.to_string(),
                    outcome.skipped_range_queries.to_string(),
                ]);
            }
            all.push(setting);
        }
        print_table(
            &format!("Figure 1: clustering time (eps={eps}, tau={tau})"),
            &["Dataset", "Method", "Time", "RangeQueries", "Skipped"],
            &rows,
        );
    }
    write_json(&cfg.results_dir, "fig1", &all);
    all
}

/// Figures 2 and 3 — speed–quality trade-off curves. `dataset` is
/// `"MS-150k"` for Figure 2 and `"Glove-150k"` for Figure 3.
pub fn fig_tradeoff(cfg: &HarnessConfig, dataset: &str, figure: &str) -> Vec<MethodOutcome> {
    let prepared = cfg.prepare(dataset);
    let (eps, tau) = (0.5f32, 3usize);
    let points = tradeoff_sweep(cfg, &prepared, eps, tau);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.method.clone(),
                format!("{:.3}", p.knob),
                format_seconds(p.seconds),
                format!("{:.4}", p.ami),
                format!("{:.4}", p.ari),
            ]
        })
        .collect();
    print_table(
        &format!("{figure}: speed-quality trade-off on {dataset} (eps=0.5, tau=3)"),
        &["Method", "Knob", "Time", "AMI", "ARI"],
        &rows,
    );
    println!(
        "(read as the paper's scatter plot: for a given AMI, the LAF rows should sit at \
         lower times in the high-quality region.)"
    );
    write_json(&cfg.results_dir, figure, &points);
    points
}

/// Figure 4 — scalability: clustering time of every method across the MS
/// scale family at (ε, τ) = (0.55, 5).
pub fn fig4(cfg: &HarnessConfig) -> Vec<SettingOutcome> {
    let datasets = cfg.prepare_ms_family();
    let (eps, tau) = (0.55f32, 5usize);
    let mut methods = vec![Method::Dbscan];
    methods.extend(Method::TABLE3);
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for prepared in &datasets {
        let setting = evaluate_setting(cfg, prepared, eps, tau, &Method::TABLE3);
        for m in &methods {
            let outcome = setting
                .outcomes
                .iter()
                .find(|o| o.method == m.label())
                .expect("method evaluated");
            rows.push(vec![
                prepared.name.clone(),
                format!("{}", prepared.test.len()),
                m.label().to_string(),
                format_seconds(outcome.seconds),
            ]);
        }
        all.push(setting);
    }
    print_table(
        "Figure 4: clustering time across dataset scales (eps=0.55, tau=5)",
        &["Dataset", "#Points", "Method", "Time"],
        &rows,
    );
    write_json(&cfg.results_dir, "fig4", &all);
    all
}

/// Sanity statistics helper shared by a couple of binaries.
pub fn describe(labels: &[i64]) -> ClusteringStats {
    ClusteringStats::from_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        dataset: &str,
        eps: f32,
        tau: usize,
        noise_ratio: f64,
        n_clusters: usize,
    ) -> SettingStats {
        SettingStats {
            dataset: dataset.to_string(),
            eps,
            tau,
            noise_ratio,
            n_clusters,
            proper: noise_ratio < 0.6 && n_clusters >= 20,
        }
    }

    #[test]
    fn table2_note_reports_the_measured_trend_and_proper_count() {
        let records = vec![
            // Falls with eps at τ = 5; the τ = 3 cell is lower than the
            // τ = 5 cell at the same eps, which is no rise in eps.
            cell("falls", 0.5, 3, 0.40, 30),
            cell("falls", 0.5, 5, 0.70, 25),
            cell("falls", 0.55, 5, 0.55, 24),
            cell("falls", 0.6, 5, 0.50, 12),
            cell("falls", 0.7, 5, 0.50, 3),
            // All noise, as the mirrors read at the paper's dimensions.
            cell("flat", 0.5, 3, 1.0, 0),
            cell("flat", 0.5, 5, 1.0, 0),
            cell("flat", 0.7, 5, 1.0, 0),
            // Rises between eps 0.55 and 0.6.
            cell("rises", 0.5, 5, 0.50, 21),
            cell("rises", 0.55, 5, 0.30, 40),
            cell("rises", 0.6, 5, 0.35, 40),
        ];
        let note = table2_note(&records);
        let lines: Vec<&str> = note.lines().skip(1).collect();
        assert_eq!(
            lines,
            [
                "  falls: noise non-increasing as eps grows: yes; 2 of 5 settings proper",
                "  flat: noise non-increasing as eps grows: yes, but flat; 0 of 3 settings proper",
                "  rises: noise non-increasing as eps grows: no; 3 of 3 settings proper",
            ]
        );
    }
}
