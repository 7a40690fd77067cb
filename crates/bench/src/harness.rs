//! Dataset preparation and method execution shared by every experiment.

use laf_cardest::{NetConfig, RmiConfig, RmiEstimator, TrainingSetBuilder};
use laf_clustering::{
    BlockDbscan, BlockDbscanConfig, Clusterer, Clustering, Dbscan, DbscanPlusPlus,
    DbscanPlusPlusConfig, KnnBlockDbscan, KnnBlockDbscanConfig, RhoApproxDbscan,
};
use laf_core::{LafConfig, LafDbscan, LafDbscanPlusPlus, LafDbscanPlusPlusConfig};
use laf_metrics::{adjusted_mutual_information, adjusted_rand_index, MissedClusterReport};
use laf_synth::DatasetCatalog;
use laf_vector::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// Scale and training knobs, read from the environment so the same binaries
/// serve both smoke runs and paper-scale runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarnessConfig {
    /// Fraction of the paper's dataset sizes to generate.
    pub scale: f64,
    /// Cap on data dimensionality (`None` = the paper's dimensions).
    pub dim_cap: Option<usize>,
    /// Catalog / sampling seed.
    pub seed: u64,
    /// Per-model network configuration for the RMI estimator.
    pub net: NetConfig,
    /// Number of query points used to build the estimator training set.
    pub train_queries: usize,
    /// Offset δ for the DBSCAN++ / LAF-DBSCAN++ sample fraction.
    pub delta: f64,
    /// Directory JSON results are written into.
    pub results_dir: PathBuf,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.008,
            dim_cap: Some(64),
            seed: 20230206,
            net: NetConfig {
                epochs: 30,
                ..NetConfig::small()
            },
            train_queries: 400,
            delta: 0.2,
            results_dir: PathBuf::from("results"),
        }
    }
}

/// A `LAF_*` variable set to a value the harness cannot use.
#[derive(Debug)]
pub(crate) struct EnvError {
    /// The variable.
    pub var: &'static str,
    /// Its value.
    pub value: String,
    /// The values the variable accepts.
    pub accepted: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.var, self.value, self.accepted
        )
    }
}

impl HarnessConfig {
    /// Read the configuration from `LAF_SCALE`, `LAF_DIM_CAP`,
    /// `LAF_TRAIN_QUERIES` and `LAF_RESULTS_DIR`. An unset or empty
    /// variable keeps its default. Any other value outside the accepted
    /// range (scale in (0, 1], dim cap a non-negative integer, train queries
    /// at least 1) is printed with the variable's name and exits the
    /// process with code 2.
    pub fn from_env() -> Self {
        Self::from_lookup(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
    }

    /// The configuration the variables `lookup` returns describe. An unset
    /// (`None`) or empty variable keeps its default.
    ///
    /// # Errors
    /// [`EnvError`] when `LAF_SCALE` is not a number in (0, 1],
    /// `LAF_DIM_CAP` is not a non-negative integer, or `LAF_TRAIN_QUERIES`
    /// is not an integer of at least 1.
    pub(crate) fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        let set = |var: &str| lookup(var).filter(|v| !v.is_empty());
        let mut cfg = Self::default();
        if let Some(scale) = parse_var(set, "LAF_SCALE", "a number in (0, 1]", |s: &f64| {
            *s > 0.0 && *s <= 1.0
        })? {
            cfg.scale = scale;
        }
        if let Some(cap) = parse_var(
            set,
            "LAF_DIM_CAP",
            "a non-negative integer (0 = no cap)",
            |_: &usize| true,
        )? {
            cfg.dim_cap = (cap > 0).then_some(cap);
        }
        if let Some(queries) =
            parse_var(set, "LAF_TRAIN_QUERIES", "an integer >= 1", |q: &usize| {
                *q >= 1
            })?
        {
            cfg.train_queries = queries;
        }
        if let Some(dir) = set("LAF_RESULTS_DIR") {
            cfg.results_dir = PathBuf::from(dir);
        }
        Ok(cfg)
    }

    /// The dataset catalog implied by this configuration.
    pub fn catalog(&self) -> DatasetCatalog {
        DatasetCatalog {
            scale: self.scale,
            seed: self.seed,
            dim_cap: self.dim_cap,
        }
    }

    /// Generate a preset, split it 80/20 and train the RMI estimator on the
    /// training split (exactly the paper's experimental protocol; all
    /// reported numbers are computed on the testing split).
    pub fn prepare(&self, preset: &str) -> PreparedDataset {
        let ds = self
            .catalog()
            .generate(preset)
            .expect("preset name is one of the Table 1 entries");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5114_7E57);
        let (train, test) = ds.data.train_test_split(0.8, &mut rng);
        let started = Instant::now();
        let training = TrainingSetBuilder {
            max_queries: Some(self.train_queries),
            ..Default::default()
        }
        .build(&train, &train)
        .expect("training set");
        let rmi = RmiEstimator::train(&training, &RmiConfig::paper_stages(self.net.clone()));
        PreparedDataset {
            name: ds.spec.name.to_string(),
            paper_alpha: ds.spec.paper_alpha,
            train,
            test,
            rmi,
            train_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Prepare the three largest datasets (NYT-150k, Glove-150k, MS-150k).
    pub fn prepare_largest_three(&self) -> Vec<PreparedDataset> {
        ["NYT-150k", "Glove-150k", "MS-150k"]
            .iter()
            .map(|n| self.prepare(n))
            .collect()
    }

    /// Prepare the MS MARCO scale family (MS-50k, MS-100k, MS-150k).
    pub fn prepare_ms_family(&self) -> Vec<PreparedDataset> {
        ["MS-50k", "MS-100k", "MS-150k"]
            .iter()
            .map(|n| self.prepare(n))
            .collect()
    }
}

/// `var` parsed as a `T` that `valid` accepts, or `None` when unset.
fn parse_var<T: FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    var: &'static str,
    accepted: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, EnvError> {
    let Some(value) = lookup(var) else {
        return Ok(None);
    };
    match value.parse::<T>() {
        Ok(parsed) if valid(&parsed) => Ok(Some(parsed)),
        _ => Err(EnvError {
            var,
            value,
            accepted,
        }),
    }
}

/// A generated dataset with its trained estimator.
pub struct PreparedDataset {
    /// Preset name (Table 1).
    pub name: String,
    /// The α the paper uses for LAF-DBSCAN on this dataset.
    pub paper_alpha: f32,
    /// Training split (estimator training only).
    pub train: Dataset,
    /// Testing split (all reported numbers).
    pub test: Dataset,
    /// The trained 3-stage RMI estimator.
    pub rmi: RmiEstimator,
    /// Wall-clock seconds spent building the training set and training the
    /// estimator (reported separately, excluded from clustering times as in
    /// the paper).
    pub train_seconds: f64,
}

/// The methods the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// Original DBSCAN (ground truth).
    Dbscan,
    /// KNN-BLOCK DBSCAN.
    KnnBlock,
    /// BLOCK-DBSCAN.
    BlockDbscan,
    /// DBSCAN++.
    DbscanPlusPlus,
    /// ρ-approximate DBSCAN.
    RhoApprox,
    /// LAF-DBSCAN (the paper's main method).
    LafDbscan,
    /// LAF-DBSCAN++.
    LafDbscanPlusPlus,
}

impl Method {
    /// The approximate methods compared in Table 3 / Figure 1 (ρ-approximate
    /// DBSCAN is excluded there, as in the paper, because of its runtime).
    pub const TABLE3: [Method; 5] = [
        Method::KnnBlock,
        Method::BlockDbscan,
        Method::DbscanPlusPlus,
        Method::LafDbscan,
        Method::LafDbscanPlusPlus,
    ];

    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Dbscan => "DBSCAN",
            Method::KnnBlock => "KNN-BLOCK",
            Method::BlockDbscan => "BLOCK-DBSCAN",
            Method::DbscanPlusPlus => "DBSCAN++",
            Method::RhoApprox => "rho-approx",
            Method::LafDbscan => "LAF-DBSCAN",
            Method::LafDbscanPlusPlus => "LAF-DBSCAN++",
        }
    }
}

/// Result of running one method at one (ε, τ) setting on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodOutcome {
    /// Method label.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Distance threshold.
    pub eps: f32,
    /// Neighbor threshold.
    pub tau: usize,
    /// Wall-clock clustering time in seconds (training time excluded).
    pub seconds: f64,
    /// Adjusted Rand Index against DBSCAN (1.0 for DBSCAN itself).
    pub ari: f64,
    /// Adjusted Mutual Information against DBSCAN.
    pub ami: f64,
    /// Number of clusters produced.
    pub n_clusters: usize,
    /// Fraction of points labeled noise.
    pub noise_ratio: f64,
    /// Range queries executed.
    pub range_queries: u64,
    /// Range queries skipped by the LAF gate (0 for non-LAF methods).
    pub skipped_range_queries: u64,
    /// The method-specific knob used (α for the LAF methods, sample fraction
    /// for the DBSCAN++ family, ρ for ρ-approximate DBSCAN).
    pub knob: f64,
}

/// All outcomes for one dataset at one (ε, τ) setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SettingOutcome {
    /// Dataset name.
    pub dataset: String,
    /// Distance threshold.
    pub eps: f32,
    /// Neighbor threshold.
    pub tau: usize,
    /// Per-method outcomes, DBSCAN first.
    pub outcomes: Vec<MethodOutcome>,
}

/// Run one method and score it against the supplied ground truth (pass the
/// DBSCAN clustering; for DBSCAN itself pass `None` and ARI/AMI are 1).
/// Returns the outcome and the clustering (the latter is needed by the
/// missed-cluster analysis).
pub fn run_method(
    cfg: &HarnessConfig,
    method: Method,
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
    alpha_override: Option<f32>,
    truth: Option<&Clustering>,
) -> (MethodOutcome, Clustering) {
    let data = &prepared.test;
    let alpha = alpha_override.unwrap_or(prepared.paper_alpha);
    // The paper keeps the sample fraction of DBSCAN++ and LAF-DBSCAN++
    // identical: p = δ + R_c with R_c the predicted-core ratio.
    let laf_pp_cfg = LafDbscanPlusPlusConfig {
        laf: LafConfig {
            eps,
            min_pts: tau,
            alpha: 1.0,
            ..LafConfig::default()
        },
        delta: cfg.delta,
        ..Default::default()
    };
    let laf_pp = LafDbscanPlusPlus::new(laf_pp_cfg.clone(), &prepared.rmi);
    let shared_fraction = laf_pp.sample_fraction(data);

    let started = Instant::now();
    let (clustering, knob, skipped) = match method {
        Method::Dbscan => (Dbscan::with_params(eps, tau).cluster(data), 0.0, 0),
        Method::KnnBlock => (
            KnnBlockDbscan::new(KnnBlockDbscanConfig::new(eps, tau)).cluster(data),
            0.6,
            0,
        ),
        Method::BlockDbscan => (
            BlockDbscan::new(BlockDbscanConfig::new(eps, tau)).cluster(data),
            2.0,
            0,
        ),
        Method::DbscanPlusPlus => (
            DbscanPlusPlus::new(DbscanPlusPlusConfig {
                eps,
                min_pts: tau,
                sample_fraction: shared_fraction,
                ..Default::default()
            })
            .cluster(data),
            shared_fraction,
            0,
        ),
        Method::RhoApprox => (RhoApproxDbscan::with_params(eps, tau).cluster(data), 1.0, 0),
        Method::LafDbscan => {
            let laf = LafDbscan::new(LafConfig::new(eps, tau, alpha), &prepared.rmi);
            let (c, stats) = laf.cluster_with_stats(data);
            (c, alpha as f64, stats.skipped_range_queries)
        }
        Method::LafDbscanPlusPlus => {
            let (c, stats) = laf_pp.cluster_with_stats(data);
            (c, shared_fraction, stats.skipped_range_queries)
        }
    };
    let seconds = started.elapsed().as_secs_f64();

    let (ari, ami) = match truth {
        Some(t) => (
            adjusted_rand_index(t.labels(), clustering.labels()),
            adjusted_mutual_information(t.labels(), clustering.labels()),
        ),
        None => (1.0, 1.0),
    };
    let stats = clustering.stats();
    let outcome = MethodOutcome {
        method: method.label().to_string(),
        dataset: prepared.name.clone(),
        eps,
        tau,
        seconds,
        ari,
        ami,
        n_clusters: stats.n_clusters,
        noise_ratio: stats.noise_ratio(),
        range_queries: clustering.range_queries,
        skipped_range_queries: skipped,
        knob,
    };
    (outcome, clustering)
}

/// Run DBSCAN (ground truth) plus the requested approximate methods for one
/// dataset and one (ε, τ) setting.
pub fn evaluate_setting(
    cfg: &HarnessConfig,
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
    methods: &[Method],
) -> SettingOutcome {
    let (truth_outcome, truth) = run_method(cfg, Method::Dbscan, prepared, eps, tau, None, None);
    let mut outcomes = vec![truth_outcome];
    for &m in methods {
        if m == Method::Dbscan {
            continue;
        }
        let (outcome, _) = run_method(cfg, m, prepared, eps, tau, None, Some(&truth));
        outcomes.push(outcome);
    }
    SettingOutcome {
        dataset: prepared.name.clone(),
        eps,
        tau,
        outcomes,
    }
}

/// Fully-missed-cluster analysis of LAF-DBSCAN on one dataset (Table 6).
pub fn missed_cluster_analysis(
    cfg: &HarnessConfig,
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
) -> (MissedClusterReport, MethodOutcome) {
    let (_, truth) = run_method(cfg, Method::Dbscan, prepared, eps, tau, None, None);
    let (outcome, laf) = run_method(
        cfg,
        Method::LafDbscan,
        prepared,
        eps,
        tau,
        None,
        Some(&truth),
    );
    (
        MissedClusterReport::compute(truth.labels(), laf.labels()),
        outcome,
    )
}

/// Speed–quality trade-off sweep for one dataset (Figures 2 and 3): every
/// approximate method is run across its own knob range and each run is
/// reported as a `(time, AMI)` point.
pub fn tradeoff_sweep(
    cfg: &HarnessConfig,
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
) -> Vec<MethodOutcome> {
    let data = &prepared.test;
    let (_, truth) = run_method(cfg, Method::Dbscan, prepared, eps, tau, None, None);
    let mut points = Vec::new();

    let mut score = |name: &str, knob: f64, seconds: f64, c: &Clustering, skipped: u64| {
        let stats = c.stats();
        points.push(MethodOutcome {
            method: name.to_string(),
            dataset: prepared.name.clone(),
            eps,
            tau,
            seconds,
            ari: adjusted_rand_index(truth.labels(), c.labels()),
            ami: adjusted_mutual_information(truth.labels(), c.labels()),
            n_clusters: stats.n_clusters,
            noise_ratio: stats.noise_ratio(),
            range_queries: c.range_queries,
            skipped_range_queries: skipped,
            knob,
        });
    };

    // LAF-DBSCAN: α from 1.1 to 15 (paper's Figure 2/3 range).
    for alpha in [1.1f32, 1.5, 2.0, 3.0, 5.0, 8.0, 15.0] {
        let laf = LafDbscan::new(LafConfig::new(eps, tau, alpha), &prepared.rmi);
        let started = Instant::now();
        let (c, stats) = laf.cluster_with_stats(data);
        score(
            "LAF-DBSCAN",
            alpha as f64,
            started.elapsed().as_secs_f64(),
            &c,
            stats.skipped_range_queries,
        );
    }

    // DBSCAN++ and LAF-DBSCAN++: δ from 0.1 to 0.9 (sample fraction sweep).
    for delta in [0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let started = Instant::now();
        let c = DbscanPlusPlus::new(DbscanPlusPlusConfig {
            eps,
            min_pts: tau,
            sample_fraction: delta,
            ..Default::default()
        })
        .cluster(data);
        score("DBSCAN++", delta, started.elapsed().as_secs_f64(), &c, 0);

        let laf_pp = LafDbscanPlusPlus::new(
            LafDbscanPlusPlusConfig {
                laf: LafConfig {
                    eps,
                    min_pts: tau,
                    alpha: 1.0,
                    ..LafConfig::default()
                },
                delta: delta.min(0.3),
                ..Default::default()
            },
            &prepared.rmi,
        );
        let started = Instant::now();
        let (c, stats) = laf_pp.cluster_with_stats(data);
        score(
            "LAF-DBSCAN++",
            delta,
            started.elapsed().as_secs_f64(),
            &c,
            stats.skipped_range_queries,
        );
    }

    // KNN-BLOCK: leaf ratio sweep 0.001–0.3 (and the default branching 10).
    for leaf_ratio in [0.01f64, 0.05, 0.1, 0.3, 0.6] {
        let started = Instant::now();
        let c = KnnBlockDbscan::new(KnnBlockDbscanConfig {
            eps,
            min_pts: tau,
            leaf_ratio,
            ..Default::default()
        })
        .cluster(data);
        score(
            "KNN-BLOCK",
            leaf_ratio,
            started.elapsed().as_secs_f64(),
            &c,
            0,
        );
    }

    // BLOCK-DBSCAN: cover tree basis sweep 1.1–5.
    for basis in [1.1f32, 2.0, 3.0, 5.0] {
        let started = Instant::now();
        let c = BlockDbscan::new(BlockDbscanConfig {
            eps,
            min_pts: tau,
            basis,
            ..Default::default()
        })
        .cluster(data);
        score(
            "BLOCK-DBSCAN",
            basis as f64,
            started.elapsed().as_secs_f64(),
            &c,
            0,
        );
    }

    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            scale: 0.0015,
            dim_cap: Some(24),
            train_queries: 60,
            net: NetConfig::tiny(),
            ..Default::default()
        }
    }

    #[test]
    fn prepare_splits_and_trains() {
        let cfg = tiny_cfg();
        let prepared = cfg.prepare("MS-50k");
        assert_eq!(prepared.name, "MS-50k");
        assert!(prepared.train.len() > prepared.test.len());
        assert!(prepared.train_seconds > 0.0);
        assert_eq!(prepared.rmi.stage_sizes(), &[1, 2, 4]);
    }

    #[test]
    fn evaluate_setting_scores_every_method() {
        let cfg = tiny_cfg();
        let prepared = cfg.prepare("MS-50k");
        let setting = evaluate_setting(&cfg, &prepared, 0.5, 3, &Method::TABLE3);
        assert_eq!(setting.outcomes.len(), 6);
        assert_eq!(setting.outcomes[0].method, "DBSCAN");
        assert_eq!(setting.outcomes[0].ari, 1.0);
        for o in &setting.outcomes {
            assert!(o.seconds >= 0.0);
            assert!(o.ari <= 1.0 + 1e-9);
            assert!(o.noise_ratio >= 0.0 && o.noise_ratio <= 1.0);
        }
    }

    #[test]
    fn missed_cluster_analysis_is_consistent() {
        let cfg = tiny_cfg();
        let prepared = cfg.prepare("Glove-150k");
        let (report, outcome) = missed_cluster_analysis(&cfg, &prepared, 0.5, 3);
        assert!(report.missed_clusters <= report.total_clusters);
        assert_eq!(outcome.method, "LAF-DBSCAN");
    }

    #[test]
    fn harness_config_from_env_defaults() {
        let cfg = HarnessConfig::from_env();
        assert!(cfg.scale > 0.0);
        assert!(cfg.train_queries > 0);
    }

    /// `from_lookup` over one variable set to `value`.
    fn from_one(var: &str, value: &str) -> Result<HarnessConfig, EnvError> {
        HarnessConfig::from_lookup(|v| (v == var).then(|| value.to_string()))
    }

    fn assert_rejected(var: &str, value: &str) {
        let err = from_one(var, value).unwrap_err();
        assert_eq!((err.var, err.value.as_str()), (var, value));
        let message = err.to_string();
        assert!(
            message.contains(var) && message.contains(value) && message.contains(err.accepted),
            "{message}"
        );
    }

    #[test]
    fn from_lookup_reads_every_variable() {
        let vars = [
            ("LAF_SCALE", "0.1"),
            ("LAF_DIM_CAP", "0"),
            ("LAF_TRAIN_QUERIES", "50"),
            ("LAF_RESULTS_DIR", "out"),
        ];
        let cfg = HarnessConfig::from_lookup(|var| {
            vars.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        })
        .unwrap();
        assert_eq!((cfg.scale, cfg.dim_cap, cfg.train_queries), (0.1, None, 50));
        assert_eq!(cfg.results_dir, PathBuf::from("out"));
        assert_eq!(from_one("LAF_DIM_CAP", "32").unwrap().dim_cap, Some(32));
        assert_eq!(from_one("LAF_SCALE", "1").unwrap().scale, 1.0);
        // Unset and empty variables keep the defaults.
        assert_eq!(
            HarnessConfig::from_lookup(|_| None).unwrap(),
            HarnessConfig::default()
        );
        assert_eq!(
            HarnessConfig::from_lookup(|_| Some(String::new())).unwrap(),
            HarnessConfig::default()
        );
    }

    #[test]
    fn a_scale_with_trailing_text_is_rejected() {
        assert_rejected("LAF_SCALE", "0.1x");
    }

    #[test]
    fn a_scale_above_one_is_rejected() {
        assert_rejected("LAF_SCALE", "2");
    }

    #[test]
    fn a_scale_of_zero_or_nan_is_rejected() {
        assert_rejected("LAF_SCALE", "0");
        assert_rejected("LAF_SCALE", "NaN");
    }

    #[test]
    fn a_negative_dim_cap_is_rejected() {
        assert_rejected("LAF_DIM_CAP", "-1");
    }

    #[test]
    fn zero_train_queries_are_rejected() {
        assert_rejected("LAF_TRAIN_QUERIES", "0");
        assert_rejected("LAF_TRAIN_QUERIES", "many");
    }

    #[test]
    fn method_labels_are_unique() {
        let mut labels: Vec<&str> = Method::TABLE3.iter().map(|m| m.label()).collect();
        labels.push(Method::Dbscan.label());
        labels.push(Method::RhoApprox.label());
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
