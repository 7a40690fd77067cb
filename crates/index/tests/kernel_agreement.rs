//! Generic-vs-specialized kernel agreement across every row-scanning engine.
//!
//! [`KernelMode::Specialized`] must be a pure performance change: for every
//! engine, metric, query shape and dataset backing, the results (hit lists,
//! counts, knn lists — down to the distance bits) must equal the
//! [`KernelMode::Generic`] baseline.

use laf_index::{build_engine_with_mode, EngineChoice, KernelMode, LinearScan, RangeQueryEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};

/// A threshold that admits a meaningful neighborhood under each metric
/// (cosine eps 0.3 translated through the metric's own scale; the data is
/// unit-normalized, so Equation (1) applies).
fn eps_for(metric: Metric) -> f32 {
    metric.equivalent_threshold(0.3)
}

fn sample_data(n: usize, dim: usize, seed: u64) -> Dataset {
    EmbeddingMixtureConfig {
        n_points: n,
        dim,
        clusters: 6,
        noise_fraction: 0.25,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn engine_choices(dim: usize) -> Vec<EngineChoice> {
    vec![
        EngineChoice::Linear,
        EngineChoice::Grid {
            cell_side: 1.0 / (dim as f32).sqrt(),
        },
        EngineChoice::KMeansTree {
            branching: 4,
            leaf_ratio: 0.7,
        },
        EngineChoice::Ivf {
            nlist: 8,
            nprobe: 3,
        },
    ]
}

fn assert_engines_agree(data: &Dataset, label: &str) {
    // Odd batch sizes cover both the small fan-out path and the blocked
    // mini-GEMM path (including 4-lane tiles with a remainder).
    let batch_sizes = [1usize, 3, 17, 37];
    for metric in Metric::ALL {
        let eps = eps_for(metric);
        for choice in engine_choices(data.dim()) {
            let spec = build_engine_with_mode(choice, data, metric, eps, KernelMode::Specialized);
            let generic = build_engine_with_mode(choice, data, metric, eps, KernelMode::Generic);
            for &bs in &batch_sizes {
                let queries: Vec<&[f32]> = (0..bs.min(data.len()))
                    .map(|i| data.row(i * 7 % data.len()))
                    .collect();
                assert_eq!(
                    spec.range_batch(&queries, eps),
                    generic.range_batch(&queries, eps),
                    "{label} {metric:?} {choice:?} range_batch bs={bs}"
                );
                assert_eq!(
                    spec.range_count_batch(&queries, eps),
                    generic.range_count_batch(&queries, eps),
                    "{label} {metric:?} {choice:?} range_count_batch bs={bs}"
                );
                let spec_knn = spec.knn_batch(&queries, 5);
                let generic_knn = generic.knn_batch(&queries, 5);
                for (a, b) in spec_knn.iter().zip(&generic_knn) {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.index, y.index, "{label} {metric:?} {choice:?} knn");
                        assert_eq!(
                            x.dist.to_bits(),
                            y.dist.to_bits(),
                            "{label} {metric:?} {choice:?} knn dist"
                        );
                    }
                }
            }
            for q in (0..data.len()).step_by(29) {
                assert_eq!(
                    spec.range(data.row(q), eps),
                    generic.range(data.row(q), eps),
                    "{label} {metric:?} {choice:?} range q={q}"
                );
                assert_eq!(
                    spec.range_count(data.row(q), eps),
                    generic.range_count(data.row(q), eps),
                    "{label} {metric:?} {choice:?} range_count q={q}"
                );
            }
        }
    }
}

#[test]
fn specialized_kernels_match_generic_on_owned_backing() {
    let data = sample_data(250, 12, 41);
    assert_engines_agree(&data, "owned dim=12");
    // Odd dimension: tail handling of the unrolled kernels.
    let data = sample_data(180, 13, 43);
    assert_engines_agree(&data, "owned dim=13");
}

#[test]
fn specialized_kernels_match_generic_on_mapped_backing() {
    use std::io::Write;
    let owned = sample_data(200, 11, 47);
    let path = std::env::temp_dir().join(format!(
        "laf_index_kernel_mapped_{}.bin",
        std::process::id()
    ));
    std::fs::File::create(&path)
        .unwrap()
        .write_all(&laf_vector::io::encode(&owned))
        .unwrap();
    let map = laf_vector::mapped::map_file(&path).unwrap();
    let mapped = laf_vector::mapped::dataset_from_map(&map, 0, map.len()).unwrap();
    assert!(cfg!(target_endian = "big") || mapped.is_mapped());
    assert_engines_agree(&mapped, "mapped dim=11");
    // Mapped vs owned cross-check on the linear oracle: the backing itself
    // must not change any specialized result.
    for metric in Metric::ALL {
        let eps = eps_for(metric);
        let spec_owned = build_engine_with_mode(
            EngineChoice::Linear,
            &owned,
            metric,
            eps,
            KernelMode::Specialized,
        );
        let spec_mapped = build_engine_with_mode(
            EngineChoice::Linear,
            &mapped,
            metric,
            eps,
            KernelMode::Specialized,
        );
        for q in (0..owned.len()).step_by(13) {
            assert_eq!(
                spec_owned.range(owned.row(q), eps),
                spec_mapped.range(mapped.row(q), eps),
                "{metric:?} q={q}"
            );
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn unnormalized_data_agrees_too() {
    // The norm cache and degenerate-vector semantics must hold off the unit
    // sphere as well: scale rows by wildly varying factors and add an exact
    // zero row.
    let base = sample_data(120, 9, 53);
    let mut rows: Vec<Vec<f32>> = base
        .rows()
        .enumerate()
        .map(|(i, r)| {
            let scale = 0.001 + (i % 17) as f32 * 3.7;
            r.iter().map(|x| x * scale).collect()
        })
        .collect();
    rows.push(vec![0.0; 9]);
    let data = Dataset::from_rows(rows).unwrap();
    assert_engines_agree(&data, "unnormalized dim=9");
}

/// Bits equal, or both NaN (Rust leaves NaN payloads unspecified).
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Swapping query and row changes nothing, in both kernel modes: row `b` is
/// in row `a`'s ε-neighbourhood exactly when `a` is in `b`'s, through the
/// single-query scan and the blocked batch scan alike, and the knn distance
/// of a pair has the same bits both ways. A symmetric ε-join, which
/// evaluates each pair once and uses it for both rows, relies on this.
#[test]
fn range_membership_and_distances_are_symmetric_in_both_modes() {
    // Unnormalized rows plus NaN, ±∞, signed-zero, subnormal, degenerate and
    // zero rows: 43 rows, not a multiple of the row tile's 8.
    let dim = 13;
    let base = sample_data(36, dim, 59);
    let mut rows: Vec<Vec<f32>> = base
        .rows()
        .enumerate()
        .map(|(i, r)| r.iter().map(|x| x * (0.5 + (i % 5) as f32)).collect())
        .collect();
    for (j, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]
        .into_iter()
        .enumerate()
    {
        let mut row = rows[j].clone();
        row[j] = v;
        rows.push(row);
    }
    rows.push(vec![f32::MIN_POSITIVE / 4.0; dim]);
    rows.push(vec![1e-13; dim]);
    rows.push(vec![0.0; dim]);
    let data = Dataset::from_rows(rows).unwrap();
    let n = data.len();
    let all: Vec<&[f32]> = data.rows().collect();
    for metric in Metric::ALL {
        for mode in [KernelMode::Specialized, KernelMode::Generic] {
            let engine = LinearScan::with_kernel_mode(&data, metric, mode);
            let eps = eps_for(metric);
            for eps in [eps, 4.0 * eps, -eps] {
                let single: Vec<Vec<u32>> = all.iter().map(|q| engine.range(q, eps)).collect();
                assert_eq!(engine.range_batch(&all, eps), single, "{metric:?} {mode:?}");
                let member = |a: usize, b: usize| single[a].binary_search(&(b as u32)).is_ok();
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            member(a, b),
                            member(b, a),
                            "{metric:?} {mode:?} eps {eps} rows {a} {b}"
                        );
                    }
                }
            }
            let mut dist = vec![vec![f32::NAN; n]; n];
            for (a, list) in engine.knn_batch(&all, n).iter().enumerate() {
                for neighbor in list {
                    dist[a][neighbor.index as usize] = neighbor.dist;
                }
            }
            for (a, row) in dist.iter().enumerate() {
                for (b, &d) in row.iter().enumerate() {
                    assert!(
                        same(d, dist[b][a]),
                        "{metric:?} {mode:?} dist {a} {b}: {d} vs {}",
                        dist[b][a]
                    );
                }
            }
        }
    }
}
