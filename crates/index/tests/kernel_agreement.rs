//! Specialized-kernel agreement with the brute-force reference.
//!
//! The metric-specialized kernels and register tiles are a pure performance
//! change: for every metric, query shape and dataset backing, the linear
//! scan's results (hit lists, counts, knn lists down to the distance bits)
//! must equal [`ReferenceScan`]'s, which calls `Metric::dist` once per pair.
//! The k-means tree and the IVF index run their candidate loops on the same
//! kernels: with every leaf or list visited they must answer exactly like the
//! reference, and with a partial budget they may miss a hit but never add
//! one.

use laf_index::{IvfIndex, KMeansTree, LinearScan, Neighbor, RangeQueryEngine, ReferenceScan};
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

/// Bits equal, or both NaN (Rust leaves NaN payloads unspecified).
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_knn_equal(got: &[Neighbor], want: &[Neighbor], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.index, w.index, "{label}");
        assert!(same(g.dist, w.dist), "{label}: {} vs {}", g.dist, w.dist);
    }
}

/// `LinearScan` answers every entry point exactly like `ReferenceScan`.
fn assert_linear_matches_reference(data: &Dataset, label: &str) {
    // Odd batch sizes cover both the small fan-out path and the blocked
    // probe-block path (including a partial block).
    let batch_sizes = [1usize, 3, 17, 37];
    for metric in Metric::ALL {
        let scan = LinearScan::new(data, metric);
        let reference = ReferenceScan::new(data, metric);
        let eps = eps_for(metric);
        for eps in [eps, 4.0 * eps, -eps] {
            for &bs in &batch_sizes {
                let queries: Vec<&[f32]> = (0..bs.min(data.len()))
                    .map(|i| data.row(i * 7 % data.len()))
                    .collect();
                let label = format!("{label} {metric:?} eps={eps} bs={bs}");
                assert_eq!(
                    scan.range_batch(&queries, eps),
                    reference.range_batch(&queries, eps),
                    "{label} range_batch"
                );
                assert_eq!(
                    scan.range_count_batch(&queries, eps),
                    reference.range_count_batch(&queries, eps),
                    "{label} range_count_batch"
                );
                for (got, want) in scan
                    .knn_batch(&queries, 5)
                    .iter()
                    .zip(&reference.knn_batch(&queries, 5))
                {
                    assert_knn_equal(got, want, &format!("{label} knn_batch"));
                }
            }
        }
        for q in (0..data.len()).step_by(7) {
            let q = data.row(q);
            assert_eq!(scan.range(q, eps), reference.range(q, eps), "{label}");
            assert_eq!(
                scan.range_count(q, eps),
                reference.range_count(q, eps),
                "{label}"
            );
            assert_knn_equal(
                &scan.knn(q, data.len()),
                &reference.knn(q, data.len()),
                &format!("{label} {metric:?} knn"),
            );
        }
    }
}

/// The k-means tree and IVF index at full budget answer like the reference;
/// at a partial budget every hit they return is a reference hit.
fn assert_trees_match_reference(data: &Dataset, label: &str) {
    for metric in Metric::ALL {
        let reference = ReferenceScan::new(data, metric);
        let eps = eps_for(metric);
        let full: [Box<dyn RangeQueryEngine>; 2] = [
            Box::new(KMeansTree::new(data, metric, 4, 1.0, 0xC0FFEE)),
            Box::new(IvfIndex::new(data, metric, 8, 8, 0xC0FFEE)),
        ];
        let partial: [Box<dyn RangeQueryEngine>; 2] = [
            Box::new(KMeansTree::new(data, metric, 4, 0.3, 0xC0FFEE)),
            Box::new(IvfIndex::new(data, metric, 8, 2, 0xC0FFEE)),
        ];
        for q in (0..data.len()).step_by(11) {
            let q = data.row(q);
            let want = reference.range(q, eps);
            for engine in &full {
                assert_eq!(engine.range(q, eps), want, "{label} {metric:?} full");
                assert_eq!(
                    engine.range_count(q, eps),
                    want.len(),
                    "{label} {metric:?} full count"
                );
            }
            for engine in &partial {
                let got = engine.range(q, eps);
                assert!(
                    got.iter().all(|i| want.binary_search(i).is_ok()),
                    "{label} {metric:?} partial budget added a hit: {got:?} vs {want:?}"
                );
            }
        }
    }
}

#[test]
fn specialized_kernels_match_generic_on_owned_backing() {
    for (n, dim, seed) in [(250, 12, 41), (180, 13, 43)] {
        // Dim 13: tail handling of the unrolled kernels.
        let data = sample_data(n, dim, seed);
        let label = format!("owned dim={dim}");
        assert_linear_matches_reference(&data, &label);
        assert_trees_match_reference(&data, &label);
    }
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
    assert_linear_matches_reference(&mapped, "mapped dim=11");
    assert_trees_match_reference(&mapped, "mapped dim=11");
    // Mapped vs owned cross-check on the linear scan: the backing itself
    // must not change any result.
    for metric in Metric::ALL {
        let eps = eps_for(metric);
        let on_owned = LinearScan::new(&owned, metric);
        let on_mapped = LinearScan::new(&mapped, metric);
        for q in (0..owned.len()).step_by(13) {
            assert_eq!(
                on_owned.range(owned.row(q), eps),
                on_mapped.range(mapped.row(q), eps),
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
    assert_linear_matches_reference(&data, "unnormalized dim=9");
    assert_trees_match_reference(&data, "unnormalized dim=9");
}

/// Unnormalized rows plus NaN, ±∞, signed-zero, subnormal, degenerate and
/// zero rows: 43 rows, not a multiple of the row tile's 8.
fn edge_rows() -> Dataset {
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
    Dataset::from_rows(rows).unwrap()
}

/// Swapping query and row changes nothing, in both modes of evaluation (the
/// specialized linear scan and the per-pair reference): row `b` is in row
/// `a`'s ε-neighbourhood exactly when `a` is in `b`'s, through the
/// single-query scan and the blocked batch scan alike, and the knn distance
/// of a pair has the same bits both ways. A symmetric ε-join, which
/// evaluates each pair once and uses it for both rows, relies on this. The
/// linear scan also answers these rows exactly like the reference.
#[test]
fn range_membership_and_distances_are_symmetric_in_both_modes() {
    let data = edge_rows();
    assert_linear_matches_reference(&data, "edge rows dim=13");
    let n = data.len();
    let all: Vec<&[f32]> = data.rows().collect();
    for metric in Metric::ALL {
        let scan = LinearScan::new(&data, metric);
        let reference = ReferenceScan::new(&data, metric);
        let engines: [(&str, &dyn RangeQueryEngine); 2] =
            [("linear", &scan), ("reference", &reference)];
        for (name, engine) in engines {
            let eps = eps_for(metric);
            for eps in [eps, 4.0 * eps, -eps] {
                let single: Vec<Vec<u32>> = all.iter().map(|q| engine.range(q, eps)).collect();
                assert_eq!(engine.range_batch(&all, eps), single, "{metric:?} {name}");
                let member = |a: usize, b: usize| single[a].binary_search(&(b as u32)).is_ok();
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            member(a, b),
                            member(b, a),
                            "{metric:?} {name} eps {eps} rows {a} {b}"
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
                        "{metric:?} {name} dist {a} {b}: {d} vs {}",
                        dist[b][a]
                    );
                }
            }
        }
    }
}
