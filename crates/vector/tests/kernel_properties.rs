//! Property-based agreement tests for the metric-specialized kernels.
//!
//! The kernel layer's whole contract is: same bits as the generic
//! [`Metric::dist`] evaluation, only cheaper. These tests hammer that
//! contract across every built-in metric, odd dimensions (tail handling of
//! the unrolled dot kernels), zero and near-zero vectors (degenerate-norm
//! semantics), unnormalized data, and thresholds parked right on top of the
//! computed distances (the Euclidean pushdown's fallback band). The batch
//! tiles (`ops::dot4` and the register tiles of `laf_vector::tile`) are held
//! to the same contract, NaN, infinities and subnormals included.

use laf_vector::tile::{self, ProbeBlock, BLOCK_PROBES, ROW_TILE};
use laf_vector::{ops, Dataset, Metric, MetricKernel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Unnormalized vector over a wide magnitude range; roughly one in four
/// coordinates is an exact zero so degenerate rows occur naturally.
fn raw_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_range(-100.0f32..100.0)
            }
        })
        .collect()
}

/// A dataset of unnormalized rows plus one all-zero row (similarity-0
/// semantics) and one vanishingly small row (just below the 1e-12 cutoff).
fn raw_dataset(rng: &mut StdRng, dim: usize, rows: usize) -> Dataset {
    let mut r: Vec<Vec<f32>> = (0..rows).map(|_| raw_vector(rng, dim)).collect();
    r.push(vec![0.0; dim]);
    r.push(vec![1e-13; dim]);
    Dataset::from_rows(r).unwrap()
}

/// Bits equal, or both NaN: Rust leaves NaN payloads unspecified, so two
/// NaN results need not share their bits even on one path.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `base` with one random coordinate replaced by `v` (unchanged at dim 0).
fn with_value(rng: &mut StdRng, dim: usize, v: f32) -> Vec<f32> {
    let mut row = raw_vector(rng, dim);
    if dim > 0 {
        row[rng.gen_range(0..dim)] = v;
    }
    row
}

/// `random` unnormalized rows followed by one row per edge case of the
/// accumulation contract: a NaN, a +∞ and a −∞ coordinate, signed zeros,
/// an all-subnormal row and the 1e-13 degenerate row.
fn edge_rows(rng: &mut StdRng, dim: usize, random: usize) -> Vec<Vec<f32>> {
    let mut rows: Vec<Vec<f32>> = (0..random).map(|_| raw_vector(rng, dim)).collect();
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
        rows.push(with_value(rng, dim, v));
    }
    rows.push(vec![-0.0; dim]);
    rows.push(vec![f32::MIN_POSITIVE / 4.0; dim]);
    rows.push(vec![1e-13; dim]);
    rows
}

/// The cached norms [`MetricKernel::within`] expects, computed the way
/// [`Dataset::row_norms`] does (a `Dataset` cannot have dim 0).
fn norms_of(row: &[f32]) -> (f32, f32) {
    (ops::norm(row), ops::dot(row, row))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `dot4`, the row tile and the packed block against `ops::dot`: every
    /// lane's bits, and every decision taken from a lane through
    /// `MetricKernel::within_dot` against `MetricKernel::within`, for all
    /// five metrics. Dims 0..=70 cover the tails and dim < 4; the row count
    /// (`random + 7`) is rarely a multiple of 8, and the row tile slides over
    /// every window of eight consecutive rows; blocks take 1..=16 probes.
    #[test]
    fn dot4_is_bit_identical_to_dot(
        dim in 0usize..=70,
        random in 1usize..14,
        seed in 0u64..100_000,
        eps_raw in -0.5f32..2.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = edge_rows(&mut rng, dim, random);
        // Sixteen probes: whole `dot4` quads and one full block.
        let mut probes = edge_rows(&mut rng, dim, BLOCK_PROBES - 7);
        let shift = seed as usize % probes.len();
        probes.rotate_left(shift);
        let flat: Vec<f32> = rows.concat();
        let expect = |p: usize, r: usize| ops::dot(&probes[p], &rows[r]);

        // lanes[p][r] per tile; every pair is covered by every tile.
        let mut dot4_lanes = vec![vec![0.0f32; rows.len()]; probes.len()];
        for (r, row) in rows.iter().enumerate() {
            for (t, q) in probes.chunks_exact(4).enumerate() {
                let tiled = ops::dot4(&q[0], &q[1], &q[2], &q[3], row);
                for (k, lane) in tiled.into_iter().enumerate() {
                    dot4_lanes[4 * t + k][r] = lane;
                }
            }
        }
        let mut row_lanes = vec![vec![Vec::new(); rows.len()]; probes.len()];
        for start in 0..=rows.len() - ROW_TILE {
            let window = &flat[start * dim..(start + ROW_TILE) * dim];
            for (p, probe) in probes.iter().enumerate() {
                for (k, lane) in tile::dot_rows8(probe, window).into_iter().enumerate() {
                    row_lanes[p][start + k].push(lane);
                }
            }
        }
        let refs: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();
        let mut block_lanes = vec![vec![Vec::new(); rows.len()]; probes.len()];
        for len in 1..=BLOCK_PROBES {
            let first = len % (probes.len() - len + 1);
            let block = ProbeBlock::new(&refs[first..first + len]);
            let mut out = vec![0.0f32; len];
            for (r, row) in rows.iter().enumerate() {
                block.dots(row, &mut out);
                for (k, &lane) in out.iter().enumerate() {
                    block_lanes[first + k][r].push(lane);
                }
            }
        }

        for p in 0..probes.len() {
            for r in 0..rows.len() {
                let e = expect(p, r);
                prop_assert!(same(dot4_lanes[p][r], e), "dot4 dim {} probe {} row {}", dim, p, r);
                let tiled = row_lanes[p][r].iter().chain(&block_lanes[p][r]);
                for &lane in tiled.clone() {
                    prop_assert!(same(lane, e), "tile dim {} probe {} row {}", dim, p, r);
                }
                let (x_norm, x_sq) = norms_of(&rows[r]);
                for metric in Metric::ALL {
                    let kernel = MetricKernel::new(metric);
                    for eps in [eps_raw, metric.dist(&probes[p], &rows[0])] {
                        let probe = kernel.probe(&probes[p], eps);
                        let want = kernel.within(&probe, &rows[r], x_norm, x_sq);
                        for &lane in tiled.clone().chain([&dot4_lanes[p][r]]) {
                            prop_assert_eq!(
                                kernel.within_dot(&probe, lane, &rows[r], x_norm, x_sq),
                                want,
                                "{:?} dim {} probe {} row {} eps {}", metric, dim, p, r, eps
                            );
                        }
                    }
                }
            }
        }
    }

    /// Swapping the operands changes no bit: `dist` and `within` on both
    /// evaluation paths (the generic `Metric::dist` comparison and the
    /// specialized `MetricKernel`), and the tile lanes, whose shape must not
    /// depend on which operand is the query (a symmetric ε-join evaluates
    /// each pair once and uses it both ways).
    #[test]
    fn distances_predicates_and_tile_lanes_are_symmetric(
        dim in 0usize..=40,
        seed in 0u64..100_000,
        eps_raw in -0.5f32..2.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vs = edge_rows(&mut rng, dim, 1);
        prop_assert_eq!(vs.len(), ROW_TILE);
        let flat: Vec<f32> = vs.concat();
        let refs: Vec<&[f32]> = vs.iter().map(Vec::as_slice).collect();
        let block = ProbeBlock::new(&refs);
        // row[i][j]: probe i against row j through the row tile;
        // packed[j][i]: the same pair through the packed block.
        let row: Vec<[f32; ROW_TILE]> = vs.iter().map(|q| tile::dot_rows8(q, &flat)).collect();
        let packed: Vec<Vec<f32>> = vs
            .iter()
            .map(|x| {
                let mut out = vec![0.0f32; ROW_TILE];
                block.dots(x, &mut out);
                out
            })
            .collect();
        for (i, a) in vs.iter().enumerate() {
            for (j, b) in vs.iter().enumerate() {
                prop_assert!(same(row[i][j], row[j][i]), "row tile {} {}", i, j);
                prop_assert!(same(packed[j][i], packed[i][j]), "block {} {}", i, j);
                prop_assert!(same(row[i][j], packed[j][i]), "tiles {} {}", i, j);
                let (a_norm, a_sq) = norms_of(a);
                let (b_norm, b_sq) = norms_of(b);
                for metric in Metric::ALL {
                    prop_assert!(same(metric.dist(a, b), metric.dist(b, a)), "{:?}", metric);
                    let kernel = MetricKernel::new(metric);
                    let (pa, pb) = (kernel.prepare(a), kernel.prepare(b));
                    prop_assert!(same(kernel.dist(&pa, b, b_norm), kernel.dist(&pb, a, a_norm)));
                    for eps in [eps_raw, metric.dist(a, b)] {
                        prop_assert_eq!(metric.dist(a, b) < eps, metric.dist(b, a) < eps);
                        let (qa, qb) = (kernel.probe(a, eps), kernel.probe(b, eps));
                        let ab = kernel.within(&qa, b, b_norm, b_sq);
                        prop_assert_eq!(ab, kernel.within(&qb, a, a_norm, a_sq), "{:?} {} {}", metric, i, j);
                        prop_assert_eq!(ab, kernel.within_dot(&qb, row[j][i], a, a_norm, a_sq));
                        prop_assert_eq!(ab, kernel.within_dot(&qa, packed[j][i], b, b_norm, b_sq));
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_dist_is_bit_identical_across_metrics_and_odd_dims(
        dim in 1usize..24,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = raw_dataset(&mut rng, dim, 6);
        let q = raw_vector(&mut rng, dim);
        let norms = data.row_norms();
        for metric in Metric::ALL {
            let kernel = MetricKernel::new(metric);
            let prep = kernel.prepare(&q);
            for (i, row) in data.rows().enumerate() {
                prop_assert_eq!(
                    kernel.dist(&prep, row, norms.norm(i)).to_bits(),
                    metric.dist(&q, row).to_bits(),
                    "{:?} dim {} row {}", metric, dim, i
                );
            }
        }
    }

    #[test]
    fn kernel_predicates_agree_with_generic_comparison(
        dim in 1usize..24,
        seed in 0u64..100_000,
        eps_raw in -1.5f32..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = raw_dataset(&mut rng, dim, 8);
        let q = raw_vector(&mut rng, dim);
        let norms = data.row_norms();
        for metric in Metric::ALL {
            let kernel = MetricKernel::new(metric);
            // Sweep the raw eps plus thresholds sitting exactly on computed
            // distances (the hardest case for the pushdown band).
            let mut eps_values = vec![eps_raw, -eps_raw, 0.0, f32::INFINITY];
            for row in data.rows().take(3) {
                eps_values.push(metric.dist(&q, row));
            }
            for eps in eps_values {
                let probe = kernel.probe(&q, eps);
                for (i, row) in data.rows().enumerate() {
                    prop_assert_eq!(
                        kernel.within(&probe, row, norms.norm(i), norms.sq(i)),
                        metric.dist(&q, row) < eps,
                        "{:?} dim {} row {} eps {}", metric, dim, i, eps
                    );
                }
            }
        }
    }

    #[test]
    fn within4_lanes_agree_with_generic_comparison(
        dim in 1usize..20,
        seed in 0u64..100_000,
        eps in -0.5f32..2.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = raw_dataset(&mut rng, dim, 6);
        let queries: Vec<Vec<f32>> = (0..4).map(|_| raw_vector(&mut rng, dim)).collect();
        let norms = data.row_norms();
        for metric in Metric::ALL {
            let kernel = MetricKernel::new(metric);
            let probes = [
                kernel.probe(&queries[0], eps),
                kernel.probe(&queries[1], eps),
                kernel.probe(&queries[2], eps),
                kernel.probe(&queries[3], eps),
            ];
            for (i, row) in data.rows().enumerate() {
                let lanes = kernel.within4(&probes, row, norms.norm(i), norms.sq(i));
                for (lane, q) in queries.iter().enumerate() {
                    prop_assert_eq!(
                        lanes[lane],
                        metric.dist(q, row) < eps,
                        "{:?} dim {} row {} lane {}", metric, dim, i, lane
                    );
                }
            }
        }
    }

    #[test]
    fn row_norm_cache_matches_fresh_computation(
        dim in 1usize..24,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = raw_dataset(&mut rng, dim, 10);
        let norms = data.row_norms();
        for (i, row) in data.rows().enumerate() {
            prop_assert_eq!(norms.norm(i).to_bits(), ops::norm(row).to_bits());
            prop_assert_eq!(norms.sq(i).to_bits(), ops::dot(row, row).to_bits());
        }
    }
}

/// The mapped and owned backings must serve bit-identical kernels: a mapped
/// dataset's lazily-built norm cache equals the owned one's, and every
/// kernel decision matches across backings.
#[test]
fn kernel_agreement_between_owned_and_mapped_backings() {
    use std::io::Write;

    let rows: Vec<Vec<f32>> = (0..30)
        .map(|i| {
            (0..13)
                .map(|j| ((i * 13 + j) as f32 * 0.17).sin() * 4.0)
                .collect()
        })
        .collect();
    let owned = Dataset::from_rows(rows).unwrap();
    let path = std::env::temp_dir().join(format!(
        "laf_vector_kernel_mapped_{}.bin",
        std::process::id()
    ));
    std::fs::File::create(&path)
        .unwrap()
        .write_all(&laf_vector::io::encode(&owned))
        .unwrap();
    let map = laf_vector::mapped::map_file(&path).unwrap();
    let mapped = laf_vector::mapped::dataset_from_map(&map, 0, map.len()).unwrap();
    assert!(cfg!(target_endian = "big") || mapped.is_mapped());

    let owned_norms = owned.row_norms();
    let mapped_norms = mapped.row_norms();
    assert_eq!(owned_norms.norms(), mapped_norms.norms());
    assert_eq!(owned_norms.sq_norms(), mapped_norms.sq_norms());

    let q: Vec<f32> = (0..13).map(|j| (j as f32 * 0.9).cos()).collect();
    for metric in Metric::ALL {
        let kernel = MetricKernel::new(metric);
        let probe = kernel.probe(&q, 0.4);
        let prep = kernel.prepare(&q);
        for i in 0..owned.len() {
            assert_eq!(
                kernel.within(&probe, owned.row(i), owned_norms.norm(i), owned_norms.sq(i)),
                kernel.within(
                    &probe,
                    mapped.row(i),
                    mapped_norms.norm(i),
                    mapped_norms.sq(i)
                ),
                "{metric:?} row {i}"
            );
            assert_eq!(
                kernel
                    .dist(&prep, owned.row(i), owned_norms.norm(i))
                    .to_bits(),
                kernel
                    .dist(&prep, mapped.row(i), mapped_norms.norm(i))
                    .to_bits(),
                "{metric:?} row {i}"
            );
        }
    }
    std::fs::remove_file(path).ok();
}
