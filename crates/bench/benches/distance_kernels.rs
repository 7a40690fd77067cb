//! Micro-benchmarks of the distance kernels at the paper's dimensionalities
//! (200-d GloVe, 256-d NYT, 768-d MS MARCO) and at the 64-d of the repository
//! benchmark's `cluster` workload.
//!
//! Multiply-adds per iteration, for converting ns/iter into GMAC/s: `dim`
//! for `dot`, `4 * dim` for `dot4`, `8 * dim` for `row_tile` and `16 * dim`
//! for `probe_block`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laf_vector::tile::{self, ProbeBlock, BLOCK_PROBES, ROW_TILE};
use laf_vector::{ops, AngularDistance, CosineDistance, DistanceMetric, EuclideanDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_unit(dim: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    ops::normalize_in_place(&mut v);
    v
}

fn bench_distances(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("distance_kernels");
    group.sample_size(30);
    for dim in [64usize, 200, 256, 768] {
        let a = random_unit(dim, &mut rng);
        let b = random_unit(dim, &mut rng);
        group.bench_with_input(BenchmarkId::new("cosine", dim), &dim, |bench, _| {
            bench.iter(|| black_box(CosineDistance.dist(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("euclidean", dim), &dim, |bench, _| {
            bench.iter(|| black_box(EuclideanDistance.dist(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("angular", dim), &dim, |bench, _| {
            bench.iter(|| black_box(AngularDistance.dist(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("dot", dim), &dim, |bench, _| {
            bench.iter(|| black_box(ops::dot(black_box(&a), black_box(&b))))
        });
        // The query-major mini-GEMM tile: four dots per row load. Compare
        // against 4x the scalar `dot` number to see the register-tiling win.
        let (q0, q1, q2, q3) = (
            random_unit(dim, &mut rng),
            random_unit(dim, &mut rng),
            random_unit(dim, &mut rng),
            random_unit(dim, &mut rng),
        );
        group.bench_with_input(BenchmarkId::new("dot4", dim), &dim, |bench, _| {
            bench.iter(|| {
                black_box(ops::dot4(
                    black_box(&q0),
                    black_box(&q1),
                    black_box(&q2),
                    black_box(&q3),
                    black_box(&b),
                ))
            })
        });
        // The linear scan's register tiles: one probe against eight rows
        // (SSE2), and sixteen packed probes against one row (AVX2 when the
        // CPU has it, else four `dot4` calls). Compare against 8x resp. 16x
        // `dot`.
        let rows: Vec<f32> = (0..ROW_TILE)
            .flat_map(|_| random_unit(dim, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("row_tile", dim), &dim, |bench, _| {
            bench.iter(|| black_box(tile::dot_rows8(black_box(&a), black_box(&rows))))
        });
        let probes: Vec<Vec<f32>> = (0..BLOCK_PROBES)
            .map(|_| random_unit(dim, &mut rng))
            .collect();
        let refs: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();
        let block = ProbeBlock::new(&refs);
        let mut out = [0.0f32; BLOCK_PROBES];
        group.bench_with_input(BenchmarkId::new("probe_block", dim), &dim, |bench, _| {
            bench.iter(|| {
                block.dots(black_box(&b), &mut out);
                black_box(out)
            })
        });
        // Norm-cached cosine: the specialized kernel's per-row work (one dot
        // + O(1) epilogue) vs the 3-dot `CosineDistance` above.
        let kernel = laf_vector::MetricKernel::new(laf_vector::Metric::Cosine);
        let prep = kernel.prepare(&a);
        let b_norm = ops::norm(&b);
        group.bench_with_input(BenchmarkId::new("cosine_kernel", dim), &dim, |bench, _| {
            bench.iter(|| black_box(kernel.dist(black_box(&prep), black_box(&b), b_norm)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distances);
criterion_main!(benches);
