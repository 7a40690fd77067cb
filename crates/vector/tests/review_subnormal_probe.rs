use laf_vector::tile::{self, ProbeBlock, BLOCK_PROBES, ROW_TILE};
use laf_vector::{Dataset, Metric, MetricKernel};

#[test]
fn euclid_tile_agrees_in_subnormal_range() {
    // Magnitudes where f32 squares land in the subnormal range: the
    // relative-error model behind the pushdown band breaks down here. Every
    // batch tile (`dot4` through `within4`, the row tile and the packed
    // block through `within_dot`) must still decide like the generic path.
    let mut diverged = Vec::new();
    for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
        let kernel = MetricKernel::new(metric);
        for scale in [1e-23f32, 3e-23, 5e-23, 1e-22, 3e-22] {
            let q = vec![scale, 0.0];
            let row = vec![-scale, 0.0];
            let data = Dataset::from_rows(vec![row.clone()]).unwrap();
            let norms = data.row_norms();
            let (x_norm, x_sq) = (norms.norm(0), norms.sq(0));
            let exact = metric.dist(&q, &row);
            let row_dots = tile::dot_rows8(&q, &row.repeat(ROW_TILE));
            let mut block_dots = [0.0f32; BLOCK_PROBES];
            ProbeBlock::new(&[q.as_slice(); BLOCK_PROBES]).dots(&row, &mut block_dots);
            for mult in [0.5f32, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0] {
                let eps = exact * mult;
                let expected = exact < eps;
                let probe = kernel.probe(&q, eps);
                let probes = [probe, probe, probe, probe];
                let lanes = kernel.within4(&probes, &row, x_norm, x_sq);
                if lanes != [expected; 4] {
                    diverged.push((metric, "dot4", scale, eps, exact, lanes[0], expected));
                }
                for (name, dots) in [("row tile", &row_dots[..]), ("block", &block_dots[..])] {
                    for &dot in dots {
                        let got = kernel.within_dot(&probe, dot, &row, x_norm, x_sq);
                        if got != expected {
                            diverged.push((metric, name, scale, eps, exact, got, expected));
                        }
                    }
                }
            }
        }
    }
    assert!(diverged.is_empty(), "divergences: {diverged:?}");
}
