//! Property-based tests: every generator must produce a valid metric, and
//! the validators must accept exactly the metric axioms.

use proptest::prelude::*;
use rand::prelude::*;
use sp_graph::DistanceMatrix;
use sp_metric::{generators, validate_metric, Euclidean2D, LineSpace, MetricSpace, Point2};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_spaces_satisfy_metric_axioms(
        mut positions in proptest::collection::vec(-1e6f64..1e6, 1..20)
    ) {
        positions.sort_by(f64::total_cmp);
        positions.dedup();
        let space = LineSpace::new(positions).unwrap();
        prop_assert!(validate_metric(&space, 1e-7).is_ok());
    }

    #[test]
    fn plane_spaces_satisfy_metric_axioms(
        coords in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..16)
    ) {
        let mut points: Vec<Point2> = Vec::new();
        for (x, y) in coords {
            let p = Point2::new(x, y);
            if !points.contains(&p) {
                points.push(p);
            }
        }
        let space = Euclidean2D::new(points).unwrap();
        prop_assert!(validate_metric(&space, 1e-7).is_ok());
    }

    #[test]
    fn generated_workloads_are_metrics(seed in 0u64..1000, n in 2usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sq = generators::uniform_square(n, 10.0, &mut rng);
        prop_assert!(validate_metric(&sq, 1e-7).is_ok());
        let br = generators::random_bounded_ratio_metric(n, 1.0, 2.0, &mut rng);
        prop_assert!(validate_metric(&br, 1e-7).is_ok());
        let cl = generators::ClusteredPoints::new(2, n / 2 + 1).build(&mut rng);
        prop_assert!(validate_metric(&cl, 1e-7).is_ok());
    }

    #[test]
    fn metric_closure_always_yields_metric(
        seed in 0u64..1000, n in 2usize..12
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = DistanceMatrix::new_filled(n, 0.0);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rng.random_range(0.1..10.0);
                w[(i, j)] = d;
                w[(j, i)] = d;
            }
        }
        let closed = generators::metric_closure(&w);
        prop_assert!(validate_metric(&closed, 1e-6).is_ok());
        // Closure never increases distances.
        for i in 0..n {
            for j in 0..n {
                prop_assert!(closed.distance(i, j) <= w[(i, j)] + 1e-9);
            }
        }
    }

    #[test]
    fn diameter_bounds_all_distances(
        mut positions in proptest::collection::vec(-1e3f64..1e3, 2..16)
    ) {
        positions.sort_by(f64::total_cmp);
        positions.dedup();
        prop_assume!(positions.len() >= 2);
        let space = LineSpace::new(positions).unwrap();
        let diam = space.diameter();
        let min = space.min_distance();
        for i in 0..space.len() {
            for j in 0..space.len() {
                if i != j {
                    prop_assert!(space.distance(i, j) <= diam + 1e-9);
                    prop_assert!(space.distance(i, j) >= min - 1e-9);
                }
            }
        }
    }
}
