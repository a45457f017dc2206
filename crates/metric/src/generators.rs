//! Random and structured peer-placement generators.
//!
//! All generators are deterministic given an RNG, so experiments can be
//! reproduced from a seed.
//!
//! # Example
//!
//! ```
//! use rand::prelude::*;
//! use sp_metric::{generators, MetricSpace};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let space = generators::uniform_square(20, 100.0, &mut rng);
//! assert_eq!(space.len(), 20);
//! ```

use rand::prelude::*;
use sp_graph::{floyd_warshall, DiGraph, DistanceMatrix};

use crate::{Euclidean2D, MatrixMetric, Point2};

/// `n` points uniformly at random in the square `[0, side]²`.
///
/// Exact duplicates (probability zero, but floats) are re-sampled.
///
/// # Panics
///
/// Panics if `side` is not a positive finite number.
pub fn uniform_square<R: Rng + ?Sized>(n: usize, side: f64, rng: &mut R) -> Euclidean2D {
    assert!(
        side.is_finite() && side > 0.0,
        "side must be positive, got {side}"
    );
    let mut points: Vec<Point2> = Vec::with_capacity(n);
    while points.len() < n {
        let p = Point2::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
        if !points.contains(&p) {
            points.push(p);
        }
    }
    Euclidean2D::new(points).expect("duplicates were filtered during sampling")
}

/// Builder for clustered placements: `clusters` groups of `per_cluster`
/// peers each, with cluster centres sampled uniformly in a square and
/// members perturbed within a small radius. Mirrors the five-cluster
/// geometry of the paper's Figure 2 qualitatively.
///
/// # Example
///
/// ```
/// use rand::prelude::*;
/// use sp_metric::{ClusteredPoints, MetricSpace};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let space = ClusteredPoints::new(4, 5)
///     .area_side(1000.0)
///     .cluster_radius(10.0)
///     .build(&mut rng);
/// assert_eq!(space.len(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredPoints {
    clusters: usize,
    per_cluster: usize,
    area_side: f64,
    cluster_radius: f64,
}

impl ClusteredPoints {
    /// Starts a builder for `clusters × per_cluster` peers.
    #[must_use]
    pub fn new(clusters: usize, per_cluster: usize) -> Self {
        ClusteredPoints {
            clusters,
            per_cluster,
            area_side: 100.0,
            cluster_radius: 1.0,
        }
    }

    /// Side of the square in which cluster centres are drawn
    /// (default 100.0).
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a positive finite number.
    #[must_use]
    pub fn area_side(mut self, side: f64) -> Self {
        assert!(
            side.is_finite() && side > 0.0,
            "side must be positive, got {side}"
        );
        self.area_side = side;
        self
    }

    /// Radius of the disc around each centre in which members are placed
    /// (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not a positive finite number.
    #[must_use]
    pub fn cluster_radius(mut self, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        self.cluster_radius = radius;
        self
    }

    /// Samples the placement.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Euclidean2D {
        let mut points: Vec<Point2> = Vec::with_capacity(self.clusters * self.per_cluster);
        for _ in 0..self.clusters {
            let cx = rng.random_range(0.0..self.area_side);
            let cy = rng.random_range(0.0..self.area_side);
            let mut placed = 0;
            while placed < self.per_cluster {
                let angle = rng.random_range(0.0..std::f64::consts::TAU);
                let r = self.cluster_radius * rng.random_range(0.0f64..1.0).sqrt();
                let p = Point2::new(cx + r * angle.cos(), cy + r * angle.sin());
                if !points.contains(&p) {
                    points.push(p);
                    placed += 1;
                }
            }
        }
        Euclidean2D::new(points).expect("duplicates were filtered during sampling")
    }
}

/// A random metric with all distances in `[lo, hi]` where `hi <= 2·lo`,
/// which satisfies the triangle inequality automatically.
///
/// These "bounded-ratio" metrics are maximally unstructured: they are valid
/// inputs for Theorem 4.1 (arbitrary metrics) but far from Euclidean.
///
/// # Panics
///
/// Panics unless `0 < lo <= hi <= 2·lo`.
pub fn random_bounded_ratio_metric<R: Rng + ?Sized>(
    n: usize,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> MatrixMetric {
    assert!(lo > 0.0 && lo.is_finite(), "lo must be positive, got {lo}");
    assert!(
        hi >= lo && hi <= 2.0 * lo,
        "need lo <= hi <= 2*lo, got [{lo}, {hi}]"
    );
    let mut m = DistanceMatrix::new_filled(n, 0.0);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = rng.random_range(lo..=hi);
            m[(i, j)] = d;
            m[(j, i)] = d;
        }
    }
    MatrixMetric::new(m, 1e-9).expect("bounded-ratio matrices satisfy the metric axioms")
}

/// The *metric closure* of an arbitrary positive symmetric weight matrix:
/// distances are replaced by all-pairs shortest paths in the complete graph
/// with those weights, which always yields a metric.
///
/// Use this to turn rough measured latencies into a valid game input.
///
/// # Panics
///
/// Panics if the matrix is not symmetric (tolerance `1e-9`), has
/// non-positive off-diagonal entries, or a non-zero diagonal.
#[must_use]
pub fn metric_closure(weights: &DistanceMatrix) -> MatrixMetric {
    let n = weights.len();
    assert!(
        weights.is_symmetric(1e-9),
        "weight matrix must be symmetric"
    );
    let mut g = DiGraph::new(n);
    for i in 0..n {
        assert!(weights[(i, i)] == 0.0, "diagonal must be zero");
        for j in 0..n {
            if i != j {
                let w = weights[(i, j)];
                assert!(
                    w > 0.0 && w.is_finite(),
                    "off-diagonal weights must be positive"
                );
                g.add_edge(i, j, w);
            }
        }
    }
    let closed = floyd_warshall(&g);
    MatrixMetric::new(closed, 1e-6).expect("shortest-path closure is a metric")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_metric, MetricSpace};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn uniform_square_is_valid_metric() {
        let s = uniform_square(30, 50.0, &mut rng());
        assert_eq!(s.len(), 30);
        assert!(validate_metric(&s, 1e-9).is_ok());
        assert!(s.diameter() <= 50.0 * 2f64.sqrt());
    }

    #[test]
    fn clustered_builder_produces_tight_groups() {
        let s = ClusteredPoints::new(3, 4)
            .area_side(1000.0)
            .cluster_radius(1.0)
            .build(&mut rng());
        assert_eq!(s.len(), 12);
        // Members of the same cluster are within 2 radii of each other.
        for c in 0..3 {
            for a in 0..4 {
                for b in 0..4 {
                    let (i, j) = (c * 4 + a, c * 4 + b);
                    assert!(s.distance(i, j) <= 2.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn bounded_ratio_metric_is_valid() {
        let m = random_bounded_ratio_metric(12, 1.0, 2.0, &mut rng());
        assert!(validate_metric(&m, 1e-9).is_ok());
        let n = m.matrix().len();
        assert!((0..n).all(|i| m.matrix().row(i).iter().all(|&d| d <= 2.0)));
    }

    #[test]
    #[should_panic(expected = "lo <= hi <= 2*lo")]
    fn bounded_ratio_rejects_wide_range() {
        let _ = random_bounded_ratio_metric(3, 1.0, 3.0, &mut rng());
    }

    #[test]
    fn metric_closure_fixes_triangle_violations() {
        // d(0,2) = 10 violates triangle via 0-1-2 (1 + 1); closure fixes it.
        let raw =
            DistanceMatrix::from_row_major(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0])
                .unwrap();
        let m = metric_closure(&raw);
        assert_eq!(m.distance(0, 2), 2.0);
        assert!(validate_metric(&m, 1e-9).is_ok());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = uniform_square(10, 5.0, &mut StdRng::seed_from_u64(9));
        let b = uniform_square(10, 5.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.points(), b.points());
    }
}
