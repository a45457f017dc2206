use crate::{MetricError, MetricSpace, Point2};

/// Peers in the 2-dimensional Euclidean plane.
///
/// This is the metric space of the paper's Theorem 5.1: even in the plane a
/// system of selfish peers may admit no pure Nash equilibrium.
///
/// Points must be pairwise distinct.
///
/// # Example
///
/// ```
/// use sp_metric::{Euclidean2D, MetricSpace, Point2};
///
/// let s = Euclidean2D::new(vec![
///     Point2::new(0.0, 0.0),
///     Point2::new(1.0, 0.0),
///     Point2::new(0.0, 1.0),
/// ]).unwrap();
/// assert!((s.distance(1, 2) - 2.0f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Euclidean2D {
    points: Vec<Point2>,
}

impl Euclidean2D {
    /// Creates a plane space from points.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::CoincidentPoints`] if two points coincide
    /// exactly.
    pub fn new(points: Vec<Point2>) -> Result<Self, MetricError> {
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i] == points[j] {
                    return Err(MetricError::CoincidentPoints { i, j });
                }
            }
        }
        Ok(Euclidean2D { points })
    }

    /// The point of peer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn point(&self, i: usize) -> Point2 {
        self.points[i]
    }

    /// All points, indexed by peer.
    #[must_use]
    pub fn points(&self) -> &[Point2] {
        &self.points
    }
}

impl MetricSpace for Euclidean2D {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.points[i].distance_to(self.points[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_metric;

    #[test]
    fn plane_distances() {
        let s = Euclidean2D::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 4.0),
            Point2::new(-3.0, -4.0),
        ])
        .unwrap();
        assert_eq!(s.distance(0, 1), 5.0);
        assert_eq!(s.distance(1, 2), 10.0);
        assert!(validate_metric(&s, 1e-12).is_ok());
    }

    #[test]
    fn plane_rejects_duplicates() {
        let r = Euclidean2D::new(vec![Point2::new(1.0, 1.0), Point2::new(1.0, 1.0)]);
        assert_eq!(r, Err(MetricError::CoincidentPoints { i: 0, j: 1 }));
    }

    #[test]
    fn point_accessors() {
        let p = Point2::new(2.0, 2.0);
        let s = Euclidean2D::new(vec![p]).unwrap();
        assert_eq!(s.point(0), p);
        assert_eq!(s.points(), &[p]);
    }
}
