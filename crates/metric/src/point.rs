/// A point in the Euclidean plane.
///
/// # Example
///
/// ```
/// use sp_metric::Point2;
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is NaN or infinite.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        assert!(
            x.is_finite() && y.is_finite(),
            "coordinates must be finite, got ({x}, {y})"
        );
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance_to(self, other: Point2) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point2_basic_geometry() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance_to(b), 5.0);
        assert_eq!(b.distance_to(a), 5.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn point2_rejects_nan() {
        let _ = Point2::new(f64::NAN, 0.0);
    }
}
