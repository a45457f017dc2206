use sp_graph::DistanceMatrix;

use crate::{validate_metric, MetricError, MetricSpace};

/// An arbitrary finite metric given explicitly by its distance matrix.
///
/// The paper's upper bound (Theorem 4.1) holds for peers located in *any*
/// metric space; this type lets experiments feed in measured latency
/// matrices or synthetic non-Euclidean metrics.
///
/// # Example
///
/// ```
/// use sp_graph::DistanceMatrix;
/// use sp_metric::{MatrixMetric, MetricSpace};
///
/// let m = DistanceMatrix::from_row_major(3, vec![
///     0.0, 1.0, 2.0,
///     1.0, 0.0, 1.5,
///     2.0, 1.5, 0.0,
/// ]).unwrap();
/// let space = MatrixMetric::new(m, 1e-9).unwrap();
/// assert_eq!(space.distance(0, 2), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMetric {
    matrix: DistanceMatrix,
}

impl MatrixMetric {
    /// Creates a metric from a matrix, validating all metric axioms with
    /// absolute tolerance `tol` (see [`validate_metric`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated axiom as a [`MetricError`].
    pub fn new(matrix: DistanceMatrix, tol: f64) -> Result<Self, MetricError> {
        let m = MatrixMetric { matrix };
        validate_metric(&m, tol)?;
        Ok(m)
    }

    /// Creates a metric from a matrix **without validating** the axioms.
    ///
    /// Useful for testing the validators themselves and for quasi-metrics
    /// in exploratory experiments; the game-theoretic results assume a true
    /// metric, so prefer [`MatrixMetric::new`].
    #[must_use]
    pub fn new_unchecked(matrix: DistanceMatrix) -> Self {
        MatrixMetric { matrix }
    }

    /// The underlying matrix.
    #[must_use]
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }
}

impl MetricSpace for MatrixMetric {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }
}

impl From<MatrixMetric> for DistanceMatrix {
    fn from(m: MatrixMetric) -> Self {
        m.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_matrix() -> DistanceMatrix {
        DistanceMatrix::from_row_major(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.5, 2.0, 1.5, 0.0])
            .unwrap()
    }

    #[test]
    fn valid_matrix_constructs() {
        let m = MatrixMetric::new(valid_matrix(), 1e-9).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.distance(1, 2), 1.5);
        assert_eq!(m.matrix()[(0, 1)], 1.0);
    }

    #[test]
    fn invalid_matrix_rejected() {
        let bad = DistanceMatrix::from_row_major(2, vec![0.0, 1.0, 2.0, 0.0]).unwrap();
        assert!(MatrixMetric::new(bad.clone(), 1e-9).is_err());
        // ... but unchecked construction allows it.
        let m = MatrixMetric::new_unchecked(bad);
        assert_eq!(m.distance(0, 1), 1.0);
        assert_eq!(m.distance(1, 0), 2.0);
    }

    #[test]
    fn into_matrix_roundtrip() {
        let m = MatrixMetric::new(valid_matrix(), 1e-9).unwrap();
        let back: DistanceMatrix = m.into();
        assert_eq!(back, valid_matrix());
    }
}
