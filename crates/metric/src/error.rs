use std::error::Error;
use std::fmt;

/// Errors produced when constructing or validating metric spaces.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricError {
    /// A coordinate or distance was NaN or infinite.
    NonFiniteValue {
        /// A description of where the value appeared.
        context: &'static str,
    },
    /// Two distinct points are at distance zero (violates the identity of
    /// indiscernibles, and makes stretch undefined).
    CoincidentPoints {
        /// First point index.
        i: usize,
        /// Second point index.
        j: usize,
    },
    /// `d(i, j) != d(j, i)` beyond tolerance.
    Asymmetric {
        /// First point index.
        i: usize,
        /// Second point index.
        j: usize,
    },
    /// `d(i, i) != 0`.
    NonZeroDiagonal {
        /// The point index.
        i: usize,
    },
    /// A negative distance.
    NegativeDistance {
        /// First point index.
        i: usize,
        /// Second point index.
        j: usize,
    },
    /// The triangle inequality fails: `d(i, k) > d(i, j) + d(j, k)`.
    TriangleViolation {
        /// Start point.
        i: usize,
        /// Intermediate point.
        j: usize,
        /// End point.
        k: usize,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MetricError::NonFiniteValue { context } => {
                write!(f, "non-finite value in {context}")
            }
            MetricError::CoincidentPoints { i, j } => {
                write!(f, "points {i} and {j} are distinct but at distance zero")
            }
            MetricError::Asymmetric { i, j } => {
                write!(f, "distance between {i} and {j} is not symmetric")
            }
            MetricError::NonZeroDiagonal { i } => {
                write!(f, "distance from point {i} to itself is not zero")
            }
            MetricError::NegativeDistance { i, j } => {
                write!(f, "negative distance between points {i} and {j}")
            }
            MetricError::TriangleViolation { i, j, k } => {
                write!(f, "triangle inequality violated on points {i}, {j}, {k}")
            }
        }
    }
}

impl Error for MetricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        assert!(MetricError::CoincidentPoints { i: 1, j: 2 }
            .to_string()
            .contains("distance zero"));
        assert!(MetricError::TriangleViolation { i: 0, j: 1, k: 2 }
            .to_string()
            .contains("triangle"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<MetricError>();
    }
}
