use crate::{MetricError, MetricSpace};

/// Peers on the 1-dimensional Euclidean line.
///
/// This is the metric space of the paper's lower bound (Section 4.2):
/// intriguingly, the Price of Anarchy already deteriorates to
/// `Θ(min(α, n))` on a line.
///
/// Positions need not be sorted; they must be finite and pairwise distinct.
///
/// # Example
///
/// ```
/// use sp_metric::{LineSpace, MetricSpace};
///
/// let s = LineSpace::new(vec![0.0, 2.0, 7.0]).unwrap();
/// assert_eq!(s.distance(0, 2), 7.0);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LineSpace {
    positions: Vec<f64>,
}

impl LineSpace {
    /// Creates a line space from peer positions.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::NonFiniteValue`] for NaN/infinite positions
    /// and [`MetricError::CoincidentPoints`] if two positions coincide.
    pub fn new(positions: Vec<f64>) -> Result<Self, MetricError> {
        if positions.iter().any(|p| !p.is_finite()) {
            return Err(MetricError::NonFiniteValue {
                context: "line position",
            });
        }
        // Sort indices by position to detect duplicates in O(n log n).
        let mut idx: Vec<usize> = (0..positions.len()).collect();
        idx.sort_by(|&a, &b| positions[a].total_cmp(&positions[b]));
        for w in idx.windows(2) {
            if positions[w[0]] == positions[w[1]] {
                let (i, j) = (w[0].min(w[1]), w[0].max(w[1]));
                return Err(MetricError::CoincidentPoints { i, j });
            }
        }
        Ok(LineSpace { positions })
    }

    /// The position of peer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn position(&self, i: usize) -> f64 {
        self.positions[i]
    }

    /// All positions, indexed by peer.
    #[must_use]
    pub fn positions(&self) -> &[f64] {
        &self.positions
    }
}

impl MetricSpace for LineSpace {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        (self.positions[i] - self.positions[j]).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_absolute_differences() {
        let s = LineSpace::new(vec![5.0, -1.0, 3.0]).unwrap();
        assert_eq!(s.distance(0, 1), 6.0);
        assert_eq!(s.distance(1, 2), 4.0);
        assert_eq!(s.distance(2, 2), 0.0);
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            LineSpace::new(vec![1.0, 2.0, 1.0]),
            Err(MetricError::CoincidentPoints { i: 0, j: 2 })
        );
    }

    #[test]
    fn rejects_non_finite() {
        assert!(LineSpace::new(vec![f64::NAN]).is_err());
        assert!(LineSpace::new(vec![f64::NEG_INFINITY, 0.0]).is_err());
    }

    #[test]
    fn empty_line_is_fine() {
        let s = LineSpace::new(vec![]).unwrap();
        assert!(s.is_empty());
    }
}
