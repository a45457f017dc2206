use std::fmt;
use std::ops::{Index, IndexMut};

use crate::GraphError;

/// A dense square matrix of `f64` distances, indexed by `(row, col)`.
///
/// Used for both metric-space distance tables and all-pairs shortest-path
/// results. Entries may be `f64::INFINITY` (unreachable) but never NaN —
/// constructors validate this.
///
/// # Example
///
/// ```
/// use sp_graph::DistanceMatrix;
///
/// let m = DistanceMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
/// assert_eq!(m[(0, 2)], 2.0);
/// assert!(m.is_symmetric(0.0));
/// ```
#[derive(Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new_filled(n: usize, value: f64) -> Self {
        assert!(!value.is_nan(), "matrix entries must not be NaN");
        DistanceMatrix {
            n,
            data: vec![value; n * n],
        }
    }

    /// Creates an `n × n` matrix whose `(i, j)` entry is `f(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns NaN.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let v = f(i, j);
                assert!(!v.is_nan(), "matrix entry ({i}, {j}) is NaN");
                data.push(v);
            }
        }
        DistanceMatrix { n, data }
    }

    /// Creates a matrix from a row-major vector of length `n²`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] if `data.len() != n * n`
    /// and [`GraphError::InvalidWeight`] if any entry is NaN.
    pub fn from_row_major(n: usize, data: Vec<f64>) -> Result<Self, GraphError> {
        if data.len() != n * n {
            return Err(GraphError::DimensionMismatch {
                expected: n * n,
                actual: data.len(),
            });
        }
        if let Some(&bad) = data.iter().find(|v| v.is_nan()) {
            return Err(GraphError::InvalidWeight { weight: bad });
        }
        Ok(DistanceMatrix { n, data })
    }

    /// Side length of the matrix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the `0 × 0` matrix.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Iterates over all rows as disjoint mutable slices, in order.
    ///
    /// The slices borrow independent regions of the backing storage, so
    /// callers can hand different rows to different threads (the sharded
    /// sweep in [`crate::CsrGraph::dijkstra_rows_with`] relies on this).
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_mut(self.n.max(1))
    }

    /// Returns `true` if `|m[i][j] - m[j][i]| <= tol` for all pairs.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for DistanceMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n={}",
            self.n
        );
        &self.data[i * self.n + j]
    }
}

impl IndexMut<(usize, usize)> for DistanceMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n={}",
            self.n
        );
        &mut self.data[i * self.n + j]
    }
}

impl fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DistanceMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n.min(12) {
            write!(f, "  [")?;
            for j in 0..self.n.min(12) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.3}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        if self.n > 12 {
            writeln!(f, "  ... ({} more rows)", self.n - 12)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_index() {
        let m = DistanceMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_row_major_validates_dimension() {
        assert!(matches!(
            DistanceMatrix::from_row_major(2, vec![1.0; 3]),
            Err(GraphError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
        let ok = DistanceMatrix::from_row_major(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(ok.is_symmetric(0.0));
    }

    #[test]
    fn from_row_major_rejects_nan() {
        assert!(matches!(
            DistanceMatrix::from_row_major(1, vec![f64::NAN]),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn symmetry_tolerance() {
        let mut m = DistanceMatrix::new_filled(2, 0.0);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0 + 1e-12;
        assert!(m.is_symmetric(1e-9));
        assert!(!m.is_symmetric(0.0));
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::new_filled(0, 0.0);
        assert!(m.is_empty());
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let m = DistanceMatrix::new_filled(2, 1.0);
        let s = format!("{m:?}");
        assert!(s.contains("DistanceMatrix(2x2)"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = DistanceMatrix::new_filled(2, 0.0);
        let _ = m[(2, 0)];
    }
}
