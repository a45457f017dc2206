use std::borrow::Cow;

use sp_graph::DistanceMatrix;
use sp_metric::{MetricError, MetricSpace};

use crate::CoreError;

/// How a [`Game`] stores its metric.
///
/// Dense games carry the explicit `n × n` latency matrix (the PR 1–6
/// representation, unchanged). Line games store only the `n` coordinates
/// and answer [`Game::distance`] as `|x_i − x_j|` — `O(n)` memory, the
/// representation the sparse evaluation backend needs to scale past the
/// point where a matrix fits.
#[derive(Debug, Clone, PartialEq)]
enum MetricStore {
    /// Explicit pairwise latencies.
    Dense(DistanceMatrix),
    /// Implicit 1-D Euclidean metric over point coordinates.
    Line(Vec<f64>),
}

/// A selfish-peers game instance: `n` peers with pairwise latencies and the
/// link-maintenance parameter `α`.
///
/// `α` expresses the relative importance of degree cost versus stretch
/// cost (paper, Section 2): large `α` models archival systems where links
/// are expensive relative to lookup latency; small `α` models
/// lookup-intensive systems.
///
/// The distance matrix must be a valid finite metric restricted to what can
/// be checked in `O(n²)`: symmetric, zero diagonal, positive finite
/// off-diagonal. (The triangle inequality is `O(n³)` to check; call
/// [`sp_metric::validate_metric`] on the source space when in doubt —
/// constructors here trust it.)
///
/// Games built through [`Game::new`] / [`Game::from_space`] store the
/// matrix **densely** (`O(n²)`), which is exact and fine up to a few
/// thousand peers. [`Game::from_line_positions`] stores an implicit 1-D
/// metric in `O(n)` instead — the representation a
/// [`SparseSession`](crate::SparseSession) needs for large-`n` runs.
///
/// # Example
///
/// ```
/// use sp_core::Game;
/// use sp_metric::LineSpace;
///
/// let space = LineSpace::new(vec![0.0, 1.0, 4.0]).unwrap();
/// let game = Game::from_space(&space, 2.5).unwrap();
/// assert_eq!(game.n(), 3);
/// assert_eq!(game.alpha(), 2.5);
/// assert_eq!(game.distance(0, 2), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Game {
    metric: MetricStore,
    alpha: f64,
}

fn validate_alpha(alpha: f64) -> Result<(), CoreError> {
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(CoreError::InvalidAlpha { alpha });
    }
    Ok(())
}

impl Game {
    /// Creates a game from an explicit distance matrix.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidAlpha`] unless `α` is finite and `> 0`;
    /// * [`CoreError::Metric`] if the matrix is asymmetric (tolerance
    ///   `1e-9` relative to the entry magnitude), has a non-zero diagonal,
    ///   or non-positive/non-finite off-diagonal entries.
    pub fn new(dist: DistanceMatrix, alpha: f64) -> Result<Self, CoreError> {
        validate_alpha(alpha)?;
        let n = dist.len();
        for i in 0..n {
            // sp-lint: allow(float-eps, reason = "metric validation: a diagonal must be exactly 0.0, not merely close")
            if dist[(i, i)] != 0.0 {
                return Err(CoreError::Metric(MetricError::NonZeroDiagonal { i }));
            }
            for j in (i + 1)..n {
                let dij = dist[(i, j)];
                let dji = dist[(j, i)];
                if !dij.is_finite() || !dji.is_finite() {
                    return Err(CoreError::Metric(MetricError::NonFiniteValue {
                        context: "pairwise distance",
                    }));
                }
                if dij <= 0.0 {
                    if dij == 0.0 {
                        return Err(CoreError::Metric(MetricError::CoincidentPoints { i, j }));
                    }
                    return Err(CoreError::Metric(MetricError::NegativeDistance { i, j }));
                }
                let tol = 1e-9 * (1.0 + dij.abs());
                if (dij - dji).abs() > tol {
                    return Err(CoreError::Metric(MetricError::Asymmetric { i, j }));
                }
            }
        }
        Ok(Game {
            metric: MetricStore::Dense(dist),
            alpha,
        })
    }

    /// Creates a game by materialising the distance matrix of a metric
    /// space.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Game::new`].
    pub fn from_space<M: MetricSpace + ?Sized>(space: &M, alpha: f64) -> Result<Self, CoreError> {
        Game::new(space.to_matrix(), alpha)
    }

    /// Creates a game over an **implicit** 1-D metric: peer `i` sits at
    /// `positions[i]` and `d(i, j) = |positions[i] − positions[j]|`.
    ///
    /// Unlike [`Game::from_space`] with an [`sp_metric::LineSpace`], no
    /// `n × n` matrix is ever materialised — the game holds the `n`
    /// coordinates and nothing else, so a 10⁵-peer instance costs
    /// kilobytes instead of tens of gigabytes. This is the metric
    /// representation a [`SparseSession`](crate::SparseSession) needs at
    /// scale.
    ///
    /// Validation is `O(n log n)`: every coordinate must be finite and
    /// all coordinates pairwise distinct (coincident peers would create
    /// zero distances, which the game model forbids).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidAlpha`] unless `α` is finite and `> 0`;
    /// * [`CoreError::Metric`] on non-finite or coincident coordinates.
    pub fn from_line_positions(positions: Vec<f64>, alpha: f64) -> Result<Self, CoreError> {
        validate_alpha(alpha)?;
        if positions.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::Metric(MetricError::NonFiniteValue {
                context: "line position",
            }));
        }
        let mut order: Vec<usize> = (0..positions.len()).collect();
        order.sort_unstable_by(|&a, &b| positions[a].total_cmp(&positions[b]).then(a.cmp(&b)));
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Coincidence means exactly equal coordinates, not merely
            // close — an eps band would reject legal tight metrics.
            if positions[a] == positions[b] {
                let (i, j) = (a.min(b), a.max(b));
                return Err(CoreError::Metric(MetricError::CoincidentPoints { i, j }));
            }
        }
        Ok(Game {
            metric: MetricStore::Line(positions),
            alpha,
        })
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        match &self.metric {
            MetricStore::Dense(dist) => dist.len(),
            MetricStore::Line(positions) => positions.len(),
        }
    }

    /// The trade-off parameter `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Underlying latency between peers `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[must_use]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        match &self.metric {
            MetricStore::Dense(dist) => dist[(i, j)],
            MetricStore::Line(positions) => (positions[i] - positions[j]).abs(),
        }
    }

    /// The latency row `d(i, ·)`, with `row[j]` bit-equal to
    /// [`Game::distance`]`(i, j)`: borrowed from the matrix of a dense
    /// game, filled into a fresh buffer for an implicit metric. Row
    /// readers (cost readouts, best-response oracles) index this slice
    /// instead of querying the metric entry by entry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn latency_row(&self, i: usize) -> Cow<'_, [f64]> {
        match &self.metric {
            MetricStore::Dense(dist) => Cow::Borrowed(dist.row(i)),
            MetricStore::Line(positions) => {
                let x = positions[i];
                Cow::Owned(positions.iter().map(|&y| (x - y).abs()).collect())
            }
        }
    }

    /// The full latency matrix.
    ///
    /// # Panics
    ///
    /// Panics when the game stores an implicit metric
    /// ([`Game::from_line_positions`]) — those games exist precisely so
    /// an `n × n` matrix never has to exist. Query
    /// [`Game::line_positions`] when unsure, or [`Game::distance`] for
    /// individual entries.
    #[must_use]
    pub fn matrix(&self) -> &DistanceMatrix {
        match &self.metric {
            MetricStore::Dense(dist) => dist,
            MetricStore::Line(_) => {
                panic!(
                    "matrix() requires a dense game; implicit-metric games answer distance() only"
                )
            }
        }
    }

    /// The peer coordinates when this game stores an implicit 1-D
    /// metric, `None` for dense games.
    #[must_use]
    pub fn line_positions(&self) -> Option<&[f64]> {
        match &self.metric {
            MetricStore::Dense(_) => None,
            MetricStore::Line(positions) => Some(positions),
        }
    }

    /// Semantic size of the stored metric in bytes: `8n²` dense, `8n`
    /// implicit. Deterministic (counts what the data is, not what the
    /// allocator holds), so the `sp-serve` registry can budget sessions
    /// identically across machines.
    #[must_use]
    pub fn metric_bytes(&self) -> usize {
        match &self.metric {
            MetricStore::Dense(dist) => dist.len() * dist.len() * std::mem::size_of::<f64>(),
            MetricStore::Line(positions) => positions.len() * std::mem::size_of::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn line_game() -> Game {
        let s = LineSpace::new(vec![0.0, 1.0, 3.0, 7.0]).unwrap();
        Game::from_space(&s, 1.5).unwrap()
    }

    #[test]
    fn construction_from_space() {
        let g = line_game();
        assert_eq!(g.n(), 4);
        assert_eq!(g.alpha(), 1.5);
        assert_eq!(g.distance(1, 3), 6.0);
        assert_eq!(g.matrix()[(0, 3)], 7.0);
    }

    #[test]
    fn rejects_bad_alpha() {
        let s = LineSpace::new(vec![0.0, 1.0]).unwrap();
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Game::from_space(&s, alpha),
                Err(CoreError::InvalidAlpha { .. })
            ));
            assert!(matches!(
                Game::from_line_positions(vec![0.0, 1.0], alpha),
                Err(CoreError::InvalidAlpha { .. })
            ));
        }
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let mut m = DistanceMatrix::new_filled(2, 0.0);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 2.0;
        assert!(matches!(Game::new(m, 1.0), Err(CoreError::Metric(_))));
    }

    #[test]
    fn rejects_zero_distance_pairs() {
        let m = DistanceMatrix::new_filled(2, 0.0);
        assert!(matches!(
            Game::new(m, 1.0),
            Err(CoreError::Metric(MetricError::CoincidentPoints {
                i: 0,
                j: 1
            }))
        ));
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let mut m = DistanceMatrix::new_filled(2, 1.0);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        assert!(matches!(
            Game::new(m, 1.0),
            Err(CoreError::Metric(MetricError::NonZeroDiagonal { i: 0 }))
        ));
    }

    #[test]
    fn empty_game_is_fine() {
        let g = Game::new(DistanceMatrix::new_filled(0, 0.0), 1.0).unwrap();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn implicit_line_metric_matches_dense_line_space() {
        let coords = vec![4.0, 0.0, 1.5, 9.25];
        let dense = Game::from_space(&LineSpace::new(coords.clone()).unwrap(), 2.0).unwrap();
        let implicit = Game::from_line_positions(coords.clone(), 2.0).unwrap();
        assert_eq!(implicit.n(), 4);
        assert_eq!(implicit.line_positions().unwrap(), coords.as_slice());
        for i in 0..4 {
            assert!(matches!(dense.latency_row(i), Cow::Borrowed(_)));
            for j in 0..4 {
                assert_eq!(
                    implicit.distance(i, j).to_bits(),
                    dense.distance(i, j).to_bits(),
                    "({i}, {j})"
                );
                assert_eq!(
                    implicit.latency_row(i)[j].to_bits(),
                    dense.latency_row(i)[j].to_bits(),
                    "row ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn implicit_metric_validation() {
        assert!(matches!(
            Game::from_line_positions(vec![0.0, f64::NAN], 1.0),
            Err(CoreError::Metric(MetricError::NonFiniteValue { .. }))
        ));
        assert!(matches!(
            Game::from_line_positions(vec![0.0, 3.0, 0.0], 1.0),
            Err(CoreError::Metric(MetricError::CoincidentPoints {
                i: 0,
                j: 2
            }))
        ));
        assert!(Game::from_line_positions(vec![], 1.0).is_ok());
    }

    #[test]
    fn metric_bytes_reflects_representation() {
        let dense = line_game();
        assert_eq!(dense.metric_bytes(), 4 * 4 * 8);
        let implicit = Game::from_line_positions(vec![0.0, 1.0, 3.0, 7.0], 1.5).unwrap();
        assert_eq!(implicit.metric_bytes(), 4 * 8);
    }

    #[test]
    #[should_panic(expected = "matrix() requires a dense game")]
    fn matrix_panics_on_implicit_metric() {
        let g = Game::from_line_positions(vec![0.0, 1.0], 1.0).unwrap();
        let _ = g.matrix();
    }
}
