//! Building games from typed [`GameSpec`]s.
//!
//! Structural validation ("exactly one geometry", shapes) is the type
//! itself: the binary decoder can only produce well-formed
//! [`GameSpec`]s. What stays here is *semantic* validation, the part
//! only game construction can decide: finite coordinates, matrix
//! squareness and symmetry, metric axioms, and link bounds. Failures
//! carry [`ErrorCode::BadSpec`].
//!
//! Every served game is dense: a line geometry is stored as its
//! precomputed matrix, like the other two. A dense game holds `n × n`
//! matrices, so its size is checked against [`MAX_DENSE_PEERS`] before
//! anything is allocated: one `create` must fail on its own, not abort
//! the process that serves every session.

use sp_core::{Game, StrategyProfile};
use sp_graph::DistanceMatrix;
use sp_metric::{Euclidean2D, LineSpace, Point2};

use crate::wire::{ErrorCode, GameSpec, Geometry, WireError};

/// The most peers a served game may have: `8n²` bytes is 32 MiB per
/// `n × n` matrix at this size, and a session holds several (the
/// metric, the overlay distances, an oracle's candidate rows).
pub const MAX_DENSE_PEERS: usize = 2048;

fn bad(message: String) -> WireError {
    WireError::new(ErrorCode::BadSpec, message)
}

/// Builds the game and initial profile described by a typed spec.
///
/// # Errors
///
/// Returns a [`ErrorCode::BadSpec`] error when the geometry is
/// semantically invalid (non-finite points, non-square or asymmetric
/// matrix, bad metric, out-of-bounds links), or when the game would
/// have more than [`MAX_DENSE_PEERS`] peers.
pub fn build(spec: &GameSpec) -> Result<(Game, StrategyProfile), WireError> {
    let n = match &spec.geometry {
        Geometry::Line(positions) => positions.len(),
        Geometry::Points2D(points) => points.len(),
        Geometry::Matrix(rows) => rows.len(),
    };
    if n > MAX_DENSE_PEERS {
        return Err(bad(format!(
            "a game of {n} peers exceeds the cap of {MAX_DENSE_PEERS}"
        )));
    }
    let game = match &spec.geometry {
        Geometry::Line(positions) => {
            let space = LineSpace::new(positions.clone()).map_err(|e| bad(e.to_string()))?;
            Game::from_space(&space, spec.alpha).map_err(|e| bad(e.to_string()))?
        }
        Geometry::Points2D(points) => {
            // A NaN or infinite coordinate would reach the distance
            // matrix as NaN, which the matrix builder refuses by panic.
            if points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
                return Err(bad("points_2d coordinates must be finite".to_owned()));
            }
            let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let space = Euclidean2D::new(pts).map_err(|e| bad(e.to_string()))?;
            Game::from_space(&space, spec.alpha).map_err(|e| bad(e.to_string()))?
        }
        Geometry::Matrix(rows) => {
            let n = rows.len();
            // sp-lint: allow(dense-alloc, reason = "decoding an explicit matrix spec, whose n the peer cap above bounds")
            let mut flat = Vec::with_capacity(n * n);
            for row in rows {
                if row.len() != n {
                    return Err(bad(format!(
                        "matrix must be square: row of {} in a {n}x{n} matrix",
                        row.len()
                    )));
                }
                flat.extend_from_slice(row);
            }
            let m = DistanceMatrix::from_row_major(n, flat).map_err(|e| bad(e.to_string()))?;
            Game::new(m, spec.alpha).map_err(|e| bad(e.to_string()))?
        }
    };

    let profile = if spec.links.is_empty() {
        StrategyProfile::empty(game.n())
    } else {
        StrategyProfile::from_links(game.n(), &spec.links).map_err(|e| bad(e.to_string()))?
    };
    Ok((game, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_spec(positions: Vec<f64>) -> GameSpec {
        GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(positions),
            links: Vec::new(),
        }
    }

    #[test]
    fn builds_each_geometry() {
        let (g, p) = build(&line_spec(vec![0.0, 1.0, 3.0])).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(p.link_count(), 0);

        let (g, p) = build(&GameSpec {
            alpha: 2.0,
            geometry: Geometry::Points2D(vec![(0.0, 0.0), (3.0, 4.0)]),
            links: vec![(0, 1)],
        })
        .unwrap();
        assert_eq!(g.distance(0, 1), 5.0);
        assert_eq!(p.link_count(), 1);

        let (g, _) = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![vec![0.0, 2.0], vec![2.0, 0.0]]),
            links: Vec::new(),
        })
        .unwrap();
        assert_eq!(g.distance(1, 0), 2.0);
    }

    #[test]
    fn rejects_bad_specs_semantically() {
        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![vec![0.0, 1.0]]),
            links: Vec::new(),
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
        assert!(e.message.contains("square"), "{e}");

        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(vec![0.0, 1.0]),
            links: vec![(0, 5)],
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
    }

    /// A spec over the cap is refused before the game allocates; at
    /// the cap it builds.
    #[test]
    fn dense_games_are_capped_before_they_allocate() {
        let line = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        for geometry in [
            Geometry::Line(line(1 << 20)),
            Geometry::Points2D(vec![(0.0, 0.0); MAX_DENSE_PEERS + 1]),
            Geometry::Matrix(vec![Vec::new(); MAX_DENSE_PEERS + 1]),
        ] {
            let e = build(&GameSpec {
                alpha: 1.0,
                geometry,
                links: Vec::new(),
            })
            .unwrap_err();
            assert_eq!(e.code, ErrorCode::BadSpec);
            assert!(e.message.contains("exceeds the cap"), "{e}");
        }
        let (g, _) = build(&line_spec(line(MAX_DENSE_PEERS))).unwrap();
        assert_eq!(g.n(), MAX_DENSE_PEERS);
    }

    /// The binary codec carries any f64, so non-finite values reach
    /// the builder and must fail typed rather than panic.
    #[test]
    fn rejects_non_finite_values() {
        for x in [f64::NAN, f64::INFINITY] {
            for geometry in [
                Geometry::Line(vec![0.0, x]),
                Geometry::Points2D(vec![(0.0, 0.0), (x, 1.0)]),
                Geometry::Matrix(vec![vec![0.0, x], vec![x, 0.0]]),
            ] {
                let spec = GameSpec {
                    alpha: 1.0,
                    geometry,
                    links: Vec::new(),
                };
                assert_eq!(build(&spec).unwrap_err().code, ErrorCode::BadSpec);
            }
            let e = build(&GameSpec {
                alpha: x,
                ..line_spec(vec![0.0, 1.0])
            })
            .unwrap_err();
            assert_eq!(e.code, ErrorCode::BadSpec);
        }
    }
}
