use sp_graph::{DiGraph, DistanceMatrix};

use crate::{CoreError, Game, GameSession, PeerId, StrategyProfile};

fn check_profile(game: &Game, profile: &StrategyProfile) -> Result<(), CoreError> {
    if profile.n() != game.n() {
        return Err(CoreError::ProfileSizeMismatch {
            expected: game.n(),
            actual: profile.n(),
        });
    }
    Ok(())
}

/// The overlay digraph `G[s]` induced by a profile: edge `(i, j)` with
/// weight `d(i, j)` for every `j ∈ s_i`.
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] if the profile and game
/// disagree on the number of peers.
///
/// # Example
///
/// ```
/// use sp_core::{Game, StrategyProfile, topology};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 2.0]).unwrap(), 1.0).unwrap();
/// let p = StrategyProfile::from_links(2, &[(0, 1)]).unwrap();
/// let g = topology(&game, &p).unwrap();
/// assert_eq!(g.edge_weight(0, 1), Some(2.0));
/// assert!(!g.has_edge(1, 0));
/// ```
pub fn topology(game: &Game, profile: &StrategyProfile) -> Result<DiGraph, CoreError> {
    check_profile(game, profile)?;
    let mut g = DiGraph::new(game.n());
    for (i, s) in profile.iter() {
        for j in s.iter() {
            g.add_edge(i.index(), j.index(), game.distance(i.index(), j.index()));
        }
    }
    Ok(g)
}

/// The overlay **without** the out-links of `peer` — the graph `G_{-i}`
/// underlying the best-response reduction (shortest paths from any `v ≠ i`
/// never need `i`'s out-links, because shortest paths do not revisit `i`).
///
/// # Errors
///
/// * [`CoreError::ProfileSizeMismatch`] on size disagreement;
/// * [`CoreError::PeerOutOfBounds`] if `peer` is out of bounds.
pub fn topology_without_peer(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
) -> Result<DiGraph, CoreError> {
    check_profile(game, profile)?;
    if peer.index() >= game.n() {
        return Err(CoreError::PeerOutOfBounds {
            peer: peer.index(),
            n: game.n(),
        });
    }
    let mut g = DiGraph::new(game.n());
    for (i, s) in profile.iter() {
        if i == peer {
            continue;
        }
        for j in s.iter() {
            g.add_edge(i.index(), j.index(), game.distance(i.index(), j.index()));
        }
    }
    Ok(g)
}

/// All-pairs overlay distances `d_G(i, j)` (may contain `∞` when the
/// overlay is not strongly connected).
///
/// Thin wrapper over [`GameSession::overlay_distances`]; hot loops should
/// hold a session, whose cache survives [`GameSession::apply`] moves.
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] if the profile and game
/// disagree on the number of peers.
pub fn overlay_distances(
    game: &Game,
    profile: &StrategyProfile,
) -> Result<DistanceMatrix, CoreError> {
    let mut session = GameSession::from_refs(game, profile)?;
    Ok(session.overlay_distances().clone())
}

/// The stretch matrix: `stretch(i, j) = d_G(i, j) / d(i, j)` off-diagonal,
/// `1.0` on the diagonal (a peer trivially reaches itself).
///
/// Entries are `∞` for unreachable pairs and always `>= 1` otherwise
/// (overlay paths are made of metric edges, so they cannot beat the direct
/// distance).
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] if the profile and game
/// disagree on the number of peers.
///
/// # Example
///
/// ```
/// use sp_core::{Game, StrategyProfile, stretch_matrix};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 1.0).unwrap();
/// // Chain topology: 0 -> 1 -> 2 and back.
/// let p = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (2, 1), (1, 0)]).unwrap();
/// let s = stretch_matrix(&game, &p).unwrap();
/// assert_eq!(s[(0, 2)], 1.0); // 0->1->2 has length 2 = direct distance
/// ```
pub fn stretch_matrix(game: &Game, profile: &StrategyProfile) -> Result<DistanceMatrix, CoreError> {
    Ok(GameSession::from_refs(game, profile)?.stretch_matrix())
}

/// The largest stretch over all ordered pairs (`∞` if some peer cannot
/// reach some other peer). Theorem 4.1 proves this never exceeds `α + 1`
/// in a Nash equilibrium.
///
/// Returns `1.0` for games with fewer than two peers.
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] if the profile and game
/// disagree on the number of peers.
pub fn max_stretch(game: &Game, profile: &StrategyProfile) -> Result<f64, CoreError> {
    Ok(GameSession::from_refs(game, profile)?.max_stretch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn game3() -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap(), 2.0).unwrap()
    }

    #[test]
    fn topology_respects_direction_and_weights() {
        let game = game3();
        let p = StrategyProfile::from_links(3, &[(0, 2), (2, 0)]).unwrap();
        let g = topology(&game, &p).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 0), Some(3.0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn topology_without_peer_drops_only_that_peers_links() {
        let game = game3();
        let p = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let g = topology_without_peer(&game, &p, PeerId::new(1)).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn stretch_of_complete_profile_is_all_ones() {
        let game = game3();
        let s = stretch_matrix(&game, &StrategyProfile::complete(3)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(s[(i, j)], 1.0, "({i},{j})");
            }
        }
        assert_eq!(
            max_stretch(&game, &StrategyProfile::complete(3)).unwrap(),
            1.0
        );
    }

    #[test]
    fn stretch_detects_detours() {
        let game = game3();
        // 0 -> 1 -> 2, and 2 -> 1 -> 0: path 0..2 direct, but 2 to 0 must
        // hop through 1 (same length on a line: stretch stays 1).
        let p = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (2, 1), (1, 0)]).unwrap();
        let s = stretch_matrix(&game, &p).unwrap();
        assert_eq!(s[(0, 2)], 1.0);
        // Now a genuine detour: peer 1 only links right, so 1 reaches 0
        // via 2? No path at all: 1 -> 2, 2 -> 1. Unreachable.
        let q = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (2, 1)]).unwrap();
        let sq = stretch_matrix(&game, &q).unwrap();
        assert!(sq[(1, 0)].is_infinite());
        assert!(max_stretch(&game, &q).unwrap().is_infinite());
    }

    #[test]
    fn genuine_detour_has_stretch_above_one() {
        // Line 0,1,3: link 0 -> 2 missing; 0 reaches 2 via 1:
        // d_G = 1 + 2 = 3 = direct 3. On a line collinear detours cost
        // nothing, so use three points where the detour is real:
        // positions 0, 1, 1.5: 0 -> 1 -> 2 length 1 + 0.5 = 1.5 = direct.
        // Lines never create stretch; use a matrix metric instead.
        use sp_graph::DistanceMatrix;
        let m =
            DistanceMatrix::from_row_major(3, vec![0.0, 1.0, 1.2, 1.0, 0.0, 1.0, 1.2, 1.0, 0.0])
                .unwrap();
        let game = Game::new(m, 1.0).unwrap();
        let p = StrategyProfile::from_links(3, &[(0, 1), (1, 2), (2, 1), (1, 0)]).unwrap();
        let s = stretch_matrix(&game, &p).unwrap();
        assert!((s[(0, 2)] - 2.0 / 1.2).abs() < 1e-12);
        assert!(s[(0, 2)] > 1.0);
    }

    #[test]
    fn profile_size_mismatch_is_reported() {
        let game = game3();
        let p = StrategyProfile::empty(4);
        assert!(matches!(
            topology(&game, &p),
            Err(CoreError::ProfileSizeMismatch {
                expected: 3,
                actual: 4
            })
        ));
        assert!(overlay_distances(&game, &p).is_err());
        assert!(stretch_matrix(&game, &p).is_err());
        assert!(max_stretch(&game, &p).is_err());
        assert!(topology_without_peer(&game, &p, PeerId::new(0)).is_err());
    }

    #[test]
    fn empty_game_edge_cases() {
        let game = Game::new(sp_graph::DistanceMatrix::new_filled(0, 0.0), 1.0).unwrap();
        let p = StrategyProfile::empty(0);
        assert_eq!(topology(&game, &p).unwrap().node_count(), 0);
        assert_eq!(max_stretch(&game, &p).unwrap(), 1.0);
    }
}
