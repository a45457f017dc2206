use sp_graph::{CsrGraph, DijkstraScratch};

use crate::{topology, CoreError, Game, GameSession, PeerId, StrategyProfile};

/// The social cost `C(G) = α|E| + Σ_{i≠j} stretch(i, j)` decomposed into
/// its two terms (`C_E` and `C_S` in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialCost {
    /// `C_E = α · |E|` — total link maintenance cost.
    pub link_cost: f64,
    /// `C_S = Σ_{i≠j} stretch(i, j)` — total stretch cost (may be `∞`).
    pub stretch_cost: f64,
}

impl SocialCost {
    /// `C = C_E + C_S`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.link_cost + self.stretch_cost
    }

    /// Returns `true` when every peer can reach every other peer.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stretch_cost.is_finite()
    }
}

/// Individual cost of `peer`: `c_i(s) = α·|s_i| + Σ_{j≠i} stretch(i, j)`.
///
/// `∞` when some peer is unreachable from `peer`.
///
/// Unlike the other free wrappers this does **not** build a throwaway
/// [`GameSession`]: a single peer's cost needs exactly one overlay
/// shortest-path row, so the wrapper builds the `O(m)` overlay CSR and
/// runs one Dijkstra sweep — no `O(n²)` game clone or distance-matrix
/// allocation. Hot loops should still hold a session, whose row caches
/// survive across queries and moves.
///
/// # Errors
///
/// * [`CoreError::ProfileSizeMismatch`] on profile/game size disagreement;
/// * [`CoreError::PeerOutOfBounds`] if `peer` is out of bounds.
///
/// # Example
///
/// ```
/// use sp_core::{peer_cost, Game, PeerId, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 3.0).unwrap();
/// let p = StrategyProfile::complete(2);
/// // One link (α = 3) plus stretch 1 to the single other peer.
/// assert_eq!(peer_cost(&game, &p, PeerId::new(0)).unwrap(), 4.0);
/// ```
pub fn peer_cost(game: &Game, profile: &StrategyProfile, peer: PeerId) -> Result<f64, CoreError> {
    // `topology` performs the profile/game size check (first, matching
    // the session-backed wrapper's error precedence).
    let overlay = topology(game, profile)?;
    if peer.index() >= game.n() {
        return Err(CoreError::PeerOutOfBounds {
            peer: peer.index(),
            n: game.n(),
        });
    }
    let csr = CsrGraph::from_digraph(&overlay);
    let mut scratch = DijkstraScratch::new();
    let row = csr.dijkstra_row_with(peer.index(), &mut scratch);
    let stretch = peer_stretch(peer.index(), row, &game.latency_row(peer.index()));
    Ok(game.alpha() * profile.strategy(peer).len() as f64 + stretch)
}

/// `Σ_{j≠i} stretch(i, j)` from peer `i`'s overlay row `d_G(i, ·)` and
/// latency row `d(i, ·)`, summed in ascending `j`; `∞` as soon as the
/// sum is. Used by hot loops that amortise the Dijkstra sweeps.
pub(crate) fn peer_stretch(i: usize, overlay_row: &[f64], latency_row: &[f64]) -> f64 {
    let mut stretch_sum = 0.0f64;
    for (j, (&d_g, &d)) in overlay_row.iter().zip(latency_row).enumerate() {
        if j == i {
            continue;
        }
        stretch_sum += d_g / d;
        if stretch_sum.is_infinite() {
            return f64::INFINITY;
        }
    }
    stretch_sum
}

/// Individual costs of all peers (one Dijkstra per peer over a shared CSR
/// snapshot).
///
/// Thin wrapper over [`GameSession::all_peer_costs`].
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] on size disagreement.
pub fn all_peer_costs(game: &Game, profile: &StrategyProfile) -> Result<Vec<f64>, CoreError> {
    Ok(GameSession::from_refs(game, profile)?.all_peer_costs())
}

/// Social cost of a profile, decomposed into link and stretch parts.
///
/// The identity `C(G) = Σ_i c_i(s)` (sum of individual costs) holds
/// exactly and is enforced by property tests.
///
/// # Errors
///
/// Returns [`CoreError::ProfileSizeMismatch`] on size disagreement.
///
/// # Example
///
/// ```
/// use sp_core::{social_cost, Game, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 1.0).unwrap();
/// let c = social_cost(&game, &StrategyProfile::complete(3)).unwrap();
/// assert_eq!(c.link_cost, 6.0);
/// assert_eq!(c.stretch_cost, 6.0);
/// assert_eq!(c.total(), 12.0);
/// assert!(c.is_connected());
/// ```
pub fn social_cost(game: &Game, profile: &StrategyProfile) -> Result<SocialCost, CoreError> {
    Ok(GameSession::from_refs(game, profile)?.social_cost())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn game(alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0, 4.0]).unwrap(), alpha).unwrap()
    }

    #[test]
    fn complete_profile_costs() {
        let g = game(2.0);
        let p = StrategyProfile::complete(4);
        let sc = social_cost(&g, &p).unwrap();
        assert_eq!(sc.link_cost, 2.0 * 12.0);
        assert_eq!(sc.stretch_cost, 12.0);
        assert_eq!(sc.total(), 36.0);
        assert!(sc.is_connected());
    }

    #[test]
    fn social_cost_is_sum_of_peer_costs() {
        let g = game(1.5);
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
            .unwrap();
        let sc = social_cost(&g, &p).unwrap();
        let sum: f64 = all_peer_costs(&g, &p).unwrap().iter().sum();
        assert!((sc.total() - sum).abs() < 1e-9);
    }

    #[test]
    fn disconnected_profiles_have_infinite_cost() {
        let g = game(1.0);
        let p = StrategyProfile::empty(4);
        let sc = social_cost(&g, &p).unwrap();
        assert!(sc.stretch_cost.is_infinite());
        assert!(!sc.is_connected());
        assert_eq!(sc.link_cost, 0.0);
        let pc = peer_cost(&g, &p, PeerId::new(0)).unwrap();
        assert!(pc.is_infinite());
    }

    #[test]
    fn peer_cost_counts_own_links_only() {
        let g = game(10.0);
        // Peer 0 has 1 link; peer 1 has 3.
        let p = StrategyProfile::from_links(
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 1),
                (3, 1),
                (2, 3),
                (3, 2),
            ],
        )
        .unwrap();
        let c0 = peer_cost(&g, &p, PeerId::new(0)).unwrap();
        let c1 = peer_cost(&g, &p, PeerId::new(1)).unwrap();
        // Peer 0: α·1 + stretches; peer 1: α·3 + stretches (all 1 on a line
        // through neighbours? 1 -> 0 direct, 1 -> 2 direct, 1 -> 3 direct).
        assert!((c1 - (30.0 + 3.0)).abs() < 1e-12);
        // Peer 0 routes via 1: stretch to 2 = (1 + 2)/3 = 1, to 3 = (1+3)/4 = 1.
        assert!((c0 - (10.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn all_peer_costs_matches_individual_calls() {
        let g = game(0.7);
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let batch = all_peer_costs(&g, &p).unwrap();
        for i in 0..4 {
            let single = peer_cost(&g, &p, PeerId::new(i)).unwrap();
            assert!(
                (batch[i] - single).abs() < 1e-12
                    || (batch[i].is_infinite() && single.is_infinite())
            );
        }
    }

    #[test]
    fn out_of_bounds_peer_is_error() {
        let g = game(1.0);
        let p = StrategyProfile::empty(4);
        assert!(matches!(
            peer_cost(&g, &p, PeerId::new(7)),
            Err(CoreError::PeerOutOfBounds { peer: 7, n: 4 })
        ));
    }
}
