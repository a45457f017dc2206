//! A session-free reference for the cost readouts, shared by the dense
//! (`proptest_session.rs`) and sparse (`proptest_backend.rs`) suites.
//! [`readouts_match`] checks a dense session against it.
//!
//! The reference builds the overlay with [`sp_core::topology`], runs a
//! fresh [`sp_graph::dijkstra`] from every source, and reduces in the
//! documented order: sources ascending, then targets `j ≠ u` ascending.
//! Nothing in it goes through a [`GameSession`], so a cache bug in the
//! session cannot hide in the reference too.

use proptest::prelude::*;
use sp_core::{Game, GameSession, PeerId, StrategyProfile};
use sp_graph::DistanceMatrix;

/// The four readouts of one profile, computed without a session.
pub struct Readouts {
    pub link_cost: f64,
    pub stretch_cost: f64,
    pub peer_costs: Vec<f64>,
    pub max_stretch: f64,
    pub stretch: DistanceMatrix,
}

/// The readouts of `profile` on `game`, from fresh per-source sweeps.
pub fn reference_readouts(game: &Game, profile: &StrategyProfile) -> Readouts {
    let n = game.n();
    let overlay = sp_core::topology(game, profile).unwrap();
    let mut stretch = DistanceMatrix::new_filled(n, 1.0);
    let mut stretch_cost = 0.0f64;
    let mut max_stretch = 1.0f64;
    let mut peer_costs = Vec::with_capacity(n);
    for u in 0..n {
        let row = sp_graph::dijkstra(&overlay, u);
        let mut own = 0.0f64;
        for (j, &d_g) in row.iter().enumerate() {
            if j == u {
                continue;
            }
            let s = d_g / game.distance(u, j);
            stretch[(u, j)] = s;
            stretch_cost += s;
            own += s;
            max_stretch = max_stretch.max(s);
        }
        let links = profile.strategy(PeerId::new(u)).len();
        peer_costs.push(game.alpha() * links as f64 + own);
    }
    Readouts {
        link_cost: game.alpha() * profile.link_count() as f64,
        stretch_cost,
        peer_costs,
        max_stretch,
        stretch,
    }
}

fn same_bits(what: &str, got: f64, want: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{} bits differ: {} vs {}",
        what,
        got,
        want
    );
    Ok(())
}

/// Asserts that `session`'s readouts equal the reference on its current
/// profile bit for bit. `first` picks which readout runs first, so the
/// readouts are also checked against rows another one has just filled.
pub fn readouts_match(session: &mut GameSession, first: usize) -> Result<(), TestCaseError> {
    let want = reference_readouts(session.game(), session.profile());
    let n = session.n();
    for k in 0..4 {
        match (first + k) % 4 {
            0 => {
                let got = session.social_cost();
                same_bits("link cost", got.link_cost, want.link_cost)?;
                same_bits("stretch cost", got.stretch_cost, want.stretch_cost)?;
            }
            1 => {
                let got = session.all_peer_costs();
                prop_assert_eq!(got.len(), n);
                for (u, (&g, &w)) in got.iter().zip(&want.peer_costs).enumerate() {
                    same_bits(&format!("peer {u} cost"), g, w)?;
                }
            }
            2 => same_bits("max stretch", session.max_stretch(), want.max_stretch)?,
            _ => {
                let got = session.stretch_matrix();
                prop_assert_eq!(got.len(), n);
                for u in 0..n {
                    for j in 0..n {
                        same_bits(
                            &format!("stretch ({u}, {j})"),
                            got[(u, j)],
                            want.stretch[(u, j)],
                        )?;
                    }
                }
            }
        }
    }
    Ok(())
}
