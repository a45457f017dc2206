//! Bounds used for Price-of-Anarchy bracketing.
//!
//! Computing the optimal social cost is NP-hard in general, so experiments
//! bracket it:
//!
//! * a **lower bound** valid for every profile ([`opt_lower_bound`]);
//! * **upper bounds** from explicit well-formed topologies (the baselines
//!   in `sp-constructions`), the cheapest of which the analysis crate
//!   uses as its OPT estimate.
//!
//! The paper's own argument (proof of Theorem 4.4) uses exactly this
//! pattern: `OPT ≤ C(G̃) ∈ O(αn + n²)` via the bidirectional chain, and
//! `OPT ≥ Ω(αn + n²)` generically.

use crate::Game;

/// A universal lower bound on the optimal social cost:
///
/// * a strongly connected digraph on `n ≥ 2` nodes has at least `n` edges,
///   contributing `α·n` of link cost;
/// * every one of the `n(n−1)` ordered stretches is at least 1.
///
/// Hence `OPT ≥ α·n + n(n−1)` (0 for `n ≤ 1`). This is the
/// `Ω(αn + n²)` bound the paper uses below Theorem 4.1.
///
/// # Example
///
/// ```
/// use sp_core::{poa, Game};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 4.0).unwrap();
/// assert_eq!(poa::opt_lower_bound(&game), 4.0 * 3.0 + 6.0);
/// ```
#[must_use]
pub fn opt_lower_bound(game: &Game) -> f64 {
    let n = game.n() as f64;
    if game.n() <= 1 {
        return 0.0;
    }
    game.alpha() * n + n * (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn game(n: usize, alpha: f64) -> Game {
        let pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Game::from_space(&LineSpace::new(pos).unwrap(), alpha).unwrap()
    }

    #[test]
    fn lower_bound_formula() {
        let g = game(4, 2.0);
        assert_eq!(opt_lower_bound(&g), 2.0 * 4.0 + 12.0);
        assert_eq!(opt_lower_bound(&game(1, 2.0)), 0.0);
        assert_eq!(opt_lower_bound(&game(0, 1.0)), 0.0);
    }

    #[test]
    fn opt_lower_bound_is_actually_below_opt() {
        // The true optimum of a 4-peer line, by brute force over all
        // 2^{n(n-1)} profiles.
        let pairs: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| (0..4).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        for alpha in [0.5, 1.0, 3.0] {
            let g = game(4, alpha);
            let opt = (0u32..1 << pairs.len())
                .map(|mask| {
                    let links: Vec<(usize, usize)> = (0..pairs.len())
                        .filter(|&k| mask & (1 << k) != 0)
                        .map(|k| pairs[k])
                        .collect();
                    let profile = crate::StrategyProfile::from_links(4, &links).unwrap();
                    crate::social_cost(&g, &profile).unwrap().total()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(opt >= opt_lower_bound(&g) - 1e-9);
        }
    }
}
