//! Exhaustive Nash-equilibrium scanning for tiny games.
//!
//! Theorem 5.1 claims certain instances admit **no** pure Nash
//! equilibrium. For `n = 5` (the `I_1` instance) the full strategy space
//! has `(2^4)^5 = 2^20 ≈ 10^6` profiles — small enough to check them all
//! and turn the theorem into a machine-verified certificate.
//!
//! Built on [`crate::fast::FastGame`], which avoids the general-purpose
//! machinery (no per-profile allocation, stack-matrix shortest paths).

use sp_core::{CoreError, Game, StrategyProfile};

use crate::fast::FastGame;

/// Maximum peer count for the exhaustive scan (the state space is
/// `2^{n(n-1)}`).
pub const EXHAUSTIVE_LIMIT: usize = crate::fast::FAST_LIMIT;

/// Outcome of an exhaustive scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExhaustiveResult {
    /// No profile is a Nash equilibrium — the game provably has no pure
    /// equilibrium (Theorem 5.1 witnessed).
    NoEquilibrium {
        /// Number of profiles examined (the full space).
        profiles_checked: u64,
    },
    /// A Nash equilibrium exists; the lexicographically first one found.
    FoundEquilibrium {
        /// The equilibrium profile.
        profile: StrategyProfile,
        /// Profiles examined before it was found.
        profiles_checked: u64,
    },
}

impl ExhaustiveResult {
    /// Returns `true` when the scan proved no equilibrium exists.
    #[must_use]
    pub fn proves_no_equilibrium(&self) -> bool {
        matches!(self, ExhaustiveResult::NoEquilibrium { .. })
    }
}

/// Exhaustively decides whether `game` has any pure Nash equilibrium.
///
/// `tolerance` is the relative improvement threshold (a deviation must
/// beat the current cost by more than `tolerance · (1 + |cost|)` to
/// disqualify a profile); `1e-9` matches [`sp_core::NashTest::exact`].
///
/// # Errors
///
/// Returns [`CoreError::InstanceTooLarge`] for games with more than
/// [`EXHAUSTIVE_LIMIT`] peers.
///
/// # Example
///
/// ```
/// use sp_analysis::exhaustive::exhaustive_nash_scan;
/// use sp_core::Game;
/// use sp_metric::LineSpace;
///
/// // Two peers always have the mutual-link equilibrium.
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 1.0).unwrap();
/// let result = exhaustive_nash_scan(&game, 1e-9).unwrap();
/// assert!(!result.proves_no_equilibrium());
/// ```
pub fn exhaustive_nash_scan(game: &Game, tolerance: f64) -> Result<ExhaustiveResult, CoreError> {
    let n = game.n();
    if n <= 1 {
        // The empty strategy is trivially an equilibrium.
        return Ok(ExhaustiveResult::FoundEquilibrium {
            profile: StrategyProfile::empty(n),
            profiles_checked: 1,
        });
    }
    let fast = FastGame::new(game)?;
    let total = fast.profile_count();
    let mut checked = 0u64;
    for code in 0..total {
        checked += 1;
        let masks = fast.unpack(code);
        if fast.is_nash(&masks, tolerance) {
            return Ok(ExhaustiveResult::FoundEquilibrium {
                profile: fast.decode(code),
                profiles_checked: checked,
            });
        }
    }
    Ok(ExhaustiveResult::NoEquilibrium {
        profiles_checked: checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn line_game(positions: Vec<f64>, alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(positions).unwrap(), alpha).unwrap()
    }

    /// Cross-checks the fast scanner against the general-purpose machinery
    /// on one profile.
    fn agrees_with_reference(game: &Game, profile: &StrategyProfile) -> bool {
        use sp_core::{is_nash, NashTest};
        let n = game.n();
        if n > EXHAUSTIVE_LIMIT || n <= 1 {
            return true;
        }
        let fast = FastGame::new(game).expect("size checked");
        let masks = fast.unpack(fast.encode(profile));
        let fast_verdict = fast.is_nash(&masks, 1e-9);
        let slow = is_nash(game, profile, &NashTest::exact())
            .expect("valid inputs")
            .is_nash();
        fast_verdict == slow
    }

    #[test]
    fn two_peers_always_have_equilibrium() {
        let game = line_game(vec![0.0, 1.0], 2.0);
        let r = exhaustive_nash_scan(&game, 1e-9).unwrap();
        match r {
            ExhaustiveResult::FoundEquilibrium { profile, .. } => {
                assert_eq!(profile.link_count(), 2);
            }
            ExhaustiveResult::NoEquilibrium { .. } => panic!("two-peer games have equilibria"),
        }
    }

    #[test]
    fn line_games_have_equilibria() {
        for n in 3..=4 {
            let pos: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let game = line_game(pos, 1.0);
            let r = exhaustive_nash_scan(&game, 1e-9).unwrap();
            assert!(!r.proves_no_equilibrium(), "n={n} lines always stabilise");
        }
    }

    #[test]
    fn found_equilibria_verify_against_reference() {
        let game = line_game(vec![0.0, 1.0, 2.5, 3.5], 0.7);
        if let ExhaustiveResult::FoundEquilibrium { profile, .. } =
            exhaustive_nash_scan(&game, 1e-9).unwrap()
        {
            assert!(agrees_with_reference(&game, &profile));
            let report = sp_core::is_nash(&game, &profile, &sp_core::NashTest::exact()).unwrap();
            assert!(report.is_nash(), "fast scanner found a fake equilibrium");
        } else {
            panic!("line games have equilibria");
        }
    }

    #[test]
    fn fast_checker_agrees_on_random_profiles() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        let space = sp_metric::generators::uniform_square(5, 10.0, &mut rng);
        let game = Game::from_space(&space, 1.5).unwrap();
        for _ in 0..40 {
            let links: Vec<(usize, usize)> = (0..5)
                .flat_map(|i| (0..5).filter(move |&j| j != i).map(move |j| (i, j)))
                .filter(|_| rng.random_range(0.0..1.0) < 0.3)
                .collect();
            let profile = StrategyProfile::from_links(5, &links).unwrap();
            assert!(agrees_with_reference(&game, &profile));
        }
    }

    #[test]
    fn oversized_games_are_rejected() {
        let pos: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let game = line_game(pos, 1.0);
        assert!(matches!(
            exhaustive_nash_scan(&game, 1e-9),
            Err(CoreError::InstanceTooLarge { n: 6, limit: 5 })
        ));
    }

    #[test]
    fn single_peer_trivial_equilibrium() {
        let game = line_game(vec![0.0], 1.0);
        let r = exhaustive_nash_scan(&game, 1e-9).unwrap();
        assert!(!r.proves_no_equilibrium());
    }
}
