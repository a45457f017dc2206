//! The network creation game of Fabrikant, Luthra, Maneva, Papadimitriou &
//! Shenker (PODC 2003) — the related-work baseline from which the paper
//! departs.
//!
//! Differences from the selfish-peers game:
//!
//! * links are **undirected**: a bought edge can be used by both
//!   endpoints (and by everyone else routing through it);
//! * distances are **hop counts**, not metric stretches — the game has no
//!   underlying latency space.
//!
//! A player's cost is `α·(edges bought) + Σ_j hopdist(i, j)`.
//!
//! Implementing both games over the same `StrategyProfile` type lets
//! experiment E8 compare the equilibria the two models produce on the
//! same peer sets.

use sp_core::BestResponseMethod;
use sp_core::{CoreError, LinkSet, PeerId, StrategyProfile};
use sp_facility::{
    solve_branch_and_bound, solve_enumeration, solve_greedy, solve_local_search, FacilityProblem,
};
use sp_graph::{dijkstra, CsrGraph, DiGraph};

/// A Fabrikant et al. network creation game instance.
///
/// # Example
///
/// ```
/// use sp_constructions::FabrikantGame;
/// use sp_core::StrategyProfile;
///
/// let game = FabrikantGame::new(4, 2.0).unwrap();
/// // A star owned by its centre.
/// let star = StrategyProfile::from_links(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
/// // Centre: 3α + 3 hops; each leaf: 0 bought + 1 + 2 + 2 hops.
/// assert_eq!(game.social_cost(&star).unwrap(), 9.0 + 3.0 * 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FabrikantGame {
    n: usize,
    alpha: f64,
}

impl FabrikantGame {
    /// Creates an instance with `n` players and edge price `α`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAlpha`] unless `α` is finite positive.
    pub fn new(n: usize, alpha: f64) -> Result<Self, CoreError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CoreError::InvalidAlpha { alpha });
        }
        Ok(FabrikantGame { n, alpha })
    }

    /// Number of players.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The edge price `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn check_profile(&self, profile: &StrategyProfile) -> Result<(), CoreError> {
        if profile.n() != self.n {
            return Err(CoreError::ProfileSizeMismatch {
                expected: self.n,
                actual: profile.n(),
            });
        }
        Ok(())
    }

    /// The undirected unit-weight graph formed by all bought edges.
    fn graph(&self, profile: &StrategyProfile) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        for (i, j) in profile.links() {
            g.add_edge(i.index(), j.index(), 1.0);
            g.add_edge(j.index(), i.index(), 1.0);
        }
        g
    }

    /// The same graph minus every edge incident to `skip` — used by the
    /// best-response reduction.
    fn graph_without(&self, profile: &StrategyProfile, skip: usize) -> DiGraph {
        let mut g = DiGraph::new(self.n);
        for (i, j) in profile.links() {
            if i.index() != skip && j.index() != skip {
                g.add_edge(i.index(), j.index(), 1.0);
                g.add_edge(j.index(), i.index(), 1.0);
            }
        }
        g
    }

    /// Individual cost: `α·|bought| + Σ_j hopdist(i, j)` (`∞` when the
    /// graph does not connect `i` to everyone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] /
    /// [`CoreError::PeerOutOfBounds`] for malformed inputs.
    fn player_cost(&self, profile: &StrategyProfile, i: PeerId) -> Result<f64, CoreError> {
        self.check_profile(profile)?;
        if i.index() >= self.n {
            return Err(CoreError::PeerOutOfBounds {
                peer: i.index(),
                n: self.n,
            });
        }
        let g = self.graph(profile);
        let dist = dijkstra(&g, i.index());
        let hops: f64 = dist.iter().sum();
        Ok(self.alpha * profile.strategy(i).len() as f64 + hops)
    }

    /// Social cost `Σ_i c_i = α·|E| + Σ_{i,j} hopdist(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] on size disagreement.
    pub fn social_cost(&self, profile: &StrategyProfile) -> Result<f64, CoreError> {
        self.check_profile(profile)?;
        let g = self.graph(profile);
        let csr = CsrGraph::from_digraph(&g);
        let mut total = self.alpha * profile.link_count() as f64;
        let mut buf = vec![f64::INFINITY; self.n];
        for i in 0..self.n {
            csr.dijkstra_into(i, &mut buf);
            total += buf.iter().sum::<f64>();
            if total.is_infinite() {
                return Ok(f64::INFINITY);
            }
        }
        Ok(total)
    }

    /// Exact (or heuristic) best response of player `i`: which edges to
    /// buy given everyone else's purchases.
    ///
    /// Reduction: with `F = {j : i ∈ s_j}` the edges *already paid for by
    /// others*, player `i`'s distance to `j` after buying `S` is
    /// `min_{v ∈ S∪F} (1 + D_{-i}(v, j))`. That is facility location with
    /// per-facility opening costs `0` for `v ∈ F` and `α` otherwise.
    /// Free facilities can only help, so solvers keep them; the returned
    /// strategy contains only the genuinely bought edges (`S* \ F`).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] for malformed inputs and
    /// [`CoreError::InstanceTooLarge`] for enumeration on `n > 25`.
    pub fn best_response(
        &self,
        profile: &StrategyProfile,
        i: PeerId,
        method: BestResponseMethod,
    ) -> Result<(LinkSet, f64), CoreError> {
        self.check_profile(profile)?;
        if i.index() >= self.n {
            return Err(CoreError::PeerOutOfBounds {
                peer: i.index(),
                n: self.n,
            });
        }
        if self.n <= 1 {
            return Ok((LinkSet::new(), 0.0));
        }
        let ii = i.index();
        let free: Vec<bool> = (0..self.n)
            .map(|j| j != ii && profile.strategy(PeerId::new(j)).contains(i))
            .collect();
        let g_minus = self.graph_without(profile, ii);
        let csr = CsrGraph::from_digraph(&g_minus);
        let candidates: Vec<usize> = (0..self.n).filter(|&v| v != ii).collect();
        let mut open_costs = Vec::with_capacity(candidates.len());
        let mut assignment = Vec::with_capacity(candidates.len());
        let mut buf = vec![f64::INFINITY; self.n];
        for &v in &candidates {
            csr.dijkstra_into(v, &mut buf);
            open_costs.push(if free[v] { 0.0 } else { self.alpha });
            assignment.push(
                candidates
                    .iter()
                    .map(|&j| 1.0 + buf[j])
                    .collect::<Vec<f64>>(),
            );
        }
        let problem =
            FacilityProblem::new(open_costs, assignment).expect("reduction costs are valid");
        let sol = match method {
            BestResponseMethod::Exact => solve_branch_and_bound(&problem),
            BestResponseMethod::ExactEnumeration => {
                solve_enumeration(&problem).map_err(|e| match e {
                    sp_facility::FacilityError::TooManyFacilities { facilities, limit } => {
                        CoreError::InstanceTooLarge {
                            n: facilities + 1,
                            limit: limit + 1,
                        }
                    }
                    other => panic!("unexpected facility error: {other}"),
                })?
            }
            BestResponseMethod::Greedy => solve_greedy(&problem),
            BestResponseMethod::LocalSearch => solve_local_search(&problem, None),
        };
        let bought: LinkSet = sol
            .open
            .iter()
            .map(|&f| candidates[f])
            .filter(|&v| !free[v])
            .collect();
        Ok((bought, sol.cost))
    }

    /// Round-robin exact best-response dynamics; returns the final profile
    /// and whether it converged within `max_rounds`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from [`FabrikantGame::best_response`].
    pub fn best_response_dynamics(
        &self,
        start: StrategyProfile,
        max_rounds: usize,
    ) -> Result<(StrategyProfile, bool), CoreError> {
        self.check_profile(&start)?;
        let mut profile = start;
        for _ in 0..max_rounds {
            let mut changed = false;
            for i in 0..self.n {
                let p = PeerId::new(i);
                let old = self.player_cost(&profile, p)?;
                let (links, new) = self.best_response(&profile, p, BestResponseMethod::Exact)?;
                let improving =
                    new < old - 1e-9 * (1.0 + old.abs()) || (old.is_infinite() && new.is_finite());
                if improving && &links != profile.strategy(p) {
                    profile.set_strategy(p, links)?;
                    changed = true;
                }
            }
            if !changed {
                return Ok((profile, true));
            }
        }
        Ok((profile, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_owned_by_center(n: usize) -> StrategyProfile {
        let links: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        StrategyProfile::from_links(n, &links).unwrap()
    }

    fn complete_one_direction(n: usize) -> StrategyProfile {
        let mut links = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                links.push((i, j));
            }
        }
        StrategyProfile::from_links(n, &links).unwrap()
    }

    /// Returns `None` when `profile` is a Nash equilibrium (under exact
    /// best responses), or `Some((player, better strategy, old, new))`.
    #[allow(clippy::type_complexity)]
    fn find_deviation(
        g: &FabrikantGame,
        profile: &StrategyProfile,
    ) -> Result<Option<(PeerId, LinkSet, f64, f64)>, CoreError> {
        for i in 0..g.n {
            let p = PeerId::new(i);
            let old = g.player_cost(profile, p)?;
            let (links, new) = g.best_response(profile, p, BestResponseMethod::Exact)?;
            let improving =
                new < old - 1e-9 * (1.0 + old.abs()) || (old.is_infinite() && new.is_finite());
            if improving {
                return Ok(Some((p, links, old, new)));
            }
        }
        Ok(None)
    }

    #[test]
    fn costs_on_the_star() {
        let g = FabrikantGame::new(5, 3.0).unwrap();
        let star = star_owned_by_center(5);
        // Centre: 4 edges + dist (1+1+1+1) = 12 + 4 = 16.
        assert_eq!(g.player_cost(&star, 0.into()).unwrap(), 16.0);
        // Leaf: 0 edges + (1 + 2+2+2) = 7.
        assert_eq!(g.player_cost(&star, 1.into()).unwrap(), 7.0);
        // Social: α·4 + Σ dists = 12 + (4 + 7·4... ) compute: centre 4,
        // each leaf 7 ⇒ 4 + 28 = 32 hops total; social = 12 + 32 = 44.
        assert_eq!(g.social_cost(&star).unwrap(), 44.0);
    }

    #[test]
    fn star_is_nash_for_alpha_above_one() {
        for alpha in [1.5, 2.0, 10.0] {
            let g = FabrikantGame::new(6, alpha).unwrap();
            let star = star_owned_by_center(6);
            assert!(
                find_deviation(&g, &star).unwrap().is_none(),
                "star should be Nash at α={alpha}"
            );
        }
    }

    #[test]
    fn complete_is_nash_for_alpha_below_one() {
        let g = FabrikantGame::new(5, 0.5).unwrap();
        let c = complete_one_direction(5);
        assert!(find_deviation(&g, &c).unwrap().is_none());
    }

    #[test]
    fn complete_is_not_nash_for_large_alpha() {
        let g = FabrikantGame::new(5, 3.0).unwrap();
        let c = complete_one_direction(5);
        let dev = find_deviation(&g, &c).unwrap();
        assert!(dev.is_some(), "dropping a redundant edge must pay at α=3");
        let (p, links, old, new) = dev.unwrap();
        assert!(new < old);
        // The deviation is real: replay it.
        let deviated = c.with_strategy(p, links).unwrap();
        assert!(g.player_cost(&deviated, p).unwrap() < old + 1e-9);
    }

    #[test]
    fn star_is_not_nash_for_tiny_alpha() {
        // α < 1: each leaf buys direct edges to other leaves (dist 2 -> 1
        // costs α < 1).
        let g = FabrikantGame::new(5, 0.4).unwrap();
        let star = star_owned_by_center(5);
        assert!(find_deviation(&g, &star).unwrap().is_some());
    }

    #[test]
    fn best_response_ignores_edges_already_paid_by_others() {
        let g = FabrikantGame::new(3, 1.5).unwrap();
        // Player 1 and 2 both bought edges to 0.
        let p = StrategyProfile::from_links(3, &[(1, 0), (2, 0)]).unwrap();
        let (links, cost) = g
            .best_response(&p, 0.into(), BestResponseMethod::Exact)
            .unwrap();
        // 0 is adjacent to both 1 and 2 through the free (undirected)
        // edges: buys nothing, pays only 1 + 1 hops.
        assert!(links.is_empty());
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn dynamics_converges_on_small_instances() {
        let g = FabrikantGame::new(5, 2.0).unwrap();
        let (profile, converged) = g
            .best_response_dynamics(StrategyProfile::empty(5), 50)
            .unwrap();
        assert!(converged, "Fabrikant BR dynamics should settle here");
        assert!(find_deviation(&g, &profile).unwrap().is_none());
        assert!(g.social_cost(&profile).unwrap().is_finite());
    }

    #[test]
    fn exact_methods_agree_on_responses() {
        let g = FabrikantGame::new(5, 1.2).unwrap();
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        for i in 0..5 {
            let (_, a) = g
                .best_response(&p, i.into(), BestResponseMethod::Exact)
                .unwrap();
            let (_, b) = g
                .best_response(&p, i.into(), BestResponseMethod::ExactEnumeration)
                .unwrap();
            assert!((a - b).abs() < 1e-9, "player {i}: {a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FabrikantGame::new(3, 0.0).is_err());
        assert!(FabrikantGame::new(3, f64::NAN).is_err());
        let g = FabrikantGame::new(3, 1.0).unwrap();
        assert!(g.player_cost(&StrategyProfile::empty(4), 0.into()).is_err());
    }

    #[test]
    fn empty_profile_costs_are_infinite() {
        let g = FabrikantGame::new(3, 1.0).unwrap();
        let e = StrategyProfile::empty(3);
        assert!(g.player_cost(&e, 0.into()).unwrap().is_infinite());
        assert!(g.social_cost(&e).unwrap().is_infinite());
    }
}
