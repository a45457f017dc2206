//! Churn extension: peers joining and leaving a running system.
//!
//! The paper proves instability *without* churn (Theorem 5.1); this module
//! provides the complementary simulation with churn, so experiments can
//! quantify how much re-stabilisation work arrivals/departures cause on
//! instances that do converge.
//!
//! A [`ChurnSimulator`] keeps a universe game (all potential peers), an
//! alive set, and a [`GameSession`] holding the strategy profile over the
//! universe. Departures clear the leaver's strategy and everybody's links
//! to it; arrivals start with an empty strategy. [`ChurnSimulator::settle`]
//! then runs dynamics on the alive sub-game. Every churn event — the
//! multi-peer link teardown of a departure, the settle write-back — is a
//! single [`GameSession::apply_batch`] transaction: one overlay rebuild
//! and one repair pass however many peers the event touches.

use sp_core::{Game, GameSession, LinkSet, Move, PeerId, SessionStats, StrategyProfile};
use sp_graph::DistanceMatrix;

use crate::simultaneous::{run_simultaneous, SimultaneousConfig};
use crate::{DynamicsConfig, DynamicsRunner, Termination};

/// The restriction of `game` to the peers listed in `alive`
/// (in the given order). Returns the sub-game; index `k` of the sub-game
/// corresponds to peer `alive[k]` of the original.
///
/// # Panics
///
/// Panics if `alive` contains an out-of-bounds or duplicate index.
#[must_use]
pub fn subgame(game: &Game, alive: &[usize]) -> Game {
    let mut seen = vec![false; game.n()];
    for &i in alive {
        assert!(i < game.n(), "peer {i} out of bounds");
        assert!(!seen[i], "duplicate peer {i} in alive set");
        seen[i] = true;
    }
    // sp-lint: allow(dense-alloc, reason = "the alive sub-game is rebuilt dense by design; churn scenarios run at dense-backend sizes")
    let m = DistanceMatrix::from_fn(alive.len(), |a, b| game.distance(alive[a], alive[b]));
    Game::new(m, game.alpha()).expect("restriction of a valid game is valid")
}

/// Projects a universe profile onto the alive sub-game: links to dead
/// peers are dropped, indices are remapped to sub-game positions.
///
/// # Panics
///
/// Panics if `alive` contains out-of-bounds or duplicate indices, or if
/// `profile` is smaller than the universe implied by its own length.
#[must_use]
pub fn project_profile(profile: &StrategyProfile, alive: &[usize]) -> StrategyProfile {
    let mut position = vec![usize::MAX; profile.n()];
    for (k, &i) in alive.iter().enumerate() {
        assert!(i < profile.n(), "peer {i} out of bounds");
        assert!(position[i] == usize::MAX, "duplicate peer {i} in alive set");
        position[i] = k;
    }
    let strategies: Vec<LinkSet> = alive
        .iter()
        .map(|&i| {
            profile
                .strategy(PeerId::new(i))
                .iter()
                .filter_map(|j| {
                    let p = position[j.index()];
                    (p != usize::MAX).then_some(p)
                })
                .collect()
        })
        .collect();
    StrategyProfile::from_strategies(strategies).expect("projection preserves validity")
}

/// Outcome of settling the system after one churn event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRecord {
    /// Alive peers when the settle ran.
    pub alive: Vec<usize>,
    /// Activations performed.
    pub steps: usize,
    /// Accepted strategy changes.
    pub moves: usize,
    /// Whether the system re-stabilised.
    pub converged: bool,
}

/// Simulates a system under churn: peers leave and join, and the survivors
/// re-run selfish dynamics between events.
///
/// # Example
///
/// ```
/// use sp_core::{Game, StrategyProfile};
/// use sp_dynamics::churn::ChurnSimulator;
/// use sp_dynamics::DynamicsConfig;
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(
///     &LineSpace::new(vec![0.0, 1.0, 2.0, 4.0]).unwrap(), 1.0).unwrap();
/// let mut sim = ChurnSimulator::new(&game);
/// let r0 = sim.settle(&DynamicsConfig::default());
/// assert!(r0.converged);
/// sim.leave(2).unwrap();
/// let r1 = sim.settle(&DynamicsConfig::default());
/// assert!(r1.converged);
/// assert_eq!(r1.alive, vec![0, 1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnSimulator {
    alive: Vec<bool>,
    /// Universe-wide session (it owns the universe game); churn events
    /// mutate it through [`GameSession::apply_batch`] so its caches
    /// survive each event.
    session: GameSession,
    history: Vec<ChurnRecord>,
}

impl ChurnSimulator {
    /// Starts with every peer alive and the empty profile.
    #[must_use]
    pub fn new(universe: &Game) -> Self {
        ChurnSimulator {
            alive: vec![true; universe.n()],
            session: GameSession::new(universe.clone(), StrategyProfile::empty(universe.n()))
                .expect("empty profile matches the universe"),
            history: Vec::new(),
        }
    }

    /// The universe game (all potential peers).
    #[must_use]
    pub fn universe(&self) -> &Game {
        self.session.game()
    }

    /// Indices of currently alive peers, ascending.
    fn alive_peers(&self) -> Vec<usize> {
        (0..self.universe().n())
            .filter(|&i| self.alive[i])
            .collect()
    }

    /// The current profile over the universe (dead peers have empty
    /// strategies).
    #[must_use]
    pub fn profile(&self) -> &StrategyProfile {
        self.session.profile()
    }

    /// Work counters of the underlying universe session (batch counts,
    /// sweeps saved across churn events).
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Settle records accumulated so far.
    #[must_use]
    pub fn history(&self) -> &[ChurnRecord] {
        &self.history
    }

    /// Removes `peer` from the system: clears its strategy and everyone's
    /// links to it.
    ///
    /// # Errors
    ///
    /// Returns an error string if `peer` is out of bounds or already gone.
    pub fn leave(&mut self, peer: usize) -> Result<(), String> {
        if peer >= self.universe().n() {
            return Err(format!("peer {peer} out of bounds"));
        }
        if !self.alive[peer] {
            return Err(format!("peer {peer} is not alive"));
        }
        self.alive[peer] = false;
        let p = PeerId::new(peer);
        // One batch for the whole departure: the leaver's strategy reset
        // plus every link pointing at it.
        let mut event = vec![Move::SetStrategy {
            peer: p,
            links: LinkSet::new(),
        }];
        for i in 0..self.universe().n() {
            if i != peer && self.session.profile().has_link(PeerId::new(i), p) {
                event.push(Move::RemoveLink {
                    from: PeerId::new(i),
                    to: p,
                });
            }
        }
        self.session
            .apply_batch(&event)
            .expect("departure moves use validated indices");
        Ok(())
    }

    /// Re-adds `peer` with an empty strategy.
    ///
    /// # Errors
    ///
    /// Returns an error string if `peer` is out of bounds or already
    /// alive.
    pub fn join(&mut self, peer: usize) -> Result<(), String> {
        if peer >= self.universe().n() {
            return Err(format!("peer {peer} out of bounds"));
        }
        if self.alive[peer] {
            return Err(format!("peer {peer} is already alive"));
        }
        self.alive[peer] = true;
        Ok(())
    }

    /// Runs dynamics among alive peers until stable (or the config's round
    /// limit) and writes the resulting strategies back.
    pub fn settle(&mut self, config: &DynamicsConfig) -> ChurnRecord {
        self.settle_with(|sub, start| {
            let mut runner = DynamicsRunner::new(sub, config.clone());
            let out = runner.run(start);
            (
                out.profile,
                out.steps,
                out.moves,
                matches!(out.termination, Termination::Converged { .. }),
            )
        })
    }

    /// Like [`ChurnSimulator::settle`], but re-stabilises with
    /// **simultaneous rounds** ([`run_simultaneous`]) instead of one
    /// activation at a time — the settle phase this drives is the sharded
    /// round engine, so a churn burst on a large alive set re-settles
    /// with its best-response oracles fanned out over worker shards
    /// (`config.parallelism`). `steps` counts activations
    /// (`rounds × alive`), keeping records comparable with
    /// [`ChurnSimulator::settle`].
    pub fn settle_rounds(&mut self, config: &SimultaneousConfig) -> ChurnRecord {
        self.settle_with(|sub, start| {
            let out = run_simultaneous(sub, start, config);
            (
                out.profile,
                out.rounds * sub.n(),
                out.moves,
                matches!(out.termination, Termination::Converged { .. }),
            )
        })
    }

    /// Shared settle scaffolding: project the alive sub-game, run the
    /// supplied engine, and write the settled strategies back in universe
    /// coordinates as one batch.
    fn settle_with(
        &mut self,
        engine: impl FnOnce(&Game, StrategyProfile) -> (StrategyProfile, usize, usize, bool),
    ) -> ChurnRecord {
        let alive = self.alive_peers();
        let record = if alive.is_empty() {
            ChurnRecord {
                alive,
                steps: 0,
                moves: 0,
                converged: true,
            }
        } else {
            let sub = subgame(self.universe(), &alive);
            let start = project_profile(self.session.profile(), &alive);
            let (settled, steps, moves, converged) = engine(&sub, start);
            // Write strategies back in universe coordinates — one batch
            // for the whole settled sub-profile.
            let write_back: Vec<Move> = alive
                .iter()
                .enumerate()
                .map(|(k, &i)| Move::SetStrategy {
                    peer: PeerId::new(i),
                    links: settled
                        .strategy(PeerId::new(k))
                        .iter()
                        .map(|j| alive[j.index()])
                        .collect(),
                })
                .collect();
            self.session
                .apply_batch(&write_back)
                .expect("write-back uses valid indices");
            ChurnRecord {
                alive,
                steps,
                moves,
                converged,
            }
        };
        self.history.push(record.clone());
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{is_nash, NashTest};
    use sp_metric::LineSpace;

    fn game() -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0, 4.0, 7.0]).unwrap(), 1.0).unwrap()
    }

    #[test]
    fn subgame_restricts_distances() {
        let g = game();
        let sub = subgame(&g, &[0, 2, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.distance(0, 1), 2.0);
        assert_eq!(sub.distance(1, 2), 5.0);
        assert_eq!(sub.alpha(), 1.0);
    }

    #[test]
    fn project_profile_drops_dead_links() {
        let p = StrategyProfile::from_links(4, &[(0, 1), (0, 2), (3, 0)]).unwrap();
        let q = project_profile(&p, &[0, 2, 3]);
        assert_eq!(q.n(), 3);
        // Link 0 -> 1 died with peer 1; 0 -> 2 remaps to 0 -> 1.
        assert!(q.has_link(PeerId::new(0), PeerId::new(1)));
        assert_eq!(q.strategy(PeerId::new(0)).len(), 1);
        // 3 -> 0 remaps to index 2 -> 0.
        assert!(q.has_link(PeerId::new(2), PeerId::new(0)));
    }

    #[test]
    fn full_churn_cycle_restabilises() {
        let g = game();
        let mut sim = ChurnSimulator::new(&g);
        let r = sim.settle(&DynamicsConfig::default());
        assert!(r.converged);
        // Departure of an interior peer forces its neighbours to relink.
        sim.leave(2).unwrap();
        let r2 = sim.settle(&DynamicsConfig::default());
        assert!(r2.converged);
        assert_eq!(r2.alive, vec![0, 1, 3, 4]);
        // The settled sub-profile is a Nash equilibrium of the sub-game.
        let sub = subgame(&g, &r2.alive);
        let proj = project_profile(sim.profile(), &r2.alive);
        assert!(is_nash(&sub, &proj, &NashTest::exact()).unwrap().is_nash());
        // Rejoin.
        sim.join(2).unwrap();
        let r3 = sim.settle(&DynamicsConfig::default());
        assert!(r3.converged);
        assert_eq!(r3.alive.len(), 5);
        assert_eq!(sim.history().len(), 3);
    }

    #[test]
    fn churn_events_are_batched_transactions() {
        let g = game();
        let mut sim = ChurnSimulator::new(&g);
        let _ = sim.settle(&DynamicsConfig::default());
        let after_settle = sim.session_stats();
        assert_eq!(
            after_settle.batch_applies, 1,
            "the settle write-back is one batch"
        );
        sim.leave(2).unwrap();
        let after_leave = sim.session_stats();
        assert_eq!(
            after_leave.batch_applies - after_settle.batch_applies,
            1,
            "a departure commits as one batch however many links die"
        );
        assert!(after_leave.batch_moves > after_settle.batch_moves);
    }

    #[test]
    fn leave_and_join_validate() {
        let g = game();
        let mut sim = ChurnSimulator::new(&g);
        assert!(sim.leave(99).is_err());
        sim.leave(0).unwrap();
        assert!(sim.leave(0).is_err());
        assert!(sim.join(1).is_err());
        sim.join(0).unwrap();
        assert!(sim.join(0).is_err());
    }

    #[test]
    fn dead_peers_have_no_links() {
        let g = game();
        let mut sim = ChurnSimulator::new(&g);
        let _ = sim.settle(&DynamicsConfig::default());
        sim.leave(1).unwrap();
        let p = sim.profile();
        assert!(p.strategy(PeerId::new(1)).is_empty());
        for i in 0..5 {
            assert!(!p.has_link(PeerId::new(i), PeerId::new(1)));
        }
    }
}
