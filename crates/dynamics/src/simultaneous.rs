//! Simultaneous-move best-response dynamics.
//!
//! All peers compute responses against the *current* profile and switch
//! at once. Unlike the sequential dynamics this can oscillate even on
//! instances with equilibria (two peers may keep reacting to each other's
//! previous move — a coordination failure orthogonal to the paper's
//! Theorem 5.1), which makes it a useful contrast: the paper's
//! non-convergence is *strategic*, not an artifact of update timing.
//!
//! A fixed point of the simultaneous map is exactly a Nash equilibrium
//! (with exact responses).
//!
//! # One round engine, sharded or not
//!
//! Because every response in a round is computed against the same frozen
//! round-start profile, the k oracle computations are embarrassingly
//! parallel. [`run_simultaneous`] makes one
//! [`GameSession::best_responses_round`] call per round, which freezes
//! the round-start overlay snapshot, serves every oracle from it, fans
//! the oracles out over worker shards that all borrow that one snapshot
//! (activation position `p` on shard `p mod k`, a deterministic
//! round-robin interleave), and scatters the responses back into peer
//! order. At one shard it runs on the calling thread. The
//! round's accepted moves commit as one `apply_batch`; when its removed
//! links leave several peers, it drops the rows they were tight on, and
//! the next round's sharded refill sweeps them again.
//!
//! [`SimultaneousConfig::parallelism`] sets the shard count: `Some(1)`
//! forces one, `Some(k > 1)` forces `k`, and `None` (default) shards on
//! multi-worker machines once a round activates enough peers (the
//! session's own threshold). **Determinism contract:** rounds are
//! bit-identical — accepted-move sets, traces, termination, and round
//! counts — whatever the shard count;
//! `crates/dynamics/tests/proptest_parallel_round.rs` enforces it.

use sp_core::{BestResponseMethod, Game, GameSession, Move, PeerId, SessionStats, StrategyProfile};

use crate::engine::CycleDetector;
use crate::trace::{MoveRecord, Trace};
use crate::Termination;

/// Configuration for [`run_simultaneous`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimultaneousConfig {
    /// Best-response method used for every peer.
    pub method: BestResponseMethod,
    /// Maximum rounds before giving up.
    pub max_rounds: usize,
    /// Relative improvement threshold below which a peer keeps its
    /// strategy.
    pub tolerance: f64,
    /// Oracle shard count, routed through
    /// [`GameSession::set_parallelism`] (so `Some(0)` clamps to
    /// `Some(1)`): `Some(1)` runs every oracle on the calling thread,
    /// `Some(k > 1)` forces `k` oracle shards, `None` (default)
    /// auto-shards on multi-worker machines. Rounds are bit-identical at
    /// every shard count; this knob only trades wall-clock for threads.
    pub parallelism: Option<usize>,
    /// Record every accepted strategy switch into
    /// [`SimultaneousOutcome::trace`] (the `step` field carries the round
    /// index).
    pub record_trace: bool,
}

impl Default for SimultaneousConfig {
    fn default() -> Self {
        SimultaneousConfig {
            method: BestResponseMethod::Exact,
            max_rounds: 200,
            tolerance: 1e-9,
            parallelism: None,
            record_trace: false,
        }
    }
}

/// Outcome of a simultaneous-move run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimultaneousOutcome {
    /// The final profile.
    pub profile: StrategyProfile,
    /// Why the run stopped. `Converged` means a fixed point — a Nash
    /// equilibrium under exact responses. `Cycle` means the profile
    /// sequence provably repeats.
    pub termination: Termination,
    /// Rounds executed.
    pub rounds: usize,
    /// Accepted strategy switches across all rounds.
    pub moves: usize,
    /// Accepted switches in order, when
    /// [`SimultaneousConfig::record_trace`] was set.
    pub trace: Option<Trace>,
    /// Work counters of the session that drove the run (batch commits,
    /// oracle builds, shard fan-outs).
    pub stats: SessionStats,
}

/// Runs simultaneous best-response dynamics from `start`.
///
/// # Panics
///
/// Panics if the profile size does not match the game or the game is
/// empty.
///
/// # Example
///
/// ```
/// use sp_core::{Game, StrategyProfile};
/// use sp_dynamics::simultaneous::{run_simultaneous, SimultaneousConfig};
/// use sp_dynamics::Termination;
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 1.0).unwrap();
/// let out = run_simultaneous(&game, StrategyProfile::empty(2), &SimultaneousConfig::default());
/// // Two isolated peers both link each other at once: immediate fixed point.
/// assert!(matches!(out.termination, Termination::Converged { .. }));
/// ```
#[must_use]
pub fn run_simultaneous(
    game: &Game,
    start: StrategyProfile,
    config: &SimultaneousConfig,
) -> SimultaneousOutcome {
    let n = game.n();
    assert!(n > 0, "cannot run dynamics on an empty game");
    assert_eq!(start.n(), n, "profile size must match the game");
    let mut session = GameSession::new(game.clone(), start).expect("profile size checked above");
    // One knob drives both the bulk row refills and the oracle fan-out.
    session.set_parallelism(config.parallelism);
    let peers: Vec<PeerId> = (0..n).map(PeerId::new).collect();
    let mut trace = config.record_trace.then(Trace::new);
    // Start-of-round states with the accepted-update total at that
    // moment — on a revisit the difference is the true number of moves
    // inside one loop of the cycle. The detector keys on fingerprints
    // (position 0: rounds have no schedule offset) and confirms hits
    // exactly, so no profile clone is stored per round.
    let mut seen = CycleDetector::default();
    let mut moves = 0usize;
    let finish = |session: GameSession, termination: Termination, rounds, moves, trace| {
        let stats = session.stats();
        SimultaneousOutcome {
            profile: session.into_profile(),
            termination,
            rounds,
            moves,
            trace,
            stats,
        }
    };
    for round in 0..config.max_rounds {
        if let Some((first_round, first_moves)) =
            seen.check_and_insert(session.profile(), 0, round, moves)
        {
            let termination = Termination::Cycle {
                first_seen_step: first_round,
                period_steps: round - first_round,
                moves_in_cycle: moves - first_moves,
            };
            return finish(session, termination, round, moves, trace);
        }

        // All responses are computed against the *current* profile, then
        // applied at once (session queries never mutate the profile), in
        // peer order whatever the shard count.
        let responses = session
            .best_responses_round(&peers, config.method)
            .expect("validated inputs cannot fail");
        let mut updates: Vec<Move> = Vec::new();
        for br in responses {
            if br.improves(config.tolerance) && &br.links != session.profile().strategy(br.peer) {
                if let Some(t) = trace.as_mut() {
                    t.push(MoveRecord {
                        step: round,
                        peer: br.peer,
                        old_links: session.profile().strategy(br.peer).clone(),
                        new_links: br.links.clone(),
                        old_cost: br.current_cost,
                        new_cost: br.cost,
                    });
                }
                updates.push(Move::SetStrategy {
                    peer: br.peer,
                    links: br.links,
                });
            }
        }
        if updates.is_empty() {
            return finish(
                session,
                Termination::Converged { rounds: round + 1 },
                round + 1,
                moves,
                trace,
            );
        }
        moves += updates.len();
        // The whole round commits as one batch: one CSR rebuild and one
        // repair pass for the k accepted updates, instead of k of each.
        session.apply_batch(&updates).expect("valid response links");
    }
    finish(
        session,
        Termination::RoundLimit,
        config.max_rounds,
        moves,
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{is_nash, NashTest};
    use sp_metric::LineSpace;

    fn line_game(positions: Vec<f64>, alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(positions).unwrap(), alpha).unwrap()
    }

    #[test]
    fn fixed_points_are_nash_equilibria() {
        let game = line_game(vec![0.0, 1.0, 3.0], 1.0);
        let out = run_simultaneous(
            &game,
            StrategyProfile::empty(3),
            &SimultaneousConfig::default(),
        );
        if let Termination::Converged { .. } = out.termination {
            assert!(is_nash(&game, &out.profile, &NashTest::exact())
                .unwrap()
                .is_nash());
        }
        // Whatever happened, the run terminated decisively.
        assert!(!matches!(out.termination, Termination::RoundLimit));
    }

    #[test]
    fn starting_at_equilibrium_is_immediate_fixed_point() {
        let game = line_game(vec![0.0, 1.0], 2.0);
        let out = run_simultaneous(
            &game,
            StrategyProfile::complete(2),
            &SimultaneousConfig::default(),
        );
        assert!(matches!(
            out.termination,
            Termination::Converged { rounds: 1 }
        ));
        assert_eq!(out.profile, StrategyProfile::complete(2));
    }

    #[test]
    fn detects_simultaneous_oscillation_or_convergence() {
        // The I_1-style engineered instances cycle; ordinary lines either
        // converge or coordination-cycle — both are decisive outcomes.
        let game = line_game(vec![0.0, 1.0, 2.0, 4.0, 8.0], 1.0);
        let out = run_simultaneous(
            &game,
            StrategyProfile::empty(5),
            &SimultaneousConfig::default(),
        );
        assert!(matches!(
            out.termination,
            Termination::Converged { .. } | Termination::Cycle { .. }
        ));
    }

    #[test]
    fn cycle_reports_true_move_count() {
        // I_1 has no equilibrium (paper, Theorem 5.1), so simultaneous
        // updates provably cycle — and every round inside the loop
        // accepts at least one update, so `moves_in_cycle` can never be
        // the hardcoded 0 the pre-fix report carried.
        let inst = sp_constructions::NoEquilibriumInstance::paper(1);
        let out = run_simultaneous(
            inst.game(),
            StrategyProfile::empty(inst.game().n()),
            &SimultaneousConfig::default(),
        );
        match out.termination {
            Termination::Cycle {
                period_steps,
                moves_in_cycle,
                ..
            } => {
                assert!(period_steps >= 1);
                assert!(
                    moves_in_cycle >= period_steps,
                    "each of the {period_steps} looping rounds accepts at least one \
                     update, got moves_in_cycle = {moves_in_cycle}"
                );
            }
            other => panic!("I_1 must cycle under simultaneous updates, got {other:?}"),
        }
    }

    #[test]
    fn round_limit_respected() {
        let game = line_game(vec![0.0, 1.0, 2.0], 1.0);
        let config = SimultaneousConfig {
            max_rounds: 0,
            ..SimultaneousConfig::default()
        };
        let out = run_simultaneous(&game, StrategyProfile::empty(3), &config);
        assert_eq!(out.termination, Termination::RoundLimit);
    }

    #[test]
    #[should_panic(expected = "profile size")]
    fn size_mismatch_panics() {
        let game = line_game(vec![0.0, 1.0], 1.0);
        let _ = run_simultaneous(
            &game,
            StrategyProfile::empty(3),
            &SimultaneousConfig::default(),
        );
    }
}
