use std::collections::HashMap;

use sp_core::{BestResponseMethod, Game, GameSession, LinkSet, Move, PeerId, StrategyProfile};

use crate::trace::{MoveRecord, Trace};
use crate::Schedule;

/// One previously seen `(profile, schedule position)` state, kept for
/// exact confirmation of fingerprint hits.
#[derive(Debug)]
struct SeenState {
    pos: usize,
    encoded: Vec<u64>,
    step: usize,
    moves: usize,
}

/// Exact state-revisit detection keyed on 64-bit fingerprints.
///
/// Hashing the full [`StrategyProfile`] on every step costs `O(n)` per
/// lookup plus a profile clone per insert; the detector instead packs the
/// profile's links into a compact canonical encoding once, keys the map
/// on an FNV-1a fingerprint of `(links, position)`, and confirms every
/// hit against the stored encoding — a fingerprint collision lands in
/// the same bucket but can never produce a false cycle report.
#[derive(Debug, Default)]
pub(crate) struct CycleDetector {
    seen: HashMap<u64, Vec<SeenState>>,
}

/// Canonical packed encoding of a profile: each directed link as
/// `from << 32 | to`, in the profile's (sorted) iteration order.
fn encode_profile(profile: &StrategyProfile) -> Vec<u64> {
    profile
        .links()
        .map(|(a, b)| ((a.index() as u64) << 32) | b.index() as u64)
        .collect()
}

/// FNV-1a over the packed links and the schedule position (the
/// workspace-shared [`sp_graph::fnv1a_extend`], chained per word).
fn fingerprint(encoded: &[u64], pos: usize) -> u64 {
    let mut h = sp_graph::FNV1A_BASIS;
    for &v in encoded.iter().chain(std::iter::once(&(pos as u64))) {
        h = sp_graph::fnv1a_extend(h, &v.to_le_bytes());
    }
    h
}

impl CycleDetector {
    /// If this exact `(profile, pos)` state was visited before, returns
    /// the `(step, moves)` counters of the first visit; otherwise records
    /// the state under the current counters.
    pub(crate) fn check_and_insert(
        &mut self,
        profile: &StrategyProfile,
        pos: usize,
        step: usize,
        moves: usize,
    ) -> Option<(usize, usize)> {
        let encoded = encode_profile(profile);
        let bucket = self.seen.entry(fingerprint(&encoded, pos)).or_default();
        if let Some(first) = bucket.iter().find(|s| s.pos == pos && s.encoded == encoded) {
            return Some((first.step, first.moves));
        }
        bucket.push(SeenState {
            pos,
            encoded,
            step,
            moves,
        });
        None
    }
}

/// How an activated peer updates its strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponseRule {
    /// Play a best response computed with the given method. With an exact
    /// method this is classic best-response dynamics.
    #[default]
    BestResponse,
    /// Play a best response computed with the given (possibly heuristic)
    /// method.
    BestResponseWith(BestResponseMethod),
    /// Play the first improving single-link change (drop/add/swap) —
    /// "better-response" dynamics with minimal topology churn per step.
    BetterResponse,
}

/// Configuration of a dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsConfig {
    /// Update rule for activated peers.
    pub rule: ResponseRule,
    /// Activation schedule.
    pub schedule: Schedule,
    /// Stop after this many rounds (a round is `n` activations).
    pub max_rounds: usize,
    /// Relative improvement threshold below which a peer keeps its
    /// strategy (guards against floating-point churn).
    pub tolerance: f64,
    /// Record every accepted move into [`DynamicsOutcome::trace`].
    pub record_trace: bool,
    /// Detect state revisits (deterministic schedules only) and stop with
    /// [`Termination::Cycle`].
    pub detect_cycles: bool,
    /// Serve each activation's response oracle from the session's
    /// persistent oracle cache (`true`, the default): candidate rows are
    /// derived from cached overlay rows. `false` forces a fresh `G_{-i}`
    /// oracle per activation — the pre-cache engine, kept as the baseline
    /// for the `sequential_reuse` bench and the equivalence property
    /// tests (both engines are bit-identical by contract). Either way an
    /// accepted move is committed with [`GameSession::apply`], which
    /// repairs the overlay rows its removed links were tight on in place,
    /// so no row needs a sweep afterwards.
    pub oracle_reuse: bool,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            rule: ResponseRule::BestResponse,
            schedule: Schedule::RoundRobin,
            max_rounds: 200,
            tolerance: 1e-9,
            record_trace: false,
            detect_cycles: true,
            oracle_reuse: true,
        }
    }
}

/// Why a dynamics run stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// Every peer was activated since the last change and none moved: the
    /// profile is stable under the configured response rule. With an exact
    /// best-response rule this certifies a Nash equilibrium.
    Converged {
        /// Rounds executed before convergence was detected.
        rounds: usize,
    },
    /// The same `(profile, schedule position)` state recurred under a
    /// deterministic schedule — the dynamics provably loops forever.
    /// This is the observable form of the paper's Theorem 5.1.
    Cycle {
        /// Step at which the revisited state was first seen.
        first_seen_step: usize,
        /// Length of the loop in steps.
        period_steps: usize,
        /// Number of accepted strategy changes inside one loop.
        moves_in_cycle: usize,
    },
    /// `max_rounds` elapsed without convergence or a detected cycle.
    RoundLimit,
}

/// The result of a dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsOutcome {
    /// The final profile (for [`Termination::Cycle`], the profile at the
    /// moment the revisit was detected).
    pub profile: StrategyProfile,
    /// Why the run stopped.
    pub termination: Termination,
    /// Total activations executed.
    pub steps: usize,
    /// Accepted strategy changes.
    pub moves: usize,
    /// The move log (only if [`DynamicsConfig::record_trace`]).
    pub trace: Option<Trace>,
}

/// Executes sequential-move dynamics on a game.
///
/// # Example
///
/// ```
/// use sp_core::{Game, StrategyProfile, is_nash, NashTest};
/// use sp_dynamics::{DynamicsConfig, DynamicsRunner, Termination};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(
///     &LineSpace::new(vec![0.0, 1.0, 2.5, 4.0]).unwrap(), 2.0).unwrap();
/// let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
/// let out = runner.run(StrategyProfile::empty(4));
/// if let Termination::Converged { .. } = out.termination {
///     // Exact best-response convergence certifies a Nash equilibrium.
///     assert!(is_nash(&game, &out.profile, &NashTest::exact()).unwrap().is_nash());
/// }
/// ```
#[derive(Debug)]
pub struct DynamicsRunner<'g> {
    game: &'g Game,
    config: DynamicsConfig,
}

impl<'g> DynamicsRunner<'g> {
    /// Creates a runner for `game` with the given configuration.
    #[must_use]
    pub fn new(game: &'g Game, config: DynamicsConfig) -> Self {
        DynamicsRunner { game, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DynamicsConfig {
        &self.config
    }

    /// Runs the dynamics from `start` until convergence, a proven cycle,
    /// or the round limit.
    ///
    /// Internally drives a [`GameSession`] so each activation reuses the
    /// cached overlay distances and accepted moves update the cache
    /// incrementally instead of forcing rebuilds. With
    /// [`DynamicsConfig::oracle_reuse`] (the default) the best/better
    /// response oracles themselves are served from the session's
    /// persistent oracle cache, so consecutive activations stop paying
    /// `n - 1` fresh sweeps each.
    ///
    /// # Panics
    ///
    /// Panics if `start` has a different peer count than the game, or if
    /// the game has no peers.
    #[must_use]
    pub fn run(&mut self, start: StrategyProfile) -> DynamicsOutcome {
        let n = self.game.n();
        assert!(n > 0, "cannot run dynamics on an empty game");
        assert_eq!(start.n(), n, "profile size must match the game");
        let mut session =
            GameSession::new(self.game.clone(), start).expect("profile size checked above");
        self.run_session(&mut session)
    }

    /// Like [`DynamicsRunner::run`], but drives a caller-owned session
    /// (starting from its current profile) so the caller can inspect
    /// [`GameSession::stats`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the session's game differs from the runner's, or if the
    /// game has no peers.
    #[must_use]
    pub fn run_session(&mut self, session: &mut GameSession) -> DynamicsOutcome {
        let n = self.game.n();
        assert!(n > 0, "cannot run dynamics on an empty game");
        assert_eq!(
            session.game(),
            self.game,
            "session must wrap the runner's game"
        );

        let mut schedule = self.config.schedule.start(n);
        let mut trace = if self.config.record_trace {
            Some(Trace::new())
        } else {
            None
        };
        let mut seen = CycleDetector::default();
        let detect = self.config.detect_cycles && self.config.schedule.is_deterministic();

        // Convergence: all peers activated since the last accepted change,
        // none of them changed anything.
        let mut quiet = vec![false; n];
        let mut quiet_count = 0usize;

        let max_steps = self.config.max_rounds.saturating_mul(n);
        let mut moves = 0usize;
        let mut step = 0usize;

        while step < max_steps {
            if detect {
                if let Some(pos) = schedule.position_key() {
                    if let Some((first_step, first_moves)) =
                        seen.check_and_insert(session.profile(), pos, step, moves)
                    {
                        return DynamicsOutcome {
                            profile: session.profile().clone(),
                            termination: Termination::Cycle {
                                first_seen_step: first_step,
                                period_steps: step - first_step,
                                moves_in_cycle: moves - first_moves,
                            },
                            steps: step,
                            moves,
                            trace,
                        };
                    }
                }
            }

            let peer = schedule.next_peer();
            let accepted = self.activate(session, peer, step, trace.as_mut());
            step += 1;

            if accepted {
                moves += 1;
                quiet.fill(false);
                quiet_count = 0;
            } else if !quiet[peer.index()] {
                // Only a do-nothing activation makes a peer quiet. An
                // accepted move must NOT mark the mover: under
                // `ResponseRule::BetterResponse` it played the *first*
                // improving single-link change and may hold another, so
                // counting it toward convergence without re-activating it
                // can certify a false fixed point.
                quiet[peer.index()] = true;
                quiet_count += 1;
            }
            if quiet_count == n {
                return DynamicsOutcome {
                    profile: session.profile().clone(),
                    termination: Termination::Converged {
                        rounds: step.div_ceil(n),
                    },
                    steps: step,
                    moves,
                    trace,
                };
            }
        }

        DynamicsOutcome {
            profile: session.profile().clone(),
            termination: Termination::RoundLimit,
            steps: step,
            moves,
            trace,
        }
    }

    /// Activates one peer; applies the accepted move to the session.
    /// Returns `true` when the strategy changed.
    fn activate(
        &self,
        session: &mut GameSession,
        peer: PeerId,
        step: usize,
        trace: Option<&mut Trace>,
    ) -> bool {
        let tol = self.config.tolerance;
        let reuse = self.config.oracle_reuse;
        let response = match self.config.rule {
            ResponseRule::BestResponse | ResponseRule::BestResponseWith(_) => {
                let method = match self.config.rule {
                    ResponseRule::BestResponseWith(m) => m,
                    _ => BestResponseMethod::Exact,
                };
                let br = if reuse {
                    session.best_response(peer, method)
                } else {
                    session.best_response_uncached(peer, method)
                }
                .expect("validated inputs cannot fail");
                br.improves(tol).then_some(br)
            }
            ResponseRule::BetterResponse => if reuse {
                session.first_improving_move(peer, tol)
            } else {
                session.first_improving_move_uncached(peer, tol)
            }
            .expect("validated inputs cannot fail"),
        };
        let Some(mv) = response else { return false };
        let Some(old_links) = apply_changed(session, peer, &mv.links) else {
            return false;
        };
        if let Some(t) = trace {
            t.push(MoveRecord {
                step,
                peer,
                old_links,
                new_links: mv.links,
                old_cost: mv.current_cost,
                new_cost: mv.cost,
            });
        }
        true
    }
}

/// Applies `links` as `peer`'s strategy and returns the links it held,
/// or `None` without touching the session when they are unchanged.
fn apply_changed(session: &mut GameSession, peer: PeerId, links: &LinkSet) -> Option<LinkSet> {
    if links == session.profile().strategy(peer) {
        return None;
    }
    let old = session
        .apply(Move::SetStrategy {
            peer,
            links: links.clone(),
        })
        .expect("response links are valid by construction");
    Some(old)
}

/// Drives `config` on a caller-owned session starting from its current
/// profile — the service entry point used by `sp-serve`'s `run_dynamics`
/// request, where the session (and the game inside it) lives in a
/// registry slot and no separate `&Game` is on hand. The game handle is
/// cloned out of the session ([`GameSession::game_arc`], an atomic
/// increment, not an O(n²) matrix copy) so the runner can borrow game
/// and session simultaneously.
///
/// # Panics
///
/// Panics if the session's game has no peers.
pub fn run_config_on_session(config: DynamicsConfig, session: &mut GameSession) -> DynamicsOutcome {
    let game = session.game_arc();
    DynamicsRunner::new(&game, config).run_session(session)
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
    fn converges_on_small_line_and_result_is_nash() {
        let game = line_game(vec![0.0, 1.0, 3.0, 6.0], 1.5);
        let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
        let out = runner.run(StrategyProfile::empty(4));
        assert!(matches!(out.termination, Termination::Converged { .. }));
        assert!(is_nash(&game, &out.profile, &NashTest::exact())
            .unwrap()
            .is_nash());
        assert!(out.moves >= 4, "every peer must link up at least once");
    }

    #[test]
    fn starting_at_equilibrium_converges_immediately() {
        let game = line_game(vec![0.0, 1.0], 1.0);
        let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
        let out = runner.run(StrategyProfile::complete(2));
        assert!(matches!(
            out.termination,
            Termination::Converged { rounds: 1 }
        ));
        assert_eq!(out.moves, 0);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn trace_records_only_improving_moves() {
        let game = line_game(vec![0.0, 1.0, 2.0, 4.0, 8.0], 0.8);
        let config = DynamicsConfig {
            record_trace: true,
            ..DynamicsConfig::default()
        };
        let mut runner = DynamicsRunner::new(&game, config);
        let out = runner.run(StrategyProfile::empty(5));
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.len(), out.moves);
        assert!(trace.first_non_improving().is_none());
    }

    #[test]
    fn better_response_also_converges_here() {
        let game = line_game(vec![0.0, 1.0, 3.0], 1.0);
        let config = DynamicsConfig {
            rule: ResponseRule::BetterResponse,
            ..DynamicsConfig::default()
        };
        let mut runner = DynamicsRunner::new(&game, config);
        let out = runner.run(StrategyProfile::empty(3));
        assert!(matches!(out.termination, Termination::Converged { .. }));
        // Better-response convergence certifies exactly: no single-link
        // move improves for any peer (a weaker condition than full Nash).
        for i in 0..3 {
            assert!(sp_core::first_improving_move(
                &game,
                &out.profile,
                sp_core::PeerId::new(i),
                1e-9
            )
            .unwrap()
            .is_none());
        }
    }

    #[test]
    fn better_response_is_not_declared_converged_with_moves_left() {
        // Regression test for the premature-convergence bug: an accepted
        // move used to mark the mover itself quiet, so a peer needing TWO
        // successive single-link improvements could be counted toward
        // convergence after its first move.
        //
        // Line 0-1-2-3, α = 1. Peers 1..3 hold the bidirectional chain —
        // stable under any single-link change (drops disconnect, adds and
        // swaps never pay off on a line). Peer 0 starts with the chain
        // link plus two redundant long links {1, 2, 3}; dropping 0→2 and
        // dropping 0→3 are two separate strictly improving moves (each
        // saves α and costs no stretch), and `first_improving_move` only
        // ever plays one of them per activation.
        let game = line_game(vec![0.0, 1.0, 2.0, 3.0], 1.0);
        let start = StrategyProfile::from_links(
            4,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
            ],
        )
        .unwrap();
        let config = DynamicsConfig {
            rule: ResponseRule::BetterResponse,
            ..DynamicsConfig::default()
        };
        let mut runner = DynamicsRunner::new(&game, config);
        let out = runner.run(start);
        assert!(
            matches!(out.termination, Termination::Converged { .. }),
            "expected convergence, got {:?}",
            out.termination
        );
        assert_eq!(out.moves, 2, "peer 0 must get to play both drops");
        // The certified fixed point really is single-link stable — the
        // pre-fix engine returned here after ONE move, with peer 0 still
        // holding an improving drop.
        for i in 0..4 {
            assert!(
                sp_core::first_improving_move(&game, &out.profile, PeerId::new(i), 1e-9)
                    .unwrap()
                    .is_none(),
                "peer {i} still has an improving move at \"convergence\""
            );
        }
        assert_eq!(out.profile.strategy(PeerId::new(0)).len(), 1);
    }

    #[test]
    fn cycle_detector_confirms_hits_exactly() {
        let a = StrategyProfile::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let b = StrategyProfile::from_links(3, &[(0, 1), (2, 1)]).unwrap();
        let mut det = CycleDetector::default();
        assert_eq!(det.check_and_insert(&a, 0, 0, 0), None);
        assert_eq!(det.check_and_insert(&b, 0, 1, 1), None, "different profile");
        assert_eq!(
            det.check_and_insert(&a, 1, 2, 1),
            None,
            "different position"
        );
        assert_eq!(
            det.check_and_insert(&a, 0, 3, 2),
            Some((0, 0)),
            "exact revisit reports the first visit's counters"
        );
        assert_eq!(det.check_and_insert(&b, 0, 4, 2), Some((1, 1)));
    }

    #[test]
    fn profile_encoding_is_canonical() {
        let a = StrategyProfile::from_links(4, &[(0, 1), (0, 3), (2, 1)]).unwrap();
        let b = StrategyProfile::from_links(4, &[(2, 1), (0, 3), (0, 1)]).unwrap();
        assert_eq!(encode_profile(&a), encode_profile(&b));
        assert_eq!(
            fingerprint(&encode_profile(&a), 5),
            fingerprint(&encode_profile(&b), 5)
        );
        let c = StrategyProfile::from_links(4, &[(0, 1), (0, 3), (2, 3)]).unwrap();
        assert_ne!(encode_profile(&a), encode_profile(&c));
        assert_ne!(
            fingerprint(&encode_profile(&a), 0),
            fingerprint(&encode_profile(&a), 1)
        );
    }

    #[test]
    fn random_schedules_converge_too() {
        let game = line_game(vec![0.0, 1.0, 2.0, 3.0], 1.0);
        for schedule in [
            Schedule::RandomPermutation { seed: 5 },
            Schedule::UniformRandom { seed: 5 },
        ] {
            let config = DynamicsConfig {
                schedule,
                ..DynamicsConfig::default()
            };
            let mut runner = DynamicsRunner::new(&game, config);
            let out = runner.run(StrategyProfile::empty(4));
            assert!(
                matches!(out.termination, Termination::Converged { .. }),
                "schedule failed: {:?}",
                runner.config().schedule
            );
        }
    }

    #[test]
    fn round_limit_is_respected() {
        let game = line_game(vec![0.0, 1.0, 2.0, 3.0], 1.0);
        let config = DynamicsConfig {
            max_rounds: 0,
            ..DynamicsConfig::default()
        };
        let mut runner = DynamicsRunner::new(&game, config);
        let out = runner.run(StrategyProfile::empty(4));
        assert_eq!(out.termination, Termination::RoundLimit);
        assert_eq!(out.steps, 0);
    }

    #[test]
    #[should_panic(expected = "profile size")]
    fn mismatched_profile_panics() {
        let game = line_game(vec![0.0, 1.0], 1.0);
        let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
        let _ = runner.run(StrategyProfile::empty(3));
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let game = line_game(vec![0.0, 2.0, 3.0, 7.0, 8.0], 1.2);
        let mut a = DynamicsRunner::new(&game, DynamicsConfig::default());
        let mut b = DynamicsRunner::new(&game, DynamicsConfig::default());
        let oa = a.run(StrategyProfile::empty(5));
        let ob = b.run(StrategyProfile::empty(5));
        assert_eq!(oa.profile, ob.profile);
        assert_eq!(oa.steps, ob.steps);
    }
}
