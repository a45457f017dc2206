//! Round-based better-response dynamics for large sparse sessions.
//!
//! The sequential [`DynamicsRunner`](crate::DynamicsRunner) and the
//! simultaneous round engine both freeze full `n × n` distance state
//! between activations — exactly what a 10⁵-peer instance cannot afford.
//! This driver never requests a full matrix: every peer is polled with
//! [`SparseSession::local_response`] against the round-start profile
//! (answered from bounded balls plus landmark sketches), and all
//! accepted moves commit through **one** [`SparseSession::apply_batch`]
//! per round — one CSR rebuild, one sketch repair, however many peers
//! moved.
//!
//! The semantics are simultaneous (every peer reacts to the same
//! round-start state), matching `run_simultaneous`; the budget per round
//! is `O(n · window · ball_cap · log)` time and `O(n)` transient memory.

use sp_core::{CoreError, Move, PeerId, SessionStats, SparseSession};

/// Configuration for [`run_large_scale`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeScaleConfig {
    /// Maximum rounds before giving up (`converged: false`).
    pub max_rounds: usize,
    /// Relative improvement tolerance handed to
    /// [`SparseSession::local_response`].
    pub tolerance: f64,
}

impl Default for LargeScaleConfig {
    fn default() -> Self {
        LargeScaleConfig {
            max_rounds: 64,
            tolerance: 1e-9,
        }
    }
}

/// Outcome of a [`run_large_scale`] drive.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleReport {
    /// Rounds executed (a terminal all-quiet round counts).
    pub rounds: usize,
    /// Accepted moves committed across all rounds.
    pub moves: usize,
    /// `true` when a round passed with no peer wanting to move (under
    /// the session's response estimator — a heuristic quiescence, exact
    /// only when the window covers every peer).
    pub converged: bool,
    /// Largest [`SparseSession::memory_bytes`] observed at any round
    /// boundary — the counter the `large_n_scale` bench gates to prove
    /// the sparse path never materialised a matrix.
    pub peak_memory_bytes: usize,
    /// The session's work counters accumulated over the drive.
    pub stats: SessionStats,
}

/// Drives round-based better-response dynamics on `session` until an
/// all-quiet round or `config.max_rounds`.
///
/// A round costs `O(n)` memory. The session's profile is mutated in
/// place; inspect it through [`SparseSession::profile`] afterwards.
///
/// # Errors
///
/// Propagates any [`CoreError`] from response evaluation or the batch
/// commit (none occur for in-range peers; the driver only activates
/// peers the session owns).
pub fn run_large_scale(
    session: &mut SparseSession,
    config: &LargeScaleConfig,
) -> Result<LargeScaleReport, CoreError> {
    let n = session.n();
    let mut report = LargeScaleReport {
        rounds: 0,
        moves: 0,
        converged: false,
        peak_memory_bytes: session.memory_bytes(),
        stats: SessionStats::default(),
    };
    let mut batch: Vec<Move> = Vec::new();
    for _ in 0..config.max_rounds {
        report.rounds += 1;
        batch.clear();
        for u in 0..n {
            let peer = PeerId::new(u);
            if let Some(br) = session.local_response(peer, config.tolerance)? {
                batch.push(Move::SetStrategy {
                    peer,
                    links: br.links,
                });
            }
        }
        report.peak_memory_bytes = report.peak_memory_bytes.max(session.memory_bytes());
        if batch.is_empty() {
            report.converged = true;
            break;
        }
        report.moves += batch.len();
        session.apply_batch(&batch)?;
        report.peak_memory_bytes = report.peak_memory_bytes.max(session.memory_bytes());
    }
    report.stats = session.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{Game, StrategyProfile};

    fn line_positions(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn sparse_drive_connects_empty_start() {
        let game = Game::from_line_positions(line_positions(40), 0.8).unwrap();
        let mut session = SparseSession::new(game, StrategyProfile::empty(40)).unwrap();
        let report = run_large_scale(&mut session, &LargeScaleConfig::default()).unwrap();
        assert!(report.moves > 0, "empty start must provoke moves");
        assert!(
            session.profile().link_count() > 0,
            "accepted moves must land in the profile"
        );
        assert!(report.stats.sparse_ball_sweeps > 0);
    }

    #[test]
    fn quiet_round_reports_convergence() {
        // α high enough that no peer wants any link under the estimator's
        // stretch floor: the very first round is all-quiet.
        let game = Game::from_line_positions(line_positions(30), 1e9).unwrap();
        let mut session = SparseSession::new(game, StrategyProfile::empty(30)).unwrap();
        let report = run_large_scale(&mut session, &LargeScaleConfig::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.moves, 0);
        assert!(report.stats.sparse_pruned_candidates > 0);
    }

    #[test]
    fn full_window_session_drives_through_exact_path() {
        // 12 peers fit the default 16-peer window: every response is the
        // exact scan over a fresh oracle, and no ball is swept.
        let game = Game::from_line_positions(line_positions(12), 0.5).unwrap();
        let mut session = SparseSession::new(game, StrategyProfile::empty(12)).unwrap();
        let report = run_large_scale(&mut session, &LargeScaleConfig::default()).unwrap();
        assert!(report.converged, "exact better-response must converge here");
        assert_eq!(report.stats.sparse_ball_sweeps, 0);
        assert!(report.stats.oracle_builds > 0);
    }

    #[test]
    fn peak_memory_stays_linear_on_sparse_sessions() {
        let n = 2000;
        let game = Game::from_line_positions(line_positions(n), 0.8).unwrap();
        let mut session = SparseSession::new(game, StrategyProfile::empty(n)).unwrap();
        let cfg = LargeScaleConfig {
            max_rounds: 2,
            ..LargeScaleConfig::default()
        };
        let report = run_large_scale(&mut session, &cfg).unwrap();
        let dense_matrix = n * n * std::mem::size_of::<f64>();
        assert!(
            report.peak_memory_bytes < dense_matrix / 4,
            "peak {} must stay far below the {} bytes a dense matrix costs",
            report.peak_memory_bytes,
            dense_matrix
        );
    }
}
