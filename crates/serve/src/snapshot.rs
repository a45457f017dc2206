//! Session persistence: a session's checkpoint, and the rebuild from a
//! session's log.
//!
//! A session's state is its game (the metric and `α`) plus its
//! strategy profile; every distance row is derived from those. A
//! **checkpoint** captures that state as the [`GameSpec`] of a
//! `create` request that rebuilds the session as it stands:
//!
//! * dense sessions carry `Geometry::Matrix` of the game's distances,
//!   so the restored game holds exactly the source's bits;
//! * sparse sessions carry `Geometry::Line` positions — kilobytes where
//!   a 10⁵-peer matrix would be gigabytes; the landmark sketch is
//!   rebuilt, and is deliberately outside the bit-identity contract;
//! * the current profile as `links`, and the mode.
//!
//! The checkpoint lives in the header of the session's log, as the
//! bytes of that `create` in the binary wire codec ([`crate::wal`]),
//! so each session has one file in one format. It serves two roles:
//!
//! * **eviction spill**: the registry rewrites the file, drops the
//!   in-memory session, and the next request restores it transparently;
//! * **cold start**: a fresh server process (or the explicit `load` op)
//!   can resurrect a session nothing in memory remembers.
//!
//! The fidelity contract is *bit-identity*: every query on the restored
//! session answers with exactly the bits the source session would have
//! produced. Cached distance rows are derived state, so the file does
//! not carry them: the restored session rebuilds its rows lazily from
//! the profile, and cached ≡ fresh makes its answers bit-identical.
//! Floats cross as raw IEEE-754 bits, and equal sessions produce
//! byte-identical files.

use std::io;
use std::path::Path;

use sp_core::{BackendMode, GameSession, SparseParams};

use crate::ops;
use crate::spec;
use crate::wal::{self, Log};
use crate::wire::{ErrorCode, GameSpec, Geometry, Request, SessionOp, WireError};

/// The session as it stands as a checkpoint: the spec of a `create`
/// request that rebuilds it.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a sparse session the spec cannot
/// express — non-default [`SparseParams`] or a metric that is not a
/// line. The service never builds such sessions.
pub fn checkpoint(session: &mut GameSession) -> io::Result<GameSpec> {
    let mode = session.backend_mode();
    let game = session.game_arc();
    let geometry = match (mode, game.line_positions()) {
        (BackendMode::Dense, _) => {
            let n = game.n();
            Geometry::Matrix(
                (0..n)
                    .map(|i| (0..n).map(|j| game.distance(i, j)).collect())
                    .collect(),
            )
        }
        (BackendMode::Sparse, Some(positions))
            if session.sparse_params() == Some(SparseParams::default()) =>
        {
            Geometry::Line(positions.to_vec())
        }
        (BackendMode::Sparse, _) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sparse session checkpoints only over line positions with default parameters",
            ));
        }
    };
    let links = session
        .snapshot()
        .iter()
        .flat_map(|(i, links)| links.iter().map(move |t| (i.index(), t.index())))
        .collect();
    Ok(GameSpec {
        alpha: game.alpha(),
        geometry,
        links,
        mode,
    })
}

/// Rebuilds the session a checkpoint describes, tuned for the service.
fn restore(spec: &GameSpec) -> Result<GameSession, WireError> {
    let (game, profile) = spec::build(spec)?;
    let mut session = match spec.mode {
        BackendMode::Dense => GameSession::restore(game, profile),
        BackendMode::Sparse => GameSession::restore_sparse(game, profile, SparseParams::default()),
    }
    .map_err(|e| WireError::new(ErrorCode::Core, e.to_string()))?;
    ops::tune_for_service(&mut session);
    Ok(session)
}

/// Rebuilds the session a log describes: the header's checkpoint, then
/// every tail record replayed through the normal ops dispatch. `None`
/// when the log holds no session (a log created but never written).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the checkpoint does not build or
/// a record does not apply — a record was acknowledged, so anything
/// but a clean apply is divergence, and rebuilding must not guess.
pub fn rebuild(log: &Log) -> io::Result<Option<GameSession>> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut session = match &log.checkpoint {
        Some(spec) => Some(restore(spec).map_err(|e| invalid(format!("checkpoint: {e}")))?),
        None => None,
    };
    for (k, request) in log.tail.iter().enumerate() {
        let fail = |what: &str| {
            invalid(format!(
                "wal record {}: {what}",
                log.base_seq + 1 + k as u64
            ))
        };
        let Request::Session(sr) = request else {
            return Err(fail("not a session op"));
        };
        match (&sr.op, session.as_mut()) {
            (SessionOp::Create(_), Some(_)) => return Err(fail("create on an existing session")),
            (SessionOp::Create(spec), None) => {
                session = Some(ops::build_session(spec).map_err(|e| fail(&e.message))?);
            }
            // Placement-only records: the state they acknowledged is
            // already resident.
            (SessionOp::Evict | SessionOp::Load, _) => {}
            (_, None) => return Err(fail("mutation on a session that does not exist")),
            (op, Some(s)) => {
                ops::execute_query(op, s).map_err(|e| fail(&e.message))?;
            }
        }
    }
    Ok(session)
}

/// Writes `session` to `path` as a header-only log holding its
/// checkpoint, atomically (temp file + rename), so a crash mid-spill
/// never leaves a truncated file behind. No fsync — the non-logging
/// spill path, where durability is best-effort by contract.
///
/// # Errors
///
/// Propagates filesystem errors, and [`checkpoint`]'s refusal.
pub fn save(path: &Path, session: &mut GameSession) -> io::Result<()> {
    let checkpoint = checkpoint(session)?;
    wal::write_fresh(path, false, 0, wal::genesis(), Some(checkpoint)).map(drop)
}

/// Reads a session back from its log at `path` ([`rebuild`]).
///
/// # Errors
///
/// Propagates filesystem errors; malformed content, a retired format,
/// or a log that holds no session is [`io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<GameSession> {
    rebuild(&wal::read(path)?)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "the log holds no session"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{BestResponseMethod, Game, Move, PeerId, StrategyProfile};
    use sp_metric::LineSpace;
    use std::fs;

    fn warmed_session() -> GameSession {
        let game =
            Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0, 4.5, 9.0]).unwrap(), 1.5).unwrap();
        let profile =
            StrategyProfile::from_links(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 0)])
                .unwrap();
        let mut s = GameSession::new(game, profile).unwrap();
        let _ = s.social_cost();
        let _ = s.best_response(PeerId::new(2), BestResponseMethod::Greedy);
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(3),
        })
        .unwrap();
        let _ = s.peer_cost(PeerId::new(4));
        s
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sp-serve-snap-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("s.wal")
    }

    /// The checkpoint round trip through the file, as the spill path
    /// takes it: same game, same profile, bit-identical answers.
    #[test]
    fn file_roundtrip_is_bit_identical() {
        let path = tmp("roundtrip");
        let mut s = warmed_session();
        let snap_before = s.snapshot();
        save(&path, &mut s).unwrap();
        let mut restored = load(&path).unwrap();
        assert_eq!(restored.snapshot(), snap_before);
        assert_eq!(restored.profile(), s.profile());
        assert_eq!(restored.game(), s.game());
        assert_eq!(
            restored.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(restored.stats().snapshot_restores, 1);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn sparse_roundtrip_restores_mode_profile_and_params() {
        let positions: Vec<f64> = (0..40).map(|i| f64::from(i) * 1.25).collect();
        let game = Game::from_line_positions(positions, 0.8).unwrap();
        let mut s = GameSession::new_sparse(game, StrategyProfile::empty(40)).unwrap();
        for (from, to) in [(0, 1), (1, 2)] {
            s.apply(Move::AddLink {
                from: PeerId::new(from),
                to: PeerId::new(to),
            })
            .unwrap();
        }
        assert!(
            matches!(checkpoint(&mut s).unwrap().geometry, Geometry::Line(_)),
            "sparse checkpoints must not carry a quadratic matrix"
        );
        let path = tmp("sparse");
        save(&path, &mut s).unwrap();
        let mut back = load(&path).unwrap();
        assert_eq!(back.backend_mode(), BackendMode::Sparse);
        assert_eq!(back.profile(), s.profile());
        assert_eq!(back.sparse_params(), s.sparse_params());
        assert_eq!(back.game(), s.game());
        assert_eq!(
            back.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(back.stats().snapshot_restores, 1);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A sparse session the spec cannot express is refused up front
    /// rather than checkpointed as something else.
    #[test]
    fn inexpressible_sparse_sessions_are_invalid_input() {
        let positions: Vec<f64> = (0..8).map(f64::from).collect();
        let line = Game::from_line_positions(positions, 1.0).unwrap();
        let params = SparseParams {
            landmarks: 3,
            ..SparseParams::default()
        };
        let mut tuned =
            GameSession::new_sparse_with(line, StrategyProfile::empty(8), params).unwrap();
        let e = checkpoint(&mut tuned).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);

        let matrix = warmed_session().game().clone();
        let mut over_matrix = GameSession::new_sparse(matrix, StrategyProfile::empty(5)).unwrap();
        let e = save(&tmp("inexpressible"), &mut over_matrix).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    /// The retired formats are refused by name, never misread.
    #[test]
    fn retired_formats_are_invalid_data_naming_the_format() {
        let path = tmp("retired");
        fs::write(
            &path,
            br#"{"format":"sp-serve/session-snapshot/v1","alpha":1,"matrix":[[0]],"profile":[[]]}"#,
        )
        .unwrap();
        let e = load(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("JSON session snapshot"), "{e}");

        let mut old = Vec::new();
        let body = [&b"SPWAL01"[..], &[0, 1]].concat();
        old.extend_from_slice(&(body.len() as u32).to_le_bytes());
        old.extend_from_slice(&body);
        old.extend_from_slice(&wal::crc32(&body).to_le_bytes());
        fs::write(&path, &old).unwrap();
        let e = load(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("SPWAL01"), "{e}");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A header-only log (created, never written) holds no session.
    #[test]
    fn an_empty_log_holds_no_session() {
        let path = tmp("empty");
        drop(wal::SessionWal::create(&path, false).unwrap());
        assert!(rebuild(&wal::read(&path).unwrap()).unwrap().is_none());
        assert_eq!(load(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
