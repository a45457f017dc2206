//! Session snapshot persistence: [`sp_core::GameSession`] ⇄ sp-json ⇄
//! file.
//!
//! A snapshot file is self-contained — it carries the game (latency
//! matrix plus `α`) and the profile — so it serves two roles:
//!
//! * **eviction spill**: the registry writes the file, drops the
//!   in-memory session, and the next request restores it transparently;
//! * **cold start**: a fresh server process (or the explicit `load` op)
//!   can resurrect a session nothing in memory remembers.
//!
//! The fidelity contract is *bit-identity*: every query on the restored
//! session answers with exactly the bits the source session would have
//! produced. Cached distance rows are derived state, so the file does
//! not carry them: the restored session rebuilds its rows lazily from
//! the profile, and cached ≡ fresh makes its answers bit-identical.
//! Finite floats survive the text round trip because the printer emits
//! shortest-round-trip renderings. Equal sessions produce
//! byte-identical files.
//!
//! Dense format (`"format": "sp-serve/session-snapshot/v1"`):
//!
//! ```json
//! {
//!   "format": "sp-serve/session-snapshot/v1",
//!   "alpha": 2.0,
//!   "matrix": [[0.0, 1.5], [1.5, 0.0]],
//!   "profile": [[1], []]
//! }
//! ```
//!
//! Older v1 files also hold `overlay_rows` and `residual_rows` (cached
//! distance rows). The reader ignores both keys, so those files still
//! load, and a stale or tampered row in them can never be served.
//!
//! Sparse sessions ([`sp_core::GameSession::new_sparse`]) use the v2
//! format: no matrix — the landmark sketch is cheap to rebuild and is
//! deliberately outside the bit-identity contract, so the file carries
//! only what reconstruction needs (geometry, profile, tuning
//! parameters). A 10⁵-peer sparse session spills kilobytes of positions
//! where a dense matrix would spill gigabytes:
//!
//! ```json
//! {
//!   "format": "sp-serve/session-snapshot/v2-sparse",
//!   "alpha": 2.0,
//!   "positions_1d": [0.0, 1.5, 4.0],
//!   "profile": [[1], [], []],
//!   "params": { "landmarks": 8, "ball_cap": 64, "window": 16,
//!               "unreach_penalty": 1000000.0 }
//! }
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use sp_core::{BackendMode, Game, GameSession, SparseParams, StrategyProfile};
use sp_graph::DistanceMatrix;
use sp_json::{decode_f64, encode_f64, Value};

/// The format tag of dense-session snapshot files.
pub const FORMAT: &str = "sp-serve/session-snapshot/v1";

/// The format tag of sparse-session snapshot files.
pub const FORMAT_V2_SPARSE: &str = "sp-serve/session-snapshot/v2-sparse";

fn profile_value(profile: &StrategyProfile) -> Value {
    Value::Array(
        profile
            .iter()
            .map(|(_, links)| Value::Array(links.iter().map(|t| Value::from(t.index())).collect()))
            .collect(),
    )
}

/// Serialises a session to a value: game + profile for dense sessions
/// (v1), geometry + profile + tuning parameters for sparse ones (v2).
#[must_use]
pub fn session_to_value(session: &mut GameSession) -> Value {
    if session.backend_mode() == BackendMode::Sparse {
        return sparse_session_to_value(session);
    }
    let game = session.game_arc();
    let n = game.n();
    let matrix: Value = Value::Array(
        (0..n)
            .map(|i| Value::Array((0..n).map(|j| Value::Number(game.distance(i, j))).collect()))
            .collect(),
    );
    let profile = profile_value(&session.snapshot());
    Value::Object(vec![
        ("format".to_owned(), Value::from(FORMAT)),
        ("alpha".to_owned(), Value::Number(game.alpha())),
        ("matrix".to_owned(), matrix),
        ("profile".to_owned(), profile),
    ])
}

/// The v2 body: geometry, profile, and [`SparseParams`] — everything a
/// [`GameSession::restore_sparse`] needs, nothing quadratic. Sparse
/// sessions built over a dense matrix store (possible through the core
/// API, not through the service spec) fall back to persisting the
/// matrix so the file stays self-contained.
fn sparse_session_to_value(session: &mut GameSession) -> Value {
    let game = session.game_arc();
    let profile = profile_value(&session.snapshot());
    let params = session.sparse_params().unwrap_or_default();
    let geometry = match game.line_positions() {
        Some(pos) => (
            "positions_1d".to_owned(),
            Value::Array(pos.iter().map(|&x| Value::Number(x)).collect()),
        ),
        None => {
            let n = game.n();
            (
                "matrix".to_owned(),
                Value::Array(
                    (0..n)
                        .map(|i| {
                            Value::Array(
                                (0..n).map(|j| Value::Number(game.distance(i, j))).collect(),
                            )
                        })
                        .collect(),
                ),
            )
        }
    };
    Value::Object(vec![
        ("format".to_owned(), Value::from(FORMAT_V2_SPARSE)),
        ("alpha".to_owned(), Value::Number(game.alpha())),
        geometry,
        ("profile".to_owned(), profile),
        (
            "params".to_owned(),
            Value::Object(vec![
                ("landmarks".to_owned(), Value::from(params.landmarks)),
                ("ball_cap".to_owned(), Value::from(params.ball_cap)),
                ("window".to_owned(), Value::from(params.window)),
                (
                    "unreach_penalty".to_owned(),
                    encode_f64(params.unreach_penalty),
                ),
            ]),
        ),
    ])
}

/// Rebuilds a session from a value produced by [`session_to_value`],
/// dispatching on the format tag (v1 dense, v2 sparse).
///
/// # Errors
///
/// Returns a human-readable message on a missing/mismatched format tag,
/// malformed fields, or a profile [`sp_core::GameSession::restore`]
/// rejects.
pub fn session_from_value(v: &Value) -> Result<GameSession, String> {
    match v.get("format").and_then(Value::as_str) {
        Some(f) if f == FORMAT => dense_session_from_value(v),
        Some(f) if f == FORMAT_V2_SPARSE => sparse_session_from_value(v),
        Some(f) => Err(format!("unsupported snapshot format {f:?}")),
        None => Err("snapshot is missing its format tag".to_owned()),
    }
}

fn parse_alpha(v: &Value) -> Result<f64, String> {
    v.get("alpha")
        .and_then(Value::as_f64)
        .ok_or_else(|| "snapshot needs a numeric 'alpha'".to_owned())
}

fn parse_matrix_game(v: &Value, alpha: f64) -> Result<Game, String> {
    let rows = v
        .get("matrix")
        .and_then(Value::as_array)
        .ok_or("snapshot needs a 'matrix' array")?;
    let n = rows.len();
    // sp-lint: allow(dense-alloc, reason = "decoding the explicitly dense v1 matrix wire format; sparse snapshots take the v2 positions path")
    let mut flat = Vec::with_capacity(n * n);
    for row in rows {
        let r = row.as_array().ok_or("matrix rows must be arrays")?;
        if r.len() != n {
            return Err("matrix must be square".to_owned());
        }
        for x in r {
            flat.push(x.as_f64().ok_or("matrix entries must be numbers")?);
        }
    }
    let matrix = DistanceMatrix::from_row_major(n, flat).map_err(|e| e.to_string())?;
    Game::new(matrix, alpha).map_err(|e| e.to_string())
}

fn parse_profile(v: &Value, n: usize) -> Result<StrategyProfile, String> {
    let strategies = v
        .get("profile")
        .and_then(Value::as_array)
        .ok_or("snapshot needs a 'profile' array")?;
    if strategies.len() != n {
        return Err(format!(
            "profile has {} strategies for {n} peers",
            strategies.len()
        ));
    }
    let mut links: Vec<(usize, usize)> = Vec::new();
    for (i, s) in strategies.iter().enumerate() {
        for t in s.as_array().ok_or("profile strategies must be arrays")? {
            links.push((i, t.as_usize().ok_or("profile links must be peer indices")?));
        }
    }
    StrategyProfile::from_links(n, &links).map_err(|e| e.to_string())
}

fn dense_session_from_value(v: &Value) -> Result<GameSession, String> {
    let alpha = parse_alpha(v)?;
    let game = parse_matrix_game(v, alpha)?;
    let n = game.n();
    let profile = parse_profile(v, n)?;
    // Older files also carry `overlay_rows` / `residual_rows`; cached
    // rows are rebuilt from the profile, so those keys are ignored.
    GameSession::restore(game, profile).map_err(|e| e.to_string())
}

fn sparse_session_from_value(v: &Value) -> Result<GameSession, String> {
    let alpha = parse_alpha(v)?;
    let game = match v.get("positions_1d").filter(|p| !p.is_null()) {
        Some(p) => {
            let positions = p
                .as_array()
                .ok_or("positions_1d must be an array")?
                .iter()
                .map(|x| x.as_f64().ok_or("positions_1d entries must be numbers"))
                .collect::<Result<Vec<f64>, _>>()?;
            Game::from_line_positions(positions, alpha).map_err(|e| e.to_string())?
        }
        None => parse_matrix_game(v, alpha)?,
    };
    let profile = parse_profile(v, game.n())?;
    let pv = v.get("params").ok_or("sparse snapshot needs 'params'")?;
    let field = |key: &str| {
        pv.get(key)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("params needs a non-negative integer {key:?}"))
    };
    let params = SparseParams {
        landmarks: field("landmarks")?,
        ball_cap: field("ball_cap")?,
        window: field("window")?,
        unreach_penalty: pv
            .get("unreach_penalty")
            .and_then(decode_f64)
            .ok_or("params needs a numeric 'unreach_penalty'")?,
    };
    GameSession::restore_sparse(game, profile, params).map_err(|e| e.to_string())
}

/// Writes a session snapshot to `path` atomically (temp file + rename),
/// so a crash mid-spill never leaves a truncated snapshot behind. No
/// fsync — the non-WAL spill path, where durability is best-effort by
/// contract.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(path: &Path, session: &mut GameSession) -> io::Result<()> {
    save_with_mark(path, session, 0, false)
}

/// [`save`], additionally recording the WAL compaction mark: the
/// session's WAL record count at the moment of the snapshot. Recovery
/// replays only WAL records *after* the mark, which is what makes the
/// crash window between "snapshot written" and "WAL truncated" safe —
/// records at or below the mark are already inside the snapshot, and
/// the mark says so. A zero mark is omitted from the file (byte-for-
/// byte the historical format, which non-WAL deployments still write).
///
/// Under `fsync` the snapshot is made *durable*, not just atomic: the
/// temp file is synced before the rename and the directory entry after
/// it. The WAL compaction that follows a spill truncates records the
/// snapshot claims to cover, so the snapshot must be on disk — not in
/// the page cache — before that truncation can happen; otherwise power
/// loss could keep the (durably renamed) truncated log while losing
/// the snapshot, making acknowledged records at or below the mark
/// unrecoverable.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_with_mark(
    path: &Path,
    session: &mut GameSession,
    mark: u64,
    fsync: bool,
) -> io::Result<()> {
    let mut value = session_to_value(session);
    if mark > 0 {
        if let Value::Object(fields) = &mut value {
            fields.push(("wal_mark".to_owned(), Value::Number(mark as f64)));
        }
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(value.to_string_compact().as_bytes())?;
        if fsync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if fsync {
        crate::wal::sync_parent_dir(path)?;
    }
    Ok(())
}

/// Reads a session snapshot from `path`.
///
/// # Errors
///
/// Propagates filesystem errors; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<GameSession> {
    Ok(load_with_mark(path)?.0)
}

/// [`load`], also returning the WAL compaction mark recorded by
/// [`save_with_mark`] (0 when absent — every pre-WAL snapshot).
///
/// # Errors
///
/// Propagates filesystem errors; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn load_with_mark(path: &Path) -> io::Result<(GameSession, u64)> {
    let text = fs::read_to_string(path)?;
    let value: Value = text
        .parse()
        .map_err(|e: sp_json::JsonError| io::Error::new(io::ErrorKind::InvalidData, e))?;
    // Marks are WAL record counts; far below 2^53, so the JSON number
    // round-trips exactly.
    let mark = value.get("wal_mark").and_then(Value::as_usize).unwrap_or(0) as u64;
    let session =
        session_from_value(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((session, mark))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{BestResponseMethod, Move, PeerId};
    use sp_metric::LineSpace;

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

    #[test]
    fn value_roundtrip_is_bit_identical() {
        let mut s = warmed_session();
        let snap_before = s.snapshot();
        let v = session_to_value(&mut s);
        // Through the full text pipeline, as the spill path does.
        let text = v.to_string_compact();
        let mut restored = session_from_value(&text.parse().unwrap()).unwrap();
        assert_eq!(restored.snapshot(), snap_before);
        assert_eq!(restored.profile(), s.profile());
        assert_eq!(restored.game(), s.game());
        // And queries agree bitwise.
        assert_eq!(
            restored.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(restored.stats().snapshot_restores, 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sp-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut s = warmed_session();
        save(&path, &mut s).unwrap();
        let mut back = load(&path).unwrap();
        assert_eq!(back.profile(), s.profile());
        assert_eq!(
            back.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparse_roundtrip_restores_mode_profile_and_params() {
        let positions: Vec<f64> = (0..40).map(|i| f64::from(i) * 1.25).collect();
        let game = Game::from_line_positions(positions, 0.8).unwrap();
        let mut s = GameSession::new_sparse(game, StrategyProfile::empty(40)).unwrap();
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(1),
        })
        .unwrap();
        s.apply(Move::AddLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        let v = session_to_value(&mut s);
        assert_eq!(
            v.get("format").and_then(Value::as_str),
            Some(FORMAT_V2_SPARSE)
        );
        assert!(
            v.get("matrix").is_none(),
            "sparse snapshots must not carry a quadratic matrix"
        );
        let text = v.to_string_compact();
        let mut back = session_from_value(&text.parse().unwrap()).unwrap();
        assert_eq!(back.backend_mode(), sp_core::BackendMode::Sparse);
        assert_eq!(back.profile(), s.profile());
        assert_eq!(back.sparse_params(), s.sparse_params());
        assert_eq!(back.game(), s.game());
        assert_eq!(
            back.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(back.stats().snapshot_restores, 1);
    }

    #[test]
    fn rejects_foreign_and_malformed_values() {
        assert!(session_from_value(&sp_json::json!({ "format": "nope" })).is_err());
        assert!(session_from_value(&sp_json::json!({ "alpha": 1.0 })).is_err());
        let mut s = warmed_session();
        let good = session_to_value(&mut s);
        // A link to a peer the game does not have.
        let mut bad = good.clone();
        if let Value::Object(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "profile" {
                    if let Value::Array(strategies) = v {
                        strategies[0] = Value::Array(vec![Value::from(99usize)]);
                    }
                }
            }
        }
        assert!(session_from_value(&bad).is_err());
    }

    /// An older v1 file carries cached distance rows. They are derived
    /// state: the reader ignores them, so a wrong distance in one can
    /// never be served — the restored session answers exactly like a
    /// fresh session on the same game and profile.
    #[test]
    fn old_format_rows_are_ignored_not_served() {
        let mut s = warmed_session();
        let mut fresh = GameSession::new(s.game().clone(), s.profile().clone()).unwrap();
        let n = s.n();
        let rows = s.overlay_distances().clone();
        let row_value = |u: usize, tamper: bool| {
            let mut row = rows.row(u).to_vec();
            if tamper {
                row[n - 1] *= 0.5;
            }
            Value::Array(vec![
                Value::from(u),
                Value::Array(row.into_iter().map(encode_f64).collect()),
            ])
        };
        let mut old = session_to_value(&mut s);
        if let Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| k != "overlay_rows" && k != "residual_rows");
            fields.push((
                "overlay_rows".to_owned(),
                Value::Array((0..n).map(|u| row_value(u, u == 0)).collect()),
            ));
            fields.push(("residual_rows".to_owned(), Value::Array(Vec::new())));
        }
        let text = old.to_string_compact();
        let mut restored = session_from_value(&text.parse().unwrap()).unwrap();

        assert_eq!(
            restored.social_cost().total().to_bits(),
            fresh.social_cost().total().to_bits()
        );
        assert_eq!(restored.stretch_matrix(), fresh.stretch_matrix());
        for i in 0..n {
            let peer = PeerId::new(i);
            assert_eq!(
                restored.peer_cost(peer).unwrap().to_bits(),
                fresh.peer_cost(peer).unwrap().to_bits()
            );
            let a = restored
                .best_response(peer, BestResponseMethod::Exact)
                .unwrap();
            let b = fresh
                .best_response(peer, BestResponseMethod::Exact)
                .unwrap();
            assert_eq!(a.links, b.links, "peer {i}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "peer {i}");
            assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
        }
    }
}
