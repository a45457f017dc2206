//! Property tests pinning the sparse session to the dense reference.
//!
//! Four contracts hold for every instance, not just the benchmarked
//! ones:
//!
//! 1. **Certified bounds bracket.** [`SparseSession::dist_bounds`]
//!    always satisfies `lower ≤ exact ≤ upper`, where "exact" is the
//!    dense session's overlay distance on the same game and profile.
//! 2. **Small instances collapse to exact.** When the metric window
//!    already covers every peer (`window + 1 ≥ n`),
//!    [`SparseSession::local_response`] decides **bit-identically** to
//!    the dense [`GameSession::first_improving_move`].
//! 3. **Lazy oracle is invisible.** The cached
//!    [`GameSession::first_improving_move`] (a lazy certified-bound scan)
//!    stays bit-identical to
//!    [`GameSession::first_improving_move_uncached`] across arbitrary
//!    interleaved applies, at every `α` regime the generator draws.
//! 4. **Readouts stream exactly.** A sparse session's cost readouts
//!    (social cost, max stretch) equal the session-free reference of
//!    `support` bit for bit, across interleaved `apply` and
//!    `apply_batch` calls, and keep no `n × n` matrix.

// The dense readout check in `support` is `proptest_session.rs`'s; this
// suite shares only its session-free reference.
#[allow(dead_code)]
mod support;

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{Game, GameSession, Move, PeerId, SparseParams, SparseSession, StrategyProfile};
use sp_metric::LineSpace;

/// CI's determinism matrix sets `SP_TEST_PARALLELISM` to pin every
/// worker-count parameter these tests would otherwise draw, so the whole
/// suite runs at forced parallelism extremes (1 and 8).
fn forced_parallelism() -> Option<usize> {
    std::env::var("SP_TEST_PARALLELISM").ok()?.parse().ok()
}

/// A random 1-D game (strictly increasing positions, so both the line
/// store and the dense store accept it), a random profile, and a random
/// move script.
#[allow(clippy::type_complexity)]
fn arb_line_instance(
) -> impl Strategy<Value = (Vec<f64>, f64, StrategyProfile, Vec<(u8, usize, usize)>)> {
    (3usize..=9, 0u64..10_000, 0.1f64..8.0).prop_flat_map(|(n, seed, alpha)| {
        let max_links = (n * (n - 1)).min(18);
        (
            proptest::collection::vec((0..n, 0..n), 0..=max_links),
            proptest::collection::vec((0u8..2, 0..n, 0..n), 0..10),
        )
            .prop_map(move |(pairs, script)| {
                let mut rng = StdRng::seed_from_u64(seed);
                // Strictly positive increments keep positions distinct,
                // which `Game::from_line_positions` requires.
                let mut at = 0.0;
                let positions: Vec<f64> = (0..n)
                    .map(|_| {
                        at += rng.random_range(0.1..5.0);
                        at
                    })
                    .collect();
                let links: Vec<(usize, usize)> =
                    pairs.into_iter().filter(|&(u, v)| u != v).collect();
                let profile = StrategyProfile::from_links(n, &links).unwrap();
                (positions, alpha, profile, script)
            })
    })
}

/// Sparse tuning small enough to exercise the certified-bound paths
/// (tight ball caps, few landmarks) on the tiny generated games.
fn arb_params() -> impl Strategy<Value = SparseParams> {
    (1usize..=4, 2usize..=12, 1usize..=8).prop_map(|(landmarks, ball_cap, window)| SparseParams {
        landmarks,
        ball_cap,
        window,
        ..SparseParams::default()
    })
}

/// The move of one scripted `(kind, from, to)` triple; `None` for a
/// self-link.
fn script_move(kind: u8, from: usize, to: usize) -> Option<Move> {
    let (from, to) = (PeerId::new(from), PeerId::new(to));
    match kind {
        _ if from == to => None,
        0 => Some(Move::AddLink { from, to }),
        _ => Some(Move::RemoveLink { from, to }),
    }
}

/// Replays one scripted triple on a sparse and a dense session.
fn play_sparse_and_dense(
    a: &mut SparseSession,
    b: &mut GameSession,
    kind: u8,
    from: usize,
    to: usize,
) {
    if let Some(mv) = script_move(kind, from, to) {
        a.apply(mv.clone())
            .expect("script only uses in-bounds peers");
        b.apply(mv).expect("script only uses in-bounds peers");
    }
}

/// Replays one scripted triple on two dense sessions.
fn play_both(a: &mut GameSession, b: &mut GameSession, kind: u8, from: usize, to: usize) {
    if let Some(mv) = script_move(kind, from, to) {
        a.apply(mv.clone())
            .expect("script only uses in-bounds peers");
        b.apply(mv).expect("script only uses in-bounds peers");
    }
}

/// Asserts two optional best responses are bit-identical.
fn assert_same_response(
    label: &str,
    peer: usize,
    got: Option<&sp_core::BestResponse>,
    want: Option<&sp_core::BestResponse>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (None, None) => Ok(()),
        (Some(g), Some(w)) => {
            prop_assert_eq!(
                g.links.iter().collect::<Vec<_>>(),
                w.links.iter().collect::<Vec<_>>(),
                "{} peer {}: links diverged",
                label,
                peer
            );
            prop_assert_eq!(
                g.cost.to_bits(),
                w.cost.to_bits(),
                "{} peer {}: cost bits diverged ({} vs {})",
                label,
                peer,
                g.cost,
                w.cost
            );
            prop_assert_eq!(
                g.current_cost.to_bits(),
                w.current_cost.to_bits(),
                "{} peer {}: current_cost bits diverged",
                label,
                peer
            );
            Ok(())
        }
        (g, w) => {
            prop_assert!(
                false,
                "{} peer {}: one side moved, the other did not (got {:?}, want {:?})",
                label,
                peer,
                g.map(|r| r.improvement()),
                w.map(|r| r.improvement())
            );
            Ok(())
        }
    }
}

/// A sparse session answers `max_stretch` from one transient row at
/// a time: no `n × n` matrix is built or kept, and the value is the
/// dense twin's, bit for bit.
#[test]
fn sparse_max_stretch_keeps_no_matrix() {
    let n = 512;
    let positions: Vec<f64> = (0..n)
        .map(|i| (i * i % 997) as f64 + i as f64 / n as f64)
        .collect();
    let mut links: Vec<(usize, usize)> = (1..n).flat_map(|i| [(i - 1, i), (i, i - 1)]).collect();
    links.extend(
        (0..n)
            .step_by(7)
            .map(|i| (i, (i * 31 + 5) % n))
            .filter(|&(a, b)| a != b),
    );
    let p = StrategyProfile::from_links(n, &links).unwrap();
    let sparse_game = Game::from_line_positions(positions.clone(), 1.5).unwrap();
    let dense_game = Game::from_space(&LineSpace::new(positions).unwrap(), 1.5).unwrap();
    let mut sparse = SparseSession::new(sparse_game, p.clone()).unwrap();
    let mut dense = GameSession::new(dense_game, p).unwrap();
    let got = sparse.max_stretch();
    assert!(got.is_finite() && got > 1.0, "max stretch {got}");
    assert_eq!(got.to_bits(), dense.max_stretch().to_bits());
    assert!(
        sparse.memory_bytes() < 8 * n * n,
        "sparse max_stretch must stay O(n): {} bytes",
        sparse.memory_bytes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse `dist_bounds` brackets the dense exact distance for every
    /// ordered pair, after an arbitrary shared move script.
    #[test]
    fn sparse_bounds_bracket_the_exact_distance(
        (positions, alpha, profile, script) in arb_line_instance(),
        params in arb_params(),
    ) {
        let n = positions.len();
        let sparse_game = Game::from_line_positions(positions.clone(), alpha).unwrap();
        let dense_game = Game::from_line_positions(positions, alpha).unwrap();
        let mut sparse = SparseSession::with_params(sparse_game, profile.clone(), params).unwrap();
        let mut dense = GameSession::new(dense_game, profile).unwrap();
        for &(kind, from, to) in &script {
            play_sparse_and_dense(&mut sparse, &mut dense, kind, from, to);
        }
        let exact = dense.overlay_distances().clone();
        // The bounds are certified in real arithmetic; the float
        // evaluations of the two sides accumulate independent rounding,
        // so the bracket is checked up to a relative epsilon.
        fn leq(a: f64, b: f64) -> bool {
            (a.is_infinite() && b.is_infinite()) || a - b <= 1e-9 * (1.0 + b.abs())
        }
        for u in 0..n {
            for v in 0..n {
                let (lo, hi) = sparse.dist_bounds(PeerId::new(u), PeerId::new(v)).unwrap();
                let exact = exact[(u, v)];
                prop_assert!(
                    leq(lo, exact),
                    "pair ({},{}) lower bound {} above exact {}",
                    u, v, lo, exact
                );
                prop_assert!(
                    leq(exact, hi),
                    "pair ({},{}) exact {} above upper bound {}",
                    u, v, exact, hi
                );
            }
        }
    }

    /// With the window covering every peer, the sparse local response is
    /// bit-identical to the dense exact first improving move — for every
    /// peer, after every prefix of the move script.
    #[test]
    fn full_window_sparse_decides_bit_identically(
        (positions, alpha, profile, script) in arb_line_instance(),
        workers in 1usize..=4,
    ) {
        let n = positions.len();
        let params = SparseParams {
            window: n, // window + 1 ≥ n: the exact-scan route
            ..SparseParams::default()
        };
        let sparse_game = Game::from_line_positions(positions.clone(), alpha).unwrap();
        let dense_game = Game::from_line_positions(positions, alpha).unwrap();
        let mut sparse = SparseSession::with_params(sparse_game, profile.clone(), params).unwrap();
        let mut dense = GameSession::new(dense_game, profile).unwrap();
        dense.set_parallelism(Some(forced_parallelism().unwrap_or(workers)));
        for step in 0..=script.len() {
            for peer in 0..n {
                let s = sparse.local_response(PeerId::new(peer), 1e-9).unwrap();
                let d = dense.first_improving_move(PeerId::new(peer), 1e-9).unwrap();
                assert_same_response("full-window", peer, s.as_ref(), d.as_ref())?;
            }
            if let Some(&(kind, from, to)) = script.get(step) {
                play_sparse_and_dense(&mut sparse, &mut dense, kind, from, to);
            }
        }
    }

    /// The lazy certified-bound oracle returns the same move, bitwise,
    /// as a scan over a fresh `G_{-i}` oracle — across interleaved
    /// applies and the full `α` range the generator draws.
    #[test]
    fn lazy_oracle_is_bit_identical_to_uncached(
        (positions, alpha, profile, script) in arb_line_instance(),
    ) {
        let n = positions.len();
        let game_a = Game::from_line_positions(positions.clone(), alpha).unwrap();
        let game_b = Game::from_line_positions(positions, alpha).unwrap();
        let mut lazy = GameSession::new(game_a, profile.clone()).unwrap();
        let mut reference = GameSession::new(game_b, profile).unwrap();
        for step in 0..=script.len() {
            for peer in 0..n {
                let l = lazy.first_improving_move(PeerId::new(peer), 1e-9).unwrap();
                let r = reference
                    .first_improving_move_uncached(PeerId::new(peer), 1e-9)
                    .unwrap();
                assert_same_response("lazy-oracle", peer, l.as_ref(), r.as_ref())?;
            }
            if let Some(&(kind, from, to)) = script.get(step) {
                play_both(&mut lazy, &mut reference, kind, from, to);
            }
        }
        // The lazy path must actually have run its certified scan.
        prop_assert!(lazy.stats().oracle_builds > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sparse session's `social_cost` and `max_stretch` equal the
    /// session-free reference bit for bit after every step; the
    /// script's moves alternate between `apply_batch` chunks and single
    /// `apply` calls.
    #[test]
    fn sparse_readouts_equal_the_sessionless_reference(
        (positions, alpha, profile, script) in arb_line_instance(),
        params in arb_params(),
        chunk in 1usize..4,
    ) {
        let game = Game::from_line_positions(positions, alpha).unwrap();
        let mut s = SparseSession::with_params(game, profile, params).unwrap();
        readouts_match(&mut s, 0)?;
        let moves: Vec<Move> = script
            .iter()
            .filter_map(|&(kind, from, to)| script_move(kind, from, to))
            .collect();
        for (step, batch) in moves.chunks(chunk).enumerate() {
            if step % 2 == 0 {
                s.apply_batch(batch).unwrap();
            } else {
                for mv in batch {
                    s.apply(mv.clone()).unwrap();
                }
            }
            readouts_match(&mut s, step + 1)?;
        }
    }
}

/// Asserts that a sparse session's readouts equal the session-free
/// reference on its current profile bit for bit; `first` picks which
/// readout runs first, so each is also read right after the other.
fn readouts_match(session: &mut SparseSession, first: usize) -> Result<(), TestCaseError> {
    let want = support::reference_readouts(session.game(), session.profile());
    for k in 0..2 {
        if (first + k).is_multiple_of(2) {
            let got = session.social_cost();
            prop_assert_eq!(got.link_cost.to_bits(), want.link_cost.to_bits());
            prop_assert_eq!(got.stretch_cost.to_bits(), want.stretch_cost.to_bits());
        } else {
            prop_assert_eq!(session.max_stretch().to_bits(), want.max_stretch.to_bits());
        }
    }
    Ok(())
}
