//! Property tests for [`GameSession`] / free-function equivalence.
//!
//! The session is the single evaluation code path now — the free
//! functions are thin wrappers building a *fresh* session per call — so
//! the load-bearing property is **cache-invalidation correctness**: a
//! session that has lived through an arbitrary sequence of
//! [`Move`]s must answer every query exactly like a cold session (full
//! rebuild) on the same final profile.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{
    BestResponse, BestResponseMethod, Game, GameSession, LinkSet, Move, NashTest, PeerId,
    SessionStats, StrategyProfile,
};
use sp_graph::DistanceMatrix;
use sp_metric::{generators, LineSpace};

/// CI's determinism matrix sets `SP_TEST_PARALLELISM` to pin every
/// shard/worker-count parameter these tests would otherwise draw, so the
/// whole suite runs at forced parallelism extremes (1 and 8) and
/// shard-count-dependent nondeterminism cannot land.
fn forced_parallelism() -> Option<usize> {
    std::env::var("SP_TEST_PARALLELISM").ok()?.parse().ok()
}

/// A random small game, a random initial profile, and a random move
/// script (encoded as `(kind, from, to)` triples).
#[allow(clippy::type_complexity)]
fn arb_session_script() -> impl Strategy<Value = (Game, StrategyProfile, Vec<(u8, usize, usize)>)> {
    (2usize..=7, 0u64..10_000, 0.1f64..8.0).prop_flat_map(|(n, seed, alpha)| {
        let max_links = (n * (n - 1)).min(16);
        (
            proptest::collection::vec((0..n, 0..n), 0..=max_links),
            proptest::collection::vec((0u8..3, 0..n, 0..n), 1..12),
        )
            .prop_map(move |(pairs, script)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let space = generators::uniform_square(n, 10.0, &mut rng);
                let game = Game::from_space(&space, alpha).unwrap();
                let links: Vec<(usize, usize)> =
                    pairs.into_iter().filter(|&(u, v)| u != v).collect();
                let profile = StrategyProfile::from_links(n, &links).unwrap();
                (game, profile, script)
            })
    })
}

/// Decodes one scripted `(kind, from, to)` triple into a [`Move`]
/// (`None` for the self-link combinations the script skips).
fn script_move(n: usize, kind: u8, from: usize, to: usize) -> Option<Move> {
    if from == to {
        return None;
    }
    Some(match kind {
        0 => Move::AddLink {
            from: PeerId::new(from),
            to: PeerId::new(to),
        },
        1 => Move::RemoveLink {
            from: PeerId::new(from),
            to: PeerId::new(to),
        },
        _ => {
            // A pseudo-random replacement strategy derived from (from, to).
            let links: LinkSet = (0..n)
                .filter(|&v| v != from && !(v + to).is_multiple_of(3))
                .collect();
            Move::SetStrategy {
                peer: PeerId::new(from),
                links,
            }
        }
    })
}

/// Replays one scripted move on the session, skipping self-links.
fn play(session: &mut GameSession, kind: u8, from: usize, to: usize) {
    if let Some(mv) = script_move(session.n(), kind, from, to) {
        session.apply(mv).expect("script only uses in-bounds peers");
    }
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= tol * (1.0 + a.abs().min(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Costs after arbitrary move sequences match a cold rebuild.
    #[test]
    fn warm_session_costs_match_cold_rebuild(
        (game, profile, script) in arb_session_script()
    ) {
        let mut warm = GameSession::from_refs(&game, &profile).unwrap();
        // Interleave queries with moves so the incremental repair runs on
        // genuinely warm caches (querying before each apply fills rows).
        for &(kind, from, to) in &script {
            let _ = warm.social_cost();
            play(&mut warm, kind, from, to);
        }
        let mut cold = GameSession::from_refs(&game, warm.profile()).unwrap();

        let warm_sc = warm.social_cost();
        let cold_sc = cold.social_cost();
        prop_assert!(
            close(warm_sc.total(), cold_sc.total(), 1e-9),
            "social cost diverged: warm {} vs cold {}",
            warm_sc.total(),
            cold_sc.total()
        );
        prop_assert_eq!(warm_sc.link_cost, cold_sc.link_cost);

        for i in 0..game.n() {
            let w = warm.peer_cost(PeerId::new(i)).unwrap();
            let c = cold.peer_cost(PeerId::new(i)).unwrap();
            prop_assert!(close(w, c, 1e-9), "peer {} cost diverged: {} vs {}", i, w, c);
        }

        // Full matrices agree entry-wise.
        let wd = warm.overlay_distances().clone();
        let cd = cold.overlay_distances().clone();
        for i in 0..game.n() {
            for j in 0..game.n() {
                prop_assert!(
                    close(wd[(i, j)], cd[(i, j)], 1e-9),
                    "distance ({},{}) diverged: {} vs {}",
                    i, j, wd[(i, j)], cd[(i, j)]
                );
            }
        }
        let ws = warm.stretch_matrix().clone();
        let cs = cold.stretch_matrix().clone();
        for i in 0..game.n() {
            for j in 0..game.n() {
                prop_assert!(close(ws[(i, j)], cs[(i, j)], 1e-9));
            }
        }
    }

    /// Best responses and Nash verdicts from a warm session match the
    /// legacy free functions on the same final profile.
    #[test]
    fn warm_session_responses_match_free_functions(
        (game, profile, script) in arb_session_script()
    ) {
        let mut warm = GameSession::from_refs(&game, &profile).unwrap();
        for &(kind, from, to) in &script {
            let _ = warm.all_peer_costs();
            play(&mut warm, kind, from, to);
        }
        let final_profile = warm.profile().clone();

        for i in 0..game.n() {
            let peer = PeerId::new(i);
            let via_session = warm.best_response(peer, BestResponseMethod::Exact).unwrap();
            let via_free =
                sp_core::best_response(&game, &final_profile, peer, BestResponseMethod::Exact)
                    .unwrap();
            prop_assert!(
                close(via_session.cost, via_free.cost, 1e-9),
                "peer {} best-response cost diverged: {} vs {}",
                i, via_session.cost, via_free.cost
            );
            prop_assert!(close(via_session.current_cost, via_free.current_cost, 1e-9));
        }

        let via_session = warm.is_nash(&NashTest::exact()).unwrap();
        let via_free = sp_core::is_nash(&game, &final_profile, &NashTest::exact()).unwrap();
        prop_assert_eq!(via_session.is_nash(), via_free.is_nash());

        let gap_session = warm.nash_gap(BestResponseMethod::Exact).unwrap();
        let gap_free =
            sp_core::nash_gap(&game, &final_profile, BestResponseMethod::Exact).unwrap();
        prop_assert!(close(gap_session, gap_free, 1e-9));
    }

    /// The wrappers themselves: free functions equal direct session use
    /// on arbitrary (game, profile) pairs.
    #[test]
    fn free_functions_equal_session_queries(
        (game, profile, _script) in arb_session_script()
    ) {
        let mut session = GameSession::from_refs(&game, &profile).unwrap();
        let sc_free = sp_core::social_cost(&game, &profile).unwrap();
        let sc_sess = session.social_cost();
        prop_assert!(close(sc_free.total(), sc_sess.total(), 1e-12));
        let ms_free = sp_core::max_stretch(&game, &profile).unwrap();
        let ms_sess = session.max_stretch();
        prop_assert!(close(ms_free, ms_sess, 1e-12));
        let costs_free = sp_core::all_peer_costs(&game, &profile).unwrap();
        let costs_sess = session.all_peer_costs();
        for (a, b) in costs_free.iter().zip(&costs_sess) {
            prop_assert!(close(*a, *b, 1e-12));
        }
    }

    /// `apply_batch` is observationally equivalent to applying the same
    /// moves one at a time: per-move prior links, evolving costs, the
    /// final profile, and the full distance matrix all agree (and a cold
    /// rebuild agrees with both).
    #[test]
    fn apply_batch_equals_sequential_applies(
        (game, profile, script) in arb_session_script(),
        chunk in 1usize..5
    ) {
        let n = game.n();
        let moves: Vec<Move> = script
            .iter()
            .filter_map(|&(kind, from, to)| script_move(n, kind, from, to))
            .collect();

        let mut batched = GameSession::from_refs(&game, &profile).unwrap();
        let mut sequential = GameSession::from_refs(&game, &profile).unwrap();
        // Warm both caches so batches repair live state, not cold laziness.
        let _ = batched.social_cost();
        let _ = sequential.social_cost();

        for batch in moves.chunks(chunk) {
            let prev_batched = batched.apply_batch(batch).unwrap();
            let prev_sequential: Vec<_> = batch
                .iter()
                .map(|mv| sequential.apply(mv.clone()).unwrap())
                .collect();
            prop_assert_eq!(&prev_batched, &prev_sequential,
                "prior links diverged inside a batch");
            // Query between batches so every batch starts from warm rows.
            let b = batched.social_cost().total();
            let s = sequential.social_cost().total();
            prop_assert!(close(b, s, 1e-9), "social cost diverged: {} vs {}", b, s);
        }
        prop_assert_eq!(batched.profile(), sequential.profile());

        let mut cold = GameSession::from_refs(&game, batched.profile()).unwrap();
        let bd = batched.overlay_distances().clone();
        let cd = cold.overlay_distances().clone();
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    close(bd[(i, j)], cd[(i, j)], 1e-9),
                    "distance ({},{}) diverged after batches: {} vs {}",
                    i, j, bd[(i, j)], cd[(i, j)]
                );
            }
        }

        // Stats discipline: every non-no-op batch costs exactly one CSR
        // rebuild, and the batch counters never exceed the script size.
        let stats = batched.stats();
        prop_assert!(stats.batch_applies <= moves.len().div_ceil(chunk.max(1)));
        prop_assert!(stats.batch_moves <= moves.len());
        prop_assert!(stats.csr_rebuilds <= 1 + stats.batch_applies);
    }

    /// The threaded bulk refill computes exactly the same distance matrix
    /// as the sequential path, whatever mutations preceded it.
    #[test]
    fn parallel_refill_equals_sequential_refill(
        (game, profile, script) in arb_session_script(),
        workers in 2usize..6
    ) {
        let workers = forced_parallelism().unwrap_or(workers);
        let mut par = GameSession::from_refs(&game, &profile).unwrap();
        par.set_parallelism(Some(workers));
        let mut seq = GameSession::from_refs(&game, &profile).unwrap();
        seq.set_parallelism(Some(1));
        for &(kind, from, to) in &script {
            let _ = par.social_cost();
            let _ = seq.social_cost();
            play(&mut par, kind, from, to);
            play(&mut seq, kind, from, to);
        }
        let pd = par.overlay_distances().clone();
        let sd = seq.overlay_distances().clone();
        prop_assert_eq!(pd, sd, "threaded and sequential sweeps must agree exactly");
        prop_assert_eq!(par.stats().full_sssp, seq.stats().full_sssp);
    }

    /// Pure link additions never invalidate rows — the decrease-only
    /// repair handles them — and never change what queries report
    /// relative to a cold session.
    #[test]
    fn additions_are_repaired_without_row_invalidation(
        (game, profile, script) in arb_session_script()
    ) {
        let mut warm = GameSession::from_refs(&game, &profile).unwrap();
        let _ = warm.social_cost();
        for &(_, from, to) in &script {
            if from != to {
                warm.apply(Move::AddLink {
                    from: PeerId::new(from),
                    to: PeerId::new(to),
                }).unwrap();
            }
        }
        prop_assert_eq!(warm.stats().rows_invalidated, 0);
        prop_assert_eq!(warm.stats().full_sssp, game.n());
        let warm_total = warm.social_cost().total();
        let cold_total =
            GameSession::from_refs(&game, warm.profile()).unwrap().social_cost().total();
        prop_assert!(close(warm_total, cold_total, 1e-9));
    }

    /// The round-snapshot oracle (which serves candidate rows from the
    /// session's persistent cache whenever no out-link of the responding
    /// peer is tight on them) is **bit-identical** to the fresh
    /// `G_{-i}`-sweeping oracle — even on caches that lived through an
    /// arbitrary move script, and for every shard count of the
    /// fanned-out round.
    #[test]
    fn cached_oracle_round_is_bit_identical_to_fresh_oracles(
        (game, profile, script) in arb_session_script(),
        shards in 1usize..6
    ) {
        let shards = forced_parallelism().unwrap_or(shards);
        let mut fresh = GameSession::from_refs(&game, &profile).unwrap();
        let mut cached = GameSession::from_refs(&game, &profile).unwrap();
        cached.set_parallelism(Some(shards));
        for &(kind, from, to) in &script {
            let _ = fresh.social_cost();
            let _ = cached.social_cost();
            play(&mut fresh, kind, from, to);
            play(&mut cached, kind, from, to);
        }
        let peers: Vec<PeerId> = (0..game.n()).map(PeerId::new).collect();
        let baseline: Vec<_> = peers
            .iter()
            .map(|&p| fresh.best_response_uncached(p, BestResponseMethod::Exact).unwrap())
            .collect();
        let round = cached
            .best_responses_round(&peers, BestResponseMethod::Exact)
            .unwrap();
        for (a, b) in baseline.iter().zip(&round) {
            prop_assert_eq!(a.peer, b.peer);
            prop_assert_eq!(&a.links, &b.links, "links diverged for peer {:?}", a.peer);
            prop_assert_eq!(
                a.cost.to_bits(), b.cost.to_bits(),
                "response cost not bit-identical for peer {:?}: {} vs {}",
                a.peer, a.cost, b.cost
            );
            prop_assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
        }
        // The snapshot must be earning its keep: all candidate rows are
        // accounted for, and reuse strictly dominates on these instances.
        let stats = cached.stats();
        let n = game.n();
        prop_assert_eq!(
            stats.seq_oracle_hits + stats.oracle_rows_repaired + stats.seq_oracle_swept,
            n * (n - 1),
            "every candidate row is reused, repaired, or swept"
        );
    }
}

/// Cases of [`cached_oracles_survive_interleaved_applies`]; the
/// repair-branch check runs once the last of them has passed.
const INTERLEAVED_CASES: u32 = 64;
/// Cases of that test run so far, and the oracle rows their cached
/// builds repaired with `CsrGraph::dijkstra_without`.
static INTERLEAVED_RUN: AtomicUsize = AtomicUsize::new(0);
static INTERLEAVED_REPAIRED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(INTERLEAVED_CASES))]

    /// **The cross-move cache contract.** A session whose persistent
    /// oracle cache lives through an arbitrary interleaving of
    /// `apply` moves, best-response queries, and better-response queries
    /// answers every oracle query **bit-identically** to a fresh
    /// `G_{-i}` oracle built on the spot — reuse (overlay rows surviving
    /// repair, residual rows derived from them by subtree repair, rows
    /// the lazy scan rejects on a bound) must never change a single bit
    /// of any response.
    #[test]
    fn cached_oracles_survive_interleaved_applies(
        (game, profile, script) in arb_session_script()
    ) {
        let mut s = GameSession::from_refs(&game, &profile).unwrap();
        let n = game.n();
        // Candidate rows each cached path resolved: (rows, swept).
        let rows_of = |st: &SessionStats| {
            (st.seq_oracle_hits + st.oracle_rows_repaired + st.seq_oracle_swept, st.seq_oracle_swept)
        };
        let mut build_rows = (0usize, 0usize);
        let mut scan_rows = 0usize;
        let mut check = |s: &mut GameSession, peer: PeerId| -> Result<(), TestCaseError> {
            let fresh = s.best_response_uncached(peer, BestResponseMethod::Exact).unwrap();
            let before = rows_of(&s.stats());
            let cached = s.best_response(peer, BestResponseMethod::Exact).unwrap();
            let after = rows_of(&s.stats());
            build_rows.0 += after.0 - before.0;
            build_rows.1 += after.1 - before.1;
            prop_assert_eq!(&fresh.links, &cached.links,
                "links diverged for peer {:?}", peer);
            prop_assert_eq!(fresh.cost.to_bits(), cached.cost.to_bits(),
                "cost not bit-identical for peer {:?}: {} vs {}",
                peer, fresh.cost, cached.cost);
            prop_assert_eq!(fresh.current_cost.to_bits(), cached.current_cost.to_bits());
            let fresh_mv = s.first_improving_move_uncached(peer, 1e-9).unwrap();
            let before = rows_of(&s.stats()).0;
            let cached_mv = s.first_improving_move(peer, 1e-9).unwrap();
            let resolved = rows_of(&s.stats()).0 - before;
            prop_assert!(resolved < n, "a lazy scan resolves each candidate row at most once");
            scan_rows += resolved;
            match (&fresh_mv, &cached_mv) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(&a.links, &b.links);
                    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                }
                _ => {
                    return Err(TestCaseError::Fail(format!(
                        "better-response disagreement for peer {peer:?}: \
                         {fresh_mv:?} vs {cached_mv:?}"
                    )));
                }
            }
            Ok(())
        };
        // Interleave: query the two peers a move names, play the move,
        // query again — so cached builds both warm the cache before each
        // mutation and read it right after the repair.
        for &(kind, from, to) in &script {
            check(&mut s, PeerId::new(from))?;
            play(&mut s, kind, from, to);
            check(&mut s, PeerId::new(to))?;
        }
        // Final full sweep over every peer on the end state.
        for i in 0..n {
            check(&mut s, PeerId::new(i))?;
        }
        // Accounting: every `best_response` build refills the overlay
        // rows first, so each of its n - 1 candidate rows is served
        // verbatim or repaired and none pays a sweep. The lazy scans are
        // counted apart: they resolve only the rows their bounds could
        // not reject.
        let stats = s.stats();
        let cached_builds = 2 * script.len() + n;
        prop_assert_eq!(
            build_rows.0,
            cached_builds * (n - 1),
            "best_response row accounting must balance"
        );
        prop_assert_eq!(build_rows.1, 0, "no best_response build may sweep: {:?}", stats);
        prop_assert_eq!(
            rows_of(&stats).0,
            build_rows.0 + scan_rows,
            "every sequential row is a build row or a scan row"
        );
        // Across the whole run the repair branch must have fired: the
        // cases above would pass vacuously if every row were clean.
        let repaired = INTERLEAVED_REPAIRED.fetch_add(stats.oracle_rows_repaired, Ordering::SeqCst)
            + stats.oracle_rows_repaired;
        if INTERLEAVED_RUN.fetch_add(1, Ordering::SeqCst) + 1 == INTERLEAVED_CASES as usize {
            prop_assert!(repaired > 0, "no case exercised the oracle row repair");
        }
    }
}

/// A game — random points, or unit-spaced line positions whose equal
/// gaps tie shortest paths and stretches — with 1 to 7 peers, a start
/// profile (empty for one flag value), and a script of `(kind, from, to)` steps: kinds 0–2 apply
/// [`script_move`], kinds 3–5 play `from`'s best response.
#[allow(clippy::type_complexity)]
fn arb_play_script() -> impl Strategy<Value = (Game, StrategyProfile, Vec<(u8, usize, usize)>)> {
    (1usize..=7, 0u64..10_000, 0.1f64..8.0, 0u8..4).prop_flat_map(|(n, seed, alpha, flags)| {
        let max_links = (n * (n - 1)).min(16);
        (
            proptest::collection::vec((0..n, 0..n), 0..=max_links),
            proptest::collection::vec((0u8..6, 0..n, 0..n), 1..12),
        )
            .prop_map(move |(pairs, script)| {
                let (line, empty) = (flags & 1 != 0, flags & 2 != 0);
                let game = if line {
                    let positions = (0..n).map(|k| k as f64).collect();
                    Game::from_space(&LineSpace::new(positions).unwrap(), alpha).unwrap()
                } else {
                    let mut rng = StdRng::seed_from_u64(seed);
                    Game::from_space(&generators::uniform_square(n, 10.0, &mut rng), alpha).unwrap()
                };
                let links: Vec<(usize, usize)> = if empty {
                    Vec::new()
                } else {
                    pairs.into_iter().filter(|&(u, v)| u != v).collect()
                };
                let profile = StrategyProfile::from_links(n, &links).unwrap();
                (game, profile, script)
            })
    })
}

/// Asserts `a` and `b` agree bit for bit on every entry.
fn same_bits(a: &DistanceMatrix, b: &DistanceMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        for j in 0..a.len() {
            prop_assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "row {} entry {} differs: {} vs {}",
                i,
                j,
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
    Ok(())
}

/// Cases of [`played_response_equals_best_response_then_apply`]; the
/// coverage check runs once the last of them has passed.
const PLAY_CASES: u32 = 96;
/// Cases of that test run so far, and its plays that moved a peer and
/// that moved nothing.
static PLAY_RUN: AtomicUsize = AtomicUsize::new(0);
static PLAYS_MOVED: AtomicUsize = AtomicUsize::new(0);
static PLAYS_IDLE: AtomicUsize = AtomicUsize::new(0);

/// Plays the response `br` the way the dynamics engine does: an `apply`
/// of it when it improves by more than `tol` and changes the links.
/// Returns the response and the links it replaced, or `None` when
/// nothing moved.
fn play_response(
    s: &mut GameSession,
    br: BestResponse,
    tol: f64,
) -> Option<(BestResponse, LinkSet)> {
    if !br.improves(tol) || &br.links == s.profile().strategy(br.peer) {
        return None;
    }
    let old = s
        .apply(Move::SetStrategy {
            peer: br.peer,
            links: br.links.clone(),
        })
        .unwrap();
    Some((br, old))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PLAY_CASES))]

    /// A played best response — `best_response` then `apply` — leaves
    /// exact rows without refilling any. A session that plays its cached
    /// responses is run beside a twin that plays uncached ones, over
    /// scripts interleaving `apply` moves with plays (exact, heuristic,
    /// and a tolerance so large that only a disconnected peer moves).
    /// Both play the same response and replace the same links; the
    /// profiles stay equal; after every step each overlay row matches a
    /// fresh sweep bit for bit, and after a play the rows are read
    /// without a sweep. A play that moves nothing leaves the profile and
    /// the CSR as they were.
    #[test]
    fn played_response_equals_best_response_then_apply(
        (game, profile, script) in arb_play_script()
    ) {
        let session = |p: &StrategyProfile| GameSession::new(game.clone(), p.clone()).unwrap();
        let mut s = session(&profile);
        let mut twin = session(&profile);
        // Warm: a play then finds every row valid, so its sweeps
        // are its own.
        let _ = s.overlay_distances();
        for &(kind, from, to) in &script {
            if kind < 3 {
                play(&mut s, kind, from, to);
                play(&mut twin, kind, from, to);
            } else {
                let peer = PeerId::new(from);
                let (method, tol) = match kind {
                    3 => (BestResponseMethod::Exact, 1e-9),
                    4 => (BestResponseMethod::Greedy, 1e-9),
                    _ => (BestResponseMethod::Exact, 1e6),
                };
                let before_profile = s.profile().clone();
                let before = s.stats();
                let br = s.best_response(peer, method).unwrap();
                let played = play_response(&mut s, br, tol);

                let br = twin.best_response_uncached(peer, method).unwrap();
                let reference = play_response(&mut twin, br, tol);
                prop_assert_eq!(&played, &reference);
                if let (Some((a, _)), Some((b, _))) = (&played, &reference) {
                    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                    prop_assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
                }
                let tally = if played.is_some() { &PLAYS_MOVED } else { &PLAYS_IDLE };
                tally.fetch_add(1, Ordering::SeqCst);
                let after = s.stats();
                match &played {
                    None => {
                        prop_assert_eq!(s.profile(), &before_profile);
                        prop_assert_eq!(after.csr_rebuilds, before.csr_rebuilds);
                        prop_assert_eq!(after.full_sssp, before.full_sssp);
                    }
                    Some(_) if game.n() > 1 => {
                        prop_assert_eq!(after.rows_invalidated, before.rows_invalidated);
                        prop_assert_eq!(after.full_sssp, before.full_sssp);
                        let rows = s.overlay_distances().clone();
                        prop_assert_eq!(s.stats().full_sssp, after.full_sssp,
                            "a played move leaves every row valid");
                        let fresh = session(s.profile()).overlay_distances().clone();
                        same_bits(&rows, &fresh)?;
                    }
                    Some(_) => {}
                }
            }
            prop_assert_eq!(s.profile(), twin.profile());
            // Every row, after every step, against a cold session; this
            // also leaves the CSR built and every row valid, so
            // the next play starts from a warm cache.
            let rows = s.overlay_distances().clone();
            let fresh = session(s.profile()).overlay_distances().clone();
            same_bits(&rows, &fresh)?;
        }
        // Across the whole run both outcomes must have occurred: the
        // checks above would pass vacuously if no play ever moved.
        if PLAY_RUN.fetch_add(1, Ordering::SeqCst) + 1 == PLAY_CASES as usize {
            prop_assert!(PLAYS_MOVED.load(Ordering::SeqCst) > 0, "no play moved a peer");
            prop_assert!(PLAYS_IDLE.load(Ordering::SeqCst) > 0, "every play moved a peer");
        }
    }
}

/// Every best-response method, as the scripts below cycle through them.
const METHODS: [BestResponseMethod; 4] = [
    BestResponseMethod::Exact,
    BestResponseMethod::ExactEnumeration,
    BestResponseMethod::Greedy,
    BestResponseMethod::LocalSearch,
];

/// Candidate rows a cached oracle resolved, over every bucket a row can
/// land in.
fn resolved_rows(st: &SessionStats) -> usize {
    st.seq_oracle_hits + st.oracle_rows_repaired + st.seq_oracle_swept + st.oracle_rows_bounded
}

/// Cases of [`lazy_oracles_equal_uncached_for_every_method`]; the
/// coverage check runs once the last of them has passed.
const LAZY_CASES: u32 = 64;
/// Cases of that test run so far, and the greedy candidate rows they
/// held only as bounds.
static LAZY_RUN: AtomicUsize = AtomicUsize::new(0);
static LAZY_BOUNDED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LAZY_CASES))]

    /// Cached oracles hold dirty rows as lower bounds and derive a
    /// residual row only when a method needs it exact. Across scripts
    /// interleaving `apply` moves with plays of every method, each
    /// method's cached `best_response` equals `best_response_uncached`
    /// bit for bit, each play returns what the uncached response
    /// predicted, and every cached oracle accounts for exactly its
    /// `n − 1` candidate rows: reused, repaired or bounded. Only the
    /// greedy holds rows as bounds. The cached better-response scan
    /// equals the uncached one too, and no cached oracle or scan sweeps
    /// a candidate row of its own: the rows are refilled before any is
    /// read.
    #[test]
    fn lazy_oracles_equal_uncached_for_every_method(
        (game, profile, script) in arb_play_script()
    ) {
        let n = game.n();
        let mut s = GameSession::new(game.clone(), profile.clone()).unwrap();
        let mut bounded = 0;
        for (step, &(kind, from, to)) in script.iter().enumerate() {
            let peer = PeerId::new(from);
            for method in METHODS {
                let fresh = s.best_response_uncached(peer, method).unwrap();
                let before = s.stats();
                let cached = s.best_response(peer, method).unwrap();
                let after = s.stats();
                prop_assert_eq!(&fresh.links, &cached.links, "{:?} peer {:?}", method, peer);
                prop_assert_eq!(fresh.cost.to_bits(), cached.cost.to_bits(),
                    "{:?} peer {:?}: {} vs {}", method, peer, fresh.cost, cached.cost);
                prop_assert_eq!(fresh.current_cost.to_bits(), cached.current_cost.to_bits());
                if n > 1 {
                    prop_assert_eq!(resolved_rows(&after) - resolved_rows(&before), n - 1,
                        "{:?}: row accounting of one oracle", method);
                    let held = after.oracle_rows_bounded - before.oracle_rows_bounded;
                    if method != BestResponseMethod::Greedy {
                        prop_assert_eq!(held, 0, "{:?} solves exact rows only", method);
                    }
                    bounded += held;
                }
            }
            let fresh_mv = s.first_improving_move_uncached(peer, 1e-9).unwrap();
            let lazy_mv = s.first_improving_move(peer, 1e-9).unwrap();
            prop_assert_eq!(&fresh_mv, &lazy_mv, "better response of peer {:?}", peer);
            if kind < 3 {
                play(&mut s, kind, from, to);
            } else {
                let method = METHODS[(step + to) % METHODS.len()];
                let fresh = s.best_response_uncached(peer, method).unwrap();
                let br = s.best_response(peer, method).unwrap();
                let played = play_response(&mut s, br, 1e-9);
                if let Some((br, _)) = &played {
                    prop_assert_eq!(&br.links, &fresh.links);
                    prop_assert_eq!(br.cost.to_bits(), fresh.cost.to_bits());
                } else {
                    prop_assert!(
                        !fresh.improves(1e-9) || &fresh.links == s.profile().strategy(peer)
                    );
                }
            }
        }
        prop_assert_eq!(s.stats().seq_oracle_swept, 0, "a cached oracle swept a row");
        // Every row stays exact through the plays' in-place repairs.
        let mut cold = GameSession::new(game.clone(), s.profile().clone()).unwrap();
        same_bits(&s.overlay_distances().clone(), cold.overlay_distances())?;
        // The bound branch must have fired somewhere: the checks above
        // would pass vacuously if the greedy escalated every dirty row.
        let total = LAZY_BOUNDED.fetch_add(bounded, Ordering::SeqCst) + bounded;
        if LAZY_RUN.fetch_add(1, Ordering::SeqCst) + 1 == LAZY_CASES as usize {
            prop_assert!(total > 0, "no greedy oracle held a row as a bound");
        }
    }

    /// `nash_gap` and `is_nash` run every peer through the
    /// `best_responses_round` fan-out. Their answers are bit-identical
    /// at one worker, three workers and automatic parallelism, equal the
    /// largest uncached improvement, and every oracle accounts for its
    /// `n − 1` candidate rows whatever the shard count.
    #[test]
    fn nash_queries_are_identical_at_every_parallelism(
        (game, profile, script) in arb_session_script(),
        method in 0usize..4
    ) {
        let method = METHODS[method];
        let n = game.n();
        let mut warm = GameSession::from_refs(&game, &profile).unwrap();
        for &(kind, from, to) in &script {
            let _ = warm.social_cost();
            play(&mut warm, kind, from, to);
        }
        let mut reference = GameSession::from_refs(&game, warm.profile()).unwrap();
        let mut want_gap = 0.0f64;
        for i in 0..n {
            let br = reference.best_response_uncached(PeerId::new(i), method).unwrap();
            want_gap = want_gap.max(br.improvement());
        }
        let test = NashTest { method, ..NashTest::exact() };
        let mut answers = Vec::new();
        for workers in [Some(1), Some(3), None] {
            let mut s = warm.clone();
            s.set_parallelism(workers);
            s.reset_stats();
            let gap = s.nash_gap(method).unwrap();
            let report = s.is_nash(&test).unwrap();
            prop_assert_eq!(gap.to_bits(), want_gap.to_bits(), "{:?}: gap", workers);
            let st = s.stats();
            prop_assert_eq!(st.oracle_builds, 2 * n);
            prop_assert_eq!(
                st.seq_oracle_hits + st.oracle_rows_repaired + st.seq_oracle_swept
                    + st.oracle_rows_bounded,
                2 * n * (n - 1),
                "{:?}: row accounting", workers
            );
            let deviation = report.best_deviation.map(|d| {
                (d.peer, d.links, d.old_cost.to_bits(), d.new_cost.to_bits())
            });
            let costs: Vec<u64> = report.peer_costs.iter().map(|c| c.to_bits()).collect();
            answers.push((deviation, costs));
        }
        prop_assert_eq!(&answers[0], &answers[1]);
        prop_assert_eq!(&answers[0], &answers[2]);
    }
}

/// A game of 8 to 20 random points with 1 to 3 random out-links per
/// peer, and an activation order of two round-robin passes.
fn arb_greedy_dynamics() -> impl Strategy<Value = (Game, StrategyProfile, Vec<usize>)> {
    (8usize..=20, 0u64..10_000, 0.5f64..4.0).prop_map(|(n, seed, alpha)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let game =
            Game::from_space(&generators::uniform_square(n, 100.0, &mut rng), alpha).unwrap();
        let links: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| {
                let k = rng.random_range(1..=3);
                (0..k)
                    .map(|_| (u, rng.random_range(0..n)))
                    .collect::<Vec<_>>()
            })
            .filter(|&(u, v)| u != v)
            .collect();
        let profile = StrategyProfile::from_links(n, &links).unwrap();
        let order = (0..2 * n).map(|k| k % n).collect();
        (game, profile, order)
    })
}

/// Cases of [`greedy_plays_derive_broken_rows_at_commit`]; the coverage
/// check runs once the last of them has passed.
const COMMIT_CASES: u32 = 32;
/// Cases of that test run so far, and the rows their plays repaired in
/// place below a removed link.
static COMMIT_RUN: AtomicUsize = AtomicUsize::new(0);
static COMMIT_REPAIRED: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(COMMIT_CASES))]

    /// Greedy best-response dynamics on instances large enough that a
    /// played move breaks rows the greedy oracle held only as bounds:
    /// each play's `apply` removes links those rows are tight on, and
    /// repairs them in place. A twin plays uncached responses; the plays
    /// must match, no play may drop or sweep a row, and after each one
    /// every overlay row must equal a fresh sweep bit for bit.
    #[test]
    fn greedy_plays_derive_broken_rows_at_commit(
        (game, profile, order) in arb_greedy_dynamics()
    ) {
        let method = BestResponseMethod::Greedy;
        let mut s = GameSession::new(game.clone(), profile.clone()).unwrap();
        let mut twin = GameSession::new(game.clone(), profile).unwrap();
        let mut rows = s.overlay_distances().clone();
        let mut repaired = 0;
        for peer in order.into_iter().map(PeerId::new) {
            let before = s.stats();
            let br = s.best_response(peer, method).unwrap();
            let played = play_response(&mut s, br, 1e-9);
            let br = twin.best_response_uncached(peer, method).unwrap();
            let reference = play_response(&mut twin, br, 1e-9);
            prop_assert_eq!(&played, &reference);
            let after = s.stats();
            prop_assert_eq!(after.full_sssp, before.full_sssp, "a play sweeps no row");
            prop_assert_eq!(after.rows_invalidated, before.rows_invalidated);
            let next = s.overlay_distances().clone();
            prop_assert_eq!(s.stats().full_sssp, after.full_sssp);
            let fresh = GameSession::new(game.clone(), s.profile().clone())
                .unwrap()
                .overlay_distances()
                .clone();
            same_bits(&next, &fresh)?;
            // Only the removal repair lengthens a distance.
            repaired += (0..game.n())
                .filter(|&u| next.row(u).iter().zip(rows.row(u)).any(|(a, b)| a > b))
                .count();
            rows = next;
        }
        let total = COMMIT_REPAIRED.fetch_add(repaired, Ordering::SeqCst) + repaired;
        if COMMIT_RUN.fetch_add(1, Ordering::SeqCst) + 1 == COMMIT_CASES as usize {
            prop_assert!(total > 0, "no play repaired a broken row");
        }
    }
}

/// A game of 3 to 8 peers (random points, or unit-spaced line positions
/// whose ties make many links tight), a start profile, and a script of
/// batches `(family, p, q, picks)`, each pick a `(kind, a, b)` triple.
#[allow(clippy::type_complexity)]
fn arb_batch_script() -> impl Strategy<
    Value = (
        Game,
        StrategyProfile,
        Vec<(u8, usize, usize, Vec<(u8, usize, usize)>)>,
    ),
> {
    (3usize..=8, 0u64..10_000, 0.1f64..8.0, proptest::bool::ANY).prop_flat_map(
        |(n, seed, alpha, line)| {
            let max_links = (n * (n - 1)).min(20);
            let picks = proptest::collection::vec((0u8..3, 0..n, 0..n), 1..5);
            (
                proptest::collection::vec((0..n, 0..n), 0..=max_links),
                proptest::collection::vec((0u8..3, 0..n, 0..n, picks), 1..8),
            )
                .prop_map(move |(pairs, batches)| {
                    let game = if line {
                        let positions = (0..n).map(|k| k as f64).collect();
                        Game::from_space(&LineSpace::new(positions).unwrap(), alpha).unwrap()
                    } else {
                        let mut rng = StdRng::seed_from_u64(seed);
                        Game::from_space(&generators::uniform_square(n, 10.0, &mut rng), alpha)
                            .unwrap()
                    };
                    let links: Vec<(usize, usize)> =
                        pairs.into_iter().filter(|&(u, v)| u != v).collect();
                    (
                        game,
                        StrategyProfile::from_links(n, &links).unwrap(),
                        batches,
                    )
                })
        },
    )
}

/// Decodes one batch of [`arb_batch_script`] against the current
/// profile. Family 0 mixes [`script_move`]s of any peers. Family 1 has
/// peer `p` only remove links it holds and another peer `q` only add
/// links. Family 2 is several moves by `p` alone.
fn batch_moves(
    profile: &StrategyProfile,
    family: u8,
    p: usize,
    q: usize,
    picks: &[(u8, usize, usize)],
) -> Vec<Move> {
    let n = profile.n();
    match family {
        0 => picks
            .iter()
            .filter_map(|&(kind, a, b)| script_move(n, kind, a, b))
            .collect(),
        1 => {
            let q = if q == p { (p + 1) % n } else { q };
            let held: Vec<PeerId> = profile.strategy(PeerId::new(p)).iter().collect();
            picks
                .iter()
                .filter_map(|&(kind, a, b)| match kind {
                    0 if !held.is_empty() => Some(Move::RemoveLink {
                        from: PeerId::new(p),
                        to: held[a % held.len()],
                    }),
                    _ if b != q => Some(Move::AddLink {
                        from: PeerId::new(q),
                        to: PeerId::new(b),
                    }),
                    _ => None,
                })
                .collect()
        }
        _ => picks
            .iter()
            .filter_map(|&(kind, _, b)| script_move(n, kind, p, b))
            .collect(),
    }
}

/// Cases of [`batches_repair_or_drop_rows_bit_identically`]; the
/// coverage checks run once the last of them has passed.
const BATCH_CASES: u32 = 96;
/// Cases of that test run so far, the rows family-1 batches dropped, and
/// the nodes family-2 batches reset in place.
static BATCH_RUN: AtomicUsize = AtomicUsize::new(0);
static BATCH_DROPPED: AtomicUsize = AtomicUsize::new(0);
static BATCH_RESET: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BATCH_CASES))]

    /// Every `apply_batch` leaves rows bit-identical to a fresh session,
    /// checked after every batch. A batch in which one peer removes
    /// links while another only adds changes two peers' links, so it
    /// drops the rows a removed link is tight on and repairs none in
    /// place. Several moves by one peer are one peer's diff, repaired in
    /// place: no row is dropped.
    #[test]
    fn batches_repair_or_drop_rows_bit_identically(
        (game, profile, batches) in arb_batch_script()
    ) {
        let mut s = GameSession::new(game.clone(), profile).unwrap();
        s.set_parallelism(forced_parallelism());
        let _ = s.overlay_distances();
        let (mut dropped, mut reset) = (0, 0);
        for (family, p, q, picks) in &batches {
            let moves = batch_moves(s.profile(), *family, *p, *q, picks);
            let before_profile = s.profile().clone();
            let before = s.stats();
            s.apply_batch(&moves).unwrap();
            let after = s.stats();
            let changed: Vec<usize> = (0..game.n())
                .filter(|&k| {
                    let k = PeerId::new(k);
                    s.profile().strategy(k) != before_profile.strategy(k)
                })
                .collect();
            match family {
                1 if changed.len() == 2 => {
                    prop_assert_eq!(after.repair_nodes_reset, before.repair_nodes_reset);
                    dropped += after.rows_invalidated - before.rows_invalidated;
                }
                2 => {
                    prop_assert!(changed.len() <= 1);
                    prop_assert_eq!(after.rows_invalidated, before.rows_invalidated);
                    prop_assert_eq!(after.full_sssp, before.full_sssp);
                    reset += after.repair_nodes_reset - before.repair_nodes_reset;
                }
                _ => {}
            }
            let rows = s.overlay_distances().clone();
            let fresh = GameSession::new(game.clone(), s.profile().clone())
                .unwrap()
                .overlay_distances()
                .clone();
            same_bits(&rows, &fresh)?;
        }
        BATCH_DROPPED.fetch_add(dropped, Ordering::SeqCst);
        BATCH_RESET.fetch_add(reset, Ordering::SeqCst);
        if BATCH_RUN.fetch_add(1, Ordering::SeqCst) + 1 == BATCH_CASES as usize {
            prop_assert!(
                BATCH_DROPPED.load(Ordering::SeqCst) > 0,
                "no batch of a remover and an adder dropped a row"
            );
            prop_assert!(
                BATCH_RESET.load(Ordering::SeqCst) > 0,
                "no batch of one peer's moves reset a node"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `social_cost`, `all_peer_costs`, `max_stretch` and
    /// `stretch_matrix` equal a session-free reference bit for bit
    /// (fresh Dijkstra per source over `topology`, reduced in the
    /// documented order), checked after every step of a script that
    /// interleaves `apply` and `apply_batch`.
    #[test]
    fn readouts_equal_the_sessionless_reference(
        (game, profile, batches) in arb_batch_script()
    ) {
        let mut s = GameSession::new(game, profile).unwrap();
        s.set_parallelism(forced_parallelism());
        support::readouts_match(&mut s, 0)?;
        for (step, (family, p, q, picks)) in batches.iter().enumerate() {
            let moves = batch_moves(s.profile(), *family, *p, *q, picks);
            if step % 2 == 0 {
                s.apply_batch(&moves).unwrap();
            } else {
                for mv in moves {
                    s.apply(mv).unwrap();
                }
            }
            support::readouts_match(&mut s, step + 1)?;
        }
    }
}
