//! Property tests for snapshot persistence fidelity.
//!
//! The registry's whole eviction story rests on one contract:
//! serialise → restore is **lossless** — the restored session carries
//! the same game and profile and answers every query bit-identically,
//! whatever interleaving of mutations and queries warmed the source
//! session's caches (the restored session starts cold and rebuilds its
//! rows on demand). These tests drive arbitrary apply/query scripts,
//! push the session through the full text pipeline (the same
//! `snapshot::session_to_value` / `session_from_value` pair the spill
//! files use), and compare state and subsequent answers.

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, LinkSet, Move, PeerId, StrategyProfile};
use sp_metric::generators;
use sp_serve::snapshot;

/// A random small game, initial profile, and interleaved script of
/// moves (`kind < 3`) and queries (`kind >= 3`).
#[allow(clippy::type_complexity)]
fn arb_script() -> impl Strategy<Value = (Game, StrategyProfile, Vec<(u8, usize, usize)>)> {
    (2usize..=7, 0u64..10_000, 0.1f64..6.0).prop_flat_map(|(n, seed, alpha)| {
        let max_links = (n * (n - 1)).min(14);
        (
            proptest::collection::vec((0..n, 0..n), 0..=max_links),
            proptest::collection::vec((0u8..7, 0..n, 0..n), 1..14),
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

/// Plays one script step: moves mutate, queries warm the cached
/// overlay rows.
fn step(session: &mut GameSession, kind: u8, a: usize, b: usize) {
    let n = session.n();
    match kind {
        0 if a != b => {
            session
                .apply(Move::AddLink {
                    from: PeerId::new(a),
                    to: PeerId::new(b),
                })
                .unwrap();
        }
        1 if a != b => {
            session
                .apply(Move::RemoveLink {
                    from: PeerId::new(a),
                    to: PeerId::new(b),
                })
                .unwrap();
        }
        2 => {
            let links: LinkSet = (0..n)
                .filter(|&v| v != a && !(v + b).is_multiple_of(3))
                .collect();
            session
                .apply(Move::SetStrategy {
                    peer: PeerId::new(a),
                    links,
                })
                .unwrap();
        }
        3 => {
            let _ = session.social_cost();
        }
        4 => {
            let _ = session.best_response(PeerId::new(a), BestResponseMethod::Greedy);
        }
        5 => {
            let _ = session.peer_cost(PeerId::new(a));
        }
        6 => {
            let _ = session.max_stretch();
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → restore yields the same game and profile and
    /// bit-identical answers, across arbitrary interleaved apply/query
    /// scripts — including under further mutations afterwards.
    #[test]
    fn snapshot_roundtrip_is_bit_identical(
        (game, profile, script) in arb_script()
    ) {
        let mut original = GameSession::from_refs(&game, &profile).unwrap();
        for &(kind, a, b) in &script {
            step(&mut original, kind, a, b);
        }

        // Through the full text pipeline, exactly like a spill file.
        let text = snapshot::session_to_value(&mut original).to_string_compact();
        let mut restored = snapshot::session_from_value(&text.parse().unwrap()).unwrap();

        // State: the profile the snapshot carries.
        prop_assert_eq!(original.snapshot(), restored.snapshot(), "profile diverged");
        prop_assert_eq!(restored.game(), original.game(), "game diverged");

        // Behaviour: queries answer bitwise-equal now…
        prop_assert_eq!(
            original.social_cost().total().to_bits(),
            restored.social_cost().total().to_bits()
        );
        for i in 0..original.n() {
            let peer = PeerId::new(i);
            let a = original.peer_cost(peer).unwrap();
            let b = restored.peer_cost(peer).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "peer {} cost bits differ", i);
            let br_o = original.best_response(peer, BestResponseMethod::Greedy).unwrap();
            let br_r = restored.best_response(peer, BestResponseMethod::Greedy).unwrap();
            prop_assert_eq!(&br_o.links, &br_r.links, "peer {} response links differ", i);
            prop_assert_eq!(br_o.cost.to_bits(), br_r.cost.to_bits());
            let mv_o = original.first_improving_move(peer, 1e-9).unwrap();
            let mv_r = restored.first_improving_move(peer, 1e-9).unwrap();
            prop_assert_eq!(
                mv_o.as_ref().map(|m| (&m.links, m.cost.to_bits())),
                mv_r.as_ref().map(|m| (&m.links, m.cost.to_bits())),
                "peer {} better response differs", i
            );
        }
        prop_assert_eq!(original.stretch_matrix(), restored.stretch_matrix());

        // …and keep answering equal after further interleaved traffic
        // replayed on both (the "restored session keeps living" case a
        // registry depends on).
        for &(kind, a, b) in script.iter().rev() {
            step(&mut original, kind, a, b);
            step(&mut restored, kind, a, b);
            prop_assert_eq!(
                original.social_cost().total().to_bits(),
                restored.social_cost().total().to_bits(),
                "post-restore behaviour diverged"
            );
        }
        prop_assert_eq!(original.profile(), restored.profile());
    }

    /// Snapshot files are deterministic: the same session state writes
    /// byte-identical text (what makes the registry's skip-rewrite
    /// `dirty` optimisation safe to reason about).
    #[test]
    fn snapshot_text_is_deterministic(
        (game, profile, script) in arb_script()
    ) {
        let mut a = GameSession::from_refs(&game, &profile).unwrap();
        let mut b = GameSession::from_refs(&game, &profile).unwrap();
        for &(kind, x, y) in &script {
            step(&mut a, kind, x, y);
            step(&mut b, kind, x, y);
        }
        let ta = snapshot::session_to_value(&mut a).to_string_compact();
        let tb = snapshot::session_to_value(&mut b).to_string_compact();
        prop_assert_eq!(ta, tb);
    }
}
