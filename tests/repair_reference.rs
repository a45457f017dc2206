//! The session's row repairs against a from-scratch reference, on one
//! session shaped like the 112-peer `dynamics` workload: random 2-D
//! points, the bidirectional ring start, and a link price from the
//! workload's grid `1.0, 1.1, …, 3.9`.
//!
//! The script commits about 200 greedy best-response moves through
//! `GameSession::apply`, which repairs every cached overlay row in place
//! (decrease fold of the added links, then the removal repair), and
//! every 40 moves a few multi-peer `apply_batch`es: simultaneous best
//! responses of several peers, one peer dropping a link while another
//! adds one, and single-link moves of one peer. After every commit each
//! row of `overlay_distances()` must equal, bit for bit, the binary-heap
//! `sp_graph::dijkstra` over the `sp_core::topology` of the profile.

use rand::prelude::*;
use sp_core::{
    topology, BestResponseMethod, Game, GameSession, LinkSet, Move, PeerId, StrategyProfile,
};
use sp_graph::dijkstra;
use sp_metric::{Euclidean2D, Point2};

const PEERS: usize = 112;
const MOVES: usize = 200;
const BATCH_EVERY: usize = 40;

/// Distinct random points on a `100 × 100` grid of step `0.001`, a ring
/// start, and a link price drawn from the grid.
fn session(seed: u64) -> GameSession {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<(u32, u32)> = Vec::with_capacity(PEERS);
    while points.len() < PEERS {
        let p = (rng.random_range(0..100_000), rng.random_range(0..100_000));
        if !points.contains(&p) {
            points.push(p);
        }
    }
    let pts = points
        .iter()
        .map(|&(x, y)| Point2::new(f64::from(x) / 1000.0, f64::from(y) / 1000.0))
        .collect();
    let alpha = 1.0 + f64::from(rng.random_range(0u32..30)) / 10.0;
    let game = Game::from_space(&Euclidean2D::new(pts).unwrap(), alpha).unwrap();
    let ring: Vec<(usize, usize)> = (0..PEERS)
        .flat_map(|p| [(p, (p + 1) % PEERS), ((p + 1) % PEERS, p)])
        .collect();
    let profile = StrategyProfile::from_links(PEERS, &ring).unwrap();
    GameSession::new(game, profile).unwrap()
}

/// Every cached overlay row against a fresh heap Dijkstra of the
/// current topology, bit for bit.
fn assert_rows_match_reference(s: &mut GameSession, what: &str) {
    let g = topology(s.game(), s.profile()).unwrap();
    let rows = s.overlay_distances().clone();
    for u in 0..PEERS {
        let fresh = dijkstra(&g, u);
        let same = rows
            .row(u)
            .iter()
            .zip(&fresh)
            .all(|(kept, fresh)| kept.to_bits() == fresh.to_bits());
        assert!(same, "{what}: overlay row {u} differs from a fresh sweep");
    }
}

/// The greedy best response of `peer`, when it strictly improves.
fn improving(s: &mut GameSession, peer: usize) -> Option<LinkSet> {
    let br = s
        .best_response(PeerId::new(peer), BestResponseMethod::Greedy)
        .unwrap();
    (br.cost < br.current_cost && &br.links != s.profile().strategy(PeerId::new(peer)))
        .then_some(br.links)
}

/// Multi-peer and one-peer batches at the current profile.
fn commit_batches(s: &mut GameSession, rng: &mut StdRng, step: usize) {
    // Simultaneous best responses of a few peers, all against this
    // profile.
    let moves: Vec<Move> = (0..4)
        .map(|_| rng.random_range(0..PEERS))
        .filter_map(|peer| {
            improving(s, peer).map(|links| Move::SetStrategy {
                peer: PeerId::new(peer),
                links,
            })
        })
        .collect();
    s.apply_batch(&moves).unwrap();
    assert_rows_match_reference(s, &format!("round batch after move {step}"));

    // One peer drops a link while another adds one.
    let (a, b) = (rng.random_range(0..PEERS), rng.random_range(0..PEERS));
    let dropped = s.profile().strategy(PeerId::new(a)).iter().next();
    if let (Some(t), true) = (dropped, a != b) {
        let u = (b + 1 + rng.random_range(0..PEERS - 1)) % PEERS;
        let moves = [
            Move::RemoveLink {
                from: PeerId::new(a),
                to: t,
            },
            Move::AddLink {
                from: PeerId::new(b),
                to: PeerId::new(u),
            },
        ];
        s.apply_batch(&moves).unwrap();
        assert_rows_match_reference(s, &format!("mixed batch after move {step}"));
    }

    // One peer swaps a link for another, in single-link moves: its net
    // diff is repaired in place.
    let a = rng.random_range(0..PEERS);
    let links = s.profile().strategy(PeerId::new(a)).clone();
    let dropped = links.iter().next();
    if let Some(t) = dropped {
        let u = (0..PEERS)
            .map(|_| rng.random_range(0..PEERS))
            .find(|&u| u != a && !links.contains(PeerId::new(u)));
        let mut moves = vec![Move::RemoveLink {
            from: PeerId::new(a),
            to: t,
        }];
        moves.extend(u.map(|u| Move::AddLink {
            from: PeerId::new(a),
            to: PeerId::new(u),
        }));
        s.apply_batch(&moves).unwrap();
        assert_rows_match_reference(s, &format!("one-peer batch after move {step}"));
    }
}

#[test]
fn every_repaired_row_matches_a_fresh_heap_sweep() {
    let mut s = session(7);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    assert_rows_match_reference(&mut s, "start");
    let before = s.stats();

    let mut moves = 0;
    let mut quiet = 0;
    let mut peer = 0;
    while moves < MOVES && quiet < PEERS {
        match improving(&mut s, peer) {
            Some(links) => {
                s.apply(Move::SetStrategy {
                    peer: PeerId::new(peer),
                    links,
                })
                .unwrap();
                moves += 1;
                quiet = 0;
                assert_rows_match_reference(&mut s, &format!("move {moves} by peer {peer}"));
                if moves % BATCH_EVERY == 0 {
                    commit_batches(&mut s, &mut rng, moves);
                }
            }
            None => quiet += 1,
        }
        peer = (peer + 1) % PEERS;
    }

    let after = s.stats();
    assert!(moves >= MOVES / 2, "only {moves} moves were committed");
    assert!(
        after.repair_nodes_reset > before.repair_nodes_reset,
        "no move reset a node, so the removal repair never ran"
    );
    assert!(
        after.repair_pops > before.repair_pops,
        "no repair popped a node"
    );
}
