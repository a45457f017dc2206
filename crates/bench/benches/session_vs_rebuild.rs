//! `GameSession` vs the legacy rebuild-per-call path on one monitored
//! best-response-dynamics round.
//!
//! Scenario (the workload the session API was designed for): a round of
//! best-response dynamics over `n` peers where the social cost is read
//! after every activation — the standard convergence-monitoring loop of
//! the experiments. The legacy path rebuilds the overlay and reruns
//! shortest paths for every query; the session keeps the overlay
//! distance matrix resident and repairs it incrementally per accepted
//! move.
//!
//! Besides the wall-clock comparison (written to
//! `BENCH_session_vs_rebuild.json`),
//! the bench records the exact number of full single-source sweeps each
//! path performed as `full_sweeps/{session,rebuild}/<n>` counters, so
//! the "≥ 2× fewer full APSP recomputations" claim is directly visible
//! and gated against the committed snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, Move, PeerId, SessionStats, StrategyProfile};
use sp_metric::generators;

const METHOD: BestResponseMethod = BestResponseMethod::Greedy;

fn instance(n: usize, seed: u64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, 4.0).expect("valid placement");
    // A sparse random starting overlay (~3 out-links per peer) so the
    // round performs a realistic mix of adds, drops, and rewires.
    let links: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
            (0..3)
                .map(move |_| (i, rng.random_range(0..n)))
                .collect::<Vec<_>>()
        })
        .filter(|&(a, b)| a != b)
        .collect();
    let profile = StrategyProfile::from_links(n, &links).expect("valid links");
    (game, profile)
}

/// One monitored dynamics round through a single live session.
fn round_session(game: &Game, start: &StrategyProfile) -> (f64, SessionStats) {
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    let mut monitor = 0.0;
    for i in 0..game.n() {
        let peer = PeerId::new(i);
        let br = session.best_response(peer, METHOD).expect("valid");
        if br.improves(1e-9) {
            session
                .apply(Move::SetStrategy {
                    peer,
                    links: br.links,
                })
                .expect("valid");
        }
        monitor = session.social_cost().total();
    }
    (monitor, session.stats())
}

/// The same round, evaluating every query against a cold session — the
/// legacy rebuild-per-call discipline of the free functions, with the
/// sweep counters kept visible. (A cold cached build pays the full
/// n-row fill per query, which is exactly what rebuild-per-call costs.)
fn round_rebuild(game: &Game, start: &StrategyProfile) -> (f64, SessionStats) {
    let mut profile = start.clone();
    let mut monitor = 0.0;
    let mut total = SessionStats::default();
    for i in 0..game.n() {
        let peer = PeerId::new(i);
        let mut cold = GameSession::from_refs(game, &profile).expect("sizes match");
        let br = cold.best_response(peer, METHOD).expect("valid");
        accumulate(&mut total, cold.stats());
        if br.improves(1e-9) {
            profile.set_strategy(peer, br.links).expect("valid");
        }
        let mut cold = GameSession::from_refs(game, &profile).expect("sizes match");
        monitor = cold.social_cost().total();
        accumulate(&mut total, cold.stats());
    }
    (monitor, total)
}

fn accumulate(total: &mut SessionStats, s: SessionStats) {
    total.merge(&s);
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics_round_monitored");
    group.sample_size(10);
    for n in [32usize, 64] {
        let (game, start) = instance(n, 42);
        group.bench_with_input(BenchmarkId::new("session", n), &n, |b, _| {
            b.iter(|| round_session(&game, &start));
        });
        group.bench_with_input(BenchmarkId::new("rebuild", n), &n, |b, _| {
            b.iter(|| round_rebuild(&game, &start));
        });
    }
    group.finish();

    // Report the sweep counts once, outside the timed loops.
    for n in [32usize, 64] {
        let (game, start) = instance(n, 42);
        let (cs, session_stats) = round_session(&game, &start);
        let (cr, rebuild_stats) = round_rebuild(&game, &start);
        assert!(
            (cs - cr).abs() <= 1e-6 * (1.0 + cr.abs()),
            "paths disagree on the monitored cost: {cs} vs {cr}"
        );
        let ratio = rebuild_stats.full_sssp as f64 / session_stats.full_sssp.max(1) as f64;
        println!(
            "n={n}: full SSSP sweeps (cache fills): session {} vs rebuild {} ({ratio:.1}x \
             fewer); oracle fallback sweeps {} vs {} ({} builds each)",
            session_stats.full_sssp,
            rebuild_stats.full_sssp,
            session_stats.seq_oracle_swept,
            rebuild_stats.seq_oracle_swept,
            session_stats.oracle_builds,
        );
        for (path, stats) in [("session", session_stats), ("rebuild", rebuild_stats)] {
            c.report_value(
                &format!("full_sweeps/{path}/{n}"),
                stats.full_sssp as f64,
                "sweeps",
            );
        }
        assert!(
            ratio >= 2.0,
            "session must save at least 2x the full sweeps, got {ratio:.2}x"
        );
    }
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
