//! Benchmarks of the best-response solvers (E1/E4 kernel): the facility
//! location reduction under each solve strategy, on the uncached free
//! function at small `n`, and through a warmed `GameSession` at the
//! 112-peer size of the `dynamics` benchmark, where the UFL solve is a
//! large share of each call.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{best_response, BestResponseMethod, Game, GameSession, PeerId, StrategyProfile};
use sp_dynamics::{run_config_on_session, DynamicsConfig, ResponseRule};
use sp_metric::generators;

/// Peers of the session cases: the `dynamics` benchmark's instance size.
const SESSION_PEERS: usize = 112;

fn setup(n: usize, alpha: f64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(11);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, alpha).expect("valid");
    // A plausible mid-dynamics profile: directed ring plus shortcuts.
    let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    links.extend((0..n).map(|i| (i, (i + n / 2) % n)));
    let profile = StrategyProfile::from_links(n, &links).expect("valid");
    (game, profile)
}

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_response");
    for n in [12usize, 16, 24] {
        let (game, profile) = setup(n, 4.0);
        for (name, method) in [
            ("exact_bb", BestResponseMethod::Exact),
            ("greedy", BestResponseMethod::Greedy),
            ("local_search", BestResponseMethod::LocalSearch),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, n),
                &(&game, &profile),
                |b, (game, profile)| {
                    b.iter(|| {
                        black_box(
                            best_response(game, profile, PeerId::new(0), method).expect("valid"),
                        )
                    });
                },
            );
        }
        // Enumeration only fits the smaller sizes.
        if n <= 16 {
            group.bench_with_input(
                BenchmarkId::new("exact_enumeration", n),
                &(&game, &profile),
                |b, (game, profile)| {
                    b.iter(|| {
                        black_box(
                            best_response(
                                game,
                                profile,
                                PeerId::new(0),
                                BestResponseMethod::ExactEnumeration,
                            )
                            .expect("valid"),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

/// A session on a mid-dynamics profile — one round of greedy
/// best-response dynamics from the ring-plus-shortcuts start — with
/// every overlay row already valid, so a `best_response` call costs one
/// oracle build from the cache plus the UFL solve.
fn warmed_session(n: usize) -> GameSession {
    let (game, start) = setup(n, 2.5);
    let mut session = GameSession::new(game, start).expect("valid");
    let config = DynamicsConfig {
        rule: ResponseRule::BestResponseWith(BestResponseMethod::Greedy),
        max_rounds: 1,
        detect_cycles: false,
        ..DynamicsConfig::default()
    };
    run_config_on_session(config, &mut session);
    session
        .best_response(PeerId::new(0), BestResponseMethod::Greedy)
        .expect("valid");
    session
}

/// Wall time of one warmed `GameSession::best_response` at `n = 112`,
/// cycling through the responding peers.
fn bench_session_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_response");
    let mut session = warmed_session(SESSION_PEERS);
    for (name, method) in [
        ("session_greedy", BestResponseMethod::Greedy),
        ("session_local_search", BestResponseMethod::LocalSearch),
    ] {
        let mut peer = 0;
        group.bench_function(BenchmarkId::new(name, SESSION_PEERS), |b| {
            b.iter(|| {
                peer = (peer + 1) % SESSION_PEERS;
                black_box(
                    session
                        .best_response(PeerId::new(peer), method)
                        .expect("valid"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods, bench_session_methods);
criterion_main!(benches);
