//! Sharded vs sequential best-response oracles on one simultaneous round.
//!
//! Scenario (the workload `GameSession::best_responses_round` was built
//! for): one monitored round of simultaneous-move dynamics on a 64-peer
//! instance, two rounds into the run — the steady state a long dynamics
//! run spends its time in, where the overlay already has best-response
//! structure. The sequential engine computes each peer's oracle by
//! sweeping `G_{-i}` from all 63 candidates — `64 × 63` Dijkstra sweeps
//! per round. The sharded engine freezes the round-start distance
//! snapshot once (64 sweeps), serves every candidate row whose shortest
//! paths avoid the responding peer's out-links straight from that
//! snapshot, holds the others as certified lower bounds, repairs from
//! their snapshot rows with `sp_graph::CsrGraph::dijkstra_without`
//! (recomputing only the subtree below the responder's tight out-links)
//! just the rows the greedy escalates, and fans the oracles out over
//! `fork_readonly` worker shards.
//!
//! Wall-clock is machine-dependent (CI runners differ in core count), so
//! besides the timed comparison the bench reports and **asserts** the
//! machine-independent metric: total full SSSP sweeps must drop by at
//! least 2×. A "sweep" is a full single-source Dijkstra — snapshot fills
//! plus full `G_{-i}` sweeps, which the sharded engine no longer pays
//! since every snapshot row is valid; repaired rows are partial work,
//! counted apart as `oracle_rows_repaired` (unit `rows`). Both engines
//! must return bit-identical responses. Snapshot committed as
//! `BENCH_parallel_round.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{
    BestResponse, BestResponseMethod, Game, GameSession, PeerId, SessionStats, StrategyProfile,
};
use sp_dynamics::simultaneous::{run_simultaneous, SimultaneousConfig};
use sp_metric::generators;

const METHOD: BestResponseMethod = BestResponseMethod::Greedy;
const N: usize = 64;
const SHARDS: usize = 4;

fn instance(n: usize, seed: u64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, 4.0).expect("valid placement");
    // A sparse random starting overlay (~3 out-links per peer): the round
    // then computes a realistic mix of keep/rewire responses.
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
    // Advance two rounds so the monitored round starts from an overlay
    // with best-response structure, not raw random links.
    let warmup = SimultaneousConfig {
        method: METHOD,
        max_rounds: 2,
        ..SimultaneousConfig::default()
    };
    let profile = run_simultaneous(&game, profile, &warmup).profile;
    (game, profile)
}

/// One sequential round: fresh `G_{-i}` oracles, one per peer, on the
/// calling thread — the pre-PR-3 engine (`best_response_uncached` is
/// that code path, kept as the explicit baseline).
fn sequential_round(game: &Game, start: &StrategyProfile) -> (Vec<BestResponse>, SessionStats) {
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    let responses = (0..game.n())
        .map(|i| {
            session
                .best_response_uncached(PeerId::new(i), METHOD)
                .expect("valid")
        })
        .collect();
    (responses, session.stats())
}

/// One sharded round: frozen round-start snapshot, cached-row oracles,
/// `shards` worker threads.
fn sharded_round(
    game: &Game,
    start: &StrategyProfile,
    shards: usize,
) -> (Vec<BestResponse>, SessionStats) {
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    session.set_parallelism(Some(shards));
    let peers: Vec<PeerId> = (0..game.n()).map(PeerId::new).collect();
    let responses = session
        .best_responses_round(&peers, METHOD)
        .expect("valid peers");
    (responses, session.stats())
}

/// Total full single-source sweeps an engine paid for the round: cache
/// fills plus full oracle candidate sweeps (a fresh oracle sweeps all
/// `n - 1` candidates; the cached oracle only rows with no valid snapshot
/// row to repair).
fn oracle_sweeps(stats: &SessionStats, n: usize, fresh_oracles: bool) -> usize {
    let oracle = if fresh_oracles {
        stats.oracle_builds * (n - 1)
    } else {
        stats.seq_oracle_swept
    };
    stats.full_sssp + oracle
}

fn bench_parallel_round(c: &mut Criterion) {
    let (game, start) = instance(N, 42);

    let mut group = c.benchmark_group("simultaneous_round_oracles");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("sequential", N), &N, |b, _| {
        b.iter(|| sequential_round(&game, &start));
    });
    group.bench_with_input(
        BenchmarkId::new(format!("sharded{SHARDS}"), N),
        &N,
        |b, _| {
            b.iter(|| sharded_round(&game, &start, SHARDS));
        },
    );
    group.finish();

    // Verify determinism and report the counters once, outside the timed
    // loops.
    let (seq_responses, seq_stats) = sequential_round(&game, &start);
    let (par_responses, par_stats) = sharded_round(&game, &start, SHARDS);
    assert_eq!(seq_responses.len(), par_responses.len());
    for (a, b) in seq_responses.iter().zip(&par_responses) {
        assert_eq!(a.peer, b.peer);
        assert_eq!(a.links, b.links, "engines disagree for peer {:?}", a.peer);
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "response cost not bit-identical for peer {:?}",
            a.peer
        );
    }
    assert_eq!(par_stats.oracle_parallel_rounds, 1, "round must fan out");
    assert_eq!(par_stats.oracle_shards, SHARDS);

    let seq_sweeps = oracle_sweeps(&seq_stats, N, true);
    let par_sweeps = oracle_sweeps(&par_stats, N, false);
    let reduction = seq_sweeps as f64 / par_sweeps.max(1) as f64;
    let reused_fraction = par_stats.seq_oracle_hits as f64 / (N * (N - 1)) as f64;
    println!(
        "n={N}: oracle SSSP sweeps {seq_sweeps} (sequential) vs {par_sweeps} \
         (sharded×{SHARDS}: {} cache fills + {} fallback sweeps, {:.1}% of candidate \
         rows reused, {} repaired) — {reduction:.1}x less work",
        par_stats.full_sssp,
        par_stats.seq_oracle_swept,
        reused_fraction * 100.0,
        par_stats.oracle_rows_repaired,
    );
    c.report_value(
        &format!("oracle_sweeps/sequential/{N}"),
        seq_sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("oracle_sweeps/sharded{SHARDS}/{N}"),
        par_sweeps as f64,
        "sweeps",
    );
    c.report_value(&format!("oracle_sweeps/reduction/{N}"), reduction, "x");
    c.report_value(
        &format!("oracle_rows_reused_fraction/{N}"),
        reused_fraction,
        "ratio",
    );
    c.report_value(
        &format!("oracle_rows_repaired/sharded{SHARDS}/{N}"),
        par_stats.oracle_rows_repaired as f64,
        "rows",
    );
    assert!(
        reduction >= 2.0,
        "sharded round must cut full SSSP sweeps at least 2x, got {reduction:.2}x \
         ({seq_sweeps} vs {par_sweeps})"
    );
}

criterion_group!(benches, bench_parallel_round);
criterion_main!(benches);
