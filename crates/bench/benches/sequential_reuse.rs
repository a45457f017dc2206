//! Persistent oracle cache vs fresh oracles on a sequential dynamics run.
//!
//! Scenario: a full sequential **better-response** dynamics run — the
//! paper's Section-5 low-churn dynamic, where every accepted move is a
//! single-link drop/add/swap — on a 64-peer α = 1 instance, two
//! best-response rounds into the run. The fresh engine
//! (`DynamicsConfig { oracle_reuse: false }`) sweeps a fresh `G_{-i}`
//! oracle per activation — `n - 1` Dijkstra sweeps each, every
//! activation. The cached engine runs `GameSession::first_improving_move`,
//! a lazy scan over the session's persistent overlay rows: every overlay
//! row survives `apply`, which repairs the rows a removed link was tight
//! on in place, candidate moves are first rejected on certified lower
//! bounds (dirty overlay rows), and only the survivors pay for exact
//! residual rows. An exact row comes from its overlay row through
//! `sp_graph::CsrGraph::dijkstra_without`, which recomputes only the
//! shortest-path subtree below the responder's tight out-links.
//!
//! A "sweep" here is a full single-source Dijkstra. The cached engine
//! sweeps only to refill overlay rows (`full_sssp`): every scan refills
//! the invalid rows before it reads any, so no candidate row pays a
//! sweep of its own. Repaired rows are partial work and are counted
//! apart, as `seq_oracle_rows_repaired` (unit `rows`).
//!
//! Wall-clock is machine-dependent, so besides the timed comparison the
//! bench reports and **asserts** the machine-independent metric: total
//! full SSSP sweeps over the whole run must drop by at least 2×, with
//! both engines producing bit-identical runs. Snapshot committed as
//! `BENCH_sequential_reuse.json`.
//!
//! A second case runs **best-response** dynamics (Greedy) on the same
//! instance. Its cached engine commits each accepted response with
//! `GameSession::apply`, which repairs every row a removed link was
//! tight on in place, so a run sweeps each overlay row once to fill the
//! cache and never again. The bench reports those sweeps as
//! `seq_br_sweeps/cached/64` and asserts they stay within `n`. Its greedy
//! oracles hold dirty candidate rows as certified lower bounds and derive
//! a residual row only when the greedy escalates it; the residual rows
//! derived over the run are reported as `seq_br_rows_repaired/cached/64`
//! (unit `rows`) and asserted below the 6,474 rows of the oracles that
//! derived every dirty row. Each `apply` folds the mover's new links
//! into a row before the removal kernel takes its dropped links out;
//! the nodes that kernel resets over the run are reported as
//! `seq_apply_nodes_reset/64` (unit `visits`) and asserted below the
//! count of the remove-first order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, SessionStats, StrategyProfile};
use sp_dynamics::{DynamicsConfig, DynamicsOutcome, DynamicsRunner, ResponseRule};
use sp_metric::generators;

/// The warm-up's method, and the method of the best-response case.
const METHOD: BestResponseMethod = BestResponseMethod::Greedy;
const N: usize = 64;
const MAX_ROUNDS: usize = 12;

fn instance(n: usize, seed: u64) -> (Game, StrategyProfile) {
    instance_at_alpha(n, seed, 1.0)
}

fn instance_at_alpha(n: usize, seed: u64, alpha: f64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, alpha).expect("valid placement");
    // A sparse random starting overlay (~3 out-links per peer): the run
    // then performs a realistic mix of adds, drops, and rewires before
    // settling.
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
    // Advance two sequential rounds so the monitored run starts from an
    // overlay with best-response structure (the steady state a long run
    // spends its time in), mirroring the parallel_round methodology.
    let warmup = DynamicsConfig {
        rule: ResponseRule::BestResponseWith(METHOD),
        max_rounds: 2,
        detect_cycles: false,
        ..DynamicsConfig::default()
    };
    let profile = DynamicsRunner::new(&game, warmup).run(profile).profile;
    (game, profile)
}

fn run_engine(
    game: &Game,
    start: &StrategyProfile,
    oracle_reuse: bool,
) -> (DynamicsOutcome, SessionStats) {
    run_rule(game, start, ResponseRule::BetterResponse, oracle_reuse)
}

fn run_rule(
    game: &Game,
    start: &StrategyProfile,
    rule: ResponseRule,
    oracle_reuse: bool,
) -> (DynamicsOutcome, SessionStats) {
    let config = DynamicsConfig {
        rule,
        max_rounds: MAX_ROUNDS,
        oracle_reuse,
        ..DynamicsConfig::default()
    };
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    let mut runner = DynamicsRunner::new(game, config);
    let out = runner.run_session(&mut session);
    (out, session.stats())
}

/// Total full single-source sweeps an engine paid across the run: cache
/// fills (`full_sssp`), plus all `n - 1` candidate sweeps per build for
/// the fresh engine (the cached engine's repairs are counted apart).
fn oracle_sweeps(stats: &SessionStats, n: usize, fresh_oracles: bool) -> usize {
    let oracle = if fresh_oracles {
        stats.oracle_builds * (n - 1)
    } else {
        0
    };
    stats.full_sssp + oracle
}

fn bench_sequential_reuse(c: &mut Criterion) {
    let (game, start) = instance(N, 42);

    let mut group = c.benchmark_group("sequential_dynamics_oracles");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("fresh", N), &N, |b, _| {
        b.iter(|| run_engine(&game, &start, false));
    });
    group.bench_with_input(BenchmarkId::new("cached", N), &N, |b, _| {
        b.iter(|| run_engine(&game, &start, true));
    });
    group.finish();

    // Verify the engines agree and report the counters once, outside the
    // timed loops.
    let (fresh_out, fresh_stats) = run_engine(&game, &start, false);
    let (cached_out, cached_stats) = run_engine(&game, &start, true);
    assert_eq!(fresh_out.profile, cached_out.profile, "engines diverged");
    assert_eq!(fresh_out.termination, cached_out.termination);
    assert_eq!(fresh_out.steps, cached_out.steps);
    assert_eq!(fresh_out.moves, cached_out.moves);

    let fresh_sweeps = oracle_sweeps(&fresh_stats, N, true);
    let cached_sweeps = oracle_sweeps(&cached_stats, N, false);
    let reduction = fresh_sweeps as f64 / cached_sweeps.max(1) as f64;
    let repaired = cached_stats.oracle_rows_repaired;
    let total_rows = cached_stats.seq_oracle_hits + repaired;
    let hit_rate = cached_stats.seq_oracle_hits as f64 / total_rows.max(1) as f64;
    println!(
        "n={N}: {} activations, {} moves; oracle SSSP sweeps {fresh_sweeps} (fresh) vs \
         {cached_sweeps} (cached fills, {:.1}% of exact candidate rows served verbatim \
         from cache, {repaired} rows repaired) — {reduction:.1}x less work",
        cached_out.steps,
        cached_out.moves,
        hit_rate * 100.0,
    );
    c.report_value(
        &format!("seq_oracle_sweeps/fresh/{N}"),
        fresh_sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("seq_oracle_sweeps/cached/{N}"),
        cached_sweeps as f64,
        "sweeps",
    );
    c.report_value(&format!("seq_oracle_sweeps/reduction/{N}"), reduction, "x");
    c.report_value(&format!("seq_oracle_hit_rate/{N}"), hit_rate, "ratio");
    c.report_value(
        &format!("seq_oracle_rows_repaired/{N}"),
        repaired as f64,
        "rows",
    );
    assert!(
        reduction >= 2.0,
        "the persistent oracle cache must cut sequential full SSSP sweeps at least 2x, \
         got {reduction:.2}x ({fresh_sweeps} vs {cached_sweeps})"
    );

    bench_best_response_dynamics(c, &game, &start);
    bench_monitored_mover(c, &game, &start);
    bench_lazy_oracle(c);
}

/// Residual rows the best-response case derived when every cached
/// oracle derived every dirty candidate row before solving.
const EAGER_BR_ROWS_REPAIRED: usize = 6_474;

/// Nodes the removal kernel reset in the best-response case's `apply`
/// repairs when each row had the removed links taken out before the
/// added ones were folded in.
const REMOVE_FIRST_NODES_RESET: usize = 897;

/// Best-response dynamics on the warmed instance. The cached engine's
/// `apply` repairs every row an accepted move breaks in place, so after
/// the first activation fills the `n` overlay rows no row is swept
/// again. The gated counters are the run's full sweeps (cache fills,
/// as above), asserted to be at most `n`, the
/// residual rows its oracles derived, asserted below
/// [`EAGER_BR_ROWS_REPAIRED`], and the nodes `apply`'s removal kernel
/// reset, asserted below [`REMOVE_FIRST_NODES_RESET`]: each move folds
/// its new links in first, so only distances that grew are reset.
fn bench_best_response_dynamics(c: &mut Criterion, game: &Game, start: &StrategyProfile) {
    let rule = ResponseRule::BestResponseWith(METHOD);
    let mut group = c.benchmark_group("best_response_dynamics");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cached", N), &N, |b, _| {
        b.iter(|| run_rule(game, start, rule, true));
    });
    group.finish();

    let (fresh_out, _) = run_rule(game, start, rule, false);
    let (out, stats) = run_rule(game, start, rule, true);
    assert_eq!(
        fresh_out.profile, out.profile,
        "best-response engines diverged"
    );
    assert_eq!(fresh_out.termination, out.termination);
    assert_eq!(fresh_out.steps, out.steps);
    assert_eq!(fresh_out.moves, out.moves);

    let sweeps = oracle_sweeps(&stats, N, false);
    let repaired = stats.oracle_rows_repaired;
    println!(
        "best-response dynamics: {} activations, {} moves — {sweeps} full sweeps, \
         {} rows invalidated, {repaired} residual rows derived, \
         {} candidate rows held as bounds, {} nodes reset by move repairs",
        out.steps,
        out.moves,
        stats.rows_invalidated,
        stats.oracle_rows_bounded,
        stats.repair_nodes_reset,
    );
    c.report_value(
        &format!("seq_br_sweeps/cached/{N}"),
        sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("seq_br_rows_repaired/cached/{N}"),
        repaired as f64,
        "rows",
    );
    let reset = stats.repair_nodes_reset;
    c.report_value(
        &format!("seq_apply_nodes_reset/{N}"),
        reset as f64,
        "visits",
    );
    assert!(
        reset < REMOVE_FIRST_NODES_RESET,
        "folding a move's new links in first must reset fewer nodes than removing first: \
         {reset} vs {REMOVE_FIRST_NODES_RESET}"
    );
    assert!(
        repaired < EAGER_BR_ROWS_REPAIRED,
        "greedy oracles must derive fewer residual rows than oracles that derive every \
         dirty row: {repaired} vs {EAGER_BR_ROWS_REPAIRED}"
    );
    assert!(
        sweeps <= N,
        "an applied best response must sweep no row: {sweeps} sweeps for {} moves on \
         {N} peers",
        out.moves
    );
}

/// The monitoring pattern: a loop that mutates one hot peer and
/// immediately rebuilds that peer's oracle — the `sp-serve` pattern of
/// an `apply` followed by a same-peer `best_response`. The mover's own
/// edits break the overlay rows tight on its removed out-links, and
/// `apply` repairs them in place, so the loop sweeps each row once, to
/// fill the cache. The gated counter is the total monitor sweeps (must
/// not regress).
fn bench_monitored_mover(c: &mut Criterion, game: &Game, start: &StrategyProfile) {
    const MONITOR_STEPS: usize = 24;
    let run = |session: &mut GameSession| {
        for k in 0..MONITOR_STEPS {
            let peer = sp_core::PeerId::new(7);
            let br = session.best_response(peer, METHOD).expect("in bounds");
            // Perturb the hot peer's links deterministically so every
            // step breaks rows tight on its out-links.
            let t = sp_core::PeerId::new((11 + 5 * k) % N);
            let links = if t == peer {
                br.links
            } else if br.links.contains(t) {
                br.links.without(t)
            } else {
                br.links.with(t)
            };
            session
                .apply(sp_core::Move::SetStrategy { peer, links })
                .expect("in bounds");
        }
    };

    let mut group = c.benchmark_group("monitored_mover");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cached", N), &N, |b, _| {
        b.iter(|| {
            let mut s = GameSession::new(game.clone(), start.clone()).expect("sizes match");
            run(&mut s);
        });
    });
    group.finish();

    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    run(&mut session);
    let stats = session.stats();
    let sweeps = stats.full_sssp;
    println!(
        "monitored mover: {MONITOR_STEPS} apply+rebuild steps — {sweeps} refills, \
         {} rows repaired",
        stats.oracle_rows_repaired,
    );
    c.report_value(
        &format!("monitor_oracle_sweeps/{N}"),
        sweeps as f64,
        "sweeps",
    );
}

/// The certified-lower-bound scan behind the cached
/// `first_improving_move`: it rejects hopeless candidate rows from a
/// certified bound without materialising their exact `G_{-i}` distances,
/// and pays the exact evaluation only for survivors — bit-identically to
/// the fresh engine. Measured at α = 4, where sparse overlays route most
/// rows through hub peers and bound-driven rejection matters most. The
/// gated counters: candidates absorbed by the certified bound (`hits`,
/// must stay high), exact evaluations paid (`count`, must not regress),
/// and their ratio as the headline reduction (`x`).
fn bench_lazy_oracle(c: &mut Criterion) {
    const ALPHA: f64 = 4.0;
    let (game, start) = instance_at_alpha(N, 42, ALPHA);
    let run = |oracle_reuse: bool| {
        let config = DynamicsConfig {
            rule: ResponseRule::BetterResponse,
            max_rounds: MAX_ROUNDS,
            oracle_reuse,
            ..DynamicsConfig::default()
        };
        let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
        let mut runner = DynamicsRunner::new(&game, config);
        let out = runner.run_session(&mut session);
        (out, session.stats())
    };

    let mut group = c.benchmark_group("lazy_oracle_dynamics");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("fresh", N), &N, |b, _| {
        b.iter(|| run(false));
    });
    group.bench_with_input(BenchmarkId::new("lazy", N), &N, |b, _| {
        b.iter(|| run(true));
    });
    group.finish();

    let (fresh_out, _) = run(false);
    let (lazy_out, lazy_stats) = run(true);
    assert_eq!(fresh_out.profile, lazy_out.profile, "lazy oracle diverged");
    assert_eq!(fresh_out.termination, lazy_out.termination);
    assert_eq!(fresh_out.steps, lazy_out.steps);
    assert_eq!(fresh_out.moves, lazy_out.moves);

    let rejects = lazy_stats.lazy_certified_rejects;
    let evals = lazy_stats.lazy_exact_evals;
    let reduction = (rejects + evals) as f64 / evals.max(1) as f64;
    println!(
        "lazy oracle (alpha={ALPHA}): {} activations — {} candidates certified away, \
         {} exact evaluations paid ({reduction:.1}x fewer evals than a full scan)",
        lazy_out.steps, rejects, evals,
    );
    c.report_value(
        &format!("lazy_certified_rejects/{N}"),
        rejects as f64,
        "hits",
    );
    c.report_value(&format!("lazy_exact_evals/{N}"), evals as f64, "count");
    c.report_value(&format!("lazy_eval_reduction/{N}"), reduction, "x");
    assert!(
        rejects > 0 && evals > 0,
        "the lazy scan must both reject and evaluate: {lazy_stats:?}"
    );
    assert!(
        reduction >= 1.5,
        "certified bounds must absorb a meaningful share of candidate evaluations, \
         got {reduction:.2}x ({rejects} rejects vs {evals} evals)"
    );
}

criterion_group!(benches, bench_sequential_reuse);
criterion_main!(benches);
