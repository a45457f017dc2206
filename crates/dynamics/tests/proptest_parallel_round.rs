//! A sharded simultaneous round must be **bit-identical** to a round on
//! one shard.
//!
//! `run_simultaneous` runs every round through
//! `GameSession::best_responses_round` (see `simultaneous`), which
//! snapshots the round-start state, reuses its distance rows inside every
//! oracle, and fans the oracles out over `fork_readonly` worker shards
//! with a round-robin peer→shard interleave — or, at one shard, runs them
//! on the calling thread. The determinism contract says the shard count
//! is unobservable: identical accepted-move sets (traces), identical
//! termination, identical round and move counts — for any shard count,
//! including 1 and more shards than peers.

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, StrategyProfile};
use sp_dynamics::churn::ChurnSimulator;
use sp_dynamics::simultaneous::{run_simultaneous, SimultaneousConfig, SimultaneousOutcome};
use sp_metric::generators;

/// A random small game plus a random (possibly disconnected) start
/// profile — disconnection exercises the `∞`-cost branches of the
/// oracle-row reuse test.
fn arb_instance() -> impl Strategy<Value = (Game, StrategyProfile)> {
    (2usize..=9, 0u64..10_000, 0.2f64..12.0).prop_flat_map(|(n, seed, alpha)| {
        let max_links = (n * (n - 1)).min(18);
        proptest::collection::vec((0..n, 0..n), 0..=max_links).prop_map(move |pairs| {
            let mut rng = StdRng::seed_from_u64(seed);
            let space = generators::uniform_square(n, 100.0, &mut rng);
            let game = Game::from_space(&space, alpha).unwrap();
            let links: Vec<(usize, usize)> = pairs.into_iter().filter(|&(u, v)| u != v).collect();
            let profile = StrategyProfile::from_links(n, &links).unwrap();
            (game, profile)
        })
    })
}

/// CI's determinism matrix sets `SP_TEST_PARALLELISM` to pin every
/// shard-count parameter these tests exercise, so the suite runs at
/// forced parallelism extremes (1 and 8) and shard-count-dependent
/// nondeterminism cannot land.
fn forced_parallelism() -> Option<usize> {
    std::env::var("SP_TEST_PARALLELISM").ok()?.parse().ok()
}

/// The shard counts to compare against the sequential reference: the
/// forced matrix value when set, otherwise a spread including a
/// degenerate pool and one far above the peer count.
fn shard_counts() -> Vec<usize> {
    match forced_parallelism() {
        Some(k) => vec![k],
        None => vec![2, 3, 17],
    }
}

fn run_with(
    game: &Game,
    start: &StrategyProfile,
    parallelism: Option<usize>,
    method: BestResponseMethod,
) -> SimultaneousOutcome {
    let config = SimultaneousConfig {
        method,
        max_rounds: 60,
        parallelism,
        record_trace: true,
        ..SimultaneousConfig::default()
    };
    run_simultaneous(game, start.clone(), &config)
}

/// Field-by-field equality with bitwise cost comparison (`PartialEq` on
/// the trace already compares costs with `f64` equality, which is bit
/// equality for non-NaN values — exactly the contract we enforce).
fn assert_identical(a: &SimultaneousOutcome, b: &SimultaneousOutcome, label: &str) {
    assert_eq!(a.profile, b.profile, "{label}: final profile");
    assert_eq!(a.termination, b.termination, "{label}: termination");
    assert_eq!(a.rounds, b.rounds, "{label}: rounds");
    assert_eq!(a.moves, b.moves, "{label}: moves");
    assert_eq!(a.trace, b.trace, "{label}: trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sharded_rounds_are_bit_identical_to_sequential((game, start) in arb_instance()) {
        // One-shard reference: every oracle on the calling thread.
        let sequential = run_with(&game, &start, Some(1), BestResponseMethod::Exact);
        for shards in shard_counts() {
            let sharded = run_with(&game, &start, Some(shards), BestResponseMethod::Exact);
            assert_identical(&sequential, &sharded, &format!("shards = {shards}"));
            if shards > 1 && matches!(
                sharded.termination,
                sp_dynamics::Termination::Converged { .. } | sp_dynamics::Termination::Cycle { .. }
            ) && sharded.rounds > 0 {
                prop_assert!(
                    sharded.stats.oracle_parallel_rounds > 0,
                    "explicit Some({shards}) must actually fan out: {:?}",
                    sharded.stats
                );
            }
        }
    }

    #[test]
    fn heuristic_methods_keep_the_contract((game, start) in arb_instance()) {
        // The contract is about the engine, not the solver: heuristic
        // UFL solvers must shard identically too.
        let shards = forced_parallelism().unwrap_or(4);
        for method in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
            let sequential = run_with(&game, &start, Some(1), method);
            let sharded = run_with(&game, &start, Some(shards), method);
            assert_identical(&sequential, &sharded, &format!("{method:?}"));
        }
    }

    #[test]
    fn churn_settle_rounds_is_engine_independent(n in 3usize..=8, seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = generators::uniform_square(n, 100.0, &mut rng);
        let universe = Game::from_space(&space, 2.0).unwrap();
        let run = |parallelism: Option<usize>| {
            let config = SimultaneousConfig {
                max_rounds: 60,
                parallelism,
                ..SimultaneousConfig::default()
            };
            let mut sim = ChurnSimulator::new(&universe);
            let mut records = vec![sim.settle_rounds(&config)];
            sim.leave(n / 2).unwrap();
            records.push(sim.settle_rounds(&config));
            sim.join(n / 2).unwrap();
            records.push(sim.settle_rounds(&config));
            (records, sim.profile().clone())
        };
        let (seq_records, seq_profile) = run(Some(1));
        let (par_records, par_profile) = run(Some(forced_parallelism().unwrap_or(3)));
        prop_assert_eq!(seq_records, par_records);
        prop_assert_eq!(seq_profile, par_profile);
    }
}
