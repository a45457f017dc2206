//! Integration: the lookup simulator against the analytical model, across
//! equilibria, baselines, and failure scenarios.

use rand::prelude::*;
use selfish_peers::prelude::*;
use selfish_peers::sim::workload;
use sp_core::{social_cost, stretch_matrix};
use sp_metric::generators;

fn converged_equilibrium(n: usize, alpha: f64, seed: u64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, alpha).unwrap();
    let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
    let out = runner.run(StrategyProfile::empty(n));
    assert!(matches!(out.termination, Termination::Converged { .. }));
    (game, out.profile)
}

#[test]
fn simulated_workload_reproduces_the_social_stretch_cost() {
    let (game, profile) = converged_equilibrium(10, 4.0, 3);
    let sim = LookupSimulator::new(&game, &profile, SimConfig::default()).unwrap();
    let stats = sim.run_workload(&workload::all_pairs(10));
    assert_eq!(stats.success_rate(), 1.0);
    // Sum of measured stretches equals the analytical C_S exactly.
    let measured: f64 = stats.results.iter().filter_map(|r| r.stretch(&game)).sum();
    let analytic = social_cost(&game, &profile).unwrap().stretch_cost;
    assert!(
        (measured - analytic).abs() < 1e-6 * (1.0 + analytic),
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn greedy_routing_on_equilibria_is_partial_but_consistent() {
    let (game, profile) = converged_equilibrium(12, 4.0, 5);
    let greedy = LookupSimulator::new(
        &game,
        &profile,
        SimConfig {
            routing: Routing::GreedyMetric,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let stretches = stretch_matrix(&game, &profile).unwrap();
    for (s, d) in workload::all_pairs(12) {
        let r = greedy.lookup(s, d);
        if r.delivered {
            // Greedy latency is at least the shortest-path latency.
            let measured = r.stretch(&game).unwrap();
            assert!(measured >= stretches[(s, d)] - 1e-9);
        }
    }
}

#[test]
fn failures_degrade_lookups_consistently_with_resilience_analysis() {
    use selfish_peers::analysis::resilience::single_failure_impact;
    let (game, profile) = converged_equilibrium(10, 4.0, 11);
    // Pick some peer to kill; the simulator (stale tables) must lose at
    // least the pairs the resilience analysis says are disconnected.
    for victim in 0..4 {
        let impact = single_failure_impact(&game, &profile, victim).unwrap();
        let mut sim = LookupSimulator::new(&game, &profile, SimConfig::default()).unwrap();
        sim.kill_peers(&[victim]);
        let pairs: Vec<(usize, usize)> = workload::all_pairs(10)
            .into_iter()
            .filter(|&(s, d)| s != victim && d != victim)
            .collect();
        let stats = sim.run_workload(&pairs);
        let lost = stats.results.iter().filter(|r| !r.delivered).count();
        assert!(
            lost >= impact.disconnected_pairs,
            "victim {victim}: stale-table losses {lost} < structural losses {}",
            impact.disconnected_pairs
        );
    }
}
