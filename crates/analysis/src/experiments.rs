//! The experiments E1–E16, one per paper figure/theorem plus
//! extensions; `experiments list` (the `sp-bench` runner) prints the
//! catalogue with each experiment's subcommand and synopsis. Each function returns a [`Report`]
//! whose tables the `sp-bench` binaries print; `quick` trims the sweeps
//! for smoke tests.

use rand::prelude::*;
use sp_constructions::baselines;
use sp_constructions::fabrikant::FabrikantGame;
use sp_constructions::line::LineLowerBound;
use sp_constructions::no_ne::{CandidateState, Cluster, NoEquilibriumInstance};
use sp_core::{nash_gap, BestResponseMethod, Game, GameSession, NashTest, StrategyProfile};
use sp_dynamics::{DynamicsConfig, DynamicsRunner, ResponseRule, Schedule, Termination};
use sp_metric::generators;

use crate::exhaustive::{exhaustive_nash_scan, ExhaustiveResult};
use crate::poa::PoaEstimator;
use crate::table::fmt_f64;
use crate::{Report, Table};

/// E1 — Lemma 4.2: the Figure 1 profile is a Nash equilibrium for
/// `α ≥ 3.4` (verified with exact best responses).
#[must_use]
pub fn exp_fig1_nash(quick: bool) -> Report {
    let mut report = Report::new(
        "E1",
        "Lemma 4.2: Figure 1 line construction is Nash for α ≥ 3.4",
    );
    report.push_note("exact best responses via branch-and-bound facility location");
    let sizes: &[usize] = if quick {
        &[4, 6, 8]
    } else {
        &[4, 6, 8, 10, 12, 14]
    };
    let alphas = [2.5, 3.0, 3.4, 4.0, 6.0, 10.0];
    let mut t = Table::new(vec!["n", "alpha", "guaranteed", "is_nash", "max_gain"]);
    for &n in sizes {
        for alpha in alphas {
            let lb = LineLowerBound::new(n, alpha).expect("parameters in range");
            let game = lb.game();
            let profile = lb.equilibrium_profile();
            let gap = nash_gap(&game, &profile, BestResponseMethod::Exact).expect("sizes match");
            t.push_row(vec![
                n.to_string(),
                fmt_f64(alpha),
                lb.nash_guaranteed().to_string(),
                (gap <= 1e-9).to_string(),
                fmt_f64(gap),
            ]);
        }
    }
    report.push_table("nash verification", &t);
    report.push_note(
        "expected shape: is_nash = true whenever guaranteed = true (α ≥ 3.4); \
         below the threshold stability may or may not persist",
    );
    report
}

/// E2 — Lemma 4.3: the Figure 1 equilibrium has social cost `Θ(αn²)`.
#[must_use]
pub fn exp_fig1_cost(quick: bool) -> Report {
    let mut report = Report::new("E2", "Lemma 4.3: equilibrium social cost is Θ(αn²)");
    let sizes: &[usize] = if quick {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64, 128, 256]
    };
    let mut t = Table::new(vec!["alpha", "n", "C_E", "C_S", "C", "C/(αn²)"]);
    for alpha in [3.4, 10.0] {
        for &n in sizes {
            let Ok(lb) = LineLowerBound::new(n, alpha) else {
                continue; // positions would overflow f64
            };
            let c = lb.equilibrium_cost();
            t.push_row(vec![
                fmt_f64(alpha),
                n.to_string(),
                fmt_f64(c.link_cost),
                fmt_f64(c.stretch_cost),
                fmt_f64(c.total()),
                fmt_f64(c.total() / (alpha * (n * n) as f64)),
            ]);
        }
    }
    report.push_table("cost scaling", &t);
    report.push_note("expected shape: the C/(αn²) column settles to a constant (Θ(αn²))");
    report
}

/// E3 — Theorem 4.4 (headline): Price of Anarchy of the Figure 1 family
/// is `Θ(min(α, n))`.
#[must_use]
pub fn exp_fig1_poa(quick: bool) -> Report {
    let mut report = Report::new("E3", "Theorem 4.4: Price of Anarchy grows as Θ(min(α, n))");
    let sizes: &[usize] = if quick {
        &[11, 21, 41]
    } else {
        &[11, 21, 41, 81, 161]
    };
    let alphas: &[f64] = if quick {
        &[3.4, 10.0, 25.0]
    } else {
        &[3.4, 10.0, 25.0, 50.0, 100.0]
    };
    let mut t = Table::new(vec![
        "n",
        "alpha",
        "C(G)",
        "C(G~)",
        "PoA_lb",
        "min(α,n)",
        "PoA_lb/min(α,n)",
    ]);
    for &n in sizes {
        for &alpha in alphas {
            let Ok(lb) = LineLowerBound::new(n, alpha) else {
                continue; // α^(n-1) overflows
            };
            let ne = lb.equilibrium_cost().total();
            let reference = lb.reference_cost().total();
            let poa = ne / reference;
            let bound = alpha.min(n as f64);
            t.push_row(vec![
                n.to_string(),
                fmt_f64(alpha),
                fmt_f64(ne),
                fmt_f64(reference),
                fmt_f64(poa),
                fmt_f64(bound),
                fmt_f64(poa / bound),
            ]);
        }
    }
    report.push_table("PoA sweep", &t);
    report.push_note(
        "expected shape: PoA_lb grows with α until α ≈ n and the normalized \
         column stays within a constant band (the paper's Θ(min(α, n)))",
    );
    report
}

/// E4 — Theorem 4.1: equilibria reached by best-response dynamics on
/// arbitrary metrics respect the `α + 1` stretch bound and the
/// `O(min(α, n))` PoA upper bound.
#[must_use]
pub fn exp_upper_bound(quick: bool, seed: u64) -> Report {
    let mut report = Report::new(
        "E4",
        "Theorem 4.1: max stretch ≤ α+1 in equilibria; PoA within O(min(α,n))",
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: &[usize] = if quick { &[8] } else { &[8, 12, 16] };
    let alphas: &[f64] = if quick {
        &[2.0, 8.0]
    } else {
        &[0.5, 2.0, 8.0, 32.0]
    };
    let mut t = Table::new(vec![
        "metric",
        "n",
        "alpha",
        "converged",
        "max_stretch",
        "α+1",
        "nash",
        "PoA_lb",
        "PoA_ub",
        "min(α,n)",
    ]);
    for &n in sizes {
        for &alpha in alphas {
            let metrics: Vec<(&str, Game)> = vec![
                (
                    "uniform-2d",
                    Game::from_space(&generators::uniform_square(n, 100.0, &mut rng), alpha)
                        .expect("valid"),
                ),
                (
                    "clustered",
                    Game::from_space(
                        &generators::ClusteredPoints::new(3, n.div_ceil(3))
                            .area_side(100.0)
                            .cluster_radius(2.0)
                            .build(&mut rng),
                        alpha,
                    )
                    .expect("valid"),
                ),
                (
                    "bounded-ratio",
                    Game::from_space(
                        &generators::random_bounded_ratio_metric(n, 1.0, 2.0, &mut rng),
                        alpha,
                    )
                    .expect("valid"),
                ),
            ];
            for (name, game) in metrics {
                let n_eff = game.n();
                let mut session = GameSession::new(game.clone(), StrategyProfile::empty(n_eff))
                    .expect("sizes match");
                let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
                let out = runner.run_session(&mut session);
                let converged = matches!(out.termination, Termination::Converged { .. });
                // All post-run measurements share the dynamics session's
                // cached overlay distances.
                let ms = session.max_stretch();
                let nash = converged
                    && session
                        .is_nash(&NashTest::exact())
                        .expect("valid")
                        .is_nash();
                let est = PoaEstimator::new(&game);
                let bracket = est.bracket_session(&mut session);
                t.push_row(vec![
                    name.to_owned(),
                    n_eff.to_string(),
                    fmt_f64(alpha),
                    converged.to_string(),
                    fmt_f64(ms),
                    fmt_f64(alpha + 1.0),
                    nash.to_string(),
                    fmt_f64(bracket.poa_lower()),
                    fmt_f64(bracket.poa_upper()),
                    fmt_f64(alpha.min(n_eff as f64)),
                ]);
            }
        }
    }
    report.push_table("equilibria on arbitrary metrics", &t);
    report.push_note(
        "expected shape: max_stretch never exceeds α+1 when nash = true, and \
         PoA_lb stays below (a constant times) min(α, n)",
    );
    report
}

/// E5 — Theorem 5.1: the instance `I_k` admits no pure Nash equilibrium;
/// best-response dynamics provably cycles.
#[must_use]
pub fn exp_no_ne(quick: bool) -> Report {
    let mut report = Report::new(
        "E5",
        "Theorem 5.1: I_k has no pure Nash equilibrium (dynamics cycles)",
    );
    // Part 1: exhaustive certificate for k = 1.
    if quick {
        report.push_note("(--quick: exhaustive 2^20 certificate skipped)");
    } else {
        let inst = NoEquilibriumInstance::paper(1);
        match exhaustive_nash_scan(inst.game(), 1e-9).expect("n = 5 within limit") {
            ExhaustiveResult::NoEquilibrium { profiles_checked } => {
                report.push_note(format!(
                    "k=1: CERTIFIED no pure Nash equilibrium (all {profiles_checked} profiles checked)"
                ));
            }
            ExhaustiveResult::FoundEquilibrium {
                profile,
                profiles_checked,
            } => {
                report.push_note(format!(
                    "k=1: UNEXPECTED equilibrium after {profiles_checked} profiles: {profile}"
                ));
            }
        }
    }
    // Part 2: dynamics cycling for k = 1, 2, 3.
    let ks: &[usize] = if quick { &[1] } else { &[1, 2, 3] };
    let mut t = Table::new(vec![
        "k",
        "n",
        "alpha",
        "start",
        "termination",
        "steps",
        "period",
        "moves_in_cycle",
    ]);
    for &k in ks {
        let inst = NoEquilibriumInstance::paper(k);
        let n = inst.n();
        let starts: Vec<(&str, StrategyProfile)> = vec![
            ("empty", StrategyProfile::empty(n)),
            ("complete", StrategyProfile::complete(n)),
            ("candidate-S1", inst.candidate_profile(CandidateState::S1)),
        ];
        for (name, start) in starts {
            let mut runner = DynamicsRunner::new(
                inst.game(),
                DynamicsConfig {
                    max_rounds: 400,
                    ..DynamicsConfig::default()
                },
            );
            let out = runner.run(start);
            let (term, period, mic) = match out.termination {
                Termination::Converged { .. } => ("CONVERGED (unexpected)", 0, 0),
                Termination::Cycle {
                    period_steps,
                    moves_in_cycle,
                    ..
                } => ("cycle", period_steps, moves_in_cycle),
                Termination::RoundLimit => ("round-limit", 0, 0),
            };
            t.push_row(vec![
                k.to_string(),
                n.to_string(),
                fmt_f64(inst.game().alpha()),
                name.to_owned(),
                term.to_owned(),
                out.steps.to_string(),
                period.to_string(),
                mic.to_string(),
            ]);
        }
    }
    report.push_table("round-robin exact best-response dynamics", &t);
    report.push_note("expected shape: every run ends in a provable cycle, never convergence");
    report
}

/// E6 — Figure 3: each of the six candidate topologies admits an
/// improving deviation by a bottom-cluster peer, and following those
/// deviations reproduces the improvement cycle `1 → 3 → 4 → 2 → 1`.
#[must_use]
pub fn exp_fig3_candidates() -> Report {
    let mut report = Report::new("E6", "Figure 3: all six candidate topologies are unstable");
    let inst = NoEquilibriumInstance::paper(1);
    let game = inst.game();
    let mut t = Table::new(vec![
        "case",
        "Π1 links",
        "Π2 link",
        "deviator",
        "old_cost",
        "new_cost",
        "next_state",
        "top_stable",
    ]);
    let mut transitions: Vec<(usize, Option<usize>)> = Vec::new();
    for s in CandidateState::ALL {
        let profile = inst.candidate_profile(s);
        // The paper's case analysis: which bottom-cluster peer improves?
        let bottoms = [
            inst.representative(Cluster::Bottom1),
            inst.representative(Cluster::Bottom2),
        ];
        let mut best: Option<(sp_core::PeerId, sp_core::LinkSet, f64, f64)> = None;
        for &p in &bottoms {
            let br = sp_core::best_response(game, &profile, p, BestResponseMethod::Exact)
                .expect("valid inputs");
            if br.improves(1e-9) {
                let better = match &best {
                    None => true,
                    Some((_, _, old, new)) => br.improvement() > old - new,
                };
                if better {
                    best = Some((p, br.links.clone(), br.current_cost, br.cost));
                }
            }
        }
        // Are the top clusters already playing best responses?
        let top_stable = [Cluster::TopA, Cluster::TopB, Cluster::TopC]
            .iter()
            .all(|&c| {
                let p = inst.representative(c);
                !sp_core::best_response(game, &profile, p, BestResponseMethod::Exact)
                    .expect("valid inputs")
                    .improves(1e-9)
            });
        match best {
            None => {
                transitions.push((s.case_number(), None));
                t.push_row(vec![
                    s.case_number().to_string(),
                    describe_pi1(s),
                    inst_cluster_label(s.pi2_link()),
                    "NONE".to_owned(),
                    String::new(),
                    String::new(),
                    String::new(),
                    top_stable.to_string(),
                ]);
            }
            Some((peer, links, old, new)) => {
                let next = profile.with_strategy(peer, links).expect("valid deviation");
                let next_case = inst.classify(&next).map(CandidateState::case_number);
                transitions.push((s.case_number(), next_case));
                t.push_row(vec![
                    s.case_number().to_string(),
                    describe_pi1(s),
                    inst_cluster_label(s.pi2_link()),
                    inst.cluster_of(peer).label().to_owned(),
                    fmt_f64(old),
                    fmt_f64(new),
                    next_case.map_or_else(|| "outside family".to_owned(), |c| format!("case {c}")),
                    top_stable.to_string(),
                ]);
            }
        }
    }
    report.push_table("candidate instability (bottom-cluster case analysis)", &t);
    // Walk the induced transition map from case 1 and print the loop.
    let mut path = vec![1usize];
    let mut cur = 1usize;
    for _ in 0..8 {
        let Some(&(_, Some(next))) = transitions.iter().find(|&&(c, _)| c == cur) else {
            break;
        };
        path.push(next);
        cur = next;
        if path[1..].contains(&1) || path.iter().filter(|&&x| x == cur).count() > 1 {
            break;
        }
    }
    report.push_note(format!(
        "improvement walk from case 1: {}",
        path.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" -> ")
    ));
    report.push_note(
        "expected shape: no candidate stable, top clusters content in the cycling \
         states, and the walk loops (the paper's 1 -> 3 -> 4 -> 2 -> 1)",
    );
    report
}

fn describe_pi1(s: CandidateState) -> String {
    match s.pi1_extra() {
        None => "{Πa}".to_owned(),
        Some(c) => format!("{{Πa, {}}}", c.label()),
    }
}

fn inst_cluster_label(c: Cluster) -> String {
    c.label().to_owned()
}

/// E7 — extension: convergence statistics of the dynamics on random
/// instances, across schedules and response rules.
#[must_use]
pub fn exp_convergence(quick: bool, seed: u64) -> Report {
    let mut report = Report::new("E7", "Convergence statistics on random 2-D instances");
    let sizes: &[usize] = if quick { &[8] } else { &[8, 12, 16] };
    let alphas: &[f64] = if quick { &[4.0] } else { &[1.0, 4.0, 16.0] };
    let runs = if quick { 3 } else { 10 };
    let mut t = Table::new(vec![
        "n",
        "alpha",
        "schedule",
        "rule",
        "runs",
        "converged",
        "mean_steps",
    ]);
    for &n in sizes {
        for &alpha in alphas {
            for (sched_name, schedule) in [
                ("round-robin", Schedule::RoundRobin),
                ("random-perm", Schedule::RandomPermutation { seed }),
                ("uniform", Schedule::UniformRandom { seed }),
            ] {
                for (rule_name, rule) in [
                    ("best", ResponseRule::BestResponse),
                    ("better", ResponseRule::BetterResponse),
                ] {
                    let mut stats = sp_dynamics::stats::ConvergenceStats::default();
                    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) << 8 ^ alpha as u64);
                    for _ in 0..runs {
                        let space = generators::uniform_square(n, 100.0, &mut rng);
                        let game = Game::from_space(&space, alpha).expect("valid");
                        let config = DynamicsConfig {
                            rule,
                            schedule: schedule.clone(),
                            max_rounds: 300,
                            ..DynamicsConfig::default()
                        };
                        let mut runner = DynamicsRunner::new(&game, config);
                        let out = runner.run(StrategyProfile::empty(n));
                        stats.record(&out);
                    }
                    t.push_row(vec![
                        n.to_string(),
                        fmt_f64(alpha),
                        sched_name.to_owned(),
                        rule_name.to_owned(),
                        stats.runs.to_string(),
                        stats.converged.to_string(),
                        stats.mean_steps().map_or_else(|| "-".to_owned(), fmt_f64),
                    ]);
                }
            }
        }
    }
    report.push_table("convergence", &t);
    report.push_note(
        "expected shape: random Euclidean instances converge essentially always \
         (the paper's non-convergence needs the engineered I_k geometry)",
    );
    report
}

/// E8 — related-work baseline: the Fabrikant et al. hop-count game vs
/// this paper's stretch game on identical peer sets.
#[must_use]
pub fn exp_fabrikant(quick: bool, seed: u64) -> Report {
    let mut report = Report::new(
        "E8",
        "Fabrikant et al. (hop count, undirected) vs selfish-peers (stretch, directed)",
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: &[usize] = if quick { &[6] } else { &[6, 8, 10] };
    let alphas: &[f64] = if quick { &[1.5] } else { &[0.5, 1.5, 3.0] };
    let mut t = Table::new(vec![
        "game",
        "n",
        "alpha",
        "converged",
        "links",
        "max_out_degree",
        "social_cost",
    ]);
    for &n in sizes {
        for &alpha in alphas {
            // Fabrikant game (metric-free).
            let fab = FabrikantGame::new(n, alpha).expect("valid alpha");
            let (fp, fconv) = fab
                .best_response_dynamics(StrategyProfile::empty(n), 100)
                .expect("valid profile");
            let ftopo = {
                let mut g = sp_graph::DiGraph::new(n);
                for (a, b) in fp.links() {
                    g.add_edge(a.index(), b.index(), 1.0);
                }
                g
            };
            t.push_row(vec![
                "fabrikant".to_owned(),
                n.to_string(),
                fmt_f64(alpha),
                fconv.to_string(),
                fp.link_count().to_string(),
                ftopo.max_out_degree().to_string(),
                fmt_f64(fab.social_cost(&fp).expect("valid")),
            ]);
            // Stretch game on a uniform square of the same size.
            let space = generators::uniform_square(n, 100.0, &mut rng);
            let game = Game::from_space(&space, alpha).expect("valid");
            let mut session =
                GameSession::new(game.clone(), StrategyProfile::empty(n)).expect("sizes match");
            let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
            let out = runner.run_session(&mut session);
            let topo = sp_core::topology(&game, &out.profile).expect("sizes match");
            t.push_row(vec![
                "stretch".to_owned(),
                n.to_string(),
                fmt_f64(alpha),
                matches!(out.termination, Termination::Converged { .. }).to_string(),
                out.profile.link_count().to_string(),
                topo.max_out_degree().to_string(),
                fmt_f64(session.social_cost().total()),
            ]);
        }
    }
    report.push_table("equilibria compared", &t);
    report.push_note(
        "expected shape: the hop-count game collapses to sparse tree/star-like \
         equilibria as α grows; the stretch game keeps locality-driven links",
    );
    report
}

/// E9 — footnote 2: baseline overlay quality; the `√n`-hub overlay wins
/// around `α = √n`.
#[must_use]
pub fn exp_baselines(quick: bool) -> Report {
    let mut report = Report::new(
        "E9",
        "Baseline overlays: who wins at which α (footnote 2, Tulip)",
    );
    let sizes: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    let mut t = Table::new(vec![
        "n",
        "alpha",
        "winner",
        "complete",
        "star",
        "chain",
        "mst",
        "hub(√n)",
    ]);
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let space = generators::uniform_square(n, 100.0, &mut rng);
        for alpha in [0.05, 1.0, (n as f64).sqrt(), n as f64] {
            let game = Game::from_space(&space, alpha).expect("valid");
            let all = baselines::all_baselines(&game);
            let find = |prefix: &str| -> f64 {
                all.iter()
                    .find(|b| b.name.starts_with(prefix))
                    .map_or(f64::NAN, |b| b.cost.total())
            };
            t.push_row(vec![
                n.to_string(),
                fmt_f64(alpha),
                all[0].name.clone(),
                fmt_f64(find("complete")),
                fmt_f64(find("star")),
                fmt_f64(find("nn-chain")),
                fmt_f64(find("mst")),
                fmt_f64(find("hub")),
            ]);
        }
    }
    report.push_table("baseline social costs", &t);
    report.push_note(
        "expected shape: complete wins only as α → 0; sparse overlays (MST, \
         star, hub) take over quickly, and the √n-hub overlay stays within a \
         small factor of the best around α ≈ √n (footnote 2's regime)",
    );
    report
}

/// E10 — extension: ε-stability of the no-equilibrium instance. With a
/// large enough indifference threshold (peers ignore small gains), even
/// `I_1` settles — quantifying "how far from stable" Theorem 5.1's
/// instance really is.
#[must_use]
pub fn exp_epsilon_stability(quick: bool) -> Report {
    let mut report = Report::new(
        "E10",
        "ε-stability: the I_1 oscillation dies once peers ignore small gains",
    );
    let inst = NoEquilibriumInstance::paper(1);
    let tolerances: &[f64] = if quick {
        &[1e-9, 0.01, 0.1]
    } else {
        &[1e-9, 1e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1]
    };
    let mut t = Table::new(vec!["tolerance", "termination", "steps", "residual_gap"]);
    for &tol in tolerances {
        let config = DynamicsConfig {
            tolerance: tol,
            max_rounds: 300,
            ..DynamicsConfig::default()
        };
        let mut session =
            GameSession::new(inst.game().clone(), StrategyProfile::empty(5)).expect("sizes match");
        let mut runner = DynamicsRunner::new(inst.game(), config);
        let out = runner.run_session(&mut session);
        let term = match out.termination {
            Termination::Converged { .. } => "converged",
            Termination::Cycle { .. } => "cycle",
            Termination::RoundLimit => "round-limit",
        };
        // How much could any peer still gain at the final profile?
        let gap = session
            .nash_gap(BestResponseMethod::Exact)
            .expect("sizes match");
        t.push_row(vec![
            fmt_f64(tol),
            term.to_owned(),
            out.steps.to_string(),
            fmt_f64(gap),
        ]);
    }
    report.push_table("tolerance sweep on I_1", &t);
    report.push_note(
        "expected shape: cycles at (near-)exact tolerances, convergence to an \
         ε-equilibrium once the threshold exceeds the smallest move in the loop",
    );
    report
}

/// E11 — extension: how α shapes equilibrium topologies — degree,
/// diameter, betweenness concentration, clustering.
#[must_use]
pub fn exp_topology_shape(quick: bool, seed: u64) -> Report {
    use sp_graph::measures;
    let mut report = Report::new("E11", "Equilibrium topology shape across the α spectrum");
    let n = if quick { 10 } else { 16 };
    let alphas: &[f64] = if quick {
        &[0.5, 8.0]
    } else {
        &[0.25, 1.0, 4.0, 16.0, 64.0]
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let mut t = Table::new(vec![
        "alpha",
        "links",
        "deg_max",
        "deg_mean",
        "diameter_w",
        "max_betweenness",
        "clustering",
        "mean_stretch",
    ]);
    for &alpha in alphas {
        let game = Game::from_space(&space, alpha).expect("valid");
        let mut session =
            GameSession::new(game.clone(), StrategyProfile::empty(n)).expect("sizes match");
        let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
        let out = runner.run_session(&mut session);
        if !matches!(out.termination, Termination::Converged { .. }) {
            t.push_row(vec![
                fmt_f64(alpha),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "did not converge".into(),
            ]);
            continue;
        }
        let topo = sp_core::topology(&game, &out.profile).expect("sizes match");
        let deg = measures::degree_stats(&topo).expect("non-empty");
        let bc = measures::betweenness_centrality(&topo);
        let max_bc = bc.iter().copied().fold(0.0f64, f64::max);
        let sc = session.social_cost();
        let mean_stretch = sc.stretch_cost / (n * (n - 1)) as f64;
        t.push_row(vec![
            fmt_f64(alpha),
            out.profile.link_count().to_string(),
            deg.max.to_string(),
            fmt_f64(deg.mean),
            fmt_f64(measures::diameter(&topo)),
            fmt_f64(max_bc),
            fmt_f64(measures::clustering_coefficient(&topo)),
            fmt_f64(mean_stretch),
        ]);
    }
    report.push_table("topology measures at equilibrium", &t);
    report.push_note(
        "expected shape: growing α prunes links (degree falls), lengthens \
         detours (diameter and mean stretch rise), and concentrates transit \
         on few peers (max betweenness rises)",
    );
    report
}

/// E12 — extension: failure injection — equilibria vs collaborative
/// baselines under single-peer crashes.
#[must_use]
pub fn exp_resilience(quick: bool, seed: u64) -> Report {
    use crate::resilience::failure_sweep;
    let mut report = Report::new(
        "E12",
        "Single-failure resilience: selfish equilibria vs collaborative overlays",
    );
    let n = if quick { 10 } else { 14 };
    let alpha = 4.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, alpha).expect("valid");
    let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
    let out = runner.run(StrategyProfile::empty(n));

    let mut entries: Vec<(String, StrategyProfile)> = vec![
        ("equilibrium".to_owned(), out.profile.clone()),
        ("complete".to_owned(), StrategyProfile::complete(n)),
    ];
    for b in baselines::all_baselines(&game) {
        entries.push((b.name.clone(), b.profile));
    }
    let mut t = Table::new(vec![
        "topology",
        "links",
        "robust_frac",
        "worst_disconn",
        "mean_stretch_after",
    ]);
    for (name, profile) in entries {
        if name == "complete" && t.rows().iter().any(|r| r[0] == "complete") {
            continue; // complete appears in baselines too
        }
        let summary = failure_sweep(&game, &profile).expect("sizes match");
        t.push_row(vec![
            name,
            profile.link_count().to_string(),
            fmt_f64(summary.robust_fraction()),
            summary.worst_disconnections().to_string(),
            fmt_f64(summary.mean_mean_stretch()),
        ]);
    }
    report.push_table("single-failure sweep", &t);
    report.push_note(
        "expected shape: trees (mst, chain, star) lose many pairs on interior \
         failures; equilibria sit between trees and the complete graph — \
         redundancy bought for selfish reasons still helps survival",
    );
    report
}

/// E13 — extension: simultaneous-move dynamics vs the sequential
/// dynamics used everywhere else.
#[must_use]
pub fn exp_simultaneous(quick: bool, seed: u64) -> Report {
    use sp_dynamics::simultaneous::{run_simultaneous, SimultaneousConfig};
    let mut report = Report::new(
        "E13",
        "Update timing: simultaneous vs sequential best responses",
    );
    let sizes: &[usize] = if quick { &[6] } else { &[6, 8, 10, 12] };
    let runs = if quick { 3 } else { 10 };
    let mut t = Table::new(vec![
        "n",
        "runs",
        "seq_converged",
        "sim_converged",
        "sim_cycles",
    ]);
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) << 4);
        let mut seq_c = 0;
        let mut sim_c = 0;
        let mut sim_cycle = 0;
        for _ in 0..runs {
            let space = generators::uniform_square(n, 100.0, &mut rng);
            let game = Game::from_space(&space, 4.0).expect("valid");
            let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
            if matches!(
                runner.run(StrategyProfile::empty(n)).termination,
                Termination::Converged { .. }
            ) {
                seq_c += 1;
            }
            let sim = run_simultaneous(
                &game,
                StrategyProfile::empty(n),
                &SimultaneousConfig::default(),
            );
            match sim.termination {
                Termination::Converged { .. } => sim_c += 1,
                Termination::Cycle { .. } => sim_cycle += 1,
                Termination::RoundLimit => {}
            }
        }
        t.push_row(vec![
            n.to_string(),
            runs.to_string(),
            seq_c.to_string(),
            sim_c.to_string(),
            sim_cycle.to_string(),
        ]);
    }
    // And on the engineered instance both fail, for the strategic reason.
    let inst = NoEquilibriumInstance::paper(1);
    let sim = run_simultaneous(
        inst.game(),
        StrategyProfile::empty(5),
        &SimultaneousConfig::default(),
    );
    report.push_note(format!(
        "I_1 under simultaneous updates: {:?} (no equilibrium exists, so no \
         update timing can stabilise it)",
        match sim.termination {
            Termination::Converged { .. } => "converged (impossible!)",
            Termination::Cycle { .. } => "cycle",
            Termination::RoundLimit => "round-limit",
        }
    ));
    report.push_table("random instances", &t);
    report.push_note(
        "expected shape: sequential updates converge essentially always; \
         simultaneous updates sometimes coordination-cycle even where \
         equilibria exist — the paper's Theorem 5.1 instability is the \
         stronger, timing-independent phenomenon",
    );
    report
}

/// E14 — extension: greedy routability of selfish equilibria. The
/// equilibria optimise *shortest-path* stretch; can a stateless greedy
/// router (forward to the neighbour closest to the target) actually use
/// them?
#[must_use]
pub fn exp_greedy_routing(quick: bool, seed: u64) -> Report {
    use sp_sim::{workload, LookupSimulator, Routing, SimConfig};
    let mut report = Report::new(
        "E14",
        "Greedy routability: stateless routing over selfish equilibria vs baselines",
    );
    let n = if quick { 10 } else { 16 };
    let alphas: &[f64] = if quick { &[4.0] } else { &[1.0, 4.0, 16.0] };
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let pairs = workload::all_pairs(n);
    let mut t = Table::new(vec![
        "alpha",
        "topology",
        "greedy_success",
        "greedy_stretch",
        "sp_stretch",
    ]);
    for &alpha in alphas {
        let game = Game::from_space(&space, alpha).expect("valid");
        let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
        let out = runner.run(StrategyProfile::empty(n));
        let mut entries: Vec<(String, StrategyProfile)> =
            vec![("equilibrium".to_owned(), out.profile.clone())];
        for b in baselines::all_baselines(&game) {
            entries.push((b.name.clone(), b.profile));
        }
        for (name, profile) in entries {
            let greedy = LookupSimulator::new(
                &game,
                &profile,
                SimConfig {
                    routing: Routing::GreedyMetric,
                    ..SimConfig::default()
                },
            )
            .expect("sizes match");
            let sp =
                LookupSimulator::new(&game, &profile, SimConfig::default()).expect("sizes match");
            let gs = greedy.run_workload(&pairs);
            let ss = sp.run_workload(&pairs);
            t.push_row(vec![
                fmt_f64(alpha),
                name,
                fmt_f64(gs.success_rate()),
                gs.mean_stretch(&game).map_or_else(|| "-".into(), fmt_f64),
                ss.mean_stretch(&game).map_or_else(|| "-".into(), fmt_f64),
            ]);
        }
    }
    report.push_table("greedy vs shortest-path routing", &t);
    report.push_note(
        "expected shape: equilibria route greedily fairly well (locality-driven \
         links double as greedy progress), while star/hub topologies lose many \
         lookups at local minima near the periphery",
    );
    report
}

/// E15 — extension: the best-response graph. Sinks are equilibria; weak
/// acyclicity means the dynamics can always stabilise with the right
/// activation order. Random tiny games vs the engineered `I_1`.
#[must_use]
pub fn exp_response_graph(quick: bool, seed: u64) -> Report {
    use crate::response_graph::ResponseGraph;
    let mut report = Report::new(
        "E15",
        "Best-response graph structure: equilibria, weak acyclicity, cycles",
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = if quick { 4 } else { 12 };
    let mut t = Table::new(vec![
        "instance",
        "profiles",
        "edges",
        "equilibria",
        "sink_reachable",
        "weakly_acyclic",
        "br_cycle",
    ]);
    for s in 0..samples {
        let space = generators::uniform_square(4, 50.0, &mut rng);
        let alpha = [0.5, 1.0, 2.0, 6.0][s % 4];
        let game = Game::from_space(&space, alpha).expect("valid");
        let rg = ResponseGraph::build(&game, 1e-9).expect("n = 4 within limit");
        t.push_row(vec![
            format!("random-4 (α={alpha})"),
            rg.profile_count().to_string(),
            rg.edge_count().to_string(),
            rg.equilibrium_count().to_string(),
            fmt_f64(rg.sink_reachable_fraction()),
            rg.is_weakly_acyclic().to_string(),
            rg.has_best_response_cycle().to_string(),
        ]);
    }
    if quick {
        report.push_note("(--quick: the 2^20-node I_1 response graph skipped)");
    } else {
        let inst = NoEquilibriumInstance::paper(1);
        let rg = ResponseGraph::build(inst.game(), 1e-9).expect("n = 5 within limit");
        t.push_row(vec![
            "I_1 (Thm 5.1)".to_owned(),
            rg.profile_count().to_string(),
            rg.edge_count().to_string(),
            rg.equilibrium_count().to_string(),
            fmt_f64(rg.sink_reachable_fraction()),
            rg.is_weakly_acyclic().to_string(),
            rg.has_best_response_cycle().to_string(),
        ]);
    }
    report.push_table("best-response graphs", &t);
    report.push_note(
        "expected shape: random games have several equilibria and are weakly \
         acyclic (often with benign cycles elsewhere in the graph); I_1 has 0 \
         equilibria, sink-reachability 0, and is all cycle",
    );
    report
}

/// E16 — extension: churn. Peers leave and rejoin a converged system;
/// the survivors re-settle either with sequential activations
/// ([`sp_dynamics::churn::ChurnSimulator::settle`]) or with sharded
/// simultaneous rounds
/// ([`sp_dynamics::churn::ChurnSimulator::settle_rounds`], the parallel
/// round engine). Quantifies the re-stabilisation work per event and
/// checks the two settle engines land on the same topology.
#[must_use]
pub fn exp_churn(quick: bool, seed: u64) -> Report {
    use sp_dynamics::churn::ChurnSimulator;
    use sp_dynamics::simultaneous::SimultaneousConfig;

    let mut report = Report::new(
        "E16",
        "Churn: re-stabilisation work per departure/arrival, sequential vs sharded-round settles",
    );
    let n = if quick { 8 } else { 14 };
    let alpha = 4.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let universe = Game::from_space(&space, alpha).expect("valid");

    // Two simulators fed the identical event script: one settles with
    // sequential activations, one with (forced 2-shard) simultaneous
    // rounds — the engines must agree on every settled topology.
    let mut seq_sim = ChurnSimulator::new(&universe);
    let mut par_sim = ChurnSimulator::new(&universe);
    let seq_config = DynamicsConfig::default();
    // Simultaneous rounds coordination-cycle from *cold* starts (E13:
    // everyone builds a full out-star at once, then everyone drops it),
    // so both simulators bootstrap sequentially; the round engine takes
    // over for the incremental re-settles after each churn event, where
    // the surviving overlay is near-equilibrium. An ε-indifference
    // threshold (E10) damps the residual coordination flapping.
    let par_config = SimultaneousConfig {
        parallelism: Some(2),
        max_rounds: 400,
        tolerance: 0.05,
        ..SimultaneousConfig::default()
    };

    let events = if quick { 4 } else { 8 };
    let mut script: Vec<Option<usize>> = vec![None]; // initial settle
    let mut gone: Vec<usize> = Vec::new();
    for k in 0..events {
        // Alternate departures and rejoins over a seeded index stream.
        if k % 2 == 0 || gone.is_empty() {
            let mut pick = ((seed as usize).wrapping_add(3 * k + 1)) % n;
            while gone.contains(&pick) {
                pick = (pick + 1) % n;
            }
            gone.push(pick);
            script.push(Some(pick));
        } else {
            script.push(None);
        }
    }

    let mut t = Table::new(vec![
        "event",
        "alive",
        "seq_steps",
        "seq_moves",
        "rounds_steps",
        "rounds_moves",
        "both_converged",
    ]);
    let mut rejoin_queue: Vec<usize> = Vec::new();
    let (mut seq_converged, mut par_converged) = (0usize, 0usize);
    for (k, ev) in script.iter().enumerate() {
        let label = match ev {
            None if k == 0 => "bootstrap".to_owned(),
            None => {
                let peer = rejoin_queue.remove(0);
                seq_sim.join(peer).expect("scripted rejoin is dead");
                par_sim.join(peer).expect("scripted rejoin is dead");
                format!("join {peer}")
            }
            Some(peer) => {
                seq_sim.leave(*peer).expect("scripted leaver is alive");
                par_sim.leave(*peer).expect("scripted leaver is alive");
                rejoin_queue.push(*peer);
                format!("leave {peer}")
            }
        };
        let seq = seq_sim.settle(&seq_config);
        let par = if k == 0 {
            par_sim.settle(&seq_config)
        } else {
            par_sim.settle_rounds(&par_config)
        };
        seq_converged += usize::from(seq.converged);
        par_converged += usize::from(par.converged);
        t.push_row(vec![
            label,
            seq.alive.len().to_string(),
            seq.steps.to_string(),
            seq.moves.to_string(),
            par.steps.to_string(),
            par.moves.to_string(),
            (seq.converged && par.converged).to_string(),
        ]);
    }
    report.push_table("churn events", &t);

    let seq_stats = seq_sim.session_stats();
    let par_stats = par_sim.session_stats();
    report.push_note(format!(
        "every churn event commits as one batch: {} batches / {} moves \
         (sequential-settle sim), {} / {} (round-settle sim)",
        seq_stats.batch_applies,
        seq_stats.batch_moves,
        par_stats.batch_applies,
        par_stats.batch_moves,
    ));
    report.push_note(format!(
        "events settled: {seq_converged}/{} sequentially, {par_converged}/{} \
         with simultaneous rounds",
        script.len(),
        script.len(),
    ));
    report.push_note(
        "expected shape: sequential settles converge throughout; round-based \
         settles converge after *departures* (the survivors are near \
         equilibrium, so few peers respond and they rarely conflict) but an \
         *arrival* re-triggers the E13 coordination failure — the joiner and \
         the incumbents all react to each other in lockstep and flap. Update \
         timing matters exactly when many peers want to react to the same \
         change.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_produces_expected_columns() {
        let r = exp_fig1_nash(true);
        assert_eq!(r.id, "E1");
        assert_eq!(r.tables.len(), 1);
        let t = &r.tables[0];
        assert_eq!(t.headers.len(), 5);
        assert!(!t.rows.is_empty());
        // Every guaranteed row must verify as Nash.
        for row in &t.rows {
            if row[2] == "true" {
                assert_eq!(row[3], "true", "guaranteed row not Nash: {row:?}");
            }
        }
    }

    #[test]
    fn e2_quick_ratio_column_is_stable() {
        let r = exp_fig1_cost(true);
        let t = &r.tables[0];
        let ratios: Vec<f64> = t
            .rows
            .iter()
            .filter(|row| row[0] == "3.400")
            .map(|row| row[5].parse::<f64>().unwrap())
            .collect();
        assert!(ratios.len() >= 3);
        let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().copied().fold(0.0, f64::max);
        assert!(hi / lo < 4.0, "Θ(αn²) ratios too unstable: {ratios:?}");
    }

    #[test]
    fn e3_quick_poa_grows() {
        let r = exp_fig1_poa(true);
        let t = &r.tables[0];
        // For n = 41, PoA at α = 25 must exceed PoA at α = 3.4.
        let poa = |alpha: &str| -> f64 {
            t.rows
                .iter()
                .find(|row| row[0] == "41" && row[1] == alpha)
                .map(|row| row[4].parse().unwrap())
                .expect("row present")
        };
        assert!(poa("25.000") > poa("3.400"));
    }

    #[test]
    fn e7_quick_everything_converges() {
        let r = exp_convergence(true, 7);
        for row in &r.tables[0].rows {
            assert_eq!(row[4], row[5], "random instances should converge: {row:?}");
        }
    }

    #[test]
    fn e9_quick_regimes() {
        let r = exp_baselines(true);
        let t = &r.tables[0];
        // α → 0: complete wins (stretch-dominated).
        let tiny_alpha = t
            .rows
            .iter()
            .find(|row| row[0] == "64" && row[1] == "0.050")
            .unwrap();
        assert_eq!(tiny_alpha[2], "complete");
        // α = n: a sparse topology wins (maintenance-dominated).
        let big_alpha = t
            .rows
            .iter()
            .find(|row| row[0] == "64" && row[1] == "64.000")
            .unwrap();
        assert_ne!(big_alpha[2], "complete");
        // Around α = √n the √n-hub overlay is within 2x of the best.
        let mid = t
            .rows
            .iter()
            .find(|row| row[0] == "64" && row[1] == "8.000")
            .unwrap();
        let best: f64 = mid[3..]
            .iter()
            .map(|c| c.parse::<f64>().unwrap())
            .fold(f64::INFINITY, f64::min);
        let hub: f64 = mid[7].parse().unwrap();
        assert!(
            hub <= 2.0 * best,
            "hub {hub} not competitive with best {best}"
        );
    }
}
