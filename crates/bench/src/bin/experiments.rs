//! The unified experiment runner: every experiment (E1–E16) behind one
//! binary with subcommands; `experiments list` prints the catalogue.
//!
//! ```text
//! experiments <SUBCOMMAND> [--quick] [--json] [--seed <u64>]
//! experiments all [--quick] [--json] [--seed <u64>]
//! experiments list
//! ```
//!
//! Replaces the sixteen historical one-line `exp_*` binaries.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use sp_analysis::experiments as exp;
use sp_analysis::Report;
use sp_bench::ExpArgs;

/// One registered experiment: subcommand, id, synopsis, runner.
struct Entry {
    name: &'static str,
    id: &'static str,
    about: &'static str,
    run: fn(ExpArgs) -> Report,
}

const ENTRIES: &[Entry] = &[
    Entry {
        name: "fig1-nash",
        id: "E1",
        about: "Lemma 4.2: the Figure 1 line construction is Nash for α ≥ 3.4",
        run: |a| exp::exp_fig1_nash(a.quick),
    },
    Entry {
        name: "fig1-cost",
        id: "E2",
        about: "Lemma 4.3: the Figure 1 equilibrium costs Θ(αn²)",
        run: |a| exp::exp_fig1_cost(a.quick),
    },
    Entry {
        name: "fig1-poa",
        id: "E3",
        about: "Theorem 4.4: the Price of Anarchy grows as Θ(min(α, n))",
        run: |a| exp::exp_fig1_poa(a.quick),
    },
    Entry {
        name: "upper-bound",
        id: "E4",
        about: "Theorem 4.1: stretch ≤ α+1 and PoA ∈ O(min(α, n)) at equilibria",
        run: |a| exp::exp_upper_bound(a.quick, a.seed),
    },
    Entry {
        name: "no-ne",
        id: "E5",
        about: "Theorem 5.1: I_k admits no pure Nash equilibrium (dynamics cycles)",
        run: |a| exp::exp_no_ne(a.quick),
    },
    Entry {
        name: "fig3-candidates",
        id: "E6",
        about: "Figure 3: the six candidate topologies and the improvement cycle",
        run: |_| exp::exp_fig3_candidates(),
    },
    Entry {
        name: "convergence",
        id: "E7",
        about: "Convergence statistics on random instances across schedules/rules",
        run: |a| exp::exp_convergence(a.quick, a.seed),
    },
    Entry {
        name: "fabrikant",
        id: "E8",
        about: "Fabrikant et al. hop-count game vs the stretch game",
        run: |a| exp::exp_fabrikant(a.quick, a.seed),
    },
    Entry {
        name: "baselines",
        id: "E9",
        about: "Footnote 2: which collaborative overlay wins at which α",
        run: |a| exp::exp_baselines(a.quick),
    },
    Entry {
        name: "epsilon-stability",
        id: "E10",
        about: "ε-stability: large indifference thresholds settle even I_1",
        run: |a| exp::exp_epsilon_stability(a.quick),
    },
    Entry {
        name: "topology-shape",
        id: "E11",
        about: "How α shapes equilibrium topologies (degree, diameter, …)",
        run: |a| exp::exp_topology_shape(a.quick, a.seed),
    },
    Entry {
        name: "resilience",
        id: "E12",
        about: "Failure injection: selfish equilibria vs collaborative overlays",
        run: |a| exp::exp_resilience(a.quick, a.seed),
    },
    Entry {
        name: "simultaneous",
        id: "E13",
        about: "Update timing: simultaneous vs sequential best responses",
        run: |a| exp::exp_simultaneous(a.quick, a.seed),
    },
    Entry {
        name: "greedy-routing",
        id: "E14",
        about: "Greedy routability of equilibrium overlays vs baselines",
        run: |a| exp::exp_greedy_routing(a.quick, a.seed),
    },
    Entry {
        name: "response-graph",
        id: "E15",
        about: "Best-response graph structure: sinks, weak acyclicity, cycles",
        run: |a| exp::exp_response_graph(a.quick, a.seed),
    },
    Entry {
        name: "churn",
        id: "E16",
        about: "Churn: re-stabilisation work, sequential vs sharded-round settles",
        run: |a| exp::exp_churn(a.quick, a.seed),
    },
];

fn usage() -> String {
    let mut s = String::from(
        "experiments — the paper's reproduction experiments (E1-E16)\n\n\
         USAGE:\n    experiments <SUBCOMMAND> [--quick] [--json] [--seed <u64>]\n\n\
         SUBCOMMANDS:\n",
    );
    for e in ENTRIES {
        s.push_str(&format!("    {:<18} {:>4}  {}\n", e.name, e.id, e.about));
    }
    s.push_str("    all                      run every experiment in order\n");
    s.push_str("    list                     print the subcommand table\n");
    s
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(command, "help" | "--help" | "-h" | "list") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match ExpArgs::parse_from(raw[1..].iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        "all" => {
            for e in ENTRIES {
                sp_bench::emit(&(e.run)(args), args);
                println!();
            }
            ExitCode::SUCCESS
        }
        name => match ENTRIES.iter().find(|e| e.name == name || e.id == name) {
            Some(e) => {
                sp_bench::emit(&(e.run)(args), args);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown experiment '{name}'\n\n{}", usage());
                ExitCode::from(2)
            }
        },
    }
}
