//! Smoke tests for the unified `experiments` binary (the successor of
//! the sixteen one-line `exp_*` stubs).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("binary spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_every_experiment() {
    let (ok, stdout, _) = run(&["list"]);
    assert!(ok);
    for id in ["E1", "E5", "E10", "E15", "E16"] {
        assert!(stdout.contains(id), "missing {id} in listing:\n{stdout}");
    }
    assert!(stdout.contains("fig1-poa"));
    assert!(stdout.contains("response-graph"));
    assert!(stdout.contains("churn"));
}

#[test]
fn churn_experiment_reports_both_settle_engines() {
    let (ok, stdout, stderr) = run(&["churn", "--quick"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("E16"));
    assert!(stdout.contains("churn events"));
    assert!(
        stdout.contains("rounds_moves"),
        "round-engine column missing"
    );
}

#[test]
fn subcommand_runs_and_emits_tables() {
    let (ok, stdout, stderr) = run(&["fig1-cost", "--quick"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("E2"));
    assert!(stdout.contains("cost scaling"));
}

#[test]
fn experiment_id_is_accepted_as_alias() {
    let (ok, stdout, _) = run(&["E2", "--quick"]);
    assert!(ok);
    assert!(stdout.contains("Lemma 4.3"));
}

#[test]
fn json_flag_emits_parseable_report() {
    let (ok, stdout, _) = run(&["fig1-nash", "--quick", "--json"]);
    assert!(ok);
    let report = sp_analysis::Report::from_json(stdout.trim()).expect("valid report JSON");
    assert_eq!(report.id, "E1");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"));
    let (ok2, _, stderr2) = run(&["fig1-nash", "--bogus"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown flag"));
    let (ok3, stdout3, _) = run(&[]);
    assert!(!ok3 || stdout3.is_empty());
}

/// The paper's experiments as a pinned output: every table cell of
/// `experiments all --quick --json` (E1–E16, covering Lemmas 4.2/4.3
/// and Theorems 4.1/4.4/5.1) must match the committed golden file byte
/// for byte, so an engine change that moves a reported number fails
/// here. A deliberate change regenerates the file with
/// `experiments all --quick --json > crates/bench/tests/golden/experiments_all_quick.json`
/// and explains every moved cell.
#[test]
fn all_quick_json_matches_the_golden_file() {
    const GOLDEN: &str = include_str!("golden/experiments_all_quick.json");
    let (ok, stdout, stderr) = run(&["all", "--quick", "--json"]);
    assert!(ok, "stderr: {stderr}");
    if stdout != GOLDEN {
        let line = stdout
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or(stdout.lines().count().min(GOLDEN.lines().count()), |k| k);
        panic!(
            "experiments output diverged from the golden file at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            stdout.lines().nth(line),
            GOLDEN.lines().nth(line),
        );
    }
}
