//! Validates and compares `BENCH_*.json` benchmark snapshots.
//!
//! ```text
//! bench_check [DIR ...]
//! bench_check --compare BASELINE_DIR FRESH_DIR
//! ```
//!
//! **Validate mode** scans each directory (default: the current one) for
//! `BENCH_*.json` files, parses every one with `sp-json`, and checks the
//! schema the vendored criterion shim writes: an object with a string
//! `"suite"` and a `"benchmarks"` array whose entries carry a string
//! `"id"`, numeric `"mean_ns"` and `"iterations"`, and (since PR 3) an
//! optional string `"unit"` for machine-independent counter records.
//!
//! **Compare mode** diffs the **machine-independent counters** (entries
//! whose `"unit"` is not `"ns"`) of every baseline suite against the
//! same suite in the fresh directory (suites are matched by their
//! `"suite"` field, so committed snapshot file names need not match the
//! shim's output names). Wall-clock entries are ignored — CI runners
//! differ in clock and core count; the counters exist precisely because
//! they do not. A counter **regresses** when it moves in its unit's
//! "worse" direction by more than 15%:
//!
//! * count-like units (`sweeps`, `rebuilds`, `rows`, `visits`, `bytes`,
//!   …): more work (or memory) is worse;
//! * `x` (reduction factors), `ratio` (hit rates), and `hits` (queries
//!   absorbed by a cache or certified bound): less is worse.
//!
//! Unknown units are reported and skipped. A baseline suite or counter
//! missing from the fresh run fails the comparison (lost coverage is a
//! regression too). Exit is non-zero on any regression, so the
//! `bench-smoke` CI job blocks merges that silently give back the work
//! savings the committed snapshots record.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Allowed relative drift before a counter move counts as a regression.
const TOLERANCE: f64 = 0.15;

/// One machine-independent counter record.
#[derive(Debug, Clone, PartialEq)]
struct Counter {
    value: f64,
    unit: String,
}

/// A parsed snapshot: suite name plus its counter records (timed `ns`
/// entries are dropped at parse time in compare mode).
#[derive(Debug, Clone)]
struct Snapshot {
    suite: String,
    counters: BTreeMap<String, Counter>,
}

/// Schema errors for one snapshot file; returns the suite, the total
/// record count, and the machine-independent counters.
fn check_snapshot(text: &str) -> Result<(Snapshot, usize), String> {
    let value = sp_json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let suite = value
        .get("suite")
        .and_then(sp_json::Value::as_str)
        .ok_or("missing string field \"suite\"")?
        .to_owned();
    let benches = value
        .get("benchmarks")
        .and_then(sp_json::Value::as_array)
        .ok_or("missing array field \"benchmarks\"")?;
    if benches.is_empty() {
        return Err("\"benchmarks\" is empty".to_owned());
    }
    let mut counters = BTreeMap::new();
    for (k, b) in benches.iter().enumerate() {
        let ctx = |msg: &str| format!("benchmarks[{k}]: {msg}");
        let id = b
            .get("id")
            .and_then(sp_json::Value::as_str)
            .ok_or_else(|| ctx("missing string field \"id\""))?;
        let mean = b
            .get("mean_ns")
            .and_then(sp_json::Value::as_f64)
            .ok_or_else(|| ctx("missing numeric field \"mean_ns\""))?;
        if !mean.is_finite() || mean < 0.0 {
            return Err(ctx(&format!("non-finite or negative mean_ns {mean}")));
        }
        if b.get("iterations")
            .and_then(sp_json::Value::as_usize)
            .is_none()
        {
            return Err(ctx("missing numeric field \"iterations\""));
        }
        // `unit` is optional (pre-PR-3 snapshots lack it) but must be a
        // string when present.
        let unit = match b.get("unit") {
            None => None,
            Some(u) => Some(
                u.as_str()
                    .ok_or_else(|| ctx("\"unit\" is not a string"))?
                    .to_owned(),
            ),
        };
        if let Some(unit) = unit.filter(|u| u != "ns") {
            counters.insert(id.to_owned(), Counter { value: mean, unit });
        }
    }
    let total = benches.len();
    Ok((Snapshot { suite, counters }, total))
}

/// Parses every `BENCH_*.json` in `dir`, keyed by suite name.
fn load_dir(dir: &Path) -> Result<BTreeMap<String, Snapshot>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", dir.display()));
    }
    let mut suites = BTreeMap::new();
    for path in &names {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match check_snapshot(&text) {
            Ok((snapshot, count)) => {
                println!(
                    "ok  {:<50} suite={} ({count} records, {} counters)",
                    path.display(),
                    snapshot.suite,
                    snapshot.counters.len()
                );
                let suite = snapshot.suite.clone();
                if suites.insert(suite.clone(), snapshot).is_some() {
                    // Silent shadowing would let a stale copy win the
                    // comparison; duplicated suites are a layout error.
                    return Err(format!(
                        "{}: suite \"{suite}\" appears in more than one snapshot in {}",
                        path.display(),
                        dir.display()
                    ));
                }
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Ok(suites)
}

fn check_dir(dir: &Path) -> Result<usize, String> {
    load_dir(dir).map(|suites| suites.len())
}

/// `Some(true)` when more of this unit means more work (worse);
/// `Some(false)` when more is better; `None` for unknown units.
fn more_is_worse(unit: &str) -> Option<bool> {
    match unit {
        // `requests` (served for a fixed script), `sessions`
        // (evict/restore cycles), and `depth` (queue high-water) are the
        // sp-serve service counters: all count work or backlog, so more
        // is worse — and for a fixed deterministic workload they must
        // not drift at all.
        // `bytes` is peak session memory at the gated instance size —
        // the large-n counter proving the sparse path never grew a
        // matrix — or framed bytes on the wire; more is worse like the
        // work counters.
        // `records`, `batches`, and `fsyncs` are the WAL counters for a
        // fixed deterministic workload: records appended, group-commit
        // batches, and durability sync points. All count write-path
        // work — drift upward means ops started logging twice, group
        // commit stopped grouping, or recovery replays grew.
        // `spans` and `events` are the observability counters under the
        // tick clock: completed request spans, queue waits, WAL append
        // events. For the fixed workload they are exact request/record
        // counts, so any drift means instrumentation fired twice (or
        // stopped firing — the benches assert the floors).
        "sweeps" | "rebuilds" | "rows" | "visits" | "count" | "moves" | "steps" | "requests"
        | "sessions" | "depth" | "bytes" | "records" | "batches" | "fsyncs" | "spans"
        | "events" => Some(true),
        // `hits` counts queries a cache or certified bound absorbed:
        // fewer means the short-circuit stopped firing.
        "x" | "ratio" | "hits" => Some(false),
        _ => None,
    }
}

/// Compares the counters of `fresh` against `baseline`; returns the
/// number of counters checked, or an error naming every regression.
fn compare_dirs(baseline_dir: &Path, fresh_dir: &Path) -> Result<usize, String> {
    println!("baseline: {}", baseline_dir.display());
    let baseline = load_dir(baseline_dir)?;
    println!("fresh:    {}", fresh_dir.display());
    let fresh = load_dir(fresh_dir)?;

    let mut checked = 0usize;
    let mut problems: Vec<String> = Vec::new();
    for (suite, base_snap) in &baseline {
        if base_snap.counters.is_empty() {
            continue;
        }
        let Some(fresh_snap) = fresh.get(suite) else {
            problems.push(format!(
                "suite \"{suite}\" has baseline counters but no fresh snapshot"
            ));
            continue;
        };
        for (id, base) in &base_snap.counters {
            let Some(new) = fresh_snap.counters.get(id) else {
                problems.push(format!("{suite}/{id}: counter missing from fresh run"));
                continue;
            };
            if new.unit != base.unit {
                problems.push(format!(
                    "{suite}/{id}: unit changed {} -> {}",
                    base.unit, new.unit
                ));
                continue;
            }
            let Some(more_worse) = more_is_worse(&base.unit) else {
                println!(
                    "??  {suite}/{id}: unknown unit \"{}\" — not compared",
                    base.unit
                );
                continue;
            };
            checked += 1;
            // Relative drift in the "worse" direction; a zero baseline
            // regresses on any worsening at all.
            let worsening = if more_worse {
                new.value - base.value
            } else {
                base.value - new.value
            };
            let allowed = TOLERANCE * base.value.abs();
            let status = if worsening > allowed { "REG" } else { "ok " };
            println!(
                "{status} {suite}/{id}: {} -> {} {}",
                base.value, new.value, base.unit
            );
            if worsening > allowed {
                problems.push(format!(
                    "{suite}/{id}: {} {} -> {} (worse by more than {:.0}%)",
                    base.unit,
                    base.value,
                    new.value,
                    TOLERANCE * 100.0
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(checked)
    } else {
        Err(problems.join("\n       "))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        if args.len() != 3 {
            eprintln!("usage: bench_check --compare BASELINE_DIR FRESH_DIR");
            return ExitCode::FAILURE;
        }
        return match compare_dirs(Path::new(&args[1]), Path::new(&args[2])) {
            Ok(n) => {
                println!("{n} counter(s) within {:.0}%", TOLERANCE * 100.0);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let dirs: Vec<String> = if args.is_empty() {
        vec![".".to_owned()]
    } else {
        args
    };
    let mut total = 0usize;
    for dir in &dirs {
        match check_dir(Path::new(dir)) {
            Ok(n) => total += n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{total} snapshot(s) valid");
    ExitCode::SUCCESS
}
