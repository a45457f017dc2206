//! Orchestration: run every lint, apply waivers, lint the waivers.
//!
//! Waiver application is itself checked both ways: an `sp-lint:`
//! comment that does not parse is a `malformed-waiver` error, and a
//! well-formed waiver that suppresses nothing is a `stale-waiver`
//! warning — fixed code must shed its excuses.

use crate::config::Config;
use crate::diag::{Finding, Report, Severity};
use crate::lints;
use crate::source::SourceFile;

/// Lint id for unparseable `sp-lint:` comments.
pub const MALFORMED_WAIVER: &str = "malformed-waiver";
/// Lint id for waivers that no longer suppress anything.
pub const STALE_WAIVER: &str = "stale-waiver";

/// All lint ids a waiver may name.
fn known_lints() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = lints::all().iter().map(|l| l.id()).collect();
    ids.push(MALFORMED_WAIVER);
    ids.push(STALE_WAIVER);
    ids
}

/// Runs the full registry over `files` and returns the report.
#[must_use]
pub fn run(cfg: &Config, files: &[SourceFile]) -> Report {
    let registry = lints::all();
    let mut raw: Vec<Finding> = Vec::new();
    for file in files {
        for lint in &registry {
            lint.check_file(cfg, file, &mut raw);
        }
    }
    for lint in &registry {
        lint.check_workspace(cfg, files, &mut raw);
    }

    let known = known_lints();
    let mut findings: Vec<Finding> = Vec::new();
    let mut waived = 0usize;
    for file in files {
        let mut used = vec![false; file.waivers.len()];
        for f in raw.iter().filter(|f| f.path == file.path) {
            let hit = file
                .waivers
                .iter()
                .position(|w| w.lint == f.lint && w.covers.contains(&f.line));
            match hit {
                Some(i) => {
                    used[i] = true;
                    waived += 1;
                }
                None => findings.push(f.clone()),
            }
        }
        for (w, &u) in file.waivers.iter().zip(&used) {
            if !known.contains(&w.lint.as_str()) {
                findings.push(Finding {
                    lint: MALFORMED_WAIVER,
                    severity: Severity::Error,
                    path: file.path.clone(),
                    line: w.line,
                    message: format!("waiver names unknown lint `{}`", w.lint),
                });
            } else if !u {
                findings.push(Finding {
                    lint: STALE_WAIVER,
                    severity: Severity::Warning,
                    path: file.path.clone(),
                    line: w.line,
                    message: format!(
                        "waiver for `{}` suppresses nothing; the violation it excused is \
                         gone, so remove the waiver",
                        w.lint
                    ),
                });
            }
        }
        for (line, what) in &file.malformed {
            findings.push(Finding {
                lint: MALFORMED_WAIVER,
                severity: Severity::Error,
                path: file.path.clone(),
                line: *line,
                message: what.clone(),
            });
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    Report {
        findings,
        waived,
        files: files.len(),
    }
}
