//! `lock-hygiene`: I/O or encode/decode work under a live lock guard.
//!
//! The registry serializes session access through its map and entry
//! mutexes; holding one across file or network I/O (snapshot spill,
//! frame writes) stalls every request that needs the lock. The lint
//! tracks `let guard = ….lock()/.read()/.write()` bindings to the end
//! of their enclosing block (or an explicit `drop(guard)`) and flags
//! lines inside that span whose call chain matches an I/O marker.
//! Deliberate hold-across-spill sites carry waivers arguing why.

use crate::config::{in_scope, Config};
use crate::diag::Severity;
use crate::lexer::TokKind;
use crate::lints::{emit, Lint};
use crate::source::SourceFile;
use crate::tokens::code_indices;

/// The `lock-hygiene` lint.
pub struct LockHygiene;

/// A tracked guard binding.
struct Guard {
    name: String,
    depth: usize,
    line: u32,
}

impl Lint for LockHygiene {
    fn id(&self) -> &'static str {
        "lock-hygiene"
    }

    fn description(&self) -> &'static str {
        "file/network I/O or snapshot encode/decode while a lock guard is live"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn check_file(&self, cfg: &Config, file: &SourceFile, out: &mut Vec<crate::diag::Finding>) {
        if !in_scope(&file.path, &cfg.lock_paths) {
            return;
        }
        let code = code_indices(&file.tokens);
        let mut depth = 0usize;
        let mut guards: Vec<Guard> = Vec::new();
        // Joined call-chain text per line, for marker matching.
        let mut line_text: Vec<(u32, String)> = Vec::new();
        for &k in &code {
            let t = &file.tokens[k];
            match line_text.last_mut() {
                Some((line, s)) if *line == t.line => s.push_str(&t.text),
                _ => line_text.push((t.line, t.text.clone())),
            }
        }
        let mut flagged = std::collections::HashSet::new();
        for (c, &k) in code.iter().enumerate() {
            let t = &file.tokens[k];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                // `drop ( name )` releases early.
                (TokKind::Ident, "drop") => {
                    if let (Some(&o), Some(&n)) = (code.get(c + 1), code.get(c + 2)) {
                        if file.tokens[o].text == "(" {
                            let name = file.tokens[n].text.clone();
                            guards.retain(|g| g.name != name);
                        }
                    }
                }
                // `. lock|read|write ( )` or a configured guard helper
                // `lock_unpoisoned(..)` — walk back to the `let`
                // binding, if the statement has one.
                (TokKind::Ident, name) => {
                    let method_acquire = matches!(name, "lock" | "read" | "write")
                        && c >= 1
                        && file.tokens[code[c - 1]].text == "."
                        && code.get(c + 1).is_some_and(|&j| file.tokens[j].text == "(")
                        && code.get(c + 2).is_some_and(|&j| file.tokens[j].text == ")");
                    let helper_acquire = cfg.lock_fns.iter().any(|f| f == name)
                        && code.get(c + 1).is_some_and(|&j| file.tokens[j].text == "(");
                    if !(method_acquire || helper_acquire) || file.in_test(t.line) {
                        continue;
                    }
                    let mut b = c;
                    while b > 0 {
                        let p = &file.tokens[code[b - 1]];
                        if p.text == ";" || p.text == "{" || p.text == "}" {
                            break;
                        }
                        b -= 1;
                    }
                    if file.tokens[code[b]].text == "let" {
                        let mut n = b + 1;
                        if file.tokens[code[n]].text == "mut" {
                            n += 1;
                        }
                        if file.tokens[code[n]].kind == TokKind::Ident {
                            guards.push(Guard {
                                name: file.tokens[code[n]].text.clone(),
                                depth,
                                line: t.line,
                            });
                        }
                    }
                }
                _ => {}
            }
            if guards.is_empty() || file.in_test(t.line) || flagged.contains(&t.line) {
                continue;
            }
            let joined = line_text
                .iter()
                .find(|(line, _)| *line == t.line)
                .map_or("", |(_, s)| s.as_str());
            if let Some(marker) = cfg.io_markers.iter().find(|m| joined.contains(m.as_str())) {
                // A guard acquired on this same line has not started
                // covering anything yet.
                let Some(g) = guards.iter().find(|g| g.line < t.line) else {
                    continue;
                };
                flagged.insert(t.line);
                emit(
                    out,
                    self,
                    file,
                    t.line,
                    format!(
                        "I/O (`{marker}`) while lock guard `{}` (acquired line {}) is live; \
                         release the guard first or waive with a hold argument",
                        g.name, g.line
                    ),
                );
            }
        }
    }
}
