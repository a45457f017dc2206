//! `dense-alloc`: quadratic (`n × n`) allocations outside the dense
//! backend.
//!
//! PR 7's whole point is that large instances run against the sparse
//! landmark backend with `O(n·(landmarks + window))` memory — one
//! stray `Vec::with_capacity(n * n)` on a shared code path silently
//! re-introduces the 80 GB matrix the backend exists to avoid. Inside
//! the scoped crates every allocation sized by a squared length
//! (`x * x` with the same identifier on both sides) and every
//! allocating `DistanceMatrix` constructor must either live in the
//! dense backend's own modules (the config exempt list) or carry a
//! waiver arguing why the site can never sit on the sparse scale path
//! (e.g. an explicitly documented escape hatch, or a structure that is
//! inherently pairwise).

use crate::config::{in_scope, Config};
use crate::diag::Severity;
use crate::lexer::{Tok, TokKind};
use crate::lints::{emit, Lint};
use crate::source::SourceFile;
use crate::tokens::code_indices;

/// The `dense-alloc` lint.
pub struct DenseAlloc;

/// `DistanceMatrix` constructors that allocate the full `n × n` table.
/// (`from_row_major` merely wraps a `Vec` the caller already built —
/// that allocation is caught at its `with_capacity`/`vec!` site.)
const MATRIX_CTORS: &[&str] = &["new_filled", "from_fn"];

/// Scans the argument list opened at `code[open_c]` (a `(` or `[`)
/// for a squared-length product — `x * x` with the same identifier on
/// both sides — and returns that identifier. The scan stops at the
/// matching close bracket.
fn squared_len_in_args(tokens: &[Tok], code: &[usize], open_c: usize) -> Option<String> {
    let mut depth = 0i32;
    for c in open_c..code.len() {
        let t = &tokens[code[c]];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth <= 0 {
                        return None;
                    }
                }
                _ => {}
            }
        }
        if t.kind == TokKind::Ident
            && code
                .get(c + 1)
                .is_some_and(|&j| tokens[j].kind == TokKind::Punct && tokens[j].text == "*")
            && code
                .get(c + 2)
                .is_some_and(|&j| tokens[j].kind == TokKind::Ident && tokens[j].text == t.text)
        {
            return Some(t.text.clone());
        }
    }
    None
}

impl Lint for DenseAlloc {
    fn id(&self) -> &'static str {
        "dense-alloc"
    }

    fn description(&self) -> &'static str {
        "n*n allocation (squared-length buffer or DistanceMatrix ctor) outside the dense backend"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn check_file(&self, cfg: &Config, file: &SourceFile, out: &mut Vec<crate::diag::Finding>) {
        if !in_scope(&file.path, &cfg.dense_alloc_paths)
            || in_scope(&file.path, &cfg.dense_alloc_exempt)
        {
            return;
        }
        let code = code_indices(&file.tokens);
        for (c, &k) in code.iter().enumerate() {
            let t = &file.tokens[k];
            if t.kind != TokKind::Ident || file.in_test(t.line) {
                continue;
            }
            // `DistanceMatrix :: <ctor> (`
            if t.text == "DistanceMatrix"
                && code
                    .get(c + 1)
                    .is_some_and(|&j| file.tokens[j].text == "::")
                && code.get(c + 2).is_some_and(|&j| {
                    file.tokens[j].kind == TokKind::Ident
                        && MATRIX_CTORS.contains(&file.tokens[j].text.as_str())
                })
                && code.get(c + 3).is_some_and(|&j| file.tokens[j].text == "(")
            {
                emit(
                    out,
                    self,
                    file,
                    t.line,
                    format!(
                        "`DistanceMatrix::{}` allocates the full n*n table outside the dense \
                         backend; keep quadratic state in OracleCache \
                         (crates/core/src/oracle_cache.rs) or waive with the reason this site \
                         can never sit on the sparse scale path",
                        file.tokens[code[c + 2]].text
                    ),
                );
                continue;
            }
            // `with_capacity ( … x * x … )` / `vec ! [ … ; x * x ]`
            let open_c = if t.text == "with_capacity"
                && code.get(c + 1).is_some_and(|&j| file.tokens[j].text == "(")
            {
                Some(c + 1)
            } else if t.text == "vec"
                && code.get(c + 1).is_some_and(|&j| file.tokens[j].text == "!")
                && code.get(c + 2).is_some_and(|&j| file.tokens[j].text == "[")
            {
                Some(c + 2)
            } else {
                None
            };
            let Some(open_c) = open_c else { continue };
            if let Some(len) = squared_len_in_args(&file.tokens, &code, open_c) {
                emit(
                    out,
                    self,
                    file,
                    t.line,
                    format!(
                        "buffer sized `{len} * {len}` outside the dense backend; keep quadratic \
                         state in OracleCache (crates/core/src/oracle_cache.rs) or waive with the \
                         reason this site can never sit on the sparse scale path"
                    ),
                );
            }
        }
    }
}
