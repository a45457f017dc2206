//! Lint scoping configuration.
//!
//! Every lint is scoped to the paths where its invariant is binding —
//! float-eps discipline matters in the numeric crates, panic-freedom on
//! the serve request path, and so on. [`Config::repo`] encodes this
//! workspace's layout; the lint crate's own tests build narrow configs
//! pointing at fixture files instead.

/// Path scopes and vocabularies for all lints.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files/dirs (prefix match) where `float-eps` applies.
    pub float_paths: Vec<String>,
    /// Lowercase substrings marking an identifier as a distance/cost
    /// value (`dist`, `cost`, `d_`, …).
    pub float_vocab: Vec<String>,
    /// Files/dirs where `nondeterministic-iteration` applies — the
    /// modules whose outputs feed responses, traces, or counters.
    pub nondet_paths: Vec<String>,
    /// Files where `panic-path` applies wholesale.
    pub panic_paths: Vec<String>,
    /// `(file, module)` pairs where `panic-path` applies to one inline
    /// module only (e.g. the frame codec inside `sp-json`).
    pub panic_modules: Vec<(String, String)>,
    /// Files/dirs where `lock-hygiene` applies.
    pub lock_paths: Vec<String>,
    /// Free functions that return a lock guard (poison-recovery
    /// wrappers like `lock_unpoisoned`), tracked alongside
    /// `.lock()`/`.read()`/`.write()`.
    pub lock_fns: Vec<String>,
    /// Qualified-name substrings treated as I/O or encode/decode work
    /// that must not run under a lock guard (`fs::write`, `.spill`, …).
    pub io_markers: Vec<String>,
    /// Files/dirs where `dense-alloc` applies — the crates that must
    /// stay runnable against the sparse backend without quadratic
    /// allocations.
    pub dense_alloc_paths: Vec<String>,
    /// Files inside `dense_alloc_paths` that *are* the dense backend —
    /// quadratic state is their job, so the lint skips them wholesale.
    pub dense_alloc_exempt: Vec<String>,
    /// Counter structs whose fields every `// sp-lint: counters(X)`
    /// site must mention in full.
    pub counter_structs: Vec<String>,
    /// Whether `forbid-unsafe` checks crate roots (disabled in fixture
    /// configs that have no crate layout).
    pub check_unsafe: bool,
    /// Files allowed to contain `unsafe` — the FFI shims whose call
    /// sites carry `SAFETY:` arguments. A crate root with an exempt
    /// file under the same `src/` may carry `#![deny(unsafe_code)]`
    /// instead of `forbid`, so the shim's module-level `allow` applies.
    pub unsafe_exempt: Vec<String>,
}

impl Config {
    /// The scoping for this repository.
    #[must_use]
    pub fn repo() -> Config {
        let s = |v: &[&str]| v.iter().map(|&x| x.to_owned()).collect();
        Config {
            float_paths: s(&[
                "crates/graph/src/",
                "crates/core/src/",
                "crates/dynamics/src/",
                // The greedy UFL solver: its lazy bound tests must stay
                // sound against the exact scores they stand in for.
                "crates/facility/src/heuristics.rs",
            ]),
            float_vocab: s(&["dist", "cost", "stretch", "gap", "d_"]),
            nondet_paths: s(&[
                "crates/dynamics/src/engine.rs",
                "crates/serve/src/registry.rs",
                "crates/serve/src/workload.rs",
                "crates/core/src/oracle_cache.rs",
            ]),
            panic_paths: s(&[
                "crates/serve/src/ops.rs",
                "crates/serve/src/server.rs",
                "crates/serve/src/wire.rs",
                "crates/serve/src/client.rs",
                "crates/serve/src/registry.rs",
                "crates/serve/src/snapshot.rs",
                "crates/serve/src/spec.rs",
                "crates/serve/src/reactor.rs",
                // The durability layer: recovery and the audit ops read
                // attacker-tamperable files, so corruption must surface
                // as typed errors, never a panic.
                "crates/serve/src/wal.rs",
                "crates/serve/src/config.rs",
                // The protocol layer: both codecs sit on every request
                // path, so a malformed frame must surface as a typed
                // `WireError`, never a panic.
                "crates/wire/src/",
                // The observability layer rides every hot path when
                // enabled, so a span stamp or metric update must never
                // be able to take a request down with it.
                "crates/obs/src/",
                "crates/serve/src/obs.rs",
            ]),
            panic_modules: vec![("crates/json/src/lib.rs".to_owned(), "frame".to_owned())],
            lock_paths: s(&["crates/serve/src/"]),
            lock_fns: s(&["lock_unpoisoned"]),
            io_markers: s(&[
                ".spill",
                "snapshot::save",
                "snapshot::load",
                "fs::write",
                "fs::read",
                "fs::rename",
                "fs::remove",
                "fs::create_dir",
                "File::",
                "write_frame",
                "read_frame",
                "TcpStream::",
                ".checkpoint(",
            ]),
            dense_alloc_paths: s(&[
                "crates/core/src/",
                "crates/dynamics/src/",
                "crates/serve/src/",
            ]),
            dense_alloc_exempt: s(&[
                // The dense backend itself: the overlay distance matrix
                // is the quadratic state the rest of the workspace is
                // banned from re-growing.
                "crates/core/src/oracle_cache.rs",
            ]),
            counter_structs: s(&["SessionStats", "RegistryStats"]),
            check_unsafe: true,
            unsafe_exempt: s(&[
                // The epoll/eventfd FFI shim: the one module allowed to
                // speak to the kernel directly. Its crate root pins the
                // policy with `#![deny(unsafe_code)]` + a module-scoped
                // `allow`, which this exemption accepts in place of the
                // workspace-wide `forbid`.
                "crates/net/src/sys.rs",
            ]),
        }
    }

    /// An empty config — every per-path lint out of scope. Tests build
    /// on this.
    #[must_use]
    pub fn none() -> Config {
        Config {
            float_paths: Vec::new(),
            float_vocab: Vec::new(),
            nondet_paths: Vec::new(),
            panic_paths: Vec::new(),
            panic_modules: Vec::new(),
            lock_paths: Vec::new(),
            lock_fns: Vec::new(),
            io_markers: Vec::new(),
            dense_alloc_paths: Vec::new(),
            dense_alloc_exempt: Vec::new(),
            counter_structs: Vec::new(),
            check_unsafe: false,
            unsafe_exempt: Vec::new(),
        }
    }
}

/// `true` when `path` equals a scope entry or lives under a directory
/// entry (entries ending in `/` are prefixes).
#[must_use]
pub fn in_scope(path: &str, scope: &[String]) -> bool {
    scope
        .iter()
        .any(|s| path == s || (s.ends_with('/') && path.starts_with(s.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        let scope = vec![
            "crates/core/src/".to_owned(),
            "crates/x/src/a.rs".to_owned(),
        ];
        assert!(in_scope("crates/core/src/session.rs", &scope));
        assert!(in_scope("crates/x/src/a.rs", &scope));
        assert!(!in_scope("crates/x/src/b.rs", &scope));
        assert!(!in_scope("crates/core/tests/a.rs", &scope));
    }
}
