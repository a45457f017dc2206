//! `sp-lint` — first-party static analysis for the selfish-peers
//! workspace.
//!
//! Generic tooling cannot check the invariants this codebase actually
//! lives or dies by: eps-disciplined float comparisons in the
//! best-response oracles, hash-order-free traversal in everything that
//! feeds a trace or a response, panic-free handling of remote input on
//! the serve path, no I/O under the registry's locks, and counter
//! structs whose every field reaches every merge site. `sp-lint` checks
//! exactly those, over a flat token stream from a small in-crate Rust
//! lexer — no syn, no rustc internals, no external dependencies.
//!
//! The pipeline: [`walk`] loads workspace files, [`source`] parses
//! inline waivers, [`lints`] hosts the registry, and [`runner`] applies
//! waivers (reporting stale and malformed ones as findings in their own
//! right) and produces the [`diag::Report`] the CLI renders as text or
//! JSON.
//!
//! Waiver syntax, on the offending line or the line above it:
//!
//! ```text
//! // sp-lint: allow(<lint-id>, reason = "<why this is sound>")
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod runner;
pub mod source;
pub mod tokens;
pub mod walk;

pub use config::Config;
pub use diag::{Finding, Report, Severity};
pub use runner::run;
pub use source::SourceFile;
