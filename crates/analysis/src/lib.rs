//! Experiment harness for the selfish-peers reproduction.
//!
//! * [`exhaustive`] — a fast exhaustive Nash-equilibrium scanner for tiny
//!   games (used to *prove* Theorem 5.1's non-existence claim on the
//!   `I_1` instance by checking all `2^20` profiles);
//! * [`poa`] — Price-of-Anarchy bracketing (OPT is NP-hard, so the ratio
//!   is sandwiched between `C(NE)/C(best baseline)` and
//!   `C(NE)/LB(OPT)`);
//! * [`table`] — fixed-width / Markdown / CSV table rendering for
//!   experiment output;
//! * [`report`] — serialisable experiment reports (`--json` output);
//! * [`experiments`] — the sixteen experiments E1–E16, each
//!   regenerating one of the paper's figures/claims or extending one
//!   (`experiments list` prints the catalogue).

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod experiments;
pub mod fast;
pub mod poa;
pub mod report;
pub mod resilience;
pub mod response_graph;
pub mod table;

pub use report::{NamedTable, Report};
pub use table::Table;
