//! Uncapacitated facility location (UFL) solvers.
//!
//! A peer's **best response** in the selfish-peers game reduces exactly to
//! UFL: candidate neighbours are *facilities* with opening cost `α` (the
//! link maintenance cost) and every other peer is a *client* whose
//! assignment cost to facility `v` is the stretch obtained by routing the
//! lookup through the link to `v`. See `sp-core::best_response` for the
//! reduction; this crate solves the abstract problem:
//!
//! > given opening costs `f_v` and assignment costs `a(v, c)`, choose a set
//! > `S` of facilities minimising `Σ_{v∈S} f_v + Σ_c min_{v∈S} a(v, c)`.
//!
//! Four solvers with different exactness/cost trade-offs:
//!
//! * [`solve_enumeration`] — exact, `O(2^F · F · C)`; the reference
//!   implementation for small instances.
//! * [`solve_branch_and_bound`] — exact, prunes with an admissible lower
//!   bound; handles considerably larger instances.
//! * [`solve_greedy`] — classic marginal-gain greedy (logarithmic
//!   approximation), over any [`RowSource`]: rows may be served as
//!   certified lower bounds and made exact only when they can win.
//! * [`solve_local_search`] — add/drop/swap local search seeded by greedy
//!   (constant-factor approximation for metric instances).
//!
//! The exact solvers agree with each other and upper-bound the heuristics;
//! property tests in `tests/` enforce this.
//!
//! # Example
//!
//! ```
//! use sp_facility::{FacilityProblem, solve_enumeration};
//!
//! // Two facilities, three clients: facility 0 is cheap for clients 0, 1;
//! // facility 1 is the only sensible server for client 2.
//! let p = FacilityProblem::with_uniform_open_cost(1.0, vec![
//!     vec![0.1, 0.2, 9.0],
//!     vec![5.0, 5.0, 0.1],
//! ]).unwrap();
//! let sol = solve_enumeration(&p).unwrap();
//! assert_eq!(sol.open, vec![0, 1]);
//! assert!((sol.cost - 2.4).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod bb;
mod enumeration;
mod error;
mod heuristics;
mod problem;

pub use bb::solve_branch_and_bound;
pub use enumeration::{solve_enumeration, ENUMERATION_FACILITY_LIMIT};
pub use error::FacilityError;
pub use heuristics::{solve_greedy, solve_local_search, RowSource};
pub use problem::{FacilityProblem, FacilitySolution};
