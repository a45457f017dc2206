//! The selfish-peers network creation game (Moscibroda, Schmid &
//! Wattenhofer, PODC 2006).
//!
//! Peers are points in a metric space. Each peer `i` unilaterally selects a
//! set `s_i` of peers to maintain **directed** links to; the profile
//! `s = (s_0, …, s_{n-1})` induces the overlay `G[s]` whose edge `(i, j)`
//! has weight `d(i, j)`. Peer `i`'s individual cost is
//!
//! ```text
//! c_i(s) = α·|s_i| + Σ_{j≠i} stretch_{G[s]}(i, j),
//! stretch_G(i, j) = d_G(i, j) / d(i, j),
//! ```
//!
//! and the social cost is `C(G) = α|E| + Σ_{i≠j} stretch(i, j)`.
//!
//! This crate provides:
//!
//! * [`Game`] — the metric (as a distance matrix) plus the trade-off
//!   parameter `α`;
//! * [`StrategyProfile`] / [`LinkSet`] / [`PeerId`] — strategy bookkeeping;
//! * [`GameSession`] — **the evaluation engine**: a stateful handle
//!   owning a game and its evolving profile, keeping the overlay CSR
//!   and distance matrix cached across queries (cost readouts reduce
//!   straight over the distance rows), and repairing them incrementally when [`GameSession::apply`] mutates a
//!   peer's links. Best-response oracles derive their residual `G_{-i}`
//!   rows from the same persistent overlay rows by subtree repair (see
//!   the `session` module docs for the invalidation invariants), so hot
//!   sequential loops stop paying `n - 1` fresh sweeps per activation. Multi-peer events (simultaneous rounds,
//!   churn) commit through [`GameSession::apply_batch`] — one CSR
//!   rebuild and one repair pass for the whole batch — and bulk row
//!   refills shard their Dijkstra sweeps over worker threads
//!   ([`sp_graph::CsrGraph::dijkstra_rows_with`]);
//! * [`topology`](fn@topology) / [`overlay_distances`] / [`stretch_matrix`]
//!   — the induced overlay and its stretches;
//! * [`peer_cost`] / [`social_cost`] — the paper's cost functions;
//! * [`best_response`] — a peer's optimal deviation, computed *exactly* by
//!   reduction to uncapacitated facility location (see `sp-facility`), or
//!   approximately via greedy/local-search;
//! * [`is_nash`] / [`nash_gap`] — (exact) Nash-equilibrium verification;
//! * [`poa`] — the universal lower bound on the optimal social cost, used
//!   for Price-of-Anarchy bracketing;
//! * [`SparseSession`] — the landmark session that answers large-`n`
//!   better-response dynamics ([`SparseSession::local_response`]) in
//!   `O(n · (landmarks + window))` memory without ever materialising the
//!   `O(n²)` distance matrix (see its docs for when to pick which
//!   session type).
//!
//! The free functions are retained as thin, source-compatible wrappers —
//! each builds a throwaway [`GameSession`] — so one-shot callers keep the
//! simple API while hot loops (dynamics, experiment sweeps) hold a
//! session and let the caches pay off.
//!
//! # Example: session-oriented evaluation
//!
//! ```
//! use sp_core::{Game, GameSession, Move, NashTest, PeerId, StrategyProfile};
//! use sp_metric::LineSpace;
//!
//! let space = LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap();
//! let game = Game::from_space(&space, 1.0).unwrap();
//!
//! // The bidirectional chain: on a line every stretch is 1.
//! let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
//! let mut session = GameSession::new(game, chain).unwrap();
//! let c = session.social_cost();
//! assert_eq!(c.link_cost, 4.0);    // α · |E| = 1 · 4
//! assert_eq!(c.stretch_cost, 6.0); // n(n-1) stretches of 1
//!
//! // The chain is a Nash equilibrium here: dropping a link disconnects,
//! // and extra links cost α without reducing any stretch below 1.
//! assert!(session.is_nash(&NashTest::exact()).unwrap().is_nash());
//!
//! // Mutate through the session: caches are repaired, not discarded.
//! session.apply(Move::AddLink { from: PeerId::new(0), to: PeerId::new(2) }).unwrap();
//! assert_eq!(session.social_cost().total(), c.total() + 1.0); // one more α, no stretch saved
//! ```
//!
//! # Example: the source-compatible free functions
//!
//! ```
//! use sp_core::{Game, StrategyProfile, social_cost, is_nash, NashTest};
//! use sp_metric::LineSpace;
//!
//! let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap(), 1.0).unwrap();
//! let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
//! assert_eq!(social_cost(&game, &chain).unwrap().total(), 10.0);
//! assert!(is_nash(&game, &chain, &NashTest::exact()).unwrap().is_nash());
//! ```

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod best_response;
mod cost;
mod error;
mod game;
mod oracle_cache;
mod peer;
pub mod poa;
mod session;
mod sparse;
mod strategy;
mod topology;

pub use best_response::{best_response, first_improving_move, BestResponse, BestResponseMethod};
pub use cost::{all_peer_costs, peer_cost, social_cost, SocialCost};
pub use error::CoreError;
pub use game::Game;
pub use peer::{LinkSet, PeerId};
pub use session::{GameSession, Move, SessionStats};
pub use sparse::{BackendMode, SparseParams, SparseSession};
pub use strategy::StrategyProfile;
pub use topology::{
    max_stretch, overlay_distances, stretch_matrix, topology, topology_without_peer,
};

mod equilibrium;
pub use equilibrium::{is_nash, nash_gap, Deviation, NashReport, NashTest};
