//! # selfish-peers
//!
//! A reproduction of **"On the Topologies Formed by Selfish Peers"**
//! (Moscibroda, Schmid & Wattenhofer, PODC 2006): peers located in a metric
//! space unilaterally choose directed overlay links, trading link
//! maintenance cost `α` per link against the *stretch* (latency inflation)
//! of their lookups.
//!
//! This facade crate re-exports the entire workspace API. See the individual
//! crates for details:
//!
//! * [`graph`] — directed weighted graphs, Dijkstra, APSP, reachability.
//! * [`metric`] — metric spaces, peer placements, generators.
//! * [`facility`] — facility-location solvers powering best responses.
//! * [`core`] — the game itself: costs, best responses, Nash equilibria.
//! * [`dynamics`] — best-response dynamics, schedules, cycle detection.
//! * [`constructions`] — the paper's instances (Figures 1–3) and baselines.
//! * [`analysis`] — Price-of-Anarchy harness and experiment reports.
//! * [`sim`] — discrete-event lookup simulation (shortest-path and
//!   greedy routing, TTLs, failures).
//!
//! # Quickstart
//!
//! Evaluation is session-oriented: a [`core::GameSession`] owns the game
//! and the evolving strategy profile and keeps the overlay's shortest
//! paths cached across queries and moves. The dynamics engine drives a
//! session internally (`run`) or one you own (`run_session`), and every
//! follow-up measurement reuses its warm caches:
//!
//! ```
//! use selfish_peers::prelude::*;
//!
//! // Five peers on a line, link cost alpha = 2.
//! let space = LineSpace::new(vec![0.0, 1.0, 2.5, 4.0, 8.0]).unwrap();
//! let game = Game::from_space(&space, 2.0).unwrap();
//!
//! // One session carries the profile through dynamics and analysis.
//! let mut session = GameSession::new(game.clone(), StrategyProfile::empty(game.n())).unwrap();
//! let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
//! let outcome = runner.run_session(&mut session);
//! match outcome.termination {
//!     Termination::Converged { .. } => {
//!         // Equilibrium checks and cost queries hit the cached overlay.
//!         assert!(session.is_nash(&NashTest::exact()).unwrap().is_nash());
//!         assert!(session.social_cost().is_connected());
//!         assert!(session.max_stretch() <= game.alpha() + 1.0 + 1e-9);
//!     }
//!     _ => panic!("tiny line instances converge"),
//! }
//! ```
//!
//! The pre-session free functions (`social_cost(&game, &profile)`, …)
//! remain available as thin wrappers that build a throwaway session per
//! call.

#![forbid(unsafe_code)]

pub use sp_analysis as analysis;
pub use sp_constructions as constructions;
pub use sp_core as core;
pub use sp_dynamics as dynamics;
pub use sp_facility as facility;
pub use sp_graph as graph;
pub use sp_metric as metric;
pub use sp_sim as sim;

pub mod spec;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use sp_analysis::poa::{PoaBracket, PoaEstimator};
    pub use sp_constructions::baselines;
    pub use sp_constructions::fabrikant::FabrikantGame;
    pub use sp_constructions::line::LineLowerBound;
    pub use sp_constructions::no_ne::NoEquilibriumInstance;
    pub use sp_core::{
        best_response, is_nash, social_cost, BestResponse, BestResponseMethod, Game, GameSession,
        LinkSet, Move, NashTest, PeerId, SessionStats, StrategyProfile,
    };
    pub use sp_dynamics::{
        DynamicsConfig, DynamicsOutcome, DynamicsRunner, ResponseRule, Schedule, Termination,
    };
    pub use sp_graph::{DiGraph, DistanceMatrix};
    pub use sp_metric::{ClusteredPoints, Euclidean2D, LineSpace, MatrixMetric, MetricSpace};
    pub use sp_sim::{LookupSimulator, Routing, SimConfig};
}
