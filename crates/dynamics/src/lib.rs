//! Sequential-move dynamics for the selfish-peers game.
//!
//! The paper's Section 5 shows that selfish peers may *never* reach a
//! stable topology: best-response dynamics can cycle forever even without
//! churn. This crate provides the machinery to observe exactly that:
//!
//! * [`DynamicsRunner`] — activates one peer at a time per a
//!   [`Schedule`], letting it play a best response or the first improving
//!   move ([`ResponseRule`]);
//! * convergence detection — a profile is stable when every peer has been
//!   activated since the last change and none of them moved;
//! * cycle detection — for deterministic schedules, revisiting a
//!   `(profile, schedule position)` state proves the dynamics loops
//!   forever ([`Termination::Cycle`]);
//! * [`Trace`] — a full record of every strategy change, used by the
//!   Figure 3 experiment to print the improvement cycle;
//! * [`stats`] — batch convergence statistics over seeds;
//! * [`churn`] — an extension simulating peers joining and leaving.
//!
//! # Round engines and the determinism contract
//!
//! The sequential engine drives one `GameSession` per run and repairs its
//! caches move by move; with [`DynamicsConfig::oracle_reuse`] (the
//! default) each activation's best/better-response oracle is also served
//! from the session's persistent oracle cache — candidate rows come from
//! the cached overlay rows, so consecutive activations stop paying
//! `n - 1` fresh sweeps each. Every accepted move commits through
//! `GameSession::apply`, which repairs the rows its removed links were
//! tight on in place, so no row is swept again (`oracle_reuse: false`
//! restores the fresh-oracle engine, kept as the bench baseline; both
//! are bit-identical by property-tested contract).
//! [`simultaneous::run_simultaneous`] and the churn simulator instead
//! commit each round's (respectively each churn event's) accepted
//! updates through `GameSession::apply_batch`, paying a single overlay
//! rebuild and repair pass per round however many peers switched.
//! Cycle detection in the sequential engine keys its seen-state map on
//! 64-bit profile fingerprints and confirms hits against a compact
//! canonical encoding, so the per-step cost stays O(links) with no false
//! cycle reports.
//!
//! A simultaneous round computes k independent best-response oracles
//! against the frozen round-start profile, so
//! [`simultaneous::run_simultaneous`] runs them through
//! `GameSession::best_responses_round`, which freezes the round-start
//! overlay snapshot once, fans the oracles out over worker shards that
//! all borrow that snapshot, each with its own Dijkstra scratch (or runs
//! them on the calling thread at one shard), and merges the accepted
//! moves in stable peer order into one `apply_batch`. The
//! [`simultaneous::SimultaneousConfig::parallelism`] knob (also fed to
//! `GameSession::set_parallelism`) sets the shard count. **Determinism
//! contract:** runs are bit-identical — accepted-move sets, traces,
//! termination, and round counts — for any shard count, enforced by
//! `tests/proptest_parallel_round.rs`. The churn simulator's
//! [`churn::ChurnSimulator::settle_rounds`] re-stabilises through the
//! same round engine.
//!
//! For instances too large for any full-matrix engine, the
//! [`large_scale`] driver polls [`sp_core::SparseSession::local_response`]
//! per peer and commits each round through one `apply_batch` — `O(n)`
//! transient memory per round, no `n × n` state ever.
//!
//! # Example
//!
//! ```
//! use sp_core::{Game, StrategyProfile};
//! use sp_dynamics::{DynamicsConfig, DynamicsRunner, Termination};
//! use sp_metric::LineSpace;
//!
//! let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap(), 1.0).unwrap();
//! let mut runner = DynamicsRunner::new(&game, DynamicsConfig::default());
//! let outcome = runner.run(StrategyProfile::empty(3));
//! assert!(matches!(outcome.termination, Termination::Converged { .. }));
//! ```

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod churn;
mod engine;
pub mod large_scale;
mod schedule;
pub mod simultaneous;
pub mod stats;
mod trace;

pub use engine::{
    run_config_on_session, DynamicsConfig, DynamicsOutcome, DynamicsRunner, ResponseRule,
    Termination,
};
pub use schedule::{Schedule, ScheduleState};
pub use trace::{MoveRecord, Trace};
