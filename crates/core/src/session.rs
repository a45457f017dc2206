//! Session-oriented game evaluation with cached overlay state.
//!
//! The free functions ([`peer_cost`](crate::peer_cost),
//! [`social_cost`](crate::social_cost), …) rebuild the overlay graph and
//! rerun shortest paths on every call, which is wasteful in hot loops
//! like best-response dynamics where successive queries differ by a
//! single peer's out-links. A [`GameSession`] owns the game and the
//! current profile and keeps two derived structures resident:
//!
//! * the overlay CSR snapshot (and, once an oracle or a sparse sketch
//!   needs it, its transpose);
//! * the overlay distance matrix, with **per-row validity** — rows are
//!   (re)computed lazily, one Dijkstra sweep at a time.
//!
//! The cost readouts ([`GameSession::social_cost`],
//! [`GameSession::all_peer_costs`], [`GameSession::max_stretch`]) are
//! reductions over those rows: one pass, each overlay row read next to
//! its latency row [`Game::latency_row`], with no derived copy kept.
//!
//! [`GameSession::apply`] mutates the profile through [`Move`]s and
//! repairs the cache incrementally instead of discarding it:
//!
//! * an **added** link `(i, j)` triggers a decrease-only re-relaxation
//!   seeded at `j` ([`sp_graph::CsrGraph::relax_decrease_into`]) — work
//!   proportional to the region whose distances actually improve, not a
//!   full APSP. A move folds its added links into every row first;
//! * a row `u` then keeps every node no **removed** link `(i, j)` is
//!   tight on (`d_u(i) + w(i,j) > d_u(j)`, `O(1)` per row per removed
//!   link), and the nodes below tight removed links are **repaired in
//!   place** by [`sp_graph::CsrGraph::dijkstra_without`], which
//!   recomputes only those shortest-path subtrees, seeded through the
//!   overlay CSR's transpose. Folding first means a node the move's new
//!   links take over is never reset.
//!
//! Both repairs settle through a FIFO worklist, not a priority queue:
//! they start from an exact row with a small frontier, and any settle
//! order reaches the same bits (see the repair invariants in
//! `crate::oracle_cache`). A repair hands off to Dijkstra after `n`
//! pops, so none costs more than `n` pops plus one sweep;
//! [`SessionStats::repair_pops`] counts the pops. The from-scratch
//! sweeps (cold fills and refills) keep the heap.
//!
//! A move leaves every valid row valid, so a best response followed by
//! an `apply` of it — one step of sequential dynamics — refills nothing.
//!
//! Multi-move churn events (a simultaneous round, a peer departure) go
//! through [`GameSession::apply_batch`], which folds any number of
//! [`Move`]s into **one** profile mutation, **one** CSR rebuild, and a
//! **single** repair pass against the net edge diff. A batch whose net
//! added and removed links all leave one peer is repaired like an
//! `apply`. Any other batch instead drops every row a removed link is
//! tight on, and one seeded decrease-only relaxation per surviving row
//! covers all added links. Bulk row refills (a cold
//! [`GameSession::social_cost`], the rows dropped by such a batch) are
//! sharded over `std::thread::available_parallelism` scoped worker
//! threads ([`sp_graph::CsrGraph::dijkstra_rows_with`]), each with its
//! own [`DijkstraScratch`]; on simultaneous-round batches that refill is
//! faster than repairing the many broken rows one by one.
//!
//! The overlay matrix lives in one [`OracleCache`](crate::oracle_cache).
//! Every cached oracle the session hands out (a sequential
//! [`GameSession::best_response`] activation, the sharded
//! [`GameSession::best_responses_round`] fan-out that `nash_gap` and
//! `is_nash` also run on, the lazy [`GameSession::first_improving_move`]
//! scan) first makes every overlay row valid, then reads one frozen
//! snapshot of the rows, the CSR and its transpose through shared
//! borrows — the shards of a round all borrow the same snapshot. Each
//! oracle reads its candidate rows from one lazy row store over those
//! overlay rows: a clean row is exact as it stands, a dirty row is held
//! as a certified lower bound, and a residual `G_{-i}` row is derived by
//! subtree repair only when the solver needs that row exact — for the
//! greedy, only when the row's bound score can still win. The uncached
//! variants
//! ([`GameSession::best_response_uncached`],
//! [`GameSession::first_improving_move_uncached`]) sweep a fresh
//! `G_{-i}` oracle per call; they are the reference the cached paths are
//! property-tested bit-identical against, and the baseline the
//! `sequential_reuse` bench measures the cache's savings from.
//!
//! [`SessionStats`] counts the sweeps actually performed, so benchmarks
//! and tests can verify the cache earns its keep.
//!
//! # Backends
//!
//! Everything above describes the **dense** backend — the default, and
//! the exact reference. A session can instead be created in **sparse**
//! mode ([`GameSession::new_sparse`]), which swaps the `O(n²)` distance
//! matrix for landmark sketches plus bounded-radius sweeps (see
//! [`crate::backend`] for the mode-selection guidance). Sparse sessions
//! answer the heuristic [`GameSession::local_response`] without ever
//! materialising a matrix, and route the certified queries
//! (`best_response`, `nash_gap`, `is_nash`, `first_improving_move`)
//! through the uncached per-peer `G_{-i}` oracles — `O(n)` memory at a
//! time.

use std::ops::ControlFlow;
use std::sync::Arc;

use sp_graph::{CsrGraph, DijkstraScratch, DistanceMatrix};

use crate::backend::{BackendMode, SessionBackend};
use crate::best_response::{
    finish_response, first_improving_move_lazy, respond, CandidateRows, OracleReuse, Overlay,
    ResponseOracle,
};
use crate::cost::{cost_from_row, peer_stretch};
use crate::equilibrium::{Deviation, NashReport, NashTest};
use crate::oracle_cache::{repairs_in_place, OracleCache};
use crate::sparse::{LocalCounts, SparseBackend, SparseParams};
use crate::{
    BestResponse, BestResponseMethod, CoreError, Game, LinkSet, PeerId, SocialCost, StrategyProfile,
};

/// Relative tolerance for the "was this removed edge on a shortest
/// path?" test. Conservative: ties invalidate the row (costs a recompute,
/// never correctness). Shared with the best-response oracle's cached-row
/// reuse test, which asks the same question about a peer's out-links.
pub(crate) const EDGE_ON_PATH_EPS: f64 = 1e-9;

/// Minimum number of invalid rows before a bulk refill shards the sweeps
/// over worker threads; below this the per-thread spawn cost outweighs
/// the Dijkstra work on the instance sizes the workspace runs.
const PAR_ROWS_MIN: usize = 32;

/// Minimum number of activated peers before
/// [`GameSession::best_responses_round`] shards its oracles over worker
/// threads under automatic parallelism; smaller rounds run on the calling
/// thread (still against the shared round-start snapshot).
const PAR_ORACLES_MIN: usize = 8;

/// A unilateral change to the current profile, applied through
/// [`GameSession::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Replace `peer`'s entire out-link set (what best-response dynamics
    /// does each accepted activation).
    SetStrategy {
        /// The moving peer.
        peer: PeerId,
        /// Its new out-links.
        links: LinkSet,
    },
    /// Add the single link `from → to`.
    AddLink {
        /// Link owner.
        from: PeerId,
        /// Link target.
        to: PeerId,
    },
    /// Remove the single link `from → to`.
    RemoveLink {
        /// Link owner.
        from: PeerId,
        /// Link target.
        to: PeerId,
    },
}

/// Counters describing how much shortest-path work a session performed.
///
/// `full_sssp / n` is the number of APSP-equivalents actually computed;
/// the rebuild-per-call path performs one full APSP per `social_cost`
/// and one sweep (plus a topology rebuild) per `peer_cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Overlay CSR snapshots built.
    pub csr_rebuilds: usize,
    /// Full single-source sweeps (one distance-matrix row from scratch):
    /// cold fills and refills of dropped rows, whichever query asked for
    /// them. A move that removes links of one peer repairs its broken
    /// rows in place and sweeps none.
    pub full_sssp: usize,
    /// Seeded decrease-only re-relaxations (cheap incremental repairs):
    /// kept rows an added link shortens. A one-peer diff folds its added
    /// links into every valid row before its removals are repaired, so
    /// each such row that an added link improves counts here, whether or
    /// not a removed link was tight on it.
    pub incremental_relaxations: usize,
    /// Rows dropped by a repair pass because a removed link may have
    /// carried a shortest path: only by an [`GameSession::apply_batch`]
    /// whose changed links leave several peers. Every other move repairs
    /// such rows in place.
    pub rows_invalidated: usize,
    /// Rows that survived a repair pass, untouched, decrease-relaxed or
    /// repaired in place below a removed link.
    pub rows_preserved: usize,
    /// Best-response oracles built or lazy better-response scans run
    /// (an uncached build costs `n - 1` sweeps, counted separately from
    /// `full_sssp`).
    pub oracle_builds: usize,
    /// Calls to [`GameSession::apply_batch`] that reached the repair pass
    /// (batches that were pure no-ops are not counted).
    pub batch_applies: usize,
    /// Individual moves folded into those batched applies.
    pub batch_moves: usize,
    /// Bulk row refills that ran sharded over worker threads.
    pub parallel_passes: usize,
    /// Rows recomputed inside parallel passes (also counted in
    /// [`SessionStats::full_sssp`]).
    pub parallel_rows: usize,
    /// Calls to [`GameSession::best_responses_round`] that actually
    /// fanned oracles out over worker shards.
    pub oracle_parallel_rounds: usize,
    /// Worker shards spawned across those parallel rounds.
    pub oracle_shards: usize,
    /// Candidate rows served verbatim by cached oracle paths
    /// ([`GameSession::best_response`], [`GameSession::best_responses_round`],
    /// [`GameSession::first_improving_move`], `nash_gap`, `is_nash`):
    /// clean overlay rows no out-link of the responder is tight on.
    pub seq_oracle_hits: usize,
    /// Always `0`: every cached oracle path, the lazy
    /// [`GameSession::first_improving_move`] scan included, refills the
    /// invalid overlay rows (counted in [`SessionStats::full_sssp`])
    /// before it reads any, so no candidate row pays a sweep of its own.
    /// Kept only because the end-to-end benchmark harness still reads it.
    pub seq_oracle_swept: usize,
    /// Candidate rows of cached oracle paths that were not clean but were
    /// derived from their overlay row by
    /// `sp_graph::CsrGraph::dijkstra_without`, recomputing only the
    /// shortest-path subtree below the responding peer's tight out-links
    /// instead of paying a full sweep. Overlay rows a move repairs are
    /// counted in [`SessionStats::rows_preserved`], not here.
    pub oracle_rows_repaired: usize,
    /// Candidate rows of cached oracle paths served only as certified
    /// lower bounds (dirty overlay rows) and never made exact: the greedy
    /// proved from the bound that the row's facility could not win, or
    /// the better-response scan rejected every move on it. A
    /// best-response oracle's `n − 1` candidate rows add up across reused
    /// (`seq_oracle_hits`), repaired and bounded.
    pub oracle_rows_bounded: usize,
    /// Snapshots exported via [`GameSession::snapshot`] — the spill half
    /// of an eviction cycle in a session registry.
    pub snapshot_exports: usize,
    /// `1` when this session was rebuilt by [`GameSession::restore`]
    /// (registries count restores by summing this over live sessions).
    pub snapshot_restores: usize,
    /// Landmark sketch rows swept by a sparse backend — the initial
    /// `2·L` build rows plus every row the post-move repair rebuilt
    /// (also counted in [`SessionStats::full_sssp`]).
    pub sparse_sketch_rows: usize,
    /// Bounded-radius Dijkstra sweeps performed by
    /// [`GameSession::local_response`] candidate evaluation.
    pub sparse_ball_sweeps: usize,
    /// Demand entries a sparse candidate evaluation answered with a
    /// certified sketch upper bound instead of an exact distance.
    pub sparse_sketch_hits: usize,
    /// Candidate moves a sparse [`GameSession::local_response`] pruned on
    /// the stretch-floor bound without evaluating them.
    pub sparse_pruned_candidates: usize,
    /// Candidate moves the lazy better-response scan
    /// ([`GameSession::first_improving_move`]) rejected on a certified
    /// lower bound alone — each one skips materialising an exact row
    /// that a full oracle build would have repaired or converted.
    pub lazy_certified_rejects: usize,
    /// Candidate moves whose lazy lower bound survived the improvement
    /// test and therefore paid exact escalation.
    pub lazy_exact_evals: usize,
    /// Nodes whose overlay distance the removal kernel
    /// (`sp_graph::CsrGraph::dijkstra_without`) reset and re-derived
    /// while repairing rows in place after a one-peer diff. The mover's
    /// added links are folded in first, so a node they take over is
    /// never reset; only distances that really grew are.
    pub repair_nodes_reset: usize,
    /// Worklist pops of the row repairs a committed diff runs on the
    /// dense backend: the decrease folds of its added links
    /// (`sp_graph::CsrGraph::relax_decrease_into`) and the in-place
    /// removal repairs counted in [`SessionStats::repair_nodes_reset`].
    /// A FIFO worklist can pop a node more than once, so this is the
    /// counter a re-labelling blow-up shows in.
    pub repair_pops: usize,
}

impl SessionStats {
    /// Adds every counter of `other` into `self` — the one true way to
    /// aggregate stats across sessions, rounds, or repeated runs. The
    /// exhaustive destructure makes "added a field, forgot a merge
    /// site" a compile error, and the `counters` marker lets `sp-lint`
    /// cross-check the field list besides.
    // sp-lint: counters(SessionStats)
    pub fn merge(&mut self, other: &SessionStats) {
        let SessionStats {
            csr_rebuilds,
            full_sssp,
            incremental_relaxations,
            rows_invalidated,
            rows_preserved,
            oracle_builds,
            batch_applies,
            batch_moves,
            parallel_passes,
            parallel_rows,
            oracle_parallel_rounds,
            oracle_shards,
            seq_oracle_hits,
            seq_oracle_swept,
            oracle_rows_repaired,
            oracle_rows_bounded,
            snapshot_exports,
            snapshot_restores,
            sparse_sketch_rows,
            sparse_ball_sweeps,
            sparse_sketch_hits,
            sparse_pruned_candidates,
            lazy_certified_rejects,
            lazy_exact_evals,
            repair_nodes_reset,
            repair_pops,
        } = *other;
        self.csr_rebuilds += csr_rebuilds;
        self.full_sssp += full_sssp;
        self.incremental_relaxations += incremental_relaxations;
        self.rows_invalidated += rows_invalidated;
        self.rows_preserved += rows_preserved;
        self.oracle_builds += oracle_builds;
        self.batch_applies += batch_applies;
        self.batch_moves += batch_moves;
        self.parallel_passes += parallel_passes;
        self.parallel_rows += parallel_rows;
        self.oracle_parallel_rounds += oracle_parallel_rounds;
        self.oracle_shards += oracle_shards;
        self.seq_oracle_hits += seq_oracle_hits;
        self.seq_oracle_swept += seq_oracle_swept;
        self.oracle_rows_repaired += oracle_rows_repaired;
        self.oracle_rows_bounded += oracle_rows_bounded;
        self.snapshot_exports += snapshot_exports;
        self.snapshot_restores += snapshot_restores;
        self.sparse_sketch_rows += sparse_sketch_rows;
        self.sparse_ball_sweeps += sparse_ball_sweeps;
        self.sparse_sketch_hits += sparse_sketch_hits;
        self.sparse_pruned_candidates += sparse_pruned_candidates;
        self.lazy_certified_rejects += lazy_certified_rejects;
        self.lazy_exact_evals += lazy_exact_evals;
        self.repair_nodes_reset += repair_nodes_reset;
        self.repair_pops += repair_pops;
    }
}

/// A stateful evaluation handle: a [`Game`], the current
/// [`StrategyProfile`], and lazily maintained overlay caches.
///
/// All query methods take `&mut self` because they fill caches on
/// demand; none of them changes the profile. Only [`GameSession::apply`]
/// and [`GameSession::apply_batch`] do.
///
/// # Example
///
/// ```
/// use sp_core::{GameSession, Move, Game, PeerId, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap(), 1.0).unwrap();
/// let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
/// let mut session = GameSession::new(game, chain).unwrap();
///
/// let before = session.social_cost().total();
/// session.apply(Move::AddLink { from: PeerId::new(0), to: PeerId::new(2) }).unwrap();
/// let after = session.social_cost().total();
/// // The extra link costs α = 1 and saves no stretch on a line.
/// assert_eq!(after, before + 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GameSession {
    /// The immutable game, reference-counted so service layers can hold
    /// it ([`GameSession::game_arc`]) without copying its O(n²) distance
    /// matrix.
    game: Arc<Game>,
    profile: StrategyProfile,
    /// Overlay CSR snapshot; `None` when no query has needed it yet (or
    /// after a full reset).
    csr: Option<CsrGraph>,
    /// Transpose of `csr` — the in-edges the cached oracle's row repair
    /// seeds from, and the graph a sparse session's landmark sketch
    /// sweeps backward on. Built lazily by the first query that needs it
    /// and dropped whenever `csr` is.
    transpose: Option<CsrGraph>,
    /// The pluggable distance backend. Dense sessions hold the overlay
    /// distance rows with per-row validity; sparse sessions hold
    /// landmark sketches and bounded-sweep state. Both are repaired —
    /// never discarded — by [`GameSession::apply`] / `apply_batch`.
    backend: SessionBackend,
    scratch: DijkstraScratch,
    /// Worker-thread override for bulk row refills; `None` = auto.
    parallelism: Option<usize>,
    stats: SessionStats,
}

impl GameSession {
    /// Creates a session owning `game` and `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] when the profile and
    /// game disagree on the number of peers.
    pub fn new(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        if profile.n() != game.n() {
            return Err(CoreError::ProfileSizeMismatch {
                expected: game.n(),
                actual: profile.n(),
            });
        }
        let n = game.n();
        Ok(GameSession {
            game: Arc::new(game),
            profile,
            csr: None,
            transpose: None,
            backend: SessionBackend::Dense(OracleCache::new(n)),
            scratch: DijkstraScratch::new(),
            parallelism: None,
            stats: SessionStats::default(),
        })
    }

    /// Convenience constructor cloning borrowed inputs — what the legacy
    /// free-function wrappers use.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn from_refs(game: &Game, profile: &StrategyProfile) -> Result<Self, CoreError> {
        GameSession::new(game.clone(), profile.clone())
    }

    /// Creates a session on the **sparse** landmark backend with default
    /// [`SparseParams`] — the mode for instances too large for the dense
    /// `8n²`-byte matrix. See [`crate::backend`] for when to pick which
    /// mode.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn new_sparse(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        GameSession::new_sparse_with(game, profile, SparseParams::default())
    }

    /// Like [`GameSession::new_sparse`] with explicit tuning parameters.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn new_sparse_with(
        game: Game,
        profile: StrategyProfile,
        params: SparseParams,
    ) -> Result<Self, CoreError> {
        if profile.n() != game.n() {
            return Err(CoreError::ProfileSizeMismatch {
                expected: game.n(),
                actual: profile.n(),
            });
        }
        let backend = SessionBackend::Sparse(Box::new(SparseBackend::new(&game, params)));
        Ok(GameSession {
            game: Arc::new(game),
            profile,
            csr: None,
            transpose: None,
            backend,
            scratch: DijkstraScratch::new(),
            parallelism: None,
            stats: SessionStats::default(),
        })
    }

    /// Which backend this session evaluates on.
    #[must_use]
    pub fn backend_mode(&self) -> BackendMode {
        self.backend.mode()
    }

    /// The sparse tuning parameters, when this is a sparse session
    /// (`None` on dense sessions) — what a service persists so a
    /// restored session behaves identically.
    #[must_use]
    pub fn sparse_params(&self) -> Option<SparseParams> {
        if self.backend.is_sparse() {
            Some(*self.backend.sparse().params())
        } else {
            None
        }
    }

    /// The game being evaluated.
    #[must_use]
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// A shared handle to the game — what service layers clone to keep
    /// the game alive while the session itself is mutably borrowed (the
    /// dynamics runner borrows the game and the session at once), without
    /// copying the O(n²) distance matrix.
    #[must_use]
    pub fn game_arc(&self) -> Arc<Game> {
        Arc::clone(&self.game)
    }

    /// The current profile.
    #[must_use]
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.game.n()
    }

    /// Consumes the session, returning the current profile.
    #[must_use]
    pub fn into_profile(self) -> StrategyProfile {
        self.profile
    }

    /// Work counters accumulated since creation (or the last
    /// [`GameSession::reset_stats`]).
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Zeroes the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Semantic size of this session's mutable state in bytes: the
    /// profile, the overlay CSR snapshot and its transpose, and the
    /// backend's distance state (the dense overlay matrix, or the sparse
    /// sketches and transient row). Cost readouts keep nothing beyond
    /// those rows, so they never grow it. The (shared, immutable) [`Game`]
    /// is excluded — registries account for it per slot, since sessions
    /// may share one game through [`GameSession::game_arc`].
    ///
    /// Sizes are computed from the data's shape, not from allocator
    /// bookkeeping, so the same session state reports the same bytes on
    /// every machine — which is what lets a registry's eviction decisions
    /// (and the benches that count them) stay deterministic.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let n = self.game.n();
        let usize_b = std::mem::size_of::<usize>();
        let f64_b = std::mem::size_of::<f64>();
        let profile = n * std::mem::size_of::<LinkSet>()
            + self.profile.link_count() * std::mem::size_of::<PeerId>();
        let csr_bytes = |c: &CsrGraph| (n + 1) * usize_b + c.edge_count() * (usize_b + f64_b);
        let csr =
            self.csr.as_ref().map_or(0, csr_bytes) + self.transpose.as_ref().map_or(0, csr_bytes);
        profile + csr + self.backend.memory_bytes()
    }

    /// Captures the session's mutable state for spill-to-disk
    /// persistence: the strategy profile. Everything else a session holds
    /// is derived from the profile and the (immutable) [`Game`] and is
    /// rebuilt lazily after [`GameSession::restore`], so a snapshot stays
    /// `O(links)` and can never carry a stale or tampered cache. Counts
    /// one [`SessionStats::snapshot_exports`].
    #[must_use]
    pub fn snapshot(&mut self) -> StrategyProfile {
        self.stats.snapshot_exports += 1;
        self.profile.clone()
    }

    /// Rebuilds a dense session from `game` and a profile captured by
    /// [`GameSession::snapshot`]. Caches start cold and refill on demand;
    /// cached ≡ fresh makes every answer bit-identical to the source
    /// session's (property-tested in
    /// `crates/serve/tests/proptest_snapshot.rs`). Work counters start
    /// fresh except [`SessionStats::snapshot_restores`], which is `1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ProfileSizeMismatch`] when the profile disagrees with
    /// the game on the peer count.
    pub fn restore(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        let mut session = GameSession::new(game, profile)?;
        session.stats.snapshot_restores = 1;
        Ok(session)
    }

    /// Rebuilds a **sparse** session from a profile captured by
    /// [`GameSession::snapshot`] and the session's [`SparseParams`]. Work
    /// counters start fresh except [`SessionStats::snapshot_restores`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::new_sparse_with`].
    pub fn restore_sparse(
        game: Game,
        profile: StrategyProfile,
        params: SparseParams,
    ) -> Result<Self, CoreError> {
        let mut session = GameSession::new_sparse_with(game, profile, params)?;
        session.stats.snapshot_restores = 1;
        Ok(session)
    }

    /// Applies a unilateral move, repairing the distance cache
    /// incrementally, and returns the links the peer held before.
    ///
    /// Every valid overlay row stays valid: the move's added links are
    /// folded into each row, then the subtrees below its removed links
    /// that are still tight are recomputed in place (see
    /// [`SessionStats::repair_nodes_reset`]).
    ///
    /// # Errors
    ///
    /// * [`CoreError::PeerOutOfBounds`] for out-of-range peers (either
    ///   endpoint of a single-link move, or a target inside
    ///   [`Move::SetStrategy`] links);
    /// * [`CoreError::SelfLink`] when a move would create a self-link.
    pub fn apply(&mut self, mv: Move) -> Result<LinkSet, CoreError> {
        self.validate_move(&mv)?;
        let (peer, new_links) = self.resolve_validated(&mv);
        let old_links = self.profile.strategy(peer).clone();
        if old_links == new_links {
            return Ok(old_links);
        }

        let mut added: Vec<(usize, usize, f64)> = Vec::new();
        let mut removed: Vec<(usize, usize, f64)> = Vec::new();
        self.edge_diff(
            peer.index(),
            &old_links,
            &new_links,
            &mut added,
            &mut removed,
        );

        self.profile
            .set_strategy(peer, new_links)
            .expect("move endpoints validated above");
        self.repair_after_edges(&added, &removed);
        Ok(old_links)
    }

    /// Applies a whole batch of moves — a simultaneous round, a churn
    /// event — as **one** cache transaction: the profile is mutated move
    /// by move (later moves see earlier ones), but the overlay CSR is
    /// rebuilt once and the distance rows are repaired in a single pass
    /// against the *net* edge change, so moves that cancel out inside
    /// the batch cost nothing.
    ///
    /// When the net added and removed links all leave one peer —
    /// several moves by the same peer, say — the rows are repaired in
    /// place exactly as by [`GameSession::apply`]. Otherwise (links of
    /// two or more peers change, even if only one of them removes) the
    /// rows a removed link is tight on are dropped, to be refilled by
    /// one sharded pass when next read.
    ///
    /// Returns, for each move in order, the links its peer held
    /// immediately before that move — exactly what a sequence of
    /// [`GameSession::apply`] calls would have returned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::apply`], checked for **every**
    /// move up front: a failed batch leaves the session untouched.
    pub fn apply_batch(&mut self, moves: &[Move]) -> Result<Vec<LinkSet>, CoreError> {
        for mv in moves {
            self.validate_move(mv)?;
        }
        let n = self.game.n();
        let mut previous = Vec::with_capacity(moves.len());
        let mut pre_batch: Vec<Option<LinkSet>> = vec![None; n];
        for mv in moves {
            let (peer, new_links) = self.resolve_validated(mv);
            let old = self.profile.strategy(peer).clone();
            if pre_batch[peer.index()].is_none() {
                pre_batch[peer.index()] = Some(old.clone());
            }
            if old != new_links {
                self.profile
                    .set_strategy(peer, new_links)
                    .expect("validated above");
            }
            previous.push(old);
        }

        // Net edge diff of every touched peer against its pre-batch
        // strategy — the union the single repair pass runs on.
        let mut added: Vec<(usize, usize, f64)> = Vec::new();
        let mut removed: Vec<(usize, usize, f64)> = Vec::new();
        for (i, old) in pre_batch.iter().enumerate() {
            let Some(old) = old else { continue };
            let new = self.profile.strategy(PeerId::new(i));
            self.edge_diff(i, old, new, &mut added, &mut removed);
        }
        if added.is_empty() && removed.is_empty() {
            return Ok(previous);
        }
        self.stats.batch_applies += 1;
        self.stats.batch_moves += moves.len();
        self.repair_after_edges(&added, &removed);
        Ok(previous)
    }

    /// Bounds- and self-link-checks one move without touching any state.
    fn validate_move(&self, mv: &Move) -> Result<(), CoreError> {
        let n = self.game.n();
        let check = |peer: PeerId| -> Result<(), CoreError> {
            if peer.index() >= n {
                return Err(CoreError::PeerOutOfBounds {
                    peer: peer.index(),
                    n,
                });
            }
            Ok(())
        };
        match mv {
            Move::SetStrategy { peer, links } => {
                check(*peer)?;
                for t in links.iter() {
                    check(t)?;
                    if t == *peer {
                        return Err(CoreError::SelfLink { peer: peer.index() });
                    }
                }
            }
            Move::AddLink { from, to } => {
                check(*from)?;
                check(*to)?;
                if from == to {
                    return Err(CoreError::SelfLink { peer: from.index() });
                }
            }
            Move::RemoveLink { from, to } => {
                check(*from)?;
                check(*to)?;
            }
        }
        Ok(())
    }

    /// Resolves an already-validated move to `(peer, its new link set)`
    /// against the *current* profile.
    fn resolve_validated(&self, mv: &Move) -> (PeerId, LinkSet) {
        match mv {
            Move::SetStrategy { peer, links } => (*peer, links.clone()),
            Move::AddLink { from, to } => (*from, self.profile.strategy(*from).with(*to)),
            Move::RemoveLink { from, to } => (*from, self.profile.strategy(*from).without(*to)),
        }
    }

    /// Appends the `(from, to, weight)` edges by which `new` differs from
    /// `old` for peer `i` — the diff representation both repair paths
    /// consume.
    fn edge_diff(
        &self,
        i: usize,
        old: &LinkSet,
        new: &LinkSet,
        added: &mut Vec<(usize, usize, f64)>,
        removed: &mut Vec<(usize, usize, f64)>,
    ) {
        for t in new.iter().filter(|t| !old.contains(*t)) {
            added.push((i, t.index(), self.game.distance(i, t.index())));
        }
        for t in old.iter().filter(|t| !new.contains(*t)) {
            removed.push((i, t.index(), self.game.distance(i, t.index())));
        }
    }

    /// The shared repair pass behind [`GameSession::apply`] and
    /// [`GameSession::apply_batch`]: given the net `(from, to, weight)`
    /// edge changes already written to the profile, lets the
    /// [`OracleCache`] decrease-relax the kept rows for the added edges
    /// and repair the rows whose shortest paths may have used a removed
    /// edge — folding first and repairing in place when every changed
    /// edge leaves one peer, dropping them otherwise.
    fn repair_after_edges(
        &mut self,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
    ) {
        if self.backend.is_sparse() {
            // Same lazy bail-out shape as the dense tier: with nothing
            // cached, dropping the CSR is strictly cheaper than
            // rebuilding it just to repair an empty sketch.
            if self.csr.is_none() || !self.backend.sparse().has_cached_state() {
                self.drop_csr();
                self.backend.invalidate();
                return;
            }
            self.rebuild_csr();
            if self.backend.sparse().has_sketch() {
                self.ensure_transpose();
            }
            let csr = self.csr.as_ref().expect("just rebuilt");
            let repair = self.backend.sparse_mut().repair(
                csr,
                self.transpose.as_ref(),
                added,
                removed,
                &mut self.scratch,
            );
            self.stats.rows_invalidated += repair.rows_rebuilt;
            self.stats.rows_preserved += repair.rows_preserved;
            self.stats.full_sssp += repair.rows_rebuilt;
            self.stats.sparse_sketch_rows += repair.rows_rebuilt;
            return;
        }

        if self.csr.is_none() || !self.backend.dense().any_valid_row() {
            // Nothing cached worth repairing; stay lazy.
            self.drop_csr();
            self.backend.invalidate();
            return;
        }

        // The edge set changed: refresh the CSR snapshot (O(m), cheap
        // next to the sweeps it lets us keep), and its transpose when the
        // diff leaves one peer, so broken rows are repaired in place.
        self.rebuild_csr();
        if repairs_in_place(added, removed) {
            self.ensure_transpose();
        }
        let csr = self.csr.as_ref().expect("just rebuilt");
        let counts = self.backend.dense_mut().repair_after_edges(
            csr,
            self.transpose.as_ref(),
            added,
            removed,
            &mut self.scratch,
        );
        self.stats.rows_invalidated += counts.rows_invalidated;
        self.stats.rows_preserved += counts.rows_preserved;
        self.stats.incremental_relaxations += counts.incremental_relaxations;
        self.stats.repair_nodes_reset += counts.nodes_reset;
        self.stats.repair_pops += counts.pops;
    }

    /// Drops the overlay CSR and its transpose together.
    fn drop_csr(&mut self) {
        self.csr = None;
        self.transpose = None;
    }

    /// Builds the overlay CSR straight from the profile: each peer's
    /// links in [`LinkSet`] order, weighted by the game's distances.
    fn rebuild_csr(&mut self) {
        let game = &self.game;
        let lists = self.profile.iter().map(|(i, links)| {
            links
                .iter()
                .map(move |j| (j.index(), game.distance(i.index(), j.index())))
        });
        self.csr = Some(CsrGraph::from_out_edges(lists, self.profile.link_count()));
        self.transpose = None;
        self.stats.csr_rebuilds += 1;
    }

    fn ensure_csr(&mut self) {
        if self.csr.is_none() {
            self.rebuild_csr();
        }
    }

    /// Makes the overlay CSR and its transpose available — what the
    /// cached oracle tiers repair rows against and the sparse sketch
    /// sweeps on.
    fn ensure_transpose(&mut self) {
        self.ensure_csr();
        if self.transpose.is_none() {
            let csr = self.csr.as_ref().expect("ensured above");
            self.transpose = Some(csr.transpose());
        }
    }

    /// Makes an exact distance row for source `u` available and returns
    /// it: the cached overlay row (dense) or the transient single-row
    /// buffer (sparse — the row stays valid until the next mutation).
    fn row(&mut self, u: usize) -> &[f64] {
        self.ensure_csr();
        let csr = self.csr.as_ref().expect("ensured above");
        if self.backend.is_sparse() {
            if self
                .backend
                .sparse_mut()
                .compute_row(csr, u, &mut self.scratch)
            {
                self.stats.full_sssp += 1;
            }
            return self.backend.sparse().row_ref(u);
        }
        if self
            .backend
            .dense_mut()
            .ensure_row(csr, u, &mut self.scratch)
        {
            self.stats.full_sssp += 1;
        }
        self.backend.dense().row(u)
    }

    /// Overrides the worker-thread count for every sharded code path:
    /// bulk row refills **and** the oracle fan-out of
    /// [`GameSession::best_responses_round`], whose shards all borrow
    /// the session's one frozen overlay snapshot.
    ///
    /// `None` (the default) derives it from
    /// `std::thread::available_parallelism` and only shards when enough
    /// work queues up (`PAR_ROWS_MIN` invalid rows, `PAR_ORACLES_MIN`
    /// activated peers); an explicit `Some(k > 1)` shards unconditionally
    /// (tests use this to exercise the threaded paths on any machine),
    /// and `Some(1)` forces the sequential paths. `Some(0)` would name a
    /// worker pool that can run nothing, so it is **clamped to
    /// `Some(1)`** — the documented fallback is the calling thread, never
    /// a panic or a silent no-op pool.
    pub fn set_parallelism(&mut self, workers: Option<usize>) {
        self.parallelism = workers.map(|w| w.max(1));
    }

    /// How many worker shards `jobs` (at least one) independent jobs run
    /// on: the [`GameSession::set_parallelism`] override, capped at
    /// `jobs`; under automatic parallelism one shard below `min` jobs and
    /// `std::thread::available_parallelism` (capped at `jobs`) from
    /// there. The probe reads the cgroup CPU quota and costs about 20 µs,
    /// so it runs only where the work could shard.
    fn shard_count(&self, jobs: usize, min: usize) -> usize {
        match self.parallelism {
            Some(k) => k.min(jobs),
            None if jobs >= min => std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(jobs),
            None => 1,
        }
    }

    /// Makes every row valid: the invalid rows are recomputed with one
    /// full sweep each, sharded over worker threads when there are
    /// enough of them to pay for the spawns.
    fn ensure_all_rows(&mut self) {
        debug_assert!(
            !self.backend.is_sparse(),
            "ensure_all_rows materialises the full matrix; sparse paths must not reach it"
        );
        let invalid = self.backend.dense().invalid_row_count();
        if invalid == 0 {
            return;
        }
        let workers = self.shard_count(invalid, PAR_ROWS_MIN);
        if workers > 1 {
            self.ensure_csr();
            let csr = self.csr.as_ref().expect("ensured above");
            csr.dijkstra_rows_with(self.backend.dense_mut().invalid_jobs(), workers);
            self.backend.dense_mut().mark_all_valid();
            self.stats.full_sssp += invalid;
            self.stats.parallel_passes += 1;
            self.stats.parallel_rows += invalid;
        } else {
            for u in 0..self.game.n() {
                let _ = self.row(u);
            }
        }
    }

    /// Individual cost of `peer` under the current profile:
    /// `c_i(s) = α·|s_i| + Σ_{j≠i} stretch(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn peer_cost(&mut self, peer: PeerId) -> Result<f64, CoreError> {
        if peer.index() >= self.game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: self.game.n(),
            });
        }
        let _ = self.row(peer.index());
        let row = self.backend.stored_row(peer.index());
        Ok(cost_from_row(&self.game, &self.profile, peer, row))
    }

    /// Streams every peer's exact overlay row `d_G(u, ·)`, with its
    /// latency row `d(u, ·)`, to `visit` in peer order until `visit`
    /// breaks — the one body behind the cost readouts. Dense sessions
    /// refill their invalid rows once (sharded, as for any bulk refill)
    /// and read the cached rows; sparse sessions sweep one transient row
    /// per peer, so a readout holds `O(n)` memory there.
    fn stream_rows(&mut self, mut visit: impl FnMut(usize, &[f64], &[f64]) -> ControlFlow<()>) {
        let sparse = self.backend.is_sparse();
        if !sparse {
            self.ensure_all_rows();
        }
        for u in 0..self.game.n() {
            if sparse {
                let _ = self.row(u);
            }
            let latency = self.game.latency_row(u);
            if visit(u, self.backend.stored_row(u), &latency).is_break() {
                return;
            }
        }
    }

    /// Individual costs of every peer, one streamed row each (see
    /// [`GameSession::peer_cost`]).
    #[must_use]
    pub fn all_peer_costs(&mut self) -> Vec<f64> {
        let mut stretches = Vec::with_capacity(self.game.n());
        self.stream_rows(|u, row, latency| {
            stretches.push(peer_stretch(u, row, latency));
            ControlFlow::Continue(())
        });
        let alpha = self.game.alpha();
        stretches
            .into_iter()
            .zip(self.profile.iter())
            .map(|(stretch, (_, links))| alpha * links.len() as f64 + stretch)
            .collect()
    }

    /// Social cost of the current profile, decomposed into link and
    /// stretch terms: the stretch term sums `d_G(u, j) / d(u, j)` over
    /// `u`, then `j ≠ u`, ascending, in one pass over the streamed rows.
    #[must_use]
    pub fn social_cost(&mut self) -> SocialCost {
        let mut stretch_cost = 0.0f64;
        self.stream_rows(|u, row, latency| {
            stretch_cost = add_row_stretch(stretch_cost, u, row, latency);
            if stretch_cost.is_infinite() {
                stretch_cost = f64::INFINITY;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        SocialCost {
            link_cost: self.game.alpha() * self.profile.link_count() as f64,
            stretch_cost,
        }
    }

    /// The overlay distance matrix `d_G(i, j)` (fills every row).
    ///
    /// On a **sparse** session this is the documented `O(n²)` escape
    /// hatch — the matrix is materialised transiently for small-instance
    /// debugging and dropped again on the next mutation. Large-`n`
    /// sparse flows must stay on `local_response` / `peer_cost` /
    /// `social_cost` / `max_stretch`, which never call this.
    pub fn overlay_distances(&mut self) -> &DistanceMatrix {
        if self.backend.is_sparse() {
            self.ensure_csr();
            if !self.backend.sparse().escape_ready() {
                self.stats.full_sssp += self.game.n();
            }
            let csr = self.csr.as_ref().expect("ensured above");
            return self
                .backend
                .sparse_mut()
                .escape_matrix(csr, &mut self.scratch);
        }
        self.ensure_all_rows();
        self.backend.dense().matrix()
    }

    /// The stretch matrix `d_G(i, j) / d(i, j)`, `1.0` on the diagonal,
    /// built on demand from the streamed rows and owned by the caller —
    /// the session keeps no copy.
    #[must_use]
    pub fn stretch_matrix(&mut self) -> DistanceMatrix {
        // sp-lint: allow(dense-alloc, reason = "the stretch matrix is inherently n^2; sparse flows never request it")
        let mut s = DistanceMatrix::new_filled(self.game.n(), 1.0);
        self.stream_rows(|u, row, latency| {
            let out = s.row_mut(u).iter_mut();
            for (j, ((out, &d_g), &d)) in out.zip(row).zip(latency).enumerate() {
                if j != u {
                    *out = d_g / d;
                }
            }
            ControlFlow::Continue(())
        });
        s
    }

    /// The largest stretch over all ordered pairs (`1.0` for fewer than
    /// two peers, `∞` when some peer cannot reach some other peer): a
    /// running max of `d_G(i, j) / d(i, j)` over the streamed rows, so a
    /// sparse session answers it in `O(n)` memory. The running max
    /// compares and assigns: an `f64::max` chain measured about twice as
    /// slow at `n = 112`, and both skip NaN, so the bits are the same.
    #[must_use]
    pub fn max_stretch(&mut self) -> f64 {
        let mut m = 1.0f64;
        self.stream_rows(|u, row, latency| {
            for (j, (&d_g, &d)) in row.iter().zip(latency).enumerate() {
                if j != u {
                    let stretch = d_g / d;
                    // sp-lint: allow(float-eps, reason = "running max: exact comparison of computed values; ties leave the identical max")
                    if stretch > m {
                        m = stretch;
                    }
                }
            }
            if m.is_infinite() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        m
    }

    /// `peer`'s best response against the fixed rest of the current
    /// profile, served from the persistent oracle cache. Each candidate's
    /// valid overlay row is a certified lower bound on its residual
    /// `G_{-i}` row, and is that row when none of `peer`'s out-links is
    /// tight on its shortest paths (the same conservative test the
    /// removal repair uses). The greedy reads the dirty rows as bounds
    /// and escalates a row only when its bound score can still win; the
    /// other methods make every row exact. An exact row comes from
    /// `sp_graph::CsrGraph::dijkstra_without`, which recomputes only the
    /// shortest-path subtree below the tight out-links — no full sweep.
    /// Because [`GameSession::apply`] repairs the overlay rows per move,
    /// consecutive activations in sequential dynamics serve most
    /// candidate rows without a repair.
    ///
    /// A one-peer [`GameSession::best_responses_round`]: fills every
    /// invalid overlay row first, plus the overlay CSR's transpose the
    /// repair seeds from, and runs on the calling thread. Bit-identical
    /// to [`GameSession::best_response_uncached`] (property-tested in
    /// `crates/core/tests/proptest_session.rs`, including across
    /// arbitrary interleaved `apply` sequences); the `n - 1` candidate
    /// rows land in [`SessionStats::seq_oracle_hits`],
    /// [`SessionStats::oracle_rows_repaired`] or
    /// [`SessionStats::oracle_rows_bounded`]. A sparse session answers
    /// through the uncached oracle.
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::best_response`].
    pub fn best_response(
        &mut self,
        peer: PeerId,
        method: BestResponseMethod,
    ) -> Result<BestResponse, CoreError> {
        let mut round = self.best_responses_round(&[peer], method)?;
        Ok(round.pop().expect("one response per activated peer"))
    }

    /// Like [`GameSession::best_response`], but always builds a fresh
    /// `G_{-i}` oracle — `n - 1` Dijkstra sweeps, no cache reads or
    /// stores. This is the reference implementation the cached path is
    /// property-tested against, and the pre-cache baseline the
    /// `sequential_reuse` bench measures savings from.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn best_response_uncached(
        &mut self,
        peer: PeerId,
        method: BestResponseMethod,
    ) -> Result<BestResponse, CoreError> {
        let current_cost = self.peer_cost(peer)?;
        if self.game.n() <= 1 {
            return Ok(Self::trivial_response(peer, current_cost));
        }
        let oracle =
            ResponseOracle::build_with(&self.game, &self.profile, peer, &mut self.scratch)?;
        self.stats.oracle_builds += 1;
        let solved = oracle.solve(method)?;
        Ok(finish_response(
            &self.profile,
            peer,
            method,
            solved,
            current_cost,
        ))
    }

    /// The response on a game too small to have candidates (`n <= 1`):
    /// the empty strategy at cost 0, trivially exact.
    fn trivial_response(peer: PeerId, current_cost: f64) -> BestResponse {
        BestResponse {
            peer,
            links: LinkSet::new(),
            cost: 0.0,
            current_cost,
            exact: true,
        }
    }

    /// Bounds-checks `peer` and reports whether the game is too small
    /// for any single-link move to exist (`n <= 1`) — the shared guard
    /// of the better-response paths.
    fn too_small_for_moves(&self, peer: PeerId) -> Result<bool, CoreError> {
        let n = self.game.n();
        if peer.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n,
            });
        }
        Ok(n <= 1)
    }

    /// Makes every overlay row valid and the overlay transpose
    /// available, then lends out the frozen [`Overlay`] snapshot every
    /// cached oracle reads, with the game, the profile and the calling
    /// thread's scratch.
    fn frozen_overlay(&mut self) -> (Overlay<'_>, &Game, &StrategyProfile, &mut DijkstraScratch) {
        self.ensure_all_rows();
        self.ensure_transpose();
        let overlay = Overlay {
            csr: self.csr.as_ref().expect("ensured above"),
            transpose: self.transpose.as_ref().expect("ensured above"),
            rows: self.backend.dense(),
        };
        (overlay, &self.game, &self.profile, &mut self.scratch)
    }

    /// Counts one cached oracle build and its row accounting.
    fn count_rows(&mut self, reuse: OracleReuse) {
        self.stats.oracle_builds += 1;
        self.stats.seq_oracle_hits += reuse.rows_reused;
        self.stats.oracle_rows_repaired += reuse.rows_repaired;
        self.stats.oracle_rows_bounded += reuse.rows_bounded;
    }

    /// Best responses of every peer in `peers` against the **frozen**
    /// current profile — the oracle fan-out of one simultaneous-move
    /// round.
    ///
    /// The session first makes every distance row valid and builds the
    /// overlay transpose; that snapshot is the round-start state every
    /// oracle reads, through shared borrows, with the one cached-oracle
    /// body [`GameSession::best_response`] also runs. When the
    /// [`GameSession::set_parallelism`] knob resolves to more than one
    /// worker — and, under automatic parallelism, at least
    /// `PAR_ORACLES_MIN` peers are activated — activation position `p`
    /// is assigned to shard `p mod k` (a deterministic round-robin
    /// interleave, so repair-heavy peers spread evenly across shards
    /// instead of clustering in one contiguous chunk), shard 0 runs on
    /// the calling thread with the session's scratch, every other shard
    /// on its own scoped worker thread with its own [`DijkstraScratch`],
    /// and the results are scattered back into activation order. No shard
    /// copies or mutates any session state.
    ///
    /// **Determinism contract:** the returned responses are identical —
    /// bit-for-bit, including tie-breaking — whatever the shard count,
    /// because every shard evaluates the same frozen snapshot with the
    /// same per-peer code path and the interleave is a pure function of
    /// `(position, shard count)` that the merge inverts exactly. The
    /// oracles' row accounting is added to this session's
    /// [`SessionStats`]; `oracle_parallel_rounds`/`oracle_shards` record
    /// the fan-out itself. This is the one fan-out for "every peer
    /// against a frozen profile": the simultaneous round engine,
    /// [`GameSession::nash_gap`] and [`GameSession::is_nash`] all run on
    /// it. A sparse session answers every peer through
    /// [`GameSession::best_response_uncached`] instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for any out-of-range peer (checked
    /// up front), plus the [`GameSession::best_response`] conditions; the
    /// error of the lowest-indexed failing shard is returned.
    pub fn best_responses_round(
        &mut self,
        peers: &[PeerId],
        method: BestResponseMethod,
    ) -> Result<Vec<BestResponse>, CoreError> {
        let n = self.game.n();
        for &p in peers {
            if p.index() >= n {
                return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
            }
        }
        if peers.is_empty() {
            return Ok(Vec::new());
        }
        if n <= 1 || self.backend.is_sparse() {
            // A sparse session keeps no overlay matrix to share: each
            // peer pays an exact fresh `G_{-i}` oracle — `O(n)` memory,
            // never an n×n matrix — so the verdict carries the same
            // guarantees as dense mode.
            return peers
                .iter()
                .map(|&p| self.best_response_uncached(p, method))
                .collect();
        }
        let shards = self.shard_count(peers.len(), PAR_ORACLES_MIN);
        let (overlay, game, profile, scratch) = self.frozen_overlay();
        // Shard s computes activation positions s, s + shards, …
        let shard = |s: usize, scratch: &mut DijkstraScratch| {
            peers
                .iter()
                .skip(s)
                .step_by(shards)
                .map(|&p| respond(game, profile, overlay, p, method, scratch))
                .collect::<Result<Vec<_>, CoreError>>()
        };
        // Shard 0 runs on the calling thread with the session's scratch;
        // every other shard gets a scoped worker of its own.
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..shards)
                .map(|s| scope.spawn(move || shard(s, &mut DijkstraScratch::new())))
                .collect();
            let mut results = vec![shard(0, scratch)];
            results.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle shard thread panicked")),
            );
            results
        });
        if shards > 1 {
            self.stats.oracle_parallel_rounds += 1;
            self.stats.oracle_shards += shards;
        }
        // Scatter the shard results back into activation order.
        let mut slots: Vec<Option<BestResponse>> = vec![None; peers.len()];
        for (s, result) in results.into_iter().enumerate() {
            for (k, (br, reuse)) in result?.into_iter().enumerate() {
                self.count_rows(reuse);
                slots[s + k * shards] = Some(br);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("interleave covers every activation position"))
            .collect())
    }

    /// First strictly improving single-link move for `peer` (drop, add,
    /// swap — in that order), or `None`; the "better response" used by
    /// low-churn dynamics. Served from the persistent oracle cache by a
    /// lazy scan over the frozen overlay snapshot (every invalid overlay
    /// row is refilled first, as for [`GameSession::best_response`]):
    /// candidate moves are first tested against certified lower bounds
    /// (dirty overlay rows), and only candidates whose bound survives pay
    /// for exact residual rows, derived like
    /// [`GameSession::best_response`]'s. Bit-identical to
    /// [`GameSession::first_improving_move_uncached`]; rows rejected on a
    /// bound land in [`SessionStats::lazy_certified_rejects`]. A sparse
    /// session answers through the uncached scan.
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::first_improving_move`].
    pub fn first_improving_move(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        if self.backend.is_sparse() {
            return self.first_improving_move_uncached(peer, tol);
        }
        let (overlay, game, profile, scratch) = self.frozen_overlay();
        let rows = CandidateRows::new(game, peer, overlay, scratch);
        let (mv, scan) = first_improving_move_lazy(profile, peer, rows, tol);
        self.count_rows(scan.reuse);
        self.stats.lazy_certified_rejects += scan.certified_rejects;
        self.stats.lazy_exact_evals += scan.exact_evals;
        Ok(mv)
    }

    /// Like [`GameSession::first_improving_move`], but always sweeps a
    /// fresh `G_{-i}` oracle — the cache-free reference and bench
    /// baseline, mirroring [`GameSession::best_response_uncached`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::first_improving_move`].
    pub fn first_improving_move_uncached(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        let oracle =
            ResponseOracle::build_with(&self.game, &self.profile, peer, &mut self.scratch)?;
        self.stats.oracle_builds += 1;
        Ok(oracle.first_improving_move(peer, self.profile.strategy(peer), tol))
    }

    /// Builds the landmark sketch (and the overlay transpose it sweeps
    /// backward on) of a sparse session if absent, charging the `2·L`
    /// landmark sweeps to the stats.
    fn ensure_sparse_ready(&mut self) {
        self.ensure_transpose();
        let csr = self.csr.as_ref().expect("ensured above");
        let transpose = self.transpose.as_ref().expect("ensured above");
        let swept = self
            .backend
            .sparse_mut()
            .ensure_ready(csr, transpose, &mut self.scratch);
        if swept > 0 {
            self.stats.full_sssp += swept;
            self.stats.sparse_sketch_rows += swept;
        }
    }

    /// Certified bounds `(lower, upper)` on the overlay distance
    /// `d_G(u, v)` under the current profile: `lower ≤ d_G(u, v) ≤
    /// upper` always holds. Dense sessions answer exactly
    /// (`lower == upper`); sparse sessions combine the landmark sketch
    /// with the metric lower bound without sweeping from `u`.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn dist_bounds(&mut self, u: PeerId, v: PeerId) -> Result<(f64, f64), CoreError> {
        let n = self.game.n();
        for p in [u, v] {
            if p.index() >= n {
                return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
            }
        }
        if self.backend.is_sparse() {
            self.ensure_sparse_ready();
            return Ok(self
                .backend
                .sparse()
                .dist_bounds(&self.game, u.index(), v.index()));
        }
        let d = self.row(u.index())[v.index()];
        Ok((d, d))
    }

    /// The sparse session's native better response: a **deterministic
    /// heuristic** move for `peer` evaluated against its metric window
    /// only — exact distances inside a bounded ball, certified sketch
    /// upper bounds beyond it, stretch-floor pruning for hopeless
    /// candidates — or `None` when no evaluated move improves.
    ///
    /// Cost model: `O(window · ball_cap · log)` per call, independent of
    /// `n` once the sketch is built. Never materialises a matrix. The
    /// returned move carries `exact: false` — large-`n` dynamics trade
    /// per-move optimality for tractability, converging on the same
    /// better-response principle the paper's dynamics use.
    ///
    /// On a **dense** session this simply forwards to
    /// [`GameSession::first_improving_move`] (exact), so driver code can
    /// call it unconditionally. Sparse sessions whose window already
    /// covers every peer (`window + 1 ≥ n`) also route to the exact scan
    /// — a sparse session on a small instance decides **bit-identically**
    /// to a dense one.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn local_response(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if peer.index() >= self.game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: self.game.n(),
            });
        }
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        if !self.backend.is_sparse() {
            return self.first_improving_move(peer, tol);
        }
        if self.backend.sparse().window() + 1 >= self.game.n() {
            return self.first_improving_move_uncached(peer, tol);
        }
        self.ensure_sparse_ready();
        let csr = self.csr.as_ref().expect("sketch build ensured the CSR");
        let mut counts = LocalCounts::default();
        let result = self.backend.sparse_mut().local_response(
            &self.game,
            &self.profile,
            csr,
            peer,
            tol,
            &mut counts,
        );
        self.stats.sparse_ball_sweeps += counts.ball_sweeps;
        self.stats.sparse_sketch_hits += counts.sketch_hits;
        self.stats.sparse_pruned_candidates += counts.pruned;
        Ok(result)
    }

    /// Every peer's best response against the current profile, through
    /// the [`GameSession::best_responses_round`] fan-out (sharded under
    /// the [`GameSession::set_parallelism`] knob, bit-identical at every
    /// shard count).
    fn all_responses(
        &mut self,
        method: BestResponseMethod,
    ) -> Result<Vec<BestResponse>, CoreError> {
        let peers: Vec<PeerId> = (0..self.game.n()).map(PeerId::new).collect();
        self.best_responses_round(&peers, method)
    }

    /// The largest improvement any single peer can gain by deviating
    /// (0.0 at equilibrium, `∞` if someone can restore connectivity).
    /// Every peer's oracle comes from the persistent cache through the
    /// [`GameSession::best_responses_round`] fan-out, so monitoring
    /// loops that call this between moves pay only for what changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn nash_gap(&mut self, method: BestResponseMethod) -> Result<f64, CoreError> {
        let mut gap = 0.0f64;
        for br in self.all_responses(method)? {
            let imp = br.improvement();
            // sp-lint: allow(float-eps, reason = "running max: exact comparison of computed values; ties leave the identical max")
            if imp > gap {
                gap = imp;
            }
        }
        Ok(gap)
    }

    /// Checks whether the current profile is a (pure) Nash equilibrium,
    /// evaluating every peer through the
    /// [`GameSession::best_responses_round`] fan-out.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn is_nash(&mut self, test: &NashTest) -> Result<NashReport, CoreError> {
        let peer_costs = self.all_peer_costs();
        let mut best: Option<Deviation> = None;
        for br in self.all_responses(test.method)? {
            if br.improves(test.tolerance) {
                let dev = Deviation {
                    peer: br.peer,
                    links: br.links,
                    old_cost: br.current_cost,
                    new_cost: br.cost,
                };
                let replace = match &best {
                    None => true,
                    Some(b) => dev.improvement() > b.improvement(),
                };
                if replace {
                    best = Some(dev);
                }
            }
        }
        Ok(NashReport {
            best_deviation: best,
            certified_exact: test.method.is_exact(),
            peer_costs,
        })
    }
}

/// `acc + Σ_{j≠u} d_G(u, j) / d(u, j)`, added in ascending `j` — one
/// row of [`GameSession::social_cost`]'s running sum. Kept out of line:
/// inlined into the row stream, the accumulator stayed live across the
/// stream's calls, was spilled to the stack, and every add then waited
/// on a store-to-load round trip (about twice as slow at `n = 112`).
#[inline(never)]
fn add_row_stretch(mut acc: f64, u: usize, row: &[f64], latency: &[f64]) -> f64 {
    for (j, (&d_g, &d)) in row.iter().zip(latency).enumerate() {
        if j != u {
            acc += d_g / d;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        all_peer_costs, best_response, is_nash, max_stretch, nash_gap, social_cost, stretch_matrix,
    };
    use sp_graph::Removal;
    use sp_metric::LineSpace;

    fn game(alpha: f64) -> Game {
        Game::from_space(
            &LineSpace::new(vec![0.0, 1.0, 3.0, 4.0, 7.5]).unwrap(),
            alpha,
        )
        .unwrap()
    }

    fn detour_game() -> Game {
        let m = DistanceMatrix::from_row_major(
            4,
            vec![
                0.0, 1.0, 1.8, 2.4, //
                1.0, 0.0, 1.0, 1.9, //
                1.8, 1.0, 0.0, 1.0, //
                2.4, 1.9, 1.0, 0.0,
            ],
        )
        .unwrap();
        Game::new(m, 0.8).unwrap()
    }

    fn assert_matches_free_functions(session: &mut GameSession) {
        let game = session.game().clone();
        let profile = session.profile().clone();
        let sc = social_cost(&game, &profile).unwrap();
        let got = session.social_cost();
        assert!(
            (sc.total() - got.total()).abs() < 1e-9
                || (sc.total().is_infinite() && got.total().is_infinite()),
            "social cost mismatch: {} vs {}",
            sc.total(),
            got.total()
        );
        let batch = all_peer_costs(&game, &profile).unwrap();
        for (i, expected) in batch.iter().enumerate() {
            let got = session.peer_cost(PeerId::new(i)).unwrap();
            assert!(
                (expected - got).abs() < 1e-9 || (expected.is_infinite() && got.is_infinite()),
                "peer {i}: {expected} vs {got}"
            );
        }
        let s_free = stretch_matrix(&game, &profile).unwrap();
        assert_eq!(session.stretch_matrix(), s_free);
        let ms = max_stretch(&game, &profile).unwrap();
        let ms_s = session.max_stretch();
        assert!((ms - ms_s).abs() < 1e-12 || (ms.is_infinite() && ms_s.is_infinite()));
    }

    #[test]
    fn fresh_session_matches_free_functions() {
        let g = game(1.3);
        for links in [
            vec![],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            vec![
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        ] {
            let p = StrategyProfile::from_links(5, &links).unwrap();
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            assert_matches_free_functions(&mut s);
        }
    }

    #[test]
    fn apply_add_and_remove_stay_consistent() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
            .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        // Warm every cache first so apply() exercises the repair path.
        let _ = s.social_cost();
        let moves = [
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(1),
                to: PeerId::new(2),
            },
            Move::AddLink {
                from: PeerId::new(1),
                to: PeerId::new(3),
            },
            Move::SetStrategy {
                peer: PeerId::new(2),
                links: [0usize, 3].into_iter().collect(),
            },
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
        ];
        for mv in moves {
            s.apply(mv).unwrap();
            assert_matches_free_functions(&mut s);
        }
    }

    #[test]
    fn apply_returns_previous_links_and_rejects_bad_moves() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (0, 2)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let old = s
            .apply(Move::SetStrategy {
                peer: PeerId::new(0),
                links: LinkSet::new(),
            })
            .unwrap();
        assert_eq!(old.len(), 2);
        assert!(matches!(
            s.apply(Move::AddLink {
                from: PeerId::new(9),
                to: PeerId::new(0)
            }),
            Err(CoreError::PeerOutOfBounds { peer: 9, n: 5 })
        ));
        assert!(matches!(
            s.apply(Move::AddLink {
                from: PeerId::new(1),
                to: PeerId::new(1)
            }),
            Err(CoreError::SelfLink { peer: 1 })
        ));
        assert!(matches!(
            s.apply(Move::SetStrategy {
                peer: PeerId::new(1),
                links: [7usize].into_iter().collect(),
            }),
            Err(CoreError::PeerOutOfBounds { peer: 7, n: 5 })
        ));
    }

    #[test]
    fn session_best_response_and_nash_match_free_functions() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        for i in 0..4 {
            let peer = PeerId::new(i);
            let free = best_response(&g, &p, peer, BestResponseMethod::Exact).unwrap();
            let sess = s.best_response(peer, BestResponseMethod::Exact).unwrap();
            assert!((free.cost - sess.cost).abs() < 1e-9, "peer {i}");
            assert_eq!(free.links, sess.links, "peer {i}");
        }
        let free_report = is_nash(&g, &p, &NashTest::exact()).unwrap();
        let sess_report = s.is_nash(&NashTest::exact()).unwrap();
        assert_eq!(free_report.is_nash(), sess_report.is_nash());
        let free_gap = nash_gap(&g, &p, BestResponseMethod::Exact).unwrap();
        let sess_gap = s.nash_gap(BestResponseMethod::Exact).unwrap();
        assert!(
            (free_gap - sess_gap).abs() < 1e-9
                || (free_gap.is_infinite() && sess_gap.is_infinite())
        );
    }

    #[test]
    fn incremental_repair_avoids_full_sweeps_for_additions() {
        let g = game(2.0);
        let chain = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &chain).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        assert_eq!(warm.full_sssp, 5);
        // A pure addition must not trigger any fresh full sweep.
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(4),
        })
        .unwrap();
        let _ = s.social_cost();
        let after = s.stats();
        assert_eq!(after.full_sssp, warm.full_sssp, "additions repair in place");
        assert_eq!(after.rows_invalidated, 0);
        assert!(after.rows_preserved >= 5);
    }

    #[test]
    fn removal_preserves_unaffected_rows() {
        let g = game(2.0);
        // Star out of peer 0 plus chain back-links; removing 0 -> 4 only
        // affects rows that route through that link.
        let p = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        s.apply(Move::RemoveLink {
            from: PeerId::new(0),
            to: PeerId::new(4),
        })
        .unwrap();
        let stats = s.stats();
        assert!(
            stats.rows_invalidated < 5,
            "some rows must survive a removal: {stats:?}"
        );
        assert_matches_free_functions(&mut s);
    }

    #[test]
    fn apply_batch_matches_sequential_applies() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
            .unwrap();
        let moves = vec![
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(1),
                to: PeerId::new(2),
            },
            Move::SetStrategy {
                peer: PeerId::new(2),
                links: [0usize, 3].into_iter().collect(),
            },
            // Cancels the first move: the net diff must not contain 0 -> 3.
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
        ];

        let mut batched = GameSession::from_refs(&g, &p).unwrap();
        let _ = batched.social_cost();
        let mut sequential = GameSession::from_refs(&g, &p).unwrap();
        let _ = sequential.social_cost();

        let previous = batched.apply_batch(&moves).unwrap();
        let expected: Vec<LinkSet> = moves
            .iter()
            .map(|mv| sequential.apply(mv.clone()).unwrap())
            .collect();
        assert_eq!(previous, expected, "per-move prior links must match");
        assert_eq!(batched.profile(), sequential.profile());
        assert_matches_free_functions(&mut batched);

        // One transaction: a single CSR rebuild for the whole batch, and
        // the batch counters ticked.
        let bs = batched.stats();
        let ss = sequential.stats();
        assert_eq!(bs.csr_rebuilds, 2, "warm-up + one batch rebuild");
        assert!(ss.csr_rebuilds > bs.csr_rebuilds);
        assert_eq!(bs.batch_applies, 1);
        assert_eq!(bs.batch_moves, 4);
        assert_eq!(ss.batch_applies, 0);
    }

    #[test]
    fn apply_batch_validates_everything_up_front() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let before_profile = s.profile().clone();
        let before_stats = s.stats();
        let err = s.apply_batch(&[
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            },
            Move::AddLink {
                from: PeerId::new(7),
                to: PeerId::new(0),
            },
        ]);
        assert!(matches!(
            err,
            Err(CoreError::PeerOutOfBounds { peer: 7, n: 5 })
        ));
        assert_eq!(s.profile(), &before_profile, "failed batch must not mutate");
        assert_eq!(s.stats(), before_stats);
        assert!(s.apply_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn memory_bytes_tracks_cache_growth() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let cold = s.memory_bytes();
        assert!(cold > 0, "even a cold session owns its overlay matrix");
        let _ = s.social_cost();
        let warm = s.memory_bytes();
        assert!(warm > cold, "the CSR snapshot must be accounted");
        let _ = s.max_stretch();
        let _ = s.stretch_matrix();
        assert_eq!(s.memory_bytes(), warm, "stretch readouts keep nothing");
        let _ = s.best_response(PeerId::new(0), BestResponseMethod::Exact);
        assert_eq!(
            s.memory_bytes(),
            warm + (warm - cold),
            "an oracle build adds only the overlay transpose, sized like the CSR"
        );
        // Deterministic: same state, same bytes.
        let mut t = GameSession::from_refs(&g, &p).unwrap();
        let _ = t.social_cost();
        assert_eq!(t.memory_bytes(), warm);
    }

    #[test]
    fn snapshot_restore_roundtrips_the_profile() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let _ = s.best_response(PeerId::new(1), BestResponseMethod::Exact);
        let snap = s.snapshot();
        assert_eq!(&snap, s.profile());
        assert_eq!(s.stats().snapshot_exports, 1);
        let mut restored = GameSession::restore(g.clone(), snap.clone()).unwrap();
        assert_eq!(restored.profile(), s.profile());
        assert_eq!(restored.stats().snapshot_restores, 1);
        assert_eq!(
            restored.stats().full_sssp,
            0,
            "restore rebuilds rows lazily"
        );
        assert_eq!(
            restored.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        for i in 0..4 {
            let peer = PeerId::new(i);
            let a = restored
                .best_response(peer, BestResponseMethod::Exact)
                .unwrap();
            let b = s.best_response(peer, BestResponseMethod::Exact).unwrap();
            assert_eq!(a.links, b.links);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        assert!(matches!(
            GameSession::restore(g, StrategyProfile::empty(3)),
            Err(CoreError::ProfileSizeMismatch { .. })
        ));
    }

    #[test]
    fn apply_batch_with_cancelling_moves_is_free() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        let prev = s
            .apply_batch(&[
                Move::AddLink {
                    from: PeerId::new(2),
                    to: PeerId::new(3),
                },
                Move::RemoveLink {
                    from: PeerId::new(2),
                    to: PeerId::new(3),
                },
            ])
            .unwrap();
        assert_eq!(prev.len(), 2);
        assert!(prev[0].is_empty());
        assert!(prev[1].contains(PeerId::new(3)));
        let after = s.stats();
        assert_eq!(
            after.csr_rebuilds, warm.csr_rebuilds,
            "net no-op skips the rebuild"
        );
        assert_eq!(after.batch_applies, 0, "no-op batches are not counted");
    }

    #[test]
    fn batched_removals_scan_rows_once() {
        let g = game(2.0);
        // Star out of peer 0: removing two spokes in one batch must run a
        // single repair scan (one rebuild), not one per removal.
        let p = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        s.apply_batch(&[
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(4),
            },
        ])
        .unwrap();
        let after = s.stats();
        assert_eq!(after.csr_rebuilds - warm.csr_rebuilds, 1);
        assert_eq!(
            (after.rows_invalidated + after.rows_preserved)
                - (warm.rows_invalidated + warm.rows_preserved),
            5,
            "each valid row is visited exactly once by the batch repair"
        );
        assert_matches_free_functions(&mut s);
    }

    #[test]
    fn parallel_refill_matches_sequential() {
        let g = game(1.5);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut par = GameSession::from_refs(&g, &p).unwrap();
        par.set_parallelism(Some(3));
        let mut seq = GameSession::from_refs(&g, &p).unwrap();
        seq.set_parallelism(Some(1));

        let a = par.social_cost();
        let b = seq.social_cost();
        assert_eq!(a, b);
        assert_eq!(par.overlay_distances(), seq.overlay_distances());
        assert_eq!(par.stats().parallel_passes, 1);
        assert_eq!(par.stats().parallel_rows, 5);
        assert_eq!(
            par.stats().full_sssp,
            5,
            "parallel rows count as full sweeps"
        );
        assert_eq!(seq.stats().parallel_passes, 0);
        assert_matches_free_functions(&mut par);

        // Invalidate some rows and refill again through the threaded path.
        par.apply(Move::RemoveLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        seq.apply(Move::RemoveLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        assert_eq!(par.social_cost(), seq.social_cost());
        assert_matches_free_functions(&mut par);
    }

    #[test]
    fn peer_cost_is_lazy_one_row() {
        let g = game(1.0);
        let p = StrategyProfile::complete(5);
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.peer_cost(PeerId::new(2)).unwrap();
        assert_eq!(s.stats().full_sssp, 1, "peer_cost computes a single row");
    }

    #[test]
    fn set_parallelism_zero_clamps_to_one() {
        let g = game(1.5);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let peers: Vec<PeerId> = (0..5).map(PeerId::new).collect();
        // The clamped knob behaves exactly like Some(1): sequential
        // refills and a round on the calling thread, with the same
        // answers and the same work.
        let run = |workers: Option<usize>| {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            s.set_parallelism(workers);
            let cost = s.social_cost();
            let round = s
                .best_responses_round(&peers, BestResponseMethod::Exact)
                .unwrap();
            (cost, round, s.stats())
        };
        let (cost, round, stats) = run(Some(0));
        assert_eq!(stats.parallel_passes, 0);
        assert_eq!(stats.oracle_parallel_rounds, 0);
        assert_eq!(round.len(), 5);
        assert_eq!((cost, round, stats), run(Some(1)));
    }

    #[test]
    fn lazy_scan_fills_each_row_once() {
        // On a cold dense session the scan refills every overlay row
        // through the one bulk refill before it reads any, so no
        // candidate row pays a sweep of its own, and a second scan on the
        // same profile sweeps nothing.
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 4), (1, 2), (2, 3), (3, 1), (4, 3)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let first = s.first_improving_move(PeerId::new(0), 1e-9).unwrap();
        let stats = s.stats();
        assert_eq!(stats.full_sssp, 5, "each row is swept exactly once");
        assert_eq!(stats.seq_oracle_swept, 0);
        let again = s.first_improving_move(PeerId::new(0), 1e-9).unwrap();
        assert_eq!(again, first);
        assert_eq!(s.stats().full_sssp, 5, "a second scan sweeps nothing");
        assert_eq!(
            first,
            s.first_improving_move_uncached(PeerId::new(0), 1e-9)
                .unwrap()
        );
    }

    #[test]
    fn cached_best_response_matches_fresh_oracle() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]).unwrap();
        for method in [BestResponseMethod::Exact, BestResponseMethod::Greedy] {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            for i in 0..4 {
                let peer = PeerId::new(i);
                let a = s.best_response_uncached(peer, method).unwrap();
                let b = s.best_response(peer, method).unwrap();
                assert_eq!(a.links, b.links, "peer {i}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "peer {i}");
                assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
            }
            let stats = s.stats();
            assert!(
                stats.seq_oracle_hits > 0,
                "some candidate rows must come from the cache: {stats:?}"
            );
            assert_eq!(
                stats.seq_oracle_hits + stats.oracle_rows_repaired,
                4 * 3,
                "every candidate row of every cached build is accounted for"
            );
        }
    }

    #[test]
    fn hub_rows_are_repaired_not_swept() {
        // Peer 0 is a hub: every leaf links only to it, so every leaf's
        // shortest paths run through the hub's out-links and nearly every
        // candidate row of the hub's oracle is dirty. A chord between two
        // leaves keeps one row partly clean.
        let g = Game::from_space(
            &LineSpace::new(vec![0.0, 1.0, 2.5, 4.0, 4.5, 7.0, 9.0, 12.0]).unwrap(),
            1.5,
        )
        .unwrap();
        let mut links: Vec<(usize, usize)> = (1..8).flat_map(|v| [(0, v), (v, 0)]).collect();
        links.push((3, 4));
        let p = StrategyProfile::from_links(8, &links).unwrap();
        let hub = PeerId::new(0);
        for method in [BestResponseMethod::Exact, BestResponseMethod::Greedy] {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            let fresh = s.best_response_uncached(hub, method).unwrap();
            let cached = s.best_response(hub, method).unwrap();
            assert_eq!(fresh.links, cached.links, "{method:?}");
            assert_eq!(fresh.cost.to_bits(), cached.cost.to_bits(), "{method:?}");
            assert_eq!(fresh.current_cost.to_bits(), cached.current_cost.to_bits());
            let stats = s.stats();
            assert_eq!(
                stats.seq_oracle_swept, 0,
                "no row may pay a full sweep: {stats:?}"
            );
            assert_eq!(
                stats.oracle_rows_repaired, 7,
                "every leaf row routes through the hub and must be repaired: {stats:?}"
            );
        }
    }

    #[test]
    fn greedy_hub_response_repairs_fewer_rows_than_are_dirty() {
        // A hub at the centre of 19 peers on a golden-angle spiral. The
        // hub links to every peer and every peer to the hub, so most
        // shortest paths run through the hub's out-links and most of its
        // oracle's candidate rows are dirty. Each peer also links both
        // ways to its angular neighbours, keeping the overlay without the
        // hub connected, so the hub's greedy response needs only a few
        // links and can decide the far candidates on their bounds.
        let n = 20;
        let at = |k: usize| {
            if k == 0 {
                return (0.0, 0.0);
            }
            let angle = 2.399_963 * k as f64;
            let radius = 10.0 + 40.0 * (0.618_034 * k as f64).fract();
            (radius * angle.cos(), radius * angle.sin())
        };
        let m = DistanceMatrix::from_fn(n, |u, v| {
            let ((x1, y1), (x2, y2)) = (at(u), at(v));
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
        });
        let g = Game::new(m, 4.0).unwrap();
        let mut by_angle: Vec<usize> = (1..n).collect();
        by_angle.sort_by(|&u, &v| {
            let angle = |k: usize| at(k).1.atan2(at(k).0);
            angle(u).total_cmp(&angle(v))
        });
        let mut links: Vec<(usize, usize)> = (1..n).flat_map(|v| [(0, v), (v, 0)]).collect();
        for (k, &v) in by_angle.iter().enumerate() {
            let next = by_angle[(k + 1) % by_angle.len()];
            links.extend([(v, next), (next, v)]);
        }
        let p = StrategyProfile::from_links(n, &links).unwrap();
        let hub = PeerId::new(0);
        let rows = |method: BestResponseMethod| {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            let fresh = s.best_response_uncached(hub, method).unwrap();
            let cached = s.best_response(hub, method).unwrap();
            assert_eq!(fresh.links, cached.links, "{method:?}");
            assert_eq!(fresh.cost.to_bits(), cached.cost.to_bits(), "{method:?}");
            s.stats()
        };
        // The exact method makes every dirty row exact, so its repairs
        // count the dirty rows.
        let exact = rows(BestResponseMethod::Exact);
        let dirty = exact.oracle_rows_repaired;
        assert!(dirty > n / 2, "most rows route through the hub: {exact:?}");
        assert_eq!(exact.oracle_rows_bounded, 0);
        let greedy = rows(BestResponseMethod::Greedy);
        assert!(
            greedy.oracle_rows_repaired < dirty,
            "the greedy must repair fewer rows than are dirty: {greedy:?}"
        );
        assert_eq!(
            greedy.oracle_rows_repaired + greedy.oracle_rows_bounded,
            dirty,
            "the dirty rows it did not repair are held as bounds"
        );
        assert_eq!(greedy.seq_oracle_hits, exact.seq_oracle_hits);
    }

    #[test]
    fn sharded_round_matches_sequential_and_counts_shards() {
        let g = game(1.2);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let peers: Vec<PeerId> = (0..5).map(PeerId::new).collect();
        let mut seq = GameSession::from_refs(&g, &p).unwrap();
        let baseline: Vec<BestResponse> = peers
            .iter()
            .map(|&peer| seq.best_response(peer, BestResponseMethod::Exact).unwrap())
            .collect();
        for shards in [2usize, 3, 7, 12] {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            s.set_parallelism(Some(shards));
            let got = s
                .best_responses_round(&peers, BestResponseMethod::Exact)
                .unwrap();
            assert_eq!(got.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&got) {
                assert_eq!(a.peer, b.peer);
                assert_eq!(a.links, b.links, "shards = {shards}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "shards = {shards}");
            }
            let stats = s.stats();
            assert_eq!(stats.oracle_parallel_rounds, 1);
            assert_eq!(stats.oracle_shards, shards.min(peers.len()));
            assert_eq!(stats.oracle_builds, peers.len());
        }
        // Out-of-bounds peers are rejected up front.
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        s.set_parallelism(Some(2));
        assert!(matches!(
            s.best_responses_round(&[PeerId::new(9)], BestResponseMethod::Exact),
            Err(CoreError::PeerOutOfBounds { peer: 9, n: 5 })
        ));
        assert!(s
            .best_responses_round(&[], BestResponseMethod::Exact)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn apply_removing_a_tight_link_repairs_rows_in_place() {
        // Peer 0 links only to the far end of a chain, so its best
        // response rewires it to a neighbour and drops the link 0 -> 4
        // that every path out of 0 runs through.
        let g = game(1.0);
        let links = [
            (0, 4),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (4, 3),
        ];
        let p = StrategyProfile::from_links(5, &links).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let peer = PeerId::new(0);
        let br = s.best_response(peer, BestResponseMethod::Exact).unwrap();
        assert!(br.improves(1e-9) && !br.links.contains(PeerId::new(4)));

        let before = s.stats();
        let old = s
            .apply(Move::SetStrategy {
                peer,
                links: br.links.clone(),
            })
            .unwrap();
        assert_eq!(old, [4usize].into_iter().collect::<LinkSet>());
        let after = s.stats();
        assert_eq!(after.csr_rebuilds, before.csr_rebuilds + 1);
        assert_eq!(after.rows_invalidated, before.rows_invalidated);
        assert_eq!(after.rows_preserved, before.rows_preserved + 5);

        // Every row stayed valid and exact: reading them sweeps nothing.
        let rows = s.overlay_distances().clone();
        assert_eq!(s.stats().full_sssp, before.full_sssp);
        let mut cold = GameSession::from_refs(&g, s.profile()).unwrap();
        assert_eq!(&rows, cold.overlay_distances());
        // The next activation refills nothing either.
        let _ = s
            .best_response(PeerId::new(1), BestResponseMethod::Exact)
            .unwrap();
        assert_eq!(s.stats().full_sssp, before.full_sssp);
    }

    #[test]
    fn swapping_a_tight_link_for_a_nearby_one_resets_only_what_grew() {
        // Peer 0 reaches the chain 1 - 2 - 3 - 4 only through its link
        // to the far end 4 (7.5), so that link carries all of row 0.
        // Swapping it for the link to peer 1 (1.0) takes over 1, 2 and
        // 3; only 4 gets longer (it ties at 7.5 through the chain).
        let g = game(1.0);
        let links = [
            (0, 4),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (4, 3),
        ];
        let p = StrategyProfile::from_links(5, &links).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let old_rows = s.overlay_distances().clone();

        let before = s.stats();
        s.apply(Move::SetStrategy {
            peer: PeerId::new(0),
            links: [1usize].into_iter().collect(),
        })
        .unwrap();
        let after = s.stats();
        assert_eq!(after.rows_invalidated, before.rows_invalidated);
        assert_eq!(after.rows_preserved, before.rows_preserved + 5);
        let reset = after.repair_nodes_reset - before.repair_nodes_reset;

        // What the dropped link carried: the nodes the removal resets
        // in the old rows, before the new link is folded in.
        let csr = s.csr.as_ref().unwrap();
        let transpose = s.transpose.as_ref().unwrap();
        let mut scratch = DijkstraScratch::new();
        let carried: usize = (0..5)
            .map(|u| {
                let mut row = old_rows.row(u).to_vec();
                csr.dijkstra_without(
                    transpose,
                    u,
                    Removal::Edges(&[(0, 4, 7.5)]),
                    EDGE_ON_PATH_EPS,
                    &mut row,
                    &mut scratch,
                )
                .reset
            })
            .sum();
        assert_eq!((reset, carried), (1, 4));

        let rows = s.overlay_distances().clone();
        assert_eq!(s.stats().full_sssp, before.full_sssp);
        let mut cold = GameSession::from_refs(&g, s.profile()).unwrap();
        assert_eq!(&rows, cold.overlay_distances());
    }

    #[test]
    fn single_peer_and_empty_profiles() {
        let g = Game::from_space(&LineSpace::new(vec![0.0]).unwrap(), 1.0).unwrap();
        let mut s = GameSession::from_refs(&g, &StrategyProfile::empty(1)).unwrap();
        assert_eq!(s.peer_cost(PeerId::new(0)).unwrap(), 0.0);
        assert_eq!(s.max_stretch(), 1.0);
        let br = s
            .best_response(PeerId::new(0), BestResponseMethod::Exact)
            .unwrap();
        assert!(br.links.is_empty());
    }
}
