//! The sparse landmark session for large instances.
//!
//! A [`SparseSession`] never holds an `n × n` matrix. Beyond the game,
//! the profile and its overlay CSR, its state is:
//!
//! * **landmarks** — `L` nodes picked once by deterministic
//!   farthest-point traversal of the (fixed) *metric*;
//! * **sketch** — `2L` full distance rows (forward on the overlay,
//!   backward on its transpose): certified upper/lower bounds on any
//!   overlay distance, repaired through the same
//!   [`sp_graph::edge_on_path`] tightness predicate as a
//!   [`GameSession`]'s rows;
//! * **metric windows** — each peer's `window` metric-nearest
//!   neighbours: in the low-α locality regime the only link targets a
//!   peer could plausibly want (the paper's peers link within bounded
//!   metric balls), so candidate enumeration is `O(window)`, not `O(n)`;
//! * **bounded Dijkstra scratch** — exact balls of at most `ball_cap`
//!   nodes, with a completeness certificate;
//! * **one transient exact row** for the cost readouts.
//!
//! Total: `O(n · (L + window) + edges)` bytes.
//!
//! [`SparseSession::local_response`] is the scale path: it evaluates
//! drop/add/swap candidates with exact in-ball distances, certified
//! sketch **upper bounds** for demand the ball did not reach, and a
//! stretch-floor prune (`stretch ≥ 1`, since overlay distances are at
//! least metric distances) that skips whole candidate classes at high
//! α. It is a *deterministic heuristic*: accepted moves improve the
//! estimator, not necessarily the exact cost. When the window covers
//! every peer (`window + 1 ≥ n`) it scans a fresh `G_{-i}` oracle
//! instead, and decides bit-identically to a dense
//! [`GameSession::first_improving_move`] (property-tested).
//!
//! # Choosing a session type
//!
//! Use a [`GameSession`] when `n` is at most a few thousand: every query
//! is exact, equilibrium checks are authoritative, and the `8n²`-byte
//! matrix is affordable. Use a [`SparseSession`] for large instances
//! driven by better-response dynamics (`sp_dynamics::large_scale`). Its
//! cost readouts are exact, one transient row per peer: `n` sweeps,
//! `O(n)` memory. It has no exact oracle: an exact best response or
//! Nash gap runs on a transient dense session of its game and profile
//! (the free [`best_response`](crate::best_response) and
//! [`nash_gap`](crate::nash_gap) build one), `O(n²)` while it runs.
//!
//! A `SparseSession` lives in process only: it has no checkpoint, and
//! `sp-serve` serves [`GameSession`]s alone.
//!
//! [`GameSession`]: crate::GameSession
//! [`GameSession::first_improving_move`]: crate::GameSession::first_improving_move

use std::ops::ControlFlow;

use sp_graph::{farthest_point_landmarks, BoundedDijkstra, CsrGraph, LandmarkSketch};

use crate::best_response::ResponseOracle;
use crate::session::{
    check_peer, max_stretch_of, sum_stretch, Commit, SessionCore, EDGE_ON_PATH_EPS,
};
use crate::{
    BestResponse, CoreError, Game, LinkSet, Move, PeerId, SessionStats, SocialCost, StrategyProfile,
};

/// Tuning knobs for a sparse session ([`SparseSession::with_params`]).
///
/// The defaults target better-response dynamics on ~10⁵-peer line
/// metrics; see the module docs for what each knob trades off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseParams {
    /// Landmark count `L`: sketch memory is `2 · L` full rows and bound
    /// quality improves with `L`.
    pub landmarks: usize,
    /// Maximum nodes settled by one bounded evaluation ball.
    pub ball_cap: usize,
    /// Metric-nearest window per peer: both the candidate set for
    /// `local_response` and its demand sample.
    pub window: usize,
    /// Finite stand-in cost for a demand peer a candidate strategy
    /// provably or presumably cannot reach. Finite (unlike the exact
    /// evaluator's `∞`) so that partially-connecting moves still rank
    /// above staying disconnected.
    pub unreach_penalty: f64,
}

impl Default for SparseParams {
    fn default() -> Self {
        SparseParams {
            landmarks: 8,
            ball_cap: 64,
            window: 16,
            unreach_penalty: 1e6,
        }
    }
}

/// A stateful evaluation handle for large instances: a [`Game`], the
/// current [`StrategyProfile`], and landmark distance state in
/// `O(n · (landmarks + window))` memory. See the module docs.
///
/// # Example
///
/// ```
/// use sp_core::{Game, PeerId, SparseSession, StrategyProfile};
///
/// let game = Game::from_line_positions((0..100).map(f64::from).collect(), 0.8).unwrap();
/// let mut session = SparseSession::new(game, StrategyProfile::empty(100)).unwrap();
/// // From the empty profile, the estimator wants peer 0 linked.
/// let mv = session.local_response(PeerId::new(0), 1e-9).unwrap().unwrap();
/// assert!(!mv.links.is_empty() && !mv.exact);
/// ```
#[derive(Debug, Clone)]
pub struct SparseSession {
    /// The game, the profile and its overlay CSR; the transpose stands
    /// while the sketch does, whose backward rows sweep on it.
    core: SessionCore,
    landmarks: Landmarks,
    /// Transient exact row of the cost readouts, and its source; a
    /// mutation clears the source.
    row: Vec<f64>,
    row_src: Option<usize>,
}

impl SparseSession {
    /// Creates a session owning `game` and `profile`, with default
    /// [`SparseParams`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] when the profile and
    /// game disagree on the number of peers.
    pub fn new(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        SparseSession::with_params(game, profile, SparseParams::default())
    }

    /// Like [`SparseSession::new`] with explicit tuning parameters.
    ///
    /// # Errors
    ///
    /// Same as [`SparseSession::new`].
    pub fn with_params(
        game: Game,
        profile: StrategyProfile,
        params: SparseParams,
    ) -> Result<Self, CoreError> {
        let core = SessionCore::new(game, profile)?;
        let (game, n) = (&core.game, core.game.n());
        assert!(n < u32::MAX as usize, "peer ids must fit u32");
        let window = params.window.min(n.saturating_sub(1));
        let landmarks = Landmarks {
            params,
            window,
            ids: farthest_point_landmarks(n, params.landmarks.min(n), |i, j| game.distance(i, j)),
            near: metric_windows(game, window),
            sketch: None,
            bounded: BoundedDijkstra::new(),
        };
        Ok(SparseSession {
            core,
            landmarks,
            row: Vec::new(),
            row_src: None,
        })
    }

    /// The game being evaluated.
    #[must_use]
    pub fn game(&self) -> &Game {
        &self.core.game
    }

    /// The current profile.
    #[must_use]
    pub fn profile(&self) -> &StrategyProfile {
        &self.core.profile
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.core.game.n()
    }

    /// Work counters accumulated since creation.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.core.stats
    }

    /// Semantic size of this session's mutable state in bytes: the
    /// profile, the overlay CSR and its transpose, the landmark ids, the
    /// metric windows, the transient row and the sketch. The [`Game`] is
    /// excluded, as for [`GameSession::memory_bytes`]; the bytes follow
    /// the data's shape, so they are the same on every machine.
    ///
    /// [`GameSession::memory_bytes`]: crate::GameSession::memory_bytes
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let lm = &self.landmarks;
        self.core.memory_bytes()
            + lm.ids.len() * std::mem::size_of::<usize>()
            + lm.near.len() * std::mem::size_of::<u32>()
            + self.row.len() * std::mem::size_of::<f64>()
            + lm.sketch.as_ref().map_or(0, LandmarkSketch::memory_bytes)
    }

    /// Applies a unilateral move, repairing the sketch, and returns the
    /// links the peer held before.
    ///
    /// # Errors
    ///
    /// As for [`GameSession::apply`](crate::GameSession::apply).
    pub fn apply(&mut self, mv: Move) -> Result<LinkSet, CoreError> {
        let mut commit = self.core.commit(std::slice::from_ref(&mv), false)?;
        self.repair_after_edges(&commit);
        Ok(commit.previous.pop().expect("one prior link set per move"))
    }

    /// Applies a batch of moves as one transaction — one CSR rebuild and
    /// one sketch repair against the net edge diff — and returns each
    /// move's prior links, as
    /// [`GameSession::apply_batch`](crate::GameSession::apply_batch).
    ///
    /// # Errors
    ///
    /// As for [`SparseSession::apply`], checked for every move up front:
    /// a failed batch leaves the session untouched.
    pub fn apply_batch(&mut self, moves: &[Move]) -> Result<Vec<LinkSet>, CoreError> {
        let commit = self.core.commit(moves, true)?;
        self.repair_after_edges(&commit);
        Ok(commit.previous)
    }

    /// Repairs the sketch after a committed edge diff, through the same
    /// tightness predicate as a [`GameSession`](crate::GameSession)'s
    /// rows. With nothing cached, dropping the CSR is strictly cheaper
    /// than rebuilding it just to repair an empty sketch.
    fn repair_after_edges(&mut self, commit: &Commit) {
        if commit.is_noop() {
            return;
        }
        let cached = self.landmarks.sketch.is_some() || self.row_src.is_some();
        self.row_src = None;
        if self.core.csr.is_none() || !cached {
            self.core.drop_csr();
            self.landmarks.sketch = None;
            return;
        }
        self.core.rebuild_csr();
        if self.landmarks.sketch.is_none() {
            return;
        }
        self.core.ensure_transpose();
        let csr = self.core.csr.as_ref().expect("just rebuilt");
        let transpose = self.core.transpose.as_ref().expect("ensured above");
        let sketch = self.landmarks.sketch.as_mut().expect("checked above");
        let repair = sketch.repair_after_edges(
            csr,
            transpose,
            &commit.added,
            &commit.removed,
            EDGE_ON_PATH_EPS,
            &mut self.core.scratch,
        );
        self.core.stats.rows_invalidated += repair.rows_rebuilt;
        self.core.stats.rows_preserved += repair.rows_preserved;
        self.core.stats.full_sssp += repair.rows_rebuilt;
        self.core.stats.sparse_sketch_rows += repair.rows_rebuilt;
    }

    /// Builds the landmark sketch (and the overlay transpose it sweeps
    /// backward on) if absent, charging the `2·L` landmark sweeps to the
    /// stats.
    fn ensure_sketch(&mut self) {
        self.core.ensure_transpose();
        if self.landmarks.sketch.is_some() {
            return;
        }
        let csr = self.core.csr.as_ref().expect("ensured above");
        let transpose = self.core.transpose.as_ref().expect("ensured above");
        let ids = self.landmarks.ids.clone();
        let swept = 2 * ids.len();
        let sketch = LandmarkSketch::build(csr, transpose, ids, &mut self.core.scratch);
        self.landmarks.sketch = Some(sketch);
        self.core.stats.full_sssp += swept;
        self.core.stats.sparse_sketch_rows += swept;
    }

    /// Streams every peer's exact overlay row `d_G(u, ·)`, with its
    /// latency row `d(u, ·)`, to `visit` in peer order until `visit`
    /// breaks: one transient row at a time, so a readout holds `O(n)`
    /// memory.
    fn stream_rows(&mut self, mut visit: impl FnMut(usize, &[f64], &[f64]) -> ControlFlow<()>) {
        self.core.ensure_csr();
        let csr = self.core.csr.as_ref().expect("ensured above");
        let n = self.core.game.n();
        if self.row.len() != n {
            self.row.clear();
            self.row.resize(n, f64::INFINITY);
        }
        for u in 0..n {
            if self.row_src != Some(u) {
                csr.dijkstra_into_with(u, &mut self.row, &mut self.core.scratch);
                self.row_src = Some(u);
                self.core.stats.full_sssp += 1;
            }
            let latency = self.core.game.latency_row(u);
            if visit(u, &self.row, &latency).is_break() {
                return;
            }
        }
    }

    /// Social cost of the current profile, exactly as
    /// [`GameSession::social_cost`](crate::GameSession::social_cost)
    /// computes it, from `n` transient rows.
    #[must_use]
    pub fn social_cost(&mut self) -> SocialCost {
        let mut stretch_cost = 0.0f64;
        self.stream_rows(|u, row, latency| sum_stretch(&mut stretch_cost, u, row, latency));
        SocialCost {
            link_cost: self.core.game.alpha() * self.core.profile.link_count() as f64,
            stretch_cost,
        }
    }

    /// The largest stretch over all ordered pairs, exactly as
    /// [`GameSession::max_stretch`](crate::GameSession::max_stretch)
    /// computes it, from `n` transient rows.
    #[must_use]
    pub fn max_stretch(&mut self) -> f64 {
        let mut m = 1.0f64;
        self.stream_rows(|u, row, latency| max_stretch_of(&mut m, u, row, latency));
        m
    }

    /// Certified bounds `(lower, upper)` on the overlay distance
    /// `d_G(u, v)` under the current profile: `lower ≤ d_G(u, v) ≤
    /// upper` always holds. Combines the landmark sketch with the metric
    /// lower bound, without sweeping from `u`.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn dist_bounds(&mut self, u: PeerId, v: PeerId) -> Result<(f64, f64), CoreError> {
        for p in [u, v] {
            check_peer(self.n(), p)?;
        }
        self.ensure_sketch();
        if u == v {
            return Ok((0.0, 0.0));
        }
        let sketch = self.landmarks.sketch.as_ref().expect("ensured above");
        let (u, v) = (u.index(), v.index());
        // Overlay edge weights are metric distances, so the metric
        // distance is a lower bound too (triangle inequality).
        let lower = sketch.lower(u, v).max(self.core.game.distance(u, v));
        Ok((lower, sketch.upper(u, v)))
    }

    /// The session's better response: a **deterministic heuristic** move
    /// for `peer` evaluated against its metric window only — exact
    /// distances inside a bounded ball, certified sketch upper bounds
    /// beyond it, stretch-floor pruning for hopeless candidates — or
    /// `None` when no evaluated move improves.
    ///
    /// Cost model: `O(window · ball_cap · log)` per call, independent of
    /// `n` once the sketch is built. Never materialises a matrix. The
    /// returned move carries `exact: false` — large-`n` dynamics trade
    /// per-move optimality for tractability, converging on the same
    /// better-response principle the paper's dynamics use.
    ///
    /// A session whose window already covers every peer
    /// (`window + 1 ≥ n`) scans a fresh `G_{-i}` oracle instead, and
    /// decides **bit-identically** to a dense
    /// [`GameSession::first_improving_move`](crate::GameSession::first_improving_move).
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn local_response(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        let n = self.n();
        check_peer(n, peer)?;
        if n <= 1 {
            return Ok(None);
        }
        if self.landmarks.window + 1 >= n {
            let oracle = ResponseOracle::build_with(
                &self.core.game,
                &self.core.profile,
                peer,
                &mut self.core.scratch,
            )?;
            self.core.stats.oracle_builds += 1;
            return Ok(oracle.first_improving_move(peer, self.core.profile.strategy(peer), tol));
        }
        self.ensure_sketch();
        Ok(self.landmarks.local_response(&mut self.core, peer, tol))
    }
}

/// The landmark state of a [`SparseSession`], kept apart from its
/// [`SessionCore`] so that candidate evaluation can borrow both.
#[derive(Debug, Clone)]
struct Landmarks {
    params: SparseParams,
    /// Effective window (`params.window` clamped to `n − 1`).
    window: usize,
    /// Landmark ids, picked once from the metric.
    ids: Vec<usize>,
    /// Row-major `n × window` metric-nearest neighbour ids.
    near: Vec<u32>,
    /// Landmark rows over the current overlay; `None` until first use.
    sketch: Option<LandmarkSketch>,
    bounded: BoundedDijkstra,
}

impl Landmarks {
    /// The metric-nearest window of peer `i` (candidate/demand set).
    fn near_window(&self, i: usize) -> &[u32] {
        &self.near[i * self.window..(i + 1) * self.window]
    }

    /// Deterministic heuristic better response: first estimated-improving
    /// drop/add/swap over the peer's metric window. See the module docs
    /// for the estimator's contract.
    fn local_response(
        &mut self,
        core: &mut SessionCore,
        peer: PeerId,
        tol: f64,
    ) -> Option<BestResponse> {
        let SessionCore {
            game,
            profile,
            csr,
            stats,
            ..
        } = core;
        let csr = csr.as_ref().expect("the sketch build ensured the CSR");
        let i = peer.index();
        let alpha = game.alpha();
        let demand: Vec<usize> = self.near_window(i).iter().map(|&x| x as usize).collect();
        let cur: Vec<(usize, f64)> = profile
            .strategy(peer)
            .iter()
            .map(|t| (t.index(), game.distance(i, t.index())))
            .collect();
        let cur_cost = self.estimate(game, csr, i, &cur, &demand, stats);
        let improves = |c: f64| {
            if c.is_infinite() {
                return false;
            }
            if cur_cost.is_infinite() {
                return true;
            }
            c < cur_cost - tol * (1.0 + cur_cost.abs())
        };
        let finish = |links: &[(usize, f64)], cost: f64| {
            Some(BestResponse {
                peer,
                links: links.iter().map(|&(v, _)| v).collect(),
                cost,
                current_cost: cur_cost,
                exact: false,
            })
        };

        // Drops, in ascending target order (matching the exact path).
        for k in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(k);
            let c = self.estimate(game, csr, i, &cand, &demand, stats);
            if improves(c) {
                return finish(&cand, c);
            }
        }

        let add_targets: Vec<(usize, f64)> = demand
            .iter()
            .filter(|&&v| !cur.iter().any(|&(t, _)| t == v))
            .map(|&v| (v, game.distance(i, v)))
            .collect();

        // Adds, nearest-first. Stretch is at least 1 per demand peer
        // (d_G ≥ d_met), so no strategy of size |S| + 1 can estimate
        // below α(|S| + 1) + |D| — at high α that floor alone certifies
        // (under the estimator) that every add loses, and the whole
        // class is pruned unevaluated.
        let add_floor = alpha * (cur.len() + 1) as f64 + demand.len() as f64;
        if !improves(add_floor) {
            stats.sparse_pruned_candidates += add_targets.len();
        } else {
            for &(v, w) in &add_targets {
                let mut cand = cur.clone();
                cand.push((v, w));
                let c = self.estimate(game, csr, i, &cand, &demand, stats);
                if improves(c) {
                    return finish(&cand, c);
                }
            }
        }

        // Swaps: same floor with an unchanged link count.
        if !cur.is_empty() {
            let swap_floor = alpha * cur.len() as f64 + demand.len() as f64;
            if !improves(swap_floor) {
                stats.sparse_pruned_candidates += cur.len() * add_targets.len();
            } else {
                for k in 0..cur.len() {
                    for &(v, w) in &add_targets {
                        let mut cand = cur.clone();
                        cand[k] = (v, w);
                        let c = self.estimate(game, csr, i, &cand, &demand, stats);
                        if improves(c) {
                            return finish(&cand, c);
                        }
                    }
                }
            }
        }
        None
    }

    /// Estimated cost of `i` playing `links`, over the demand window:
    /// exact distances inside the bounded ball, certified sketch upper
    /// bounds routed through the candidate links beyond it, and
    /// [`SparseParams::unreach_penalty`] for demand no estimate reaches.
    fn estimate(
        &mut self,
        game: &Game,
        csr: &CsrGraph,
        i: usize,
        links: &[(usize, f64)],
        demand: &[usize],
        stats: &mut SessionStats,
    ) -> f64 {
        let sweep = self
            .bounded
            .sweep_with_source_links(csr, i, Some(links), self.params.ball_cap);
        stats.sparse_ball_sweeps += 1;
        let sketch = self
            .sketch
            .as_ref()
            .expect("ensure_sketch precedes queries");
        let mut cost = game.alpha() * links.len() as f64;
        for &j in demand {
            let d = match sweep.distance(j) {
                Some(d) => d,
                None if sweep.complete => f64::INFINITY,
                None => {
                    stats.sparse_sketch_hits += 1;
                    let mut best = f64::INFINITY;
                    for &(v, w) in links {
                        let via = if v == j { w } else { w + sketch.upper(v, j) };
                        if via < best {
                            best = via;
                        }
                    }
                    best
                }
            };
            if d.is_finite() {
                cost += d / game.distance(i, j);
            } else {
                cost += self.params.unreach_penalty;
            }
        }
        cost
    }
}

/// Row-major `n × window` table of each peer's metric-nearest
/// neighbours, nearest first, ties toward the lower index. Line metrics
/// take an `O(n · (log n + window))` sorted-merge path; dense metrics
/// fall back to per-peer scans (small instances only).
fn metric_windows(game: &Game, window: usize) -> Vec<u32> {
    let n = game.n();
    let mut near = Vec::with_capacity(n * window);
    if window == 0 {
        return near;
    }
    if let Some(pos) = game.line_positions() {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| pos[a].total_cmp(&pos[b]).then(a.cmp(&b)));
        let mut rank = vec![0usize; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r;
        }
        for i in 0..n {
            let r = rank[i];
            let (mut l, mut g) = (r, r + 1);
            for _ in 0..window {
                let left = (l > 0).then(|| {
                    let v = order[l - 1];
                    ((pos[i] - pos[v]).abs(), v)
                });
                let right = (g < n).then(|| {
                    let v = order[g];
                    ((pos[i] - pos[v]).abs(), v)
                });
                let take_left = match (left, right) {
                    (Some((dl, vl)), Some((dr, vr))) => (dl, vl) <= (dr, vr),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!("window < n guarantees a candidate"),
                };
                if take_left {
                    near.push(order[l - 1] as u32);
                    l -= 1;
                } else {
                    near.push(order[g] as u32);
                    g += 1;
                }
            }
        }
    } else {
        let mut cands: Vec<(f64, usize)> = Vec::with_capacity(n.saturating_sub(1));
        for i in 0..n {
            cands.clear();
            // sp-lint: allow(float-eps, reason = "j != i is an integer peer-index guard; the distances on this line are constructed, not compared")
            cands.extend((0..n).filter(|&j| j != i).map(|j| (game.distance(i, j), j)));
            cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            near.extend(cands.iter().take(window).map(|&(_, j)| j as u32));
        }
    }
    near
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_metric::LineSpace;

    #[test]
    fn metric_windows_line_path_matches_dense_fallback() {
        let coords = vec![0.0, 1.0, 3.0, 3.5, 10.0, -2.0];
        let implicit = Game::from_line_positions(coords.clone(), 1.0).unwrap();
        let dense = Game::from_space(&LineSpace::new(coords).unwrap(), 1.0).unwrap();
        for w in 0..=5 {
            assert_eq!(
                metric_windows(&implicit, w),
                metric_windows(&dense, w),
                "window {w}"
            );
        }
    }

    #[test]
    fn metric_windows_are_nearest_first() {
        let game = Game::from_line_positions(vec![0.0, 1.0, 2.5, 6.0], 1.0).unwrap();
        let near = metric_windows(&game, 3);
        // Peer 0 at 0.0: nearest 1 (1.0), then 2 (2.5), then 3 (6.0).
        assert_eq!(&near[0..3], &[1, 2, 3]);
        // Peer 2 at 2.5: nearest 1 (1.5), then 0 (2.5), then 3 (3.5).
        assert_eq!(&near[6..9], &[1, 0, 3]);
    }

    #[test]
    fn tie_breaks_prefer_lower_index() {
        // Peer 1 at 1.0 is equidistant (1.0) from peers 0 and 2.
        let game = Game::from_line_positions(vec![0.0, 1.0, 2.0], 1.0).unwrap();
        let near = metric_windows(&game, 2);
        assert_eq!(&near[2..4], &[0, 2]);
    }
}
