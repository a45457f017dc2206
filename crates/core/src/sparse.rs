//! The sparse landmark evaluation backend.
//!
//! A [`SparseBackend`] never holds an `n × n` matrix. Its state is:
//!
//! * **landmarks** — `L` nodes picked once per session by deterministic
//!   farthest-point traversal of the *metric* (the metric never
//!   changes);
//! * **sketch** — `2L` full distance rows (forward on the overlay,
//!   backward on its transpose), giving certified upper/lower bounds on
//!   any overlay distance, repaired incrementally through the shared
//!   [`sp_graph::edge_on_path`] invalidation discipline;
//! * **metric windows** — for every peer, its `window` metric-nearest
//!   neighbours; in the low-α locality regime these are the only link
//!   targets a peer could plausibly want (the paper's peers link within
//!   bounded metric balls), so candidate enumeration is `O(window)`
//!   instead of `O(n)`;
//! * **bounded Dijkstra scratch** — transient exact balls of at most
//!   `ball_cap` nodes, with a completeness certificate.
//!
//! Total: `O(n · (L + window) + edges)` bytes.
//!
//! [`SparseBackend::local_response`] is the scale path: it evaluates
//! drop/add/swap candidates with exact in-ball distances, certified
//! sketch **upper bounds** for demand the ball did not reach, and a
//! stretch-floor prune (`stretch ≥ 1` always, because overlay distances
//! are at least metric distances) that skips whole candidate classes at
//! high α. It is a *deterministic heuristic*: accepted moves improve the
//! estimator, not necessarily the exact cost — while `best_response`,
//! `is_nash` and `nash_gap` on a sparse session stay **certified** by
//! falling back to exact per-peer `G_{-i}` sweeps. Small sessions
//! (`window + 1 ≥ n`) route `local_response` to the exact path too, so
//! sparse and dense decisions are bit-identical there (property-tested).

use sp_graph::{
    farthest_point_landmarks, BoundedDijkstra, CsrGraph, DijkstraScratch, DistanceMatrix,
    LandmarkSketch, SketchRepair,
};

use crate::session::EDGE_ON_PATH_EPS;
use crate::{BestResponse, Game, PeerId, StrategyProfile};

/// Tuning knobs for a sparse session ([`GameSession::new_sparse_with`]).
///
/// The defaults target better-response dynamics on ~10⁵-peer line
/// metrics; see the module docs for what each knob trades off.
///
/// [`GameSession::new_sparse_with`]: crate::GameSession::new_sparse_with
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

/// Work counters from one [`SparseBackend::local_response`] call; the
/// session folds them into [`SessionStats`](crate::SessionStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LocalCounts {
    /// Bounded evaluation sweeps run.
    pub ball_sweeps: usize,
    /// Demand entries answered by a sketch upper bound (ball cut off).
    pub sketch_hits: usize,
    /// Candidate strategies skipped by the stretch-floor prune.
    pub pruned: usize,
}

/// Landmark-sketch distance backend. See the module docs; constructed
/// only through [`GameSession::new_sparse`](crate::GameSession::new_sparse).
#[derive(Debug, Clone)]
pub struct SparseBackend {
    params: SparseParams,
    /// Effective window (`params.window` clamped to `n − 1`).
    window: usize,
    /// Landmark ids, fixed for the session (metric-derived).
    landmarks: Vec<usize>,
    /// Row-major `n × window` metric-nearest neighbour ids.
    near: Vec<u32>,
    /// Landmark rows over the current overlay; `None` until first use
    /// and after a wholesale profile replacement.
    sketch: Option<LandmarkSketch>,
    bounded: BoundedDijkstra,
    /// Transient exact row for `peer_cost`-style queries.
    row_buf: Vec<f64>,
    row_src: Option<usize>,
    /// The documented `O(n²)` escape hatch behind `overlay_distances`
    /// on sparse sessions — built only on demand, dropped on any
    /// mutation. Not part of the scale path.
    escape: Option<DistanceMatrix>,
}

impl SparseBackend {
    /// Precomputes the metric-derived state (landmarks, windows); the
    /// overlay-derived sketch is built lazily by
    /// [`SparseBackend::ensure_ready`].
    pub(crate) fn new(game: &Game, params: SparseParams) -> Self {
        let n = game.n();
        assert!(n < u32::MAX as usize, "peer ids must fit u32");
        let window = params.window.min(n.saturating_sub(1));
        let landmarks =
            farthest_point_landmarks(n, params.landmarks.min(n), |i, j| game.distance(i, j));
        let near = metric_windows(game, window);
        SparseBackend {
            params,
            window,
            landmarks,
            near,
            sketch: None,
            bounded: BoundedDijkstra::new(),
            row_buf: Vec::new(),
            row_src: None,
            escape: None,
        }
    }

    pub(crate) fn params(&self) -> &SparseParams {
        &self.params
    }

    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Builds the sketch for the current overlay (`transpose` is
    /// `csr.transpose()`) if it is not already standing. Returns the
    /// number of full rows swept (`2 · L` on a build, `0` otherwise) for
    /// the session's counters.
    pub(crate) fn ensure_ready(
        &mut self,
        csr: &CsrGraph,
        transpose: &CsrGraph,
        scratch: &mut DijkstraScratch,
    ) -> usize {
        if self.sketch.is_some() {
            return 0;
        }
        let sketch = LandmarkSketch::build(csr, transpose, self.landmarks.clone(), scratch);
        self.sketch = Some(sketch);
        2 * self.landmarks.len()
    }

    /// Whether the landmark sketch is standing — the session then keeps
    /// the overlay transpose its repair needs.
    pub(crate) fn has_sketch(&self) -> bool {
        self.sketch.is_some()
    }

    /// Repairs the sketch after a committed edge diff (the sparse arm of
    /// the session's single invalidation code path) against the new
    /// overlay `csr` and its transpose, which the session supplies
    /// whenever [`SparseBackend::has_sketch`] holds. No-op while the
    /// sketch is lazily absent.
    pub(crate) fn repair(
        &mut self,
        csr: &CsrGraph,
        transpose: Option<&CsrGraph>,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
        scratch: &mut DijkstraScratch,
    ) -> SketchRepair {
        self.row_src = None;
        self.escape = None;
        let Some(sketch) = self.sketch.as_mut() else {
            return SketchRepair::default();
        };
        let transpose = transpose.expect("the session keeps a transpose while a sketch stands");
        sketch.repair_after_edges(csr, transpose, added, removed, EDGE_ON_PATH_EPS, scratch)
    }

    /// Whether any overlay-derived state is standing (sketch, transient
    /// row, escape matrix) — the session's repair pass stays lazy when
    /// there is nothing to repair.
    pub(crate) fn has_cached_state(&self) -> bool {
        self.sketch.is_some() || self.row_src.is_some() || self.escape.is_some()
    }

    /// Whether the escape-hatch matrix is already materialised (the
    /// session charges `n` sweeps to the stats when it is not).
    pub(crate) fn escape_ready(&self) -> bool {
        self.escape.is_some()
    }

    /// Sweeps the exact overlay row of `u` into the transient buffer.
    /// Returns `false` when the buffer already holds `u`'s row (still
    /// valid — mutations clear it), `true` when a sweep was paid.
    pub(crate) fn compute_row(
        &mut self,
        csr: &CsrGraph,
        u: usize,
        scratch: &mut DijkstraScratch,
    ) -> bool {
        if self.row_src == Some(u) {
            return false;
        }
        let n = csr.node_count();
        if self.row_buf.len() != n {
            self.row_buf.clear();
            self.row_buf.resize(n, f64::INFINITY);
        }
        csr.dijkstra_into_with(u, &mut self.row_buf, scratch);
        self.row_src = Some(u);
        true
    }

    /// The transient row last computed by [`SparseBackend::compute_row`].
    pub(crate) fn row_ref(&self, u: usize) -> &[f64] {
        debug_assert_eq!(self.row_src, Some(u), "transient row is for another source");
        &self.row_buf
    }

    /// Certified `(lower, upper)` bounds on the overlay distance
    /// `d_G(u, v)`: sketch triangle bounds, with the metric distance as
    /// an additional lower bound (overlay edge weights *are* metric
    /// distances, so `d_G ≥ d_met` by the triangle inequality).
    pub(crate) fn dist_bounds(&self, game: &Game, u: usize, v: usize) -> (f64, f64) {
        if u == v {
            return (0.0, 0.0);
        }
        let sketch = self.sketch.as_ref().expect("ensure_ready precedes queries");
        let lower = sketch.lower(u, v).max(game.distance(u, v));
        (lower, sketch.upper(u, v))
    }

    /// The metric-nearest window of peer `i` (candidate/demand set).
    pub(crate) fn near_window(&self, i: usize) -> &[u32] {
        &self.near[i * self.window..(i + 1) * self.window]
    }

    /// The full overlay matrix escape hatch: `n` exact sweeps into a
    /// dense matrix, cached until the next mutation. Small-instance
    /// debugging only — this is precisely the allocation the sparse mode
    /// exists to avoid.
    pub(crate) fn escape_matrix(
        &mut self,
        csr: &CsrGraph,
        scratch: &mut DijkstraScratch,
    ) -> &DistanceMatrix {
        if self.escape.is_none() {
            let n = csr.node_count();
            // sp-lint: allow(dense-alloc, reason = "the documented O(n^2) escape hatch for overlay_distances() on sparse sessions; never on the scale path")
            let mut m = DistanceMatrix::new_filled(n, f64::INFINITY);
            for u in 0..n {
                csr.dijkstra_into_with(u, m.row_mut(u), scratch);
            }
            self.escape = Some(m);
        }
        self.escape.as_ref().expect("built above")
    }

    /// Deterministic heuristic better response: first estimated-improving
    /// drop/add/swap over the peer's metric window. See the module docs
    /// for the estimator's contract.
    pub(crate) fn local_response(
        &mut self,
        game: &Game,
        profile: &StrategyProfile,
        csr: &CsrGraph,
        peer: PeerId,
        tol: f64,
        counts: &mut LocalCounts,
    ) -> Option<BestResponse> {
        let i = peer.index();
        let alpha = game.alpha();
        let demand: Vec<usize> = self.near_window(i).iter().map(|&x| x as usize).collect();
        let cur: Vec<(usize, f64)> = profile
            .strategy(peer)
            .iter()
            .map(|t| (t.index(), game.distance(i, t.index())))
            .collect();
        let cur_cost = self.estimate(game, csr, i, &cur, &demand, counts);
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
            let c = self.estimate(game, csr, i, &cand, &demand, counts);
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
            counts.pruned += add_targets.len();
        } else {
            for &(v, w) in &add_targets {
                let mut cand = cur.clone();
                cand.push((v, w));
                let c = self.estimate(game, csr, i, &cand, &demand, counts);
                if improves(c) {
                    return finish(&cand, c);
                }
            }
        }

        // Swaps: same floor with an unchanged link count.
        if !cur.is_empty() {
            let swap_floor = alpha * cur.len() as f64 + demand.len() as f64;
            if !improves(swap_floor) {
                counts.pruned += cur.len() * add_targets.len();
            } else {
                for k in 0..cur.len() {
                    for &(v, w) in &add_targets {
                        let mut cand = cur.clone();
                        cand[k] = (v, w);
                        let c = self.estimate(game, csr, i, &cand, &demand, counts);
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
        counts: &mut LocalCounts,
    ) -> f64 {
        let sweep = self
            .bounded
            .sweep_with_source_links(csr, i, Some(links), self.params.ball_cap);
        counts.ball_sweeps += 1;
        let sketch = self.sketch.as_ref().expect("ensure_ready precedes queries");
        let mut cost = game.alpha() * links.len() as f64;
        for &j in demand {
            let d = match sweep.distance(j) {
                Some(d) => d,
                None if sweep.complete => f64::INFINITY,
                None => {
                    counts.sketch_hits += 1;
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

    /// Semantic bytes of cached distance state (deterministic across
    /// machines; the `sp-serve` registry budgets sessions with it).
    pub(crate) fn memory_bytes(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        let mut bytes = self.landmarks.len() * std::mem::size_of::<usize>()
            + self.near.len() * std::mem::size_of::<u32>()
            + self.row_buf.len() * f64s;
        if let Some(s) = &self.sketch {
            bytes += s.memory_bytes();
        }
        if let Some(e) = &self.escape {
            bytes += e.len() * e.len() * f64s;
        }
        bytes
    }

    /// Drops every cached sketch and row (profile replaced wholesale).
    pub(crate) fn invalidate(&mut self) {
        self.sketch = None;
        self.row_src = None;
        self.escape = None;
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
