//! Sparse distance machinery: bounded-radius Dijkstra, landmark
//! selection, and landmark (hub) distance sketches.
//!
//! These are the graph-layer building blocks of the sparse evaluation
//! backend: instead of materialising the `n × n` overlay distance
//! matrix, a session holds `O(n · L)` landmark rows plus transient
//! bounded sweeps, and answers far-distance queries with **certified**
//! upper/lower bounds:
//!
//! * [`BoundedDijkstra::sweep`] settles at most `cap` nodes from a
//!   source and reports whether the sweep provably exhausted the
//!   reachable set — a completed sweep *is* the exact distance row;
//! * [`farthest_point_landmarks`] picks landmark nodes by deterministic
//!   farthest-point traversal of an arbitrary distance oracle;
//! * [`LandmarkSketch`] holds forward rows `d(ℓ, ·)` and backward rows
//!   `d(·, ℓ)` for every landmark `ℓ` and derives the triangle bounds
//!   `d(u, v) ≤ min_ℓ d(u, ℓ) + d(ℓ, v)` and
//!   `d(u, v) ≥ max_ℓ max(d(ℓ, v) − d(ℓ, u), d(u, ℓ) − d(v, ℓ))`.
//!
//! Sketch rows are repaired after edge changes through the **same**
//! invalidation discipline as the dense oracle cache: the
//! [`edge_on_path`] tightness test decides whether a removed edge could
//! lie on a shortest path served by a row (if so the row is recomputed),
//! and added edges are folded in by decrease-only re-relaxation.

use crate::csr::Entry;
use crate::{CsrGraph, DijkstraScratch};
use std::collections::BinaryHeap;

/// The shared edge-on-shortest-path tightness test.
///
/// Given a distance row `d(s, ·)`, a removed edge `u → v` of weight `w`
/// can only have carried shortest paths counted by that row if
/// `d(s, u) + w ≤ d(s, v)` up to a relative `eps` band (the band absorbs
/// float associativity in path sums; `eps` is the caller's invalidation
/// epsilon, `1e-9` throughout this workspace). Every cached-row layer —
/// the dense oracle cache's overlay rows and the sparse landmark sketch —
/// routes its invalidation decision through this one predicate, so the
/// two backends cannot drift apart. The roots of
/// [`CsrGraph::dijkstra_without`] are picked by the same test.
#[inline]
#[must_use]
pub fn edge_on_path(d_u: f64, w: f64, d_v: f64, eps: f64) -> bool {
    d_u.is_finite() && d_u + w <= d_v + eps * (1.0 + d_v.abs())
}

/// Result of a bounded single-source sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedSweep {
    /// Settled `(node, distance)` pairs in settling order (nondecreasing
    /// distance). Distances are exact graph distances — Dijkstra settles
    /// nodes in final order, so a cap truncates coverage, never
    /// correctness.
    pub settled: Vec<(usize, f64)>,
    /// `true` when the sweep provably settled **every** node reachable
    /// from the source — the settled set then *is* the exact full row
    /// (unlisted nodes are at distance `∞`). This is the completeness
    /// certificate the sparse backend uses to fall back to exact
    /// decisions.
    pub complete: bool,
}

impl BoundedSweep {
    /// The exact distance to `node`, or `None` when the sweep was cut
    /// off before reaching it (linear scan; settled sets are small by
    /// construction).
    #[must_use]
    pub fn distance(&self, node: usize) -> Option<f64> {
        self.settled
            .iter()
            .find(|&&(u, _)| u == node)
            .map(|&(_, d)| d)
    }
}

/// Reusable state for bounded-radius sweeps.
///
/// Keeps an `n`-sized distance buffer that is **all-`∞` between calls**
/// (only entries touched by a sweep are reset afterwards), so a bounded
/// sweep costs `O(touched · log touched)` regardless of `n`. Do not
/// share this buffer with full-row sweeps — the invariant is what makes
/// back-to-back bounded sweeps cheap.
#[derive(Debug, Clone, Default)]
pub struct BoundedDijkstra {
    row: Vec<f64>,
    heap: BinaryHeap<Entry>,
    touched: Vec<usize>,
}

impl BoundedDijkstra {
    /// Creates empty state; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        BoundedDijkstra::default()
    }

    /// Settles up to `cap` nodes from `source` (the source itself
    /// counts).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn sweep(&mut self, g: &CsrGraph, source: usize, cap: usize) -> BoundedSweep {
        self.sweep_with_source_links(g, source, None, cap)
    }

    /// Like [`BoundedDijkstra::sweep`], but the source's out-edges are
    /// taken from `links` instead of the graph when `links` is `Some`.
    ///
    /// This evaluates a *candidate strategy* for a peer without
    /// rebuilding the overlay: shortest paths from `source` never
    /// revisit `source` (weights are non-negative), so overriding only
    /// its own out-edges yields exact distances in the hypothetical
    /// overlay where `source` plays `links`.
    ///
    /// # Panics
    ///
    /// Panics if `source` or a link target is out of bounds.
    pub fn sweep_with_source_links(
        &mut self,
        g: &CsrGraph,
        source: usize,
        links: Option<&[(usize, f64)]>,
        cap: usize,
    ) -> BoundedSweep {
        let n = g.node_count();
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        if self.row.len() != n {
            self.row.clear();
            self.row.resize(n, f64::INFINITY);
        }
        self.heap.clear();
        self.touched.clear();
        self.row[source] = 0.0;
        self.touched.push(source);
        self.heap.push(Entry {
            dist: 0.0,
            node: source,
        });
        let mut settled = Vec::with_capacity(cap.min(n));
        let mut complete = true;
        while let Some(Entry { dist: d, node: u }) = self.heap.pop() {
            // Stale-heap-entry skip: compares a value against an exact
            // copy of itself, never a recomputation.
            if d > self.row[u] {
                continue;
            }
            if settled.len() >= cap {
                // A non-stale entry remains: reachable nodes were cut off.
                complete = false;
                break;
            }
            settled.push((u, d));
            let (ts, ws): (&[usize], &[f64]) = if u == source {
                match links {
                    Some(ls) => {
                        for &(v, w) in ls {
                            assert!(v < n, "link target {v} out of bounds for {n} nodes");
                            self.relax(v, d + w);
                        }
                        (&[], &[])
                    }
                    None => g.out_neighbors(u),
                }
            } else {
                g.out_neighbors(u)
            };
            for (&v, &w) in ts.iter().zip(ws) {
                self.relax(v, d + w);
            }
        }
        for &u in &self.touched {
            self.row[u] = f64::INFINITY;
        }
        BoundedSweep { settled, complete }
    }

    #[inline]
    fn relax(&mut self, v: usize, nd: f64) {
        // Dijkstra relaxation: exact strict improvement is the
        // termination criterion; an eps band would cycle.
        if nd < self.row[v] {
            if self.row[v].is_infinite() {
                self.touched.push(v);
            }
            self.row[v] = nd;
            self.heap.push(Entry { dist: nd, node: v });
        }
    }
}

/// Deterministic farthest-point landmark selection over an arbitrary
/// distance oracle (typically the underlying *metric*, which is total —
/// overlay distances may be `∞` early in a run).
///
/// Starts from node `0`, then greedily adds the node maximising the
/// minimum distance to the chosen set, breaking ties toward the lowest
/// index ([`f64::total_cmp`] ordering, so the selection is bitwise
/// reproducible). Returns `k.min(n)` landmarks in selection order.
#[must_use]
pub fn farthest_point_landmarks<D: Fn(usize, usize) -> f64>(
    n: usize,
    k: usize,
    dist: D,
) -> Vec<usize> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut chosen = Vec::with_capacity(k);
    chosen.push(0);
    let mut min_dist: Vec<f64> = (0..n).map(|v| dist(0, v)).collect();
    while chosen.len() < k {
        let mut best = 0usize;
        let mut best_d = f64::NEG_INFINITY;
        for v in 0..n {
            if min_dist[v].total_cmp(&best_d).is_gt() {
                best_d = min_dist[v];
                best = v;
            }
        }
        chosen.push(best);
        for v in 0..n {
            let d = dist(best, v);
            if d.total_cmp(&min_dist[v]).is_lt() {
                min_dist[v] = d;
            }
        }
    }
    chosen
}

/// Counters from one sketch repair pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchRepair {
    /// Rows recomputed from scratch because a removed edge passed the
    /// [`edge_on_path`] tightness test against them.
    pub rows_rebuilt: usize,
    /// Rows kept and patched by decrease-only relaxation.
    pub rows_preserved: usize,
}

/// Landmark (hub) distance sketch over a directed overlay.
///
/// For `L` landmarks the sketch stores `2 L` full rows — forward
/// `d(ℓ, ·)` swept on the overlay and backward `d(·, ℓ)` swept on its
/// transpose — for `O(n · L)` memory total. Triangle inequality on
/// *graph* distances gives, for any pair `(u, v)`:
///
/// * upper bound: `d(u, v) ≤ d(u, ℓ) + d(ℓ, v)` for every `ℓ`;
/// * lower bounds: `d(u, v) ≥ d(ℓ, v) − d(ℓ, u)` and
///   `d(u, v) ≥ d(u, ℓ) − d(v, ℓ)`.
///
/// All bounds are certified (never NaN, `∞` handled conservatively);
/// callers combine them with metric lower bounds where available.
#[derive(Debug, Clone, PartialEq)]
pub struct LandmarkSketch {
    landmarks: Vec<usize>,
    /// `fwd[k][v] = d(landmarks[k], v)` on the overlay.
    fwd: Vec<Vec<f64>>,
    /// `bwd[k][v] = d(v, landmarks[k])` on the overlay.
    bwd: Vec<Vec<f64>>,
}

impl LandmarkSketch {
    /// Builds the sketch by sweeping every landmark forward on `csr` and
    /// backward on `transpose` (which must be `csr.transpose()`).
    ///
    /// # Panics
    ///
    /// Panics if a landmark is out of bounds or the transpose's node
    /// count differs.
    #[must_use]
    pub fn build(
        csr: &CsrGraph,
        transpose: &CsrGraph,
        landmarks: Vec<usize>,
        scratch: &mut DijkstraScratch,
    ) -> Self {
        let n = csr.node_count();
        assert_eq!(transpose.node_count(), n, "transpose node count mismatch");
        let mut fwd = Vec::with_capacity(landmarks.len());
        let mut bwd = Vec::with_capacity(landmarks.len());
        for &l in &landmarks {
            let mut f = vec![f64::INFINITY; n];
            csr.dijkstra_into_with(l, &mut f, scratch);
            fwd.push(f);
            let mut b = vec![f64::INFINITY; n];
            transpose.dijkstra_into_with(l, &mut b, scratch);
            bwd.push(b);
        }
        LandmarkSketch {
            landmarks,
            fwd,
            bwd,
        }
    }

    /// The landmark node ids, in selection order.
    #[must_use]
    pub fn landmarks(&self) -> &[usize] {
        &self.landmarks
    }

    /// Certified upper bound on `d(u, v)`: the cheapest landmark detour
    /// `min_ℓ d(u, ℓ) + d(ℓ, v)` (`∞` when no landmark connects them).
    #[must_use]
    pub fn upper(&self, u: usize, v: usize) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..self.landmarks.len() {
            let via = self.bwd[k][u] + self.fwd[k][v];
            if via < best {
                best = via;
            }
        }
        best
    }

    /// Certified lower bound on `d(u, v)` from the landmark rows alone
    /// (callers take the max with metric lower bounds). Returns `∞` when
    /// some landmark *proves* `v` unreachable from `u` — e.g. `d(ℓ, v)`
    /// infinite while `d(ℓ, u)` is finite — and `0` when no landmark
    /// separates the pair.
    #[must_use]
    pub fn lower(&self, u: usize, v: usize) -> f64 {
        let mut best = 0.0f64;
        for k in 0..self.landmarks.len() {
            let (fu, fv) = (self.fwd[k][u], self.fwd[k][v]);
            // d(ℓ, v) ≤ d(ℓ, u) + d(u, v): an infinite d(ℓ, v) with a
            // finite d(ℓ, u) certifies d(u, v) = ∞.
            if fv.is_infinite() && fu.is_finite() {
                return f64::INFINITY;
            }
            if fv.is_finite() && fu.is_finite() && fv - fu > best {
                best = fv - fu;
            }
            let (bu, bv) = (self.bwd[k][u], self.bwd[k][v]);
            // d(u, ℓ) ≤ d(u, v) + d(v, ℓ): an infinite d(u, ℓ) with a
            // finite d(v, ℓ) certifies d(u, v) = ∞.
            if bu.is_infinite() && bv.is_finite() {
                return f64::INFINITY;
            }
            if bu.is_finite() && bv.is_finite() && bu - bv > best {
                best = bu - bv;
            }
        }
        best
    }

    /// Repairs every row after an overlay edit, through the shared
    /// [`edge_on_path`] invalidation discipline: a row a removed edge
    /// tests tight against is recomputed in full (the conservative exact
    /// choice — removals can only increase distances, which decrease-only
    /// relaxation cannot express); surviving rows fold added edges in by
    /// decrease-only relaxation. `csr`/`transpose` are the post-edit
    /// overlay; `added`/`removed` are `(from, to, weight)` edge diffs.
    pub fn repair_after_edges(
        &mut self,
        csr: &CsrGraph,
        transpose: &CsrGraph,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
        eps: f64,
        scratch: &mut DijkstraScratch,
    ) -> SketchRepair {
        let mut counts = SketchRepair::default();
        for k in 0..self.landmarks.len() {
            let l = self.landmarks[k];
            // Forward row: distances from l; a removed u → v matters if
            // it was tight on some shortest path from l.
            let row = &mut self.fwd[k];
            if removed
                .iter()
                .any(|&(u, v, w)| edge_on_path(row[u], w, row[v], eps))
            {
                csr.dijkstra_into_with(l, row, scratch);
                counts.rows_rebuilt += 1;
            } else {
                let seeds: Vec<(usize, f64)> = added
                    .iter()
                    .filter(|&&(u, _, _)| row[u].is_finite())
                    .map(|&(u, v, w)| (v, row[u] + w))
                    .collect();
                if !seeds.is_empty() {
                    csr.relax_decrease_into(row, &seeds, scratch);
                }
                counts.rows_preserved += 1;
            }
            // Backward row: distances to l, i.e. forward distances from l
            // in the transpose, where the removed edge runs v → u.
            let row = &mut self.bwd[k];
            if removed
                .iter()
                .any(|&(u, v, w)| edge_on_path(row[v], w, row[u], eps))
            {
                transpose.dijkstra_into_with(l, row, scratch);
                counts.rows_rebuilt += 1;
            } else {
                let seeds: Vec<(usize, f64)> = added
                    .iter()
                    .filter(|&&(_, v, _)| row[v].is_finite())
                    .map(|&(u, v, w)| (u, row[v] + w))
                    .collect();
                if !seeds.is_empty() {
                    transpose.relax_decrease_into(row, &seeds, scratch);
                }
                counts.rows_preserved += 1;
            }
        }
        counts
    }

    /// Bytes held by the sketch rows and landmark table.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let rows: usize = self
            .fwd
            .iter()
            .chain(self.bwd.iter())
            .map(|r| r.len() * std::mem::size_of::<f64>())
            .sum();
        rows + self.landmarks.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, DiGraph};

    fn ring(n: usize) -> CsrGraph {
        CsrGraph::from_digraph(&builders::cycle_graph(n, |_, _| 1.0))
    }

    #[test]
    fn bounded_sweep_is_exact_prefix_of_full_sweep() {
        let csr = ring(10);
        let full = csr.dijkstra(3);
        let mut bd = BoundedDijkstra::new();
        let sweep = bd.sweep(&csr, 3, 4);
        assert_eq!(sweep.settled.len(), 4);
        assert!(!sweep.complete);
        for &(u, d) in &sweep.settled {
            assert_eq!(d, full[u], "node {u}");
        }
        // Settling order is nondecreasing in distance.
        for pair in sweep.settled.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn completed_sweep_certifies_the_full_row() {
        let csr = ring(6);
        let mut bd = BoundedDijkstra::new();
        let sweep = bd.sweep(&csr, 0, 6);
        assert!(sweep.complete, "cap equal to n must complete on a ring");
        assert_eq!(sweep.settled.len(), 6);
        let over = bd.sweep(&csr, 0, 100);
        assert!(over.complete);
        assert_eq!(over.settled, sweep.settled);
    }

    #[test]
    fn cap_exactly_at_reachable_count_is_complete() {
        // 0 → 1 → 2, node 3 isolated: 3 reachable nodes from 0.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut bd = BoundedDijkstra::new();
        let sweep = bd.sweep(&csr, 0, 3);
        assert!(sweep.complete, "heap exhausts exactly at the cap");
        assert_eq!(sweep.settled, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
        assert_eq!(sweep.distance(3), None);
        let cut = bd.sweep(&csr, 0, 2);
        assert!(!cut.complete);
    }

    #[test]
    fn back_to_back_sweeps_share_state_correctly() {
        let csr = ring(12);
        let mut bd = BoundedDijkstra::new();
        for s in 0..12 {
            let sweep = bd.sweep(&csr, s, 5);
            let full = csr.dijkstra(s);
            for &(u, d) in &sweep.settled {
                assert_eq!(d, full[u], "source {s}, node {u}");
            }
        }
    }

    #[test]
    fn source_link_override_evaluates_candidate_strategies() {
        // Ring 0→1→2→3→0; evaluate source 0 playing a single long link
        // to 2 instead of its graph edge to 1.
        let csr = ring(4);
        let mut bd = BoundedDijkstra::new();
        let sweep = bd.sweep_with_source_links(&csr, 0, Some(&[(2, 0.5)]), 4);
        assert!(sweep.complete);
        assert_eq!(sweep.distance(2), Some(0.5));
        assert_eq!(sweep.distance(3), Some(1.5));
        assert_eq!(sweep.distance(1), None, "1 is unreachable without 0→1");
        // Empty override: only the source settles.
        let lonely = bd.sweep_with_source_links(&csr, 0, Some(&[]), 4);
        assert!(lonely.complete);
        assert_eq!(lonely.settled, vec![(0, 0.0)]);
    }

    #[test]
    fn farthest_point_selection_is_deterministic_and_spread() {
        let pos = [0.0f64, 1.0, 2.0, 10.0, 11.0, 20.0];
        let d = |i: usize, j: usize| (pos[i] - pos[j]).abs();
        let lm = farthest_point_landmarks(6, 3, d);
        assert_eq!(lm, vec![0, 5, 3]);
        assert_eq!(farthest_point_landmarks(6, 3, d), lm);
        assert_eq!(farthest_point_landmarks(3, 10, d).len(), 3, "k clamps");
        assert!(farthest_point_landmarks(0, 2, d).is_empty());
    }

    fn grid_csr() -> CsrGraph {
        let mut g = DiGraph::new(9);
        // 3×3 grid, bidirectional unit edges.
        for r in 0..3usize {
            for c in 0..3usize {
                let u = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(u, u + 1, 1.0);
                    g.add_edge(u + 1, u, 1.0);
                }
                if r + 1 < 3 {
                    g.add_edge(u, u + 3, 1.0);
                    g.add_edge(u + 3, u, 1.0);
                }
            }
        }
        CsrGraph::from_digraph(&g)
    }

    #[test]
    fn sketch_bounds_bracket_exact_distances() {
        let csr = grid_csr();
        let t = csr.transpose();
        let mut scratch = DijkstraScratch::new();
        let sketch = LandmarkSketch::build(&csr, &t, vec![0, 8, 4], &mut scratch);
        for u in 0..9 {
            let exact = csr.dijkstra(u);
            for v in 0..9 {
                let lo = sketch.lower(u, v);
                let hi = sketch.upper(u, v);
                assert!(
                    lo <= exact[v] && exact[v] <= hi,
                    "({u},{v}): {lo} ≤ {} ≤ {hi}",
                    exact[v]
                );
            }
        }
        // A landmark pair is tight: u = landmark means upper is exact.
        assert_eq!(sketch.upper(0, 8), csr.dijkstra(0)[8]);
    }

    #[test]
    fn sketch_lower_detects_unreachability() {
        // 0 → 1, 2 isolated; landmark 0 reaches 1 but not 2.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let t = csr.transpose();
        let mut scratch = DijkstraScratch::new();
        let sketch = LandmarkSketch::build(&csr, &t, vec![0], &mut scratch);
        assert_eq!(sketch.lower(1, 2), f64::INFINITY);
        assert_eq!(sketch.upper(0, 2), f64::INFINITY);
    }

    #[test]
    fn sketch_repair_matches_rebuild() {
        // Start from the grid, remove one edge and add a shortcut; the
        // repaired sketch must equal a from-scratch build on the new
        // overlay.
        let mut g = DiGraph::new(9);
        let mut edges = Vec::new();
        for r in 0..3usize {
            for c in 0..3usize {
                let u = r * 3 + c;
                if c + 1 < 3 {
                    edges.push((u, u + 1, 1.0));
                    edges.push((u + 1, u, 1.0));
                }
                if r + 1 < 3 {
                    edges.push((u, u + 3, 1.0));
                    edges.push((u + 3, u, 1.0));
                }
            }
        }
        for &(u, v, w) in &edges {
            g.add_edge(u, v, w);
        }
        let csr0 = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        let mut sketch = LandmarkSketch::build(&csr0, &csr0.transpose(), vec![0, 8], &mut scratch);

        let removed = [(0usize, 1usize, 1.0f64)];
        let added = [(0usize, 5usize, 0.5f64)];
        let mut g2 = DiGraph::new(9);
        for &(u, v, w) in edges.iter().filter(|&&e| e != removed[0]) {
            g2.add_edge(u, v, w);
        }
        g2.add_edge(added[0].0, added[0].1, added[0].2);
        let csr2 = CsrGraph::from_digraph(&g2);
        let t2 = csr2.transpose();
        let counts = sketch.repair_after_edges(&csr2, &t2, &added, &removed, 1e-9, &mut scratch);
        assert_eq!(counts.rows_rebuilt + counts.rows_preserved, 4);
        assert!(counts.rows_rebuilt >= 1, "0→1 is tight for landmark 0");

        let fresh = LandmarkSketch::build(&csr2, &t2, vec![0, 8], &mut scratch);
        assert_eq!(sketch, fresh, "repair must be bit-identical to rebuild");
    }

    #[test]
    fn sketch_memory_is_linear_in_n_and_l() {
        let csr = grid_csr();
        let mut scratch = DijkstraScratch::new();
        let sketch = LandmarkSketch::build(&csr, &csr.transpose(), vec![0, 4], &mut scratch);
        assert_eq!(
            sketch.memory_bytes(),
            2 * 2 * 9 * std::mem::size_of::<f64>() + 2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn edge_on_path_matches_dense_cache_semantics() {
        // Tight edge: d(s,u)=2, w=1, d(s,v)=3.
        assert!(edge_on_path(2.0, 1.0, 3.0, 1e-9));
        // Slack edge: the path through it is strictly longer.
        assert!(!edge_on_path(2.5, 1.0, 3.0, 1e-9));
        // Unreachable tail never invalidates.
        assert!(!edge_on_path(f64::INFINITY, 1.0, 3.0, 1e-9));
        // Infinite head: any finite path into it is "on" the path.
        assert!(edge_on_path(2.0, 1.0, f64::INFINITY, 1e-9));
    }
}
