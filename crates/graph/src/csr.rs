use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{edge_on_path, DiGraph};

/// An immutable compressed-sparse-row snapshot of a [`DiGraph`].
///
/// All out-edges live in two flat arrays indexed through a per-node offset
/// table, which makes repeated shortest-path sweeps (the inner loop of cost
/// and best-response computation) cache-friendly.
///
/// # Example
///
/// ```
/// use sp_graph::{DiGraph, CsrGraph};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// let csr = CsrGraph::from_digraph(&g);
/// assert_eq!(csr.dijkstra(0)[2], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<usize>,
    weights: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable working memory for repeated shortest-path sweeps.
///
/// Hot loops (the `GameSession` evaluation cache, best-response oracles)
/// run thousands of Dijkstra sweeps over same-sized graphs; sharing one
/// scratch avoids a heap allocation per sweep. The scratch owns the
/// priority queue of the from-scratch sweeps, the FIFO worklist and its
/// in-queue flags that the two incremental kernels
/// ([`CsrGraph::relax_decrease_into`], [`CsrGraph::dijkstra_without`])
/// settle through, the affected-set bookkeeping of
/// [`CsrGraph::dijkstra_without`], and a distance row for
/// [`CsrGraph::dijkstra_row_with`], so back-to-back oracle builds reuse
/// every buffer across calls.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    heap: BinaryHeap<Entry>,
    row: Vec<f64>,
    /// Per-node flags, all `false` between calls: membership of the
    /// affected set while [`CsrGraph::dijkstra_without`] collects it,
    /// then the worklist's in-queue flags.
    marked: Vec<bool>,
    /// The affected set, in discovery order (doubles as the worklist of
    /// its closure).
    affected: Vec<usize>,
    /// The FIFO worklist of the incremental kernels; each node is queued
    /// at most once at a time.
    queue: VecDeque<usize>,
}

/// What one [`CsrGraph::dijkstra_without`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowRepair {
    /// Nodes reset to `∞` and re-derived: the affected set. `0` means no
    /// removed edge was tight, and the row was left untouched.
    pub reset: usize,
    /// Queue pops of the settle step, as
    /// [`CsrGraph::relax_decrease_into`] counts them.
    pub pops: usize,
}

/// The edges [`CsrGraph::dijkstra_without`] takes out of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Removal<'a> {
    /// Every out-edge of this node, which the graph and its transpose
    /// still hold.
    OutEdgesOf(usize),
    /// These `(from, to, weight)` edges, which the graph no longer
    /// holds.
    Edges(&'a [(usize, usize, f64)]),
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        DijkstraScratch::default()
    }
}

impl CsrGraph {
    /// Builds the CSR snapshot of `g`.
    #[must_use]
    pub fn from_digraph(g: &DiGraph) -> Self {
        let lists = (0..g.node_count()).map(|u| g.out_edges(u).iter().map(|e| (e.to, e.weight)));
        CsrGraph::from_out_edges(lists, g.edge_count())
    }

    /// Builds a CSR snapshot straight from per-node out-edge lists: list
    /// `u` holds node `u`'s `(target, weight)` edges, in order, and the
    /// node count is the number of lists. `edge_count` sizes the edge
    /// arrays up front. [`CsrGraph::from_digraph`] is this constructor
    /// over a [`DiGraph`]'s adjacency lists; callers that hold their
    /// edges elsewhere skip building the [`DiGraph`].
    ///
    /// # Example
    ///
    /// ```
    /// use sp_graph::CsrGraph;
    ///
    /// let lists = [vec![(1, 1.0)], vec![(2, 2.0)], vec![]];
    /// let csr = CsrGraph::from_out_edges(lists, 2);
    /// assert_eq!(csr.dijkstra(0)[2], 3.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a target is not one of the nodes.
    #[must_use]
    pub fn from_out_edges<L, E>(lists: L, edge_count: usize) -> Self
    where
        L: IntoIterator<Item = E>,
        E: IntoIterator<Item = (usize, f64)>,
    {
        let mut offsets = vec![0];
        let mut targets = Vec::with_capacity(edge_count);
        let mut weights = Vec::with_capacity(edge_count);
        for list in lists {
            for (to, weight) in list {
                targets.push(to);
                weights.push(weight);
            }
            offsets.push(targets.len());
        }
        let n = offsets.len() - 1;
        if let Some(&to) = targets.iter().find(|&&to| to >= n) {
            panic!("edge target {to} out of bounds for {n} nodes");
        }
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The reverse graph: every edge `u → v` becomes `v → u` with the
    /// same weight.
    ///
    /// Distances *to* a node `t` in `self` are distances *from* `t` in
    /// the transpose, so one forward sweep on the transpose yields the
    /// column `d(·, t)` — the backward half of a landmark sketch. The
    /// construction is a counting sort over the edge arrays, `O(n + m)`,
    /// and the transpose's out-edges are emitted in ascending source
    /// order, so the result is deterministic.
    #[must_use]
    pub fn transpose(&self) -> CsrGraph {
        let n = self.node_count();
        let m = self.edge_count();
        let mut offsets = vec![0usize; n + 1];
        for &t in &self.targets {
            offsets[t + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; m];
        let mut weights = vec![0.0f64; m];
        for u in 0..n {
            let (ts, ws) = self.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let slot = cursor[v];
                cursor[v] += 1;
                targets[slot] = u;
                weights[slot] = w;
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `node` as parallel `(targets, weights)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn out_neighbors(&self, node: usize) -> (&[usize], &[f64]) {
        let lo = self.offsets[node];
        let hi = self.offsets[node + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Single-source shortest path distances from `source`.
    ///
    /// Identical semantics to [`crate::dijkstra`] but without touching the
    /// adjacency-list representation.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    #[must_use]
    pub fn dijkstra(&self, source: usize) -> Vec<f64> {
        let n = self.node_count();
        let mut dist = vec![f64::INFINITY; n];
        self.dijkstra_into(source, &mut dist);
        dist
    }

    /// Like [`CsrGraph::dijkstra`] but reuses a caller-provided buffer to
    /// avoid per-call allocation. `dist` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or `dist.len() != node_count()`.
    pub fn dijkstra_into(&self, source: usize, dist: &mut [f64]) {
        let mut scratch = DijkstraScratch::new();
        self.dijkstra_into_with(source, dist, &mut scratch);
    }

    /// Like [`CsrGraph::dijkstra_into`] but reuses caller-provided scratch
    /// memory as well, so back-to-back sweeps allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or `dist.len() != node_count()`.
    pub fn dijkstra_into_with(
        &self,
        source: usize,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
    ) {
        let n = self.node_count();
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        dist.fill(f64::INFINITY);
        dist[source] = 0.0;
        scratch.heap.clear();
        scratch.heap.push(Entry {
            dist: 0.0,
            node: source,
        });
        self.settle_heap(dist, scratch, usize::MAX);
    }

    /// Like [`CsrGraph::dijkstra_into_with`] but sweeps into the
    /// scratch-owned row buffer and returns it, so repeated sweeps — a
    /// best-response oracle builds one per candidate neighbour, thousands
    /// per dynamics round — allocate nothing after the first call.
    ///
    /// The returned slice is valid until the next use of `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_row_with<'a>(
        &self,
        source: usize,
        scratch: &'a mut DijkstraScratch,
    ) -> &'a [f64] {
        let mut row = std::mem::take(&mut scratch.row);
        row.resize(self.node_count(), f64::INFINITY);
        self.dijkstra_into_with(source, &mut row, scratch);
        scratch.row = row;
        &scratch.row
    }

    /// Incremental single-source repair after **weight decreases / edge
    /// additions**: given `dist` holding correct distances in a graph of
    /// which `self` is a superset (same nodes, possibly extra or cheaper
    /// edges), and `seeds` listing nodes whose tentative distance just
    /// dropped, restores exact distances for `self`. Work is proportional
    /// to the region whose distances actually change, not to the whole
    /// graph: the `GameSession` cache folds a move's added links into its
    /// rows with it.
    ///
    /// Seeds with `new_dist >= dist[node]` are ignored. The others settle
    /// through a FIFO worklist, not a priority queue: a popped node
    /// relaxes its out-edges, and a node whose distance drops is queued
    /// unless it already is. A repair starts from an exact row with a
    /// small frontier, so it needs no settle order. Rounding is monotone
    /// and weights are non-negative, so every distance is always some
    /// path's left-associated sum `fl(fl(d0 + w1) + w2) …` and only ever
    /// falls. When the queue empties no edge relaxes, so each distance is
    /// the smallest such sum: the one fixpoint of `D[v] = min(D0[v],
    /// min_p fl(D[p] + w))`, which a fresh Dijkstra also reaches. Any
    /// settle order gives the same bits.
    ///
    /// FIFO order may pop a node many times. After `node_count()` pops in
    /// one call, the node just popped and whatever is still queued go to
    /// the heap at their current distances, and the call ends as
    /// Dijkstra, which relaxes each node at most once. So no call does
    /// more than `node_count()` worklist pops plus one Dijkstra sweep.
    ///
    /// Returns the number of pops from both queues; more than
    /// `node_count()` means the call handed off to the heap.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != node_count()` or a seed node is out of
    /// bounds.
    pub fn relax_decrease_into(
        &self,
        dist: &mut [f64],
        seeds: &[(usize, f64)],
        scratch: &mut DijkstraScratch,
    ) -> usize {
        let n = self.node_count();
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        scratch.marked.resize(n, false);
        for &(node, new_dist) in seeds {
            assert!(node < n, "seed {node} out of bounds for {n} nodes");
            // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
            if new_dist < dist[node] {
                dist[node] = new_dist;
                scratch.enqueue(node);
            }
        }
        self.settle_worklist(dist, scratch, usize::MAX)
    }

    /// Removes the edges `removal` names from `dist`, an exact row from
    /// `source`, by recomputing only the part of the shortest-path tree
    /// those edges could carry:
    ///
    /// 1. *Roots:* the targets of the removed edges that are tight on
    ///    `dist` under [`edge_on_path`] with tolerance `eps`.
    /// 2. *Affected set:* everything reachable from the roots over tight
    ///    edges of `self`, `source` excluded (its distance is 0 in every
    ///    subgraph). Those distances are reset to `∞`.
    /// 3. *Seeding:* each affected node takes its best in-edge from an
    ///    unaffected node, read from `transpose`.
    /// 4. *Settling:* the seeds settle through the FIFO worklist of
    ///    [`CsrGraph::relax_decrease_into`], with the same hand-off to
    ///    Dijkstra after `node_count()` pops. Affected nodes without a
    ///    finite seed stay at `∞` until a relaxation reaches them.
    ///
    /// The two [`Removal`]s are the two ways a row loses edges:
    ///
    /// * [`Removal::OutEdgesOf`]`(skip)`: `dist` is the exact row of
    ///   `self`, and the result is the exact row of `self` without
    ///   `skip`'s out-edges. `self` and `transpose` still hold those
    ///   edges, so seeding ignores in-edges from `skip` and settling
    ///   never expands it. This is how `sp-core`'s cached best-response
    ///   oracles derive a residual row `D_{G_{-i}}(v, ·)` from the
    ///   overlay row of `v`, with `skip = i`.
    /// * [`Removal::Edges`]`(removed)`: `dist` is the exact row of a
    ///   graph `G` that holds the `removed` edges, and `self` is `G`
    ///   without them, plus any `added` edges. The result is the exact
    ///   row of `self` once the added edges are folded in by
    ///   [`CsrGraph::relax_decrease_into`], seeded at each added `(u, v,
    ///   w)` with `dist[u] + w < dist[v]`. With nothing added, the result
    ///   already is the exact row of `self`. The `sp-core` session meets
    ///   this with nothing added: when every added and removed link
    ///   leaves one peer `i`, it first folds the added links into the
    ///   old row on the new graph, which is exact for `old ∪ added`
    ///   because `i`'s distance cannot drop and `i`, the only node the
    ///   new graph lacks edges of, is never expanded. That folded row is
    ///   the row of a `G` holding the removed edges, with `self = G −
    ///   removed`, and the removal then resets only what truly grew.
    ///
    /// An unaffected node keeps a shortest path of `G` that avoids every
    /// removed edge: it has a tight predecessor that is itself
    /// unaffected, over an edge that was not removed. So its distance
    /// cannot grow. The affected distances are re-derived from the same
    /// `d(u) + w` sums a fresh sweep forms, and settling relaxes every
    /// edge out of a node whose distance changed, so after the decrease
    /// fold every edge of `self` is relaxed. The row then is the fixpoint
    /// [`CsrGraph::relax_decrease_into`] describes, whatever order the
    /// worklist settled in, and so bit-identical to a fresh sweep. Any
    /// `eps >= 0` is exact; a larger one only widens the affected set.
    /// Work is proportional to the affected set and its edges, not to
    /// the graph: at most `node_count()` worklist pops plus one Dijkstra
    /// sweep.
    ///
    /// Returns the size of the affected set and the settle step's pops
    /// (see [`RowRepair`]). No reset means no removed edge was tight, and
    /// `dist` is left untouched.
    ///
    /// `transpose` must be [`CsrGraph::transpose`] of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != node_count()`, if `source`, `skip` or an
    /// endpoint of a removed edge is out of bounds, or if `transpose` has
    /// a different node count.
    pub fn dijkstra_without(
        &self,
        transpose: &CsrGraph,
        source: usize,
        removal: Removal<'_>,
        eps: f64,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
    ) -> RowRepair {
        let n = self.node_count();
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        assert_eq!(transpose.node_count(), n, "transpose has wrong node count");
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        scratch.marked.resize(n, false);
        scratch.affected.clear();

        // Steps 1–2: the roots, then their closure over tight edges. The
        // affected list is its own worklist. `skip`'s out-edges are the
        // removed ones, whose targets are roots already, so it is not
        // expanded a second time; `usize::MAX` is never a node.
        let skip = match removal {
            Removal::OutEdgesOf(skip) => {
                assert!(skip < n, "skip {skip} out of bounds for {n} nodes");
                self.mark_tight_targets(skip, source, eps, dist, scratch);
                skip
            }
            Removal::Edges(removed) => {
                for &(u, v, w) in removed {
                    mark_if_tight(u, w, v, source, eps, dist, scratch);
                }
                usize::MAX
            }
        };
        let mut next = 0;
        while let Some(&u) = scratch.affected.get(next) {
            next += 1;
            if u != skip {
                self.mark_tight_targets(u, source, eps, dist, scratch);
            }
        }
        let reset = scratch.affected.len();
        if reset == 0 {
            return RowRepair::default();
        }

        // Step 3: reset, then seed from the unaffected in-neighbours.
        for &a in &scratch.affected {
            dist[a] = f64::INFINITY;
        }
        for &a in &scratch.affected {
            let (ps, ws) = transpose.out_neighbors(a);
            let mut best = f64::INFINITY;
            for (&p, &w) in ps.iter().zip(ws) {
                if p != skip && !scratch.marked[p] {
                    // The same `d(u) + w` sums a fresh sweep relaxes;
                    // `min` returns one of them exactly.
                    best = best.min(dist[p] + w);
                }
            }
            dist[a] = best;
        }
        // Step 4: the flags turn from affected-set to in-queue flags.
        for &a in &scratch.affected {
            scratch.marked[a] = dist[a].is_finite();
            if scratch.marked[a] {
                scratch.queue.push_back(a);
            }
        }
        let pops = self.settle_worklist(dist, scratch, skip);
        RowRepair { reset, pops }
    }

    /// Runs one full single-source sweep per `(source, buffer)` job,
    /// sharding the jobs over at most `workers` scoped threads with a
    /// per-thread [`DijkstraScratch`].
    ///
    /// The buffers must be disjoint (guaranteed by the borrow checker);
    /// `CsrGraph` itself is immutable and shared read-only across the
    /// threads. The first shard runs on the calling thread, so `k`
    /// workers spawn `k − 1` threads; with `workers <= 1` or a single
    /// job everything runs there. Results are identical either way, only
    /// the wall-clock changes. This is the bulk-row engine behind
    /// `GameSession`'s parallel cache refill.
    ///
    /// # Panics
    ///
    /// Panics if any job's source is out of bounds or its buffer length
    /// differs from `node_count()`.
    pub fn dijkstra_rows_with(&self, mut jobs: Vec<(usize, &mut [f64])>, workers: usize) {
        let workers = workers.max(1).min(jobs.len());
        let sweep = |shard: &mut [(usize, &mut [f64])]| {
            let mut scratch = DijkstraScratch::new();
            for (source, row) in shard {
                self.dijkstra_into_with(*source, row, &mut scratch);
            }
        };
        if workers <= 1 {
            sweep(&mut jobs);
            return;
        }
        let shard_len = jobs.len().div_ceil(workers);
        let (own, rest) = jobs.split_at_mut(shard_len);
        std::thread::scope(|scope| {
            for shard in rest.chunks_mut(shard_len) {
                scope.spawn(move || sweep(shard));
            }
            sweep(own);
        });
    }

    /// Adds every out-neighbour of `u` whose edge is tight on `dist` to
    /// the affected set of [`CsrGraph::dijkstra_without`].
    fn mark_tight_targets(
        &self,
        u: usize,
        source: usize,
        eps: f64,
        dist: &[f64],
        scratch: &mut DijkstraScratch,
    ) {
        let (ts, ws) = self.out_neighbors(u);
        for (&v, &w) in ts.iter().zip(ws) {
            mark_if_tight(u, w, v, source, eps, dist, scratch);
        }
    }

    /// Settles the nodes queued in `scratch.queue` against `dist` in FIFO
    /// order, never expanding the out-edges of `skip`, and hands off to
    /// [`CsrGraph::settle_heap`] after `node_count()` pops (see
    /// [`CsrGraph::relax_decrease_into`]). Returns the pops of both.
    fn settle_worklist(
        &self,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
        skip: usize,
    ) -> usize {
        let n = self.node_count();
        let mut pops = 0;
        while let Some(u) = scratch.queue.pop_front() {
            scratch.marked[u] = false;
            if pops == n {
                scratch.heap.clear();
                for v in std::iter::once(u).chain(scratch.queue.drain(..)) {
                    scratch.marked[v] = false;
                    scratch.heap.push(Entry {
                        dist: dist[v],
                        node: v,
                    });
                }
                return pops + self.settle_heap(dist, scratch, skip);
            }
            pops += 1;
            if u == skip {
                continue;
            }
            let d = dist[u];
            let (ts, ws) = self.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                // sp-lint: allow(float-eps, reason = "label-correcting relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
                if nd < dist[v] {
                    dist[v] = nd;
                    scratch.enqueue(v);
                }
            }
        }
        pops
    }

    /// Settles whatever is queued in `scratch.heap` against `dist` in
    /// Dijkstra order (lazy deletion: stale queue entries are skipped on
    /// pop), never expanding the out-edges of `skip` (settled nodes equal
    /// to `skip` are popped but not relaxed). Returns the pops.
    fn settle_heap(&self, dist: &mut [f64], scratch: &mut DijkstraScratch, skip: usize) -> usize {
        let mut pops = 0;
        while let Some(Entry { dist: d, node: u }) = scratch.heap.pop() {
            pops += 1;
            // sp-lint: allow(float-eps, reason = "stale-heap-entry skip: compares a value against an exact copy of itself, never a recomputation")
            if d > dist[u] || u == skip {
                continue;
            }
            let (ts, ws) = self.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
                if nd < dist[v] {
                    dist[v] = nd;
                    scratch.heap.push(Entry { dist: nd, node: v });
                }
            }
        }
        pops
    }
}

impl DijkstraScratch {
    /// Queues `v` on the worklist unless it is queued already.
    fn enqueue(&mut self, v: usize) {
        if !self.marked[v] {
            self.marked[v] = true;
            self.queue.push_back(v);
        }
    }
}

/// Adds `v` to the affected set of [`CsrGraph::dijkstra_without`] when
/// it is not `source`, not yet marked, and the edge `(u, v)` of weight
/// `w` is tight on `dist`.
fn mark_if_tight(
    u: usize,
    w: f64,
    v: usize,
    source: usize,
    eps: f64,
    dist: &[f64],
    scratch: &mut DijkstraScratch,
) {
    if v != source && !scratch.marked[v] && edge_on_path(dist[u], w, dist[v], eps) {
        scratch.marked[v] = true;
        scratch.affected.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, dijkstra};

    #[test]
    fn csr_matches_adjacency_dijkstra() {
        let mut g = DiGraph::new(6);
        let edges = [
            (0, 1, 2.0),
            (1, 2, 2.0),
            (2, 3, 2.0),
            (0, 3, 7.0),
            (3, 4, 1.0),
            (4, 0, 1.0),
        ];
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        let csr = CsrGraph::from_digraph(&g);
        for s in 0..6 {
            assert_eq!(csr.dijkstra(s), dijkstra(&g, s), "source {s}");
        }
    }

    #[test]
    fn structure_roundtrip() {
        let g = builders::complete_graph(4, |i, j| (i + j) as f64);
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 12);
        let (ts, ws) = csr.out_neighbors(0);
        assert_eq!(ts, &[1, 2, 3]);
        assert_eq!(ws, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dijkstra_into_reuses_buffer() {
        let g = builders::cycle_graph(5, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut buf = vec![42.0; 5];
        csr.dijkstra_into(2, &mut buf);
        assert_eq!(buf, vec![3.0, 4.0, 0.0, 1.0, 2.0]);
        csr.dijkstra_into(0, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn dijkstra_into_checks_buffer_len() {
        let g = builders::cycle_graph(3, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut buf = vec![0.0; 2];
        csr.dijkstra_into(0, &mut buf);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let g = builders::complete_graph(8, |i, j| ((i * 7 + j * 3) % 5 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        let mut buf = vec![0.0; 8];
        for s in 0..8 {
            csr.dijkstra_into_with(s, &mut buf, &mut scratch);
            assert_eq!(buf, csr.dijkstra(s), "source {s}");
        }
    }

    #[test]
    fn decrease_relaxation_repairs_added_edges() {
        // Path 0 -> 1 -> 2 -> 3 with unit weights; then add shortcut 0 -> 3.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        let csr_old = CsrGraph::from_digraph(&g);
        let mut dist = csr_old.dijkstra(0);
        assert_eq!(dist[3], 3.0);
        g.add_edge(0, 3, 0.5);
        g.add_edge(3, 1, 0.1); // decreased dist must propagate onward
        let csr_new = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        csr_new.relax_decrease_into(&mut dist, &[(3, 0.5)], &mut scratch);
        assert_eq!(dist, csr_new.dijkstra(0));
        assert_eq!(dist[3], 0.5);
        assert!((dist[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn decrease_relaxation_ignores_worse_seeds() {
        let g = builders::cycle_graph(5, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut dist = csr.dijkstra(0);
        let before = dist.clone();
        let mut scratch = DijkstraScratch::new();
        csr.relax_decrease_into(&mut dist, &[(2, 99.0)], &mut scratch);
        assert_eq!(dist, before);
    }

    #[test]
    fn parallel_rows_match_sequential_sweeps() {
        let g = builders::complete_graph(17, |i, j| ((i * 5 + j * 11) % 7 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        for workers in [0usize, 1, 2, 5, 32] {
            let mut m = crate::DistanceMatrix::new_filled(17, -1.0);
            let jobs: Vec<(usize, &mut [f64])> = m.rows_mut().enumerate().collect();
            csr.dijkstra_rows_with(jobs, workers);
            for s in 0..17 {
                assert_eq!(
                    m.row(s),
                    csr.dijkstra(s).as_slice(),
                    "source {s}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_digraph(&DiGraph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let mut g = DiGraph::new(5);
        for (u, v, w) in [(0, 1, 2.0), (1, 2, 3.0), (3, 1, 0.5), (4, 0, 1.0)] {
            g.add_edge(u, v, w);
        }
        let csr = CsrGraph::from_digraph(&g);
        let t = csr.transpose();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.edge_count(), 4);
        let (ts, ws) = t.out_neighbors(1);
        assert_eq!(ts, &[0, 3]);
        assert_eq!(ws, &[2.0, 0.5]);
        assert_eq!(t.transpose(), csr, "double transpose is the identity");
    }

    #[test]
    fn transpose_sweep_yields_columns() {
        let g = builders::complete_graph(7, |i, j| ((i * 3 + j * 5) % 4 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        let t = csr.transpose();
        for target in 0..7 {
            let back = t.dijkstra(target);
            for source in 0..7 {
                assert_eq!(
                    back[source],
                    csr.dijkstra(source)[target],
                    "d({source}, {target})"
                );
            }
        }
    }
}
