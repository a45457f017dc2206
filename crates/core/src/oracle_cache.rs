//! The persistent shortest-path cache behind [`GameSession`]'s
//! evaluation and best-response oracles.
//!
//! [`OracleCache`] owns the full-overlay distance matrix `d_G(u, ·)`
//! with per-row validity, repaired incrementally when the profile
//! mutates. It is the single invalidation code path for every oracle the
//! session hands out (sequential activations *and* the sharded
//! simultaneous round engine), and the one home of the session's
//! quadratic state.
//!
//! A best-response oracle for peer `i` needs residual rows
//! `D_{G_{-i}}(v, ·)`. The valid overlay row `v` is a certified lower
//! bound on it, and is the residual row itself when none of `i`'s
//! out-links is tight on it (a clean row). A dirty row is served as a
//! bound until the oracle needs it exact; then it is copied and handed
//! to [`sp_graph::CsrGraph::dijkstra_without`], which recomputes only the
//! shortest-path subtree below `i`'s tight out-links, seeded through the
//! overlay CSR's transpose (see `crate::best_response::CandidateRows`).
//! Residual rows are not stored past the oracle. This is the confinement
//! idea of the min+1 protocol of Dubois–Masuzawa–Tixeuil: recompute only
//! the part of the shortest-path tree a change touched, and only where
//! the decision reads it.
//!
//! The same kernel repairs the overlay rows themselves when a committed
//! diff leaves one peer `i`: every added and every removed link is an
//! out-link of `i`. That is every `apply`, the moves of sequential
//! dynamics included, and every batch whose net diff has one mover.
//! Each valid row first folds the added links in, on the new CSR, and
//! then has the removed links taken out by
//! [`sp_graph::CsrGraph::dijkstra_without`] with
//! [`sp_graph::Removal::Edges`]. Folding first leaves the kernel only
//! the distances that really grew: a node the added links take over is
//! no longer tight below a removed link, so it is never reset. Every
//! other diff (removals or additions from two or more peers:
//! simultaneous rounds, churn, mixed batches) drops the rows a removed
//! link is tight on, and the session refills them in one sharded pass.
//!
//! The fold is exact for `old ∪ added` although the new CSR already
//! lacks the removed links. Adding `i`'s out-links cannot shorten a
//! path *to* `i`, so `d(i)` never decreases and `i` is never expanded;
//! `i`'s out-edges are the only ones the new CSR is missing, and every
//! other decreased node relaxes exactly its `old ∪ added` out-edges. The
//! folded row is thus the exact row of a graph that holds the removed
//! links, and the new CSR is that graph without them: the kernel's
//! precondition. With additions from a second peer, `d(i)` could drop
//! and `i` would be expanded without its removed links, which is why
//! such diffs are not folded first.
//!
//! # Repair invariants
//!
//! After every committed edge diff `(added, removed)` the cache
//! restores this contract before any row is served again:
//!
//! * a one-peer diff keeps every valid row: the added links are folded
//!   in by seeded decrease-only relaxation
//!   ([`sp_graph::CsrGraph::relax_decrease_into`]), then the subtrees
//!   below the removed links still tight on the folded row are
//!   recomputed;
//! * any other diff keeps a row iff **no** removed link could be tight
//!   on one of its shortest paths (`d_u(i) + w > d_u(j)` beyond
//!   [`EDGE_ON_PATH_EPS`] slack — ties count as tight), and folds the
//!   added links into every kept row;
//! * every kept row is **bit-identical** to a fresh sweep of the new
//!   overlay. A fresh Dijkstra, the subtree repair and decrease-only
//!   relaxation all end at the one fixpoint of `D[v] = min(D0[v],
//!   min_p fl(D[p] + w))`: rounding is monotone and link lengths are
//!   non-negative, so every label is a path's left-associated sum and
//!   only falls, and once no link relaxes each label is the smallest
//!   such sum. The two repairs settle through a FIFO worklist rather
//!   than Dijkstra's heap, since they start from an exact row with a
//!   small frontier: the order only changes how often a node is popped
//!   (counted in `SessionStats::repair_pops`), never the fixpoint. A
//!   repair that reaches `n` pops hands what is still queued to the
//!   heap, at its current labels, and ends as Dijkstra; that is the same
//!   relaxation from the same state, so the bits hold across the
//!   hand-off too. Debug builds assert bit-identity at the end of every
//!   repair pass; `crates/core/tests/proptest_session.rs`,
//!   `crates/graph/tests/proptest_incremental.rs` (the hand-off
//!   included) and the root package's `tests/repair_reference.rs` check
//!   it in release builds too.
//!
//! [`GameSession`]: crate::GameSession

use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch, DistanceMatrix, Removal};

use crate::session::EDGE_ON_PATH_EPS;

/// What one [`OracleCache::repair_after_edges`] pass did, for the
/// session's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RepairCounts {
    /// Rows dropped (a removed link may have been tight).
    pub rows_invalidated: usize,
    /// Rows kept (untouched or repaired in place).
    pub rows_preserved: usize,
    /// Seeded decrease-only relaxations run on kept rows.
    pub incremental_relaxations: usize,
    /// Nodes the removal kernel reset across the in-place repairs.
    pub nodes_reset: usize,
    /// Worklist pops of the decrease folds and removal repairs.
    pub pops: usize,
}

/// The overlay distance matrix with per-row validity. See the module
/// docs for the repair invariants.
#[derive(Debug, Clone)]
pub(crate) struct OracleCache {
    /// Overlay distances; row `u` is meaningful iff `row_valid[u]`.
    dist: DistanceMatrix,
    row_valid: Vec<bool>,
}

impl OracleCache {
    /// An all-invalid cache for `n` peers.
    pub(crate) fn new(n: usize) -> Self {
        OracleCache {
            dist: DistanceMatrix::new_filled(n, f64::INFINITY),
            row_valid: vec![false; n],
        }
    }

    /// Drops every cached row.
    pub(crate) fn invalidate_all(&mut self) {
        self.row_valid.fill(false);
    }

    /// `true` when at least one row is valid (i.e. there is cached state
    /// worth repairing).
    pub(crate) fn any_valid_row(&self) -> bool {
        self.row_valid.iter().any(|&v| v)
    }

    /// Number of rows that would need a sweep right now.
    pub(crate) fn invalid_row_count(&self) -> usize {
        self.row_valid.iter().filter(|&&v| !v).count()
    }

    /// Row `u` (caller guarantees validity).
    pub(crate) fn row(&self, u: usize) -> &[f64] {
        debug_assert!(self.row_valid[u], "reading an invalid overlay row");
        self.dist.row(u)
    }

    /// Semantic size of the cached state in bytes: the matrix and its
    /// validity bits. Counts what the data is, not what the allocator
    /// holds, so the number is identical across machines and runs.
    pub(crate) fn memory_bytes(&self) -> usize {
        let n = self.row_valid.len();
        n * n * std::mem::size_of::<f64>() + n
    }

    /// The full matrix (caller guarantees all rows valid).
    pub(crate) fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// A zeroed `(n − 1) × (n − 1)` buffer for one cached oracle's
    /// assignment rows (see `crate::best_response::CandidateRows`): the
    /// reduction's instance is as quadratic as the matrix it is read
    /// from, and is dropped with the oracle.
    pub(crate) fn candidate_buffer(&self) -> Vec<f64> {
        let m = self.row_valid.len().saturating_sub(1);
        vec![0.0; m * m]
    }

    /// Sweeps row `u` if invalid; returns `true` when a sweep actually
    /// ran (the caller counts it).
    pub(crate) fn ensure_row(
        &mut self,
        csr: &CsrGraph,
        u: usize,
        scratch: &mut DijkstraScratch,
    ) -> bool {
        if self.row_valid[u] {
            return false;
        }
        csr.dijkstra_into_with(u, self.dist.row_mut(u), scratch);
        self.row_valid[u] = true;
        true
    }

    /// The `(source, buffer)` jobs for every invalid row — the input to
    /// [`sp_graph::CsrGraph::dijkstra_rows_with`]. The caller must follow
    /// a completed run with [`OracleCache::mark_all_valid`].
    pub(crate) fn invalid_jobs(&mut self) -> Vec<(usize, &mut [f64])> {
        let row_valid = &self.row_valid;
        self.dist
            .rows_mut()
            .enumerate()
            .filter(|&(u, _)| !row_valid[u])
            .collect()
    }

    /// Marks every row valid (after a bulk refill).
    pub(crate) fn mark_all_valid(&mut self) {
        self.row_valid.fill(true);
    }

    /// The repair pass, run against the **new** overlay CSR after the
    /// profile diff `(added, removed)` — each entry a `(from, to,
    /// weight)` edge — has been committed. `transpose`, the new CSR's
    /// transpose, is passed exactly when [`repairs_in_place`] holds:
    /// every row then folds the added links in and has the removed ones
    /// taken out by [`CsrGraph::dijkstra_without`], in that order.
    /// Otherwise a row a removed link is tight on is dropped and the
    /// others fold the added links in. See the module docs for the exact
    /// invariants restored.
    pub(crate) fn repair_after_edges(
        &mut self,
        csr: &CsrGraph,
        transpose: Option<&CsrGraph>,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
        scratch: &mut DijkstraScratch,
    ) -> RepairCounts {
        debug_assert_eq!(
            transpose.is_some(),
            repairs_in_place(added, removed),
            "a transpose is passed exactly for one-peer diffs with removals"
        );
        let mut counts = RepairCounts::default();
        let mut seeds: Vec<(usize, f64)> = Vec::with_capacity(added.len());

        for (u, row) in self.dist.rows_mut().enumerate() {
            if !self.row_valid[u] {
                continue;
            }
            // Without a transpose, a row a removed link (i, j) could be
            // tight on is dropped: u reaches i and the link may carry a
            // shortest path — the one tightness predicate every backend
            // shares.
            if transpose.is_none()
                && removed
                    .iter()
                    .any(|&(i, j, w)| edge_on_path(row[i], w, row[j], EDGE_ON_PATH_EPS))
            {
                self.row_valid[u] = false;
                counts.rows_invalidated += 1;
                continue;
            }
            // Added links only ever shorten distances.
            if let Some(pops) = relax_added(csr, row, added, &mut seeds, scratch) {
                counts.incremental_relaxations += 1;
                counts.pops += pops;
            }
            // One peer's diff: with its links folded in, the kernel
            // resets only what the added links did not take over.
            if let Some(transpose) = transpose {
                let repair = csr.dijkstra_without(
                    transpose,
                    u,
                    Removal::Edges(removed),
                    EDGE_ON_PATH_EPS,
                    row,
                    scratch,
                );
                counts.nodes_reset += repair.reset;
                counts.pops += repair.pops;
            }
            counts.rows_preserved += 1;
        }

        #[cfg(debug_assertions)]
        for u in (0..self.row_valid.len()).filter(|&u| self.row_valid[u]) {
            let fresh = csr.dijkstra(u);
            assert!(
                self.dist
                    .row(u)
                    .iter()
                    .zip(&fresh)
                    .all(|(kept, fresh)| kept.to_bits() == fresh.to_bits()),
                "kept overlay row {u} differs from a fresh sweep of the new overlay"
            );
        }
        counts
    }
}

/// Whether [`OracleCache::repair_after_edges`] repairs the diff `(added,
/// removed)` in place: it removes links, and every added and removed
/// link leaves the same peer.
pub(crate) fn repairs_in_place(
    added: &[(usize, usize, f64)],
    removed: &[(usize, usize, f64)],
) -> bool {
    removed
        .first()
        .is_some_and(|&(i, _, _)| added.iter().chain(removed).all(|e| e.0 == i))
}

/// Folds the added links `(from, to, weight)` into `row`, an exact row
/// of the overlay without them, by seeded decrease-only relaxation on
/// `csr`, the overlay with them: a link seeds its target when it
/// strictly shortens the row. On a one-peer diff `csr` also lacks the
/// removed links, and the result is the exact row of the old overlay
/// plus the added links (see the module docs). Returns the relaxation's
/// worklist pops when one ran. `seeds` is the caller's reusable seed
/// buffer.
fn relax_added(
    csr: &CsrGraph,
    row: &mut [f64],
    added: &[(usize, usize, f64)],
    seeds: &mut Vec<(usize, f64)>,
    scratch: &mut DijkstraScratch,
) -> Option<usize> {
    seeds.clear();
    seeds.extend(added.iter().filter_map(|&(i, j, w)| {
        let d_ui = row[i];
        // sp-lint: allow(float-eps, reason = "strict-decrease seeding: exact improvement is the Dijkstra fixpoint criterion; an eps band would re-seed settled rows forever")
        (d_ui.is_finite() && d_ui + w < row[j]).then_some((j, d_ui + w))
    }));
    if seeds.is_empty() {
        return None;
    }
    Some(csr.relax_decrease_into(row, seeds, scratch))
}
