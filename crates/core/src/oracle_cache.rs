//! The persistent shortest-path cache behind [`GameSession`]'s
//! evaluation and best-response oracles.
//!
//! [`OracleCache`] owns the full-overlay distance matrix `d_G(u, ·)`
//! with per-row validity, repaired incrementally when the profile
//! mutates. It is the single invalidation code path for every oracle the
//! session hands out (sequential activations *and* the sharded
//! simultaneous round engine).
//!
//! A best-response oracle for peer `i` needs residual rows
//! `D_{G_{-i}}(v, ·)`. The valid overlay row `v` is a certified lower
//! bound on it, and is the residual row itself when none of `i`'s
//! out-links is tight on it (a clean row). A dirty row is served as a
//! bound until the oracle needs it exact; then it is copied and handed
//! to [`sp_graph::CsrGraph::dijkstra_without`], which recomputes only the
//! shortest-path subtree below `i`'s tight out-links, seeded through the
//! overlay CSR's transpose (see `crate::best_response::CandidateRows`).
//! Residual rows are not stored past the oracle: deriving one costs a
//! subtree repair, which is cheaper than keeping a second tier exact
//! across moves. This is the confinement idea of the min+1 protocol of
//! Dubois–Masuzawa–Tixeuil: recompute only the part of the shortest-path
//! tree a change touched, and only where the decision reads it.
//!
//! When the session plays the response, [`OracleCache::commit_played`]
//! updates the matrix in place, one row at a time. A row that none of
//! the move's removed links is tight on keeps its overlay row and folds
//! in the added links, as the repair below does. A row a removed link is
//! tight on is broken: it becomes its residual row — the oracle's, or one
//! derived now from the old row — with all of `i`'s new links folded in.
//! Row `i` is swept. Every row stays valid.
//!
//! # Invalidation invariants
//!
//! After every committed edge diff `(added, removed)` the cache
//! restores this contract before any row is served again:
//!
//! * a row `u` survives untouched iff **no** removed link could be tight
//!   on one of `u`'s shortest paths (`d_u(i) + w > d_u(j)` beyond
//!   [`EDGE_ON_PATH_EPS`] slack — ties conservatively invalidate);
//!   added links are folded in by seeded decrease-only relaxation
//!   ([`sp_graph::CsrGraph::relax_decrease_into`]);
//! * every surviving row is **bit-identical** to a fresh sweep of the
//!   overlay (enforced by `crates/core/tests/proptest_session.rs` and
//!   `crates/graph/tests/proptest_incremental.rs`): both a fresh
//!   Dijkstra and decrease-only relaxation compute the minimum over
//!   source-to-target path sums, so equal inputs give equal bits.
//!
//! [`GameSession`]: crate::GameSession

use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch, DistanceMatrix};

use crate::best_response::{Overlay, Residuals};
use crate::session::EDGE_ON_PATH_EPS;

/// What one [`OracleCache::repair_after_edges`] or
/// [`OracleCache::commit_played`] pass did, for the session's work
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RepairCounts {
    /// Rows dropped (a removed link may have been tight).
    pub rows_invalidated: usize,
    /// Rows kept (untouched or repaired in place).
    pub rows_preserved: usize,
    /// Seeded decrease-only relaxations run on surviving rows.
    pub incremental_relaxations: usize,
    /// Residual rows a played move derived because its oracle had held
    /// them only as bounds.
    pub rows_derived: usize,
}

/// The overlay distance matrix with per-row validity. See the module
/// docs for the invalidation invariants.
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

    /// Whether row `u` currently holds valid distances.
    pub(crate) fn row_is_valid(&self, u: usize) -> bool {
        self.row_valid[u]
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
    /// weight)` edge — has been committed. See the module docs for the
    /// exact invariants restored.
    pub(crate) fn repair_after_edges(
        &mut self,
        csr: &CsrGraph,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
        scratch: &mut DijkstraScratch,
    ) -> RepairCounts {
        let mut counts = RepairCounts::default();
        let n = self.row_valid.len();
        let mut seeds: Vec<(usize, f64)> = Vec::with_capacity(added.len());

        for u in 0..n {
            if !self.row_valid[u] {
                continue;
            }
            let row = self.dist.row(u);

            // A removed link (i, j) can only affect u's distances when u
            // reaches i and the link was tight on some shortest path —
            // the one tightness predicate every backend shares.
            let broken = removed
                .iter()
                .any(|&(i, j, w)| edge_on_path(row[i], w, row[j], EDGE_ON_PATH_EPS));
            if broken {
                self.row_valid[u] = false;
                counts.rows_invalidated += 1;
                continue;
            }

            // Added links only ever shorten distances: repair in place.
            if relax_added(csr, self.dist.row_mut(u), added, &mut seeds, scratch) {
                counts.incremental_relaxations += 1;
            }
            counts.rows_preserved += 1;
        }
        counts
    }

    /// Commits a played best response of peer `i` in place, one row at
    /// a time, with every row valid before and after. `old` is the
    /// overlay before the move, `csr` the overlay after it, `links`
    /// every new `(i, t, d(i, t))` link of `i`, and `residuals` the
    /// residual rows `D_{G_{-i}}(v, ·)` the mover's oracle derived.
    ///
    /// * A row none of the move's removed links is tight on keeps its
    ///   overlay row and folds in only the added links — the
    ///   [`OracleCache::repair_after_edges`] path, with nothing dropped.
    /// * A **broken** row, one a removed link is tight on, becomes its
    ///   residual row with all of `i`'s new links folded in: the
    ///   oracle's row when it derived one, otherwise one derived now from
    ///   the old row against `old` (counted in
    ///   [`RepairCounts::rows_derived`]).
    /// * Row `i` is swept; the caller counts the sweep.
    pub(crate) fn commit_played(
        &mut self,
        old: Overlay<'_>,
        csr: &CsrGraph,
        i: usize,
        links: &[(usize, usize, f64)],
        residuals: &Residuals,
        scratch: &mut DijkstraScratch,
    ) -> RepairCounts {
        let (old_ts, old_ws) = old.csr.out_neighbors(i);
        let kept = |t: usize| links.iter().any(|&(_, l, _)| l == t);
        let removed: Vec<(usize, usize, f64)> = old_ts
            .iter()
            .zip(old_ws)
            .filter(|&(&t, _)| !kept(t))
            .map(|(&t, &w)| (i, t, w))
            .collect();
        let added: Vec<(usize, usize, f64)> = links
            .iter()
            .filter(|&&(_, t, _)| !old_ts.contains(&t))
            .copied()
            .collect();
        let mut counts = RepairCounts::default();
        let mut seeds: Vec<(usize, f64)> = Vec::with_capacity(links.len());
        for (v, row) in self.dist.rows_mut().enumerate() {
            debug_assert!(self.row_valid[v], "a played move needs every row valid");
            if v == i {
                csr.dijkstra_into_with(i, row, scratch);
                continue;
            }
            let broken = removed
                .iter()
                .any(|&(_, t, w)| edge_on_path(row[i], w, row[t], EDGE_ON_PATH_EPS));
            let fold = if broken {
                match residuals.row(v) {
                    Some(residual) => row.copy_from_slice(residual),
                    None => {
                        old.csr.dijkstra_without(
                            old.transpose,
                            v,
                            i,
                            EDGE_ON_PATH_EPS,
                            row,
                            scratch,
                        );
                        counts.rows_derived += 1;
                    }
                }
                links
            } else {
                &added
            };
            if relax_added(csr, row, fold, &mut seeds, scratch) {
                counts.incremental_relaxations += 1;
            }
            counts.rows_preserved += 1;
        }
        counts
    }
}

/// Folds the added links `(from, to, weight)` into `row`, an exact row
/// of the overlay without them, by seeded decrease-only relaxation on
/// `csr`, the overlay with them: a link seeds its target when it
/// strictly shortens the row. Returns `true` when a relaxation ran.
/// `seeds` is the caller's reusable seed buffer.
fn relax_added(
    csr: &CsrGraph,
    row: &mut [f64],
    added: &[(usize, usize, f64)],
    seeds: &mut Vec<(usize, f64)>,
    scratch: &mut DijkstraScratch,
) -> bool {
    seeds.clear();
    seeds.extend(added.iter().filter_map(|&(i, j, w)| {
        let d_ui = row[i];
        // sp-lint: allow(float-eps, reason = "strict-decrease seeding: exact improvement is the Dijkstra fixpoint criterion; an eps band would re-seed settled rows forever")
        (d_ui.is_finite() && d_ui + w < row[j]).then_some((j, d_ui + w))
    }));
    if seeds.is_empty() {
        return false;
    }
    csr.relax_decrease_into(row, seeds, scratch);
    true
}
