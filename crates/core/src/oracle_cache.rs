//! The persistent shortest-path cache behind [`GameSession`]'s
//! evaluation and best-response oracles.
//!
//! [`OracleCache`] owns **two** tiers of cached rows, both repaired
//! incrementally when the profile mutates — this is the single
//! invalidation code path for every oracle the session hands out
//! (sequential activations *and* the sharded simultaneous round engine):
//!
//! 1. **Overlay rows** — the full-overlay distance matrix `d_G(u, ·)`
//!    with per-row validity, exactly the cache `GameSession` has carried
//!    since PR 1.
//! 2. **Residual rows** — `D_{G_{-i}}(v, ·)` rows that a previous oracle
//!    build for peer `i` had to derive because row `v` *does* route
//!    through `i`'s out-links. They are keyed by `(i, v)` and survive
//!    [`GameSession::apply`] / `apply_batch`, so consecutive activations
//!    of the same peer in sequential dynamics stop re-deriving them.
//!
//! A best-response oracle for peer `i` reads candidate row `v` from the
//! residual tier when `(i, v)` is retained. Otherwise it hands the valid
//! overlay row to [`sp_graph::CsrGraph::dijkstra_without`], which leaves
//! it untouched when none of `i`'s out-links is tight on it (the row is
//! reused verbatim) and otherwise recomputes only the shortest-path
//! subtree below `i`'s tight out-links, seeded through the overlay CSR's
//! transpose. Only a candidate with no valid overlay row pays a full
//! `G_{-i}` sweep. Repaired and swept rows are retained in the residual
//! tier. This is the confinement idea of the min+1 protocol of
//! Dubois–Masuzawa–Tixeuil: recompute only the part of the
//! shortest-path tree a change touched.
//!
//! # Invalidation invariants
//!
//! After every committed edge diff `(added, removed)` the cache
//! restores this contract before any row is served again:
//!
//! * an overlay row `u` survives untouched iff **no** removed link could
//!   be tight on one of `u`'s shortest paths (`d_u(i) + w > d_u(j)`
//!   beyond [`EDGE_ON_PATH_EPS`] slack — ties conservatively invalidate);
//!   added links are folded in by seeded decrease-only relaxation
//!   ([`sp_graph::CsrGraph::relax_decrease_into`]);
//! * a residual row `(i, v)` ignores edge changes **owned by `i`**
//!   (`G_{-i}` never contained `i`'s out-links); removals by other peers
//!   apply the same tightness test against the residual row's own
//!   values, and additions re-relax through
//!   [`sp_graph::CsrGraph::relax_decrease_skipping`] so the repair never
//!   routes through `i`;
//! * every surviving row is **bit-identical** to a fresh sweep of the
//!   corresponding graph (enforced by `crates/core/tests/proptest_session.rs`
//!   and `crates/graph/tests/proptest_incremental.rs`): both a fresh
//!   Dijkstra and decrease-only relaxation compute the minimum over
//!   source-to-target path sums, so equal inputs give equal bits.
//!
//! Residual rows are capped by [`RESIDUAL_BUDGET_BYTES`]; once the cap
//! is reached new sweeps are simply not retained (deterministic — no
//! eviction order to get wrong). Forked shards
//! ([`GameSession::fork_readonly`]) carry a zero cap: they are
//! short-lived snapshots whose stores would never be read again.
//!
//! [`GameSession`]: crate::GameSession
//! [`GameSession::apply`]: crate::GameSession::apply
//! [`GameSession::fork_readonly`]: crate::GameSession::fork_readonly

use std::collections::HashMap;

use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch, DistanceMatrix};

use crate::session::EDGE_ON_PATH_EPS;

/// Default memory budget for retained residual rows (64 MiB of `f64`s)
/// — generous, sized for a process running **one** hot session. The
/// entry cap is `budget / (8·n)`, clamped to `n·(n-1)` — the number of
/// distinct `(excluded, source)` keys, so small instances retain every
/// residual row while large ones stay inside the budget. Multi-tenant
/// hosts (the `sp-serve` registry) shrink it per session through
/// [`GameSession::set_residual_budget`](crate::GameSession::set_residual_budget).
pub(crate) const RESIDUAL_BUDGET_BYTES: usize = 64 << 20;

/// What one [`OracleCache::repair_after_edges`] pass did, for the
/// session's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RepairCounts {
    /// Overlay rows dropped (a removed link may have been tight).
    pub rows_invalidated: usize,
    /// Overlay rows kept (untouched or repaired in place).
    pub rows_preserved: usize,
    /// Seeded decrease-only relaxations run on overlay rows.
    pub incremental_relaxations: usize,
    /// Residual rows dropped by the same tightness test.
    pub residual_invalidated: usize,
}

/// Two-tier shortest-path row cache: the overlay distance matrix with
/// per-row validity, plus retained residual `G_{-i}` rows. See the
/// module docs for the invalidation invariants.
#[derive(Debug, Clone)]
pub(crate) struct OracleCache {
    /// Overlay distances; row `u` is meaningful iff `row_valid[u]`.
    dist: DistanceMatrix,
    row_valid: Vec<bool>,
    /// Residual rows `D_{G_{-i}}(v, ·)` keyed by `(i, v)`.
    residual: HashMap<(usize, usize), Vec<f64>>,
    /// Maximum number of retained residual rows (0 disables retention).
    residual_cap: usize,
}

fn residual_cap_for(n: usize) -> usize {
    residual_cap_for_budget(n, RESIDUAL_BUDGET_BYTES)
}

fn residual_cap_for_budget(n: usize, budget: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let by_budget = budget / (8 * n);
    by_budget.min(n.saturating_mul(n.saturating_sub(1)))
}

impl OracleCache {
    /// An all-invalid cache for `n` peers.
    pub(crate) fn new(n: usize) -> Self {
        OracleCache {
            dist: DistanceMatrix::new_filled(n, f64::INFINITY),
            row_valid: vec![false; n],
            residual: HashMap::new(),
            residual_cap: residual_cap_for(n),
        }
    }

    /// Snapshot for a read-only fork: overlay rows are copied as they
    /// stand, residual retention is disabled (cap 0, empty map) — a
    /// shard lives for one round and would never read its own stores.
    pub(crate) fn fork(&self) -> Self {
        OracleCache {
            dist: self.dist.clone(),
            row_valid: self.row_valid.clone(),
            residual: HashMap::new(),
            residual_cap: 0,
        }
    }

    /// Re-derives the residual-row cap from a caller-chosen byte budget
    /// (a fork's zero cap stays zero). Rows already retained above a
    /// shrunken cap are kept — they stay exact under repair and evicting
    /// them would only re-pay sweeps — but no new rows are stored until
    /// repairs drop the count below the cap. Never changes a value any
    /// tier serves, so cached ≡ fresh bit-identity is unaffected.
    pub(crate) fn set_budget(&mut self, bytes: usize) {
        if self.residual_cap > 0 {
            self.residual_cap = residual_cap_for_budget(self.row_valid.len(), bytes);
        }
    }

    /// Drops every cached row, both tiers.
    pub(crate) fn invalidate_all(&mut self) {
        self.row_valid.fill(false);
        self.residual.clear();
    }

    /// `true` when at least one overlay row is valid (i.e. there is
    /// cached state worth repairing).
    pub(crate) fn any_valid_row(&self) -> bool {
        self.row_valid.iter().any(|&v| v)
    }

    /// Number of overlay rows that would need a sweep right now.
    pub(crate) fn invalid_row_count(&self) -> usize {
        self.row_valid.iter().filter(|&&v| !v).count()
    }

    /// `true` when residual rows are retained — state worth repairing
    /// even when every overlay row is already invalid.
    pub(crate) fn has_residual_rows(&self) -> bool {
        !self.residual.is_empty()
    }

    /// Overlay row `u` (caller guarantees validity).
    pub(crate) fn row(&self, u: usize) -> &[f64] {
        debug_assert!(self.row_valid[u], "reading an invalid overlay row");
        self.dist.row(u)
    }

    /// Whether overlay row `u` currently holds valid distances.
    pub(crate) fn row_is_valid(&self, u: usize) -> bool {
        self.row_valid[u]
    }

    /// Every valid overlay row as `(source, distances)`, in source order —
    /// the overlay tier of a session snapshot.
    pub(crate) fn valid_rows(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        self.row_valid
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v)
            .map(|(u, _)| (u, self.dist.row(u)))
    }

    /// Every retained residual row as `(excluded, source, distances)`,
    /// sorted by key so snapshots are deterministic.
    pub(crate) fn residual_rows_sorted(&self) -> Vec<(usize, usize, &[f64])> {
        // sp-lint: allow(nondeterministic-iteration, reason = "order-insensitive: the collected rows are sorted by key immediately below")
        let mut rows: Vec<(usize, usize, &[f64])> = self
            .residual
            .iter()
            .map(|(&(i, v), row)| (i, v, row.as_slice()))
            .collect();
        rows.sort_unstable_by_key(|&(i, v, _)| (i, v));
        rows
    }

    /// Installs overlay row `u` verbatim and marks it valid (snapshot
    /// restore; the caller has validated the length).
    pub(crate) fn restore_row(&mut self, u: usize, row: &[f64]) {
        self.dist.row_mut(u).copy_from_slice(row);
        self.row_valid[u] = true;
    }

    /// Installs a residual row verbatim (snapshot restore). Unlike
    /// [`OracleCache::store_residual`] this bypasses the cap check: the
    /// source session respected the cap, so a faithful restore fits.
    pub(crate) fn restore_residual(&mut self, excluded: usize, source: usize, row: Vec<f64>) {
        self.residual.insert((excluded, source), row);
    }

    /// Semantic size of the cached state in bytes: the overlay matrix and
    /// validity bits plus every retained residual row (with its key).
    /// Counts what the data is, not what the allocator holds, so the
    /// number is identical across machines and runs.
    pub(crate) fn memory_bytes(&self) -> usize {
        let n = self.row_valid.len();
        let overlay = n * n * std::mem::size_of::<f64>() + n;
        let residual_row = n * std::mem::size_of::<f64>() + 2 * std::mem::size_of::<usize>();
        overlay + self.residual.len() * residual_row
    }

    /// The full overlay matrix (caller guarantees all rows valid).
    pub(crate) fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Sweeps overlay row `u` if invalid; returns `true` when a sweep
    /// actually ran (the caller counts it).
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

    /// The `(source, buffer)` jobs for every invalid overlay row — the
    /// input to [`sp_graph::CsrGraph::dijkstra_rows_with`]. The caller
    /// must follow a completed run with [`OracleCache::mark_all_valid`].
    pub(crate) fn invalid_jobs(&mut self) -> Vec<(usize, &mut [f64])> {
        let row_valid = &self.row_valid;
        self.dist
            .rows_mut()
            .enumerate()
            .filter(|&(u, _)| !row_valid[u])
            .collect()
    }

    /// Marks every overlay row valid (after a bulk refill).
    pub(crate) fn mark_all_valid(&mut self) {
        self.row_valid.fill(true);
    }

    /// The `(source, buffer)` jobs for the given overlay rows — the
    /// selective analogue of [`OracleCache::invalid_jobs`], used by the
    /// lazy oracle refill to leave residual-served rows untouched.
    /// `rows` must be sorted ascending; the caller must follow a
    /// completed run with [`OracleCache::mark_rows_valid`].
    pub(crate) fn jobs_for(&mut self, rows: &[usize]) -> Vec<(usize, &mut [f64])> {
        self.dist
            .rows_mut()
            .enumerate()
            .filter(|(u, _)| rows.binary_search(u).is_ok())
            .collect()
    }

    /// Marks the given overlay rows valid (after a selective refill).
    pub(crate) fn mark_rows_valid(&mut self, rows: &[usize]) {
        for &u in rows {
            self.row_valid[u] = true;
        }
    }

    /// Residual row `D_{G_{-excluded}}(source, ·)`, if retained.
    pub(crate) fn residual_row(&self, excluded: usize, source: usize) -> Option<&[f64]> {
        self.residual.get(&(excluded, source)).map(Vec::as_slice)
    }

    /// Retains a freshly swept residual row, space permitting.
    pub(crate) fn store_residual(&mut self, excluded: usize, source: usize, row: &[f64]) {
        if self.residual.len() < self.residual_cap {
            self.residual.insert((excluded, source), row.to_vec());
        }
    }

    /// Number of retained residual rows (test hook).
    #[cfg(test)]
    pub(crate) fn residual_len(&self) -> usize {
        self.residual.len()
    }

    /// The single repair pass both tiers share, run against the **new**
    /// overlay CSR after the profile diff `(added, removed)` — each entry
    /// a `(from, to, weight)` edge — has been committed. See the module
    /// docs for the exact invariants restored.
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
            seeds.clear();
            seeds.extend(added.iter().filter_map(|&(i, j, w)| {
                let d_ui = row[i];
                // sp-lint: allow(float-eps, reason = "strict-decrease seeding: exact improvement is the Dijkstra fixpoint criterion; an eps band would re-seed settled rows forever")
                (d_ui.is_finite() && d_ui + w < row[j]).then_some((j, d_ui + w))
            }));
            if !seeds.is_empty() {
                csr.relax_decrease_into(self.dist.row_mut(u), &seeds, scratch);
                counts.incremental_relaxations += 1;
            }
            counts.rows_preserved += 1;
        }

        // Residual rows: identical tests against the row's own values,
        // except that edges owned by the excluded peer are invisible
        // (G_{-i} never contained them) and additions re-relax without
        // routing through the excluded peer.
        let mut residual_invalidated = 0usize;
        // sp-lint: allow(nondeterministic-iteration, reason = "order-insensitive: each entry's keep/drop decision depends only on that entry; the counter is a commutative sum")
        self.residual.retain(|&(excluded, _source), row| {
            let broken = removed.iter().any(|&(i, j, w)| {
                i != excluded && edge_on_path(row[i], w, row[j], EDGE_ON_PATH_EPS)
            });
            if broken {
                residual_invalidated += 1;
                return false;
            }
            seeds.clear();
            seeds.extend(added.iter().filter_map(|&(i, j, w)| {
                if i == excluded {
                    return None;
                }
                let d_ui = row[i];
                // sp-lint: allow(float-eps, reason = "strict-decrease seeding: exact improvement is the Dijkstra fixpoint criterion; an eps band would re-seed settled rows forever")
                (d_ui.is_finite() && d_ui + w < row[j]).then_some((j, d_ui + w))
            }));
            if !seeds.is_empty() {
                csr.relax_decrease_skipping(row, &seeds, excluded, scratch);
            }
            true
        });
        counts.residual_invalidated = residual_invalidated;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_cap_scales_with_budget_and_bounds() {
        assert_eq!(residual_cap_for(0), 0);
        assert_eq!(residual_cap_for(1), 0, "one peer has no (i, v) keys");
        // Small n: bounded by the n(n-1) key count, not the budget.
        assert_eq!(residual_cap_for(8), 8 * 7);
        // Large n: bounded by the byte budget.
        let n = 1 << 16;
        assert_eq!(residual_cap_for(n), RESIDUAL_BUDGET_BYTES / (8 * n));
    }

    #[test]
    fn store_respects_cap_and_fork_disables_retention() {
        let mut cache = OracleCache::new(3);
        cache.residual_cap = 1;
        cache.store_residual(0, 1, &[0.0, 1.0, 2.0]);
        cache.store_residual(0, 2, &[9.0, 9.0, 9.0]);
        assert_eq!(cache.residual_len(), 1, "cap must refuse the second row");
        assert!(cache.residual_row(0, 1).is_some());
        assert!(cache.residual_row(0, 2).is_none());
        let fork = cache.fork();
        assert_eq!(fork.residual_len(), 0);
        assert_eq!(fork.residual_cap, 0);
    }
}
