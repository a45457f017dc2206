//! Canonical topology builders.
//!
//! Every builder takes a weight function `w(i, j)` so callers can plug in a
//! metric (`|pos[i] - pos[j]|`, matrix lookup, constant 1.0, …).
//!
//! # Example
//!
//! ```
//! use sp_graph::builders;
//!
//! let positions = [0.0f64, 1.0, 4.0, 9.0];
//! let chain = builders::bidirectional_path_graph(4, |i, j| {
//!     (positions[i] - positions[j]).abs()
//! });
//! assert_eq!(chain.edge_count(), 6);
//! ```

use crate::{DiGraph, DistanceMatrix};

/// Directed path `0 → 1 → … → n-1`.
#[must_use]
pub fn path_graph<F: FnMut(usize, usize) -> f64>(n: usize, mut w: F) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i, i + 1, w(i, i + 1));
    }
    g
}

/// Bidirectional path (chain): edges in both directions between consecutive
/// nodes. This is the paper's reference topology `G̃` used to upper-bound
/// the optimal social cost on the line (Theorem 4.4).
#[must_use]
pub fn bidirectional_path_graph<F: FnMut(usize, usize) -> f64>(n: usize, mut w: F) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i, i + 1, w(i, i + 1));
        g.add_edge(i + 1, i, w(i + 1, i));
    }
    g
}

/// Directed cycle `0 → 1 → … → n-1 → 0`.
#[must_use]
pub fn cycle_graph<F: FnMut(usize, usize) -> f64>(n: usize, mut w: F) -> DiGraph {
    let mut g = path_graph(n, &mut w);
    if n >= 2 {
        g.add_edge(n - 1, 0, w(n - 1, 0));
    }
    g
}

/// Complete digraph: every ordered pair `(i, j)`, `i ≠ j`.
#[must_use]
pub fn complete_graph<F: FnMut(usize, usize) -> f64>(n: usize, mut w: F) -> DiGraph {
    let mut g = DiGraph::with_capacity(n, n.saturating_sub(1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(i, j, w(i, j));
            }
        }
    }
    g
}

/// Bidirectional star centred on `center`: edges `center ↔ v` for all other
/// nodes.
///
/// # Panics
///
/// Panics if `center >= n` (for `n > 0`).
#[must_use]
pub fn star_graph<F: FnMut(usize, usize) -> f64>(n: usize, center: usize, mut w: F) -> DiGraph {
    let mut g = DiGraph::new(n);
    if n == 0 {
        return g;
    }
    assert!(center < n, "center {center} out of bounds for {n} nodes");
    for v in 0..n {
        if v != center {
            g.add_edge(center, v, w(center, v));
            g.add_edge(v, center, w(v, center));
        }
    }
    g
}

/// Minimum spanning tree of the complete graph implied by a symmetric
/// [`DistanceMatrix`], returned with edges in **both** directions (so the
/// result is strongly connected).
///
/// Uses Prim's algorithm in `O(n²)`, which is optimal for dense inputs.
///
/// # Panics
///
/// Panics if the matrix has infinite off-diagonal entries.
///
/// # Example
///
/// ```
/// use sp_graph::{DistanceMatrix, builders, is_strongly_connected};
///
/// let pos = [0.0f64, 1.0, 3.0, 6.0];
/// let d = DistanceMatrix::from_fn(4, |i, j| (pos[i] - pos[j]).abs());
/// let mst = builders::mst_bidirectional(&d);
/// assert_eq!(mst.edge_count(), 6); // (n-1) tree edges, both directions
/// assert!(is_strongly_connected(&mst));
/// ```
#[must_use]
pub fn mst_bidirectional(dist: &DistanceMatrix) -> DiGraph {
    let n = dist.len();
    let mut g = DiGraph::new(n);
    if n <= 1 {
        return g;
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    in_tree[0] = true;
    for v in 1..n {
        best[v] = dist[(0, v)];
        best_from[v] = 0;
    }
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best[v] < pick_d {
                pick = v;
                pick_d = best[v];
            }
        }
        assert!(
            pick != usize::MAX,
            "matrix has infinite distances; MST undefined"
        );
        in_tree[pick] = true;
        g.add_bidirectional_edge(best_from[pick], pick, pick_d);
        for v in 0..n {
            // sp-lint: allow(float-eps, reason = "Prim relaxation: exact strict improvement; ties resolve to the first index scanned, deterministically")
            if !in_tree[v] && dist[(pick, v)] < best[v] {
                best[v] = dist[(pick, v)];
                best_from[v] = pick;
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_strongly_connected;

    #[test]
    fn path_and_cycle_edge_counts() {
        assert_eq!(path_graph(5, |_, _| 1.0).edge_count(), 4);
        assert_eq!(cycle_graph(5, |_, _| 1.0).edge_count(), 5);
        assert_eq!(cycle_graph(1, |_, _| 1.0).edge_count(), 0);
        assert_eq!(path_graph(0, |_, _| 1.0).edge_count(), 0);
    }

    #[test]
    fn complete_graph_has_all_ordered_pairs() {
        let g = complete_graph(4, |i, j| (i + j) as f64);
        assert_eq!(g.edge_count(), 12);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g.has_edge(i, j), i != j);
            }
        }
    }

    #[test]
    fn star_graph_structure() {
        let g = star_graph(5, 2, |_, _| 1.0);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.out_degree(2), 4);
        assert_eq!(g.out_degree(0), 1);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn star_graph_of_one_node() {
        let g = star_graph(1, 0, |_, _| 1.0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn mst_on_line_is_the_chain() {
        let pos = [0.0f64, 1.0, 3.0, 6.0, 10.0];
        let d = DistanceMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs());
        let mst = mst_bidirectional(&d);
        assert_eq!(mst.edge_count(), 8);
        for i in 0..4 {
            assert!(mst.has_edge(i, i + 1), "missing chain edge {i}");
            assert!(mst.has_edge(i + 1, i));
        }
        assert!(is_strongly_connected(&mst));
    }

    #[test]
    fn mst_total_weight_is_minimal_on_triangle() {
        // Triangle with sides 1, 1, 2: MST weight = 2 (one direction).
        let d =
            DistanceMatrix::from_row_major(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0])
                .unwrap();
        let mst = mst_bidirectional(&d);
        let total: f64 = mst.edges().map(|(_, _, w)| w).sum();
        assert!((total - 4.0).abs() < 1e-12); // 2 × both directions
    }

    #[test]
    fn mst_trivial_sizes() {
        assert_eq!(
            mst_bidirectional(&DistanceMatrix::new_filled(0, 0.0)).edge_count(),
            0
        );
        assert_eq!(
            mst_bidirectional(&DistanceMatrix::new_filled(1, 0.0)).edge_count(),
            0
        );
    }
}
