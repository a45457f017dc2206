//! Directed weighted graph substrate for the `selfish-peers` workspace.
//!
//! Peer-to-peer overlays in the network creation game of Moscibroda, Schmid &
//! Wattenhofer (PODC 2006) are *directed* graphs whose edge weights are the
//! underlying metric latencies. Everything the game engine needs from graph
//! theory lives here and is implemented from scratch:
//!
//! * [`DiGraph`] — a growable adjacency-list digraph with non-negative
//!   `f64` edge weights.
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot for fast
//!   repeated shortest-path queries, with [`DijkstraScratch`]-reusing
//!   sweeps and incremental decrease-only re-relaxation
//!   ([`CsrGraph::relax_decrease_into`]) powering `sp-core`'s
//!   `GameSession` cache.
//! * [`dijkstra`] / [`dijkstra_tree`] / [`ShortestPathTree`] —
//!   binary-heap Dijkstra single-source shortest paths.
//! * [`apsp`] / [`floyd_warshall`] — all-pairs shortest paths producing a
//!   [`DistanceMatrix`].
//! * [`is_strongly_connected`] / [`reachable_from`] — reachability.
//! * [`builders`] — canonical topologies (path, cycle, star, complete, …).
//! * [`BoundedDijkstra`] / [`LandmarkSketch`] /
//!   [`farthest_point_landmarks`] — bounded-radius sweeps with
//!   completeness certificates and landmark distance sketches, the
//!   substrate of `sp-core`'s sparse evaluation backend.
//!
//! Nodes are plain `usize` indices in `0..n`; higher layers wrap them in
//! domain newtypes (`PeerId` in `sp-core`).
//!
//! # Example
//!
//! ```
//! use sp_graph::{DiGraph, dijkstra};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1, 1.0);
//! g.add_edge(1, 2, 2.0);
//! g.add_edge(0, 2, 5.0);
//! let dist = dijkstra(&g, 0);
//! assert_eq!(dist[2], 3.0); // 0 -> 1 -> 2 beats the direct 5.0 edge
//! ```

#![forbid(unsafe_code)]
// Index loops over small fixed-size numeric tables are clearer than
// iterator chains in this codebase's shortest-path/game kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod builders;
mod csr;
mod digraph;
mod dijkstra;
pub mod dot;
mod error;
mod hash;
mod matrix;
pub mod measures;
mod sparse;
mod traversal;

pub use csr::{CsrGraph, DijkstraScratch, Removal, RowRepair};
pub use digraph::{DiGraph, Edge};
pub use dijkstra::{dijkstra, dijkstra_tree, ShortestPathTree};
pub use error::GraphError;
pub use hash::{fnv1a, fnv1a_extend, FNV1A_BASIS};
pub use matrix::DistanceMatrix;
pub use sparse::{
    edge_on_path, farthest_point_landmarks, BoundedDijkstra, BoundedSweep, LandmarkSketch,
    SketchRepair,
};
pub use traversal::reachable_from;

/// All-pairs shortest paths by running Dijkstra from every node.
///
/// Returns a [`DistanceMatrix`] `D` with `D[(i, j)]` the length of the
/// shortest directed path from `i` to `j` (`f64::INFINITY` if unreachable,
/// `0.0` on the diagonal).
///
/// Runs in `O(n · (m + n) log n)`; for dense graphs prefer
/// [`floyd_warshall`] which is `O(n³)` with a much smaller constant.
///
/// # Example
///
/// ```
/// use sp_graph::{builders, apsp};
///
/// let g = builders::cycle_graph(4, |_, _| 1.0);
/// let d = apsp(&g);
/// assert_eq!(d[(0, 3)], 3.0); // around the directed cycle
/// ```
pub fn apsp(g: &DiGraph) -> DistanceMatrix {
    let n = g.node_count();
    let mut m = DistanceMatrix::new_filled(n, f64::INFINITY);
    let csr = CsrGraph::from_digraph(g);
    for src in 0..n {
        let row = csr.dijkstra(src);
        m.row_mut(src).copy_from_slice(&row);
    }
    m
}

/// All-pairs shortest paths via Floyd–Warshall.
///
/// Equivalent to [`apsp`] (asserted by property tests) but `O(n³)` time and
/// `O(n²)` memory regardless of edge count. Prefer it for dense graphs such
/// as near-complete overlays.
///
/// # Example
///
/// ```
/// use sp_graph::{builders, floyd_warshall, apsp};
///
/// let g = builders::complete_graph(5, |i, j| (i as f64 - j as f64).abs());
/// assert_eq!(floyd_warshall(&g), apsp(&g));
/// ```
pub fn floyd_warshall(g: &DiGraph) -> DistanceMatrix {
    let n = g.node_count();
    let mut d = DistanceMatrix::new_filled(n, f64::INFINITY);
    for i in 0..n {
        d[(i, i)] = 0.0;
    }
    for u in 0..n {
        for e in g.out_edges(u) {
            if e.weight < d[(u, e.to)] {
                d[(u, e.to)] = e.weight;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[(i, k)];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = dik + d[(k, j)];
                if via < d[(i, j)] {
                    d[(i, j)] = via;
                }
            }
        }
    }
    d
}

/// Returns `true` iff every node can reach every other node along directed
/// edges.
///
/// Implemented as two traversals (forward from node 0, backward from node 0)
/// rather than a full SCC computation.
///
/// An empty graph and a single-node graph are strongly connected.
///
/// # Example
///
/// ```
/// use sp_graph::{builders, is_strongly_connected, DiGraph};
///
/// assert!(is_strongly_connected(&builders::cycle_graph(5, |_, _| 1.0)));
/// let mut g = DiGraph::new(2);
/// g.add_edge(0, 1, 1.0);
/// assert!(!is_strongly_connected(&g)); // no way back from 1
/// ```
pub fn is_strongly_connected(g: &DiGraph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let fwd = reachable_from(g, 0);
    if fwd.iter().any(|&r| !r) {
        return false;
    }
    let rev = g.reversed();
    let bwd = reachable_from(&rev, 0);
    bwd.iter().all(|&r| r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apsp_matches_floyd_warshall_on_small_fixture() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(3, 0, 4.0);
        g.add_edge(0, 2, 10.0);
        assert_eq!(apsp(&g), floyd_warshall(&g));
    }

    #[test]
    fn apsp_unreachable_is_infinite() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        let d = apsp(&g);
        assert!(d[(0, 2)].is_infinite());
        assert!(d[(1, 0)].is_infinite());
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(2, 2)], 0.0);
    }

    #[test]
    fn strong_connectivity_of_cycle_and_path() {
        let cycle = builders::cycle_graph(6, |_, _| 1.0);
        assert!(is_strongly_connected(&cycle));
        let path = builders::path_graph(6, |_, _| 1.0);
        assert!(!is_strongly_connected(&path));
        let bidi = builders::bidirectional_path_graph(6, |_, _| 1.0);
        assert!(is_strongly_connected(&bidi));
    }

    #[test]
    fn empty_and_singleton_graphs_are_strongly_connected() {
        assert!(is_strongly_connected(&DiGraph::new(0)));
        assert!(is_strongly_connected(&DiGraph::new(1)));
        assert!(!is_strongly_connected(&DiGraph::new(2)));
    }
}
