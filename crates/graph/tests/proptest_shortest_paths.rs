//! Property-based tests for the graph substrate.
//!
//! Dijkstra (adjacency + CSR) and Floyd–Warshall are independent
//! implementations of shortest paths; they must agree on arbitrary graphs.

use proptest::prelude::*;
use sp_graph::{
    apsp, dijkstra, dijkstra_tree, floyd_warshall, is_strongly_connected, CsrGraph, DiGraph,
};

/// Strategy: a random digraph with `n ∈ [1, 12]` nodes and random edges with
/// weights in `[0, 100]`.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (1usize..=12).prop_flat_map(|n| {
        let max_edges = n * n;
        proptest::collection::vec((0..n, 0..n, 0.0f64..100.0), 0..=max_edges.min(40)).prop_map(
            move |edges| {
                let mut g = DiGraph::new(n);
                for (u, v, w) in edges {
                    if u != v {
                        g.add_edge(u, v, w);
                    }
                }
                g
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dijkstra_agrees_with_floyd_warshall(g in arb_graph()) {
        let fw = floyd_warshall(&g);
        let ap = apsp(&g);
        let n = g.node_count();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (ap[(i, j)], fw[(i, j)]);
                prop_assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "mismatch at ({}, {}): dijkstra={}, fw={}", i, j, a, b
                );
            }
        }
    }

    #[test]
    fn csr_dijkstra_agrees_with_adjacency(g in arb_graph()) {
        let csr = CsrGraph::from_digraph(&g);
        for s in 0..g.node_count() {
            let a = dijkstra(&g, s);
            let b = csr.dijkstra(s);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() <= 1e-9,
                );
            }
        }
    }

    #[test]
    fn triangle_inequality_of_shortest_paths(g in arb_graph()) {
        // d(i,k) <= d(i,j) + d(j,k) always holds for shortest-path distances.
        let d = apsp(&g);
        let n = g.node_count();
        for i in 0..n {
            for j in 0..n {
                if d[(i, j)].is_infinite() { continue; }
                for k in 0..n {
                    if d[(j, k)].is_infinite() { continue; }
                    prop_assert!(d[(i, k)] <= d[(i, j)] + d[(j, k)] + 1e-6);
                }
            }
        }
    }

    #[test]
    fn tree_paths_have_consistent_lengths(g in arb_graph()) {
        // Walking the predecessor chain must sum (via min-weight parallel
        // edges) to exactly the reported distance.
        for s in 0..g.node_count() {
            let t = dijkstra_tree(&g, s);
            for v in 0..g.node_count() {
                if let Some(path) = t.path_to(v) {
                    prop_assert_eq!(path[0], s);
                    prop_assert_eq!(*path.last().unwrap(), v);
                    let mut len = 0.0;
                    for w in path.windows(2) {
                        len += g.edge_weight(w[0], w[1]).expect("path edge must exist");
                    }
                    prop_assert!((len - t.distance(v)).abs() <= 1e-6);
                }
            }
        }
    }

    #[test]
    fn strong_connectivity_iff_all_pairs_reachable(g in arb_graph()) {
        let d = apsp(&g);
        let n = g.node_count();
        let all_finite = (0..n).all(|i| d.row(i).iter().all(|x| x.is_finite()));
        prop_assert_eq!(all_finite, is_strongly_connected(&g));
    }

    #[test]
    fn reversal_preserves_distance_transposed(g in arb_graph()) {
        let d = apsp(&g);
        let dr = apsp(&g.reversed());
        let n = g.node_count();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (d[(i, j)], dr[(j, i)]);
                prop_assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= 1e-9,
                );
            }
        }
    }
}
