//! Topology characterisation measures.
//!
//! Equilibrium overlays are *shaped* by the metric and `α`; these
//! measures quantify that shape: weighted diameter,
//! degree statistics, betweenness centrality (how load concentrates on
//! hub peers), and clustering.
//!
//! # Example
//!
//! ```
//! use sp_graph::{builders, measures};
//!
//! let star = builders::star_graph(5, 0, |_, _| 1.0);
//! let bc = measures::betweenness_centrality(&star);
//! // The hub carries all transit; leaves carry none.
//! assert!(bc[0] > 0.0);
//! assert_eq!(bc[1], 0.0);
//! ```

use crate::{apsp, CsrGraph, DiGraph};

/// Weighted eccentricity of every node: the largest finite shortest-path
/// distance to any other node, `f64::INFINITY` if some node is
/// unreachable. Empty graphs yield an empty vector; a single node has
/// eccentricity 0.
fn eccentricities(g: &DiGraph) -> Vec<f64> {
    let d = apsp(g);
    let n = g.node_count();
    (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i)
                .map(|j| d[(i, j)])
                .fold(0.0f64, f64::max)
        })
        .collect()
}

/// Weighted diameter: the largest eccentricity (`∞` when not strongly
/// connected, `0.0` for graphs with fewer than two nodes).
#[must_use]
pub fn diameter(g: &DiGraph) -> f64 {
    eccentricities(g).into_iter().fold(0.0f64, f64::max)
}

/// Summary statistics of the out-degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest out-degree.
    pub min: usize,
    /// Largest out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Population standard deviation of the out-degree.
    pub stddev: f64,
}

/// Computes out-degree statistics (`None` for an empty graph).
#[must_use]
pub fn degree_stats(g: &DiGraph) -> Option<DegreeStats> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let degrees: Vec<usize> = (0..n).map(|v| g.out_degree(v)).collect();
    let min = *degrees.iter().min().expect("non-empty");
    let max = *degrees.iter().max().expect("non-empty");
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let var = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    Some(DegreeStats {
        min,
        max,
        mean,
        stddev: var.sqrt(),
    })
}

/// Brandes' betweenness centrality for weighted digraphs: for each node
/// `v`, the sum over source–target pairs `(s, t)` (both ≠ `v`) of the
/// fraction of shortest `s → t` paths passing through `v`.
///
/// Runs one Dijkstra per source, `O(n·(m + n) log n)` total. Values are
/// **not** normalized; divide by `(n-1)(n-2)` for the conventional
/// normalization.
///
/// Shortest-path ties are counted exactly (path multiplicities), with a
/// relative tolerance of `1e-12` when comparing path lengths.
#[must_use]
pub fn betweenness_centrality(g: &DiGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut centrality = vec![0.0f64; n];
    if n < 3 {
        return centrality;
    }
    let csr = CsrGraph::from_digraph(g);
    // Per-source Brandes with Dijkstra.
    for s in 0..n {
        // dist, sigma (path counts), predecessors.
        let mut dist = vec![f64::INFINITY; n];
        let mut sigma = vec![0.0f64; n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut settled_order: Vec<usize> = Vec::with_capacity(n);
        let mut settled = vec![false; n];
        dist[s] = 0.0;
        sigma[s] = 1.0;

        // Simple binary-heap Dijkstra with lazily deleted entries.
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;
        #[derive(PartialEq)]
        struct E(f64, usize);
        impl Eq for E {}
        impl Ord for E {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .0
                    .total_cmp(&self.0)
                    .then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for E {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(E(0.0, s));
        while let Some(E(d, u)) = heap.pop() {
            if settled[u] {
                continue;
            }
            settled[u] = true;
            settled_order.push(u);
            let (ts, ws) = csr.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                let tol = 1e-12 * (1.0 + nd.abs());
                if nd < dist[v] - tol {
                    dist[v] = nd;
                    sigma[v] = sigma[u];
                    preds[v].clear();
                    preds[v].push(u);
                    heap.push(E(nd, v));
                } else if (nd - dist[v]).abs() <= tol {
                    sigma[v] += sigma[u];
                    preds[v].push(u);
                }
            }
        }
        // Accumulation in reverse settled order.
        let mut delta = vec![0.0f64; n];
        for &w in settled_order.iter().rev() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                centrality[w] += delta[w];
            }
        }
    }
    centrality
}

/// Global (transitivity-style) clustering coefficient of the
/// *underlying undirected* graph: `3 × triangles / connected triples`.
/// Returns 0.0 when there are no connected triples.
#[must_use]
pub fn clustering_coefficient(g: &DiGraph) -> f64 {
    let n = g.node_count();
    // Undirected neighbourhoods.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v, _) in g.edges() {
        if !adj[u].contains(&v) {
            adj[u].push(v);
        }
        if !adj[v].contains(&u) {
            adj[v].push(u);
        }
    }
    let mut triangles = 0usize;
    let mut triples = 0usize;
    for v in 0..n {
        let d = adj[v].len();
        triples += d * d.saturating_sub(1) / 2;
        for (ai, &a) in adj[v].iter().enumerate() {
            for &b in &adj[v][(ai + 1)..] {
                if adj[a].contains(&b) {
                    triangles += 1;
                }
            }
        }
    }
    if triples == 0 {
        0.0
    } else {
        // Each triangle is counted once per corner = 3 times.
        triangles as f64 / triples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn eccentricity_and_diameter_of_chain() {
        let g = builders::bidirectional_path_graph(4, |_, _| 1.0);
        let ecc = eccentricities(&g);
        assert_eq!(ecc, vec![3.0, 2.0, 2.0, 3.0]);
        assert_eq!(diameter(&g), 3.0);
    }

    #[test]
    fn disconnected_graph_has_infinite_diameter() {
        let g = DiGraph::new(3);
        assert!(diameter(&g).is_infinite());
    }

    #[test]
    fn degree_stats_of_star() {
        let g = builders::star_graph(5, 0, |_, _| 1.0);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.stddev > 0.0);
        assert!(degree_stats(&DiGraph::new(0)).is_none());
    }

    #[test]
    fn betweenness_of_path_peaks_in_middle() {
        let g = builders::bidirectional_path_graph(5, |_, _| 1.0);
        let bc = betweenness_centrality(&g);
        // Middle node lies on most paths.
        assert!(bc[2] > bc[1]);
        assert!(bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
        // Symmetry.
        assert!((bc[1] - bc[3]).abs() < 1e-9);
    }

    #[test]
    fn betweenness_counts_tied_paths_fractionally() {
        // Diamond: 0 -> {1, 2} -> 3 with equal weights: each middle node
        // carries half of the 0 -> 3 pair.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(2, 3, 1.0);
        let bc = betweenness_centrality(&g);
        assert!((bc[1] - 0.5).abs() < 1e-9);
        assert!((bc[2] - 0.5).abs() < 1e-9);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[3], 0.0);
    }

    #[test]
    fn betweenness_star_hub_dominates() {
        let g = builders::star_graph(6, 2, |_, _| 1.0);
        let bc = betweenness_centrality(&g);
        // Hub relays all 5·4 = 20 leaf pairs.
        assert!((bc[2] - 20.0).abs() < 1e-9);
        for (v, &c) in bc.iter().enumerate() {
            if v != 2 {
                assert_eq!(c, 0.0);
            }
        }
    }

    #[test]
    fn betweenness_trivial_graphs() {
        assert!(betweenness_centrality(&DiGraph::new(0)).is_empty());
        assert_eq!(betweenness_centrality(&DiGraph::new(2)), vec![0.0, 0.0]);
    }

    #[test]
    fn clustering_of_triangle_and_star() {
        let mut tri = DiGraph::new(3);
        tri.add_edge(0, 1, 1.0);
        tri.add_edge(1, 2, 1.0);
        tri.add_edge(2, 0, 1.0);
        assert!((clustering_coefficient(&tri) - 1.0).abs() < 1e-12);
        let star = builders::star_graph(5, 0, |_, _| 1.0);
        assert_eq!(clustering_coefficient(&star), 0.0);
        assert_eq!(clustering_coefficient(&DiGraph::new(2)), 0.0);
    }
}
