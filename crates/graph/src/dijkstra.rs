use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::DiGraph;

/// Min-heap entry; ordering is reversed so `BinaryHeap` pops the smallest
/// distance first. Weights are validated finite at insertion, so `total_cmp`
/// gives a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest path distances from `source` to every node.
///
/// Unreachable nodes get `f64::INFINITY`; `dist[source] == 0.0`.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use sp_graph::{DiGraph, dijkstra};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 4.0);
/// g.add_edge(1, 2, 4.0);
/// g.add_edge(0, 2, 10.0);
/// assert_eq!(dijkstra(&g, 0), vec![0.0, 4.0, 8.0]);
/// ```
#[must_use]
pub fn dijkstra(g: &DiGraph, source: usize) -> Vec<f64> {
    dijkstra_impl(g, source).0
}

/// A shortest-path tree rooted at a source node, with predecessor links for
/// path reconstruction.
///
/// Produced by [`dijkstra_tree`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathTree {
    dist: Vec<f64>,
    pred: Vec<Option<usize>>,
}

impl ShortestPathTree {
    /// Distance from the source to `node` (`f64::INFINITY` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn distance(&self, node: usize) -> f64 {
        self.dist[node]
    }

    /// The shortest path from the source to `node` (inclusive), or `None`
    /// if `node` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn path_to(&self, node: usize) -> Option<Vec<usize>> {
        if self.dist[node].is_infinite() {
            return None;
        }
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.pred[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs Dijkstra from `source` and returns the full [`ShortestPathTree`]
/// including predecessor links.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use sp_graph::{DiGraph, dijkstra_tree};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 1.0);
/// let t = dijkstra_tree(&g, 0);
/// assert_eq!(t.path_to(2), Some(vec![0, 1, 2]));
/// ```
#[must_use]
pub fn dijkstra_tree(g: &DiGraph, source: usize) -> ShortestPathTree {
    let (dist, pred) = dijkstra_impl(g, source);
    ShortestPathTree { dist, pred }
}

fn dijkstra_impl(g: &DiGraph, source: usize) -> (Vec<f64>, Vec<Option<usize>>) {
    let n = g.node_count();
    assert!(source < n, "source {source} out of bounds for {n} nodes");
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u] {
            continue;
        }
        settled[u] = true;
        for e in g.out_edges(u) {
            let nd = d + e.weight;
            // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
            if nd < dist[e.to] {
                dist[e.to] = nd;
                pred[e.to] = Some(u);
                heap.push(HeapEntry {
                    dist: nd,
                    node: e.to,
                });
            }
        }
    }
    (dist, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn source_distance_is_zero() {
        let g = builders::cycle_graph(4, |_, _| 1.0);
        let d = dijkstra(&g, 2);
        assert_eq!(d[2], 0.0);
    }

    #[test]
    fn prefers_indirect_cheaper_route() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 3, 10.0);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 2.0);
        assert_eq!(dijkstra(&g, 0)[3], 6.0);
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut g = DiGraph::new(3);
        g.add_edge(1, 2, 1.0);
        let d = dijkstra(&g, 0);
        assert!(d[1].is_infinite());
        assert!(d[2].is_infinite());
    }

    #[test]
    fn respects_edge_directions() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1.0);
        assert!(dijkstra(&g, 1)[0].is_infinite());
    }

    #[test]
    fn handles_zero_weight_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        assert_eq!(dijkstra(&g, 0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn tree_reconstructs_paths() {
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(0, 3, 10.0);
        let t = dijkstra_tree(&g, 0);
        assert_eq!(t.path_to(3), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.path_to(4), None);
        assert_eq!(t.path_to(0), Some(vec![0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn panics_on_bad_source() {
        let _ = dijkstra(&DiGraph::new(2), 2);
    }

    #[test]
    fn parallel_edges_use_lightest() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 9.0);
        g.add_edge(0, 1, 4.0);
        assert_eq!(dijkstra(&g, 0)[1], 4.0);
    }

    #[test]
    fn heap_entry_ordering_is_min_first() {
        let mut h = BinaryHeap::new();
        h.push(HeapEntry { dist: 2.0, node: 0 });
        h.push(HeapEntry { dist: 1.0, node: 1 });
        h.push(HeapEntry { dist: 3.0, node: 2 });
        assert_eq!(h.pop().unwrap().node, 1);
        assert_eq!(h.pop().unwrap().node, 0);
        assert_eq!(h.pop().unwrap().node, 2);
    }
}
