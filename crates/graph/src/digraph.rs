use crate::GraphError;

/// A directed edge with a non-negative finite weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Target node of the edge.
    pub to: usize,
    /// Weight (latency) of the edge; always finite and `>= 0`.
    pub weight: f64,
}

/// A growable directed graph with weighted edges, stored as adjacency lists.
///
/// Nodes are indices `0..n`. Parallel edges are permitted (they never affect
/// shortest paths); self-loops are rejected because the overlay model has no
/// use for them.
///
/// # Example
///
/// ```
/// use sp_graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 2.5);
/// g.add_edge(1, 2, 1.0);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.out_degree(0), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiGraph {
    adj: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DiGraph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Creates a graph with `n` nodes, reserving `per_node` out-edge slots.
    #[must_use]
    pub fn with_capacity(n: usize, per_node: usize) -> Self {
        let mut adj = Vec::with_capacity(n);
        for _ in 0..n {
            adj.push(Vec::with_capacity(per_node));
        }
        DiGraph { adj, edge_count: 0 }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds the directed edge `(from, to)` with weight `weight`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds, if `from == to`, or if
    /// `weight` is NaN, negative, or infinite.
    pub fn add_edge(&mut self, from: usize, to: usize, weight: f64) {
        self.try_add_edge(from, to, weight)
            .unwrap_or_else(|e| panic!("add_edge({from}, {to}, {weight}): {e}"));
    }

    /// Adds the directed edge `(from, to)` with weight `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for bad endpoints,
    /// [`GraphError::SelfLoop`] when `from == to`, and
    /// [`GraphError::InvalidWeight`] for weights that are NaN, negative or
    /// infinite.
    fn try_add_edge(&mut self, from: usize, to: usize, weight: f64) -> Result<(), GraphError> {
        let n = self.adj.len();
        if from >= n {
            return Err(GraphError::NodeOutOfBounds { node: from, len: n });
        }
        if to >= n {
            return Err(GraphError::NodeOutOfBounds { node: to, len: n });
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        self.adj[from].push(Edge { to, weight });
        self.edge_count += 1;
        Ok(())
    }

    /// Adds both `(a, b)` and `(b, a)` with the same weight.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DiGraph::add_edge`].
    pub fn add_bidirectional_edge(&mut self, a: usize, b: usize, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Out-edges of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn out_edges(&self, node: usize) -> &[Edge] {
        &self.adj[node]
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn out_degree(&self, node: usize) -> usize {
        self.adj[node].len()
    }

    /// Returns `true` if at least one edge `(from, to)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.adj[from].iter().any(|e| e.to == to)
    }

    /// The weight of the lightest edge `(from, to)`, if any exists.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn edge_weight(&self, from: usize, to: usize) -> Option<f64> {
        self.adj[from]
            .iter()
            .filter(|e| e.to == to)
            .map(|e| e.weight)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Iterates over all edges as `(from, to, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, es)| es.iter().map(move |e| (u, e.to, e.weight)))
    }

    /// Returns the graph with every edge direction flipped.
    #[must_use]
    pub fn reversed(&self) -> DiGraph {
        let mut rev = DiGraph::new(self.node_count());
        for (u, v, w) in self.edges() {
            rev.adj[v].push(Edge { to: u, weight: w });
            rev.edge_count += 1;
        }
        rev
    }

    /// Maximum out-degree over all nodes (0 for an empty graph).
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(1, 3, 3.0);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn new_graph_has_no_edges() {
        let g = DiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_empty());
        assert!(DiGraph::new(0).is_empty());
    }

    #[test]
    fn add_and_query_edges() {
        let g = diamond();
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_weight(0, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 0), None);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn parallel_edges_take_min_weight() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 5.0);
        g.add_edge(0, 1, 3.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn try_add_edge_validates() {
        let mut g = DiGraph::new(2);
        assert_eq!(
            g.try_add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfBounds { node: 5, len: 2 })
        );
        assert_eq!(
            g.try_add_edge(0, 0, 1.0),
            Err(GraphError::SelfLoop { node: 0 })
        );
        assert!(matches!(
            g.try_add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.try_add_edge(0, 1, -1.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.try_add_edge(0, 1, f64::INFINITY),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn add_edge_panics_on_self_loop() {
        DiGraph::new(1).add_edge(0, 0, 1.0);
    }

    #[test]
    fn reversed_flips_all_edges() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.edge_count(), 4);
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(3, 1));
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.edge_weight(3, 2), Some(1.0));
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = diamond();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            edges,
            vec![(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 1.0)]
        );
    }

    #[test]
    fn max_degree() {
        let g = diamond();
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(DiGraph::new(0).max_out_degree(), 0);
    }

    #[test]
    fn bidirectional_edge_adds_two() {
        let mut g = DiGraph::new(2);
        g.add_bidirectional_edge(0, 1, 2.0);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0.0);
        assert_eq!(g.edge_weight(0, 1), Some(0.0));
    }
}
