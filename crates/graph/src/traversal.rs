use crate::DiGraph;

/// Nodes reachable from `source` along directed edges, as a boolean mask
/// indexed by node (`mask[source] == true`).
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Example
///
/// ```
/// use sp_graph::{DiGraph, reachable_from};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// assert_eq!(reachable_from(&g, 0), vec![true, true, false]);
/// ```
#[must_use]
pub fn reachable_from(g: &DiGraph, source: usize) -> Vec<bool> {
    let n = g.node_count();
    assert!(source < n, "source {source} out of bounds for {n} nodes");
    let mut seen = vec![false; n];
    let mut stack = vec![source];
    seen[source] = true;
    while let Some(u) = stack.pop() {
        for e in g.out_edges(u) {
            if !seen[e.to] {
                seen[e.to] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn reachability_skips_unreachable() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert_eq!(reachable_from(&g, 0), vec![true, true, false, false]);
        assert_eq!(reachable_from(&DiGraph::new(1), 0), vec![true]);
    }

    #[test]
    fn reachability_follows_cycles() {
        let g = builders::cycle_graph(4, |_, _| 1.0);
        assert!(reachable_from(&g, 1).iter().all(|&r| r));
    }
}
