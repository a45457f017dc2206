//! Property tests for the incremental shortest-path machinery backing
//! `GameSession`'s cache repair: decrease-only re-relaxation must agree
//! with a from-scratch Dijkstra after arbitrary edge additions, removing
//! one node's out-edges — or any set of edges, followed by the decrease
//! fold of edges added at the same time — from an exact row must agree
//! with a sweep of the materialised new graph, so must one node's
//! additions folded in before its removed edges are taken out (the
//! session's order), and the sharded multi-row sweep must agree with
//! sequential sweeps exactly. Both incremental kernels settle through a
//! FIFO worklist that hands off to Dijkstra after `node_count()` pops; a
//! family of path-with-chords graphs drives them past that budget.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sp_graph::{CsrGraph, DiGraph, DijkstraScratch, DistanceMatrix, Removal};

/// A random digraph as `(n, edges)`; parallel edges are allowed (Dijkstra
/// simply relaxes both).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=12).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 0..40).prop_map(|edges| {
                edges
                    .into_iter()
                    .filter(|&(u, v, _)| u != v)
                    .collect::<Vec<_>>()
            }),
        )
    })
}

/// Like [`arb_graph`], but half the graphs carry small integer weights,
/// so many paths tie and many edges are tight on several shortest paths.
fn arb_tied_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=12, proptest::bool::ANY).prop_flat_map(|(n, integer)| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0.1f64..10.0, 1u8..4), 0..40).prop_map(
                move |edges| {
                    edges
                        .into_iter()
                        .filter(|&(u, v, _, _)| u != v)
                        .map(|(u, v, w, k)| (u, v, if integer { f64::from(k) } else { w }))
                        .collect::<Vec<_>>()
                },
            ),
        )
    })
}

/// Checks [`CsrGraph::dijkstra_without`] against a fresh sweep of the
/// materialised `G − skip` (every out-edge of `skip` dropped), bit for
/// bit, for every source. One scratch serves every call, so leftover
/// affected-set state would show up as a mismatch.
fn check_without(
    n: usize,
    edges: &[(usize, usize, f64)],
    skip: usize,
    eps: f64,
    scratch: &mut DijkstraScratch,
) -> Result<(), TestCaseError> {
    let csr = CsrGraph::from_digraph(&build(n, edges));
    let transpose = csr.transpose();
    let kept: Vec<(usize, usize, f64)> = edges.iter().copied().filter(|e| e.0 != skip).collect();
    let sub = CsrGraph::from_digraph(&build(n, &kept));
    for source in 0..n {
        let mut dist = csr.dijkstra(source);
        let before = dist.clone();
        let repair = csr.dijkstra_without(
            &transpose,
            source,
            Removal::OutEdgesOf(skip),
            eps,
            &mut dist,
            scratch,
        );
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(
            bits(&dist),
            bits(&sub.dijkstra(source)),
            "source {} skip {} eps {}: {:?} vs {:?}",
            source,
            skip,
            eps,
            dist,
            sub.dijkstra(source)
        );
        if repair.reset == 0 {
            prop_assert_eq!(bits(&dist), bits(&before), "no roots must mean no writes");
        }
    }
    Ok(())
}

/// Checks the [`Removal::Edges`] repair, run on the new graph and its
/// transpose, together with the decrease fold of `added`, against a
/// fresh sweep of the new graph `edges − removed + added`, bit for bit,
/// for every source. The fold is seeded like the session's, at each
/// added `(u, v, w)` with `d(u) + w < d(v)`. With `fold_first` it runs on
/// the exact old row before the removal (the session's order for one
/// peer's diff, valid when every added and removed edge leaves one
/// node); otherwise on the repaired row after it. `removed` holds
/// indices into `edges` (a parallel edge survives the removal of its
/// twin); one scratch serves every call. Returns the total number of
/// nodes the removal reset, so callers can check the repair branch
/// fired.
fn check_removal(
    n: usize,
    edges: &[(usize, usize, f64)],
    removed: &[usize],
    added: &[(usize, usize, f64)],
    fold_first: bool,
    eps: f64,
    scratch: &mut DijkstraScratch,
) -> Result<usize, TestCaseError> {
    let old = CsrGraph::from_digraph(&build(n, edges));
    let gone: Vec<(usize, usize, f64)> = removed.iter().map(|&k| edges[k]).collect();
    let mut kept: Vec<(usize, usize, f64)> = edges
        .iter()
        .enumerate()
        .filter(|(k, _)| !removed.contains(k))
        .map(|(_, &e)| e)
        .collect();
    kept.extend_from_slice(added);
    let new = CsrGraph::from_digraph(&build(n, &kept));
    let transpose = new.transpose();
    let fold = |dist: &mut Vec<f64>, scratch: &mut DijkstraScratch| {
        let seeds: Vec<(usize, f64)> = added
            .iter()
            .filter(|&&(u, v, w)| dist[u].is_finite() && dist[u] + w < dist[v])
            .map(|&(u, v, w)| (v, dist[u] + w))
            .collect();
        new.relax_decrease_into(dist, &seeds, scratch);
    };
    let mut total = 0;
    for source in 0..n {
        let mut dist = old.dijkstra(source);
        if fold_first {
            fold(&mut dist, scratch);
        }
        total += new
            .dijkstra_without(
                &transpose,
                source,
                Removal::Edges(&gone),
                eps,
                &mut dist,
                scratch,
            )
            .reset;
        if !fold_first {
            fold(&mut dist, scratch);
        }
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<u64>>();
        let fresh = new.dijkstra(source);
        prop_assert_eq!(
            bits(&dist),
            bits(&fresh),
            "source {} removed {:?} added {:?} fold first {} eps {}: {:?} vs {:?}",
            source,
            gone,
            added,
            fold_first,
            eps,
            dist,
            fresh
        );
    }
    Ok(total)
}

/// The hand-off family: node 0 is the source, node 1 a hub `s` with a
/// chord to every node of the path `p_0 → … → p_{L−1}` (nodes `3..3 + L`,
/// edge weights `path`), node 2 is left to the caller, and `pad`
/// isolated nodes follow. Chord `j` weighs `2 · prefix_j + 1`, where
/// `prefix_j` is the path length from `p_0` to `p_j`, so reaching `p_j`
/// over its own chord loses to the chord of `p_0` and the path, and each
/// `p_{j−1}` improves `p_j`. The chords are listed far end first, so a
/// FIFO worklist seeded through them pops the path back to front and
/// re-labels it about `L² / 2` times. The padding moves the
/// `node_count()` budget, and so the hand-off, along that cascade.
/// Returns `(n, edges, prefix)`.
fn chord_path(path: &[f64], pad: usize) -> (usize, Vec<(usize, usize, f64)>, Vec<f64>) {
    let l = path.len() + 1;
    let mut prefix = vec![0.0];
    for &w in path {
        prefix.push(prefix[prefix.len() - 1] + w);
    }
    let mut edges: Vec<(usize, usize, f64)> = (0..l - 1).map(|j| (3 + j, 4 + j, path[j])).collect();
    edges.extend((0..l).rev().map(|j| (1, 3 + j, 2.0 * prefix[j] + 1.0)));
    (3 + l + pad, edges, prefix)
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> DiGraph {
    let mut g = DiGraph::new(n);
    for &(u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g
}

/// Cases per property below; the coverage checks of
/// [`folding_one_nodes_additions_then_removing_its_edges_matches_fresh_sweep`]
/// run once the last of its cases has passed.
const CASES: u32 = 96;
/// Cases of that test run so far, the nodes its fold-first repairs
/// reset, and the cases in which they reset fewer than removing first.
static FOLD_FIRST_RUN: AtomicUsize = AtomicUsize::new(0);
static FOLD_FIRST_RESET: AtomicUsize = AtomicUsize::new(0);
static FOLD_FIRST_FEWER: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Seeded decrease-only relaxation after edge additions restores
    /// exactly the distances a fresh Dijkstra computes on the new graph.
    #[test]
    fn relax_decrease_matches_fresh_dijkstra(
        (n, edges) in arb_graph(),
        extra in proptest::collection::vec((0usize..12, 0usize..12, 0.05f64..5.0), 1..8),
        source_raw in 0usize..12
    ) {
        let source = source_raw % n;
        let g_old = build(n, &edges);
        let csr_old = CsrGraph::from_digraph(&g_old);
        let mut dist = csr_old.dijkstra(source);

        let mut g_new = build(n, &edges);
        let mut seeds: Vec<(usize, f64)> = Vec::new();
        for &(u_raw, v_raw, w) in &extra {
            let (u, v) = (u_raw % n, v_raw % n);
            if u == v {
                continue;
            }
            g_new.add_edge(u, v, w);
            // Seed exactly like the session repair does: only additions
            // that improve on the cached row.
            if dist[u].is_finite() && dist[u] + w < dist[v] {
                seeds.push((v, dist[u] + w));
            }
        }
        let csr_new = CsrGraph::from_digraph(&g_new);
        let mut scratch = DijkstraScratch::new();
        csr_new.relax_decrease_into(&mut dist, &seeds, &mut scratch);
        prop_assert_eq!(dist, csr_new.dijkstra(source),
            "incremental repair diverged from a fresh sweep");
    }

    /// The sharded multi-row sweep fills every requested row with exactly
    /// the distances per-row sequential sweeps produce, for any worker
    /// count (including degenerate ones).
    #[test]
    fn parallel_row_sweeps_match_sequential(
        (n, edges) in arb_graph(),
        workers in 0usize..9
    ) {
        let g = build(n, &edges);
        let csr = CsrGraph::from_digraph(&g);
        let mut m = DistanceMatrix::new_filled(n, -1.0);
        let jobs: Vec<(usize, &mut [f64])> = m.rows_mut().enumerate().collect();
        csr.dijkstra_rows_with(jobs, workers);
        for s in 0..n {
            let fresh = csr.dijkstra(s);
            prop_assert_eq!(m.row(s), fresh.as_slice(), "row {}", s);
        }
    }

    /// Dropping one node's out-edges from an exact row matches a fresh
    /// sweep of the subgraph, bit for bit: with tied integer or real
    /// weights, unreachable nodes, `skip` equal to the source, and
    /// (`isolate`) a `skip` stripped of every out-edge.
    #[test]
    fn dijkstra_without_matches_fresh_subgraph_sweep(
        (n, edges) in arb_tied_graph(),
        skip_raw in 0usize..12,
        isolate in proptest::bool::ANY,
        loose in proptest::bool::ANY
    ) {
        let skip = skip_raw % n;
        let edges: Vec<(usize, usize, f64)> = if isolate {
            edges.into_iter().filter(|e| e.0 != skip).collect()
        } else {
            edges
        };
        let eps = if loose { 1e-9 } else { 0.0 };
        let mut scratch = DijkstraScratch::new();
        check_without(n, &edges, skip, eps, &mut scratch)?;
        // The same scratch, every other skip node.
        for other in (0..n).filter(|&k| k != skip) {
            check_without(n, &edges, other, eps, &mut scratch)?;
        }
    }

    /// The diff of one peer's move — several out-edges of one node
    /// dropped, others added — repaired as the session does it: the
    /// additions folded into the exact old row on the new graph first,
    /// then the removed edges taken out. Matches a fresh sweep of the new
    /// graph bit for bit, with tied integer or real weights, unreachable
    /// nodes, the node as the source, and every out-edge dropped
    /// (`all`). The same diff repaired remove-first is checked too, and
    /// across the run folding first must reset strictly fewer nodes in
    /// some case.
    #[test]
    fn folding_one_nodes_additions_then_removing_its_edges_matches_fresh_sweep(
        (n, edges) in arb_tied_graph(),
        from_raw in 0usize..12,
        mask in proptest::collection::vec(proptest::bool::ANY, 40),
        extra in proptest::collection::vec((0usize..12, 1u8..4, 0.1f64..10.0, proptest::bool::ANY), 0..4),
        all in proptest::bool::ANY,
        loose in proptest::bool::ANY
    ) {
        let from = from_raw % n;
        let removed: Vec<usize> = (0..edges.len())
            .filter(|&k| edges[k].0 == from && (all || mask[k]))
            .collect();
        let added: Vec<(usize, usize, f64)> = extra
            .into_iter()
            .map(|(v, k, w, tie)| (from, v % n, if tie { f64::from(k) } else { w }))
            .filter(|&(u, v, _)| u != v)
            .collect();
        let eps = if loose { 1e-9 } else { 0.0 };
        let mut scratch = DijkstraScratch::new();
        let folded = check_removal(n, &edges, &removed, &added, true, eps, &mut scratch)?;
        let unfolded = check_removal(n, &edges, &removed, &added, false, eps, &mut scratch)?;
        FOLD_FIRST_RESET.fetch_add(folded, Ordering::SeqCst);
        if folded < unfolded {
            FOLD_FIRST_FEWER.fetch_add(1, Ordering::SeqCst);
        }
        if FOLD_FIRST_RUN.fetch_add(1, Ordering::SeqCst) + 1 == CASES as usize {
            prop_assert!(
                FOLD_FIRST_RESET.load(Ordering::SeqCst) > 0,
                "no case reset a node after folding"
            );
            prop_assert!(
                FOLD_FIRST_FEWER.load(Ordering::SeqCst) > 0,
                "folding first never reset fewer nodes than removing first"
            );
        }
    }

    /// The same check for removals and additions anywhere in the graph:
    /// the kernel is exact for any removed set the new graph no longer
    /// holds, not only for one node's edges.
    #[test]
    fn removing_any_edges_then_folding_additions_matches_fresh_sweep(
        (n, edges) in arb_tied_graph(),
        mask in proptest::collection::vec(proptest::bool::ANY, 40),
        extra in proptest::collection::vec((0usize..12, 0usize..12, 1u8..4), 0..6),
        loose in proptest::bool::ANY
    ) {
        let removed: Vec<usize> = (0..edges.len()).filter(|&k| mask[k]).collect();
        let added: Vec<(usize, usize, f64)> = extra
            .into_iter()
            .map(|(u, v, k)| (u % n, v % n, f64::from(k)))
            .filter(|&(u, v, _)| u != v)
            .collect();
        let eps = if loose { 1e-9 } else { 0.0 };
        let mut scratch = DijkstraScratch::new();
        check_removal(n, &edges, &removed, &added, false, eps, &mut scratch)?;
    }

    /// The hand-off family of [`chord_path`] drives both kernels past
    /// `node_count()` worklist pops, so they hand what is still queued to
    /// the heap and end as Dijkstra, and their rows still match a fresh
    /// sweep bit for bit.
    ///
    /// * The decrease fold: the source reaches the path through a heavy
    ///   link to `p_0`, and a link to `s` is added.
    /// * The removal repair: node 2 reaches every `p_j` first, over
    ///   direct links listed far end first, and its out-edges are taken
    ///   out; `s` seeds the whole path.
    #[test]
    fn worklist_hands_off_to_dijkstra_past_node_count_pops(
        path in proptest::collection::vec(1.0f64..2.0, 7..24),
        pad_raw in 0usize..1000
    ) {
        let l = path.len() + 1;
        let pad = pad_raw % (l * l / 4 + 1);
        let (n, base, prefix) = chord_path(&path, pad);
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<u64>>();
        let mut scratch = DijkstraScratch::new();

        let mut old = base.clone();
        old.push((0, 3, 2.0 * prefix[l - 1] + 3.0));
        let mut dist = CsrGraph::from_digraph(&build(n, &old)).dijkstra(0);
        old.push((0, 1, 1.0));
        let new = CsrGraph::from_digraph(&build(n, &old));
        let pops = new.relax_decrease_into(&mut dist, &[(1, 1.0)], &mut scratch);
        prop_assert_eq!(bits(&dist), bits(&new.dijkstra(0)), "fold, pad {}", pad);
        prop_assert!(pops > n, "fold: {} pops on {} nodes never handed off", pops, n);

        let mut edges = base;
        edges.extend([(0, 1, 1.0), (0, 2, 1.0)]);
        edges.extend((0..l).rev().map(|j| (2, 3 + j, 0.5 * (j + 1) as f64)));
        let csr = CsrGraph::from_digraph(&build(n, &edges));
        let mut dist = csr.dijkstra(0);
        let repair = csr.dijkstra_without(
            &csr.transpose(),
            0,
            Removal::OutEdgesOf(2),
            0.0,
            &mut dist,
            &mut scratch,
        );
        let kept: Vec<(usize, usize, f64)> = edges.into_iter().filter(|e| e.0 != 2).collect();
        let fresh = CsrGraph::from_digraph(&build(n, &kept)).dijkstra(0);
        prop_assert_eq!(bits(&dist), bits(&fresh), "removal, pad {}", pad);
        prop_assert_eq!(repair.reset, l);
        prop_assert!(repair.pops > n, "removal: {} pops on {} nodes never handed off", repair.pops, n);
    }

    /// `skip` is the only bridge from one half of the graph to the
    /// other: every row that crossed it must lose the far half (to `∞`
    /// or to a path back through the far half's own edges).
    #[test]
    fn dijkstra_without_cuts_the_only_bridge(
        (half, left, right) in (1usize..=6).prop_flat_map(|h| (
            Just(h),
            proptest::collection::vec((0..h, 0..h, 1u8..4), 0..16),
            proptest::collection::vec((0..h, 0..h, 0.1f64..10.0), 0..16),
        )),
        bridge_from in 0usize..6,
        bridge_to in 0usize..6,
        back in proptest::bool::ANY
    ) {
        let n = 2 * half;
        let skip = bridge_from % half;
        let mut edges: Vec<(usize, usize, f64)> = left
            .into_iter()
            .filter(|&(u, v, _)| u != v)
            .map(|(u, v, k)| (u, v, f64::from(k)))
            .collect();
        edges.extend(
            right
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, w)| (half + u, half + v, w)),
        );
        edges.push((skip, half + bridge_to % half, 1.0));
        if back {
            // A way back lets far-half rows reach the near half too.
            edges.push((half + bridge_to % half, skip, 2.0));
        }
        let mut scratch = DijkstraScratch::new();
        check_without(n, &edges, skip, 1e-9, &mut scratch)?;
    }
}
