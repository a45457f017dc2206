//! The greedy UFL solve against the frozen eager greedy on instances
//! shaped like the best responses of the 112-peer `dynamics` workload:
//! 111 facilities by 111 clients, random 2-D points, a random overlay,
//! and for responder `i` the assignment cost
//! `a(v, j) = (d(i, v) + D(v, j)) / d(i, j)`, where `D` is the
//! shortest-path distance of the overlay without `i`'s links. Each
//! instance is solved on its exact rows and again over a row source
//! that holds most rows as certified lower bounds — the distances of the
//! full overlay, `i`'s links included, which are never longer — and
//! escalates them on demand, the way the cached oracles do. Both must
//! match the reference in open set and cost bits.

#[path = "../crates/facility/tests/support/mod.rs"]
mod support;

use rand::prelude::*;
use sp_facility::{solve_greedy, FacilityProblem, RowSource};
use sp_graph::{dijkstra, DiGraph};
use support::reference_greedy;

const PEERS: usize = 112;

/// The responder's UFL instance, exact and as lower bounds.
struct Instance {
    exact: FacilityProblem,
    bounds: Vec<Vec<f64>>,
}

/// Responder 0 on `PEERS` random points, each peer linking to up to
/// `degree` random others (so some residual distances are `+∞`).
fn instance(seed: u64, alpha: f64, degree: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..PEERS)
        .map(|_| (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
        .collect();
    let d = |u: usize, v: usize| {
        let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
        (dx * dx + dy * dy).sqrt()
    };
    let mut full = DiGraph::new(PEERS);
    let mut residual = DiGraph::new(PEERS);
    for u in 0..PEERS {
        for _ in 0..degree {
            let v = rng.random_range(0..PEERS);
            if v != u {
                full.add_edge(u, v, d(u, v));
                if u != 0 {
                    residual.add_edge(u, v, d(u, v));
                }
            }
        }
    }
    let rows = |g: &DiGraph| -> Vec<Vec<f64>> {
        (1..PEERS)
            .map(|v| {
                let dist = dijkstra(g, v);
                (1..PEERS).map(|j| (d(0, v) + dist[j]) / d(0, j)).collect()
            })
            .collect()
    };
    Instance {
        exact: FacilityProblem::with_uniform_open_cost(alpha, rows(&residual)).unwrap(),
        bounds: rows(&full),
    }
}

/// Holds the rows with `is_exact[f] == false` as their lower bounds until
/// the greedy escalates them.
struct Bounded<'a> {
    exact: &'a FacilityProblem,
    rows: Vec<Vec<f64>>,
    is_exact: Vec<bool>,
}

impl RowSource for Bounded<'_> {
    fn facility_count(&self) -> usize {
        self.exact.facility_count()
    }

    fn client_count(&self) -> usize {
        self.exact.client_count()
    }

    fn open_cost(&self, f: usize) -> f64 {
        self.exact.open_cost(f)
    }

    fn row(&self, f: usize) -> &[f64] {
        &self.rows[f]
    }

    fn is_exact(&self, f: usize) -> bool {
        self.is_exact[f]
    }

    fn escalate(&mut self, f: usize) {
        assert!(!self.is_exact[f], "facility {f} escalated while exact");
        self.rows[f] = self.exact.assignment_row(f).to_vec();
        self.is_exact[f] = true;
    }
}

#[test]
fn greedy_matches_the_eager_reference_on_dynamics_shaped_instances() {
    // Link prices across the workload's range and beyond; one to four
    // random out-links per peer.
    for seed in 1..=16u64 {
        let (alpha, degree) = (0.5 + 0.5 * (seed % 9) as f64, 1 + (seed % 4) as usize);
        let inst = instance(seed, alpha, degree);
        let eager = reference_greedy(&inst.exact);
        let lazy = solve_greedy(&inst.exact);
        assert_eq!(lazy.open, eager.open, "seed {seed}: open sets differ");
        assert_eq!(
            lazy.cost.to_bits(),
            eager.cost.to_bits(),
            "seed {seed}: cost {} vs {}",
            lazy.cost,
            eager.cost
        );

        // Two rows in three held as lower bounds, the rest exact.
        let is_exact: Vec<bool> = (0..PEERS - 1).map(|f| f % 3 == 0).collect();
        let rows = (0..PEERS - 1)
            .map(|f| match is_exact[f] {
                true => inst.exact.assignment_row(f).to_vec(),
                false => inst.bounds[f].clone(),
            })
            .collect();
        let mut src = Bounded {
            exact: &inst.exact,
            rows,
            is_exact,
        };
        let bounded = solve_greedy(&mut src);
        assert_eq!(
            bounded.open, eager.open,
            "seed {seed}: bounded open sets differ"
        );
        assert_eq!(bounded.cost.to_bits(), eager.cost.to_bits(), "seed {seed}");
        for &f in &bounded.open {
            assert!(
                src.is_exact[f],
                "seed {seed}: facility {f} opened on a bound"
            );
        }
    }
}
