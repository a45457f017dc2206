//! The eager greedy that `sp_facility::solve_greedy` must reproduce bit
//! for bit, frozen as a reference: every step scores every closed
//! facility and opens the best strictly improving one, lowest index on
//! ties. Kept verbatim (with the private helpers it used) so the lazy
//! library greedy is always checked against the definition it replaced.

// The body is the former library code, index loops included.
#![allow(clippy::needless_range_loop)]

use sp_facility::{FacilityProblem, FacilitySolution};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    unserved: usize,
    finite_cost: f64,
}

impl Score {
    fn better_than(self, other: Score) -> bool {
        self.unserved < other.unserved
            || (self.unserved == other.unserved && self.finite_cost < other.finite_cost)
    }

    fn total(self) -> f64 {
        if self.unserved > 0 {
            f64::INFINITY
        } else {
            self.finite_cost
        }
    }
}

fn score_from_values<I: Iterator<Item = f64>>(open_cost: f64, values: I) -> Score {
    let mut unserved = 0usize;
    let mut finite = open_cost;
    for v in values {
        if v.is_finite() {
            finite += v;
        } else {
            unserved += 1;
        }
    }
    Score {
        unserved,
        finite_cost: finite,
    }
}

fn open_cost_sum(p: &FacilityProblem, open: &[usize]) -> f64 {
    open.iter().map(|&f| p.open_cost(f)).sum()
}

/// The eager `O(F² · C)` greedy.
pub fn reference_greedy(p: &FacilityProblem) -> FacilitySolution {
    let nf = p.facility_count();
    let nc = p.client_count();
    if nc == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
    }
    let mut open: Vec<usize> = Vec::new();
    let mut is_open = vec![false; nf];
    let mut best_v = vec![f64::INFINITY; nc];
    let mut cur = Score {
        unserved: nc,
        finite_cost: 0.0,
    };

    loop {
        let mut pick: Option<(usize, Score)> = None;
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            let oc = open_cost_sum(p, &open) + p.open_cost(f);
            let cand =
                score_from_values(oc, (0..nc).map(|c| best_v[c].min(p.assignment_cost(f, c))));
            if cand.better_than(cur) && pick.is_none_or(|(_, s)| cand.better_than(s)) {
                pick = Some((f, cand));
            }
        }
        match pick {
            Some((f, s)) => {
                is_open[f] = true;
                open.push(f);
                for c in 0..nc {
                    best_v[c] = best_v[c].min(p.assignment_cost(f, c));
                }
                cur = s;
            }
            None => break,
        }
    }
    open.sort_unstable();
    FacilitySolution {
        cost: cur.total(),
        open,
    }
}
