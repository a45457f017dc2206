//! `solve_greedy` (certified lazy) against the frozen eager greedy in
//! `support`: the same open set and the same cost bits on every instance
//! family the lazy bounds must survive — uniform and per-facility
//! (including free) opening costs, unreachable clients, exact float ties,
//! sums that overflow, and best-response-shaped instances from a random
//! overlay, plus the adversaries of the four-lane bound passes: client
//! counts with a lane remainder, rows mixing magnitudes `1e15` and
//! `1e-3`, and candidates whose exact scores differ by a few ULPs.
//! Each family is also solved over row sources that serve
//! some rows as certified lower bounds (equal to the exact rows, random,
//! finite over `+∞`, integer ties, all zero) and escalate them on demand.

mod support;

use proptest::prelude::*;
use sp_facility::{solve_greedy, FacilityProblem, RowSource};
use support::reference_greedy;

/// Largest side of a generated instance: big enough for many lazy steps
/// and the unserved → served transition in the middle of a run.
const MAX_SIDE: usize = 48;

fn assert_identical(p: &FacilityProblem) -> Result<(), TestCaseError> {
    let lazy = solve_greedy(p);
    let eager = reference_greedy(p);
    prop_assert_eq!(&lazy.open, &eager.open);
    prop_assert!(
        lazy.cost.to_bits() == eager.cost.to_bits(),
        "cost bits differ: lazy {} eager {}",
        lazy.cost,
        eager.cost
    );
    Ok(())
}

/// How a [`Bounded`] source derives a row's lower bound from the exact
/// row.
#[derive(Debug, Clone, Copy)]
enum BoundKind {
    /// The exact row itself, but held as a bound.
    Equal,
    /// A random fraction of each finite entry; `+∞` entries stay `+∞`
    /// or turn finite at random.
    Random,
    /// Every `+∞` entry held as a finite value.
    FiniteOverInfinite,
    /// Exact minus a small integer (floored at 0): on integer grids the
    /// bound scores tie the exact scores of other rows bit for bit.
    IntegerGap,
    /// All zero.
    Zero,
}

/// A splitmix64 step: the per-entry randomness of a bound, from one
/// proptest-drawn seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform fraction in `[0, 1]`.
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / ((1u64 << 53) - 1) as f64
}

fn lower_bound(kind: BoundKind, a: f64, r: u64) -> f64 {
    match kind {
        BoundKind::Equal => a,
        BoundKind::Random if a.is_finite() => a * unit(r),
        BoundKind::Random if r.is_multiple_of(2) => a,
        BoundKind::Random | BoundKind::FiniteOverInfinite if a.is_infinite() => 10.0 * unit(r),
        BoundKind::Random | BoundKind::FiniteOverInfinite => a * unit(r),
        BoundKind::IntegerGap if a.is_finite() => (a - (r % 3) as f64).max(0.0),
        BoundKind::IntegerGap => (r % 7) as f64,
        BoundKind::Zero => 0.0,
    }
}

/// A row source over `exact` that holds about two rows in three as
/// lower bounds and panics if the greedy escalates a row it already
/// holds exactly.
struct Bounded<'a> {
    exact: &'a FacilityProblem,
    rows: Vec<Vec<f64>>,
    is_exact: Vec<bool>,
}

impl<'a> Bounded<'a> {
    fn new(exact: &'a FacilityProblem, kind: BoundKind, seed: u64) -> Self {
        let nf = exact.facility_count();
        let is_exact: Vec<bool> = (0..nf)
            .map(|f| mix(seed ^ f as u64).is_multiple_of(3))
            .collect();
        let rows = (0..nf)
            .map(|f| {
                let row = exact.assignment_row(f);
                if is_exact[f] {
                    return row.to_vec();
                }
                row.iter()
                    .enumerate()
                    .map(|(c, &a)| lower_bound(kind, a, mix(seed ^ ((f * 4096 + c) as u64) << 8)))
                    .collect()
            })
            .collect();
        Bounded {
            exact,
            rows,
            is_exact,
        }
    }
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

/// [`assert_identical`], and the same answer over every bound kind.
fn assert_identical_bounded(p: &FacilityProblem, seed: u64) -> Result<(), TestCaseError> {
    assert_identical(p)?;
    let eager = reference_greedy(p);
    for kind in [
        BoundKind::Equal,
        BoundKind::Random,
        BoundKind::FiniteOverInfinite,
        BoundKind::IntegerGap,
        BoundKind::Zero,
    ] {
        let mut src = Bounded::new(p, kind, seed);
        let lazy = solve_greedy(&mut src);
        prop_assert_eq!(&lazy.open, &eager.open, "{:?}", kind);
        prop_assert!(
            lazy.cost.to_bits() == eager.cost.to_bits(),
            "{:?}: cost bits differ: lazy {} eager {}",
            kind,
            lazy.cost,
            eager.cost
        );
        for &f in &lazy.open {
            prop_assert!(
                src.is_exact[f],
                "{:?}: facility {} opened on a bound",
                kind,
                f
            );
        }
    }
    Ok(())
}

/// Rows of `nc` entries drawn from `entry`, one per facility.
fn matrix<S: Strategy + Clone>(
    entry: S,
    nf: usize,
    nc: usize,
) -> impl Strategy<Value = Vec<Vec<S::Value>>> {
    proptest::collection::vec(proptest::collection::vec(entry, nc..=nc), nf..=nf)
}

fn arb_uniform() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE, 0.0f64..40.0).prop_flat_map(|(nf, nc, open_cost)| {
        matrix(0.0f64..10.0, nf, nc)
            .prop_map(move |rows| FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap())
    })
}

fn arb_per_facility() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE).prop_flat_map(|(nf, nc)| {
        (
            proptest::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..30.0], nf..=nf),
            matrix(0.0f64..10.0, nf, nc),
        )
            .prop_map(|(costs, rows)| FacilityProblem::new(costs, rows).unwrap())
    })
}

/// A per-instance gap density, so some instances stay unserved for many
/// steps and some never get served at all.
fn arb_gaps() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE, 0.0f64..20.0, 0u32..95).prop_flat_map(
        |(nf, nc, open_cost, density)| {
            matrix((0.0f64..10.0, 0u32..100), nf, nc).prop_map(move |rows| {
                let rows = rows
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|(v, r)| if r < density { f64::INFINITY } else { v })
                            .collect()
                    })
                    .collect();
                FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
            })
        },
    )
}

/// Small integers everywhere: sums are exact, so many candidates tie
/// bit for bit and the lowest-index rule decides.
fn arb_integer_grid() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE).prop_flat_map(|(nf, nc)| {
        (
            proptest::collection::vec(0u32..=4, nf..=nf),
            matrix(0u32..=6, nf, nc),
        )
            .prop_map(|(costs, rows)| {
                let costs = costs.into_iter().map(f64::from).collect();
                let rows = rows
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|a| if a == 6 { f64::INFINITY } else { f64::from(a) })
                            .collect()
                    })
                    .collect();
                FacilityProblem::new(costs, rows).unwrap()
            })
    })
}

/// Costs up to near `f64::MAX` mixed with small ones, so the current
/// score can overflow to `+∞` while a later candidate's stays finite.
fn arb_overflowing() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE, 0.0f64..1e307).prop_flat_map(|(nf, nc, open_cost)| {
        matrix((0.0f64..1.0, 0u32..5), nf, nc).prop_map(move |rows| {
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(v, k)| match k {
                            0 => f64::INFINITY,
                            1 => v * f64::MAX,
                            2 => v * 1e306,
                            _ => v,
                        })
                        .collect()
                })
                .collect();
            FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
        })
    })
}

/// Client counts that leave a remainder in the greedy's four-lane
/// bound passes (1–9 and 45–48), with some unreachable clients.
fn arb_lane_remainders() -> impl Strategy<Value = FacilityProblem> {
    (
        1usize..=MAX_SIDE,
        prop_oneof![1usize..=9, 45usize..=48],
        0.0f64..20.0,
    )
        .prop_flat_map(|(nf, nc, open_cost)| {
            matrix((0.0f64..10.0, 0u32..10), nf, nc).prop_map(move |rows| {
                let rows = rows
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|(v, r)| if r == 0 { f64::INFINITY } else { v })
                            .collect()
                    })
                    .collect();
                FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
            })
        })
}

/// Entries near `1e15` beside entries near `1e-3`: a lane-split sum and
/// the fixed-order sum of the same row differ in many low bits.
fn arb_mixed_magnitude() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=MAX_SIDE, 1usize..=MAX_SIDE, 0.0f64..2.0).prop_flat_map(|(nf, nc, open_cost)| {
        matrix((0.5f64..1.5, 0u32..8), nf, nc).prop_map(move |rows| {
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(v, k)| match k {
                            0 => v * 1e15,
                            1 => v * 1e15 + v,
                            2 => f64::INFINITY,
                            _ => v * 1e-3,
                        })
                        .collect()
                })
                .collect();
            FacilityProblem::with_uniform_open_cost(open_cost * 1e15, rows).unwrap()
        })
    })
}

/// Rows that nearly tie: each row after the first is either fresh, a
/// permutation of an earlier row (the same terms summed in another
/// order), or an earlier row with one entry moved by a few ULPs, so
/// exact scores of different candidates differ by a few ULPs.
fn arb_near_ties() -> impl Strategy<Value = FacilityProblem> {
    (2usize..=MAX_SIDE, 1usize..=MAX_SIDE, 0.0f64..5.0).prop_flat_map(|(nf, nc, open_cost)| {
        (
            matrix(0.0f64..10.0, nf, nc),
            proptest::collection::vec((0u32..3, 0usize..MAX_SIDE, 0u64..u64::MAX), nf..=nf),
        )
            .prop_map(move |(mut rows, recipe)| {
                for (f, &(kind, from, r)) in recipe.iter().enumerate().skip(1) {
                    let mut row = rows[from % f].clone();
                    match kind {
                        0 => continue,
                        1 => {
                            // A seeded Fisher–Yates shuffle.
                            for c in (1..nc).rev() {
                                row.swap(c, (mix(r ^ c as u64) % (c as u64 + 1)) as usize);
                            }
                        }
                        _ => {
                            let c = (r % nc as u64) as usize;
                            for _ in 0..1 + r % 4 {
                                row[c] = if r & 16 == 0 {
                                    row[c].next_up()
                                } else {
                                    row[c].next_down().max(0.0)
                                };
                            }
                        }
                    }
                    rows[f] = row;
                }
                FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
            })
    })
}

/// All-pairs shortest paths of a dense weight matrix (`∞` = no arc).
fn floyd_warshall(mut d: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let n = d.len();
    for k in 0..n {
        for u in 0..n {
            for v in 0..n {
                let via = d[u][k] + d[k][v];
                if via < d[u][v] {
                    d[u][v] = via;
                }
            }
        }
    }
    d
}

/// The best-response reduction for peer 0 on random 2-D points: facility
/// `v` and client `j` range over the other peers, and
/// `a(v, j) = (d(0, v) + D(v, j)) / d(0, j)` with `D` the shortest-path
/// distance of a random sparse digraph on peers `1..n` (so some
/// `D = ∞`), arcs weighted by Euclidean length.
fn arb_game_shaped() -> impl Strategy<Value = FacilityProblem> {
    (2usize..=MAX_SIDE + 1, 0.5f64..40.0, 2u32..40).prop_flat_map(|(n, alpha, density)| {
        (
            proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n..=n),
            matrix(0u32..100, n, n),
        )
            .prop_map(move |(pts, arcs)| {
                let d = |u: usize, v: usize| {
                    let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                    (dx * dx + dy * dy).sqrt()
                };
                let weights = (0..n)
                    .map(|u| {
                        (0..n)
                            .map(|v| match () {
                                () if u == v => 0.0,
                                () if u != 0 && v != 0 && arcs[u][v] < density => d(u, v),
                                () => f64::INFINITY,
                            })
                            .collect()
                    })
                    .collect();
                let dd = floyd_warshall(weights);
                let rows = (1..n)
                    .map(|v| (1..n).map(|j| (d(0, v) + dd[v][j]) / d(0, j)).collect())
                    .collect();
                FacilityProblem::with_uniform_open_cost(alpha, rows).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lazy_greedy_matches_reference_uniform(p in arb_uniform(), seed in 0u64..=u64::MAX) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_per_facility_costs(
        p in arb_per_facility(),
        seed in 0u64..=u64::MAX,
    ) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_with_gaps(p in arb_gaps(), seed in 0u64..=u64::MAX) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_on_exact_ties(
        p in arb_integer_grid(),
        seed in 0u64..=u64::MAX,
    ) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_when_sums_overflow(
        p in arb_overflowing(),
        seed in 0u64..=u64::MAX,
    ) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_with_lane_remainders(
        p in arb_lane_remainders(),
        seed in 0u64..=u64::MAX,
    ) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_on_mixed_magnitudes(
        p in arb_mixed_magnitude(),
        seed in 0u64..=u64::MAX,
    ) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_on_near_ties(p in arb_near_ties(), seed in 0u64..=u64::MAX) {
        assert_identical_bounded(&p, seed)?;
    }

    #[test]
    fn lazy_greedy_matches_reference_game_shaped(p in arb_game_shaped(), seed in 0u64..=u64::MAX) {
        assert_identical_bounded(&p, seed)?;
    }
}
