use std::collections::BinaryHeap;

use crate::{FacilityProblem, FacilitySolution};

/// Lexicographic score used to compare candidate open sets even when some
/// clients are still unserved (assignment cost `+∞`): fewer unserved
/// clients always wins; ties are broken by the finite part of the cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    unserved: usize,
    finite_cost: f64,
}

impl Score {
    fn better_than(self, other: Score) -> bool {
        self.unserved < other.unserved
            // sp-lint: allow(float-eps, reason = "the greedy pick rule is defined on exact score bits; every solver compares scores summed in one fixed order, so a band would change answers, not absorb noise")
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

/// Per-client state: best and second-best assignment value among open
/// facilities, plus which facility achieves the best.
struct ServeState {
    best_f: Vec<usize>,
    best_v: Vec<f64>,
    second_v: Vec<f64>,
}

const NO_FACILITY: usize = usize::MAX;

fn recompute_state(p: &FacilityProblem, open: &[usize]) -> ServeState {
    let nc = p.client_count();
    let mut best_f = vec![NO_FACILITY; nc];
    let mut best_v = vec![f64::INFINITY; nc];
    let mut second_v = vec![f64::INFINITY; nc];
    for &f in open {
        for c in 0..nc {
            let a = p.assignment_cost(f, c);
            if a < best_v[c] {
                second_v[c] = best_v[c];
                best_v[c] = a;
                best_f[c] = f;
            } else if a < second_v[c] {
                second_v[c] = a;
            }
        }
    }
    ServeState {
        best_f,
        best_v,
        second_v,
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

/// The facility rows [`solve_greedy`] reads: for every facility an
/// assignment-cost row that is either **exact** or a certified
/// elementwise **lower bound** on the exact row (`row(f)[c] ≤ a(f, c)`
/// for every client, `+∞` only where the exact entry is `+∞`). A lower
/// bound is turned into the exact row on demand by
/// [`RowSource::escalate`].
///
/// A [`FacilityProblem`] (by reference) is the all-exact source, so
/// `solve_greedy(&problem)` is the plain greedy. A caller whose exact
/// rows are expensive — the best-response reduction derives each from a
/// shortest-path repair — can serve cheap bounds instead and pay for an
/// exact row only when the greedy asks for it.
pub trait RowSource {
    /// Number of facilities.
    fn facility_count(&self) -> usize;
    /// Number of clients; every row has this length.
    fn client_count(&self) -> usize;
    /// Opening cost of facility `f` (finite, non-negative).
    fn open_cost(&self, f: usize) -> f64;
    /// Facility `f`'s row as currently held: exact, or a lower bound.
    fn row(&self, f: usize) -> &[f64];
    /// Whether [`RowSource::row`]`(f)` is the exact row.
    fn is_exact(&self, f: usize) -> bool;
    /// Replaces row `f` with the exact row. Called only while
    /// `is_exact(f)` is `false`; afterwards it must be `true`.
    fn escalate(&mut self, f: usize);
}

impl RowSource for &FacilityProblem {
    fn facility_count(&self) -> usize {
        FacilityProblem::facility_count(self)
    }

    fn client_count(&self) -> usize {
        FacilityProblem::client_count(self)
    }

    fn open_cost(&self, f: usize) -> f64 {
        FacilityProblem::open_cost(self, f)
    }

    fn row(&self, f: usize) -> &[f64] {
        self.assignment_row(f)
    }

    fn is_exact(&self, _f: usize) -> bool {
        true
    }

    fn escalate(&mut self, _f: usize) {
        unreachable!("every row of a FacilityProblem is exact")
    }
}

impl<R: RowSource + ?Sized> RowSource for &mut R {
    fn facility_count(&self) -> usize {
        (**self).facility_count()
    }

    fn client_count(&self) -> usize {
        (**self).client_count()
    }

    fn open_cost(&self, f: usize) -> f64 {
        (**self).open_cost(f)
    }

    fn row(&self, f: usize) -> &[f64] {
        (**self).row(f)
    }

    fn is_exact(&self, f: usize) -> bool {
        (**self).is_exact(f)
    }

    fn escalate(&mut self, f: usize) {
        (**self).escalate(f);
    }
}

/// Relative float slack of [`solve_greedy`]'s bound tests: a bound
/// rejects a candidate only if it exceeds the threshold by more than this
/// fraction of the magnitudes involved (or `4 · (F + C) · ε`, if larger).
const BOUND_SLACK: f64 = 1e-9;

/// Exact greedy score of opening `f` on top of the current open set, in
/// the one summation order every greedy answer is defined by: `oc` (the
/// open set's opening costs plus `f`'s), then `min(best_v[c], a(f, c))`
/// over ascending `c`, skipping unserved clients. Also returns `f`'s exact
/// bounds at this state: `cover`, the unserved clients `f` would serve,
/// and `gain`, `Σ max(0, best_v[c] − a(f, c))` over served clients.
fn exact_score(row: &[f64], best_v: &[f64], oc: f64, all_served: bool) -> (Score, usize, f64) {
    let mut finite = oc;
    let mut gain = 0.0;
    if all_served {
        // Every `b` is finite, so every `v` is too: no branch needed.
        for (&b, &a) in best_v.iter().zip(row) {
            let v = b.min(a);
            finite += v;
            gain += b - v;
        }
        let score = Score {
            unserved: 0,
            finite_cost: finite,
        };
        return (score, 0, gain);
    }
    let mut unserved = 0usize;
    let mut cover = 0usize;
    for (&b, &a) in best_v.iter().zip(row) {
        let v = b.min(a);
        if v.is_finite() {
            finite += v;
            if b.is_finite() {
                gain += b - v;
            } else {
                cover += 1;
            }
        } else {
            unserved += 1;
        }
    }
    let score = Score {
        unserved,
        finite_cost: finite,
    };
    (score, cover, gain)
}

/// Branch-free lane-split fold of `term(best_v[c], row[c])` over the
/// clients: the terms are summed in four independent lanes (client `c`
/// into lane `c mod 4`), so no add waits on the one before it, and the
/// clients whose term reports `true` are counted. The count is exact;
/// the sum holds the same non-negative terms as a fixed-order sum and
/// differs from it only in rounding, within the error bound of any
/// order, `≤ C · ε` of the terms' total.
fn lane_fold(best_v: &[f64], row: &[f64], term: impl Fn(f64, f64) -> (f64, bool)) -> (usize, f64) {
    let mut sum = [0.0f64; 4];
    let mut count = [0usize; 4];
    let mut add = |k: usize, b: f64, a: f64| {
        let (t, hit) = term(b, a);
        sum[k] += t;
        count[k] += usize::from(hit);
    };
    let (b_chunks, b_rest) = best_v.as_chunks::<4>();
    let (a_chunks, a_rest) = row.as_chunks::<4>();
    for (bs, as_) in b_chunks.iter().zip(a_chunks) {
        for k in 0..4 {
            add(k, bs[k], as_[k]);
        }
    }
    for (k, (&b, &a)) in b_rest.iter().zip(a_rest).enumerate() {
        add(k, b, a);
    }
    (count.iter().sum(), (sum[0] + sum[1]) + (sum[2] + sum[3]))
}

/// [`lane_fold`] term of a row while no client is served: the entry when
/// it is finite (counted: a client the row would serve), else nothing.
fn covered_term(_b: f64, a: f64) -> (f64, bool) {
    let finite = a.is_finite();
    (if finite { a } else { 0.0 }, finite)
}

/// [`lane_fold`] term of a row against served clients (`b` finite): the
/// gain `b − min(b, a)` that [`exact_score`] adds, taken by a compare
/// and a mask (neither value is NaN), and whether the row can serve the
/// client at all.
fn gain_term(b: f64, a: f64) -> (f64, bool) {
    // For non-NaN values `a < b` picks the same branch as `min`.
    (if a < b { b - a } else { 0.0 }, a.is_finite())
}

/// Whether a lower bound `b` on a candidate's score provably cannot tie
/// or beat `thr`: more unserved clients, or as many and a finite part
/// above the threshold by more than `slack` times the magnitudes
/// summed — both finite parts and `mag`, the candidate's other sums
/// (the current score, its opening cost and its gain bound). A sum
/// that overflowed to `±∞` makes the tolerance infinite, and a NaN
/// bound compares false, so neither ever rejects.
fn hopeless(b: Score, thr: Score, mag: f64, slack: f64) -> bool {
    let tol = slack * (b.finite_cost.abs() + thr.finite_cost.abs() + mag);
    b.unserved > thr.unserved
        // Certified: `tol` is far above the rounding error of the sums on
        // both sides.
        || (b.unserved == thr.unserved && b.finite_cost > thr.finite_cost + tol)
}

/// A closed facility in [`solve_greedy`]'s queue once every client is
/// served, keyed by `open(f) − gain[f]`: the current score plus the key
/// is the facility's lower bound. The queue pops the smallest key, ties
/// by index.
#[derive(Debug, Clone, Copy)]
struct Queued {
    key: f64,
    f: usize,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    /// Reversed, so [`BinaryHeap`] pops the smallest key first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.total_cmp(&self.key).then(other.f.cmp(&self.f))
    }
}

/// Scores candidate `f` in the fixed order on the row as held. A
/// lower-bound row whose score can still win (`can_win`) is escalated
/// and scored again on the exact row, which is never below it; a
/// lower-bound row that cannot win keeps its bound score, which then
/// cannot win either. Returns [`exact_score`]'s triple.
fn score_row<R: RowSource>(
    src: &mut R,
    f: usize,
    best_v: &[f64],
    oc: f64,
    all_served: bool,
    can_win: impl Fn(Score) -> bool,
) -> (Score, usize, f64) {
    let held = exact_score(src.row(f), best_v, oc, all_served);
    if src.is_exact(f) || !can_win(held.0) {
        return held;
    }
    src.escalate(f);
    exact_score(src.row(f), best_v, oc, all_served)
}

/// Classic greedy: repeatedly open the facility with the best marginal
/// improvement, stopping when nothing improves. Scores compare
/// lexicographically — fewer unserved clients first, then the finite part
/// of the cost — and a step opens the best-scoring closed facility only
/// if it is strictly better than the current open set, the lowest index
/// winning exact ties.
///
/// # Row sources
///
/// The greedy reads its rows from a [`RowSource`]: a
/// [`FacilityProblem`] (all rows exact), or a source that serves some
/// rows as certified elementwise lower bounds and derives the exact row
/// only when [`RowSource::escalate`] asks for it. A lower-bound row's
/// score, summed in the exact score's order, is a lexicographic lower
/// bound on the exact score: every exact finite entry is finite in the
/// bound too, so the bound counts no more unserved clients, and when the
/// counts agree the same clients are summed term by term, each term no
/// larger — and float rounding is monotone, so the float sum is no larger
/// either. A row is therefore escalated only when its bound score can
/// still beat the current open set and beat or tie (at a lower index)
/// the best exact score in hand; otherwise its exact score could not
/// win. A row is opened only on an exact score, so the opened rows, the
/// open set and the cost never depend on a bound.
///
/// # Certified lazy evaluation
///
/// A step re-scores only the facilities whose score can still win, in
/// the manner of Minoux's accelerated greedy. Each closed facility `f`
/// carries two upper bounds that stay valid as more facilities open:
///
/// * `cover[f]` — how many still-unserved clients `f` would serve: an
///   exact count after each re-score, decremented whenever one of them
///   turns served.
/// * `gain[f]` — `Σ max(0, best_v[c] − a(f, c))` over served clients.
///   Opening facilities only lowers `best_v`, which only lowers the sum.
///   A client turning served adds a term, so at that moment every bound
///   grows by that term, `best_v[c] − min(best_v[c], a(f, c))`.
///
/// Both are taken from the row as held, so a lower-bound row only
/// overstates them: they stay upper bounds on the exact row's.
///
/// With `cur` the current score, `(unserved − cover[f], cur + open(f) −
/// gain[f])` is a lexicographic lower bound on `f`'s score: the clients
/// `f` newly serves only add cost. While some client is unserved, a
/// step tests the candidate with the smallest bound first, then every
/// other candidate in index order, against the best exact score so far
/// (or `cur`, before any).
///
/// Once every client is served, `cover` is `0` for good and only `gain`
/// moves, so the closed facilities wait in a priority queue keyed by
/// `open(f) − gain[f]` (`cur` plus the key is the bound), which stays
/// ordered across steps because a key changes only when its facility is
/// popped. A step pops the smallest key. A stale key (its `gain` read
/// before the last open) is refreshed and queued again; a fresh one gets
/// its fixed-order score, once per step. The step stops when the
/// smallest bound cannot win even with a tolerance that covers every
/// queued candidate's own: with `gain = cur + open(f) − bound`, each
/// candidate's scale is at most `|thr| + 2 · (|cur| + max open)`.
///
/// # Lane-split screening
///
/// An exact score is a chain of `C` dependent float adds. Before a
/// candidate pays for one, it is screened by a lane-split bound: the
/// same row read in four independent accumulators (client `c` into lane
/// `c mod 4`), with no dependency chain and no branch.
///
/// * *First step:* every client is unserved, so a row's lane pass gives
///   its count of `+∞` entries and the sum of its finite entries:
///   `cover[f]` exactly, `gain[f] = 0`, and a bound score with the exact
///   unserved count. Exact rows are visited first — the one with the
///   smallest bound, then the rest in index order — then the lower-bound
///   rows in ascending (bound, index) order, so the most promising ones
///   are escalated first. A row whose lane bound cannot win within the
///   slack is skipped; any other row is scored in the fixed order and
///   escalated by the rule above.
/// * *Later steps, every client served:* a popped stale key is
///   refreshed by a lane-split `gain = Σ (b − min(b, a))`, so only the
///   candidates whose fresh bound is smallest pay for a fixed-order
///   score.
/// * *Served update:* when every client turns served at once (the
///   first open of a finite row), each closed row's `cover` and `gain`
///   change by one lane pass over the row instead of a branch per
///   client; later opens only lower `best_v`.
///
/// Lane sums only screen: every opened facility's score, and so the
/// cost, still comes from the fixed-order exact score.
///
/// **Contract:** the facility opened at every step, hence the returned
/// open set and the bits of `cost`, are identical to the eager greedy
/// that scores every closed facility's exact row at every step. The
/// exact score keeps that greedy's summation order — the open set's
/// opening costs plus `open(f)`, then `min(best_v[c], a(f, c))` over
/// ascending `c` — and the eager pick, the lowest index among the
/// minimal scores, is always scored exactly: a candidate is skipped only
/// when a bound proves its score is worse than one already in hand, or
/// ties it at a higher index.
///
/// **Why the slack is sound:** bounds and scores are float sums of at
/// most `F + C + 2` non-negative terms. Summed in any order — the fixed
/// one, four lanes, or the stale bounds' running updates — such a sum
/// is within `(F + C + 2) · ε` of its real value relative to the
/// magnitudes summed, so a lane bound and the fixed-order score of the
/// same row differ by at most about `2 · (F + C + 2) · ε` times the
/// row's own magnitude. A bound rejects only when it exceeds the
/// threshold by `max(1e-9, 4 · (F + C) · ε)` times a scale that holds
/// both finite parts compared — the candidate's own bound included —
/// and the current score, the candidate's opening cost and its gain,
/// so no candidate whose float score ties or beats the threshold is
/// ever skipped. At the game's `F = C = 111` the rounding error is
/// below `1e-13` — four orders of magnitude under the slack. A sum that
/// overflows to `+∞` makes the tolerance infinite (or the bound `−∞` or
/// NaN, which compares false), so nothing is skipped on it.
///
/// Runs in `O(F · C + F log F)` for the first step (every row gets a
/// lane pass), then `O(F + R · C)` per step for `R` screened facilities
/// while some client is unserved, `O(R · (C + log F))` once all are,
/// plus `O(F · C)` when every client turns served at once and `O(F)` per
/// client that turns served later; the worst case is the eager
/// `O(F² · C)`. On the best-response instances of the 112-peer
/// `dynamics` benchmark (seed 7, 17 instances), the exact scores per
/// solve fell from 148 to 15 for sequential activations (4.7 opens per
/// solve; 115 → 9 of them in the first step), from 152 to 13 for
/// `nash_gap` (3.5 opens) and from 381 to 77 for simultaneous rounds
/// (17.5 opens), against ~2040 for the eager greedy; escalations fell
/// by 9–15%.
///
/// Gives the standard `O(log C)`-approximation for UFL; exactness is *not*
/// guaranteed — use the exact solvers when the result feeds a
/// Nash-equilibrium verdict.
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_greedy};
///
/// let p = FacilityProblem::with_uniform_open_cost(1.0, vec![
///     vec![0.5, 9.0],
///     vec![9.0, 0.5],
/// ]).unwrap();
/// let s = solve_greedy(&p);
/// assert_eq!(s.open, vec![0, 1]);
/// ```
#[must_use]
pub fn solve_greedy<R: RowSource>(mut src: R) -> FacilitySolution {
    let nf = src.facility_count();
    let nc = src.client_count();
    if nc == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
    }
    let slack = BOUND_SLACK.max(4.0 * (nf + nc) as f64 * f64::EPSILON);
    let mut open: Vec<usize> = Vec::new();
    let mut is_open = vec![false; nf];
    let mut best_v = vec![f64::INFINITY; nc];
    // Upper bounds, set for every row by the first step's lane pass.
    let mut cover = vec![0; nf];
    let mut gain = vec![0.0f64; nf];
    let mut cur = Score {
        unserved: nc,
        finite_cost: 0.0,
    };
    let mut bound = vec![cur; nf];
    let mut newly: Vec<(usize, f64)> = Vec::with_capacity(nc);
    let mut order: Vec<usize> = Vec::with_capacity(nf);
    // Once every client is served: the closed facilities by bound, the
    // step at which each `gain` was last read afresh, and the candidates
    // a step has scored.
    let mut queue: BinaryHeap<Queued> = BinaryHeap::with_capacity(nf);
    let mut queued = false;
    let mut fresh_at = vec![usize::MAX; nf];
    let mut scored: Vec<usize> = Vec::with_capacity(nf);
    let max_open = (0..nf).map(|f| src.open_cost(f)).fold(0.0, f64::max);

    loop {
        let oc_sum: f64 = open.iter().map(|&f| src.open_cost(f)).sum();
        let all_served = cur.unserved == 0;
        let first_step = open.is_empty();
        // Whether `f` scoring `s` would replace `pick` as the step's
        // choice: strictly better than the open set, and better than the
        // pick or tied with it at a lower index.
        let wins = |f: usize, s: Score, pick: Option<(usize, Score)>| {
            s.better_than(cur)
                && pick.is_none_or(|(pf, ps)| s.better_than(ps) || (s == ps && f < pf))
        };
        let mut pick: Option<(usize, Score)> = None;
        if all_served {
            let step = open.len();
            if !queued {
                queue.extend((0..nf).filter(|&f| !is_open[f]).map(|f| Queued {
                    key: src.open_cost(f) - gain[f],
                    f,
                }));
                queued = true;
            }
            scored.clear();
            while let Some(&Queued { key, f }) = queue.peek() {
                let thr = pick.map_or(cur, |(_, s)| s);
                let b = Score {
                    unserved: 0,
                    finite_cost: cur.finite_cost + key,
                };
                // Every queued bound is at least `b`, and this tolerance
                // covers each one's own: `gain = cur + open − bound`.
                if hopeless(b, thr, 4.0 * (cur.finite_cost.abs() + max_open), slack) {
                    break;
                }
                queue.pop();
                if fresh_at[f] != step {
                    // A stale bound: read the row afresh in lanes and
                    // queue it again.
                    (_, gain[f]) = lane_fold(&best_v, src.row(f), gain_term);
                    fresh_at[f] = step;
                    queue.push(Queued {
                        key: src.open_cost(f) - gain[f],
                        f,
                    });
                    continue;
                }
                // The smallest fresh bound: the candidate's turn for its
                // fixed-order score, once per step.
                scored.push(f);
                let mag = cur.finite_cost.abs() + src.open_cost(f) + gain[f];
                if hopeless(b, thr, mag, slack) {
                    continue;
                }
                let oc = oc_sum + src.open_cost(f);
                let s;
                (s, cover[f], gain[f]) =
                    score_row(&mut src, f, &best_v, oc, true, |s| wins(f, s, pick));
                if wins(f, s, pick) {
                    pick = Some((f, s));
                }
            }
            let picked = pick.map(|(f, _)| f);
            queue.extend(
                scored
                    .iter()
                    .filter(|&&f| Some(f) != picked)
                    .map(|&f| Queued {
                        key: src.open_cost(f) - gain[f],
                        f,
                    }),
            );
        } else {
            order.clear();
            if first_step {
                // No client is served yet (`best_v` is all `+∞`): a row's
                // lane-split reading gives its exact `cover` and a bound
                // score with the exact unserved count.
                for f in 0..nf {
                    let (covered, sum) = lane_fold(&best_v, src.row(f), covered_term);
                    cover[f] = covered;
                    gain[f] = 0.0;
                    bound[f] = Score {
                        unserved: nc - covered,
                        finite_cost: src.open_cost(f) + sum,
                    };
                }
                // Exact rows go first: the most promising one, then the
                // rest in index order (their order cannot change the pick
                // they leave). Then the lower bounds from the lowest
                // bound, ties by index, so the first escalations set a
                // tight threshold.
                let exact_first = (0..nf).filter(|&f| src.is_exact(f)).reduce(|f, g| {
                    if bound[g].better_than(bound[f]) {
                        g
                    } else {
                        f
                    }
                });
                order.extend(exact_first);
                order.extend((0..nf).filter(|&f| src.is_exact(f) && Some(f) != exact_first));
                let exact = order.len();
                order.extend((0..nf).filter(|&f| !src.is_exact(f)));
                order[exact..].sort_unstable_by(|&f, &g| {
                    let (a, b) = (bound[f], bound[g]);
                    a.unserved
                        .cmp(&b.unserved)
                        .then(a.finite_cost.total_cmp(&b.finite_cost))
                        .then(f.cmp(&g))
                });
            } else {
                let mut first: Option<usize> = None;
                for f in (0..nf).filter(|&f| !is_open[f]) {
                    bound[f] = Score {
                        unserved: cur.unserved.saturating_sub(cover[f]),
                        finite_cost: cur.finite_cost + src.open_cost(f) - gain[f],
                    };
                    if first.is_none_or(|g| bound[f].better_than(bound[g])) {
                        first = Some(f);
                    }
                }
                let Some(first) = first else { break };
                // The most promising candidate first, so the threshold is
                // tight before the others are tested against it.
                order.push(first);
                order.extend((0..nf).filter(|&f| f != first && !is_open[f]));
            }
            for &f in &order {
                let thr = pick.map_or(cur, |(_, s)| s);
                let mag = cur.finite_cost.abs() + src.open_cost(f) + gain[f];
                if hopeless(bound[f], thr, mag, slack) {
                    continue;
                }
                let oc = oc_sum + src.open_cost(f);
                let s;
                (s, cover[f], gain[f]) =
                    score_row(&mut src, f, &best_v, oc, false, |s| wins(f, s, pick));
                if wins(f, s, pick) {
                    pick = Some((f, s));
                }
            }
        }
        let Some((f, s)) = pick else { break };
        is_open[f] = true;
        open.push(f);
        newly.clear();
        if all_served {
            // Every client stays served: only `best_v` moves.
            for (b, &a) in best_v.iter_mut().zip(src.row(f)) {
                *b = b.min(a);
            }
        } else {
            for (c, &a) in src.row(f).iter().enumerate() {
                if best_v[c].is_infinite() && a.is_finite() {
                    newly.push((c, a));
                }
                best_v[c] = best_v[c].min(a);
            }
        }
        // Clients that just turned served: every closed facility that can
        // serve one leaves the unserved count and gains on it exactly the
        // term its next score of the row as held will count.
        if newly.len() == nc {
            // Every client at once (the first open, when the opened row
            // is finite): one lane pass per row, whose term is `0` where
            // the row cannot serve the client.
            for g in (0..nf).filter(|&g| !is_open[g]) {
                let (lost, extra) = lane_fold(&best_v, src.row(g), gain_term);
                cover[g] -= lost;
                gain[g] += extra;
                fresh_at[g] = open.len();
            }
        } else if !newly.is_empty() {
            for g in (0..nf).filter(|&g| !is_open[g]) {
                let row = src.row(g);
                let (mut lost, mut extra) = (0usize, 0.0);
                for &(c, b) in &newly {
                    let a = row[c];
                    if a.is_finite() {
                        lost += 1;
                        extra += b - b.min(a);
                    }
                }
                cover[g] -= lost;
                gain[g] += extra;
            }
        }
        cur = s;
    }
    open.sort_unstable();
    FacilitySolution {
        cost: cur.total(),
        open,
    }
}

/// Add/drop/swap local search, seeded by `start` (or [`solve_greedy`] when
/// `None`). Takes the best strictly-improving move until a local optimum.
///
/// The greedy seed is the lazy greedy's, bit-identical to the eager one,
/// so only its cost changed. The search itself is still eager: every
/// iteration rebuilds the per-client best/second-best state from scratch
/// and scores every add, drop and swap move, `O(F² · C)` per iteration
/// with an iteration cap of `16 · F² + 64`. For metric assignment costs
/// this is the classic constant-factor approximation; it is also the
/// incumbent provider for [`crate::solve_branch_and_bound`].
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_local_search};
///
/// let p = FacilityProblem::with_uniform_open_cost(1.0, vec![
///     vec![0.5, 9.0],
///     vec![9.0, 0.5],
/// ]).unwrap();
/// let s = solve_local_search(&p, None);
/// assert_eq!(s.open, vec![0, 1]);
/// ```
#[must_use]
pub fn solve_local_search(p: &FacilityProblem, start: Option<&[usize]>) -> FacilitySolution {
    let nf = p.facility_count();
    let nc = p.client_count();
    if nc == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
    }
    let mut open: Vec<usize> = match start {
        Some(s) => {
            let mut v = s.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        }
        None => solve_greedy(p).open,
    };

    #[derive(Clone, Copy)]
    enum Move {
        Add(usize),
        Drop(usize),
        Swap { open_f: usize, close_f: usize },
    }

    let max_iters = 16 * nf * nf + 64;
    for _ in 0..max_iters {
        let state = recompute_state(p, &open);
        let oc = open_cost_sum(p, &open);
        let cur = score_from_values(oc, state.best_v.iter().copied());

        let mut best_move: Option<(Move, Score)> = None;
        let consider = |m: Move, s: Score, best_move: &mut Option<(Move, Score)>| {
            if s.better_than(cur) && best_move.is_none_or(|(_, bs)| s.better_than(bs)) {
                *best_move = Some((m, s));
            }
        };

        let is_open = {
            let mut mask = vec![false; nf];
            for &f in &open {
                mask[f] = true;
            }
            mask
        };

        // ADD moves.
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            let s = score_from_values(
                oc + p.open_cost(f),
                (0..nc).map(|c| state.best_v[c].min(p.assignment_cost(f, c))),
            );
            consider(Move::Add(f), s, &mut best_move);
        }
        // DROP moves.
        for &g in &open {
            let s = score_from_values(
                oc - p.open_cost(g),
                (0..nc).map(|c| {
                    if state.best_f[c] == g {
                        state.second_v[c]
                    } else {
                        state.best_v[c]
                    }
                }),
            );
            consider(Move::Drop(g), s, &mut best_move);
        }
        // SWAP moves.
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            for &g in &open {
                let s = score_from_values(
                    oc + p.open_cost(f) - p.open_cost(g),
                    (0..nc).map(|c| {
                        let base = if state.best_f[c] == g {
                            state.second_v[c]
                        } else {
                            state.best_v[c]
                        };
                        base.min(p.assignment_cost(f, c))
                    }),
                );
                consider(
                    Move::Swap {
                        open_f: f,
                        close_f: g,
                    },
                    s,
                    &mut best_move,
                );
            }
        }

        match best_move {
            Some((Move::Add(f), _)) => open.push(f),
            Some((Move::Drop(g), _)) => open.retain(|&x| x != g),
            Some((Move::Swap { open_f, close_f }, _)) => {
                open.retain(|&x| x != close_f);
                open.push(open_f);
            }
            None => break,
        }
    }

    open.sort_unstable();
    let cost = p.cost_of(&open);
    FacilitySolution { open, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_enumeration;

    fn line_problem(nf: usize, open_cost: f64) -> FacilityProblem {
        let rows: Vec<Vec<f64>> = (0..nf)
            .map(|f| (0..nf).map(|c| ((f as f64) - (c as f64)).abs()).collect())
            .collect();
        FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
    }

    #[test]
    fn greedy_reaches_feasibility() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![1.0, f64::INFINITY], vec![f64::INFINITY, 1.0]],
        )
        .unwrap();
        let s = solve_greedy(&p);
        assert_eq!(s.open, vec![0, 1]);
        assert!(s.cost.is_finite());
    }

    #[test]
    fn greedy_never_beats_optimal_and_local_search_never_beats_optimal() {
        for oc in [0.0, 0.3, 1.0, 5.0, 50.0] {
            let p = line_problem(8, oc);
            let opt = solve_enumeration(&p).unwrap();
            let g = solve_greedy(&p);
            let l = solve_local_search(&p, None);
            assert!(
                g.cost >= opt.cost - 1e-9,
                "greedy {} < opt {}",
                g.cost,
                opt.cost
            );
            assert!(l.cost >= opt.cost - 1e-9);
            assert!(
                l.cost <= g.cost + 1e-9,
                "local search must not be worse than its seed"
            );
        }
    }

    #[test]
    fn local_search_escapes_bad_start() {
        let p = line_problem(6, 0.5);
        // Start from the worst possible single facility.
        let s = solve_local_search(&p, Some(&[0]));
        let opt = solve_enumeration(&p).unwrap();
        assert!(
            (s.cost - opt.cost).abs() < 1e-9,
            "ls={} opt={}",
            s.cost,
            opt.cost
        );
    }

    #[test]
    fn local_search_cost_is_consistent() {
        let p = line_problem(7, 2.0);
        let s = solve_local_search(&p, None);
        assert!((s.cost - p.cost_of(&s.open)).abs() < 1e-12);
    }

    #[test]
    fn empty_clients_short_circuit() {
        let p = FacilityProblem::new(vec![2.0], vec![vec![]]).unwrap();
        assert_eq!(solve_greedy(&p).cost, 0.0);
        assert_eq!(solve_local_search(&p, None).cost, 0.0);
    }

    #[test]
    fn greedy_handles_totally_infeasible() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![f64::INFINITY], vec![f64::INFINITY]],
        )
        .unwrap();
        let s = solve_greedy(&p);
        assert!(s.cost.is_infinite());
    }

    #[test]
    fn greedy_bounds_grow_when_clients_turn_served() {
        // Step 1 opens 0 (fewest unserved), serving clients 0 and 2 at
        // 100; step 2 opens 1 for client 1. Facility 2 was last scored
        // before client 0 was served, so only the growth of its gain
        // bound by 100 keeps step 3 from skipping it.
        let inf = f64::INFINITY;
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![
                vec![100.0, inf, 100.0],
                vec![inf, 5.0, inf],
                vec![0.0, inf, inf],
            ],
        )
        .unwrap();
        let s = solve_greedy(&p);
        assert_eq!(s.open, vec![0, 1, 2]);
        assert_eq!(s.cost, 108.0);
    }

    #[test]
    fn score_ordering_prefers_served_clients() {
        let a = Score {
            unserved: 1,
            finite_cost: 0.0,
        };
        let b = Score {
            unserved: 0,
            finite_cost: 1000.0,
        };
        assert!(b.better_than(a));
        assert!(!a.better_than(b));
        assert_eq!(a.total(), f64::INFINITY);
        assert_eq!(b.total(), 1000.0);
    }
}
