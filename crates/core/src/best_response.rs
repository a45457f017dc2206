//! Best responses: the reduction of a peer's best response to
//! uncapacitated facility location, and the oracles that build it.
//!
//! For peer `i`, every other peer `v` is a candidate link (a facility
//! opening at `α`) and every other peer `j` a client, assigned at
//! `(d(i, v) + D(v, j)) / d(i, j)` with `D = D_{G_{-i}}` the residual
//! distances of the overlay without `i`'s out-links. [`ResponseOracle`]
//! sweeps `G_{-i}` once per candidate; it is the reference and the path
//! of one-shot calls and sparse sessions.
//!
//! Cached oracles read a [`CandidateRows`] store instead, built on one
//! frozen [`Overlay`] snapshot: the overlay CSR, its transpose and every
//! overlay row `d_G(v, ·)`, all valid and shared read-only by every
//! oracle of a round. An overlay row is a certified lower bound on the
//! residual row (removing links only lengthens paths). A row no out-link
//! of `i` is tight on is exact as it stands; any other is held as a
//! lower bound until a caller needs it exact, and only then is its
//! residual row derived by [`CsrGraph::dijkstra_without`]. The greedy
//! asks for exactly the rows whose bound score can still win (see
//! [`sp_facility::solve_greedy`]); the other methods ask for every row;
//! the better-response scan asks for the rows its moves cannot reject
//! on a bound. Every exact row is bit-identical to a fresh sweep's, so
//! every cached answer is bit-identical to [`ResponseOracle`]'s.

use std::borrow::Cow;

use sp_facility::{
    solve_branch_and_bound, solve_enumeration, solve_greedy, solve_local_search, FacilityError,
    FacilityProblem, FacilitySolution, RowSource,
};
use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch, Removal};

use crate::cost::cost_from_row;
use crate::oracle_cache::OracleCache;
use crate::session::EDGE_ON_PATH_EPS;
use crate::{topology_without_peer, CoreError, Game, LinkSet, PeerId, StrategyProfile};

/// How a peer's best response is computed.
///
/// The reduction to facility location (see [`best_response`]) is exact;
/// the method determines how the resulting UFL instance is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BestResponseMethod {
    /// Exact, by branch-and-bound. The default: exact at any size the
    /// experiments use.
    #[default]
    Exact,
    /// Exact, by subset enumeration. Limited to 24 candidate neighbours
    /// (i.e. `n <= 25`); used to cross-validate the branch-and-bound.
    ExactEnumeration,
    /// Greedy marginal-gain heuristic (`O(log)`-approximate), solved by
    /// [`sp_facility::solve_greedy`]: a certified lazy greedy that
    /// re-scores only the candidate links that can still win each step,
    /// with the same answer, bit for bit, as scoring every candidate. A
    /// cached oracle hands it dirty candidate rows as certified lower
    /// bounds and derives a residual row only for a candidate whose bound
    /// score can still win.
    Greedy,
    /// Add/drop/swap local search seeded by greedy (locally optimal). The
    /// search's own iterations still score every move.
    LocalSearch,
}

impl BestResponseMethod {
    /// Returns `true` when the method guarantees an optimal response.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            BestResponseMethod::Exact | BestResponseMethod::ExactEnumeration
        )
    }
}

/// The outcome of a best-response computation for one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponse {
    /// The responding peer.
    pub peer: PeerId,
    /// The (near-)optimal strategy found.
    pub links: LinkSet,
    /// Cost of playing [`BestResponse::links`] against the fixed rest.
    pub cost: f64,
    /// Cost of the peer's current strategy in the same profile.
    pub current_cost: f64,
    /// Whether the method guarantees `links` is exactly optimal.
    pub exact: bool,
}

impl BestResponse {
    /// `current_cost − cost`, the incentive to deviate. Positive iff the
    /// response strictly improves. (`+∞` when the response connects a peer
    /// that currently cannot reach everyone.)
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.current_cost.is_infinite() && self.cost.is_infinite() {
            0.0
        } else {
            self.current_cost - self.cost
        }
    }

    /// Returns `true` if the response improves by more than a relative
    /// tolerance `tol · (1 + |current_cost|)` — the standard test used by
    /// equilibrium checks to absorb floating-point noise.
    #[must_use]
    pub fn improves(&self, tol: f64) -> bool {
        if self.cost.is_infinite() {
            return false;
        }
        if self.current_cost.is_infinite() {
            return true;
        }
        self.cost < self.current_cost - tol * (1.0 + self.current_cost.abs())
    }
}

/// How a cached oracle path sourced its candidate rows. Every row an
/// oracle resolves lands in exactly one bucket, so a best-response
/// oracle (which resolves all `n − 1`) adds up to `n − 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OracleReuse {
    /// Candidate rows served exactly from a clean overlay row, with no
    /// repair.
    pub(crate) rows_reused: usize,
    /// Candidate rows repaired from a dirty overlay row.
    pub(crate) rows_repaired: usize,
    /// Candidate rows served only as certified lower bounds: never
    /// escalated, so never repaired.
    pub(crate) rows_bounded: usize,
}

/// One frozen overlay snapshot: the overlay CSR, its transpose and the
/// overlay distance rows, **every row valid**. Every cached oracle path
/// reads it through shared borrows, so the oracles of one round — on
/// one thread or many — see one consistent state and none can change it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Overlay<'a> {
    pub(crate) csr: &'a CsrGraph,
    pub(crate) transpose: &'a CsrGraph,
    pub(crate) rows: &'a OracleCache,
}

/// Writes the exact residual row `D_{G_{-i}}(v, ·)` for candidate `v`
/// into `out` (length `n`) — the one row-sourcing policy of every cached
/// oracle path: copy the overlay row `d_G(v, ·)` into `out` and hand it
/// to [`CsrGraph::dijkstra_without`]. When none of `i`'s out-links is
/// tight on it (the conservative [`EDGE_ON_PATH_EPS`] test) it already
/// is the residual row and is reused verbatim; otherwise only the
/// subtree below `i`'s tight out-links is recomputed.
fn candidate_row(
    overlay: Overlay<'_>,
    i: usize,
    v: usize,
    out: &mut [f64],
    scratch: &mut DijkstraScratch,
    reuse: &mut OracleReuse,
) {
    out.copy_from_slice(overlay.rows.row(v));
    let affected = overlay.csr.dijkstra_without(
        overlay.transpose,
        v,
        Removal::OutEdgesOf(i),
        EDGE_ON_PATH_EPS,
        out,
        scratch,
    );
    if affected == 0 {
        reuse.rows_reused += 1;
    } else {
        reuse.rows_repaired += 1;
    }
}

/// Writes one facility row of the reduction into `out` (length `n − 1`):
/// the assignment costs `(d(i, v) + D(v, j)) / d(i, j)` over the clients
/// `j ≠ i` in ascending order, which is the candidate order. `d_i` is
/// [`Game::latency_row`]`(i)`; `dist` is `D(v, ·)`, the residual row or
/// a lower bound on it.
fn write_assignment_row(out: &mut [f64], i: usize, v: usize, d_i: &[f64], dist: &[f64]) {
    let d_iv = d_i[v];
    let (below, above) = out.split_at_mut(i);
    for (out, res, lat) in [
        (below, &dist[..i], &d_i[..i]),
        (above, &dist[i + 1..], &d_i[i + 1..]),
    ] {
        for ((o, &r), &d) in out.iter_mut().zip(res).zip(lat) {
            *o = (d_iv + r) / d;
        }
    }
}

/// The candidates of peer `i`'s oracle: every other peer, ascending;
/// facility `k` is `candidates[k]`.
fn candidates_of(n: usize, i: usize) -> Vec<usize> {
    (0..n).filter(|&v| v != i).collect()
}

/// Solves a reduction instance with `method`.
fn solve_problem(
    problem: &FacilityProblem,
    method: BestResponseMethod,
) -> Result<FacilitySolution, CoreError> {
    Ok(match method {
        BestResponseMethod::Exact => solve_branch_and_bound(problem),
        BestResponseMethod::ExactEnumeration => {
            solve_enumeration(problem).map_err(|e| match e {
                FacilityError::TooManyFacilities { facilities, limit } => {
                    CoreError::InstanceTooLarge {
                        n: facilities + 1,
                        limit: limit + 1,
                    }
                }
                other => panic!("unexpected facility error: {other}"),
            })?
        }
        BestResponseMethod::Greedy => solve_greedy(problem),
        BestResponseMethod::LocalSearch => solve_local_search(problem, None),
    })
}

/// The reduction's UFL instance from its row-major assignment buffer:
/// every candidate link opens at `α`.
fn reduction_problem(game: &Game, facilities: usize, assignment: Vec<f64>) -> FacilityProblem {
    FacilityProblem::from_flat(vec![game.alpha(); facilities], facilities, assignment)
        .expect("reduction produces non-negative costs by construction")
}

/// The best-response reduction over a fresh `G_{-i}` sweep: candidate
/// links as facilities, other peers as clients. Built once per
/// (profile, peer) and reusable for evaluating arbitrary candidate
/// strategies cheaply. The cached paths use [`CandidateRows`] instead.
pub(crate) struct ResponseOracle {
    /// Candidate link targets, in ascending peer order; facility `k`
    /// corresponds to `candidates[k]`.
    candidates: Vec<usize>,
    problem: FacilityProblem,
}

impl ResponseOracle {
    pub(crate) fn build(
        game: &Game,
        profile: &StrategyProfile,
        peer: PeerId,
    ) -> Result<Self, CoreError> {
        let mut scratch = DijkstraScratch::new();
        ResponseOracle::build_with(game, profile, peer, &mut scratch)
    }

    /// Like [`ResponseOracle::build`] but reuses caller-provided Dijkstra
    /// scratch memory (the `GameSession` hot path).
    pub(crate) fn build_with(
        game: &Game,
        profile: &StrategyProfile,
        peer: PeerId,
        scratch: &mut DijkstraScratch,
    ) -> Result<Self, CoreError> {
        let n = game.n();
        if peer.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n,
            });
        }
        let i = peer.index();
        let g_minus = topology_without_peer(game, profile, peer)?;
        let csr = CsrGraph::from_digraph(&g_minus);
        let candidates = candidates_of(n, i);
        let d_i = game.latency_row(i);
        let m = candidates.len();
        let mut assignment = Vec::with_capacity(candidates.len() * candidates.len());
        for &v in &candidates {
            let buf = csr.dijkstra_row_with(v, scratch);
            let start = assignment.len();
            assignment.resize(start + m, 0.0);
            write_assignment_row(&mut assignment[start..], i, v, &d_i, buf);
        }
        let problem = reduction_problem(game, m, assignment);
        Ok(ResponseOracle {
            candidates,
            problem,
        })
    }

    /// First strictly improving single-link change (drop, add, swap — in
    /// that order) from `current`, or `None`. Shared by the free
    /// [`first_improving_move`] and `GameSession::first_improving_move`.
    pub(crate) fn first_improving_move(
        &self,
        peer: PeerId,
        current: &LinkSet,
        tol: f64,
    ) -> Option<BestResponse> {
        let current_cost = self.eval(current);
        let improves = |cost: f64| -> bool {
            if cost.is_infinite() {
                return false;
            }
            if current_cost.is_infinite() {
                return true;
            }
            cost < current_cost - tol * (1.0 + current_cost.abs())
        };
        let wrap = |links: LinkSet, cost: f64| BestResponse {
            peer,
            links,
            cost,
            current_cost,
            exact: false,
        };

        // Drops.
        for j in current.iter() {
            let cand = current.without(j);
            let c = self.eval(&cand);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        // Adds.
        for &v in self.candidates() {
            let vp = PeerId::new(v);
            if current.contains(vp) {
                continue;
            }
            let cand = current.with(vp);
            let c = self.eval(&cand);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        // Swaps.
        for j in current.iter() {
            for &v in self.candidates() {
                let vp = PeerId::new(v);
                if current.contains(vp) {
                    continue;
                }
                let cand = current.without(j).with(vp);
                let c = self.eval(&cand);
                if improves(c) {
                    return Some(wrap(cand, c));
                }
            }
        }
        None
    }

    /// Cost of `peer` playing `links` against the fixed rest — identical
    /// to [`peer_cost`] on the deviated profile (asserted by tests), but
    /// `O(n·|links|)` instead of a Dijkstra.
    pub(crate) fn eval(&self, links: &LinkSet) -> f64 {
        let open: Vec<usize> = links
            .iter()
            .map(|p| {
                self.candidates
                    .binary_search(&p.index())
                    .expect("link target must be a valid candidate")
            })
            .collect();
        self.problem.cost_of(&open)
    }

    pub(crate) fn solve(&self, method: BestResponseMethod) -> Result<(LinkSet, f64), CoreError> {
        let sol = solve_problem(&self.problem, method)?;
        let links: LinkSet = sol.open.iter().map(|&f| self.candidates[f]).collect();
        Ok((links, sol.cost))
    }

    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }
}

/// How a [`CandidateRows`] store holds a candidate's assignment row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Not converted yet.
    Unresolved,
    /// A certified elementwise **lower bound** on the exact row: a dirty
    /// overlay row (`d_G(v, ·) ≤ D_{G_{-i}}(v, ·)`, since removing `i`'s
    /// links only lengthens paths).
    Lower,
    /// The exact row: a clean overlay row, or a residual row derived by
    /// [`candidate_row`].
    Exact,
}

/// The candidate rows of one cached `(profile, peer)` oracle, each an
/// assignment row of the reduction held in the weakest form asked of it
/// (see [`Held`]) — the one row store of every cached oracle path.
///
/// * A **clean** overlay row — none of `i`'s out-links is tight on it
///   (the conservative [`EDGE_ON_PATH_EPS`] test) — already is the
///   residual row: it is converted once and held exact, with no copy of
///   the distance row.
/// * A **dirty** overlay row is converted and held as a lower bound.
/// * Escalating a row ([`RowSource::escalate`]) derives the exact
///   residual row of a dirty one through [`candidate_row`] into one
///   reusable row buffer, and converts it.
///
/// The greedy reads the store as a [`RowSource`] and escalates only the
/// rows whose bound score can still win; the other methods, and the
/// exact evaluations of the better-response scan, escalate what they
/// read first. An exact row is bit-identical to a fresh `G_{-i}` sweep's,
/// so every answer is bit-identical to [`ResponseOracle`]'s.
pub(crate) struct CandidateRows<'a> {
    game: &'a Game,
    i: usize,
    overlay: Overlay<'a>,
    scratch: &'a mut DijkstraScratch,
    candidates: Vec<usize>,
    /// [`Game::latency_row`] of `i`, borrowed from a dense game.
    d_i: Cow<'a, [f64]>,
    /// Row-major assignment rows, `(n − 1) × (n − 1)`.
    assignment: Vec<f64>,
    held: Vec<Held>,
    /// The residual row [`CandidateRows::make_exact`] derives into.
    residual: Vec<f64>,
    reuse: OracleReuse,
}

impl<'a> CandidateRows<'a> {
    /// An all-unresolved store for `peer` (in bounds, on a game with at
    /// least two peers).
    pub(crate) fn new(
        game: &'a Game,
        peer: PeerId,
        overlay: Overlay<'a>,
        scratch: &'a mut DijkstraScratch,
    ) -> Self {
        let n = game.n();
        let i = peer.index();
        debug_assert!(i < n, "peer {i} out of bounds for {n} peers");
        let m = n - 1;
        CandidateRows {
            game,
            i,
            overlay,
            scratch,
            candidates: candidates_of(n, i),
            d_i: game.latency_row(i),
            assignment: overlay.rows.candidate_buffer(),
            held: vec![Held::Unresolved; m],
            residual: vec![0.0; n],
            reuse: OracleReuse::default(),
        }
    }

    fn width(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when none of `i`'s out-links is tight on overlay row `v`
    /// — the row then already is the residual row.
    fn clean(&self, v: usize) -> bool {
        let cached = self.overlay.rows.row(v);
        let i = self.i;
        let (ts, ws) = self.overlay.csr.out_neighbors(i);
        ts.iter()
            .zip(ws)
            .all(|(&t, &w)| !edge_on_path(cached[i], w, cached[t], EDGE_ON_PATH_EPS))
    }

    /// Holds row `k` at least as a lower bound: exact for free when its
    /// overlay row is clean, otherwise the dirty overlay row, with no
    /// repair.
    fn resolve(&mut self, k: usize) {
        if self.held[k] != Held::Unresolved {
            return;
        }
        let (i, v) = (self.i, self.candidates[k]);
        let m = self.width();
        let out = &mut self.assignment[k * m..(k + 1) * m];
        write_assignment_row(out, i, v, &self.d_i, self.overlay.rows.row(v));
        self.held[k] = if self.clean(v) {
            self.reuse.rows_reused += 1;
            Held::Exact
        } else {
            Held::Lower
        };
    }

    /// Holds every row at least as a lower bound.
    pub(crate) fn resolve_all(&mut self) {
        for k in 0..self.width() {
            self.resolve(k);
        }
    }

    /// Holds row `k` exactly, deriving its residual row through
    /// [`candidate_row`] unless it is already exact.
    fn make_exact(&mut self, k: usize) {
        if self.held[k] == Held::Exact {
            return;
        }
        let (i, v) = (self.i, self.candidates[k]);
        candidate_row(
            self.overlay,
            i,
            v,
            &mut self.residual,
            self.scratch,
            &mut self.reuse,
        );
        let m = self.candidates.len();
        let out = &mut self.assignment[k * m..(k + 1) * m];
        write_assignment_row(out, i, v, &self.d_i, &self.residual);
        self.held[k] = Held::Exact;
    }

    /// Solves the reduction with `method` and spends the store. The
    /// greedy reads it as a [`RowSource`]; every other method first holds
    /// every row exactly and solves the plain instance, so its instance
    /// is the fresh oracle's. Returns the links and cost with the store's
    /// accounting.
    pub(crate) fn solve(
        mut self,
        method: BestResponseMethod,
    ) -> Result<((LinkSet, f64), OracleReuse), CoreError> {
        self.resolve_all();
        let sol = if method == BestResponseMethod::Greedy {
            solve_greedy(&mut self)
        } else {
            for k in 0..self.width() {
                self.make_exact(k);
            }
            let m = self.width();
            let assignment = std::mem::take(&mut self.assignment);
            solve_problem(&reduction_problem(self.game, m, assignment), method)?
        };
        let links: LinkSet = sol.open.iter().map(|&f| self.candidates[f]).collect();
        Ok(((links, sol.cost), self.finish()))
    }

    /// The accounting, with every row still held as a bound counted in
    /// [`OracleReuse::rows_bounded`].
    fn finish(self) -> OracleReuse {
        let mut reuse = self.reuse;
        reuse.rows_bounded = self.held.iter().filter(|&&h| h == Held::Lower).count();
        reuse
    }

    /// `FacilityProblem::cost_of` replicated over the held rows: open
    /// costs accumulate per facility, then one ascending client pass
    /// taking the per-client min over open rows. With every open row
    /// exact the result is bit-identical to [`ResponseOracle::eval`]; with
    /// lower-bound rows it is a lower bound, since per-entry `lower ≤
    /// exact` makes every per-client min and hence the total no larger.
    fn cost_with(&self, open: &[usize]) -> f64 {
        let alpha = self.game.alpha();
        let m = self.width();
        let mut total = 0.0;
        for _ in open {
            total += alpha;
        }
        for c in 0..m {
            let mut best = f64::INFINITY;
            for &k in open {
                debug_assert!(self.held[k] != Held::Unresolved, "open rows are resolved");
                let a = self.assignment[k * m + c];
                if a < best {
                    best = a;
                }
            }
            total += best;
        }
        total
    }

    /// Exact cost of opening `open` (facility positions).
    fn eval_exact(&mut self, open: &[usize]) -> f64 {
        for &k in open {
            self.make_exact(k);
        }
        self.cost_with(open)
    }

    /// Certified lower bound on the cost of opening `open`.
    fn eval_lower(&mut self, open: &[usize]) -> f64 {
        for &k in open {
            self.resolve(k);
        }
        self.cost_with(open)
    }

    fn positions(&self, links: &LinkSet) -> Vec<usize> {
        links
            .iter()
            .map(|p| {
                self.candidates
                    .binary_search(&p.index())
                    .expect("link target must be a valid candidate")
            })
            .collect()
    }
}

impl RowSource for CandidateRows<'_> {
    fn facility_count(&self) -> usize {
        self.width()
    }

    fn client_count(&self) -> usize {
        self.width()
    }

    fn open_cost(&self, _f: usize) -> f64 {
        self.game.alpha()
    }

    fn row(&self, f: usize) -> &[f64] {
        let m = self.width();
        &self.assignment[f * m..(f + 1) * m]
    }

    fn is_exact(&self, f: usize) -> bool {
        self.held[f] == Held::Exact
    }

    fn escalate(&mut self, f: usize) {
        self.make_exact(f);
    }
}

/// Accounting for one [`first_improving_move_lazy`] scan: the row
/// accounting of its [`CandidateRows`] store, plus the bound outcomes
/// unique to the scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LazyScan {
    /// Row accounting (reused / repaired / held as bounds) of the rows
    /// the scan resolved.
    pub(crate) reuse: OracleReuse,
    /// Candidate moves rejected on a certified lower bound alone — no
    /// exact row for the new link target was ever materialised.
    pub(crate) certified_rejects: usize,
    /// Candidate moves whose lower bound passed the improvement test and
    /// therefore paid exact escalation.
    pub(crate) exact_evals: usize,
}

/// The cached better-response scan: [`first_improving_move`] semantics
/// over a [`CandidateRows`] store, behind
/// `GameSession::first_improving_move`.
///
/// Resolving every candidate row up front would convert (and, for a
/// best response, repair) rows that, at high `α`, almost no candidate
/// move needs. This scan resolves rows as moves reach them, rejects
/// candidate adds/swaps on **certified lower bounds** — dirty overlay
/// rows, provably `≤` the exact residual rows — and escalates to exact
/// rows only for candidates whose bound survives the improvement test. Drops evaluate exact directly (their rows are the
/// current links', needed anyway).
///
/// Guarantee: the scan visits moves in the identical drop/add/swap order
/// with the identical improvement predicate as
/// [`ResponseOracle::first_improving_move`], rejection by bound is sound
/// (`bound ≤ exact`, and the predicate is monotone in cost), and every
/// accepted move's cost comes from exact rows — so the returned move (or
/// `None`) is **bit-identical** to the scan over a fresh `G_{-i}`
/// oracle.
pub(crate) fn first_improving_move_lazy(
    profile: &StrategyProfile,
    peer: PeerId,
    mut rows: CandidateRows<'_>,
    tol: f64,
) -> (Option<BestResponse>, LazyScan) {
    let mut scan = LazyScan::default();
    let mv = scan_moves(profile, peer, &mut rows, tol, &mut scan);
    scan.reuse = rows.finish();
    (mv, scan)
}

fn scan_moves(
    profile: &StrategyProfile,
    peer: PeerId,
    rows: &mut CandidateRows<'_>,
    tol: f64,
    scan: &mut LazyScan,
) -> Option<BestResponse> {
    let current = profile.strategy(peer);
    let current_open = rows.positions(current);
    let current_cost = rows.eval_exact(&current_open);
    let improves = |cost: f64| -> bool {
        if cost.is_infinite() {
            return false;
        }
        if current_cost.is_infinite() {
            return true;
        }
        cost < current_cost - tol * (1.0 + current_cost.abs())
    };
    let wrap = |links: LinkSet, cost: f64| BestResponse {
        peer,
        links,
        cost,
        current_cost,
        exact: false,
    };

    // Drops: all rows involved are current-link rows, already exact.
    for j in current.iter() {
        let cand = current.without(j);
        let open = rows.positions(&cand);
        let c = rows.eval_exact(&open);
        if improves(c) {
            return Some(wrap(cand, c));
        }
    }
    // Adds, then swaps: bound first, escalate only on a surviving bound.
    let candidates = rows.candidates.clone();
    let adds = candidates.iter().map(|&v| (None, v));
    let swaps = current
        .iter()
        .flat_map(|j| candidates.iter().map(move |&v| (Some(j), v)));
    for (dropped, v) in adds.chain(swaps) {
        let vp = PeerId::new(v);
        if current.contains(vp) {
            continue;
        }
        let cand = match dropped {
            Some(j) => current.without(j).with(vp),
            None => current.with(vp),
        };
        let open = rows.positions(&cand);
        if !improves(rows.eval_lower(&open)) {
            scan.certified_rejects += 1;
            continue;
        }
        scan.exact_evals += 1;
        let c = rows.eval_exact(&open);
        if improves(c) {
            return Some(wrap(cand, c));
        }
    }
    None
}

/// `peer`'s cached best response to `profile`, read from the frozen
/// `overlay` of that profile — the one body of every cached
/// best-response path, run once per activated peer by
/// `GameSession::best_responses_round` on any thread. The current cost
/// comes from `peer`'s overlay row; the candidate rows from a
/// [`CandidateRows`] store. Returns the response with the store's row
/// accounting.
pub(crate) fn respond(
    game: &Game,
    profile: &StrategyProfile,
    overlay: Overlay<'_>,
    peer: PeerId,
    method: BestResponseMethod,
    scratch: &mut DijkstraScratch,
) -> Result<(BestResponse, OracleReuse), CoreError> {
    let current_cost = cost_from_row(game, profile, peer, overlay.rows.row(peer.index()));
    let rows = CandidateRows::new(game, peer, overlay, scratch);
    let (solved, reuse) = rows.solve(method)?;
    let br = finish_response(profile, peer, method, solved, current_cost);
    Ok((br, reuse))
}

/// Shared tail of every oracle-backed response path: wraps the solved
/// `(links, cost)`, falling back to the current strategy when a
/// heuristic comes out worse.
pub(crate) fn finish_response(
    profile: &StrategyProfile,
    peer: PeerId,
    method: BestResponseMethod,
    (links, cost): (LinkSet, f64),
    current_cost: f64,
) -> BestResponse {
    // sp-lint: allow(float-eps, reason = "conservative accept: a heuristic tie or epsilon-worse solution keeps the current strategy, which is always valid")
    let (links, cost) = if cost > current_cost {
        // Heuristics may come out worse; keeping the current strategy
        // is then the better (valid) response.
        (profile.strategy(peer).clone(), current_cost)
    } else {
        (links, cost)
    };
    BestResponse {
        peer,
        links,
        cost,
        current_cost,
        exact: method.is_exact(),
    }
}

/// Computes `peer`'s best response to `profile` (all other strategies
/// fixed).
///
/// The computation removes `peer`'s out-links, computes residual shortest
/// paths `D(v, j)`, and solves the facility-location instance with opening
/// cost `α` and assignment costs `(d(i,v) + D(v,j)) / d(i,j)` — an *exact*
/// reformulation of the peer's strategy space (shortest paths never
/// revisit the source).
///
/// # Errors
///
/// * [`CoreError::ProfileSizeMismatch`] / [`CoreError::PeerOutOfBounds`]
///   for malformed inputs;
/// * [`CoreError::InstanceTooLarge`] if
///   [`BestResponseMethod::ExactEnumeration`] is asked for more than 25
///   peers.
///
/// # Example
///
/// ```
/// use sp_core::{best_response, BestResponseMethod, Game, PeerId, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 0.5).unwrap();
/// let p = StrategyProfile::empty(3);
/// let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
/// // From the empty profile the peer must link everyone it wants to reach.
/// assert_eq!(br.links.len(), 2);
/// assert!(br.improves(1e-9));
/// ```
pub fn best_response(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
    method: BestResponseMethod,
) -> Result<BestResponse, CoreError> {
    // One-shot wrapper on a throwaway session: the fresh `G_{-i}` oracle
    // (`n - 1` sweeps) beats the cached path here, which would fill all
    // `n` overlay rows first and then drop the cache unread. Hot loops
    // hold a session and get `GameSession::best_response` reuse instead.
    crate::GameSession::from_refs(game, profile)?.best_response_uncached(peer, method)
}

/// Finds the first strictly improving **single-link** move (drop, add, or
/// swap, in that order, targets in ascending order) for `peer`, or `None`
/// if no such move improves by more than the relative tolerance.
///
/// This is the "better response" used by better-response dynamics; it is
/// much cheaper than a full best response and produces the small,
/// incremental topology changes discussed in the paper's Section 5.
///
/// # Errors
///
/// Same conditions as [`best_response`].
pub fn first_improving_move(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
    tol: f64,
) -> Result<Option<BestResponse>, CoreError> {
    if game.n() <= 1 {
        if peer.index() >= game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: game.n(),
            });
        }
        return Ok(None);
    }
    let oracle = ResponseOracle::build(game, profile, peer)?;
    Ok(oracle.first_improving_move(peer, profile.strategy(peer), tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{peer_cost, social_cost};
    use sp_metric::LineSpace;

    fn line_game(alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap(), alpha).unwrap()
    }

    #[test]
    fn oracle_eval_matches_peer_cost() {
        let game = line_game(1.3);
        let p = StrategyProfile::from_links(4, &[(1, 0), (1, 2), (2, 3), (3, 0)]).unwrap();
        let peer = PeerId::new(0);
        let oracle = ResponseOracle::build(&game, &p, peer).unwrap();
        for links in [
            LinkSet::new(),
            [1usize].into_iter().collect::<LinkSet>(),
            [1usize, 3].into_iter().collect::<LinkSet>(),
            LinkSet::all_except(4, peer),
        ] {
            let via_oracle = oracle.eval(&links);
            let deviated = p.with_strategy(peer, links.clone()).unwrap();
            let direct = peer_cost(&game, &deviated, peer).unwrap();
            assert!(
                (via_oracle - direct).abs() < 1e-9
                    || (via_oracle.is_infinite() && direct.is_infinite()),
                "links {links}: oracle {via_oracle} vs direct {direct}"
            );
        }
    }

    #[test]
    fn exact_methods_agree() {
        let game = line_game(0.8);
        let p = StrategyProfile::from_links(4, &[(1, 0), (2, 1), (3, 2)]).unwrap();
        for peer in 0..4 {
            let a = best_response(&game, &p, PeerId::new(peer), BestResponseMethod::Exact).unwrap();
            let b = best_response(
                &game,
                &p,
                PeerId::new(peer),
                BestResponseMethod::ExactEnumeration,
            )
            .unwrap();
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "peer {peer}: {} vs {}",
                a.cost,
                b.cost
            );
        }
    }

    #[test]
    fn best_response_cost_is_deviated_profile_cost() {
        let game = line_game(2.0);
        let p = StrategyProfile::empty(4);
        let br = best_response(&game, &p, PeerId::new(2), BestResponseMethod::Exact).unwrap();
        let deviated = p.with_strategy(PeerId::new(2), br.links.clone()).unwrap();
        let direct = peer_cost(&game, &deviated, PeerId::new(2)).unwrap();
        assert!((br.cost - direct).abs() < 1e-9);
        assert!(br.exact);
        assert!(br.improvement().is_infinite());
    }

    #[test]
    fn heuristics_never_beat_exact() {
        let game = line_game(1.0);
        let p = StrategyProfile::from_links(4, &[(0, 3), (3, 0), (1, 2), (2, 1)]).unwrap();
        for peer in 0..4 {
            let exact =
                best_response(&game, &p, PeerId::new(peer), BestResponseMethod::Exact).unwrap();
            for m in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
                let h = best_response(&game, &p, PeerId::new(peer), m).unwrap();
                assert!(h.cost >= exact.cost - 1e-9);
                assert!(!h.exact);
                // Heuristic responses never exceed the current cost.
                assert!(h.cost <= h.current_cost + 1e-9 || h.current_cost.is_infinite());
            }
        }
    }

    #[test]
    fn single_peer_game_trivial_response() {
        let game = Game::from_space(&LineSpace::new(vec![0.0]).unwrap(), 1.0).unwrap();
        let p = StrategyProfile::empty(1);
        let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
        assert!(br.links.is_empty());
        assert_eq!(br.cost, 0.0);
    }

    #[test]
    fn first_improving_move_connects_isolated_peer() {
        let game = line_game(0.5);
        let p = StrategyProfile::from_links(4, &[(1, 0), (1, 2), (2, 3), (3, 1), (0, 1)]).unwrap();
        // Remove peer 0's link: it becomes disconnected.
        let mut q = p.clone();
        q.set_strategy(PeerId::new(0), LinkSet::new()).unwrap();
        let mv = first_improving_move(&game, &q, PeerId::new(0), 1e-9).unwrap();
        let mv = mv.expect("an isolated peer must want to add a link");
        assert_eq!(mv.links.len(), 1);
        assert!(mv.cost.is_finite());
    }

    #[test]
    fn no_improving_move_in_clear_equilibrium() {
        // Two peers: each must link the other; any change disconnects or
        // adds nothing.
        let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 1.0).unwrap();
        let p = StrategyProfile::complete(2);
        for i in 0..2 {
            assert!(first_improving_move(&game, &p, PeerId::new(i), 1e-9)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn improvement_and_improves_edge_cases() {
        let br = BestResponse {
            peer: PeerId::new(0),
            links: LinkSet::new(),
            cost: f64::INFINITY,
            current_cost: f64::INFINITY,
            exact: true,
        };
        assert_eq!(br.improvement(), 0.0);
        assert!(!br.improves(1e-9));
        let br2 = BestResponse {
            cost: 5.0,
            current_cost: f64::INFINITY,
            ..br.clone()
        };
        assert!(br2.improves(1e-9));
        assert!(br2.improvement().is_infinite());
        let br3 = BestResponse {
            cost: 5.0,
            current_cost: 5.0 + 1e-12,
            ..br.clone()
        };
        assert!(!br3.improves(1e-9));
    }

    #[test]
    fn best_response_reduces_social_cost_when_played() {
        // Sanity: a strictly improving response strictly lowers the
        // deviating peer's cost (social cost may move either way).
        let game = line_game(0.5);
        let p = StrategyProfile::empty(4);
        let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
        assert!(br.improves(1e-9));
        let q = p.with_strategy(PeerId::new(0), br.links.clone()).unwrap();
        let _ = social_cost(&game, &q).unwrap();
        assert!(peer_cost(&game, &q, PeerId::new(0)).unwrap() < f64::INFINITY);
    }
}
