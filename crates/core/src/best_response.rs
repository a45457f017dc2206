use sp_facility::{
    solve_branch_and_bound, solve_enumeration, solve_greedy, solve_local_search, FacilityError,
    FacilityProblem,
};
use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch, DistanceMatrix};

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
    /// with the same answer, bit for bit, as scoring every candidate.
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

/// How a cached oracle path sourced its candidate rows: overlay rows
/// reused verbatim or repaired by [`CsrGraph::dijkstra_without`], or
/// rows whose overlay row first had to be swept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OracleReuse {
    /// Candidate rows served verbatim from a valid overlay row.
    pub(crate) rows_reused: usize,
    /// Candidate rows repaired from a valid but dirty overlay row.
    pub(crate) rows_repaired: usize,
    /// Candidate rows whose overlay row was invalid and paid a full
    /// sweep (kept in the cache) before the repair.
    pub(crate) rows_swept: usize,
}

/// The overlay CSR and its transpose — the graphs the cached oracle
/// paths turn overlay rows into residual rows against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Overlay<'a> {
    pub(crate) csr: &'a CsrGraph,
    pub(crate) transpose: &'a CsrGraph,
}

/// Writes the exact residual row `D_{G_{-i}}(v, ·)` for candidate `v`
/// into `out` (length `n`) — the one row-sourcing policy of every cached
/// oracle path: make the overlay row `d_G(v, ·)` valid
/// ([`OracleCache::ensure_row`], a full sweep only when it was invalid),
/// then copy it into `out` and hand that to
/// [`CsrGraph::dijkstra_without`]. When none of `i`'s out-links is tight
/// on it (the conservative [`EDGE_ON_PATH_EPS`] test) it already is the
/// residual row and is reused verbatim; otherwise only the subtree below
/// `i`'s tight out-links is recomputed.
fn candidate_row(
    overlay: Overlay<'_>,
    cache: &mut OracleCache,
    i: usize,
    v: usize,
    out: &mut [f64],
    scratch: &mut DijkstraScratch,
    reuse: &mut OracleReuse,
) {
    let swept = cache.ensure_row(overlay.csr, v, scratch);
    out.copy_from_slice(cache.row(v));
    let affected =
        overlay
            .csr
            .dijkstra_without(overlay.transpose, v, i, EDGE_ON_PATH_EPS, out, scratch);
    if swept {
        reuse.rows_swept += 1;
    } else if affected == 0 {
        reuse.rows_reused += 1;
    } else {
        reuse.rows_repaired += 1;
    }
}

/// The row `d(i, ·)` of the latency matrix, read once per oracle so the
/// row conversions below index a slice instead of the metric.
fn latency_row(game: &Game, i: usize) -> Vec<f64> {
    (0..game.n()).map(|j| game.distance(i, j)).collect()
}

/// Appends one facility row of the reduction to `out`: the assignment
/// costs `(d(i, v) + D(v, j)) / d(i, j)` over the clients `j ≠ i` in
/// ascending order, which is the candidate order. `d_i` is
/// [`latency_row`]`(game, i)`.
fn push_assignment_row(out: &mut Vec<f64>, i: usize, v: usize, d_i: &[f64], residual: &[f64]) {
    let d_iv = d_i[v];
    for (res, lat) in [
        (&residual[..i], &d_i[..i]),
        (&residual[i + 1..], &d_i[i + 1..]),
    ] {
        out.extend(res.iter().zip(lat).map(|(&r, &d)| (d_iv + r) / d));
    }
}

/// One facility row of the reduction as its own vector (the lazy scan's
/// per-candidate rows).
fn assignment_row(i: usize, v: usize, d_i: &[f64], residual: &[f64]) -> Vec<f64> {
    let mut row = Vec::with_capacity(d_i.len() - 1);
    push_assignment_row(&mut row, i, v, d_i, residual);
    row
}

/// The reduction's UFL instance from its row-major assignment buffer:
/// every candidate link opens at `α`.
fn reduction_problem(game: &Game, facilities: usize, assignment: Vec<f64>) -> FacilityProblem {
    FacilityProblem::from_flat(vec![game.alpha(); facilities], facilities, assignment)
        .expect("reduction produces non-negative costs by construction")
}

/// The best-response reduction: candidate links as facilities, other peers
/// as clients. Built once per (profile, peer) and reusable for evaluating
/// arbitrary candidate strategies cheaply.
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
        let candidates: Vec<usize> = (0..n).filter(|&v| v != i).collect();
        let d_i = latency_row(game, i);
        let mut assignment = Vec::with_capacity(candidates.len() * candidates.len());
        for &v in &candidates {
            let buf = csr.dijkstra_row_with(v, scratch);
            push_assignment_row(&mut assignment, i, v, &d_i, buf);
        }
        let problem = reduction_problem(game, candidates.len(), assignment);
        Ok(ResponseOracle {
            candidates,
            problem,
        })
    }

    /// Like [`ResponseOracle::build_with`], but derives every candidate
    /// row from the persistent [`OracleCache`] through
    /// [`candidate_row`] instead of sweeping `G_{-i}` from every
    /// candidate: the valid overlay row `d_G(v, ·)` is turned into the
    /// residual row `D_{G_{-i}}(v, ·)` by [`CsrGraph::dijkstra_without`]
    /// on `overlay` — verbatim when no out-link of `i` is tight on it
    /// (the same conservative [`EDGE_ON_PATH_EPS`] test the cache's
    /// removal repair uses), otherwise by recomputing only the
    /// shortest-path subtree below `i`'s tight out-links.
    ///
    /// Every row is exact, so the oracle is bit-identical to
    /// [`ResponseOracle::build_with`]. `GameSession` makes every overlay
    /// row valid before calling this, so no row pays a sweep here.
    /// Residual row `v` is written to row `v` of `residual`, the
    /// caller's `n × n` buffer from [`OracleCache::residual_buffer`]
    /// (row `i` is left as it was), so a played response can become the
    /// new overlay matrix without re-deriving them. Returns the oracle
    /// plus the per-row accounting.
    pub(crate) fn build_from_cache(
        game: &Game,
        peer: PeerId,
        overlay: Overlay<'_>,
        cache: &mut OracleCache,
        residual: &mut DistanceMatrix,
        scratch: &mut DijkstraScratch,
    ) -> Result<(Self, OracleReuse), CoreError> {
        let n = game.n();
        if peer.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n,
            });
        }
        let i = peer.index();
        let candidates: Vec<usize> = (0..n).filter(|&v| v != i).collect();
        let mut reuse = OracleReuse::default();
        let d_i = latency_row(game, i);
        let mut assignment = Vec::with_capacity(candidates.len() * candidates.len());
        for &v in &candidates {
            let row = residual.row_mut(v);
            candidate_row(overlay, cache, i, v, row, scratch, &mut reuse);
            push_assignment_row(&mut assignment, i, v, &d_i, row);
        }
        let problem = reduction_problem(game, candidates.len(), assignment);
        Ok((
            ResponseOracle {
                candidates,
                problem,
            },
            reuse,
        ))
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
        let sol = match method {
            BestResponseMethod::Exact => solve_branch_and_bound(&self.problem),
            BestResponseMethod::ExactEnumeration => {
                solve_enumeration(&self.problem).map_err(|e| match e {
                    FacilityError::TooManyFacilities { facilities, limit } => {
                        CoreError::InstanceTooLarge {
                            n: facilities + 1,
                            limit: limit + 1,
                        }
                    }
                    other => panic!("unexpected facility error: {other}"),
                })?
            }
            BestResponseMethod::Greedy => solve_greedy(&self.problem),
            BestResponseMethod::LocalSearch => solve_local_search(&self.problem, None),
        };
        let links: LinkSet = sol.open.iter().map(|&f| self.candidates[f]).collect();
        Ok((links, sol.cost))
    }

    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }
}

/// Accounting for one [`first_improving_move_lazy`] scan: the exact-row
/// sourcing it shares with [`ResponseOracle::build_from_cache`], plus
/// the bound outcomes unique to the lazy path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LazyScan {
    /// Exact-row accounting (overlay reuse / repairs / sweeps).
    pub(crate) reuse: OracleReuse,
    /// Candidate moves rejected on a certified lower bound alone — no
    /// exact row for the new link target was ever materialised.
    pub(crate) certified_rejects: usize,
    /// Candidate moves whose lower bound passed the improvement test and
    /// therefore paid exact escalation.
    pub(crate) exact_evals: usize,
}

/// A candidate row in the lazy scan, already assignment-converted
/// (`(d_iv + D(v, j)) / d_met(i, j)` over client positions).
enum LazyRow {
    /// Not yet touched by any evaluation.
    Unresolved,
    /// A certified **lower bound** on the exact assignment row: either a
    /// valid-but-dirty overlay row (`d_G(v, ·) ≤ D_{G_{-i}}(v, ·)` since
    /// removing `i`'s links only lengthens paths) or the metric row
    /// (`d_met(v, ·) ≤ D_{G_{-i}}(v, ·)` by the triangle inequality).
    Lower(Vec<f64>),
    /// The exact residual assignment row, from the same
    /// [`candidate_row`] policy as [`ResponseOracle::build_from_cache`].
    Exact(Vec<f64>),
}

/// Lazily resolved candidate rows for one `(profile, peer)` scan.
///
/// Unlike [`ResponseOracle::build_from_cache`], which materialises every
/// candidate row up front (and therefore repairs every row a move by a
/// hub peer dirtied), this store resolves rows to the *weakest
/// sufficient form*: certified lower bounds serve rejection, and only
/// candidates whose bound survives the improvement test pay for exact
/// rows. Every exact row comes from the same [`candidate_row`] policy as
/// the full build and is bit-identical to a fresh `G_{-i}` sweep, so any
/// move this scan **accepts** is bit-identical (same links, same cost)
/// to the fresh oracle's acceptance.
struct LazyRows<'a> {
    game: &'a Game,
    peer: PeerId,
    overlay: Overlay<'a>,
    candidates: Vec<usize>,
    /// [`latency_row`] of `peer`.
    d_i: Vec<f64>,
    rows: Vec<LazyRow>,
    /// Row buffer for [`candidate_row`].
    buf: Vec<f64>,
}

impl<'a> LazyRows<'a> {
    fn new(game: &'a Game, peer: PeerId, overlay: Overlay<'a>) -> Self {
        let i = peer.index();
        let candidates: Vec<usize> = (0..game.n()).filter(|&v| v != i).collect();
        let rows = (0..candidates.len()).map(|_| LazyRow::Unresolved).collect();
        LazyRows {
            game,
            peer,
            overlay,
            candidates,
            d_i: latency_row(game, i),
            rows,
            buf: vec![0.0; game.n()],
        }
    }

    fn assign(&self, v: usize, residual: &[f64]) -> Vec<f64> {
        assignment_row(self.peer.index(), v, &self.d_i, residual)
    }

    /// `true` when no out-link of `peer` is tight on overlay row `v`
    /// (caller guarantees validity) — the row then already is the
    /// residual row.
    fn overlay_clean(&self, cache: &OracleCache, v: usize) -> bool {
        let i = self.peer.index();
        let cached = cache.row(v);
        let (ts, ws) = self.overlay.csr.out_neighbors(i);
        ts.iter()
            .zip(ws)
            .all(|(&t, &w)| !edge_on_path(cached[i], w, cached[t], EDGE_ON_PATH_EPS))
    }

    /// Ensures `rows[k]` holds at least a certified lower bound. A clean
    /// overlay row is exact for free (the same `O(n)` conversion);
    /// otherwise a valid-but-dirty overlay row, and failing that the
    /// metric row, serve as the bound — neither pays a repair or a sweep.
    fn ensure_bound(&mut self, k: usize, cache: &OracleCache, scan: &mut LazyScan) {
        if !matches!(self.rows[k], LazyRow::Unresolved) {
            return;
        }
        let v = self.candidates[k];
        let valid = cache.row_is_valid(v);
        if valid && self.overlay_clean(cache, v) {
            scan.reuse.rows_reused += 1;
            self.rows[k] = LazyRow::Exact(self.assign(v, cache.row(v)));
            return;
        }
        let lower = if valid {
            // Valid but dirty: a lower bound on the residual row.
            self.assign(v, cache.row(v))
        } else {
            // Metric lower bound: `D_{G_{-i}}(v, j) ≥ d_met(v, j)`.
            let metric: Vec<f64> = (0..self.game.n())
                .map(|j| self.game.distance(v, j))
                .collect();
            self.assign(v, &metric)
        };
        self.rows[k] = LazyRow::Lower(lower);
    }

    /// Ensures `rows[k]` is exact, through the same [`candidate_row`]
    /// policy as the full build (sweeping the overlay row only when it is
    /// invalid, then repairing it).
    fn ensure_exact(
        &mut self,
        k: usize,
        cache: &mut OracleCache,
        scratch: &mut DijkstraScratch,
        scan: &mut LazyScan,
    ) {
        if matches!(self.rows[k], LazyRow::Exact(_)) {
            return;
        }
        let i = self.peer.index();
        let v = self.candidates[k];
        candidate_row(
            self.overlay,
            cache,
            i,
            v,
            &mut self.buf,
            scratch,
            &mut scan.reuse,
        );
        self.rows[k] = LazyRow::Exact(assignment_row(i, v, &self.d_i, &self.buf));
    }

    /// `FacilityProblem::cost_of` replicated over the lazy rows: open
    /// costs accumulate per facility, then one ascending client pass
    /// taking the per-client min over open rows. With all-exact rows the
    /// result is bit-identical to [`ResponseOracle::eval`].
    fn cost_with(&self, open: &[usize]) -> f64 {
        let alpha = self.game.alpha();
        let mut total = 0.0;
        for _ in open {
            total += alpha;
        }
        for c in 0..self.candidates.len() {
            let mut best = f64::INFINITY;
            for &k in open {
                let row = match &self.rows[k] {
                    LazyRow::Lower(r) | LazyRow::Exact(r) => r,
                    LazyRow::Unresolved => unreachable!("open rows are resolved before eval"),
                };
                let a = row[c];
                if a < best {
                    best = a;
                }
            }
            total += best;
        }
        total
    }

    /// Exact cost of opening `open` (facility positions).
    fn eval_exact(
        &mut self,
        open: &[usize],
        cache: &mut OracleCache,
        scratch: &mut DijkstraScratch,
        scan: &mut LazyScan,
    ) -> f64 {
        for &k in open {
            self.ensure_exact(k, cache, scratch, scan);
        }
        self.cost_with(open)
    }

    /// Certified lower bound on the cost of opening `open`: per-entry
    /// `lower ≤ exact` makes every per-client min and hence the total a
    /// lower bound, so a bound that fails the improvement test certifies
    /// the exact cost fails it too.
    fn eval_lower(&mut self, open: &[usize], cache: &OracleCache, scan: &mut LazyScan) -> f64 {
        for &k in open {
            self.ensure_bound(k, cache, scan);
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

/// The cached better-response scan: [`first_improving_move`] semantics
/// with per-candidate row resolution, behind
/// `GameSession::first_improving_move`.
///
/// Building a full oracle ([`ResponseOracle::build_from_cache`]) would
/// materialise **every** candidate row before evaluating a single move,
/// so one hub move that dirties most overlay rows would force ~`n` row
/// repairs on the next scan even though (at high `α`) almost every
/// candidate move is hopeless. This scan rejects candidate adds/swaps on
/// **certified lower bounds** — dirty overlay rows and metric rows, both
/// provably `≤` the exact residual rows — and escalates to exact rows
/// only for candidates whose bound survives the improvement test. Drops
/// evaluate exact directly (their rows are the current links', needed
/// anyway).
///
/// Guarantee: the scan visits moves in the identical drop/add/swap order
/// with the identical improvement predicate as
/// [`ResponseOracle::first_improving_move`], rejection by bound is sound
/// (`bound ≤ exact`, and the predicate is monotone in cost), and every
/// accepted move's cost comes from exact rows — so the returned move (or
/// `None`) is **bit-identical** to the scan over a fresh `G_{-i}`
/// oracle.
pub(crate) fn first_improving_move_lazy(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
    overlay: Overlay<'_>,
    cache: &mut OracleCache,
    scratch: &mut DijkstraScratch,
    tol: f64,
) -> Result<(Option<BestResponse>, LazyScan), CoreError> {
    let n = game.n();
    if peer.index() >= n {
        return Err(CoreError::PeerOutOfBounds {
            peer: peer.index(),
            n,
        });
    }
    let mut scan = LazyScan::default();
    let mut rows = LazyRows::new(game, peer, overlay);
    let current = profile.strategy(peer);
    let current_open = rows.positions(current);
    let current_cost = rows.eval_exact(&current_open, cache, scratch, &mut scan);
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
        let c = rows.eval_exact(&open, cache, scratch, &mut scan);
        if improves(c) {
            return Ok((Some(wrap(cand, c)), scan));
        }
    }
    // Adds: bound first, escalate only on a surviving bound.
    let candidates = rows.candidates.clone();
    for &v in &candidates {
        let vp = PeerId::new(v);
        if current.contains(vp) {
            continue;
        }
        let cand = current.with(vp);
        let open = rows.positions(&cand);
        let lb = rows.eval_lower(&open, cache, &mut scan);
        if !improves(lb) {
            scan.certified_rejects += 1;
            continue;
        }
        scan.exact_evals += 1;
        let c = rows.eval_exact(&open, cache, scratch, &mut scan);
        if improves(c) {
            return Ok((Some(wrap(cand, c)), scan));
        }
    }
    // Swaps.
    for j in current.iter() {
        for &v in &candidates {
            let vp = PeerId::new(v);
            if current.contains(vp) {
                continue;
            }
            let cand = current.without(j).with(vp);
            let open = rows.positions(&cand);
            let lb = rows.eval_lower(&open, cache, &mut scan);
            if !improves(lb) {
                scan.certified_rejects += 1;
                continue;
            }
            scan.exact_evals += 1;
            let c = rows.eval_exact(&open, cache, scratch, &mut scan);
            if improves(c) {
                return Ok((Some(wrap(cand, c)), scan));
            }
        }
    }
    Ok((None, scan))
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
