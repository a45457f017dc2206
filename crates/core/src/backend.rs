//! The two distance backends behind [`GameSession`].
//!
//! Every cost in the locality game is stretch-based, so the session's
//! real job is answering overlay-distance queries and keeping those
//! answers valid while the profile mutates. A session holds one of two
//! backends, dispatched statically by a closed enum:
//!
//! * **dense** — the exact `OracleCache`: the overlay distance matrix
//!   with per-row validity, from which best-response oracles derive
//!   their residual rows by subtree repair. **The default.**
//! * [`SparseBackend`] — landmark distance
//!   sketches with certified upper/lower bounds, exact bounded-radius
//!   sweeps for near rows, and metric-window candidate pruning.
//!   `O(n · (landmarks + degree + window))` memory; never materialises
//!   an `n × n` matrix unless the escape hatch is called.
//!
//! Both backends repair their cached rows through the **same**
//! discipline — the [`sp_graph::edge_on_path`] tightness predicate
//! decides which rows a removal touches, and additions fold in by
//! decrease-only relaxation — so the backends cannot drift apart.
//!
//! # Choosing a mode
//!
//! Use **dense** (the default, [`GameSession::new`]) when `n` is at most
//! a few thousand: every query is exact, equilibrium checks are
//! authoritative, and the `8n²`-byte matrix is affordable. Use
//! **sparse** ([`GameSession::new_sparse`]) for large instances driven
//! by better-response dynamics: `local_response` evaluates only moves a
//! peer could plausibly want (metric-window candidates, bounded-ball
//! evaluation, sketch estimates for far demand), while `is_nash` /
//! `nash_gap` / `best_response` remain **certified** — they fall back to
//! exact per-peer `G_{-i}` sweeps (`O(n)` memory at a time), so sparse
//! verdicts are never heuristic. The cost readouts (`social_cost`,
//! `all_peer_costs`, `max_stretch`) sweep one transient row per peer —
//! `n` sweeps, `O(n)` memory. `overlay_distances`, which inherently
//! returns the full matrix, materialises the one documented transient
//! escape hatch, meant for small-instance debugging only; the owned
//! matrix `stretch_matrix` returns is `n²` too, but the session keeps
//! no copy of it.
//!
//! [`GameSession`]: crate::GameSession
//! [`GameSession::new`]: crate::GameSession::new
//! [`GameSession::new_sparse`]: crate::GameSession::new_sparse

use crate::oracle_cache::OracleCache;
use crate::sparse::SparseBackend;

/// Which evaluation backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendMode {
    /// Exact dense evaluation over the full overlay distance matrix.
    Dense,
    /// Landmark-sketch evaluation with certified bounds and exact
    /// fallbacks; `O(n)`-per-row memory.
    Sparse,
}

impl BackendMode {
    /// The wire name used by `sp-serve` (`"dense"` / `"sparse"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendMode::Dense => "dense",
            BackendMode::Sparse => "sparse",
        }
    }
}

/// The backend a session actually holds: a closed enum (not a trait
/// object) so the dense hot path keeps static dispatch and the borrow
/// checker can reason field-granularly.
#[derive(Debug, Clone)]
pub(crate) enum SessionBackend {
    Dense(OracleCache),
    Sparse(Box<SparseBackend>),
}

impl SessionBackend {
    pub(crate) fn mode(&self) -> BackendMode {
        match self {
            SessionBackend::Dense(_) => BackendMode::Dense,
            SessionBackend::Sparse(_) => BackendMode::Sparse,
        }
    }

    /// Semantic bytes of cached distance state (deterministic across
    /// machines; the `sp-serve` registry budgets sessions with it).
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            SessionBackend::Dense(c) => c.memory_bytes(),
            SessionBackend::Sparse(b) => b.memory_bytes(),
        }
    }

    /// Drops every cached row or sketch (profile replaced wholesale).
    pub(crate) fn invalidate(&mut self) {
        match self {
            SessionBackend::Dense(c) => c.invalidate_all(),
            SessionBackend::Sparse(b) => b.invalidate(),
        }
    }

    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, SessionBackend::Sparse(_))
    }

    /// The dense cache; internal dense-only code paths reach it through
    /// here after mode routing has already happened.
    pub(crate) fn dense(&self) -> &OracleCache {
        match self {
            SessionBackend::Dense(c) => c,
            SessionBackend::Sparse(_) => {
                unreachable!("dense cache requested from a sparse session (routing bug)")
            }
        }
    }

    /// Mutable twin of [`SessionBackend::dense`].
    pub(crate) fn dense_mut(&mut self) -> &mut OracleCache {
        match self {
            SessionBackend::Dense(c) => c,
            SessionBackend::Sparse(_) => {
                unreachable!("dense cache requested from a sparse session (routing bug)")
            }
        }
    }

    /// The sparse state; same routing contract as [`SessionBackend::dense`].
    pub(crate) fn sparse(&self) -> &SparseBackend {
        match self {
            SessionBackend::Sparse(b) => b,
            SessionBackend::Dense(_) => {
                unreachable!("sparse state requested from a dense session (routing bug)")
            }
        }
    }

    /// Mutable twin of [`SessionBackend::sparse`].
    pub(crate) fn sparse_mut(&mut self) -> &mut SparseBackend {
        match self {
            SessionBackend::Sparse(b) => b,
            SessionBackend::Dense(_) => {
                unreachable!("sparse state requested from a dense session (routing bug)")
            }
        }
    }

    /// The most recently materialised exact distance row for source `u`,
    /// whichever backend holds it: the dense overlay row (must be valid)
    /// or the sparse transient row buffer (must have been computed for
    /// `u` since the last mutation).
    pub(crate) fn stored_row(&self, u: usize) -> &[f64] {
        match self {
            SessionBackend::Dense(c) => c.row(u),
            SessionBackend::Sparse(b) => b.row_ref(u),
        }
    }
}
