//! The typed sp-serve wire protocol.
//!
//! One set of types — [`Request`], [`Response`], [`WireError`] — is the
//! protocol, and [`binary`] is its one serialization. The server, the
//! load generator, and the single-threaded reference executor all
//! dispatch on these enums, so "the concurrent server answers
//! bit-identically to the reference" is a statement about the encoded
//! bytes of typed values.
//!
//! # The handshake
//!
//! Frames are length-prefixed payloads. A connection's first frame is
//! the JSON `{"op":"hello","proto":2}` ([`hello`]); the server answers
//! in JSON and both sides speak the binary codec from then on. Any
//! other first frame — a protocol-1 request, another version, bytes
//! that are not JSON — is answered with a typed JSON reject
//! ([`ErrorCode::BadProto`] or [`ErrorCode::BadFrame`]) before the
//! connection closes, never with a silent close.
//!
//! # Error taxonomy
//!
//! Every failure carries a stable machine-readable [`ErrorCode`] beside
//! its human-readable message: a single byte in the binary codec, a
//! `"code"` string in the hello's JSON reject.

#![forbid(unsafe_code)]

use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};
use sp_dynamics::Termination;

pub mod binary;
pub mod hello;

/// The protocol version a connection's hello must ask for: the compact
/// binary codec.
pub const PROTO_BINARY: u8 = 2;

/// Largest session-name length the service accepts.
pub const MAX_NAME_LEN: usize = 64;

/// Stable operation codes. The numeric values are the binary codec's
/// on-wire tags and the README's op-code table; the names label trace
/// spans and latency histograms. Neither may change once released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Version negotiation (first frame only).
    Hello = 0x01,
    /// Liveness probe, answered inline.
    Ping = 0x02,
    /// Registry counters, answered inline.
    Stats = 0x03,
    /// Create a session from an embedded game spec.
    Create = 0x10,
    /// Explicitly restore a session from its snapshot file.
    Load = 0x11,
    /// Apply one move.
    Apply = 0x12,
    /// Apply a batch of moves as one cache transaction.
    ApplyBatch = 0x13,
    /// Best response of one peer against the frozen rest.
    BestResponse = 0x14,
    /// Largest unilateral improvement over all peers.
    NashGap = 0x15,
    /// Social cost of the current profile.
    SocialCost = 0x16,
    /// Maximum stretch of the current profile.
    Stretch = 0x17,
    /// Run sequential dynamics in-place.
    RunDynamics = 0x18,
    /// Persist the session, keeping it resident.
    Snapshot = 0x19,
    /// Persist the session and drop it from memory.
    Evict = 0x1A,
    /// Read the session's WAL head: record count + chain head hash.
    WalHead = 0x1B,
    /// Re-scan the session's WAL, verifying CRCs and the hash chain.
    WalVerify = 0x1C,
    /// Server-side metrics snapshot, answered inline.
    Metrics = 0x1D,
    /// Last-N completed request spans with phase breakdowns, answered
    /// inline (opt-in slow-threshold filter).
    TraceTail = 0x1E,
}

impl OpCode {
    /// The op's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Hello => "hello",
            OpCode::Ping => "ping",
            OpCode::Stats => "stats",
            OpCode::Create => "create",
            OpCode::Load => "load",
            OpCode::Apply => "apply",
            OpCode::ApplyBatch => "apply_batch",
            OpCode::BestResponse => "best_response",
            OpCode::NashGap => "nash_gap",
            OpCode::SocialCost => "social_cost",
            OpCode::Stretch => "stretch",
            OpCode::RunDynamics => "run_dynamics",
            OpCode::Snapshot => "snapshot",
            OpCode::Evict => "evict",
            OpCode::WalHead => "wal_head",
            OpCode::WalVerify => "wal_verify",
            OpCode::Metrics => "metrics",
            OpCode::TraceTail => "trace_tail",
        }
    }

    /// Inverse of the `repr(u8)` value (the binary tag).
    #[must_use]
    pub fn from_u8(tag: u8) -> Option<OpCode> {
        Some(match tag {
            0x01 => OpCode::Hello,
            0x02 => OpCode::Ping,
            0x03 => OpCode::Stats,
            0x10 => OpCode::Create,
            0x11 => OpCode::Load,
            0x12 => OpCode::Apply,
            0x13 => OpCode::ApplyBatch,
            0x14 => OpCode::BestResponse,
            0x15 => OpCode::NashGap,
            0x16 => OpCode::SocialCost,
            0x17 => OpCode::Stretch,
            0x18 => OpCode::RunDynamics,
            0x19 => OpCode::Snapshot,
            0x1A => OpCode::Evict,
            0x1B => OpCode::WalHead,
            0x1C => OpCode::WalVerify,
            0x1D => OpCode::Metrics,
            0x1E => OpCode::TraceTail,
            _ => return None,
        })
    }
}

/// Stable error codes — the machine-readable half of every error
/// response. `repr(u8)` values are the binary codec's bytes; the
/// strings are the hello reject's `"code"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The envelope itself is malformed (no `op`, not an object, …).
    BadRequest = 1,
    /// The `op` is not part of the protocol.
    UnknownOp = 2,
    /// A required field is missing or has the wrong shape.
    BadField = 3,
    /// The session name violates the naming rules.
    BadName = 4,
    /// The embedded game spec is invalid.
    BadSpec = 5,
    /// `create` on a name that already exists.
    SessionExists = 6,
    /// A session op addressed a name that was never created.
    UnknownSession = 7,
    /// The evaluation engine rejected the operation.
    Core = 8,
    /// Snapshot/restore I/O failed.
    Io = 9,
    /// The service is shutting down.
    Shutdown = 10,
    /// Unsupported or malformed version negotiation.
    BadProto = 11,
    /// The frame payload could not be decoded at all.
    BadFrame = 12,
    /// The write-ahead log failed verification (CRC or hash chain).
    ChainBroken = 13,
}

impl ErrorCode {
    /// The code's name (the hello reject's `"code"` string).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::BadField => "bad_field",
            ErrorCode::BadName => "bad_name",
            ErrorCode::BadSpec => "bad_spec",
            ErrorCode::SessionExists => "session_exists",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::Core => "core",
            ErrorCode::Io => "io",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::BadProto => "bad_proto",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::ChainBroken => "chain_broken",
        }
    }

    /// Inverse of the `repr(u8)` value.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::BadField,
            4 => ErrorCode::BadName,
            5 => ErrorCode::BadSpec,
            6 => ErrorCode::SessionExists,
            7 => ErrorCode::UnknownSession,
            8 => ErrorCode::Core,
            9 => ErrorCode::Io,
            10 => ErrorCode::Shutdown,
            11 => ErrorCode::BadProto,
            12 => ErrorCode::BadFrame,
            13 => ErrorCode::ChainBroken,
            _ => return None,
        })
    }
}

/// A typed protocol error: stable code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error from a code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.code.as_str())
    }
}

/// A decode failure, carrying whatever request `id` could still be
/// extracted so the error response can echo it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The request id, when the decoder got far enough to read it.
    pub id: Option<u64>,
    /// The failure itself.
    pub error: WireError,
}

/// The geometry of an embedded game spec — exactly one representation,
/// by construction (a spec cannot name two geometries or none).
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// Points on a line, by coordinate.
    Line(Vec<f64>),
    /// Points in the Euclidean plane.
    Points2D(Vec<(f64, f64)>),
    /// An explicit distance matrix, row-major (squareness is validated
    /// when the game is built).
    Matrix(Vec<Vec<f64>>),
}

/// An embedded game spec: the payload of a `create` request.
#[derive(Debug, Clone, PartialEq)]
pub struct GameSpec {
    /// Link cost coefficient.
    pub alpha: f64,
    /// The metric the peers live in.
    pub geometry: Geometry,
    /// Initial directed links; empty means the empty profile.
    pub links: Vec<(usize, usize)>,
    /// Evaluation backend.
    pub mode: BackendMode,
}

/// The update rule of a `run_dynamics` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicsRule {
    /// First improving single-link change per activation.
    Better,
    /// Best response computed with the given method.
    Best(BestResponseMethod),
}

/// The engine knobs a `run_dynamics` request may override; `None`
/// means "engine default". Kept optional (rather than resolved) so a
/// request round-trips the codec without losing which fields were
/// explicit.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsSpec {
    /// Update rule.
    pub rule: DynamicsRule,
    /// Round cap.
    pub max_rounds: Option<usize>,
    /// Relative improvement threshold.
    pub tolerance: Option<f64>,
    /// Whether to detect state revisits.
    pub detect_cycles: Option<bool>,
}

/// The session-targeted operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Create the session from an embedded game spec.
    Create(GameSpec),
    /// Ensure the session is resident (explicit cold start).
    Load,
    /// Apply one move.
    Apply {
        /// The move.
        mv: Move,
    },
    /// Apply a batch of moves as one cache transaction.
    ApplyBatch {
        /// The moves, in order.
        moves: Vec<Move>,
    },
    /// Best response of one peer against the frozen rest.
    BestResponse {
        /// The responding peer.
        peer: PeerId,
        /// UFL solve method.
        method: BestResponseMethod,
    },
    /// Largest unilateral improvement over all peers.
    NashGap {
        /// UFL solve method.
        method: BestResponseMethod,
    },
    /// Social cost of the current profile.
    SocialCost,
    /// Maximum stretch of the current profile.
    Stretch,
    /// Run sequential dynamics in-place on the session.
    RunDynamics(DynamicsSpec),
    /// Persist the session to its snapshot file, keeping it resident.
    Snapshot,
    /// Persist the session and drop it from memory.
    Evict,
    /// Read the session's WAL head (record count + chain head hash).
    WalHead,
    /// Re-scan the session's WAL, verifying every CRC and chain link.
    WalVerify,
}

impl SessionOp {
    /// The op's stable code.
    #[must_use]
    pub fn code(&self) -> OpCode {
        match self {
            SessionOp::Create(_) => OpCode::Create,
            SessionOp::Load => OpCode::Load,
            SessionOp::Apply { .. } => OpCode::Apply,
            SessionOp::ApplyBatch { .. } => OpCode::ApplyBatch,
            SessionOp::BestResponse { .. } => OpCode::BestResponse,
            SessionOp::NashGap { .. } => OpCode::NashGap,
            SessionOp::SocialCost => OpCode::SocialCost,
            SessionOp::Stretch => OpCode::Stretch,
            SessionOp::RunDynamics(_) => OpCode::RunDynamics,
            SessionOp::Snapshot => OpCode::Snapshot,
            SessionOp::Evict => OpCode::Evict,
            SessionOp::WalHead => OpCode::WalHead,
            SessionOp::WalVerify => OpCode::WalVerify,
        }
    }

    /// Whether the op changes the session's logical state (profile or
    /// existence) — what decides if a later spill must rewrite the file.
    #[must_use]
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            SessionOp::Create(_)
                | SessionOp::Apply { .. }
                | SessionOp::ApplyBatch { .. }
                | SessionOp::RunDynamics(_)
        )
    }

    /// Whether the op is recorded in the session's write-ahead log.
    /// Broader than [`SessionOp::is_mutating`]: `load` and `evict` do
    /// not dirty the snapshot, but they are lifecycle transitions the
    /// audit chain must witness — a verifier replaying the log has to
    /// see the same residency history the service acknowledged.
    #[must_use]
    pub fn is_wal_logged(&self) -> bool {
        matches!(
            self,
            SessionOp::Create(_)
                | SessionOp::Load
                | SessionOp::Apply { .. }
                | SessionOp::ApplyBatch { .. }
                | SessionOp::RunDynamics(_)
                | SessionOp::Evict
        )
    }
}

/// A session-targeted request: id, session name, operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Echoed back in the response envelope.
    pub id: Option<u64>,
    /// The session the request addresses.
    pub session: String,
    /// What to do.
    pub op: SessionOp,
}

/// One request frame, fully typed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A binary hello. Negotiation is the JSON first frame
    /// ([`hello`]), so the server answers this one with
    /// [`ErrorCode::BadProto`].
    Hello {
        /// Echoed back.
        id: Option<u64>,
        /// Requested protocol version.
        proto: u8,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back.
        id: Option<u64>,
    },
    /// Registry counters.
    Stats {
        /// Echoed back.
        id: Option<u64>,
    },
    /// Server-side metrics snapshot (requires the server to
    /// run with observability enabled).
    Metrics {
        /// Echoed back.
        id: Option<u64>,
    },
    /// The last completed request spans, phase breakdowns included.
    TraceTail {
        /// Echoed back.
        id: Option<u64>,
        /// Maximum number of spans to return.
        limit: usize,
        /// Only spans at least this slow (total ns); `None` = all.
        slow_ns: Option<u64>,
    },
    /// A session-targeted operation.
    Session(SessionRequest),
}

impl Request {
    /// The request id, wherever it lives.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Hello { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Metrics { id }
            | Request::TraceTail { id, .. } => *id,
            Request::Session(s) => s.id,
        }
    }

    /// The request's op code.
    #[must_use]
    pub fn code(&self) -> OpCode {
        match self {
            Request::Hello { .. } => OpCode::Hello,
            Request::Ping { .. } => OpCode::Ping,
            Request::Stats { .. } => OpCode::Stats,
            Request::Metrics { .. } => OpCode::Metrics,
            Request::TraceTail { .. } => OpCode::TraceTail,
            Request::Session(s) => s.op.code(),
        }
    }
}

/// The service counters of a `stats` result. Mirrors the registry's
/// counter struct field for field (the registry converts; the wire
/// crate stays independent of the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests executed to completion by the worker pool.
    pub requests_served: u64,
    /// Sessions built by `create` requests.
    pub sessions_created: u64,
    /// Spill-and-drop events (budget-driven plus explicit `evict`).
    pub sessions_evicted: u64,
    /// Sessions restored from spill files.
    pub sessions_restored: u64,
    /// High-water mark of any single session's request queue depth.
    pub queue_depth_hwm: usize,
    /// Sessions currently resident in memory.
    pub resident_sessions: usize,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
}

/// The span count a `trace_tail` request asks for when it names no
/// explicit `limit`.
pub const TRACE_TAIL_DEFAULT_LIMIT: usize = 32;

/// Number of span phases a `trace_tail` result reports per span —
/// fixed by the protocol, like the op-code table.
pub const TRACE_PHASES: usize = 8;

/// The phase names, in pipeline order, matching the `phases_ns` array
/// of a [`TraceSpanBody`].
pub const TRACE_PHASE_NAMES: [&str; TRACE_PHASES] = [
    "decode", "enqueue", "dequeue", "execute", "wal", "fsync", "encode", "flush",
];

/// One histogram's summary inside a `metrics` result (ns units).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricHistogramBody {
    /// Metric name.
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Median (bucket upper bound).
    pub p50_ns: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ns: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999_ns: u64,
    /// Largest recorded value (exact).
    pub max_ns: u64,
}

/// The body of a `metrics` result: every registered metric, sorted by
/// name within each kind, so identical registry state encodes to
/// identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsBody {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<MetricHistogramBody>,
}

/// One completed request span inside a `trace_tail` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanBody {
    /// Global request sequence number (assigned at decode).
    pub seq: u64,
    /// The op the request carried.
    pub op: String,
    /// Total span duration (decode to flush).
    pub total_ns: u64,
    /// Per-phase offsets from the decode stamp, in
    /// [`TRACE_PHASE_NAMES`] order; 0 = phase never entered.
    pub phases_ns: [u64; TRACE_PHASES],
}

/// The body of a `best_response` result.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponseBody {
    /// The responding peer.
    pub peer: usize,
    /// Its best-response link set.
    pub links: Vec<usize>,
    /// Cost under the response (may be `+∞`).
    pub cost: f64,
    /// Cost under the current strategy (may be `+∞`).
    pub current_cost: f64,
    /// Whether the solve was exact.
    pub exact: bool,
}

/// The body of a `social_cost` result (also embedded in dynamics
/// results).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialCostBody {
    /// Total link cost.
    pub link_cost: f64,
    /// Total stretch cost (may be `+∞`).
    pub stretch_cost: f64,
    /// Their sum.
    pub total: f64,
}

/// The body of a `run_dynamics` result.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsBody {
    /// Why the run stopped.
    pub termination: Termination,
    /// Total activations executed.
    pub steps: usize,
    /// Accepted strategy changes.
    pub moves: usize,
    /// Social cost after the run.
    pub social_cost: SocialCostBody,
}

/// The typed result of a successful request — one variant per op.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultBody {
    /// `hello` accepted; the version both sides will speak.
    Hello {
        /// Negotiated protocol version.
        proto: u8,
    },
    /// `ping`.
    Pong,
    /// `stats`.
    Stats(ServiceStats),
    /// `create`.
    Created {
        /// Peer count.
        n: usize,
        /// Link cost coefficient.
        alpha: f64,
        /// Initial link count.
        links: usize,
        /// Evaluation backend.
        mode: BackendMode,
    },
    /// `load`.
    Loaded {
        /// Evaluation backend of the restored session.
        mode: BackendMode,
    },
    /// `apply`: the peer's links before the move.
    Applied {
        /// Prior out-links of the moving peer.
        previous: Vec<usize>,
    },
    /// `apply_batch`: per-move prior links.
    BatchApplied {
        /// Prior out-links, one row per move.
        previous: Vec<Vec<usize>>,
    },
    /// `best_response`.
    BestResponse(BestResponseBody),
    /// `nash_gap`.
    NashGap {
        /// Largest unilateral improvement (may be `+∞`).
        gap: f64,
    },
    /// `social_cost`.
    SocialCost(SocialCostBody),
    /// `stretch`.
    Stretch {
        /// Maximum pairwise stretch (may be `+∞`).
        max_stretch: f64,
    },
    /// `run_dynamics`.
    Dynamics(DynamicsBody),
    /// `snapshot`.
    Persisted,
    /// `evict`.
    Evicted,
    /// `wal_head`: the audit chain's current head.
    WalHead {
        /// Records appended to the chain since its genesis (compaction
        /// does not reset this — the chain spans truncations).
        records: u64,
        /// fnv1a hash chaining every record header back to genesis.
        head_hash: u64,
    },
    /// `wal_verify`: the log re-scanned clean end to end.
    WalVerified {
        /// Records the verifier walked.
        records: u64,
        /// Chain head after the walk (matches `wal_head`).
        head_hash: u64,
    },
    /// `metrics`: the server's metrics snapshot.
    Metrics(MetricsBody),
    /// `trace_tail`: the last completed request spans, oldest first.
    TraceTail {
        /// Spans, ascending by sequence number.
        spans: Vec<TraceSpanBody>,
    },
}

/// One response frame, fully typed.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id, echoed.
    pub id: Option<u64>,
    /// Result or error.
    pub outcome: Result<ResultBody, WireError>,
}

impl Response {
    /// A success response.
    #[must_use]
    pub fn ok(id: Option<u64>, body: ResultBody) -> Response {
        Response {
            id,
            outcome: Ok(body),
        }
    }

    /// An error response.
    #[must_use]
    pub fn err(id: Option<u64>, error: WireError) -> Response {
        Response {
            id,
            outcome: Err(error),
        }
    }
}

/// Validates a session name: 1–[`MAX_NAME_LEN`] chars, leading ASCII
/// alphanumeric, then alphanumerics plus `.`, `_`, `-`. Names become
/// spill file names, so anything that could escape the spill directory
/// is rejected at the door.
///
/// # Errors
///
/// Returns a [`ErrorCode::BadName`] error naming the violated
/// constraint.
pub fn validate_name(name: &str) -> Result<(), WireError> {
    let bad = |m: &str| Err(WireError::new(ErrorCode::BadName, m));
    if name.is_empty() || name.len() > MAX_NAME_LEN {
        return bad(&format!(
            "session name must be 1..={MAX_NAME_LEN} characters"
        ));
    }
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return bad("session name must not be empty");
    };
    if !first.is_ascii_alphanumeric() {
        return bad("session name must start with an ASCII alphanumeric");
    }
    if !chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')) {
        return bad("session name may only contain ASCII alphanumerics, '.', '_', '-'");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_code_tables_are_inverse() {
        for op in [
            OpCode::Hello,
            OpCode::Ping,
            OpCode::Stats,
            OpCode::Create,
            OpCode::Load,
            OpCode::Apply,
            OpCode::ApplyBatch,
            OpCode::BestResponse,
            OpCode::NashGap,
            OpCode::SocialCost,
            OpCode::Stretch,
            OpCode::RunDynamics,
            OpCode::Snapshot,
            OpCode::Evict,
            OpCode::WalHead,
            OpCode::WalVerify,
            OpCode::Metrics,
            OpCode::TraceTail,
        ] {
            assert_eq!(OpCode::from_u8(op as u8), Some(op));
        }
        assert_eq!(OpCode::from_u8(0xFF), None);
    }

    #[test]
    fn error_code_tables_are_inverse() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::BadField,
            ErrorCode::BadName,
            ErrorCode::BadSpec,
            ErrorCode::SessionExists,
            ErrorCode::UnknownSession,
            ErrorCode::Core,
            ErrorCode::Io,
            ErrorCode::Shutdown,
            ErrorCode::BadProto,
            ErrorCode::BadFrame,
            ErrorCode::ChainBroken,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("s0012").is_ok());
        assert!(validate_name("a.b-c_D9").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name("a b").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
        assert_eq!(validate_name("").unwrap_err().code, ErrorCode::BadName);
    }

    #[test]
    fn mutating_classification() {
        let mv = SessionOp::Apply {
            mv: Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(1),
            },
        };
        assert!(mv.is_mutating());
        assert!(!SessionOp::SocialCost.is_mutating());
        assert!(!SessionOp::Evict.is_mutating());
        assert_eq!(mv.code(), OpCode::Apply);
    }

    #[test]
    fn wal_logged_classification() {
        // The WAL witnesses every lifecycle transition, not just the
        // snapshot-dirtying ops.
        assert!(SessionOp::Load.is_wal_logged());
        assert!(SessionOp::Evict.is_wal_logged());
        // Pure queries and the audit ops themselves stay out of the log.
        assert!(!SessionOp::SocialCost.is_wal_logged());
        assert!(!SessionOp::Snapshot.is_wal_logged());
        assert!(!SessionOp::WalHead.is_wal_logged());
        assert!(!SessionOp::WalVerify.is_wal_logged());
        assert_eq!(SessionOp::WalHead.code(), OpCode::WalHead);
        assert_eq!(SessionOp::WalVerify.code(), OpCode::WalVerify);
    }
}
