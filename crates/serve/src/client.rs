//! The blocking sp-serve client.
//!
//! [`ServeClient`] is the public API: one typed method per op, each
//! returning `Result<ResultBody, WireError>`, with connection setup and
//! the hello handshake hidden behind [`ServeClient::connect`]. Calls
//! are synchronous — one request, one response — which is exactly the
//! closed-loop behaviour the load generator wants; parallelism comes
//! from opening several clients.
//!
//! ```no_run
//! use sp_serve::client::ServeClient;
//!
//! let mut client = ServeClient::connect("127.0.0.1:7171").unwrap();
//! client.ping().unwrap();
//! let cost = client.social_cost("alice").unwrap();
//! let head = client.wal_head("alice").unwrap();
//! # let _ = (cost, head);
//! ```

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use sp_core::{BestResponseMethod, Move, PeerId};
use sp_json::frame;

use crate::wire::{
    binary, hello, DynamicsSpec, ErrorCode, GameSpec, MetricsBody, Request, Response, ResultBody,
    ServiceStats, SessionOp, SessionRequest, TraceSpanBody, WireError, TRACE_TAIL_DEFAULT_LIMIT,
};

/// The typed sp-serve client: one method per op, everything returning
/// `Result<ResultBody, WireError>` — transport failures surface as
/// [`ErrorCode::Io`] errors, so callers handle exactly one error shape.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServeClient {
    /// Connects and sends the hello; every later frame is binary.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; a server that rejects the hello
    /// surfaces as [`io::ErrorKind::InvalidData`] carrying its verdict.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        frame::write_frame_bytes(&mut writer, hello::REQUEST)?;
        let verdict = frame::read_frame_bytes(&mut reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed during hello")
        })?;
        hello::check_verdict(&verdict)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message))?;
        Ok(ServeClient { reader, writer })
    }

    /// Sends one typed request and blocks for its full typed response
    /// (id echo included) — the escape hatch for pre-built requests;
    /// the per-op methods below are the everyday surface.
    ///
    /// # Errors
    ///
    /// Transport and response-decode failures become [`ErrorCode::Io`]
    /// / [`ErrorCode::BadFrame`] errors; server-side failures arrive
    /// inside the response's own `outcome`.
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        frame::write_frame_bytes(&mut self.writer, &binary::encode_request(request))
            .map_err(|e| WireError::new(ErrorCode::Io, format!("send failed: {e}")))?;
        let reply = frame::read_frame_bytes(&mut self.reader)
            .map_err(|e| WireError::new(ErrorCode::Io, format!("receive failed: {e}")))?
            .ok_or_else(|| WireError::new(ErrorCode::Io, "server closed before responding"))?;
        binary::decode_response(&reply).map_err(|e| e.error)
    }

    fn op(&mut self, session: &str, op: SessionOp) -> Result<ResultBody, WireError> {
        self.request(&Request::Session(SessionRequest {
            id: None,
            session: session.to_owned(),
            op,
        }))?
        .outcome
    }

    /// `ping` — liveness check.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn ping(&mut self) -> Result<ResultBody, WireError> {
        self.request(&Request::Ping { id: None })?.outcome
    }

    /// `stats` — the service counters.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn stats(&mut self) -> Result<ServiceStats, WireError> {
        match self.request(&Request::Stats { id: None })?.outcome? {
            ResultBody::Stats(stats) => Ok(stats),
            other => Err(WireError::new(
                ErrorCode::BadFrame,
                format!("stats answered with an unexpected body: {other:?}"),
            )),
        }
    }

    /// `metrics` — the server's counters, gauges and histograms
    /// (requires the server to run with observability enabled).
    ///
    /// # Errors
    ///
    /// Typed transport or server failures — `bad_request` when the
    /// server runs without `--obs`.
    pub fn metrics(&mut self) -> Result<MetricsBody, WireError> {
        match self.request(&Request::Metrics { id: None })?.outcome? {
            ResultBody::Metrics(body) => Ok(body),
            other => Err(WireError::new(
                ErrorCode::BadFrame,
                format!("metrics answered with an unexpected body: {other:?}"),
            )),
        }
    }

    /// `trace_tail` — the last completed request spans, optionally
    /// only those at least `slow_ns` slow. `limit = None` asks for the
    /// protocol default ([`TRACE_TAIL_DEFAULT_LIMIT`]).
    ///
    /// # Errors
    ///
    /// Typed transport or server failures — `bad_request` when the
    /// server runs without `--obs`.
    pub fn trace_tail(
        &mut self,
        limit: Option<usize>,
        slow_ns: Option<u64>,
    ) -> Result<Vec<TraceSpanBody>, WireError> {
        let request = Request::TraceTail {
            id: None,
            limit: limit.unwrap_or(TRACE_TAIL_DEFAULT_LIMIT),
            slow_ns,
        };
        match self.request(&request)?.outcome? {
            ResultBody::TraceTail { spans } => Ok(spans),
            other => Err(WireError::new(
                ErrorCode::BadFrame,
                format!("trace_tail answered with an unexpected body: {other:?}"),
            )),
        }
    }

    /// `create` — build a session from an embedded game spec.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn create(&mut self, session: &str, spec: GameSpec) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Create(spec))
    }

    /// `load` — make the session resident (explicit cold start).
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn load(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Load)
    }

    /// `apply` — apply one move.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn apply(&mut self, session: &str, mv: Move) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Apply { mv })
    }

    /// `apply_batch` — apply moves as one cache transaction.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn apply_batch(
        &mut self,
        session: &str,
        moves: Vec<Move>,
    ) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::ApplyBatch { moves })
    }

    /// `best_response` — one peer's best response against the frozen
    /// rest.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn best_response(
        &mut self,
        session: &str,
        peer: PeerId,
        method: BestResponseMethod,
    ) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::BestResponse { peer, method })
    }

    /// `nash_gap` — the largest unilateral improvement over all peers.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn nash_gap(
        &mut self,
        session: &str,
        method: BestResponseMethod,
    ) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::NashGap { method })
    }

    /// `social_cost` — the current profile's social cost.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn social_cost(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::SocialCost)
    }

    /// `stretch` — the current profile's maximum stretch.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn stretch(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Stretch)
    }

    /// `run_dynamics` — run sequential dynamics in place.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn run_dynamics(
        &mut self,
        session: &str,
        spec: DynamicsSpec,
    ) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::RunDynamics(spec))
    }

    /// `snapshot` — persist the session, keeping it resident.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn snapshot(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Snapshot)
    }

    /// `evict` — persist the session and drop it from memory.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures.
    pub fn evict(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::Evict)
    }

    /// `wal_head` — the session's WAL record count and chain head.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures ([`ErrorCode::BadRequest`]
    /// when the server runs without durability).
    pub fn wal_head(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::WalHead)
    }

    /// `wal_verify` — re-scan the session's WAL, checking every CRC
    /// and chain link; the audit op.
    ///
    /// # Errors
    ///
    /// Typed transport or server failures; a tampered log is
    /// [`ErrorCode::BadFrame`] or [`ErrorCode::ChainBroken`].
    pub fn wal_verify(&mut self, session: &str) -> Result<ResultBody, WireError> {
        self.op(session, SessionOp::WalVerify)
    }
}
