//! The compact binary codec (protocol version 2): every request and
//! response after the JSON hello ([`crate::hello`]).
//!
//! Binary frames ride behind the same 4-byte big-endian length prefix
//! as the hello — only the payload bytes differ. The payload grammar:
//!
//! ```text
//! request  := op:u8 flags:u8 [id:varint] body
//! response := status:u8 flags:u8 [id:varint] body
//!
//! varint   := LEB128-encoded u64 (≤ 10 bytes)
//! f64      := IEEE-754 bits, little-endian (lossless, ±∞ included)
//! string   := len:varint bytes:UTF-8
//! ```
//!
//! `flags` bit 0 marks an `id` as present. For responses, `status` is
//! `0` (ok — body is a tagged result mirroring the op codes) or `1`
//! (error — `code:u8` then `message:string`). Every decoder is
//! bounds-checked: truncation, trailing garbage, overlong varints, and
//! absurd collection counts all fail with [`ErrorCode::BadFrame`]
//! rather than panicking or over-allocating.

use sp_core::{BestResponseMethod, LinkSet, Move, PeerId};
use sp_dynamics::Termination;

use crate::{
    BestResponseBody, DecodeError, DynamicsBody, DynamicsRule, DynamicsSpec, ErrorCode, GameSpec,
    Geometry, MetricHistogramBody, MetricsBody, OpCode, Request, Response, ResultBody,
    ServiceStats, SessionOp, SessionRequest, SocialCostBody, TraceSpanBody, WireError,
    TRACE_PHASES,
};

const FLAG_HAS_ID: u8 = 0b0000_0001;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

const MOVE_SET: u8 = 0;
const MOVE_ADD: u8 = 1;
const MOVE_REMOVE: u8 = 2;

const GEOM_LINE: u8 = 0;
const GEOM_POINTS_2D: u8 = 1;
const GEOM_MATRIX: u8 = 2;

const RULE_BETTER: u8 = 0;
const RULE_BEST: u8 = 1;

const DYN_HAS_MAX_ROUNDS: u8 = 0b0000_0001;
const DYN_HAS_TOLERANCE: u8 = 0b0000_0010;
const DYN_HAS_DETECT_CYCLES: u8 = 0b0000_0100;

const TRACE_HAS_SLOW_NS: u8 = 0b0000_0001;

const TERM_CONVERGED: u8 = 0;
const TERM_CYCLE: u8 = 1;
const TERM_ROUND_LIMIT: u8 = 2;

fn bad(m: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadFrame, m)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The binary codec's primitive encoder: LEB128 varints, little-endian
/// IEEE-754 floats, length-prefixed UTF-8 strings. Public so other
/// on-disk formats (the sp-serve write-ahead log) can share the exact
/// wire grammar instead of inventing a second varint.
pub struct Writer {
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a LEB128 varint (≤ 10 bytes).
    pub fn varint(&mut self, mut x: u64) {
        loop {
            let byte = (x & 0x7F) as u8;
            x >>= 7;
            if x == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `usize` as a varint.
    pub fn usize(&mut self, x: usize) {
        self.varint(x as u64);
    }

    /// Appends IEEE-754 bits, little-endian (lossless, ±∞ included).
    pub fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no framing (the caller has already
    /// written a length, or the bytes run to the end of the record).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// The binary codec's bounds-checked decoder, the inverse of
/// [`Writer`]. Every failure is a typed [`ErrorCode::BadFrame`] error —
/// never a panic, never an attacker-sized allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over one frame payload.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] on truncation.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| bad("frame truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] on truncation, overlong encodings, or
    /// u64 overflow.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut x: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let part = u64::from(byte & 0x7F);
            if shift == 63 && part > 1 {
                return Err(bad("varint overflows u64"));
            }
            x |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
        }
        Err(bad("varint longer than 10 bytes"))
    }

    /// Reads a varint that must fit a `usize`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] as [`Reader::varint`], plus range
    /// overflow on 32-bit targets.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?).map_err(|_| bad("integer out of range"))
    }

    /// A collection count, sanity-checked against the bytes actually
    /// present (each element costs ≥ `min_bytes_each`) so a hostile
    /// count cannot drive a huge allocation from a tiny frame.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] when the claimed count could not fit the
    /// remaining payload.
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() / min_bytes_each.max(1) {
            return Err(bad("collection count exceeds frame size"));
        }
        Ok(n)
    }

    /// Reads IEEE-754 bits, little-endian.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] on truncation.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let end = self
            .pos
            .checked_add(8)
            .ok_or_else(|| bad("frame truncated"))?;
        let bytes: [u8; 8] = self
            .buf
            .get(self.pos..end)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| bad("frame truncated"))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let end = self.pos + len;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| bad("frame truncated"))?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| bad("string is not UTF-8"))?
            .to_owned();
        self.pos = end;
        Ok(s)
    }

    /// Reads `n` raw bytes as a borrowed slice (length decided by the
    /// caller, e.g. from a varint it just read — the WAL record codec
    /// embeds whole request payloads this way).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] on truncation.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad("frame truncated"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| bad("frame truncated"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadFrame`] when trailing bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(bad(format!(
                "{} trailing bytes after frame payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shared field codecs
// ---------------------------------------------------------------------

fn write_method(w: &mut Writer, m: BestResponseMethod) {
    w.u8(match m {
        BestResponseMethod::Exact => 0,
        BestResponseMethod::ExactEnumeration => 1,
        BestResponseMethod::Greedy => 2,
        BestResponseMethod::LocalSearch => 3,
    });
}

fn read_method(r: &mut Reader<'_>) -> Result<BestResponseMethod, WireError> {
    Ok(match r.u8()? {
        0 => BestResponseMethod::Exact,
        1 => BestResponseMethod::ExactEnumeration,
        2 => BestResponseMethod::Greedy,
        3 => BestResponseMethod::LocalSearch,
        other => return Err(bad(format!("unknown method tag {other}"))),
    })
}

/// A `create` keeps the byte that once chose the evaluation backend,
/// so the `create` bytes every session log stores decode unchanged.
/// Only 0, the dense session, is left.
const MODE_DENSE: u8 = 0;

fn read_mode(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.u8()? {
        MODE_DENSE => Ok(()),
        other => Err(bad(format!(
            "mode {other} is not served: sparse mode was removed, every session is dense (mode 0)"
        ))),
    }
}

fn write_move(w: &mut Writer, mv: &Move) {
    match mv {
        Move::SetStrategy { peer, links } => {
            w.u8(MOVE_SET);
            w.usize(peer.index());
            w.usize(links.len());
            for t in links.iter() {
                w.usize(t.index());
            }
        }
        Move::AddLink { from, to } => {
            w.u8(MOVE_ADD);
            w.usize(from.index());
            w.usize(to.index());
        }
        Move::RemoveLink { from, to } => {
            w.u8(MOVE_REMOVE);
            w.usize(from.index());
            w.usize(to.index());
        }
    }
}

fn read_move(r: &mut Reader<'_>) -> Result<Move, WireError> {
    Ok(match r.u8()? {
        MOVE_SET => {
            let peer = PeerId::new(r.usize()?);
            let k = r.count(1)?;
            let mut targets = Vec::with_capacity(k);
            for _ in 0..k {
                targets.push(r.usize()?);
            }
            Move::SetStrategy {
                peer,
                links: targets.into_iter().collect::<LinkSet>(),
            }
        }
        MOVE_ADD => Move::AddLink {
            from: PeerId::new(r.usize()?),
            to: PeerId::new(r.usize()?),
        },
        MOVE_REMOVE => Move::RemoveLink {
            from: PeerId::new(r.usize()?),
            to: PeerId::new(r.usize()?),
        },
        other => return Err(bad(format!("unknown move tag {other}"))),
    })
}

fn write_geometry(w: &mut Writer, g: &Geometry) {
    match g {
        Geometry::Line(positions) => {
            w.u8(GEOM_LINE);
            w.usize(positions.len());
            for &x in positions {
                w.f64(x);
            }
        }
        Geometry::Points2D(points) => {
            w.u8(GEOM_POINTS_2D);
            w.usize(points.len());
            for &(x, y) in points {
                w.f64(x);
                w.f64(y);
            }
        }
        Geometry::Matrix(rows) => {
            w.u8(GEOM_MATRIX);
            w.usize(rows.len());
            for row in rows {
                w.usize(row.len());
                for &x in row {
                    w.f64(x);
                }
            }
        }
    }
}

fn read_geometry(r: &mut Reader<'_>) -> Result<Geometry, WireError> {
    Ok(match r.u8()? {
        GEOM_LINE => {
            let n = r.count(8)?;
            let mut positions = Vec::with_capacity(n);
            for _ in 0..n {
                positions.push(r.f64()?);
            }
            Geometry::Line(positions)
        }
        GEOM_POINTS_2D => {
            let n = r.count(16)?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push((r.f64()?, r.f64()?));
            }
            Geometry::Points2D(points)
        }
        GEOM_MATRIX => {
            let n = r.count(1)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.count(8)?;
                let mut row = Vec::with_capacity(len);
                for _ in 0..len {
                    row.push(r.f64()?);
                }
                rows.push(row);
            }
            Geometry::Matrix(rows)
        }
        other => return Err(bad(format!("unknown geometry tag {other}"))),
    })
}

fn write_social_cost(w: &mut Writer, sc: &SocialCostBody) {
    w.f64(sc.link_cost);
    w.f64(sc.stretch_cost);
    w.f64(sc.total);
}

fn read_social_cost(r: &mut Reader<'_>) -> Result<SocialCostBody, WireError> {
    Ok(SocialCostBody {
        link_cost: r.f64()?,
        stretch_cost: r.f64()?,
        total: r.f64()?,
    })
}

fn write_usize_array(w: &mut Writer, xs: &[usize]) {
    w.usize(xs.len());
    for &x in xs {
        w.usize(x);
    }
}

fn read_usize_array(r: &mut Reader<'_>) -> Result<Vec<usize>, WireError> {
    let n = r.count(1)?;
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(r.usize()?);
    }
    Ok(xs)
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

fn write_header(w: &mut Writer, tag: u8, id: Option<u64>) {
    w.u8(tag);
    w.u8(if id.is_some() { FLAG_HAS_ID } else { 0 });
    if let Some(id) = id {
        w.varint(id);
    }
}

/// Encodes a request into a binary frame payload (the bytes behind the
/// length prefix).
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, request.code() as u8, request.id());
    match request {
        Request::Hello { proto, .. } => w.u8(*proto),
        Request::Ping { .. } | Request::Stats { .. } | Request::Metrics { .. } => {}
        Request::TraceTail { limit, slow_ns, .. } => {
            w.usize(*limit);
            w.u8(if slow_ns.is_some() {
                TRACE_HAS_SLOW_NS
            } else {
                0
            });
            if let Some(s) = slow_ns {
                w.varint(*s);
            }
        }
        Request::Session(s) => {
            w.string(&s.session);
            match &s.op {
                SessionOp::Create(spec) => {
                    w.f64(spec.alpha);
                    w.u8(MODE_DENSE);
                    write_geometry(&mut w, &spec.geometry);
                    w.usize(spec.links.len());
                    for &(a, b) in &spec.links {
                        w.usize(a);
                        w.usize(b);
                    }
                }
                SessionOp::Load
                | SessionOp::SocialCost
                | SessionOp::Stretch
                | SessionOp::Snapshot
                | SessionOp::Evict
                | SessionOp::WalHead
                | SessionOp::WalVerify => {}
                SessionOp::Apply { mv } => write_move(&mut w, mv),
                SessionOp::ApplyBatch { moves } => {
                    w.usize(moves.len());
                    for mv in moves {
                        write_move(&mut w, mv);
                    }
                }
                SessionOp::BestResponse { peer, method } => {
                    w.usize(peer.index());
                    write_method(&mut w, *method);
                }
                SessionOp::NashGap { method } => write_method(&mut w, *method),
                SessionOp::RunDynamics(spec) => {
                    match spec.rule {
                        DynamicsRule::Better => w.u8(RULE_BETTER),
                        DynamicsRule::Best(method) => {
                            w.u8(RULE_BEST);
                            write_method(&mut w, method);
                        }
                    }
                    let mut flags = 0u8;
                    if spec.max_rounds.is_some() {
                        flags |= DYN_HAS_MAX_ROUNDS;
                    }
                    if spec.tolerance.is_some() {
                        flags |= DYN_HAS_TOLERANCE;
                    }
                    if spec.detect_cycles.is_some() {
                        flags |= DYN_HAS_DETECT_CYCLES;
                    }
                    w.u8(flags);
                    if let Some(r) = spec.max_rounds {
                        w.usize(r);
                    }
                    if let Some(t) = spec.tolerance {
                        w.f64(t);
                    }
                    if let Some(d) = spec.detect_cycles {
                        w.u8(u8::from(d));
                    }
                }
            }
        }
    }
    w.buf
}

fn read_header(r: &mut Reader<'_>) -> Result<(u8, Option<u64>), WireError> {
    let tag = r.u8()?;
    let flags = r.u8()?;
    if flags & !FLAG_HAS_ID != 0 {
        return Err(bad(format!("unknown header flags {flags:#04x}")));
    }
    let id = if flags & FLAG_HAS_ID != 0 {
        Some(r.varint()?)
    } else {
        None
    };
    Ok((tag, id))
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(format!("boolean byte must be 0 or 1, got {other}"))),
    }
}

/// Decodes a binary request frame payload.
///
/// # Errors
///
/// Returns a [`ErrorCode::BadFrame`] failure — with the request id when
/// the header was intact — on any malformed payload. Name validation
/// failures surface as [`ErrorCode::BadName`].
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(payload);
    let (tag, id) = read_header(&mut r).map_err(|error| DecodeError { id: None, error })?;
    let fail = |error: WireError| DecodeError { id, error };
    let Some(code) = OpCode::from_u8(tag) else {
        return Err(fail(bad(format!("unknown op tag {tag:#04x}"))));
    };
    let request = match code {
        OpCode::Hello => {
            let proto = r.u8().map_err(fail)?;
            Request::Hello { id, proto }
        }
        OpCode::Ping => Request::Ping { id },
        OpCode::Stats => Request::Stats { id },
        OpCode::Metrics => Request::Metrics { id },
        OpCode::TraceTail => {
            let limit = r.usize().map_err(fail)?;
            let flags = r.u8().map_err(fail)?;
            if flags & !TRACE_HAS_SLOW_NS != 0 {
                return Err(fail(bad(format!("unknown trace_tail flags {flags:#04x}"))));
            }
            let slow_ns = if flags & TRACE_HAS_SLOW_NS != 0 {
                Some(r.varint().map_err(fail)?)
            } else {
                None
            };
            Request::TraceTail { id, limit, slow_ns }
        }
        _ => {
            let session = r.string().map_err(fail)?;
            crate::validate_name(&session).map_err(fail)?;
            let op = read_session_op(&mut r, code).map_err(fail)?;
            Request::Session(SessionRequest { id, session, op })
        }
    };
    r.finish().map_err(fail)?;
    Ok(request)
}

fn read_session_op(r: &mut Reader<'_>, code: OpCode) -> Result<SessionOp, WireError> {
    Ok(match code {
        OpCode::Create => {
            let alpha = r.f64()?;
            read_mode(r)?;
            let geometry = read_geometry(r)?;
            let n = r.count(2)?;
            let mut links = Vec::with_capacity(n);
            for _ in 0..n {
                links.push((r.usize()?, r.usize()?));
            }
            SessionOp::Create(GameSpec {
                alpha,
                geometry,
                links,
            })
        }
        OpCode::Load => SessionOp::Load,
        OpCode::Apply => SessionOp::Apply { mv: read_move(r)? },
        OpCode::ApplyBatch => {
            let n = r.count(1)?;
            let mut moves = Vec::with_capacity(n);
            for _ in 0..n {
                moves.push(read_move(r)?);
            }
            SessionOp::ApplyBatch { moves }
        }
        OpCode::BestResponse => SessionOp::BestResponse {
            peer: PeerId::new(r.usize()?),
            method: read_method(r)?,
        },
        OpCode::NashGap => SessionOp::NashGap {
            method: read_method(r)?,
        },
        OpCode::SocialCost => SessionOp::SocialCost,
        OpCode::Stretch => SessionOp::Stretch,
        OpCode::RunDynamics => {
            let rule = match r.u8()? {
                RULE_BETTER => DynamicsRule::Better,
                RULE_BEST => DynamicsRule::Best(read_method(r)?),
                other => return Err(bad(format!("unknown dynamics rule tag {other}"))),
            };
            let flags = r.u8()?;
            let known = DYN_HAS_MAX_ROUNDS | DYN_HAS_TOLERANCE | DYN_HAS_DETECT_CYCLES;
            if flags & !known != 0 {
                return Err(bad(format!("unknown dynamics flags {flags:#04x}")));
            }
            let max_rounds = if flags & DYN_HAS_MAX_ROUNDS != 0 {
                Some(r.usize()?)
            } else {
                None
            };
            let tolerance = if flags & DYN_HAS_TOLERANCE != 0 {
                Some(r.f64()?)
            } else {
                None
            };
            let detect_cycles = if flags & DYN_HAS_DETECT_CYCLES != 0 {
                Some(read_bool(r)?)
            } else {
                None
            };
            SessionOp::RunDynamics(DynamicsSpec {
                rule,
                max_rounds,
                tolerance,
                detect_cycles,
            })
        }
        OpCode::Snapshot => SessionOp::Snapshot,
        OpCode::Evict => SessionOp::Evict,
        OpCode::WalHead => SessionOp::WalHead,
        OpCode::WalVerify => SessionOp::WalVerify,
        // The caller routed registry-level ops before calling; reaching
        // here means the tag byte named one in session position.
        OpCode::Hello | OpCode::Ping | OpCode::Stats | OpCode::Metrics | OpCode::TraceTail => {
            return Err(bad(format!("op {:?} cannot target a session", code.name())))
        }
    })
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

fn write_termination(w: &mut Writer, t: &Termination) {
    match t {
        Termination::Converged { rounds } => {
            w.u8(TERM_CONVERGED);
            w.usize(*rounds);
        }
        Termination::Cycle {
            first_seen_step,
            period_steps,
            moves_in_cycle,
        } => {
            w.u8(TERM_CYCLE);
            w.usize(*first_seen_step);
            w.usize(*period_steps);
            w.usize(*moves_in_cycle);
        }
        Termination::RoundLimit => w.u8(TERM_ROUND_LIMIT),
    }
}

fn read_termination(r: &mut Reader<'_>) -> Result<Termination, WireError> {
    Ok(match r.u8()? {
        TERM_CONVERGED => Termination::Converged { rounds: r.usize()? },
        TERM_CYCLE => Termination::Cycle {
            first_seen_step: r.usize()?,
            period_steps: r.usize()?,
            moves_in_cycle: r.usize()?,
        },
        TERM_ROUND_LIMIT => Termination::RoundLimit,
        other => return Err(bad(format!("unknown termination tag {other}"))),
    })
}

fn result_tag(body: &ResultBody) -> u8 {
    (match body {
        ResultBody::Hello { .. } => OpCode::Hello,
        ResultBody::Pong => OpCode::Ping,
        ResultBody::Stats(_) => OpCode::Stats,
        ResultBody::Created { .. } => OpCode::Create,
        ResultBody::Loaded => OpCode::Load,
        ResultBody::Applied { .. } => OpCode::Apply,
        ResultBody::BatchApplied { .. } => OpCode::ApplyBatch,
        ResultBody::BestResponse(_) => OpCode::BestResponse,
        ResultBody::NashGap { .. } => OpCode::NashGap,
        ResultBody::SocialCost(_) => OpCode::SocialCost,
        ResultBody::Stretch { .. } => OpCode::Stretch,
        ResultBody::Dynamics(_) => OpCode::RunDynamics,
        ResultBody::Persisted => OpCode::Snapshot,
        ResultBody::Evicted => OpCode::Evict,
        ResultBody::WalHead { .. } => OpCode::WalHead,
        ResultBody::WalVerified { .. } => OpCode::WalVerify,
        ResultBody::Metrics(_) => OpCode::Metrics,
        ResultBody::TraceTail { .. } => OpCode::TraceTail,
    }) as u8
}

/// Encodes a response into a binary frame payload. Result bodies are
/// self-describing (the tag byte mirrors the op code), so decoding
/// needs no request context.
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match &response.outcome {
        Ok(body) => {
            write_header(&mut w, STATUS_OK, response.id);
            w.u8(result_tag(body));
            match body {
                ResultBody::Hello { proto } => w.u8(*proto),
                ResultBody::Pong
                | ResultBody::Loaded
                | ResultBody::Persisted
                | ResultBody::Evicted => {}
                ResultBody::Stats(s) => {
                    w.varint(s.requests_served);
                    w.varint(s.sessions_created);
                    w.varint(s.sessions_evicted);
                    w.varint(s.sessions_restored);
                    w.usize(s.queue_depth_hwm);
                    w.usize(s.resident_sessions);
                    w.usize(s.resident_bytes);
                }
                ResultBody::Created { n, alpha, links } => {
                    w.usize(*n);
                    w.f64(*alpha);
                    w.usize(*links);
                }
                ResultBody::Applied { previous } => write_usize_array(&mut w, previous),
                ResultBody::BatchApplied { previous } => {
                    w.usize(previous.len());
                    for row in previous {
                        write_usize_array(&mut w, row);
                    }
                }
                ResultBody::BestResponse(br) => {
                    w.usize(br.peer);
                    write_usize_array(&mut w, &br.links);
                    w.f64(br.cost);
                    w.f64(br.current_cost);
                    w.u8(u8::from(br.exact));
                }
                ResultBody::NashGap { gap } => w.f64(*gap),
                ResultBody::SocialCost(sc) => write_social_cost(&mut w, sc),
                ResultBody::Stretch { max_stretch } => w.f64(*max_stretch),
                ResultBody::Dynamics(d) => {
                    write_termination(&mut w, &d.termination);
                    w.usize(d.steps);
                    w.usize(d.moves);
                    write_social_cost(&mut w, &d.social_cost);
                }
                ResultBody::WalHead { records, head_hash }
                | ResultBody::WalVerified { records, head_hash } => {
                    w.varint(*records);
                    w.varint(*head_hash);
                }
                ResultBody::Metrics(m) => {
                    w.usize(m.counters.len());
                    for (name, value) in &m.counters {
                        w.string(name);
                        w.varint(*value);
                    }
                    w.usize(m.gauges.len());
                    for (name, value) in &m.gauges {
                        w.string(name);
                        w.varint(*value);
                    }
                    w.usize(m.histograms.len());
                    for h in &m.histograms {
                        w.string(&h.name);
                        w.varint(h.count);
                        w.varint(h.min_ns);
                        w.varint(h.p50_ns);
                        w.varint(h.p99_ns);
                        w.varint(h.p999_ns);
                        w.varint(h.max_ns);
                    }
                }
                ResultBody::TraceTail { spans } => {
                    w.usize(spans.len());
                    for s in spans {
                        w.varint(s.seq);
                        w.string(&s.op);
                        w.varint(s.total_ns);
                        for &p in &s.phases_ns {
                            w.varint(p);
                        }
                    }
                }
            }
        }
        Err(e) => {
            write_header(&mut w, STATUS_ERR, response.id);
            w.u8(e.code as u8);
            w.string(&e.message);
        }
    }
    w.buf
}

/// Decodes a binary response frame payload.
///
/// # Errors
///
/// Returns a [`ErrorCode::BadFrame`] failure on any malformed payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    let (status, id) = read_header(&mut r).map_err(|error| DecodeError { id: None, error })?;
    let fail = |error: WireError| DecodeError { id, error };
    let response = match status {
        STATUS_OK => {
            let tag = r.u8().map_err(fail)?;
            let body = read_result(&mut r, tag).map_err(fail)?;
            Response::ok(id, body)
        }
        STATUS_ERR => {
            let code_byte = r.u8().map_err(fail)?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or_else(|| fail(bad(format!("unknown error code {code_byte}"))))?;
            let message = r.string().map_err(fail)?;
            Response::err(id, WireError { code, message })
        }
        other => return Err(fail(bad(format!("unknown response status {other}")))),
    };
    r.finish().map_err(fail)?;
    Ok(response)
}

fn read_result(r: &mut Reader<'_>, tag: u8) -> Result<ResultBody, WireError> {
    let Some(code) = OpCode::from_u8(tag) else {
        return Err(bad(format!("unknown result tag {tag:#04x}")));
    };
    Ok(match code {
        OpCode::Hello => ResultBody::Hello { proto: r.u8()? },
        OpCode::Ping => ResultBody::Pong,
        OpCode::Stats => ResultBody::Stats(ServiceStats {
            requests_served: r.varint()?,
            sessions_created: r.varint()?,
            sessions_evicted: r.varint()?,
            sessions_restored: r.varint()?,
            queue_depth_hwm: r.usize()?,
            resident_sessions: r.usize()?,
            resident_bytes: r.usize()?,
        }),
        OpCode::Create => ResultBody::Created {
            n: r.usize()?,
            alpha: r.f64()?,
            links: r.usize()?,
        },
        OpCode::Load => ResultBody::Loaded,
        OpCode::Apply => ResultBody::Applied {
            previous: read_usize_array(r)?,
        },
        OpCode::ApplyBatch => {
            let n = r.count(1)?;
            let mut previous = Vec::with_capacity(n);
            for _ in 0..n {
                previous.push(read_usize_array(r)?);
            }
            ResultBody::BatchApplied { previous }
        }
        OpCode::BestResponse => ResultBody::BestResponse(BestResponseBody {
            peer: r.usize()?,
            links: read_usize_array(r)?,
            cost: r.f64()?,
            current_cost: r.f64()?,
            exact: read_bool(r)?,
        }),
        OpCode::NashGap => ResultBody::NashGap { gap: r.f64()? },
        OpCode::SocialCost => ResultBody::SocialCost(read_social_cost(r)?),
        OpCode::Stretch => ResultBody::Stretch {
            max_stretch: r.f64()?,
        },
        OpCode::RunDynamics => ResultBody::Dynamics(DynamicsBody {
            termination: read_termination(r)?,
            steps: r.usize()?,
            moves: r.usize()?,
            social_cost: read_social_cost(r)?,
        }),
        OpCode::Snapshot => ResultBody::Persisted,
        OpCode::Evict => ResultBody::Evicted,
        OpCode::WalHead => ResultBody::WalHead {
            records: r.varint()?,
            head_hash: r.varint()?,
        },
        OpCode::WalVerify => ResultBody::WalVerified {
            records: r.varint()?,
            head_hash: r.varint()?,
        },
        OpCode::Metrics => {
            let n = r.count(2)?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                counters.push((r.string()?, r.varint()?));
            }
            let n = r.count(2)?;
            let mut gauges = Vec::with_capacity(n);
            for _ in 0..n {
                gauges.push((r.string()?, r.varint()?));
            }
            let n = r.count(7)?;
            let mut histograms = Vec::with_capacity(n);
            for _ in 0..n {
                histograms.push(MetricHistogramBody {
                    name: r.string()?,
                    count: r.varint()?,
                    min_ns: r.varint()?,
                    p50_ns: r.varint()?,
                    p99_ns: r.varint()?,
                    p999_ns: r.varint()?,
                    max_ns: r.varint()?,
                });
            }
            ResultBody::Metrics(MetricsBody {
                counters,
                gauges,
                histograms,
            })
        }
        OpCode::TraceTail => {
            let n = r.count(3 + TRACE_PHASES)?;
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                let seq = r.varint()?;
                let op = r.string()?;
                let total_ns = r.varint()?;
                let mut phases_ns = [0u64; TRACE_PHASES];
                for p in &mut phases_ns {
                    *p = r.varint()?;
                }
                spans.push(TraceSpanBody {
                    seq,
                    op,
                    total_ns,
                    phases_ns,
                });
            }
            ResultBody::TraceTail { spans }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let payload = encode_request(req);
        assert_eq!(&decode_request(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: &Response) {
        let payload = encode_response(resp);
        assert_eq!(&decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn varint_edges() {
        for x in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.varint(x);
            let mut r = Reader::new(&w.buf);
            assert_eq!(r.varint().unwrap(), x);
            assert!(r.finish().is_ok());
        }
        // Overlong: 11 continuation bytes.
        let mut r = Reader::new(&[0x80u8; 11]);
        assert!(r.varint().is_err());
        // Overflow: 10 bytes whose top part exceeds the final bit.
        let mut r = Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F]);
        assert!(r.varint().is_err());
    }

    #[test]
    fn request_round_trips() {
        round_trip_request(&Request::Ping { id: Some(0) });
        round_trip_request(&Request::Stats { id: None });
        round_trip_request(&Request::Hello {
            id: Some(9),
            proto: 2,
        });
        round_trip_request(&Request::Session(SessionRequest {
            id: Some(1_000_000),
            session: "s0007".to_owned(),
            op: SessionOp::Create(GameSpec {
                alpha: 1.5,
                geometry: Geometry::Points2D(vec![(0.0, 0.0), (3.0, 4.0)]),
                links: vec![(0, 1)],
            }),
        }));
        round_trip_request(&Request::Session(SessionRequest {
            id: None,
            session: "s1".to_owned(),
            op: SessionOp::ApplyBatch {
                moves: vec![
                    Move::AddLink {
                        from: PeerId::new(0),
                        to: PeerId::new(3),
                    },
                    Move::SetStrategy {
                        peer: PeerId::new(2),
                        links: [1usize, 4, 0].into_iter().collect(),
                    },
                ],
            },
        }));
        round_trip_request(&Request::Session(SessionRequest {
            id: Some(5),
            session: "s3".to_owned(),
            op: SessionOp::WalHead,
        }));
        round_trip_request(&Request::Session(SessionRequest {
            id: None,
            session: "s4".to_owned(),
            op: SessionOp::WalVerify,
        }));
        round_trip_request(&Request::Session(SessionRequest {
            id: Some(3),
            session: "s2".to_owned(),
            op: SessionOp::RunDynamics(DynamicsSpec {
                rule: DynamicsRule::Best(BestResponseMethod::LocalSearch),
                max_rounds: Some(7),
                tolerance: None,
                detect_cycles: Some(false),
            }),
        }));
        round_trip_request(&Request::Metrics { id: Some(6) });
        round_trip_request(&Request::TraceTail {
            id: None,
            limit: 16,
            slow_ns: Some(2_000_000),
        });
        round_trip_request(&Request::TraceTail {
            id: Some(1),
            limit: 0,
            slow_ns: None,
        });
    }

    #[test]
    fn observability_results_round_trip() {
        round_trip_response(&Response::ok(
            Some(12),
            ResultBody::Metrics(MetricsBody {
                counters: vec![
                    ("obs.spans_completed".to_owned(), u64::MAX - 5),
                    ("wal.fsync_batches".to_owned(), 0),
                ],
                gauges: vec![("queue.depth_hwm".to_owned(), 9)],
                histograms: vec![MetricHistogramBody {
                    name: "op.ping".to_owned(),
                    count: 3,
                    min_ns: 100,
                    p50_ns: 127,
                    p99_ns: 255,
                    p999_ns: 255,
                    max_ns: 240,
                }],
            }),
        ));
        round_trip_response(&Response::ok(
            None,
            ResultBody::Metrics(MetricsBody::default()),
        ));
        round_trip_response(&Response::ok(
            Some(13),
            ResultBody::TraceTail {
                spans: vec![TraceSpanBody {
                    seq: 77,
                    op: "best_response".to_owned(),
                    total_ns: 1_000_000,
                    phases_ns: [0, 10, 20, 900_000, 0, 0, 990_000, 1_000_000],
                }],
            },
        ));
        round_trip_response(&Response::ok(
            Some(1),
            ResultBody::TraceTail { spans: vec![] },
        ));
    }

    #[test]
    fn metrics_in_session_position_is_rejected() {
        let mut w = Writer::new();
        w.u8(OpCode::Metrics as u8);
        w.u8(0);
        // A metrics request has an empty body; a trailing string is
        // garbage, rejected by the exhaustive-consumption check.
        w.string("s0");
        let e = decode_request(&w.buf).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadFrame);

        let mut w = Writer::new();
        w.u8(OpCode::TraceTail as u8);
        w.u8(0);
        w.usize(4);
        w.u8(0xFE); // unknown flags
        let e = decode_request(&w.buf).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadFrame);
    }

    #[test]
    fn response_round_trips_including_infinity() {
        round_trip_response(&Response::ok(Some(4), ResultBody::Pong));
        round_trip_response(&Response::ok(
            None,
            ResultBody::Stretch {
                max_stretch: f64::INFINITY,
            },
        ));
        round_trip_response(&Response::ok(
            Some(11),
            ResultBody::Dynamics(DynamicsBody {
                termination: Termination::Cycle {
                    first_seen_step: 5,
                    period_steps: 2,
                    moves_in_cycle: 2,
                },
                steps: 12,
                moves: 7,
                social_cost: SocialCostBody {
                    link_cost: 4.0,
                    stretch_cost: f64::INFINITY,
                    total: f64::INFINITY,
                },
            }),
        ));
        round_trip_response(&Response::err(
            Some(2),
            WireError::new(ErrorCode::UnknownSession, "unknown session \"x\""),
        ));
        // The 64-bit chain hash must survive the varint path verbatim.
        round_trip_response(&Response::ok(
            Some(7),
            ResultBody::WalHead {
                records: 1_000_003,
                head_hash: u64::MAX - 11,
            },
        ));
        round_trip_response(&Response::ok(
            None,
            ResultBody::WalVerified {
                records: 0,
                head_hash: 0xcbf2_9ce4_8422_2325,
            },
        ));
        round_trip_response(&Response::err(
            Some(8),
            WireError::new(ErrorCode::ChainBroken, "record 3: crc mismatch"),
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let req = Request::Session(SessionRequest {
            id: Some(42),
            session: "s9".to_owned(),
            op: SessionOp::BestResponse {
                peer: PeerId::new(3),
                method: BestResponseMethod::Greedy,
            },
        });
        let payload = encode_request(&req);
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Ping { id: None });
        payload.push(0);
        let e = decode_request(&payload).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadFrame);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A set-move claiming u32::MAX links inside a 10-byte frame.
        let mut w = Writer::new();
        w.u8(OpCode::Apply as u8);
        w.u8(0);
        w.string("s0");
        w.u8(MOVE_SET);
        w.usize(0);
        w.varint(u64::from(u32::MAX));
        let e = decode_request(&w.buf).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadFrame);
    }

    #[test]
    fn bad_name_is_typed_not_framed() {
        let mut w = Writer::new();
        w.u8(OpCode::SocialCost as u8);
        w.u8(0);
        w.string("../escape");
        let e = decode_request(&w.buf).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadName);
    }
}
