//! The epoll reactor: every connection served by one event loop on
//! nonblocking sockets, with pipelined frames.
//!
//! # Architecture
//!
//! One thread owns the [`sp_net::Poller`], the listener, and every
//! connection's buffers. Reading, protocol negotiation, and response
//! writing all happen on that thread; only the *execution* of session
//! requests leaves it, handed to the registry worker pool via
//! [`SessionRegistry::submit_with`] with a reply callback. A worker
//! finishing a job parks the encoded response in the connection's
//! completion map and wakes the loop through an `eventfd`
//! ([`sp_net::WakeHandle`]) — many completions coalesce into one
//! wakeup, which is where the reactor's syscall advantage over
//! thread-per-connection comes from.
//!
//! # Pipelining and ordering
//!
//! Every decoded frame gets the connection's next sequence number, and
//! responses are written back **strictly in sequence order**: a
//! completed response waits in the per-connection `BTreeMap` until all
//! lower sequences have been flushed. Distinct sessions still execute
//! concurrently across the worker pool — ordering is a per-connection
//! write discipline, not an execution barrier — so one connection can
//! keep [`PIPELINE_WINDOW`] requests in flight. When the window fills,
//! the reactor simply stops *reading* that connection (drops read
//! interest); kernel-buffer backpressure does the rest.
//!
//! # Fairness and liveness
//!
//! The loop is level-triggered: readiness not fully consumed is
//! re-reported on the next `epoll_wait`, so a connection is never
//! starved by an early `break`. All writes are buffered and flushed
//! opportunistically; a short write leaves write interest registered
//! and the loop resumes exactly where it stopped.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sp_json::frame::{self, FrameBuffer};
use sp_net::{Interest, Poller, WakeHandle};
use sp_obs::{Phase, SpanHandle};

use crate::obs::ServeObs;
use crate::registry::SessionRegistry;
use crate::server::respond_request_traced;
use crate::wire::{binary, ConnProtocol, ErrorCode, FrameAction, Request, WireError};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Token of the cross-thread wakeup eventfd.
const WAKE_TOKEN: u64 = 1;
/// First token handed to a connection; the counter only grows, so a
/// late worker completion for a closed connection can never alias a
/// newer one.
const FIRST_CONN_TOKEN: u64 = 2;

/// Maximum requests in flight per connection before the reactor stops
/// reading it. This is the reactor's backpressure: one connection can
/// have at most this many jobs queued in the registry, so a session's
/// queue depth is at most `window × connections` addressing it, while
/// leaving plenty of pipelining headroom.
pub const PIPELINE_WINDOW: u64 = 64;

/// Read chunk size; frames larger than this simply take several reads.
const READ_CHUNK: usize = 16 * 1024;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The wakeup channel workers use to tell the loop a connection has a
/// completed response waiting.
struct Notifier {
    dirty: Mutex<Vec<u64>>,
    wake: WakeHandle,
}

impl Notifier {
    fn notify(&self, token: u64) {
        lock_unpoisoned(&self.dirty).push(token);
        // A failed wake is ignored: the next natural poll iteration
        // will drain the dirty list anyway.
        let _ = self.wake.wake();
    }
}

/// An encoded response payload plus the request's trace span, which
/// rides along until the flush stamp.
type CompletedResponse = (Vec<u8>, Option<SpanHandle>);

/// The slice of connection state a worker callback can reach: the
/// ordered completion map plus the wakeup route back to the loop.
struct ConnShared {
    token: u64,
    notifier: Arc<Notifier>,
    /// Completed responses keyed by sequence number.
    completed: Mutex<BTreeMap<u64, CompletedResponse>>,
    closed: AtomicBool,
}

impl ConnShared {
    /// Called from worker threads: park the encoded response and wake
    /// the loop. After the connection closed this is a silent drop —
    /// there is nowhere left to write.
    fn complete(&self, seq: u64, payload: Vec<u8>, span: Option<SpanHandle>) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        lock_unpoisoned(&self.completed).insert(seq, (payload, span));
        self.notifier.notify(self.token);
    }

    /// Called from the reactor thread itself (inline replies): park the
    /// response without the redundant self-wakeup — the loop flushes
    /// within the same pump.
    fn complete_local(&self, seq: u64, payload: Vec<u8>, span: Option<SpanHandle>) {
        lock_unpoisoned(&self.completed).insert(seq, (payload, span));
    }
}

struct Conn {
    stream: TcpStream,
    proto: ConnProtocol,
    inbuf: FrameBuffer,
    /// Encoded, length-prefixed response bytes not yet accepted by the
    /// socket; `wpos` marks how far the kernel got.
    wbuf: Vec<u8>,
    wpos: usize,
    shared: Arc<ConnShared>,
    /// Sequence number the next decoded frame will get.
    next_seq: u64,
    /// Sequence number the next flushed response must carry.
    next_write_seq: u64,
    interest: Interest,
    /// Set on fatal frames (typed reject pending): stop decoding, flush
    /// what is owed, close.
    closing: bool,
    /// The peer half-closed; serve the pipeline out, then close.
    read_closed: bool,
    /// Lifetime bytes appended to `wbuf` (cumulative, survives the
    /// buffer's clear-on-drain).
    buffered_total: u64,
    /// Lifetime bytes the socket accepted.
    written_total: u64,
    /// Spans awaiting their flush stamp, each keyed by the
    /// `buffered_total` value at which its response's last byte ends —
    /// once `written_total` reaches that offset, the socket has taken
    /// the whole response and the span completes.
    pending_spans: VecDeque<(u64, SpanHandle)>,
}

impl Conn {
    fn outstanding(&self) -> u64 {
        self.next_seq - self.next_write_seq
    }

    fn progress_stamp(&self) -> (u64, u64, usize, usize, usize, bool, bool) {
        (
            self.next_seq,
            self.next_write_seq,
            self.wpos,
            self.wbuf.len(),
            self.inbuf.pending_bytes(),
            self.closing,
            self.read_closed,
        )
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
    /// The registry's observability state, cached so the hot loop never
    /// re-derives it per frame.
    obs: Option<Arc<ServeObs>>,
    notifier: Arc<Notifier>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    token => self.pump(token),
                }
            }
        }
        // Mark every surviving connection closed so late worker
        // completions become silent drops instead of growing orphaned
        // maps.
        for (_, conn) in self.conns.drain() {
            conn.shared.closed.store(true, Ordering::Release);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    let shared = Arc::new(ConnShared {
                        token,
                        notifier: Arc::clone(&self.notifier),
                        completed: Mutex::new(BTreeMap::new()),
                        closed: AtomicBool::new(false),
                    });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            proto: ConnProtocol::new(),
                            inbuf: FrameBuffer::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            shared,
                            next_seq: 0,
                            next_write_seq: 0,
                            interest: Interest::READABLE,
                            closing: false,
                            read_closed: false,
                            buffered_total: 0,
                            written_total: 0,
                            pending_spans: VecDeque::new(),
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake(&mut self) {
        if let Some(obs) = &self.obs {
            obs.reactor_wakeups().inc();
        }
        self.notifier.wake.drain();
        let dirty: Vec<u64> = std::mem::take(&mut lock_unpoisoned(&self.notifier.dirty));
        for token in dirty {
            self.pump(token);
        }
    }

    /// Drives one connection as far as it will go right now — read,
    /// decode/dispatch, flush — repeating until a full pass makes no
    /// progress (level-triggered readiness re-reports anything left).
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            let before = conn.progress_stamp();
            self.read_ready(token);
            self.process_frames(token);
            self.flush(token);
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.progress_stamp() == before {
                break;
            }
        }
        self.update_interest(token);
        self.maybe_close(token);
    }

    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut fatal = false;
        let mut buf = [0u8; READ_CHUNK];
        while !conn.closing && !conn.read_closed && conn.outstanding() < PIPELINE_WINDOW {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                }
                Ok(n) => conn.inbuf.extend(buf.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.close_conn(token);
        }
    }

    fn process_frames(&mut self, token: u64) {
        let registry = Arc::clone(&self.registry);
        let obs = self.obs.clone();
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.outstanding() >= PIPELINE_WINDOW {
                return;
            }
            let payload = match conn.inbuf.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(message) => {
                    // A broken envelope (oversized length prefix) is
                    // fatal, but still answered — JSON before the
                    // hello, binary after: typed reject, flush, close,
                    // never a silent hangup.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let e = WireError::new(ErrorCode::BadFrame, message);
                    let bytes = conn.proto.encode_error(None, e);
                    conn.shared.complete_local(seq, bytes, None);
                    conn.closing = true;
                    return;
                }
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if let Some(obs) = &obs {
                obs.reactor_pipeline_hwm().raise(conn.outstanding());
            }
            match conn.proto.on_frame(&payload) {
                FrameAction::Request(Request::Session(req)) => {
                    let shared = Arc::clone(&conn.shared);
                    let span = obs.as_ref().map(|o| o.begin_span(req.op.code() as u8));
                    let cb_obs = obs.clone();
                    let cb_span = span.clone();
                    registry.submit_with(req, span, move |resp| {
                        let bytes = binary::encode_response(&resp);
                        if let (Some(o), Some(s)) = (&cb_obs, &cb_span) {
                            o.stamp(s, Phase::Encode);
                        }
                        shared.complete(seq, bytes, cb_span);
                    });
                }
                FrameAction::Request(other) => {
                    // ping/stats/metrics/trace_tail: answered inline,
                    // without a round trip through the worker pool.
                    let span = obs.as_ref().map(|o| o.begin_span(other.code() as u8));
                    let resp = respond_request_traced(&registry, other, span.clone());
                    let bytes = binary::encode_response(&resp);
                    if let (Some(o), Some(s)) = (&obs, &span) {
                        o.stamp(s, Phase::Encode);
                    }
                    conn.shared.complete_local(seq, bytes, span);
                }
                FrameAction::Reply(bytes) => conn.shared.complete_local(seq, bytes, None),
                FrameAction::Reject(bytes) => {
                    conn.shared.complete_local(seq, bytes, None);
                    conn.closing = true;
                }
            }
        }
    }

    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Move consecutive completed responses into the write buffer —
        // one buffer, so many pipelined responses leave in one write.
        loop {
            let next = lock_unpoisoned(&conn.shared.completed).remove(&conn.next_write_seq);
            let Some((bytes, span)) = next else { break };
            let before = conn.wbuf.len();
            if frame::append_frame_bytes(&mut conn.wbuf, &bytes).is_err() {
                // Unreachable for payloads this process encoded, but a
                // frame that cannot be framed can only end the
                // connection.
                conn.closing = true;
                break;
            }
            conn.buffered_total += (conn.wbuf.len() - before) as u64;
            if let Some(span) = span {
                conn.pending_spans.push_back((conn.buffered_total, span));
            }
            conn.next_write_seq += 1;
        }
        let mut fatal = false;
        while conn.wpos < conn.wbuf.len() {
            let chunk = conn.wbuf.get(conn.wpos..).unwrap_or_default();
            match conn.stream.write(chunk) {
                Ok(0) => {
                    fatal = true;
                    break;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.written_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if !fatal && conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        // Every span whose response the socket has now fully accepted
        // gets its flush stamp and completes.
        if let Some(obs) = &self.obs {
            while conn
                .pending_spans
                .front()
                .is_some_and(|(end, _)| *end <= conn.written_total)
            {
                if let Some((_, span)) = conn.pending_spans.pop_front() {
                    obs.stamp(&span, Phase::Flush);
                    obs.finish_span(&span);
                }
            }
        }
        if fatal {
            self.close_conn(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let interest = Interest {
            readable: !conn.closing && !conn.read_closed && conn.outstanding() < PIPELINE_WINDOW,
            writable: conn.wpos < conn.wbuf.len(),
        };
        if interest != conn.interest {
            conn.interest = interest;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
        }
    }

    fn maybe_close(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        // Graceful close: nothing more will be read (reject sent or
        // peer half-closed), every dispatched request has been
        // answered, and the socket took every byte.
        let done = (conn.closing || conn.read_closed)
            && conn.outstanding() == 0
            && conn.wpos >= conn.wbuf.len();
        if done {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.shared.closed.store(true, Ordering::Release);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Owner handle for a running reactor thread.
pub struct ReactorHandle {
    stop: Arc<AtomicBool>,
    notifier: Arc<Notifier>,
    handle: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Stops the event loop and joins its thread; open connections are
    /// dropped (their in-flight responses become silent drops).
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let _ = self.notifier.wake.wake();
            let _ = h.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Starts the reactor on `listener`, routing session requests into
/// `registry`.
///
/// # Errors
///
/// Hands the listener back (restored to blocking mode) along with the
/// error, so the caller can fall back to the threaded model — in
/// particular on [`io::ErrorKind::Unsupported`] from an epoll-less
/// environment.
pub fn spawn(
    listener: TcpListener,
    registry: Arc<SessionRegistry>,
) -> Result<ReactorHandle, (io::Error, TcpListener)> {
    let give_back = |e: io::Error, listener: TcpListener| {
        let _ = listener.set_nonblocking(false);
        Err((e, listener))
    };
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => return give_back(e, listener),
    };
    let wake = match WakeHandle::new() {
        Ok(w) => w,
        Err(e) => return give_back(e, listener),
    };
    if let Err(e) = listener.set_nonblocking(true) {
        return give_back(e, listener);
    }
    if let Err(e) = poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE) {
        return give_back(e, listener);
    }
    let notifier = Arc::new(Notifier {
        dirty: Mutex::new(Vec::new()),
        wake,
    });
    if let Err(e) = poller.register(notifier.wake.raw_fd(), WAKE_TOKEN, Interest::READABLE) {
        return give_back(e, listener);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let obs = registry.obs().cloned();
    let mut reactor = Reactor {
        poller,
        listener,
        registry,
        obs,
        notifier: Arc::clone(&notifier),
        stop: Arc::clone(&stop),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    let handle = std::thread::Builder::new()
        .name("sp-serve-reactor".to_owned())
        .spawn(move || reactor.run())
        // sp-lint: allow(panic-path, reason = "startup-time spawn before any connection is accepted; no remote input reaches this")
        .expect("failed to spawn reactor thread");
    Ok(ReactorHandle {
        stop,
        notifier,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;

    use sp_core::BackendMode;
    use sp_json::frame;

    use super::PIPELINE_WINDOW;
    use crate::config::ServeConfig;
    use crate::server::{IoModel, Server};
    use crate::wire::{
        binary, hello, GameSpec, Geometry, Request, Response, ResultBody, SessionOp, SessionRequest,
    };

    fn start(tag: &str, workers: usize) -> (Server, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-reactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(
            ServeConfig::new()
                .workers(workers)
                .io(IoModel::Reactor)
                .spill_dir(dir.clone()),
        )
        .expect("server starts");
        assert!(server.uses_reactor(), "linux test host must have epoll");
        (server, dir)
    }

    /// Connects and completes the hello.
    fn negotiate(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        frame::write_frame_bytes(&mut stream, hello::REQUEST).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let verdict = frame::read_frame_bytes(&mut reader)
            .unwrap()
            .expect("verdict");
        assert_eq!(verdict, hello::accept(None));
        (stream, reader)
    }

    fn session(id: u64, session: &str, op: SessionOp) -> Request {
        Request::Session(SessionRequest {
            id: Some(id),
            session: session.to_owned(),
            op,
        })
    }

    fn create(session_name: &str) -> Request {
        session(
            0,
            session_name,
            SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(vec![0.0, 1.0, 3.0]),
                links: vec![(0, 1), (1, 0), (1, 2), (2, 1)],
                mode: BackendMode::Dense,
            }),
        )
    }

    fn append(burst: &mut Vec<u8>, request: &Request) {
        frame::append_frame_bytes(burst, &binary::encode_request(request)).unwrap();
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
        let payload = frame::read_frame_bytes(reader).unwrap().expect("response");
        binary::decode_response(&payload).expect("typed response")
    }

    #[test]
    fn pipelined_frames_come_back_in_request_order() {
        let (server, dir) = start("pipeline", 2);
        let (mut stream, mut reader) = negotiate(&server);

        // One burst: a create followed by 20 interleaved reads, written
        // before any response is consumed.
        let mut burst = Vec::new();
        append(&mut burst, &create("p"));
        for i in 1..=20u64 {
            if i % 2 == 0 {
                append(&mut burst, &session(i, "p", SessionOp::SocialCost));
            } else {
                append(&mut burst, &Request::Ping { id: Some(i) });
            }
        }
        stream.write_all(&burst).unwrap();

        let created = read_response(&mut reader);
        assert!(
            matches!(created.outcome, Ok(ResultBody::Created { n: 3, .. })),
            "{created:?}"
        );
        for i in 1..=20u64 {
            let resp = read_response(&mut reader);
            assert_eq!(resp.id, Some(i), "responses must keep request order");
            assert!(resp.outcome.is_ok(), "{resp:?}");
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pipelined_burst_queues_at_most_one_window() {
        let (server, dir) = start("window", 1);
        let (mut stream, mut reader) = negotiate(&server);

        // One burst at one session — a create, then three windows of
        // reads — written before any response is consumed.
        let reads = 3 * PIPELINE_WINDOW;
        let mut burst = Vec::new();
        append(&mut burst, &create("w"));
        for id in 1..=reads {
            append(&mut burst, &session(id, "w", SessionOp::SocialCost));
        }
        stream.write_all(&burst).unwrap();

        for id in 0..=reads {
            let resp = read_response(&mut reader);
            assert_eq!(resp.id, Some(id), "responses must keep request order");
            assert!(resp.outcome.is_ok(), "{resp:?}");
        }
        let hwm = server.registry().stats().queue_depth_hwm;
        assert!(
            (1..=PIPELINE_WINDOW as usize).contains(&hwm),
            "one connection queued {hwm} jobs past its window of {PIPELINE_WINDOW}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
