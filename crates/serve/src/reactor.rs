//! The epoll reactor: every connection served on nonblocking sockets,
//! with pipelined frames, by the registry's own workers.
//!
//! # Threads: leader/followers
//!
//! The reactor has no thread of its own. The one [`sp_net::Poller`],
//! the listener and the connection map sit behind one lock, and the
//! registry workers take turns at it
//! ([`crate::registry::SessionRegistry`] runs the turns): an idle worker
//! with no ready job *leads* — it waits in `epoll_wait`, then reads and
//! decodes whatever became readable and submits each session request
//! with `SessionRegistry::submit_with`. When its turn ends it keeps
//! one ready job for itself, hands leadership to an idle follower, and
//! runs that job; no other thread touches the request before its
//! reply. `ping`, `stats`, `metrics` and `trace_tail` are answered by
//! the leader itself, inline.
//!
//! # Who writes replies
//!
//! Each connection's write side — completed replies keyed by sequence
//! number, the unsent bytes, the next sequence owed — sits in
//! `ConnShared` under one lock. The worker that finishes a reply
//! parks it there, moves every reply now due into the write buffer,
//! and writes the buffer to the nonblocking socket itself. A reply's
//! span gets its `flush` stamp and completes when its bytes enter the
//! write buffer, *before* the write that can deliver them, so a client
//! that has read a reply always finds its span counted.
//!
//! # When the poller is woken
//!
//! A worker wakes the poller (an `eventfd`, [`sp_net::WakeHandle`])
//! only when it needs the event loop: the socket is full
//! (`WouldBlock`: the poller takes write interest and finishes the
//! write when the peer drains), the connection's read side stalled
//! (a full window, or a connection closing once answered) can go on,
//! or a write failed and the connection must close. The registry wakes
//! it when shutdown starts, and when a job is pushed from outside the
//! poller while a worker is parked in `epoll_wait`. `reactor.wakeups`
//! counts these wakeups.
//!
//! # Pipelining and ordering
//!
//! Every decoded frame gets the connection's next sequence number, and
//! replies are written **strictly in sequence order**: a completed
//! reply waits in the connection's map until every lower sequence has
//! been written. Distinct sessions still execute concurrently —
//! ordering is a per-connection write discipline, not an execution
//! barrier — so one connection can keep `PIPELINE_WINDOW` requests
//! in flight. When the window fills, the leader stops *reading* that
//! connection (drops read interest); kernel-buffer backpressure does
//! the rest.
//!
//! # Fairness and closing
//!
//! The poller is level-triggered: readiness not fully consumed is
//! re-reported on the next `epoll_wait`, so a connection is never
//! starved by an early `break`. Closing a connection shuts its socket
//! down at once — the peer sees EOF even while an in-flight job still
//! holds the connection — and a reply completed after that is dropped.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sp_json::frame::{self, FrameBuffer};
use sp_net::{Event, Interest, Poller, WakeHandle};
use sp_obs::{Phase, SpanHandle};

use crate::obs::ServeObs;
use crate::registry::SessionRegistry;
use crate::server::respond_inline;
use crate::wire::{binary, ConnProtocol, ErrorCode, FrameAction, Request, Response, WireError};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Token of the cross-thread wakeup eventfd.
const WAKE_TOKEN: u64 = 1;
/// First token handed to a connection; the counter only grows, so a
/// late wakeup for a closed connection can never alias a newer one.
const FIRST_CONN_TOKEN: u64 = 2;

/// Maximum requests in flight per connection before the reactor stops
/// reading it. This is the reactor's backpressure: one connection can
/// have at most this many jobs queued in the registry, so a session's
/// queue depth is at most `window × connections` addressing it, while
/// leaving plenty of pipelining headroom.
pub(crate) const PIPELINE_WINDOW: u64 = 64;

/// Read chunk size; frames larger than this simply take several reads.
const READ_CHUNK: usize = 16 * 1024;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The way into a parked `epoll_wait`: the connections that need the
/// event loop, plus the eventfd that ends the wait.
struct Notifier {
    dirty: Mutex<Vec<u64>>,
    wake: WakeHandle,
}

impl Notifier {
    fn notify(&self, token: u64) {
        lock_unpoisoned(&self.dirty).push(token);
        self.wake();
    }

    fn wake(&self) {
        // A failed wake is ignored: the next poll drains the dirty list
        // anyway.
        let _ = self.wake.wake();
    }
}

/// An encoded reply payload plus the request's trace span.
type CompletedResponse = (Vec<u8>, Option<SpanHandle>);

/// A connection's write side, under [`ConnShared::out`].
#[derive(Default)]
struct Outbox {
    /// Completed replies keyed by sequence number, waiting for every
    /// lower sequence to be written.
    completed: BTreeMap<u64, CompletedResponse>,
    /// Sequence number the next reply moved into `wbuf` must carry.
    next_write_seq: u64,
    /// Framed reply bytes the socket has not taken yet; `wpos` marks
    /// how far it got.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The socket returned `WouldBlock`: the poller holds write
    /// interest and resumes the write, so workers only buffer.
    blocked: bool,
    /// A write failed: the poller must close the connection.
    failed: bool,
    /// The read side stopped and waits for `next_write_seq` to reach
    /// this; the reply that gets it there wakes the poller.
    wake_at: Option<u64>,
    /// The connection is closed: completions are dropped.
    closed: bool,
}

impl Outbox {
    fn unwritten(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// The part of a connection that a reply callback reaches from any
/// worker: the one owned socket and its write side.
struct ConnShared {
    token: u64,
    stream: TcpStream,
    notifier: Arc<Notifier>,
    obs: Option<Arc<ServeObs>>,
    out: Mutex<Outbox>,
}

impl ConnShared {
    /// Encodes a reply and stamps its `encode` phase.
    fn encode(&self, response: &Response, span: Option<&SpanHandle>) -> Vec<u8> {
        let bytes = binary::encode_response(response);
        if let (Some(obs), Some(span)) = (&self.obs, span) {
            obs.stamp(span, Phase::Encode);
        }
        bytes
    }

    /// Parks the reply to `seq` without writing it: the leader writes
    /// once per connection turn, and only to connections it has open.
    fn park(&self, seq: u64, bytes: Vec<u8>, span: Option<SpanHandle>) {
        lock_unpoisoned(&self.out)
            .completed
            .insert(seq, (bytes, span));
    }

    /// Called by the worker that finished the job of `seq`: parks the
    /// reply, writes every reply now due, and wakes the poller if the
    /// connection needs it. A silent drop after close — there is
    /// nowhere left to write.
    fn complete(&self, seq: u64, bytes: Vec<u8>, span: Option<SpanHandle>) {
        let mut out = lock_unpoisoned(&self.out);
        if out.closed {
            return;
        }
        out.completed.insert(seq, (bytes, span));
        let needs_poller = self.write_out(&mut out);
        drop(out);
        if needs_poller {
            self.notifier.notify(self.token);
        }
    }

    /// Moves the consecutive completed replies into the write buffer —
    /// finishing each span there, before its bytes can reach the client
    /// — and writes what the socket takes, unless the poller owns a
    /// blocked write. Returns whether the poller must look at the
    /// connection: the socket just filled, a write just failed, or the
    /// read side's `wake_at` was reached.
    fn write_out(&self, out: &mut Outbox) -> bool {
        let (was_blocked, was_failed) = (out.blocked, out.failed);
        while let Some((bytes, span)) = out.completed.remove(&out.next_write_seq) {
            if frame::append_frame_bytes(&mut out.wbuf, &bytes).is_err() {
                // Unreachable for payloads this process encoded, but a
                // reply that cannot be framed can only end the
                // connection.
                out.failed = true;
                break;
            }
            if let (Some(obs), Some(span)) = (&self.obs, span) {
                obs.stamp(&span, Phase::Flush);
                obs.finish_span(&span);
            }
            out.next_write_seq += 1;
        }
        while !out.blocked && !out.failed && out.unwritten() {
            let chunk = out.wbuf.get(out.wpos..).unwrap_or_default();
            match (&self.stream).write(chunk) {
                Ok(0) => out.failed = true,
                Ok(n) => out.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => out.blocked = true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => out.failed = true,
            }
        }
        if !out.unwritten() {
            out.wbuf.clear();
            out.wpos = 0;
        }
        let reached = out.wake_at.is_some_and(|at| out.next_write_seq >= at);
        if reached {
            out.wake_at = None;
        }
        (out.blocked && !was_blocked) || (out.failed && !was_failed) || reached
    }

    /// Marks the connection closed, drops what it still owed, and shuts
    /// the socket down so the peer sees EOF at once.
    fn close(&self) {
        {
            let mut out = lock_unpoisoned(&self.out);
            out.closed = true;
            out.completed.clear();
            out.wbuf = Vec::new();
            out.wpos = 0;
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A connection's read side: touched only by the leader.
struct Conn {
    shared: Arc<ConnShared>,
    proto: ConnProtocol,
    inbuf: FrameBuffer,
    /// Sequence number the next decoded frame will get.
    next_seq: u64,
    interest: Interest,
    /// Set on fatal frames (typed reject pending): stop decoding, write
    /// what is owed, close.
    closing: bool,
    /// The peer half-closed; serve the pipeline out, then close.
    read_closed: bool,
}

/// Everything a connection turn compares to tell whether it moved.
type Progress = (u64, usize, bool, bool, u64, usize, usize, bool, bool);

impl Conn {
    /// Whether no more frames are read until every dispatched request
    /// is answered.
    fn draining(&self) -> bool {
        self.closing || self.read_closed
    }

    /// Requests dispatched whose replies are not yet in the write
    /// buffer.
    fn outstanding(&self) -> u64 {
        self.next_seq - lock_unpoisoned(&self.shared.out).next_write_seq
    }

    fn progress(&self, out: &Outbox) -> Progress {
        (
            self.next_seq,
            self.inbuf.pending_bytes(),
            self.closing,
            self.read_closed,
            out.next_write_seq,
            out.wpos,
            out.wbuf.len(),
            out.blocked,
            out.failed,
        )
    }
}

/// What the leader holds for one turn: the poller, the listener and the
/// connection map.
struct PollState {
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// The event buffer, reused across turns.
    events: Vec<Event>,
}

/// The connection engine the registry workers take turns at (see the
/// module docs).
pub(crate) struct Reactor {
    state: Mutex<PollState>,
    notifier: Arc<Notifier>,
    obs: Option<Arc<ServeObs>>,
    /// Cleared by [`Reactor::close`], or when the poller fails: no
    /// worker leads again.
    open: AtomicBool,
}

impl Reactor {
    /// Sets the reactor up on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates poller, eventfd and listener setup failures —
    /// [`io::ErrorKind::Unsupported`] where there is no epoll.
    pub(crate) fn new(listener: TcpListener, obs: Option<Arc<ServeObs>>) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let wake = WakeHandle::new()?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(wake.raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
        Ok(Reactor {
            state: Mutex::new(PollState {
                poller,
                listener: Some(listener),
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                events: Vec::new(),
            }),
            notifier: Arc::new(Notifier {
                dirty: Mutex::new(Vec::new()),
                wake,
            }),
            obs,
            open: AtomicBool::new(true),
        })
    }

    /// Whether a worker may lead: not closed, and the poller works.
    pub(crate) fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// Ends a leader's `epoll_wait` (or the next one, if none is
    /// parked).
    pub(crate) fn wake(&self) {
        self.notifier.wake();
    }

    /// One leader turn: waits for readiness, then accepts, reads,
    /// decodes and dispatches everything that became ready, and writes
    /// what the poller owes. Session requests go to `registry`.
    pub(crate) fn lead(&self, registry: &SessionRegistry) {
        let mut state = lock_unpoisoned(&self.state);
        if !self.is_open() {
            return;
        }
        let mut events = std::mem::take(&mut state.events);
        if state.poller.wait(&mut events, None).is_err() {
            self.open.store(false, Ordering::Release);
            return;
        }
        if self.is_open() {
            let mut turn = Turn {
                state: &mut state,
                registry,
                reactor: self,
            };
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => turn.accept_ready(),
                    WAKE_TOKEN => turn.drain_wake(),
                    token => turn.pump(token),
                }
            }
        }
        state.events = events;
    }

    /// Stops the reactor: no worker leads again, every connection is
    /// shut down (in-flight replies become silent drops), and the
    /// listener closes. Waits out a leader's turn in progress.
    pub(crate) fn close(&self) {
        self.open.store(false, Ordering::Release);
        self.wake();
        let mut state = lock_unpoisoned(&self.state);
        for (_, conn) in state.conns.drain() {
            conn.shared.close();
        }
        state.listener = None;
    }
}

/// One leader turn over the locked [`PollState`].
struct Turn<'a> {
    state: &'a mut PollState,
    registry: &'a SessionRegistry,
    reactor: &'a Reactor,
}

impl Turn<'_> {
    fn accept_ready(&mut self) {
        let Some(listener) = &self.state.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.state.next_token;
                    self.state.next_token += 1;
                    if self
                        .state
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    let shared = Arc::new(ConnShared {
                        token,
                        stream,
                        notifier: Arc::clone(&self.reactor.notifier),
                        obs: self.reactor.obs.clone(),
                        out: Mutex::new(Outbox::default()),
                    });
                    self.state.conns.insert(
                        token,
                        Conn {
                            shared,
                            proto: ConnProtocol::new(),
                            inbuf: FrameBuffer::new(),
                            next_seq: 0,
                            interest: Interest::READABLE,
                            closing: false,
                            read_closed: false,
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
        if let Some(obs) = &self.reactor.obs {
            obs.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        self.reactor.notifier.wake.drain();
        let dirty: Vec<u64> = std::mem::take(&mut lock_unpoisoned(&self.reactor.notifier.dirty));
        for token in dirty {
            self.pump(token);
        }
    }

    /// Drives one connection as far as it will go right now — read,
    /// decode/dispatch, write — repeating until a full pass makes no
    /// progress, then settles its interest. The last progress check and
    /// the read side's `wake_at` share one hold of the write-side lock,
    /// so a reply finished after the check always wakes the poller.
    fn pump(&mut self, token: u64) {
        let mut before = None;
        loop {
            let Some(conn) = self.state.conns.get_mut(&token) else {
                return;
            };
            let shared = Arc::clone(&conn.shared);
            let mut out = lock_unpoisoned(&shared.out);
            let now = conn.progress(&out);
            if before == Some(now) {
                if out.failed {
                    drop(out);
                    self.close_conn(token);
                    return;
                }
                let outstanding = conn.next_seq - out.next_write_seq;
                let interest = Interest {
                    readable: !conn.draining() && outstanding < PIPELINE_WINDOW,
                    writable: out.blocked,
                };
                out.wake_at = if conn.draining() {
                    Some(conn.next_seq)
                } else if outstanding >= PIPELINE_WINDOW {
                    Some(conn.next_seq + 1 - PIPELINE_WINDOW)
                } else {
                    None
                };
                let done = conn.draining() && outstanding == 0 && !out.unwritten();
                drop(out);
                if done {
                    self.close_conn(token);
                } else if interest != conn.interest {
                    conn.interest = interest;
                    let fd = shared.stream.as_raw_fd();
                    let _ = self.state.poller.modify(fd, token, interest);
                }
                return;
            }
            before = Some(now);
            drop(out);
            self.read_ready(token);
            self.process_frames(token);
            self.flush(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.state.conns.get_mut(&token) else {
            return;
        };
        let mut fatal = false;
        let mut buf = [0u8; READ_CHUNK];
        while !conn.draining() && conn.outstanding() < PIPELINE_WINDOW {
            match (&conn.shared.stream).read(&mut buf) {
                Ok(0) => conn.read_closed = true,
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
        let (registry, reactor) = (self.registry, self.reactor);
        let obs = reactor.obs.as_ref();
        loop {
            let Some(conn) = self.state.conns.get_mut(&token) else {
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
                    // hello, binary after: typed reject, write, close,
                    // never a silent hangup.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let e = WireError::new(ErrorCode::BadFrame, message);
                    let bytes = conn.proto.encode_error(None, e);
                    conn.shared.park(seq, bytes, None);
                    conn.closing = true;
                    return;
                }
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if let Some(obs) = obs {
                obs.reactor_pipeline_hwm
                    .fetch_max(conn.outstanding(), Ordering::Relaxed);
            }
            match conn.proto.on_frame(&payload) {
                FrameAction::Request(Request::Session(req)) => {
                    let shared = Arc::clone(&conn.shared);
                    let span = obs.map(|o| o.begin_span(req.op.code() as u8));
                    registry.submit_with(req, span.clone(), move |resp| {
                        let bytes = shared.encode(&resp, span.as_ref());
                        shared.complete(seq, bytes, span);
                    });
                }
                FrameAction::Request(other) => {
                    // ping/stats/metrics/trace_tail: answered inline,
                    // without a round trip through the worker pool.
                    let span = obs.map(|o| o.begin_span(other.code() as u8));
                    let resp = respond_inline(registry, other, span.clone());
                    let bytes = conn.shared.encode(&resp, span.as_ref());
                    conn.shared.park(seq, bytes, span);
                }
                FrameAction::Reply(bytes) => conn.shared.park(seq, bytes, None),
                FrameAction::Reject(bytes) => {
                    conn.shared.park(seq, bytes, None);
                    conn.closing = true;
                }
            }
        }
    }

    /// Writes what the connection owes. The leader is the one thread
    /// that knows the socket drained, so it clears `blocked` and tries
    /// again; `WouldBlock` sets it back, and `pump` keeps write interest.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.state.conns.get(&token) else {
            return;
        };
        let mut out = lock_unpoisoned(&conn.shared.out);
        out.blocked = false;
        conn.shared.write_out(&mut out);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.state.conns.remove(&token) {
            let _ = self.state.poller.deregister(conn.shared.stream.as_raw_fd());
            conn.shared.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::time::Duration;

    use sp_core::{Move, PeerId};
    use sp_json::frame;

    use super::PIPELINE_WINDOW;
    use crate::config::ServeConfig;
    use crate::server::Server;
    use crate::wire::{
        binary, hello, GameSpec, Geometry, Request, Response, ResultBody, SessionOp, SessionRequest,
    };

    fn start(tag: &str, workers: usize) -> (Server, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-reactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig::new().workers(workers).spill_dir(dir.clone()))
            .expect("server starts");
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

    /// A connection that stops reading while a window of replies far
    /// larger than its socket buffers completes: the workers fill the
    /// socket and hand the unwritten tail to the poller, which finishes
    /// it once the client reads again. Every reply arrives once, in
    /// request order.
    #[test]
    fn a_full_socket_hands_the_write_to_the_poller() {
        let (server, dir) = start("short-write", 2);
        let (mut stream, mut reader) = negotiate(&server);
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();

        // Every peer of a 250-peer line links to every other, so each
        // prior strategy is 249 two-byte peer ids.
        let n = 250;
        let links = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let mut burst = Vec::new();
        append(
            &mut burst,
            &session(
                0,
                "big",
                SessionOp::Create(GameSpec {
                    alpha: 1.0,
                    geometry: Geometry::Line((0..n).map(|i| i as f64).collect()),
                    links,
                }),
            ),
        );
        stream.write_all(&burst).unwrap();
        let created = read_response(&mut reader);
        assert!(created.outcome.is_ok(), "{created:?}");

        // Each batch drops and restores one link of every peer: no net
        // change, and a reply of 500 prior strategies, ~250 KB. One
        // window of them is ~16 MB.
        let moves: Vec<Move> = (0..n)
            .flat_map(|i| {
                let (from, to) = (PeerId::new(i), PeerId::new((i + 1) % n));
                [Move::RemoveLink { from, to }, Move::AddLink { from, to }]
            })
            .collect();
        let mut burst = Vec::new();
        for id in 1..=PIPELINE_WINDOW {
            let op = SessionOp::ApplyBatch {
                moves: moves.clone(),
            };
            append(&mut burst, &session(id, "big", op));
        }
        stream.write_all(&burst).unwrap();
        // Let the whole window complete against a socket nobody reads.
        std::thread::sleep(Duration::from_millis(300));

        for id in 1..=PIPELINE_WINDOW {
            let resp = read_response(&mut reader);
            assert_eq!(resp.id, Some(id), "replies must arrive once, in order");
            match resp.outcome {
                Ok(ResultBody::BatchApplied { previous }) => assert_eq!(previous.len(), 2 * n),
                other => panic!("reply {id}: {other:?}"),
            }
        }
        // Nothing is left over: the next reply is the ping's.
        let mut ping = Vec::new();
        append(&mut ping, &Request::Ping { id: Some(99) });
        stream.write_all(&ping).unwrap();
        assert_eq!(read_response(&mut reader).id, Some(99));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
