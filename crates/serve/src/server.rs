//! The TCP front end: accepting connections, per-connection framing and
//! protocol negotiation, and routing typed requests into the
//! [`SessionRegistry`] scheduler.
//!
//! Two interchangeable I/O models serve the same protocol:
//!
//! * [`IoModel::Reactor`] (default on Linux) — one epoll event loop
//!   ([`crate::reactor`]) drives every connection on nonblocking
//!   sockets; frames are pipelined (many requests in flight per
//!   connection, responses written back **in request order**) and
//!   completed responses are batched into single writes.
//! * [`IoModel::Threaded`] — one thread per connection handling frames
//!   synchronously: read a request, route it, wait, write the response.
//!   This is the historical model, the portable fallback, and the
//!   simplest possible reference for the reactor's observable
//!   behaviour — both models answer any request sequence identically.
//!
//! Either way, registry-level ops (`ping`, `stats`, `metrics`,
//! `trace_tail`) answer inline without touching the scheduler, and
//! per-connection responses arrive in request order.
//!
//! Both models hand session requests to the scheduler through the same
//! non-blocking [`SessionRegistry::submit_with`] and bound what one
//! connection has in flight: the threaded model by waiting on each
//! response (one request at a time), the reactor by its
//! `PIPELINE_WINDOW`. That per-connection bound is the service's
//! backpressure — the registry's queues are not bounded themselves.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use sp_json::frame;
use sp_obs::{Phase, SpanHandle};

use crate::config::ServeConfig;
use crate::registry::SessionRegistry;
use crate::wire::{
    binary, ConnProtocol, ErrorCode, FrameAction, Request, Response, ResultBody, WireError,
};

/// Which connection I/O engine a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// The epoll reactor: one event loop, nonblocking sockets,
    /// pipelined frames. Falls back to [`IoModel::Threaded`] off Linux.
    Reactor,
    /// One blocking thread per connection.
    Threaded,
}

enum IoHandles {
    Threaded {
        stop: Arc<AtomicBool>,
        accept_handle: JoinHandle<()>,
    },
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReactorHandle),
}

/// A running sp-serve instance: listener, connection engine, and the
/// registry worker pool.
pub struct Server {
    local_addr: SocketAddr,
    registry: Arc<SessionRegistry>,
    io: Option<IoHandles>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the connection engine, and
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates bind/spill-directory failures, and (under
    /// [`crate::config::Durability::Wal`]) startup WAL recovery
    /// failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let registry = SessionRegistry::new(config.registry)?;
        let worker_handles = registry.spawn_workers(config.workers);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let io = start_io(config.io, listener, &registry)?;
        Ok(Server {
            local_addr,
            registry,
            io: Some(io),
            worker_handles,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry behind this server.
    #[must_use]
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// `true` when the epoll reactor (not the threaded fallback) is
    /// serving connections.
    #[must_use]
    pub fn uses_reactor(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            matches!(self.io, Some(IoHandles::Reactor(_)))
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }

    /// Stops accepting, shuts the scheduler down, and joins everything.
    /// Connections still open observe errors and close themselves.
    pub fn shutdown(mut self) {
        // Stop the I/O engine first so no new work reaches the registry
        // after its shutdown drain starts.
        match self.io.take() {
            Some(IoHandles::Threaded {
                stop,
                accept_handle,
            }) => {
                stop.store(true, Ordering::Release);
                // Nudge the accept loop out of its blocking accept.
                let _ = TcpStream::connect(self.local_addr);
                let _ = accept_handle.join();
            }
            #[cfg(target_os = "linux")]
            Some(IoHandles::Reactor(handle)) => handle.shutdown(),
            None => {}
        }
        self.registry.shutdown();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn start_io(
    io: IoModel,
    listener: TcpListener,
    registry: &Arc<SessionRegistry>,
) -> io::Result<IoHandles> {
    #[cfg(target_os = "linux")]
    if io == IoModel::Reactor {
        return match crate::reactor::spawn(listener, Arc::clone(registry)) {
            Ok(handle) => Ok(IoHandles::Reactor(handle)),
            // An epoll-less environment (exotic sandbox) degrades to
            // the portable model instead of refusing to serve.
            Err((e, listener)) if e.kind() == io::ErrorKind::Unsupported => {
                start_threaded(listener, registry)
            }
            Err((e, _)) => Err(e),
        };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = io; // only one model exists off Linux
    start_threaded(listener, registry)
}

fn start_threaded(listener: TcpListener, registry: &Arc<SessionRegistry>) -> io::Result<IoHandles> {
    let stop = Arc::new(AtomicBool::new(false));
    let accept_handle = {
        let registry = Arc::clone(registry);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("sp-serve-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let registry = Arc::clone(&registry);
                    // Connection threads exit when the peer closes;
                    // they are deliberately detached.
                    let _ = std::thread::Builder::new()
                        .name("sp-serve-conn".to_owned())
                        .spawn(move || handle_connection(stream, &registry));
                }
            })
            // sp-lint: allow(panic-path, reason = "startup-time spawn before any connection is accepted; no remote input reaches this")
            .expect("failed to spawn accept thread")
    };
    Ok(IoHandles::Threaded {
        stop,
        accept_handle,
    })
}

/// Computes the response for one typed request — the single routing
/// point shared by both I/O models. Session requests block on the
/// scheduler and hand it `span` (which it stamps at the queue and
/// execution phases); everything else answers inline and stamps
/// [`Phase::Execute`] itself.
#[must_use]
pub(crate) fn respond_request_traced(
    registry: &SessionRegistry,
    request: Request,
    span: Option<SpanHandle>,
) -> Response {
    let response = match request {
        // The session path delegates the span to the scheduler and
        // returns before the inline Execute stamp below.
        Request::Session(req) => {
            let id = req.id;
            return registry.submit(req, span).recv().unwrap_or_else(|_| {
                Response::err(
                    id,
                    WireError::new(ErrorCode::Shutdown, "server shutting down"),
                )
            });
        }
        // [`ConnProtocol`] answers every hello before routing.
        Request::Hello { id, .. } => Response::err(
            id,
            WireError::new(
                ErrorCode::BadProto,
                "hello must be the first frame of a connection",
            ),
        ),
        Request::Ping { id } => Response::ok(id, ResultBody::Pong),
        Request::Stats { id } => Response::ok(id, ResultBody::Stats(registry.stats().to_wire())),
        Request::Metrics { id } => match registry.obs() {
            None => Response::err(
                id,
                WireError::new(ErrorCode::BadRequest, "observability is disabled"),
            ),
            Some(obs) => Response::ok(
                id,
                ResultBody::Metrics(obs.metrics_body(&registry.stats(), &registry.work_stats())),
            ),
        },
        Request::TraceTail { id, limit, slow_ns } => match registry.obs() {
            None => Response::err(
                id,
                WireError::new(ErrorCode::BadRequest, "observability is disabled"),
            ),
            Some(obs) => Response::ok(
                id,
                ResultBody::TraceTail {
                    spans: obs.trace_tail_body(limit, slow_ns),
                },
            ),
        },
    };
    if let (Some(obs), Some(span)) = (registry.obs(), &span) {
        obs.stamp(span, Phase::Execute);
    }
    response
}

fn handle_connection(stream: TcpStream, registry: &SessionRegistry) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut proto = ConnProtocol::new();
    loop {
        let payload = match frame::read_frame_bytes(&mut reader) {
            Ok(Some(p)) => p,
            // A broken envelope (oversized length prefix) is fatal, but
            // still answered in the connection's state, as the reactor
            // does: typed reject, then close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let error = WireError::new(ErrorCode::BadFrame, e.to_string());
                let _ = frame::write_frame_bytes(&mut writer, &proto.encode_error(None, error));
                return;
            }
            // Clean close or a mid-frame transport error both end the
            // connection silently (undecodable *payloads* get typed
            // replies via the protocol state machine below).
            Ok(None) | Err(_) => return,
        };
        match proto.on_frame(&payload) {
            FrameAction::Request(request) => {
                let obs = registry.obs().cloned();
                let span = obs.as_ref().map(|o| o.begin_span(request.code() as u8));
                let response = respond_request_traced(registry, request, span.clone());
                let bytes = binary::encode_response(&response);
                if let (Some(obs), Some(span)) = (&obs, &span) {
                    obs.stamp(span, Phase::Encode);
                }
                // `write_frame_bytes` flushes before returning, so a
                // successful write really did hand the response to the
                // socket — the flush stamp is honest.
                if frame::write_frame_bytes(&mut writer, &bytes).is_err() {
                    return;
                }
                if let (Some(obs), Some(span)) = (&obs, &span) {
                    obs.stamp(span, Phase::Flush);
                    obs.finish_span(span);
                }
            }
            FrameAction::Reply(bytes) => {
                if frame::write_frame_bytes(&mut writer, &bytes).is_err() {
                    return;
                }
            }
            FrameAction::Reject(bytes) => {
                // Typed reject, then close — never a silent hangup.
                let _ = frame::write_frame_bytes(&mut writer, &bytes);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sp_core::BackendMode;

    use super::*;
    use crate::client::ServeClient;
    use crate::wire::{GameSpec, Geometry};

    /// The handshake holds on both engines: a protocol-1 first frame,
    /// a `proto: 1` hello, or bytes that are not JSON get a typed JSON
    /// reject and then EOF; a protocol-2 hello gets the pinned verdict
    /// and the connection speaks binary.
    #[test]
    fn handshake_rejects_protocol_1_on_both_engines() {
        for io in [IoModel::Threaded, IoModel::Reactor] {
            let dir = std::env::temp_dir().join(format!(
                "sp-serve-server-hello-{io:?}-{}",
                std::process::id()
            ));
            let server = Server::start(ServeConfig::new().workers(1).io(io).spill_dir(dir.clone()))
                .expect("server starts");
            for (first, code) in [
                (&br#"{"op":"ping","id":1}"#[..], "bad_proto"),
                (br#"{"op":"hello","proto":1}"#, "bad_proto"),
                (b"definitely not json", "bad_frame"),
            ] {
                let mut stream = TcpStream::connect(server.local_addr()).unwrap();
                frame::write_frame_bytes(&mut stream, first).unwrap();
                let mut reader = BufReader::new(stream);
                let v = frame::read_frame(&mut reader)
                    .unwrap()
                    .expect("typed reject");
                assert_eq!(v["ok"], false, "{io:?}: {v}");
                assert_eq!(v["code"].as_str(), Some(code), "{io:?}: {v}");
                assert!(
                    frame::read_frame_bytes(&mut reader).unwrap().is_none(),
                    "{io:?}: the server must close after the reject"
                );
            }
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            frame::write_frame_bytes(&mut stream, br#"{"op":"hello","proto":2,"id":7}"#).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let verdict = frame::read_frame_bytes(&mut reader)
                .unwrap()
                .expect("verdict");
            assert_eq!(verdict, br#"{"id":7,"ok":true,"result":{"proto":2}}"#);
            let ping = binary::encode_request(&Request::Ping { id: Some(8) });
            frame::write_frame_bytes(&mut stream, &ping).unwrap();
            let pong = frame::read_frame_bytes(&mut reader).unwrap().expect("pong");
            assert_eq!(
                binary::decode_response(&pong),
                Ok(Response::ok(Some(8), ResultBody::Pong))
            );
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An oversized length prefix is answered with a typed `bad_frame`
    /// in the connection's state — the JSON envelope before the hello,
    /// binary after it — then EOF, on both engines.
    #[test]
    fn oversized_length_prefix_is_rejected_in_the_connection_state() {
        use std::io::Write;

        let huge = u32::MAX.to_be_bytes();
        for io in [IoModel::Threaded, IoModel::Reactor] {
            let dir = std::env::temp_dir().join(format!(
                "sp-serve-server-oversized-{io:?}-{}",
                std::process::id()
            ));
            let server = Server::start(ServeConfig::new().workers(1).io(io).spill_dir(dir.clone()))
                .expect("server starts");

            // Before the hello the reject is the JSON envelope…
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.write_all(&huge).unwrap();
            let mut reader = BufReader::new(stream);
            let v = frame::read_frame(&mut reader)
                .unwrap()
                .expect("typed reject");
            assert_eq!(v["code"].as_str(), Some("bad_frame"), "{io:?}: {v}");
            assert!(frame::read_frame_bytes(&mut reader).unwrap().is_none());

            // …after it, binary.
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            frame::write_frame_bytes(&mut stream, crate::wire::hello::REQUEST).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let verdict = frame::read_frame_bytes(&mut reader).unwrap();
            assert_eq!(verdict, Some(crate::wire::hello::accept(None)));
            stream.write_all(&huge).unwrap();
            let reject = frame::read_frame_bytes(&mut reader)
                .unwrap()
                .expect("typed reject");
            let code = binary::decode_response(&reject)
                .expect("binary envelope")
                .outcome
                .unwrap_err()
                .code;
            assert_eq!(code, ErrorCode::BadFrame, "{io:?}");
            assert!(frame::read_frame_bytes(&mut reader).unwrap().is_none());
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Synchronous clients on the threaded engine.
    const CLIENTS: usize = 4;

    #[test]
    fn threaded_connections_queue_one_request_each() {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-server-threaded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(
            ServeConfig::new()
                .workers(1)
                .io(IoModel::Threaded)
                .spill_dir(dir.clone()),
        )
        .expect("server starts");
        assert!(!server.uses_reactor());
        let addr = server.local_addr();
        let mut setup = ServeClient::connect(addr).expect("connect");
        setup
            .create(
                "t",
                GameSpec {
                    alpha: 1.0,
                    geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
                    links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
                    mode: BackendMode::Dense,
                },
            )
            .expect("create");
        // Every client hammers the one session; a threaded connection
        // waits for each response before it sends the next request.
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    for _ in 0..50 {
                        client.social_cost("t").expect("social_cost");
                    }
                });
            }
        });
        let hwm = server.registry().stats().queue_depth_hwm;
        assert!(
            (1..=CLIENTS).contains(&hwm),
            "{CLIENTS} synchronous connections queued {hwm} jobs on one session"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
