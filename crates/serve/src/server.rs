//! The TCP front end: binding the listener, setting up the epoll
//! reactor ([`crate::reactor`]) that serves every connection, and
//! starting the [`SessionRegistry`] workers that run it.
//!
//! A server runs exactly its `workers` threads and no other. They take
//! turns at the reactor (leader/followers, see [`crate::registry`]): the
//! worker that reads a request runs it, and the worker that finishes a
//! reply writes it to the connection's nonblocking socket. The poller
//! is woken only when a worker needs the event loop (a full socket, a
//! stalled read side that can go on, a connection to close), when
//! shutdown starts, and when a job arrives from outside the poller
//! while a worker is parked in it.
//!
//! Frames are pipelined (many requests in flight per connection,
//! responses written back **in request order**). Registry-level ops
//! (`ping`, `stats`, `metrics`, `trace_tail`) answer inline on the
//! leading worker without touching the scheduler (`respond_inline`);
//! session requests go through the non-blocking
//! [`SessionRegistry::submit_with`].
//!
//! The reactor stops reading a connection once `PIPELINE_WINDOW` of its
//! requests are in flight. That per-connection bound is the service's
//! backpressure — the registry's queues are not bounded themselves.
//! The reactor needs epoll: off Linux [`Server::start`] fails with
//! [`io::ErrorKind::Unsupported`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use sp_obs::{Phase, SpanHandle};

use crate::config::ServeConfig;
use crate::reactor::Reactor;
use crate::registry::SessionRegistry;
use crate::wire::{ErrorCode, Request, Response, ResultBody, WireError};

/// A running sp-serve instance: the registry, whose worker pool serves
/// the listener's connections. Dropping it shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    registry: Arc<SessionRegistry>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, sets up the reactor, spawns the worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind/spill-directory failures, (under
    /// [`crate::config::Durability::Wal`]) startup WAL recovery
    /// failures, and the reactor's own setup errors —
    /// [`io::ErrorKind::Unsupported`] where there is no epoll.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let registry = SessionRegistry::new(config.registry)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        registry.attach(Reactor::new(listener, registry.obs().cloned())?);
        let worker_handles = registry.spawn_workers(config.workers);
        Ok(Server {
            local_addr,
            registry,
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

    /// Stops accepting, shuts the scheduler down, and joins every
    /// worker. Connections still open are shut down.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.registry.shutdown();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Computes the response for one registry-level request (`ping`,
/// `stats`, `metrics`, `trace_tail`), answered inline by the leading
/// worker, and stamps [`Phase::Execute`] on `span`.
#[must_use]
pub(crate) fn respond_inline(
    registry: &SessionRegistry,
    request: Request,
    span: Option<SpanHandle>,
) -> Response {
    let response = match request {
        // The reactor hands session requests to the scheduler, so none
        // reaches here.
        Request::Session(req) => Response::err(
            req.id,
            WireError::new(
                ErrorCode::BadRequest,
                "session requests go through the scheduler",
            ),
        ),
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

#[cfg(test)]
mod tests {
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use sp_core::{BackendMode, BestResponseMethod, PeerId};
    use sp_json::frame;

    use super::*;
    use crate::client::ServeClient;
    use crate::spec::MAX_DENSE_PEERS;
    use crate::wire::{
        binary, DynamicsRule, DynamicsSpec, GameSpec, Geometry, SessionOp, SessionRequest,
    };

    fn start(tag: &str) -> (Server, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("sp-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig::new().workers(1).spill_dir(dir.clone()))
            .expect("server starts");
        (server, dir)
    }

    /// A protocol-1 first frame, a `proto: 1` hello, or bytes that are
    /// not JSON get a typed JSON reject and then EOF; a protocol-2 hello
    /// gets the pinned verdict and the connection speaks binary.
    #[test]
    fn handshake_rejects_protocol_1() {
        let (server, dir) = start("hello");
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
            assert_eq!(v["ok"], false, "{v}");
            assert_eq!(v["code"].as_str(), Some(code), "{v}");
            assert!(
                frame::read_frame_bytes(&mut reader).unwrap().is_none(),
                "the server must close after the reject"
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

    /// An oversized length prefix is answered with a typed `bad_frame`
    /// in the connection's state — the JSON envelope before the hello,
    /// binary after it — then EOF.
    #[test]
    fn oversized_length_prefix_is_rejected_in_the_connection_state() {
        use std::io::Write;

        let huge = u32::MAX.to_be_bytes();
        let (server, dir) = start("oversized");

        // Before the hello the reject is the JSON envelope…
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&huge).unwrap();
        let mut reader = BufReader::new(stream);
        let v = frame::read_frame(&mut reader)
            .unwrap()
            .expect("typed reject");
        assert_eq!(v["code"].as_str(), Some("bad_frame"), "{v}");
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
        assert_eq!(code, ErrorCode::BadFrame);
        assert!(frame::read_frame_bytes(&mut reader).unwrap().is_none());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Synchronous clients: each waits for a response before it sends
    /// its next request.
    const CLIENTS: usize = 4;

    /// A client that does not pipeline has one request in flight, so
    /// `CLIENTS` of them on one session queue at most `CLIENTS` jobs.
    #[test]
    fn synchronous_connections_queue_one_request_each() {
        let (server, dir) = start("sync");
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
        // Every client hammers the one session.
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

    /// With one worker, that worker both polls and executes. A job
    /// submitted from a thread that is no connection, while the worker
    /// is parked in the poller, must wake it.
    #[test]
    fn a_submit_from_outside_wakes_the_parked_poller() {
        let (server, dir) = start("outside");
        let registry = Arc::clone(server.registry());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !registry.leading() {
            assert!(
                Instant::now() < deadline,
                "the worker never took the poller"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let request = SessionRequest {
            id: Some(1),
            session: "outside".to_owned(),
            op: SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(vec![0.0, 1.0, 3.0]),
                links: Vec::new(),
                mode: BackendMode::Dense,
            }),
        };
        let response = registry
            .submit(request, None)
            .recv_timeout(Duration::from_secs(2))
            .expect("a submit while the only worker polls is answered");
        assert!(response.outcome.is_ok(), "{response:?}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dense `create` over the peer cap, and a sparse slot's heavy ops
    /// over it, fail typed before anything allocates; the server goes on
    /// answering on the same connection.
    #[test]
    fn oversized_games_fail_typed_and_the_server_survives() {
        let (server, dir) = start("cap");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        let line = |n: usize| Geometry::Line((0..n).map(|i| i as f64).collect());
        let spec = |geometry, mode| GameSpec {
            alpha: 1.0,
            geometry,
            links: Vec::new(),
            mode,
        };
        let err = client
            .create("huge", spec(line(1 << 20), BackendMode::Dense))
            .expect_err("a 2^20-peer dense game must be refused");
        assert_eq!(err.code, ErrorCode::BadSpec, "{err}");
        assert_eq!(client.ping(), Ok(ResultBody::Pong));

        client
            .create("wide", spec(line(MAX_DENSE_PEERS + 1), BackendMode::Sparse))
            .expect("a sparse slot has no dense cap");
        let method = BestResponseMethod::Greedy;
        let refusals = [
            client.best_response("wide", PeerId::new(0), method),
            client.nash_gap("wide", method),
            client.run_dynamics(
                "wide",
                DynamicsSpec {
                    rule: DynamicsRule::Better,
                    max_rounds: Some(1),
                    tolerance: None,
                    detect_cycles: None,
                },
            ),
        ];
        for refusal in refusals {
            let err = refusal.expect_err("a heavy op over the cap must be refused");
            assert_eq!(err.code, ErrorCode::Core, "{err}");
            assert!(err.message.contains("capped at"), "{err}");
        }
        assert!(client.social_cost("wide").is_ok());
        assert_eq!(client.ping(), Ok(ResultBody::Pong));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
