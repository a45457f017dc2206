//! Deterministic mixed workloads: generation, single-threaded reference
//! execution, and closed-loop replay against a live server.
//!
//! The three pieces exist to make one claim testable: a concurrent
//! sp-serve under memory pressure (evict/restore cycles, worker-pool
//! interleaving) answers **bit-identically** to a single-threaded
//! executor that keeps every session resident forever, compared as
//! encoded response bytes. The script is a pure function of
//! [`WorkloadConfig`] built as typed [`Request`]s; each session's
//! requests form a deterministic subsequence; and replay partitions
//! sessions across client
//! connections (session `i` belongs to client `i % clients`), so
//! per-session order — the only order that matters — is preserved
//! however the pool schedules.
//!
//! The generated mix covers every session op: strategy mutations
//! (`apply` / `apply_batch`), cost and stretch queries, best responses
//! and Nash gaps, short in-place dynamics runs, and explicit
//! `snapshot` / `evict` / `load` lifecycle traffic (so spill/restore
//! cycles happen even under a generous budget).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::prelude::*;
use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};

use crate::client::ServeClient;
use crate::ops::{self, Session};
use crate::wire::{
    binary, DynamicsRule, DynamicsSpec, ErrorCode, GameSpec, Geometry, Request, Response,
    ResultBody, SessionOp, SessionRequest, WireError,
};

/// Parameters of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of sessions (each gets one `create`, then shares the mix).
    pub sessions: usize,
    /// Total requests, including the creates.
    pub requests: usize,
    /// Peers per session.
    pub peers: usize,
    /// Workload seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The smoke-sized preset (`sp-loadgen --quick`, CI).
    #[must_use]
    pub fn quick() -> Self {
        WorkloadConfig {
            sessions: 24,
            requests: 600,
            peers: 32,
            seed: 42,
        }
    }

    /// The acceptance-sized preset: a mixed 10k-request workload over
    /// 256 sessions holding about 54 MB resident, so a 32 MiB registry
    /// budget forces evict/restore cycles throughout.
    #[must_use]
    pub fn acceptance() -> Self {
        WorkloadConfig {
            sessions: 256,
            requests: 10_000,
            peers: 112,
            seed: 42,
        }
    }
}

/// One scripted request: which session it addresses (by index) and the
/// typed request to send.
#[derive(Debug, Clone)]
pub struct ScriptRequest {
    /// Index of the session this request addresses.
    pub session_index: usize,
    /// The typed request (already carrying op, session, and id).
    pub request: Request,
}

/// The canonical name of session `i`.
#[must_use]
pub fn session_name(i: usize) -> String {
    format!("s{i:04}")
}

fn distinct_points(n: usize, rng: &mut StdRng) -> Vec<(f64, f64)> {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let xi = rng.random_range(0u32..100_000);
        let yi = rng.random_range(0u32..100_000);
        if seen.insert((xi, yi)) {
            points.push((f64::from(xi) / 1000.0, f64::from(yi) / 1000.0));
        }
    }
    points
}

// NOTE for every generator below: the *order of RNG draws* is part of
// the workload's identity. The committed bench counters and the replay
// gate both assume `build_script` reproduces the historical byte
// streams exactly, so draws must stay in the order the old JSON
// builders made them (points, then alpha; peer, then targets; ...).

fn create_request(i: usize, cfg: &WorkloadConfig, id: usize, rng: &mut StdRng) -> Request {
    let n = cfg.peers;
    let points = distinct_points(n, rng);
    // A bidirectional ring keeps the starting overlay connected, so the
    // early cost queries are finite and the dynamics have structure to
    // chew on; the mutation mix then adds and removes chords freely.
    let mut links: Vec<(usize, usize)> = Vec::with_capacity(2 * n);
    for p in 0..n {
        let q = (p + 1) % n;
        links.push((p, q));
        links.push((q, p));
    }
    let alpha = 1.0 + f64::from(rng.random_range(0u32..30)) / 10.0;
    Request::Session(SessionRequest {
        id: Some(id as u64),
        session: session_name(i),
        op: SessionOp::Create(GameSpec {
            alpha,
            geometry: Geometry::Points2D(points),
            links,
            mode: BackendMode::Dense,
        }),
    })
}

fn random_move(n: usize, rng: &mut StdRng) -> Move {
    let peer = rng.random_range(0..n);
    let other = |rng: &mut StdRng| {
        let mut t = rng.random_range(0..n);
        if t == peer {
            t = (t + 1) % n;
        }
        t
    };
    match rng.random_range(0u32..10) {
        0..=3 => Move::AddLink {
            from: PeerId::new(peer),
            to: PeerId::new(other(rng)),
        },
        4..=6 => Move::RemoveLink {
            from: PeerId::new(peer),
            to: PeerId::new(other(rng)),
        },
        _ => {
            let k = rng.random_range(1usize..=3);
            let mut targets: Vec<usize> = Vec::new();
            for _ in 0..k {
                let t = other(rng);
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            Move::SetStrategy {
                peer: PeerId::new(peer),
                links: targets.into_iter().collect(),
            }
        }
    }
}

fn random_method(rng: &mut StdRng) -> BestResponseMethod {
    if rng.random_range(0u32..4) == 0 {
        BestResponseMethod::LocalSearch
    } else {
        BestResponseMethod::Greedy
    }
}

/// Builds the deterministic request script for `cfg`: one `create` per
/// session first, then the mixed op stream.
#[must_use]
pub fn build_script(cfg: &WorkloadConfig) -> Vec<ScriptRequest> {
    assert!(cfg.sessions > 0, "workload needs at least one session");
    assert!(cfg.peers >= 4, "workload needs at least four peers");
    assert!(
        cfg.requests >= cfg.sessions,
        "every session needs room for its create"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut script = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.sessions {
        script.push(ScriptRequest {
            session_index: i,
            request: create_request(i, cfg, script.len(), &mut rng),
        });
    }
    let n = cfg.peers;
    while script.len() < cfg.requests {
        // Session choice has locality: most traffic hits a hot window
        // that slides across the session space, the rest is uniform.
        // Real multi-tenant traffic is skewed, and under a tight budget
        // this is what makes eviction *selective* (cold sessions spill,
        // hot ones stay) instead of thrashing every slot on every
        // request.
        let window = (cfg.sessions / 8).clamp(1, 32);
        let hot_start = (script.len() / 200) * ((cfg.sessions / 13).max(1));
        let i = if rng.random_range(0u32..4) < 3 {
            (hot_start + rng.random_range(0..window)) % cfg.sessions
        } else {
            rng.random_range(0..cfg.sessions)
        };
        let session = session_name(i);
        let id = script.len();
        let r = rng.random_range(0u32..1000);
        let op = match r {
            0..=339 => SessionOp::Apply {
                mv: random_move(n, &mut rng),
            },
            340..=459 => {
                let k = rng.random_range(2usize..=4);
                SessionOp::ApplyBatch {
                    moves: (0..k).map(|_| random_move(n, &mut rng)).collect(),
                }
            }
            460..=679 => SessionOp::SocialCost,
            680..=789 => SessionOp::BestResponse {
                peer: PeerId::new(rng.random_range(0..n)),
                method: random_method(&mut rng),
            },
            790..=849 => SessionOp::Stretch,
            850..=899 => SessionOp::Snapshot,
            900..=959 => SessionOp::Evict,
            960..=989 => SessionOp::Load,
            990..=995 => SessionOp::NashGap {
                method: BestResponseMethod::Greedy,
            },
            _ => SessionOp::RunDynamics(DynamicsSpec {
                rule: DynamicsRule::Better,
                max_rounds: Some(1),
                tolerance: None,
                detect_cycles: Some(false),
            }),
        };
        script.push(ScriptRequest {
            session_index: i,
            request: Request::Session(SessionRequest {
                id: Some(id as u64),
                session,
                op,
            }),
        });
    }
    script
}

/// Executes the script **single-threaded with no eviction**: every
/// session stays resident forever, lifecycle ops answer their canonical
/// bodies without touching placement. This is the ground truth the
/// served run must match bit for bit.
#[must_use]
pub fn reference_typed(script: &[ScriptRequest]) -> Vec<Response> {
    let mut sessions: HashMap<String, Session> = HashMap::new();
    script
        .iter()
        .map(|r| reference_respond(&mut sessions, &r.request))
        .collect()
}

fn reference_respond(sessions: &mut HashMap<String, Session>, request: &Request) -> Response {
    let Request::Session(req) = request else {
        return Response::err(
            request.id(),
            WireError::new(
                ErrorCode::BadRequest,
                "reference executor only handles session requests",
            ),
        );
    };
    let id = req.id;
    let name = &req.session;
    match &req.op {
        SessionOp::Create(spec) => {
            if sessions.contains_key(name) {
                return Response::err(
                    id,
                    WireError::new(
                        ErrorCode::SessionExists,
                        format!("session {name:?} already exists"),
                    ),
                );
            }
            match ops::build(spec) {
                Ok(s) => {
                    let result = ops::created(&s);
                    sessions.insert(name.clone(), s);
                    Response::ok(id, result)
                }
                Err(e) => Response::err(id, e),
            }
        }
        op => {
            let Some(session) = sessions.get_mut(name) else {
                return Response::err(
                    id,
                    WireError::new(
                        ErrorCode::UnknownSession,
                        format!("unknown session {name:?}"),
                    ),
                );
            };
            match op {
                SessionOp::Load => Response::ok(id, ops::loaded(session)),
                SessionOp::Snapshot => Response::ok(id, ResultBody::Persisted),
                SessionOp::Evict => Response::ok(id, ResultBody::Evicted),
                _ => match ops::execute(op, session) {
                    Ok(result) => Response::ok(id, result),
                    Err(e) => Response::err(id, e),
                },
            }
        }
    }
}

/// The outcome of a replay: per-request responses and latencies (script
/// order) plus wall-clock.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// One response per script request, in script order.
    pub responses: Vec<Response>,
    /// Closed-loop latency of each request in nanoseconds, script order.
    pub latencies: Vec<u64>,
    /// End-to-end wall time of the replay.
    pub wall: Duration,
}

/// Replays the script against a live server over `clients` closed-loop
/// connections. Session `i` is driven by client `i % clients`, so each
/// session's requests arrive in script order regardless of scheduling.
///
/// # Errors
///
/// Propagates connection/framing failures from any client.
///
/// # Panics
///
/// Panics if a client thread itself panicked.
pub fn replay(
    addr: SocketAddr,
    script: &[ScriptRequest],
    clients: usize,
) -> io::Result<ReplayOutcome> {
    let clients = clients.max(1);
    let start = Instant::now();
    let mut responses: Vec<Option<Response>> = vec![None; script.len()];
    let mut latencies: Vec<u64> = vec![0; script.len()];
    let results: Vec<io::Result<Vec<(usize, Response, u64)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> io::Result<Vec<(usize, Response, u64)>> {
                    let mut client = ServeClient::connect(addr)?;
                    let mut out = Vec::new();
                    for (k, r) in script.iter().enumerate() {
                        if r.session_index % clients != c {
                            continue;
                        }
                        let sent = Instant::now();
                        // Transport/decode failures abort the replay;
                        // server-side errors are part of the response
                        // and flow into the comparison like any other.
                        let response = client.request(&r.request).map_err(|e| {
                            io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                        })?;
                        let nanos = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        out.push((k, response, nanos));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client thread panicked"))
            .collect()
    });
    for result in results {
        for (k, v, nanos) in result? {
            if let Some(slot) = responses.get_mut(k) {
                *slot = Some(v);
            }
            if let Some(slot) = latencies.get_mut(k) {
                *slot = nanos;
            }
        }
    }
    Ok(ReplayOutcome {
        responses: responses
            .into_iter()
            .map(|s| s.expect("every script request is owned by exactly one client"))
            .collect(),
        latencies,
        wall: start.elapsed(),
    })
}

/// Compares a served response vector against the reference by their
/// binary encodings — bit-exact for floats.
///
/// # Errors
///
/// Returns the index of the first divergence.
pub fn verify(served: &[Response], reference: &[Response]) -> Result<(), usize> {
    assert_eq!(served.len(), reference.len(), "response counts differ");
    match served
        .iter()
        .zip(reference)
        .position(|(s, r)| binary::encode_response(s) != binary::encode_response(r))
    {
        Some(k) => Err(k),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_and_covers_ops() {
        let cfg = WorkloadConfig {
            sessions: 6,
            requests: 400,
            peers: 8,
            seed: 7,
        };
        let a = build_script(&cfg);
        let b = build_script(&cfg);
        assert_eq!(a.len(), 400);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request, y.request);
            assert_eq!(x.session_index, y.session_index);
        }
        let mut ops_seen: HashSet<&'static str> = HashSet::new();
        for r in &a {
            ops_seen.insert(r.request.code().name());
        }
        for op in [
            "create",
            "apply",
            "apply_batch",
            "social_cost",
            "best_response",
            "stretch",
            "snapshot",
            "evict",
            "load",
        ] {
            assert!(ops_seen.contains(op), "mix never produced {op:?}");
        }
    }

    #[test]
    fn script_round_trips_the_binary_codec() {
        // The script IS the proptest corpus in miniature: every request
        // the mix can produce must survive the codec unchanged.
        let cfg = WorkloadConfig {
            sessions: 4,
            requests: 200,
            peers: 8,
            seed: 11,
        };
        for r in build_script(&cfg) {
            let b = binary::encode_request(&r.request);
            assert_eq!(
                binary::decode_request(&b).expect("binary round trip"),
                r.request
            );
        }
    }

    #[test]
    fn reference_executes_whole_quick_mix() {
        let cfg = WorkloadConfig {
            sessions: 4,
            requests: 120,
            peers: 8,
            seed: 3,
        };
        let script = build_script(&cfg);
        let responses = reference_typed(&script);
        assert_eq!(responses.len(), script.len());
        for (k, r) in responses.iter().enumerate() {
            assert!(r.outcome.is_ok(), "request {k} failed: {r:?}");
            assert_eq!(r.id, Some(k as u64), "ids echo script order");
        }
    }
}
