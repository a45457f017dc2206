//! The sp-serve replay gate, run by the root package's tests: the quick
//! mixed workload (24 sessions, 600 requests, 32 peers each), served by
//! a live loopback server whose registry budget is far below the
//! workload's resident footprint, must answer byte for byte like the
//! single-threaded reference executor that keeps every session resident.
//! It runs against a fresh server and spill directory. The budget must evict on its own, beyond the script's
//! explicit `evict` ops, so the LRU spill and transparent restore are
//! exercised and not just the scripted ones.
//!
//! A second gate serves one line game twice, in sparse and in dense
//! mode, and requires the two sessions to answer alike byte for byte.

use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};
use sp_serve::config::ServeConfig;
use sp_serve::server::Server;
use sp_serve::wire::{
    binary, DynamicsRule, DynamicsSpec, GameSpec, Geometry, Request, Response, ResultBody,
    SessionOp, SessionRequest,
};
use sp_serve::workload::{self, ScriptRequest, WorkloadConfig};

/// Registry budget: room for a handful of the quick workload's 32-peer
/// sessions, so the budget keeps evicting.
const BUDGET: usize = 128 << 10;

#[test]
fn quick_replay_matches_the_reference_on_the_reactor() {
    let dir = std::env::temp_dir().join(format!(
        "selfish-peers-serve-reference-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .memory_budget(BUDGET)
            .spill_dir(dir.clone()),
    )
    .expect("server starts");
    let script = workload::build_script(&WorkloadConfig::quick());
    let outcome = workload::replay(server.local_addr(), &script, 4).expect("replay completes");
    let stats = server.registry().stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let explicit_evicts = script
        .iter()
        .filter(|r| matches!(&r.request, Request::Session(s) if matches!(s.op, SessionOp::Evict)))
        .count() as u64;
    assert!(
        stats.sessions_evicted > explicit_evicts,
        "the budget must evict beyond the {explicit_evicts} scripted evicts: {stats:?}"
    );
    let reference = workload::reference_typed(&script);
    if let Err(k) = workload::verify(&outcome.responses, &reference) {
        panic!(
            "response {k} diverged:\n  served:    {:?}\n  reference: {:?}",
            outcome.responses[k], reference[k]
        );
    }
}

/// The line game both modes serve: 20 peers with uneven spacing, linked
/// as a bidirectional chain.
fn line_spec(mode: BackendMode) -> GameSpec {
    let n = 20;
    GameSpec {
        alpha: 1.2,
        geometry: Geometry::Line(
            (0..n)
                .map(|i| i as f64 * 1.5 + if i % 3 == 0 { 0.4 } else { 0.0 })
                .collect(),
        ),
        links: (1..n).flat_map(|i| [(i - 1, i), (i, i - 1)]).collect(),
        mode,
    }
}

/// The op script each mode's session runs: every query and mutation op,
/// both dynamics rules, and explicit evict/load cycles between them.
fn mode_ops() -> Vec<SessionOp> {
    let peer = PeerId::new;
    let dynamics = |rule| {
        SessionOp::RunDynamics(DynamicsSpec {
            rule,
            max_rounds: Some(2),
            tolerance: None,
            detect_cycles: None,
        })
    };
    vec![
        SessionOp::SocialCost,
        SessionOp::Apply {
            mv: Move::AddLink {
                from: peer(0),
                to: peer(5),
            },
        },
        SessionOp::Stretch,
        SessionOp::ApplyBatch {
            moves: vec![
                Move::RemoveLink {
                    from: peer(3),
                    to: peer(4),
                },
                Move::AddLink {
                    from: peer(7),
                    to: peer(2),
                },
                Move::SetStrategy {
                    peer: peer(9),
                    links: [8usize, 12].into_iter().collect(),
                },
            ],
        },
        SessionOp::BestResponse {
            peer: peer(4),
            method: BestResponseMethod::Greedy,
        },
        SessionOp::BestResponse {
            peer: peer(9),
            method: BestResponseMethod::Exact,
        },
        SessionOp::NashGap {
            method: BestResponseMethod::Greedy,
        },
        SessionOp::Evict,
        SessionOp::SocialCost,
        dynamics(DynamicsRule::Better),
        SessionOp::Stretch,
        SessionOp::Load,
        dynamics(DynamicsRule::Best(BestResponseMethod::Exact)),
        SessionOp::NashGap {
            method: BestResponseMethod::Exact,
        },
        SessionOp::BestResponse {
            peer: peer(0),
            method: BestResponseMethod::Exact,
        },
        SessionOp::SocialCost,
        SessionOp::Apply {
            mv: Move::RemoveLink {
                from: peer(0),
                to: peer(5),
            },
        },
        SessionOp::Evict,
        SessionOp::Load,
        SessionOp::Stretch,
    ]
}

/// `response` with the `mode` of a `created`/`loaded` body set to dense:
/// the one field in which the two modes' answers may differ.
fn mode_blind(response: &Response) -> Response {
    let mut r = response.clone();
    if let Ok(ResultBody::Created { mode, .. } | ResultBody::Loaded { mode }) = &mut r.outcome {
        *mode = BackendMode::Dense;
    }
    r
}

/// The same line game is served once in sparse and once in dense mode,
/// side by side on one server whose budget evicts every idle session.
/// Every answer of the sparse session must equal the dense session's
/// byte for byte, but for the `mode` of `created`/`loaded`, and the
/// served run must equal the reference executor's.
#[test]
fn sparse_mode_answers_like_dense_on_the_reactor() {
    let dir =
        std::env::temp_dir().join(format!("selfish-peers-serve-modes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .memory_budget(1 << 10)
            .spill_dir(dir.clone()),
    )
    .expect("server starts");
    let modes = [BackendMode::Dense, BackendMode::Sparse];
    let ops = mode_ops();
    let mut script = Vec::new();
    for (step, op) in std::iter::once(None)
        .chain(ops.iter().map(Some))
        .enumerate()
    {
        for (index, &mode) in modes.iter().enumerate() {
            let op = op
                .cloned()
                .unwrap_or_else(|| SessionOp::Create(line_spec(mode)));
            script.push(ScriptRequest {
                session_index: index,
                request: Request::Session(SessionRequest {
                    id: Some(step as u64),
                    session: mode.as_str().to_owned(),
                    op,
                }),
            });
        }
    }
    let outcome = workload::replay(server.local_addr(), &script, 2).expect("replay completes");
    let stats = server.registry().stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let explicit_evicts = 2 * ops
        .iter()
        .filter(|op| matches!(op, SessionOp::Evict))
        .count();
    assert!(
        stats.sessions_evicted > explicit_evicts as u64,
        "the budget must evict beyond the scripted evicts: {stats:?}"
    );
    for (k, pair) in outcome.responses.chunks(2).enumerate() {
        let (dense, sparse) = (mode_blind(&pair[0]), mode_blind(&pair[1]));
        assert!(dense.outcome.is_ok(), "step {k}: {dense:?}");
        assert_eq!(
            binary::encode_response(&dense),
            binary::encode_response(&sparse),
            "step {k} diverged:\n  dense:  {dense:?}\n  sparse: {sparse:?}"
        );
    }
    let reference = workload::reference_typed(&script);
    if let Err(k) = workload::verify(&outcome.responses, &reference) {
        panic!(
            "response {k} diverged:\n  served:    {:?}\n  reference: {:?}",
            outcome.responses[k], reference[k]
        );
    }
}
