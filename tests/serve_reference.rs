//! The sp-serve replay gate, run by the root package's tests: the quick
//! mixed workload (24 sessions, 600 requests, 32 peers each), served by
//! a live loopback server whose registry budget is far below the
//! workload's resident footprint, must answer byte for byte like the
//! single-threaded reference executor that keeps every session resident.
//! It runs against a fresh server and spill directory. The budget must evict on its own, beyond the script's
//! explicit `evict` ops, so the LRU spill and transparent restore are
//! exercised and not just the scripted ones.
//!
//! A second gate checks restore ≡ live: the quick workload runs on
//! sessions that are saved to their checkpoint files and loaded back at
//! a few cut points, and every answer must equal, byte for byte, the
//! reference executor's, whose sessions never leave memory.

use std::collections::BTreeMap;
use std::path::Path;

use sp_core::GameSession;
use sp_serve::config::ServeConfig;
use sp_serve::server::Server;
use sp_serve::wire::{Request, Response, ResultBody, SessionOp};
use sp_serve::workload::{self, ScriptRequest, WorkloadConfig};
use sp_serve::{ops, snapshot};

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

/// Runs `script` as the reference executor does, but at each of `cuts`
/// (script indices) saves every session to its checkpoint file in
/// `dir` and goes on with the session loaded back from it.
fn run_with_restores(script: &[ScriptRequest], cuts: &[usize], dir: &Path) -> Vec<Response> {
    let mut sessions: BTreeMap<String, GameSession> = BTreeMap::new();
    let mut responses = Vec::with_capacity(script.len());
    for (k, r) in script.iter().enumerate() {
        if cuts.contains(&k) {
            for (name, session) in &mut sessions {
                let path = dir.join(format!("{name}.wal"));
                snapshot::save(&path, session).expect("save");
                *session = snapshot::load(&path).expect("load");
            }
        }
        let Request::Session(req) = &r.request else {
            panic!("the workload holds session requests only");
        };
        let id = req.id;
        let response = match (&req.op, sessions.get_mut(&req.session)) {
            (SessionOp::Create(spec), None) => {
                let session = ops::build_session(spec).expect("the workload's specs build");
                let body = ops::create_result(&session);
                sessions.insert(req.session.clone(), session);
                Response::ok(id, body)
            }
            (_, None) => panic!("request {k} addresses a session before its create"),
            (SessionOp::Load, Some(s)) => Response::ok(id, ops::loaded_result(s)),
            (SessionOp::Snapshot, Some(_)) => Response::ok(id, ResultBody::Persisted),
            (SessionOp::Evict, Some(_)) => Response::ok(id, ResultBody::Evicted),
            (op, Some(s)) => match ops::execute_query(op, s) {
                Ok(body) => Response::ok(id, body),
                Err(e) => Response::err(id, e),
            },
        };
        responses.push(response);
    }
    responses
}

/// Restore ≡ live: sessions saved and loaded back at four cut points
/// answer every later request of the quick workload byte for byte like
/// the live sessions of the reference executor.
#[test]
fn restored_sessions_answer_like_live_ones() {
    let dir = std::env::temp_dir().join(format!(
        "selfish-peers-serve-restore-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = workload::build_script(&WorkloadConfig::quick());
    let n = script.len();
    let restored = run_with_restores(&script, &[n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let reference = workload::reference_typed(&script);
    if let Err(k) = workload::verify(&restored, &reference) {
        panic!(
            "response {k} diverged:\n  restored:  {:?}\n  reference: {:?}",
            restored[k], reference[k]
        );
    }
}
