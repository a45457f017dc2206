//! The sp-serve replay gate, run by the root package's tests: the quick
//! mixed workload (24 sessions, 600 requests, 32 peers each), served by
//! a live loopback server whose registry budget is far below the
//! workload's resident footprint, must answer byte for byte like the
//! single-threaded reference executor that keeps every session resident.
//! It runs once per I/O engine, each against a fresh server and spill
//! directory. The budget must evict on its own, beyond the script's
//! explicit `evict` ops, so the LRU spill and transparent restore are
//! exercised and not just the scripted ones.

use sp_serve::config::ServeConfig;
use sp_serve::server::{IoModel, Server};
use sp_serve::wire::{Request, SessionOp};
use sp_serve::workload::{self, WorkloadConfig};

/// Registry budget: room for a handful of the quick workload's 32-peer
/// sessions, so the budget keeps evicting.
const BUDGET: usize = 128 << 10;

fn replay_matches_reference(tag: &str, io: IoModel) {
    let dir = std::env::temp_dir().join(format!(
        "selfish-peers-serve-reference-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .io(io)
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

#[test]
fn quick_replay_matches_the_reference_on_the_reactor() {
    replay_matches_reference("reactor", IoModel::Reactor);
}

#[test]
fn quick_replay_matches_the_reference_on_threaded_io() {
    replay_matches_reference("threaded", IoModel::Threaded);
}
