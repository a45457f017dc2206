//! End-to-end replay equivalence: a concurrent sp-serve under memory
//! pressure answers bit-identically to a single-threaded, no-eviction
//! reference executor.
//!
//! `acceptance_replay_is_bit_identical_under_eviction` is the
//! acceptance gate: the mixed 10k-request workload over 256 sessions
//! runs against a live TCP server with a 32 MiB registry budget — far
//! below the workload's resident footprint, so the registry must
//! continuously evict LRU sessions to disk and restore them on their
//! next request — across 8 closed-loop client connections and a
//! multi-worker scheduler. Every one of the 10k responses must encode
//! to exactly the bytes of what the reference executor computes with
//! every session permanently resident.
//!
//! Every server here runs with **observability on** (wall-clock
//! spans, no slow threshold): the bit-identity assertions double as the
//! proof that tracing observes the pipeline without steering it —
//! `--obs` must never change a response byte.

use std::path::PathBuf;

use sp_serve::client::ServeClient;
use sp_serve::config::ServeConfig;
use sp_serve::obs::ObsConfig;
use sp_serve::server::Server;
use sp_serve::wire::{Request, Response, ResultBody, SessionOp};
use sp_serve::workload::{self, WorkloadConfig};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_replay(
    tag: &str,
    cfg: &WorkloadConfig,
    budget: usize,
    workers: usize,
    clients: usize,
) -> (
    Vec<Response>,
    Vec<Response>,
    sp_serve::registry::RegistryStats,
    usize,
) {
    let dir = test_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(workers)
            .memory_budget(budget)
            .spill_dir(dir.clone())
            .obs(ObsConfig::enabled()),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let script = workload::build_script(cfg);
    let explicit_evicts = script
        .iter()
        .filter(|r| matches!(&r.request, Request::Session(s) if matches!(s.op, SessionOp::Evict)))
        .count();
    let outcome = workload::replay(addr, &script, clients).expect("replay completes");
    let stats = server.registry().stats();

    // Protocol sanity: the registry-level ops answer inline.
    let mut client = ServeClient::connect(addr).expect("ping connection");
    assert_eq!(client.ping(), Ok(ResultBody::Pong));

    // Observability sanity: the replay's spans landed in the registry
    // and the tail is well-formed (monotone phase offsets).
    let metrics = client.metrics().expect("metrics answers with --obs on");
    let spans_completed = metrics
        .counters
        .iter()
        .find(|(name, _)| name == "obs.spans_completed")
        .map_or(0, |&(_, v)| v);
    // The reactor finishes a span just *after* the socket takes the
    // response bytes, so the final response per connection may still
    // be mid-finish when `metrics` answers — allow that much slack.
    let floor = (cfg.requests - clients) as u64;
    assert!(
        spans_completed >= floor,
        "every replayed request must complete a span: {spans_completed} < {floor}"
    );
    let tail = client.trace_tail(None, None).expect("trace_tail answers");
    assert!(!tail.is_empty(), "trace tail must hold recent spans");
    for span in &tail {
        let mut last = 0u64;
        for &off in &span.phases_ns {
            if off != 0 {
                assert!(off >= last, "phase offsets ran backwards: {span:?}");
                last = off;
            }
        }
        assert_eq!(
            span.total_ns, last,
            "total must be the last stamp: {span:?}"
        );
    }

    server.shutdown();
    let reference = workload::reference_typed(&script);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.responses, reference, stats, explicit_evicts)
}

fn assert_identical(served: &[Response], reference: &[Response]) {
    if let Err(k) = workload::verify(served, reference) {
        let (s, r) = (&served[k], &reference[k]);
        panic!("response {k} diverged:\n  served:    {s:?}\n  reference: {r:?}");
    }
}

fn assert_quick_outcome(
    cfg: &WorkloadConfig,
    served: &[Response],
    reference: &[Response],
    stats: &sp_serve::registry::RegistryStats,
) {
    assert_eq!(served.len(), cfg.requests);
    assert!(
        served.iter().all(|r| r.outcome.is_ok()),
        "quick workload must not produce errors"
    );
    assert_identical(served, reference);
    assert!(
        stats.sessions_evicted > 0,
        "evict ops must spill: {stats:?}"
    );
    assert!(
        stats.sessions_restored > 0,
        "spilled sessions must restore: {stats:?}"
    );
    assert_eq!(stats.requests_served, cfg.requests as u64);
}

/// Small smoke: generous budget
/// (explicit `evict` ops still force spill/restore cycles), several
/// workers and clients.
#[test]
fn quick_replay_is_bit_identical() {
    let cfg = WorkloadConfig::quick();
    let (served, reference, stats, _) = run_replay("quick", &cfg, 64 << 20, 4, 4);
    assert_quick_outcome(&cfg, &served, &reference, &stats);
}

/// Registry budget of the acceptance gate. The 256 sessions hold about
/// 54 MB resident, so 32 MiB keeps the registry evicting throughout.
const ACCEPTANCE_BUDGET: usize = 32 << 20;

/// The acceptance gate (see module docs): 10k requests, 256 sessions,
/// 32 MiB budget, bit-identical to the no-eviction reference.
#[test]
fn acceptance_replay_is_bit_identical_under_eviction() {
    let cfg = WorkloadConfig::acceptance();
    let (served, reference, stats, explicit_evicts) =
        run_replay("acceptance", &cfg, ACCEPTANCE_BUDGET, 4, 8);
    assert_eq!(served.len(), 10_000);
    assert!(
        served.iter().all(|r| r.outcome.is_ok()),
        "acceptance workload must not produce errors"
    );
    assert_identical(&served, &reference);

    // The budget — not just the scripted evict ops — must have driven
    // evictions: more spills than explicit requests proves LRU pressure.
    assert!(
        stats.sessions_evicted > explicit_evicts as u64,
        "expected budget-driven evictions beyond the {explicit_evicts} scripted ones: {stats:?}"
    );
    assert!(
        stats.sessions_restored as usize > explicit_evicts / 2,
        "evicted sessions must keep getting restored: {stats:?}"
    );
    // The last responses are sent *before* their workers' final
    // `enforce_budget` pass, so the post-replay reading may race a
    // transient overshoot of at most the few slots admitted since the
    // previous pass — allow one workers' worth of slots of slack.
    assert!(
        stats.resident_bytes <= ACCEPTANCE_BUDGET + (4 << 20),
        "registry ended far above budget: {stats:?}"
    );
    assert_eq!(stats.requests_served, 10_000);
}
