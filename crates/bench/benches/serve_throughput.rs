//! Throughput and work counters of the sp-serve multi-session service.
//!
//! Two very different measurements share this suite:
//!
//! * **Wall-clock throughput** (machine-dependent, not gated): the
//!   deterministic mixed workload replayed over several closed-loop
//!   client connections against a live loopback server with a
//!   multi-worker scheduler. `BENCH_QUICK=1` shrinks only this part.
//!
//! * **Machine-independent counters** (gated by `bench_check
//!   --compare`): a fixed workload driven by **one** client through
//!   **one** worker under a deliberately tight registry budget, so the
//!   whole execution — and therefore the LRU eviction order — is
//!   sequential and deterministic. Because slot sizes come from
//!   semantic byte accounting ([`sp_core::GameSession::memory_bytes`]),
//!   the counters are identical on every machine: requests served,
//!   sessions evicted (budget pressure + scripted `evict` ops),
//!   sessions restored, and the queue-depth high-water mark of a
//!   scripted burst. The pass also re-verifies the service contract:
//!   every response must be bit-identical to the single-threaded
//!   no-eviction reference executor.
//!
//! Two more gated counter families: **bytes on the wire** (the fixed
//! counter script plus its reference responses, encoded and framed)
//! and the **span count**: the fixed workload with `--obs` on under
//! the deterministic tick clock, one span completed per request. The
//! other `obs.*` counters `metrics` exports are the registry's own
//! (`requests_served`, `wal_records`, `wal_fsyncs`, …), gated above.
//!
//! Snapshot committed as `BENCH_serve_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use sp_core::{Move, PeerId};
use sp_serve::client::ServeClient;
use sp_serve::config::{Durability, ServeConfig};
use sp_serve::obs::ObsConfig;
use sp_serve::registry::{RegistryConfig, SessionRegistry};
use sp_serve::server::Server;
use sp_serve::wire::{binary, GameSpec, Geometry, Response, SessionOp, SessionRequest};
use sp_serve::workload::{self, WorkloadConfig};

/// The fixed counter workload (independent of `BENCH_QUICK`, so the
/// committed snapshot matches CI's quick runs exactly).
const COUNTER_CFG: WorkloadConfig = WorkloadConfig {
    sessions: 64,
    requests: 2500,
    peers: 64,
    seed: 42,
};

/// Registry budget for the counter pass — far below the workload's
/// resident footprint, forcing continuous evict/restore cycles.
const COUNTER_BUDGET: usize = 8 << 20;

/// Scripted burst length for the deterministic queue-depth and
/// group-commit counters.
const BURST: usize = 16;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Runs `cfg` against a fresh server and returns the responses plus the
/// registry counters.
fn run_served(
    tag: &str,
    cfg: &WorkloadConfig,
    budget: usize,
    workers: usize,
    clients: usize,
) -> (Vec<Response>, sp_serve::registry::RegistryStats) {
    let dir = spill_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(workers)
            .memory_budget(budget)
            .spill_dir(dir.clone()),
    )
    .expect("server starts");
    let script = workload::build_script(cfg);
    let outcome = workload::replay(server.local_addr(), &script, clients).expect("replay runs");
    let stats = server.registry().stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.responses, stats)
}

/// Panics at the first served response that does not encode to the
/// reference's bytes.
fn assert_matches_reference(pass: &str, served: &[Response], reference: &[Response]) {
    if let Err(k) = workload::verify(served, reference) {
        panic!(
            "{pass} response {k} diverged from reference:\n  served:    {:?}\n  reference: {:?}",
            served[k], reference[k]
        );
    }
}

fn bench_serve_throughput(c: &mut Criterion) {
    // ---- timed pass: concurrent replay wall-clock ----------------------
    let timed_cfg = if quick() {
        WorkloadConfig {
            sessions: 16,
            requests: 400,
            peers: 32,
            seed: 42,
        }
    } else {
        WorkloadConfig {
            sessions: 48,
            requests: 3000,
            peers: 48,
            seed: 42,
        }
    };
    let mut group = c.benchmark_group("serve_replay");
    group.sample_size(10);
    group.bench_function("concurrent", |b| {
        b.iter(|| {
            run_served(
                "timed",
                &timed_cfg,
                RegistryConfig::default().memory_budget,
                4,
                8,
            )
        });
    });
    group.finish();

    // ---- counter pass: deterministic evict/restore accounting ----------
    let (served, stats) = run_served("counters", &COUNTER_CFG, COUNTER_BUDGET, 1, 1);
    let reference = workload::reference_typed(&workload::build_script(&COUNTER_CFG));
    assert_matches_reference("serve", &served, &reference);
    assert!(
        stats.sessions_evicted > 0 && stats.sessions_restored > 0,
        "the counter workload must cycle sessions through the spill path: {stats:?}"
    );
    println!(
        "counter workload: {} requests, {} sessions created, {} evicted, {} restored, \
         {} resident at end ({} bytes) — all responses bit-identical to the reference",
        stats.requests_served,
        stats.sessions_created,
        stats.sessions_evicted,
        stats.sessions_restored,
        stats.resident_sessions,
        stats.resident_bytes,
    );
    c.report_value(
        "serve_counters/requests_served",
        stats.requests_served as f64,
        "requests",
    );
    c.report_value(
        "serve_counters/sessions_evicted",
        stats.sessions_evicted as f64,
        "sessions",
    );
    c.report_value(
        "serve_counters/sessions_restored",
        stats.sessions_restored as f64,
        "sessions",
    );

    // ---- WAL counter pass: durability accounting + recovery replay -----
    // The same fixed single-worker/single-client workload with the
    // write-ahead log on (fsync elided — the commit cadence, not the
    // syscall, is what the counters measure). Closed-loop execution
    // makes every counter deterministic: records appended, group-commit
    // batches, logical fsync points. Shutting the server down and
    // recovering a fresh registry from the same spill directory then
    // pins how many records startup replays — the committed proof the
    // recovery path actually runs.
    let wal_mode = Durability::Wal {
        group_commit: BURST,
        fsync: false,
    };
    let dir = spill_dir("wal");
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .memory_budget(COUNTER_BUDGET)
            .spill_dir(dir.clone())
            .durability(wal_mode),
    )
    .expect("server starts");
    let script = workload::build_script(&COUNTER_CFG);
    let outcome = workload::replay(server.local_addr(), &script, 1).expect("replay runs");
    assert_matches_reference("WAL-mode", &outcome.responses, &reference);
    let wal_stats = server.registry().stats();
    server.shutdown();
    assert!(
        wal_stats.wal_records > 0 && wal_stats.wal_batches > 0 && wal_stats.wal_fsyncs > 0,
        "the WAL pass must log, batch, and commit: {wal_stats:?}"
    );
    let recovered = SessionRegistry::new(RegistryConfig {
        memory_budget: COUNTER_BUDGET,
        spill_dir: dir.clone(),
        durability: wal_mode,
        ..RegistryConfig::default()
    })
    .expect("recovery succeeds");
    let replays = recovered.stats().wal_replays;
    assert!(
        replays > 0,
        "recovery must replay the records appended since each session's last compaction"
    );
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "WAL workload: {} records appended over {} batches ({} commit points), \
         {} replayed on recovery — all responses bit-identical to the reference",
        wal_stats.wal_records, wal_stats.wal_batches, wal_stats.wal_fsyncs, replays,
    );
    c.report_value("wal/records", wal_stats.wal_records as f64, "records");
    c.report_value("wal/batches", wal_stats.wal_batches as f64, "batches");
    c.report_value("wal/fsyncs", wal_stats.wal_fsyncs as f64, "fsyncs");
    c.report_value("wal/replays", replays as f64, "records");

    // ---- group-commit counter: a pipelined burst is one commit ---------
    // BURST mutating requests queued before the single worker starts
    // drain as one scheduler batch (the batch cap equals the configured
    // group commit), so the whole burst costs exactly one commit point —
    // the group-commit payoff, pinned as a counter.
    let dir = spill_dir("wal-burst");
    let registry = SessionRegistry::new(RegistryConfig {
        spill_dir: dir.clone(),
        durability: wal_mode,
        ..RegistryConfig::default()
    })
    .expect("registry starts");
    let mut receivers = Vec::new();
    receivers.push(registry.submit(
        SessionRequest {
            id: None,
            session: "burst".to_owned(),
            op: SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
                links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
            }),
        },
        None,
    ));
    for k in 1..BURST {
        // Alternate adding and removing the same chord so every move in
        // the burst is valid when its turn comes.
        let mv = if k % 2 == 1 {
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            }
        } else {
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            }
        };
        receivers.push(registry.submit(
            SessionRequest {
                id: None,
                session: "burst".to_owned(),
                op: SessionOp::Apply { mv },
            },
            None,
        ));
    }
    let workers = registry.spawn_workers(1);
    for rx in receivers {
        assert!(
            rx.recv().expect("response").outcome.is_ok(),
            "burst request failed"
        );
    }
    let burst_stats = registry.stats();
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        burst_stats.wal_records, BURST as u64,
        "every burst request must append one record: {burst_stats:?}"
    );
    assert_eq!(
        burst_stats.wal_fsyncs, 1,
        "a full pipelined burst must group-commit as one point: {burst_stats:?}"
    );
    c.report_value(
        "wal/burst_commit_points",
        burst_stats.wal_fsyncs as f64,
        "fsyncs",
    );

    // ---- queue-depth counter: a scripted burst into an idle pool -------
    let dir = spill_dir("depth");
    let registry = SessionRegistry::new(RegistryConfig {
        spill_dir: dir.clone(),
        ..RegistryConfig::default()
    })
    .expect("registry starts");
    let mut receivers = Vec::new();
    receivers.push(registry.submit(
        SessionRequest {
            id: None,
            session: "burst".to_owned(),
            op: SessionOp::Create(GameSpec {
                alpha: 1.0,
                geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
                links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
            }),
        },
        None,
    ));
    for _ in 1..BURST {
        receivers.push(registry.submit(
            SessionRequest {
                id: None,
                session: "burst".to_owned(),
                op: SessionOp::SocialCost,
            },
            None,
        ));
    }
    let depth = registry.stats().queue_depth_hwm;
    assert_eq!(
        depth, BURST,
        "burst must queue in full before the pool starts"
    );
    let workers = registry.spawn_workers(1);
    for rx in receivers {
        assert!(
            rx.recv().expect("response").outcome.is_ok(),
            "burst request failed"
        );
    }
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }
    let _ = std::fs::remove_dir_all(&dir);
    c.report_value("serve_counters/queue_depth_hwm", depth as f64, "depth");

    // ---- codec counter: bytes on the wire ------------------------------
    // Every request of the fixed counter script plus its reference
    // response, encoded with the 4-byte length prefix counted in. The
    // codec is a deterministic function of the typed values, so the
    // total is machine-independent (bench_check gates `bytes` as
    // more-is-worse).
    let script = workload::build_script(&COUNTER_CFG);
    let mut binary_bytes = 0usize;
    for (r, resp) in script.iter().zip(&reference) {
        binary_bytes += 4 + binary::encode_request(&r.request).len();
        binary_bytes += 4 + binary::encode_response(resp).len();
    }
    println!(
        "wire bytes for the {}-request counter script (requests + responses, framed): \
         {binary_bytes}",
        script.len(),
    );
    c.report_value("wire/binary_bytes", binary_bytes as f64, "bytes");

    // ---- obs counter pass: deterministic tracing accounting ------------
    // The fixed workload once more with observability **on**: the tick
    // clock replaces wall time, so span durations are deterministic.
    // Responses must stay bit-identical — tracing observes the
    // pipeline, it never steers it — and every replayed request must
    // complete exactly one span.
    let dir = spill_dir("obs");
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .memory_budget(COUNTER_BUDGET)
            .spill_dir(dir.clone())
            .durability(wal_mode)
            .obs(ObsConfig {
                enabled: true,
                tick: true,
                ..ObsConfig::default()
            }),
    )
    .expect("server starts");
    let outcome = workload::replay(server.local_addr(), &script, 1).expect("replay runs");
    assert_matches_reference("obs-mode", &outcome.responses, &reference);
    let mut client = ServeClient::connect(server.local_addr()).expect("metrics connection");
    let metrics = client.metrics().expect("metrics answers with --obs on");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let spans_completed = metrics
        .counters
        .iter()
        .find(|(n, _)| n == "obs.spans_completed")
        .map_or(0, |&(_, v)| v);
    assert_eq!(
        spans_completed, COUNTER_CFG.requests as u64,
        "every replayed request must complete exactly one span"
    );
    println!(
        "obs workload: {spans_completed} spans — all responses bit-identical to the reference"
    );
    c.report_value("obs/spans_completed", spans_completed as f64, "spans");
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
