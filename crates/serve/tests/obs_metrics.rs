//! Wire-level observability: the `metrics` and `trace_tail` ops, the
//! obs-off refusal path, the exported names and obs-on ≡ obs-off
//! counting, and the work-counter carry across eviction.
//!
//! The carry test is the regression gate for a real bug: evicting a
//! session once threw away its resident [`sp_core::SessionStats`] — a
//! restore came back with fresh counters (`snapshot_restores = 1`,
//! everything else 0), so `metrics` silently under-reported all work
//! done before the eviction. The registry now banks a session's stats
//! into one total when a job ends, at both eviction sites (the explicit
//! `evict` op and the budget enforcer) and after WAL recovery, and
//! `metrics` reports that total. The test covers each site.

use std::path::PathBuf;

use sp_core::{Move, PeerId};
use sp_serve::client::ServeClient;
use sp_serve::config::{Durability, ServeConfig};
use sp_serve::obs::ObsConfig;
use sp_serve::registry::RegistryStats;
use sp_serve::server::Server;
use sp_serve::wire::{ErrorCode, GameSpec, Geometry, MetricsBody};
use sp_serve::workload::{self, WorkloadConfig};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The small 4-peer line game the registry tests use.
fn spec() -> GameSpec {
    GameSpec {
        alpha: 1.0,
        geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
        links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
    }
}

fn obs_server(tag: &str) -> (Server, PathBuf) {
    let dir = test_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .spill_dir(dir.clone())
            .obs(ObsConfig::enabled()),
    )
    .expect("server starts");
    (server, dir)
}

fn counter(m: &MetricsBody, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// The `(snapshot_exports, snapshot_restores, batch_applies)` work
/// counters of a `metrics` body.
fn work_counters(m: &MetricsBody) -> (u64, u64, u64) {
    (
        counter(m, "work.snapshot_exports"),
        counter(m, "work.snapshot_restores"),
        counter(m, "work.batch_applies"),
    )
}

/// Two added links, as one `apply_batch`.
fn two_links() -> Vec<Move> {
    vec![
        Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(2),
        },
        Move::AddLink {
            from: PeerId::new(3),
            to: PeerId::new(1),
        },
    ]
}

/// Without `--obs`, both observability ops refuse with a typed
/// `bad_request` — not a hang, not a protocol error.
#[test]
fn metrics_and_trace_tail_require_obs() {
    let dir = test_dir("off");
    let server =
        Server::start(ServeConfig::new().workers(1).spill_dir(dir.clone())).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let err = client.metrics().expect_err("metrics must refuse");
    assert_eq!(err.code, ErrorCode::BadRequest);
    let err = client
        .trace_tail(None, None)
        .expect_err("trace_tail must refuse");
    assert_eq!(err.code, ErrorCode::BadRequest);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every counter `metrics` exports, name-sorted. Operators, CI and
/// the benchmark harness read these names: renaming one breaks them.
const COUNTERS: [&str; 16] = [
    "obs.fsync_batches",
    "obs.queue_wait_events",
    "obs.sessions_evicted",
    "obs.sessions_restored",
    "obs.slow_logged",
    "obs.spans_completed",
    "obs.wal_append_events",
    "reactor.wakeups",
    "work.batch_applies",
    "work.csr_rebuilds",
    "work.full_sssp",
    "work.incremental_relaxations",
    "work.oracle_builds",
    "work.oracle_rows_repaired",
    "work.snapshot_exports",
    "work.snapshot_restores",
];

/// Every gauge `metrics` exports, name-sorted.
const GAUGES: [&str; 2] = ["queue.depth_hwm", "reactor.pipeline_depth_hwm"];

/// Replays a short WAL script (one worker, one client, a budget that
/// forces evictions) and returns the registry's counters, plus the
/// `metrics` body when observability is on.
fn wal_run(tag: &str, obs: bool) -> (RegistryStats, Option<MetricsBody>) {
    let dir = test_dir(tag);
    // A reply's span completes before its bytes are written, so
    // `metrics` sees every replayed span completed.
    let mut config = ServeConfig::new()
        .workers(1)
        .memory_budget(64 << 10)
        .spill_dir(dir.clone())
        .durability(Durability::Wal {
            group_commit: 8,
            fsync: false,
        });
    if obs {
        config = config.obs(ObsConfig::enabled());
    }
    let server = Server::start(config).expect("server starts");
    let script = workload::build_script(&WorkloadConfig {
        sessions: 6,
        requests: 120,
        peers: 12,
        seed: 5,
    });
    workload::replay(server.local_addr(), &script, 1).expect("replay runs");
    let stats = server.registry().stats();
    let metrics = obs.then(|| {
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        client.metrics().expect("metrics")
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (stats, metrics)
}

/// One counter system: `metrics` exports exactly the pinned names, its
/// registry-backed counters are the registry's own atomics, and
/// turning observability on changes no registry counter.
#[test]
fn exported_names_are_pinned_and_obs_never_changes_counting() {
    let (off, none) = wal_run("count-off", false);
    let (on, metrics) = wal_run("count-on", true);
    assert!(none.is_none());
    let metrics = metrics.expect("obs on answers metrics");
    assert_eq!(on, off, "obs-on and obs-off runs must count alike");
    assert!(
        off.wal_records > 0 && off.wal_fsyncs > 0 && off.sessions_evicted > 0,
        "the script must log, commit and evict: {off:?}"
    );

    let names =
        |list: &[(String, u64)]| -> Vec<String> { list.iter().map(|(n, _)| n.clone()).collect() };
    assert_eq!(names(&metrics.counters), COUNTERS);
    assert_eq!(names(&metrics.gauges), GAUGES);
    let histograms: Vec<&str> = metrics.histograms.iter().map(|h| h.name.as_str()).collect();
    for name in [
        "op.apply",
        "op.social_cost",
        "wal.batch_jobs",
        "wal.fsync_ns",
    ] {
        assert!(histograms.contains(&name), "missing {name}: {histograms:?}");
    }

    let gauge = |name: &str| {
        metrics
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(
        counter(&metrics, "obs.queue_wait_events"),
        on.requests_served
    );
    assert_eq!(counter(&metrics, "obs.spans_completed"), on.requests_served);
    assert_eq!(counter(&metrics, "obs.wal_append_events"), on.wal_records);
    assert_eq!(counter(&metrics, "obs.fsync_batches"), on.wal_fsyncs);
    assert_eq!(
        counter(&metrics, "obs.sessions_evicted"),
        on.sessions_evicted
    );
    assert_eq!(
        counter(&metrics, "obs.sessions_restored"),
        on.sessions_restored
    );
    assert_eq!(gauge("queue.depth_hwm"), on.queue_depth_hwm as u64);
}

/// The regression gate (see module docs): `work.*` counters must not
/// reset across evict → restore, and must not double-count either.
#[test]
fn work_counters_survive_evict_and_restore() {
    let (server, dir) = obs_server("carry");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client.create("carry", spec()).expect("create");
    client
        .apply_batch("carry", two_links())
        .expect("apply_batch");

    let before = client.metrics().expect("metrics");
    let batches = counter(&before, "work.batch_applies");
    assert!(batches >= 1, "batch must be counted: {before:?}");

    // Evict: the resident incarnation (and its counters) leaves memory.
    client.evict("carry").expect("evict");
    let evicted = client.metrics().expect("metrics after evict");
    assert_eq!(
        counter(&evicted, "work.batch_applies"),
        batches,
        "eviction must not lose work counters"
    );
    assert!(counter(&evicted, "work.snapshot_exports") >= 1);
    assert!(counter(&evicted, "obs.sessions_evicted") >= 1);

    // Touch the session: transparent restore from the spill file.
    client
        .social_cost("carry")
        .expect("restore via social_cost");
    let restored = client.metrics().expect("metrics after restore");
    assert_eq!(
        counter(&restored, "work.batch_applies"),
        batches,
        "restore must neither lose nor double-count banked work"
    );
    assert!(counter(&restored, "work.snapshot_restores") >= 1);
    assert!(counter(&restored, "obs.sessions_restored") >= 1);

    // A second evict/restore round stays exact: the carry merges once
    // per departure, never once per report. The session is clean after
    // the restore, so the second evict reuses the spill file rather
    // than re-exporting — exports stay at 1 while restores reach 2.
    client.evict("carry").expect("second evict");
    client.social_cost("carry").expect("second restore");
    let again = client.metrics().expect("metrics after second round");
    assert_eq!(counter(&again, "work.batch_applies"), batches);
    assert_eq!(counter(&again, "work.snapshot_exports"), 1);
    assert!(counter(&again, "work.snapshot_restores") >= 2);
    assert!(counter(&again, "obs.sessions_evicted") >= 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Budget evictions, with no `evict` op: under a one-byte budget
    // every job ends with its session spilled and dropped.
    let dir = test_dir("carry-budget");
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .memory_budget(1)
            .spill_dir(dir.clone())
            .obs(ObsConfig::enabled()),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.create("tight", spec()).expect("create");
    client
        .apply_batch("tight", two_links())
        .expect("apply_batch");
    let m = client.metrics().expect("metrics after budget evictions");
    // create → export; restore → apply_batch → export.
    assert_eq!(work_counters(&m), (2, 1, 1), "{m:?}");
    assert_eq!(counter(&m, "obs.sessions_evicted"), 2);
    // A clean session is not exported again, only restored.
    client.social_cost("tight").expect("social_cost");
    let m = client.metrics().expect("metrics after a clean eviction");
    assert_eq!(work_counters(&m), (2, 2, 1), "{m:?}");
    assert_eq!(counter(&m, "obs.sessions_evicted"), 3);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // WAL recovery: a restarted server reports the work of rebuilding
    // its sessions before it has served a single request.
    let dir = test_dir("carry-wal");
    let wal_server = || {
        Server::start(
            ServeConfig::new()
                .workers(1)
                .spill_dir(dir.clone())
                .durability(Durability::Wal {
                    group_commit: 8,
                    fsync: false,
                })
                .obs(ObsConfig::enabled()),
        )
        .expect("server starts")
    };
    let server = wal_server();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.create("logged", spec()).expect("create");
    client.evict("logged").expect("evict writes a checkpoint");
    client
        .apply_batch("logged", two_links())
        .expect("apply_batch");
    server.shutdown();
    let server = wal_server();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let m = client.metrics().expect("metrics after recovery");
    // The checkpoint is restored and the tail's apply_batch replayed.
    assert_eq!(work_counters(&m), (0, 1, 1), "{m:?}");
    client
        .social_cost("logged")
        .expect("the recovered session serves");
    let m = client.metrics().expect("metrics after a request");
    assert_eq!(work_counters(&m), (0, 1, 1), "{m:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `metrics` and `trace_tail` answer over binary, and the tail reflects
/// completed requests with well-formed per-phase offsets and real op
/// names. Requests on one connection are strictly sequential, so every
/// earlier request's span has finished by the time the tail is read.
#[test]
fn trace_tail_reports_completed_spans_over_binary() {
    let (server, dir) = obs_server("tail");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client.create("traced", spec()).expect("create");
    for _ in 0..3 {
        client.social_cost("traced").expect("social_cost");
    }

    let metrics = client.metrics().expect("metrics over binary");
    assert!(counter(&metrics, "obs.spans_completed") >= 4);
    assert!(
        metrics
            .histograms
            .iter()
            .any(|h| h.name.starts_with("op.") && h.count > 0),
        "per-op latency histograms must fill: {metrics:?}"
    );

    let tail = client.trace_tail(Some(4), None).expect("trace_tail");
    assert!(
        !tail.is_empty() && tail.len() <= 4,
        "tail len: {}",
        tail.len()
    );
    for span in &tail {
        assert!(!span.op.is_empty(), "op tag must name the opcode");
        let mut last = 0u64;
        for &off in &span.phases_ns {
            if off != 0 {
                assert!(off >= last, "phase offsets ran backwards: {span:?}");
                last = off;
            }
        }
        assert_eq!(span.total_ns, last, "total is the last stamped offset");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A synchronous client that reads each reply and then asks for
/// `metrics` finds every reply it has read counted in
/// `obs.spans_completed`, although the reply was written by one worker
/// and `metrics` is answered by another: a span completes before its
/// reply's bytes can reach the client.
#[test]
fn every_reply_read_is_a_completed_span() {
    let dir = test_dir("span-order");
    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .spill_dir(dir.clone())
            .obs(ObsConfig::enabled()),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.create("s", spec()).expect("create");
    for k in 1..=200u64 {
        client.social_cost("s").expect("social_cost");
        let m = client.metrics().expect("metrics");
        // Read so far: the create, k social costs and k - 1 metrics.
        assert_eq!(counter(&m, "obs.spans_completed"), 2 * k, "round {k}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
