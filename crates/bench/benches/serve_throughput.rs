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
//! PR 8 adds two more gated counter families: **bytes on the wire**
//! (the fixed counter script plus its reference responses encoded
//! through both codecs — the committed proof the binary protocol
//! shrinks the stream) and the **syscall-equivalent wakeup model** of
//! the two I/O engines (the reactor's batched pipelining vs the
//! threaded engine's one-wakeup-per-request baseline).
//!
//! PR 10 adds the **observability counters**: the fixed workload with
//! `--obs` on under the deterministic tick clock, every `ObsMetricSet`
//! counter cross-checked against the registry's own stats and gated —
//! spans completed, queue waits, WAL appends, commit batches, slow
//! logs, evictions, restores.
//!
//! Snapshot committed as `BENCH_serve_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use sp_core::{BackendMode, Move, PeerId};
use sp_serve::client::ServeClient;
use sp_serve::config::{Durability, ServeConfig};
use sp_serve::obs::ObsConfig;
use sp_serve::registry::{RegistryConfig, SessionRegistry};
use sp_serve::server::Server;
use sp_serve::wire::{Codec, GameSpec, Geometry, SessionOp, SessionRequest, PROTO_JSON};
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

/// Scripted burst length for the deterministic queue-depth counter, and
/// the per-batch frame count of the pipelining model below. Must not
/// exceed the reactor's per-connection pipeline window or the model's
/// batches would stall mid-flight.
const BURST: usize = 16;

#[cfg(target_os = "linux")]
const _: () = assert!(BURST as u64 <= sp_serve::reactor::PIPELINE_WINDOW);

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
) -> (Vec<sp_json::Value>, sp_serve::registry::RegistryStats) {
    let dir = spill_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(workers)
            .memory_budget(budget)
            .spill_dir(dir.clone()),
    )
    .expect("server starts");
    let script = workload::build_script(cfg);
    let outcome =
        workload::replay(server.local_addr(), &script, clients, PROTO_JSON).expect("replay runs");
    let stats = server.registry().stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.responses, stats)
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
    let reference = workload::reference_responses(&workload::build_script(&COUNTER_CFG));
    if let Err((k, s, r)) = workload::verify(&served, &reference) {
        panic!("serve response {k} diverged from reference:\n  served:    {s}\n  reference: {r}");
    }
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
    let outcome =
        workload::replay(server.local_addr(), &script, 1, PROTO_JSON).expect("replay runs");
    if let Err((k, s, r)) = workload::verify(&outcome.responses, &reference) {
        panic!(
            "WAL-mode response {k} diverged from reference:\n  served:    {s}\n  reference: {r}"
        );
    }
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
                mode: BackendMode::Dense,
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
                mode: BackendMode::Dense,
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

    // ---- codec counter: bytes on the wire, both protocols --------------
    // Every request of the fixed counter script plus its reference
    // response, encoded through each codec with the 4-byte length prefix
    // counted in. Both codecs are deterministic functions of the typed
    // values, so these totals are machine-independent — and the binary
    // total is the committed proof that protocol 2 actually shrinks the
    // stream relative to the JSON baseline (bench_check gates `bytes`
    // as more-is-worse).
    let script = workload::build_script(&COUNTER_CFG);
    let reference = workload::reference_typed(&script);
    let mut json_bytes = 0usize;
    let mut binary_bytes = 0usize;
    for (r, resp) in script.iter().zip(&reference) {
        json_bytes += 4 + Codec::Json.encode_request(&r.request).len();
        json_bytes += 4 + Codec::Json.encode_response(resp).len();
        binary_bytes += 4 + Codec::Binary.encode_request(&r.request).len();
        binary_bytes += 4 + Codec::Binary.encode_response(resp).len();
    }
    assert!(
        binary_bytes < json_bytes,
        "the binary codec must beat JSON on the wire: {binary_bytes} >= {json_bytes}"
    );
    println!(
        "wire bytes for the {}-request counter script (requests + responses, framed): \
         json {json_bytes}, binary {binary_bytes} ({:.1}% of json)",
        script.len(),
        100.0 * binary_bytes as f64 / json_bytes as f64,
    );
    c.report_value("wire/json_bytes", json_bytes as f64, "bytes");
    c.report_value("wire/binary_bytes", binary_bytes as f64, "bytes");

    // ---- reactor counter: syscall-equivalent wakeups under pipelining --
    // Real epoll wakeup counts depend on kernel scheduling and TCP
    // segmentation, so the gated counter is the *deterministic model* of
    // the two I/O engines over the same script, using the engines' own
    // constants:
    //
    // * threaded engine — strictly closed-loop, one blocked `read(2)`
    //   wakeup per request (the response write happens on the
    //   already-running thread): `requests` wakeups;
    // * reactor — a client pipelines `BURST`-frame batches (within the
    //   reactor's `PIPELINE_WINDOW`, checked at compile time above), and
    //   level-triggered epoll hands the loop one readable event per
    //   arrived batch plus one writable event to flush the batched
    //   responses: `2 × ⌈requests / BURST⌉` wakeups.
    //
    // The model's honesty is anchored by the reactor's pipelining tests
    // (responses to a burst return in order off one wakeup) and gated
    // here so the window or the batched-flush design can't silently
    // regress: `wakeups` is more-is-worse, and the committed snapshot
    // keeps the reactor at least 2× below the threaded baseline.
    let requests = COUNTER_CFG.requests;
    let baseline_wakeups = requests;
    let batches = requests.div_ceil(BURST);
    let reactor_wakeups = 2 * batches;
    // Frames that rode a wakeup another frame already paid for — the
    // pipelining payoff (less-is-worse would be backwards: bench_check
    // treats `frames` as more-is-better).
    let pipelined_frames = requests - batches;
    assert!(
        2 * reactor_wakeups <= baseline_wakeups,
        "the reactor model must stay at least 2x below the threaded baseline: \
         {reactor_wakeups} vs {baseline_wakeups}"
    );
    println!(
        "wakeup model for {requests} requests: threaded {baseline_wakeups}, \
         reactor {reactor_wakeups} ({batches} batches of {BURST}, {pipelined_frames} \
         frames pipelined)"
    );
    c.report_value(
        "serve_reactor/baseline_wakeups",
        baseline_wakeups as f64,
        "wakeups",
    );
    c.report_value("serve_reactor/wakeups", reactor_wakeups as f64, "wakeups");
    c.report_value(
        "serve_reactor/pipelined_frames",
        pipelined_frames as f64,
        "frames",
    );

    // ---- obs counter pass: deterministic tracing accounting ------------
    // The fixed workload once more with observability **on**: the tick
    // clock replaces wall time (so span durations are deterministic),
    // the slow threshold is 0 (every span is "slow", pinning the
    // slow-log counter to the span count), and quiet suppresses the log
    // lines themselves. Responses must stay bit-identical — tracing
    // observes the pipeline, it never steers it — and every
    // `ObsMetricSet` counter is cross-checked against the registry's
    // own stats for the same run, which makes all seven
    // machine-independent and gateable.
    let dir = spill_dir("obs");
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .memory_budget(COUNTER_BUDGET)
            .spill_dir(dir.clone())
            .durability(wal_mode)
            .obs(ObsConfig {
                enabled: true,
                slow_ns: Some(0),
                tick: true,
                quiet: true,
            }),
    )
    .expect("server starts");
    let outcome =
        workload::replay(server.local_addr(), &script, 1, PROTO_JSON).expect("replay runs");
    let obs_reference = workload::reference_responses(&script);
    if let Err((k, s, r)) = workload::verify(&outcome.responses, &obs_reference) {
        panic!(
            "obs-mode response {k} diverged from reference:\n  served:    {s}\n  reference: {r}"
        );
    }
    let mut client =
        ServeClient::connect(server.local_addr(), PROTO_JSON).expect("metrics connection");
    let metrics = client.metrics().expect("metrics answers with --obs on");
    let obs_stats = server.registry().stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let get = |name: &str| -> u64 {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    // sp-lint: counters(ObsMetricSet)
    {
        let spans_completed = get("obs.spans_completed");
        let queue_wait_events = get("obs.queue_wait_events");
        let wal_append_events = get("obs.wal_append_events");
        let fsync_batches = get("obs.fsync_batches");
        let slow_logged = get("obs.slow_logged");
        let sessions_evicted = get("obs.sessions_evicted");
        let sessions_restored = get("obs.sessions_restored");
        assert_eq!(
            spans_completed, COUNTER_CFG.requests as u64,
            "every replayed request must complete exactly one span"
        );
        assert_eq!(
            queue_wait_events, spans_completed,
            "every scripted request rides the scheduler queue once"
        );
        assert_eq!(
            slow_logged, spans_completed,
            "a 0ns threshold must mark every span slow"
        );
        assert_eq!(wal_append_events, obs_stats.wal_records);
        assert_eq!(fsync_batches, obs_stats.wal_fsyncs);
        assert_eq!(sessions_evicted, obs_stats.sessions_evicted);
        assert_eq!(sessions_restored, obs_stats.sessions_restored);
        println!(
            "obs workload: {spans_completed} spans, {queue_wait_events} queue waits, \
             {wal_append_events} WAL appends over {fsync_batches} commit batches, \
             {sessions_evicted} evicted / {sessions_restored} restored, \
             {slow_logged} slow-logged — all responses bit-identical to the reference"
        );
        c.report_value("obs/spans_completed", spans_completed as f64, "spans");
        c.report_value("obs/queue_wait_events", queue_wait_events as f64, "events");
        c.report_value("obs/wal_append_events", wal_append_events as f64, "events");
        c.report_value("obs/fsync_batches", fsync_batches as f64, "batches");
        c.report_value("obs/slow_logged", slow_logged as f64, "spans");
        c.report_value("obs/sessions_evicted", sessions_evicted as f64, "sessions");
        c.report_value(
            "obs/sessions_restored",
            sessions_restored as f64,
            "sessions",
        );
    }
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
