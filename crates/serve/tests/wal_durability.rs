//! End-to-end durability: the crash gate in miniature.
//!
//! The contract under test is ISSUE 9's acceptance line: kill the
//! server mid-workload, restart it on the same spill directory, replay
//! the rest of the script, and every response — before and after the
//! crash — must be bit-identical to a run that never crashed. Around
//! that headline sit the edges that make it true: torn final records
//! recover to exactly the acknowledged prefix, a tampered log is
//! rejected over the wire with a typed error, eviction flushes pending
//! WAL records before it spills (and rewrites the log as a
//! checkpoint), a session cold-started from a file keeps that file's
//! checkpoint across a crash, the audit ops answer `bad_request`
//! when durability is off, and a log written by an earlier build
//! replays bit-identically.
//!
//! In-process, "crash" means dropping the [`Server`] without
//! `shutdown()`: no graceful drain runs, yet every *acknowledged*
//! response has already passed its group commit — which is precisely
//! the append-before-ack claim recovery leans on.

use std::fs;
use std::path::{Path, PathBuf};

use sp_core::{Move, PeerId};
use sp_serve::client::ServeClient;
use sp_serve::config::{Durability, ServeConfig};
use sp_serve::registry::{RegistryConfig, SessionRegistry};
use sp_serve::server::Server;
use sp_serve::wal;
use sp_serve::wire::{
    binary, ErrorCode, GameSpec, Geometry, Request, Response, ResultBody, SessionOp, SessionRequest,
};
use sp_serve::workload::{self, WorkloadConfig};
use sp_serve::{ops, snapshot};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-wal-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn wal_mode(group_commit: usize) -> Durability {
    Durability::Wal {
        group_commit,
        fsync: false,
    }
}

/// The small 4-peer line game the registry tests use.
fn spec() -> GameSpec {
    GameSpec {
        alpha: 1.0,
        geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
        links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
    }
}

fn add_link(from: usize, to: usize) -> SessionOp {
    SessionOp::Apply {
        mv: Move::AddLink {
            from: PeerId::new(from),
            to: PeerId::new(to),
        },
    }
}

/// Submits one op and blocks for its response.
fn call(registry: &SessionRegistry, session: &str, op: SessionOp) -> Response {
    registry
        .submit(
            SessionRequest {
                id: None,
                session: session.to_owned(),
                op,
            },
            None,
        )
        .recv()
        .expect("answered")
}

fn call_ok(registry: &SessionRegistry, session: &str, op: SessionOp) -> ResultBody {
    call(registry, session, op).outcome.expect("op succeeds")
}

/// The per-session WAL path (mirrors the registry's naming: name plus
/// its FNV-1a tag, `.wal` extension).
fn wal_file(dir: &std::path::Path, name: &str) -> PathBuf {
    let tag = sp_graph::fnv1a(name.as_bytes());
    dir.join(format!("{name}-{tag:016x}.wal"))
}

/// Byte offset where the last frame of a WAL file starts.
fn last_frame_start(data: &[u8]) -> usize {
    let mut pos = 0usize;
    let mut last = 0usize;
    while pos < data.len() {
        last = pos;
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len + 4;
    }
    assert_eq!(
        pos,
        data.len(),
        "committed log must end on a frame boundary"
    );
    last
}

/// The acceptance gate in-process: crash (drop
/// without shutdown) at the script midpoint, restart on the same spill
/// directory, replay the rest — the combined responses must be
/// bit-identical to the no-crash reference. A full `wal_verify` sweep
/// closes it.
#[test]
fn crash_restart_replay_is_bit_identical_to_an_uncrashed_run() {
    let dir = test_dir("crash");
    let cfg = WorkloadConfig::quick();
    let script = workload::build_script(&cfg);
    let k = script.len() / 2;

    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .spill_dir(dir.clone())
            .durability(wal_mode(8)),
    )
    .expect("first server starts");
    let first =
        workload::replay(server.local_addr(), &script[..k], 4).expect("pre-crash replay completes");
    // The crash: no shutdown, no drain — every response above was
    // acknowledged, so its record is already group-committed.
    drop(server);

    let server = Server::start(
        ServeConfig::new()
            .workers(2)
            .spill_dir(dir.clone())
            .durability(wal_mode(8)),
    )
    .expect("restart recovers");
    assert!(
        server.registry().stats().wal_replays > 0,
        "restart must replay the pre-crash tail: {:?}",
        server.registry().stats()
    );
    let second = workload::replay(server.local_addr(), &script[k..], 4)
        .expect("post-crash replay completes");

    let reference = workload::reference_typed(&script);
    let combined: Vec<_> = first
        .responses
        .iter()
        .chain(&second.responses)
        .cloned()
        .collect();
    if let Err(i) = workload::verify(&combined, &reference) {
        let (s, r) = (&combined[i], &reference[i]);
        panic!("response {i} diverged across the crash:\n  served:    {s:?}\n  reference: {r:?}");
    }

    // The audit sweep: every session's log re-scans clean, and the
    // audited head agrees with the live one.
    let mut client = ServeClient::connect(server.local_addr()).expect("audit client");
    for i in 0..cfg.sessions {
        let name = workload::session_name(i);
        let verified = client.wal_verify(&name).expect("audit passes");
        let head = client.wal_head(&name).expect("head answers");
        match (verified, head) {
            (
                ResultBody::WalVerified { records, head_hash },
                ResultBody::WalHead {
                    records: r2,
                    head_hash: h2,
                },
            ) => assert_eq!((records, head_hash), (r2, h2), "{name}: audit disagrees"),
            other => panic!("{name}: unexpected audit bodies {other:?}"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Truncating the log anywhere inside (or exactly before) its final
/// record recovers the session to the acknowledged prefix: the torn
/// record vanishes, the first three survive, and the recovered state
/// answers queries bit-identically to a session that only ever saw the
/// surviving ops.
#[test]
fn torn_final_record_recovers_to_the_acknowledged_prefix() {
    let dir = test_dir("torn");
    let registry = SessionRegistry::new(RegistryConfig {
        spill_dir: dir.clone(),
        durability: wal_mode(1),
        ..RegistryConfig::default()
    })
    .expect("registry starts");
    let workers = registry.spawn_workers(1);
    call_ok(&registry, "t", SessionOp::Create(spec()));
    call_ok(&registry, "t", add_link(0, 2));
    call_ok(&registry, "t", add_link(0, 3));
    call_ok(&registry, "t", add_link(1, 3));
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }

    // The reference: a session that only ever saw create + two applies.
    let ref_dir = test_dir("torn-ref");
    let reference = SessionRegistry::new(RegistryConfig {
        spill_dir: ref_dir.clone(),
        ..RegistryConfig::default()
    })
    .expect("reference registry starts");
    let ref_workers = reference.spawn_workers(1);
    call_ok(&reference, "t", SessionOp::Create(spec()));
    call_ok(&reference, "t", add_link(0, 2));
    call_ok(&reference, "t", add_link(0, 3));
    let expected_cost = call(&reference, "t", SessionOp::SocialCost);
    reference.shutdown();
    for w in ref_workers {
        w.join().expect("worker joins");
    }
    let _ = fs::remove_dir_all(&ref_dir);

    let path = wal_file(&dir, "t");
    let full = fs::read(&path).unwrap();
    let last = last_frame_start(&full);
    for cut in last..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let recovered = SessionRegistry::new(RegistryConfig {
            spill_dir: dir.clone(),
            durability: wal_mode(1),
            ..RegistryConfig::default()
        })
        .unwrap_or_else(|e| panic!("cut at {cut} must recover: {e}"));
        assert_eq!(
            recovered.stats().wal_replays,
            3,
            "cut at {cut} must replay create + two applies"
        );
        let workers = recovered.spawn_workers(1);
        match call_ok(&recovered, "t", SessionOp::WalHead) {
            ResultBody::WalHead { records, .. } => {
                assert_eq!(records, 3, "cut at {cut}: torn record must not count");
            }
            other => panic!("cut at {cut}: unexpected body {other:?}"),
        }
        assert_eq!(
            call(&recovered, "t", SessionOp::SocialCost),
            expected_cost,
            "cut at {cut}: recovered state diverged from the acknowledged prefix"
        );
        recovered.shutdown();
        for w in workers {
            w.join().expect("worker joins");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Flipping any single byte of a session's log makes the *wire-level*
/// audit op fail with a typed `bad_frame`/`chain_broken` error, and
/// restoring the bytes heals it — the tamper-evidence claim, end to
/// end through a live server.
#[test]
fn tampered_log_is_rejected_over_the_wire() {
    let dir = test_dir("tamper");
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .spill_dir(dir.clone())
            .durability(wal_mode(4)),
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("client");
    client.create("audit", spec()).expect("create");
    for (from, to) in [(0, 2), (0, 3), (1, 3)] {
        client
            .apply(
                "audit",
                Move::AddLink {
                    from: PeerId::new(from),
                    to: PeerId::new(to),
                },
            )
            .expect("apply");
    }
    client.wal_verify("audit").expect("clean log verifies");

    let path = wal_file(&dir, "audit");
    let clean = fs::read(&path).unwrap();
    for i in 0..clean.len() {
        let mut bent = clean.clone();
        bent[i] ^= 0x40;
        fs::write(&path, &bent).unwrap();
        match client.wal_verify("audit") {
            Err(e) => assert!(
                matches!(e.code, ErrorCode::BadFrame | ErrorCode::ChainBroken),
                "byte {i}: expected a typed audit failure, got {e:?}"
            ),
            Ok(body) => panic!("byte {i}: tampered log verified as {body:?}"),
        }
    }
    fs::write(&path, &clean).unwrap();
    client
        .wal_verify("audit")
        .expect("restoring the bytes restores the audit");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Without `--durability wal` the audit ops answer a typed
/// `bad_request` — not a hang, not an empty chain.
#[test]
fn audit_ops_are_bad_request_when_durability_is_off() {
    let dir = test_dir("off");
    let server =
        Server::start(ServeConfig::new().workers(1).spill_dir(dir.clone())).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("client");
    client.create("s", spec()).expect("create");
    for op in [client.wal_head("s"), client.wal_verify("s")] {
        match op {
            Err(e) => assert_eq!(e.code, ErrorCode::BadRequest, "unexpected error {e:?}"),
            Ok(body) => panic!("audit op answered {body:?} with durability off"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The eviction edge: a session holding appended-but-uncommitted WAL
/// records that gets LRU-spilled mid-batch must flush those records
/// before the checkpoint rewrites the log (never the reverse).
/// Pinned by queueing a whole batch before the single worker starts —
/// so the spill happens with the batch's commit still pending — and
/// checking the on-disk aftermath plus the recovered state.
#[test]
fn eviction_flushes_pending_records_before_spilling() {
    let dir = test_dir("evict");
    // A 1-byte budget makes every session a victim the moment it idles.
    let registry = SessionRegistry::new(RegistryConfig {
        memory_budget: 1,
        spill_dir: dir.clone(),
        durability: wal_mode(8),
        ..RegistryConfig::default()
    })
    .expect("registry starts");
    let mut receivers = Vec::new();
    for (session, op) in [
        ("aa", SessionOp::Create(spec())),
        ("aa", add_link(0, 2)),
        ("bb", SessionOp::Create(spec())),
    ] {
        receivers.push(registry.submit(
            SessionRequest {
                id: None,
                session: session.to_owned(),
                op,
            },
            None,
        ));
    }
    // All three drain as one batch: "aa" is evicted while its records
    // are still pending (the group commit only runs at batch end).
    let workers = registry.spawn_workers(1);
    for rx in receivers {
        assert!(rx.recv().expect("answered").outcome.is_ok());
    }
    let stats = registry.stats();
    assert_eq!(stats.wal_records, 3, "{stats:?}");
    assert!(stats.sessions_evicted >= 1, "{stats:?}");
    assert!(
        stats.wal_fsyncs >= 1,
        "the spill must flush pending records: {stats:?}"
    );
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }

    // On disk: the spilled session's log is rewritten as a bare
    // header whose checkpoint holds the records' effect, and it is the
    // session's only file.
    let wal_bytes = fs::read(wal_file(&dir, "aa")).unwrap();
    let header_len = 8 + u32::from_le_bytes(wal_bytes[0..4].try_into().unwrap()) as usize;
    assert_eq!(
        wal_bytes.len(),
        header_len,
        "the spilled session's log must be rewritten as its header"
    );
    let log = wal::read(&wal_file(&dir, "aa")).unwrap();
    assert!(
        log.checkpoint.is_some(),
        "the header must carry the checkpoint"
    );
    assert_eq!(log.base_seq, 2);
    let files = fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 2, "one file per session");

    // The flushed-then-spilled state survives recovery bit-identically.
    let recovered = SessionRegistry::new(RegistryConfig {
        memory_budget: 1,
        spill_dir: dir.clone(),
        durability: wal_mode(8),
        ..RegistryConfig::default()
    })
    .expect("recovery succeeds");
    let workers = recovered.spawn_workers(1);
    match call_ok(&recovered, "aa", SessionOp::WalHead) {
        ResultBody::WalHead { records, .. } => {
            assert_eq!(records, 2, "the chain spans the compaction");
        }
        other => panic!("unexpected body {other:?}"),
    }
    let cost = call(&recovered, "aa", SessionOp::SocialCost);
    recovered.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }

    // The reference: the same two ops, never evicted, never recovered.
    let ref_dir = test_dir("evict-ref");
    let reference = SessionRegistry::new(RegistryConfig {
        spill_dir: ref_dir.clone(),
        ..RegistryConfig::default()
    })
    .expect("reference registry starts");
    let ref_workers = reference.spawn_workers(1);
    call_ok(&reference, "aa", SessionOp::Create(spec()));
    call_ok(&reference, "aa", add_link(0, 2));
    assert_eq!(
        call(&reference, "aa", SessionOp::SocialCost),
        cost,
        "recovered state diverged from the never-evicted reference"
    );
    reference.shutdown();
    for w in ref_workers {
        w.join().expect("worker joins");
    }
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// The one-file hazard: a session cold-started by `load` from a file
/// no log handle covers, then mutated, must keep that file's
/// checkpoint when its log is opened for the mutation — a crash (drop
/// without shutdown) and restart then serve it bit-identically to a
/// session that never crashed.
#[test]
fn a_loaded_session_survives_a_crash_bit_identically() {
    let dir = test_dir("cold");
    let start = || {
        Server::start(
            ServeConfig::new()
                .workers(1)
                .spill_dir(dir.clone())
                .durability(wal_mode(4)),
        )
        .expect("server starts")
    };
    let server = start();
    // The file appears after startup, so recovery installed no handle.
    let mut seed = ops::build_session(&spec()).unwrap();
    snapshot::save(&wal_file(&dir, "cold"), &mut seed).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).expect("client");
    client.load("cold").expect("cold start from the file");
    client
        .apply(
            "cold",
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
        )
        .expect("apply");
    let before = client.social_cost("cold").expect("social cost");
    drop(client);
    drop(server);

    let server = start();
    let mut client = ServeClient::connect(server.local_addr()).expect("client");
    assert_eq!(
        client
            .social_cost("cold")
            .expect("recovered session answers"),
        before,
        "the crash lost the loaded session's state"
    );
    client.wal_verify("cold").expect("the log audits clean");
    server.shutdown();

    // The reference: the same state, never loaded, never crashed.
    let ref_dir = test_dir("cold-ref");
    let reference = SessionRegistry::new(RegistryConfig {
        spill_dir: ref_dir.clone(),
        ..RegistryConfig::default()
    })
    .expect("reference registry starts");
    let ref_workers = reference.spawn_workers(1);
    call_ok(&reference, "cold", SessionOp::Create(spec()));
    call_ok(&reference, "cold", add_link(0, 3));
    assert_eq!(call_ok(&reference, "cold", SessionOp::SocialCost), before);
    reference.shutdown();
    for w in ref_workers {
        w.join().expect("worker joins");
    }
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// The 7-peer game of `tests/fixtures/checkpoint_and_tail.wal`.
fn fixture_spec() -> GameSpec {
    GameSpec {
        alpha: 1.25,
        geometry: Geometry::Points2D(vec![
            (0.0, 0.0),
            (1.0, 0.5),
            (2.5, 0.0),
            (3.0, 2.0),
            (1.5, 3.0),
            (0.0, 2.5),
            (4.0, 4.0),
        ]),
        links: (0..7)
            .flat_map(|i| [(i, (i + 1) % 7), ((i + 1) % 7, i)])
            .collect(),
    }
}

/// The fixture session's ops after its `create`: the first two are
/// folded into the log's checkpoint, the last three are its records.
fn fixture_ops() -> Vec<SessionOp> {
    let mv = |from, to, add| {
        let (from, to) = (PeerId::new(from), PeerId::new(to));
        if add {
            Move::AddLink { from, to }
        } else {
            Move::RemoveLink { from, to }
        }
    };
    vec![
        SessionOp::Apply { mv: mv(0, 3, true) },
        SessionOp::ApplyBatch {
            moves: vec![mv(2, 3, false), mv(6, 1, true)],
        },
        SessionOp::Apply {
            mv: mv(4, 5, false),
        },
        SessionOp::ApplyBatch {
            moves: vec![
                Move::SetStrategy {
                    peer: PeerId::new(5),
                    links: [0usize, 3].into_iter().collect(),
                },
                mv(1, 6, true),
            ],
        },
        SessionOp::Apply { mv: mv(2, 4, true) },
    ]
}

/// A log written by the build that still served sparse mode, whose
/// checkpoint `create` carries the mode byte (0), replays unchanged:
/// the loaded session answers `social_cost` and `stretch` with the
/// bytes of a live session that ran the same ops. The fixture is the
/// log that build's registry wrote under `Durability::Wal` for a
/// `create` of [`fixture_spec`], the first two [`fixture_ops`], a
/// `snapshot` (which folded them into the checkpoint) and the last
/// three.
#[test]
fn a_log_from_an_earlier_build_replays_bit_identically() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_and_tail.wal");
    let log = wal::read(&path).expect("the fixture is an intact log");
    assert!(log.checkpoint.is_some(), "the fixture holds a checkpoint");
    let tail: Vec<&SessionOp> = log
        .tail
        .iter()
        .map(|r| match r {
            Request::Session(s) => &s.op,
            other => panic!("not a session record: {other:?}"),
        })
        .collect();
    assert_eq!(tail, fixture_ops()[2..].iter().collect::<Vec<_>>());

    let mut restored = snapshot::load(&path).expect("the fixture loads");
    let mut live = ops::build_session(&fixture_spec()).unwrap();
    for op in fixture_ops() {
        ops::execute_query(&op, &mut live).expect("the op applies");
    }
    assert_eq!(restored.profile(), live.profile());
    for op in [SessionOp::SocialCost, SessionOp::Stretch] {
        let answer = |session| {
            let body = ops::execute_query(&op, session).expect("the query answers");
            binary::encode_response(&Response::ok(None, body))
        };
        assert_eq!(answer(&mut restored), answer(&mut live), "{op:?}");
    }
}
