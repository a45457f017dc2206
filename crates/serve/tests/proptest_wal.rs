//! Property tests for the write-ahead log: record encoding fidelity,
//! chain/recovery agreement with an independently computed FNV-1a fold,
//! tamper detection for arbitrary single-byte corruption (checkpointed
//! headers included), the torn-tail contract (any truncated suffix
//! recovers to a clean prefix of the appended history), and hostile
//! bytes fed to the checkpoint decoder.
//!
//! The unit tests in `wal.rs` pin these behaviours exhaustively for one
//! fixed log; these properties pin them for *arbitrary* logs — any mix
//! of ops, ids, and session names the wire grammar can express.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{BackendMode, Move, PeerId};
use sp_graph::fnv1a_extend;
use sp_serve::ops::{self, Session};
use sp_serve::snapshot;
use sp_serve::wal::{self, SessionWal};
use sp_serve::wire::{
    ErrorCode, GameSpec, Geometry, Request, ResultBody, SessionOp, SessionRequest,
};

/// A unique log path per proptest case (cases run concurrently across
/// test threads, and a shrinking run revisits the same closure).
fn case_path() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("sp-serve-proptest-wal-{}", std::process::id()));
    let _ = fs::create_dir_all(&dir);
    dir.join(format!("case-{}.wal", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn arb_move() -> impl Strategy<Value = Move> {
    let peer = || 0usize..64;
    prop_oneof![
        (peer(), peer()).prop_map(|(a, b)| Move::AddLink {
            from: PeerId::new(a),
            to: PeerId::new(b),
        }),
        (peer(), peer()).prop_map(|(a, b)| Move::RemoveLink {
            from: PeerId::new(a),
            to: PeerId::new(b),
        }),
        (peer(), proptest::collection::vec(peer(), 0..5)).prop_map(|(p, links)| {
            Move::SetStrategy {
                peer: PeerId::new(p),
                links: links.into_iter().collect(),
            }
        }),
    ]
}

/// Arbitrary loggable session requests (the WAL stores the request
/// verbatim in the binary wire codec, so ids and names ride along).
fn arb_request() -> impl Strategy<Value = Request> {
    let op = prop_oneof![
        arb_move().prop_map(|mv| SessionOp::Apply { mv }),
        proptest::collection::vec(arb_move(), 0..4)
            .prop_map(|moves| SessionOp::ApplyBatch { moves }),
        Just(SessionOp::Load),
        Just(SessionOp::Evict),
    ];
    (
        prop_oneof![Just(None), (0u64..1 << 32).prop_map(Some)],
        0usize..4,
        op,
    )
        .prop_map(|(id, name, op)| {
            Request::Session(SessionRequest {
                id,
                session: format!("s{name}"),
                op,
            })
        })
}

/// Arbitrary checkpoints: the spec of a small line game in either
/// mode.
fn arb_checkpoint() -> impl Strategy<Value = GameSpec> {
    (
        2usize..7,
        proptest::bool::ANY,
        proptest::collection::vec((0usize..7, 0usize..7), 0..8),
    )
        .prop_map(|(n, sparse, pairs)| GameSpec {
            alpha: 1.5,
            geometry: Geometry::Line((0..n).map(|i| i as f64 * 1.25).collect()),
            links: pairs
                .into_iter()
                .filter(|&(u, v)| u != v && u < n && v < n)
                .collect(),
            mode: if sparse {
                BackendMode::Sparse
            } else {
                BackendMode::Dense
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `record_body` / `parse_record_body` are inverse for any seq,
    /// chain value, and request.
    #[test]
    fn record_body_round_trips(
        seq in 0u64..1 << 48,
        prev in 0u64..u64::MAX,
        request in arb_request(),
    ) {
        let body = wal::record_body(seq, prev, &request);
        let (seq_back, prev_back, req_back) = wal::parse_record_body(&body).unwrap();
        prop_assert_eq!(seq_back, seq);
        prop_assert_eq!(prev_back, prev);
        prop_assert_eq!(req_back, request);
    }

    /// The live chain head equals an independent FNV-1a fold over the
    /// record bodies, recovery replays exactly the appended requests,
    /// and the strict audit passes — for any request sequence.
    #[test]
    fn chain_recovery_and_audit_agree(requests in proptest::collection::vec(arb_request(), 1..16)) {
        let path = case_path();
        let mut live = SessionWal::create(&path, false).unwrap();
        let mut expected_head = wal::genesis();
        for (k, r) in requests.iter().enumerate() {
            live.append(r).unwrap();
            expected_head =
                fnv1a_extend(expected_head, &wal::record_body(k as u64 + 1, expected_head, r));
        }
        prop_assert!(live.commit().unwrap());
        prop_assert_eq!(live.head().records, requests.len() as u64);
        prop_assert_eq!(live.head().head_hash, expected_head);
        prop_assert_eq!(live.verify().unwrap(), live.head());
        drop(live);

        let (recovered, log) = SessionWal::recover(&path, false).unwrap();
        prop_assert_eq!(log.base_seq, 0);
        prop_assert_eq!(log.tail, requests);
        prop_assert_eq!(recovered.head().head_hash, expected_head);
        prop_assert!(recovered.verify().is_ok());
        let _ = fs::remove_file(&path);
    }

    /// Flipping any single byte of any committed log — with or without
    /// a checkpoint in its header — trips the audit with a *typed*
    /// error — structural damage as `bad_frame`, a re-chained or
    /// swapped log as `chain_broken` — never a clean pass.
    #[test]
    fn any_single_byte_corruption_is_detected(
        requests in proptest::collection::vec(arb_request(), 1..10),
        checkpointed in proptest::bool::ANY,
        checkpoint in arb_checkpoint(),
        at in 0usize..usize::MAX,
        mask in 1u8..=255,
    ) {
        let path = case_path();
        let mut live = SessionWal::create(&path, false).unwrap();
        if checkpointed {
            live.checkpoint(checkpoint).unwrap();
        }
        for r in &requests {
            live.append(r).unwrap();
        }
        live.commit().unwrap();
        let clean = fs::read(&path).unwrap();

        let mut bent = clean.clone();
        let at = at % bent.len();
        bent[at] ^= mask;
        fs::write(&path, &bent).unwrap();
        let e = live.verify().expect_err("corruption must not verify");
        prop_assert!(
            matches!(e.code, ErrorCode::BadFrame | ErrorCode::ChainBroken),
            "byte {} xor {:#04x}: unexpected error {:?}", at, mask, e
        );
        let _ = fs::remove_file(&path);
    }

    /// Truncating the file at any point past the header — a crash
    /// mid-append tears exactly like this — recovers cleanly to a
    /// prefix of the appended history, and the truncated log passes the
    /// strict audit afterwards.
    #[test]
    fn any_torn_suffix_recovers_to_a_clean_prefix(
        requests in proptest::collection::vec(arb_request(), 1..10),
        cut_seed in 0usize..usize::MAX,
    ) {
        let path = case_path();
        let mut live = SessionWal::create(&path, false).unwrap();
        for r in &requests {
            live.append(r).unwrap();
        }
        live.commit().unwrap();
        drop(live);
        let full = fs::read(&path).unwrap();

        // The header frame is written atomically and can't be torn by a
        // crashed append, so cuts land anywhere from its end to EOF.
        let header_len = 8 + u32::from_le_bytes(full[0..4].try_into().unwrap()) as usize;
        let cut = header_len + cut_seed % (full.len() - header_len + 1);
        fs::write(&path, &full[..cut]).unwrap();

        let (recovered, log) =
            SessionWal::recover(&path, false).expect("a torn suffix is a clean end of log");
        let tail = log.tail;
        prop_assert_eq!(log.base_seq, 0);
        prop_assert!(tail.len() <= requests.len());
        prop_assert_eq!(tail.as_slice(), &requests[..tail.len()]);
        prop_assert_eq!(recovered.head().records, tail.len() as u64);
        prop_assert!(recovered.verify().is_ok(), "recovery truncates the tear");
        let _ = fs::remove_file(&path);
    }
}

/// Whether `data` scans as complete frames with valid CRCs to EOF.
fn frames_intact(data: &[u8]) -> bool {
    let mut pos = 0usize;
    while pos < data.len() {
        let Some(len) = data.get(pos..pos + 4) else {
            return false;
        };
        let end = pos + 4 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
        let (Some(body), Some(crc)) = (data.get(pos + 4..end), data.get(end..end + 4)) else {
            return false;
        };
        if wal::crc32(body).to_le_bytes() != crc {
            return false;
        }
        pos = end + 4;
    }
    true
}

fn same_session(a: &mut Session, b: &mut Session) -> bool {
    let cost = |s: &mut Session| match ops::execute(&SessionOp::SocialCost, s) {
        Ok(ResultBody::SocialCost(c)) => Some(c.total.to_bits()),
        _ => None,
    };
    a.state() == b.state() && a.mode() == b.mode() && cost(a) == cost(b)
}

/// Feeds `bytes` through both readers of a session file; each must
/// answer `Ok` or a typed `InvalidData` error, never panic.
fn read_both(path: &Path, bytes: &[u8]) -> io::Result<Session> {
    fs::write(path, bytes).unwrap();
    if let Err(e) = SessionWal::recover(path, false) {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "recover: {e}");
    }
    fs::write(path, bytes).unwrap();
    let loaded = snapshot::load_session(path);
    if let Err(e) = &loaded {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "load: {e}");
    }
    loaded
}

/// Hostile bytes into the checkpoint decoder: every truncation of a
/// valid checkpointed file, and a few hundred seeded random mutations
/// of it, go through `snapshot::load_session` and `SessionWal::recover`. Each
/// answers a typed `InvalidData` error — or, for cuts past the header,
/// a clean torn tail — and never panics; a mutation that leaves every
/// CRC valid must fail or decode to an equal session. Mutations of the
/// header body with its CRC fixed up reach the checkpoint decoder and
/// the game builder themselves, and must fail typed or decode.
#[test]
fn hostile_bytes_into_the_checkpoint_decoder_fail_typed() {
    let path = case_path();
    for sparse in [false, true] {
        let spec_links = [(0, 1), (1, 0), (1, 2), (3, 4), (4, 2)];
        let mut session = ops::build(&GameSpec {
            alpha: 0.75,
            geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.5, 9.0]),
            links: spec_links.to_vec(),
            mode: if sparse {
                BackendMode::Sparse
            } else {
                BackendMode::Dense
            },
        })
        .unwrap();
        snapshot::save_session(&path, &mut session).unwrap();
        let header_len = fs::metadata(&path).unwrap().len() as usize;
        let mut log = SessionWal::open(&path, false).unwrap();
        let apply = Request::Session(SessionRequest {
            id: Some(1),
            session: "h".to_owned(),
            op: SessionOp::Apply {
                mv: Move::AddLink {
                    from: PeerId::new(0),
                    to: PeerId::new(4),
                },
            },
        });
        log.append(&apply).unwrap();
        log.commit().unwrap();
        drop(log);
        let clean = fs::read(&path).unwrap();
        let mut expected = snapshot::load_session(&path).unwrap();

        for cut in 0..clean.len() {
            let loaded = read_both(&path, &clean[..cut]);
            assert_eq!(
                loaded.is_ok(),
                cut >= header_len,
                "cut at {cut}: only a cut header may fail"
            );
        }

        let mut rng = StdRng::seed_from_u64(27 + u64::from(sparse));
        for round in 0..300 {
            let mut bent = clean.clone();
            for _ in 0..rng.random_range(1..=4usize) {
                let at = rng.random_range(0..bent.len());
                bent[at] ^= rng.random_range(1..=255u8);
            }
            let loaded = read_both(&path, &bent);
            if frames_intact(&bent) {
                if let Ok(mut s) = loaded {
                    assert!(
                        same_session(&mut s, &mut expected),
                        "round {round}: a CRC-valid mutation decoded to a different session"
                    );
                }
            }
        }
        for _ in 0..300 {
            let mut bent = clean.clone();
            let body = 4..header_len - 4;
            for _ in 0..rng.random_range(1..=4usize) {
                let at = rng.random_range(body.clone());
                bent[at] ^= rng.random_range(1..=255u8);
            }
            let crc = wal::crc32(&bent[body.clone()]);
            bent[body.end..header_len].copy_from_slice(&crc.to_le_bytes());
            let _ = read_both(&path, &bent);
        }
    }
    let _ = fs::remove_file(&path);
}
