//! Property tests for codec fidelity: every typed [`Request`] /
//! [`Response`] the protocol can express must survive the binary codec
//! unchanged, re-encoding a decoded frame must reproduce its bytes (the
//! replay gate compares encoded responses), and malformed frames —
//! truncated, trailing-garbage, oversized — must be rejected, never
//! misread.

use proptest::prelude::*;
use sp_core::{BestResponseMethod, Move, PeerId};
use sp_dynamics::Termination;
use sp_json::frame;
use sp_wire::{
    binary, BestResponseBody, DynamicsBody, DynamicsRule, DynamicsSpec, ErrorCode, GameSpec,
    Geometry, Request, Response, ResultBody, ServiceStats, SessionOp, SessionRequest,
    SocialCostBody, WireError,
};

/// Ids span the full u64: the binary codec varints them losslessly.
fn arb_id() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..=u64::MAX).prop_map(Some)]
}

fn arb_name() -> impl Strategy<Value = String> {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
    (
        0usize..FIRST.len(),
        proptest::collection::vec(0usize..REST.len(), 0..15),
    )
        .prop_map(|(f, rest)| {
            let mut name = String::new();
            name.push(char::from(FIRST[f]));
            for r in rest {
                name.push(char::from(REST[r]));
            }
            name
        })
}

/// Printable ASCII error messages.
fn arb_msg() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..40)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9f64..1e9,
        Just(0.0),
        Just(-0.0),
        Just(1.0 / 3.0),
        Just(f64::MIN_POSITIVE),
    ]
}

/// Costs may legitimately be `+∞` (disconnected overlays).
fn arb_cost() -> impl Strategy<Value = f64> {
    prop_oneof![arb_finite(), Just(f64::INFINITY)]
}

fn arb_method() -> impl Strategy<Value = BestResponseMethod> {
    prop_oneof![
        Just(BestResponseMethod::Exact),
        Just(BestResponseMethod::ExactEnumeration),
        Just(BestResponseMethod::Greedy),
        Just(BestResponseMethod::LocalSearch),
    ]
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
        (peer(), proptest::collection::vec(peer(), 0..6)).prop_map(|(p, links)| {
            Move::SetStrategy {
                peer: PeerId::new(p),
                links: links.into_iter().collect(),
            }
        }),
    ]
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        proptest::collection::vec(arb_finite(), 0..6).prop_map(Geometry::Line),
        proptest::collection::vec((arb_finite(), arb_finite()), 0..6).prop_map(Geometry::Points2D),
        (0usize..4)
            .prop_flat_map(|n| proptest::collection::vec(
                proptest::collection::vec(arb_finite(), n..=n),
                n..=n
            ))
            .prop_map(Geometry::Matrix),
    ]
}

fn arb_spec() -> impl Strategy<Value = GameSpec> {
    let links = proptest::collection::vec((0usize..64, 0usize..64), 0..8);
    (0.01f64..100.0, arb_geometry(), links).prop_map(|(alpha, geometry, links)| GameSpec {
        alpha,
        geometry,
        links,
    })
}

fn arb_dynamics_spec() -> impl Strategy<Value = DynamicsSpec> {
    (
        prop_oneof![
            Just(DynamicsRule::Better),
            arb_method().prop_map(DynamicsRule::Best),
        ],
        prop_oneof![Just(None), (1usize..10_000).prop_map(Some)],
        prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
        prop_oneof![Just(None), proptest::bool::ANY.prop_map(Some)],
    )
        .prop_map(
            |(rule, max_rounds, tolerance, detect_cycles)| DynamicsSpec {
                rule,
                max_rounds,
                tolerance,
                detect_cycles,
            },
        )
}

fn arb_session_op() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        arb_spec().prop_map(SessionOp::Create),
        Just(SessionOp::Load),
        arb_move().prop_map(|mv| SessionOp::Apply { mv }),
        proptest::collection::vec(arb_move(), 0..5)
            .prop_map(|moves| SessionOp::ApplyBatch { moves }),
        (0usize..64, arb_method()).prop_map(|(p, method)| SessionOp::BestResponse {
            peer: PeerId::new(p),
            method,
        }),
        arb_method().prop_map(|method| SessionOp::NashGap { method }),
        Just(SessionOp::SocialCost),
        Just(SessionOp::Stretch),
        arb_dynamics_spec().prop_map(SessionOp::RunDynamics),
        Just(SessionOp::Snapshot),
        Just(SessionOp::Evict),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_id(), 0u8..8).prop_map(|(id, proto)| Request::Hello { id, proto }),
        arb_id().prop_map(|id| Request::Ping { id }),
        arb_id().prop_map(|id| Request::Stats { id }),
        (arb_id(), arb_name(), arb_session_op())
            .prop_map(|(id, session, op)| { Request::Session(SessionRequest { id, session, op }) }),
    ]
}

fn arb_termination() -> impl Strategy<Value = Termination> {
    prop_oneof![
        (0usize..1000).prop_map(|rounds| Termination::Converged { rounds }),
        (0usize..1000, 1usize..1000, 0usize..1000).prop_map(
            |(first_seen_step, period_steps, moves_in_cycle)| Termination::Cycle {
                first_seen_step,
                period_steps,
                moves_in_cycle,
            }
        ),
        Just(Termination::RoundLimit),
    ]
}

fn arb_social() -> impl Strategy<Value = SocialCostBody> {
    (arb_finite(), arb_cost(), arb_cost()).prop_map(|(link_cost, stretch_cost, total)| {
        SocialCostBody {
            link_cost,
            stretch_cost,
            total,
        }
    })
}

/// A result body of any op.
fn arb_body() -> impl Strategy<Value = ResultBody> {
    let big = || 0u64..=u64::MAX;
    prop_oneof![
        (1u8..=2).prop_map(|proto| ResultBody::Hello { proto }),
        Just(ResultBody::Pong),
        (
            (big(), big(), big(), big()),
            (0usize..100, 0usize..100, 0usize..1 << 32),
        )
            .prop_map(|((a, b, c, d), (e, f, g))| ResultBody::Stats(ServiceStats {
                requests_served: a,
                sessions_created: b,
                sessions_evicted: c,
                sessions_restored: d,
                queue_depth_hwm: e,
                resident_sessions: f,
                resident_bytes: g,
            })),
        (1usize..200, 0.01f64..100.0, 0usize..400)
            .prop_map(|(n, alpha, links)| ResultBody::Created { n, alpha, links }),
        Just(ResultBody::Loaded),
        proptest::collection::vec(0usize..64, 0..6)
            .prop_map(|previous| ResultBody::Applied { previous }),
        proptest::collection::vec(proptest::collection::vec(0usize..64, 0..6), 0..4)
            .prop_map(|previous| ResultBody::BatchApplied { previous }),
        (
            0usize..64,
            proptest::collection::vec(0usize..64, 0..6),
            arb_cost(),
            arb_cost(),
            proptest::bool::ANY,
        )
            .prop_map(|(peer, links, cost, current_cost, exact)| {
                ResultBody::BestResponse(BestResponseBody {
                    peer,
                    links,
                    cost,
                    current_cost,
                    exact,
                })
            }),
        arb_cost().prop_map(|gap| ResultBody::NashGap { gap }),
        arb_social().prop_map(ResultBody::SocialCost),
        arb_cost().prop_map(|max_stretch| ResultBody::Stretch { max_stretch }),
        (
            arb_termination(),
            0usize..10_000,
            0usize..10_000,
            arb_social()
        )
            .prop_map(|(termination, steps, moves, social_cost)| {
                ResultBody::Dynamics(DynamicsBody {
                    termination,
                    steps,
                    moves,
                    social_cost,
                })
            }),
        Just(ResultBody::Persisted),
        Just(ResultBody::Evicted),
        (big(), big()).prop_map(|(records, head_hash)| ResultBody::WalHead { records, head_hash }),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::UnknownOp),
        Just(ErrorCode::BadField),
        Just(ErrorCode::BadName),
        Just(ErrorCode::BadSpec),
        Just(ErrorCode::SessionExists),
        Just(ErrorCode::UnknownSession),
        Just(ErrorCode::Core),
        Just(ErrorCode::Io),
        Just(ErrorCode::Shutdown),
        Just(ErrorCode::BadProto),
        Just(ErrorCode::BadFrame),
        Just(ErrorCode::ChainBroken),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests round-trip the binary codec, and re-encoding the
    /// decoded value reproduces the frame byte for byte.
    #[test]
    fn requests_roundtrip_binary(request in arb_request()) {
        let b = binary::encode_request(&request);
        let decoded = binary::decode_request(&b).expect("binary decode");
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(binary::encode_request(&decoded), b);
    }

    /// Success responses round-trip the binary codec byte for byte —
    /// the property the replay gate's encoded-bytes comparison leans
    /// on.
    #[test]
    fn ok_responses_roundtrip_binary(id in arb_id(), body in arb_body()) {
        let response = Response::ok(id, body);
        let b = binary::encode_response(&response);
        let decoded = binary::decode_response(&b).expect("binary decode");
        prop_assert_eq!(&decoded, &response);
        prop_assert_eq!(binary::encode_response(&decoded), b);
    }

    /// Error responses round-trip the binary codec with their stable
    /// code bytes intact.
    #[test]
    fn error_responses_roundtrip_binary(
        id in arb_id(),
        code in arb_error_code(),
        msg in arb_msg(),
    ) {
        let response = Response::err(id, WireError::new(code, msg));
        let b = binary::encode_response(&response);
        let decoded = binary::decode_response(&b).expect("binary decode");
        prop_assert_eq!(&decoded, &response);
        prop_assert_eq!(binary::encode_response(&decoded), b);
    }

    /// Every proper prefix of a binary frame is rejected — a truncated
    /// payload can never silently decode to anything — and so is a
    /// frame with trailing bytes (the decoder demands exact
    /// consumption).
    #[test]
    fn truncated_and_padded_binary_requests_are_rejected(
        request in arb_request(),
        cut in 0usize..1 << 16,
    ) {
        let full = binary::encode_request(&request);
        let k = cut % full.len(); // 0..len: always a *proper* prefix
        prop_assert!(
            binary::decode_request(full.get(..k).unwrap_or_default()).is_err(),
            "prefix of {}/{} bytes decoded", k, full.len()
        );
        let mut padded = full;
        padded.push(0);
        prop_assert!(binary::decode_request(&padded).is_err(), "trailing byte accepted");
    }

    /// A `create` still carries the byte that once chose sparse mode,
    /// at the same position (after the name and `alpha`), and the
    /// encoder writes 0. Every other value decodes to a typed
    /// `bad_frame` that names the removal, never a panic or a session.
    #[test]
    fn retired_mode_bytes_are_bad_frame(
        id in arb_id(),
        session in arb_name(),
        spec in arb_spec(),
    ) {
        let create = binary::encode_request(&Request::Session(SessionRequest {
            id,
            session: session.clone(),
            op: SessionOp::Create(spec),
        }));
        // A `load` is the same header and name with an empty body.
        let load = binary::encode_request(&Request::Session(SessionRequest {
            id,
            session,
            op: SessionOp::Load,
        }));
        let at = load.len() + 8;
        prop_assert_eq!(create[at], 0);
        for mode in 1..=u8::MAX {
            let mut bent = create.clone();
            bent[at] = mode;
            let e = binary::decode_request(&bent).expect_err("a retired mode byte decoded");
            prop_assert_eq!(e.id, id);
            prop_assert_eq!(e.error.code, ErrorCode::BadFrame);
            prop_assert!(e.error.message.contains("sparse mode was removed"), "{}", e.error);
        }
    }

    /// Same for response frames.
    #[test]
    fn truncated_and_padded_binary_responses_are_rejected(
        id in arb_id(),
        body in arb_body(),
        cut in 0usize..1 << 16,
    ) {
        let full = binary::encode_response(&Response::ok(id, body));
        let k = cut % full.len();
        prop_assert!(
            binary::decode_response(full.get(..k).unwrap_or_default()).is_err(),
            "prefix of {}/{} bytes decoded", k, full.len()
        );
        let mut padded = full;
        padded.push(0);
        prop_assert!(binary::decode_response(&padded).is_err(), "trailing byte accepted");
    }
}

/// The frame envelope itself rejects oversized declarations and
/// truncated payloads (both the incremental and the blocking reader).
#[test]
fn frame_layer_rejects_oversized_and_truncated_frames() {
    // Oversized length prefix: the incremental buffer refuses it
    // without waiting for (or allocating) the body.
    let mut fb = frame::FrameBuffer::new();
    let huge = u32::try_from(frame::MAX_FRAME_BYTES + 1).unwrap();
    fb.extend(&huge.to_be_bytes());
    assert!(fb.next_frame().is_err(), "oversized frame accepted");

    // Truncated payload: a blocking reader hitting EOF mid-frame is an
    // error, not a clean end-of-stream.
    let mut buf = Vec::new();
    frame::append_frame_bytes(&mut buf, b"hello frame").unwrap();
    buf.truncate(buf.len() - 2);
    let mut cursor = std::io::Cursor::new(buf);
    assert!(
        frame::read_frame_bytes(&mut cursor).is_err(),
        "mid-frame EOF read as clean close"
    );
}
