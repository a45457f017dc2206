//! The server's view of the wire protocol: the typed types re-exported
//! from [`sp_wire`] and the per-connection handshake state machine.
//!
//! Frames are length-prefixed payloads ([`sp_json::frame`]). The first
//! frame of a connection must be the JSON hello
//! `{"op":"hello","proto":2}` ([`hello`]); the server answers in JSON
//! and every later frame, both ways, is the binary codec
//! ([`binary`]). Any other first frame gets a typed JSON reject and
//! the connection closes.
//!
//! [`ConnProtocol`] encodes those rules once for the reactor: feed it
//! each decoded payload, get back a [`FrameAction`] saying whether to
//! route a typed request, write an inline reply, or write a typed
//! reject and close.

pub use sp_wire::{
    binary, hello, validate_name, BestResponseBody, DecodeError, DynamicsBody, DynamicsRule,
    DynamicsSpec, ErrorCode, GameSpec, Geometry, MetricHistogramBody, MetricsBody, OpCode, Request,
    Response, ResultBody, ServiceStats, SessionOp, SessionRequest, SocialCostBody, TraceSpanBody,
    WireError, MAX_NAME_LEN, PROTO_BINARY, TRACE_PHASES, TRACE_TAIL_DEFAULT_LIMIT,
};

/// What the connection handler should do with one incoming frame.
#[derive(Debug)]
pub enum FrameAction {
    /// A routable request: dispatch it and write the encoded response.
    Request(Request),
    /// An inline reply (the hello verdict, non-fatal decode errors):
    /// write the payload in order and keep the connection open.
    Reply(Vec<u8>),
    /// A typed reject: write the payload in order, then close. Fatal
    /// failures — undecodable frames, failed negotiation — are answered
    /// before the close, never with a silent hangup.
    Reject(Vec<u8>),
}

/// Per-connection protocol state: whether the hello has been accepted.
#[derive(Debug, Default)]
pub struct ConnProtocol {
    negotiated: bool,
}

impl ConnProtocol {
    /// A fresh connection, waiting for its hello.
    #[must_use]
    pub fn new() -> ConnProtocol {
        ConnProtocol::default()
    }

    /// Encodes an error response in the connection's current state:
    /// the JSON envelope before the hello, binary after.
    #[must_use]
    pub fn encode_error(&self, id: Option<u64>, error: WireError) -> Vec<u8> {
        if self.negotiated {
            binary::encode_response(&Response::err(id, error))
        } else {
            hello::reject(id, &error)
        }
    }

    /// Consumes one frame payload and decides what to do with it: the
    /// first frame must be a protocol-2 hello (anything else is a
    /// typed reject); after it, a binary request routes, a binary
    /// `hello` is a non-fatal error, and an undecodable frame is a
    /// typed reject.
    pub fn on_frame(&mut self, payload: &[u8]) -> FrameAction {
        if !self.negotiated {
            return match hello::decode_request(payload) {
                Ok(id) => {
                    self.negotiated = true;
                    FrameAction::Reply(hello::accept(id))
                }
                Err(DecodeError { id, error }) => FrameAction::Reject(self.encode_error(id, error)),
            };
        }
        match binary::decode_request(payload) {
            Ok(Request::Hello { id, .. }) => FrameAction::Reply(self.encode_error(
                id,
                WireError::new(
                    ErrorCode::BadProto,
                    "hello must be the first frame of a connection",
                ),
            )),
            Ok(request) => FrameAction::Request(request),
            Err(DecodeError { id, error }) => {
                let fatal = matches!(error.code, ErrorCode::BadFrame | ErrorCode::BadProto);
                let bytes = self.encode_error(id, error);
                if fatal {
                    FrameAction::Reject(bytes)
                } else {
                    FrameAction::Reply(bytes)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::prelude::*;

    use super::*;

    fn negotiated() -> ConnProtocol {
        let mut conn = ConnProtocol::new();
        assert!(matches!(
            conn.on_frame(hello::REQUEST),
            FrameAction::Reply(_)
        ));
        conn
    }

    fn rejected(conn: &mut ConnProtocol, payload: &[u8]) -> Vec<u8> {
        match conn.on_frame(payload) {
            FrameAction::Reject(bytes) => bytes,
            other => panic!("{payload:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn hello_verdict_bytes_are_pinned_and_switch_to_binary() {
        let mut conn = ConnProtocol::new();
        let FrameAction::Reply(bytes) = conn.on_frame(br#"{"op":"hello","proto":2}"#) else {
            panic!("hello must be answered inline");
        };
        assert_eq!(bytes, br#"{"ok":true,"result":{"proto":2}}"#);
        let ping = binary::encode_request(&Request::Ping { id: Some(9) });
        assert!(matches!(
            conn.on_frame(&ping),
            FrameAction::Request(Request::Ping { id: Some(9) })
        ));

        let mut conn = ConnProtocol::new();
        let FrameAction::Reply(bytes) = conn.on_frame(br#"{"op":"hello","proto":2,"id":7}"#) else {
            panic!("hello must be answered inline");
        };
        assert_eq!(bytes, br#"{"id":7,"ok":true,"result":{"proto":2}}"#);
    }

    #[test]
    fn protocol_1_first_frames_are_typed_json_rejects() {
        for (payload, reject) in [
            (
                &br#"{"op":"ping","id":1}"#[..],
                &br#"{"id":1,"ok":false,"error":"the first frame must be {\"op\":\"hello\",\"proto\":2}; protocol 1 requests are not served","code":"bad_proto"}"#[..],
            ),
            (
                br#"{"op":"hello","proto":1}"#,
                br#"{"ok":false,"error":"unsupported protocol version 1","code":"bad_proto"}"#,
            ),
            (
                br#"{"op":"hello","proto":9,"id":3}"#,
                br#"{"id":3,"ok":false,"error":"unsupported protocol version 9","code":"bad_proto"}"#,
            ),
        ] {
            assert_eq!(rejected(&mut ConnProtocol::new(), payload), reject);
        }
        let bytes = rejected(&mut ConnProtocol::new(), b"not json at all");
        assert!(bytes.ends_with(br#""code":"bad_frame"}"#), "{bytes:?}");
    }

    #[test]
    fn hostile_first_frames_never_panic_and_always_reject() {
        let valid = br#"{"id":7,"op":"hello","proto":2}"#;
        for cut in 0..valid.len() {
            rejected(&mut ConnProtocol::new(), &valid[..cut]);
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..400 {
            let len = rng.random_range(0usize..48);
            let payload: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
            rejected(&mut ConnProtocol::new(), &payload);
        }
    }

    #[test]
    fn midstream_hello_is_a_nonfatal_binary_error() {
        let mut conn = negotiated();
        let again = binary::encode_request(&Request::Hello {
            id: Some(2),
            proto: PROTO_BINARY,
        });
        let FrameAction::Reply(bytes) = conn.on_frame(&again) else {
            panic!("mid-stream hello must be a non-fatal error");
        };
        let resp = binary::decode_response(&bytes).expect("binary");
        assert_eq!(resp.id, Some(2));
        assert_eq!(resp.outcome.unwrap_err().code, ErrorCode::BadProto);
    }

    #[test]
    fn nonfatal_decode_errors_keep_the_connection() {
        let mut conn = negotiated();
        let mut w = binary::Writer::new();
        w.u8(OpCode::SocialCost as u8);
        w.u8(0);
        w.string("../escape");
        let FrameAction::Reply(bytes) = conn.on_frame(&w.into_vec()) else {
            panic!("a bad name is an error reply, not a hangup");
        };
        let resp = binary::decode_response(&bytes).expect("binary");
        assert_eq!(resp.outcome.unwrap_err().code, ErrorCode::BadName);
        let bytes = rejected(&mut conn, &[0xFF, 0]);
        let resp = binary::decode_response(&bytes).expect("binary");
        assert_eq!(resp.outcome.unwrap_err().code, ErrorCode::BadFrame);
    }
}
