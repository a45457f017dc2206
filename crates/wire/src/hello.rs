//! The handshake frame: the one JSON payload the protocol still speaks.
//!
//! Every connection opens with the compact JSON object
//! `{"op":"hello","proto":2}` (an optional non-negative integer `"id"`
//! is echoed back) and the server answers in JSON:
//!
//! ```json
//! {"id":7,"ok":true,"result":{"proto":2}}
//! {"id":7,"ok":false,"error":"…","code":"bad_proto"}
//! ```
//!
//! An accepted hello switches the connection to the binary codec
//! ([`crate::binary`]) for every later frame. Any other first frame —
//! a protocol-1 request, another version, bytes that are not JSON —
//! gets the error envelope (`bad_proto`, or `bad_frame` for
//! unparseable bytes) and the connection closes.

use sp_json::{frame, json, Value};

use crate::{DecodeError, ErrorCode, WireError, PROTO_BINARY};

/// The hello a client sends to open a connection (no id).
pub const REQUEST: &[u8] = br#"{"op":"hello","proto":2}"#;

/// Decodes a connection's first frame, returning the id to echo when it
/// is a valid hello for [`PROTO_BINARY`].
///
/// # Errors
///
/// Unparseable bytes are [`ErrorCode::BadFrame`]; any JSON value other
/// than a protocol-2 hello is [`ErrorCode::BadProto`], carrying the
/// frame's id when it has one.
pub fn decode_request(payload: &[u8]) -> Result<Option<u64>, DecodeError> {
    let v = frame::parse_frame_payload(payload).map_err(|e| DecodeError {
        id: None,
        error: WireError::new(ErrorCode::BadFrame, format!("malformed JSON frame: {e}")),
    })?;
    let id = v.get("id").and_then(Value::as_usize).map(|x| x as u64);
    let fail = |message: String| {
        Err(DecodeError {
            id,
            error: WireError::new(ErrorCode::BadProto, message),
        })
    };
    if v.get("op").and_then(Value::as_str) != Some("hello") {
        return fail(format!(
            "the first frame must be {{\"op\":\"hello\",\"proto\":{PROTO_BINARY}}}; \
             protocol 1 requests are not served"
        ));
    }
    match v.get("proto").and_then(Value::as_usize) {
        None => fail("hello needs an integer 'proto' field".to_owned()),
        Some(proto) if proto == usize::from(PROTO_BINARY) => Ok(id),
        Some(proto) => fail(format!("unsupported protocol version {proto}")),
    }
}

fn envelope(id: Option<u64>, mut fields: Vec<(String, Value)>) -> Vec<u8> {
    if let Some(id) = id {
        fields.insert(0, ("id".to_owned(), Value::Number(id as f64)));
    }
    Value::Object(fields).to_string_compact().into_bytes()
}

/// The verdict accepting a hello: `{"id"?,"ok":true,"result":{"proto":2}}`.
#[must_use]
pub fn accept(id: Option<u64>) -> Vec<u8> {
    envelope(
        id,
        vec![
            ("ok".to_owned(), Value::Bool(true)),
            (
                "result".to_owned(),
                json!({ "proto": usize::from(PROTO_BINARY) }),
            ),
        ],
    )
}

/// The error envelope answering a rejected first frame:
/// `{"id"?,"ok":false,"error":…,"code":…}`.
#[must_use]
pub fn reject(id: Option<u64>, error: &WireError) -> Vec<u8> {
    envelope(
        id,
        vec![
            ("ok".to_owned(), Value::Bool(false)),
            ("error".to_owned(), Value::from(error.message.as_str())),
            ("code".to_owned(), Value::from(error.code.as_str())),
        ],
    )
}

/// Checks the server's answer to [`REQUEST`].
///
/// # Errors
///
/// Anything but an accepting verdict is a [`ErrorCode::BadProto`] error
/// quoting the payload.
pub fn check_verdict(payload: &[u8]) -> Result<(), WireError> {
    let accepted = frame::parse_frame_payload(payload).is_ok_and(|v| {
        v.get("ok") == Some(&Value::Bool(true))
            && v.get("result")
                .and_then(|r| r.get("proto"))
                .and_then(Value::as_usize)
                == Some(usize::from(PROTO_BINARY))
    });
    if accepted {
        Ok(())
    } else {
        Err(WireError::new(
            ErrorCode::BadProto,
            format!(
                "server refused protocol {PROTO_BINARY}: {}",
                String::from_utf8_lossy(payload)
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_request_and_verdict_check() {
        assert_eq!(decode_request(REQUEST), Ok(None));
        assert!(check_verdict(&accept(Some(7))).is_ok());
        let e = WireError::new(ErrorCode::BadProto, "no");
        assert_eq!(
            check_verdict(&reject(None, &e)).unwrap_err().code,
            ErrorCode::BadProto
        );
        assert!(check_verdict(b"garbage").is_err());
    }

    #[test]
    fn only_a_protocol_2_hello_is_accepted() {
        assert_eq!(
            decode_request(br#"{"id":7,"op":"hello","proto":2}"#),
            Ok(Some(7))
        );
        for (payload, code, id) in [
            (
                &br#"{"op":"ping","id":1}"#[..],
                ErrorCode::BadProto,
                Some(1),
            ),
            (br#"{"op":"hello","proto":1}"#, ErrorCode::BadProto, None),
            (
                br#"{"op":"hello","proto":9,"id":3}"#,
                ErrorCode::BadProto,
                Some(3),
            ),
            (br#"{"op":"hello","proto":"2"}"#, ErrorCode::BadProto, None),
            (br#"{"op":"hello"}"#, ErrorCode::BadProto, None),
            (b"[2]", ErrorCode::BadProto, None),
            (b"not json at all", ErrorCode::BadFrame, None),
            (b"\xff\x00", ErrorCode::BadFrame, None),
        ] {
            let e = decode_request(payload).unwrap_err();
            assert_eq!((e.error.code, e.id), (code, id), "{payload:?}");
        }
    }
}
