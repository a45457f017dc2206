//! Minimal JSON support for the selfish-peers workspace.
//!
//! The offline build cannot pull in `serde`/`serde_json`, and the
//! workspace only needs a small, dependency-free subset: a [`Value`]
//! tree, a strict parser, a pretty printer, and the [`json!`]
//! construction macro. Object key order is preserved (insertion order),
//! so serialise → parse round trips compare equal.
//!
//! # Example
//!
//! ```
//! use sp_json::{json, Value};
//!
//! let v = json!({ "alpha": 2.0, "links": [[0, 1], [1, 0]] });
//! let text = v.to_string_pretty();
//! let back: Value = text.parse().unwrap();
//! assert_eq!(v, back);
//! assert_eq!(back["alpha"].as_f64(), Some(2.0));
//! assert_eq!(back["links"].as_array().unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Index;
use std::str::FromStr;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like `serde_json`'s default).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// The numeric payload, if this is a [`Value::Number`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`, when it is a non-negative
    /// integer.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::String`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Value::Array`].
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Object`].
    #[must_use]
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Returns `true` for [`Value::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks up a key in an object (`None` for other variants or missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty two-space-indented rendering (newline-terminated objects,
    /// matching what the CLI prints).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(x) => out.push_str(&format_number(*x)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, item)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Renders a number the way `serde_json` would: integers without a
/// trailing `.0`, non-finite values (not valid JSON) as `null`.
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_owned();
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let mut s = format!("{x}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// `value["key"]` sugar; returns [`Value::Null`] for missing keys or
/// non-objects (mirroring `serde_json`).
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        // A static null keeps indexing infallible like serde_json.
        static STATIC_NULL: Value = Value::Null;
        self.get(key).unwrap_or(&STATIC_NULL)
    }
}

/// `value[i]` sugar for arrays.
impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static STATIC_NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&STATIC_NULL),
            _ => &STATIC_NULL,
        }
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        self.as_f64() == Some(f64::from(*other))
    }
}

impl PartialEq<usize> for Value {
    fn eq(&self, other: &usize) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Number(x as f64)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Number(x as f64)
    }
}

impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::Number(f64::from(x))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            None => Value::Null,
            Some(v) => v.into(),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => self.err(format!("unexpected character '{}'", other as char)),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            self.err(format!("expected '{kw}'"))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match f64::from_str(text) {
            Ok(x) if x.is_finite() => Ok(Value::Number(x)),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonError {
                                    message: "bad \\u escape".into(),
                                    offset: self.pos,
                                })?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return self.err("bad \\u escape");
                            }
                            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                message: "bad \\u escape".into(),
                                offset: self.pos,
                            })?;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them explicitly.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("unsupported surrogate escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            message: "invalid UTF-8".into(),
                            offset: self.pos,
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document (strict: exactly one value, no trailing
/// garbage).
///
/// # Errors
///
/// Returns a [`JsonError`] with the failing byte offset.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after JSON value");
    }
    Ok(v)
}

impl FromStr for Value {
    type Err = JsonError;
    fn from_str(s: &str) -> Result<Self, JsonError> {
        parse(s)
    }
}

/// Length-prefixed JSON framing for stream transports.
///
/// A frame is a 4-byte big-endian payload length followed by that many
/// bytes of UTF-8 JSON — the `sp-serve` wire protocol's envelope. The
/// length prefix lets both sides recover message boundaries from a TCP
/// byte stream without sniffing for delimiters inside JSON strings.
pub mod frame {
    use super::Value;
    use std::io::{self, Read, Write};

    /// Upper bound on a single frame's payload (16 MiB). A peer
    /// announcing more is treated as a protocol error rather than an
    /// allocation request.
    pub const MAX_FRAME_BYTES: usize = 16 << 20;

    /// Writes one frame: big-endian `u32` length, then the compact JSON
    /// rendering of `value`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; fails with
    /// [`io::ErrorKind::InvalidData`] if the rendering exceeds
    /// [`MAX_FRAME_BYTES`].
    pub fn write_frame<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
        let payload = value.to_string_compact();
        write_frame_bytes(w, payload.as_bytes())
    }

    /// Writes one frame with an arbitrary (not necessarily JSON)
    /// payload: big-endian `u32` length, then the payload bytes. The
    /// binary wire protocol shares this envelope with JSON frames.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; fails with
    /// [`io::ErrorKind::InvalidData`] if the payload exceeds
    /// [`MAX_FRAME_BYTES`].
    pub fn write_frame_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME_BYTES", bytes.len()),
            ));
        }
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds u32"))?;
        w.write_all(&len.to_be_bytes())?;
        w.write_all(bytes)?;
        w.flush()
    }

    /// Prepends the length prefix of `bytes` onto `out` followed by the
    /// payload itself — the buffered-writer flavour of
    /// [`write_frame_bytes`] for callers that batch many frames into
    /// one `write` syscall (the reactor's pipelined responses).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if the payload exceeds
    /// [`MAX_FRAME_BYTES`]; never touches a transport.
    pub fn append_frame_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME_BYTES", bytes.len()),
            ));
        }
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds u32"))?;
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(bytes);
        Ok(())
    }

    /// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the
    /// peer closed between frames); a stream ending mid-frame, an
    /// oversized length prefix, or an invalid JSON payload is an
    /// [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`]
    /// error.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Value>> {
        let Some(payload) = read_frame_bytes(r)? else {
            return Ok(None);
        };
        parse_frame_payload(&payload).map(Some)
    }

    /// Reads one frame's raw payload bytes without interpreting them.
    /// Returns `Ok(None)` on a clean end-of-stream; a stream ending
    /// mid-frame or an oversized length prefix is an error, as in
    /// [`read_frame`].
    ///
    /// # Errors
    ///
    /// See above.
    pub fn read_frame_bytes<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
        let mut len_buf = [0u8; 4];
        // Distinguish "no more frames" from "truncated frame" by hand:
        // EOF on the first byte of the prefix is a clean close.
        let mut filled = 0usize;
        while filled < len_buf.len() {
            // sp-lint: allow(panic-path, reason = "loop invariant: filled < len_buf.len(), so the range slice is in bounds")
            let k = r.read(&mut len_buf[filled..])?;
            if k == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ));
            }
            filled += k;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("announced frame of {len} bytes exceeds MAX_FRAME_BYTES"),
            ));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok(Some(payload))
    }

    /// Parses a frame payload (from [`read_frame_bytes`] or a
    /// [`FrameBuffer`]) as the JSON value [`write_frame`] produces.
    ///
    /// # Errors
    ///
    /// Non-UTF-8 or non-JSON payloads are [`io::ErrorKind::InvalidData`].
    pub fn parse_frame_payload(payload: &[u8]) -> io::Result<Value> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        super::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// An incremental frame splitter for nonblocking transports.
    ///
    /// Blocking readers can sit in [`read_frame`] until a whole frame
    /// arrives; a reactor cannot. It feeds whatever bytes the socket
    /// had ([`FrameBuffer::extend`]) and pulls zero or more complete
    /// frames out ([`FrameBuffer::next_frame`]), with partial frames
    /// accumulating inside the buffer until their remainder shows up.
    #[derive(Debug, Default)]
    pub struct FrameBuffer {
        buf: Vec<u8>,
        /// Consumed prefix of `buf`; compacted opportunistically so the
        /// buffer doesn't grow without bound on a long-lived connection.
        pos: usize,
    }

    impl FrameBuffer {
        /// An empty buffer.
        #[must_use]
        pub fn new() -> FrameBuffer {
            FrameBuffer::default()
        }

        /// Appends bytes received from the transport.
        pub fn extend(&mut self, bytes: &[u8]) {
            // Compact before growing: everything before `pos` is dead.
            if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            self.buf.extend_from_slice(bytes);
        }

        /// Bytes buffered but not yet returned as frames.
        #[must_use]
        pub fn pending_bytes(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Extracts the next complete frame payload, if one is fully
        /// buffered. `Ok(None)` means "need more bytes".
        ///
        /// # Errors
        ///
        /// A length prefix exceeding [`MAX_FRAME_BYTES`] poisons the
        /// stream (there is no way to resynchronise) and is reported as
        /// a message; the caller should drop the connection.
        pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
            let pending = self.buf.get(self.pos..).unwrap_or(&[]);
            let Some(prefix) = pending.get(..4) else {
                return Ok(None);
            };
            let mut len_buf = [0u8; 4];
            len_buf.copy_from_slice(prefix);
            let len = u32::from_be_bytes(len_buf) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(format!(
                    "announced frame of {len} bytes exceeds MAX_FRAME_BYTES"
                ));
            }
            let Some(payload) = pending.get(4..4 + len) else {
                return Ok(None);
            };
            let frame = payload.to_vec();
            self.pos += 4 + len;
            Ok(Some(frame))
        }
    }
}

/// Builds a [`Value`] from JSON-looking syntax.
///
/// Object values and array items are ordinary expressions converted via
/// `Into<Value>`; nest objects with further `json!({ … })` calls and
/// write JSON `null` as `json!(null)` or [`Value::Null`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::Value::from($item)),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::Value::from($value)) ),*
        ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure() {
        let v = json!({
            "alpha": 2.5,
            "n": 4usize,
            "name": "line \"metric\"",
            "flags": json!([true, false, Value::Null]),
            "nested": json!({ "xs": json!([1.0, 2.0]), "empty": Value::Array(vec![]) }),
        });
        for text in [v.to_string_pretty(), v.to_string_compact()] {
            let back: Value = text.parse().unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn numbers_render_like_serde_json() {
        assert_eq!(json!(3.0).to_string_compact(), "3");
        assert_eq!(json!(3.5).to_string_compact(), "3.5");
        assert_eq!(json!(0.1).to_string_compact(), "0.1");
        assert_eq!(Value::Number(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn indexing_and_accessors() {
        let v: Value = r#"{"a": [1, 2.5], "b": {"c": true}, "s": "x"}"#.parse().unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][0].as_usize(), Some(1));
        assert_eq!(v["b"]["c"], true);
        assert_eq!(v["s"], "x");
        assert!(v["missing"].is_null());
        assert!(v["b"].is_object());
        assert_eq!(v["a"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
        // from_str_radix would accept a sign prefix; strict JSON must not.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u0041""#).is_ok());
        let err = parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = json!({ "k": "line1\nline2\ttab \\ \"q\"" });
        let back: Value = v.to_string_compact().parse().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn finite_f64_roundtrips_bit_exactly() {
        for x in [
            0.0,
            1.0,
            -3.5,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
        ] {
            // Through the full text pipeline, not just the Value tree.
            let back: Value = Value::Number(x).to_string_compact().parse().unwrap();
            let y = back.as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn frames_roundtrip_and_detect_errors() {
        let a = json!({ "op": "ping", "x": 1.5 });
        let b = json!([1, 2, 3]);
        let mut buf: Vec<u8> = Vec::new();
        frame::write_frame(&mut buf, &a).unwrap();
        frame::write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        assert_eq!(frame::read_frame(&mut r).unwrap(), Some(a));
        assert_eq!(frame::read_frame(&mut r).unwrap(), Some(b));
        assert_eq!(frame::read_frame(&mut r).unwrap(), None, "clean EOF");

        // Truncated mid-prefix and mid-payload are errors, not EOF.
        let mut short = &buf[..2];
        assert!(frame::read_frame(&mut short).is_err());
        let mut cut = &buf[..6];
        assert!(frame::read_frame(&mut cut).is_err());

        // An absurd length prefix is rejected before any allocation.
        let huge = [(frame::MAX_FRAME_BYTES as u32 + 1).to_be_bytes(), [0; 4]].concat();
        let mut r = &huge[..];
        assert!(frame::read_frame(&mut r).is_err());

        // A frame holding invalid JSON is rejected.
        let mut bad: Vec<u8> = Vec::new();
        bad.extend_from_slice(&3u32.to_be_bytes());
        bad.extend_from_slice(b"{x}");
        let mut r = &bad[..];
        assert!(frame::read_frame(&mut r).is_err());
    }

    #[test]
    fn frame_buffer_splits_byte_dribbles() {
        // Two frames, delivered one byte at a time, come out whole and
        // in order — the reactor's read path in miniature.
        let a = json!({ "op": "ping" });
        let b = json!({ "op": "stats", "id": 2 });
        let mut wire: Vec<u8> = Vec::new();
        frame::write_frame(&mut wire, &a).unwrap();
        frame::append_frame_bytes(&mut wire, b.to_string_compact().as_bytes()).unwrap();

        let mut fb = frame::FrameBuffer::new();
        let mut out = Vec::new();
        for byte in wire {
            fb.extend(&[byte]);
            while let Some(payload) = fb.next_frame().unwrap() {
                out.push(frame::parse_frame_payload(&payload).unwrap());
            }
        }
        assert_eq!(out, vec![a, b]);
        assert_eq!(fb.pending_bytes(), 0);

        // One delivery holding many frames also splits fully.
        let mut wire: Vec<u8> = Vec::new();
        for i in 0..5usize {
            frame::append_frame_bytes(&mut wire, format!("{i}").as_bytes()).unwrap();
        }
        fb.extend(&wire);
        let mut n = 0;
        while let Some(p) = fb.next_frame().unwrap() {
            assert_eq!(p, format!("{n}").as_bytes());
            n += 1;
        }
        assert_eq!(n, 5);

        // An oversized prefix poisons the stream.
        let mut poisoned = frame::FrameBuffer::new();
        poisoned.extend(&(frame::MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(poisoned.next_frame().is_err());
    }

    #[test]
    fn raw_frame_bytes_round_trip() {
        let mut wire: Vec<u8> = Vec::new();
        frame::write_frame_bytes(&mut wire, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        frame::write_frame_bytes(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(
            frame::read_frame_bytes(&mut r).unwrap(),
            Some(vec![0xDE, 0xAD, 0xBE, 0xEF])
        );
        assert_eq!(frame::read_frame_bytes(&mut r).unwrap(), Some(vec![]));
        assert_eq!(frame::read_frame_bytes(&mut r).unwrap(), None);
    }

    #[test]
    fn option_interpolation() {
        let some: Option<f64> = Some(1.5);
        let none: Option<f64> = None;
        assert_eq!(json!(some), Value::Number(1.5));
        assert_eq!(json!(none), Value::Null);
    }
}
