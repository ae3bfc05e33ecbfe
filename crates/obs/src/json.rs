//! A minimal hand-rolled JSON writer and parser.
//!
//! The workspace is offline (no serde), and everything we serialize —
//! trace lines, metrics snapshots, bench records — is flat and small,
//! so a few hundred lines of JSON plumbing beat a dependency. The
//! writer produces exactly the subset the parser accepts: objects,
//! arrays, strings, integers (i64/u64 range), floats, booleans and
//! null. The parser exists so the schema tests (and baseline readers)
//! can round-trip what the writer emits; it is not a general-purpose
//! validator, but it does reject trailing garbage, unterminated
//! strings, and malformed escapes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers keep their integer identity when they have one: the writer
/// emits counters as integers and the schema tests compare them
/// exactly, which `f64` round-tripping would jeopardize above 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (all our counters and timestamps).
    Int(i64),
    /// An integer in `i64::MAX + 1 ..= u64::MAX` (e.g. `usize::MAX`
    /// state budgets).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` so iteration (and re-serialization) is
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// This value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value as an object map if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes + escapes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An incremental writer for a single flat JSON object: call the typed
/// `field_*` methods, then [`ObjWriter::finish`]. Key order is the call
/// order; commas and escaping are handled here so call sites stay
/// readable.
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    /// Starts a new `{`-open object.
    pub fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Writes a string field.
    pub fn field_str(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key);
        escape_into(&mut self.buf, val);
        self
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, val: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{val}");
        self
    }

    /// Writes a float field (finite values only; non-finite values are
    /// written as `null`, which JSON requires).
    pub fn field_f64(&mut self, key: &str, val: f64) -> &mut Self {
        self.key(key);
        if val.is_finite() {
            let _ = write!(self.buf, "{val}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, key: &str, val: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if val { "true" } else { "false" });
        self
    }

    /// Writes a pre-serialized JSON value verbatim under `key`. The
    /// caller guarantees `raw` is valid JSON (it always comes from
    /// another writer in this module).
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes `(name, count)` pairs as a JSON object with integer
/// values — the shape shared by counter snapshots and bench metrics.
pub fn counts_to_json(counts: &[(String, u64)]) -> String {
    let mut w = ObjWriter::new();
    for (k, v) in counts {
        w.field_u64(k, *v);
    }
    w.finish()
}

/// How deeply arrays and objects may nest before [`parse`] gives up.
/// The parser recurses once per level, so without a cap a line of
/// `[[[[…` from a client would overflow the parsing thread's stack and
/// abort the process. Every document this workspace writes nests a few
/// levels deep.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing non-whitespace and
/// arrays or objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    Some(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn lit(&mut self, s: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => None,
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true").map(|_| Json::Bool(true)),
            b'f' => self.lit("false").map(|_| Json::Bool(false)),
            b'n' => self.lit("null").map(|_| Json::Null),
            _ => self.number(),
        }
    }

    /// Parses one array or object a level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Json>) -> Option<Json> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Option<Json> {
        self.bump(); // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Some(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bump()? != b':' {
                return None;
            }
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(Json::Obj(map)),
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.bump(); // '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Some(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(Json::Arr(out)),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bump()? != b'"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = self.bytes.get(self.pos..self.pos + 4)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // reject rather than mis-decode.
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                // Multi-byte UTF-8: copy raw continuation bytes through.
                b => {
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return None,
                    };
                    let slice = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(slice).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if text.is_empty() || text == "-" {
            return None;
        }
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Some(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Some(Json::UInt(u));
            }
        }
        text.parse::<f64>().ok().map(Json::Float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut w = ObjWriter::new();
        w.field_str("name", "mp+dmb+ctrl-isb \"quoted\"\n")
            .field_u64("states", 123)
            .field_u64("huge", u64::MAX)
            .field_f64("ratio", 0.5)
            .field_bool("ok", true)
            .field_raw(
                "inner",
                &counts_to_json(&[("a".into(), 1), ("b".into(), 2)]),
            );
        let text = w.finish();
        let v = parse(&text).expect("round-trip parse");
        assert_eq!(v.get("states").and_then(Json::as_u64), Some(123));
        assert_eq!(v.get("huge").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("mp+dmb+ctrl-isb \"quoted\"\n")
        );
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("b"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "12 34", "{}x"] {
            assert!(parse(bad).is_none(), "accepted: {bad}");
        }
    }

    #[test]
    fn parses_nested_arrays_and_null() {
        let v = parse("[{\"a\": [1, 2.5, null, false]}]").unwrap();
        let arr = v.as_arr().unwrap();
        let inner = arr[0].get("a").unwrap().as_arr().unwrap();
        assert_eq!(inner[0], Json::Int(1));
        assert_eq!(inner[1], Json::Float(2.5));
        assert_eq!(inner[2], Json::Null);
        assert_eq!(inner[3], Json::Bool(false));
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_some());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_none());
        let obj = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj).is_none());
        // A million levels on a default-size thread stack: without the
        // cap this overflows the stack and aborts the whole process.
        let deep = "[".repeat(1_000_000);
        let parsed = std::thread::spawn(move || parse(&deep).is_some())
            .join()
            .expect("the parsing thread must not die");
        assert!(!parsed);
    }

    #[test]
    fn unicode_passthrough() {
        let mut w = ObjWriter::new();
        w.field_str("s", "RM ⊆ SC — naïve");
        let text = w.finish();
        assert_eq!(
            parse(&text).unwrap().get("s").and_then(Json::as_str),
            Some("RM ⊆ SC — naïve")
        );
    }
}
