//! Minimal JSON value, writer and parser (the build environment has no
//! registry access, so `serde` is not an option).
//!
//! Two properties matter for the campaign engine and are guaranteed
//! here:
//!
//! 1. **Stable serialization** — objects keep insertion order, numbers
//!    print via Rust's shortest-roundtrip `Display`, so serializing the
//!    same value twice yields identical bytes.
//! 2. **Exact roundtrip** — `parse(serialize(v)) == v` for every value
//!    the engine emits (unsigned integers stay `u64`, floats stay
//!    bit-exact thanks to shortest-roundtrip printing, non-finite
//!    floats are written as `null` and read back as NaN).
//!
//! Together these make a cached cell record re-serialize to exactly the
//! bytes a fresh run would produce, which is what lets warm-cache and
//! cold-cache campaigns emit byte-identical merged artifacts.
//!
//! Both directions are **linear in the document length**: the parser
//! copies each run of plain string bytes as one slice (validating only
//! that slice as UTF-8), and the writer formats numbers and escapes
//! straight into its output buffer. A warm cache hit parses one entry
//! and encodes one reply, so this bounds its cost by the entry's size.
//! Nesting deeper than [`MAX_DEPTH`] is refused, so no input can
//! exhaust the parsing thread's stack.

use std::fmt::{self, Write as _};

/// A JSON value. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integer (the common case for simulator counters; kept
    /// apart from `Num` so u64 counters roundtrip without f64 loss).
    UInt(u64),
    /// Signed integer that did not fit the unsigned arm.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A float value; non-finite floats serialize as `null`.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as f64 (integers widen; `null` reads as NaN, matching
    /// the writer's encoding of non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization (stable: see module docs).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_compact(v: &Json, out: &mut String) {
    // `fmt::Write` for `String` never fails.
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Num(n) => {
            if n.is_finite() {
                // Shortest-roundtrip Display; force a fractional part so
                // the value parses back into the `Num` arm, not `UInt`.
                let start = out.len();
                let _ = write!(out, "{n}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string. Every byte that needs an escape is
/// ASCII, so the runs between them are copied as whole `&str` slices.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { b: text.as_bytes(), i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// The deepest array/object nesting [`parse`] accepts. The engine's own
/// documents nest a few levels; the bound keeps a hostile request line
/// from recursing the parsing thread off its stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The bytes of the `&str` input.
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { at: self.i, msg: msg.to_string() }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.b.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err("nesting deeper than MAX_DEPTH"))
            }
            Some(b'[') => {
                self.i += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                self.depth += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let value = self.value()?;
                    fields.push((key, value));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for the
                            // engine's own artifacts; reject them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            out.push(c);
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` as one
                    // slice: both are ASCII, so on a `&str` input the run
                    // starts and ends on char boundaries.
                    let start = self.i;
                    while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| ParseError { at: start, msg: "bad utf-8".into() })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let mut fractional = false;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| self.err("bad number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected a value"));
        }
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { at: start, msg: format!("bad number `{text}`") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_string_compact();
        let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, v, "{text}");
        assert_eq!(back.to_string_compact(), text, "second serialization differs");
    }

    #[test]
    fn roundtrips_scalars_and_containers() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::UInt(u64::MAX));
        roundtrip(&Json::Int(-42));
        roundtrip(&Json::Num(0.1 + 0.2));
        roundtrip(&Json::Num(1.5e300));
        roundtrip(&Json::Str("quo\"te \\ line\nüñî".into()));
        roundtrip(&Json::Arr(vec![Json::UInt(1), Json::Null, Json::Str("x".into())]));
        roundtrip(&Json::obj(vec![
            ("b", Json::UInt(2)),
            ("a", Json::Arr(vec![Json::Num(2.5)])),
        ]));
    }

    #[test]
    fn whole_floats_stay_floats_across_roundtrip() {
        // 3.0 must not come back as UInt(3): the record schema relies
        // on floats staying floats for byte-stable re-serialization.
        roundtrip(&Json::Num(3.0));
        assert_eq!(Json::Num(3.0).to_string_compact(), "3.0");
    }

    #[test]
    fn non_finite_floats_write_null_and_read_nan() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        let v = parse("null").unwrap();
        assert!(v.as_f64().unwrap().is_nan());
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string_compact(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("z"), Some(&Json::UInt(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "tru", "1 2", "{\"a\" 1}", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("\"s\"").unwrap().as_str(), Some("s"));
        assert_eq!(parse("[1]").unwrap().as_arr().map(<[Json]>::len), Some(1));
    }
}
