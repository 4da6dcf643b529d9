//! A small, dependency-free JSON value with a deterministic writer and
//! a strict parser.
//!
//! No serde in this offline build, so the observability artifacts are
//! written and read through this module.  Two properties matter more
//! than generality:
//!
//! * **Determinism** — objects preserve insertion order (callers insert
//!   in sorted or schema order), floats print via Rust's shortest
//!   round-trip `Display`, and nothing samples the environment.  The
//!   same in-memory report always serializes to the same bytes.
//! * **Losslessness for `f64`** — the shortest-representation text of a
//!   finite `f64` parses back to the *same bits*, which is what lets
//!   the regression gate run modeled clocks under zero tolerance.
//!
//! Non-finite floats are not representable in JSON; the writer panics
//! on them (a report containing NaN is a bug upstream, not a
//! serialization concern).

use std::fmt::Write as _;

/// A JSON document.  Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if exactly one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation (the checked-in artifact
    /// format: diffable, stable).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                })
            }
        }
    }

    /// Parse a JSON document (strict: trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError { pos, what: "trailing characters after document" });
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, x: f64) {
    assert!(x.is_finite(), "non-finite number in JSON output: {x}");
    // Shortest round-trip representation; "1" not "1.0" is fine JSON.
    let _ = write!(out, "{x}");
}

/// Append `s` as a JSON string literal, quoted and escaped exactly as
/// the writer does — for callers that write a document's envelope
/// around members they rendered earlier.
pub fn write_str(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError { pos: *pos, what: "unexpected token" })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError { pos: *pos, what: "unexpected end of input" }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError { pos: *pos, what: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError { pos: *pos, what: "expected ':' after object key" });
                }
                *pos += 1;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(ParseError { pos: *pos, what: "expected ',' or '}'" }),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError { pos: *pos, what: "expected string" });
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError { pos: *pos, what: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError { pos: *pos, what: "bad \\u escape" })?;
                        // BMP only — the writer never emits surrogate pairs.
                        s.push(
                            char::from_u32(hex)
                                .ok_or(ParseError { pos: *pos, what: "bad \\u escape" })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError { pos: *pos, what: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next `"` or `\`:
                // both are ASCII, so the run ends on a whole UTF-8 scalar.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| ParseError { pos: *pos, what: "invalid UTF-8 in string" })?;
                s.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(ParseError { pos: start, what: "invalid number" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_structure() {
        let v = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str("x\n\"y".into())])),
            ("c", Json::Obj(vec![])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        // Shortest-representation Display must parse back to identical
        // bits — the property the zero-tolerance bench gates rely on.
        let mut x = 0.1f64;
        for _ in 0..1000 {
            x = (x * 1.618033988749895 + 1e-7).fract() * 1e3;
            let v = Json::Num(x);
            let back = Json::parse(&v.to_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn output_is_deterministic() {
        let v = Json::obj(vec![("k", Json::Num(1.5)), ("j", Json::Str("s".into()))]);
        assert_eq!(v.to_pretty(), v.to_pretty());
        assert_eq!(v.to_compact(), "{\"k\":1.5,\"j\":\"s\"}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        let v = Json::parse("\"héllo ∑\\n\\\"x→\\u00e9\"").unwrap();
        assert_eq!(v, Json::Str("héllo ∑\n\"x→é".into()));
        assert!(Json::parse("\"open ∑").is_err());
        let err = parse_string(&[b'"', 0xff, b'"'], &mut 0).unwrap_err();
        assert_eq!((err.pos, err.what), (1, "invalid UTF-8 in string"));
    }

    #[test]
    fn u64_extraction() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
