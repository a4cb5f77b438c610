//! # dta-json — minimal JSON for result persistence
//!
//! The repository builds in hermetic environments with no registry
//! access, so the reproduction harness cannot rely on `serde`. This crate
//! provides the small slice of JSON the project needs: an ordered value
//! type ([`Json`]), a pretty printer, a strict parser, and a [`ToJson`]
//! conversion trait implemented by the stats/report types.
//!
//! Object key order is preserved (insertion order), which keeps emitted
//! reports diffable across runs.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Renders with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_str(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
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

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN; match serde_json's default
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        fmt::write(out, format_args!("{}", n as i64)).unwrap();
    } else {
        fmt::write(out, format_args!("{n}")).unwrap();
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => fmt::write(out, format_args!("\\u{:04x}", c as u32)).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(*self as f64) }
        }
    )*};
}
num_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}
impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}
impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

/// Encodes a `u64` so the full 64-bit range round-trips exactly.
///
/// [`Json::Num`] is an `f64`, which loses precision above 2^53 — fatal
/// for values that feed content hashes (fault seeds) or identifiers
/// (sequence stamps with high tag bits). Values that fit exactly render
/// as numbers; larger ones fall back to a decimal string. Decode with
/// [`u64_from_json`], which accepts both encodings.
pub fn u64_json(v: u64) -> Json {
    if v <= (1u64 << 53) {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

/// Decodes a `u64` written by [`u64_json`] (number or decimal string).
pub fn u64_from_json(v: &Json) -> Option<u64> {
    match v {
        Json::Num(_) => v.as_u64(),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// 128-bit FNV-1a over a byte string.
///
/// Used as the stable content hash behind `JobKey`: no external crates,
/// pure `u128` arithmetic, and collision-resistant enough for cache
/// addressing of canonical job encodings (the cache validates the key
/// stored inside each entry, so a collision degrades to a miss, never a
/// wrong result). Constants are the standard FNV-128 offset basis and
/// prime.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A parse failure: byte offset and description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    pairs.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // backslash; both are ASCII, so the run ends on a
                    // char boundary and validates as one slice.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(run);
                    self.pos += len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty_and_compact() {
        let v = Json::obj([
            ("name", Json::Str("mmul(32)".into())),
            ("cycles", Json::Num(123456.0)),
            ("ratio", Json::Num(0.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn strings_escape_controls() {
        let s = Json::Str("a\"b\\c\nd".into()).to_string_compact();
        assert_eq!(s, r#""a\"b\\c\nd""#);
        assert_eq!(parse(&s).unwrap(), Json::Str("a\"b\\c\nd".into()));
    }

    #[test]
    fn every_escape_kind_parses() {
        let v = parse(r#""\"\\\/\n\r\t\b\fé漢x""#).unwrap();
        assert_eq!(v, Json::Str("\"\\/\n\r\t\u{8}\u{c}é漢x".into()));
    }

    /// String parsing must be linear in the document size: a multi-MB,
    /// key-heavy document with multibyte text and every escape the
    /// writer emits round-trips byte-identically well inside the bound
    /// (a per-character re-validation of the rest of the document took
    /// minutes at this size).
    #[test]
    fn large_key_heavy_document_roundtrips_in_linear_time() {
        let records: Vec<Json> = (0..40_000u32)
            .map(|i| {
                Json::obj([
                    ("cycle", Json::Num(i as f64)),
                    (
                        "ev",
                        Json::obj([
                            ("kind", Json::Str(format!("dmä-漢-🦀-{i}"))),
                            (
                                "esc",
                                Json::Str("q\" b\\ n\n r\r t\t \u{1}\u{8}\u{c}".into()),
                            ),
                            ("unit", Json::Num((i % 97) as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let text = Json::Arr(records).to_string_compact();
        assert!(text.len() > 3 << 20, "document is {} bytes", text.len());
        let t0 = std::time::Instant::now();
        let parsed = parse(&text).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(parsed.to_string_compact(), text);
        assert!(elapsed.as_secs() < 30, "parse took {elapsed:?}");
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string_compact(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nested_structures_parse() {
        let t = r#"{"rows": [{"pes": 8, "ok": true}, {"pes": 4, "ok": false}]}"#;
        let v = parse(t).unwrap();
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("pes").and_then(Json::as_u64), Some(8));
    }

    #[test]
    fn u64_json_roundtrips_full_range() {
        for v in [0u64, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let j = u64_json(v);
            assert_eq!(u64_from_json(&j), Some(v), "value {v}");
            // Survives a render/parse cycle too.
            let parsed = parse(&j.to_string_compact()).unwrap();
            assert_eq!(u64_from_json(&parsed), Some(v), "value {v}");
        }
        assert!(matches!(u64_json(u64::MAX), Json::Str(_)));
        assert!(matches!(u64_json(7), Json::Num(_)));
    }

    #[test]
    fn fnv1a128_is_stable_and_input_sensitive() {
        let a = fnv1a128(b"dta");
        assert_eq!(a, fnv1a128(b"dta"));
        assert_ne!(a, fnv1a128(b"dtb"));
        assert_ne!(fnv1a128(b""), fnv1a128(b"\0"));
        // Pinned value: the hash is part of the on-disk cache format.
        assert_eq!(fnv1a128(b""), 0x6c62272e07bb014262b821756295c58d);
    }

    #[test]
    fn to_json_impls_cover_primitives() {
        assert_eq!(7u64.to_json(), Json::Num(7.0));
        assert_eq!(true.to_json(), Json::Bool(true));
        assert_eq!("x".to_json(), Json::Str("x".into()));
        assert_eq!(vec![1u32, 2].to_json().as_arr().unwrap().len(), 2);
        assert_eq!(Option::<u32>::None.to_json(), Json::Null);
    }
}
