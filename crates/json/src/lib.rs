//! # dta-json — minimal JSON for result persistence
//!
//! The repository builds in hermetic environments with no registry
//! access, so the reproduction harness cannot rely on `serde`. This crate
//! provides the small slice of JSON the project needs: a [`Writer`] that
//! appends JSON text, a strict pull [`Reader`] over JSON bytes, an
//! ordered value type ([`Json`]) whose renderers and [`parse`] are thin
//! wrappers over those two, and a [`ToJson`] conversion trait
//! implemented by the stats/report types. Large documents (cached
//! results, Perfetto traces) drive the writer and reader directly and
//! never build a tree.
//!
//! Object key order is preserved (insertion order), which keeps emitted
//! reports diffable across runs.

use std::borrow::Cow;
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
        let mut w = Writer::new();
        w.value(self);
        w.finish()
    }

    /// Renders with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut w = Writer::pretty(2);
        w.value(self);
        w.finish()
    }
}

/// Appends JSON text to a `String` without building a [`Json`] tree.
///
/// The caller drives the document's shape (`begin_*`/`end_*`, [`key`]
/// before each object value); the writer places separators and, when
/// pretty, newlines and indentation. Every renderer in the crate goes
/// through it, so there is one number formatter and one string escaper.
///
/// [`key`]: Writer::key
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Indent width per level; `None` renders compactly.
    indent: Option<usize>,
    /// Open arrays and objects.
    depth: usize,
    /// The open container already holds an item, so the next needs a
    /// comma (and, when pretty, tells `end_*` to break the line).
    comma: bool,
    /// A key was just written; its value follows with no separator.
    after_key: bool,
}

impl Writer {
    /// A compact writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer indenting `width` spaces per level.
    pub fn pretty(width: usize) -> Self {
        Writer {
            indent: Some(width),
            ..Writer::default()
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Emits whatever must precede the next item.
    #[inline]
    fn sep(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.comma {
            self.out.push(',');
        }
        if self.depth > 0 {
            self.break_line();
        }
    }

    /// When pretty, starts a new line indented to the current depth.
    #[inline]
    fn break_line(&mut self) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', w * self.depth));
        }
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.depth += 1;
        self.comma = false;
    }

    #[inline]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.comma {
            self.break_line();
        }
        self.out.push(bracket);
        self.comma = true;
    }

    /// Opens an array.
    #[inline]
    pub fn begin_arr(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_arr(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    #[inline]
    pub fn begin_obj(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// Writes an object key; the next value written is its value.
    #[inline]
    pub fn key(&mut self, k: &str) {
        self.sep();
        push_str_escaped(&mut self.out, k);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
        self.comma = true;
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self.comma = true;
    }

    /// Writes an integer exactly (the caller keeps it within 2^53 when
    /// the reader may hold it as an `f64`; see [`Writer::u64_json`]).
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.sep();
        push_u64(&mut self.out, v);
        self.comma = true;
    }

    /// Writes a signed integer exactly.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.sep();
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
        self.comma = true;
    }

    /// Writes a number: integral values below 2^53 as integers, other
    /// finite values in Rust's shortest round-trip form, and `null` for
    /// infinities and NaN (JSON has neither; serde_json does the same).
    pub fn f64(&mut self, n: f64) {
        if !n.is_finite() {
            self.null();
        } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
            self.i64(n as i64);
        } else {
            self.sep();
            fmt::write(&mut self.out, format_args!("{n}")).expect("String writes cannot fail");
            self.comma = true;
        }
    }

    /// Writes a `u64` in the [`u64_json`] encoding: a number up to 2^53,
    /// a decimal string above.
    #[inline]
    pub fn u64_json(&mut self, v: u64) {
        if v <= MAX_EXACT {
            self.u64(v);
        } else {
            self.sep();
            self.out.push('"');
            push_u64(&mut self.out, v);
            self.out.push('"');
            self.comma = true;
        }
    }

    /// Writes a string, escaped.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.sep();
        push_str_escaped(&mut self.out, s);
        self.comma = true;
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.f64(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr();
            }
            Json::Obj(pairs) => {
                self.begin_obj();
                for (k, v) in pairs {
                    self.key(k);
                    self.value(v);
                }
                self.end_obj();
            }
        }
    }
}

/// The largest value [`u64_json`] writes as a number: up to 2^53 an
/// `f64` reader still holds every integer exactly.
const MAX_EXACT: u64 = 1 << 53;

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal: the same digits `format!("{v}")` gives.
#[inline]
fn push_u64(out: &mut String, mut v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // Copy runs that need no escape in one go; every byte that does is
    // ASCII, so each split lands on a char boundary.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => fmt::write(out, format_args!("\\u{:04x}", c)).expect("String writes cannot fail"),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
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
    if v <= MAX_EXACT {
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
    read_document(text, |r| r.value())
}

/// Reads a complete document with `read`; only whitespace may follow.
pub fn read_document<T>(
    text: &str,
    read: impl FnOnce(&mut Reader) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut r = Reader::new(text.as_bytes());
    let v = read(&mut r)?;
    r.end()?;
    Ok(v)
}

/// Nesting bound for [`Reader::value`], so hostile input cannot
/// overflow the stack.
const MAX_DEPTH: usize = 512;

/// A strict pull tokenizer over JSON bytes.
///
/// Codecs read a known document layout value by value — [`begin_arr`]
/// then [`more`] before each item, [`begin_obj`] then [`key`] with the
/// expected name, in order — and [`Reader::value`] reads any subtree as
/// a [`Json`]. Whitespace between tokens is skipped. Numbers follow the
/// JSON grammar exactly (no leading zeros, no `+`, no bare `.`); plain
/// integers are accumulated directly, and [`Reader::int`] range-checks
/// them into the caller's type and refuses fractions and exponents.
///
/// [`begin_arr`]: Reader::begin_arr
/// [`more`]: Reader::more
/// [`begin_obj`]: Reader::begin_obj
/// [`key`]: Reader::key
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The innermost open container has not yet produced an item.
    first: bool,
}

/// A scanned number token.
enum Number {
    /// No fraction or exponent, magnitude fits a `u64`.
    Int { neg: bool, mag: u64 },
    /// Anything else, parsed as `f64`.
    Float(f64),
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            first: false,
        }
    }

    /// A failure at the current position.
    pub fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// Checks that only whitespace remains.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing data"))
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(bracket)?;
        self.first = true;
        Ok(())
    }

    /// Steps to the next item of the innermost container: `false` once
    /// its closing bracket has been consumed.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.first = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.first) {
            self.expect(b',')?;
            self.skip_ws();
        }
        Ok(true)
    }

    /// Consumes `[`.
    #[inline]
    pub fn begin_arr(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Whether the open array has another item (consuming the `,`), or
    /// has ended (consuming the `]`).
    #[inline]
    pub fn more(&mut self) -> Result<bool, ParseError> {
        self.next(b']')
    }

    /// Consumes `{`.
    #[inline]
    pub fn begin_obj(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// Consumes the next key of the open object, which must be `name`,
    /// and its `:`.
    pub fn key(&mut self, name: &str) -> Result<(), ParseError> {
        if !self.next(b'}')? {
            return Err(self.err(&format!("missing key {name:?}")));
        }
        let at = self.pos;
        if self.string()? != name {
            self.pos = at;
            return Err(self.err(&format!("expected key {name:?}")));
        }
        self.skip_ws();
        self.expect(b':')
    }

    /// Consumes the `}` that must close the open object.
    #[inline]
    pub fn end_obj(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'}')?;
        self.first = false;
        Ok(())
    }

    /// Consumes `null` if it comes next.
    #[inline]
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        let found = self.bytes[self.pos..].starts_with(b"null");
        if found {
            self.pos += 4;
        }
        found
    }

    /// Reads an integer into `T`: no fraction or exponent, and in range.
    #[inline]
    pub fn int<T: TryFrom<i128>>(&mut self) -> Result<T, ParseError> {
        self.skip_ws();
        let at = self.pos;
        let Number::Int { neg, mag } = self.number()? else {
            self.pos = at;
            return Err(self.err("expected an integer"));
        };
        let v = if neg {
            -i128::from(mag)
        } else {
            i128::from(mag)
        };
        T::try_from(v).map_err(|_| {
            self.pos = at;
            self.err("integer out of range")
        })
    }

    /// Reads a `u64` in the [`u64_json`] encoding: a number up to 2^53,
    /// or a string of plain decimal digits above it.
    #[inline]
    pub fn u64_json(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let at = self.pos;
        let v = if self.peek() == Some(b'"') {
            self.pos += 1;
            let (n, v) = self.digits();
            let canonical = n > 0 && self.bytes[at + 1] != b'0' && self.peek() == Some(b'"');
            self.pos += 1;
            v.filter(|&v| canonical && v > MAX_EXACT)
        } else {
            Some(self.int::<u64>()?).filter(|&v| v <= MAX_EXACT)
        };
        v.ok_or_else(|| {
            self.pos = at;
            self.err("not a u64_json value")
        })
    }

    /// Reads a string.
    pub fn str(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        self.string().map(Cow::into_owned)
    }

    /// Reads any value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'n') => self.lit("null", Json::Null)?,
            Some(b't') => self.lit("true", Json::Bool(true))?,
            Some(b'f') => self.lit("false", Json::Bool(false))?,
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(b'[') => {
                self.begin_arr()?;
                let mut items = Vec::new();
                while self.more()? {
                    items.push(self.value_at(depth + 1)?);
                }
                Json::Arr(items)
            }
            Some(b'{') => {
                self.begin_obj()?;
                let mut pairs = Vec::new();
                while self.next(b'}')? {
                    let k = self.string()?.into_owned();
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((k, self.value_at(depth + 1)?));
                }
                Json::Obj(pairs)
            }
            Some(b'-' | b'0'..=b'9') => Json::Num(match self.number()? {
                Number::Int { neg: false, mag } => mag as f64,
                Number::Int { neg: true, mag } => -(mag as f64),
                Number::Float(n) => n,
            }),
            _ => return Err(self.err("expected a JSON value")),
        })
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    /// Consumes a run of digits: how many, and their value if it fits a
    /// `u64`.
    #[inline]
    fn digits(&mut self) -> (usize, Option<u64>) {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let n = self.pos - start;
        // Up to 19 digits cannot overflow; only a 20-digit run can (and
        // then only by wrapping below its leading digit's weight).
        let fits =
            n < 20 || (n == 20 && self.bytes[start] == b'1' && v >= 10_000_000_000_000_000_000);
        (n, fits.then_some(v))
    }

    /// Scans `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    #[inline]
    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mag = match self.digits() {
            (0, _) => return Err(self.err("malformed number")),
            (n, _) if n > 1 && self.bytes[int_start] == b'0' => {
                self.pos = int_start;
                return Err(self.err("leading zero in number"));
            }
            (_, mag) => mag,
        };
        let int_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits().0 == 0 {
                return Err(self.err("malformed fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits().0 == 0 {
                return Err(self.err("malformed exponent"));
            }
        }
        if let (true, Some(mag)) = (self.pos == int_end, mag) {
            return Ok(Number::Int { neg, mag });
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        match text.parse::<f64>() {
            // An exponent past f64's range parses as infinity, which the
            // writer can only render as `null`: refuse it.
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    /// Reads a string token; borrowed when it holds no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut owned: Option<String> = None;
        loop {
            // Take the whole run up to the next quote, backslash or
            // control byte; all three are ASCII, so the run ends on a
            // char boundary and validates as one slice.
            let rest = &bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let run = std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
            self.pos += len;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
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

    /// Numbers follow the JSON grammar: a value that the old
    /// `str::parse` fallback accepted but that re-renders differently is
    /// refused.
    #[test]
    fn parse_rejects_non_json_numbers() {
        for bad in [
            "[007]", "[-01]", "[00]", "[1.]", "[.5]", "[+1]", "[1e]", "[1e+]", "[-]", "[0x1]",
            "[1.5.2]", "[--1]", "[1e999]", "[-1E400]",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-7", -7.0),
            ("0.25", 0.25),
            ("1e3", 1000.0),
            ("2.5E-1", 0.25),
            ("18446744073709551616", 18446744073709551616.0),
        ] {
            assert_eq!(parse(good), Ok(Json::Num(n)), "{good}");
        }
        // Raw control bytes are not JSON string content.
        assert!(parse("\"a\u{1}b\"").is_err());
        assert!(parse(r#""\u00zz""#).is_err());
        assert!(parse(r#""\u+041""#).is_err());
    }

    /// The integer fast path renders exactly what `{}` does, over the
    /// whole `i64`/`u64` range and at every digit-count boundary.
    #[test]
    fn integer_fast_path_matches_fmt() {
        let mut values: Vec<i64> = vec![0, 1, -1, 9, 10, 99, 100, 101, i64::MAX, i64::MIN];
        for p in 1..19 {
            let t = 10i64.pow(p);
            values.extend([t - 1, t, t + 1, -(t - 1), -t, -(t + 1)]);
        }
        for v in values {
            let mut w = Writer::new();
            w.i64(v);
            assert_eq!(w.finish(), v.to_string());
            if let Ok(u) = u64::try_from(v) {
                let mut w = Writer::new();
                w.u64(u);
                assert_eq!(w.finish(), u.to_string());
            }
        }
        let mut w = Writer::new();
        w.u64(u64::MAX);
        assert_eq!(w.finish(), u64::MAX.to_string());
        // Through the tree: integral floats below 2^53 print as integers.
        assert_eq!(Json::Num(-0.0).to_string_compact(), "0");
        assert_eq!(
            Json::Num(9007199254740991.0).to_string_compact(),
            "9007199254740991"
        );
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn pretty_layout_is_stable() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![])])),
            ("b", Json::obj([])),
            ("c", Json::obj([("d", Json::Null)])),
        ]);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {},\n  \"c\": {\n    \"d\": null\n  }\n}"
        );
        assert_eq!(
            v.to_string_compact(),
            r#"{"a":[1,[]],"b":{},"c":{"d":null}}"#
        );
    }

    /// The reader narrows losslessly or not at all: out-of-range values,
    /// fractions and exponents where an integer is expected all fail.
    #[test]
    fn reader_ints_are_range_checked() {
        let int = |text: &str| Reader::new(text.as_bytes()).int::<i32>();
        assert_eq!(int(" -2147483648"), Ok(i32::MIN));
        assert_eq!(int("2147483647"), Ok(i32::MAX));
        for bad in [
            "2147483648",
            "-2147483649",
            "1.5",
            "1e2",
            "1.0",
            "4294967296",
            "\"1\"",
            "01",
        ] {
            assert!(int(bad).is_err(), "{bad} read as an i32");
        }
        let u8_ = |text: &str| Reader::new(text.as_bytes()).int::<u8>();
        assert_eq!(u8_("255"), Ok(255));
        assert!(u8_("256").is_err());
        assert!(u8_("-1").is_err());
        let u64_ = |text: &str| Reader::new(text.as_bytes()).int::<u64>();
        // Around the overflow point of the digit accumulator.
        assert_eq!(u64_("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(u64_("10000000000000000000"), Ok(10_000_000_000_000_000_000));
        assert_eq!(u64_("9999999999999999999"), Ok(9_999_999_999_999_999_999));
        for bad in [
            "18446744073709551616",
            "19999999999999999999",
            "20000000000000000000",
            "99999999999999999999",
            "100000000000000000000",
        ] {
            assert!(u64_(bad).is_err(), "{bad} read as a u64");
        }
    }

    #[test]
    fn reader_follows_the_canonical_layout() {
        let text = r#" { "n" : [ 1 , {"x":2}, [] ] , "s": "a\"b", "z": null } "#;
        let mut r = Reader::new(text.as_bytes());
        r.begin_obj().unwrap();
        r.key("n").unwrap();
        r.begin_arr().unwrap();
        assert!(r.more().unwrap());
        assert_eq!(r.int::<u8>(), Ok(1));
        assert!(r.more().unwrap());
        assert_eq!(r.value(), Ok(Json::obj([("x", Json::Num(2.0))])));
        assert!(r.more().unwrap());
        r.begin_arr().unwrap();
        assert!(!r.more().unwrap());
        assert!(!r.more().unwrap());
        r.key("s").unwrap();
        assert_eq!(r.str().as_deref(), Ok("a\"b"));
        r.key("z").unwrap();
        assert!(r.null());
        r.end_obj().unwrap();
        r.end().unwrap();
        // Keys out of canonical order are refused.
        let mut r = Reader::new(br#"{"b":1,"a":2}"#);
        r.begin_obj().unwrap();
        assert!(r.key("a").is_err());
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
    fn writer_and_reader_carry_the_u64_json_convention() {
        for v in [0u64, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut w = Writer::new();
            w.u64_json(v);
            let text = w.finish();
            assert_eq!(text, u64_json(v).to_string_compact(), "value {v}");
            assert_eq!(Reader::new(text.as_bytes()).u64_json(), Ok(v), "value {v}");
        }
        // Each side of 2^53 has exactly one form.
        for bad in [
            r#""5""#,
            r#""9007199254740992""#,
            "9007199254740993",
            r#""09007199254740993""#,
            r#""+9007199254740993""#,
            r#"" 9007199254740993""#,
            r#""18446744073709551616""#,
            "1.5",
        ] {
            assert!(Reader::new(bad.as_bytes()).u64_json().is_err(), "{bad}");
        }
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
