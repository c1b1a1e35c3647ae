//! A minimal JSON encode/decode module.
//!
//! The build environment has no crates.io access, so the daemon's
//! wire format is hand-rolled: a [`Json`] value tree, a recursive
//! descent parser with a depth limit and an optional value budget,
//! and a deterministic encoder (object keys keep insertion order, so
//! responses are byte-stable).
//!
//! The hot messages skip the tree both ways. [`ObjectWriter`] writes an
//! object field by field straight into its destination, and
//! [`Json::parse_fields`] hands an object's fields to the caller as it
//! reads them, each string checked but left as [`Escaped`] text of the
//! document, unescaped only if the caller asks for its value. Both
//! share the tree's code: every string and number is written by the one
//! string writer and the one integer writer (a counter above `i64::MAX`
//! as the float [`Json::u64`] makes of it), every string is read by the
//! one string scanner and every object by the one object parser, so a
//! message has the same bytes and the same errors either way.
//!
//! Integers and floats are kept apart — simulation counters are
//! `u64`-sized and must survive a round trip exactly, which `f64`
//! cannot guarantee above 2^53.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the encoder.
    Obj(Vec<(String, Json)>),
}

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parse failure: byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an integer value from a `u64` counter (the common case
    /// for simulation statistics). Values above `i64::MAX` — which no
    /// real counter reaches — degrade to the nearest float, as
    /// [`ObjectWriter::u64`] writes them too.
    pub fn u64(v: u64) -> Json {
        match i64::try_from(v) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Num(v as f64),
        }
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
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

    /// Parses a JSON document (exactly one value plus whitespace).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Self::parse_bounded(text, usize::MAX)
    }

    /// [`Json::parse`] that fails as soon as the document holds more
    /// than `max_values` values (every scalar, array and object counts
    /// one; object keys do not), so a hostile document cannot make the
    /// parser build a tree larger than its reader will ever accept.
    ///
    /// # Errors
    ///
    /// As for [`Json::parse`], plus the budget error at the first value
    /// past it.
    pub fn parse_bounded(text: &str, max_values: usize) -> Result<Json, JsonError> {
        let mut p = Parser::new(text, max_values);
        p.skip_ws();
        let value = p.value(0)?;
        p.end()?;
        Ok(value)
    }

    /// Reads a document whose root is an object and hands each field
    /// to `field` in document order, repeated keys included, without
    /// building the object. A key is borrowed from `text` unless it
    /// holds an escape; a string value arrives checked but still
    /// escaped, and any other value as a tree. The whole document is
    /// read before this returns, and a root that is not an object is an
    /// error.
    ///
    /// # Errors
    ///
    /// As for [`Json::parse`]; `field` has seen the fields before the
    /// first problem.
    pub fn parse_fields<'a>(
        text: &'a str,
        field: impl FnMut(Cow<'a, str>, Field<'a>),
    ) -> Result<(), JsonError> {
        Self::parse_fields_bounded(text, usize::MAX, field)
    }

    /// [`Json::parse_fields`] under the value budget of
    /// [`Json::parse_bounded`], the root object counting as one value:
    /// an object document fails at the same byte with the same error
    /// either way.
    ///
    /// # Errors
    ///
    /// As for [`Json::parse_fields`], plus the budget error at the first
    /// value past it.
    pub fn parse_fields_bounded<'a>(
        text: &'a str,
        max_values: usize,
        mut field: impl FnMut(Cow<'a, str>, Field<'a>),
    ) -> Result<(), JsonError> {
        let mut p = Parser::new(text, max_values);
        p.skip_ws();
        p.count(0)?;
        p.object(0, Parser::field, &mut field)?;
        p.end()
    }

    /// Encodes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.size_hint());
        self.write(&mut out);
        out
    }

    /// A guess at the compact encoding's length, close enough that
    /// [`Json::render`] rarely grows its buffer: strings get an eighth
    /// on top for escapes.
    fn size_hint(&self) -> usize {
        let string = |s: &str| s.len() + s.len() / 8 + 2;
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) | Json::Num(_) => 24,
            Json::Str(s) => string(s),
            Json::Arr(items) => 2 + items.iter().map(|item| item.size_hint() + 1).sum::<usize>(),
            Json::Obj(fields) => {
                2 + fields.iter().map(|(k, v)| string(k) + v.size_hint() + 2).sum::<usize>()
            }
        }
    }

    /// Encodes the value with two-space indentation (for humans:
    /// `hirata stats`).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Int(i) => write_i64(out, *i),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// A string as it stands in a document: checked as the parser checks
/// every string, its escapes left as written until its value is asked
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escaped<'a> {
    /// The string with its quotes.
    quoted: &'a str,
    /// Whether it holds an escape.
    escapes: bool,
}

impl<'a> Escaped<'a> {
    /// The text between the quotes, escapes as written.
    pub fn text(&self) -> &'a str {
        &self.quoted[1..self.quoted.len() - 1]
    }

    /// The string's value: borrowed from the document unless it holds
    /// an escape.
    pub fn unescape(&self) -> Cow<'a, str> {
        if !self.escapes {
            return Cow::Borrowed(self.text());
        }
        let mut value = String::with_capacity(self.quoted.len());
        Parser::new(self.quoted, usize::MAX)
            .scan_string(&mut value)
            .expect("a string is checked when it is read");
        Cow::Owned(value)
    }
}

/// A field value handed over by [`Json::parse_fields`]: a string, still
/// escaped, or any other value as a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// A string.
    Str(Escaped<'a>),
    /// Any other value.
    Value(Json),
}

impl<'a> Field<'a> {
    /// The string's value, if this is a string.
    pub fn string(&self) -> Option<Cow<'a, str>> {
        self.escaped().map(|s| s.unescape())
    }

    /// The string as written, if this is a string.
    pub fn escaped(&self) -> Option<Escaped<'a>> {
        match self {
            Field::Str(s) => Some(*s),
            Field::Value(_) => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Field::Value(v) => v.as_arr(),
            Field::Str(_) => None,
        }
    }

    /// The value as a `u64`, as [`Json::as_u64`] reads it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Value(v) => v.as_u64(),
            Field::Str(_) => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Field::Value(v) => v.as_bool(),
            Field::Str(_) => None,
        }
    }
}

/// Writes one JSON object into a string field by field, with no tree:
/// the same bytes [`Json::render`] gives for the [`Json::Obj`] of the
/// same fields in the same order. [`ObjectWriter::finish`] closes it.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the separator and `key`; the value follows.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// A counter field, written as [`Json::u64`] renders.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        write_u64(self.key(key), value);
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        write_bool(self.key(key), value);
        self
    }

    /// An array of counters, each written as [`Json::u64`] renders.
    pub fn u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, value) in values.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_u64(out, value);
        }
        out.push(']');
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Writes a counter as [`Json::u64`] renders it: an integer up to
/// `i64::MAX`, the nearest float above.
fn write_u64(out: &mut String, v: u64) {
    match i64::try_from(v) {
        Ok(i) => write_i64(out, i),
        Err(_) => write_f64(out, v as f64),
    }
}

fn write_i64(out: &mut String, v: i64) {
    let _ = write!(out, "{v}");
}

/// Non-finite floats have no JSON spelling; encode as null (they
/// never appear in simulation statistics). The `{:?}` form is used
/// because it keeps a fraction or exponent marker on integral values
/// (`1.0`, `1e300`), so a float never re-parses as [`Json::Int`].
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string. Only `"`, `\` and control bytes need
/// escaping; each run of bytes between them is found by [`plain_run`]
/// and copied with one `push_str`. All of those bytes are ASCII, so
/// every run starts and ends on a char boundary.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut at = 0;
    loop {
        let run = plain_run(&bytes[at..]);
        out.push_str(&s[at..at + run]);
        at += run;
        let Some(&b) = bytes.get(at) else { break };
        at += 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push('"');
}

/// The length of the run at the start of `bytes` that holds no quote,
/// backslash or control byte: what a JSON string holds as it is. It
/// tests eight bytes at a time.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = ONES << 7;
    // The high bit of each byte of `word` below `n` (at most 0x80). A
    // borrow can set bits above the first such byte too, but never
    // below it, so the lowest bit set marks the first.
    let below = |word: u64, n: u8| word.wrapping_sub(ONES * u64::from(n)) & !word & HIGH;
    let mut at = 0;
    for chunk in bytes.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("a chunk of eight bytes"));
        let special = below(word, 0x20)
            | below(word ^ (ONES * u64::from(b'"')), 1)
            | below(word ^ (ONES * u64::from(b'\\')), 1);
        if special != 0 {
            return at + special.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = &bytes[at..];
    at + tail.iter().position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f)).unwrap_or(tail.len())
}

/// Where the string scanner puts a string's value: a `String`, or
/// nowhere when the string is only checked.
trait Unescaped {
    /// Appends `text[run]`, a run that starts and ends on char
    /// boundaries.
    fn push_run(&mut self, text: &str, run: Range<usize>);
    fn push(&mut self, c: char);
}

impl Unescaped for String {
    fn push_run(&mut self, text: &str, run: Range<usize>) {
        self.push_str(&text[run]);
    }

    fn push(&mut self, c: char) {
        String::push(self, c);
    }
}

/// Checks a string and keeps none of it.
struct Check;

impl Unescaped for Check {
    fn push_run(&mut self, _: &str, _: Range<usize>) {}

    fn push(&mut self, _: char) {}
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The value budget, and the values parsed so far.
    max_values: usize,
    values: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, max_values: usize) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0, max_values, values: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Checks that only whitespace follows the document's value.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Counts the value that starts here against the depth limit and
    /// the value budget.
    fn count(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        if self.values == self.max_values {
            return Err(self.err(format!("more than {} values", self.max_values)));
        }
        self.values += 1;
        Ok(())
    }

    /// Reads one value as a tree.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.count(depth)?;
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.array(depth),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(depth, Parser::value, &mut |key, value| {
                    fields.push((key.into_owned(), value))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads one field value: a string checked and left escaped, any
    /// other value as a tree.
    fn field(&mut self, depth: usize) -> Result<Field<'a>, JsonError> {
        if self.peek() != Some(b'"') {
            return self.value(depth).map(Field::Value);
        }
        self.count(depth)?;
        let start = self.pos;
        let escapes = self.scan_string(&mut Check)?;
        Ok(Field::Str(Escaped { quoted: &self.text[start..self.pos], escapes }))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, each value by `read`, and hands each field to
    /// `field` in order.
    fn object<V>(
        &mut self,
        depth: usize,
        read: fn(&mut Self, usize) -> Result<V, JsonError>,
        field: &mut dyn FnMut(Cow<'a, str>, V),
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = read(self, depth + 1)?;
            field(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Reads a string: borrowed from the text if it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let start = self.pos + 1;
        let mut out = String::new();
        if self.scan_string(&mut out)? {
            Ok(Cow::Owned(out))
        } else {
            Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
        }
    }

    /// Reads a string through its closing quote, checking it, and
    /// returns whether it holds an escape. Once it meets an escape it
    /// hands `out` the value so far and then every run and escaped
    /// character after it; a string with no escape gives `out` nothing.
    fn scan_string(&mut self, out: &mut impl Unescaped) -> Result<bool, JsonError> {
        self.expect(b'"')?;
        let mut escapes = false;
        loop {
            // A run up to the next quote, backslash or control byte ends
            // at an ASCII byte or at the end of input, so both its ends
            // are char boundaries.
            let run = self.pos..self.pos + plain_run(&self.bytes[self.pos..]);
            self.pos = run.end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if escapes {
                        out.push_run(self.text, run);
                    }
                    return Ok(escapes);
                }
                Some(b'\\') => {
                    escapes = true;
                    out.push_run(self.text, run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: require the paired
                                // `\uXXXX` low surrogate.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    /// Reads exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut unit = 0;
        for &d in digits {
            let v = char::from(d).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
            unit = (unit << 4) | v;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first_digit = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[first_digit] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-1", Json::Int(-1)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("1.5", Json::Num(1.5)),
            ("-2.25", Json::Num(-2.25)),
            ("\"\"", Json::Str(String::new())),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text), value, "{text}");
            assert_eq!(parse(&value.render()), value, "{text}");
        }
    }

    #[test]
    fn i64_overflow_becomes_float() {
        assert_eq!(parse("9223372036854775808"), Json::Num(9.223372036854776e18));
    }

    #[test]
    fn exponents_parse_as_floats() {
        assert_eq!(parse("1e3"), Json::Num(1000.0));
        assert_eq!(parse("-1.5E-2"), Json::Num(-0.015));
        assert_eq!(parse("2E+1"), Json::Num(20.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let ugly = "a\"b\\c\nd\te\rf\u{08}g\u{0c}h\u{1}i/λ😀";
        let value = Json::Str(ugly.into());
        assert_eq!(parse(&value.render()), value);
        assert_eq!(parse(r#""\u0041\u00e9\ud83d\ude00""#), Json::Str("Aé😀".into()));
    }

    #[test]
    fn nesting_round_trips() {
        let value = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null, Json::Str("x".into())])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Bool(false))])),
            ("empty arr".into(), Json::Arr(vec![])),
            ("empty obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&value.render()), value);
        assert_eq!(parse(&value.render_pretty()), value);
    }

    #[test]
    fn whitespace_is_tolerated() {
        assert_eq!(parse(" { \"a\" :\t[ 1 ,\n2 ] } "), parse("{\"a\":[1,2]}"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn value_budget_is_enforced() {
        // The root array and its three entries: four values.
        let doc = "[1, \"two\", {\"k\": null}]";
        assert_eq!(Json::parse_bounded("[1, 2, 3]", 4), Json::parse("[1, 2, 3]"));
        let err = Json::parse_bounded("[1, 2, 3]", 3).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (7, "more than 3 values"));
        // Objects count one, their keys none, their values one each.
        assert!(Json::parse_bounded(doc, 5).is_ok());
        assert!(Json::parse_bounded(doc, 4).is_err());
        // The budget stops a long array where it runs out, not at its end.
        let long = format!("[{}]", vec!["1"; 100_000].join(","));
        assert_eq!(Json::parse_bounded(&long, 10).unwrap_err().at, 19);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "01",
            "-",
            "1.",
            "1e",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"unterminated",
            "\u{1}",
            "1 2",
            "nullx",
            "\"a\u{0}b\"",
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_errors_after_long_runs_keep_their_offsets() {
        // 10 bytes per repetition: ASCII, 2-, 3- and 4-byte UTF-8.
        let run = "a\u{e9}\u{4e2d}\u{1f600}".repeat(1000);
        for (text, at, msg) in [
            (format!("\"{run}"), 10_001, "unterminated string"),
            (format!("\"{run}\u{1}{run}\""), 10_001, "unescaped control character"),
            (format!("\"{run}\\q{run}\""), 10_002, "invalid escape"),
        ] {
            assert_eq!(Json::parse(&text), Err(JsonError { at, msg: msg.into() }));
        }
    }

    #[test]
    fn body_cap_string_parses_in_linear_time() {
        // A program-shaped string filling the whole body cap: plain
        // runs with a multi-byte character, broken by `\n` escapes.
        let line = "    addi r1, r1, 1 ; \u{3bb}\\n";
        let cap = crate::http::MAX_BODY_BYTES as usize;
        let lines = (cap - 2) / line.len();
        let text = format!("\"{}\"", line.repeat(lines));
        let start = std::time::Instant::now();
        let value = parse(&text);
        let elapsed = start.elapsed();
        let expected = "    addi r1, r1, 1 ; \u{3bb}\n".repeat(lines);
        assert_eq!(value.as_str(), Some(expected.as_str()));
        assert!(elapsed.as_secs_f64() < 2.0, "8 MiB string took {elapsed:?}");
    }

    #[test]
    fn fields_come_in_order_with_the_errors_of_the_tree() {
        let text = r#" {"a":1,"b":"x\ny","a":[true],"c":{"d":"e"},"e":"f"} "#;
        let mut seen = Vec::new();
        Json::parse_fields(text, |key, value| seen.push((key, value))).expect("reads");
        let value = |v: Json| Field::Value(v);
        assert_eq!(seen[..1], [(Cow::Borrowed("a"), value(Json::Int(1)))],);
        assert_eq!(
            seen[2..4],
            [
                (Cow::Borrowed("a"), value(Json::Arr(vec![Json::Bool(true)]))),
                (Cow::Borrowed("c"), value(Json::Obj(vec![("d".into(), Json::Str("e".into()))]))),
            ]
        );
        // Strings arrive as written and unescape on demand, borrowed
        // unless they hold an escape.
        let string = |field: &Field<'static>| (field.escaped().map(|s| s.text()), field.string());
        assert_eq!(seen[1].0, "b");
        assert_eq!(string(&seen[1].1), (Some(r"x\ny"), Some(Cow::Owned("x\ny".into()))));
        assert_eq!(seen[4].0, "e");
        assert_eq!(string(&seen[4].1), (Some("f"), Some(Cow::Borrowed("f"))));
        assert_eq!(seen.len(), 5);
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(70), "]".repeat(70));
        for bad in ["{", "{\"a\":}", "{\"a\":1} x", "{\"a\":1,}", "{\"\\q\":1}", &deep] {
            let fields = Json::parse_fields(bad, |_, _| {});
            assert_eq!(fields, Json::parse(bad).map(|_| ()), "{bad}");
        }
        for root in ["[1]", "1", "\"a\"", ""] {
            assert!(Json::parse_fields(root, |_, _| {}).is_err(), "{root:?} is not an object");
        }
    }

    #[test]
    fn plain_runs_end_at_the_first_byte_a_string_escapes() {
        // Fillers: every byte that a string holds as it is, in turn, so
        // each neighbour of a special byte (0x20, 0x21, 0x23, 0x5b,
        // 0x5d, 0x80 and up) sits in every lane of a word.
        let plain: Vec<u8> = (0x20..=0xff).filter(|&b| b != b'"' && b != b'\\').collect();
        for len in 0..40 {
            for shift in 0..plain.len() {
                let mut bytes: Vec<u8> =
                    (0..len).map(|i| plain[(shift + i) % plain.len()]).collect();
                assert_eq!(plain_run(&bytes), len);
                for at in 0..len {
                    for special in [0x00, 0x0a, 0x1f, b'"', b'\\'] {
                        let kept = std::mem::replace(&mut bytes[at], special);
                        assert_eq!(plain_run(&bytes), at, "{special:#x} at {at} of {len}");
                        bytes[at] = kept;
                    }
                }
            }
        }
    }

    #[test]
    fn u64_constructor_handles_extremes() {
        assert_eq!(Json::u64(0), Json::Int(0));
        assert_eq!(Json::u64(i64::MAX as u64), Json::Int(i64::MAX));
        assert!(matches!(Json::u64(u64::MAX), Json::Num(_)));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
