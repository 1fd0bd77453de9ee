//! A minimal JSON value, parser and encoder — just enough for the HTTP
//! API and the CLI's `--json` output, so the workspace stays free of
//! registry dependencies.
//!
//! Design points:
//!
//! * objects preserve insertion order (`Vec<(String, Json)>`), so every
//!   [`Json`] value has exactly one encoding and responses can be
//!   compared byte-for-byte in tests;
//! * numbers are `f64`; integral values in the exactly-representable
//!   range encode without a fractional part (`24`, not `24.0`), and
//!   non-finite values encode as `null`;
//! * the parser is a recursive-descent reader over UTF-8 with a depth
//!   limit, full string-escape handling (including `\uXXXX` surrogate
//!   pairs) and precise error offsets.

use crate::catalog::FanOut;
use std::fmt;
use usi_core::{QuerySource, UsiQuery};
use usi_strings::{GlobalAggregator, GlobalUtility, LocalWindow, UtilityAccumulator};

/// Maximum nesting depth the parser accepts (stack-overflow guard).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and duplicate keys are
    /// kept as-is (lookups return the first).
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Convenience constructor: a number from any integer that fits in
    /// f64's exact range (callers in this crate stay far below 2^53).
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// Member lookup on objects; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Encodes the value; the encoding is canonical per value (member
    /// order is the insertion order).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-roundtrip Display is valid JSON for finite f64
        let _ = write!(out, "{n}");
    }
}

/// `value.map_or(Json::Null, Json::Num)`'s encoding.
fn write_optional_number(value: Option<f64>, out: &mut String) {
    match value {
        Some(n) => write_number(n, out),
        None => out.push_str("null"),
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// API encodings shared by the HTTP server, the CLI's `--json` mode and
// the end-to-end tests (one encoder → responses compare byte-for-byte).
// ---------------------------------------------------------------------

/// The wire name of a query source; matches the CLI's human output.
pub fn source_name(source: QuerySource) -> &'static str {
    match source {
        QuerySource::HashTable => "cached",
        QuerySource::TextIndex => "computed",
    }
}

/// Patterns travel as JSON strings; non-UTF-8 query bytes are replaced
/// lossily on the way out (they can still be queried byte-exactly).
pub fn pattern_string(pattern: &[u8]) -> String {
    String::from_utf8_lossy(pattern).into_owned()
}

/// One pattern's answer: `{"pattern","occurrences","value","source"}`.
pub fn query_result_json(pattern: &[u8], q: &UsiQuery) -> Json {
    Json::Obj(vec![
        ("pattern".into(), Json::Str(pattern_string(pattern))),
        ("occurrences".into(), Json::Num(q.occurrences as f64)),
        ("value".into(), q.value.map_or(Json::Null, Json::Num)),
        ("source".into(), Json::str(source_name(q.source))),
    ])
}

/// One pattern's fan-out answer: corpus-wide totals plus a `per_doc`
/// array of per-document answers.
pub fn fan_out_json(pattern: &[u8], fan: &FanOut) -> Json {
    let per_doc = fan
        .per_doc
        .iter()
        .map(|(doc, q)| {
            Json::Obj(vec![
                ("doc".into(), Json::str(doc.clone())),
                ("occurrences".into(), Json::Num(q.occurrences as f64)),
                ("value".into(), q.value.map_or(Json::Null, Json::Num)),
                ("source".into(), Json::str(source_name(q.source))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("pattern".into(), Json::Str(pattern_string(pattern))),
        ("occurrences".into(), Json::Num(fan.total_occurrences as f64)),
        ("value".into(), fan.total_value.map_or(Json::Null, Json::Num)),
        ("per_doc".into(), Json::Arr(per_doc)),
    ])
}

/// The `POST /v1/query` response body for a single-document query.
pub fn query_response_json(doc: &str, patterns: &[&[u8]], answers: &[UsiQuery]) -> Json {
    let results =
        patterns.iter().zip(answers).map(|(p, q)| query_result_json(p, q)).collect::<Vec<_>>();
    Json::Obj(vec![("doc".into(), Json::str(doc)), ("results".into(), Json::Arr(results))])
}

/// The `POST /v1/query` response body for a `"doc": "*"` fan-out query.
/// The server writes these bytes with [`fan_out_response_body`]; this
/// tree is the reference that writer is tested against.
pub fn fan_out_response_json(patterns: &[&[u8]], fans: &[FanOut]) -> Json {
    let results =
        patterns.iter().zip(fans).map(|(p, fan)| fan_out_json(p, fan)).collect::<Vec<_>>();
    Json::Obj(vec![("doc".into(), Json::str("*")), ("results".into(), Json::Arr(results))])
}

/// `fan_out_response_json(patterns, fans).encode()`, written straight
/// into one `String` with the encoder's own primitives instead of
/// building a [`Json`] tree first — the fan-out hot path.
pub fn fan_out_response_body(patterns: &[&[u8]], fans: &[FanOut]) -> String {
    let doc_bytes: usize =
        fans.first().map_or(0, |fan| fan.per_doc.iter().map(|(doc, _)| doc.len() + 64).sum());
    let mut out = String::with_capacity(24 + fans.len() * (64 + doc_bytes));
    out.push_str(r#"{"doc":"*","results":["#);
    for (i, (pattern, fan)) in patterns.iter().zip(fans).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"pattern":"#);
        write_string(&String::from_utf8_lossy(pattern), &mut out);
        out.push_str(r#","occurrences":"#);
        write_number(fan.total_occurrences as f64, &mut out);
        out.push_str(r#","value":"#);
        write_optional_number(fan.total_value, &mut out);
        out.push_str(r#","per_doc":["#);
        for (j, (doc, q)) in fan.per_doc.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(r#"{"doc":"#);
            write_string(doc, &mut out);
            out.push_str(r#","occurrences":"#);
            write_number(q.occurrences as f64, &mut out);
            out.push_str(r#","value":"#);
            write_optional_number(q.value, &mut out);
            out.push_str(r#","source":"#);
            write_string(source_name(q.source), &mut out);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Accumulator-carrying variants (`"acc": true` requests): the raw
// `[sum, min, max, count]` components plus the utility function travel
// with each answer, so a fan-out front end can merge remote shards
// through `usi_core::merge` exactly as it merges local documents.
// ---------------------------------------------------------------------

/// A raw accumulator as `[sum, min, max, count]`. An *empty*
/// accumulator carries `min = +∞` / `max = −∞` (the fold identities),
/// which JSON cannot represent — it travels as `[0, null, null, 0]`.
pub fn acc_json(acc: &UtilityAccumulator) -> Json {
    let (sum, min, max, count) = acc.to_raw();
    if count == 0 {
        return Json::Arr(vec![Json::Num(0.0), Json::Null, Json::Null, Json::Num(0.0)]);
    }
    Json::Arr(vec![Json::Num(sum), Json::Num(min), Json::Num(max), Json::Num(count as f64)])
}

/// Parses [`acc_json`]'s encoding back into an accumulator.
pub fn acc_from_json(v: &Json) -> Option<UtilityAccumulator> {
    let items = v.as_array()?;
    let [sum, min, max, count] = items else { return None };
    let count = count.as_f64()?;
    if count < 0.0 || count.fract() != 0.0 {
        return None;
    }
    if count == 0.0 {
        return Some(UtilityAccumulator::new());
    }
    Some(UtilityAccumulator::from_raw(sum.as_f64()?, min.as_f64()?, max.as_f64()?, count as u64))
}

/// The wire name of a local window function.
pub fn local_window_name(local: LocalWindow) -> &'static str {
    match local {
        LocalWindow::Sum => "sum",
        LocalWindow::Product => "product",
    }
}

/// A utility function as `{"aggregator","local"}` wire names.
pub fn utility_json(utility: GlobalUtility) -> Json {
    Json::Obj(vec![
        ("aggregator".into(), Json::str(utility.aggregator.name())),
        ("local".into(), Json::str(local_window_name(utility.local))),
    ])
}

/// Parses [`utility_json`]'s encoding back into a utility function.
pub fn utility_from_json(v: &Json) -> Option<GlobalUtility> {
    let aggregator = match v.get("aggregator")?.as_str()? {
        "sum" => GlobalAggregator::Sum,
        "min" => GlobalAggregator::Min,
        "max" => GlobalAggregator::Max,
        "avg" => GlobalAggregator::Avg,
        "count" => GlobalAggregator::Count,
        _ => return None,
    };
    let local = match v.get("local")?.as_str()? {
        "sum" => LocalWindow::Sum,
        "product" => LocalWindow::Product,
        _ => return None,
    };
    Some(GlobalUtility::with_parts(aggregator, local))
}

/// The `POST /v1/query` response body for a single-document query with
/// `"acc": true`: each result carries its raw accumulator, and the
/// document's utility function rides along so the caller can finish or
/// merge the accumulators itself.
pub fn query_acc_response_json(
    doc: &str,
    patterns: &[&[u8]],
    answers: &[(UtilityAccumulator, QuerySource)],
    utility: GlobalUtility,
) -> Json {
    let results = patterns
        .iter()
        .zip(answers)
        .map(|(p, (acc, source))| {
            Json::Obj(vec![
                ("pattern".into(), Json::Str(pattern_string(p))),
                ("occurrences".into(), Json::Num(acc.count() as f64)),
                ("value".into(), acc.finish(utility.aggregator).map_or(Json::Null, Json::Num)),
                ("source".into(), Json::str(source_name(*source))),
                ("acc".into(), acc_json(acc)),
            ])
        })
        .collect::<Vec<_>>();
    Json::Obj(vec![
        ("doc".into(), Json::str(doc)),
        ("results".into(), Json::Arr(results)),
        ("utility".into(), utility_json(utility)),
    ])
}

/// The `"doc": "*"` fan-out response with `"acc": true`: each result
/// gains the catalog-wide merged accumulator, and the shared utility
/// function (or `null` when documents disagree) rides along.
pub fn fan_out_acc_response_json(patterns: &[&[u8]], fans: &[FanOut]) -> Json {
    let results = patterns
        .iter()
        .zip(fans)
        .map(|(p, fan)| {
            let Json::Obj(mut members) = fan_out_json(p, fan) else { unreachable!() };
            members.push(("acc".into(), acc_json(&fan.total_acc)));
            Json::Obj(members)
        })
        .collect::<Vec<_>>();
    let utility = fans.first().and_then(|f| f.utility).map_or(Json::Null, utility_json);
    Json::Obj(vec![
        ("doc".into(), Json::str("*")),
        ("results".into(), Json::Arr(results)),
        ("utility".into(), utility),
    ])
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { message, offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v << 4 | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
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
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // high surrogate: must be followed by \uDC00..DFFF
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // copy one UTF-8 scalar (input is a &str: boundaries are valid)
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0b1100_0000 == 0b1000_0000 {
                        end += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Rust's f64 grammar is looser than JSON's (`01`, `1.`, `-.5`)
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() && is_json_number(text.as_bytes()) => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

/// Whether `text` is exactly one RFC 8259 §6 number:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    fn split(s: &[u8], at: impl Fn(&u8) -> bool) -> (&[u8], Option<&[u8]>) {
        match s.iter().position(at) {
            Some(i) => (&s[..i], Some(&s[i + 1..])),
            None => (s, None),
        }
    }
    let digits = |d: &[u8]| !d.is_empty() && d.iter().all(u8::is_ascii_digit);
    let unsigned = text.strip_prefix(b"-").unwrap_or(text);
    let (mantissa, exponent) = split(unsigned, |&b| b == b'e' || b == b'E');
    let (int, frac) = split(mantissa, |&b| b == b'.');
    let exponent_digits =
        |e: &[u8]| digits(e.strip_prefix(b"+").or(e.strip_prefix(b"-")).unwrap_or(e));
    digits(int)
        && (int == b"0" || int[0] != b'0')
        && frac.is_none_or(digits)
        && exponent.is_none_or(exponent_digits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(src: &str) -> String {
        Json::parse(src).unwrap().encode()
    }

    #[test]
    fn scalars() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-3.25"), "-3.25");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_preserve_order() {
        assert_eq!(roundtrip(r#"{"b":1,"a":[2,{"z":null}]}"#), r#"{"b":1,"a":[2,{"z":null}]}"#);
        assert_eq!(roundtrip("[]"), "[]");
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(roundtrip(" [ 1 , 2 ] "), "[1,2]");
    }

    #[test]
    fn string_escapes() {
        assert_eq!(Json::parse(r#""a\nb\t\"\\A""#).unwrap(), Json::str("a\nb\t\"\\A"));
        assert_eq!(Json::str("a\nb").encode(), r#""a\nb""#);
        assert_eq!(Json::str("\u{1}").encode(), "\"\\u0001\"");
        // surrogate pair: 𝄞 (U+1D11E)
        assert_eq!(Json::parse(r#""𝄞""#).unwrap(), Json::str("\u{1D11E}"));
        assert!(Json::parse(r#""\uD834""#).is_err());
        // non-ASCII passes through unescaped
        assert_eq!(roundtrip("\"héllo\""), "\"héllo\"");
    }

    #[test]
    fn numbers_encode_integrally_when_integral() {
        assert_eq!(Json::Num(24.0).encode(), "24");
        assert_eq!(Json::Num(14.6).encode(), "14.6");
        assert_eq!(Json::Num(-0.5).encode(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        // huge magnitudes stay parseable and round-trip exactly
        assert_eq!(Json::parse(&Json::Num(1e300).encode()).unwrap(), Json::Num(1e300));
        // so do -0, 2^53 and past it, subnormals and the extremes
        for n in
            [-0.0, 9_007_199_254_740_992.0, 9_007_199_254_740_994.0, 5e-324, f64::MAX, f64::MIN]
        {
            assert_eq!(Json::parse(&Json::Num(n).encode()), Ok(Json::Num(n)), "{n}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        // each is a valid Rust f64 literal but not a JSON number
        for bad in ["01", "00", "-01.5", "1.", "1.e5", "-.5"] {
            for (src, offset) in
                [(bad.to_string(), 0), (format!("[{bad}]"), 1), (format!(r#"{{"n":{bad}}}"#), 5)]
            {
                let err = Json::parse(&src).unwrap_err();
                assert_eq!((err.message, err.offset), ("invalid number", offset), "{src}");
            }
        }
        for (good, n) in [("0", 0.0), ("-0", -0.0), ("0.5", 0.5), ("1e5", 1e5), ("1E+2", 100.0)] {
            assert_eq!(Json::parse(good), Ok(Json::Num(n)), "{good}");
        }
    }

    proptest! {
        #[test]
        fn encoded_finite_numbers_parse_back(bits in any::<u64>()) {
            let n = f64::from_bits(bits);
            prop_assume!(n.is_finite());
            prop_assert_eq!(Json::parse(&Json::Num(n).encode()), Ok(Json::Num(n)));
        }

        #[test]
        fn fan_out_body_equals_the_reference_tree(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let patterns: Vec<Vec<u8>> = (0..rng.gen_range(0..=10))
                .map(|_| (0..rng.gen_range(0..6)).map(|_| awkward_byte(&mut rng)).collect())
                .collect();
            let ids: Vec<String> = (0..rng.gen_range(0..=5))
                .map(|_| (0..rng.gen_range(0..6)).map(|_| awkward_char(&mut rng)).collect())
                .collect();
            let fans: Vec<FanOut> = patterns
                .iter()
                .map(|_| FanOut {
                    per_doc: ids
                        .iter()
                        .map(|id| {
                            let q = UsiQuery {
                                value: awkward_value(&mut rng),
                                occurrences: awkward_count(&mut rng),
                                source: [QuerySource::HashTable, QuerySource::TextIndex]
                                    [rng.gen_range(0..2)],
                            };
                            (id.clone(), q)
                        })
                        .collect(),
                    total_occurrences: awkward_count(&mut rng),
                    total_value: awkward_value(&mut rng),
                    total_acc: UtilityAccumulator::new(),
                    utility: None,
                })
                .collect();
            let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(
                fan_out_response_body(&refs, &fans),
                fan_out_response_json(&refs, &fans).encode()
            );
        }

        #[test]
        fn nesting_to_the_depth_cap_round_trips(seed in any::<u64>(), levels in 0..=MAX_DEPTH) {
            let mut rng = StdRng::seed_from_u64(seed);
            for levels in [levels, MAX_DEPTH] {
                let (mut text, mut too_deep) = (String::new(), None);
                nest(&mut rng, 0, levels, &mut text, &mut too_deep);
                prop_assert_eq!(too_deep, None);
                prop_assert_eq!(Json::parse(&text).map(|v| v.encode()), Ok(text));
            }
        }

        #[test]
        fn one_level_past_the_cap_is_refused_where_it_starts(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut text, mut too_deep) = (String::new(), None);
            nest(&mut rng, 0, MAX_DEPTH + 1, &mut text, &mut too_deep);
            let err = Json::parse(&text).unwrap_err();
            prop_assert_eq!((err.message, Some(err.offset)), ("nesting too deep", too_deep));
        }
    }

    /// Writes, in canonical encoding, a random chain of arrays and
    /// objects that nests a value `levels` deep (the top-level value is
    /// at depth 0). Each container holds up to two shallow siblings
    /// beside the next link; the innermost value is a scalar or an
    /// empty container. `too_deep` gets the offset of the first value
    /// nested past `MAX_DEPTH`.
    fn nest(
        rng: &mut StdRng,
        depth: usize,
        levels: usize,
        out: &mut String,
        too_deep: &mut Option<usize>,
    ) {
        if depth > MAX_DEPTH && too_deep.is_none() {
            *too_deep = Some(out.len());
        }
        if depth == levels {
            const LEAVES: [&str; 8] = ["null", "true", "false", "24", "-0.5", "\"s\"", "[]", "{}"];
            out.push_str(LEAVES[rng.gen_range(0..LEAVES.len())]);
            return;
        }
        let object = rng.gen_bool(0.5);
        out.push(if object { '{' } else { '[' });
        let width = rng.gen_range(1..=3);
        let link = rng.gen_range(0..width);
        for i in 0..width {
            if i > 0 {
                out.push(',');
            }
            if object {
                out.push_str(&format!("\"k{i}\":"));
            }
            nest(rng, depth + 1, if i == link { levels } else { depth + 1 }, out, too_deep);
        }
        out.push(if object { '}' } else { ']' });
    }

    /// Pattern bytes that stress the encoder: quotes, backslashes,
    /// control bytes, UTF-8 lead and continuation bytes on their own
    /// (non-UTF-8 patterns), or any byte.
    fn awkward_byte(rng: &mut StdRng) -> u8 {
        const AWKWARD: &[u8] = b"a\"\\\x00\x1f\x7f\xc3\xa9\xf0\x9d\xff";
        if rng.gen_bool(0.5) {
            AWKWARD[rng.gen_range(0..AWKWARD.len())]
        } else {
            rng.gen()
        }
    }

    /// Document-id characters that stress the encoder: quotes,
    /// backslashes, every control character, and non-ASCII.
    fn awkward_char(rng: &mut StdRng) -> char {
        const AWKWARD: &[char] = &['d', '"', '\\', '/', '\u{7f}', 'é', '\u{2028}', '𝄞'];
        if rng.gen_bool(0.5) {
            AWKWARD[rng.gen_range(0..AWKWARD.len())]
        } else {
            char::from(rng.gen_range(0..0x20u8))
        }
    }

    /// `None`, the values whose encodings differ (NaN, ±∞, -0, integers
    /// past 2^53), or any bit pattern.
    fn awkward_value(rng: &mut StdRng) -> Option<f64> {
        const SPECIAL: [f64; 6] =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 9_007_199_254_740_994.0, 24.0];
        match rng.gen_range(0..3) {
            0 => None,
            1 => Some(SPECIAL[rng.gen_range(0..SPECIAL.len())]),
            _ => Some(f64::from_bits(rng.gen())),
        }
    }

    /// Small counts and counts past 2^53 (which encode as floats).
    fn awkward_count(rng: &mut StdRng) -> u64 {
        rng.gen::<u64>() >> rng.gen_range(0..64)
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("01a").is_err());
        let err = Json::parse("[nope]").unwrap_err();
        assert_eq!(err.offset, 1);
        // depth guard
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"doc":"*","patterns":["a","b"],"n":3}"#).unwrap();
        assert_eq!(v.get("doc").and_then(Json::as_str), Some("*"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("patterns").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("doc"), None);
    }
}
