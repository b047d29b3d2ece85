//! Dependency-free JSON support for the experiment harness.
//!
//! The build environment has no crates.io access, so rather than shimming
//! `serde`'s derive machinery the harness serializes through this small
//! crate: a [`Json`] value type with an order-preserving object
//! representation, a pretty printer, a strict parser (for
//! `compare_results`), the [`json!`] literal macro, and the
//! [`impl_to_json!`] macro that replaces `#[derive(Serialize)]` on the flat
//! result-row structs.
//!
//! Numbers are stored as `f64`, which is exact for every count the harness
//! emits (< 2^53) and matches how `compare_results` consumes them.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// A JSON value. Object member order is preserved so emitted files are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
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

    /// Serializes with two-space indentation and `\n` line endings.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Serializes to a single line with no whitespace — the JSONL form the
    /// checkpoint journal appends, one value per line. Numbers use the same
    /// shortest-roundtrip formatting as the pretty printer, so a value
    /// parsed back from its compact form is bit-identical.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; emit null like serde_json's lossy mode.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer fast path would print "-0.0 as i64" = "0", silently
        // dropping the sign; "-0" parses back to negative zero, keeping the
        // similarity-cache round trip bit-exact.
        out.push_str("-0");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into [`Json`]; the harness's replacement for `serde::Serialize`.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_to_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

impl_to_json_num!(f32, f64, i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Pretty-prints any [`ToJson`] value.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Single-line-prints any [`ToJson`] value (JSONL form).
pub fn to_string_compact<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Implements [`ToJson`] for a struct with the listed fields, emitting an
/// object whose keys are the field names in the listed order — the drop-in
/// replacement for `#[derive(Serialize)]` on flat result-row structs.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// Builds a [`Json`] literal: `json!({ "k": expr, ... })`, `json!([a, b])`,
/// or a scalar. Values are converted through [`ToJson`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Json::Obj(vec![
            $(($key.to_string(), $crate::json!($value)),)*
        ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Json::Arr(vec![$($crate::json!($item),)*])
    };
    ($value:expr) => { $crate::ToJson::to_json(&$value) };
}

/// A parse failure with byte position and message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset the error was detected at.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`from_str`] accepts — serde_json's default
/// recursion limit. The parser recurses once per level, so the cap bounds
/// its stack use: without it, a body of a few hundred thousand `[` bytes
/// overflows a 2 MiB thread stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed). Nesting
/// deeper than [`MAX_DEPTH`] is a [`ParseError`].
pub fn from_str(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is valid UTF-8:
                    // it came from &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        // self.pos is at the 'u'.
        let hex4 = |p: &mut Self| -> Result<u32, ParseError> {
            p.pos += 1; // past 'u'
            if p.pos + 4 > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..p.pos + 4])
                .map_err(|_| p.err("bad \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| p.err("bad \\u escape"))?;
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low half.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    let lo = hex4(self)?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                    }
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { at: start, message: format!("bad number '{text}'") })
    }
}

/// Breadth-first iterator over all values in a document (self included);
/// handy for tests and tooling.
pub fn walk(root: &Json) -> impl Iterator<Item = &Json> {
    let mut queue: VecDeque<&Json> = VecDeque::from([root]);
    std::iter::from_fn(move || {
        let next = queue.pop_front()?;
        match next {
            Json::Arr(items) => queue.extend(items.iter()),
            Json::Obj(members) => queue.extend(members.iter().map(|(_, v)| v)),
            _ => {}
        }
        Some(next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_round_trips_bit_exactly() {
        let text = Json::Num(-0.0).to_string_compact();
        assert_eq!(text, "-0");
        let back = from_str(&text).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Positive zero keeps the plain integer form.
        assert_eq!(Json::Num(0.0).to_string_compact(), "0");
    }

    #[test]
    fn pretty_round_trip() {
        let doc = json!({
            "algo": "IsoRank",
            "acc": 0.75,
            "reps": 3usize,
            "skipped": false,
            "err": Json::Null,
            "tags": json!(["a", "b"]),
        });
        let text = doc.to_string_pretty();
        let back = from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("algo").and_then(Json::as_str), Some("IsoRank"));
        assert_eq!(back.get("acc").and_then(Json::as_f64), Some(0.75));
        assert_eq!(back.get("skipped").and_then(Json::as_bool), Some(false));
        assert_eq!(back.get("err"), Some(&Json::Null));
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let doc = json!({
            "algo": "IsoRank",
            "acc": 0.123456789012345,
            "msg": "line1\nline2 \"quoted\"",
            "tags": json!([1, Json::Null, true]),
        });
        let line = doc.to_string_compact();
        assert!(!line.contains('\n'), "compact output must be one line: {line}");
        assert!(!line.contains(": "), "no space after ':' in compact form");
        assert_eq!(from_str(&line).unwrap(), doc);
    }

    #[test]
    fn compact_numbers_round_trip_bit_exactly() {
        // f64 Display is shortest-roundtrip in Rust, so parse-back must
        // reproduce the exact bits — the property journal resume relies on.
        for bits in
            [0x3FB999999999999Au64, 0x3FF0000000000001, 0x7FEFFFFFFFFFFFFF, 0x0000000000000001]
        {
            let v = f64::from_bits(bits);
            let line = json!(v).to_string_compact();
            let back = from_str(&line).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits, "value {v:e}");
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(json!(3usize).to_string_pretty(), "3");
        assert_eq!(json!(-7i64).to_string_pretty(), "-7");
        assert_eq!(json!(0.5f64).to_string_pretty(), "0.5");
    }

    #[test]
    fn struct_macro_serializes_fields_in_order() {
        struct Row {
            name: String,
            score: f64,
            n: usize,
        }
        impl_to_json!(Row { name, score, n });
        let row = Row { name: "x".into(), score: 1.5, n: 2 };
        let j = row.to_json();
        match &j {
            Json::Obj(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["name", "score", "n"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        let rows = vec![row];
        let text = to_string_pretty(&rows);
        assert_eq!(from_str(&text).unwrap(), Json::Arr(vec![j]));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"unterminated").is_err());
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let parsed = from_str(&nested(MAX_DEPTH)).expect("depth 128 parses");
        assert_eq!(walk(&parsed).count(), MAX_DEPTH);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_str(&objects).is_ok());
        let too_deep = from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(too_deep.at, MAX_DEPTH);
        assert!(too_deep.message.contains("nesting"), "{too_deep}");
        // Unclosed and far past the cap: a classified error, not a stack
        // overflow, even on a thread with the 2 MiB default stack.
        let hostile = "[".repeat(200_000);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_str(&hostile).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(err.at, MAX_DEPTH);
        let mixed = "{\"k\":[".repeat(100);
        assert!(from_str(&mixed).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = from_str(r#""a\n\t\"\\ é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\ é 😀"));
    }

    #[test]
    fn parser_handles_numbers() {
        for (text, want) in
            [("0", 0.0), ("-12", -12.0), ("3.5", 3.5), ("1e3", 1000.0), ("-2.5E-2", -0.025)]
        {
            assert_eq!(from_str(text).unwrap().as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn nonfinite_numbers_serialize_as_null() {
        assert_eq!(json!(f64::NAN).to_string_pretty(), "null");
        assert_eq!(json!(f64::INFINITY).to_string_pretty(), "null");
    }

    #[test]
    fn walk_visits_every_node() {
        let doc = json!({ "a": json!([1, 2]), "b": "s" });
        assert_eq!(walk(&doc).count(), 5);
    }
}
