//! The workspace's one JSON codec: every JSON document the workspace
//! writes (trace lines, L1 cache JSONL, `--metrics` snapshots, lint
//! reports, `BENCH_*.json`) is a [`Json`] value rendered by
//! its [`Display`](fmt::Display) impl, and every one it reads goes through
//! [`Json::parse`].
//!
//! Deliberately small: objects, arrays, strings, numbers, booleans and
//! `null`. Numbers keep the integer/float distinction ([`Json::Int`] vs
//! [`Json::Float`]) so `u64` counters round-trip exactly instead of passing
//! through `f64`'s 53-bit mantissa. The format decisions live here alone:
//!
//! * `{}` renders compact JSON with no whitespace; `{:#}` indents by two
//!   spaces per level, keeping arrays of scalars on one line;
//! * [`Json::Float`] renders in Rust's shortest round-trip `{:?}` form, so
//!   the token always carries a `.` or an exponent and parses back as a
//!   float; non-finite floats render as `null`;
//! * strings are escaped by [`escape`]'s rules.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number token with no `.`/`e`/`-` that fits a `u64`.
    Int(u64),
    /// Any other number token; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys are kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` entries, in iteration order.
    #[must_use]
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one complete JSON value; `None` on any syntax error or
    /// trailing garbage.
    #[must_use]
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i == p.b.len() {
            Some(v)
        } else {
            None
        }
    }

    /// The object entries, or `None` for non-objects.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The array elements, or `None` for non-arrays.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string value, or `None` for non-strings.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, or `None` for anything else (floats included —
    /// callers that want coercion use [`Json::as_f64`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `f64`, coercing [`Json::Int`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Writes the value; `indent` is the current depth when pretty
    /// printing, `None` for compact output.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_quoted(f, s),
            Json::Arr(items) => {
                // Arrays of scalars (bucket counts, per-window series) stay
                // on one line even when pretty printing.
                let inline = items
                    .iter()
                    .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
                write_seq(f, indent, inline, ('[', ']'), items, |f, v, inner| {
                    v.write(f, inner)
                })
            }
            Json::Obj(entries) => {
                write_seq(f, indent, false, ('{', '}'), entries, |f, (k, v), inner| {
                    write_quoted(f, k)?;
                    f.write_str(if inner.is_some() { ": " } else { ":" })?;
                    v.write(f, inner)
                })
            }
        }
    }
}

/// Renders compact JSON with `{}` and two-space indented JSON with `{:#}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// Writes `open item, item close`: compact, on one line (`inline`), or one
/// item per line indented a level deeper than `indent`.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    inline: bool,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut fmt::Formatter<'_>, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let inner = indent.map(|n| n + 1);
    let newline =
        |f: &mut fmt::Formatter<'_>, depth: usize| write!(f, "\n{:width$}", "", width = 2 * depth);
    f.write_char(open)?;
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        match inner {
            Some(depth) if !inline => newline(f, depth)?,
            Some(_) if i > 0 => f.write_char(' ')?,
            _ => {}
        }
        item(f, v, inner)?;
    }
    if let Some(depth) = indent.filter(|_| !inline && !items.is_empty()) {
        newline(f, depth)?;
    }
    f.write_char(close)
}

/// Writes `s` as a quoted JSON string.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            '\r' => out.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Escapes a string for embedding between JSON double quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    // Writing into a `String` cannot fail.
    let _ = write_escaped(&mut out, s);
    out
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Some(Json::Obj(out));
        }
        loop {
            let k = {
                self.skip_ws();
                self.string()?
            };
            self.eat(b':')?;
            let v = self.value()?;
            out.push((k, v));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Some(Json::Obj(out));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Some(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Some(Json::Arr(out));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.b.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let start = self.i;
        // Fast path: no escapes, raw UTF-8 slice between the quotes.
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    let s = std::str::from_utf8(&self.b[start..self.i]).ok()?;
                    self.i += 1;
                    return Some(s.to_string());
                }
                b'\\' => break,
                _ => self.i += 1,
            }
        }
        // Slow path: decode escapes.
        let mut out = std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .to_string();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.b.get(self.i)?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8 after an escape: re-sync on char
                    // boundaries via the remaining slice.
                    let rest = std::str::from_utf8(&self.b[self.i - 1..]).ok()?;
                    let ch = rest.chars().next()?;
                    out.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
        None
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).ok()?;
        // Integer tokens (no '.', exponent or sign) stay exact as u64.
        if let Ok(v) = tok.parse::<u64>() {
            return Some(Json::Int(v));
        }
        // Everything else must parse as a *finite* float: no writer of
        // ours emits non-finite numbers (they render as null), and a
        // token like "1e999" silently rounding to infinity would poison
        // downstream arithmetic.
        tok.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Json::Float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a":[1,2.5,null,"x"],"b":{"c":-3}}"#).expect("parses");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        let a = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert!(matches!(a[1], Json::Float(_)));
        assert_eq!(a[2], Json::Null);
        assert_eq!(a[3].as_str(), Some("x"));
        assert!(matches!(
            v.get("b").and_then(|b| b.get("c")),
            Some(Json::Float(_))
        ));
    }

    #[test]
    fn booleans_parse() {
        let v = Json::parse(r#"{"ok":true,"flags":[false, true]}"#).expect("parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("flags").and_then(Json::as_arr),
            Some(&[Json::Bool(false), Json::Bool(true)][..])
        );
        for bad in ["tru", "fals", "truee", "True"] {
            assert_eq!(Json::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn writer_output_parses_back_compact_and_pretty() {
        let v = Json::obj([
            ("max", Json::Int(u64::MAX)),
            (
                "floats",
                Json::from_iter([-0.0, 1e-7, 3.0, 2.5e300, -12.75]),
            ),
            (
                "text",
                Json::from(
                    "quote\" back\\ nl\n tab\t cr\r ctl\u{1}\u{1f} caf\u{e9} \u{6f22}\u{1f600}",
                ),
            ),
            (
                "flags",
                Json::Arr(vec![true.into(), false.into(), Json::Null]),
            ),
            (
                "nested",
                Json::obj([
                    ("empty_obj", Json::obj::<&str>([])),
                    ("empty_arr", Json::Arr(Vec::new())),
                    (
                        "rows",
                        Json::Arr(vec![Json::obj([("k\"ey", Json::Int(1))])]),
                    ),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_string()), Some(v.clone()));
        assert_eq!(Json::parse(&format!("{v:#}")), Some(v.clone()));
        // -0.0 == 0.0 under PartialEq, so pin the sign in the text.
        assert_eq!(Json::Float(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Float(1e-7).to_string(), "1e-7");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let arr = Json::Arr(vec![Json::Float(bad)]);
            assert_eq!(arr.to_string(), "[null]");
            assert_eq!(
                Json::parse(&format!("{arr:#}")),
                Some(Json::Arr(vec![Json::Null]))
            );
        }
    }

    #[test]
    fn pretty_layout_indents_containers_and_inlines_scalar_arrays() {
        let v = Json::obj([
            ("a", Json::from_iter([1u64, 2])),
            ("b", Json::obj([("c", Json::Null)])),
            ("d", Json::Arr(Vec::new())),
            ("e", Json::Arr(vec![Json::obj([("f", Json::Bool(false))])])),
        ]);
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": [1, 2],\n  \"b\": {\n    \"c\": null\n  },\n  \"d\": [],\n  \
             \"e\": [\n    {\n      \"f\": false\n    }\n  ]\n}"
        );
        assert_eq!(
            v.to_string(),
            r#"{"a":[1,2],"b":{"c":null},"d":[],"e":[{"f":false}]}"#
        );
    }

    #[test]
    fn large_integers_stay_exact() {
        let v = Json::parse(&format!("{{\"n\":{}}}", u64::MAX)).expect("parses");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(u64::MAX));
        assert!(v.get("n").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert_eq!(Json::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let original = "a\"b\\c\nd\te\rf\u{1}g µ";
        let encoded = format!("\"{}\"", escape(original));
        let parsed = Json::parse(&encoded).expect("parses");
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn truncated_documents_are_rejected() {
        // Prefixes of a valid line, as left behind by a torn write.
        let full = r#"{"ts_ns":12,"kind":"span","name":"sweep.point","fields":{"total_ns":9}}"#;
        assert!(Json::parse(full).is_some());
        for cut in 1..full.len() {
            assert_eq!(
                Json::parse(&full[..cut]),
                None,
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn unicode_escapes_decode_and_surrogates_are_rejected() {
        // \u escapes decode to their scalar values, mixed freely with
        // literal multi-byte UTF-8 after the first escape.
        assert_eq!(
            Json::parse("\"caf\\u00e9\"").and_then(|v| v.as_str().map(String::from)),
            Some("caf\u{e9}".to_string())
        );
        assert_eq!(
            Json::parse("\"A\\u6f22\u{6c49}\"").and_then(|v| v.as_str().map(String::from)),
            Some("A\u{6f22}\u{6c49}".to_string())
        );
        // Surrogate code points (D800-DFFF) are not scalar values; lone
        // and paired surrogate escapes are rejected (the codec never
        // emits them -- non-BMP chars pass through as raw UTF-8, which
        // still parses).
        assert_eq!(Json::parse("\"\\ud800\""), None);
        assert_eq!(Json::parse("\"\\udfff\""), None);
        assert_eq!(Json::parse("\"\\ud83d\\ude00\""), None);
        assert_eq!(
            Json::parse("\"\u{1f600}\"").and_then(|v| v.as_str().map(String::from)),
            Some("\u{1f600}".to_string())
        );
        // Truncated and non-hex escapes fail cleanly too.
        assert_eq!(Json::parse("\"\\u00\""), None);
        assert_eq!(Json::parse("\"\\uzzzz\""), None);
    }

    #[test]
    fn huge_integers_overflow_to_float_not_garbage() {
        // u64::MAX parses exactly; one past it no longer fits and falls
        // through to the (lossy but finite) float path.
        let v = Json::parse("18446744073709551615").expect("u64::MAX parses");
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::parse("18446744073709551616").expect("2^64 parses as float");
        assert_eq!(v.as_u64(), None);
        assert!(matches!(v, Json::Float(f) if f.is_finite()));
    }

    #[test]
    fn non_finite_number_tokens_are_rejected() {
        for bad in ["1e999", "-1e999", "1e+400", "nan", "inf", "-inf"] {
            assert_eq!(Json::parse(bad), None, "{bad:?} must not parse");
        }
        // The finite edge of the exponent range still parses.
        assert!(matches!(Json::parse("1e308"), Some(Json::Float(_))));
    }
}
