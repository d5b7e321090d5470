//! Minimal strict JSON: a recursive-descent parser, its inverse
//! (`Display` for [`Json`]) and a string escaper for the writers that
//! stream one record at a time.
//!
//! This is the workspace's one JSON implementation (no serde in the
//! tree). It started life inside `bench`'s schema tests and moved here
//! so the flight recorder, the trace validator, the bench artifacts
//! and the `scrub` CLI all share a single strict dialect: no
//! trailing garbage, no trailing commas, no unquoted keys, no bare
//! `inf`/`nan` tokens.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Minimal JSON value — just enough to validate and read artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers are exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric member of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Array member of an object.
    pub fn arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key) {
            Some(Json::Arr(a)) => Some(a),
            _ => None,
        }
    }

    /// String member of an object.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Boolean member of an object.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Every number reachable from this value, depth first.
    pub fn numbers(&self, out: &mut Vec<f64>) {
        match self {
            Json::Num(n) => out.push(*n),
            Json::Arr(a) => a.iter().for_each(|v| v.numbers(out)),
            Json::Obj(m) => m.values().for_each(|v| v.numbers(out)),
            _ => {}
        }
    }
}

/// An object from `(key, value)` pairs.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// f64 Display writes bare `inf`/`NaN`, which the strict parser (and
// JSON itself) rejects; clamp non-finite values to 0 so one
// pathological timing can't poison the whole document.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Writes the document [`parse`] reads back: numbers in their shortest
/// round-trip form (non-finite ones clamped to 0), strings through
/// [`escape`], object keys sorted. A container of scalars is one line;
/// a container holding containers puts each member on its own line,
/// indented two spaces per level.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{}", finite(*n)),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                write_members(f, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(map) => write_members(
                f,
                indent,
                ['{', '}'],
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let nested = members
        .clone()
        .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    let last = members.len().saturating_sub(1);
    f.write_char(open)?;
    for (i, (key, value)) in members.enumerate() {
        if nested {
            write!(f, "\n{:1$}", "", indent + 2)?;
        } else if i > 0 {
            f.write_char(' ')?;
        }
        if let Some(key) = key {
            write!(f, "\"{}\": ", escape(key))?;
        }
        value.write(f, indent + 2)?;
        if i < last {
            f.write_char(',')?;
        }
    }
    if nested {
        write!(f, "\n{:1$}", "", indent)?;
    }
    f.write_char(close)
}

/// Parse `text` as one strict JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    Parser::parse(text)
}

/// Escape `s` for embedding inside a double-quoted JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Arrays and objects nested deeper than this are a parse error: the
/// parser recurses once per level, and a line of `[`s must not overflow
/// its stack. The documents written here nest 10 levels at most
/// (`REPRO.json`).
const MAX_DEPTH: usize = 128;

/// Strict recursive-descent JSON parser: rejects trailing garbage,
/// trailing commas, unquoted keys, bare `inf`/`nan` tokens and nesting
/// past [`MAX_DEPTH`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
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

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    /// An object or array one level further down.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                c => return Err(format!("expected ',' or '}}' , found '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => return Err(format!("expected ',' or ']', found '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape")
                        .copied()?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            // No surrogate-pair support: this dialect only
                            // ever writes \u for C0 control characters.
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                Some(&b) => {
                    s.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": inf}",
            "{\"a\": NaN}",
            "{\"a\": 1} x",
            "{'a': 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
        let ok = parse("{\"a\": [1, 2.5e-3, -4], \"b\": {\"c\": true}}").unwrap();
        assert_eq!(ok.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        let mut nums = Vec::new();
        ok.numbers(&mut nums);
        assert_eq!(nums.len(), 3);
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            let deepest = parse(&nest(open, close, MAX_DEPTH)).unwrap();
            let mut nums = Vec::new();
            deepest.numbers(&mut nums);
            assert_eq!(nums, [1.0]);
            let err = parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.starts_with("nested deeper than 128 levels"), "{err}");
        }
        // Unclosed, and far deeper than any stack holds frames for.
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.starts_with("nested deeper than"), "{err}");
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_eq!(v.str_of("k"), Some(nasty));
    }

    #[test]
    fn display_is_the_inverse_of_parse() {
        let doc = Json::Obj(BTreeMap::from([
            ("name".to_string(), Json::Str("a\"b\\c\nd\u{1}".into())),
            ("empty".to_string(), Json::Arr(Vec::new())),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            (
                "rows".to_string(),
                Json::Arr(vec![
                    Json::Obj(BTreeMap::from([
                        ("secs".to_string(), Json::Num(1.25e-7)),
                        ("bytes".to_string(), Json::Num(9_007_199_254_740_991.0)),
                    ])),
                    Json::Arr(vec![Json::Num(-0.5), Json::Num(3.0)]),
                ]),
            ),
        ]));
        let text = doc.to_string();
        assert_eq!(parse(&text).as_ref(), Ok(&doc), "{text}");
        // Scalars-only containers stay on one line, nesting indents.
        assert!(text.contains("\n    [-0.5, 3]\n"), "{text}");
        assert!(
            text.contains("{\"bytes\": 9007199254740991, \"secs\": 0.000000125}"),
            "{text}"
        );

        // inf/NaN are not JSON: clamped, so the document still parses.
        let bad = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::NEG_INFINITY)]);
        assert_eq!(bad.to_string(), "[0, 0]");
    }

    #[test]
    fn accessors_cover_all_shapes() {
        let v = parse("{\"n\": 3, \"s\": \"x\", \"b\": false, \"a\": [null]}").unwrap();
        assert_eq!(v.num("n"), Some(3.0));
        assert_eq!(v.str_of("s"), Some("x"));
        assert_eq!(v.bool_of("b"), Some(false));
        assert_eq!(v.arr("a").map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.num("n"), None);
    }
}
