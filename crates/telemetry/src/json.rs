//! The workspace's one JSON module: the string escaper every exporter
//! writes with, and a minimal recursive-descent parser (RFC 8259 subset)
//! that reads the documents back.
//!
//! The workspace builds fully offline, so nothing can pull in a JSON
//! crate; the documents read here are machine-written by the exporters
//! (flat strings, no exotic escapes), which this parser covers
//! completely. Numbers parse as `f64`; `\uXXXX` escapes decode the BMP
//! and reject lone surrogates. Nesting deeper than [`MAX_DEPTH`] is an
//! error rather than a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes nests at most a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Escapes a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description (with byte offset) of the first
/// syntax error, of nesting deeper than [`MAX_DEPTH`], or of trailing
/// garbage after the document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread input; always on a char boundary.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{s}' at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u{code:04x} escape"))?;
                            out.push(c);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, however many bytes it spans.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or("incomplete \\u escape")?;
        let code = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_report_shaped_document() {
        let doc = r#"{"id":"fig01","notes":["a \"quoted\" note"],
            "tables":[{"title":"T","headers":["h1","h2"],
            "rows":[["1.00x","60.7%"],["2.50ms","3.00GB"]]}],"n":-1.5e2}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig01"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(-150.0));
        let tables = v.get("tables").unwrap().as_arr().unwrap();
        let rows = tables[0].get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("3.00GB"));
        assert_eq!(
            v.get("notes").unwrap().as_arr().unwrap()[0].as_str(),
            Some("a \"quoted\" note")
        );
    }

    #[test]
    fn escapes_decode() {
        let v = parse(r#""a\n\tA\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "tru", "[1]x"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_lone_surrogate_escape() {
        assert!(parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let nasty = "q\"b\\s\n\u{1f}é";
        assert_eq!(
            parse(&format!("\"{}\"", escape(nasty))).unwrap().as_str(),
            Some(nasty)
        );
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&too_deep).unwrap_err().contains("nesting"));
        // A million unclosed brackets on a 2 MiB thread (the test-harness
        // default) would abort the process without the cap.
        let huge = "[".repeat(1_000_000);
        let objects = "{\"k\":".repeat(1_000_000);
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                assert!(parse(&huge).is_err());
                assert!(parse(&objects).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each character decodes in place, which takes milliseconds here;
        // re-validating the rest of the document per character would check
        // about 4e10 bytes.
        let body = "é".repeat(200_000);
        let started = std::time::Instant::now();
        let v = parse(&format!("[\"{body}\"]")).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "string decoding is not linear: {:?}",
            started.elapsed()
        );
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
    }

    #[test]
    fn empty_containers_and_unicode() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
    }
}
