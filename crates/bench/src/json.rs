//! A minimal, self-contained JSON parser (the workspace vendors no serde).
//!
//! Shared by the schema tests for the `--stats-format json`
//! evaluation-statistics document and the `--trace-out` Chrome trace-event
//! export (`tests/stats_json_schema.rs`), and for the `seqdl check --format
//! json` diagnostics (`tests/check_json_schema.rs`).  It parses exactly the JSON grammar — stricter than
//! `f64::from_str` on numbers — and rejects duplicate object keys, so the
//! hand-rolled writers in `seqdl-engine` and `seqdl-trace` are validated
//! against an independent reader.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is not preserved (duplicate keys are a parse
    /// error).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, or `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The object's map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.error(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.error("bad \\u hex"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u hex"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.error(&format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.error("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        // `f64::from_str` is laxer than the JSON grammar (it accepts `+1`,
        // `1.`, `.5`, `01`); validate the token shape strictly first.
        if !json_number_shape(text) {
            return Err(self.error("invalid number"));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Does `text` match the JSON number grammar
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)?
fn json_number_shape(text: &str) -> bool {
    let mut rest = text.strip_prefix('-').unwrap_or(text).as_bytes();
    // Integer part: `0` or a nonzero-led digit run.
    match rest {
        [b'0', tail @ ..] => rest = tail,
        [b'1'..=b'9', ..] => {
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            rest = &rest[digits..];
        }
        _ => return false,
    }
    if let [b'.', tail @ ..] = rest {
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    if let [b'e' | b'E', tail @ ..] = rest {
        let tail = match tail {
            [b'+' | b'-', t @ ..] => t,
            t => t,
        };
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    rest.is_empty()
}

/// Parse one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// A description of the first syntax error with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\": }",
            "[1, 2,, 3]",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            // Numbers f64::from_str accepts but the JSON grammar does not.
            "{\"a\": +1}",
            "{\"a\": 1.}",
            "{\"a\": .5}",
            "{\"a\": 01}",
            "{\"a\": 1e}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed JSON: {bad:?}");
        }
        assert!(parse("{\"x\": [1, 2.5, -3e2, 1e+4, 0.25E-2, true, null, \"s\"]}").is_ok());
    }

    #[test]
    fn accessors_narrow_by_type() {
        let doc = parse("{\"n\": 2, \"s\": \"x\", \"a\": [1], \"o\": {}}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_number), Some(2.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert!(doc.get("o").and_then(Json::as_object).is_some());
        assert!(doc.get("missing").is_none());
        assert!(doc.as_number().is_none());
    }
}
