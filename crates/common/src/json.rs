//! Minimal JSON: a value type, a recursive-descent parser, and compact /
//! pretty writers.
//!
//! The build environment is offline, so serde is unavailable; the few
//! places that need JSON (model-registry catalog export, trace and
//! benchmark reports) encode and decode through this module instead.
//! Numbers are written with Rust's shortest-roundtrip float formatting, so
//! an encode/decode cycle is bit-exact for finite `f64`s — the property
//! the registry snapshot round-trip depends on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::{AimError, Result};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object; insertion order is not preserved (keys sort), which is fine
    /// for catalog/checkpoint payloads.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Required object member, as an error-carrying accessor.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| AimError::InvalidInput(format!("json: missing field '{key}'")))
    }

    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_err("number", other)),
        }
    }

    /// Numeric member interpreted as an integer (JSON has only doubles).
    pub fn as_u64(&self) -> Result<u64> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&n) {
            return Err(AimError::InvalidInput(format!(
                "json: {n} is not an unsigned integer"
            )));
        }
        Ok(n as u64)
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(type_err("array", other)),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line encoding.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line encoding.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(map) => {
                let entries: Vec<(&String, &Json)> = map.iter().collect();
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    write_str(out, entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }
}

fn type_err(want: &str, got: &Json) -> AimError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    AimError::InvalidInput(format!("json: expected {want}, found {kind}"))
}

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        // {:?} is Rust's shortest representation that round-trips exactly.
        let _ = write!(out, "{n:?}");
    } else {
        // JSON has no NaN/inf; encode as null like serde_json's lossy mode.
        out.push_str("null");
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
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> AimError {
        AimError::InvalidInput(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our payloads;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
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

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_value() {
        let v = Json::obj(vec![
            ("name", Json::Str("m\"odel\n".into())),
            ("version", Json::Num(3.0)),
            ("tags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            (
                "nested",
                Json::obj(vec![(
                    "w",
                    Json::Arr(vec![Json::Num(1.5), Json::Num(-2.25), Json::Num(0.1)]),
                )]),
            ),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for &f in &[
            0.1,
            1.0 / 3.0,
            -2.2250738585072014e-308,
            1.7976931348623157e308,
            6.02e23,
            -0.0,
        ] {
            let text = Json::Num(f).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} -> {text} -> {back}");
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":}",
            "1 2",
            "nul",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_enforce_types() {
        let v = Json::parse("{\"n\": 4, \"s\": \"x\", \"frac\": 1.5}").unwrap();
        assert_eq!(v.field("n").unwrap().as_u64().unwrap(), 4);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert!(v.field("frac").unwrap().as_u64().is_err());
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_f64().is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Json::parse("\"h\\u00e9llo \\t\\\\\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo \t\\");
        let s = Json::Str("héllo \u{1}".into()).to_string_compact();
        assert_eq!(Json::parse(&s).unwrap().as_str().unwrap(), "héllo \u{1}");
    }
}
