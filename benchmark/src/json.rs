//! A minimal JSON value: enough to print the run reports and to read them
//! (and `BENCHMARK.json`) back for `selftest` and `compare`.  The workspace
//! has no JSON crate offline, and the benchmark must not add dependencies.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so printed reports keep their field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes on one line.  Non-finite numbers have no JSON form and are
    /// written as `null`; the run treats a non-finite metric as a failed
    /// check before it gets here.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with one element per line for containers that hold other
    /// containers, and flat containers on one line — readable diffs for
    /// `BENCHMARK.json`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(0, &mut out);
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(fields) => fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            _ => true,
        }
    }

    fn write_pretty(&self, depth: usize, out: &mut String) {
        if self.is_flat() {
            return self.write(out);
        }
        let pad = "  ".repeat(depth + 1);
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        out.push(open);
        let count = match self {
            Json::Arr(items) => items.len(),
            Json::Obj(fields) => fields.len(),
            _ => 0,
        };
        for i in 0..count {
            out.push('\n');
            out.push_str(&pad);
            match self {
                Json::Arr(items) => items[i].write_pretty(depth + 1, out),
                Json::Obj(fields) => {
                    write_string(&fields[i].0, out);
                    out.push_str(": ");
                    fields[i].1.write_pretty(depth + 1, out);
                }
                _ => {}
            }
            if i + 1 < count {
                out.push(',');
            }
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    /// Describes the first byte offset that is not valid JSON.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.at)
    }

    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut fields = Vec::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_space();
            if self.bytes.get(self.at) != Some(&b'"') {
                return Err(self.error("expected a key"));
            }
            let key = self.string()?;
            self.skip_space();
            if self.bytes.get(self.at) != Some(&b':') {
                return Err(self.error("expected ':'"));
            }
            self.at += 1;
            fields.push((key, self.value()?));
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escaped = match self.bytes.get(self.at) {
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs never occur in our own files.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        _ => return Err(self.error("bad escape")),
                    };
                    self.at += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(
                self.bytes[self.at],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Json::obj([
            ("name", Json::str("a \"quoted\"\nline")),
            ("n", Json::Num(1.2034)),
            ("count", Json::Num(1000.0)),
            ("tiny", Json::Num(0.000012034)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::Num(-3.0))])),
        ]);
        let line = value.to_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"count\": 1000,"), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), value);
        let pretty = value.to_pretty();
        assert!(pretty.lines().count() > 3);
        assert_eq!(Json::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"open",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }
}
