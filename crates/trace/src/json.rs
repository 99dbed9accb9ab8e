//! The workspace's one JSON reader and string escaper.
//!
//! The workspace builds offline against a no-op `serde` shim, so the
//! Chrome exporter and the telemetry JSONL stream hand-write their JSON
//! and this module closes the loop: [`parse`] what we emit, re-emit what
//! we parsed, check the trace-event field contract, and check a JSONL
//! snapshot stream with [`validate_jsonl`] — all without an external JSON
//! dependency. It supports exactly the JSON subset the writers produce
//! (objects, arrays, strings with `\uXXXX` escapes and no raw control
//! characters, finite numbers, booleans, null).

use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their source order so a
/// parse → write → parse round trip is the identity.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects; `None` elsewhere or when absent.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize back to compact JSON (inverse of [`parse`]).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                // Integers print without a fraction so numeric tokens
                // survive a write → parse round trip unchanged.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape `s` as a JSON string literal (quotes included) into `out`.
pub fn escape_into(s: &str, out: &mut String) {
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

/// Escape `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
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
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
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
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.pos,
                self.peek().map(|c| c as char).unwrap_or('∅')
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|c| c as char).unwrap_or('∅'),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
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
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` sits on a character
                    // boundary, since it only ever steps over whole ones.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("a byte was peeked, so a character follows");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }

    /// A number in RFC 8259's grammar: `-`? int frac? exp?, where int has
    /// no leading zero and frac and exp each need a digit.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("{}: {e}", bad()))
    }
}

/// Validate a JSONL snapshot stream: blank lines are skipped, and every
/// other line must [`parse`] as a top-level object whose member values
/// are all scalars (no object or array) and which carries every
/// `required` key. Returns the number of lines validated.
pub fn validate_jsonl(text: &str, required: &[&str]) -> Result<usize, String> {
    let mut lines = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let err = |msg: String| format!("jsonl line {}: {msg}", lineno + 1);
        let JsonValue::Obj(members) = parse(raw).map_err(err)? else {
            return Err(err("not an object".into()));
        };
        if let Some((key, _)) = members
            .iter()
            .find(|(_, v)| matches!(v, JsonValue::Obj(_) | JsonValue::Arr(_)))
        {
            return Err(err(format!("nested value for {key:?} (flat objects only)")));
        }
        if let Some(want) = required
            .iter()
            .find(|want| !members.iter().any(|(k, _)| k == *want))
        {
            return Err(err(format!("missing key {want:?}")));
        }
        lines += 1;
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 1e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_num(), Some(1.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some(1000.0));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u04""#).is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for ok in ["0", "-0", "7", "-12.5", "1e3", "2.5E-7", "10e+2"] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
        for bad in [
            "NaN", "inf", "-inf", "01", "1.", "-.5", "1e", "1e+", "+1", "-", "1.2.3",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn write_parse_round_trip_is_identity() {
        let src = r#"{"ph":"X","ts":0.125,"dur":3,"args":{"alt":true,"name":"α·x \"q\""}}"#;
        let v = parse(src).unwrap();
        let written = v.write();
        assert_eq!(parse(&written).unwrap(), v);
        // Member order survives, so the second write is byte-stable.
        assert_eq!(parse(&written).unwrap().write(), written);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        let v = parse(&escape("\u{1}")).unwrap();
        assert_eq!(v.as_str(), Some("\u{1}"));
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        assert!(parse("\"a\tb\"").unwrap_err().contains("control"));
        assert!(parse("{\"k\":\"a\nb\"}").unwrap_err().contains("control"));
        assert!(parse("{\"a\tb\":1}").is_err());
        // The escaped spellings of the same characters parse.
        assert_eq!(parse(&escape("a\tb\n")).unwrap().as_str(), Some("a\tb\n"));
    }

    #[test]
    fn jsonl_round_trip() {
        let line = format!(
            "{{\"end_s\":1.5,\"jobs\":10,\"note\":{}}}",
            escape("a\"b\\c")
        );
        let text = format!("{line}\n{line}\n");
        assert_eq!(validate_jsonl(&text, &["end_s", "jobs"]), Ok(2));
        assert!(validate_jsonl(&text, &["missing"])
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn jsonl_rejects_nested_and_garbage() {
        assert!(validate_jsonl("{\"a\":{}}\n", &[]).is_err());
        assert!(validate_jsonl("not json\n", &[]).is_err());
        assert!(validate_jsonl("{\"a\":wat}\n", &[]).is_err());
    }
}
