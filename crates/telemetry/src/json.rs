//! Minimal JSON reader/writer for telemetry snapshots and the serve
//! daemon's reports: one value type, [`JsonValue`], read by [`parse`]
//! and written by [`JsonValue::write`]; [`string`] is the workspace's
//! one JSON string escaper.
//!
//! The workspace deliberately vendors no serialization framework, so a
//! report builds a [`JsonValue`] with [`object()`] and [`array()`] and
//! writes it compactly on one line; a small recursive-descent parser
//! reads it back. The dialect is the subset reports need — objects,
//! arrays, strings, and unsigned integers — plus `true`/`false`/`null`
//! and signed/float numbers, which parse but only integers convert via
//! [`JsonValue::as_u64`].

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Object, as declaration-ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
    /// Array.
    Array(Vec<JsonValue>),
    /// String (escapes decoded).
    String(String),
    /// Any number, kept as f64 (telemetry only ever writes u64s that
    /// fit f64's 53-bit mantissa in practice; exact u64s round-trip via
    /// the raw text, see [`JsonValue::as_u64`]).
    Number(f64),
    /// Exact unsigned integer (the common case for telemetry).
    Unsigned(u64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl JsonValue {
    /// Member lookup on objects; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The elements of an array; `None` on anything else.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Unsigned(v) => Some(*v),
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float (any JSON number qualifies; exact u64s
    /// beyond f64's 53-bit mantissa round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            JsonValue::Unsigned(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Append the value to `out` as compact JSON on one line: `": "`
    /// after each key, `", "` between members and items.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    string(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::String(s) => string(out, s),
            JsonValue::Number(v) if v.is_finite() => out.push_str(&v.to_string()),
            // JSON has no literal for a non-finite number.
            JsonValue::Number(_) | JsonValue::Null => out.push_str("null"),
            JsonValue::Unsigned(v) => out.push_str(&v.to_string()),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// The compact form [`JsonValue::write`] appends.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Unsigned(v)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

/// An object of `members`, keys in the order given.
pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of `items`, in order.
pub fn array<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
    JsonValue::Array(items.into_iter().map(Into::into).collect())
}

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} of JSON input",
            ch as char, *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected '{}' at byte {}", *c as char, *pos)),
        None => Err("unexpected end of JSON input".to_string()),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy continuation bytes through.
                let start = *pos - 1;
                let len = utf8_len(c);
                let end = start + len;
                let slice = bytes
                    .get(start..end)
                    .ok_or_else(|| "truncated UTF-8".to_string())?;
                out.push_str(std::str::from_utf8(slice).map_err(|_| "invalid UTF-8")?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number")?;
    if let Ok(v) = text.parse::<u64>() {
        return Ok(JsonValue::Unsigned(v));
    }
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number '{text}'"))
}

/// Append `value` as a quoted JSON string: `"` and `\` are
/// backslash-escaped and control characters become `\u00XX`.
pub fn string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": {"b": [1, 2, {"c": 3}]}, "d": "x\ny"}"#).unwrap();
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("b"))
                .and_then(JsonValue::as_array)
                .map(|arr| arr.len()),
            Some(3)
        );
        assert_eq!(v.get("d").and_then(JsonValue::as_str), Some("x\ny"));
    }

    #[test]
    fn exact_u64_values_survive() {
        let v = parse(&format!("{{\"big\": {}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn floats_and_keywords_parse() {
        let v = parse(r#"{"f": -1.5e2, "t": true, "n": null}"#).unwrap();
        assert_eq!(v.get("f"), Some(&JsonValue::Number(-150.0)));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("f").and_then(JsonValue::as_u64), None);
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let tricky = "a\"b\\c\nd\u{1}e";
        let mut out = String::new();
        string(&mut out, tricky);
        assert_eq!(out, r#""a\"b\\c\u000ad\u0001e""#);
        assert_eq!(parse(&out).unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn written_values_parse_back_equal() {
        let value = object([
            ("n", JsonValue::from(u64::MAX)),
            ("s", JsonValue::from("a\"b\n")),
            ("a", array([1u64, 2])),
            ("e", array(Vec::<u64>::new())),
            ("o", object(Vec::<(String, JsonValue)>::new())),
            ("f", JsonValue::Number(-2.5)),
            ("t", JsonValue::Bool(true)),
            ("z", JsonValue::Null),
        ]);
        let text = value.to_string();
        assert_eq!(
            text,
            r#"{"n": 18446744073709551615, "s": "a\"b\u000a", "a": [1, 2], "e": [], "o": {}, "f": -2.5, "t": true, "z": null}"#
        );
        assert_eq!(parse(&text).unwrap(), value);
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn as_f64_accepts_both_number_shapes() {
        let v = parse(r#"{"f": 2.5, "u": 40, "s": "nope"}"#).unwrap();
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("u").and_then(JsonValue::as_f64), Some(40.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_f64), None);
    }
}
