//! A minimal flat-JSON codec for the artifact store.
//!
//! The build is offline (no `serde`), and the store only needs flat
//! objects of strings, unsigned integers, and booleans — so this is a
//! strict ~100-line recursive-descent parser. Records are written with
//! the core crate's escaper, [`batmem::probes::json_escape`].
//! Anything it cannot parse is, by definition, a half-written or corrupt
//! record, and the store re-runs the cell.

/// A flat JSON value: the only shapes cell records use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (possibly multi-byte) verbatim.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("truncated value")? {
            b'"' => Ok(Value::Str(self.string()?)),
            b't' | b'f' => {
                let rest = &self.bytes[self.pos..];
                if rest.starts_with(b"true") {
                    self.pos += 4;
                    Ok(Value::Bool(true))
                } else if rest.starts_with(b"false") {
                    self.pos += 5;
                    Ok(Value::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .parse()
                    .map(Value::Int)
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("unsupported value starting with `{}`", other as char)),
        }
    }
}

/// Parses one flat JSON object into `(key, value)` pairs, in document
/// order. Strict: trailing garbage, nesting, floats, and nulls are all
/// errors — which is exactly what makes truncated records detectable.
///
/// # Errors
///
/// A human-readable description of the first syntax violation.
pub fn parse_object(s: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut out = Vec::new();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let value = p.value()?;
            out.push((key, value));
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", p.pos)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(out)
}

/// Looks up `key` in parsed pairs.
pub fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let pairs = parse_object(r#"{"a":"x","n":42,"ok":true,"no":false}"#).unwrap();
        assert_eq!(get(&pairs, "a").unwrap().as_str(), Some("x"));
        assert_eq!(get(&pairs, "n").unwrap().as_int(), Some(42));
        assert_eq!(get(&pairs, "ok").unwrap().as_bool(), Some(true));
        assert_eq!(get(&pairs, "no").unwrap().as_bool(), Some(false));
        assert!(get(&pairs, "missing").is_none());
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}é—🚀";
        let doc = format!("{{\"k\":\"{}\"}}", batmem::probes::json_escape(nasty));
        let pairs = parse_object(&doc).unwrap();
        assert_eq!(get(&pairs, "k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn truncated_and_malformed_records_are_rejected() {
        for bad in [
            "",
            "{",
            r#"{"a":"#,
            r#"{"a":"x""#,
            r#"{"a":"x"} extra"#,
            r#"{"a":{"nested":1}}"#,
            r#"{"a":1.5}"#,
            r#"{"a":null}"#,
            r#"{"a":"unterminated"#,
        ] {
            assert!(parse_object(bad).is_err(), "should reject: {bad}");
        }
    }
}
