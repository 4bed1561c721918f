//! A minimal, dependency-free JSON reader for trace tooling.
//!
//! Parses the subset the workspace's hand-rolled serializers emit
//! (objects, arrays, strings, numbers, booleans, `null`) into a [`Json`]
//! tree. Used by `netdiag explain` to replay JSONL event streams and by
//! tests to check exporter well-formedness. Fully `Result`-based: a
//! malformed document is an `Err`, never a panic.

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; trace values fit exactly).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered key/value list (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_owned())?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for &b in word.as_bytes() {
            self.eat(b)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(fields)),
                b => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        b as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                b => {
                    return Err(format!(
                        "expected ',' or ']' in array, found '{}'",
                        b as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            let digit = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| format!("bad \\u digit '{}'", d as char))?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    b => return Err(format!("bad escape '\\{}'", b as char)),
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: copy the remaining continuation bytes.
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump()?;
                    }
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let raw = self
            .bytes
            .get(start..self.pos)
            .and_then(|raw| std::str::from_utf8(raw).ok())
            .ok_or_else(|| format!("invalid number at byte {start}"))?;
        raw.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number '{raw}': {e}"))
    }
}

/// Total byte length of a UTF-8 sequence given its leading byte.
fn utf8_len(lead: u8) -> usize {
    if lead >= 0xF0 {
        4
    } else if lead >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_shaped_lines() {
        let line = r#"{"name":"hs.pick","placement":0,"trial":null,"seq":3,"payload":{"edge":12,"covered":[0,2],"label":"10.0.0.1->10.0.0.2"}}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("hs.pick"));
        assert!(v.get("trial").is_some_and(Json::is_null));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(3));
        let payload = v.get("payload").expect("payload");
        assert_eq!(payload.get("edge").and_then(Json::as_u64), Some(12));
        assert_eq!(
            payload
                .get("covered")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\ndAé"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn parses_numbers_and_bools() {
        let v = parse(r#"[0, -3, 2.5, 1e3, true, false, null]"#).expect("parses");
        let items = v.as_array().expect("array");
        assert_eq!(items[0].as_u64(), Some(0));
        assert_eq!(items[1], Json::Num(-3.0));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2], Json::Num(2.5));
        assert_eq!(items[3].as_u64(), Some(1000));
        assert_eq!(items[4], Json::Bool(true));
        assert_eq!(items[6], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"open", "{} x", "01a"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn run_report_round_trips_through_the_parser() {
        let (h, rec) = crate::RecorderHandle::live();
        h.add("a.count", 3);
        h.observe("h.sizes", 7);
        let v = parse(&rec.snapshot().to_json()).expect("report parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
