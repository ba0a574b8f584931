//! The workspace's one JSON reader.
//!
//! Everything here is serialized by hand (no serde: the build is offline
//! and every dependency is vendored); this is the matching deserializer,
//! shared by fault plans (`rmac-faults`), trace lines (`rmac_phy::trace`)
//! and campaign specs and stores (`rmac-campaign`). A small recursive-descent parser into a dynamic
//! [`Json`] value with typed accessors: objects, arrays, strings with
//! `\"`/`\\`/`\n`/`\t`/`\u` escapes, numbers, booleans, null. Anything
//! else is rejected with a byte-offset error.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the key name.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        as_t: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.req(key)?;
        as_t(v).ok_or_else(|| format!("{key} must be {what}, got {}", v.render()))
    }

    /// Required number field.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    /// Required non-negative integer field.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an integer", Json::as_u64)
    }

    /// Required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    /// Required array field.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", |v| match v {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact re-rendering (round-trips through [`Json::parse`]). Used to
    /// hand embedded sub-documents (fault plans) back to their own
    /// `from_json` parsers and to quote offending values in errors.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => fmt_f64(*n),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Arr(items) => {
                let body = items.iter().map(Json::render).collect::<Vec<_>>().join(",");
                format!("[{body}]")
            }
            Json::Obj(fields) => {
                let body = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{{body}}}")
            }
        }
    }
}

/// Render an f64 compactly: integers without the trailing `.0`.
pub fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a string for embedding in JSON output.
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Copy a full UTF-8 sequence through.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("bad UTF-8 in string")?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        if !fields.iter().any(|(k, _)| *k == key) {
            fields.push((key, val));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .expect("parse");
        assert_eq!(v.arr("a").map(<[Json]>::len), Ok(3));
        assert_eq!(v.req("b").and_then(|b| b.str("c")), Ok("x\ny"));
        assert_eq!(v.bool("d"), Ok(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn typed_field_accessors_name_the_key_and_the_value() {
        let v = Json::parse(r#"{"n": 1.5, "s": "x", "neg": -1}"#).expect("parse");
        assert_eq!(v.num("n"), Ok(1.5));
        assert_eq!(v.str("s"), Ok("x"));
        for err in [
            v.uint("n").unwrap_err(),
            v.uint("neg").unwrap_err(),
            v.num("s").unwrap_err(),
            v.str("n").unwrap_err(),
            v.bool("n").unwrap_err(),
            v.arr("s").unwrap_err(),
        ] {
            assert!(err.contains("must be"), "{err}");
        }
        assert!(v.num("missing").unwrap_err().contains("missing field"));
        assert!(Json::Num(1.0).num("n").is_err(), "a scalar has no fields");
    }

    #[test]
    fn round_trips_escapes() {
        let s = "quote\" slash\\ nl\n tab\t";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = Json::parse(&doc).expect("parse escaped");
        assert_eq!(v.str("k"), Ok(s));
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny"},"d":true,"e":null}"#;
        let v = Json::parse(doc).expect("parse");
        assert_eq!(v.render(), doc);
        assert_eq!(Json::parse(&v.render()).expect("reparse"), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\": }",
            "{\"a\" 1}",
            "{a:1}",
            "[1, 2",
            "[1,]",
            "{\"a\":1,}",
            "{} trailing",
            "12 34",
            "nul",
            "\"open",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_render_without_a_fraction() {
        assert_eq!(fmt_f64(20.0), "20");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(1e15), "1000000000000000");
    }
}
