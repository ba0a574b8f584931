//! The workspace's one JSON codec.
//!
//! No serde: the build is offline and every dependency is vendored. Fault
//! plans, trace lines, campaign manifests and stores, fuzz reproducers and
//! the obs artifacts are written with the streaming writer here and read
//! back with its parser, so escaping, number forms and separators are
//! decided once.
//!
//! **Writing.** [`object`], [`document`] and [`objects`] stream one value
//! into a `String` through an [`Obj`], whose members are typed: `u64`
//! (exact), `f64` in Rust's shortest round-trip form (`{}`: `20.0` prints
//! `20`), fixed-decimal `f64`, string, bool, a nested object, and arrays of
//! integers, floats, strings or objects. A non-finite float is written
//! `null`, so the output is always JSON. There are two layouts: compact, and
//! a [`document`] whose top-level members stand one per line.
//!
//! **Reading.** [`Json::parse`] is a recursive-descent parser into a
//! dynamic [`Json`] value: objects, arrays, strings with `\"`/`\\`/`\n`/
//! `\t`/`\u` escapes, numbers in the JSON grammar, booleans, null. A number
//! keeps its literal text: [`Json::uint`] reads it as an exact `u64`
//! (no sign, fraction, exponent or overflow), [`Json::num`] as a finite
//! `f64`; a literal no `f64` can hold (`1e400`) is a parse error. Errors
//! name the byte offset and the keys around it.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number's literal text, as the document spells it (the parser only
    /// admits the JSON number grammar with a finite `f64` value).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// How deep arrays and objects may nest before the parser gives up (the
/// workspace writes at most four levels; this bounds the parser's stack).
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
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

    /// Required non-negative integer field, exact over all of `u64`.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer below 2^64", Json::as_u64)
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

    /// The number as the nearest `f64` (finite: the parser admits no other).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The number as an exact `u64`: digits only, in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|c| c.is_ascii_digit()) => text.parse().ok(),
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

    /// Compact re-rendering through the writer: numbers keep their literal
    /// text, so it parses back to the same value. Hands embedded documents
    /// (fault plans) to their own parsers and quotes values in errors.
    pub fn render(&self) -> String {
        let mut out = String::new();
        put_json(&mut out, self);
        out
    }
}

fn put_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => put(out, b),
        Json::Num(text) => out.push_str(text),
        Json::Str(s) => put_str(out, s),
        Json::Arr(items) => put_list(out, items, put_json),
        Json::Obj(fields) => put_obj(out, false, |o| {
            fields.iter().for_each(|(k, x)| put_json(o.key(k), x))
        }),
    }
}

/// One compact JSON object; `f` writes its members.
pub fn object(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::with_capacity(128);
    put_obj(&mut out, false, f);
    out
}

/// A JSON document: one object whose top-level members stand one per line
/// (`  "key": value`, nested values compact), then a newline.
pub fn document(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::with_capacity(1024);
    put_obj(&mut out, true, f);
    out.push('\n');
    out
}

/// One compact JSON array of objects; `f` writes an item's members.
pub fn objects<T>(items: &[T], f: impl Fn(&mut Obj<'_>, &T)) -> String {
    let mut out = String::with_capacity(128);
    put_list(&mut out, items, |out, item| {
        put_obj(out, false, |o| f(o, item))
    });
    out
}

/// An object being written; each member appends `"key":value`.
pub struct Obj<'a> {
    out: &'a mut String,
    members: usize,
    /// Members one per line: the top level of a [`document`].
    lines: bool,
}

impl Obj<'_> {
    /// The separator and `key`, leaving the buffer where its value goes.
    fn key(&mut self, key: &str) -> &mut String {
        let sep = match (self.lines, self.members) {
            (false, 0) => "",
            (false, _) => ",",
            (true, 0) => "\n  ",
            (true, _) => ",\n  ",
        };
        self.members += 1;
        self.out.push_str(sep);
        put_str(self.out, key);
        self.out.push_str(if self.lines { ": " } else { ":" });
        self.out
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        put(self.key(key), v);
        self
    }

    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        put_f64(self.key(key), v, None);
        self
    }

    /// `v` with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        put_f64(self.key(key), v, Some(decimals));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        put_str(self.key(key), v);
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        put(self.key(key), v);
        self
    }

    /// A nested object; `f` writes its members.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        put_obj(self.key(key), false, f);
        self
    }

    /// An array of objects; `f` writes an item's members.
    pub fn objs<T>(&mut self, key: &str, items: &[T], f: impl Fn(&mut Obj<'_>, &T)) -> &mut Self {
        put_list(self.key(key), items, |out, item| {
            put_obj(out, false, |o| f(o, item))
        });
        self
    }

    pub fn u64s(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        put_list(self.key(key), vs, put);
        self
    }

    pub fn f64s(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        put_list(self.key(key), vs, |out, v| put_f64(out, *v, None));
        self
    }

    pub fn strs<'s>(&mut self, key: &str, vs: impl IntoIterator<Item = &'s str>) -> &mut Self {
        put_list(self.key(key), vs, put_str);
        self
    }
}

fn put_obj(out: &mut String, lines: bool, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    let mut o = Obj {
        out,
        members: 0,
        lines,
    };
    f(&mut o);
    o.out
        .push_str(if o.lines && o.members > 0 { "\n}" } else { "}" });
}

fn put_list<T>(out: &mut String, items: impl IntoIterator<Item = T>, put: impl Fn(&mut String, T)) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(out, item);
    }
    out.push(']');
}

/// An integer or a bool, as Rust prints it.
fn put(out: &mut String, v: impl std::fmt::Display) {
    let _ = write!(out, "{v}");
}

/// `v` in its shortest round-trip form (`{}`) or to `decimals` places;
/// `null` if it is not finite.
fn put_f64(out: &mut String, v: f64, decimals: Option<usize>) {
    let _ = match decimals {
        _ if !v.is_finite() => write!(out, "null"),
        None => write!(out, "{v}"),
        Some(d) => write!(out, "{v:.d$}"),
    };
}

/// `s` quoted: `"` and `\` escaped, control characters as `\n`, `\t`, `\r`
/// or `\u00XX`, everything else (non-ASCII included) as is.
fn put_str(out: &mut String, s: &str) {
    out.push('"');
    let mut done = 0;
    for (i, c) in s.bytes().enumerate() {
        let short = match c {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // `c` is ASCII, so `i` is a char boundary.
        out.push_str(&s[done..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{c:04x}");
        } else {
            out.push_str(short);
        }
        done = i + 1;
    }
    out.push_str(&s[done..]);
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nested deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
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

/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, its value a finite `f64`.
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let bad = || format!("bad number at byte {start}");
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int = *pos;
    if !digits(pos) || (b[int] == b'0' && *pos - int > 1) {
        return Err(bad());
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(bad());
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(bad());
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| bad())?;
    if !text.parse::<f64>().is_ok_and(f64::is_finite) {
        return Err(format!("number {text} at byte {start} is out of range"));
    }
    Ok(Json::Num(text.to_string()))
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
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape digits")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
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

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
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

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
        let val = parse_value(b, pos, depth).map_err(|e| format!("{key}: {e}"))?;
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
    use proptest::prelude::*;

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
        assert!(
            Json::Num("1".into()).num("n").is_err(),
            "a scalar has no fields"
        );
    }

    #[test]
    fn integers_are_exact_over_all_of_u64() {
        let v = Json::parse(
            r#"{"a": 9007199254740993, "max": 18446744073709551615, "over": 18446744073709551616,
                "frac": 1.0, "exp": 1e3, "neg": -0}"#,
        )
        .expect("parse");
        assert_eq!(v.uint("a"), Ok(9_007_199_254_740_993));
        assert_eq!(v.uint("max"), Ok(u64::MAX));
        for key in ["over", "frac", "exp", "neg"] {
            let err = v.uint(key).expect_err(key);
            assert!(
                err.starts_with(&format!("{key} must be a non-negative integer")),
                "{err}"
            );
        }
        assert_eq!(v.num("exp"), Ok(1000.0));
        let text = object(|o| {
            o.u64("a", 9_007_199_254_740_993).u64("max", u64::MAX);
        });
        assert_eq!(text, r#"{"a":9007199254740993,"max":18446744073709551615}"#);
    }

    #[test]
    fn numbers_outside_the_grammar_or_f64_are_errors_naming_their_key() {
        for bad in [
            r#"{"x":1e400}"#,
            r#"{"x":-1e400}"#,
            r#"{"x":01}"#,
            r#"{"x":1.}"#,
            r#"{"x":.5}"#,
            r#"{"x":+1}"#,
            r#"{"x":1e}"#,
            r#"{"x":-}"#,
            r#"{"x":NaN}"#,
            r#"{"x":Infinity}"#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.starts_with("x: "), "{bad}: {err}");
        }
        assert_eq!(Json::parse("1e-400").map(|v| v.as_f64()), Ok(Some(0.0)));
    }

    #[test]
    fn round_trips_escapes() {
        let s = "quote\" slash\\ nl\n tab\t cr\r nul\u{0} us\u{1f} del\u{7f} é €";
        let doc = object(|o| {
            o.str(s, s);
        });
        assert_eq!(
            doc,
            "{\"quote\\\" slash\\\\ nl\\n tab\\t cr\\r nul\\u0000 us\\u001f del\u{7f} é €\":\
             \"quote\\\" slash\\\\ nl\\n tab\\t cr\\r nul\\u0000 us\\u001f del\u{7f} é €\"}"
        );
        let v = Json::parse(&doc).expect("parse escaped");
        assert_eq!(v.str(s), Ok(s));
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn the_writer_spells_every_member_type_in_both_layouts() {
        let members = |o: &mut Obj<'_>| {
            o.u64("u", 7)
                .f64("f", 20.0)
                .f64("g", 0.1)
                .fixed("x", 2.0 / 3.0, 3)
                .f64("nan", f64::NAN)
                .str("s", "a")
                .bool("b", false)
                .u64s("us", &[1, 2])
                .strs("ss", ["p", "q"])
                .obj("o", |o| {
                    o.f64s("a", &[-2.5, f64::INFINITY])
                        .objs("b", &[1u64, 2], |o, &n| {
                            o.u64("n", n);
                        });
                });
        };
        let compact = object(members);
        assert_eq!(
            compact,
            r#"{"u":7,"f":20,"g":0.1,"x":0.667,"nan":null,"s":"a","b":false,"us":[1,2],"ss":["p","q"],"o":{"a":[-2.5,null],"b":[{"n":1},{"n":2}]}}"#
        );
        assert_eq!(
            document(members),
            "{\n  \"u\": 7,\n  \"f\": 20,\n  \"g\": 0.1,\n  \"x\": 0.667,\n  \"nan\": null,\n  \
             \"s\": \"a\",\n  \"b\": false,\n  \"us\": [1,2],\n  \"ss\": [\"p\",\"q\"],\n  \
             \"o\": {\"a\":[-2.5,null],\"b\":[{\"n\":1},{\"n\":2}]}\n}\n"
        );
        assert_eq!(document(|_| {}), "{}\n");
        assert_eq!(objects::<u64>(&[], |_, _| {}), "[]");
        assert_eq!(Json::parse(&compact).expect("parse").render(), compact);
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
            "\"\\u+fff\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nested deeper"));
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested).is_ok());
    }

    /// Bytes that are mostly JSON punctuation, so garbage gets deep into
    /// the parser rather than failing on its first byte.
    fn soup() -> impl Strategy<Value = String> {
        const TOKENS: [&str; 24] = [
            "{", "}", "[", "]", "\"", ":", ",", "0", "7", "-", ".", "e", "+", "true", "nul", "\\",
            "\\u00", "é", " ", "1e999", "\"k\"", "\u{0}", "\\n", "ff",
        ];
        proptest::collection::vec(0..TOKENS.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary input is an `Ok` or an `Err`, never a panic; what
        /// parses renders to text that parses back to the same value.
        #[test]
        fn parse_never_panics_and_what_parses_renders_back(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            text in soup(),
        ) {
            for s in [String::from_utf8_lossy(&bytes).into_owned(), text] {
                if let Ok(v) = Json::parse(&s) {
                    prop_assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
                }
            }
        }
    }
}
