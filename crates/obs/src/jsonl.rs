//! The workspace's flat JSON-lines records.
//!
//! The trace and snapshot sinks emit one flat JSON object per line whose
//! values are only numbers, booleans, or strings (a trace line's schema and
//! its strict parser are `rmac_phy::trace`'s). Parsing is `rmac_wire::json`'s;
//! this module adds the flatness rule the snapshot reader relies on.

pub use rmac_wire::json::Json as JsonValue;

/// Look a key up in a parsed record.
pub fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse one flat JSON object (no nesting, no arrays, no null) into its
/// key/value pairs, in source order. Returns `None` on any syntax
/// deviation — conformance tests rely on this strictness.
pub fn parse_flat(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let JsonValue::Obj(fields) = JsonValue::parse(line).ok()? else {
        return None;
    };
    use JsonValue::{Bool, Num, Str};
    let flat = fields
        .iter()
        .all(|(_, v)| matches!(v, Num(_) | Bool(_) | Str(_)));
    flat.then_some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_flat_object() {
        let f = parse_flat(r#"{"t_ns":1500,"ev":"rx","ok":true,"x":-2.5}"#).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(get(&f, "t_ns").unwrap().as_u64(), Some(1500));
        assert_eq!(get(&f, "ev").unwrap().as_str(), Some("rx"));
        assert_eq!(get(&f, "ok").unwrap().as_bool(), Some(true));
        assert_eq!(get(&f, "x").unwrap().as_f64(), Some(-2.5));
        assert!(get(&f, "missing").is_none());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat("{}").unwrap(), vec![]);
        assert_eq!(parse_flat("  { }  ").unwrap(), vec![]);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} trailing"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":null}"#,
            r#"{a:1}"#,
            "[1]",
            "1",
        ] {
            assert!(parse_flat(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let f = parse_flat(r#"{"s":"a\"b\\c"}"#).unwrap();
        assert_eq!(get(&f, "s").unwrap().as_str(), Some(r#"a"b\c"#));
    }

    #[test]
    fn type_coercions_are_strict() {
        let f = parse_flat(r#"{"n":1.5,"b":false,"s":"x"}"#).unwrap();
        assert_eq!(get(&f, "n").unwrap().as_u64(), None);
        assert_eq!(get(&f, "b").unwrap().as_bool(), Some(false));
        assert_eq!(get(&f, "s").unwrap().as_f64(), None);
    }
}
