//! Trace-file tooling: parse the engine's JSONL trace and render a
//! Fig. 4-style protocol timeline.
//!
//! The trace schema (one flat JSON object per line) is documented in
//! `rmac_engine::trace`; this module consumes it generically via the key
//! set each `ev` type carries, so the `obs_report` bin can render a run
//! it did not itself produce.

use std::fmt::Write as _;

use crate::jsonl::{self, JsonValue};

/// One parsed trace line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Event time (sim ns).
    pub t_ns: u64,
    /// Node the event happened at.
    pub node: u64,
    /// The `ev` discriminator ("tx_done", "rx", "tone", …).
    pub ev: String,
    /// Remaining fields, in source order.
    pub fields: Vec<(String, JsonValue)>,
}

impl TraceRecord {
    /// A field's value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        jsonl::get(&self.fields, key)
    }
}

/// Parse one trace line; `None` if the line is not a valid trace record
/// (every record needs `t_ns`, `node`, and `ev`).
pub fn parse_trace_line(line: &str) -> Option<TraceRecord> {
    let fields = jsonl::parse_flat(line)?;
    let t_ns = jsonl::get(&fields, "t_ns")?.as_u64()?;
    let node = jsonl::get(&fields, "node")?.as_u64()?;
    let ev = jsonl::get(&fields, "ev")?.as_str()?.to_string();
    Some(TraceRecord {
        t_ns,
        node,
        ev,
        fields,
    })
}

fn describe(r: &TraceRecord) -> String {
    let s = |k: &str| r.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let n = |k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let b = |k: &str| r.get(k).and_then(|v| v.as_bool()).unwrap_or(false);
    match r.ev.as_str() {
        "tx_done" => format!(
            "TX {} ({} B){}",
            s("kind"),
            n("bytes"),
            if b("aborted") { " ABORTED" } else { "" }
        ),
        "rx" => format!(
            "RX {} from n{}{}",
            s("kind"),
            n("src"),
            if b("ok") { "" } else { " (corrupt)" }
        ),
        "tone" => format!("{} {}", s("tone"), if b("present") { "on" } else { "off" }),
        "carrier" => format!("carrier {}", if b("busy") { "busy" } else { "idle" }),
        "submit" => format!(
            "SUBMIT {} ({} B)",
            if b("reliable") {
                "reliable"
            } else {
                "unreliable"
            },
            n("bytes")
        ),
        "deliver" => format!("DELIVER {} from n{}", s("kind"), n("src")),
        "fault" => format!("FAULT {}", s("label")),
        other => format!("{other}?"),
    }
}

/// Render a Fig. 4-style timeline: starting at the first reliable
/// submission (or the first record when none exists), show up to
/// `max_lines` events within `window_ns` of the anchor. Times are printed
/// relative to the anchor, in microseconds. Each record is rendered on its
/// own: a trace has a `tone` or `carrier busy` line only for a change some
/// MAC was told of, so nothing here pairs a fall with a rise.
pub fn render_timeline(records: &[TraceRecord], window_ns: u64, max_lines: usize) -> String {
    let mut out = String::new();
    let Some(anchor_idx) = records
        .iter()
        .position(|r| r.ev == "submit" && r.get("reliable").and_then(|v| v.as_bool()) == Some(true))
        .or(if records.is_empty() { None } else { Some(0) })
    else {
        return "timeline: no trace records\n".to_string();
    };
    let t0 = records[anchor_idx].t_ns;
    let _ = writeln!(
        out,
        "## Timeline (t0 = {:.3} ms, window {:.1} ms)",
        t0 as f64 / 1e6,
        window_ns as f64 / 1e6
    );
    for (lines, r) in records[anchor_idx..].iter().enumerate() {
        if r.t_ns > t0 + window_ns || lines >= max_lines {
            let remaining = records[anchor_idx..]
                .iter()
                .filter(|r| r.t_ns <= t0 + window_ns)
                .count()
                .saturating_sub(lines);
            if remaining > 0 {
                let _ = writeln!(out, "… {remaining} more events in window");
            }
            break;
        }
        let _ = writeln!(
            out,
            "{:>12.1} µs  n{:<4} {}",
            (r.t_ns - t0) as f64 / 1e3,
            r.node,
            describe(r)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: &str) -> TraceRecord {
        parse_trace_line(line).expect("valid trace line")
    }

    #[test]
    fn parses_engine_schema_lines() {
        let r = rec(r#"{"t_ns":5000,"node":3,"ev":"rx","kind":"Mrts","src":0,"ok":true}"#);
        assert_eq!(r.t_ns, 5000);
        assert_eq!(r.node, 3);
        assert_eq!(r.ev, "rx");
        assert_eq!(describe(&r), "RX Mrts from n0");
    }

    #[test]
    fn rejects_records_missing_the_envelope() {
        assert!(parse_trace_line(r#"{"node":3,"ev":"rx"}"#).is_none());
        assert!(parse_trace_line(r#"{"t_ns":1,"node":3}"#).is_none());
        assert!(parse_trace_line("garbage").is_none());
    }

    #[test]
    fn descriptions_cover_every_event_type() {
        let cases = [
            (
                r#"{"t_ns":1,"node":0,"ev":"tx_done","kind":"Mrts","bytes":30,"aborted":true}"#,
                "TX Mrts (30 B) ABORTED",
            ),
            (
                r#"{"t_ns":1,"node":0,"ev":"tone","tone":"Rbt","present":true}"#,
                "Rbt on",
            ),
            (
                r#"{"t_ns":1,"node":0,"ev":"carrier","busy":false}"#,
                "carrier idle",
            ),
            (
                r#"{"t_ns":1,"node":0,"ev":"submit","reliable":true,"bytes":500}"#,
                "SUBMIT reliable (500 B)",
            ),
            (
                r#"{"t_ns":1,"node":0,"ev":"deliver","kind":"DataReliable","src":2}"#,
                "DELIVER DataReliable from n2",
            ),
            (
                r#"{"t_ns":1,"node":0,"ev":"fault","label":"crash"}"#,
                "FAULT crash",
            ),
        ];
        for (line, want) in cases {
            assert_eq!(describe(&rec(line)), want);
        }
    }

    #[test]
    fn timeline_anchors_on_reliable_submit() {
        let records = vec![
            rec(r#"{"t_ns":100,"node":0,"ev":"carrier","busy":true}"#),
            rec(r#"{"t_ns":5000,"node":0,"ev":"submit","reliable":true,"bytes":500}"#),
            rec(
                r#"{"t_ns":6000,"node":0,"ev":"tx_done","kind":"Mrts","bytes":30,"aborted":false}"#,
            ),
        ];
        let s = render_timeline(&records, 10_000, 50);
        assert!(s.contains("SUBMIT reliable"));
        assert!(s.contains("TX Mrts"));
        // The pre-anchor carrier edge is not shown.
        assert!(!s.contains("carrier"));
        // Times are anchor-relative: the MRTS prints at +1.0 µs.
        assert!(s.contains("1.0 µs"), "{s}");
    }

    #[test]
    fn timeline_shows_a_carrier_fall_that_follows_no_rise() {
        // A node is told of a rise only while its MAC can act on one, so a
        // trace has `carrier idle` lines with no `carrier busy` before them.
        let records = vec![
            rec(r#"{"t_ns":0,"node":1,"ev":"submit","reliable":true,"bytes":500}"#),
            rec(r#"{"t_ns":2000,"node":2,"ev":"rx","kind":"Mrts","src":1,"ok":true}"#),
            rec(r#"{"t_ns":2000,"node":2,"ev":"carrier","busy":false}"#),
            rec(r#"{"t_ns":9000,"node":2,"ev":"carrier","busy":false}"#),
        ];
        let s = render_timeline(&records, 10_000, 50);
        assert_eq!(s.matches("carrier idle").count(), 2, "{s}");
        assert!(!s.contains("carrier busy"));
    }

    #[test]
    fn timeline_truncates_to_window_and_line_budget() {
        let mut records = Vec::new();
        for i in 0..20 {
            records.push(rec(&format!(
                r#"{{"t_ns":{},"node":0,"ev":"carrier","busy":true}}"#,
                i * 100
            )));
        }
        let s = render_timeline(&records, 10_000, 5);
        assert!(s.contains("more events in window"), "{s}");
        assert!(render_timeline(&[], 1000, 5).contains("no trace records"));
    }
}
