//! Shard-balance reporting: per-group scheduling rows from the sharded
//! conservative-sync engine.
//!
//! The engine's `ShardStats` exports one [`ShardGroupRow`] per causally
//! closed shard group; this module renders the set as an aligned balance
//! table (for `obs_report`) and as JSON (for `results/obs/`). The event
//! counter is deterministic simulation state; the wall reading is
//! scheduling telemetry and lives outside the determinism domain, like
//! the kernel profiler's clocks.

use std::fmt::Write as _;

/// One shard group's scheduling row.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardGroupRow {
    /// The shard ids the group owns, sorted ascending.
    pub shards: Vec<usize>,
    /// Events the group dispatched.
    pub events: u64,
    /// Wall-clock nanoseconds the group's worker spent on it.
    pub wall_ns: u64,
}

impl ShardGroupRow {
    fn shards_label(&self) -> String {
        self.shards
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Aligned plain-text shard-balance table: one row per group plus a
/// totals line. Balance (max/mean events per group) quantifies how evenly
/// the coupling analysis split the work.
pub fn render_shard_balance(rows: &[ShardGroupRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<10} {:>12} {:>10}",
        "group", "shards", "events", "wall_ms"
    );
    let mut tot_events = 0u64;
    let mut max_events = 0u64;
    for (i, r) in rows.iter().enumerate() {
        tot_events += r.events;
        max_events = max_events.max(r.events);
        let _ = writeln!(
            out,
            "{:<8} {:<10} {:>12} {:>10.3}",
            i,
            r.shards_label(),
            r.events,
            r.wall_ns as f64 / 1e6,
        );
    }
    let mean = if rows.is_empty() {
        0.0
    } else {
        tot_events as f64 / rows.len() as f64
    };
    let balance = if mean == 0.0 {
        1.0
    } else {
        max_events as f64 / mean
    };
    let _ = writeln!(
        out,
        "total: {} groups, {} events, balance (max/mean events) {:.2}",
        rows.len(),
        tot_events,
        balance
    );
    out
}

/// The balance rows as a JSON array (hand-rolled, like every serializer in
/// this workspace).
pub fn shard_balance_json(rows: &[ShardGroupRow]) -> String {
    let body = rows
        .iter()
        .map(|r| {
            let shards = r
                .shards
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"shards\":[{}],\"events\":{},\"wall_ns\":{}}}",
                shards, r.events, r.wall_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ShardGroupRow> {
        vec![
            ShardGroupRow {
                shards: vec![0, 1],
                events: 300,
                wall_ns: 2_500_000,
            },
            ShardGroupRow {
                shards: vec![2],
                events: 100,
                wall_ns: 900_000,
            },
        ]
    }

    #[test]
    fn render_lists_groups_and_totals() {
        let s = render_shard_balance(&rows());
        assert!(s.contains("0+1"));
        assert!(s.contains("400 events"));
        assert!(s.contains("2 groups"));
        // max/mean = 300/200.
        assert!(s.contains("1.50"));
    }

    #[test]
    fn json_round_trips_through_the_jsonl_parser() {
        let j = shard_balance_json(&rows());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"shards\":[0,1]"));
        assert!(j.contains("\"events\":300"));
    }

    #[test]
    fn empty_rows_render_cleanly() {
        let s = render_shard_balance(&[]);
        assert!(s.contains("0 groups"));
        assert_eq!(shard_balance_json(&[]), "[]");
    }
}
