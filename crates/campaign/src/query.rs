//! Query API over the metrics store: seed-pooled aggregates (mean / p50 /
//! p95) per grid point, and what differs between two stores.

use crate::store::CaseRecord;
use rmac_metrics::percentile;
use rmac_obs::json::Json;

/// Mean and quantiles of one metric across a record group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
}

/// Aggregate a value list: mean plus nearest-rank p50/p95
/// ([`rmac_metrics::percentile`]: deterministic, no interpolation).
pub fn aggregate(values: &[f64]) -> Agg {
    let n = values.len();
    Agg {
        n,
        mean: if n == 0 {
            0.0
        } else {
            values.iter().sum::<f64>() / n as f64
        },
        p50: percentile(values, 50.0),
        p95: percentile(values, 95.0),
    }
}

/// One grid point pooled over seeds.
#[derive(Clone, Debug)]
pub struct SummaryRow {
    pub protocol: String,
    pub scenario: String,
    pub rate: f64,
    pub fault: String,
    pub delivery: Agg,
    pub delay_s: Agg,
    pub retx_ratio: Agg,
    pub txoh_ratio: Agg,
    /// Every pooled case passed conformance.
    pub clean: bool,
}

/// The records of each grid point (protocol, scenario, rate, fault plan),
/// points and their seeds in first-appearance (canonical) order.
pub fn grid_points(records: &[CaseRecord]) -> Vec<Vec<&CaseRecord>> {
    fn point(k: &CaseRecord) -> (&str, &str, f64, &str) {
        (&k.protocol, &k.scenario, k.rate, &k.fault)
    }
    let mut points: Vec<Vec<&CaseRecord>> = Vec::new();
    for r in records {
        match points.iter_mut().find(|p| point(p[0]) == point(r)) {
            Some(p) => p.push(r),
            None => points.push(vec![r]),
        }
    }
    points
}

/// Pool records into per-grid-point rows, in first-appearance (canonical)
/// order.
pub fn summarize(records: &[CaseRecord]) -> Vec<SummaryRow> {
    grid_points(records)
        .into_iter()
        .map(|group| {
            let pull = |f: fn(&CaseRecord) -> f64| -> Agg {
                aggregate(&group.iter().map(|r| f(r)).collect::<Vec<_>>())
            };
            SummaryRow {
                protocol: group[0].protocol.clone(),
                scenario: group[0].scenario.clone(),
                rate: group[0].rate,
                fault: group[0].fault.clone(),
                delivery: pull(|r| r.delivery),
                delay_s: pull(|r| r.delay_s),
                retx_ratio: pull(|r| r.retx_ratio),
                txoh_ratio: pull(|r| r.txoh_ratio),
                clean: group.iter().all(|r| r.check_clean),
            }
        })
        .collect()
}

/// Load every record from a campaign directory's `store.jsonl`.
pub fn load_store(dir: &std::path::Path) -> Result<Vec<CaseRecord>, String> {
    let path = dir.join("store.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            CaseRecord::from_jsonl(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// What differs between two stores, given the text of each `store.jsonl`:
/// one line per record whose case key is in one store only, or whose keys
/// differ there, each such key with both values (`absent` where a line
/// lacks it). Records are matched by case key, in `a`'s order, then `b`'s
/// own, and a last line says if the records both hold come in another
/// order; no line means the stores hold the same records.
pub fn diff_stores(a: &str, b: &str) -> Result<Vec<String>, String> {
    let (a, b) = (keyed_lines(a)?, keyed_lines(b)?);
    let find = |lines: &[(String, Json)], key: &str| lines.iter().position(|(k, _)| k == key);
    let mut out = Vec::new();
    for (key, ours) in &a {
        let Some(i) = find(&b, key) else {
            out.push(format!("{key}: only in A"));
            continue;
        };
        let theirs = &b[i].1;
        let value = |line: &Json, name: &str| line.get(name).map_or("absent".into(), Json::render);
        let names = members(ours).chain(members(theirs).filter(|n| ours.get(n).is_none()));
        let changed: Vec<String> = names
            .filter_map(|name| {
                let (was, now) = (value(ours, name), value(theirs, name));
                (was != now).then(|| format!("{name} {was} -> {now}"))
            })
            .collect();
        if !changed.is_empty() {
            out.push(format!("{key}: {}", changed.join(", ")));
        }
    }
    let only_b = b.iter().filter(|(key, _)| find(&a, key).is_none());
    out.extend(only_b.map(|(key, _)| format!("{key}: only in B")));
    let shared = |x: &[(String, Json)], y: &[(String, Json)]| -> Vec<String> {
        let keys = x.iter().map(|(key, _)| key.clone());
        keys.filter(|key| find(y, key).is_some()).collect()
    };
    if shared(&a, &b) != shared(&b, &a) {
        out.push("the records both hold are in another order".to_string());
    }
    Ok(out)
}

/// A store's lines, each under its case key.
fn keyed_lines(text: &str) -> Result<Vec<(String, Json)>, String> {
    let keyed = |line: &str| -> Result<(String, Json), String> {
        let json = Json::parse(line)?;
        Ok((json.str("key")?.to_string(), json))
    };
    (text.lines().enumerate())
        .map(|(i, line)| keyed(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The member names of a store line.
fn members(line: &Json) -> impl Iterator<Item = &str> {
    let fields = match line {
        Json::Obj(fields) => &fields[..],
        _ => &[],
    };
    fields.iter().map(|(name, _)| name.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(protocol: &str, rate: f64, seed: u64, delivery: f64) -> CaseRecord {
        CaseRecord {
            key: format!("{protocol}/stationary/r{rate}/none/s{seed}"),
            protocol: protocol.into(),
            scenario: "stationary".into(),
            rate,
            seed,
            fault: "none".into(),
            delivery,
            retx_ratio: 0.1 * seed as f64,
            check_clean: true,
            ..CaseRecord::default()
        }
    }

    #[test]
    fn aggregate_uses_nearest_rank() {
        let a = aggregate(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.n, 4);
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert_eq!(a.p50, 2.0);
        assert_eq!(a.p95, 4.0);
        assert_eq!(aggregate(&[]).n, 0);
    }

    #[test]
    fn summary_pools_over_seeds_in_canonical_order() {
        let recs = vec![
            rec("RMAC", 20.0, 0, 1.0),
            rec("RMAC", 20.0, 1, 0.9),
            rec("BMMM", 20.0, 0, 0.8),
        ];
        let rows = summarize(&recs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].protocol, "RMAC");
        assert_eq!(rows[0].delivery.n, 2);
        assert!((rows[0].delivery.mean - 0.95).abs() < 1e-12);
        assert_eq!(rows[1].protocol, "BMMM");
    }

    /// `aggregate`'s p50/p95 are `percentile`'s, bit for bit, and still the
    /// nearest rank `⌈q·n⌉` (clamped to 1..=n) the store's summaries were
    /// pooled with: `95.0 / 100.0` is the same f64 as `0.95`.
    #[test]
    fn aggregate_quantiles_are_percentiles_nearest_rank() {
        for n in 1..=40usize {
            // Values repeat in runs of three, so ties straddle the ranks.
            let values: Vec<f64> = (0..n).map(|i| ((i * 7) % n / 3) as f64).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let a = aggregate(&values);
            assert_eq!(
                a.p50.to_bits(),
                percentile(&values, 50.0).to_bits(),
                "n={n}"
            );
            assert_eq!(
                a.p95.to_bits(),
                percentile(&values, 95.0).to_bits(),
                "n={n}"
            );
            assert_eq!((a.p50, a.p95), (rank(0.50), rank(0.95)), "n={n}");
        }
    }

    /// Every record and key that differs is named once, with both values.
    #[test]
    fn a_store_diff_names_each_differing_record_and_key() {
        let a = "\
{\"key\":\"RMAC/s0\",\"events\":10,\"delivery\":1.000000}
{\"key\":\"BMMM/s0\",\"events\":30,\"delivery\":0.900000}
{\"key\":\"BMW/s0\",\"events\":5,\"delivery\":0.500000}
";
        let b = "\
{\"key\":\"RMAC/s0\",\"events\":10,\"delivery\":1.000000}
{\"key\":\"BMMM/s0\",\"events\":27,\"delivery\":0.900000,\"obs_counters\":{}}
{\"key\":\"LBP/s0\",\"events\":7,\"delivery\":0.700000}
";
        assert_eq!(
            diff_stores(a, b).unwrap(),
            [
                "BMMM/s0: events 30 -> 27, obs_counters absent -> {}",
                "BMW/s0: only in A",
                "LBP/s0: only in B",
            ]
        );
        assert_eq!(diff_stores(a, a).unwrap(), Vec::<String>::new());
        let swapped: String = a.lines().rev().map(|l| format!("{l}\n")).collect();
        assert_eq!(
            diff_stores(a, &swapped).unwrap(),
            ["the records both hold are in another order"]
        );
        assert!(diff_stores(a, "{\"events\":1}").is_err());
    }
}
