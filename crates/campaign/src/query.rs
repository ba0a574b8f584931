//! Query API over the metrics store: seed-pooled aggregates (mean / p50 /
//! p95) per grid point, plus the `summary.json` renderer.

use crate::store::CaseRecord;
use rmac_obs::json::{escape, fmt_f64};

/// Mean and quantiles of one metric across a record group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
}

/// Aggregate a value list: mean plus nearest-rank p50/p95 (deterministic,
/// no interpolation).
pub fn aggregate(values: &[f64]) -> Agg {
    if values.is_empty() {
        return Agg {
            n: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric NaN"));
    let rank = |q: f64| -> f64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    Agg {
        n: values.len(),
        mean: values.iter().sum::<f64>() / values.len() as f64,
        p50: rank(0.50),
        p95: rank(0.95),
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

fn agg_json(a: &Agg) -> String {
    format!(
        "{{\"n\":{},\"mean\":{:.6},\"p50\":{:.6},\"p95\":{:.6}}}",
        a.n, a.mean, a.p50, a.p95
    )
}

/// `summary.json`: the pooled rows as a deterministic JSON document.
pub fn summarize_json(records: &[CaseRecord]) -> String {
    let rows = summarize(records)
        .iter()
        .map(|row| {
            format!(
                "  {{\"protocol\":\"{}\",\"scenario\":\"{}\",\"rate\":{},\"fault\":\"{}\",\
                 \"clean\":{},\"delivery\":{},\"delay_s\":{},\"retx_ratio\":{},\
                 \"txoh_ratio\":{}}}",
                escape(&row.protocol),
                escape(&row.scenario),
                fmt_f64(row.rate),
                escape(&row.fault),
                row.clean,
                agg_json(&row.delivery),
                agg_json(&row.delay_s),
                agg_json(&row.retx_ratio),
                agg_json(&row.txoh_ratio),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\"points\":[\n{rows}\n]}}\n")
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
        // Deterministic bytes.
        assert_eq!(summarize_json(&recs), summarize_json(&recs));
    }
}
