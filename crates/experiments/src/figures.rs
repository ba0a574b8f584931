//! Figure and table generators: from pooled sweep results to the rows the
//! paper plots.

use std::fs;
use std::path::Path;

use rmac_engine::{Protocol, Run, RunOutput, ScenarioConfig};
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};

use crate::sweep::{ScenarioKind, SweepResults};

/// One figure = one table per scenario with a column per protocol.
pub fn metric_tables(
    results: &SweepResults,
    figure: &str,
    metric_name: &str,
    decimals: usize,
    metric: impl Fn(&RunReport) -> f64,
) -> Vec<(ScenarioKind, Table)> {
    let mut out = Vec::new();
    for scenario in ScenarioKind::ALL {
        let protocols: Vec<&str> = ["RMAC", "BMMM", "BMW", "LBP", "802.11MX", "RMAC-noRBT"]
            .into_iter()
            .filter(|p| {
                results
                    .points
                    .iter()
                    .any(|r| r.scenario == scenario.label() && r.protocol == *p)
            })
            .collect();
        if protocols.is_empty() {
            continue;
        }
        let mut headers = vec!["rate_pps"];
        headers.extend(protocols.iter().copied());
        let mut t = Table::new(
            format!("{figure} — {metric_name} ({})", scenario.label()),
            &headers,
        );
        for rate in results.rates() {
            let mut row = vec![fmt(rate, 0)];
            let mut any = false;
            for p in &protocols {
                let cell = results
                    .points
                    .iter()
                    .find(|r| {
                        r.scenario == scenario.label() && r.protocol == *p && r.rate_pps == rate
                    })
                    .map(|r| {
                        any = true;
                        fmt(metric(r), decimals)
                    })
                    .unwrap_or_default();
                row.push(cell);
            }
            if any {
                t.row(row);
            }
        }
        if !t.is_empty() {
            out.push((scenario, t));
        }
    }
    out
}

/// Fig. 12 / Fig. 13 style: avg / 99p / max of an RMAC-only statistic.
pub fn stat_tables(
    results: &SweepResults,
    figure: &str,
    metric_name: &str,
    decimals: usize,
    stat: impl Fn(&RunReport) -> (f64, f64, f64),
) -> Vec<(ScenarioKind, Table)> {
    let mut out = Vec::new();
    for scenario in ScenarioKind::ALL {
        let mut t = Table::new(
            format!("{figure} — {metric_name} ({})", scenario.label()),
            &["rate_pps", "average", "p99", "max"],
        );
        for rate in results.rates() {
            if let Some(r) = results.points.iter().find(|r| {
                r.scenario == scenario.label() && r.protocol == "RMAC" && r.rate_pps == rate
            }) {
                let (a, p, m) = stat(r);
                t.row(vec![
                    fmt(rate, 0),
                    fmt(a, decimals),
                    fmt(p, decimals),
                    fmt(m, decimals),
                ]);
            }
        }
        if !t.is_empty() {
            out.push((scenario, t));
        }
    }
    out
}

/// Fig. 7: packet delivery ratio.
pub fn fig7(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    metric_tables(results, "Fig.7", "packet delivery ratio", 4, |r| {
        r.delivery_ratio()
    })
}

/// Fig. 8: average packet drop ratio.
pub fn fig8(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    metric_tables(results, "Fig.8", "avg packet drop ratio", 4, |r| {
        r.drop_ratio_avg
    })
}

/// Fig. 9: average end-to-end delay (seconds).
pub fn fig9(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    metric_tables(results, "Fig.9", "avg end-to-end delay (s)", 4, |r| {
        r.e2e_delay_avg_s
    })
}

/// Fig. 10: average packet retransmission ratio.
pub fn fig10(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    metric_tables(results, "Fig.10", "avg retransmission ratio", 4, |r| {
        r.retx_ratio_avg
    })
}

/// Fig. 11: average transmission overhead ratio.
pub fn fig11(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    metric_tables(
        results,
        "Fig.11",
        "avg transmission overhead ratio",
        4,
        |r| r.txoh_ratio_avg,
    )
}

/// Fig. 12: MRTS length statistics (bytes), RMAC only.
pub fn fig12(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    stat_tables(results, "Fig.12", "MRTS length (bytes)", 1, |r| {
        (r.mrts_len_avg, r.mrts_len_p99, r.mrts_len_max)
    })
}

/// Fig. 13: MRTS abortion ratio statistics, RMAC only.
pub fn fig13(results: &SweepResults) -> Vec<(ScenarioKind, Table)> {
    stat_tables(results, "Fig.13", "MRTS abortion ratio", 5, |r| {
        (r.abort_avg, r.abort_p99, r.abort_max)
    })
}

/// Fig. 6 / §4.1.1: run one stationary replication and export the formed
/// tree as Graphviz DOT plus the hop/children statistics.
pub fn fig6_topology(seed: u64, packets: u64) -> (RunReport, String) {
    let cfg = ScenarioConfig::paper_stationary(5.0).with_packets(packets);
    let RunOutput {
        report, parents, ..
    } = Run::new(&cfg, Protocol::Rmac, seed).execute();
    let mut dot = String::from("digraph tree {\n  rankdir=TB;\n  node [shape=circle];\n");
    dot.push_str("  0 [style=filled, fillcolor=lightblue];\n");
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            dot.push_str(&format!("  {} -> {};\n", p.0, i));
        }
    }
    dot.push_str("}\n");
    (report, dot)
}

/// Write a set of tables to stdout and mirror them into `results/` as CSV.
pub fn emit(tables: &[(ScenarioKind, Table)], file_stem: &str) {
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    for (scenario, t) in tables {
        println!("{}", t.render());
        let path = dir.join(format!("{file_stem}_{}.csv", scenario.label()));
        if let Err(e) = fs::write(&path, t.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[csv] {}\n", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepSpec};
    use rmac_engine::Protocol;

    fn mini_results() -> SweepResults {
        let spec = SweepSpec {
            scenarios: vec![ScenarioKind::Stationary],
            rates: vec![10.0],
            seeds: vec![0],
            protocols: vec![Protocol::Rmac, Protocol::Bmmm],
            packets: 10,
            nodes: 10,
        };
        run_sweep(&spec)
    }

    #[test]
    fn figure_tables_have_protocol_columns() {
        let res = mini_results();
        let tables = fig7(&res);
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].1.render();
        assert!(rendered.contains("RMAC"));
        assert!(rendered.contains("BMMM"));
        assert!(rendered.contains("10"));
    }

    #[test]
    fn stat_tables_have_three_columns() {
        let res = mini_results();
        let tables = fig12(&res);
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].1.render();
        assert!(rendered.contains("average"));
        assert!(rendered.contains("p99"));
        assert!(rendered.contains("max"));
    }

    #[test]
    fn fig6_exports_a_tree() {
        let (report, dot) = fig6_topology(3, 5);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"), "tree has edges");
        assert!(report.hops_avg >= 1.0);
    }

    #[test]
    fn all_figure_generators_run() {
        let res = mini_results();
        assert!(!fig8(&res).is_empty());
        assert!(!fig9(&res).is_empty());
        assert!(!fig10(&res).is_empty());
        assert!(!fig11(&res).is_empty());
        assert!(!fig13(&res).is_empty());
    }
}
