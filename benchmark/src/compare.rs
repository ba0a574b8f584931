//! `compare A.json B.json`: two result files, per workload and metric.
//!
//! A is the base of every ratio, and ratios are between medians. Host-time
//! metrics get a verdict from the bounds in `BENCHMARK.json`; deterministic
//! metrics (simulated statistics,
//! counts, the fingerprint) must be exactly equal when both files were
//! measured with the same seed.

use crate::json::Json;
use crate::layers::{find, Better, END_TO_END};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of all pairs of runs and the medians
    /// differ by more than A's own quartile distance.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound and the runs
    /// interleave: this noise cannot tell the two apart.
    Unresolved,
    /// No worse than the bound allows, and not shown to be better.
    Same,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved at this noise",
            Verdict::Same => "same",
        }
    }
}

/// Judge B against A for a host-time metric.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.values.is_empty() || b.values.is_empty() || a.median == 0.0 {
        return Verdict::Unresolved;
    }
    let b_wins = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let pairs = (a.values.len() * b.values.len()) as f64;
    let wins = |f: &dyn Fn(f64, f64) -> bool| {
        a.values
            .iter()
            .flat_map(|&x| b.values.iter().map(move |&y| (x, y)))
            .filter(|&(x, y)| f(x, y))
            .count() as f64
            / pairs
    };
    let b_win_share = wins(&|x, y| b_wins(x, y));
    let a_win_share = wins(&|x, y| b_wins(y, x));
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let separated = b_win_share == 1.0 || a_win_share == 1.0;
    let noisy = a.spread().max(b.spread()) > bound;
    if noisy && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if b_win_share >= 0.9 && (b.median - a.median).abs() > (a.q3 - a.q1) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.arr("workloads")
        .iter()
        .find(|w| w.str_of("name") == Some(name))
}

fn bound_of(bounds: &Json, metric: &str) -> Option<f64> {
    bounds
        .arr("end_to_end")
        .iter()
        .find(|m| m.str_of("name") == Some(metric))
        .and_then(|m| m.f64("bound"))
}

/// Compare two result documents; the report and whether anything is worse
/// or a deterministic value differs.
pub fn compare(a: &Json, b: &Json, bounds: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut bad = false;
    let stamp = |doc: &Json, key: &str| -> String {
        doc.get("stamp")
            .and_then(|s| s.get(key))
            .map_or_else(|| "?".into(), Json::render)
    };
    for (label, doc) in [("A", a), ("B", b)] {
        let _ = writeln!(
            out,
            "{label}: rev {} profile {} host_parallelism {} seed {} bench.timer_ns {}",
            stamp(doc, "git_rev"),
            stamp(doc, "profile"),
            stamp(doc, "host_parallelism"),
            stamp(doc, "seed"),
            stamp(doc, "bench.timer_ns"),
        );
    }
    let same_seed = stamp(a, "seed") == stamp(b, "seed");
    if !same_seed {
        let _ = writeln!(
            out,
            "seeds differ: deterministic metrics are shown, not held equal"
        );
    }
    for wa in a.arr("workloads") {
        let Some(name) = wa.str_of("name") else {
            continue;
        };
        let Some(wb) = workload(b, name) else {
            let _ = writeln!(out, "== {name}: missing from B");
            bad = true;
            continue;
        };
        let _ = writeln!(out, "== {name}");
        for def in END_TO_END {
            let summary = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(wa), summary(wb)) else {
                continue;
            };
            let ratio = if sa.median == 0.0 {
                f64::NAN
            } else {
                sb.median / sa.median
            };
            let verdict = if def.exact {
                if !same_seed {
                    "not compared".to_string()
                } else if sa.median == sb.median {
                    "equal".to_string()
                } else {
                    bad = true;
                    "DIFFERS".to_string()
                }
            } else {
                let bound = bound_of(bounds, def.name).unwrap_or(0.0);
                let v = judge(&sa, &sb, def.better, bound);
                bad |= v == Verdict::Worse;
                format!("{} (bound {bound})", v.name())
            };
            let _ = writeln!(
                out,
                "{:<16} A {:>13.6} [{:.6}, {:.6}] n {} B {:>13.6} [{:.6}, {:.6}] n {} B/A {:.4} (base A {:.6} {})  {}",
                def.name, sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n, ratio,
                sa.median, def.unit, verdict
            );
        }
        if same_seed {
            if wa.str_of("fingerprint") != wb.str_of("fingerprint") {
                bad = true;
                let _ = writeln!(
                    out,
                    "fingerprint         A {} B {}  DIFFERS",
                    wa.str_of("fingerprint").unwrap_or("?"),
                    wb.str_of("fingerprint").unwrap_or("?")
                );
            }
            let layers_b = wb.get("per_layer");
            for (metric, va) in wa.get("per_layer").map_or(&[][..], Json::fields) {
                let exact = find(metric).is_some_and(|d| d.exact);
                let vb = layers_b.and_then(|l| l.get(metric));
                if exact && vb.is_some() && vb != Some(va) {
                    bad = true;
                    let _ = writeln!(
                        out,
                        "{metric:<40} A {} B {}  DIFFERS",
                        va.render(),
                        vb.map_or_else(|| "?".into(), Json::render)
                    );
                }
            }
        }
        for (label, w) in [("A", wa), ("B", wb)] {
            let failed = w.f64("ops_failed").unwrap_or(0.0);
            if failed > 0.0 {
                bad = true;
                let _ = writeln!(
                    out,
                    "{label}: {failed} operation(s) failed: misses every bound"
                );
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn a_clear_regression_is_worse_and_a_clear_gain_is_better() {
        let a = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let slow = s(&[1.30, 1.31, 1.29, 1.32, 1.30]);
        let fast = s(&[0.80, 0.81, 0.79, 0.80, 0.82]);
        assert_eq!(judge(&a, &slow, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &fast, Better::Lower, 0.10), Verdict::Better);
        // The same numbers read the other way round for a rate.
        assert_eq!(judge(&a, &slow, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &fast, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_change_inside_the_bound_is_the_same() {
        let a = s(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let b = s(&[1.03, 1.04, 1.02, 1.03, 1.05]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_not_unchanged() {
        let a = s(&[1.0, 1.4, 0.8, 1.3, 0.9]);
        let b = s(&[1.2, 0.85, 1.5, 1.1, 1.35]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        // Wide but fully separated runs still resolve.
        let far = s(&[2.0, 2.6, 1.9, 2.4, 2.2]);
        assert_eq!(judge(&a, &far, Better::Lower, 0.10), Verdict::Worse);
    }

    fn result(seed: f64, wall: &[f64], delivery: f64, events: f64, fp: &str) -> Json {
        let e2e: Vec<(String, Json)> = END_TO_END
            .iter()
            .map(|m| {
                let values = match m.name {
                    "wall_s" => wall.to_vec(),
                    "delivery_ratio" => vec![delivery; 3],
                    _ => vec![1.0; 3],
                };
                (m.name.to_string(), Summary::of(&values).to_json())
            })
            .collect();
        Json::obj([
            ("stamp", Json::obj([("seed", Json::Num(seed))])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("w")),
                    ("ops_failed", Json::Num(0.0)),
                    ("fingerprint", Json::str(fp)),
                    ("end_to_end", Json::Obj(e2e)),
                    (
                        "per_layer",
                        Json::obj([("engine.world.events", Json::Num(events))]),
                    ),
                ])]),
            ),
        ])
    }

    fn bounds() -> Json {
        Json::obj([(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| Json::obj([("name", Json::str(m.name)), ("bound", Json::Num(0.1))]))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn identical_files_compare_clean() {
        let a = result(1.0, &[1.0, 1.01, 0.99], 0.97, 1e6, "00ff");
        let (text, bad) = compare(&a, &a, &bounds());
        assert!(!bad, "{text}");
        assert!(text.contains("equal"));
    }

    #[test]
    fn deterministic_differences_and_regressions_are_flagged() {
        let a = result(1.0, &[1.0, 1.01, 0.99], 0.97, 1e6, "00ff");
        let (text, bad) = compare(
            &a,
            &result(1.0, &[1.0, 1.01, 0.99], 0.96, 1e6, "00ff"),
            &bounds(),
        );
        assert!(bad && text.contains("DIFFERS"), "{text}");
        let (text, bad) = compare(
            &a,
            &result(1.0, &[1.0, 1.01, 0.99], 0.97, 2e6, "00ff"),
            &bounds(),
        );
        assert!(bad && text.contains("engine.world.events"), "{text}");
        let (text, bad) = compare(
            &a,
            &result(1.0, &[1.0, 1.01, 0.99], 0.97, 1e6, "0100"),
            &bounds(),
        );
        assert!(bad && text.contains("fingerprint"), "{text}");
        let (text, bad) = compare(
            &a,
            &result(1.0, &[1.5, 1.51, 1.49], 0.97, 1e6, "00ff"),
            &bounds(),
        );
        assert!(bad && text.contains("WORSE"), "{text}");
        // Another seed: deterministic values may differ.
        let (text, bad) = compare(
            &a,
            &result(2.0, &[1.0, 1.01, 0.99], 0.90, 3e6, "0abc"),
            &bounds(),
        );
        assert!(!bad && text.contains("seeds differ"), "{text}");
    }
}
