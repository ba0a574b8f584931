//! The CI gate: a fixed small campaign compared against a committed
//! baseline.
//!
//! `campaign gate` fails (nonzero exit) when:
//!
//! * any gate case records a conformance violation, or
//! * any pooled metric drifts more than `metric_tol_pct` from the
//!   committed baseline (the metrics are deterministic, so real drift
//!   means behavior changed).
//!
//! Speed is not gated here: wall clock on the CI host swings by tens of
//! percent, so regressions are judged by paired `benchmark/` runs.
//!
//! `--inject-mutant` (swap RMAC for the RmacSkipRbtSense mutant) is a
//! seeded-defect demo proving the gate actually trips.

use std::path::PathBuf;

use crate::query::{summarize, SummaryRow};
use crate::runner::{run_campaign, RunOptions};
use crate::spec::{CampaignSpec, FaultAxis, ScenarioKind};
use rmac_engine::Protocol;
use rmac_obs::json::{fmt_f64, Json};

/// Gate invocation knobs.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Swap RMAC for the RmacSkipRbtSense mutant (conformance demo).
    pub inject_mutant: bool,
    /// Write the baseline instead of comparing against it.
    pub record: bool,
    /// Baseline JSON path.
    pub baseline: PathBuf,
    /// Scratch directory for the gate campaign store.
    pub scratch: PathBuf,
    /// Relative tolerance for deterministic metrics, percent.
    pub metric_tol_pct: f64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            inject_mutant: false,
            record: false,
            baseline: PathBuf::from("results/campaigns/gate/baseline.json"),
            scratch: PathBuf::from("results/campaigns/gate/scratch"),
            metric_tol_pct: 5.0,
        }
    }
}

/// The gate's verdict: rendered tile lines plus the failure list.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One `[PASS]`/`[FAIL]` line per comparison.
    pub lines: Vec<String>,
    /// The failing comparisons (empty = gate passes).
    pub failures: Vec<String>,
}

impl GateReport {
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, ok: bool, what: String) {
        self.lines
            .push(format!("[{}] {what}", if ok { "PASS" } else { "FAIL" }));
        if !ok {
            self.failures.push(what);
        }
    }
}

/// The fixed gate campaign: RMAC (or its mutant) vs BMMM over a small
/// deterministic grid with a hidden-terminal-prone density, so protocol
/// mutants that break tone handling surface as C1/C2 violations.
pub fn gate_spec(inject_mutant: bool) -> CampaignSpec {
    let rmac = if inject_mutant {
        Protocol::RmacSkipRbtSense
    } else {
        Protocol::Rmac
    };
    CampaignSpec {
        name: "gate".into(),
        protocols: vec![rmac, Protocol::Bmmm],
        scenarios: vec![ScenarioKind::Stationary],
        rates: vec![20.0, 60.0],
        seeds: vec![0, 1, 2],
        // The bursty axis is what makes the conformance half of the gate
        // bite: corrupted control frames drive a sense-skipping mutant
        // onto its broken path (data sent with no receiver answered),
        // which C1 flags. Real protocols stay clean under it.
        faults: vec![FaultAxis::none(), FaultAxis::bursty()],
        packets: 40,
        nodes: 30,
        shards: 0,
        obs: false,
    }
}

fn baseline_json(rows: &[SummaryRow]) -> String {
    let metrics = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"protocol\":\"{}\",\"scenario\":\"{}\",\"rate\":{},\"fault\":\"{}\",\
                 \"delivery\":{:.6},\"delay_s\":{:.6},\"retx_ratio\":{:.6}}}",
                r.protocol,
                r.scenario,
                fmt_f64(r.rate),
                r.fault,
                r.delivery.mean,
                r.delay_s.mean,
                r.retx_ratio.mean,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\"metrics\":[\n{metrics}\n]}}\n")
}

fn rel_delta_pct(current: f64, base: f64) -> f64 {
    if base == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (current - base).abs() / base.abs()
    }
}

/// Run the gate. `Ok(report)` always carries the tile lines; exit status
/// is the caller's job (`report.pass()`).
pub fn run_gate(cfg: &GateConfig) -> Result<GateReport, String> {
    let mut report = GateReport::default();

    // 1. Conformance + deterministic metrics via a fresh gate campaign.
    let spec = gate_spec(cfg.inject_mutant);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let out = run_campaign(
        &spec,
        &cfg.scratch,
        &RunOptions {
            quiet: true,
            ..Default::default()
        },
    )?;
    for r in &out.records {
        if !r.check_clean {
            report.check(
                false,
                format!(
                    "conformance: {} recorded {} violation(s): {}",
                    r.key, r.violations, r.first_violation
                ),
            );
        }
    }
    if out.clean {
        report.check(
            true,
            format!("conformance: {} cases clean", out.records.len()),
        );
    }
    let rows = summarize(&out.records);

    if cfg.record {
        if let Some(parent) = cfg.baseline.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create baseline dir: {e}"))?;
        }
        std::fs::write(&cfg.baseline, baseline_json(&rows))
            .map_err(|e| format!("write baseline: {e}"))?;
        report.check(
            true,
            format!("recorded baseline: {} metric rows", rows.len()),
        );
        return Ok(report);
    }

    // 2. Compare against the committed baseline.
    let text = std::fs::read_to_string(&cfg.baseline).map_err(|e| {
        format!(
            "read baseline {} ({e}); record one with `campaign gate --record`",
            cfg.baseline.display()
        )
    })?;
    let base = Json::parse(&text).map_err(|e| format!("baseline: {e}"))?;
    for bm in base.arr("metrics")? {
        let (protocol, scenario) = (bm.str("protocol")?, bm.str("scenario")?);
        let (rate, fault) = (bm.num("rate")?, bm.str("fault")?);
        let Some(row) = rows.iter().find(|r| {
            r.protocol == protocol && r.scenario == scenario && r.rate == rate && r.fault == fault
        }) else {
            report.check(
                false,
                format!("metrics: baseline row {protocol}/{scenario}/r{rate} missing from run"),
            );
            continue;
        };
        for (name, current) in [
            ("delivery", row.delivery.mean),
            ("delay_s", row.delay_s.mean),
            ("retx_ratio", row.retx_ratio.mean),
        ] {
            let basev = bm.num(name)?;
            let d = rel_delta_pct(current, basev);
            report.check(
                d <= cfg.metric_tol_pct,
                format!(
                    "metrics: {protocol}/{scenario}/r{} {name} {current:.4} vs baseline \
                     {basev:.4} ({d:.1}% drift, budget {:.1}%)",
                    fmt_f64(rate),
                    cfg.metric_tol_pct
                ),
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_spec_is_small_and_swaps_the_mutant() {
        let s = gate_spec(false);
        assert!(s.case_count() <= 24, "gate must stay fast");
        assert!(s.protocols.contains(&Protocol::Rmac));
        let m = gate_spec(true);
        assert!(m.protocols.contains(&Protocol::RmacSkipRbtSense));
        assert!(!m.protocols.contains(&Protocol::Rmac));
        assert_eq!(s.case_count(), m.case_count());
    }

    #[test]
    fn relative_delta_handles_zero_baselines() {
        assert_eq!(rel_delta_pct(0.0, 0.0), 0.0);
        assert_eq!(rel_delta_pct(0.5, 0.0), 100.0);
        assert!((rel_delta_pct(1.05, 1.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_json_parses_back() {
        let rows = Vec::new();
        let v = Json::parse(&baseline_json(&rows)).expect("baseline parses");
        assert_eq!(v.arr("metrics").map(<[Json]>::len), Ok(0));
    }
}
