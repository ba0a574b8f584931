//! The unified metrics store.
//!
//! One campaign directory (`results/campaigns/<name>/`) holds:
//!
//! * `manifest.json` — the [`CampaignSpec`](crate::CampaignSpec) that
//!   produced the store (byte-stable; doubles as the resume contract).
//! * `store.jsonl` — one [`CaseRecord`] line per completed case, appended
//!   **in canonical case order**. Every field is deterministic simulation
//!   state (no wall clocks), so the file's bytes are a pure function of
//!   the spec — which is what makes kill/resume bit-identity testable,
//!   and what lets a committed store serve as its own regression baseline
//!   (`tests/tracked_stores.rs`).
//!
//! Nothing else is written beside them: seed-pooled aggregates are computed
//! from the store when asked for ([`crate::query`]).
//!
//! A case record ingests the replication's `RunReport`, the conformance
//! verdict, and (when the spec asks for it) the obs report's end-of-run
//! counters.

use crate::spec::CaseSpec;
use rmac_check::CheckReport;
use rmac_metrics::RunReport;
use rmac_obs::json::{self, Json};
use rmac_obs::ObsReport;

/// One completed case: identity axes plus the ingested metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaseRecord {
    /// The case key (`RMAC/stationary/r20/none/s3`).
    pub key: String,
    pub protocol: String,
    pub scenario: String,
    pub rate: f64,
    pub seed: u64,
    pub fault: String,
    /// Delivery ratio (receptions / expected receptions).
    pub delivery: f64,
    pub drop_ratio: f64,
    pub retx_ratio: f64,
    pub txoh_ratio: f64,
    pub abort_avg: f64,
    pub mrts_len_avg: f64,
    /// Mean end-to-end delay in seconds.
    pub delay_s: f64,
    pub hops_avg: f64,
    pub packets_sent: u64,
    pub receptions: u64,
    pub expected_receptions: u64,
    /// Events the simulation dispatched (the perf-proxy metric: a pure
    /// function of the seed, unlike wall time).
    pub events: u64,
    pub faults_injected: u64,
    /// Conformance verdict: no violations recorded.
    pub check_clean: bool,
    /// Violation count (0 when clean).
    pub violations: u64,
    /// First violation rendered, or empty when clean.
    pub first_violation: String,
    /// The Fig. 12/13 tails and the fault-plane tallies the figure
    /// renderer needs (`rmac_experiments::figures`); written after the
    /// fields above so older lines are a prefix of newer ones.
    pub abort_p99: f64,
    pub abort_max: f64,
    pub mrts_len_p99: f64,
    pub mrts_len_max: f64,
    pub fault_crashes: u64,
    pub fault_jam_bursts: u64,
    /// The rest of Fig. 6's tree statistics (`hops_avg` is above); after
    /// the fields above for the same reason.
    pub hops_p99: f64,
    pub children_avg: f64,
    pub children_p99: f64,
    /// The obs report's counters `(name, value)` sorted by name; empty
    /// when the spec ran without obs.
    pub obs_counters: Vec<(String, u64)>,
}

impl CaseRecord {
    /// Ingest one case's outputs.
    pub fn from_run(
        case: &CaseSpec,
        report: &RunReport,
        obs: Option<&ObsReport>,
        check: &CheckReport,
    ) -> CaseRecord {
        let mut obs_counters: Vec<(String, u64)> = obs
            .iter()
            .flat_map(|o| &o.counters)
            .map(|&(n, v)| (n.to_string(), v))
            .collect();
        obs_counters.sort();
        CaseRecord {
            key: case.key(),
            protocol: report.protocol.clone(),
            scenario: report.scenario.clone(),
            rate: report.rate_pps,
            seed: case.seed,
            fault: case.fault.clone(),
            delivery: report.delivery_ratio(),
            drop_ratio: report.drop_ratio_avg,
            retx_ratio: report.retx_ratio_avg,
            txoh_ratio: report.txoh_ratio_avg,
            abort_avg: report.abort_avg,
            mrts_len_avg: report.mrts_len_avg,
            delay_s: report.e2e_delay_avg_s,
            hops_avg: report.hops_avg,
            packets_sent: report.packets_sent,
            receptions: report.receptions,
            expected_receptions: report.expected_receptions,
            events: report.events,
            faults_injected: report.faults_injected,
            check_clean: check.is_clean(),
            violations: check.violations.len() as u64,
            first_violation: check
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
            abort_p99: report.abort_p99,
            abort_max: report.abort_max,
            mrts_len_p99: report.mrts_len_p99,
            mrts_len_max: report.mrts_len_max,
            fault_crashes: report.fault_crashes,
            fault_jam_bursts: report.fault_jam_bursts,
            hops_p99: report.hops_p99,
            children_avg: report.children_avg,
            children_p99: report.children_p99,
            obs_counters,
        }
    }

    /// One deterministic JSONL line (no trailing newline). Floats use
    /// fixed six-decimal formatting so bytes never depend on float
    /// printing quirks.
    pub fn to_jsonl(&self) -> String {
        json::object(|o| {
            o.str("key", &self.key);
            o.str("protocol", &self.protocol);
            o.str("scenario", &self.scenario);
            o.f64("rate", self.rate);
            o.u64("seed", self.seed);
            o.str("fault", &self.fault);
            o.fixed("delivery", self.delivery, 6);
            o.fixed("drop_ratio", self.drop_ratio, 6);
            o.fixed("retx_ratio", self.retx_ratio, 6);
            o.fixed("txoh_ratio", self.txoh_ratio, 6);
            o.fixed("abort_avg", self.abort_avg, 6);
            o.fixed("mrts_len_avg", self.mrts_len_avg, 6);
            o.fixed("delay_s", self.delay_s, 6);
            o.fixed("hops_avg", self.hops_avg, 6);
            o.u64("packets_sent", self.packets_sent);
            o.u64("receptions", self.receptions);
            o.u64("expected_receptions", self.expected_receptions);
            o.u64("events", self.events);
            o.u64("faults_injected", self.faults_injected);
            o.bool("check_clean", self.check_clean);
            o.u64("violations", self.violations);
            o.str("first_violation", &self.first_violation);
            o.fixed("abort_p99", self.abort_p99, 6);
            o.fixed("abort_max", self.abort_max, 6);
            o.fixed("mrts_len_p99", self.mrts_len_p99, 6);
            o.fixed("mrts_len_max", self.mrts_len_max, 6);
            o.u64("fault_crashes", self.fault_crashes);
            o.u64("fault_jam_bursts", self.fault_jam_bursts);
            o.fixed("hops_p99", self.hops_p99, 6);
            o.fixed("children_avg", self.children_avg, 6);
            o.fixed("children_p99", self.children_p99, 6);
            if !self.obs_counters.is_empty() {
                o.obj("obs_counters", |o| {
                    for (name, v) in &self.obs_counters {
                        o.u64(name, *v);
                    }
                });
            }
        })
    }

    /// Parse a line written by [`CaseRecord::to_jsonl`]. Keys it does not
    /// name are ignored, so lines from before a key was dropped still load.
    pub fn from_jsonl(line: &str) -> Result<CaseRecord, String> {
        let v = Json::parse(line).map_err(|e| format!("case record: {e}"))?;
        let (f, u) = (|key| v.num(key), |key| v.uint(key));
        let s = |key| v.str(key).map(str::to_string);
        let mut obs_counters: Vec<(String, u64)> = Vec::new();
        if let Some(Json::Obj(fields)) = v.get("obs_counters") {
            for (k, val) in fields {
                let n = val.as_u64().ok_or_else(|| {
                    format!(
                        "obs counter {k} must be a non-negative integer, got {}",
                        val.render()
                    )
                })?;
                obs_counters.push((k.clone(), n));
            }
        }
        Ok(CaseRecord {
            key: s("key")?,
            protocol: s("protocol")?,
            scenario: s("scenario")?,
            rate: f("rate")?,
            seed: u("seed")?,
            fault: s("fault")?,
            delivery: f("delivery")?,
            drop_ratio: f("drop_ratio")?,
            retx_ratio: f("retx_ratio")?,
            txoh_ratio: f("txoh_ratio")?,
            abort_avg: f("abort_avg")?,
            mrts_len_avg: f("mrts_len_avg")?,
            delay_s: f("delay_s")?,
            hops_avg: f("hops_avg")?,
            packets_sent: u("packets_sent")?,
            receptions: u("receptions")?,
            expected_receptions: u("expected_receptions")?,
            events: u("events")?,
            faults_injected: u("faults_injected")?,
            check_clean: v.bool("check_clean")?,
            violations: u("violations")?,
            first_violation: s("first_violation")?,
            abort_p99: f("abort_p99")?,
            abort_max: f("abort_max")?,
            mrts_len_p99: f("mrts_len_p99")?,
            mrts_len_max: f("mrts_len_max")?,
            fault_crashes: u("fault_crashes")?,
            fault_jam_bursts: u("fault_jam_bursts")?,
            hops_p99: f("hops_p99")?,
            children_avg: f("children_avg")?,
            children_p99: f("children_p99")?,
            obs_counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CaseRecord {
        CaseRecord {
            key: "RMAC/stationary/r20/none/s3".into(),
            protocol: "RMAC".into(),
            scenario: "stationary".into(),
            rate: 20.0,
            seed: 3,
            fault: "none".into(),
            delivery: 0.987654,
            drop_ratio: 0.01,
            retx_ratio: 0.2,
            txoh_ratio: 1.5,
            abort_avg: 0.05,
            mrts_len_avg: 44.2,
            delay_s: 0.0123,
            hops_avg: 2.5,
            packets_sent: 100,
            receptions: 740,
            expected_receptions: 750,
            events: 123456,
            faults_injected: 0,
            check_clean: true,
            violations: 0,
            first_violation: String::new(),
            abort_p99: 0.125,
            abort_max: 0.5,
            mrts_len_p99: 58.0,
            mrts_len_max: 64.0,
            fault_crashes: 2,
            fault_jam_bursts: 7,
            hops_p99: 9.0,
            children_avg: 3.25,
            children_p99: 8.0,
            obs_counters: vec![("queue.pushed".into(), 42)],
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = record();
        let line = r.to_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(CaseRecord::from_jsonl(&line).expect("parse"), r);
    }

    #[test]
    fn record_without_obs_omits_the_sections() {
        let mut r = record();
        r.obs_counters.clear();
        let line = r.to_jsonl();
        assert!(!line.contains("obs_counters"));
        assert_eq!(CaseRecord::from_jsonl(&line).expect("parse"), r);
    }

    #[test]
    fn a_line_from_before_obs_hists_was_dropped_still_loads() {
        let r = record();
        let line = r.to_jsonl();
        let old = format!("{},\"obs_hists\":{{}}}}", line.strip_suffix('}').unwrap());
        assert_eq!(CaseRecord::from_jsonl(&old).expect("parse"), r);
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(record().to_jsonl(), record().to_jsonl());
    }
}
