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
use rmac_obs::json::{self, Json, Obj};
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

/// The line's last key, present only when the spec ran with obs.
const OBS_COUNTERS: &str = "obs_counters";

/// Walks the store line's key list (the one invocation below): writing,
/// parsing and the mapping to and from a [`RunReport`].
macro_rules! store_keys {
    (@put $o:ident $key:literal $v:expr, str) => { $o.str($key, &$v) };
    (@put $o:ident $key:literal $v:expr, u64) => { $o.u64($key, $v) };
    (@put $o:ident $key:literal $v:expr, bool) => { $o.bool($key, $v) };
    (@put $o:ident $key:literal $v:expr, f64) => { $o.f64($key, $v) };
    (@put $o:ident $key:literal $v:expr, fixed) => { $o.fixed($key, $v, 6) };
    (@take $v:ident $key:literal, str) => { $v.str($key)?.to_string() };
    (@take $v:ident $key:literal, u64) => { $v.uint($key)? };
    (@take $v:ident $key:literal, bool) => { $v.bool($key)? };
    (@take $v:ident $key:literal, f64) => { $v.num($key)? };
    (@take $v:ident $key:literal, fixed) => { $v.num($key)? };
    ($($key:literal $field:ident: $kind:ident $(= $mirror:ident)?;)*) => {
        impl CaseRecord {
            /// A record holding the metrics `report` mirrors, the rest at
            /// their defaults.
            fn mirroring(report: &RunReport) -> CaseRecord {
                CaseRecord {
                    $($($field: Clone::clone(&report.$mirror),)?)*
                    ..CaseRecord::default()
                }
            }

            /// The report this record was taken from, with every metric the
            /// store keeps; the rest (`nonleaf_nodes`, `delay_samples`, the
            /// per-kind frame tallies and `sim_secs`) stay at their defaults.
            pub fn report(&self) -> RunReport {
                RunReport {
                    $($($mirror: Clone::clone(&self.$field),)?)*
                    ..RunReport::default()
                }
            }

            fn put_keys(&self, o: &mut Obj<'_>) {
                $(store_keys!(@put o $key self.$field, $kind);)*
            }

            /// Every listed key must be present; the others are ignored.
            fn take_keys(v: &Json) -> Result<CaseRecord, String> {
                Ok(CaseRecord {
                    $($field: store_keys!(@take v $key, $kind),)*
                    obs_counters: Vec::new(),
                })
            }
        }
    };
}

// The line's keys in write order, each named once: the key, the field that
// holds it, how it is written (`str`, `u64`, `bool`, `f64` as it prints, or
// `fixed` at six decimals so bytes never depend on float printing) and,
// after `=`, the `RunReport` field it mirrors. `from_run` fills the keys
// that mirror none. A new key is a field and a row appended here, so older
// lines stay a prefix of newer ones.
store_keys! {
    "key" key: str;
    "protocol" protocol: str = protocol;
    "scenario" scenario: str = scenario;
    "rate" rate: f64 = rate_pps;
    "seed" seed: u64 = seed;
    "fault" fault: str;
    "delivery" delivery: fixed;
    "drop_ratio" drop_ratio: fixed = drop_ratio_avg;
    "retx_ratio" retx_ratio: fixed = retx_ratio_avg;
    "txoh_ratio" txoh_ratio: fixed = txoh_ratio_avg;
    "abort_avg" abort_avg: fixed = abort_avg;
    "mrts_len_avg" mrts_len_avg: fixed = mrts_len_avg;
    "delay_s" delay_s: fixed = e2e_delay_avg_s;
    "hops_avg" hops_avg: fixed = hops_avg;
    "packets_sent" packets_sent: u64 = packets_sent;
    "receptions" receptions: u64 = receptions;
    "expected_receptions" expected_receptions: u64 = expected_receptions;
    "events" events: u64 = events;
    "faults_injected" faults_injected: u64 = faults_injected;
    "check_clean" check_clean: bool;
    "violations" violations: u64;
    "first_violation" first_violation: str;
    "abort_p99" abort_p99: fixed = abort_p99;
    "abort_max" abort_max: fixed = abort_max;
    "mrts_len_p99" mrts_len_p99: fixed = mrts_len_p99;
    "mrts_len_max" mrts_len_max: fixed = mrts_len_max;
    "fault_crashes" fault_crashes: u64 = fault_crashes;
    "fault_jam_bursts" fault_jam_bursts: u64 = fault_jam_bursts;
    "hops_p99" hops_p99: fixed = hops_p99;
    "children_avg" children_avg: fixed = children_avg;
    "children_p99" children_p99: fixed = children_p99;
}

impl CaseRecord {
    /// Ingest one case's outputs: the metrics `report` mirrors, and by hand
    /// the case's identity, the delivery ratio, the verdict and the obs
    /// counters.
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
            seed: case.seed,
            fault: case.fault.clone(),
            delivery: report.delivery_ratio(),
            check_clean: check.is_clean(),
            violations: check.violations.len() as u64,
            first_violation: check
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
            obs_counters,
            ..CaseRecord::mirroring(report)
        }
    }

    /// One deterministic JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        json::object(|o| {
            self.put_keys(o);
            if !self.obs_counters.is_empty() {
                o.obj(OBS_COUNTERS, |o| {
                    for (name, v) in &self.obs_counters {
                        o.u64(name, *v);
                    }
                });
            }
        })
    }

    /// Parse a line written by [`CaseRecord::to_jsonl`]. A missing key is an
    /// error naming it; keys it does not name are ignored, so lines from
    /// before a key was dropped still load.
    pub fn from_jsonl(line: &str) -> Result<CaseRecord, String> {
        let v = Json::parse(line).map_err(|e| format!("case record: {e}"))?;
        let mut record = CaseRecord::take_keys(&v)?;
        if let Some(Json::Obj(fields)) = v.get(OBS_COUNTERS) {
            for (k, val) in fields {
                let n = val.as_u64().ok_or_else(|| {
                    format!(
                        "obs counter {k} must be a non-negative integer, got {}",
                        val.render()
                    )
                })?;
                record.obs_counters.push((k.clone(), n));
            }
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, FaultAxis, ScenarioKind};
    use rmac_engine::{ObsConfig, Protocol, Run};
    use rmac_faults::{ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec};

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

    /// Every listed key is required: a line missing any one of them fails
    /// to load with an error naming it.
    #[test]
    fn a_line_missing_any_key_fails_naming_it() {
        let mut r = record();
        r.obs_counters.clear();
        let Ok(Json::Obj(fields)) = Json::parse(&r.to_jsonl()) else {
            panic!("a record is written as an object");
        };
        assert_eq!(fields.len(), 31);
        for i in 0..fields.len() {
            let mut rest = fields.clone();
            let (key, _) = rest.remove(i);
            let err = CaseRecord::from_jsonl(&Json::Obj(rest).render()).expect_err(&key);
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(record().to_jsonl(), record().to_jsonl());
    }

    /// One RMAC case of 10 nodes and 5 packets at 20 pkt/s under `plan`.
    fn tiny_case(plan: FaultPlan, obs: bool) -> CaseSpec {
        let spec = CampaignSpec {
            protocols: vec![Protocol::Rmac],
            scenarios: vec![ScenarioKind::Stationary],
            rates: vec![20.0],
            seeds: vec![1],
            faults: vec![FaultAxis {
                name: "tiny".into(),
                plan,
            }],
            packets: 5,
            nodes: 10,
            obs,
            ..CampaignSpec::paper_figures(true)
        };
        spec.cases().remove(0)
    }

    /// An obs-on store keeps exactly these counters and no gauge: a new
    /// `ObsReport` counter changes every obs-on store's bytes, so adding
    /// one means adding it here.
    #[test]
    fn an_obs_on_record_keeps_the_pinned_counters_and_no_gauge() {
        let case = tiny_case(FaultPlan::none(), true);
        let record = crate::run_case(&case);
        let names: Vec<&str> = (record.obs_counters.iter())
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "engine.events_popped",
                "engine.events_pushed",
                "fault.crashes",
                "fault.frames_corrupted",
                "fault.jam_bursts",
                "grid.list_candidates",
                "grid.list_rebuilds",
                "grid.queries",
                "grid.rebuckets",
                "grid.refreshes",
                "phy.frame_onsets",
                "phy.frame_start_catchups",
                "phy.frame_starts_scheduled",
                "phy.pool_hits",
                "phy.pool_misses",
                "phy.tone_catchups",
                "phy.tone_edges_scheduled",
                "phy.tone_records",
            ]
        );
        let obs = Run::new(&case.config(), case.protocol, case.seed)
            .obs(ObsConfig {
                snapshot_period: None,
                kernel_wall: false,
            })
            .execute()
            .obs
            .expect("obs was attached");
        assert!(!obs.gauges.is_empty());
        for (gauge, _) in &obs.gauges {
            assert!(!names.contains(gauge), "gauge {gauge} in the store");
        }
    }

    /// `report()` gives back every metric `from_run` keeps, bit for bit, for
    /// a run whose fault tallies are nonzero; the fields below are the ones a
    /// store does not keep. A new `RunReport` field lands on one side or the
    /// other.
    #[test]
    fn a_record_gives_back_the_report_it_keeps() {
        let plan = FaultPlan::none()
            .with_churn(ChurnSpec {
                node: 3,
                kind: ChurnKind::Crash,
                at_ms: 5_100,
                for_ms: 300,
            })
            .with_jammer(JammerSpec {
                x: 50.0,
                y: 50.0,
                target: JamTarget::Rbt,
                start_ms: 500,
                period_ms: 40,
                burst_ms: 8,
            });
        let case = tiny_case(plan, false);
        let out = Run::new(&case.config(), case.protocol, case.seed)
            .faults(&case.plan)
            .check()
            .execute();
        let report = out.report;
        assert!(report.fault_crashes > 0 && report.fault_jam_bursts > 0);
        let kept = RunReport {
            nonleaf_nodes: 0,
            delay_samples: 0,
            tx_frames: Default::default(),
            tx_aborted: 0,
            rx_frames_ok: Default::default(),
            rx_frames_corrupt: Default::default(),
            sim_secs: 0.0,
            ..report.clone()
        };
        let check = out.check.expect("checker was attached");
        let back = CaseRecord::from_run(&case, &report, None, &check).report();
        assert_eq!(format!("{back:?}"), format!("{kept:?}"));
    }
}
