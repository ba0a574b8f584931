//! Extension X8: protocol degradation under injected faults.
//!
//! Runs RMAC and BMMM through the `rmac-faults` fault plane, one fault
//! class at a time, and reports how gracefully each protocol degrades
//! relative to its own fault-free baseline:
//!
//! * `none`      — control row, no injector attached.
//! * `bursty`    — Gilbert–Elliott bursty loss on every link.
//! * `churn`     — node crashes plus deaf- and mute-radio faults.
//! * `tone-jam`  — jammers on the RBT and ABT busy-tone channels
//!   (stressing §3.2's "tones never collide" design assumption).
//! * `data-jam`  — a noise transmitter on the data channel.
//! * `skew`      — ±200 ppm clock skew on a third of the nodes.
//!
//! Scaled by `RMAC_SEEDS` (default 5) and `RMAC_PACKETS` (default 200).

use rmac_engine::{Protocol, Run, ScenarioConfig};
use rmac_experiments::{figures, try_tasks, ScenarioKind};
use rmac_faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac_metrics::{RunReport, Table};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The fault classes under study, each as a named plan.
fn fault_classes() -> Vec<(&'static str, FaultPlan)> {
    let churn = FaultPlan::none()
        .with_churn(ChurnSpec {
            node: 5,
            kind: ChurnKind::Crash,
            at_ms: 5_000,
            for_ms: 5_000,
        })
        .with_churn(ChurnSpec {
            node: 10,
            kind: ChurnKind::Crash,
            at_ms: 12_000,
            for_ms: 5_000,
        })
        .with_churn(ChurnSpec {
            node: 15,
            kind: ChurnKind::Deaf,
            at_ms: 8_000,
            for_ms: 10_000,
        })
        .with_churn(ChurnSpec {
            node: 20,
            kind: ChurnKind::Mute,
            at_ms: 8_000,
            for_ms: 10_000,
        });
    // Two tone jammers at mid-field: one filling the RBT channel with a
    // false "receiver busy", one polluting the ABT reply slots.
    let tone_jam = FaultPlan::none()
        .with_jammer(JammerSpec {
            x: 250.0,
            y: 150.0,
            target: JamTarget::Rbt,
            start_ms: 1_000,
            period_ms: 50,
            burst_ms: 10,
        })
        .with_jammer(JammerSpec {
            x: 200.0,
            y: 120.0,
            target: JamTarget::Abt,
            start_ms: 1_000,
            period_ms: 50,
            burst_ms: 10,
        });
    let data_jam = FaultPlan::none().with_jammer(JammerSpec {
        x: 250.0,
        y: 150.0,
        target: JamTarget::Data,
        start_ms: 1_000,
        period_ms: 40,
        burst_ms: 4,
    });
    let mut skew = FaultPlan::none();
    for node in (0..75u16).step_by(3) {
        let ppm = if node % 2 == 0 { 200.0 } else { -200.0 };
        skew = skew.with_skew(SkewSpec { node, ppm });
    }
    vec![
        ("none", FaultPlan::none()),
        ("bursty", FaultPlan::none().with_bursty(BurstySpec::harsh())),
        ("churn", churn),
        ("tone-jam", tone_jam),
        ("data-jam", data_jam),
        ("skew", skew),
    ]
}

fn main() {
    let seeds: Vec<u64> = (0..env_u64("RMAC_SEEDS", 5)).collect();
    let packets = env_u64("RMAC_PACKETS", 200);
    let rate = 5.0;
    let cfg = ScenarioConfig::paper_stationary(rate).with_packets(packets);
    let protocols = [Protocol::Rmac, Protocol::Bmmm];
    let classes = fault_classes();

    let mut tasks: Vec<(usize, Protocol, u64)> = Vec::new();
    for ci in 0..classes.len() {
        for &p in &protocols {
            for &s in &seeds {
                tasks.push((ci, p, s));
            }
        }
    }
    eprintln!("running {} replications…", tasks.len());
    let reports: Vec<RunReport> = match try_tasks(
        &tasks,
        |&(ci, p, s)| Run::new(&cfg, p, s).faults(&classes[ci].1).execute().report,
        |&(ci, p, s)| {
            format!(
                "replication panicked ({} fault '{}', seed {s})",
                p.label(),
                classes[ci].0
            )
        },
    ) {
        Ok(rs) => rs,
        Err(e) => {
            eprintln!("ext_faults: {e}");
            std::process::exit(1);
        }
    };

    let mut table = Table::new(
        format!("X8 — degradation per fault class (stationary, {rate} pkt/s)"),
        &[
            "fault",
            "protocol",
            "delivery",
            "retx_avg",
            "delay_ms",
            "injected",
            "crashes",
            "jam_bursts",
        ],
    );
    for (ci, (label, _)) in classes.iter().enumerate() {
        for &p in &protocols {
            let pooled: Vec<RunReport> = tasks
                .iter()
                .zip(&reports)
                .filter(|((tci, tp, _), _)| *tci == ci && *tp == p)
                .map(|(_, r)| r.clone())
                .collect();
            let avg = RunReport::average(&pooled);
            table.row(vec![
                label.to_string(),
                avg.protocol.clone(),
                format!("{:.4}", avg.delivery_ratio()),
                format!("{:.4}", avg.retx_ratio_avg),
                format!("{:.2}", avg.e2e_delay_avg_s * 1e3),
                format!("{}", avg.faults_injected),
                format!("{}", avg.fault_crashes),
                format!("{}", avg.fault_jam_bursts),
            ]);
        }
    }
    figures::emit(&[(ScenarioKind::Stationary, table)], "ext_faults");
}
