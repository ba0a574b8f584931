//! Ablation X9: what is the RBT actually worth when the tone channel is
//! hostile?
//!
//! The paper's §3.2 argues busy tones cannot collide because each tone
//! channel carries a bare sinusoid — presence is the only information. A
//! jammer exploits exactly that: a constant false RBT makes every sender
//! that honors the tone defer or abort its MRTS. `RMAC-noRBT` does not
//! listen for the tone, so comparing the two under RBT jamming separates
//! the tone's protection value (fault-free column) from its
//! denial-of-service exposure (jammed column).
//!
//! Scaled by `RMAC_SEEDS` (default 5) and `RMAC_PACKETS` (default 200).

use rmac_engine::{Protocol, Run, ScenarioConfig};
use rmac_experiments::{figures, try_tasks, ScenarioKind};
use rmac_faults::{FaultPlan, JamTarget, JammerSpec};
use rmac_metrics::{RunReport, Table};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let seeds: Vec<u64> = (0..env_u64("RMAC_SEEDS", 5)).collect();
    let packets = env_u64("RMAC_PACKETS", 200);
    let rate = 5.0;
    let cfg = ScenarioConfig::paper_stationary(rate).with_packets(packets);
    let rbt_jam = FaultPlan::none().with_jammer(JammerSpec {
        x: 250.0,
        y: 150.0,
        target: JamTarget::Rbt,
        start_ms: 1_000,
        period_ms: 40,
        burst_ms: 8,
    });
    let plans = [("no-jam", FaultPlan::none()), ("rbt-jam", rbt_jam)];
    let protocols = [Protocol::Rmac, Protocol::RmacNoRbt];

    let mut tasks: Vec<(usize, Protocol, u64)> = Vec::new();
    for pi in 0..plans.len() {
        for &p in &protocols {
            for &s in &seeds {
                tasks.push((pi, p, s));
            }
        }
    }
    eprintln!("running {} replications…", tasks.len());
    let reports: Vec<RunReport> = match try_tasks(
        &tasks,
        |&(pi, p, s)| Run::new(&cfg, p, s).faults(&plans[pi].1).execute().report,
        |&(pi, p, s)| {
            format!(
                "replication panicked ({} plan '{}', seed {s})",
                p.label(),
                plans[pi].0
            )
        },
    ) {
        Ok(rs) => rs,
        Err(e) => {
            eprintln!("ablation_tone_jam: {e}");
            std::process::exit(1);
        }
    };

    let mut table = Table::new(
        format!("X9 — RBT value under tone jamming (stationary, {rate} pkt/s)"),
        &[
            "condition",
            "protocol",
            "delivery",
            "retx_avg",
            "abort_avg",
            "jam_bursts",
        ],
    );
    for (pi, (label, _)) in plans.iter().enumerate() {
        for &p in &protocols {
            let pooled: Vec<RunReport> = tasks
                .iter()
                .zip(&reports)
                .filter(|((tpi, tp, _), _)| *tpi == pi && *tp == p)
                .map(|(_, r)| r.clone())
                .collect();
            let avg = RunReport::average(&pooled);
            table.row(vec![
                label.to_string(),
                avg.protocol.clone(),
                format!("{:.4}", avg.delivery_ratio()),
                format!("{:.4}", avg.retx_ratio_avg),
                format!("{:.4}", avg.abort_avg),
                format!("{}", avg.fault_jam_bursts),
            ]);
        }
    }
    figures::emit(&[(ScenarioKind::Stationary, table)], "ablation_tone_jam");
}
