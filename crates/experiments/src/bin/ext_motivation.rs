//! Extension X7: the paper's §1 motivation, measured.
//!
//! "Adding local recovery at the MAC layer can greatly improve the
//! end-to-end performance" — §1 argues that tree-based multicast without
//! per-hop reliability loses whole subtrees to single-hop losses. This
//! experiment runs the identical tree workload with (a) RMAC's Reliable
//! Send per hop and (b) plain unreliable broadcast per hop (the 802.11
//! multicast strawman of §1) and compares delivery.

use rmac_engine::{run_replication, Protocol, ScenarioConfig};
use rmac_experiments::env_u64;
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};

fn main() {
    let seeds = env_u64("RMAC_SEEDS", 3);
    let packets = env_u64("RMAC_PACKETS", 300);
    let mut t = Table::new(
        "X7 — per-hop MAC reliability vs plain broadcast forwarding (RMAC stack)",
        &[
            "scenario",
            "rate_pps",
            "reliable deliv",
            "unreliable deliv",
            "gain",
        ],
    );
    for (label, mk) in [
        (
            "stationary",
            (|r| ScenarioConfig::paper_stationary(r)) as fn(f64) -> ScenarioConfig,
        ),
        ("speed1", |r| ScenarioConfig::paper_speed1(r)),
    ] {
        for rate in [5.0, 20.0, 60.0] {
            let avg = |cfg: &ScenarioConfig| {
                let rs: Vec<RunReport> = (0..seeds)
                    .map(|s| run_replication(cfg, Protocol::Rmac, s))
                    .collect();
                RunReport::average(&rs)
            };
            let reliable = avg(&mk(rate).with_packets(packets));
            let unreliable = avg(&mk(rate).with_packets(packets).with_unreliable_forwarding());
            t.row(vec![
                label.to_string(),
                fmt(rate, 0),
                fmt(reliable.delivery_ratio(), 4),
                fmt(unreliable.delivery_ratio(), 4),
                format!(
                    "{:.2}x",
                    reliable.delivery_ratio() / unreliable.delivery_ratio().max(1e-9)
                ),
            ]);
        }
    }
    println!("{}", t.render());
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/ext_motivation.csv", t.to_csv());
}
