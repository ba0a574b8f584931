//! Ablation X3: the §3.4 receiver-limit refinement.
//!
//! A dense "star" network (every node within range of the root) gives the
//! root ~40 children, so a reliable multicast must be split into §3.4
//! chunks. Sweeping `max_receivers` shows the trade-off the paper argues:
//! small limits mean more invocations (more MRTS/backoff overhead), large
//! limits mean long MRTSes and long ABT collection windows vulnerable to
//! mixed-up ABTs from nearby sessions.

use rmac_core::MacConfig;
use rmac_engine::{run_replication, Protocol, ScenarioConfig};
use rmac_experiments::env_u64;
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};

fn star_config(limit: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(41)
        .with_packets(env_u64("RMAC_PACKETS", 300))
        .with_mac(MacConfig {
            max_receivers: limit,
            ..MacConfig::default()
        });
    // Everyone within range of everyone: one-hop star around node 0.
    cfg.bounds = rmac_mobility::Bounds::new(50.0, 50.0);
    cfg.name = format!("star-limit{limit}");
    cfg
}

fn main() {
    let seeds = env_u64("RMAC_SEEDS", 5);
    let mut t = Table::new(
        "X3 — §3.4 receiver limit sweep (41-node one-hop star, 20 pkt/s)",
        &["limit", "delivery", "retx", "txoh", "delay_s", "mrts_max_B"],
    );
    for limit in [5usize, 10, 20, 40] {
        let cfg = star_config(limit);
        let reports: Vec<RunReport> = (0..seeds)
            .map(|seed| run_replication(&cfg, Protocol::Rmac, seed))
            .collect();
        let avg = RunReport::average(&reports);
        t.row(vec![
            limit.to_string(),
            fmt(avg.delivery_ratio(), 4),
            fmt(avg.retx_ratio_avg, 3),
            fmt(avg.txoh_ratio_avg, 3),
            fmt(avg.e2e_delay_avg_s, 4),
            fmt(avg.mrts_len_max, 0),
        ]);
    }
    println!("{}", t.render());
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/ablation_rxlimit.csv", t.to_csv());
}
