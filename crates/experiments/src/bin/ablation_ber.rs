//! Ablation X4: channel bit-error rate.
//!
//! §3.4 notes the receiver limit "can be further reduced in case of high
//! error bit rate in the wireless channel"; more broadly, BER stresses
//! every ARQ scheme differently: RMAC pays one MRTS + data per retry and
//! its tones are immune to bit errors, while BMMM's 2n control frames are
//! each themselves corruptible. This sweep measures both under rising BER.

use rmac_engine::{run_replication, Protocol, ScenarioConfig};
use rmac_experiments::env_u64;
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};

fn main() {
    let seeds = env_u64("RMAC_SEEDS", 3);
    let packets = env_u64("RMAC_PACKETS", 300);
    let mut t = Table::new(
        "X4 — bit-error-rate sweep (stationary, 20 pkt/s)",
        &[
            "BER",
            "RMAC deliv",
            "RMAC retx",
            "RMAC drop",
            "BMMM deliv",
            "BMMM retx",
            "BMMM drop",
        ],
    );
    for ber in [0.0, 1e-6, 1e-5, 5e-5, 1e-4] {
        let cfg = ScenarioConfig::paper_stationary(20.0)
            .with_packets(packets)
            .with_ber(ber);
        let avg = |p: Protocol| {
            let rs: Vec<RunReport> = (0..seeds).map(|s| run_replication(&cfg, p, s)).collect();
            RunReport::average(&rs)
        };
        let rmac = avg(Protocol::Rmac);
        let bmmm = avg(Protocol::Bmmm);
        t.row(vec![
            format!("{ber:.0e}"),
            fmt(rmac.delivery_ratio(), 4),
            fmt(rmac.retx_ratio_avg, 3),
            fmt(rmac.drop_ratio_avg, 4),
            fmt(bmmm.delivery_ratio(), 4),
            fmt(bmmm.retx_ratio_avg, 3),
            fmt(bmmm.drop_ratio_avg, 4),
        ]);
    }
    println!("{}", t.render());
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/ablation_ber.csv", t.to_csv());
}
