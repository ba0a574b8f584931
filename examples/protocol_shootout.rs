//! Head-to-head of six MAC variants on one identical placement: RMAC, its
//! no-RBT ablation, and the four reconstructed baselines (BMMM, BMW, LBP,
//! 802.11MX).
//!
//! ```text
//! cargo run --release --example protocol_shootout
//! ```

use rmac::prelude::*;

fn main() {
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(30)
        .with_packets(200);
    cfg.bounds = rmac::mobility::Bounds::new(250.0, 200.0);

    println!("30 nodes, 200 packets at 20 pkt/s, identical placement (seed 5)\n");
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "protocol", "delivery", "drop", "retx", "txoh", "delay(ms)"
    );
    for protocol in [
        Protocol::Rmac,
        Protocol::RmacNoRbt,
        Protocol::Bmmm,
        Protocol::Bmw,
        Protocol::Lbp,
        Protocol::Mx80211,
    ] {
        let r = run_replication(&cfg, protocol, 5);
        println!(
            "{:<12} {:>9.4} {:>8.4} {:>8.3} {:>8.3} {:>10.1}",
            r.protocol,
            r.delivery_ratio(),
            r.drop_ratio_avg,
            r.retx_ratio_avg,
            r.txoh_ratio_avg,
            r.e2e_delay_avg_s * 1e3
        );
    }
    println!("\nLBP and 802.11MX report optimistic MAC-level success (a leader ACK or");
    println!("a silent NAK window covers the whole group), so their *measured*");
    println!("delivery exposes the silent-loss gap the paper attributes to");
    println!("negative-acknowledgment schemes.");
}
