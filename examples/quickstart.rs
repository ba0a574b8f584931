//! Quickstart: simulate a small ad hoc network running RMAC and print the
//! paper's headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rmac::prelude::*;

fn main() {
    // A 20-node stationary network on a 200 m × 150 m plane, multicast
    // source at node 0 sending 200 × 500-byte packets at 20 packets/s.
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(20)
        .with_packets(200);
    cfg.bounds = rmac::mobility::Bounds::new(200.0, 150.0);

    let report = Run::new(&cfg, Protocol::Rmac, 42).execute().report;

    println!(
        "RMAC quickstart — {} nodes, {} packets at {} pkt/s",
        20, 200, 20
    );
    println!("  packet delivery ratio : {:.4}", report.delivery_ratio());
    println!("  avg drop ratio        : {:.4}", report.drop_ratio_avg);
    println!("  avg retransmissions   : {:.4}", report.retx_ratio_avg);
    println!("  avg overhead ratio    : {:.4}", report.txoh_ratio_avg);
    println!(
        "  avg end-to-end delay  : {:.2} ms",
        report.e2e_delay_avg_s * 1e3
    );
    println!("  avg MRTS length       : {:.1} bytes", report.mrts_len_avg);
    println!(
        "  simulated             : {:.1} s ({} events)",
        report.sim_secs, report.events
    );

    // The same network under BMMM, for contrast.
    let bmmm = Run::new(&cfg, Protocol::Bmmm, 42).execute().report;
    println!("\nBMMM on the identical placement:");
    println!("  packet delivery ratio : {:.4}", bmmm.delivery_ratio());
    println!("  avg overhead ratio    : {:.4}", bmmm.txoh_ratio_avg);
    println!(
        "  avg end-to-end delay  : {:.2} ms",
        bmmm.e2e_delay_avg_s * 1e3
    );
}
