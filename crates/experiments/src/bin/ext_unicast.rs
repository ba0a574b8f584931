//! Extension X6: the Reliable Send service in *unicast* mode.
//!
//! §3.3.2 claims all three communication modes follow the same procedure;
//! for n = 1 the control cost is a single 18-byte MRTS plus one 17 µs ABT
//! window (≈ 185 µs) against 802.11-family RTS/CTS/…/ACK (≈ 632 µs + SIFS
//! gaps). This experiment runs a one-hop unicast flow and a 3-hop unicast
//! chain under RMAC and BMMM and reports delivery, delay and overhead —
//! demonstrating the generalised protocol's claim that busy-tone
//! acknowledgment pays off even without multicast fan-out.

use rmac_engine::{run_replication, Protocol, ScenarioConfig};
use rmac_experiments::env_u64;
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};
use rmac_mobility::Pos;

fn flow(hops: usize, rate: f64, packets: u64) -> ScenarioConfig {
    let positions: Vec<Pos> = (0..=hops).map(|i| Pos::new(i as f64 * 70.0, 0.0)).collect();
    ScenarioConfig::paper_stationary(rate)
        .with_packets(packets)
        .with_positions(positions)
}

fn main() {
    let packets = env_u64("RMAC_PACKETS", 500);
    let mut t = Table::new(
        "X6 — reliable unicast: one flow, per-hop RMAC vs BMMM",
        &[
            "hops",
            "rate_pps",
            "RMAC deliv",
            "RMAC delay_ms",
            "RMAC txoh",
            "BMMM deliv",
            "BMMM delay_ms",
            "BMMM txoh",
        ],
    );
    for hops in [1usize, 3] {
        for rate in [20.0, 80.0, 160.0] {
            let cfg = flow(hops, rate, packets);
            let avg = |p: Protocol| {
                let rs: Vec<RunReport> = (0..3).map(|s| run_replication(&cfg, p, s)).collect();
                RunReport::average(&rs)
            };
            let rmac = avg(Protocol::Rmac);
            let bmmm = avg(Protocol::Bmmm);
            t.row(vec![
                hops.to_string(),
                fmt(rate, 0),
                fmt(rmac.delivery_ratio(), 4),
                fmt(rmac.e2e_delay_avg_s * 1e3, 2),
                fmt(rmac.txoh_ratio_avg, 3),
                fmt(bmmm.delivery_ratio(), 4),
                fmt(bmmm.e2e_delay_avg_s * 1e3, 2),
                fmt(bmmm.txoh_ratio_avg, 3),
            ]);
        }
    }
    println!("{}", t.render());
    println!("closed-form control costs (§2): RMAC unicast ≈ 185 µs/packet; BMMM ≈ 632 µs/packet");
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write("results/ext_unicast.csv", t.to_csv());
}
