//! The hidden-terminal experiment: why the Receiver Busy Tone matters.
//!
//! Topology (75 m radio range):
//!
//! ```text
//!   A(0) ---- B(70m) ---- C(140m) ---- D(210m)
//! ```
//!
//! A and C cannot hear each other but both reach B — the classic hidden
//! pair. With the tree rooted at A, B forwards to C and C to D, so every
//! hop has a hidden interferer two hops away. RMAC's RBT makes each data
//! reception reserve the channel around the *receiver*; the ablated
//! RMAC-noRBT lowers the tone once data starts, exposing receptions to
//! hidden-terminal collisions exactly as §3.2 warns.
//!
//! ```text
//! cargo run --release --example hidden_terminal
//! ```

use rmac::metrics::table::fmt;
use rmac::metrics::Table;
use rmac::prelude::*;

fn chain(rate: f64) -> ScenarioConfig {
    // Six nodes, five hops: deep enough that several packets are in
    // flight at once, so hidden pairs (two hops apart) really do overlap.
    ScenarioConfig::paper_stationary(rate)
        .with_packets(400)
        .with_chain(5, 70.0)
}

/// With and without the RBT held through the data frame.
const PAIR: [Protocol; 2] = [Protocol::Rmac, Protocol::RmacNoRbt];

fn main() {
    let mut headers = vec!["rate".to_string()];
    for p in PAIR {
        headers.extend(["delivery", "retx", "drop"].map(|m| format!("{} {m}", p.label())));
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("hidden-terminal chain A-B-C-D, 400 packets", &headers);
    for rate in [20.0, 60.0, 100.0, 140.0] {
        let mut row = vec![rate.to_string()];
        for p in PAIR {
            let r = Run::new(&chain(rate), p, 7).execute().report;
            row.extend([
                fmt(r.delivery_ratio(), 4),
                fmt(r.retx_ratio_avg, 3),
                fmt(r.drop_ratio_avg, 4),
            ]);
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("With the RBT held through the data frame, hidden senders defer and");
    println!("receptions stay collision-free; without it, retransmissions climb.");
}
