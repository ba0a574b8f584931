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
    println!("hidden-terminal chain A-B-C-D, 400 packets\n");
    print!("{:>8}", "");
    for p in PAIR {
        print!("  {:>12} {:>9} {:>9} ", p.label(), "", "");
    }
    print!("\n{:>8}", "rate");
    for _ in PAIR {
        print!("  {:>12} {:>9} {:>9} ", "delivery", "retx", "drop");
    }
    println!();
    for rate in [20.0, 60.0, 100.0, 140.0] {
        print!("{rate:>8}");
        for p in PAIR {
            let r = Run::new(&chain(rate), p, 7).execute().report;
            let (delivery, retx, drop) = (r.delivery_ratio(), r.retx_ratio_avg, r.drop_ratio_avg);
            print!("  {delivery:>12.4} {retx:>9.3} {drop:>9.4} ");
        }
        println!();
    }
    println!("\nWith the RBT held through the data frame, hidden senders defer and");
    println!("receptions stay collision-free; without it, retransmissions climb.");
}
