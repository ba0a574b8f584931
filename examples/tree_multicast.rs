//! The paper's full workload at paper scale: 75 nodes on 500 m × 300 m,
//! BLESS-lite tree rooted at node 0, reliable multicast down the tree.
//! Prints the formed tree's statistics (paper §4.1.1: hops 3.87 avg / 10
//! p99; children 3.54 avg / 9 p99) and the run's headline metrics, and
//! writes the tree as Graphviz DOT. `-- 5 50 0` draws the tree of Fig. 6's
//! first placement (campaign `topology`).
//!
//! ```text
//! cargo run --release --example tree_multicast [-- <rate_pps> <packets> <seed>]
//! ```

use std::fs;

use rmac::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20.0);
    let packets: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);

    let cfg = ScenarioConfig::paper_stationary(rate).with_packets(packets);
    let RunOutput {
        report, parents, ..
    } = Run::new(&cfg, Protocol::Rmac, seed).execute();

    println!("75-node tree multicast, {rate} pkt/s, {packets} packets, seed {seed} (RMAC)\n");
    println!("tree statistics (paper: hops 3.87/10, children 3.54/9):");
    println!(
        "  hops to root : avg {:.2}, p99 {:.0}",
        report.hops_avg, report.hops_p99
    );
    println!(
        "  children     : avg {:.2}, p99 {:.0}",
        report.children_avg, report.children_p99
    );
    println!("\nrun metrics:");
    println!("  delivery ratio : {:.4}", report.delivery_ratio());
    println!("  drop ratio     : {:.4}", report.drop_ratio_avg);
    println!("  retransmission : {:.4}", report.retx_ratio_avg);
    println!("  overhead ratio : {:.4}", report.txoh_ratio_avg);
    println!("  e2e delay      : {:.1} ms", report.e2e_delay_avg_s * 1e3);
    println!(
        "  MRTS length    : avg {:.1} B, p99 {:.0} B, max {:.0} B",
        report.mrts_len_avg, report.mrts_len_p99, report.mrts_len_max
    );

    let mut dot = String::from("digraph tree {\n  rankdir=TB;\n  node [shape=circle];\n");
    dot.push_str("  0 [style=filled, fillcolor=lightblue];\n");
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            dot.push_str(&format!("  {} -> {};\n", p.0, i));
        }
    }
    dot.push_str("}\n");
    let path = "tree_multicast.dot";
    if fs::write(path, &dot).is_ok() {
        println!("\ntree written to {path} (render with `dot -Tpng {path} -o tree.png`)");
    }
}
