//! Fig. 6 / §4.1.1: form trees on several random placements and report the
//! hop and children statistics the paper quotes (hops avg 3.87 / 99p 10;
//! children avg 3.54 / 99p 9), plus a Graphviz export of one example tree.

use rmac_experiments::figures::fig6_topology;
use rmac_experiments::publish;
use rmac_metrics::table::fmt;
use rmac_metrics::Table;

/// Random placements measured.
const SEEDS: u64 = 10;

fn main() {
    let mut t = Table::new(
        "Fig.6 — tree topology statistics (paper: hops 3.87/10, children 3.54/9)",
        &[
            "seed",
            "hops_avg",
            "hops_p99",
            "children_avg",
            "children_p99",
        ],
    );
    let mut hops_sum = 0.0;
    let mut kids_sum = 0.0;
    for seed in 0..SEEDS {
        let (report, dot) = fig6_topology(seed, 50);
        if seed == 0 {
            publish("fig6_tree.dot", &dot);
        }
        hops_sum += report.hops_avg;
        kids_sum += report.children_avg;
        t.row(vec![
            seed.to_string(),
            fmt(report.hops_avg, 2),
            fmt(report.hops_p99, 0),
            fmt(report.children_avg, 2),
            fmt(report.children_p99, 0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "cross-placement means: hops {:.2}, children {:.2}",
        hops_sum / SEEDS as f64,
        kids_sum / SEEDS as f64
    );
    println!("example tree written to results/fig6_tree.dot");
    publish("fig6_topology.csv", &t.to_csv());
}
