//! §2 arithmetic: the control-overhead comparison that motivates RMAC.
//!
//! Prints the closed-form per-packet control cost of BMMM's 2n control
//! frame pairs against RMAC's single MRTS + n ABT checks, reproducing the
//! paper's quoted numbers (96 µs PHY overhead per frame, 56 µs ACK body,
//! ≈ 632·n µs for BMMM).

use rmac_metrics::table::fmt;
use rmac_metrics::Table;
use rmac_wire::airtime::{
    bmmm_control_cost, bmmm_control_cost_with_sifs, mrts_airtime, mrts_len, rmac_control_cost,
};

fn main() {
    let mut t = Table::new(
        "§2 — per-packet control cost vs receiver count n (µs)",
        &[
            "n",
            "MRTS bytes",
            "MRTS air",
            "RMAC ctrl",
            "BMMM ctrl",
            "BMMM ctrl+SIFS",
            "BMMM/RMAC",
        ],
    );
    for n in [1usize, 2, 3, 4, 5, 8, 10, 15, 20] {
        let rmac = rmac_control_cost(n);
        let bmmm = bmmm_control_cost(n);
        t.row(vec![
            n.to_string(),
            mrts_len(n).to_string(),
            fmt(mrts_airtime(n).as_micros_f64(), 0),
            fmt(rmac.as_micros_f64(), 0),
            fmt(bmmm.as_micros_f64(), 0),
            fmt(bmmm_control_cost_with_sifs(n).as_micros_f64(), 0),
            fmt(bmmm.nanos() as f64 / rmac.nanos() as f64, 1),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper checkpoints: BMMM ctrl = 632·n µs; ACK body = 56 µs; PHY overhead = 96 µs/frame"
    );
    rmac_experiments::publish("table_overhead.csv", &t.to_csv());
}
