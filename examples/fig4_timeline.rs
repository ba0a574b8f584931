//! Reproduce the paper's **Fig. 4** — the Reliable Send timeline — as an
//! executable trace.
//!
//! Node 0 (the sender, "Node A" in the figure) multicasts to two receivers
//! ("Node B" and "Node C"). The printed trace is the §3.3.2 sequence as the
//! run reported it: the MRTS goes out; each receiver raises its RBT the
//! instant it has the MRTS; T_wf_rbt later the sender — having detected the
//! tone through its WF_RBT watch — transmits the data frame; the receivers
//! lower the RBT, deliver, and answer with one 17 µs ABT each, in the slot
//! the MRTS assigned them. The table underneath is the same tones from the
//! other side: time heard, per node, from the channel's tone records.
//!
//! ```text
//! cargo run --release --example fig4_timeline
//! ```

use std::sync::{Arc, Mutex};

use rmac::engine::TraceEvent;
use rmac::metrics::table::fmt;
use rmac::metrics::Table;
use rmac::mobility::Pos;
use rmac::prelude::*;

fn main() {
    // Sender at the origin, two receivers in range of it and of each other.
    let cfg = ScenarioConfig::paper_stationary(5.0)
        .with_packets(1)
        .with_positions(vec![
            Pos::new(0.0, 0.0),  // node 0: sender (tree root)
            Pos::new(50.0, 0.0), // node 1: receiver B
            Pos::new(0.0, 50.0), // node 2: receiver C
        ]);

    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let sink = events.clone();
    let out = Run::new(&cfg, Protocol::Rmac, 3)
        .tracer(Box::new(move |e| sink.lock().unwrap().push(e.clone())))
        .obs(ObsConfig::default())
        .execute();

    // Show the window around the one application packet: from its
    // submission at the source to the end of the exchange.
    let events = events.lock().unwrap();
    let start = events
        .iter()
        .position(|e| {
            matches!(
                e.what,
                rmac::engine::TraceWhat::Submit { reliable: true, .. }
            )
        })
        .expect("the source submitted its packet");
    println!("Fig. 4 — Procedure of the Reliable Send Service (executed)\n");
    println!("sender n0, receivers n1 (slot 0) and n2 (slot 1).\n");
    // The whole exchange fits in ~3 ms; cut the trace there so the
    // following routing-beacon traffic doesn't drown the figure.
    let t0 = events[start].t;
    for e in &events[start..] {
        if e.t > t0 + rmac::sim::SimTime::from_millis(3) {
            break;
        }
        println!("{e}");
    }
    let mut tones = Table::new(
        "tones heard over the run (the one exchange is all there is)",
        &["node", "RBT_us", "ABT_us"],
    );
    for (i, n) in out.obs.expect("obs attached").nodes.iter().enumerate() {
        let [rbt, abt] = n.tone_busy_ns.map(|ns| fmt(ns as f64 / 1e3, 1));
        tones.row(vec![format!("n{i}"), rbt, abt]);
    }
    print!("\n{}", tones.render());
    println!(
        "\ndelivery ratio {:.2} — both receivers got the packet and ABT'd.",
        out.report.delivery_ratio()
    );
}
