//! Reproduce the paper's **Fig. 4** — the Reliable Send timeline — as an
//! executable trace.
//!
//! Node 0 (the sender, "Node A" in the figure) multicasts to two receivers
//! ("Node B" and "Node C"). The printed trace shows the exact §3.3.2
//! sequence: MRTS out → both receivers raise the RBT → sender detects it
//! and transmits the data frame → receivers drop the RBT and answer ABTs
//! in their MRTS-assigned slots → the sender's ABT windows confirm both.
//!
//! ```text
//! cargo run --release --example fig4_timeline
//! ```

use std::sync::{Arc, Mutex};

use rmac::engine::TraceEvent;
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
    let report = Run::new(&cfg, Protocol::Rmac, 3)
        .tracer(Box::new(move |e| sink.lock().unwrap().push(e.clone())))
        .execute()
        .report;

    // Show the window around the one application packet: from its
    // submission at the source to the last tone edge of the exchange.
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
    println!("sender n0, receivers n1 (slot 0) and n2 (slot 1).");
    println!("(tone lines are *sensed* presence: 'n0 Abt on' = node 0 hears an ABT)\n");
    // The whole exchange fits in ~3 ms; cut the trace there so the
    // following routing-beacon traffic doesn't drown the figure.
    let t0 = events[start].t;
    for e in &events[start..] {
        if e.t > t0 + rmac::sim::SimTime::from_millis(3) {
            break;
        }
        println!("{e}");
    }
    println!(
        "\ndelivery ratio {:.2} — both receivers got the packet and ABT'd.",
        report.delivery_ratio()
    );
}
