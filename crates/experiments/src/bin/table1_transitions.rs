//! Table 1 / Fig. 14: drive the RMAC state machine through its transition
//! conditions with a scripted context and print the observed transitions.
//!
//! Every row is produced by actually executing the implementation (not by
//! quoting the paper): the scripted context plays the other side of the
//! protocol and the state is sampled before and after each stimulus.

use bytes::Bytes;
use rmac_core::api::{MacService, TimerKind, TxRequest};
use rmac_core::testkit::Mock;
use rmac_core::{MacConfig, Rmac, State};
use rmac_metrics::Table;
use rmac_phy::{Indication, Tone};
use rmac_wire::consts::T_WF;
use rmac_wire::{Dest, Frame, NodeId};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

struct Trace {
    rows: Vec<(String, State, State)>,
}

impl Trace {
    fn new() -> Trace {
        Trace { rows: Vec::new() }
    }

    fn step(&mut self, label: &str, mac: &Rmac, before: State) {
        self.rows.push((label.to_string(), before, mac.state()));
    }
}

fn main() {
    let mut t = Table::new(
        "Table 1 — observed RMAC state transitions",
        &["condition", "from", "to"],
    );
    let mut trace = Trace::new();

    // --- Sender-side reliable cycle (C10, C17, C18, C19, success) ------
    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    let before = r.state();
    r.submit(
        &mut m,
        TxRequest {
            reliable: true,
            dest: Dest::Group(vec![n(1), n(2)]),
            payload: Bytes::from_static(b"pkt"),
            token: 1,
        },
    );
    trace.step("C10: reliable request, channels idle, BI=0", &r, before);

    let before = r.state();
    m.finish_tx(&mut r, false);
    trace.step("C17: MRTS transmission complete", &r, before);

    let before = r.state();
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    trace.step("C18: RBT detected before T_wf_rbt expired", &r, before);

    let before = r.state();
    m.finish_tx(&mut r, false);
    trace.step("C19: reliable data transmission complete", &r, before);

    let before = r.state();
    m.preset_abt_slots(m.now, 2, &[0, 1]);
    m.fire(&mut r, TimerKind::WfAbt);
    trace.step("C16: all ABTs seen, channels idle (→ backoff)", &r, before);

    // --- Sender-side failure paths (C15, C11) ---------------------------
    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    r.submit(
        &mut m,
        TxRequest {
            reliable: true,
            dest: Dest::Node(n(1)),
            payload: Bytes::from_static(b"pkt"),
            token: 2,
        },
    );
    m.finish_tx(&mut r, false);
    let before = r.state();
    m.preset_silent(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    trace.step("C15: no RBT arrived, channels idle (→ retry)", &r, before);

    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    r.submit(
        &mut m,
        TxRequest {
            reliable: true,
            dest: Dest::Node(n(1)),
            payload: Bytes::from_static(b"pkt"),
            token: 3,
        },
    );
    let before = r.state();
    r.on_indication(
        &mut m,
        &Indication::ToneChanged {
            node: n(0),
            tone: Tone::Rbt,
            present: true,
        },
    );
    m.tone[Tone::Rbt.idx()] = true;
    m.finish_tx(&mut r, true);
    trace.step("C11: MRTS aborted on sensing an RBT", &r, before);

    // --- Unreliable service (C1, C5) ------------------------------------
    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    let before = r.state();
    r.submit(
        &mut m,
        TxRequest {
            reliable: false,
            dest: Dest::Broadcast,
            payload: Bytes::from_static(b"beacon"),
            token: 4,
        },
    );
    trace.step("C1: unreliable request, channels idle, BI=0", &r, before);
    let before = r.state();
    m.finish_tx(&mut r, false);
    trace.step("C5: unreliable transmission complete", &r, before);

    // --- Receiver side (C3, C4, data reception) -------------------------
    let mut m = Mock::new();
    let mut r = Rmac::new(n(2), MacConfig::default());
    let before = r.state();
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    trace.step("C3: MRTS correctly received (RBT raised)", &r, before);

    let before = r.state();
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::from_static(b"d"), 0);
    m.rx_frame(&mut r, n(2), data, true);
    trace.step("C4/C7: data received, ABT scheduled", &r, before);

    let mut m = Mock::new();
    let mut r = Rmac::new(n(2), MacConfig::default());
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    let before = r.state();
    m.fire(&mut r, TimerKind::WfRdata);
    trace.step("C4: T_wf_rdata expired without data", &r, before);

    // --- Backoff mechanics (C8, C14 analogue, suspension) ---------------
    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    m.data_busy = true;
    r.submit(
        &mut m,
        TxRequest {
            reliable: true,
            dest: Dest::Node(n(1)),
            payload: Bytes::from_static(b"pkt"),
            token: 5,
        },
    );
    let before = r.state();
    m.data_busy = false;
    r.on_indication(&mut m, &Indication::CarrierOff { node: n(0) });
    trace.step("C8: channels idle, BI>0 (→ count down)", &r, before);
    if r.state() == State::Backoff {
        let before = r.state();
        m.data_busy = true;
        m.fire(&mut r, TimerKind::BackoffSlot);
        trace.step("suspension: slot found channel busy", &r, before);
    }

    for (label, from, to) in trace.rows {
        t.row(vec![label, format!("{from:?}"), format!("{to:?}")]);
    }
    println!("{}", t.render());
    rmac_experiments::publish("table1_transitions.csv", &t.to_csv());
}
