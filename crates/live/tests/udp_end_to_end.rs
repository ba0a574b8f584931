//! End-to-end: the full RMAC exchange — MRTS, RBT, reliable DATA, ABT —
//! and an unreliable broadcast over *real* UDP sockets on localhost, one
//! driver thread per endpoint, exactly as the two-terminal `live_demo`
//! runs it.
//!
//! MAC time runs [`SCALE`]× slower than wall time, so the paper's 2 µs
//! tone-window margin becomes 2 ms of wall slack. The publisher retries on
//! a missed window like any RMAC sender, so the delivery assertion only
//! fails if every attempt fails; the deadline is the MAC's own worst case
//! ([`send_bound`]), so a send still backing off is never read as a wedge.

use std::sync::mpsc;
use std::thread;

use bytes::Bytes;
use rmac_core::{TxOutcome, TxRequest};
use rmac_live::{Driver, LiveConfig, LiveNode, UdpConfig, UdpTransport};
use rmac_sim::SimTime;
use rmac_wire::consts::{CW_MAX, CW_MIN, L_ABT, RETRY_LIMIT, SLOT, T_WF};
use rmac_wire::{Dest, Frame, NodeId};

const PUB: NodeId = NodeId(1);
const SUB: NodeId = NodeId(2);

/// Wall nanoseconds per MAC nanosecond. A tone answers a frame, so its rise
/// is late by the frame's datagram hop, the receiver's timer wake and the
/// tone's own hop — reader thread, channel and driver thread each time —
/// and the sender's 17 µs window needs λ = 15 µs of it: the whole round
/// trip must fit in 2 µs of MAC time. Measured on this host (debug build):
/// rises 1.4–3.8 µs into the window at scale 200 (0.3–0.8 ms of wall), so
/// about half of all attempts missed; 0 of 20 runs retried at 500 or 1000.
/// 1000 leaves 2 ms, which a loaded host still overruns now and then (at
/// most one retry a run with both cores spinning).
const SCALE: u32 = 1000;

/// Two bound endpoints that know each other's control address (a real
/// deployment would learn them from each other's traffic instead).
fn pair(scale: u32) -> (UdpTransport, UdpTransport) {
    let bind = |id| {
        UdpTransport::new(
            id,
            UdpConfig {
                scale,
                ..UdpConfig::default()
            },
        )
        .expect("bind localhost sockets")
    };
    let (mut pub_t, mut sub_t) = (bind(PUB), bind(SUB));
    let (pub_addr, sub_addr) = (pub_t.ctrl_addr(), sub_t.ctrl_addr());
    pub_t.add_peer(SUB, sub_addr);
    sub_t.add_peer(PUB, pub_addr);
    (pub_t, sub_t)
}

fn cfg(peer: NodeId) -> LiveConfig {
    LiveConfig {
        neighbors: vec![peer],
        ..LiveConfig::default()
    }
}

/// The longest a Reliable Send of `payload` to one receiver takes, on a
/// channel nobody else uses, before the MAC reports an outcome — delivered,
/// or dropped at the retry limit: every backoff drawn at its contention
/// window ([`CW_MIN`], then doubled per failed attempt up to [`CW_MAX`]) plus
/// [`RETRY_LIMIT`] + 1 whole attempts (MRTS, RBT window, data, one ABT slot),
/// and a millisecond for timers the host fires late.
fn send_bound(payload: &[u8]) -> SimTime {
    let (mut cw, mut slots) = (CW_MIN, CW_MIN);
    for _ in 0..RETRY_LIMIT {
        cw = (2 * cw + 1).min(CW_MAX);
        slots += cw;
    }
    let data = Frame::data_reliable(PUB, Dest::Group(vec![SUB]), payload.to_vec().into(), 0);
    let attempt = Frame::mrts(PUB, vec![SUB]).airtime() + T_WF + data.airtime() + L_ABT;
    SLOT.mul(slots) + attempt.mul(u64::from(RETRY_LIMIT) + 1) + SimTime::from_millis(1)
}

#[test]
fn reliable_multicast_over_real_sockets() {
    let (pub_t, sub_t) = pair(SCALE);

    let payload = vec![0xA5u8; 120];
    // 89 ms of MAC time; a clean exchange is done after 0.89 ms.
    let deadline = send_bound(&payload);

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let sub_payload = payload.clone();
    let sub_cfg = cfg(PUB);
    let subscriber = thread::spawn(move || {
        let mut d = Driver::new(LiveNode::new(SUB, sub_cfg), sub_t);
        let heard = d
            .pump_until(deadline, |n| n.counters().delivered_up > 0)
            .expect("subscriber transport failed");
        assert!(heard, "subscriber never delivered within the deadline");
        let got = d.node_mut().take_delivered();
        assert!(!got.is_empty());
        assert_eq!(got[0].1.payload.as_ref(), &sub_payload[..]);
        assert_eq!(got[0].1.src, PUB);
        // Keep pumping so late publisher retries still get their ABT
        // until the publisher reports completion.
        while done_rx.try_recv().is_err() {
            d.pump().expect("subscriber transport failed");
        }
        d.node().stats().clone()
    });

    let mut d = Driver::new(LiveNode::new(PUB, cfg(SUB)), pub_t);
    d.submit(TxRequest {
        reliable: true,
        dest: Dest::Group(vec![SUB]),
        payload: Bytes::from(payload),
        token: 7,
    })
    .expect("publisher transport failed");
    let mut outcomes = Vec::new();
    while outcomes.is_empty() {
        let now = d.pump().expect("publisher transport failed");
        outcomes = d.node_mut().take_outcomes();
        assert!(
            now < deadline || !outcomes.is_empty(),
            "no outcome within the retry schedule's bound: {:?}, {:?}",
            d.node().state(),
            d.node().counters()
        );
    }
    println!("attempts: {}", d.node().counters().mrts_tx);
    done_tx.send(()).ok();
    let sub_stats = subscriber.join().expect("subscriber thread panicked");

    let (7, TxOutcome::Reliable { delivered, failed }) = &outcomes[0] else {
        panic!("unexpected outcome: {outcomes:?}");
    };
    assert_eq!(delivered, &vec![SUB], "ABT must be seen over real sockets");
    assert!(failed.is_empty());
    // The subscriber really spoke the control channel: it raised RBT and
    // ABT as datagrams.
    assert!(sub_stats.ctrl_tx > 0, "subscriber sent tone datagrams");
    assert!(sub_stats.data_rx > 0, "subscriber heard data datagrams");
}

/// An unreliable broadcast opens no tone window, so host latency cannot
/// make it miss one: whatever the timing, the sender reports `Sent` once
/// its frame's airtime is over and the peer delivers the frame once. It
/// therefore runs unscaled; the deadline only catches a wedge.
#[test]
fn unreliable_broadcast_over_real_sockets() {
    let (pub_t, sub_t) = pair(1);
    let deadline = SimTime::from_secs(10);
    let subscriber = thread::spawn(move || {
        let mut d = Driver::new(LiveNode::new(SUB, cfg(PUB)), sub_t);
        let heard = d
            .pump_until(deadline, |n| n.counters().delivered_up > 0)
            .expect("subscriber transport failed");
        assert!(heard, "subscriber never delivered within the deadline");
        d.node_mut().take_delivered()
    });

    let mut d = Driver::new(LiveNode::new(PUB, cfg(SUB)), pub_t);
    d.submit(TxRequest {
        reliable: false,
        dest: Dest::Broadcast,
        payload: Bytes::from_static(b"fire and forget"),
        token: 1,
    })
    .expect("publisher transport failed");
    let mut outcomes = Vec::new();
    while outcomes.is_empty() {
        let now = d.pump().expect("publisher transport failed");
        outcomes = d.node_mut().take_outcomes();
        assert!(
            now < deadline || !outcomes.is_empty(),
            "broadcast never finished"
        );
    }
    assert!(
        matches!(outcomes[..], [(1, TxOutcome::Sent)]),
        "{outcomes:?}"
    );

    let got = subscriber.join().expect("subscriber thread panicked");
    assert_eq!(got.len(), 1, "exactly one delivery");
    assert_eq!(got[0].1.payload.as_ref(), b"fire and forget");
    assert_eq!(got[0].1.src, PUB);
}
