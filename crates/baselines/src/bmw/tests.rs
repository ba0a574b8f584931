//! Unit tests for BMW.

use bytes::Bytes;
use rmac_core::api::{MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_core::testkit::Mock;
use rmac_sim::SimTime;
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::bmw::Bmw;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn mac(id: u16) -> Bmw {
    Bmw::new(n(id), MacConfig::default())
}

fn reliable(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest,
        payload: Bytes::from_static(b"data"),
        token,
    }
}

fn drain_contention(m: &mut Mock, b: &mut Bmw) {
    let mut guard = 0;
    while m.tx_frame.is_none() && m.has_timer(TimerKind::BackoffSlot) {
        m.fire(b, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "contention never resolved");
    }
}

/// One receiver exchange: RTS → CTS(expected) → [DATA → ACK].
fn serve_receiver(m: &mut Mock, b: &mut Bmw, r: NodeId, expected: u32, with_data: bool) {
    drain_contention(m, b);
    let rts = m.last_tx().clone();
    assert_eq!(rts.kind, FrameKind::Rts);
    assert_eq!(rts.dest, Dest::Node(r));
    m.finish_tx(b, false);
    let mut cts = Frame::control(FrameKind::Cts, r, rts.src, SimTime::ZERO);
    cts.seq = expected;
    m.rx_frame(b, rts.src, cts, true);
    if with_data {
        m.fire(b, TimerKind::Ifs);
        let data = m.last_tx().clone();
        assert_eq!(data.kind, FrameKind::DataReliable);
        m.finish_tx(b, false);
        let ack = Frame::control(FrameKind::Ack, r, rts.src, SimTime::ZERO);
        m.rx_frame(b, rts.src, ack, true);
    }
}

#[test]
fn round_robin_unicasts_deliver_to_group() {
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 9));
    // Receiver 1: full exchange with DATA.
    serve_receiver(&mut m, &mut b, n(1), 0, true);
    // Receiver 2 overheard the DATA: its CTS says expected = 1 > seq 0,
    // so the sender skips DATA/ACK.
    serve_receiver(&mut m, &mut b, n(2), 1, false);
    assert_eq!(
        m.notifications,
        vec![(
            9,
            TxOutcome::Reliable {
                delivered: vec![n(1), n(2)],
                failed: vec![],
            }
        )]
    );
}

#[test]
fn silent_receiver_is_dropped_after_retries() {
    let mut m = Mock::new();
    let mut b = mac(0);
    let limit = MacConfig::default().retry_limit;
    b.submit(&mut m, reliable(Dest::Node(n(1)), 4));
    for _ in 0..=limit {
        drain_contention(&mut m, &mut b);
        m.finish_tx(&mut b, false);
        m.fire(&mut b, TimerKind::AwaitResponse);
    }
    assert_eq!(m.counters.drops, 1);
    assert_eq!(
        m.notifications,
        vec![(
            4,
            TxOutcome::Reliable {
                delivered: vec![],
                failed: vec![n(1)],
            }
        )]
    );
}

#[test]
fn receiver_cts_carries_expected_seq_and_acks_data() {
    let mut m = Mock::new();
    let mut b = mac(5);
    let rts = Frame::control(FrameKind::Rts, n(0), n(5), SimTime::from_micros(400));
    m.rx_frame(&mut b, n(5), rts, true);
    m.fire(&mut b, TimerKind::RespIfs);
    let cts = m.last_tx().clone();
    assert_eq!(cts.kind, FrameKind::Cts);
    assert_eq!(cts.seq, 0, "nothing received yet");
    m.finish_tx(&mut b, false);
    // DATA arrives; the receiver delivers and ACKs.
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(5)]), Bytes::from_static(b"x"), 0);
    m.rx_frame(&mut b, n(5), data, true);
    assert_eq!(m.delivered.len(), 1);
    m.fire(&mut b, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Ack);
    m.finish_tx(&mut b, false);
    // A later RTS for the same packet gets expected = 1.
    let rts2 = Frame::control(FrameKind::Rts, n(0), n(5), SimTime::from_micros(400));
    m.rx_frame(&mut b, n(5), rts2, true);
    m.fire(&mut b, TimerKind::RespIfs);
    assert_eq!(m.last_tx().seq, 1);
}

#[test]
fn overhearing_receiver_delivers_without_acking() {
    let mut m = Mock::new();
    let mut b = mac(7);
    // Node 7 is a group member but was not RTS'd; it overhears the DATA.
    let data = Frame::data_reliable(
        n(0),
        Dest::Group(vec![n(5), n(7)]),
        Bytes::from_static(b"x"),
        0,
    );
    m.rx_frame(&mut b, n(7), data, true);
    assert_eq!(m.delivered.len(), 1);
    assert!(!m.has_timer(TimerKind::RespIfs), "no unsolicited ACK");
}

/// BMW's twin of LBP's `nav_wakeup_is_not_taken_for_the_session_guard`. A
/// BMW receiver grants a CTS only with a clear NAV, so here the guard is
/// armed first and the wake-up second; both are generation 1 all the same.
#[test]
fn nav_wakeup_is_not_taken_for_the_session_guard() {
    let mut m = Mock::new();
    let mut b = mac(5);
    let rts = Frame::control(FrameKind::Rts, n(0), n(5), SimTime::from_micros(400));
    m.rx_frame(&mut b, n(5), rts, true);
    m.fire(&mut b, TimerKind::RespIfs);
    m.finish_tx(&mut b, false); // CTS out; the DATA is owed an ACK
    let cts = Frame::control(FrameKind::Cts, n(7), n(8), SimTime::from_micros(300));
    m.rx_frame(&mut b, n(5), cts, true);
    b.submit(&mut m, reliable(Dest::Node(n(9)), 1));
    m.fire_earliest(&mut b); // the wake-up
    assert!(m.has_timer(TimerKind::BackoffSlot), "contention resumes");
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(5)]), Bytes::from_static(b"x"), 0);
    m.rx_frame(&mut b, n(5), data, true);
    m.fire(&mut b, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Ack);
}
