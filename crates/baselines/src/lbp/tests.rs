//! Unit tests for LBP.

use bytes::Bytes;
use rmac_core::api::{MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_core::testkit::Mock;
use rmac_sim::SimTime;
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::lbp::Lbp;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn mac(id: u16) -> Lbp {
    Lbp::new(n(id), MacConfig::default())
}

fn reliable(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest,
        payload: Bytes::from_static(b"data"),
        token,
    }
}

fn drain_contention(m: &mut Mock, b: &mut Lbp) {
    let mut guard = 0;
    while m.tx_frame.is_none() && m.has_timer(TimerKind::BackoffSlot) {
        m.fire(b, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "contention never resolved");
    }
}

fn group_rts(src: u16, group: &[u16], nav_us: u64) -> Frame {
    let mut rts = Frame::control(
        FrameKind::Rts,
        n(src),
        n(group[0]),
        SimTime::from_micros(nav_us),
    );
    rts.order = group.iter().map(|&i| n(i)).collect();
    rts
}

#[test]
fn leader_ack_completes_the_send() {
    let mut m = Mock::new();
    let mut s = mac(0);
    s.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 9));
    drain_contention(&mut m, &mut s);
    let rts = m.last_tx().clone();
    assert_eq!(rts.kind, FrameKind::Rts);
    assert_eq!(rts.dest, Dest::Node(n(1)), "leader is the first member");
    assert_eq!(rts.order, vec![n(1), n(2)], "RTS carries the group");
    m.finish_tx(&mut s, false);
    // Leader CTS.
    m.rx_frame(
        &mut s,
        n(0),
        Frame::control(FrameKind::Cts, n(1), n(0), SimTime::ZERO),
        true,
    );
    m.fire(&mut s, TimerKind::Ifs);
    assert_eq!(m.last_tx().kind, FrameKind::DataReliable);
    m.finish_tx(&mut s, false);
    // Leader ACK → the whole group is assumed delivered.
    m.rx_frame(
        &mut s,
        n(0),
        Frame::control(FrameKind::Ack, n(1), n(0), SimTime::ZERO),
        true,
    );
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
fn leader_responds_cts_and_ack() {
    let mut m = Mock::new();
    let mut l = mac(1);
    m.rx_frame(&mut l, n(1), group_rts(0, &[1, 2], 500), true);
    m.fire(&mut l, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Cts);
    m.finish_tx(&mut l, false);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut l, n(1), data, true);
    assert_eq!(m.delivered.len(), 1);
    m.fire(&mut l, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Ack);
}

#[test]
fn non_leader_stays_silent_on_success() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2], 500), true);
    assert!(m.tx_frame.is_none(), "non-leader sends no CTS");
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(m.delivered.len(), 1);
    assert!(!m.has_timer(TimerKind::RespIfs), "no ACK/NAK on success");
}

#[test]
fn non_leader_naks_corrupted_data() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2], 500), true);
    // The data frame arrives corrupted.
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    m.fire(&mut r, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Nak);
    assert_eq!(m.delivered.len(), 0);
}

#[test]
fn nak_at_sender_forces_retransmission() {
    let mut m = Mock::new();
    let mut s = mac(0);
    s.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 3));
    drain_contention(&mut m, &mut s);
    m.finish_tx(&mut s, false);
    m.rx_frame(
        &mut s,
        n(0),
        Frame::control(FrameKind::Cts, n(1), n(0), SimTime::ZERO),
        true,
    );
    m.fire(&mut s, TimerKind::Ifs);
    m.finish_tx(&mut s, false);
    // A NAK (or a garbled ACK-NAK collision, which would arrive as a
    // corrupted frame and time out) triggers a retry.
    m.rx_frame(
        &mut s,
        n(0),
        Frame::control(FrameKind::Nak, n(2), n(0), SimTime::ZERO),
        true,
    );
    assert_eq!(m.counters.retransmissions, 1);
    drain_contention(&mut m, &mut s);
    assert_eq!(m.last_tx().kind, FrameKind::Rts, "round restarts");
}

#[test]
fn missing_ack_retries_then_drops() {
    let mut m = Mock::new();
    let mut s = mac(0);
    let limit = MacConfig::default().retry_limit;
    s.submit(&mut m, reliable(Dest::Node(n(1)), 5));
    for _ in 0..=limit {
        drain_contention(&mut m, &mut s);
        m.finish_tx(&mut s, false); // RTS done
        m.fire(&mut s, TimerKind::AwaitResponse); // no CTS
    }
    assert_eq!(m.counters.drops, 1);
    match &m.notifications[0].1 {
        TxOutcome::Reliable { delivered, failed } => {
            assert!(delivered.is_empty());
            assert_eq!(failed, &vec![n(1)]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// The NAV wake-up and the session guard are the first timer each of their
/// slots arms, so they carry the same generation. The wake-up must reach
/// the DCF — the station re-enters contention — and must not close the
/// session: a corrupted DATA still draws the NAK.
#[test]
fn nav_wakeup_is_not_taken_for_the_session_guard() {
    let mut m = Mock::new();
    let mut r = mac(2);
    // A stranger's CTS reserves 300 µs; a request under it arms the wake-up.
    let cts = Frame::control(FrameKind::Cts, n(7), n(8), SimTime::from_micros(300));
    m.rx_frame(&mut r, n(2), cts, true);
    r.submit(&mut m, reliable(Dest::Node(n(9)), 1));
    // A group RTS naming this node opens the session and arms its guard.
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2], 500), true);
    m.fire_earliest(&mut r); // the wake-up
    assert!(m.has_timer(TimerKind::BackoffSlot), "contention resumes");
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    m.fire(&mut r, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Nak);
}
