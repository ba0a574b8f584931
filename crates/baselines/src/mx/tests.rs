//! Unit tests for the 802.11MX reconstruction.

use bytes::Bytes;
use rmac_core::api::{MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_core::testkit::{Action, Mock};
use rmac_phy::Tone;
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::mx::Mx;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn mac(id: u16) -> Mx {
    Mx::new(n(id), MacConfig::default())
}

fn reliable(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest,
        payload: Bytes::from_static(b"data"),
        token,
    }
}

fn drain_contention(m: &mut Mock, b: &mut Mx) {
    let mut guard = 0;
    while m.tx_frame.is_none() && m.has_timer(TimerKind::BackoffSlot) {
        m.fire(b, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "contention never resolved");
    }
}

fn leader_cts(leader: u16, to: u16) -> Frame {
    Frame::control(FrameKind::Cts, n(leader), n(to), rmac_sim::SimTime::ZERO)
}

fn group_rts(src: u16, group: &[u16]) -> Frame {
    let mut rts = Frame::control(
        FrameKind::Rts,
        n(src),
        n(group[0]),
        rmac_sim::SimTime::from_micros(400),
    );
    rts.order = group.iter().map(|&i| n(i)).collect();
    rts
}

#[test]
fn silent_nak_window_means_success() {
    let mut m = Mock::new();
    let mut s = mac(0);
    s.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 9));
    drain_contention(&mut m, &mut s);
    let rts = m.last_tx().clone();
    assert_eq!(rts.kind, FrameKind::Rts);
    assert_eq!(rts.order, vec![n(1), n(2)], "RTS carries the group");
    m.finish_tx(&mut s, false);
    // Leader (first member) grants the reservation.
    m.rx_frame(&mut s, n(0), leader_cts(1, 0), true);
    m.fire(&mut s, TimerKind::Ifs);
    assert_eq!(m.last_tx().kind, FrameKind::DataReliable);
    m.finish_tx(&mut s, false);
    // Preset a silent NAK window.
    m.preset_silent(Tone::Abt, m.now, rmac_sim::SimTime::from_micros(34));
    m.fire(&mut s, TimerKind::WfAbt);
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
    assert_eq!(m.counters.retransmissions, 0);
}

#[test]
fn nak_tone_triggers_retransmission() {
    let mut m = Mock::new();
    let mut s = mac(0);
    s.submit(&mut m, reliable(Dest::Node(n(1)), 4));
    drain_contention(&mut m, &mut s);
    m.finish_tx(&mut s, false); // RTS
    m.rx_frame(&mut s, n(0), leader_cts(1, 0), true);
    m.fire(&mut s, TimerKind::Ifs);
    m.finish_tx(&mut s, false); // DATA
    m.preset_on(Tone::Abt, m.now, rmac_sim::SimTime::from_micros(34));
    m.fire(&mut s, TimerKind::WfAbt);
    assert_eq!(m.counters.retransmissions, 1);
    drain_contention(&mut m, &mut s);
    assert_eq!(m.last_tx().kind, FrameKind::Rts, "round restarts");
}

#[test]
fn missing_cts_fails_the_round() {
    let mut m = Mock::new();
    let mut s = mac(0);
    s.submit(&mut m, reliable(Dest::Node(n(1)), 7));
    drain_contention(&mut m, &mut s);
    m.finish_tx(&mut s, false); // RTS
    m.fire(&mut s, TimerKind::AwaitResponse); // silence
    assert_eq!(m.counters.retransmissions, 1);
}

#[test]
fn leader_responds_cts() {
    let mut m = Mock::new();
    let mut l = mac(1);
    m.rx_frame(&mut l, n(1), group_rts(0, &[1, 2]), true);
    m.fire(&mut l, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Cts);
    m.finish_tx(&mut l, false);
}

#[test]
fn non_leader_sends_no_cts() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2]), true);
    assert!(!m.has_timer(TimerKind::RespIfs));
}

#[test]
fn receiver_naks_corrupted_data() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2]), true);
    // Corrupted data frame within the session → NAK tone after SIFS.
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    m.fire(&mut r, TimerKind::AbtStart);
    assert!(m.actions.contains(&Action::ToneOn(Tone::Abt)));
    m.fire(&mut r, TimerKind::AbtStop);
    assert!(m.actions.contains(&Action::ToneOff(Tone::Abt)));
    assert_eq!(m.delivered.len(), 0);
}

#[test]
fn receiver_stays_silent_on_clean_data() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2]), true);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(m.delivered.len(), 1);
    assert!(!m.has_timer(TimerKind::AbtStart), "no NAK on success");
}

#[test]
fn receiver_without_session_cannot_nak() {
    // The reliability gap: a corrupted frame with no preceding RTS leaves
    // the receiver silent — the sender will declare success.
    let mut m = Mock::new();
    let mut r = mac(2);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    assert!(!m.has_timer(TimerKind::AbtStart));
}

#[test]
fn retry_limit_drops_whole_group() {
    let mut m = Mock::new();
    let mut s = mac(0);
    let limit = MacConfig::default().retry_limit;
    s.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 6));
    for _ in 0..=limit {
        drain_contention(&mut m, &mut s);
        m.finish_tx(&mut s, false); // RTS
        m.rx_frame(&mut s, n(0), leader_cts(1, 0), true);
        m.fire(&mut s, TimerKind::Ifs);
        m.finish_tx(&mut s, false); // DATA
        m.preset_on(Tone::Abt, m.now, rmac_sim::SimTime::from_micros(34));
        m.fire(&mut s, TimerKind::WfAbt);
    }
    assert_eq!(m.counters.drops, 1);
    match &m.notifications[0].1 {
        TxOutcome::Reliable { delivered, failed } => {
            assert!(delivered.is_empty());
            assert_eq!(
                failed.len(),
                2,
                "NAK carries no identity: all retried, all dropped"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// 802.11MX's twin of LBP's `nav_wakeup_is_not_taken_for_the_session_guard`:
/// the wake-up resumes contention and leaves the session open, so a
/// corrupted DATA still raises the NAK tone.
#[test]
fn nav_wakeup_is_not_taken_for_the_session_guard() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let nav = rmac_sim::SimTime::from_micros(300);
    m.rx_frame(
        &mut r,
        n(2),
        Frame::control(FrameKind::Cts, n(7), n(8), nav),
        true,
    );
    r.submit(&mut m, reliable(Dest::Node(n(9)), 1));
    m.rx_frame(&mut r, n(2), group_rts(0, &[1, 2]), true);
    m.fire_earliest(&mut r); // the wake-up
    assert!(m.has_timer(TimerKind::BackoffSlot), "contention resumes");
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(1), n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    assert!(
        m.has_timer(TimerKind::AbtStart),
        "the session was still open"
    );
}
