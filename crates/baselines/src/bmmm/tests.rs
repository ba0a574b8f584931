//! Unit tests for BMMM driven through the shared scripted context.

use bytes::Bytes;
use rmac_core::api::{MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_core::testkit::Mock;
use rmac_sim::SimTime;
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::bmmm::Bmmm;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn mac(id: u16) -> Bmmm {
    Bmmm::new(n(id), MacConfig::default())
}

fn reliable(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest,
        payload: Bytes::from_static(b"data!"),
        token,
    }
}

/// Count down the DCF backoff until the MAC transmits or gives up.
fn drain_contention(m: &mut Mock, b: &mut Bmmm) {
    let mut guard = 0;
    while m.tx_frame.is_none() && m.has_timer(TimerKind::BackoffSlot) {
        m.fire(b, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "contention never resolved");
    }
}

/// Drive one complete, fully-acknowledged round for `receivers`.
fn run_happy_round(m: &mut Mock, b: &mut Bmmm, receivers: &[NodeId]) {
    // RTS/CTS phase.
    for (i, &r) in receivers.iter().enumerate() {
        let f = m.last_tx().clone();
        assert_eq!(f.kind, FrameKind::Rts, "exchange {i}");
        assert_eq!(f.dest, Dest::Node(r));
        m.finish_tx(b, false);
        let cts = Frame::control(FrameKind::Cts, r, f.src, SimTime::ZERO);
        m.rx_frame(b, f.src, cts, true);
        // SIFS gap before the next sender action (next RTS, or the DATA).
        m.fire(b, TimerKind::Ifs);
    }
    // DATA.
    let f = m.last_tx().clone();
    assert_eq!(f.kind, FrameKind::DataReliable);
    m.finish_tx(b, false);
    m.fire(b, TimerKind::Ifs);
    // RAK/ACK phase.
    for (i, &r) in receivers.iter().enumerate() {
        let f = m.last_tx().clone();
        assert_eq!(f.kind, FrameKind::Rak, "rak {i}");
        assert_eq!(f.dest, Dest::Node(r));
        m.finish_tx(b, false);
        let ack = Frame::control(FrameKind::Ack, r, f.src, SimTime::ZERO);
        m.rx_frame(b, f.src, ack, true);
        if i + 1 < receivers.len() {
            m.fire(b, TimerKind::Ifs);
        }
    }
}

#[test]
fn full_round_delivers_to_all() {
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 9));
    drain_contention(&mut m, &mut b);
    run_happy_round(&mut m, &mut b, &[n(1), n(2)]);
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
    assert_eq!(m.counters.drops, 0);
}

#[test]
fn missing_ack_retries_only_silent_receiver() {
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2)]), 4));
    drain_contention(&mut m, &mut b);
    // RTS/CTS for both receivers.
    for &r in &[n(1), n(2)] {
        let f = m.last_tx().clone();
        m.finish_tx(&mut b, false);
        m.rx_frame(
            &mut b,
            n(0),
            Frame::control(FrameKind::Cts, r, f.src, SimTime::ZERO),
            true,
        );
        m.fire(&mut b, TimerKind::Ifs);
    }
    // DATA.
    m.finish_tx(&mut b, false);
    m.fire(&mut b, TimerKind::Ifs);
    // RAK 1 → ACK arrives; RAK 2 → silence.
    m.finish_tx(&mut b, false);
    m.rx_frame(
        &mut b,
        n(0),
        Frame::control(FrameKind::Ack, n(1), n(0), SimTime::ZERO),
        true,
    );
    m.fire(&mut b, TimerKind::Ifs);
    m.finish_tx(&mut b, false); // RAK 2 done
    m.fire(&mut b, TimerKind::AwaitResponse); // no ACK from n(2)
    assert_eq!(m.counters.retransmissions, 1);
    // The retry round must address only n(2).
    drain_contention(&mut m, &mut b);
    let f = m.last_tx().clone();
    assert_eq!(f.kind, FrameKind::Rts);
    assert_eq!(f.dest, Dest::Node(n(2)));
}

#[test]
fn no_cts_at_all_fails_the_round() {
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Node(n(1)), 2));
    drain_contention(&mut m, &mut b);
    m.finish_tx(&mut b, false); // RTS done
    m.fire(&mut b, TimerKind::AwaitResponse); // CTS timeout
    assert_eq!(m.counters.retransmissions, 1, "round failed, will retry");
}

#[test]
fn retry_limit_drops_packet() {
    let mut m = Mock::new();
    let mut b = mac(0);
    let limit = MacConfig::default().retry_limit;
    b.submit(&mut m, reliable(Dest::Node(n(1)), 6));
    for _ in 0..=limit {
        drain_contention(&mut m, &mut b);
        m.finish_tx(&mut b, false);
        m.fire(&mut b, TimerKind::AwaitResponse);
    }
    assert_eq!(m.counters.drops, 1);
    assert_eq!(
        m.notifications,
        vec![(
            6,
            TxOutcome::Reliable {
                delivered: vec![],
                failed: vec![n(1)],
            }
        )]
    );
}

#[test]
fn receiver_answers_rts_with_cts_after_sifs() {
    let mut m = Mock::new();
    let mut b = mac(5);
    let rts = Frame::control(FrameKind::Rts, n(0), n(5), SimTime::from_micros(500));
    m.rx_frame(&mut b, n(5), rts, true);
    assert!(m.tx_frame.is_none(), "CTS must wait a SIFS");
    m.fire(&mut b, TimerKind::RespIfs);
    let f = m.last_tx().clone();
    assert_eq!(f.kind, FrameKind::Cts);
    assert_eq!(f.dest, Dest::Node(n(0)));
    assert!(f.nav < SimTime::from_micros(500), "CTS NAV shrinks");
    m.finish_tx(&mut b, false);
    assert!(b.is_idle());
}

#[test]
fn receiver_acks_rak_only_after_data() {
    let mut m = Mock::new();
    let mut b = mac(5);
    // RAK with no prior data → silence.
    let rak = Frame::control(FrameKind::Rak, n(0), n(5), SimTime::ZERO);
    m.rx_frame(&mut b, n(5), rak.clone(), true);
    assert!(!m.has_timer(TimerKind::RespIfs), "no ACK without data");
    // Deliver data, then RAK → ACK.
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(5)]), Bytes::from_static(b"x"), 3);
    m.rx_frame(&mut b, n(5), data, true);
    assert_eq!(m.delivered.len(), 1);
    m.rx_frame(&mut b, n(5), rak, true);
    m.fire(&mut b, TimerKind::RespIfs);
    assert_eq!(m.last_tx().kind, FrameKind::Ack);
}

#[test]
fn duplicate_data_is_delivered_once() {
    let mut m = Mock::new();
    let mut b = mac(5);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(5)]), Bytes::from_static(b"x"), 3);
    m.rx_frame(&mut b, n(5), data.clone(), true);
    m.rx_frame(&mut b, n(5), data, true);
    assert_eq!(m.delivered.len(), 1, "MAC-level dup suppression by seq");
}

#[test]
fn overheard_rts_sets_nav_and_defers() {
    let mut m = Mock::new();
    let mut b = mac(5);
    // Overhear an RTS between two other nodes with a long NAV.
    let rts = Frame::control(FrameKind::Rts, n(0), n(1), SimTime::from_millis(3));
    m.rx_frame(&mut b, n(5), rts, true);
    // Our own transmission must defer (no RTS of ours on the air).
    b.submit(&mut m, reliable(Dest::Node(n(9)), 1));
    drain_contention(&mut m, &mut b);
    assert!(m.tx_frame.is_none(), "must defer under NAV");
    // A NAV wake-up must be scheduled so we eventually contend again.
    assert!(m.has_timer(TimerKind::Nav));
    // After the NAV expires, contention resumes and the RTS goes out.
    m.fire(&mut b, TimerKind::Nav);
    drain_contention(&mut m, &mut b);
    assert_eq!(m.last_tx().kind, FrameKind::Rts);
}

#[test]
fn rts_ignored_while_busy_as_sender() {
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Node(n(1)), 1));
    drain_contention(&mut m, &mut b);
    assert_eq!(m.last_tx().kind, FrameKind::Rts);
    // A foreign RTS addressed to us arrives mid-exchange: no CTS.
    let foreign = Frame::control(FrameKind::Rts, n(7), n(0), SimTime::ZERO);
    let timers_before = m.timers.len();
    m.rx_frame(&mut b, n(0), foreign, true);
    assert_eq!(m.timers.len(), timers_before, "no response scheduled");
}

#[test]
fn control_overhead_accumulates_632n() {
    // One happy round to 3 receivers accrues at least the §2 control cost
    // at the sender: n RTS + n RAK transmitted, n CTS + n ACK received.
    let mut m = Mock::new();
    let mut b = mac(0);
    b.submit(&mut m, reliable(Dest::Group(vec![n(1), n(2), n(3)]), 1));
    drain_contention(&mut m, &mut b);
    run_happy_round(&mut m, &mut b, &[n(1), n(2), n(3)]);
    let expected = rmac_wire::airtime::bmmm_control_cost(3);
    assert_eq!(m.counters.ctrl_airtime, expected);
}
