//! One contract, five MACs: the upper half of the send path
//! (`rmac_core::sendq`) as seen through RMAC, BMMM, BMW, LBP and 802.11MX.
//!
//! Whatever exchange carries a reliable frame, admission, vacuous
//! completion, the Unreliable Send and the post-transmission backoff behave
//! the same, so one table of checks runs over all five. So do the rules
//! that let the engine keep tone flips and frame onsets to itself: a flip
//! outside a MAC's declared interest does nothing — and an 802.11 station
//! declares none — and neither does a carrier rise, which every MAC declares
//! while its backoff counts and not while it defers, transmits or waits.

use bytes::Bytes;
use rmac_baselines::{Bmmm, Bmw, Lbp, Mx};
use rmac_core::api::{MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::sendq::QUEUE_CAPACITY;
use rmac_core::testkit::{Action, Mock};
use rmac_core::{MacConfig, Rmac, State};
use rmac_phy::{Tone, ToneInterest};
use rmac_wire::{Dest, FrameKind, NodeId};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn request(reliable: bool, dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable,
        dest,
        payload: Bytes::from_static(b"payload"),
        token,
    }
}

fn vacuous() -> TxOutcome {
    TxOutcome::Reliable {
        delivered: vec![],
        failed: vec![],
    }
}

/// Count down whatever backoff is running until a frame is on the air.
fn contend<M: MacService>(m: &mut Mock, mac: &mut M) {
    let mut guard = 0;
    while m.tx_frame.is_none() {
        m.fire(mac, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "contention never resolved");
    }
}

fn rng_state(m: &Mock) -> String {
    format!("{:?}", m.rng)
}

fn full_queue_rejects_without_side_effects<M: MacService>(make: fn(NodeId, MacConfig) -> M) {
    let mut m = Mock::new();
    m.data_busy = true; // nothing can transmit
    let mut mac = make(n(0), MacConfig::default());
    // The first request goes into service, so the capacity bounds the
    // requests waiting behind it.
    let full = QUEUE_CAPACITY as u64 + 1;
    for token in 0..full {
        mac.submit(&mut m, request(true, Dest::Node(n(1)), token));
    }
    assert!(m.notifications.is_empty());
    let before = (rng_state(&m), m.timers.len());
    mac.submit(&mut m, request(true, Dest::Node(n(1)), full));
    mac.submit(&mut m, request(false, Dest::Broadcast, full + 1));
    assert_eq!(
        m.notifications,
        vec![(full, TxOutcome::Rejected), (full + 1, TxOutcome::Rejected)]
    );
    assert_eq!(m.counters.queue_rejections, 2);
    assert_eq!(m.counters.reliable_accepted, full);
    assert_eq!(m.counters.unreliable_accepted, 0);
    assert_eq!((rng_state(&m), m.timers.len()), before);
}

fn nobody_to_reach_completes_at_once<M: MacService>(make: fn(NodeId, MacConfig) -> M) {
    for group in [vec![], vec![n(0)], vec![n(0), n(0)]] {
        let mut m = Mock::new();
        let mut mac = make(n(0), MacConfig::default());
        mac.submit(&mut m, request(true, Dest::Group(group), 11));
        assert_eq!(m.notifications, vec![(11, vacuous())]);
        assert!(m.actions.is_empty() && m.timers.is_empty());
        assert_eq!(m.counters.reliable_accepted, 1);
    }
}

fn unreliable_is_sent_paced_and_followed_in_order<M: MacService>(make: fn(NodeId, MacConfig) -> M) {
    let mut m = Mock::new();
    let mut mac = make(n(0), MacConfig::default());
    mac.submit(&mut m, request(false, Dest::Broadcast, 1));
    contend(&mut m, &mut mac);
    assert_eq!(m.last_tx().kind, FrameKind::DataUnreliable);
    // Queued while the frame is on the air: a group of only the sender,
    // then a send that needs the air.
    mac.submit(&mut m, request(true, Dest::Group(vec![n(0)]), 2));
    mac.submit(&mut m, request(true, Dest::Node(n(9)), 3));
    assert!(m.notifications.is_empty(), "fire-and-forget ends at TxDone");
    let drawn = rng_state(&m);
    m.finish_tx(&mut mac, false);
    // One call: the unreliable send is reported, the vacuous one behind it
    // completes, and the one behind that goes into service.
    assert_eq!(m.notifications, vec![(1, TxOutcome::Sent), (2, vacuous())]);
    assert_ne!(rng_state(&m), drawn, "a transmission is followed by a draw");
    contend(&mut m, &mut mac);
    let first = m.last_tx();
    assert!(matches!(first.kind, FrameKind::Rts | FrameKind::Mrts));
    assert!(first.addressed_to(n(9)));
    // The vacuous send put nothing on the air in between.
    let on_air = [FrameKind::DataUnreliable, first.kind].map(Action::StartTx);
    assert_eq!(m.actions, on_air);
    assert_eq!(m.counters.reliable_accepted, 2);
    assert_eq!(m.counters.unreliable_accepted, 1);
}

/// Along a reliable send — nothing to do, deferring to a busy channel,
/// contending, first frame on the air, waiting for the answer — and with a
/// broadcast on the air, a tone flip or a carrier edge outside the declared
/// interest reaches for nothing and leaves the MAC where it was. An 802.11
/// station declares no tone flip at all.
fn tone_flips_outside_interest_do_nothing<M: MacService>(
    make: fn(NodeId, MacConfig) -> M,
    idle: fn(&M) -> bool,
    station: bool,
) {
    let stop = |m: &mut Mock, mac: &mut M| {
        if station {
            let want = mac.tone_interest();
            let flips = Tone::ALL.into_iter().flat_map(|t| [(t, true), (t, false)]);
            assert!(flips.into_iter().all(|(t, on)| !want.wants(t, on)));
        }
        m.flips_outside_interest_do_nothing(mac, idle);
    };
    let mut m = Mock::new();
    let mut mac = make(n(0), MacConfig::default());
    stop(&mut m, &mut mac);
    m.data_busy = true;
    mac.submit(&mut m, request(true, Dest::Group(vec![n(1), n(2)]), 1));
    stop(&mut m, &mut mac);
    m.set_carrier(&mut mac, false);
    stop(&mut m, &mut mac);
    contend(&mut m, &mut mac);
    stop(&mut m, &mut mac);
    m.finish_tx(&mut mac, false);
    stop(&mut m, &mut mac);

    let mut m = Mock::new();
    let mut mac = make(n(0), MacConfig::default());
    mac.submit(&mut m, request(false, Dest::Broadcast, 2));
    contend(&mut m, &mut mac);
    stop(&mut m, &mut mac);
    // Sent, with the draw that paces the next send on a busy channel.
    m.data_busy = true;
    m.finish_tx(&mut mac, false);
    stop(&mut m, &mut mac);
}

/// The carrier rising is declared of interest exactly while a backoff
/// countdown runs; at every other stop of a reliable send a `CarrierOn` makes
/// no context call, no state change and no RNG draw.
fn a_carrier_rise_outside_interest_does_nothing<M: MacService>(
    make: fn(NodeId, MacConfig) -> M,
    idle: fn(&M) -> bool,
) {
    let stop = |m: &mut Mock, mac: &mut M, counting: bool| {
        let want = mac.tone_interest();
        assert_eq!(want | ToneInterest::CARRIER == want, counting);
        if !counting {
            let before = (m.footprint(), idle(mac));
            m.set_carrier(mac, true);
            m.data_busy = false;
            assert_eq!((m.footprint(), idle(mac)), before);
            assert_eq!(mac.tone_interest(), want);
        }
    };
    let mut m = Mock::new();
    let mut mac = make(n(0), MacConfig::default());
    stop(&mut m, &mut mac, false);
    // Deferring to a busy channel: the draw is made, nothing counts yet.
    m.data_busy = true;
    mac.submit(&mut m, request(true, Dest::Group(vec![n(1), n(2)]), 1));
    assert!(!m.has_timer(TimerKind::BackoffSlot));
    m.data_busy = false;
    stop(&mut m, &mut mac, false);
    // Contending, until a rise stops the countdown at the next boundary.
    m.set_carrier(&mut mac, false);
    stop(&mut m, &mut mac, true);
    m.set_carrier(&mut mac, true);
    m.fire(&mut mac, TimerKind::BackoffSlot);
    m.data_busy = false;
    stop(&mut m, &mut mac, false);
    // First frame on the air, then waiting for its answer.
    m.set_carrier(&mut mac, false);
    contend(&mut m, &mut mac);
    stop(&mut m, &mut mac, false);
    m.finish_tx(&mut mac, false);
    stop(&mut m, &mut mac, false);
}

fn contract<M: MacService>(make: fn(NodeId, MacConfig) -> M, idle: fn(&M) -> bool, station: bool) {
    full_queue_rejects_without_side_effects(make);
    nobody_to_reach_completes_at_once(make);
    unreliable_is_sent_paced_and_followed_in_order(make);
    tone_flips_outside_interest_do_nothing(make, idle, station);
    a_carrier_rise_outside_interest_does_nothing(make, idle);
}

#[test]
fn rmac_keeps_the_send_contract() {
    contract(Rmac::new, |r| r.state() == State::Idle, false);
}

#[test]
fn bmmm_keeps_the_send_contract() {
    contract(Bmmm::new, Bmmm::is_idle, true);
}

#[test]
fn bmw_keeps_the_send_contract() {
    contract(Bmw::new, Bmw::is_idle, true);
}

#[test]
fn lbp_keeps_the_send_contract() {
    contract(Lbp::new, Lbp::is_idle, true);
}

#[test]
fn mx_keeps_the_send_contract() {
    contract(Mx::new, Mx::is_idle, true);
}
