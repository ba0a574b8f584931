//! Unit tests for the RMAC state machine, including the Table 1 transition
//! conditions, driven through a scripted mock context.

use bytes::Bytes;
use rmac_phy::{Indication, Tone, ToneInterest};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::consts::{L_ABT, SLOT, T_WF};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::api::{MacService, TimerKind, TxOutcome, TxRequest};
use crate::config::MacConfig;
use crate::rmac::{Rmac, State};
use crate::sendq::QUEUE_CAPACITY;

fn n(i: u16) -> NodeId {
    NodeId(i)
}

use crate::testkit::{Action, Mock};

/// Run a node's backoff to completion, a slot per fire (`Mock::fire`
/// steps the countdown's timer), until the MAC leaves BACKOFF. Channels
/// stay idle throughout.
fn drain_backoff(m: &mut Mock, mac: &mut Rmac) {
    let mut guard = 0;
    while mac.state() == State::Backoff {
        m.fire(mac, TimerKind::BackoffSlot);
        guard += 1;
        assert!(guard < 5000, "backoff never completed");
    }
}

/// Node 2 in BACKOFF with exactly `bi` slots to count, from t = 0: a
/// request met a busy channel (drawing BI — the seed is searched for the
/// wanted draw), then the channel cleared.
fn counting(bi: u64) -> (Mock, Rmac) {
    for seed in 0.. {
        let mut m = Mock::new();
        m.rng = SimRng::new(seed);
        m.data_busy = true;
        let mut r = mac(2);
        r.submit(&mut m, reliable_req(Dest::Node(n(9)), 1));
        if r.bi() == bi {
            m.set_carrier(&mut r, false);
            assert_eq!(r.state(), State::Backoff);
            return (m, r);
        }
    }
    unreachable!()
}

fn mac(id: u16) -> Rmac {
    let mut r = Rmac::new(n(id), MacConfig::default());
    // Tests inspect the transition matrix freely; production runs only
    // enable counting when observability attaches.
    r.enable_transition_counting();
    r
}

fn reliable_req(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest,
        payload: Bytes::from_static(b"payload"),
        token,
    }
}

fn unreliable_req(dest: Dest, token: u64) -> TxRequest {
    TxRequest {
        reliable: false,
        dest,
        payload: Bytes::from_static(b"beacon"),
        token,
    }
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

/// C1: idle channels, BI = 0 → an unreliable request transmits at once.
#[test]
fn c1_unreliable_transmits_immediately_when_idle() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 7));
    assert_eq!(r.state(), State::TxUnrdata);
    assert_eq!(m.actions, vec![Action::StartTx(FrameKind::DataUnreliable)]);
    // C5: after transmission (channels idle) → post-tx backoff.
    m.finish_tx(&mut r, false);
    assert_eq!(m.notifications, vec![(7, TxOutcome::Sent)]);
    assert!(matches!(r.state(), State::Idle | State::Backoff));
}

/// C10: idle channels, reliable request → TX_MRTS with the right order.
#[test]
fn c10_reliable_transmits_mrts() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2)]), 1));
    assert_eq!(r.state(), State::TxMrts);
    let f = m.last_tx();
    assert_eq!(f.kind, FrameKind::Mrts);
    assert_eq!(f.order, vec![n(1), n(2)]);
    assert_eq!(m.counters.mrts_tx, 1);
    // One MRTS with two receivers: 12 + 2·6 = 24 B.
    assert_eq!(m.counters.mrts_by_receivers, [0, 0, 1]);
}

/// Condition (1) of §3.3.1: packet pending but channel busy → defer in
/// IDLE with a drawn BI, resume via backoff when the channel clears.
#[test]
fn busy_channel_defers_then_backoff_transmits() {
    let mut m = Mock::new();
    m.data_busy = true;
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 1));
    assert_eq!(r.state(), State::Idle);
    assert!(m.actions.is_empty());
    // Channel clears.
    m.set_carrier(&mut r, false);
    // Either straight to TX (BI drawn 0) or via BACKOFF countdown.
    drain_backoff(&mut m, &mut r);
    assert_eq!(r.state(), State::TxMrts);
}

/// An RBT on the tone channel defers transmission exactly like a busy data
/// channel (the backoff senses both).
#[test]
fn rbt_presence_defers_transmission() {
    let mut m = Mock::new();
    m.tone[Tone::Rbt.idx()] = true;
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 1));
    assert_eq!(r.state(), State::Idle);
    m.set_tone(&mut r, Tone::Rbt, false);
    drain_backoff(&mut m, &mut r);
    assert_eq!(r.state(), State::TxMrts);
}

/// Backoff suspends (BACKOFF → IDLE) when a slot boundary finds a busy
/// channel, retaining BI: a carrier raised in slot 4 of 7 is noticed at
/// boundary 4, with the three idle boundaries before it counted.
#[test]
fn backoff_suspends_on_busy_slot() {
    let (mut m, mut r) = counting(7);
    // One hop to the boundary before the expiry, not a timer per slot.
    assert_eq!(m.timers.back().unwrap().0, SLOT.mul(6));
    for _ in 0..3 {
        m.fire(&mut r, TimerKind::BackoffSlot);
    }
    m.now += SimTime::from_micros(5);
    m.set_carrier(&mut r, true);
    assert_eq!(r.state(), State::Backoff, "noticed only at a boundary");
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert_eq!((m.now, r.state(), r.bi()), (SLOT.mul(4), State::Idle, 4));
    // The countdown resumes with what is left when the channel clears.
    m.now += SimTime::from_micros(300);
    m.set_carrier(&mut r, false);
    assert_eq!(r.state(), State::Backoff);
    let resumed = m.now;
    drain_backoff(&mut m, &mut r);
    assert_eq!((m.now, r.state()), (resumed + SLOT.mul(4), State::TxMrts));
}

/// A context that runs late — the hop still pending after the whole
/// countdown has elapsed — owes the node nothing but the truth about its
/// clock: a timer fired after its `wake` finishes the countdown, and a busy
/// edge reported that late arms a look due at once (it used to wrap
/// `wake - now` to a 584-year sleep, and the node never contended again).
#[test]
fn a_backoff_timer_fired_late_still_finishes_the_countdown() {
    let (mut m, mut r) = counting(7);
    m.now = SLOT.mul(9) + SimTime::from_micros(3);
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert_eq!((r.state(), r.bi()), (State::TxMrts, 0));

    let (mut m, mut r) = counting(7);
    m.now = SLOT.mul(9) + SimTime::from_micros(3);
    m.set_carrier(&mut r, true);
    assert_eq!(m.timers.back().unwrap().0, m.now, "the look is due now");
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert_eq!((r.state(), r.bi()), (State::Idle, 0));
    m.set_carrier(&mut r, false);
    assert_eq!(r.state(), State::TxMrts);
}

/// Asleep, the countdown reaches its expiry in two dispatches (the hop,
/// then the look); an RBT edge pulls the look in to the next boundary like
/// a carrier does, and a busy spell that ends before that boundary goes
/// unnoticed.
#[test]
fn backoff_sleeps_to_expiry_and_wakes_on_rbt() {
    let (mut m, mut r) = counting(7);
    m.fire_earliest(&mut r);
    assert_eq!((m.now, r.state()), (SLOT.mul(6), State::Backoff));
    m.fire_earliest(&mut r);
    assert_eq!((m.now, r.state()), (SLOT.mul(7), State::TxMrts));

    let (mut m, mut r) = counting(7);
    m.now = SLOT.mul(2) + SimTime::from_micros(3);
    m.set_tone(&mut r, Tone::Rbt, true);
    m.now += SimTime::from_micros(9);
    m.set_tone(&mut r, Tone::Rbt, false);
    assert_eq!(r.state(), State::Backoff);
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert_eq!((m.now, r.state(), r.bi()), (SLOT.mul(3), State::Backoff, 4));
    drain_backoff(&mut m, &mut r);
    assert_eq!((m.now, r.state()), (SLOT.mul(7), State::TxMrts));
}

/// Full successful Reliable Send: MRTS → RBT detected → data → all ABTs.
#[test]
fn reliable_send_happy_path() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2)]), 9));
    assert_eq!(r.state(), State::TxMrts);
    // C17: MRTS done → WF_RBT.
    m.finish_tx(&mut r, false);
    assert_eq!(r.state(), State::WfRbt);
    assert!(m.has_timer(TimerKind::WfRbt));
    // C18: RBT detected → TX_RDATA.
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    assert_eq!(r.state(), State::TxRdata);
    let f = m.last_tx();
    assert_eq!(f.kind, FrameKind::DataReliable);
    assert_eq!(f.dest, Dest::Group(vec![n(1), n(2)]));
    // C19: data done → WF_ABT over 2 slots.
    m.finish_tx(&mut r, false);
    assert_eq!(r.state(), State::WfAbt);
    assert_eq!(m.counters.abt_check_time, L_ABT.mul(2));
    // Both receivers answer.
    m.preset_abt_slots(r_window_start(&m), 2, &[0, 1]);
    m.fire(&mut r, TimerKind::WfAbt);
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
    assert!(matches!(r.state(), State::Idle | State::Backoff));
    assert_eq!(m.counters.retransmissions, 0);
    assert_eq!(m.counters.drops, 0);
}

/// The ABT collection window opens when the data TxDone fires; its start
/// equals the mock clock at that moment. Helper for slot arithmetic.
fn r_window_start(m: &Mock) -> SimTime {
    m.now
}

/// C12/C15: no RBT detected → retransmission with doubled CW; after the
/// retry limit the packet is dropped and CW resets.
#[test]
fn no_rbt_retries_then_drops() {
    let mut m = Mock::new();
    let mut r = mac(0);
    let limit = MacConfig::default().retry_limit;
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 4));
    let mut cw_prev = r.cw();
    for attempt in 0..=limit {
        assert_eq!(r.state(), State::TxMrts, "attempt {attempt}");
        m.finish_tx(&mut r, false);
        m.preset_silent(Tone::Rbt, m.now, T_WF);
        m.fire(&mut r, TimerKind::WfRbt);
        if attempt < limit {
            assert_eq!(m.counters.retransmissions, u64::from(attempt) + 1);
            assert!(r.cw() > cw_prev || r.cw() == 1023, "CW must grow");
            cw_prev = r.cw();
            drain_backoff(&mut m, &mut r);
        }
    }
    // Dropped after the final failed attempt.
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
    assert_eq!(r.cw(), 31, "CW resets after a drop");
}

/// Step 5–6 of §3.3.2: only silent receivers are retried, and the rebuilt
/// MRTS lists exactly those.
#[test]
fn missing_abt_retransmits_to_silent_receivers_only() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2), n(3)]), 5));
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    // Slots 0 and 2 answer; slot 1 (node 2) stays silent.
    m.preset_abt_slots(m.now, 3, &[0, 2]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert_eq!(m.counters.retransmissions, 1);
    drain_backoff(&mut m, &mut r);
    assert_eq!(r.state(), State::TxMrts);
    assert_eq!(m.last_tx().order, vec![n(2)]);
    // Node 2 answers on the retry.
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 1, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    let (_, outcome) = &m.notifications[0];
    match outcome {
        TxOutcome::Reliable { delivered, failed } => {
            let mut d = delivered.clone();
            d.sort();
            assert_eq!(d, vec![n(1), n(2), n(3)]);
            assert!(failed.is_empty());
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// §3.3.2 step 3: sensing an RBT during MRTS transmission aborts it.
#[test]
fn mrts_aborts_on_rbt() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 2));
    assert_eq!(r.state(), State::TxMrts);
    m.set_tone(&mut r, Tone::Rbt, true);
    assert!(m.actions.contains(&Action::AbortTx));
    assert_eq!(m.counters.mrts_aborted, 1);
    // PHY reports the aborted completion; the MAC retries. The tone is
    // still present → defer in IDLE.
    m.finish_tx(&mut r, true);
    assert_eq!(r.state(), State::Idle);
    assert_eq!(m.counters.retransmissions, 1);
}

/// §3.3.3 step 2: an unreliable frame aborts on RBT and is simply gone.
#[test]
fn unreliable_aborts_on_rbt_without_retry() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 3));
    assert_eq!(r.state(), State::TxUnrdata);
    r.on_indication(
        &mut m,
        &Indication::ToneChanged {
            node: n(0),
            tone: Tone::Rbt,
            present: true,
        },
    );
    assert!(m.actions.contains(&Action::AbortTx));
    m.finish_tx(&mut r, true);
    assert_eq!(m.notifications, vec![(3, TxOutcome::Sent)]);
    assert_eq!(m.counters.retransmissions, 0);
}

/// §3.4: more receivers than the limit are split over several invocations.
#[test]
fn receiver_limit_splits_into_chunks() {
    let mut m = Mock::new();
    let mut r = mac(0);
    let receivers: Vec<NodeId> = (1..=45).map(n).collect();
    r.submit(&mut m, reliable_req(Dest::Group(receivers.clone()), 6));
    let mut seen: Vec<NodeId> = Vec::new();
    for expect_len in [20usize, 20, 5] {
        drain_backoff(&mut m, &mut r);
        assert_eq!(r.state(), State::TxMrts);
        let order = m.last_tx().order.clone();
        assert_eq!(order.len(), expect_len);
        seen.extend(&order);
        m.finish_tx(&mut r, false);
        m.preset_on(Tone::Rbt, m.now, T_WF);
        m.fire(&mut r, TimerKind::WfRbt);
        m.finish_tx(&mut r, false);
        let all: Vec<usize> = (0..expect_len).collect();
        m.preset_abt_slots(m.now, expect_len, &all);
        m.fire(&mut r, TimerKind::WfAbt);
    }
    assert_eq!(seen, receivers);
    match &m.notifications[0].1 {
        TxOutcome::Reliable { delivered, failed } => {
            assert_eq!(delivered.len(), 45);
            assert!(failed.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Reliable broadcast expands to the current one-hop neighbor set.
#[test]
fn reliable_broadcast_uses_neighbors() {
    let mut m = Mock::new();
    m.neighbor_list = vec![n(4), n(9)];
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Broadcast, 8));
    assert_eq!(r.state(), State::TxMrts);
    assert_eq!(m.last_tx().order, vec![n(4), n(9)]);
}

/// Queue overflow rejects the request.
#[test]
fn queue_overflow_rejects() {
    let mut m = Mock::new();
    m.data_busy = true; // nothing can transmit
    let mut r = mac(0);
    // The first request is immediately loaded as the in-progress job, so
    // the capacity bounds the *waiting* requests behind it.
    let full = QUEUE_CAPACITY as u64 + 1;
    for t in 0..=full {
        r.submit(&mut m, reliable_req(Dest::Node(n(1)), t));
    }
    assert_eq!(m.counters.queue_rejections, 1);
    assert_eq!(m.notifications, vec![(full, TxOutcome::Rejected)]);
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

/// C3: a correctly received MRTS listing this node raises the RBT and
/// arms `T_wf_rdata`.
#[test]
fn mrts_reception_raises_rbt() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let mrts = Frame::mrts(n(0), vec![n(1), n(2)]);
    m.rx_frame(&mut r, n(2), mrts, true);
    assert_eq!(r.state(), State::WfRdata);
    assert_eq!(m.actions, vec![Action::ToneOn(Tone::Rbt)]);
    assert!(m.has_timer(TimerKind::WfRdata));
}

/// An MRTS not listing this node is ignored (no NAV in RMAC).
#[test]
fn unaddressed_mrts_ignored() {
    let mut m = Mock::new();
    let mut r = mac(7);
    let mrts = Frame::mrts(n(0), vec![n(1), n(2)]);
    m.rx_frame(&mut r, n(7), mrts, true);
    assert_eq!(r.state(), State::Idle);
    assert!(m.actions.is_empty());
}

/// A corrupted MRTS is silently lost (the sender's T_wf_rbt handles it).
#[test]
fn corrupted_mrts_ignored() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let mrts = Frame::mrts(n(0), vec![n(2)]);
    m.rx_frame(&mut r, n(2), mrts, false);
    assert_eq!(r.state(), State::Idle);
    assert!(m.actions.is_empty());
}

/// C4/C7 timeout arm: no data frame arrives → RBT stops at `T_wf_rdata`.
#[test]
fn wf_rdata_timeout_stops_rbt() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    m.fire(&mut r, TimerKind::WfRdata);
    assert_eq!(r.state(), State::Idle);
    assert_eq!(
        m.actions,
        vec![Action::ToneOn(Tone::Rbt), Action::ToneOff(Tone::Rbt)]
    );
}

/// Steps 4–5 of §3.3.2 on the receiver: data received → deliver, stop RBT,
/// reply ABT in slot i.
#[test]
fn data_reception_delivers_and_replies_abt_in_slot() {
    let mut m = Mock::new();
    let mut r = mac(2);
    // Node 2 is the *second* receiver (slot index 1).
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(1), n(2)]), true);
    // First bit of the data frame cancels T_wf_rdata.
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    let data = Frame::data_reliable(
        n(0),
        Dest::Group(vec![n(1), n(2)]),
        Bytes::from_static(b"x"),
        0,
    );
    let t_data_end = m.now;
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(m.delivered.len(), 1);
    assert!(m.actions.contains(&Action::ToneOff(Tone::Rbt)));
    assert_eq!(r.state(), State::Idle);
    // ABT must start exactly at slot · l_abt after the data end.
    let (at, kind, _) = *m
        .timers
        .iter()
        .find(|&&(_, k, _)| k == TimerKind::AbtStart)
        .expect("ABT start timer");
    assert_eq!(kind, TimerKind::AbtStart);
    assert_eq!(at, t_data_end + L_ABT.mul(1));
    m.fire(&mut r, TimerKind::AbtStart);
    assert!(m.actions.contains(&Action::ToneOn(Tone::Abt)));
    m.fire(&mut r, TimerKind::AbtStop);
    assert!(m.actions.contains(&Action::ToneOff(Tone::Abt)));
}

/// Slot 0 receivers reply immediately (delay 0).
#[test]
fn first_receiver_replies_abt_immediately() {
    let mut m = Mock::new();
    let mut r = mac(1);
    m.rx_frame(&mut r, n(1), Frame::mrts(n(0), vec![n(1), n(2)]), true);
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(1) });
    let data = Frame::data_reliable(
        n(0),
        Dest::Group(vec![n(1), n(2)]),
        Bytes::from_static(b"x"),
        0,
    );
    let t_end = m.now;
    m.rx_frame(&mut r, n(1), data, true);
    let (at, _, _) = *m
        .timers
        .iter()
        .find(|&&(_, k, _)| k == TimerKind::AbtStart)
        .unwrap();
    assert_eq!(at, t_end);
}

/// Data from the wrong sender ends the session without an ABT.
#[test]
fn wrong_sender_data_gives_no_abt() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    let foreign = Frame::data_reliable(n(5), Dest::Group(vec![n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), foreign, true);
    assert_eq!(r.state(), State::Idle);
    assert!(!m.has_timer(TimerKind::AbtStart));
    assert!(m.actions.contains(&Action::ToneOff(Tone::Rbt)));
}

/// A corrupted frame during WF_RDATA ends the session.
#[test]
fn corrupted_data_ends_session() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, false);
    assert_eq!(r.state(), State::Idle);
    assert!(!m.has_timer(TimerKind::AbtStart));
    assert_eq!(m.delivered.len(), 0);
}

/// A late retransmission (session expired) is still delivered — the net
/// layer deduplicates — but cannot be ABT-acknowledged.
#[test]
fn late_data_delivered_without_abt() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::new(), 3);
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(m.delivered.len(), 1);
    assert!(!m.has_timer(TimerKind::AbtStart));
}

/// Unreliable data is delivered by destination match (§3.3.3 step 3).
#[test]
fn unreliable_data_filtered_by_destination() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let to_me = Frame::data_unreliable(n(0), Dest::Node(n(2)), Bytes::new(), 0);
    let to_other = Frame::data_unreliable(n(0), Dest::Node(n(3)), Bytes::new(), 1);
    let bcast = Frame::data_unreliable(n(0), Dest::Broadcast, Bytes::new(), 2);
    m.rx_frame(&mut r, n(2), to_me, true);
    m.rx_frame(&mut r, n(2), to_other, true);
    m.rx_frame(&mut r, n(2), bcast, true);
    assert_eq!(m.delivered.len(), 2);
}

/// Reception happens only in IDLE/BACKOFF: a sender waiting in WF_RBT
/// ignores a foreign MRTS.
#[test]
fn no_reception_outside_idle() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 1));
    m.finish_tx(&mut r, false); // now WF_RBT
    assert_eq!(r.state(), State::WfRbt);
    let mrts = Frame::mrts(n(5), vec![n(0)]);
    m.rx_frame(&mut r, n(0), mrts, true);
    assert_eq!(r.state(), State::WfRbt, "must not hijack the sender FSM");
    assert!(!m.actions.contains(&Action::ToneOn(Tone::Rbt)));
}

/// Post-completion backoff (condition 3): two queued packets are separated
/// by a backoff procedure.
#[test]
fn successive_sends_are_separated_by_backoff() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 1));
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 2));
    assert_eq!(r.state(), State::TxUnrdata);
    m.finish_tx(&mut r, false);
    // The second packet must not be on the air yet unless BI drew 0.
    if r.state() == State::Backoff {
        assert!(r.bi() > 0);
        drain_backoff(&mut m, &mut r);
    }
    assert_eq!(r.state(), State::TxUnrdata);
    m.finish_tx(&mut r, false);
    assert_eq!(m.notifications.len(), 2);
}

/// The ablation switch: with `rbt_data_protection` off, the RBT drops as
/// soon as the data frame starts arriving.
#[test]
fn ablation_rbt_drops_at_first_bit() {
    let mut m = Mock::new();
    let cfg = MacConfig {
        rbt_data_protection: false,
        ..MacConfig::default()
    };
    let mut r = Rmac::new(n(2), cfg);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    assert_eq!(m.actions, vec![Action::ToneOn(Tone::Rbt)]);
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    assert_eq!(
        m.actions,
        vec![Action::ToneOn(Tone::Rbt), Action::ToneOff(Tone::Rbt)]
    );
    assert_eq!(r.state(), State::WfRdata, "session continues");
}

/// With protection on (default), the RBT holds through the data frame.
#[test]
fn default_rbt_holds_through_data() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    assert_eq!(m.actions, vec![Action::ToneOn(Tone::Rbt)]);
}

/// Accepting an MRTS from BACKOFF cancels the countdown (reception implies
/// the channel was busy → suspension) and keeps the BI credited so far.
#[test]
fn mrts_reception_cancels_backoff() {
    let (mut m, mut r) = counting(7);
    m.now = SLOT.mul(3) + SimTime::from_micros(5);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    assert_eq!((r.state(), r.bi()), (State::WfRdata, 4));
    // The cancelled sleep must be stale now.
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert_eq!((r.state(), r.bi()), (State::WfRdata, 4));
}

// ---------------------------------------------------------------------
// Edge cases and interleavings
// ---------------------------------------------------------------------

/// A reliable and an unreliable request queued together are served in
/// order, each with its own completion notification.
#[test]
fn mixed_queue_served_in_order() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 1));
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 2));
    // Serve the reliable one.
    assert_eq!(r.state(), State::TxMrts);
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 1, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert_eq!(m.notifications.len(), 1);
    // Then the unreliable one (after the post-cycle backoff).
    drain_backoff(&mut m, &mut r);
    assert_eq!(r.state(), State::TxUnrdata);
    m.finish_tx(&mut r, false);
    assert_eq!(m.notifications.len(), 2);
    assert_eq!(m.notifications[1], (2, TxOutcome::Sent));
}

/// The sender's CW resets after a success even if earlier attempts failed.
#[test]
fn cw_resets_after_eventual_success() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 1));
    // Two failed attempts grow CW.
    for _ in 0..2 {
        m.finish_tx(&mut r, false);
        m.preset_silent(Tone::Rbt, m.now, T_WF);
        m.fire(&mut r, TimerKind::WfRbt);
        drain_backoff(&mut m, &mut r);
    }
    assert!(r.cw() > 31);
    // Then success.
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 1, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert_eq!(r.cw(), 31);
}

/// Delivered receivers from an early round are not re-addressed after a
/// later round drops the stragglers.
#[test]
fn partial_delivery_reported_exactly() {
    let mut m = Mock::new();
    let mut r = mac(0);
    let limit = MacConfig::default().retry_limit;
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2)]), 5));
    // Round 1: node 1 answers, node 2 silent.
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 2, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    // All further rounds: silence until the drop.
    for _ in 1..=limit {
        drain_backoff(&mut m, &mut r);
        assert_eq!(m.last_tx().order, vec![n(2)]);
        m.finish_tx(&mut r, false);
        m.preset_on(Tone::Rbt, m.now, T_WF);
        m.fire(&mut r, TimerKind::WfRbt);
        m.finish_tx(&mut r, false);
        m.preset_abt_slots(m.now, 1, &[]);
        m.fire(&mut r, TimerKind::WfAbt);
    }
    assert_eq!(
        m.notifications,
        vec![(
            5,
            TxOutcome::Reliable {
                delivered: vec![n(1)],
                failed: vec![n(2)],
            }
        )]
    );
    assert_eq!(m.counters.drops, 1);
}

/// An MRTS that lists this node twice is answered once, in the first slot.
#[test]
fn duplicate_listing_uses_first_slot() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(
        &mut r,
        n(2),
        Frame::mrts(n(0), vec![n(2), n(1), n(2)]),
        true,
    );
    assert_eq!(r.state(), State::WfRdata);
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    let data = Frame::data_reliable(
        n(0),
        Dest::Group(vec![n(2), n(1)]),
        Bytes::from_static(b"x"),
        0,
    );
    let t_end = m.now;
    m.rx_frame(&mut r, n(2), data, true);
    let starts: Vec<_> = m
        .timers
        .iter()
        .filter(|&&(_, k, _)| k == TimerKind::AbtStart)
        .collect();
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].0, t_end, "slot 0 ⇒ immediate ABT");
}

/// Self-addressed destinations are stripped: a group of only-me completes
/// vacuously.
#[test]
fn self_only_group_is_vacuous() {
    let mut m = Mock::new();
    let mut r = mac(3);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(3)]), 8));
    assert_eq!(
        m.notifications,
        vec![(
            8,
            TxOutcome::Reliable {
                delivered: vec![],
                failed: vec![],
            }
        )]
    );
    assert!(m.actions.is_empty());
}

/// While a receiver session is open, a second MRTS from a different
/// sender is ignored (no session hijack, no second RBT).
#[test]
fn second_mrts_does_not_hijack_session() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    let tone_ons = m
        .actions
        .iter()
        .filter(|a| matches!(a, Action::ToneOn(Tone::Rbt)))
        .count();
    m.rx_frame(&mut r, n(2), Frame::mrts(n(9), vec![n(2)]), true);
    let tone_ons_after = m
        .actions
        .iter()
        .filter(|a| matches!(a, Action::ToneOn(Tone::Rbt)))
        .count();
    assert_eq!(tone_ons, tone_ons_after, "no second RBT");
    // The original session still completes normally.
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::new(), 0);
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(m.delivered.len(), 1);
}

/// A stale WF_RDATA timer (cancelled by the first data bit) must not kill
/// the reception that is under way.
#[test]
fn cancelled_wf_rdata_timer_is_inert() {
    let mut m = Mock::new();
    let mut r = mac(2);
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(2)]), true);
    let (at, kind, gen) = *m
        .timers
        .iter()
        .find(|&&(_, k, _)| k == TimerKind::WfRdata)
        .unwrap();
    // First bit arrives → timer cancelled.
    r.on_indication(&mut m, &Indication::CarrierOn { node: n(2) });
    // The stale firing arrives anyway.
    m.now = m.now.max(at);
    r.on_timer(&mut m, kind, gen);
    assert_eq!(r.state(), State::WfRdata, "session survives stale timer");
}

/// Retry counting: an aborted MRTS, a missing RBT and missing ABTs all
/// count into the same per-chunk retry budget.
#[test]
fn mixed_failure_modes_share_the_retry_budget() {
    let mut m = Mock::new();
    let cfg = MacConfig {
        retry_limit: 2,
        ..MacConfig::default()
    };
    let mut r = Rmac::new(n(0), cfg);
    r.submit(&mut m, reliable_req(Dest::Node(n(1)), 4));
    // Failure 1: abort.
    r.on_indication(
        &mut m,
        &Indication::ToneChanged {
            node: n(0),
            tone: Tone::Rbt,
            present: true,
        },
    );
    m.finish_tx(&mut r, true);
    drain_backoff(&mut m, &mut r);
    // Failure 2: no RBT.
    m.finish_tx(&mut r, false);
    m.preset_silent(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    drain_backoff(&mut m, &mut r);
    // Failure 3: missing ABT → exceeds limit of 2 → drop.
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 1, &[]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert_eq!(m.counters.drops, 1);
    assert_eq!(m.counters.retransmissions, 2);
}

/// Tone watches are opened and closed in matched pairs across a full
/// reliable cycle (the mock panics on close-without-open).
#[test]
fn tone_watch_discipline() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1)]), 1));
    m.finish_tx(&mut r, false);
    assert!(m.watch_open[Tone::Rbt.idx()]);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    assert!(!m.watch_open[Tone::Rbt.idx()]);
    m.finish_tx(&mut r, false);
    assert!(m.watch_open[Tone::Abt.idx()]);
    m.preset_abt_slots(m.now, 1, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert!(!m.watch_open[Tone::Abt.idx()]);
}

// ---------------------------------------------------------------------
// Declared interest
// ---------------------------------------------------------------------

/// In each of the eight states a tone flip or a carrier rise outside the
/// declared interest does nothing at all — no context call, no state change,
/// no RNG draw — so an engine may leave it undispatched; and the interest is
/// what the handlers say it is.
#[test]
fn a_tone_flip_or_carrier_rise_outside_the_declared_interest_does_nothing_in_any_state() {
    let rise = ToneInterest::flip(Tone::Rbt, true);
    let fall = ToneInterest::flip(Tone::Rbt, false);
    let carrier = ToneInterest::CARRIER;
    let all_of = |r: &Rmac| (r.state(), r.bi(), r.cw(), r.queue_len(), r.transitions());
    let mut seen = Vec::new();
    let mut check = |m: &mut Mock, r: &mut Rmac, state: State, want: ToneInterest| {
        assert_eq!(r.state(), state);
        assert_eq!(r.tone_interest(), want, "in {state:?}");
        m.flips_outside_interest_do_nothing(r, all_of);
        seen.push(state);
    };

    // IDLE with nothing to do: deaf.
    let (mut m, mut r) = (Mock::new(), mac(0));
    check(&mut m, &mut r, State::Idle, ToneInterest::NONE);
    // IDLE holding a request behind a busy channel: an RBT fall may be its
    // cue. So it is with only BI left to count.
    m.data_busy = true;
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2)]), 1));
    check(&mut m, &mut r, State::Idle, fall);
    let (mut m, mut r) = counting(3);
    m.set_carrier(&mut r, true);
    m.fire(&mut r, TimerKind::BackoffSlot);
    assert!(r.bi() > 0);
    check(&mut m, &mut r, State::Idle, fall);
    // BACKOFF: an RBT rise suspends the countdown, and so does the carrier.
    let (mut m, mut r) = counting(5);
    check(&mut m, &mut r, State::Backoff, rise | carrier);
    // The sender's walk: a rise aborts the MRTS, and from there on the tones
    // are read through watches.
    let (mut m, mut r) = (Mock::new(), mac(0));
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1), n(2)]), 1));
    check(&mut m, &mut r, State::TxMrts, rise);
    m.finish_tx(&mut r, false);
    check(&mut m, &mut r, State::WfRbt, ToneInterest::NONE);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    check(&mut m, &mut r, State::TxRdata, ToneInterest::NONE);
    m.finish_tx(&mut r, false);
    check(&mut m, &mut r, State::WfAbt, ToneInterest::NONE);
    // The receiver's wait: for the first bit of the data frame, and once
    // that has come, for nothing but the frame's end.
    let (mut m, mut r) = (Mock::new(), mac(2));
    m.rx_frame(&mut r, n(2), Frame::mrts(n(0), vec![n(1), n(2)]), true);
    check(&mut m, &mut r, State::WfRdata, carrier);
    m.set_carrier(&mut r, true);
    check(&mut m, &mut r, State::WfRdata, ToneInterest::NONE);
    // An unreliable frame on the air is aborted by a rise, like an MRTS.
    let (mut m, mut r) = (Mock::new(), mac(0));
    r.submit(&mut m, unreliable_req(Dest::Broadcast, 7));
    check(&mut m, &mut r, State::TxUnrdata, rise);

    seen.sort_by_key(|s| s.index());
    seen.dedup();
    assert_eq!(seen.len(), State::COUNT, "every state visited: {seen:?}");
}

// ---------------------------------------------------------------------
// Observability: the executed transition matrix
// ---------------------------------------------------------------------

/// A clean reliable unicast walks the happy path of Fig. 14 exactly once,
/// and every executed edge shows up in the transition matrix.
#[test]
fn transition_matrix_records_happy_path() {
    let mut m = Mock::new();
    let mut r = mac(0);
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1)]), 1));
    m.finish_tx(&mut r, false);
    m.preset_on(Tone::Rbt, m.now, T_WF);
    m.fire(&mut r, TimerKind::WfRbt);
    m.finish_tx(&mut r, false);
    m.preset_abt_slots(m.now, 1, &[0]);
    m.fire(&mut r, TimerKind::WfAbt);
    assert_eq!(r.transition_count(State::Idle, State::TxMrts), 1);
    assert_eq!(r.transition_count(State::TxMrts, State::WfRbt), 1);
    assert_eq!(r.transition_count(State::WfRbt, State::TxRdata), 1);
    assert_eq!(r.transition_count(State::TxRdata, State::WfAbt), 1);
    assert_eq!(r.transition_count(State::WfAbt, State::Idle), 1);
    // Edges never executed stay zero.
    assert_eq!(r.transition_count(State::Idle, State::TxUnrdata), 0);
    assert_eq!(r.transition_count(State::WfRdata, State::Idle), 0);
    // The trait view exposes the same counts with the state labels.
    let (labels, flat) = r.transitions().expect("rmac records transitions");
    assert_eq!(labels.len(), State::COUNT);
    assert_eq!(flat.len(), State::COUNT * State::COUNT);
    assert_eq!(
        flat[State::Idle.index() * State::COUNT + State::TxMrts.index()],
        1
    );
    let total: u64 = flat.iter().sum();
    assert!(total >= 5, "at least the five happy-path edges: {total}");
}

/// The receiver side counts its IDLE → WF_RDATA → IDLE round trip.
#[test]
fn transition_matrix_records_receiver_session() {
    let mut m = Mock::new();
    let mut r = mac(2);
    let mrts = Frame::mrts(n(0), vec![n(2)]);
    m.rx_frame(&mut r, n(2), mrts, true);
    assert_eq!(r.state(), State::WfRdata);
    assert_eq!(r.transition_count(State::Idle, State::WfRdata), 1);
    let data = Frame::data_reliable(n(0), Dest::Group(vec![n(2)]), Bytes::from_static(b"d"), 0);
    m.rx_frame(&mut r, n(2), data, true);
    assert_eq!(r.transition_count(State::WfRdata, State::Idle), 1);
}

/// Transition counting is opt-in: a MAC that never had observability
/// attached reports nothing and counts nothing, so uninstrumented runs
/// pay zero per-transition cost.
#[test]
fn transition_counting_is_opt_in() {
    let mut m = Mock::new();
    let mut r = Rmac::new(n(0), MacConfig::default());
    assert!(r.transitions().is_none());
    r.submit(&mut m, reliable_req(Dest::Group(vec![n(1)]), 1));
    assert_eq!(r.transition_count(State::Idle, State::TxMrts), 0);
    assert!(r.transitions().is_none(), "still detached after traffic");
}
