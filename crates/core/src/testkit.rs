//! Test support: a scripted [`MacContext`] for unit-testing MAC protocols
//! without a full channel simulation.
//!
//! Used by this crate's own state-machine tests and by the baseline
//! protocols in `rmac-baselines`. Not intended for production use.

use std::collections::VecDeque;
use std::sync::Arc;

use rmac_phy::{Indication, Tone, ToneInterest, ToneLog};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::consts::{L_ABT, SLOT};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::api::{MacContext, MacCounters, MacService, TimerKind, TxOutcome};

/// Externally visible MAC actions recorded by the mock.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// `start_tx` was called with a frame of this kind.
    StartTx(FrameKind),
    /// `abort_tx` was called.
    AbortTx,
    /// A busy tone was raised.
    ToneOn(Tone),
    /// A busy tone was lowered.
    ToneOff(Tone),
}

/// A scripted [`MacContext`]: channel state is set by the test (through
/// [`Mock::set_carrier`] / [`Mock::set_tone`], which also deliver the edge
/// the [`MacContext`] contract owes the MAC); timers are collected and
/// fired by hand; tone-watch results are preset.
pub struct Mock {
    /// The mock clock; advanced by `fire`/`finish_tx`.
    pub now: SimTime,
    /// Scripted physical carrier sense.
    pub data_busy: bool,
    /// Scripted tone presence, indexed by `Tone::idx()`.
    pub tone: [bool; 2],
    /// Recorded actions, in order.
    pub actions: Vec<Action>,
    /// Armed timers: (absolute fire time, kind, generation).
    pub timers: VecDeque<(SimTime, TimerKind, u64)>,
    /// Frames delivered up to the (mock) network layer.
    pub delivered: Vec<Arc<Frame>>,
    /// Outcome notifications, in order.
    pub notifications: Vec<(u64, TxOutcome)>,
    /// The node's RNG.
    pub rng: SimRng,
    /// The node's counters.
    pub counters: MacCounters,
    /// Preset results for `close_tone_watch`, per tone.
    pub watch_results: [Option<ToneLog>; 2],
    /// Whether a watch is currently open, per tone.
    pub watch_open: [bool; 2],
    /// The frame currently "on the air", if any.
    pub tx_frame: Option<Frame>,
    /// Scripted one-hop neighbor set.
    pub neighbor_list: Vec<NodeId>,
}

impl Default for Mock {
    fn default() -> Self {
        Self::new()
    }
}

impl Mock {
    /// A fresh mock at time zero with idle channels.
    pub fn new() -> Mock {
        Mock {
            now: SimTime::ZERO,
            data_busy: false,
            tone: [false, false],
            actions: Vec::new(),
            timers: VecDeque::new(),
            delivered: Vec::new(),
            notifications: Vec::new(),
            rng: SimRng::new(42),
            counters: MacCounters::default(),
            watch_results: [None, None],
            watch_open: [false, false],
            tx_frame: None,
            neighbor_list: Vec::new(),
        }
    }

    /// Preset a tone log that is continuously ON for the window
    /// `[open_at, open_at + dur]`.
    pub fn preset_on(&mut self, tone: Tone, open_at: SimTime, dur: SimTime) {
        self.watch_results[tone.idx()] = Some(ToneLog {
            start: open_at,
            end: open_at + dur,
            initial_on: true,
            edges: vec![],
        });
    }

    /// Preset a tone log with no activity in the window.
    pub fn preset_silent(&mut self, tone: Tone, open_at: SimTime, dur: SimTime) {
        self.watch_results[tone.idx()] = Some(ToneLog {
            start: open_at,
            end: open_at + dur,
            initial_on: false,
            edges: vec![],
        });
    }

    /// Preset an ABT log with the tone present exactly during the given
    /// slot indices of an `n_slots`-slot collection window.
    pub fn preset_abt_slots(&mut self, open_at: SimTime, n_slots: usize, present: &[usize]) {
        let mut edges = Vec::new();
        for &i in present {
            edges.push((open_at + L_ABT.mul(i as u64), true));
            edges.push((open_at + L_ABT.mul(i as u64 + 1), false));
        }
        edges.sort();
        self.watch_results[Tone::Abt.idx()] = Some(ToneLog {
            start: open_at,
            end: open_at + L_ABT.mul(n_slots as u64),
            initial_on: false,
            edges,
        });
    }

    /// Script the data channel's carrier sense and deliver the
    /// `CarrierOn`/`CarrierOff` edge to `mac`.
    pub fn set_carrier<M: MacService>(&mut self, mac: &mut M, busy: bool) {
        self.data_busy = busy;
        let node = NodeId(0);
        let ind = if busy {
            Indication::CarrierOn { node }
        } else {
            Indication::CarrierOff { node }
        };
        mac.on_indication(self, &ind);
    }

    /// Script a tone's presence and deliver the `ToneChanged` edge to `mac`.
    pub fn set_tone<M: MacService>(&mut self, mac: &mut M, tone: Tone, present: bool) {
        self.tone[tone.idx()] = present;
        let node = NodeId(0);
        mac.on_indication(
            self,
            &Indication::ToneChanged {
                node,
                tone,
                present,
            },
        );
    }

    /// Everything `mac` has done to the world so far — actions, timers,
    /// deliveries, notifications, counters, open watches — and where its RNG
    /// stands: equal before and after a call means the call reached for
    /// nothing.
    pub fn footprint(&self) -> String {
        format!(
            "{:?}",
            (
                (&self.actions, &self.timers, self.delivered.len()),
                (&self.notifications, &self.counters, self.watch_open),
                (self.tx_frame.is_some(), &self.rng),
            )
        )
    }

    /// Deliver to `mac` every tone flip, and the carrier rise, outside its
    /// declared [`tone_interest`](MacService::tone_interest) — the scripted
    /// channel state flipped to match, then put back — and panic if it did
    /// anything: a context call, an RNG draw, a change in what `state` reads.
    /// This is what lets an engine not dispatch those changes at all.
    pub fn flips_outside_interest_do_nothing<M: MacService, S: PartialEq + std::fmt::Debug>(
        &mut self,
        mac: &mut M,
        state: impl Fn(&M) -> S,
    ) {
        let want = mac.tone_interest();
        // `None` is the data channel.
        let tones = Tone::ALL
            .into_iter()
            .flat_map(|tone| [(tone, true), (tone, false)])
            .filter(|&(tone, present)| !want.wants(tone, present))
            .map(|(tone, present)| (Some(tone), present));
        let carrier = (want | ToneInterest::CARRIER != want).then_some((None, true));
        for (channel, present) in tones.chain(carrier) {
            let before = (self.footprint(), state(mac));
            let was = (self.tone, self.data_busy);
            match channel {
                Some(tone) => self.set_tone(mac, tone, present),
                None => self.set_carrier(mac, present),
            }
            (self.tone, self.data_busy) = was;
            let what = channel.map_or("the carrier".into(), |tone| format!("{tone:?}"));
            assert_eq!(
                (self.footprint(), state(mac)),
                before,
                "{what} turning {present} was not declared of interest, and did something"
            );
            assert_eq!(mac.tone_interest(), want, "and moved the interest itself");
        }
    }

    /// Fire the pending timer of `kind`, advancing the clock.
    ///
    /// Cancelled timers leave stale entries behind (exactly as in the real
    /// event queue); the *most recently armed* entry of the kind is the
    /// live one, so that is the one fired.
    ///
    /// The backoff countdown hops to the slot before its expiry; firing
    /// `BackoffSlot` steps the clock one slot at most and delivers the timer
    /// early, so a test walks a countdown slot by slot ("raise the carrier
    /// in slot 4 of 7") without computing times, BI fires per countdown.
    /// (A hop credits only the boundaries behind it, so `bi()` reads one
    /// slot high while stepping; it is exact once the countdown stops.)
    /// [`Mock::fire_earliest`] sleeps the whole span, as the engine does.
    pub fn fire<M: MacService>(&mut self, mac: &mut M, kind: TimerKind) {
        let idx = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, &(_, k, _))| k == kind)
            .max_by_key(|(_, &(_, _, gen))| gen)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no pending {kind:?} timer: {:?}", self.timers));
        let (mut at, k, gen) = self.timers.remove(idx).unwrap();
        if kind == TimerKind::BackoffSlot {
            at = at.min(self.now + SLOT);
        }
        self.now = self.now.max(at);
        mac.on_timer(self, k, gen);
    }

    /// Fire the earliest pending timer of any kind.
    pub fn fire_earliest<M: MacService>(&mut self, mac: &mut M) {
        let idx = self
            .timers
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, _, _))| at)
            .map(|(i, _)| i)
            .expect("no pending timer");
        let (at, k, gen) = self.timers.remove(idx).unwrap();
        self.now = self.now.max(at);
        mac.on_timer(self, k, gen);
    }

    /// Whether a timer of `kind` is pending.
    pub fn has_timer(&self, kind: TimerKind) -> bool {
        self.timers.iter().any(|&(_, k, _)| k == kind)
    }

    /// The frame currently on the air.
    pub fn last_tx(&self) -> &Frame {
        self.tx_frame.as_ref().expect("no frame transmitted")
    }

    /// Complete the in-flight transmission, advancing the clock by its air
    /// time and informing the MAC.
    pub fn finish_tx<M: MacService>(&mut self, mac: &mut M, aborted: bool) {
        let frame = self.tx_frame.take().expect("finish_tx without tx");
        self.now += frame.airtime();
        mac.on_indication(
            self,
            &Indication::TxDone {
                node: frame.src,
                frame: frame.into(),
                aborted,
            },
        );
    }

    /// Feed a received frame to the MAC.
    pub fn rx_frame<M: MacService>(&mut self, mac: &mut M, me: NodeId, frame: Frame, ok: bool) {
        mac.on_indication(
            self,
            &Indication::FrameRx {
                node: me,
                frame: frame.into(),
                ok,
            },
        );
    }
}

impl MacContext for Mock {
    fn now(&self) -> SimTime {
        self.now
    }
    fn schedule(&mut self, delay: SimTime, kind: TimerKind, gen: u64) {
        self.timers.push_back((self.now + delay, kind, gen));
    }
    fn start_tx(&mut self, frame: Frame) {
        assert!(self.tx_frame.is_none(), "start_tx while transmitting");
        self.actions.push(Action::StartTx(frame.kind));
        self.tx_frame = Some(frame);
    }
    fn abort_tx(&mut self) {
        assert!(self.tx_frame.is_some(), "abort_tx without tx");
        self.actions.push(Action::AbortTx);
    }
    fn start_tone(&mut self, tone: Tone) {
        self.actions.push(Action::ToneOn(tone));
    }
    fn stop_tone(&mut self, tone: Tone) {
        self.actions.push(Action::ToneOff(tone));
    }
    fn data_busy(&self) -> bool {
        self.data_busy
    }
    fn tone_present(&self, tone: Tone) -> bool {
        self.tone[tone.idx()]
    }
    fn open_tone_watch(&mut self, tone: Tone) {
        self.watch_open[tone.idx()] = true;
    }
    fn close_tone_watch(&mut self, tone: Tone) -> ToneLog {
        assert!(self.watch_open[tone.idx()], "close without open");
        self.watch_open[tone.idx()] = false;
        self.watch_results[tone.idx()].take().unwrap_or(ToneLog {
            start: SimTime::ZERO,
            end: self.now,
            initial_on: false,
            edges: vec![],
        })
    }
    fn deliver(&mut self, frame: &Arc<Frame>) {
        self.delivered.push(Arc::clone(frame));
    }
    fn notify(&mut self, token: u64, outcome: TxOutcome) {
        self.notifications.push((token, outcome));
    }
    fn neighbors(&mut self) -> Vec<NodeId> {
        self.neighbor_list.clone()
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn counters(&mut self) -> &mut MacCounters {
        &mut self.counters
    }
}
