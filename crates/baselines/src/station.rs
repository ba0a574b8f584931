//! One IEEE 802.11 station, and the [`Exchange`] a protocol lays over it.
//!
//! The paper's §2 presents BMMM, BMW, LBP and 802.11MX as four frame
//! exchanges over the same DCF station. [`Station`] is that station, once:
//! the send queue and the Unreliable Send ([`rmac_core::sendq`]), DCF
//! contention ([`crate::dcf`]), and the moves every exchange is made of —
//! put a frame on the air, wait a bounded time for its answer, wait a SIFS,
//! answer somebody else's frame a SIFS after it, keep a receiver-side
//! session alive until its DATA must have arrived, retry with a doubled
//! contention window until the budget is spent. A protocol implements
//! [`Exchange`] — what to transmit when access is won and how to react to
//! a frame, a finished transmission, a timeout, an elapsed gap — in terms
//! of those verbs on [`Core`], and is a type alias of `Station` over it.
//!
//! **Progress is settled after the handler, not inside it.** An exchange
//! handler borrows both the exchange and the core, so it cannot call back
//! into the station's idle-state dispatcher when it falls back to idle.
//! Going idle ([`Core::recontend`], [`Core::retry`], the end
//! of a response) instead marks progress as due, and the station runs the
//! dispatcher once the handler has returned. That is the order the
//! protocols always had: looking for progress was the last thing any of
//! their handlers did. It stays correct only while going idle is the last
//! thing a handler does — keep it a tail position.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

use rmac_core::api::{MacContext, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_core::sendq::{Next, ReliableSend, SendQueue, UnreliableSend};
use rmac_phy::{Indication, ToneInterest};
use rmac_sim::{SimTime, TimerSlot};
use rmac_wire::airtime::{data_airtime, frame_airtime};
use rmac_wire::consts::{SHORT_CTRL_LEN, SIFS, TAU};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::dcf::{Dcf, DcfAction};

/// Air time of a 14-byte short control frame (CTS/RAK/ACK/NAK).
pub fn short_air() -> SimTime {
    frame_airtime(SHORT_CTRL_LEN)
}

/// How long a sender waits for the CTS/ACK answering the frame it just
/// finished: SIFS, the answer, the round trip, 2 µs of slack.
fn response_timeout() -> SimTime {
    SIFS + short_air() + TAU.mul(2) + SimTime::from_micros(2)
}

/// The NAV of an RTS whose exchange is CTS, DATA of `payload` bytes, ACK.
pub fn nav_cts_data_ack(payload: usize) -> SimTime {
    SIFS + short_air() + SIFS + data_airtime(payload) + SIFS + short_air()
}

/// The largest payload a receiver-side session waits out…
const SESSION_MAX_PAYLOAD: usize = 1500;
/// …and the slack added to its air time.
const SESSION_SLACK: SimTime = SimTime::from_micros(50);

/// Where a station is: the phases every protocol shares, or inside its
/// exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase<P> {
    /// Not in an exchange (possibly counting backoff slots).
    Idle,
    /// Transmitting an unreliable data frame.
    TxUnr,
    /// SIFS before transmitting a CTS/ACK/NAK response.
    RespGap,
    /// Transmitting that response.
    TxResp,
    /// Sender side of the protocol's exchange.
    In(P),
}

/// A reliable-multicast frame exchange over the 802.11 station.
///
/// Handlers receive the station's [`Core`] to act through; one that leaves
/// the exchange ([`Core::recontend`], [`Core::retry`]) must do so last (see
/// the module docs).
pub trait Exchange: Default + Send {
    /// Sender-side phases of the exchange.
    type Phase: Copy + Debug + PartialEq + Send;

    /// LBP and 802.11MX put the multicast group in their RTS's `order`. A
    /// member that hears such a frame is party to the exchange, so its
    /// duration field reserves the medium *for* it: it sets no NAV there.
    /// BMMM and BMW address every control frame to one node and honor the
    /// NAV of all others.
    const NAV_EXEMPTS_LISTED: bool = false;

    /// 802.11MX alone also charges a control frame that lists the node to
    /// its `ctrl_airtime` (R_txoh), as it does one addressed to it; LBP
    /// charges the leader only, although its RTS has the same form.
    const LISTED_IS_OWN_CONTROL: bool = false;

    /// Take on the next Reliable Send.
    fn load(&mut self, send: ReliableSend);
    /// Whether a Reliable Send is loaded (being contended for or served).
    fn loaded(&self) -> bool;
    /// Access won for the loaded send: put the first frame on the air.
    fn begin(&mut self, st: &mut Core<Self::Phase>, ctx: &mut dyn MacContext);
    /// A frame other than unreliable data arrived intact; the station has
    /// booked its air time and NAV already.
    fn on_frame(
        &mut self,
        st: &mut Core<Self::Phase>,
        ctx: &mut dyn MacContext,
        frame: &Arc<Frame>,
        addressed: bool,
    );
    /// A frame arrived corrupted (nothing of it is readable).
    fn on_corrupt(&mut self, _st: &mut Core<Self::Phase>, _ctx: &mut dyn MacContext) {}
    /// The frame transmitted in `phase` is out.
    fn on_tx_done(
        &mut self,
        st: &mut Core<Self::Phase>,
        ctx: &mut dyn MacContext,
        phase: Self::Phase,
    );
    /// The response awaited in `phase` did not come.
    fn on_timeout(
        &mut self,
        st: &mut Core<Self::Phase>,
        ctx: &mut dyn MacContext,
        phase: Self::Phase,
    );
    /// The SIFS gap entered as `phase` elapsed.
    fn on_gap(&mut self, st: &mut Core<Self::Phase>, ctx: &mut dyn MacContext, phase: Self::Phase);
    /// The receiver-side session guard expired: the DATA never came.
    fn on_session_expired(&mut self) {}
    /// A timer of a kind the station does not own.
    fn on_timer(
        &mut self,
        _st: &mut Core<Self::Phase>,
        _ctx: &mut dyn MacContext,
        _kind: TimerKind,
        _gen: u64,
    ) {
    }
}

/// The station state an exchange acts through.
pub struct Core<P> {
    id: NodeId,
    retry_limit: u32,
    dcf: Dcf,
    sendq: SendQueue,
    unreliable: Option<UnreliableSend>,
    phase: Phase<P>,
    /// Failed attempts since the last [`Core::recontend`].
    retries: u32,
    /// The response waiting out its SIFS.
    resp: Option<Frame>,
    /// Last reliable data sequence delivered per transmitter.
    last_seq: HashMap<NodeId, u32>,
    /// The station went idle inside a handler; see the module docs.
    progress_due: bool,
    t_resp: TimerSlot,
    t_gap: TimerSlot,
    t_resp_gap: TimerSlot,
    t_session: TimerSlot,
}

impl<P: Copy + PartialEq> Core<P> {
    /// This node.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the station is outside every exchange, its own and others'.
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// The exchange's own phase, while the station is in it.
    pub fn phase(&self) -> Option<P> {
        match self.phase {
            Phase::In(phase) => Some(phase),
            _ => None,
        }
    }

    /// Whether the station may answer an RTS: idle, and no NAV against it
    /// (802.11 §9.2.5.2).
    pub fn may_grant(&self, ctx: &dyn MacContext) -> bool {
        self.is_idle() && ctx.now() >= self.dcf.nav_until()
    }

    /// Put `frame` on the air, booking its air time, and enter `then`.
    pub fn transmit(&mut self, ctx: &mut dyn MacContext, frame: Frame, then: P) {
        if frame.kind.is_control() {
            ctx.counters().ctrl_airtime += frame.airtime();
        } else {
            ctx.counters().reliable_data_airtime += frame.airtime();
        }
        self.phase = Phase::In(then);
        ctx.start_tx(frame);
    }

    /// The reliable DATA frame of `send`, group-addressed so that every
    /// member can take it whoever the exchange is with, advertising `nav`.
    pub fn data_frame(&self, send: &ReliableSend, nav: SimTime) -> Frame {
        let dest = Dest::Group(send.receivers.clone());
        let mut frame = Frame::data_reliable(self.id, dest, send.payload.clone(), send.seq);
        frame.nav = nav;
        frame
    }

    /// Enter `then`, a wait the exchange times itself.
    pub fn enter(&mut self, then: P) {
        self.phase = Phase::In(then);
    }

    /// Wait in `then` for the answer to the frame just sent;
    /// [`Exchange::on_timeout`] fires unless [`Core::answered`] comes first.
    pub fn await_response(&mut self, ctx: &mut dyn MacContext, then: P) {
        self.phase = Phase::In(then);
        let gen = self.t_resp.arm();
        ctx.schedule(response_timeout(), TimerKind::AwaitResponse, gen);
    }

    /// The awaited answer arrived.
    pub fn answered(&mut self) {
        self.t_resp.cancel();
    }

    /// Wait a SIFS in `then`; [`Exchange::on_gap`] follows.
    pub fn gap(&mut self, ctx: &mut dyn MacContext, then: P) {
        self.phase = Phase::In(then);
        let gen = self.t_gap.arm();
        ctx.schedule(SIFS, TimerKind::Ifs, gen);
    }

    /// The `kind` control frame answering `frame`. Its NAV is what is left
    /// of the reservation `frame` advertises once the answer, a SIFS and a
    /// short frame later, is out (nothing, for the ACK that ends one).
    pub fn answer(&self, kind: FrameKind, frame: &Frame) -> Frame {
        let nav = frame.nav.saturating_sub(SIFS + short_air());
        Frame::control(kind, self.id, frame.src, nav)
    }

    /// Send `frame` one SIFS from now, leaving contention for as long as
    /// that takes.
    pub fn respond(&mut self, ctx: &mut dyn MacContext, frame: Frame) {
        self.dcf.suspend(ctx);
        self.resp = Some(frame);
        self.phase = Phase::RespGap;
        let gen = self.t_resp_gap.arm();
        ctx.schedule(SIFS, TimerKind::RespIfs, gen);
    }

    /// Open a receiver-side session: unless [`Core::end_session`] comes
    /// first, [`Exchange::on_session_expired`] fires once a maximum-size
    /// DATA starting `lead` from now would have ended.
    pub fn guard_session(&mut self, ctx: &mut dyn MacContext, lead: SimTime) {
        let gen = self.t_session.arm();
        let span = lead + data_airtime(SESSION_MAX_PAYLOAD) + SESSION_SLACK;
        ctx.schedule(span, TimerKind::SessionGuard, gen);
    }

    /// The session's DATA arrived (or was seen broken).
    pub fn end_session(&mut self) {
        self.t_session.cancel();
    }

    /// Hand `frame` up unless it repeats the last reliable data delivered
    /// from its transmitter (a retransmission this node already has).
    pub fn deliver_once(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>) {
        if self.last_seq.insert(frame.src, frame.seq) != Some(frame.seq) {
            ctx.deliver(frame);
            ctx.counters().delivered_up += 1;
        }
    }

    /// Whether reliable data from `src` was ever received here.
    pub fn has_data_from(&self, src: NodeId) -> bool {
        self.last_seq.contains_key(&src)
    }

    /// An attempt failed. While the retry budget lasts: count the
    /// retransmission, double the contention window, draw a backoff from
    /// it and contend again — `true`. Budget spent — `false`, and the
    /// exchange gives up on what it was sending.
    #[must_use]
    pub fn retry(&mut self, ctx: &mut dyn MacContext) -> bool {
        self.retries += 1;
        if self.retries > self.retry_limit {
            return false;
        }
        ctx.counters().retransmissions += 1;
        self.dcf.fail();
        self.pace(ctx);
        true
    }

    /// Count a reliable packet given up on for at least one receiver.
    pub fn drop_packet(&mut self, ctx: &mut dyn MacContext) {
        ctx.counters().drops += 1;
    }

    /// What was being sent is settled, delivered or dropped: the contention
    /// window and the retry budget start over, and a fresh backoff paces
    /// whatever comes next.
    pub fn recontend(&mut self, ctx: &mut dyn MacContext) {
        self.dcf.reset_cw();
        self.retries = 0;
        self.pace(ctx);
    }

    /// End `send` with one verdict for the whole group — all a protocol can
    /// report when its feedback (a leader's ACK, a NAK tone) names nobody.
    pub fn finish_group(&mut self, ctx: &mut dyn MacContext, send: ReliableSend, ok: bool) {
        let (delivered, failed) = if ok {
            (send.receivers, vec![])
        } else {
            self.drop_packet(ctx);
            (vec![], send.receivers)
        };
        ctx.notify(send.token, TxOutcome::Reliable { delivered, failed });
        self.recontend(ctx);
    }

    /// Draw a backoff and go idle.
    fn pace(&mut self, ctx: &mut dyn MacContext) {
        self.dcf.draw(ctx);
        self.go_idle();
    }

    fn go_idle(&mut self) {
        self.phase = Phase::Idle;
        self.progress_due = true;
    }
}

/// An 802.11 station running exchange `X`.
pub struct Station<X: Exchange> {
    core: Core<X::Phase>,
    x: X,
}

impl<X: Exchange> Station<X> {
    /// A new station for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Station<X> {
        Station {
            core: Core {
                id,
                retry_limit: cfg.retry_limit,
                dcf: Dcf::new(cfg.cw_min, cfg.cw_max),
                sendq: SendQueue::new(id, cfg.queue_capacity),
                unreliable: None,
                phase: Phase::Idle,
                retries: 0,
                resp: None,
                last_seq: HashMap::new(),
                progress_due: false,
                t_resp: TimerSlot::new(),
                t_gap: TimerSlot::new(),
                t_resp_gap: TimerSlot::new(),
                t_session: TimerSlot::new(),
            },
            x: X::default(),
        }
    }

    /// Whether the station is outside every exchange. Exposed for tests.
    #[doc(hidden)]
    pub fn is_idle(&self) -> bool {
        self.core.is_idle()
    }

    fn has_job(&self) -> bool {
        self.core.unreliable.is_some() || self.x.loaded()
    }

    /// The idle-state dispatcher: serve the next request and contend for it.
    fn try_progress(&mut self, ctx: &mut dyn MacContext) {
        if !self.core.is_idle() {
            return;
        }
        if !self.has_job() {
            match self.core.sendq.next(ctx) {
                Some(Next::Reliable(send)) => self.x.load(send),
                Some(Next::Unreliable(send)) => self.core.unreliable = Some(send),
                None => {}
            }
        }
        let want_tx = self.has_job();
        if let DcfAction::Transmit = self.core.dcf.try_access(ctx, want_tx) {
            self.begin(ctx);
        }
    }

    fn begin(&mut self, ctx: &mut dyn MacContext) {
        match self.core.unreliable.as_ref() {
            Some(send) => {
                self.core.phase = Phase::TxUnr;
                send.transmit(ctx, self.core.id);
            }
            None => self.x.begin(&mut self.core, ctx),
        }
    }

    /// Run the dispatcher if the handler that just returned went idle.
    fn settle(&mut self, ctx: &mut dyn MacContext) {
        if std::mem::take(&mut self.core.progress_due) {
            self.try_progress(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>) {
        let Station { core, x } = self;
        let id = core.id;
        let addressed = frame.addressed_to(id);
        let listed = || frame.order.contains(&id);
        // R_txoh counts control frames of the node's own exchanges.
        if frame.kind.is_control() && (addressed || X::LISTED_IS_OWN_CONTROL && listed()) {
            ctx.counters().ctrl_airtime += frame.airtime();
        }
        // Virtual carrier sense: honor an overheard duration field.
        if !addressed && frame.nav > SimTime::ZERO && !(X::NAV_EXEMPTS_LISTED && listed()) {
            core.dcf.observe_nav(ctx, frame.nav);
        }
        if frame.kind != FrameKind::DataUnreliable {
            x.on_frame(core, ctx, frame, addressed);
        } else if addressed {
            ctx.deliver(frame);
            ctx.counters().delivered_up += 1;
        }
    }
}

impl<X: Exchange> MacService for Station<X> {
    fn submit(&mut self, ctx: &mut dyn MacContext, req: TxRequest) {
        if self.core.sendq.submit(ctx, req) {
            self.try_progress(ctx);
        }
    }

    fn on_indication(&mut self, ctx: &mut dyn MacContext, ind: &Indication) {
        let Station { core, x } = self;
        match ind {
            Indication::CarrierOn { .. } => core.dcf.on_carrier(ctx),
            Indication::ToneChanged { .. } => {}
            Indication::CarrierOff { .. } => self.try_progress(ctx),
            Indication::FrameRx {
                frame, ok: true, ..
            } => self.on_frame(ctx, frame),
            Indication::FrameRx { ok: false, .. } => x.on_corrupt(core, ctx),
            Indication::TxDone { aborted, .. } => {
                debug_assert!(!aborted, "an 802.11 station never aborts a transmission");
                match core.phase {
                    Phase::TxUnr => {
                        let send = core.unreliable.take().expect("TxUnr without its send");
                        send.sent(ctx);
                        core.pace(ctx);
                    }
                    Phase::TxResp => core.go_idle(),
                    Phase::In(phase) => x.on_tx_done(core, ctx, phase),
                    other => debug_assert!(false, "TxDone in phase {other:?}"),
                }
            }
        }
        self.settle(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext, kind: TimerKind, gen: u64) {
        let Station { core, x } = self;
        match kind {
            TimerKind::BackoffSlot => {
                // Outside Idle this is a stale sleep from before the
                // station left contention: the countdown only retires it.
                let want_tx = self.is_idle() && self.has_job();
                if let DcfAction::Transmit = self.core.dcf.on_slot(ctx, gen, want_tx) {
                    self.begin(ctx);
                }
            }
            TimerKind::Nav => {
                if core.dcf.on_nav_timer(gen) {
                    self.try_progress(ctx);
                }
            }
            TimerKind::SessionGuard => {
                if core.t_session.disarm_if(gen) {
                    x.on_session_expired();
                }
            }
            TimerKind::AwaitResponse => {
                if let (true, Phase::In(phase)) = (core.t_resp.disarm_if(gen), core.phase) {
                    x.on_timeout(core, ctx, phase);
                }
            }
            TimerKind::Ifs => {
                if let (true, Phase::In(phase)) = (core.t_gap.disarm_if(gen), core.phase) {
                    x.on_gap(core, ctx, phase);
                }
            }
            TimerKind::RespIfs => {
                if core.t_resp_gap.disarm_if(gen) && core.phase == Phase::RespGap {
                    let frame = core.resp.take().expect("RespGap without a response");
                    ctx.counters().ctrl_airtime += frame.airtime();
                    core.phase = Phase::TxResp;
                    ctx.start_tx(frame);
                }
            }
            _ => x.on_timer(core, ctx, kind, gen),
        }
        self.settle(ctx);
    }

    /// An 802.11 station has no use for the tones; a carrier rise it can
    /// act on only while its DCF countdown runs.
    fn tone_interest(&self) -> ToneInterest {
        if self.core.dcf.counting() {
            ToneInterest::CARRIER
        } else {
            ToneInterest::NONE
        }
    }
}
