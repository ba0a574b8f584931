//! The RMAC protocol state machine (§3.3 and the appendix of the paper).
//!
//! A node runs in one of eight states (Fig. 14):
//!
//! | State | Meaning |
//! |-------|---------|
//! | `IDLE` | no packet, or waiting to start/resume backoff on a busy channel |
//! | `BACKOFF` | both data and RBT channels idle, BI > 0, counting down |
//! | `TX_MRTS` | transmitting an MRTS |
//! | `WF_RBT` | MRTS sent, waiting for an RBT (`T_wf_rbt` = 2τ+λ) |
//! | `TX_RDATA` | transmitting a reliable data frame |
//! | `WF_ABT` | data sent, checking the n ordered ABT slots |
//! | `WF_RDATA` | receiver side: RBT raised, waiting for the data frame |
//! | `TX_UNRDATA` | transmitting an unreliable data frame |
//!
//! The transition conditions C1–C19 of Table 1 are encoded in the handlers
//! below and exercised one by one in this module's tests.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use rmac_phy::{Indication, Tone, ToneInterest};
use rmac_sim::SimTime;
use rmac_wire::consts::{LAMBDA, L_ABT, T_WF, T_WF_RDATA};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::api::{MacContext, MacService, TimerKind, TxOutcome, TxRequest};
use crate::backoff::{Backoff, Slot};
use crate::config::MacConfig;
use crate::sendq::{Next, ReliableSend, SendQueue, UnreliableSend};

/// The eight protocol states of Fig. 14.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// No packet to transmit, or deferring on a busy channel.
    Idle,
    /// Counting down BI over idle 20 µs slots.
    Backoff,
    /// Transmitting an MRTS.
    TxMrts,
    /// Waiting for the RBT after an MRTS.
    WfRbt,
    /// Transmitting a reliable data frame.
    TxRdata,
    /// Collecting the ordered ABTs after a data frame.
    WfAbt,
    /// Receiver: RBT raised, waiting for/receiving the data frame.
    WfRdata,
    /// Transmitting an unreliable data frame.
    TxUnrdata,
}

impl State {
    /// Number of protocol states (rows/columns of the transition matrix).
    pub const COUNT: usize = 8;

    /// Display labels, indexed by [`State::index`]. The names follow
    /// Fig. 14 of the paper.
    pub const LABELS: [&'static str; State::COUNT] = [
        "IDLE",
        "BACKOFF",
        "TX_MRTS",
        "WF_RBT",
        "TX_RDATA",
        "WF_ABT",
        "WF_RDATA",
        "TX_UNRDATA",
    ];

    /// Dense index of this state (row/column into the transition matrix).
    pub fn index(self) -> usize {
        match self {
            State::Idle => 0,
            State::Backoff => 1,
            State::TxMrts => 2,
            State::WfRbt => 3,
            State::TxRdata => 4,
            State::WfAbt => 5,
            State::WfRdata => 6,
            State::TxUnrdata => 7,
        }
    }
}

/// A Reliable Send in progress.
#[derive(Debug)]
struct ReliableJob {
    token: u64,
    payload: Bytes,
    seq: u32,
    /// Chunks still to run after the current one (§3.4 splitting).
    chunks: VecDeque<Vec<NodeId>>,
    /// Receivers of the current invocation still lacking an ABT.
    chunk: Vec<NodeId>,
    delivered: Vec<NodeId>,
    failed: Vec<NodeId>,
    /// Failed attempts of the current chunk so far.
    retries: u32,
}

#[derive(Debug)]
enum Job {
    Reliable(ReliableJob),
    Unreliable(UnreliableSend),
}

/// Receiver-side session opened by an accepted MRTS.
#[derive(Debug)]
struct RxSession {
    sender: NodeId,
    /// Our index in the MRTS order — our ABT reply slot.
    slot: usize,
    /// Whether the first bit of a following frame has arrived (cancels
    /// `T_wf_rdata`).
    carrier_seen: bool,
}

/// The RMAC MAC entity for one node.
pub struct Rmac {
    id: NodeId,
    cfg: MacConfig,
    state: State,
    sendq: SendQueue,
    job: Option<Job>,
    backoff: Backoff,
    rx: Option<RxSession>,
    /// When the WF_ABT collection window opened.
    abt_window_start: SimTime,
    /// Executed state-machine edges: `transitions[from × COUNT + to]`.
    /// Off by default — the matrix only feeds the observability report, so
    /// an uninstrumented run skips the per-transition increment entirely
    /// (the engine flips it on when obs attaches). Counting is plain and
    /// deterministic, so enabling it cannot perturb results (same contract
    /// as [`MacCounters`]). Boxed to keep the 512-byte matrix off the hot
    /// `Rmac` cache lines.
    count_transitions: bool,
    transitions: Box<[u64; State::COUNT * State::COUNT]>,
}

impl Rmac {
    /// A new RMAC entity for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Rmac {
        Rmac {
            id,
            cfg,
            state: State::Idle,
            sendq: SendQueue::new(id),
            job: None,
            backoff: Backoff::default(),
            rx: None,
            abt_window_start: SimTime::ZERO,
            count_transitions: false,
            transitions: Box::new([0; State::COUNT * State::COUNT]),
        }
    }

    /// Current protocol state (diagnostics and tests).
    pub fn state(&self) -> State {
        self.state
    }

    /// Remaining backoff interval, in slots.
    pub fn bi(&self) -> u64 {
        self.backoff.bi()
    }

    /// Current contention window, in slots.
    pub fn cw(&self) -> u64 {
        self.backoff.cw()
    }

    /// Pending requests (excluding the one in progress).
    pub fn queue_len(&self) -> usize {
        self.sendq.len()
    }

    /// How many times the `from → to` edge has been taken.
    pub fn transition_count(&self, from: State, to: State) -> u64 {
        self.transitions[from.index() * State::COUNT + to.index()]
    }

    /// Enter `to`, counting the executed edge. Every state change funnels
    /// through here so the transition matrix is complete by construction.
    fn set_state(&mut self, to: State) {
        if self.count_transitions {
            self.transitions[self.state.index() * State::COUNT + to.index()] += 1;
        }
        self.state = to;
    }

    // -----------------------------------------------------------------
    // Helpers
    // -----------------------------------------------------------------

    fn channels_idle(&self, ctx: &dyn MacContext) -> bool {
        !ctx.data_busy() && !ctx.tone_present(Tone::Rbt)
    }

    /// Serve the next queued request, splitting a reliable receiver list
    /// into §3.4 chunks of at most `max_receivers`.
    fn load_job(&mut self, ctx: &mut dyn MacContext) {
        if self.job.is_some() {
            return;
        }
        self.job = self.sendq.next(ctx).map(|next| match next {
            Next::Unreliable(send) => Job::Unreliable(send),
            Next::Reliable(ReliableSend {
                token,
                payload,
                seq,
                receivers,
            }) => {
                let mut chunks: VecDeque<Vec<NodeId>> = receivers
                    .chunks(self.cfg.max_receivers)
                    .map(|c| c.to_vec())
                    .collect();
                let chunk = chunks.pop_front().expect("a loaded send has receivers");
                Job::Reliable(ReliableJob {
                    token,
                    payload,
                    seq,
                    chunks,
                    chunk,
                    delivered: Vec::new(),
                    failed: Vec::new(),
                    retries: 0,
                })
            }
        });
    }

    /// The IDLE-state dispatcher: start or resume backoff, or transmit.
    /// Encodes conditions C1, C8, C9, C10 and the backoff-suspension rule.
    fn try_progress(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::Idle {
            return;
        }
        self.load_job(ctx);
        // What `tone_interest` rests on: an IDLE node with BI = 0 and no job
        // has nothing waiting either, so an RBT fall finds it nothing to do.
        debug_assert!(self.job.is_some() || self.sendq.is_empty());
        let idle = self.channels_idle(ctx);
        if !idle {
            // Condition (1) of §3.3.1: a packet is pending but a channel is
            // busy — enter the backoff procedure (draw BI) and wait in IDLE
            // for the channel to clear.
            if self.job.is_some() && self.backoff.bi() == 0 {
                self.backoff.draw(ctx.rng());
            }
            return;
        }
        if self.backoff.bi() > 0 {
            // C8: both channels idle and BI not 0.
            self.set_state(State::Backoff);
            self.backoff.start(ctx);
            return;
        }
        // BI == 0 and channels idle: transmit if something is pending
        // (C1 / C10), else remain IDLE (C9 analogue).
        if self.job.is_some() {
            self.start_transmission(ctx);
        }
    }

    fn start_transmission(&mut self, ctx: &mut dyn MacContext) {
        match self.job.as_ref().expect("start_transmission without a job") {
            Job::Reliable(_) => self.tx_mrts(ctx),
            Job::Unreliable(_) => self.tx_unrdata(ctx),
        }
    }

    fn tx_mrts(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_ref() else {
            unreachable!("tx_mrts without a reliable job");
        };
        let frame = Frame::mrts(self.id, job.chunk.clone());
        let c = ctx.counters();
        c.mrts_tx += 1;
        c.count_mrts(frame.order.len());
        c.ctrl_airtime += frame.airtime();
        self.set_state(State::TxMrts);
        ctx.start_tx(frame);
    }

    fn tx_unrdata(&mut self, ctx: &mut dyn MacContext) {
        self.set_state(State::TxUnrdata);
        let Some(Job::Unreliable(send)) = self.job.as_ref() else {
            unreachable!("tx_unrdata without an unreliable job");
        };
        send.transmit(ctx, self.id);
    }

    /// Post-completion backoff (condition (3) of §3.3.1): every successful
    /// transmission or frame drop is followed by a fresh backoff draw.
    fn post_cycle(&mut self, ctx: &mut dyn MacContext) {
        self.backoff.draw(ctx.rng());
        self.set_state(State::Idle);
        self.try_progress(ctx);
    }

    /// A Reliable Send attempt failed (MRTS aborted, no RBT detected, or
    /// ABTs missing). Retries with doubled CW, or drops the chunk once the
    /// retry limit is exhausted.
    fn attempt_failed(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("attempt_failed without a reliable job");
        };
        job.retries += 1;
        if job.retries > self.cfg.retry_limit {
            // Drop the remaining receivers of this chunk.
            let chunk = std::mem::take(&mut job.chunk);
            job.failed.extend(chunk);
            ctx.counters().drops += 1;
            self.backoff.reset_cw();
            self.next_chunk_or_finish(ctx);
        } else {
            ctx.counters().retransmissions += 1;
            self.backoff.fail();
            self.backoff.draw(ctx.rng());
            self.set_state(State::Idle);
            self.try_progress(ctx);
        }
    }

    /// The current chunk finished (all ABTs seen, or dropped). Move to the
    /// next §3.4 chunk, or report the job's outcome.
    fn next_chunk_or_finish(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("next_chunk_or_finish without a reliable job");
        };
        if let Some(next) = job.chunks.pop_front() {
            job.chunk = next;
            job.retries = 0;
            self.post_cycle(ctx);
            return;
        }
        let job = match self.job.take() {
            Some(Job::Reliable(j)) => j,
            _ => unreachable!(),
        };
        ctx.notify(
            job.token,
            TxOutcome::Reliable {
                delivered: job.delivered,
                failed: job.failed,
            },
        );
        self.post_cycle(ctx);
    }

    /// Tear down the receiver-side session (stop the RBT, clear timers).
    fn end_rx_session(&mut self, ctx: &mut dyn MacContext) {
        if self.rx.take().is_some() {
            ctx.stop_tone(Tone::Rbt);
        }
        ctx.cancel_timer(TimerKind::WfRdata);
        if self.state == State::WfRdata {
            self.set_state(State::Idle);
        }
    }

    // -----------------------------------------------------------------
    // Frame handling
    // -----------------------------------------------------------------

    fn handle_frame(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>, ok: bool) {
        if !ok {
            // A corrupted frame still ends a receiver session: whatever was
            // arriving was not (or no longer is) the awaited data frame.
            if self.state == State::WfRdata {
                self.end_rx_session(ctx);
                self.try_progress(ctx);
            }
            return;
        }
        // R_txoh counts control frames of one's *own* exchanges: frames
        // transmitted (accounted at start_tx) plus received frames
        // addressed to this node. Overheard foreign control does not
        // occupy this node's transceiver on its behalf.
        if frame.kind.is_control() && frame.addressed_to(self.id) {
            ctx.counters().ctrl_airtime += frame.airtime();
        }
        match frame.kind {
            FrameKind::Mrts => self.handle_mrts(ctx, frame),
            FrameKind::DataReliable => self.handle_reliable_data(ctx, frame),
            FrameKind::DataUnreliable => self.handle_unreliable_data(ctx, frame),
            // 802.11-family control frames belong to the baselines; RMAC
            // discards the virtual carrier-sense machinery entirely.
            _ => {}
        }
    }

    fn handle_mrts(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        // Frame reception happens in IDLE (the paper's appendix); BACKOFF
        // is included because receiving implies the data channel was busy,
        // which suspends the countdown back into IDLE.
        if !matches!(self.state, State::Idle | State::Backoff) {
            return;
        }
        let Some(slot) = frame.mrts_slot_of(self.id) else {
            return; // not an intended receiver
        };
        self.backoff.pause(ctx);
        // C3: MRTS correctly received → raise the RBT and wait for data.
        self.rx = Some(RxSession {
            sender: frame.src,
            slot,
            carrier_seen: false,
        });
        ctx.start_tone(Tone::Rbt);
        ctx.schedule(T_WF_RDATA, TimerKind::WfRdata);
        self.set_state(State::WfRdata);
    }

    fn handle_reliable_data(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>) {
        match self.state {
            State::WfRdata => {
                let session_ok = self
                    .rx
                    .as_ref()
                    .is_some_and(|rx| rx.sender == frame.src && frame.addressed_to(self.id));
                if session_ok {
                    let slot = self.rx.as_ref().expect("session checked").slot;
                    ctx.deliver(frame);
                    ctx.counters().delivered_up += 1;
                    // Reply the ABT in our assigned slot (step 5 of §3.3.2).
                    ctx.schedule(L_ABT.mul(slot as u64), TimerKind::AbtStart);
                }
                self.end_rx_session(ctx);
                self.try_progress(ctx);
            }
            State::Idle | State::Backoff
                // A retransmission addressed to us after our session timed
                // out: accept the data (the net layer deduplicates), but
                // without a session there is no ABT slot to answer in.
                if frame.addressed_to(self.id) => {
                    ctx.deliver(frame);
                    ctx.counters().delivered_up += 1;
                }
            _ => {}
        }
    }

    fn handle_unreliable_data(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>) {
        if !matches!(self.state, State::Idle | State::Backoff) {
            return;
        }
        if frame.addressed_to(self.id) {
            ctx.deliver(frame);
            ctx.counters().delivered_up += 1;
        }
    }

    // -----------------------------------------------------------------
    // Timer handling
    // -----------------------------------------------------------------

    fn on_backoff_slot(&mut self, ctx: &mut dyn MacContext) {
        let idle = self.channels_idle(ctx);
        match self.backoff.on_timer(ctx, idle) {
            Slot::Counting => {}
            // Suspend: BI is retained, countdown resumes when both
            // channels go idle again (§3.3.1).
            Slot::Suspended => self.set_state(State::Idle),
            Slot::Expired => {
                // C14/C6: BI reached 0 — transmit, or fall back to IDLE.
                self.set_state(State::Idle);
                self.try_progress(ctx);
            }
        }
    }

    fn on_wf_rbt(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::WfRbt {
            return;
        }
        let log = ctx.close_tone_watch(Tone::Rbt);
        // `skip_rbt_sense` is the deliberate conformance mutant: data goes
        // out whether or not any receiver answered (checker invariant C1).
        if self.cfg.skip_rbt_sense || log.max_on() >= LAMBDA {
            // C18: RBT detected — transmit the reliable data frame.
            let Some(Job::Reliable(job)) = self.job.as_ref() else {
                unreachable!("WF_RBT without a reliable job");
            };
            let frame = Frame::data_reliable(
                self.id,
                Dest::Group(job.chunk.clone()),
                job.payload.clone(),
                job.seq,
            );
            ctx.counters().reliable_data_airtime += frame.airtime();
            self.set_state(State::TxRdata);
            ctx.start_tx(frame);
        } else {
            // C12/C15: no RBT arrived — the MRTS was lost; retry.
            self.attempt_failed(ctx);
        }
    }

    fn on_wf_rdata(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::WfRdata {
            return;
        }
        // The first bit of the data frame did not arrive in time: lower
        // the RBT and return to normal operation (C4/C7).
        self.end_rx_session(ctx);
        self.try_progress(ctx);
    }

    fn on_wf_abt(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::WfAbt {
            return;
        }
        let log = ctx.close_tone_watch(Tone::Abt);
        let t0 = self.abt_window_start;
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("WF_ABT without a reliable job");
        };
        let mut missing = Vec::new();
        let mut acked = Vec::new();
        for (i, &node) in job.chunk.iter().enumerate() {
            let a = t0 + L_ABT.mul(i as u64);
            let b = t0 + L_ABT.mul(i as u64 + 1);
            if log.detected_within(a, b, LAMBDA) {
                acked.push(node);
            } else {
                missing.push(node);
            }
        }
        job.delivered.extend(acked);
        if missing.is_empty() {
            // Step 6 of §3.3.2: every intended receiver answered.
            self.backoff.reset_cw();
            self.next_chunk_or_finish(ctx);
        } else {
            // Rebuild the MRTS around the silent receivers and retry.
            job.chunk = missing;
            self.attempt_failed(ctx);
        }
    }

    fn on_tx_done(&mut self, ctx: &mut dyn MacContext, frame: &Frame, aborted: bool) {
        match self.state {
            State::TxMrts => {
                if aborted {
                    // §3.3.2 step 3: aborted on sensing an RBT. Counted as
                    // a failed attempt (retry with grown CW).
                    self.attempt_failed(ctx);
                } else {
                    // C17: MRTS complete → wait for the RBT.
                    self.set_state(State::WfRbt);
                    ctx.open_tone_watch(Tone::Rbt);
                    ctx.schedule(T_WF, TimerKind::WfRbt);
                }
            }
            State::TxRdata => {
                // C19: data complete → collect the ordered ABTs.
                let n = match self.job.as_ref() {
                    Some(Job::Reliable(job)) => job.chunk.len() as u64,
                    _ => unreachable!("TX_RDATA without a reliable job"),
                };
                self.set_state(State::WfAbt);
                self.abt_window_start = ctx.now();
                ctx.open_tone_watch(Tone::Abt);
                ctx.counters().abt_check_time += L_ABT.mul(n);
                ctx.schedule(L_ABT.mul(n), TimerKind::WfAbt);
            }
            State::TxUnrdata => {
                // C2/C5: fire-and-forget completes either way.
                match self.job.take() {
                    Some(Job::Unreliable(send)) => send.sent(ctx),
                    _ => unreachable!("TX_UNRDATA without an unreliable job"),
                }
                self.post_cycle(ctx);
            }
            _ => {
                debug_assert!(
                    false,
                    "TxDone in state {:?} for {:?}",
                    self.state, frame.kind
                );
            }
        }
    }
}

impl MacService for Rmac {
    fn submit(&mut self, ctx: &mut dyn MacContext, req: TxRequest) {
        if self.sendq.submit(ctx, req) {
            self.try_progress(ctx);
        }
    }

    fn on_indication(&mut self, ctx: &mut dyn MacContext, ind: &Indication) {
        match ind {
            Indication::CarrierOn { .. } => {
                self.backoff.on_busy(ctx);
                if self.state == State::WfRdata {
                    let mut first_bit = false;
                    if let Some(rx) = self.rx.as_mut() {
                        if !rx.carrier_seen {
                            // First bit of the data frame: cancel T_wf_rdata
                            // and hold the RBT until the reception ends.
                            rx.carrier_seen = true;
                            first_bit = true;
                            ctx.cancel_timer(TimerKind::WfRdata);
                        }
                    }
                    if first_bit && !self.cfg.rbt_data_protection {
                        // Ablation X2: the RBT only answers the MRTS; it is
                        // lowered as soon as the data frame starts, leaving
                        // the reception unprotected against hidden nodes.
                        ctx.stop_tone(Tone::Rbt);
                    }
                }
            }
            Indication::CarrierOff { .. } => {
                self.try_progress(ctx);
            }
            Indication::ToneChanged { tone, present, .. } => {
                if *tone == Tone::Rbt && *present {
                    self.backoff.on_busy(ctx);
                    // §3.3.2 step 3 (and §3.3.3 step 2): abort in-flight
                    // MRTS / unreliable data on sensing an RBT, protecting
                    // the reception at whoever raised it.
                    if self.state == State::TxMrts {
                        ctx.counters().mrts_aborted += 1;
                        ctx.abort_tx();
                    } else if self.state == State::TxUnrdata {
                        ctx.abort_tx();
                    }
                }
                if *tone == Tone::Rbt && !*present {
                    self.try_progress(ctx);
                }
            }
            Indication::FrameRx { frame, ok, .. } => {
                self.handle_frame(ctx, frame, *ok);
            }
            Indication::TxDone { frame, aborted, .. } => {
                self.on_tx_done(ctx, frame, *aborted);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext, kind: TimerKind) {
        match kind {
            TimerKind::BackoffSlot => self.on_backoff_slot(ctx),
            TimerKind::WfRbt => self.on_wf_rbt(ctx),
            TimerKind::WfRdata => self.on_wf_rdata(ctx),
            TimerKind::WfAbt => self.on_wf_abt(ctx),
            TimerKind::AbtStart => {
                ctx.start_tone(Tone::Abt);
                ctx.schedule(L_ABT, TimerKind::AbtStop);
            }
            TimerKind::AbtStop => ctx.stop_tone(Tone::Abt),
            // Baseline-only timers never reach RMAC.
            TimerKind::AwaitResponse
            | TimerKind::Ifs
            | TimerKind::RespIfs
            | TimerKind::Nav
            | TimerKind::SessionGuard => {}
        }
    }

    /// An RBT rise stops a running countdown and aborts an MRTS or an
    /// unreliable frame on the air; an RBT fall, and the carrier falling,
    /// let an IDLE node with something to do (BI to count down, a job, a
    /// waiting request) try again. Nothing else in `on_indication` reads a `ToneChanged` — the
    /// WF_RBT and WF_ABT windows are tone watches, read when they close. A
    /// carrier rise stops a running countdown too, and is the first bit a
    /// receiver in WF_RDATA waits for; everywhere else the node reads
    /// `data_busy` when it has something to decide (§3.3.1).
    fn tone_interest(&self) -> ToneInterest {
        let mut want = ToneInterest::NONE;
        let awaits_first_bit =
            self.state == State::WfRdata && self.rx.as_ref().is_some_and(|rx| !rx.carrier_seen);
        if self.backoff.counting() || awaits_first_bit {
            want |= ToneInterest::CARRIER;
        }
        if self.backoff.counting() || matches!(self.state, State::TxMrts | State::TxUnrdata) {
            want |= ToneInterest::flip(Tone::Rbt, true);
        }
        if self.state == State::Idle
            && (self.backoff.bi() > 0 || self.job.is_some() || !self.sendq.is_empty())
        {
            want |= ToneInterest::flip(Tone::Rbt, false) | ToneInterest::CARRIER_FALL;
        }
        want
    }

    fn enable_transition_counting(&mut self) {
        self.count_transitions = true;
    }

    fn transitions(&self) -> Option<(&'static [&'static str], Vec<u64>)> {
        self.count_transitions
            .then(|| (&State::LABELS[..], self.transitions.to_vec()))
    }
}

#[cfg(test)]
mod tests;
