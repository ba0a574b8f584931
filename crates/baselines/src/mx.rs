//! 802.11MX (Gupta, Shankar & Lalwani \[7\]) — the *receiver-initiated*
//! busy-tone multicast MAC the RMAC paper positions itself against (§2).
//!
//! Where RMAC collects one positive ABT per receiver, 802.11MX keeps the
//! 802.11 frame flow and replaces acknowledgments with a single **negative**
//! busy tone: receivers that joined the exchange but got a *corrupted* data
//! frame assert a NAK tone in a short window after the frame; the sender
//! retransmits while the window is noisy and declares success when it is
//! silent. This is cheap (one tone window regardless of group size, no
//! feedback ordering) but cannot achieve full reliability: a receiver that
//! never heard the transmission request "will not enter the state to send
//! a negative feedback", so its loss is silent — exactly the asymmetry the
//! RMAC paper calls out, and it is directly measurable here because
//! delivery is counted at the receivers.
//!
//! Reconstruction notes: per the paper, 802.11MX "maintains all the
//! behavior of IEEE 802.11", so the exchange keeps a channel reservation:
//! DCF contention, a multicast RTS carrying the group (the stand-in for a
//! group address), a CTS from the *first* group member (one responder, as
//! in leader-based schemes, so CTSs never collide), SIFS, DATA, then a
//! 2τ+λ NAK-sensing window replacing all ACKs. The NAK tone is carried on
//! the simulator's second tone channel (the one RMAC uses for the ABT) —
//! the two protocols never run in the same simulation.

use std::collections::{HashMap, VecDeque};

use std::sync::Arc;

use bytes::Bytes;
use rmac_core::api::{MacContext, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_phy::{Indication, Tone};
use rmac_sim::{SimTime, TimerSlot};
use rmac_wire::airtime::{data_airtime, frame_airtime};
use rmac_wire::consts::{LAMBDA, SHORT_CTRL_LEN, SIFS, TAU, T_WF};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::dcf::{Dcf, DcfAction};

/// How long a NAK tone is held (mirrors RMAC's l_abt = 2τ + λ).
fn nak_len() -> SimTime {
    TAU.mul(2) + LAMBDA
}

fn short_air() -> SimTime {
    frame_airtime(SHORT_CTRL_LEN)
}

fn response_timeout() -> SimTime {
    SIFS + short_air() + TAU.mul(2) + SimTime::from_micros(2)
}

#[derive(Debug)]
struct ReliableJob {
    token: u64,
    payload: Bytes,
    seq: u32,
    receivers: Vec<NodeId>,
    retries: u32,
}

#[derive(Debug)]
struct UnreliableJob {
    token: u64,
    payload: Bytes,
    dest: Dest,
    seq: u32,
}

#[derive(Debug)]
enum Job {
    Reliable(ReliableJob),
    Unreliable(UnreliableJob),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    TxRts,
    /// Waiting for the leader's CTS.
    WaitCts,
    GapData,
    TxData,
    /// Sensing the NAK window after the data frame.
    WfNak,
    /// SIFS before transmitting the leader CTS.
    RespGap,
    /// Transmitting the leader CTS.
    TxResp,
    TxUnr,
}

/// Receiver-side session opened by an overheard 802.11MX RTS.
#[derive(Debug, Clone, Copy)]
struct RxSession {
    sender: NodeId,
}

/// The 802.11MX MAC entity for one node.
pub struct Mx {
    id: NodeId,
    cfg: MacConfig,
    dcf: Dcf,
    queue: VecDeque<TxRequest>,
    job: Option<Job>,
    phase: Phase,
    rx: Option<RxSession>,
    last_seq: HashMap<NodeId, u32>,
    resp: Option<Frame>,
    next_seq: u32,
    t_gap: TimerSlot,
    t_resp: TimerSlot,
    t_resp_gap: TimerSlot,
    t_wf_nak: TimerSlot,
    t_session: TimerSlot,
    t_nak_start: TimerSlot,
    t_nak_stop: TimerSlot,
}

impl Mx {
    /// A new 802.11MX entity for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Mx {
        Mx {
            id,
            cfg,
            dcf: Dcf::new(cfg.cw_min, cfg.cw_max),
            queue: VecDeque::new(),
            job: None,
            phase: Phase::Idle,
            rx: None,
            last_seq: HashMap::new(),
            resp: None,
            next_seq: 0,
            t_gap: TimerSlot::new(),
            t_resp: TimerSlot::new(),
            t_resp_gap: TimerSlot::new(),
            t_wf_nak: TimerSlot::new(),
            t_session: TimerSlot::new(),
            t_nak_start: TimerSlot::new(),
            t_nak_stop: TimerSlot::new(),
        }
    }

    fn load_job(&mut self, ctx: &mut dyn MacContext) {
        while self.job.is_none() {
            let Some(req) = self.queue.pop_front() else {
                return;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            if req.reliable {
                let mut receivers = match req.dest {
                    Dest::Node(n) => vec![n],
                    Dest::Group(ref g) => g.clone(),
                    Dest::Broadcast => ctx.neighbors(),
                };
                receivers.retain(|&n| n != self.id);
                receivers.dedup();
                if receivers.is_empty() {
                    ctx.notify(
                        req.token,
                        TxOutcome::Reliable {
                            delivered: vec![],
                            failed: vec![],
                        },
                    );
                    continue;
                }
                self.job = Some(Job::Reliable(ReliableJob {
                    token: req.token,
                    payload: req.payload,
                    seq,
                    receivers,
                    retries: 0,
                }));
            } else {
                self.job = Some(Job::Unreliable(UnreliableJob {
                    token: req.token,
                    payload: req.payload,
                    dest: req.dest,
                    seq,
                }));
            }
        }
    }

    fn try_progress(&mut self, ctx: &mut dyn MacContext) {
        if self.phase != Phase::Idle {
            return;
        }
        self.load_job(ctx);
        if let DcfAction::Transmit = self.dcf.try_access(ctx, self.job.is_some()) {
            self.begin(ctx);
        }
    }

    fn begin(&mut self, ctx: &mut dyn MacContext) {
        match self.job.as_ref().expect("begin without job") {
            Job::Reliable(job) => {
                let nav = SIFS + short_air() + SIFS + data_airtime(job.payload.len()) + nak_len();
                let mut rts = Frame::control(FrameKind::Rts, self.id, job.receivers[0], nav);
                rts.order = job.receivers.clone();
                ctx.counters().ctrl_airtime += rts.airtime();
                self.phase = Phase::TxRts;
                ctx.start_tx(rts);
            }
            Job::Unreliable(job) => {
                let frame =
                    Frame::data_unreliable(self.id, job.dest.clone(), job.payload.clone(), job.seq);
                ctx.counters().unreliable_data_airtime += frame.airtime();
                self.phase = Phase::TxUnr;
                ctx.start_tx(frame);
            }
        }
    }

    fn attempt_failed(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("attempt_failed without reliable job");
        };
        job.retries += 1;
        if job.retries > self.cfg.retry_limit {
            let job = match self.job.take() {
                Some(Job::Reliable(j)) => j,
                _ => unreachable!(),
            };
            ctx.counters().drops += 1;
            self.dcf.reset_cw();
            ctx.notify(
                job.token,
                TxOutcome::Reliable {
                    delivered: vec![],
                    failed: job.receivers,
                },
            );
            self.post_cycle(ctx);
        } else {
            ctx.counters().retransmissions += 1;
            self.dcf.fail();
            self.dcf.draw(ctx);
            self.phase = Phase::Idle;
            self.try_progress(ctx);
        }
    }

    fn post_cycle(&mut self, ctx: &mut dyn MacContext) {
        self.dcf.draw(ctx);
        self.phase = Phase::Idle;
        self.try_progress(ctx);
    }

    fn handle_frame(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>, ok: bool) {
        if !ok {
            // The negative feedback path: a session member that saw the
            // expected data frame arrive broken raises the NAK tone.
            if self.rx.is_some() && matches!(self.phase, Phase::Idle) {
                self.rx = None;
                self.t_session.cancel();
                let gen = self.t_nak_start.arm();
                ctx.schedule(SIFS, TimerKind::AbtStart, gen);
            }
            return;
        }
        let addressed = frame.addressed_to(self.id);
        if frame.kind.is_control() && (addressed || frame.order.contains(&self.id)) {
            ctx.counters().ctrl_airtime += frame.airtime();
        }
        if !addressed && frame.nav > SimTime::ZERO && !frame.order.contains(&self.id) {
            self.dcf.observe_nav(ctx, frame.nav);
        }
        match frame.kind {
            FrameKind::Rts if frame.order.contains(&self.id) && self.phase == Phase::Idle => {
                let leader = frame.order.first() == Some(&self.id);
                self.rx = Some(RxSession { sender: frame.src });
                let gen = self.t_session.arm();
                ctx.schedule(
                    SIFS + short_air() + SIFS + data_airtime(1500) + SimTime::from_micros(50),
                    TimerKind::Nav,
                    gen,
                );
                if leader && ctx.now() >= self.dcf.nav_until() {
                    let cts = Frame::control(
                        FrameKind::Cts,
                        self.id,
                        frame.src,
                        frame.nav.saturating_sub(SIFS + short_air()),
                    );
                    self.dcf.suspend(ctx);
                    self.resp = Some(cts);
                    self.phase = Phase::RespGap;
                    let g = self.t_resp_gap.arm();
                    ctx.schedule(SIFS, TimerKind::RespIfs, g);
                }
            }
            FrameKind::Cts if addressed && self.phase == Phase::WaitCts => {
                self.t_resp.cancel();
                self.phase = Phase::GapData;
                let gen = self.t_gap.arm();
                ctx.schedule(SIFS, TimerKind::Ifs, gen);
            }
            FrameKind::DataReliable if addressed => {
                if self.last_seq.get(&frame.src) != Some(&frame.seq) {
                    self.last_seq.insert(frame.src, frame.seq);
                    ctx.deliver(frame);
                    ctx.counters().delivered_up += 1;
                }
                if let Some(rx) = self.rx {
                    if rx.sender == frame.src {
                        // Clean reception: stay silent (positive outcome is
                        // the *absence* of a NAK).
                        self.rx = None;
                        self.t_session.cancel();
                    }
                }
            }
            FrameKind::DataUnreliable if addressed => {
                ctx.deliver(frame);
                ctx.counters().delivered_up += 1;
            }
            _ => {}
        }
    }
}

impl MacService for Mx {
    fn submit(&mut self, ctx: &mut dyn MacContext, req: TxRequest) {
        if self.queue.len() >= self.cfg.queue_capacity {
            ctx.counters().queue_rejections += 1;
            ctx.notify(req.token, TxOutcome::Rejected);
            return;
        }
        if req.reliable {
            ctx.counters().reliable_accepted += 1;
        } else {
            ctx.counters().unreliable_accepted += 1;
        }
        self.queue.push_back(req);
        self.try_progress(ctx);
    }

    fn on_indication(&mut self, ctx: &mut dyn MacContext, ind: &Indication) {
        match ind {
            Indication::CarrierOn { .. } => self.dcf.on_carrier(ctx),
            Indication::ToneChanged { .. } => {}
            Indication::CarrierOff { .. } => self.try_progress(ctx),
            Indication::FrameRx { frame, ok, .. } => self.handle_frame(ctx, frame, *ok),
            Indication::TxDone { aborted, .. } => {
                debug_assert!(!aborted, "802.11MX never aborts transmissions");
                match self.phase {
                    Phase::TxRts => {
                        self.phase = Phase::WaitCts;
                        let gen = self.t_resp.arm();
                        ctx.schedule(response_timeout(), TimerKind::AwaitResponse, gen);
                    }
                    Phase::TxResp => {
                        self.phase = Phase::Idle;
                        self.try_progress(ctx);
                    }
                    Phase::TxData => {
                        // Sense the NAK window: silence means success.
                        self.phase = Phase::WfNak;
                        ctx.open_tone_watch(Tone::Abt);
                        ctx.counters().abt_check_time += T_WF + nak_len();
                        let gen = self.t_wf_nak.arm();
                        ctx.schedule(T_WF + nak_len(), TimerKind::WfAbt, gen);
                    }
                    Phase::TxUnr => {
                        let token = match self.job.take() {
                            Some(Job::Unreliable(j)) => j.token,
                            _ => unreachable!("TxUnr without unreliable job"),
                        };
                        ctx.notify(token, TxOutcome::Sent);
                        self.post_cycle(ctx);
                    }
                    other => debug_assert!(false, "TxDone in phase {other:?}"),
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext, kind: TimerKind, gen: u64) {
        match kind {
            TimerKind::BackoffSlot => {
                if self.phase == Phase::Idle {
                    if let DcfAction::Transmit = self.dcf.on_slot(ctx, gen, self.job.is_some()) {
                        self.begin(ctx);
                    }
                } else {
                    let _ = self.dcf.on_slot(ctx, gen, false);
                }
            }
            TimerKind::Nav => {
                if self.t_session.disarm_if(gen) {
                    self.rx = None;
                } else if self.dcf.on_nav_timer(gen) {
                    self.try_progress(ctx);
                }
            }
            TimerKind::AwaitResponse
                if self.t_resp.disarm_if(gen) && self.phase == Phase::WaitCts =>
            {
                // No CTS: the reservation failed; retry the round.
                self.attempt_failed(ctx);
            }
            TimerKind::RespIfs
                if self.t_resp_gap.disarm_if(gen) && self.phase == Phase::RespGap =>
            {
                let frame = self.resp.take().expect("RespGap without response");
                ctx.counters().ctrl_airtime += frame.airtime();
                self.phase = Phase::TxResp;
                ctx.start_tx(frame);
            }
            TimerKind::Ifs if self.t_gap.disarm_if(gen) && self.phase == Phase::GapData => {
                let Some(Job::Reliable(job)) = self.job.as_ref() else {
                    return;
                };
                let mut frame = Frame::data_reliable(
                    self.id,
                    Dest::Group(job.receivers.clone()),
                    job.payload.clone(),
                    job.seq,
                );
                frame.nav = nak_len();
                ctx.counters().reliable_data_airtime += frame.airtime();
                self.phase = Phase::TxData;
                ctx.start_tx(frame);
            }
            TimerKind::WfAbt => {
                if !self.t_wf_nak.disarm_if(gen) || self.phase != Phase::WfNak {
                    return;
                }
                let log = ctx.close_tone_watch(Tone::Abt);
                if log.max_on() >= LAMBDA {
                    // Somebody NAKed: the whole group is retried (the tone
                    // carries no identity).
                    self.attempt_failed(ctx);
                } else {
                    // Silence: declare success for everyone who was asked
                    // (receiver-initiated optimism; silent losses are
                    // invisible here and show up only in the measured
                    // delivery ratio).
                    let job = match self.job.take() {
                        Some(Job::Reliable(j)) => j,
                        _ => unreachable!("WfNak without reliable job"),
                    };
                    self.dcf.reset_cw();
                    ctx.notify(
                        job.token,
                        TxOutcome::Reliable {
                            delivered: job.receivers,
                            failed: vec![],
                        },
                    );
                    self.post_cycle(ctx);
                }
            }
            TimerKind::AbtStart if self.t_nak_start.disarm_if(gen) => {
                ctx.start_tone(Tone::Abt);
                let g = self.t_nak_stop.arm();
                ctx.schedule(nak_len(), TimerKind::AbtStop, g);
            }
            TimerKind::AbtStop if self.t_nak_stop.disarm_if(gen) => {
                ctx.stop_tone(Tone::Abt);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
