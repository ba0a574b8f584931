//! Leader Based Protocol (LBP), Kuri & Kasera \[11\].
//!
//! One receiver — the *leader*, here the first member of the group — takes
//! responsibility for CTS and ACK, so the sender never faces multiple
//! simultaneous acknowledgments. Non-leader receivers stay silent on
//! success; a non-leader that detects a *corrupted* data frame transmits a
//! NAK timed to collide with the leader's ACK, garbling it at the sender
//! and forcing a retransmission. (The collision is not simulated as a
//! special case — it emerges from the PHY's overlap rule.)
//!
//! The RTS carries the multicast group (standing in for LBP's group
//! address, so its 20-byte length is honest); every member that hears it
//! learns a data frame is coming and can arm the NAK logic. Members that
//! miss the RTS can be lost silently — the reliability gap the RMAC paper
//! points out for leader/negative-acknowledgment schemes.

use std::collections::{HashMap, VecDeque};

use std::sync::Arc;

use bytes::Bytes;
use rmac_core::api::{MacContext, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_phy::Indication;
use rmac_sim::{SimTime, TimerSlot};
use rmac_wire::airtime::{data_airtime, frame_airtime};
use rmac_wire::consts::{SHORT_CTRL_LEN, SIFS, TAU};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::dcf::{Dcf, DcfAction};

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
    WaitCts,
    GapData,
    TxData,
    WaitAck,
    RespGap,
    TxResp,
    TxUnr,
}

/// Receiver-side session opened by an overheard LBP RTS.
#[derive(Debug, Clone, Copy)]
struct RxSession {
    sender: NodeId,
    leader: bool,
}

/// The LBP MAC entity for one node.
pub struct Lbp {
    id: NodeId,
    cfg: MacConfig,
    dcf: Dcf,
    queue: VecDeque<TxRequest>,
    job: Option<Job>,
    phase: Phase,
    resp: Option<Frame>,
    rx: Option<RxSession>,
    last_seq: HashMap<NodeId, u32>,
    next_seq: u32,
    t_resp: TimerSlot,
    t_gap: TimerSlot,
    t_resp_gap: TimerSlot,
    t_session: TimerSlot,
}

impl Lbp {
    /// A new LBP entity for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Lbp {
        Lbp {
            id,
            cfg,
            dcf: Dcf::new(cfg.cw_min, cfg.cw_max),
            queue: VecDeque::new(),
            job: None,
            phase: Phase::Idle,
            resp: None,
            rx: None,
            last_seq: HashMap::new(),
            next_seq: 0,
            t_resp: TimerSlot::new(),
            t_gap: TimerSlot::new(),
            t_resp_gap: TimerSlot::new(),
            t_session: TimerSlot::new(),
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
                let nav = SIFS
                    + short_air()
                    + SIFS
                    + data_airtime(job.payload.len())
                    + SIFS
                    + short_air();
                // RTS addressed to the leader; `order` carries the group
                // (the stand-in for LBP's multicast group address).
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

    fn finish_success(&mut self, ctx: &mut dyn MacContext) {
        let job = match self.job.take() {
            Some(Job::Reliable(j)) => j,
            _ => unreachable!(),
        };
        self.dcf.reset_cw();
        // LBP cannot distinguish receivers: a leader ACK is taken as group
        // delivery. (Actual per-node delivery is measured at the network
        // layer, which is how the protocol's silent-loss gap shows up.)
        ctx.notify(
            job.token,
            TxOutcome::Reliable {
                delivered: job.receivers,
                failed: vec![],
            },
        );
        self.post_cycle(ctx);
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

    fn respond(&mut self, ctx: &mut dyn MacContext, frame: Frame) {
        self.dcf.suspend(ctx);
        self.resp = Some(frame);
        self.phase = Phase::RespGap;
        let gen = self.t_resp_gap.arm();
        ctx.schedule(SIFS, TimerKind::RespIfs, gen);
    }

    fn handle_frame(&mut self, ctx: &mut dyn MacContext, frame: &Arc<Frame>, ok: bool) {
        // NAK-on-corruption: a non-leader in a session that sees a broken
        // frame jams the leader's ACK slot.
        if !ok {
            if let Some(rx) = self.rx {
                if !rx.leader && self.phase == Phase::Idle {
                    self.rx = None;
                    self.t_session.cancel();
                    let nak = Frame::control(FrameKind::Nak, self.id, rx.sender, SimTime::ZERO);
                    self.respond(ctx, nak);
                }
            }
            return;
        }
        let addressed = frame.addressed_to(self.id);
        // Control-frame reception counts toward R_txoh only when the frame
        // is part of this node's own exchange (addressed to it).
        if frame.kind.is_control() && addressed {
            ctx.counters().ctrl_airtime += frame.airtime();
        }
        if !addressed && frame.nav > SimTime::ZERO && !frame.order.contains(&self.id) {
            self.dcf.observe_nav(ctx, frame.nav);
        }
        match frame.kind {
            FrameKind::Rts if frame.order.contains(&self.id) => {
                if self.phase != Phase::Idle {
                    return;
                }
                let leader = frame.order.first() == Some(&self.id);
                self.rx = Some(RxSession {
                    sender: frame.src,
                    leader,
                });
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
                    self.respond(ctx, cts);
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
                        self.rx = None;
                        self.t_session.cancel();
                        if rx.leader && self.phase == Phase::Idle {
                            let ack =
                                Frame::control(FrameKind::Ack, self.id, frame.src, SimTime::ZERO);
                            self.respond(ctx, ack);
                        }
                    }
                }
            }
            FrameKind::Ack if addressed && self.phase == Phase::WaitAck => {
                self.t_resp.cancel();
                self.finish_success(ctx);
            }
            FrameKind::Nak if addressed && self.phase == Phase::WaitAck => {
                self.t_resp.cancel();
                self.attempt_failed(ctx);
            }
            FrameKind::DataUnreliable if addressed => {
                ctx.deliver(frame);
                ctx.counters().delivered_up += 1;
            }
            _ => {}
        }
    }
}

impl MacService for Lbp {
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
                debug_assert!(!aborted, "LBP never aborts transmissions");
                match self.phase {
                    Phase::TxRts => {
                        self.phase = Phase::WaitCts;
                        let gen = self.t_resp.arm();
                        ctx.schedule(response_timeout(), TimerKind::AwaitResponse, gen);
                    }
                    Phase::TxData => {
                        self.phase = Phase::WaitAck;
                        let gen = self.t_resp.arm();
                        ctx.schedule(response_timeout(), TimerKind::AwaitResponse, gen);
                    }
                    Phase::TxUnr => {
                        let token = match self.job.take() {
                            Some(Job::Unreliable(j)) => j.token,
                            _ => unreachable!("TxUnr without unreliable job"),
                        };
                        ctx.notify(token, TxOutcome::Sent);
                        self.post_cycle(ctx);
                    }
                    Phase::TxResp => {
                        self.phase = Phase::Idle;
                        self.try_progress(ctx);
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
            TimerKind::AwaitResponse => {
                if !self.t_resp.disarm_if(gen) {
                    return;
                }
                match self.phase {
                    Phase::WaitCts | Phase::WaitAck => self.attempt_failed(ctx),
                    _ => {}
                }
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
                frame.nav = SIFS + short_air();
                ctx.counters().reliable_data_airtime += frame.airtime();
                self.phase = Phase::TxData;
                ctx.start_tx(frame);
            }
            TimerKind::RespIfs
                if self.t_resp_gap.disarm_if(gen) && self.phase == Phase::RespGap =>
            {
                let frame = self.resp.take().expect("RespGap without response");
                ctx.counters().ctrl_airtime += frame.airtime();
                self.phase = Phase::TxResp;
                ctx.start_tx(frame);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
