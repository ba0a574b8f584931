//! Broadcast Medium Window (BMW), Tang & Gerla \[17\], per the RMAC paper's
//! §2 and Fig. 1(a).
//!
//! A reliable multicast is realised as a round-robin of RTS/CTS/DATA/ACK
//! *unicasts*, one per receiver, each with its own contention phase. The
//! saving is overhearing: the DATA frame is receivable by every group
//! member, and a receiver that already obtained the packet says so in its
//! CTS (the CTS carries the sequence number it expects next), letting the
//! sender skip the redundant DATA/ACK for it.
//!
//! This implementation transmits one packet at a time (the engine's queue
//! provides pipelining), so BMW's multi-packet window reduces to the
//! expected-sequence check — enough to reproduce its qualitative behavior:
//! many contention phases per packet and long worst-case delays.

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
    /// Index of the receiver currently being served.
    idx: usize,
    delivered: Vec<NodeId>,
    failed: Vec<NodeId>,
    /// Retries spent on the current receiver.
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
    TxData,
    WaitAck,
    /// SIFS before the DATA frame.
    GapData,
    /// SIFS before a CTS/ACK response.
    RespGap,
    TxResp,
    TxUnr,
}

/// The BMW MAC entity for one node.
pub struct Bmw {
    id: NodeId,
    cfg: MacConfig,
    dcf: Dcf,
    queue: VecDeque<TxRequest>,
    job: Option<Job>,
    phase: Phase,
    resp: Option<Frame>,
    /// Next expected reliable-data sequence per transmitter (drives both
    /// dup suppression and the CTS expected-seq field).
    expected: HashMap<NodeId, u32>,
    /// Set after we CTS'd an RTS: the peer whose DATA we owe an ACK.
    await_data_from: Option<NodeId>,
    /// Per-transmitter reliable data sequence (contiguous, unlike the
    /// frame-level counter, so expected-seq arithmetic works).
    data_seq: u32,
    next_seq: u32,
    t_resp: TimerSlot,
    t_gap: TimerSlot,
    t_resp_gap: TimerSlot,
    t_session: TimerSlot,
}

impl Bmw {
    /// A new BMW entity for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Bmw {
        Bmw {
            id,
            cfg,
            dcf: Dcf::new(cfg.cw_min, cfg.cw_max),
            queue: VecDeque::new(),
            job: None,
            phase: Phase::Idle,
            resp: None,
            expected: HashMap::new(),
            await_data_from: None,
            data_seq: 0,
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
                let seq = self.data_seq;
                self.data_seq += 1;
                self.job = Some(Job::Reliable(ReliableJob {
                    token: req.token,
                    payload: req.payload,
                    seq,
                    receivers,
                    idx: 0,
                    delivered: Vec::new(),
                    failed: Vec::new(),
                    retries: 0,
                }));
            } else {
                let seq = self.next_seq;
                self.next_seq += 1;
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
                let target = job.receivers[job.idx];
                // NAV covers CTS + DATA + ACK (worst case).
                let nav = SIFS
                    + short_air()
                    + SIFS
                    + data_airtime(job.payload.len())
                    + SIFS
                    + short_air();
                let frame = Frame::control(FrameKind::Rts, self.id, target, nav);
                ctx.counters().ctrl_airtime += frame.airtime();
                self.phase = Phase::TxRts;
                ctx.start_tx(frame);
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

    /// The current receiver's exchange concluded: mark the result and move
    /// to the next receiver (each gets its own contention phase) or finish.
    fn receiver_done(&mut self, ctx: &mut dyn MacContext, ok: bool) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("receiver_done without reliable job");
        };
        let target = job.receivers[job.idx];
        if ok {
            job.delivered.push(target);
            self.dcf.reset_cw();
        } else {
            job.failed.push(target);
            ctx.counters().drops += 1;
            self.dcf.reset_cw();
        }
        job.idx += 1;
        job.retries = 0;
        if job.idx >= job.receivers.len() {
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
        }
        self.post_cycle(ctx);
    }

    fn attempt_failed(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("attempt_failed without reliable job");
        };
        job.retries += 1;
        if job.retries > self.cfg.retry_limit {
            self.receiver_done(ctx, false);
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
        if !ok {
            return;
        }
        let addressed = frame.addressed_to(self.id);
        // Control-frame reception counts toward R_txoh only when the frame
        // is part of this node's own exchange (addressed to it).
        if frame.kind.is_control() && addressed {
            ctx.counters().ctrl_airtime += frame.airtime();
        }
        if !addressed && frame.nav > SimTime::ZERO {
            self.dcf.observe_nav(ctx, frame.nav);
        }
        match frame.kind {
            FrameKind::Rts if addressed
                && self.phase == Phase::Idle && ctx.now() >= self.dcf.nav_until() => {
                    let expected = *self.expected.get(&frame.src).unwrap_or(&0);
                    let mut cts = Frame::control(
                        FrameKind::Cts,
                        self.id,
                        frame.src,
                        frame.nav.saturating_sub(SIFS + short_air()),
                    );
                    cts.seq = expected;
                    self.await_data_from = Some(frame.src);
                    let gen = self.t_session.arm();
                    // Session guard: if no DATA follows, forget the CTS.
                    ctx.schedule(
                        SIFS + data_airtime(1500) + SimTime::from_micros(50),
                        TimerKind::Nav,
                        gen,
                    );
                    self.respond(ctx, cts);
                }
            FrameKind::Cts if addressed
                && self.phase == Phase::WaitCts => {
                    let Some(Job::Reliable(job)) = self.job.as_ref() else {
                        return;
                    };
                    if frame.src != job.receivers[job.idx] {
                        return;
                    }
                    self.t_resp.cancel();
                    if frame.seq > job.seq {
                        // The receiver overheard an earlier DATA and
                        // already has this packet: skip DATA/ACK.
                        self.receiver_done(ctx, true);
                    } else {
                        self.phase = Phase::GapData;
                        let gen = self.t_gap.arm();
                        ctx.schedule(SIFS, TimerKind::Ifs, gen);
                    }
                }
            FrameKind::DataReliable
                // Group-addressed so every member can overhear. Deliver
                // new packets regardless of which receiver was being
                // served.
                if addressed => {
                    let exp = self.expected.entry(frame.src).or_insert(0);
                    if frame.seq >= *exp {
                        *exp = frame.seq + 1;
                        ctx.deliver(frame);
                        ctx.counters().delivered_up += 1;
                    }
                    // ACK only if this DATA answers our CTS.
                    if self.await_data_from == Some(frame.src) {
                        self.await_data_from = None;
                        self.t_session.cancel();
                        let ack = Frame::control(FrameKind::Ack, self.id, frame.src, SimTime::ZERO);
                        if matches!(self.phase, Phase::Idle) {
                            self.respond(ctx, ack);
                        }
                    }
                }
            FrameKind::Ack if addressed
                && self.phase == Phase::WaitAck => {
                    let Some(Job::Reliable(job)) = self.job.as_ref() else {
                        return;
                    };
                    if frame.src == job.receivers[job.idx] {
                        self.t_resp.cancel();
                        self.receiver_done(ctx, true);
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

impl MacService for Bmw {
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
                debug_assert!(!aborted, "BMW never aborts transmissions");
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
                    // The DATA we CTS'd for never came.
                    self.await_data_from = None;
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
                let frame = Frame::data_reliable(
                    self.id,
                    Dest::Group(job.receivers.clone()),
                    job.payload.clone(),
                    job.seq,
                );
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
