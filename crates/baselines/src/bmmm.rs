//! Batch Mode Multicast MAC (BMMM), Sun et al. \[16\], as described in the
//! RMAC paper's §2 and Fig. 1(b).
//!
//! One reliable multicast to n receivers is a *round*:
//!
//! ```text
//! contention, RTS₁ CTS₁ … RTSₙ CTSₙ, DATA, RAK₁ ACK₁ … RAKₙ ACKₙ
//! ```
//!
//! All frames within a round are separated by SIFS; RTS/CTS/DATA/RAK carry
//! 802.11 duration fields so overhearers set their NAV for the remainder of
//! the round. Receivers that fail to ACK stay pending and the round repeats
//! (after backoff with a doubled CW) until the retry limit, after which the
//! packet is dropped for them — the same retry discipline as RMAC, so the
//! comparison isolates the cost of the control-frame scheme itself.

use std::collections::{HashMap, VecDeque};

use std::sync::Arc;

use bytes::Bytes;
use rmac_core::api::{MacContext, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_core::config::MacConfig;
use rmac_phy::Indication;
use rmac_sim::{SimTime, TimerSlot};
use rmac_wire::airtime::{data_airtime, frame_airtime};
use rmac_wire::consts::{RTS_LEN, SHORT_CTRL_LEN, SIFS, TAU};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::dcf::{Dcf, DcfAction};

/// Air time of a 14-byte short control frame (CTS/RAK/ACK).
fn short_air() -> SimTime {
    frame_airtime(SHORT_CTRL_LEN)
}

/// Air time of a 20-byte RTS.
fn rts_air() -> SimTime {
    frame_airtime(RTS_LEN)
}

/// How long a sender waits for a CTS/ACK after its RTS/RAK completes.
fn response_timeout() -> SimTime {
    SIFS + short_air() + TAU.mul(2) + SimTime::from_micros(2)
}

/// NAV advertised by the i-th RTS of an n-receiver round (time from the
/// end of that RTS to the end of the round).
fn nav_after_rts(i: usize, n: usize, payload: usize) -> SimTime {
    let per_rts_cts = SIFS + rts_air() + SIFS + short_air();
    let per_rak_ack = SIFS + short_air() + SIFS + short_air();
    let remaining_pairs = (n - 1 - i) as u64;
    SIFS + short_air() // our own CTS
        + per_rts_cts.mul(remaining_pairs)
        + SIFS
        + data_airtime(payload)
        + per_rak_ack.mul(n as u64)
}

/// NAV advertised by the DATA frame (the RAK/ACK tail).
fn nav_after_data(n: usize) -> SimTime {
    let per_rak_ack = SIFS + short_air() + SIFS + short_air();
    per_rak_ack.mul(n as u64)
}

/// NAV advertised by the i-th RAK.
fn nav_after_rak(i: usize, n: usize) -> SimTime {
    let per_rak_ack = SIFS + short_air() + SIFS + short_air();
    SIFS + short_air() + per_rak_ack.mul((n - 1 - i) as u64)
}

#[derive(Debug)]
struct ReliableJob {
    token: u64,
    payload: Bytes,
    seq: u32,
    pending: Vec<NodeId>,
    delivered: Vec<NodeId>,
    failed: Vec<NodeId>,
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

/// What happens after the current SIFS gap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Next {
    Rts(usize),
    Data,
    Rak(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not in an exchange (possibly counting backoff slots).
    Idle,
    TxRts(usize),
    WaitCts(usize),
    TxData,
    TxRak(usize),
    WaitAck(usize),
    /// SIFS gap before the next sender action.
    Gap(Next),
    /// SIFS gap before transmitting a CTS/ACK response.
    RespGap,
    /// Transmitting a CTS/ACK response.
    TxResp,
    /// Transmitting an unreliable data frame.
    TxUnr,
}

/// The BMMM MAC entity for one node.
pub struct Bmmm {
    id: NodeId,
    cfg: MacConfig,
    dcf: Dcf,
    queue: VecDeque<TxRequest>,
    job: Option<Job>,
    phase: Phase,
    /// Per-receiver CTS/ACK flags for the current round, aligned with the
    /// job's `pending` list.
    cts: Vec<bool>,
    ack: Vec<bool>,
    resp: Option<Frame>,
    /// Highest data sequence delivered per transmitter (dup suppression).
    last_seq: HashMap<NodeId, u32>,
    /// Last data sequence correctly received per transmitter (what a RAK
    /// is acknowledging).
    recent_data: HashMap<NodeId, u32>,
    next_seq: u32,
    t_resp: TimerSlot,
    t_gap: TimerSlot,
    t_resp_gap: TimerSlot,
}

impl Bmmm {
    /// A new BMMM entity for node `id`.
    pub fn new(id: NodeId, cfg: MacConfig) -> Bmmm {
        Bmmm {
            id,
            cfg,
            dcf: Dcf::new(cfg.cw_min, cfg.cw_max),
            queue: VecDeque::new(),
            job: None,
            phase: Phase::Idle,
            cts: Vec::new(),
            ack: Vec::new(),
            resp: None,
            last_seq: HashMap::new(),
            recent_data: HashMap::new(),
            next_seq: 0,
            t_resp: TimerSlot::new(),
            t_gap: TimerSlot::new(),
            t_resp_gap: TimerSlot::new(),
        }
    }

    /// Current phase, exposed for tests.
    #[doc(hidden)]
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
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
                    pending: receivers,
                    delivered: Vec::new(),
                    failed: Vec::new(),
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
                let n = job.pending.len();
                self.cts = vec![false; n];
                self.ack = vec![false; n];
                self.tx_rts(ctx, 0);
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

    fn tx_rts(&mut self, ctx: &mut dyn MacContext, i: usize) {
        let Some(Job::Reliable(job)) = self.job.as_ref() else {
            unreachable!("tx_rts without reliable job");
        };
        let nav = nav_after_rts(i, job.pending.len(), job.payload.len());
        let frame = Frame::control(FrameKind::Rts, self.id, job.pending[i], nav);
        ctx.counters().ctrl_airtime += frame.airtime();
        self.phase = Phase::TxRts(i);
        ctx.start_tx(frame);
    }

    fn tx_data(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_ref() else {
            unreachable!("tx_data without reliable job");
        };
        let mut frame = Frame::data_reliable(
            self.id,
            Dest::Group(job.pending.clone()),
            job.payload.clone(),
            job.seq,
        );
        frame.nav = nav_after_data(job.pending.len());
        ctx.counters().reliable_data_airtime += frame.airtime();
        self.phase = Phase::TxData;
        ctx.start_tx(frame);
    }

    fn tx_rak(&mut self, ctx: &mut dyn MacContext, i: usize) {
        let Some(Job::Reliable(job)) = self.job.as_ref() else {
            unreachable!("tx_rak without reliable job");
        };
        let nav = nav_after_rak(i, job.pending.len());
        let frame = Frame::control(FrameKind::Rak, self.id, job.pending[i], nav);
        ctx.counters().ctrl_airtime += frame.airtime();
        self.phase = Phase::TxRak(i);
        ctx.start_tx(frame);
    }

    fn gap_then(&mut self, ctx: &mut dyn MacContext, next: Next) {
        self.phase = Phase::Gap(next);
        let gen = self.t_gap.arm();
        ctx.schedule(SIFS, TimerKind::Ifs, gen);
    }

    /// Move on after CTS slot `i` resolved (received or timed out).
    fn after_cts_slot(&mut self, ctx: &mut dyn MacContext, i: usize) {
        let n = self.cts.len();
        if i + 1 < n {
            self.gap_then(ctx, Next::Rts(i + 1));
        } else if self.cts.iter().any(|&c| c) {
            self.gap_then(ctx, Next::Data);
        } else {
            // Nobody granted the reservation: the round failed outright.
            self.attempt_failed(ctx);
        }
    }

    fn after_ack_slot(&mut self, ctx: &mut dyn MacContext, i: usize) {
        let n = self.ack.len();
        if i + 1 < n {
            self.gap_then(ctx, Next::Rak(i + 1));
        } else {
            self.end_round(ctx);
        }
    }

    fn end_round(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("end_round without reliable job");
        };
        let mut missing = Vec::new();
        for (i, &node) in job.pending.iter().enumerate() {
            if self.ack[i] {
                job.delivered.push(node);
            } else {
                missing.push(node);
            }
        }
        if missing.is_empty() {
            self.dcf.reset_cw();
            self.finish_job(ctx);
        } else {
            job.pending = missing;
            self.attempt_failed(ctx);
        }
    }

    fn finish_job(&mut self, ctx: &mut dyn MacContext) {
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

    fn attempt_failed(&mut self, ctx: &mut dyn MacContext) {
        let Some(Job::Reliable(job)) = self.job.as_mut() else {
            unreachable!("attempt_failed without reliable job");
        };
        job.retries += 1;
        if job.retries > self.cfg.retry_limit {
            let pending = std::mem::take(&mut job.pending);
            job.failed.extend(pending);
            ctx.counters().drops += 1;
            self.dcf.reset_cw();
            self.finish_job(ctx);
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

    /// Queue a CTS/ACK response to go out one SIFS from now.
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
        if !addressed {
            // Virtual carrier sense: honor the overheard duration field.
            if frame.nav > SimTime::ZERO {
                self.dcf.observe_nav(ctx, frame.nav);
            }
            // Overhearers still record broadcast/overheard data below.
        }
        match frame.kind {
            FrameKind::Rts
                if addressed
                // Respond CTS only from quiescence and with a clear NAV
                // (802.11 §9.2.5.2 behavior).
                && self.phase == Phase::Idle && ctx.now() >= self.dcf.nav_until() =>
            {
                let nav = frame.nav.saturating_sub(SIFS + short_air());
                let cts = Frame::control(FrameKind::Cts, self.id, frame.src, nav);
                self.respond(ctx, cts);
            }
            FrameKind::Cts if addressed => {
                if let Phase::WaitCts(i) = self.phase {
                    let expected = match self.job.as_ref() {
                        Some(Job::Reliable(job)) => job.pending[i],
                        _ => return,
                    };
                    if frame.src == expected {
                        self.cts[i] = true;
                        self.t_resp.cancel();
                        self.after_cts_slot(ctx, i);
                    }
                }
            }
            FrameKind::Rak
                if addressed
                    && self.phase == Phase::Idle
                    && self.recent_data.contains_key(&frame.src) =>
            {
                let nav = frame.nav.saturating_sub(SIFS + short_air());
                let ack = Frame::control(FrameKind::Ack, self.id, frame.src, nav);
                self.respond(ctx, ack);
            }
            FrameKind::Ack if addressed => {
                if let Phase::WaitAck(i) = self.phase {
                    let expected = match self.job.as_ref() {
                        Some(Job::Reliable(job)) => job.pending[i],
                        _ => return,
                    };
                    if frame.src == expected {
                        self.ack[i] = true;
                        self.t_resp.cancel();
                        self.after_ack_slot(ctx, i);
                    }
                }
            }
            FrameKind::DataReliable if addressed => {
                self.recent_data.insert(frame.src, frame.seq);
                if self.last_seq.get(&frame.src) != Some(&frame.seq) {
                    self.last_seq.insert(frame.src, frame.seq);
                    ctx.deliver(frame);
                    ctx.counters().delivered_up += 1;
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

impl MacService for Bmmm {
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
            Indication::CarrierOff { .. } => {
                self.try_progress(ctx);
            }
            Indication::FrameRx { frame, ok, .. } => {
                self.handle_frame(ctx, frame, *ok);
            }
            Indication::TxDone { aborted, .. } => {
                debug_assert!(!aborted, "BMMM never aborts transmissions");
                match self.phase {
                    Phase::TxRts(i) => {
                        self.phase = Phase::WaitCts(i);
                        let gen = self.t_resp.arm();
                        ctx.schedule(response_timeout(), TimerKind::AwaitResponse, gen);
                    }
                    Phase::TxData => {
                        self.gap_then(ctx, Next::Rak(0));
                    }
                    Phase::TxRak(i) => {
                        self.phase = Phase::WaitAck(i);
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
                    other => {
                        debug_assert!(false, "TxDone in phase {other:?}");
                    }
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
                    // Stale slot from before we left contention.
                    let _ = self.dcf.on_slot(ctx, gen, false);
                }
            }
            TimerKind::Nav if self.dcf.on_nav_timer(gen) => {
                self.try_progress(ctx);
            }
            TimerKind::AwaitResponse => {
                if !self.t_resp.disarm_if(gen) {
                    return;
                }
                match self.phase {
                    Phase::WaitCts(i) => self.after_cts_slot(ctx, i),
                    Phase::WaitAck(i) => self.after_ack_slot(ctx, i),
                    _ => {}
                }
            }
            TimerKind::Ifs if self.t_gap.disarm_if(gen) => {
                if let Phase::Gap(next) = self.phase {
                    match next {
                        Next::Rts(i) => self.tx_rts(ctx, i),
                        Next::Data => self.tx_data(ctx),
                        Next::Rak(i) => self.tx_rak(ctx, i),
                    }
                }
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
