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

use std::sync::Arc;

use rmac_core::api::{MacContext, TxOutcome};
use rmac_core::sendq::ReliableSend;
use rmac_sim::SimTime;
use rmac_wire::airtime::{data_airtime, frame_airtime};
use rmac_wire::consts::{RTS_LEN, SIFS};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::station::{short_air, Core, Exchange, Station};

/// The BMMM MAC entity for one node.
pub type Bmmm = Station<BmmmExchange>;

/// Air time of a 20-byte RTS.
fn rts_air() -> SimTime {
    frame_airtime(RTS_LEN)
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

/// A round in progress; `send.receivers` are those still lacking an ACK.
#[derive(Debug)]
struct Job {
    send: ReliableSend,
    delivered: Vec<NodeId>,
    failed: Vec<NodeId>,
}

/// Sender-side phases of a round; the index is the receiver's position
/// among those still pending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    TxRts(usize),
    WaitCts(usize),
    /// SIFS before the next RTS.
    GapRts(usize),
    /// SIFS before the DATA.
    GapData,
    TxData,
    /// SIFS before the next RAK.
    GapRak(usize),
    TxRak(usize),
    WaitAck(usize),
}

/// BMMM's exchange over the 802.11 station.
#[derive(Default)]
pub struct BmmmExchange {
    job: Option<Job>,
    /// Per-receiver CTS/ACK flags for the current round, aligned with the
    /// job's pending receivers.
    cts: Vec<bool>,
    ack: Vec<bool>,
}

impl BmmmExchange {
    fn job(&self) -> &Job {
        self.job.as_ref().expect("BMMM round without a job")
    }

    fn tx_rts(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, i: usize) {
        let send = &self.job().send;
        let nav = nav_after_rts(i, send.receivers.len(), send.payload.len());
        let frame = Frame::control(FrameKind::Rts, st.id(), send.receivers[i], nav);
        st.transmit(ctx, frame, Phase::TxRts(i));
    }

    fn tx_data(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let send = &self.job().send;
        let frame = st.data_frame(send, nav_after_data(send.receivers.len()));
        st.transmit(ctx, frame, Phase::TxData);
    }

    fn tx_rak(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, i: usize) {
        let send = &self.job().send;
        let nav = nav_after_rak(i, send.receivers.len());
        let frame = Frame::control(FrameKind::Rak, st.id(), send.receivers[i], nav);
        st.transmit(ctx, frame, Phase::TxRak(i));
    }

    /// Move on after CTS slot `i` resolved (received or timed out).
    fn after_cts_slot(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, i: usize) {
        if i + 1 < self.cts.len() {
            st.gap(ctx, Phase::GapRts(i + 1));
        } else if self.cts.iter().any(|&c| c) {
            st.gap(ctx, Phase::GapData);
        } else {
            // Nobody granted the reservation: the round failed outright.
            self.attempt_failed(st, ctx);
        }
    }

    fn after_ack_slot(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, i: usize) {
        if i + 1 < self.ack.len() {
            st.gap(ctx, Phase::GapRak(i + 1));
            return;
        }
        // The round is over: whoever ACKed is done, the rest stay pending.
        let job = self.job.as_mut().expect("BMMM round without a job");
        let pending = std::mem::take(&mut job.send.receivers);
        for (node, &acked) in pending.into_iter().zip(&self.ack) {
            if acked {
                job.delivered.push(node);
            } else {
                job.send.receivers.push(node);
            }
        }
        if job.send.receivers.is_empty() {
            self.finish(st, ctx);
        } else {
            self.attempt_failed(st, ctx);
        }
    }

    fn attempt_failed(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if st.retry(ctx) {
            return;
        }
        let job = self.job.as_mut().expect("BMMM round without a job");
        job.failed.append(&mut job.send.receivers);
        st.drop_packet(ctx);
        self.finish(st, ctx);
    }

    fn finish(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let Job {
            send,
            delivered,
            failed,
        } = self.job.take().expect("BMMM round without a job");
        ctx.notify(send.token, TxOutcome::Reliable { delivered, failed });
        st.recontend(ctx);
    }
}

impl Exchange for BmmmExchange {
    type Phase = Phase;

    fn load(&mut self, send: ReliableSend) {
        self.job = Some(Job {
            send,
            delivered: Vec::new(),
            failed: Vec::new(),
        });
    }

    fn loaded(&self) -> bool {
        self.job.is_some()
    }

    fn begin(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let n = self.job().send.receivers.len();
        self.cts = vec![false; n];
        self.ack = vec![false; n];
        self.tx_rts(st, ctx, 0);
    }

    fn on_tx_done(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        match phase {
            Phase::TxRts(i) => st.await_response(ctx, Phase::WaitCts(i)),
            Phase::TxData => st.gap(ctx, Phase::GapRak(0)),
            Phase::TxRak(i) => st.await_response(ctx, Phase::WaitAck(i)),
            other => debug_assert!(false, "TxDone in phase {other:?}"),
        }
    }

    fn on_timeout(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        match phase {
            Phase::WaitCts(i) => self.after_cts_slot(st, ctx, i),
            Phase::WaitAck(i) => self.after_ack_slot(st, ctx, i),
            _ => {}
        }
    }

    fn on_gap(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        match phase {
            Phase::GapRts(i) => self.tx_rts(st, ctx, i),
            Phase::GapData => self.tx_data(st, ctx),
            Phase::GapRak(i) => self.tx_rak(st, ctx, i),
            _ => {}
        }
    }

    fn on_frame(
        &mut self,
        st: &mut Core<Phase>,
        ctx: &mut dyn MacContext,
        frame: &Arc<Frame>,
        addressed: bool,
    ) {
        if !addressed {
            return;
        }
        match (frame.kind, st.phase()) {
            // A CTS is granted only from quiescence and with a clear NAV.
            (FrameKind::Rts, _) if st.may_grant(ctx) => {
                st.respond(ctx, st.answer(FrameKind::Cts, frame));
            }
            (FrameKind::Cts, Some(Phase::WaitCts(i)))
                if frame.src == self.job().send.receivers[i] =>
            {
                self.cts[i] = true;
                st.answered();
                self.after_cts_slot(st, ctx, i);
            }
            // A RAK asks about data; without any there is nothing to ACK.
            (FrameKind::Rak, _) if st.is_idle() && st.has_data_from(frame.src) => {
                st.respond(ctx, st.answer(FrameKind::Ack, frame));
            }
            (FrameKind::Ack, Some(Phase::WaitAck(i)))
                if frame.src == self.job().send.receivers[i] =>
            {
                self.ack[i] = true;
                st.answered();
                self.after_ack_slot(st, ctx, i);
            }
            (FrameKind::DataReliable, _) => st.deliver_once(ctx, frame),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
