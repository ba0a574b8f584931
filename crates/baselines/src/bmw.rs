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

use std::collections::HashMap;
use std::sync::Arc;

use rmac_core::api::{MacContext, TxOutcome};
use rmac_core::sendq::ReliableSend;
use rmac_sim::SimTime;
use rmac_wire::consts::SIFS;
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::station::{nav_cts_data_ack, Core, Exchange, Station};

/// The BMW MAC entity for one node.
pub type Bmw = Station<BmwExchange>;

#[derive(Debug)]
struct Job {
    send: ReliableSend,
    /// Index of the receiver currently being served.
    idx: usize,
    delivered: Vec<NodeId>,
    failed: Vec<NodeId>,
}

/// Sender-side phases of one receiver's unicast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    TxRts,
    WaitCts,
    /// SIFS before the DATA frame.
    GapData,
    TxData,
    WaitAck,
}

/// BMW's exchange over the 802.11 station.
#[derive(Default)]
pub struct BmwExchange {
    job: Option<Job>,
    /// Next expected reliable-data sequence per transmitter (drives both
    /// dup suppression and the CTS expected-seq field).
    expected: HashMap<NodeId, u32>,
    /// Set after we CTS'd an RTS: the peer whose DATA we owe an ACK.
    await_data_from: Option<NodeId>,
    /// This transmitter's reliable data sequence. The queue numbers every
    /// request it serves; the expected-seq arithmetic needs the reliable
    /// DATA frames alone numbered 0, 1, 2, …
    data_seq: u32,
}

impl BmwExchange {
    fn job(&self) -> &Job {
        self.job.as_ref().expect("BMW unicast without a job")
    }

    fn target(&self) -> NodeId {
        let job = self.job();
        job.send.receivers[job.idx]
    }

    /// The current receiver's exchange concluded: mark the result and move
    /// to the next receiver (each gets its own contention phase) or finish.
    fn receiver_done(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, ok: bool) {
        let target = self.target();
        let job = self.job.as_mut().expect("BMW unicast without a job");
        if ok {
            job.delivered.push(target);
        } else {
            job.failed.push(target);
            st.drop_packet(ctx);
        }
        job.idx += 1;
        if job.idx >= job.send.receivers.len() {
            let Job {
                send,
                delivered,
                failed,
                ..
            } = self.job.take().expect("job checked above");
            ctx.notify(send.token, TxOutcome::Reliable { delivered, failed });
        }
        st.recontend(ctx);
    }

    fn attempt_failed(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if !st.retry(ctx) {
            self.receiver_done(st, ctx, false);
        }
    }
}

impl Exchange for BmwExchange {
    type Phase = Phase;

    fn load(&mut self, mut send: ReliableSend) {
        send.seq = self.data_seq;
        self.data_seq += 1;
        self.job = Some(Job {
            send,
            idx: 0,
            delivered: Vec::new(),
            failed: Vec::new(),
        });
    }

    fn loaded(&self) -> bool {
        self.job.is_some()
    }

    fn begin(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let nav = nav_cts_data_ack(self.job().send.payload.len());
        let frame = Frame::control(FrameKind::Rts, st.id(), self.target(), nav);
        st.transmit(ctx, frame, Phase::TxRts);
    }

    fn on_tx_done(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        match phase {
            Phase::TxRts => st.await_response(ctx, Phase::WaitCts),
            Phase::TxData => st.await_response(ctx, Phase::WaitAck),
            other => debug_assert!(false, "TxDone in phase {other:?}"),
        }
    }

    fn on_timeout(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        if matches!(phase, Phase::WaitCts | Phase::WaitAck) {
            self.attempt_failed(st, ctx);
        }
    }

    fn on_gap(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        if phase == Phase::GapData {
            let frame = st.data_frame(&self.job().send, SimTime::ZERO);
            st.transmit(ctx, frame, Phase::TxData);
        }
    }

    fn on_session_expired(&mut self) {
        // The DATA we CTS'd for never came.
        self.await_data_from = None;
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
            (FrameKind::Rts, _) if st.may_grant(ctx) => {
                self.await_data_from = Some(frame.src);
                // Session guard: if no DATA follows, forget the CTS.
                st.guard_session(ctx, SIFS);
                let mut cts = st.answer(FrameKind::Cts, frame);
                cts.seq = *self.expected.get(&frame.src).unwrap_or(&0);
                st.respond(ctx, cts);
            }
            (FrameKind::Cts, Some(Phase::WaitCts)) if frame.src == self.target() => {
                st.answered();
                if frame.seq > self.job().send.seq {
                    // The receiver overheard an earlier DATA and already
                    // has this packet: skip DATA/ACK.
                    self.receiver_done(st, ctx, true);
                } else {
                    st.gap(ctx, Phase::GapData);
                }
            }
            (FrameKind::DataReliable, _) => {
                // Deliver new packets regardless of which receiver was
                // being served.
                let exp = self.expected.entry(frame.src).or_insert(0);
                if frame.seq >= *exp {
                    *exp = frame.seq + 1;
                    ctx.deliver(frame);
                    ctx.counters().delivered_up += 1;
                }
                // ACK only if this DATA answers our CTS.
                if self.await_data_from == Some(frame.src) {
                    self.await_data_from = None;
                    st.end_session();
                    if st.is_idle() {
                        st.respond(ctx, st.answer(FrameKind::Ack, frame));
                    }
                }
            }
            (FrameKind::Ack, Some(Phase::WaitAck)) if frame.src == self.target() => {
                st.answered();
                self.receiver_done(st, ctx, true);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
