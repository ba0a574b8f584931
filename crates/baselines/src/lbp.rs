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

use std::sync::Arc;

use rmac_core::api::MacContext;
use rmac_core::sendq::ReliableSend;
use rmac_sim::SimTime;
use rmac_wire::consts::SIFS;
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::station::{nav_cts_data_ack, short_air, Core, Exchange, Station};

/// The LBP MAC entity for one node.
pub type Lbp = Station<LbpExchange>;

/// Sender-side phases of the exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    TxRts,
    WaitCts,
    GapData,
    TxData,
    WaitAck,
}

/// Receiver-side session opened by an overheard LBP RTS.
#[derive(Debug, Clone, Copy)]
struct RxSession {
    sender: NodeId,
    leader: bool,
}

/// LBP's exchange over the 802.11 station.
#[derive(Default)]
pub struct LbpExchange {
    job: Option<ReliableSend>,
    rx: Option<RxSession>,
}

impl LbpExchange {
    fn attempt_failed(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if !st.retry(ctx) {
            let send = self.job.take().expect("a failed attempt has a job");
            st.finish_group(ctx, send, false);
        }
    }
}

impl Exchange for LbpExchange {
    type Phase = Phase;
    const NAV_EXEMPTS_LISTED: bool = true;

    fn load(&mut self, send: ReliableSend) {
        self.job = Some(send);
    }

    fn loaded(&self) -> bool {
        self.job.is_some()
    }

    fn begin(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let send = self.job.as_ref().expect("begin without a job");
        // RTS addressed to the leader; `order` carries the group (the
        // stand-in for LBP's multicast group address).
        let nav = nav_cts_data_ack(send.payload.len());
        let mut rts = Frame::control(FrameKind::Rts, st.id(), send.receivers[0], nav);
        rts.order = send.receivers.clone();
        st.transmit(ctx, rts, Phase::TxRts);
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
            let send = self.job.as_ref().expect("GapData without a job");
            let frame = st.data_frame(send, SIFS + short_air());
            st.transmit(ctx, frame, Phase::TxData);
        }
    }

    fn on_session_expired(&mut self) {
        self.rx = None;
    }

    /// NAK-on-corruption: a non-leader in a session that sees a broken
    /// frame jams the leader's ACK slot.
    fn on_corrupt(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if let Some(rx) = self.rx {
            if !rx.leader && st.is_idle() {
                self.rx = None;
                st.end_session(ctx);
                let nak = Frame::control(FrameKind::Nak, st.id(), rx.sender, SimTime::ZERO);
                st.respond(ctx, nak);
            }
        }
    }

    fn on_frame(
        &mut self,
        st: &mut Core<Phase>,
        ctx: &mut dyn MacContext,
        frame: &Arc<Frame>,
        addressed: bool,
    ) {
        match (frame.kind, st.phase()) {
            (FrameKind::Rts, _) if frame.order.contains(&st.id()) => {
                if !st.is_idle() {
                    return;
                }
                let leader = frame.order.first() == Some(&st.id());
                let sender = frame.src;
                self.rx = Some(RxSession { sender, leader });
                st.guard_session(ctx, SIFS + short_air() + SIFS);
                if leader && st.may_grant(ctx) {
                    st.respond(ctx, st.answer(FrameKind::Cts, frame));
                }
            }
            (FrameKind::Cts, Some(Phase::WaitCts)) if addressed => {
                st.answered(ctx);
                st.gap(ctx, Phase::GapData);
            }
            (FrameKind::DataReliable, _) if addressed => {
                st.deliver_once(ctx, frame);
                if let Some(rx) = self.rx.filter(|rx| rx.sender == frame.src) {
                    self.rx = None;
                    st.end_session(ctx);
                    if rx.leader && st.is_idle() {
                        st.respond(ctx, st.answer(FrameKind::Ack, frame));
                    }
                }
            }
            (FrameKind::Ack, Some(Phase::WaitAck)) if addressed => {
                st.answered(ctx);
                // LBP cannot tell receivers apart: the leader's ACK is taken
                // as group delivery. (Per-node delivery is measured at the
                // network layer, where the silent-loss gap shows up.)
                let send = self.job.take().expect("WaitAck without a job");
                st.finish_group(ctx, send, true);
            }
            (FrameKind::Nak, Some(Phase::WaitAck)) if addressed => {
                st.answered(ctx);
                self.attempt_failed(st, ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
