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

use std::sync::Arc;

use rmac_core::api::{MacContext, TimerKind};
use rmac_core::sendq::ReliableSend;
use rmac_phy::Tone;
use rmac_sim::{SimTime, TimerSlot};
use rmac_wire::airtime::data_airtime;
use rmac_wire::consts::{LAMBDA, SIFS, TAU, T_WF};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::station::{short_air, Core, Exchange, Station};

/// The 802.11MX MAC entity for one node.
pub type Mx = Station<MxExchange>;

/// How long a NAK tone is held (mirrors RMAC's l_abt = 2τ + λ).
fn nak_len() -> SimTime {
    TAU.mul(2) + LAMBDA
}

/// Sender-side phases of the exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    TxRts,
    /// Waiting for the leader's CTS.
    WaitCts,
    GapData,
    TxData,
    /// Sensing the NAK window after the data frame.
    WfNak,
}

/// 802.11MX's exchange over the 802.11 station.
#[derive(Default)]
pub struct MxExchange {
    job: Option<ReliableSend>,
    /// Receiver-side session opened by an overheard 802.11MX RTS: the
    /// sender whose DATA is awaited.
    rx: Option<NodeId>,
    t_wf_nak: TimerSlot,
    t_nak_start: TimerSlot,
    t_nak_stop: TimerSlot,
}

impl MxExchange {
    fn attempt_failed(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if !st.retry(ctx) {
            let send = self.job.take().expect("a failed attempt has a job");
            st.finish_group(ctx, send, false);
        }
    }
}

impl Exchange for MxExchange {
    type Phase = Phase;
    const NAV_EXEMPTS_LISTED: bool = true;
    const LISTED_IS_OWN_CONTROL: bool = true;

    fn load(&mut self, send: ReliableSend) {
        self.job = Some(send);
    }

    fn loaded(&self) -> bool {
        self.job.is_some()
    }

    fn begin(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        let send = self.job.as_ref().expect("begin without a job");
        let nav = SIFS + short_air() + SIFS + data_airtime(send.payload.len()) + nak_len();
        let mut rts = Frame::control(FrameKind::Rts, st.id(), send.receivers[0], nav);
        rts.order = send.receivers.clone();
        st.transmit(ctx, rts, Phase::TxRts);
    }

    fn on_tx_done(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        match phase {
            Phase::TxRts => st.await_response(ctx, Phase::WaitCts),
            Phase::TxData => {
                // Sense the NAK window: silence means success.
                st.enter(Phase::WfNak);
                ctx.open_tone_watch(Tone::Abt);
                ctx.counters().abt_check_time += T_WF + nak_len();
                let gen = self.t_wf_nak.arm();
                ctx.schedule(T_WF + nak_len(), TimerKind::WfAbt, gen);
            }
            other => debug_assert!(false, "TxDone in phase {other:?}"),
        }
    }

    fn on_timeout(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        if phase == Phase::WaitCts {
            // No CTS: the reservation failed; retry the round.
            self.attempt_failed(st, ctx);
        }
    }

    fn on_gap(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext, phase: Phase) {
        if phase == Phase::GapData {
            let send = self.job.as_ref().expect("GapData without a job");
            let frame = st.data_frame(send, nak_len());
            st.transmit(ctx, frame, Phase::TxData);
        }
    }

    fn on_session_expired(&mut self) {
        self.rx = None;
    }

    /// The negative feedback path: a session member that saw the expected
    /// data frame arrive broken raises the NAK tone.
    fn on_corrupt(&mut self, st: &mut Core<Phase>, ctx: &mut dyn MacContext) {
        if self.rx.is_some() && st.is_idle() {
            self.rx = None;
            st.end_session();
            let gen = self.t_nak_start.arm();
            ctx.schedule(SIFS, TimerKind::AbtStart, gen);
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
            (FrameKind::Rts, _) if frame.order.contains(&st.id()) && st.is_idle() => {
                self.rx = Some(frame.src);
                st.guard_session(ctx, SIFS + short_air() + SIFS);
                // One responder (the first member), so CTSs never collide.
                if frame.order.first() == Some(&st.id()) && st.may_grant(ctx) {
                    st.respond(ctx, st.answer(FrameKind::Cts, frame));
                }
            }
            (FrameKind::Cts, Some(Phase::WaitCts)) if addressed => {
                st.answered();
                st.gap(ctx, Phase::GapData);
            }
            (FrameKind::DataReliable, _) if addressed => {
                st.deliver_once(ctx, frame);
                if self.rx == Some(frame.src) {
                    // Clean reception: stay silent (positive outcome is
                    // the *absence* of a NAK).
                    self.rx = None;
                    st.end_session();
                }
            }
            _ => {}
        }
    }

    fn on_timer(
        &mut self,
        st: &mut Core<Phase>,
        ctx: &mut dyn MacContext,
        kind: TimerKind,
        gen: u64,
    ) {
        match kind {
            TimerKind::WfAbt => {
                if !self.t_wf_nak.disarm_if(gen) || st.phase() != Some(Phase::WfNak) {
                    return;
                }
                // A noisy window: somebody NAKed, retry the whole group.
                // Silence: declare success for everyone who was asked
                // (receiver-initiated optimism; silent losses are
                // invisible here and show up only in the measured
                // delivery ratio).
                if ctx.close_tone_watch(Tone::Abt).max_on() >= LAMBDA {
                    self.attempt_failed(st, ctx);
                } else {
                    let send = self.job.take().expect("WfNak without a job");
                    st.finish_group(ctx, send, true);
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
