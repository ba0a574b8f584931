//! The MAC service abstraction shared by RMAC and the baseline protocols.
//!
//! A MAC entity is a passive state machine: the engine feeds it upper-layer
//! transmit requests ([`MacService::submit`]), PHY indications
//! ([`MacService::on_indication`]) and its own timer firings
//! ([`MacService::on_timer`]); the MAC acts on the world exclusively through
//! the [`MacContext`] it is handed, which wraps the channel, the event
//! queue, the node's RNG and its counters. This inversion keeps every MAC
//! protocol unit-testable against a scripted mock context and lets them all
//! share one engine.

use std::sync::Arc;

use bytes::Bytes;
use rmac_phy::{Indication, Tone, ToneInterest, ToneLog};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::{Dest, Frame, NodeId};

/// An upper-layer transmit request.
#[derive(Clone, Debug)]
pub struct TxRequest {
    /// Use the Reliable Send service (MRTS/RBT/ABT for RMAC; the
    /// RTS/CTS/…/ACK machinery for the baselines)?
    pub reliable: bool,
    /// Intended receiver(s). For a *reliable broadcast* pass
    /// [`Dest::Broadcast`]; the MAC expands it to the current one-hop
    /// neighbor set via [`MacContext::neighbors`] (paper §3.3.2).
    pub dest: Dest,
    /// Application payload.
    pub payload: Bytes,
    /// Caller correlation token, echoed in [`MacContext::notify`].
    pub token: u64,
}

/// Final outcome of a transmit request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// An unreliable frame left the antenna (or was aborted — the service
    /// is fire-and-forget either way).
    Sent,
    /// A reliable send finished: which receivers acknowledged and which
    /// were given up on after the retry limit.
    Reliable {
        delivered: Vec<NodeId>,
        failed: Vec<NodeId>,
    },
    /// The request was rejected because the transmit queue was full.
    Rejected,
}

/// Logical timer identifiers: a node has one timer of each kind. Arming a
/// kind supersedes its armed instance, and only the live instance's firing
/// reaches the MAC ([`MacContext::schedule`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// The backoff countdown's timer ([`crate::backoff::Backoff`]): a look at
    /// a slot boundary (the expiry, or the one after a busy edge), or the
    /// hop to the boundary before the expiry.
    BackoffSlot,
    /// RMAC `T_wf_rbt`: the post-MRTS RBT detection window closed.
    WfRbt,
    /// RMAC `T_wf_rdata`: the receiver's wait for the data frame expired.
    WfRdata,
    /// RMAC: the sender's n-slot ABT collection window closed.
    WfAbt,
    /// RMAC `T_tx_abt`: time for this receiver to raise its ABT.
    AbtStart,
    /// RMAC: time to lower the ABT again (after `l_abt`).
    AbtStop,
    /// Baselines: a CTS/ACK response window expired.
    AwaitResponse,
    /// Baselines: an inter-frame space (SIFS/DIFS) elapsed before the next
    /// sender-side action.
    Ifs,
    /// Baselines: the SIFS before a CTS/ACK/NAK response elapsed.
    RespIfs,
    /// Baselines: a NAV reservation expired.
    Nav,
    /// Baselines: a receiver-side session outlived the DATA it was opened
    /// for. Its own kind, not [`TimerKind::Nav`]: a kind is one timer, so
    /// two timers armed under one kind would supersede each other.
    SessionGuard,
}

impl TimerKind {
    /// How many kinds there are; `kind as usize` indexes them densely.
    pub const COUNT: usize = TimerKind::SessionGuard as usize + 1;
}

/// Everything a MAC entity may do to the outside world.
///
/// The backoff countdown sleeps through idle slots instead of polling them,
/// so an implementation owes the MAC one thing beyond the calls below:
/// **every change of the channels that the MAC has declared interest in
/// ([`MacService::tone_interest`], read after each call into the MAC) is
/// delivered — an idle→busy edge of the data channel as a `CarrierOn`, a
/// presence flip of a tone as a `ToneChanged`** — at the instant
/// [`data_busy`](MacContext::data_busy) /
/// [`tone_present`](MacContext::tone_present) start reading the new state;
/// one still on its way when the interest opens included. (The engine keeps
/// that promise with one type, `rmac_sim::Edge`: every such change claims
/// its place in the dispatch order as it is written, its event is pushed
/// then if the MAC is interested and caught up, under the same key, if the
/// interest opens while it is still ahead — DESIGN.md §4, "Claimed keys".
/// While the node itself transmits it is not counting, so no carrier edge
/// is owed for that.) A `CarrierOff` is delivered where the interest holds
/// the carrier falling ([`ToneInterest::CARRIER_FALL`]), as the frame end
/// that idles the channel is handled. A context may deliver more — the live
/// backend and the testkit deliver every carrier edge and every tone flip —
/// so a MAC must take a change outside its declared interest as a no-op;
/// one it was not told of it finds by asking `data_busy` or `tone_present`
/// when it next decides something, as the paper's node senses the carrier
/// when it has a slot to count (§3.3.1). Frame receptions and `TxDone` are
/// always delivered.
///
/// Timers: a [`TimerKind`] is one timer per node. The context arms it
/// ([`schedule`](MacContext::schedule)), superseding an armed instance, and
/// withdraws it ([`cancel_timer`](MacContext::cancel_timer)); it calls
/// [`MacService::on_timer`] for the live instance only, so the MAC keeps no
/// record of which arming is live.
pub trait MacContext {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// The node's own clock: the one [`schedule`](MacContext::schedule)
    /// delays elapse on. It differs from [`now`](MacContext::now) only
    /// under an injected clock skew; the backoff countdown measures its
    /// slots with it.
    fn local_now(&self) -> SimTime {
        self.now()
    }
    /// Arm the `kind` timer to fire `delay` from now, superseding its armed
    /// instance.
    fn schedule(&mut self, delay: SimTime, kind: TimerKind);
    /// Begin transmitting `frame` on the data channel.
    fn start_tx(&mut self, frame: Frame);
    /// Abort the in-flight transmission (RMAC §3.3.2 step 3).
    fn abort_tx(&mut self);
    /// Raise a busy tone.
    fn start_tone(&mut self, tone: Tone);
    /// Lower a busy tone.
    fn stop_tone(&mut self, tone: Tone);
    /// Instantaneous carrier sense on the data channel.
    fn data_busy(&self) -> bool;
    /// Instantaneous presence sense on a tone channel.
    fn tone_present(&self, tone: Tone) -> bool;
    /// Begin recording tone activity (λ-window detection).
    fn open_tone_watch(&mut self, tone: Tone);
    /// Stop recording and return the log.
    fn close_tone_watch(&mut self, tone: Tone) -> ToneLog;
    /// Hand a received data frame up to the network layer. Takes the
    /// shared handle from the `FrameRx` indication so the engine can
    /// retain the frame with a refcount bump instead of a deep clone.
    fn deliver(&mut self, frame: &Arc<Frame>);
    /// Report the final outcome of a transmit request.
    fn notify(&mut self, token: u64, outcome: TxOutcome);
    /// The node's current one-hop neighbor set, as known to the network
    /// layer (used to expand reliable broadcasts).
    fn neighbors(&mut self) -> Vec<NodeId>;
    /// The node's random number generator.
    fn rng(&mut self) -> &mut SimRng;
    /// The node's MAC-layer counters.
    fn counters(&mut self) -> &mut MacCounters;
    /// Cancel the `kind` timer, if it is armed.
    fn cancel_timer(&mut self, kind: TimerKind);
}

/// A MAC protocol entity for one node.
///
/// `Send` so the engine can move radio-isolated shard groups onto worker
/// threads; MAC entities are plain owned state machines.
pub trait MacService: Send {
    /// Accept an upper-layer transmit request.
    fn submit(&mut self, ctx: &mut dyn MacContext, req: TxRequest);
    /// Process a PHY indication addressed to this node.
    fn on_indication(&mut self, ctx: &mut dyn MacContext, ind: &Indication);
    /// The live instance of the `kind` timer fired.
    fn on_timer(&mut self, ctx: &mut dyn MacContext, kind: TimerKind);

    /// The channel changes — tone presence flips, the carrier rising — this
    /// MAC could act on in its present state. It is read after every call
    /// into the MAC and must cover every state in which a `ToneChanged` or a
    /// `CarrierOn` would do anything (call the context, move the state
    /// machine, draw a random number). The default is none.
    fn tone_interest(&self) -> ToneInterest {
        ToneInterest::NONE
    }

    /// Start recording state-machine transitions (see [`transitions`]).
    /// Counting is off by default so uninstrumented runs pay nothing for
    /// it; the engine calls this when observability attaches. The default
    /// — used by the baselines, which record nothing — is a no-op.
    ///
    /// [`transitions`]: MacService::transitions
    fn enable_transition_counting(&mut self) {}

    /// State-machine transition counts, if this MAC records them: the state
    /// labels plus a flattened row-major `from × to` count matrix
    /// (`labels.len()²` entries). `None` until counting is enabled and for
    /// the baselines, which report nothing.
    fn transitions(&self) -> Option<(&'static [&'static str], Vec<u64>)> {
        None
    }
}

/// Per-node MAC-layer statistics, the raw material for the paper's
/// overhead metrics (§4.3).
#[derive(Clone, Debug, Default)]
pub struct MacCounters {
    /// Reliable packets accepted for transmission (the denominator of
    /// R_retx and R_drop).
    pub reliable_accepted: u64,
    /// Unreliable frames accepted.
    pub unreliable_accepted: u64,
    /// Requests rejected because the queue was full.
    pub queue_rejections: u64,
    /// Re-attempts of a Reliable Send after the first (numerator of
    /// R_retx).
    pub retransmissions: u64,
    /// Reliable packets dropped after exhausting the retry limit for at
    /// least one receiver (numerator of R_drop).
    pub drops: u64,
    /// MRTS transmissions started.
    pub mrts_tx: u64,
    /// MRTS transmissions aborted on sensing an RBT (numerator of
    /// R_abort).
    pub mrts_aborted: u64,
    /// MRTS transmissions by receiver count (Fig. 12): entry `k` counts
    /// those addressed to `k` receivers, `MRTS_FIXED_LEN + ADDR_LEN·k`
    /// bytes each. As long as the largest `k` sent, however long the run.
    pub mrts_by_receivers: Vec<u64>,
    /// Air time spent transmitting or receiving control frames.
    pub ctrl_airtime: SimTime,
    /// Time spent checking for ABTs (n × 17 µs per data transmission).
    pub abt_check_time: SimTime,
    /// Air time spent transmitting reliable data frames (denominator of
    /// R_txoh).
    pub reliable_data_airtime: SimTime,
    /// Air time spent transmitting unreliable data frames.
    pub unreliable_data_airtime: SimTime,
    /// Data frames delivered up to the network layer.
    pub delivered_up: u64,
}

impl MacCounters {
    /// Count one MRTS addressed to `receivers` receivers.
    pub fn count_mrts(&mut self, receivers: usize) {
        if self.mrts_by_receivers.len() <= receivers {
            self.mrts_by_receivers.resize(receivers + 1, 0);
        }
        self.mrts_by_receivers[receivers] += 1;
    }

    /// The paper's packet retransmission ratio R_retx for this node.
    pub fn retx_ratio(&self) -> f64 {
        ratio(self.retransmissions, self.reliable_accepted)
    }

    /// The paper's packet drop ratio R_drop for this node.
    pub fn drop_ratio(&self) -> f64 {
        ratio(self.drops, self.reliable_accepted)
    }

    /// The paper's MRTS abortion ratio R_abort for this node.
    pub fn abort_ratio(&self) -> f64 {
        ratio(self.mrts_aborted, self.mrts_tx)
    }

    /// The paper's transmission overhead ratio R_txoh for this node:
    /// (control air time + ABT checking) / reliable data air time.
    pub fn txoh_ratio(&self) -> f64 {
        let num = (self.ctrl_airtime + self.abt_check_time).nanos() as f64;
        let den = self.reliable_data_airtime.nanos() as f64;
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let c = MacCounters::default();
        assert_eq!(c.retx_ratio(), 0.0);
        assert_eq!(c.drop_ratio(), 0.0);
        assert_eq!(c.abort_ratio(), 0.0);
        assert_eq!(c.txoh_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let c = MacCounters {
            reliable_accepted: 100,
            retransmissions: 32,
            drops: 2,
            mrts_tx: 150,
            mrts_aborted: 3,
            ctrl_airtime: SimTime::from_micros(150),
            abt_check_time: SimTime::from_micros(50),
            reliable_data_airtime: SimTime::from_micros(1000),
            ..Default::default()
        };
        assert_eq!(c.retx_ratio(), 0.32);
        assert_eq!(c.drop_ratio(), 0.02);
        assert_eq!(c.abort_ratio(), 0.02);
        assert_eq!(c.txoh_ratio(), 0.2);
    }

    #[test]
    fn mrts_counts_are_as_long_as_the_largest_receiver_count() {
        let mut c = MacCounters::default();
        for k in [3, 1, 3, 40, 3] {
            c.count_mrts(k);
        }
        assert_eq!(c.mrts_by_receivers.len(), 41);
        assert_eq!(c.mrts_by_receivers[..4], [0, 1, 0, 3]);
        assert_eq!(c.mrts_by_receivers[40], 1);
        assert_eq!(c.mrts_by_receivers.iter().sum::<u64>(), 5);
    }
}
