//! Per-node protocol observability.
//!
//! One [`NodeObs`] per protocol node accumulates what the engine can see
//! at the MAC boundary: per-[`FrameKind`] tx/rx/corrupt tallies, timer
//! arm/fire/cancelled/stale counts per logical timer kind, busy-tone occupancy time,
//! and (for MACs that expose one) the state-machine transition matrix —
//! the observed edges of the paper's Table 1.

use rmac_wire::{json, FrameKind};

/// Number of tone channels observed (RBT, ABT).
pub const TONES: usize = 2;

/// Labels for the tone indices.
pub const TONE_LABELS: [&str; TONES] = ["RBT", "ABT"];

/// Per-node protocol counters. All fields are cumulative over one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeObs {
    /// Completed transmissions by frame kind (aborted ones included).
    pub tx: [u64; FrameKind::COUNT],
    /// Transmissions aborted mid-air (RMAC's RBT rule).
    pub tx_aborted: u64,
    /// Clean receptions by frame kind.
    pub rx_ok: [u64; FrameKind::COUNT],
    /// Corrupted receptions by frame kind.
    pub rx_corrupt: [u64; FrameKind::COUNT],
    /// Upper-layer transmit requests handed to this node's MAC.
    pub submitted: u64,
    /// Data frames the MAC delivered up to the network layer.
    pub delivered: u64,
    /// Timer arms by timer-kind index (labels supplied by the embedder).
    pub timer_arm: Vec<u64>,
    /// Timer firings dispatched to a live MAC incarnation.
    pub timer_fire: Vec<u64>,
    /// Of those, the ones the MAC reported dropping as generation-stale
    /// (cancelled or re-armed since). Only the backoff countdown reports:
    /// its entry counts the sleeps cut short by a busy edge or a pause.
    pub timer_cancelled: Vec<u64>,
    /// Timer firings dropped as stale (crashed node or old epoch).
    pub timer_stale: Vec<u64>,
    /// Cumulative busy-tone presence at the node's antenna per tone
    /// channel (ns), read from the channel's tone records at end of run:
    /// attaching obs is what makes the channel keep it.
    pub tone_busy_ns: [u64; TONES],
    /// Row-major `n × n` state transition counts, if the MAC exposed them.
    pub transitions: Vec<u64>,
}

impl NodeObs {
    /// A node record tracking `timer_kinds` logical timer kinds.
    pub fn new(timer_kinds: usize) -> NodeObs {
        NodeObs {
            timer_arm: vec![0; timer_kinds],
            timer_fire: vec![0; timer_kinds],
            timer_cancelled: vec![0; timer_kinds],
            timer_stale: vec![0; timer_kinds],
            ..NodeObs::default()
        }
    }

    /// Total completed transmissions across all frame kinds.
    pub fn tx_total(&self) -> u64 {
        self.tx.iter().sum()
    }

    /// Total clean receptions.
    pub fn rx_ok_total(&self) -> u64 {
        self.rx_ok.iter().sum()
    }

    /// Total corrupted receptions.
    pub fn rx_corrupt_total(&self) -> u64 {
        self.rx_corrupt.iter().sum()
    }

    /// Total timer arms across kinds.
    pub fn timer_arm_total(&self) -> u64 {
        self.timer_arm.iter().sum()
    }

    /// Total live timer firings.
    pub fn timer_fire_total(&self) -> u64 {
        self.timer_fire.iter().sum()
    }

    /// Total firings the MAC reported as generation-stale.
    pub fn timer_cancelled_total(&self) -> u64 {
        self.timer_cancelled.iter().sum()
    }

    /// Total stale timer firings dropped.
    pub fn timer_stale_total(&self) -> u64 {
        self.timer_stale.iter().sum()
    }

    /// This node's members, written into an object (arrays indexed like
    /// the label tables).
    pub fn write_json(&self, o: &mut json::Obj<'_>) {
        o.u64s("tx", &self.tx)
            .u64("tx_aborted", self.tx_aborted)
            .u64s("rx_ok", &self.rx_ok)
            .u64s("rx_corrupt", &self.rx_corrupt)
            .u64("submitted", self.submitted)
            .u64("delivered", self.delivered)
            .u64s("timer_arm", &self.timer_arm)
            .u64s("timer_fire", &self.timer_fire)
            .u64s("timer_cancelled", &self.timer_cancelled)
            .u64s("timer_stale", &self.timer_stale)
            .u64s("tone_busy_ns", &self.tone_busy_ns)
            .u64s("transitions", &self.transitions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_kinds() {
        let mut n = NodeObs::new(2);
        n.tx[0] = 3;
        n.tx[7] = 2;
        n.rx_ok[1] = 5;
        n.rx_corrupt[1] = 1;
        n.timer_arm[0] = 4;
        n.timer_fire[1] = 2;
        assert_eq!(n.tx_total(), 5);
        assert_eq!(n.rx_ok_total(), 5);
        assert_eq!(n.rx_corrupt_total(), 1);
        assert_eq!(n.timer_arm_total(), 4);
        assert_eq!(n.timer_fire_total(), 2);
        assert_eq!(n.timer_stale_total(), 0);
    }

    #[test]
    fn json_has_every_field() {
        let n = NodeObs::new(2);
        let j = json::object(|o| n.write_json(o));
        for key in [
            "tx",
            "tx_aborted",
            "rx_ok",
            "rx_corrupt",
            "submitted",
            "delivered",
            "timer_arm",
            "timer_fire",
            "timer_cancelled",
            "timer_stale",
            "tone_busy_ns",
            "transitions",
        ] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }
}
