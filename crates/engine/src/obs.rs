//! Engine-side instrumentation: wiring `rmac-obs` into the event loop.
//!
//! Everything here is off unless [`Run::obs`](crate::Run::obs) attaches an
//! [`ObsConfig`]; the disabled cost in the event loop is the observation
//! stream's one branch per observable plus an `Option` check per timer arm
//! and fire. Enabled instrumentation never draws from any
//! RNG stream, never schedules events, and never changes a control-flow
//! decision, so an instrumented run's `RunReport` is bit-identical to an
//! uninstrumented one (enforced by `tests/obs_determinism.rs`).

use rmac_core::api::TimerKind;
use rmac_obs::{KernelProfiler, NodeObs, Sampler};
use rmac_sim::SimTime;

use crate::world::Ev;

/// Event classes the kernel profiler buckets dispatches into.
pub const EVENT_CLASS_LABELS: [&str; 8] = [
    "phy.frame_start",
    "phy.frame_end",
    "phy.tx_complete",
    "phy.tone_edge",
    "mac_timer",
    "beacon",
    "source",
    "fault",
];

/// The profiler class of an engine event.
#[inline]
pub fn class_of(ev: &Ev) -> usize {
    use rmac_phy::PhyEvent;
    match ev {
        Ev::Phy(PhyEvent::FrameArriveStart { .. }) => 0,
        Ev::Phy(PhyEvent::FrameArriveEnd { .. }) => 1,
        Ev::Phy(PhyEvent::TxComplete { .. }) => 2,
        Ev::Phy(PhyEvent::ToneEdge { .. }) => 3,
        Ev::MacTimer { .. } => 4,
        Ev::Beacon { .. } => 5,
        Ev::Source => 6,
        Ev::Fault(_) => 7,
    }
}

/// Labels for the per-node timer-kind indices, matching [`timer_idx`].
///
/// `backoff_slot` (index 0, pinned by `benchmark/`) counts the backoff
/// countdown's timers as dispatched: hops, looks (at the expiry and at the
/// boundary after a busy edge), and generation-stale sleeps a busy edge or
/// a pause cut short (those are also in `NodeObs::timer_cancelled`). It is
/// not a count of 20 µs slots.
pub const TIMER_LABELS: [&str; 11] = [
    "backoff_slot",
    "wf_rbt",
    "wf_rdata",
    "wf_abt",
    "abt_start",
    "abt_stop",
    "await_resp",
    "ifs",
    "resp_ifs",
    "nav",
    "session_guard",
];

/// Dense index of a [`TimerKind`].
#[inline]
pub fn timer_idx(kind: TimerKind) -> usize {
    match kind {
        TimerKind::BackoffSlot => 0,
        TimerKind::WfRbt => 1,
        TimerKind::WfRdata => 2,
        TimerKind::WfAbt => 3,
        TimerKind::AbtStart => 4,
        TimerKind::AbtStop => 5,
        TimerKind::AwaitResponse => 6,
        TimerKind::Ifs => 7,
        TimerKind::RespIfs => 8,
        TimerKind::Nav => 9,
        TimerKind::SessionGuard => 10,
    }
}

/// What to instrument. The default enables the cheap counting paths only;
/// [`ObsConfig::full`] adds the snapshot sampler and wall-clock kernel
/// timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsConfig {
    /// Record a [`rmac_obs::Snapshot`] every this much sim time (plus one
    /// final snapshot at end of run). `None` disables the sampler.
    pub snapshot_period: Option<SimTime>,
    /// Take wall-clock readings around every dispatch. Wall times never
    /// feed back into the simulation, but they make the profile
    /// machine-dependent, so they are opt-in.
    pub kernel_wall: bool,
}

impl ObsConfig {
    /// Everything on: sampler at `snapshot_period`, wall-clock timing.
    pub fn full(snapshot_period: SimTime) -> ObsConfig {
        ObsConfig {
            snapshot_period: Some(snapshot_period),
            kernel_wall: true,
        }
    }
}

/// Live instrumentation state, boxed into the world core when attached.
pub(crate) struct EngineObs {
    pub(crate) kernel: KernelProfiler,
    pub(crate) nodes: Vec<NodeObs>,
    pub(crate) sampler: Option<Sampler>,
}

impl EngineObs {
    pub(crate) fn new(cfg: ObsConfig, nodes: usize) -> EngineObs {
        EngineObs {
            kernel: KernelProfiler::new(&EVENT_CLASS_LABELS, cfg.kernel_wall),
            nodes: (0..nodes)
                .map(|_| NodeObs::new(TIMER_LABELS.len()))
                .collect(),
            sampler: cfg.snapshot_period.map(|p| Sampler::new(p.nanos())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::FaultEv;
    use rmac_phy::PhyEvent;
    use rmac_wire::NodeId;

    #[test]
    fn frame_kind_tables_agree_across_crates() {
        // metrics carries its own copy so it stays wire-agnostic; phy and
        // obs use wire's. The engine is where the two meet.
        assert_eq!(rmac_metrics::FRAME_KINDS, rmac_wire::FrameKind::COUNT);
        assert_eq!(
            rmac_metrics::FRAME_KIND_LABELS,
            rmac_wire::FrameKind::LABELS
        );
    }

    #[test]
    fn every_event_maps_to_a_labelled_class() {
        let evs = [
            Ev::Phy(PhyEvent::FrameArriveStart {
                rx: NodeId(0),
                tx: 0,
            }),
            Ev::Phy(PhyEvent::TxComplete {
                node: NodeId(0),
                tx: 0,
            }),
            Ev::MacTimer {
                node: NodeId(0),
                kind: TimerKind::WfRbt,
                gen: 0,
                epoch: 0,
            },
            Ev::Beacon {
                node: NodeId(0),
                fire: 0,
            },
            Ev::Source,
            Ev::Fault(FaultEv::NodeDown { node: NodeId(0) }),
        ];
        for ev in evs {
            assert!(class_of(&ev) < EVENT_CLASS_LABELS.len());
        }
    }

    #[test]
    fn timer_indices_cover_every_kind() {
        use TimerKind::*;
        let kinds = [
            BackoffSlot,
            WfRbt,
            WfRdata,
            WfAbt,
            AbtStart,
            AbtStop,
            AwaitResponse,
            Ifs,
            RespIfs,
            Nav,
            SessionGuard,
        ];
        let mut seen = [false; TIMER_LABELS.len()];
        for k in kinds {
            seen[timer_idx(k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every label index must be hit");
    }
}
