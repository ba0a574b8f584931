//! Engine-side instrumentation: wiring `rmac-obs` and the readers into the event loop.
//!
//! Everything here is off unless [`Run::obs`](crate::Run::obs) attaches an
//! [`ObsConfig`]; the disabled cost in the event loop is the observation
//! stream's one branch per observable plus a look at the empty reader list
//! per timer arm and fire. Enabled instrumentation never draws from any
//! RNG stream, never schedules events, and never changes a control-flow
//! decision, so an instrumented run's `RunReport` is bit-identical to an
//! uninstrumented one (enforced by `tests/obs_determinism.rs`).

use std::sync::Arc;

use rmac_check::Checker;
use rmac_core::api::TimerKind;
use rmac_obs::{KernelProfiler, NodeObs, Sampler};
use rmac_phy::trace::{Reader, Sensing, TraceEvent, TraceWhat};
use rmac_sim::SimTime;
use rmac_wire::Frame;

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

/// Labels of the timer kinds, each at its [`TimerKind`]'s index
/// (`kind as usize`).
///
/// `backoff_slot` (index 0, pinned by `benchmark/`) counts the backoff
/// countdown's timers: hops and looks (at the expiry and at the boundary
/// after a busy edge); a sleep a busy edge or a pause cut short is in
/// `NodeObs::timer_cancelled`. It is not a count of 20 µs slots.
pub const TIMER_LABELS: [&str; TimerKind::COUNT] = [
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

/// Live instrumentation state, kept among the run's readers when attached.
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

/// A reader attached to a run, as its runner keeps it: fed every event, then
/// closed out into its own report, if it has one (a tracer has none).
pub(crate) enum Attached {
    Obs(Box<EngineObs>),
    Check(Box<Checker>),
    Other(Box<dyn Reader + Send>),
}

impl Reader for Attached {
    fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, sensed: &mut Sensing<'_>) {
        match self {
            Attached::Obs(obs) => obs.on_event(ev, sensed),
            Attached::Check(check) => check.on_event(ev, sensed),
            Attached::Other(reader) => reader.on_event(ev, sensed),
        }
    }
}

/// The per-node frame and delivery tallies, a fold of the stream. Tone
/// occupancy is read from the channel's records at the end of the run
/// instead: which flips are reported depends on the MACs.
impl Reader for EngineObs {
    fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, _: &mut Sensing<'_>) {
        let (nodes, idx) = (&mut self.nodes, ev.node.idx());
        match &ev.what {
            TraceWhat::TxDone { frame, aborted } => {
                nodes[idx].tx[frame.kind.index()] += 1;
                nodes[idx].tx_aborted += u64::from(*aborted);
            }
            TraceWhat::Rx { frame, ok: true } => nodes[idx].rx_ok[frame.kind.index()] += 1,
            TraceWhat::Rx { frame, ok: false } => nodes[idx].rx_corrupt[frame.kind.index()] += 1,
            TraceWhat::Submit { .. } => nodes[idx].submitted += 1,
            TraceWhat::Deliver { .. } => nodes[idx].delivered += 1,
            _ => {}
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
        assert_eq!(kinds.len(), TIMER_LABELS.len(), "a label per kind");
        let mut seen = [false; TIMER_LABELS.len()];
        for k in kinds {
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every label index must be hit");
        // The order `benchmark/` pins.
        assert_eq!(TIMER_LABELS[BackoffSlot as usize], "backoff_slot");
        assert_eq!(TIMER_LABELS[Nav as usize], "nav");
    }
}
