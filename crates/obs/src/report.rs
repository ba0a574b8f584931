//! The assembled observability report for one run.
//!
//! An [`ObsReport`] is everything the instrumentation layer collected:
//! the kernel self-profile, the end-of-run scalars, the per-node protocol
//! counters, and the sampled time series. It is data plus one JSON
//! document written next to the run's other artifacts; the `obs_report`
//! bin prints it as `rmac_metrics::Table`s.

use rmac_wire::{json, FrameKind};

use crate::kernel::KernelProfiler;
use crate::node::NodeObs;
use crate::snapshot::Snapshot;

/// Everything one instrumented run collected.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// End-of-run totals `(name, value)`, in the order the engine lists
    /// them (queue traffic, PHY pool and grid, fault plane). A campaign
    /// store keeps every one with each obs-on case, so adding a counter
    /// changes the store format; a diagnostic no store should keep is a
    /// gauge.
    pub counters: Vec<(&'static str, u64)>,
    /// End-of-run levels and engine diagnostics `(name, value)`, which no
    /// store keeps: queue high water and capacity, and the frame handles
    /// the engine cloned for `FrameRx`.
    pub gauges: Vec<(&'static str, u64)>,
    /// Event-loop self-profile.
    pub kernel: KernelProfiler,
    /// Labels for the per-node timer-kind indices.
    pub timer_labels: &'static [&'static str],
    /// Labels for the state-transition matrices (empty when no MAC
    /// exposed transitions).
    pub transition_labels: Vec<&'static str>,
    /// Per-node protocol counters, indexed by node id.
    pub nodes: Vec<NodeObs>,
    /// The sampled time series.
    pub snapshots: Vec<Snapshot>,
}

impl ObsReport {
    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        let scalars = |o: &mut json::Obj<'_>, items: &[(&str, u64)]| {
            for &(name, v) in items {
                o.u64(name, v);
            }
        };
        json::document(|o| {
            o.obj("registry", |o| {
                o.obj("counters", |o| scalars(o, &self.counters))
                    .obj("gauges", |o| scalars(o, &self.gauges));
            })
            .obj("kernel", |o| self.kernel.write_json(o))
            .strs("frame_kind_labels", FrameKind::LABELS)
            .strs("timer_labels", self.timer_labels.iter().copied())
            .strs("transition_labels", self.transition_labels.iter().copied())
            .objs("nodes", &self.nodes, |o, n| n.write_json(o))
            .objs("snapshots", &self.snapshots, |o, s| s.write_json(o));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMERS: [&str; 2] = ["backoff", "wf_rbt"];
    const STATES: [&str; 2] = ["Idle", "Busy"];

    fn sample_report() -> ObsReport {
        let mut nodes = vec![NodeObs::new(TIMERS.len()), NodeObs::new(TIMERS.len())];
        nodes[0].tx[0] = 3;
        nodes[0].transitions = vec![0, 2, 1, 0];
        nodes[1].rx_ok[0] = 3;
        nodes[1].tone_busy_ns[0] = 2_000_000;
        nodes[1].transitions = vec![0, 1, 1, 0];
        ObsReport {
            counters: vec![("engine.events_popped", 41)],
            gauges: vec![("queue.capacity", 4096)],
            kernel: KernelProfiler::new(&["phy"], false),
            timer_labels: &TIMERS,
            transition_labels: STATES.to_vec(),
            nodes,
            snapshots: vec![Snapshot::default()],
        }
    }

    #[test]
    fn json_is_parseable_per_section() {
        let j = sample_report().to_json();
        assert!(j.contains(
            "\"registry\": {\"counters\":{\"engine.events_popped\":41},\
             \"gauges\":{\"queue.capacity\":4096}},"
        ));
        assert!(j.contains("\"nodes\""));
        assert!(j.contains("\"snapshots\""));
        assert!(j.contains("\"transition_labels\": [\"Idle\",\"Busy\"]"));
    }
}
