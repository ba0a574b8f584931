//! The assembled observability report for one run.
//!
//! An [`ObsReport`] is everything the instrumentation layer collected:
//! the kernel self-profile, the end-of-run scalars, the per-node protocol
//! counters, and the sampled time series. It renders to aligned ASCII
//! tables (the `obs_report` bin) and exports to a single JSON document
//! next to the run's other artifacts.

use std::fmt::Write as _;

use rmac_wire::{json, FrameKind};

use crate::kernel::KernelProfiler;
use crate::node::{NodeObs, TONES, TONE_LABELS};
use crate::snapshot::Snapshot;

/// Everything one instrumented run collected.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// End-of-run totals `(name, value)`, in the order the engine lists
    /// them (queue traffic, PHY pool and grid, fault plane). A campaign
    /// store keeps them with each case.
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

    /// Kernel self-profile plus the scalars, as aligned text.
    pub fn render_kernel(&self) -> String {
        let mut out = format!(
            "## Event-loop profile (wall clock {})\n{}\n## Kernel counters\n",
            if self.kernel.wall_enabled() {
                "on"
            } else {
                "off"
            },
            self.kernel.render(),
        );
        let scalars = || self.counters.iter().chain(&self.gauges);
        let width = scalars().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (n, v) in scalars() {
            let _ = writeln!(out, "{n:<width$}  {v}");
        }
        out
    }

    /// Per-node counter table. Nodes with no activity at all are skipped.
    pub fn render_nodes(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Per-node protocol counters");
        let _ = writeln!(
            out,
            "{:>4}  {:>6} {:>5}  {:>6} {:>6}  {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}  {:>8} {:>8}",
            "node",
            "tx",
            "abort",
            "rx_ok",
            "rx_bad",
            "submit",
            "deliv",
            "t_arm",
            "t_fire",
            "cancel",
            "stale",
            "rbt_ms",
            "abt_ms"
        );
        for (i, n) in self.nodes.iter().enumerate() {
            if n.tx_total() == 0 && n.rx_ok_total() == 0 && n.rx_corrupt_total() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>4}  {:>6} {:>5}  {:>6} {:>6}  {:>6} {:>6}  {:>6} {:>6} {:>6} {:>6}  {:>8.2} {:>8.2}",
                i,
                n.tx_total(),
                n.tx_aborted,
                n.rx_ok_total(),
                n.rx_corrupt_total(),
                n.submitted,
                n.delivered,
                n.timer_arm_total(),
                n.timer_fire_total(),
                n.timer_cancelled_total(),
                n.timer_stale_total(),
                n.tone_busy_ns[0] as f64 / 1e6,
                n.tone_busy_ns[1] as f64 / 1e6,
            );
        }
        out
    }

    /// Fleet-wide per-frame-kind totals.
    pub fn render_frame_kinds(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Frame kinds (all nodes)");
        let _ = writeln!(
            out,
            "{:<14}  {:>9}  {:>9}  {:>9}",
            "kind", "tx", "rx_ok", "rx_corrupt"
        );
        for (k, label) in FrameKind::LABELS.iter().enumerate() {
            let tx: u64 = self.nodes.iter().map(|n| n.tx[k]).sum();
            let ok: u64 = self.nodes.iter().map(|n| n.rx_ok[k]).sum();
            let bad: u64 = self.nodes.iter().map(|n| n.rx_corrupt[k]).sum();
            if tx == 0 && ok == 0 && bad == 0 {
                continue;
            }
            let _ = writeln!(out, "{label:<14}  {tx:>9}  {ok:>9}  {bad:>9}");
        }
        out
    }

    /// Aggregate state-transition matrix over all nodes (the observed
    /// Table 1 edges), or a note when no MAC exposed transitions.
    pub fn render_transitions(&self) -> String {
        let n = self.transition_labels.len();
        if n == 0 {
            return "## State transitions: none exposed by this protocol\n".to_string();
        }
        let mut agg = vec![0u64; n * n];
        for node in &self.nodes {
            if node.transitions.len() == agg.len() {
                for (a, b) in agg.iter_mut().zip(node.transitions.iter()) {
                    *a += b;
                }
            }
        }
        let width = self
            .transition_labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        let _ = writeln!(out, "## State transitions (all nodes, from ↓ to →)");
        let _ = write!(out, "{:<width$}", "");
        for l in &self.transition_labels {
            let _ = write!(out, "  {l:>width$}");
        }
        let _ = writeln!(out);
        for (from, l) in self.transition_labels.iter().enumerate() {
            let row = &agg[from * n..(from + 1) * n];
            if row.iter().all(|&c| c == 0) {
                continue;
            }
            let _ = write!(out, "{l:<width$}");
            for &c in row {
                if c == 0 {
                    let _ = write!(out, "  {:>width$}", ".");
                } else {
                    let _ = write!(out, "  {c:>width$}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The sampled time series as an aligned table.
    pub fn render_snapshots(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Time series ({} samples)", self.snapshots.len());
        let _ = writeln!(
            out,
            "{:>10}  {:>10} {:>8} {:>8}  {:>8} {:>8} {:>7}  {:>9}",
            "t_ms", "events", "q_len", "q_hiwat", "tx", "rx_ok", "rx_bad", "received"
        );
        for s in &self.snapshots {
            let _ = writeln!(
                out,
                "{:>10.1}  {:>10} {:>8} {:>8}  {:>8} {:>8} {:>7}  {:>9}",
                s.t_ns as f64 / 1e6,
                s.events,
                s.queue_len,
                s.queue_high_water,
                s.tx_frames,
                s.rx_ok,
                s.rx_corrupt,
                s.receptions,
            );
        }
        out
    }

    /// Fleet-wide tone occupancy totals (ms per tone channel).
    pub fn tone_totals_ms(&self) -> [f64; TONES] {
        let mut out = [0.0; TONES];
        for (t, slot) in out.iter_mut().enumerate() {
            *slot = self
                .nodes
                .iter()
                .map(|n| n.tone_busy_ns[t] as f64 / 1e6)
                .sum();
        }
        out
    }

    /// Everything, concatenated (the `obs_report` default output).
    pub fn render(&self) -> String {
        let tones = self.tone_totals_ms();
        let mut out = String::new();
        let _ = write!(out, "{}", self.render_kernel());
        let _ = writeln!(out);
        let _ = write!(out, "{}", self.render_frame_kinds());
        let _ = writeln!(out);
        let _ = write!(out, "{}", self.render_transitions());
        let _ = writeln!(out);
        let _ = write!(out, "{}", self.render_nodes());
        let _ = writeln!(out);
        for (t, label) in TONE_LABELS.iter().enumerate() {
            let _ = writeln!(out, "total sensed {label} occupancy: {:.2} ms", tones[t]);
        }
        let _ = writeln!(out);
        let _ = write!(out, "{}", self.render_snapshots());
        out
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
    fn render_includes_every_section() {
        let s = sample_report().render();
        assert!(s.contains("Event-loop profile"));
        assert!(s.contains("engine.events_popped  41\nqueue.capacity        4096\n"));
        assert!(s.contains("Frame kinds"));
        assert!(s.contains("State transitions"));
        assert!(s.contains("Per-node protocol counters"));
        assert!(s.contains("Time series"));
    }

    #[test]
    fn transitions_aggregate_across_nodes() {
        let s = sample_report().render_transitions();
        // 2 + 1 Idle→Busy transitions.
        assert!(s.contains('3'), "{s}");
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

    #[test]
    fn tone_totals_convert_to_ms() {
        let t = sample_report().tone_totals_ms();
        assert!((t[0] - 2.0).abs() < 1e-9);
        assert_eq!(t[1], 0.0);
    }
}
