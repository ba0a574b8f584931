//! Per-replication result records.

/// Number of distinct MAC frame kinds (wire discriminants 1..=9). Kept in
/// sync with `rmac_wire::FrameKind::{COUNT, LABELS}` by the engine's unit
/// tests; metrics stays wire-agnostic.
pub const FRAME_KINDS: usize = 9;

/// Frame-kind labels indexed like the per-kind arrays in [`RunReport`]
/// (the `Debug` names of `rmac_wire::FrameKind`).
pub const FRAME_KIND_LABELS: [&str; FRAME_KINDS] = [
    "Mrts",
    "Rts",
    "Cts",
    "Rak",
    "Ack",
    "Ncts",
    "Nak",
    "DataReliable",
    "DataUnreliable",
];

/// Everything one simulation replication reports — the raw material for
/// every figure in the paper's §4.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Protocol label ("RMAC", "BMMM", …).
    pub protocol: String,
    /// Scenario label ("stationary", "speed1", "speed2").
    pub scenario: String,
    /// Source transmission rate (packets per second).
    pub rate_pps: f64,
    /// Replication seed.
    pub seed: u64,
    /// Application packets generated at the source.
    pub packets_sent: u64,
    /// `packets_sent × (nodes − 1)`: what full reliability would deliver.
    pub expected_receptions: u64,
    /// Unique application-level packet receptions across all nodes.
    pub receptions: u64,
    /// Nodes that forwarded at least one reliable packet.
    pub nonleaf_nodes: u64,
    /// Mean per-node packet drop ratio over non-leaf nodes (Fig. 8).
    pub drop_ratio_avg: f64,
    /// Mean per-node retransmission ratio over non-leaf nodes (Fig. 10).
    pub retx_ratio_avg: f64,
    /// Mean per-node transmission overhead ratio over non-leaf nodes
    /// (Fig. 11).
    pub txoh_ratio_avg: f64,
    /// MRTS abortion ratio over non-leaf nodes: mean / 99p / max (Fig. 13).
    pub abort_avg: f64,
    /// 99th percentile of the per-node abortion ratios.
    pub abort_p99: f64,
    /// Maximum per-node abortion ratio.
    pub abort_max: f64,
    /// MRTS lengths in bytes: mean / 99p / max over all MRTSs (Fig. 12).
    pub mrts_len_avg: f64,
    /// 99th percentile MRTS length.
    pub mrts_len_p99: f64,
    /// Maximum MRTS length.
    pub mrts_len_max: f64,
    /// Mean end-to-end delay over all deliveries, in seconds (Fig. 9).
    pub e2e_delay_avg_s: f64,
    /// Number of delay samples behind the mean.
    pub delay_samples: u64,
    /// Tree statistics at end of run: hops to root, mean / 99p (§4.1.1).
    pub hops_avg: f64,
    /// 99th percentile hops to root.
    pub hops_p99: f64,
    /// Mean children per non-leaf node.
    pub children_avg: f64,
    /// 99th percentile children count.
    pub children_p99: f64,
    /// Simulation events processed (queue-level diagnostic; see the
    /// per-kind frame counters below for MAC-level throughput).
    pub events: u64,
    /// Completed frame transmissions by kind, indexed by
    /// [`FRAME_KIND_LABELS`] (aborted ones included).
    pub tx_frames: [u64; FRAME_KINDS],
    /// Transmissions aborted mid-air (RMAC's RBT rule).
    pub tx_aborted: u64,
    /// Clean frame receptions by kind.
    pub rx_frames_ok: [u64; FRAME_KINDS],
    /// Corrupted frame receptions by kind.
    pub rx_frames_corrupt: [u64; FRAME_KINDS],
    /// Simulated duration in seconds: the timestamp of the last event
    /// dispatched before the scenario's end time. Like `events` it
    /// describes the event population, not the protocol.
    pub sim_secs: f64,
    /// Frames corrupted by the fault plane (0 without an injector).
    pub faults_injected: u64,
    /// Node crash events executed by the fault plane.
    pub fault_crashes: u64,
    /// Jamming bursts emitted by the fault plane.
    pub fault_jam_bursts: u64,
}

impl RunReport {
    /// The paper's packet delivery ratio R_deliv (Fig. 7).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected_receptions == 0 {
            0.0
        } else {
            self.receptions as f64 / self.expected_receptions as f64
        }
    }

    /// Average several replications into one point (the paper averages ten
    /// random placements per data point). Max fields take the max across
    /// replications; percentile fields are averaged.
    pub fn average(reports: &[RunReport]) -> RunReport {
        assert!(!reports.is_empty(), "average of zero reports");
        let n = reports.len() as f64;
        let mean = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let maxf =
            |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        let sum_u = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
        let sum_arr = |f: &dyn Fn(&RunReport) -> &[u64; FRAME_KINDS]| {
            let mut out = [0u64; FRAME_KINDS];
            for r in reports {
                for (o, v) in out.iter_mut().zip(f(r).iter()) {
                    *o += v;
                }
            }
            out
        };
        RunReport {
            protocol: reports[0].protocol.clone(),
            scenario: reports[0].scenario.clone(),
            rate_pps: reports[0].rate_pps,
            seed: 0,
            packets_sent: sum_u(&|r| r.packets_sent),
            expected_receptions: sum_u(&|r| r.expected_receptions),
            receptions: sum_u(&|r| r.receptions),
            nonleaf_nodes: sum_u(&|r| r.nonleaf_nodes),
            drop_ratio_avg: mean(&|r| r.drop_ratio_avg),
            retx_ratio_avg: mean(&|r| r.retx_ratio_avg),
            txoh_ratio_avg: mean(&|r| r.txoh_ratio_avg),
            abort_avg: mean(&|r| r.abort_avg),
            abort_p99: mean(&|r| r.abort_p99),
            abort_max: maxf(&|r| r.abort_max),
            mrts_len_avg: mean(&|r| r.mrts_len_avg),
            mrts_len_p99: mean(&|r| r.mrts_len_p99),
            mrts_len_max: maxf(&|r| r.mrts_len_max),
            e2e_delay_avg_s: mean(&|r| r.e2e_delay_avg_s),
            delay_samples: sum_u(&|r| r.delay_samples),
            hops_avg: mean(&|r| r.hops_avg),
            hops_p99: mean(&|r| r.hops_p99),
            children_avg: mean(&|r| r.children_avg),
            children_p99: mean(&|r| r.children_p99),
            events: sum_u(&|r| r.events),
            tx_frames: sum_arr(&|r| &r.tx_frames),
            tx_aborted: sum_u(&|r| r.tx_aborted),
            rx_frames_ok: sum_arr(&|r| &r.rx_frames_ok),
            rx_frames_corrupt: sum_arr(&|r| &r.rx_frames_corrupt),
            sim_secs: mean(&|r| r.sim_secs),
            faults_injected: sum_u(&|r| r.faults_injected),
            fault_crashes: sum_u(&|r| r.fault_crashes),
            fault_jam_bursts: sum_u(&|r| r.fault_jam_bursts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(receptions: u64, expected: u64, drop: f64) -> RunReport {
        RunReport {
            protocol: "RMAC".into(),
            scenario: "stationary".into(),
            rate_pps: 10.0,
            receptions,
            expected_receptions: expected,
            drop_ratio_avg: drop,
            abort_max: drop * 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn delivery_ratio_guards_zero() {
        assert_eq!(RunReport::default().delivery_ratio(), 0.0);
        assert_eq!(report(74, 74, 0.0).delivery_ratio(), 1.0);
        assert!((report(37, 74, 0.0).delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn average_pools_counts_and_means_ratios() {
        let a = report(70, 74, 0.1);
        let b = report(74, 74, 0.3);
        let avg = RunReport::average(&[a, b]);
        assert_eq!(avg.receptions, 144);
        assert_eq!(avg.expected_receptions, 148);
        assert!((avg.drop_ratio_avg - 0.2).abs() < 1e-12);
        assert!((avg.abort_max - 0.6).abs() < 1e-12, "max takes the max");
        assert!((avg.delivery_ratio() - 144.0 / 148.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "average of zero")]
    fn average_of_none_panics() {
        RunReport::average(&[]);
    }

    #[test]
    fn average_sums_frame_kind_arrays() {
        let mut a = report(70, 74, 0.0);
        let mut b = report(74, 74, 0.0);
        a.tx_frames[0] = 5;
        b.tx_frames[0] = 7;
        a.rx_frames_corrupt[8] = 2;
        b.tx_aborted = 3;
        let avg = RunReport::average(&[a, b]);
        assert_eq!(avg.tx_frames[0], 12);
        assert_eq!(avg.rx_frames_corrupt[8], 2);
        assert_eq!(avg.tx_aborted, 3);
        assert_eq!(avg.tx_frames[1..].iter().sum::<u64>(), 0);
    }
}
