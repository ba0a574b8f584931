//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` declares
//! the same sets; a unit test and `benchmark/ci.sh` hold the two together.
//!
//! Host time or simulated time is part of each definition: `wall_s`,
//! `cpu_s`, `setup_s`, `pkts_per_wall_s` and `peak_rss_mb` are host;
//! `delivery_ratio` and `delay_avg_ms` are simulated (virtual for the live
//! soak) and deterministic for a seed. Every host *time* (and rate) is at
//! reference speed: scaled by how fast the reference kernel ran around the
//! measured call (see [`crate::reference`]). `bench.ref_s` is the one
//! raw host time, and turns the others back into raw seconds.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Deterministic for a seed: two runs of one commit must agree exactly.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    host("wall_s", "s", Lower),
    host("cpu_s", "s", Lower),
    host("peak_rss_mb", "MB", Lower),
    host("setup_s", "s", Lower),
    host("pkts_per_wall_s", "1/s", Higher),
    exact("delivery_ratio", "ratio", Higher),
    exact("delay_avg_ms", "ms", Lower),
];

/// Single layers, named `<crate>.<module>.<what>`. A layer a workload does
/// not drive reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // A. From the traced run and the reports.
    exact("engine.world.events", "count", Lower),
    host("engine.world.ns_per_event", "ns", Lower),
    exact("phy.channel.frame_start.count", "count", Lower),
    host("phy.channel.frame_start.busy_s", "s", Lower),
    exact("phy.channel.frame_end.count", "count", Lower),
    host("phy.channel.frame_end.busy_s", "s", Lower),
    exact("phy.channel.tx_complete.count", "count", Lower),
    host("phy.channel.tx_complete.busy_s", "s", Lower),
    exact("phy.tone.edge.count", "count", Lower),
    host("phy.tone.edge.busy_s", "s", Lower),
    exact("core.timer.count", "count", Lower),
    host("core.timer.busy_s", "s", Lower),
    exact("core.timer.backoff_slot.count", "count", Lower),
    exact("core.timer.stale.count", "count", Lower),
    exact("baselines.timer.count", "count", Lower),
    host("baselines.timer.busy_s", "s", Lower),
    exact("net.bless.beacon.count", "count", Lower),
    host("net.bless.beacon.busy_s", "s", Lower),
    exact("net.app.source.count", "count", Lower),
    host("net.app.source.busy_s", "s", Lower),
    exact("faults.event.count", "count", Lower),
    host("faults.event.busy_s", "s", Lower),
    host("engine.loop.residual_s", "s", Lower),
    host("obs.trace_overhead_frac", "ratio", Lower),
    host("check.overhead_frac", "ratio", Lower),
    exact("core.rmac.retx_ratio", "ratio", Lower),
    exact("core.rmac.drop_ratio", "ratio", Lower),
    exact("core.rmac.mrts_abort_avg", "ratio", Lower),
    exact("core.rmac.txoh_ratio", "ratio", Lower),
    exact("phy.channel.tx_frames", "count", Lower),
    exact("phy.channel.tx_aborted", "count", Lower),
    exact("phy.channel.rx_corrupt_frac", "ratio", Lower),
    exact("metrics.report.fingerprint", "hash48", Lower),
    host("engine.shard.speedup_vs_serial", "ratio", Higher),
    host("engine.shard.cpu_over_wall", "ratio", Higher),
    exact("engine.shard.groups", "count", Higher),
    exact("sim.shard.cross_pushes", "count", Lower),
    exact("live.node.steps", "count", Lower),
    host("live.node.ns_per_step", "ns", Lower),
    exact("live.node.retx_per_pkt", "ratio", Lower),
    exact("live.node.dup_per_delivery", "ratio", Lower),
    exact("live.soak.app_resends", "count", Lower),
    exact("live.hub.data_corrupt_frac", "ratio", Lower),
    host("campaign.pool.cases_per_s", "1/s", Higher),
    host("campaign.pool.parallel_eff", "ratio", Higher),
    exact("campaign.store.bytes_per_case", "B", Lower),
    host("campaign.runner.resume_s", "s", Lower),
    host("campaign.query.summarize_s", "s", Lower),
    host("engine.runner.new_s", "s", Lower),
    host("bench.timer_ns", "ns", Lower),
    host("bench.ref_s", "s", Lower),
    // B. From the layer probes.
    host("sim.calendar.hold_ns.p200", "ns", Lower),
    host("sim.calendar.hold_ns.p2000", "ns", Lower),
    host("sim.queue.hold_ns.p200", "ns", Lower),
    host("sim.queue.hold_ns.p2000", "ns", Lower),
    exact("sim.calendar.rotations", "count", Lower),
    exact("sim.calendar.far_pulls", "count", Lower),
    host("phy.channel.tx_fanout_ns", "ns", Lower),
    host("phy.channel.tx_fanout_brute_ns", "ns", Lower),
    host("phy.tone.edge_ns", "ns", Lower),
    host("phy.grid.moving_tx_ns", "ns", Lower),
    host("mobility.model.position_ns", "ns", Lower),
    host("wire.codec.mrts_roundtrip_ns", "ns", Lower),
    host("wire.codec.data_roundtrip_ns", "ns", Lower),
    host("wire.datagram.roundtrip_ns", "ns", Lower),
    host("core.rmac.reliable_cycle_ns", "ns", Lower),
    host("core.rmac.backoff_slot_ns", "ns", Lower),
    host("net.bless.on_beacon_ns", "ns", Lower),
    host("net.app.dedup_ns", "ns", Lower),
    host("metrics.report.reduce_ns", "ns", Lower),
    host("obs.hist.record_ns", "ns", Lower),
    host("campaign.store.record_roundtrip_ns", "ns", Lower),
    host("live.wheel.arm_fire_ns", "ns", Lower),
    host("live.hub.send_pop_ns", "ns", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The fingerprint as a JSON number: its low 48 bits, which a double holds
/// exactly. Result files also carry all 64 bits as a hex string.
pub fn fingerprint_number(fingerprint: u64) -> f64 {
    (fingerprint & 0xFFFF_FFFF_FFFF) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = declared();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.arr(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.str_of("name"), Some(def.name), "{key}");
                assert_eq!(entry.str_of("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(
                    entry.str_of("better"),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
                let bound = entry.f64("bound");
                if key == "end_to_end" {
                    let bound = bound.expect("end-to-end metrics carry a bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
                } else {
                    assert_eq!(bound, None, "{}", def.name);
                }
            }
        }
        let workloads = doc.arr("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.str_of("name"), Some(w.name()));
            assert_eq!(entry.str_of("why"), Some(w.why()));
        }
        assert_eq!(doc.fields().len(), 6, "BENCHMARK.json has exactly six keys");
    }

    #[test]
    fn fingerprint_number_is_exact_in_a_double() {
        let n = fingerprint_number(u64::MAX);
        assert_eq!(n, (1u64 << 48) as f64 - 1.0);
        assert_eq!(n as u64 as f64, n);
    }
}
