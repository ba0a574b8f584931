//! Layer probes: one layer's public API driven in a loop, from outside.
//!
//! Each probe is the exercise half of an open question about one layer
//! (heap or calendar queue, grid or brute-force search, ...), sized from the
//! workload it is matched to. A probe reports nanoseconds per operation as
//! the median of [`BATCHES`] batches, at reference speed. `--trace 1` runs
//! the probes matched to its workload and reports 0 for the others: the
//! layer is not driven there.

use std::time::Instant;

use bytes::Bytes;
use rmac_campaign::{CampaignSpec, CaseRecord};
use rmac_core::api::{MacService, TimerKind, TxRequest};
use rmac_core::testkit::Mock;
use rmac_core::{MacConfig, Rmac};
use rmac_engine::{run_replication_instrumented, FaultPlan, ObsConfig};
use rmac_live::{LoopbackHub, TimerWheel};
use rmac_metrics::{percentile, RunReport};
use rmac_mobility::{MobilityKind, Motion, Pos};
use rmac_net::{BlessConfig, BlessState, NetLayer, NetPayload};
use rmac_obs::LogHistogram;
use rmac_phy::{Channel, ChannelConfig, IndexMode, Indication, PhyEvent, Tone};
use rmac_sim::{CalendarQueue, EventQueue, SimQueue, SimRng, SimTime};
use rmac_wire::consts::T_WF;
use rmac_wire::{
    codec, decode_datagram, encode_datagram, Datagram, Dest, DgramBody, Frame, NodeId,
};

use crate::inputs::{self, Rng, Scale};
use crate::reference::{self, Bracket};
use crate::stats::median;
use crate::workloads::Workload;
use crate::workloads::Workload::*;

const BATCHES: usize = 5;

/// How long one batch of one probe runs.
fn batch_seconds(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 0.06,
        Scale::Smoke => 0.004,
    }
}

/// Nanoseconds per operation at reference speed: `op` performs some
/// operations and returns how many; it is called until a batch has run long
/// enough. The reference kernel runs before the batches and after them, as
/// it does around a workload's measured call.
fn ns_per_op(scale: Scale, mut op: impl FnMut() -> u64) -> f64 {
    let batch_s = batch_seconds(scale);
    let bracket = Bracket::open();
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut ops = 0u64;
            loop {
                ops += op();
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= batch_s {
                    return elapsed * 1e9 / ops.max(1) as f64;
                }
            }
        })
        .collect();
    median(&batches) * reference::factor(bracket.close())
}

/// One probe: the per-layer metrics it fills, in order, and the workloads
/// whose trace it belongs to.
pub struct Probe {
    pub names: &'static [&'static str],
    pub workloads: &'static [Workload],
    pub run: fn(Scale) -> Vec<f64>,
}

pub const PROBES: &[Probe] = &[
    Probe {
        names: &[
            "sim.calendar.hold_ns.p200",
            "sim.queue.hold_ns.p200",
            "sim.calendar.rotations",
            "sim.calendar.far_pulls",
        ],
        workloads: &[Dense200Static, Paper75Mobile, Paper75Bmmm, CampaignGrid],
        run: |scale| {
            let (cal_ns, rotations, far_pulls) = calendar_hold(scale, 200);
            vec![cal_ns, heap_hold(scale, 200), rotations, far_pulls]
        },
    },
    Probe {
        names: &["sim.calendar.hold_ns.p2000", "sim.queue.hold_ns.p2000"],
        workloads: &[Multicell2000Shard2],
        run: |scale| vec![calendar_hold(scale, 2000).0, heap_hold(scale, 2000)],
    },
    Probe {
        names: &["phy.channel.tx_fanout_ns", "phy.channel.tx_fanout_brute_ns"],
        workloads: &[Dense200Static, Paper75Bmmm, Multicell2000Shard2],
        run: |scale| {
            vec![
                tx_fanout(scale, IndexMode::grid(), MobilityKind::Stationary),
                tx_fanout(scale, IndexMode::BruteForce, MobilityKind::Stationary),
            ]
        },
    },
    Probe {
        names: &["phy.tone.edge_ns"],
        workloads: &[Dense200Static, Paper75Mobile, Multicell2000Shard2],
        run: |scale| vec![tone_edge(scale)],
    },
    Probe {
        names: &["phy.grid.moving_tx_ns", "mobility.model.position_ns"],
        workloads: &[Paper75Mobile],
        run: |scale| {
            vec![
                tx_fanout(scale, IndexMode::grid(), MobilityKind::paper_speed2()),
                position(scale),
            ]
        },
    },
    Probe {
        names: &[
            "wire.codec.mrts_roundtrip_ns",
            "wire.codec.data_roundtrip_ns",
            "wire.datagram.roundtrip_ns",
        ],
        workloads: &[LiveSoakGe20],
        run: wire_roundtrips,
    },
    Probe {
        names: &["core.rmac.reliable_cycle_ns", "core.rmac.backoff_slot_ns"],
        workloads: &[
            Dense200Static,
            Paper75Mobile,
            Multicell2000Shard2,
            LiveSoakGe20,
        ],
        run: |scale| vec![reliable_cycle(scale), backoff_slot(scale)],
    },
    Probe {
        names: &["net.bless.on_beacon_ns", "net.app.dedup_ns"],
        workloads: &[Paper75Mobile, CampaignGrid],
        run: |scale| vec![on_beacon(scale), app_dedup(scale)],
    },
    Probe {
        names: &[
            "metrics.report.reduce_ns",
            "obs.hist.record_ns",
            "campaign.store.record_roundtrip_ns",
        ],
        workloads: &[CampaignGrid],
        run: |scale| {
            vec![
                report_reduce(scale),
                hist_record(scale),
                record_roundtrip(scale),
            ]
        },
    },
    Probe {
        names: &["live.wheel.arm_fire_ns", "live.hub.send_pop_ns"],
        workloads: &[LiveSoakGe20],
        run: |scale| vec![wheel_arm_fire(scale), hub_send_pop(scale)],
    },
];

/// Run the probes matched to `workload` (all of them for `None`).
pub fn run_probes(workload: Option<Workload>, scale: Scale) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for probe in PROBES {
        if workload.is_some_and(|w| !probe.workloads.contains(&w)) {
            continue;
        }
        let values = (probe.run)(scale);
        assert_eq!(values.len(), probe.names.len(), "{:?}", probe.names);
        out.extend(probe.names.iter().map(|n| n.to_string()).zip(values));
    }
    out
}

// ---------------------------------------------------------------------
// sim: the hold model (pop one event, push its successor)
// ---------------------------------------------------------------------

/// Delay to the next near-term event, in the proportions of the dense
/// workload: backoff slots (20 µs), tone edges (15 µs window plus
/// propagation), frame arrivals (propagation only, ≤ 1 µs).
fn near_delay(rng: &mut Rng) -> SimTime {
    let r = rng.next_u64();
    let prop = 1 + (r >> 32) % 1000;
    SimTime::from_nanos(match r % 100 {
        0..=36 => 20_000,
        37..=73 => 15_000 + prop / 4,
        _ => prop,
    })
}

const BEACON_PERIOD: SimTime = SimTime::from_millis(500);

/// Population 4 × `nodes`: one beacon per node, 500 ms apart, and three
/// near-term events per node. Event ids below `nodes` are the beacons.
fn fill<Q: SimQueue<u32>>(q: &mut Q, nodes: u32, rng: &mut Rng) {
    for id in 0..nodes {
        q.push(
            SimTime::from_nanos(rng.next_u64() % BEACON_PERIOD.nanos()),
            id,
        );
    }
    for id in nodes..4 * nodes {
        q.push_after(near_delay(rng), id);
    }
}

fn hold<Q: SimQueue<u32>>(q: &mut Q, nodes: u32, rng: &mut Rng, holds: u64) -> u64 {
    for _ in 0..holds {
        let (_, id) = q.pop().expect("the hold model never drains");
        let delay = if id < nodes {
            BEACON_PERIOD
        } else {
            near_delay(rng)
        };
        q.push_after(delay, std::hint::black_box(id));
    }
    holds
}

/// Fill the queue, run a million holds to reach the steady mix, let the
/// caller look at the queue, then time holds: ns per hold.
fn hold_ns<Q: SimQueue<u32>>(scale: Scale, nodes: u32, mut q: Q, warmed: impl FnOnce(&Q)) -> f64 {
    let mut rng = Rng::new(0x401D);
    fill(&mut q, nodes, &mut rng);
    hold(&mut q, nodes, &mut rng, 1_000_000);
    warmed(&q);
    ns_per_op(scale, || hold(&mut q, nodes, &mut rng, 4096))
}

/// Calendar queue: ns per hold, plus bucket rotations and far-heap pulls
/// over the first million holds (exact for a population).
fn calendar_hold(scale: Scale, nodes: u32) -> (f64, f64, f64) {
    let (mut rotations, mut far_pulls) = (0.0, 0.0);
    let q = CalendarQueue::with_capacity(nodes as usize * 64);
    let ns = hold_ns(scale, nodes, q, |q| {
        rotations = q.rotations() as f64;
        far_pulls = q.far_pulls() as f64;
    });
    (ns, rotations, far_pulls)
}

fn heap_hold(scale: Scale, nodes: u32) -> f64 {
    let q = EventQueue::with_capacity(nodes as usize * 64);
    hold_ns(scale, nodes, q, |_| ())
}

// ---------------------------------------------------------------------
// phy and mobility: 200 nodes at paper density
// ---------------------------------------------------------------------

fn dense_channel(index: IndexMode, mobility: MobilityKind) -> Channel {
    let input = inputs::dense200_static(1, Scale::Full);
    let bounds = input.cfg.bounds;
    let motions = input
        .cfg
        .positions
        .expect("the dense layout is explicit")
        .into_iter()
        .enumerate()
        .map(|(i, p)| match mobility {
            MobilityKind::Stationary => Motion::stationary(p),
            kind => Motion::new(p, kind, bounds, SimRng::new(i as u64)),
        })
        .collect();
    let cfg = ChannelConfig {
        index,
        ..ChannelConfig::default()
    };
    Channel::new(cfg, motions)
}

fn drain(ch: &mut Channel, q: &mut CalendarQueue<PhyEvent>, rng: &mut SimRng) {
    let mut out: Vec<Indication> = Vec::new();
    while let Some((t, ev)) = q.pop() {
        out.clear();
        ch.handle(t, rng, &ev, &mut out);
        std::hint::black_box(&out);
    }
}

/// One 500-byte broadcast from a rotating source, heard and drained: ns per
/// transmission.
fn tx_fanout(scale: Scale, index: IndexMode, mobility: MobilityKind) -> f64 {
    let mut ch = dense_channel(index, mobility);
    let mut q = CalendarQueue::new();
    let mut rng = SimRng::new(7);
    let frame = Frame::data_unreliable(NodeId(0), Dest::Broadcast, Bytes::from(vec![0u8; 500]), 0);
    let mut src = 0u16;
    ns_per_op(scale, || {
        for _ in 0..16 {
            src = (src + 7) % 200;
            ch.start_tx(&mut q, NodeId(src), frame.clone());
            drain(&mut ch, &mut q, &mut rng);
        }
        16
    })
}

/// One busy tone raised and lowered at a rotating source, both edges heard
/// and drained: ns per tone.
fn tone_edge(scale: Scale) -> f64 {
    let mut ch = dense_channel(IndexMode::grid(), MobilityKind::Stationary);
    let mut q = CalendarQueue::new();
    let mut rng = SimRng::new(7);
    let mut src = 0u16;
    ns_per_op(scale, || {
        for _ in 0..16 {
            src = (src + 7) % 200;
            ch.start_tone(&mut q, NodeId(src), Tone::Rbt);
            ch.stop_tone(&mut q, NodeId(src), Tone::Rbt);
            drain(&mut ch, &mut q, &mut rng);
        }
        16
    })
}

/// 75 speed-2 waypoint nodes evaluated every 10 ms: ns per `position_at`.
fn position(scale: Scale) -> f64 {
    let input = inputs::paper75_mobile(1, Scale::Full);
    let mut motions: Vec<Motion> = input
        .cfg
        .positions
        .expect("the mobile layout is explicit")
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Motion::new(
                p,
                input.cfg.mobility,
                input.cfg.bounds,
                SimRng::new(i as u64),
            )
        })
        .collect();
    let mut t = SimTime::ZERO;
    ns_per_op(scale, || {
        t += SimTime::from_millis(10);
        let mut acc = Pos::new(0.0, 0.0);
        for m in &mut motions {
            let p = m.position_at(t);
            acc.x += p.x;
            acc.y += p.y;
        }
        std::hint::black_box(acc);
        motions.len() as u64
    })
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

fn wire_roundtrips(scale: Scale) -> Vec<f64> {
    let mrts = Frame::mrts(NodeId(0), (1..=20).map(NodeId).collect());
    let data = Frame::data_reliable(
        NodeId(0),
        Dest::Group(vec![NodeId(1), NodeId(2), NodeId(3)]),
        Bytes::from(vec![7u8; 500]),
        9,
    );
    let codec_roundtrip = |frame: &Frame| {
        ns_per_op(scale, || {
            for _ in 0..64 {
                let enc = codec::encode(std::hint::black_box(frame));
                std::hint::black_box(codec::decode(&enc, NodeId(0)).expect("own encoding"));
            }
            64
        })
    };
    let dgram = Datagram {
        src: NodeId(1),
        counter: 3,
        body: DgramBody::Frame(codec::encode(&data)),
    };
    let datagram = ns_per_op(scale, || {
        for _ in 0..64 {
            let enc = encode_datagram(std::hint::black_box(&dgram));
            std::hint::black_box(decode_datagram(&enc).expect("own encoding"));
        }
        64
    });
    vec![codec_roundtrip(&mrts), codec_roundtrip(&data), datagram]
}

// ---------------------------------------------------------------------
// core: the RMAC state machine on the scripted context
// ---------------------------------------------------------------------

fn reliable_request(token: u64) -> TxRequest {
    TxRequest {
        reliable: true,
        dest: Dest::Group(vec![NodeId(1), NodeId(2)]),
        payload: Bytes::from_static(b"payload"),
        token,
    }
}

/// MRTS, RBT sensed, data, both ABT slots answered: ns per Reliable Send.
fn reliable_cycle(scale: Scale) -> f64 {
    ns_per_op(scale, || {
        for _ in 0..16 {
            let mut m = Mock::new();
            let mut r = Rmac::new(NodeId(0), MacConfig::default());
            r.submit(&mut m, reliable_request(1));
            m.finish_tx(&mut r, false);
            m.preset_on(Tone::Rbt, m.now, T_WF);
            m.fire(&mut r, TimerKind::WfRbt);
            m.finish_tx(&mut r, false);
            m.preset_abt_slots(m.now, 2, &[0, 1]);
            m.fire(&mut r, TimerKind::WfAbt);
            std::hint::black_box(m.notifications.len());
        }
        16
    })
}

/// A packet submitted on a busy channel draws a backoff interval; once the
/// channel clears, every 20 µs slot is one timer: ns per slot timer
/// (re-arming a new countdown when one ends is part of the loop).
fn backoff_slot(scale: Scale) -> f64 {
    let mut state: Option<(Mock, Rmac)> = None;
    ns_per_op(scale, || {
        let mut slots = 0;
        while slots < 64 {
            match state.as_mut() {
                Some((m, r)) if m.has_timer(TimerKind::BackoffSlot) => {
                    m.fire(r, TimerKind::BackoffSlot);
                    slots += 1;
                }
                _ => {
                    let mut m = Mock::new();
                    m.rng = SimRng::new(slots + 1);
                    let mut r = Rmac::new(NodeId(0), MacConfig::default());
                    m.data_busy = true;
                    r.submit(&mut m, reliable_request(1));
                    m.data_busy = false;
                    r.on_indication(&mut m, &Indication::CarrierOff { node: NodeId(0) });
                    state = Some((m, r));
                }
            }
        }
        slots
    })
}

// ---------------------------------------------------------------------
// net, metrics, obs, campaign
// ---------------------------------------------------------------------

fn bless_config() -> BlessConfig {
    BlessConfig {
        beacon_period: SimTime::from_millis(500),
        freshness: SimTime::from_millis(1600),
        root: NodeId(0),
    }
}

/// Beacons from 20 neighbours in turn: ns per `on_beacon`.
fn on_beacon(scale: Scale) -> f64 {
    let mut bless = BlessState::new(NodeId(30), bless_config());
    let mut now = SimTime::ZERO;
    let mut i = 0u32;
    ns_per_op(scale, || {
        for _ in 0..64 {
            i += 1;
            now += SimTime::from_millis(25);
            bless.on_beacon(now, NodeId((i % 20) as u16), 1 + i % 4, (i % 7) as u16);
        }
        64
    })
}

/// A 500-byte application packet delivered again: ns per duplicate dropped.
fn app_dedup(scale: Scale) -> f64 {
    let mut net = NetLayer::new(NodeId(5), bless_config(), 500);
    let payload = NetPayload::App {
        id: 7,
        origin: SimTime::ZERO,
    }
    .encode(500);
    let frame = Frame::data_reliable(NodeId(1), Dest::Group(vec![NodeId(5)]), payload, 0);
    let mut out = Vec::new();
    net.on_deliver(SimTime::from_millis(1), &frame, &mut out);
    ns_per_op(scale, || {
        for _ in 0..64 {
            net.on_deliver(
                SimTime::from_millis(2),
                std::hint::black_box(&frame),
                &mut out,
            );
        }
        64
    })
}

/// What closing a 200-node replication reduces: three percentiles over
/// per-node samples and the average of ten reports: ns per reduction.
fn report_reduce(scale: Scale) -> f64 {
    let mut rng = Rng::new(0x2E);
    let samples: Vec<f64> = (0..200).map(|_| rng.unit()).collect();
    let reports: Vec<RunReport> = (0..10)
        .map(|i| RunReport {
            receptions: 100 + i,
            expected_receptions: 200,
            retx_ratio_avg: rng.unit(),
            ..RunReport::default()
        })
        .collect();
    ns_per_op(scale, || {
        for p in [50.0, 99.0, 100.0] {
            std::hint::black_box(percentile(std::hint::black_box(&samples), p));
        }
        std::hint::black_box(RunReport::average(std::hint::black_box(&reports)));
        1
    })
}

fn hist_record(scale: Scale) -> f64 {
    let mut hist = LogHistogram::new();
    let mut rng = Rng::new(0x415);
    ns_per_op(scale, || {
        for _ in 0..256 {
            hist.record(rng.next_u64() >> 40);
        }
        std::hint::black_box(hist.count());
        256
    })
}

/// A real store record (8 nodes, obs counters on) rendered to its JSONL
/// line and parsed back: ns per round trip.
fn record_roundtrip(scale: Scale) -> f64 {
    let mut spec = CampaignSpec::paper_figures(true);
    spec.nodes = 8;
    spec.packets = 2;
    spec.obs = true;
    let case = spec.cases().swap_remove(0);
    let (report, obs, check) = run_replication_instrumented(
        &case.config(),
        case.protocol,
        case.seed,
        &FaultPlan::none(),
        Some(ObsConfig::default()),
    );
    let record = CaseRecord::from_run(&case, &report, obs.as_ref(), &check);
    ns_per_op(scale, || {
        for _ in 0..16 {
            let line = std::hint::black_box(&record).to_jsonl();
            std::hint::black_box(CaseRecord::from_jsonl(&line).expect("own line"));
        }
        16
    })
}

// ---------------------------------------------------------------------
// live
// ---------------------------------------------------------------------

/// One timer armed 20 µs ahead and fired: ns per timer.
fn wheel_arm_fire(scale: Scale) -> f64 {
    let mut wheel: TimerWheel<u32> = TimerWheel::default();
    let mut now = SimTime::ZERO;
    let mut fired = Vec::new();
    ns_per_op(scale, || {
        for i in 0..64 {
            now += SimTime::from_micros(20);
            wheel.schedule(now, i);
            fired.clear();
            wheel.advance(now, &mut fired);
            std::hint::black_box(&fired);
        }
        64
    })
}

/// One 500-byte datagram sent into a 5-node hub under the soak's loss plan
/// and its four copies popped: ns per datagram sent.
fn hub_send_pop(scale: Scale) -> f64 {
    let nodes: Vec<NodeId> = (1..=5).map(NodeId).collect();
    let cfg = inputs::live_soak_ge20(1, Scale::Full).hub;
    let mut hub = LoopbackHub::new(&nodes, cfg);
    let bytes = vec![5u8; 520];
    let mut now = SimTime::ZERO;
    ns_per_op(scale, || {
        for i in 0..64u16 {
            now += SimTime::from_millis(1);
            hub.send_data(nodes[usize::from(i % 5)], now, &bytes);
            while let Some(arrival) = hub.pop_due(now + SimTime::from_micros(1)) {
                std::hint::black_box(arrival);
            }
        }
        64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;

    #[test]
    fn every_probe_name_is_a_declared_per_layer_metric_matched_to_a_workload() {
        let mut seen = Vec::new();
        for probe in PROBES {
            assert!(!probe.workloads.is_empty(), "{:?}", probe.names);
            for name in probe.names {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not declared"
                );
                assert!(!seen.contains(name), "{name} is filled twice");
                seen.push(name);
            }
        }
    }

    #[test]
    fn probes_report_positive_times_and_repeatable_counts() {
        let first = run_probes(None, Scale::Smoke);
        assert_eq!(
            first.len(),
            PROBES.iter().map(|p| p.names.len()).sum::<usize>()
        );
        for (name, value) in &first {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
            if name.ends_with("_ns") || name.contains("_ns.") {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
        let count = |set: &[(String, f64)], name: &str| {
            set.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        let again = run_probes(Some(Workload::Dense200Static), Scale::Smoke);
        for name in ["sim.calendar.rotations", "sim.calendar.far_pulls"] {
            assert_eq!(count(&first, name), count(&again, name), "{name}");
        }
        assert_eq!(count(&again, "live.hub.send_pop_ns"), None);
    }
}
