//! Engine integration tests on small networks.

use rmac_net::BlessConfig;
use rmac_sim::{CalendarQueue, SimTime};
use rmac_wire::NodeId;

use crate::config::{Protocol, ScenarioConfig};
use crate::world::{BeaconTimetable, Runner, BEACON_JITTER_NS};
use crate::Run;

impl Runner {
    /// The MACs, network layers, MAC RNG streams and counters the runner
    /// holds, in that order.
    pub(crate) fn stack_counts(&self) -> [usize; 4] {
        let core = &self.core;
        [
            self.macs.len(),
            self.nets.len(),
            core.rngs.len(),
            core.counters.len(),
        ]
    }
}

/// `run` assembled as its one all-shards group, for a test that drives the
/// event loop and reads the runner after it.
fn whole(run: Run) -> Runner {
    Runner::assemble(&run.spec, CalendarQueue::with_capacity, |_| true)
}

/// A small, dense stationary scenario that finishes in well under a second
/// of wall time.
fn tiny(rate: f64, nodes: usize, packets: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(rate)
        .with_nodes(nodes)
        .with_packets(packets);
    // Shrink the plane so a random placement of few nodes stays connected.
    cfg.bounds = rmac_mobility::Bounds::new(100.0, 80.0);
    cfg
}

#[test]
fn rmac_delivers_on_a_small_stationary_network() {
    let cfg = tiny(20.0, 8, 50);
    let r = Run::new(&cfg, Protocol::Rmac, 7).execute().report;
    assert_eq!(r.packets_sent, 50);
    assert_eq!(r.expected_receptions, 50 * 7);
    assert!(
        r.delivery_ratio() > 0.97,
        "RMAC stationary delivery should be ≈1, got {} ({}/{} receptions)",
        r.delivery_ratio(),
        r.receptions,
        r.expected_receptions
    );
    assert!(r.nonleaf_nodes >= 1);
    assert!(
        r.events > 1000,
        "simulation actually ran: {} events",
        r.events
    );
}

#[test]
fn bmmm_also_delivers_on_a_small_network() {
    let cfg = tiny(10.0, 8, 30);
    let r = Run::new(&cfg, Protocol::Bmmm, 7).execute().report;
    assert!(
        r.delivery_ratio() > 0.9,
        "BMMM stationary delivery, got {}",
        r.delivery_ratio()
    );
}

#[test]
fn bmw_and_lbp_run_and_deliver_something() {
    let cfg = tiny(5.0, 6, 20);
    for p in [Protocol::Bmw, Protocol::Lbp] {
        let r = Run::new(&cfg, p, 3).execute().report;
        assert!(
            r.delivery_ratio() > 0.5,
            "{} delivered only {}",
            r.protocol,
            r.delivery_ratio()
        );
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let cfg = tiny(20.0, 8, 30);
    let a = Run::new(&cfg, Protocol::Rmac, 42).execute().report;
    let b = Run::new(&cfg, Protocol::Rmac, 42).execute().report;
    assert_eq!(a.receptions, b.receptions);
    assert_eq!(a.events, b.events);
    assert_eq!(a.e2e_delay_avg_s, b.e2e_delay_avg_s);
    assert_eq!(a.retx_ratio_avg, b.retx_ratio_avg);
}

#[test]
fn different_seeds_differ() {
    let cfg = tiny(20.0, 8, 30);
    let a = Run::new(&cfg, Protocol::Rmac, 1).execute().report;
    let b = Run::new(&cfg, Protocol::Rmac, 2).execute().report;
    // Different placements ⇒ different event counts (astronomically
    // unlikely to collide).
    assert_ne!(a.events, b.events);
}

#[test]
fn delays_are_positive_and_bounded() {
    let cfg = tiny(20.0, 8, 40);
    let r = Run::new(&cfg, Protocol::Rmac, 5).execute().report;
    assert!(r.delay_samples > 0);
    assert!(r.e2e_delay_avg_s > 0.0);
    assert!(
        r.e2e_delay_avg_s < 1.0,
        "unloaded small net should deliver in ms: {}s",
        r.e2e_delay_avg_s
    );
}

#[test]
fn tree_statistics_are_sane() {
    let cfg = tiny(10.0, 8, 20);
    let r = Run::new(&cfg, Protocol::Rmac, 11).execute().report;
    assert!(r.hops_avg >= 1.0, "hops {}", r.hops_avg);
    assert!(r.children_avg >= 1.0, "children {}", r.children_avg);
}

#[test]
fn mrts_lengths_follow_fig3_bounds() {
    let cfg = tiny(10.0, 10, 30);
    let r = Run::new(&cfg, Protocol::Rmac, 13).execute().report;
    assert!(
        r.mrts_len_avg >= 18.0,
        "minimum MRTS is 18 B: {}",
        r.mrts_len_avg
    );
    assert!(
        r.mrts_len_max <= 132.0,
        "≤ 20 receivers ⇒ ≤ 132 B: {}",
        r.mrts_len_max
    );
}

#[test]
fn disconnected_node_reduces_delivery() {
    // Nine nodes on a tiny plane plus the default 500×300 plane would be
    // disconnected; instead verify the ratio definition: with only 2 nodes
    // and the child in range, delivery ≈ 1; the expected count uses n-1.
    let cfg = tiny(10.0, 2, 20);
    let r = Run::new(&cfg, Protocol::Rmac, 3).execute().report;
    assert_eq!(r.expected_receptions, 20);
    assert!(r.delivery_ratio() > 0.9);
}

#[test]
fn rmac_beats_or_matches_bmmm_under_load() {
    // At a high offered rate on a small dense net, RMAC's cheaper control
    // plane should deliver at least as much as BMMM.
    let cfg = tiny(60.0, 10, 100);
    let rmac = Run::new(&cfg, Protocol::Rmac, 9).execute().report;
    let bmmm = Run::new(&cfg, Protocol::Bmmm, 9).execute().report;
    assert!(
        rmac.delivery_ratio() >= bmmm.delivery_ratio() - 0.02,
        "RMAC {} vs BMMM {}",
        rmac.delivery_ratio(),
        bmmm.delivery_ratio()
    );
}

#[test]
fn rbt_ablation_runs() {
    let cfg = tiny(20.0, 8, 30);
    let r = Run::new(&cfg, Protocol::RmacNoRbt, 5).execute().report;
    assert!(r.delivery_ratio() > 0.5);
    assert_eq!(r.protocol, "RMAC-noRBT");
}

#[test]
fn mobile_scenario_runs() {
    let mut cfg = ScenarioConfig::paper_speed2(10.0)
        .with_nodes(10)
        .with_packets(20);
    cfg.bounds = rmac_mobility::Bounds::new(120.0, 100.0);
    let r = Run::new(&cfg, Protocol::Rmac, 21).execute().report;
    assert!(r.events > 0);
    assert!(r.delivery_ratio() > 0.3, "got {}", r.delivery_ratio());
}

#[test]
fn trace_and_tone_records_reproduce_fig4() {
    use crate::trace::{TraceEvent, TraceWhat};
    use rmac_phy::Tone;
    use rmac_sim::SimTime;
    use rmac_wire::consts::L_ABT;
    use rmac_wire::FrameKind;
    use std::sync::{Arc, Mutex};

    let cfg = crate::ScenarioConfig::paper_stationary(5.0)
        .with_packets(1)
        .with_positions(vec![
            rmac_mobility::Pos::new(0.0, 0.0),
            rmac_mobility::Pos::new(50.0, 0.0),
            rmac_mobility::Pos::new(0.0, 50.0),
        ]);
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let sink = events.clone();
    let out = Run::new(&cfg, Protocol::Rmac, 3)
        .tracer(Box::new(move |e| sink.lock().unwrap().push(e.clone())))
        .obs(crate::ObsConfig::default())
        .execute();
    assert_eq!(out.report.delivery_ratio(), 1.0);

    let events = events.lock().unwrap();
    let tx_done = |kind: FrameKind| {
        let at = events.iter().position(
            |e| matches!(&e.what, TraceWhat::TxDone { frame, aborted: false } if frame.kind == kind),
        );
        at.unwrap_or_else(|| panic!("no {kind:?} in the trace"))
    };
    let mrts = tx_done(FrameKind::Mrts);
    let data = tx_done(FrameKind::DataReliable);
    // Deliveries of the *reliable* packet (beacons trace Deliver too).
    let delivers: Vec<usize> = (0..events.len())
        .filter(|&i| {
            matches!(&events[i].what, TraceWhat::Deliver { frame } if frame.kind == FrameKind::DataReliable)
        })
        .collect();
    // §3.3.2 / Fig. 4: MRTS → data → one delivery at each receiver.
    assert!(mrts < data, "MRTS before data");
    assert_eq!(delivers.len(), 2);
    assert!(delivers[0] > data, "delivery after the data frame");

    // The tones of the figure, as raised: each receiver's RBT the instant
    // the MRTS has arrived (a propagation delay after it left), lowered
    // when the data frame has; then the ABTs in MRTS order, one slot each.
    let emits = |tone: Tone, on: bool| {
        let of = move |e: &&TraceEvent| matches!(e.what, TraceWhat::ToneEmit { tone: t, on: o } if t == tone && o == on);
        let found = events.iter().filter(of).map(|e| (e.t, e.node.0));
        found.collect::<Vec<_>>()
    };
    let prop = SimTime::from_nanos(167);
    let (mrts_end, data_end) = (events[mrts].t + prop, events[data].t + prop);
    assert_eq!(emits(Tone::Rbt, true), [(mrts_end, 1), (mrts_end, 2)]);
    assert_eq!(emits(Tone::Rbt, false), [(data_end, 1), (data_end, 2)]);
    assert_eq!(
        emits(Tone::Abt, true),
        [(data_end, 1), (data_end + L_ABT, 2)]
    );
    assert_eq!(
        emits(Tone::Abt, false),
        [(data_end + L_ABT, 1), (data_end + L_ABT.mul(2), 2)]
    );
    // A transmission is reported when it starts and when it ends.
    let started = events.iter().position(
        |e| matches!(&e.what, TraceWhat::TxStart { frame, .. } if frame.kind == FrameKind::DataReliable),
    );
    let started = &events[started.expect("the data frame's start")];
    let TraceWhat::TxDone { frame, .. } = &events[data].what else {
        unreachable!("found as a TxDone")
    };
    assert_eq!(started.t + frame.airtime(), events[data].t);

    // Nobody was *told* of those tones — the sender reads them through its
    // two watches, so no `ToneEdge` carried them — and the trace has no
    // `tone` line. The records say what was heard: the sender heard the RBT
    // from the end of its MRTS to the end of its data frame (both one
    // round trip later), then the two ABT slots back to back; each
    // receiver heard the other's RBT and the other's ABT.
    let rbt_held = (events[data].t - events[mrts].t).nanos();
    let heard: Vec<[u64; 2]> = out
        .obs
        .expect("obs attached")
        .nodes
        .iter()
        .map(|n| n.tone_busy_ns)
        .collect();
    assert_eq!(
        heard,
        [
            [rbt_held, 2 * L_ABT.nanos()],
            [rbt_held, L_ABT.nanos()],
            [rbt_held, L_ABT.nanos()]
        ]
    );
}

#[test]
fn crashing_the_only_relay_starves_downstream_nodes() {
    use rmac_faults::{ChurnKind, ChurnSpec, FaultPlan};

    // A 3-node chain where node 1 is the only path from the source to
    // node 2 (range 75 m, spacing 60 m).
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(20)
        .with_chain(2, 60.0);
    let baseline = Run::new(&cfg, Protocol::Rmac, 5).execute().report;
    assert!(
        baseline.delivery_ratio() > 0.9,
        "{}",
        baseline.delivery_ratio()
    );

    // Crash node 1 for (effectively) the whole run.
    let plan = FaultPlan::none().with_churn(ChurnSpec {
        node: 1,
        kind: ChurnKind::Crash,
        at_ms: 0,
        for_ms: 1_000_000,
    });
    let faulted = Run::new(&cfg, Protocol::Rmac, 5)
        .faults(&plan)
        .execute()
        .report;
    assert_eq!(faulted.fault_crashes, 1);
    assert!(
        faulted.faults_injected > 0,
        "PHY hook silenced the crashed radio"
    );
    assert!(
        faulted.delivery_ratio() < 0.1,
        "no path around the dead relay, got {}",
        faulted.delivery_ratio()
    );
}

/// A node that dies inside WF_ABT leaves its ABT watch open for good. The
/// crash must close it: an open watch keeps every tone record from its start
/// on, and a dead node's would grow for as long as anything near it emits.
#[test]
fn a_crash_inside_a_tone_watch_does_not_pin_the_nodes_tone_records() {
    use crate::trace::{FaultKind, TraceEvent, TraceWhat};
    use rmac_faults::{ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec};
    use rmac_phy::Tone;
    use rmac_wire::consts::{BYTE_TIME, L_ABT};
    use rmac_wire::{FrameKind, NodeId};
    use std::sync::{Arc, Mutex};

    // The sender of Fig. 4, two receivers: WF_ABT lasts 2 × 17 µs after the
    // data frame. Crashes come on whole milliseconds, so stretch the payload
    // until the data frame ends 20 µs before one.
    let mut cfg = ScenarioConfig::paper_stationary(5.0)
        .with_packets(1)
        .with_positions(vec![
            rmac_mobility::Pos::new(0.0, 0.0),
            rmac_mobility::Pos::new(50.0, 0.0),
            rmac_mobility::Pos::new(0.0, 50.0),
        ]);
    let run = |cfg: &ScenarioConfig, plan: FaultPlan| {
        let mut runner = whole(Run::new(cfg, Protocol::Rmac, 3).faults(&plan));
        // A tracer does not read busy time; this test does.
        runner.core.channel.keep_tone_busy_time();
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
        let sink = events.clone();
        runner.attach(
            None,
            false,
            Some(Box::new(move |e| sink.lock().unwrap().push(e.clone()))),
        );
        runner.run_events(&BeaconTimetable::build(cfg, 3));
        let events = std::mem::take(&mut *events.lock().unwrap());
        (runner, events)
    };
    let at = |events: &[TraceEvent], what: &dyn Fn(&TraceWhat) -> bool| {
        events.iter().find(|e| what(&e.what)).expect("traced").t
    };
    let data_done = |w: &TraceWhat| matches!(w, TraceWhat::TxDone { frame, .. } if frame.kind == FrameKind::DataReliable);
    let plain = at(&run(&cfg, FaultPlan::none()).1, &data_done);
    let crash_ms = plain.nanos() / 1_000_000 + 2;
    let slack = SimTime::from_millis(crash_ms) - SimTime::from_micros(20) - plain;
    cfg.payload += (slack.nanos() / BYTE_TIME.nanos()) as usize;

    // An ABT jammer beside the sender keeps bursting after the crash.
    let plan = FaultPlan::none()
        .with_churn(ChurnSpec {
            node: 0,
            kind: ChurnKind::Crash,
            at_ms: crash_ms,
            for_ms: 1_000_000,
        })
        .with_jammer(JammerSpec {
            x: 10.0,
            y: 10.0,
            target: JamTarget::Abt,
            start_ms: crash_ms + 1,
            period_ms: 2,
            burst_ms: 1,
        });
    let (runner, events) = run(&cfg, plan);
    let crashed = at(&events, &|w| {
        matches!(w, TraceWhat::Fault(FaultKind::Crash))
    });
    let waited = crashed - at(&events, &data_done);
    assert!(
        SimTime::ZERO < waited && waited < L_ABT.mul(2),
        "the crash came {waited} into WF_ABT"
    );
    let bursts = runner.faults.as_ref().expect("a plan").jam_bursts;
    assert!(bursts > 4000, "{bursts} bursts after the crash");
    let held = runner.core.channel.tone_records_held(NodeId(0));
    assert!(held <= 8, "{held} tone records held for the dead node");
    // Forgotten, not lost: the node's antenna was under the ABT for the two
    // reply slots (its receivers live on) and every burst since, the last
    // one up to the end of the run, a propagation delay short of whole.
    let busy = runner
        .core
        .channel
        .tone_busy_ns(NodeId(0), Tone::Abt, cfg.end_time());
    let whole = 2 * L_ABT.nanos() + bursts * 1_000_000;
    assert!(busy <= whole && whole - busy < 250, "{busy} of {whole} ns");
}

/// A frame's first bit is an event only for a node whose MAC can act on a
/// carrier rise. One whose backoff starts while the bit is in flight is still
/// told of it, in the instant it lands; one that never asks reads a busy
/// channel from the onset's key on, with no event dispatched for it.
#[test]
fn a_backoff_that_starts_with_an_onset_in_flight_is_told_of_it() {
    use crate::trace::{TraceEvent, TraceWhat};
    use crate::world::Ev;
    use bytes::Bytes;
    use rmac_core::api::TxRequest;
    use rmac_sim::{SimQueue, SimTime};
    use rmac_wire::{Dest, Frame, NodeId};
    use std::sync::{Arc, Mutex};

    // B is 200 ns from A, C 150 ns.
    let cfg = ScenarioConfig::paper_stationary(5.0).with_positions(vec![
        rmac_mobility::Pos::new(0.0, 0.0),
        rmac_mobility::Pos::new(60.0, 0.0),
        rmac_mobility::Pos::new(0.0, 45.0),
    ]);
    let beacons = BeaconTimetable::build(&cfg, 3);
    let mut runner = whole(Run::new(&cfg, Protocol::Bmmm, 3));
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let sink = events.clone();
    runner.attach(
        None,
        false,
        Some(Box::new(move |e| sink.lock().unwrap().push(e.clone()))),
    );
    // Nothing is seeded: the queue holds this test's events only, and a
    // source tick with no packets left does nothing but move the cursor.
    runner.packets_left = 0;
    let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
    let ns = SimTime::from_nanos;
    let busy = |r: &Runner, node| r.core.channel.data_busy(node, r.core.q.cursor());
    let step = |r: &mut Runner, at| {
        let (t, ev) = r.core.q.pop().expect("a tick");
        assert!(matches!(ev, Ev::Source) && t == at);
        r.dispatch(ev, &beacons);
    };

    // One tick keyed before the onsets, in C's landing instant; the frame;
    // a tick mid-flight and one keyed after C's onset, in the same instant.
    runner.core.q.push(ns(150), Ev::Source);
    let frame = Frame::data_unreliable(a, Dest::Broadcast, Bytes::from_static(b"x"), 1);
    runner.core.channel.start_tx(&mut runner.core.q, a, frame);
    runner.core.q.push(ns(100), Ev::Source);
    runner.core.q.push(ns(150), Ev::Source);
    let stats = runner.core.channel.obs_stats();
    assert_eq!((stats.onsets.records, stats.onsets.scheduled), (2, 0));

    // 100 ns: nothing has landed. B is handed a packet on an idle medium and
    // starts counting its DIFS: the onset on its way is scheduled now.
    step(&mut runner, ns(100));
    assert!(!busy(&runner, b) && !busy(&runner, c));
    let req = TxRequest {
        reliable: false,
        dest: Dest::Broadcast,
        payload: Bytes::from_static(b"y"),
        token: 1,
    };
    runner.submit(b, runner.owned(b), req);
    assert_eq!(runner.core.channel.obs_stats().onsets.catchups, 1);
    // 150 ns, on either side of C's onset.
    step(&mut runner, ns(150));
    assert!(!busy(&runner, c), "keyed before the onset");
    step(&mut runner, ns(150));
    assert!(busy(&runner, c), "keyed after it");
    assert!(!busy(&runner, b));
    // 200 ns: the catch-up event, and B's MAC hears the rise.
    let (t, ev) = runner.core.q.pop().expect("the catch-up");
    assert!(matches!(ev, Ev::Phy(_)) && t == ns(200));
    runner.dispatch(ev, &beacons);
    assert!(busy(&runner, b));
    let rises: Vec<_> = events
        .lock()
        .unwrap()
        .iter()
        .filter(|e| matches!(e.what, TraceWhat::Carrier { busy: true }))
        .map(|e| (e.t, e.node))
        .collect();
    assert_eq!(rises, vec![(ns(200), b)], "B was told, C was not");
    let stats = runner.core.channel.obs_stats();
    assert_eq!(stats.onsets.scheduled + stats.onsets.catchups, 1);
}

#[test]
fn rbt_jammer_forces_mrts_aborts_nearby() {
    use rmac_faults::{FaultPlan, JamTarget, JammerSpec};

    let cfg = ScenarioConfig::paper_stationary(20.0)
        .with_packets(40)
        .with_positions(vec![
            rmac_mobility::Pos::new(0.0, 0.0),
            rmac_mobility::Pos::new(50.0, 0.0),
            rmac_mobility::Pos::new(0.0, 50.0),
        ]);
    // A jammer parked on the sender, holding a false RBT half the time.
    let plan = FaultPlan::none().with_jammer(JammerSpec {
        x: 10.0,
        y: 10.0,
        target: JamTarget::Rbt,
        start_ms: 0,
        period_ms: 20,
        burst_ms: 10,
    });
    let baseline = Run::new(&cfg, Protocol::Rmac, 3).execute().report;
    let jammed = Run::new(&cfg, Protocol::Rmac, 3)
        .faults(&plan)
        .execute()
        .report;
    assert!(jammed.fault_jam_bursts > 50);
    // The false tone must be *observed* as protocol pressure: more MRTS
    // abortions (or deferrals showing up as delay) than the clean run.
    assert!(
        jammed.abort_avg >= baseline.abort_avg,
        "jam {} vs clean {}",
        jammed.abort_avg,
        baseline.abort_avg
    );
    assert!(jammed.e2e_delay_avg_s > baseline.e2e_delay_avg_s);
}

#[test]
fn jsonl_tracer_writes_one_object_per_event() {
    let path = std::env::temp_dir().join("rmac_trace_test.jsonl");
    let cfg = tiny(20.0, 4, 3);
    let sink = crate::JsonlSink::create(&path).expect("create sink");
    let report = Run::new(&cfg, Protocol::Rmac, 2)
        .tracer(sink.tracer())
        .execute()
        .report;
    assert!(report.receptions > 0);
    let summary = sink.finish().expect("flush trace");
    assert_eq!(summary.dropped, 0);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert!(summary.written > 10, "trace has events");
    assert_eq!(text.lines().count() as u64, summary.written);
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_ns\":") && line.ends_with('}'),
            "bad line: {line}"
        );
        assert!(line.contains("\"ev\":\""), "bad line: {line}");
    }
}

#[test]
#[should_panic(expected = "rate_pps must be finite and positive")]
fn zero_rate_is_refused_at_the_front_door() {
    Run::new(&tiny(0.0, 4, 3), Protocol::Rmac, 1);
}

#[test]
#[should_panic(expected = "end time must fit the clock")]
fn an_end_time_past_the_clock_is_refused_at_the_front_door() {
    // Wrapping, it came out as 7.8 · 10¹⁸ ns instead of 10²⁰.
    let cfg = ScenarioConfig::paper_stationary(1e-9).with_packets(100);
    Run::new(&cfg, Protocol::Rmac, 1);
}

#[test]
fn non_finite_and_negative_rates_are_refused() {
    for rate in [-5.0, f64::NAN, f64::INFINITY] {
        let refused = std::panic::catch_unwind(|| Run::new(&tiny(rate, 4, 3), Protocol::Rmac, 1));
        assert!(refused.is_err(), "rate {rate} was accepted");
    }
}

#[test]
fn obs_on_a_decomposable_sharded_run_takes_the_single_group() {
    // Two clusters 300 m apart with a 75 m radio decompose into two groups
    // uninstrumented; attached obs runs them as the one all-shards group.
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(2)
        .with_positions(vec![
            rmac_mobility::Pos::new(50.0, 50.0),
            rmac_mobility::Pos::new(60.0, 50.0),
            rmac_mobility::Pos::new(440.0, 50.0),
            rmac_mobility::Pos::new(450.0, 50.0),
        ]);
    let serial = Run::new(&cfg, Protocol::Rmac, 1).execute().report;
    let cfg = cfg.with_shards(2);
    let bare = Run::new(&cfg, Protocol::Rmac, 1).execute();
    assert_eq!(bare.shard.groups, 2);
    let out = Run::new(&cfg, Protocol::Rmac, 1)
        .obs(crate::ObsConfig::default())
        .execute();
    assert!(out.obs.is_some());
    assert_eq!(out.shard.groups, 1);
    assert_eq!(out.report, serial);
}

#[test]
fn a_single_group_sharded_run_carries_obs() {
    // Mobility forces one group, which instruments like the one-shard run.
    let mut cfg = ScenarioConfig::paper_speed2(10.0)
        .with_nodes(8)
        .with_packets(5);
    cfg.bounds = rmac_mobility::Bounds::new(120.0, 100.0);
    let serial = Run::new(&cfg, Protocol::Rmac, 4)
        .obs(crate::ObsConfig::default())
        .execute();
    let sharded = Run::new(&cfg.clone().with_shards(2), Protocol::Rmac, 4)
        .obs(crate::ObsConfig::default())
        .execute();
    assert_eq!(sharded.report, serial.report);
    assert_eq!(sharded.shard.groups, 1);
    let (a, b) = (serial.obs.expect("obs"), sharded.obs.expect("obs"));
    for class in 0..crate::obs::EVENT_CLASS_LABELS.len() {
        assert_eq!(a.kernel.class_count(class), b.kernel.class_count(class));
    }
    assert_eq!(a.nodes, b.nodes);
}

/// Link arithmetic is done only where it can decide something. A power is
/// worked out for a signal that shares an antenna — a fill that worked one
/// out per receiver would spend one per onset and one per tone record — and
/// a frame end reads the geometry only for a link that began within drift
/// reach of the range edge. Where nothing moves, each kept link's power is
/// worked out once and no frame end looks.
#[test]
fn link_arithmetic_is_done_only_where_it_can_decide() {
    let frame_ends = |runner: &Runner| {
        let t = runner.core.channel.frame_tallies();
        t.rx_ok.iter().chain(&t.rx_corrupt).sum::<u64>()
    };
    let cfg = ScenarioConfig::paper_speed2(10.0).with_packets(100);
    let mut runner = whole(Run::new(&cfg, Protocol::Rmac, 7));
    runner.run_events(&BeaconTimetable::build(&cfg, 7));
    let stats = runner.core.channel.obs_stats();
    assert!(
        stats.path_gains * 4 <= stats.onsets.records,
        "{} path gains for {} onsets",
        stats.path_gains,
        stats.onsets.records
    );
    let ends = frame_ends(&runner);
    assert!(
        stats.frame_end_position_reads * 100 <= ends,
        "{} of {ends} frame ends read the geometry",
        stats.frame_end_position_reads
    );

    let cfg = ScenarioConfig::paper_stationary(20.0).with_packets(50);
    let mut runner = whole(Run::new(&cfg, Protocol::Rmac, 7));
    runner.run_events(&BeaconTimetable::build(&cfg, 7));
    let stats = runner.core.channel.obs_stats();
    assert!(frame_ends(&runner) > 0);
    assert_eq!(stats.path_gains, runner.core.channel.static_links() as u64);
    assert_eq!(stats.frame_end_position_reads, 0);
}

/// The calendar jumps straight to its next occupied window, so a run
/// advances it at most once per event popped. Stepping through every empty
/// 4.096 µs window instead, these runs advanced it 684 716 times for 53 337
/// events (RMAC) and 773 443 times for 97 864 (BMMM).
#[test]
fn the_calendar_advances_at_most_once_per_event() {
    use rmac_sim::SimQueue;

    let cfg = ScenarioConfig::paper_stationary(10.0).with_packets(20);
    for protocol in [Protocol::Rmac, Protocol::Bmmm] {
        let mut runner = whole(Run::new(&cfg, protocol, 1));
        runner.run_events(&BeaconTimetable::build(&cfg, 1));
        let q = &runner.core.q;
        let (advances, events) = (q.rotations(), q.total_popped());
        assert!(
            advances <= events,
            "{protocol:?}: {advances} window advances for {events} events"
        );
    }
}

/// BLESS-lite has one cadence: `BlessConfig::default()` is what every node
/// stack runs, and the timetable of a run beacons at its period.
#[test]
fn the_timetable_beacons_at_the_bless_default_cadence_and_covers_the_run() {
    let bless = BlessConfig::default();
    assert_eq!(
        (bless.beacon_period, bless.freshness, bless.root),
        (
            SimTime::from_millis(500),
            SimTime::from_millis(1600),
            NodeId(0)
        )
    );
    let cfg = ScenarioConfig::paper_stationary(5.0)
        .with_nodes(8)
        .with_packets(10);
    let (period, end) = (bless.beacon_period, cfg.end_time());
    let table = BeaconTimetable::build(&cfg, 42);
    assert_eq!(table.first.len(), 8);
    for node in (0..8).map(NodeId) {
        let per_node = fires(&table, node);
        // Initial stagger inside one period, then strictly increasing
        // steps of period..period+jitter.
        assert!(per_node[0] < period);
        for w in per_node.windows(2) {
            let step = w[1] - w[0];
            assert!(step >= period);
            assert!(step < period + SimTime::from_nanos(BEACON_JITTER_NS));
        }
        // The table runs past the end of the run (last entry is the
        // never-dispatched successor), and keeps no spare jitter slot.
        assert!(*per_node.last().unwrap() > end);
        assert!(per_node[per_node.len() - 2] <= end);
        let jitters = &table.jitters[node.idx()];
        assert_eq!(jitters.capacity(), jitters.len());
    }
}

/// Every fire time of `node` the table covers, the never-dispatched
/// successor last.
fn fires(table: &BeaconTimetable, node: NodeId) -> Vec<SimTime> {
    let mut at = table.first(node);
    let mut fires = vec![at];
    for fire in 0..table.jitters[node.idx()].len() as u32 {
        at = table.next(node, fire, at);
        fires.push(at);
    }
    fires
}

/// The timetable as it was built when it kept every absolute fire time,
/// kept verbatim as the oracle for the jitter form.
fn absolute_fire_times(cfg: &ScenarioConfig, seed: u64) -> Vec<Vec<SimTime>> {
    use rmac_sim::{EventQueue, SimQueue, SimRng};

    let (period, end) = (BlessConfig::default().beacon_period, cfg.end_time());
    let mut sched = SimRng::new(seed).split(3);
    let mut times: Vec<Vec<SimTime>> = vec![Vec::new(); cfg.nodes];
    let mut beacons: EventQueue<u16> = EventQueue::with_capacity(cfg.nodes.max(16));
    // Stagger the first beacons uniformly over one period, drawn in
    // node order, so the network does not start in lockstep.
    for (i, t) in times.iter_mut().enumerate() {
        let at = SimTime::from_nanos(sched.below(period.nanos().max(1)));
        t.push(at);
        beacons.push(at, i as u16);
    }
    // Play the dispatches out up to the end of the run (a beacon past
    // it never dispatches): one jitter draw each, in dispatch order,
    // simultaneous beacons FIFO. A run drawing from the stream at each
    // dispatch — how `tests/golden/` was recorded — consumes it in
    // this order too: a beacon is pushed at its predecessor's
    // dispatch, and events of other kinds neither draw from the
    // stream nor reorder beacons.
    while let Some((t, node)) = SimQueue::pop_at_or_before(&mut beacons, end) {
        let jitter = SimTime::from_nanos(sched.below(BEACON_JITTER_NS));
        let next = t + period + jitter;
        times[node as usize].push(next);
        beacons.push(next, node);
    }
    times
}

/// The jitter form gives every node the absolute table's fires: stationary,
/// under speed-2 mobility, beside a jammer and at the eight-cell layout's
/// 2 000 nodes and length. Where the run is one group its beacons are traced
/// too: each node sends one at every fire the table dispatches, and at no
/// other time.
#[test]
fn the_jitter_timetable_fires_as_the_absolute_one_did() {
    use rmac_faults::{FaultPlan, JamTarget, JammerSpec};
    use std::sync::{Arc, Mutex};

    use crate::trace::TraceWhat;

    let jammer = FaultPlan::none().with_jammer(JammerSpec {
        x: 250.0,
        y: 150.0,
        target: JamTarget::Data,
        start_ms: 0,
        period_ms: 20,
        burst_ms: 5,
    });
    let stationary = ScenarioConfig::paper_stationary(20.0);
    let cells = stationary.clone().with_nodes(2000).with_packets(300);
    let cases = [
        (stationary.clone().with_packets(200), FaultPlan::none(), 1),
        (
            ScenarioConfig::paper_speed2(10.0).with_packets(100),
            FaultPlan::none(),
            7,
        ),
        (stationary.with_packets(100), jammer, 3),
        (cells, FaultPlan::none(), 0x75AA),
    ];
    for (cfg, plan, seed) in cases {
        let table = BeaconTimetable::build(&cfg, seed);
        let oracle = absolute_fire_times(&cfg, seed);
        assert_eq!(table.first.len(), cfg.nodes);
        for (node, expected) in oracle.iter().enumerate() {
            assert_eq!(&fires(&table, NodeId(node as u16)), expected, "node {node}");
        }
        if cfg.nodes > 75 {
            continue;
        }
        let sent: Arc<Mutex<Vec<(NodeId, SimTime)>>> = Arc::default();
        let sink = sent.clone();
        Run::new(&cfg, Protocol::Rmac, seed)
            .faults(&plan)
            .tracer(Box::new(move |e| {
                if let TraceWhat::Submit {
                    reliable: false, ..
                } = e.what
                {
                    sink.lock().unwrap().push((e.node, e.t));
                }
            }))
            .execute();
        let mut sent = std::mem::take(&mut *sent.lock().unwrap());
        sent.sort();
        let mut dispatched: Vec<(NodeId, SimTime)> = Vec::new();
        for (node, times) in oracle.iter().enumerate() {
            let due = times.iter().filter(|&&t| t <= cfg.end_time());
            dispatched.extend(due.map(|&t| (NodeId(node as u16), t)));
        }
        assert_eq!(sent, dispatched);
    }
}

/// A beacon the table holds no next fire for is off its timetable.
#[test]
#[should_panic(expected = "beacon off its timetable")]
fn a_fire_the_table_does_not_cover_is_off_its_timetable() {
    let cfg = ScenarioConfig::paper_stationary(5.0)
        .with_nodes(3)
        .with_packets(5);
    let table = BeaconTimetable::build(&cfg, 9);
    let covered = table.jitters[1].len() as u32;
    table.next(NodeId(1), covered, cfg.end_time());
}

/// The report's delay and MRTS folds. A node's delays are summed in integer
/// nanoseconds, checked against a `u128` sum of the samples and against the
/// mean of their seconds summed in node order, as the report once took it.
/// A node's MRTSs are counted per receiver count, checked against the
/// expressions they replaced, kept verbatim: flatten every node's lengths
/// into one `Vec<f64>`, then take its mean, nearest-rank 99th percentile
/// and maximum.
mod report_folds {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rmac_core::MacCounters;
    use rmac_metrics::percentile;
    use rmac_net::AppStats;
    use rmac_wire::airtime::mrts_len;

    use crate::world::{delay_avg_s, mrts_stats};

    /// Delays in nanoseconds, spread over six decades up to 100 s.
    fn delay_ns() -> impl Strategy<Value = u64> {
        (0u64..1_000_000_000, 0u32..6).prop_map(|(x, k)| x * 10u64.pow(k) / 1000)
    }

    /// Each node's stats as its network layer keeps them.
    fn stats(delays_per_node: &[Vec<u64>]) -> Vec<AppStats> {
        let stats = |delays: &Vec<u64>| AppStats {
            received: delays.len() as u64,
            delay_sum_ns: delays.iter().sum(),
            ..AppStats::default()
        };
        delays_per_node.iter().map(stats).collect()
    }

    /// The mean of the samples' exact `u128` sum, to the bit, and its count.
    fn delay_mean_is_the_exact_one(delays_per_node: &[Vec<u64>]) -> (f64, u64) {
        let (avg, n) = delay_avg_s(stats(delays_per_node).iter());
        let samples = delays_per_node.iter().flatten();
        let exact: u128 = samples.clone().map(|&d| u128::from(d)).sum();
        assert_eq!(n, samples.count() as u64);
        let mean = if n == 0 {
            0.0
        } else {
            exact as f64 / 1e9 / n as f64
        };
        assert_eq!(avg.to_bits(), mean.to_bits(), "{delays_per_node:?}");
        (avg, n)
    }

    /// The count form's fold against the flattened lengths, to the bit.
    fn mrts_fold_matches_the_flattened_lengths(receivers_per_node: &[Vec<usize>]) {
        let counters: Vec<MacCounters> = receivers_per_node
            .iter()
            .map(|receivers| {
                let mut c = MacCounters::default();
                for &k in receivers {
                    c.count_mrts(k);
                }
                c
            })
            .collect();
        let mut lengths: Vec<f64> = Vec::new();
        for receivers in receivers_per_node {
            lengths.extend(receivers.iter().map(|&k| mrts_len(k) as f64));
        }
        let mean = if lengths.is_empty() {
            0.0
        } else {
            lengths.iter().sum::<f64>() / lengths.len() as f64
        };

        let (len_avg, len_p99, len_max) =
            mrts_stats(counters.iter().map(|c| c.mrts_by_receivers.as_slice()));
        assert_eq!(len_avg.to_bits(), mean.to_bits(), "{receivers_per_node:?}");
        assert_eq!(
            len_p99.to_bits(),
            percentile(&lengths, 99.0).to_bits(),
            "{receivers_per_node:?}"
        );
        assert_eq!(
            len_max.to_bits(),
            lengths.iter().fold(0.0f64, |a, &b| a.max(b)).to_bits(),
            "{receivers_per_node:?}"
        );
    }

    /// Nodes that received nothing, between and after ones that did, and a
    /// paper-scale sum: 740 000 receptions of 13.5 s past the knee, about
    /// 10¹⁶ ns.
    #[test]
    fn delays_fold_over_silent_nodes_and_paper_scale_sums() {
        assert_eq!(delay_mean_is_the_exact_one(&[]), (0.0, 0));
        assert_eq!(delay_mean_is_the_exact_one(&[vec![], vec![]]), (0.0, 0));
        delay_mean_is_the_exact_one(&[vec![], vec![2_000_000_000, 7], vec![], vec![1]]);
        let paper = vec![vec![13_500_000_000u64; 10_000]; 74];
        let (avg, n) = delay_mean_is_the_exact_one(&paper);
        assert_eq!((avg, n), (13.5, 740_000));
    }

    /// Nodes that sent no MRTS, between and after ones that did, and
    /// receiver counts past Fig. 12's 20 (the X3 ablation runs 40).
    #[test]
    fn mrts_counts_fold_over_silent_nodes_and_wide_groups() {
        mrts_fold_matches_the_flattened_lengths(&[]);
        mrts_fold_matches_the_flattened_lengths(&[vec![], vec![]]);
        mrts_fold_matches_the_flattened_lengths(&[vec![], vec![40, 1, 21], vec![], vec![3]]);
        mrts_fold_matches_the_flattened_lengths(&[vec![21; 99], vec![], vec![40]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streamed_folds_equal_their_oracles(
            // The small shapes give no node, empty nodes, no sample at all
            // and a single sample often.
            delays_per_node in prop_oneof![
                vec(vec(delay_ns(), 0..2), 0..3),
                vec(vec(delay_ns(), 0..24), 0..12),
            ],
            receivers_per_node in prop_oneof![
                vec(vec(1usize..=40, 0..2), 0..3),
                vec(vec(1usize..=40, 0..16), 0..12),
            ],
        ) {
            let (avg, n) = delay_mean_is_the_exact_one(&delays_per_node);
            // Against the per-sample seconds summed in node order: each
            // sample's seconds and each partial sum round by up to ε/2, the
            // exact sum's mean three times in all, so the two means part by
            // at most (n/2 + 2)·ε of the mean, within n·ε from n = 4 on.
            let mut seconds = 0.0f64;
            for d in delays_per_node.iter().flatten() {
                seconds += *d as f64 / 1e9;
            }
            let sequential = if n == 0 { 0.0 } else { seconds / n as f64 };
            let bound = (n as f64 / 2.0 + 2.0) * f64::EPSILON * sequential;
            prop_assert!(
                (avg - sequential).abs() <= bound,
                "{avg} against {sequential}, bound {bound}"
            );
            mrts_fold_matches_the_flattened_lengths(&receivers_per_node);
        }
    }
}

/// Tone busy time is folded only where an obs report reads it. A detached
/// replication forgets its tone records as they crowd, folding none of them;
/// an obs-attached one folds them and reports per node what the engine did
/// when every channel folded (pinned from the commit before the fold was
/// gated).
#[test]
fn tone_busy_time_is_folded_only_under_obs() {
    use crate::obs::ObsConfig;

    let cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(15)
        .with_packets(50);
    let run = |obs: Option<ObsConfig>| {
        let mut runner = whole(Run::new(&cfg, Protocol::Rmac, 7).obs(obs));
        runner.run_events(&BeaconTimetable::build(&cfg, 7));
        runner
    };

    let detached = run(None).core.channel;
    let phy = detached.obs_stats();
    let held: usize = (0..15).map(|i| detached.tone_records_held(NodeId(i))).sum();
    assert!(
        (held as u64) < phy.tones.records / 4,
        "{held} of {} tone records held: they were forgotten",
        phy.tones.records
    );
    assert_eq!(phy.busy_folds, 0);

    let mut watched = run(Some(ObsConfig::default()));
    let folds = watched.core.channel.obs_stats().busy_folds;
    assert!(folds > 100, "{folds} busy-time folds under obs");
    let busy: Vec<[u64; 2]> = (watched.finish().1.expect("obs attached").nodes)
        .iter()
        .map(|n| n.tone_busy_ns)
        .collect();
    assert_eq!(
        busy,
        [
            [111_265_200, 4_236_200],
            [222_575_009, 7_627_900],
            [222_500_000, 1_700_000],
            [222_570_432, 6_793_650],
            [222_571_573, 6_790_750],
            [222_575_037, 6_787_050],
            [111_258_650, 1_691_350],
            [111_250_000, 850_000],
            [222_576_866, 7_632_550],
            [333_763_000, 8_488_500],
            [222_570_674, 7_647_100],
            [222_577_216, 7_634_300],
            [445_006_450, 5_096_150],
            [111_250_000, 850_000],
            [222_568_499, 6_791_850],
        ]
    );
}

/// The RBT a sender sensed is read off the channel only for a reader that
/// asks for it: the checker asks once per `tx_start`, and obs and a tracer
/// never, each fed through the engine's one outlet.
#[test]
fn only_the_checker_reads_the_rbt_a_sender_sensed() {
    use crate::obs::{Attached, ObsConfig};
    use crate::trace::{TraceEvent, TraceWhat};
    use rmac_phy::{Reader, Sensing};
    use rmac_wire::Frame;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    /// An attached reader, with the `tx_start`s it was shown and the RBT
    /// logs it asked for.
    struct Counted(Attached, Arc<[AtomicU64; 2]>);

    impl Reader for Counted {
        fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, sensed: &mut Sensing<'_>) {
            let [starts, asked] = &*self.1;
            starts.fetch_add(matches!(ev.what, TraceWhat::TxStart { .. }).into(), Relaxed);
            let mut counted = |node, over| {
                asked.fetch_add(1, Relaxed);
                sensed(node, over)
            };
            self.0.on_event(ev, &mut counted);
        }
    }

    let cfg = tiny(20.0, 8, 30);
    let run = |check: bool| {
        let mut runner = whole(Run::new(&cfg, Protocol::Rmac, 7).obs(ObsConfig::default()));
        runner.attach(None, check, Some(Box::new(|_: &TraceEvent| {})));
        let mut counts = Vec::new();
        for reader in std::mem::take(&mut runner.core.readers) {
            counts.push(Arc::new([AtomicU64::new(0), AtomicU64::new(0)]));
            let counted = Counted(reader, Arc::clone(counts.last().unwrap()));
            runner.core.readers.push(Attached::Other(Box::new(counted)));
        }
        runner.run_events(&BeaconTimetable::build(&cfg, 7));
        let read = |c: &Arc<[AtomicU64; 2]>| c.each_ref().map(|n| n.load(Relaxed));
        counts.iter().map(read).collect::<Vec<_>>()
    };
    // Obs and the tracer, then obs, the checker and the tracer.
    let unchecked = run(false);
    let starts = unchecked[0][0];
    assert!(starts > 100, "{starts} transmission starts");
    assert_eq!(unchecked, [[starts, 0], [starts, 0]]);
    assert_eq!(run(true), [[starts, 0], [starts, starts], [starts, 0]]);
}
