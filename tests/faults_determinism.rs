//! The fault plane's two determinism laws (property-based).
//!
//! 1. **Identity**: a `Run` with `.faults(&FaultPlan::none())` is
//!    bit-identical to one without — wiring
//!    the fault plane in cannot perturb a fault-free simulation.
//! 2. **Reproducibility**: the same seed and the same (non-trivial) plan
//!    produce the same report, field for field, on every run.

use proptest::prelude::*;
use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac::prelude::*;

mod common;
use common::{faulted, verdict};

/// A small-but-live scenario so each property case stays fast, on the
/// paper's full plane, where the jammer of [`full_plan`] sits mid-field.
fn cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(15)
        .with_packets(8);
    cfg.bounds = rmac::mobility::Bounds::PAPER;
    cfg
}

/// A plan exercising every fault class at once.
fn full_plan(salt: u64) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .with_bursty(BurstySpec::moderate())
        .with_churn(ChurnSpec {
            node: 3,
            kind: ChurnKind::Crash,
            at_ms: 1_500,
            for_ms: 1_000,
        })
        .with_churn(ChurnSpec {
            node: 5,
            kind: ChurnKind::Deaf,
            at_ms: 1_000,
            for_ms: 2_000,
        })
        .with_jammer(JammerSpec {
            x: 250.0,
            y: 150.0,
            target: JamTarget::Rbt,
            start_ms: 500,
            period_ms: 40,
            burst_ms: 8,
        })
        .with_skew(SkewSpec {
            node: 7,
            ppm: 150.0,
        });
    plan.salt = salt;
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn empty_plan_is_bit_identical_to_no_injector(seed in 0u64..256) {
        let base = Run::new(&cfg(), Protocol::Rmac, seed).execute().report;
        let empty = faulted(&cfg(), Protocol::Rmac, seed, &FaultPlan::none());
        prop_assert_eq!(&base, &empty);
        prop_assert_eq!(empty.faults_injected, 0);
        prop_assert_eq!(empty.fault_crashes, 0);
        prop_assert_eq!(empty.fault_jam_bursts, 0);
    }

    #[test]
    fn same_seed_same_plan_reproduces(seed in 0u64..256, salt in 0u64..16) {
        let plan = full_plan(salt);
        let a = faulted(&cfg(), Protocol::Rmac, seed, &plan);
        let b = faulted(&cfg(), Protocol::Rmac, seed, &plan);
        prop_assert_eq!(&a, &b);
        // The plan is non-trivial: crashes must have been executed and
        // jam bursts emitted.
        prop_assert_eq!(a.fault_crashes, 1);
        prop_assert!(a.fault_jam_bursts > 0);
    }
}

/// A crash landing *mid-exchange* — while a reliable data frame is still
/// on the air toward the crashing receiver — must neither wedge the MAC
/// nor break a single conformance invariant, and must stay reproducible.
///
/// The crash time is trace-guided rather than hand-picked: a scout run
/// finds the first reliable data transmission after warmup, and the churn
/// window opens at the floor-millisecond of its completion. A 500-byte
/// data frame occupies the air for 2 208 µs, so that millisecond is
/// guaranteed to fall inside the frame's flight time.
#[test]
fn restart_during_inflight_exchange_is_safe_and_conformant() {
    use std::sync::{Arc, Mutex};

    use rmac::engine::{filter_tracer, TraceEvent, Tracer};
    use rmac::mobility::Pos;

    let scenario = ScenarioConfig::paper_stationary(10.0)
        .with_packets(6)
        .with_positions(vec![
            Pos::new(0.0, 0.0),
            Pos::new(60.0, 0.0),
            Pos::new(0.0, 60.0),
            Pos::new(60.0, 60.0),
        ]);

    // Scout: find when the first reliable data frame finishes sending.
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    let inner: Tracer = Box::new(move |e| sink.lock().unwrap().push(e.clone()));
    Run::new(&scenario, Protocol::Rmac, 21)
        .tracer(filter_tracer(TraceLevel::Frames, inner))
        .execute();
    let data_done_ms = events
        .lock()
        .unwrap()
        .iter()
        .find_map(|e| match &e.what {
            rmac::engine::TraceWhat::TxDone {
                frame,
                aborted: false,
            } if frame.kind == rmac::wire::FrameKind::DataReliable => Some(e.t.nanos() / 1_000_000),
            _ => None,
        })
        .expect("scout run sent reliable data");

    // Crash receiver 1 inside that frame's flight, restart it 800 ms later.
    let mut plan = FaultPlan::none().with_churn(ChurnSpec {
        node: 1,
        kind: ChurnKind::Crash,
        at_ms: data_done_ms,
        for_ms: 800,
    });
    plan.salt = 5;

    let (a, check) = verdict(&scenario, Protocol::Rmac, 21, &plan);
    assert!(check.is_clean(), "mid-exchange crash violated:\n{check:?}");
    assert_eq!(a.fault_crashes, 1, "the crash window executed");
    let (b, _) = verdict(&scenario, Protocol::Rmac, 21, &plan);
    assert_eq!(a, b, "mid-exchange crash must stay deterministic");
    // The other three nodes keep the network alive through the outage.
    assert!(a.packets_sent > 0);
}

/// A jammer whose first burst opens at t = 0 — before any node has sent a
/// frame, during PHY/MAC bring-up — must be applied cleanly: deterministic,
/// conformant, and actually emitting bursts from the very first event.
#[test]
fn jammer_active_at_time_zero_is_safe() {
    let scenario = cfg();
    let mut plan = FaultPlan::none().with_jammer(JammerSpec {
        x: 250.0,
        y: 150.0,
        target: JamTarget::Rbt,
        start_ms: 0,
        period_ms: 50,
        burst_ms: 10,
    });
    plan.salt = 3;

    let (a, check) = verdict(&scenario, Protocol::Rmac, 17, &plan);
    assert!(check.is_clean(), "t=0 jammer violated:\n{check:?}");
    assert!(a.fault_jam_bursts > 0, "bursts were emitted");
    let (b, _) = verdict(&scenario, Protocol::Rmac, 17, &plan);
    assert_eq!(a, b, "t=0 jammer must stay deterministic");

    // Same property on the data channel, where the burst raises carrier
    // instead of a tone.
    let mut data_plan = FaultPlan::none().with_jammer(JammerSpec {
        x: 250.0,
        y: 150.0,
        target: JamTarget::Data,
        start_ms: 0,
        period_ms: 50,
        burst_ms: 10,
    });
    data_plan.salt = 3;
    let (c, check) = verdict(&scenario, Protocol::Rmac, 17, &data_plan);
    assert!(check.is_clean(), "t=0 data jammer violated:\n{check:?}");
    assert!(c.fault_jam_bursts > 0);
}

/// The JSON round trip composes with the runner: a plan that survives
/// serialisation drives the identical simulation.
#[test]
fn json_roundtripped_plan_reproduces() {
    let plan = full_plan(9);
    let back = FaultPlan::from_json(&plan.to_json()).expect("roundtrip");
    assert_eq!(plan, back);
    let a = faulted(&cfg(), Protocol::Rmac, 11, &plan);
    let b = faulted(&cfg(), Protocol::Rmac, 11, &back);
    assert_eq!(a, b);
}
