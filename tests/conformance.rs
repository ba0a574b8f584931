//! The conformance checker against real replications: every protocol's
//! full stack must satisfy the invariant catalogue (DESIGN.md §9) on
//! clean, faulty and mobile scenarios — and the deliberately broken
//! mutant must be caught.

use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec, JamTarget, JammerSpec, SkewSpec};
use rmac::mobility::{Bounds, Pos};
use rmac::prelude::*;

mod common;
use common::{checked, verdict};

fn small(rate: f64, nodes: usize, packets: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(rate)
        .with_nodes(nodes)
        .with_packets(packets);
    cfg.bounds = Bounds::new(110.0, 90.0);
    cfg
}

/// C1–C5 hold for every protocol on a clean small network; the panic
/// inside `checked` is the assertion.
#[test]
fn every_protocol_is_conformant_on_clean_runs() {
    let cfg = small(10.0, 6, 15);
    for p in [
        Protocol::Rmac,
        Protocol::RmacNoRbt,
        Protocol::Bmmm,
        Protocol::Bmw,
        Protocol::Lbp,
        Protocol::Mx80211,
    ] {
        let r = checked(&cfg, p, 3);
        assert!(r.delivery_ratio() > 0.5, "{}", r.protocol);
    }
}

/// The checker's liveness counters prove it actually examined traffic.
#[test]
fn checker_sees_traffic_and_transitions() {
    let cfg = small(20.0, 6, 20);
    let (run, check) = verdict(&cfg, Protocol::Rmac, 7, &FaultPlan::none());
    assert!(check.is_clean(), "{}", check.summary());
    assert!(check.tx_checked > run.packets_sent, "{}", check.tx_checked);
    assert!(check.rx_ok_checked > 0);
    assert!(check.tone_emissions > 0, "RMAC must emit tones");
    assert_eq!(check.transition_nodes, 6, "all nodes C4-validated");
}

/// An attached checker never perturbs the run: bit-identical reports.
#[test]
fn checked_runs_are_bit_identical_to_unchecked() {
    let cfg = small(40.0, 8, 40);
    for p in [Protocol::Rmac, Protocol::Bmmm] {
        let plain = Run::new(&cfg, p, 11).execute().report;
        let watched = checked(&cfg, p, 11);
        assert_eq!(plain.events, watched.events, "{}", plain.protocol);
        assert_eq!(plain.receptions, watched.receptions);
        assert_eq!(plain.e2e_delay_avg_s, watched.e2e_delay_avg_s);
        assert_eq!(plain.tx_frames, watched.tx_frames);
        assert_eq!(plain.rx_frames_ok, watched.rx_frames_ok);
    }
}

/// The deliberately broken MAC — reliable data transmitted without the
/// WF_RBT λ-detection — is caught by C1 (the ISSUE's acceptance mutant).
#[test]
fn skip_rbt_sense_mutant_is_caught_by_c1() {
    // Corrupt some MRTSes so the mutant path (no receiver answered, data
    // sent anyway) actually runs.
    let plan = FaultPlan {
        bursty: Some(BurstySpec {
            mean_good_ms: 300.0,
            mean_bad_ms: 300.0,
            loss_good: 0.05,
            loss_bad: 0.9,
        }),
        ..FaultPlan::none()
    };
    let cfg = small(20.0, 6, 30);
    let (_, check) = verdict(&cfg, Protocol::RmacSkipRbtSense, 5, &plan);
    assert!(
        check.count(Invariant::C1RbtProtection) > 0,
        "mutant not caught: {}",
        check.summary()
    );
    // The same seeds and faults with the real MAC stay clean.
    let (_, clean) = verdict(&cfg, Protocol::Rmac, 5, &plan);
    assert!(clean.is_clean(), "{}", clean.summary());
}

/// Conformance holds under the full fault plane: corruption bursts, node
/// churn, tone jamming and clock skew at once.
#[test]
fn conformance_holds_under_faults() {
    let plan = FaultPlan {
        salt: 0,
        bursty: Some(BurstySpec::moderate()),
        churn: vec![ChurnSpec {
            node: 3,
            kind: ChurnKind::Crash,
            at_ms: 6_000,
            for_ms: 1_500,
        }],
        jammers: vec![JammerSpec {
            x: 55.0,
            y: 45.0,
            target: JamTarget::Rbt,
            start_ms: 7_000,
            period_ms: 400,
            burst_ms: 40,
        }],
        skew: vec![SkewSpec {
            node: 2,
            ppm: 150.0,
        }],
    };
    let cfg = small(10.0, 8, 25);
    for p in [Protocol::Rmac, Protocol::Bmmm] {
        let (_, check) = verdict(&cfg, p, 13, &plan);
        assert!(check.is_clean(), "{p:?}: {}", check.summary());
    }
}

/// Conformance holds with mobility (the paper's speed-1 scenario).
#[test]
fn conformance_holds_under_mobility() {
    let mut cfg = ScenarioConfig::paper_speed1(10.0)
        .with_nodes(10)
        .with_packets(20);
    cfg.bounds = Bounds::new(150.0, 120.0);
    let r = checked(&cfg, Protocol::Rmac, 6);
    assert!(r.delivery_ratio() > 0.3);
}

/// Mini versions of the paper's figure scenarios (fig6 tree stats, fig7+
/// delivery sweeps at several rates, fig12 MRTS lengths on a star) with
/// the checker attached.
#[test]
fn mini_figure_scenarios_are_conformant() {
    // fig6/fig7-style: stationary sweep points.
    for rate in [5.0, 40.0] {
        let cfg = small(rate, 8, 15);
        checked(&cfg, Protocol::Rmac, 1);
        checked(&cfg, Protocol::Bmmm, 1);
    }
    // fig12-style: star fanout drives long MRTS frames + many ABT slots.
    let mut positions = vec![Pos::new(25.0, 25.0)];
    for i in 0..8 {
        let angle = i as f64 * std::f64::consts::TAU / 8.0;
        positions.push(Pos::new(
            25.0 + 20.0 * angle.cos(),
            25.0 + 20.0 * angle.sin(),
        ));
    }
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(20)
        .with_positions(positions);
    let r = checked(&cfg, Protocol::Rmac, 2);
    assert!(r.mrts_len_max >= (12 + 6 * 8) as f64);
    // fig13-style: a multihop chain (hidden terminals at every hop).
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(20)
        .with_chain(4, 70.0);
    checked(&cfg, Protocol::Rmac, 0);
}
