//! Cross-crate integration tests through the `rmac` facade: full node
//! stacks (mobility → PHY → MAC → BLESS-lite → multicast app) on small
//! networks.

use rmac::mobility::{Bounds, Pos};
use rmac::prelude::*;

mod common;
// Every integration run doubles as a conformance run: `checked` asserts
// the C1–C5 invariants (rmac-check) over the whole trace.
use common::checked;

fn small(rate: f64, nodes: usize, packets: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(rate)
        .with_nodes(nodes)
        .with_packets(packets);
    cfg.bounds = Bounds::new(110.0, 90.0);
    cfg
}

#[test]
fn facade_reexports_work_end_to_end() {
    let cfg = small(20.0, 8, 40);
    let report = checked(&cfg, Protocol::Rmac, 42);
    assert!(
        report.delivery_ratio() > 0.95,
        "{}",
        report.delivery_ratio()
    );
}

#[test]
fn every_protocol_runs_through_the_facade() {
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
        assert!(
            r.delivery_ratio() > 0.5,
            "{} delivered only {}",
            r.protocol,
            r.delivery_ratio()
        );
        assert!(r.events > 100);
    }
}

#[test]
fn multihop_chain_delivers() {
    // A five-hop chain: every packet must traverse every hop.
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(40)
        .with_chain(5, 70.0);
    // Average a few seeds: a single replication of a 5-hop chain sits
    // right at the 0.9 threshold on unlucky backoff draws.
    let delivery: f64 = (0..4)
        .map(|seed| checked(&cfg, Protocol::Rmac, seed).delivery_ratio())
        .sum::<f64>()
        / 4.0;
    assert!(delivery > 0.9, "chain delivery {delivery}");
    let r = checked(&cfg, Protocol::Rmac, 0);
    // The deepest node is 5 hops out.
    assert!(r.hops_p99 >= 5.0, "hops p99 {}", r.hops_p99);
}

#[test]
fn partitioned_network_loses_exactly_the_far_side() {
    // Two nodes close together, one unreachable island far away.
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(50.0, 0.0),
        Pos::new(400.0, 0.0),
    ];
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(30)
        .with_positions(positions);
    let r = checked(&cfg, Protocol::Rmac, 1);
    // Expected = 30 × 2; only node 1 is reachable → ratio ≈ 0.5.
    assert_eq!(r.expected_receptions, 60);
    assert!(
        (r.delivery_ratio() - 0.5).abs() < 0.05,
        "ratio {}",
        r.delivery_ratio()
    );
}

#[test]
fn determinism_holds_across_the_full_stack() {
    let cfg = small(40.0, 10, 60);
    for p in [Protocol::Rmac, Protocol::Bmmm] {
        let a = checked(&cfg, p, 9);
        let b = checked(&cfg, p, 9);
        assert_eq!(a.events, b.events, "{}", a.protocol);
        assert_eq!(a.receptions, b.receptions);
        assert_eq!(a.e2e_delay_avg_s, b.e2e_delay_avg_s);
        assert_eq!(a.mrts_len_avg, b.mrts_len_avg);
    }
}

#[test]
fn rmac_outperforms_bmmm_on_overhead() {
    // The paper's headline efficiency claim at small scale: RMAC's control
    // overhead ratio is a fraction of BMMM's on identical topologies.
    let cfg = small(20.0, 10, 60);
    let rmac = checked(&cfg, Protocol::Rmac, 4);
    let bmmm = checked(&cfg, Protocol::Bmmm, 4);
    assert!(
        rmac.txoh_ratio_avg < bmmm.txoh_ratio_avg,
        "RMAC {} vs BMMM {}",
        rmac.txoh_ratio_avg,
        bmmm.txoh_ratio_avg
    );
}

#[test]
fn mrts_lengths_track_fanout() {
    // A star topology: the root multicasts to many children at once, so
    // MRTS frames grow with 6 bytes per receiver (Fig. 3 / Fig. 12).
    let mut positions = vec![Pos::new(25.0, 25.0)];
    for i in 0..8 {
        let angle = i as f64 * std::f64::consts::TAU / 8.0;
        positions.push(Pos::new(
            25.0 + 20.0 * angle.cos(),
            25.0 + 20.0 * angle.sin(),
        ));
    }
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(30)
        .with_positions(positions);
    let r = checked(&cfg, Protocol::Rmac, 2);
    assert!(
        r.mrts_len_max >= (12 + 6 * 8) as f64,
        "max MRTS {} B",
        r.mrts_len_max
    );
    assert!(r.delivery_ratio() > 0.95);
}

#[test]
fn wire_constants_respect_paper_arithmetic() {
    use rmac::wire::airtime;
    // Section 2 checkpoints reachable through the facade.
    assert_eq!(airtime::bmmm_control_cost(1), SimTime::from_micros(632));
    assert_eq!(airtime::mrts_len(5), 42);
    assert_eq!(airtime::max_receivers_by_abt_window(), 20);
}

#[test]
fn mobile_full_stack_smoke() {
    let mut cfg = ScenarioConfig::paper_speed1(10.0)
        .with_nodes(12)
        .with_packets(30);
    cfg.bounds = Bounds::new(150.0, 120.0);
    let r = checked(&cfg, Protocol::Rmac, 6);
    assert!(r.delivery_ratio() > 0.4, "{}", r.delivery_ratio());
    assert!(r.sim_secs > 10.0);
}
