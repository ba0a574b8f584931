//! End-to-end property tests: invariants that must hold for *any* small
//! random scenario, protocol and seed.

use proptest::prelude::*;
use rmac::mobility::Bounds;
use rmac::prelude::*;

mod common;
use common::checked;

fn any_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Rmac),
        Just(Protocol::RmacNoRbt),
        Just(Protocol::Bmmm),
        Just(Protocol::Bmw),
        Just(Protocol::Lbp),
        Just(Protocol::Mx80211),
    ]
}

proptest! {
    // Full-stack runs are expensive; a handful of random cases per build
    // is plenty — regressions in these invariants are gross, not subtle.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn run_invariants_hold(
        protocol in any_protocol(),
        nodes in 3usize..10,
        rate_x10 in 50u64..600,  // 5..60 pkt/s
        packets in 5u64..25,
        seed in 0u64..1000,
    ) {
        let mut cfg = ScenarioConfig::paper_stationary(rate_x10 as f64 / 10.0)
            .with_nodes(nodes)
            .with_packets(packets);
        cfg.bounds = Bounds::new(120.0, 100.0);
        // Conformance rides along: `checked` asserts C1–C5 on the run.
        let r = checked(&cfg, protocol, seed);

        // Conservation: you cannot deliver more than was addressed.
        prop_assert!(r.receptions <= r.expected_receptions);
        prop_assert_eq!(r.expected_receptions, r.packets_sent * (nodes as u64 - 1));
        prop_assert!(r.packets_sent <= packets);

        // Ratios live in [0, 1] where they are ratios of counts.
        let d = r.delivery_ratio();
        prop_assert!((0.0..=1.0).contains(&d), "delivery {}", d);
        prop_assert!((0.0..=1.0).contains(&r.drop_ratio_avg));
        prop_assert!((0.0..=1.0).contains(&r.abort_avg));
        prop_assert!(r.abort_avg <= r.abort_p99 + 1e-12);
        prop_assert!(r.abort_p99 <= r.abort_max + 1e-12);

        // Delays are positive and bounded by the simulated horizon.
        prop_assert!(r.e2e_delay_avg_s >= 0.0);
        prop_assert!(r.e2e_delay_avg_s <= r.sim_secs);

        // MRTS lengths obey Fig. 3 bounds when any were sent.
        if r.mrts_len_avg > 0.0 {
            prop_assert!(r.mrts_len_avg >= 18.0);
            prop_assert!(r.mrts_len_max <= (12 + 6 * 20) as f64);
            prop_assert!(r.mrts_len_avg <= r.mrts_len_p99 + 1e-9);
            prop_assert!(r.mrts_len_p99 <= r.mrts_len_max + 1e-9);
        }

        // The simulation actually ran and terminated at the horizon.
        prop_assert!(r.events > 0);
        prop_assert!(r.sim_secs <= cfg.end_time().as_secs_f64() + 1e-9);
    }

    #[test]
    fn determinism_is_universal(
        protocol in any_protocol(),
        seed in 0u64..1000,
    ) {
        let mut cfg = ScenarioConfig::paper_stationary(20.0)
            .with_nodes(6)
            .with_packets(8);
        cfg.bounds = Bounds::new(100.0, 80.0);
        let a = checked(&cfg, protocol, seed);
        let b = checked(&cfg, protocol, seed);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.receptions, b.receptions);
        prop_assert_eq!(a.retx_ratio_avg.to_bits(), b.retx_ratio_avg.to_bits());
    }
}
