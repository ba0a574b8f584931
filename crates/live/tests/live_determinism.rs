//! Determinism contract of the loopback soak: equal seeds and equal
//! Gilbert–Elliott plans produce *identical* [`SoakReport`]s, across
//! arbitrary small mesh shapes and loss parameters. This is what makes a
//! failing 1M-packet soak replayable: rerunning the binary with the same
//! seed walks the exact same virtual-time event sequence.
//!
//! The harness itself enforces liveness (it panics if the mesh wedges), so
//! every case that returns also proves 100 % application-layer delivery
//! for its parameters.

use proptest::prelude::*;
use rmac_faults::BurstySpec;
use rmac_live::hub::HubConfig;
use rmac_live::soak::{run_loopback_soak, SoakConfig};

fn config(
    publishers: usize,
    subscribers: usize,
    packets: u64,
    payload: usize,
    seed: u64,
    loss: Option<BurstySpec>,
) -> SoakConfig {
    SoakConfig {
        publishers,
        subscribers,
        packets_per_publisher: packets,
        payload_len: payload,
        hub: HubConfig {
            loss,
            seed: seed.wrapping_mul(0xA24B_AED4_963E_E407),
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed + same loss plan ⇒ `==` reports, twice over; and the run
    /// completes (every packet reaches every subscriber).
    #[test]
    fn equal_seeds_give_identical_reports(
        publishers in 1usize..=2,
        subscribers in 1usize..=3,
        packets in 1u64..=12,
        payload in 10usize..=120,
        seed in any::<u64>(),
        lossy in any::<bool>(),
        bad_share in 1u32..=4,     // bad state is 10–40 % of a 5 ms cycle
        loss_bad_pct in 50u32..=90,
    ) {
        let loss = lossy.then(|| BurstySpec {
            mean_good_ms: 5.0 - f64::from(bad_share) * 0.5,
            mean_bad_ms: f64::from(bad_share) * 0.5,
            loss_good: 0.05,
            loss_bad: f64::from(loss_bad_pct) / 100.0,
        });
        let cfg = config(publishers, subscribers, packets, payload, seed, loss);
        let a = run_loopback_soak(&cfg);
        let b = run_loopback_soak(&cfg);
        prop_assert_eq!(&a, &b, "equal seeds must give equal reports");
        prop_assert!(a.complete(), "soak must deliver everything: {:?}", a);
        prop_assert_eq!(
            a.expected_deliveries,
            packets * publishers as u64 * subscribers as u64
        );
    }

    /// Different node seeds almost surely give different event orders:
    /// the report must reflect the seed, not just the config shape. (The
    /// loss plan is kept fixed so only the MAC RNGs differ.)
    #[test]
    fn seeds_actually_matter(seed in 1u64..u64::MAX / 2) {
        let mk = |s: u64| config(2, 2, 8, 64, s, Some(BurstySpec::moderate()));
        let a = run_loopback_soak(&mk(seed));
        let b = run_loopback_soak(&mk(seed.wrapping_add(1)));
        // Deliveries are forced equal (both complete); the timing sides of
        // the report — steps and virtual time — encode the trajectory.
        prop_assert!(a.complete() && b.complete());
        prop_assert!(
            a != b,
            "adjacent seeds gave identical trajectories: {:?}",
            a
        );
    }
}

/// The default soak and its lossless twin, pinned: both literals were
/// recorded at `eaa1fe9`, where a node's timers were the hierarchical
/// timing wheel, and hold unchanged on `rmac_sim::EventQueue`. A timer
/// structure that orders one same-instant pair differently moves `steps`.
#[test]
fn the_soak_report_is_pinned() {
    let lossless = SoakConfig {
        hub: HubConfig {
            loss: None,
            ..HubConfig::default()
        },
        ..SoakConfig::default()
    };
    assert_eq!(
        format!("{:?}", run_loopback_soak(&SoakConfig::default())),
        "SoakReport { publishers: 2, subscribers: 3, packets_offered: 200, \
         expected_deliveries: 600, deliveries: 600, duplicates: 163, mac_retransmissions: 131, \
         mac_drops: 0, app_resends: 0, hub: HubStats { data_sent: 607, data_delivered: 2086, \
         data_corrupted: 342, ctrl_sent: 9880 }, virtual_time: 422041us, steps: 6263, \
         latency_p50_ns: 2097151, latency_p99_ns: 16777215, latency_max_ns: 92964500, \
         latency_mean_ns: 1992812, goodput_mbps: 1.1373302593823822 }"
    );
    assert_eq!(
        format!("{:?}", run_loopback_soak(&lossless)),
        "SoakReport { publishers: 2, subscribers: 3, packets_offered: 200, \
         expected_deliveries: 600, deliveries: 600, duplicates: 0, mac_retransmissions: 2, \
         mac_drops: 0, app_resends: 0, hub: HubStats { data_sent: 402, data_delivered: 1608, \
         data_corrupted: 0, ctrl_sent: 9600 }, virtual_time: 207063us, steps: 4459, \
         latency_p50_ns: 2097151, latency_p99_ns: 4194303, latency_max_ns: 4829500, \
         latency_mean_ns: 1979220, goodput_mbps: 2.3181350603439532 }"
    );
}
