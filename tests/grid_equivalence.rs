//! The spatial index's determinism contract (property-based).
//!
//! 1. **Neighbor equivalence**: for any node placement, motion mix, and
//!    non-decreasing query times, the grid-indexed channel returns exactly
//!    the brute-force channel's neighbor sets (same nodes, same order).
//! 2. **Replication identity**: a full protocol replication under the
//!    grid index is bit-identical — every `RunReport` field — to the same
//!    replication under the brute-force O(N) scan, for every scenario
//!    kind, so enabling the index by default cannot perturb any result.

use proptest::prelude::*;
use rmac::engine::Reference;
use rmac::mobility::{Bounds, MobilityKind, Motion, Pos};
use rmac::phy::{Channel, ChannelConfig, IndexMode};
use rmac::prelude::*;

mod common;
use common::checked;

/// One randomly parameterised trajectory: stationary, scripted linear, or
/// random waypoint at one of the paper's speed profiles.
fn any_motion() -> impl Strategy<Value = Motion> {
    prop_oneof![
        (0.0..600.0f64, 0.0..400.0f64).prop_map(|(x, y)| Motion::stationary(Pos::new(x, y))),
        (
            0.0..600.0f64,
            0.0..400.0f64,
            0.0..600.0f64,
            0.0..400.0f64,
            1.0..50.0f64
        )
            .prop_map(|(x0, y0, x1, y1, speed)| {
                Motion::linear(Pos::new(x0, y0), Pos::new(x1, y1), SimTime::ZERO, speed)
            }),
        (0.0..500.0f64, 0.0..300.0f64, 0u64..10_000, 0usize..2).prop_map(|(x, y, seed, k)| {
            let kind = if k == 0 {
                MobilityKind::paper_speed1()
            } else {
                MobilityKind::paper_speed2()
            };
            Motion::new(Pos::new(x, y), kind, Bounds::PAPER, SimRng::new(seed))
        }),
    ]
}

fn channel(motions: Vec<Motion>, index: IndexMode) -> Channel {
    Channel::new(
        ChannelConfig {
            index,
            ..ChannelConfig::default()
        },
        motions,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grid_neighbors_match_brute_force(
        motions in proptest::collection::vec(any_motion(), 2..40),
        mut offsets_us in proptest::collection::vec(0u64..30_000_000, 10..40),
        srcs in proptest::collection::vec(0usize..40, 10..40),
    ) {
        // Channels require non-decreasing query times.
        offsets_us.sort_unstable();
        let n = motions.len();
        let mut grid = channel(motions.clone(), IndexMode::grid());
        let mut brute = channel(motions, IndexMode::BruteForce);
        for (i, &us) in offsets_us.iter().enumerate() {
            let t = SimTime::from_micros(us);
            let src = NodeId((srcs[i % srcs.len()] % n) as u16);
            let g = grid.neighbors_at(src, t);
            let b = brute.neighbors_at(src, t);
            prop_assert_eq!(g, b, "src {:?} at t={}", src, t);
        }
    }

    #[test]
    fn replication_is_bit_identical_under_the_grid(
        scenario in 0usize..3,
        nodes in 5usize..22,
        rate_x10 in 50u64..400,  // 5..40 pkt/s
        packets in 4u64..16,
        seed in 0u64..10_000,
    ) {
        let rate = rate_x10 as f64 / 10.0;
        let mut cfg = match scenario {
            0 => ScenarioConfig::paper_stationary(rate),
            1 => ScenarioConfig::paper_speed1(rate),
            _ => ScenarioConfig::paper_speed2(rate),
        }
        .with_nodes(nodes)
        .with_packets(packets);
        cfg.bounds = Bounds::new(150.0, 120.0);
        let gridded = checked(&cfg, Protocol::Rmac, seed);
        let brute = Run::new(&cfg, Protocol::Rmac, seed)
            .reference(Reference::BrutePhy)
            .check()
            .execute()
            .assert_clean();
        prop_assert_eq!(gridded, brute.report);
    }
}
