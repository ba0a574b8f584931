//! The spatial index's determinism contract (property-based).
//!
//! 1. **Neighbor equivalence**: for any node placement, motion mix, and
//!    non-decreasing query times, the grid-indexed channel returns exactly
//!    the brute-force channel's neighbor sets (same nodes, same order).
//!    Twice: with queries spread over 30 s, where nearly every one rebuilds
//!    the source's neighbour list, and packed hundreds to a reuse horizon
//!    around nodes scripted to cross the range circle, where nearly every
//!    one is served from a list built earlier.
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

/// A 50 m/s trip scripted around a fixed node at `s`, `RANGE` being the
/// radio range: 6 m along a line that cuts a chord of `chord` metres off the
/// range circle — in range for `chord / 50` seconds, 80 ms at most, so in and
/// out again inside one 94 ms horizon — or, without a chord, 6 m straight
/// through the circle along a radius, inward or outward.
fn crosser(s: Pos, angle: f64, chord: Option<f64>, reverse: bool, depart: SimTime) -> Motion {
    const RANGE: f64 = 75.0;
    let (u, w) = ((angle.cos(), angle.sin()), (-angle.sin(), angle.cos()));
    let at = |along: f64, across: f64| {
        Pos::new(
            s.x + along * u.0 + across * w.0,
            s.y + along * u.1 + across * w.1,
        )
    };
    let (a, b) = match chord {
        Some(len) => {
            let h = (RANGE * RANGE - len * len / 4.0).sqrt();
            (at(-3.0, h), at(3.0, h))
        }
        None => (at(RANGE + 3.0, 0.0), at(RANGE - 3.0, 0.0)),
    };
    let (from, to) = if reverse { (b, a) } else { (a, b) };
    Motion::linear(from, to, depart, 50.0)
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

    /// The reuse path: ~2500 queries over ~0.4 s from four sources — two
    /// fixed nodes, each with crossers scripted around it, one of the
    /// drifters, and a runner closing head-on with its partner at 2 × 50 m/s
    /// from just outside the skin, the one pair that uses the whole of
    /// `pair drift ≤ 2 · v_max · horizon` — in a world whose fastest node
    /// does 50 m/s (horizon 94 ms), so a list serves a couple of hundred
    /// fills, each source's list is rebuilt a few times, and most of the
    /// population never moves.
    #[test]
    fn lists_reused_across_many_fills_match_brute_force(
        fixed in proptest::collection::vec((0.0..300.0f64, 0.0..200.0f64), 6..20),
        drifters in proptest::collection::vec(any_motion(), 1..10),
        crossings in proptest::collection::vec(
            (0usize..2, 0.0..std::f64::consts::TAU, 0.0..8.0f64, any::<bool>(), 0u64..300_000), 2..12),
        (runner_x, gap, runner_depart_us) in (0.0..300.0f64, 0.0..15.0f64, 0u64..200_000),
        strides_us in proptest::collection::vec(30u64..300, 2400..2600),
    ) {
        let mut motions: Vec<Motion> =
            fixed.iter().map(|&(x, y)| Motion::stationary(Pos::new(x, y))).collect();
        let sources = [0, 1, motions.len(), motions.len() + 1];
        // The runner and its partner start `gap` metres further apart than a
        // list reaches, on a line of their own.
        let (runner, partner) = (Pos::new(runner_x, 250.0), Pos::new(runner_x + 84.5 + gap, 250.0));
        let depart = SimTime::from_micros(runner_depart_us);
        motions.insert(sources[2], Motion::linear(runner, partner, depart, 50.0));
        motions.insert(sources[2], Motion::linear(partner, runner, depart, 50.0));
        motions.extend(drifters);
        for &(around, angle, chord, reverse, depart_us) in &crossings {
            let (x, y) = fixed[around];
            // Half of the draws cut a chord, half go along a radius.
            let chord = (chord < 4.0).then_some(chord + 0.1);
            let depart = SimTime::from_micros(depart_us);
            motions.push(crosser(Pos::new(x, y), angle, chord, reverse, depart));
        }
        let mut grid = channel(motions.clone(), IndexMode::grid());
        let mut brute = channel(motions, IndexMode::BruteForce);
        let mut t = SimTime::ZERO;
        for (i, &us) in strides_us.iter().enumerate() {
            t += SimTime::from_micros(us);
            let src = NodeId(sources[i % sources.len()] as u16);
            let g = grid.neighbors_at(src, t);
            let b = brute.neighbors_at(src, t);
            prop_assert_eq!(g, b, "src {:?} at t={}", src, t);
        }
        let stats = grid.obs_stats().grid.expect("grid mode");
        prop_assert_eq!(stats.queries, strides_us.len() as u64);
        prop_assert!(stats.list_rebuilds >= 2 * sources.len() as u64, "{:?}", stats);
        prop_assert!(stats.list_rebuilds * 100 <= stats.queries, "{:?}", stats);
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
