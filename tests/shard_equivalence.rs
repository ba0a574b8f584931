//! What sharding adds — decomposition, ownership, merge — held to the
//! one-group run (property-based).
//!
//! For any scenario kind, node count, source rate, fault plan and seed,
//! a [`Run`] at 2/4/8 shards is **bit-identical** — every `RunReport`
//! field, including the processed event count — to the same run at one
//! shard, the whole-world group. Same pattern as
//! `tests/grid_equivalence.rs`: the undivided run is the ground truth,
//! the partition must be observationally invisible. (That the one-group
//! run itself is right is pinned elsewhere: `tests/golden/`, the reports
//! in `tests/event_budget.rs`.)

use proptest::prelude::*;
use rmac::engine::{Reference, ShardedRunner};
use rmac::faults::{ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac::mobility::Bounds;
use rmac::prelude::*;

mod common;
use common::{faulted, verdict};

/// Random small-but-live scenarios over all three mobility kinds, on a
/// dense plane so every protocol phase (contention, tones, retries,
/// forwarding) actually fires.
fn any_cfg() -> impl Strategy<Value = ScenarioConfig> {
    (
        0usize..3,
        5usize..22,
        50u64..400, // 5..40 pkt/s, scaled by 10
        4u64..16,
    )
        .prop_map(|(scenario, nodes, rate_x10, packets)| {
            let rate = rate_x10 as f64 / 10.0;
            let mut cfg = match scenario {
                0 => ScenarioConfig::paper_stationary(rate),
                1 => ScenarioConfig::paper_speed1(rate),
                _ => ScenarioConfig::paper_speed2(rate),
            }
            .with_nodes(nodes)
            .with_packets(packets);
            cfg.bounds = Bounds::new(150.0, 120.0);
            cfg
        })
}

/// A fault plan drawing from every class the plane supports (or none).
fn any_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::none()),
        (0u16..8, 500u64..2_000, 500u64..2_000).prop_map(|(node, at_ms, for_ms)| {
            FaultPlan::none().with_churn(ChurnSpec {
                node,
                kind: ChurnKind::Crash,
                at_ms,
                for_ms,
            })
        }),
        (0.0..150.0f64, 0.0..120.0f64, 0usize..2, 500u64..1_500).prop_map(
            |(x, y, target, start_ms)| {
                FaultPlan::none().with_jammer(JammerSpec {
                    x,
                    y,
                    target: if target == 0 {
                        JamTarget::Rbt
                    } else {
                        JamTarget::Data
                    },
                    start_ms,
                    period_ms: 300,
                    burst_ms: 25,
                })
            }
        ),
        (0u16..8, -200.0..200.0f64)
            .prop_map(|(node, ppm)| { FaultPlan::none().with_skew(SkewSpec { node, ppm }) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: 2/4/8 shards ≡ one shard, field for field,
    /// under random scenarios and fault plans. The one-shard side carries
    /// the conformance checker so every generated case is also
    /// invariant-clean.
    #[test]
    fn sharded_replication_is_bit_identical(
        cfg in any_cfg(),
        plan in any_plan(),
        seed in 0u64..10_000,
    ) {
        let (oracle, check) = verdict(&cfg, Protocol::Rmac, seed, &plan);
        prop_assert!(check.is_clean(), "{}", check.summary());
        for shards in [2usize, 4, 8] {
            let sharded = faulted(&cfg.clone().with_shards(shards), Protocol::Rmac, seed, &plan);
            // RunReport equality covers every field, including the
            // processed-event count (`events`).
            prop_assert_eq!(&sharded, &oracle, "shards={}", shards);
            prop_assert_eq!(sharded.events, oracle.events, "event count, shards={}", shards);
        }
    }

    /// The baseline protocols ride the same engine: spot-check BMW-like
    /// contention under sharding too.
    #[test]
    fn sharded_baseline_is_bit_identical(
        nodes in 5usize..18,
        packets in 4u64..12,
        seed in 0u64..10_000,
    ) {
        let mut cfg = ScenarioConfig::paper_stationary(10.0)
            .with_nodes(nodes)
            .with_packets(packets);
        cfg.bounds = Bounds::new(150.0, 120.0);
        let oracle = run_replication(&cfg, Protocol::Bmmm, seed);
        for shards in [2usize, 8] {
            let sharded = run_replication(&cfg.clone().with_shards(shards), Protocol::Bmmm, seed);
            prop_assert_eq!(&sharded, &oracle, "shards={}", shards);
        }
    }

    /// The checked entry point merges per-group conformance reports; the
    /// merged gate counters must match the oracle checker's exactly.
    #[test]
    fn sharded_check_gates_match_oracle(
        cfg in any_cfg(),
        seed in 0u64..10_000,
    ) {
        let (oracle_report, oracle_check) =
            verdict(&cfg, Protocol::Rmac, seed, &FaultPlan::none());
        let (report, check) = verdict(
            &cfg.clone().with_shards(4),
            Protocol::Rmac,
            seed,
            &FaultPlan::none(),
        );
        prop_assert_eq!(&report, &oracle_report);
        prop_assert!(check.is_clean());
        prop_assert_eq!(check.tx_checked, oracle_check.tx_checked);
        prop_assert_eq!(check.rx_ok_checked, oracle_check.rx_ok_checked);
        prop_assert_eq!(check.tone_emissions, oracle_check.tone_emissions);
        prop_assert_eq!(check.transition_nodes, oracle_check.transition_nodes);
    }
}

/// A deliberately decoupled layout — two dense clusters far outside radio
/// range — must decompose into parallel groups *and* still match the
/// one-group run bit for bit. This is the case where the engine actually
/// runs multi-threaded, so it guards the merge path specifically — on the
/// calendar queue and, group for group, on the heap reference queue.
#[test]
fn decoupled_clusters_run_parallel_and_match() {
    use rmac::mobility::Pos;
    let mut positions = Vec::new();
    for i in 0..12 {
        // Cluster A at the left edge, cluster B 900 m to its right: the
        // 75 m radio cannot bridge the gap, so they are two components.
        let (cx, cy) = ((i % 4) as f64 * 30.0, (i / 4) as f64 * 30.0);
        positions.push(Pos::new(cx + 10.0, cy + 10.0));
        positions.push(Pos::new(cx + 910.0, cy + 10.0));
    }
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(positions.len())
        .with_packets(8)
        .with_positions(positions);
    cfg.bounds = Bounds::new(1_000.0, 100.0);
    let oracle = run_replication(&cfg, Protocol::Rmac, 3);
    let (report, stats) =
        ShardedRunner::new(&cfg.clone().with_shards(4), Protocol::Rmac, 3).run_with_stats();
    assert_eq!(report, oracle);
    assert!(
        stats.groups >= 2,
        "expected radio-isolated clusters to decompose ({} groups)",
        stats.groups
    );
    for shards in [1usize, 2, 4] {
        let cfg = cfg.clone().with_shards(shards);
        let calendar = Run::new(&cfg, Protocol::Rmac, 3).execute();
        let heap = Run::new(&cfg, Protocol::Rmac, 3)
            .reference(Reference::HeapQueue)
            .execute();
        assert_eq!(heap.report, oracle, "heap queue, shards={shards}");
        assert_eq!(heap.shard.groups, calendar.shard.groups, "shards={shards}");
        assert_eq!(heap.shard.groups > 1, shards > 1, "shards={shards}");
    }
}

/// A group holds stacks for its own protocol nodes only. A jammer alone in
/// its radio component is a group with no stack at all, and its bursts still
/// count.
#[test]
fn a_jammer_alone_is_a_group_without_a_stack() {
    use rmac::mobility::Pos;
    // Six nodes 30 m apart, and a data jammer 490 m from the nearest.
    let positions = (0..6)
        .map(|i| Pos::new(10.0 + (i % 3) as f64 * 30.0, 10.0 + (i / 3) as f64 * 30.0))
        .collect();
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(8)
        .with_positions(positions);
    cfg.bounds = Bounds::new(600.0, 100.0);
    let plan = FaultPlan::none().with_jammer(JammerSpec {
        x: 560.0,
        y: 40.0,
        target: JamTarget::Data,
        start_ms: 500,
        period_ms: 300,
        burst_ms: 25,
    });
    let oracle = faulted(&cfg, Protocol::Rmac, 5, &plan);
    assert!(oracle.fault_jam_bursts > 0);
    let out = Run::new(&cfg.clone().with_shards(2), Protocol::Rmac, 5)
        .faults(&plan)
        .execute();
    assert_eq!(out.report, oracle);
    let jammer = &out.shard.group_stats[1];
    assert_eq!(out.shard.groups, 2);
    assert_eq!(
        (jammer.first_slot, jammer.slots),
        (6, 1),
        "the jammer's group"
    );
}

/// A node of the second group crashes and restarts: its fresh stack goes to
/// its index among the group's six nodes (5), not to its global id (11).
#[test]
fn a_restart_outside_the_first_group_rebuilds_its_own_stack() {
    use rmac::mobility::Pos;
    // Even ids in a cluster at the left edge, odd ids 900 m to its right.
    let positions = (0..12)
        .map(|i| {
            let (cx, cy) = ((i / 2 % 3) as f64 * 30.0, (i / 6) as f64 * 30.0);
            Pos::new(cx + 10.0 + (i % 2) as f64 * 900.0, cy + 10.0)
        })
        .collect();
    let mut cfg = ScenarioConfig::paper_stationary(10.0)
        .with_packets(8)
        .with_positions(positions);
    cfg.bounds = Bounds::new(1_000.0, 100.0);
    let plan = FaultPlan::none().with_churn(ChurnSpec {
        node: 11,
        kind: ChurnKind::Crash,
        at_ms: 2_000,
        for_ms: 3_000,
    });
    let (oracle, check) = verdict(&cfg, Protocol::Rmac, 9, &plan);
    assert!(check.is_clean(), "{}", check.summary());
    assert_eq!(oracle.fault_crashes, 1);
    for shards in [2usize, 4] {
        let (report, check) = verdict(&cfg.clone().with_shards(shards), Protocol::Rmac, 9, &plan);
        assert!(check.is_clean(), "shards={shards}: {}", check.summary());
        assert_eq!(report, oracle, "shards={shards}");
    }
    let two = Run::new(&cfg.clone().with_shards(2), Protocol::Rmac, 9)
        .faults(&plan)
        .execute();
    let slots: Vec<usize> = two.shard.group_stats.iter().map(|g| g.slots).collect();
    assert_eq!(
        slots,
        [6, 6],
        "node 11 is the last of the second group's six"
    );
}

/// The adversarial coupled layout: a sender with receivers mirrored at
/// equal distances on both sides, so every frame arrival and tone edge it
/// emits reaches several nodes at the *same nanosecond*. The population is
/// one radio component, so one group, whose same-instant events must
/// dispatch in push order exactly as in the serial run, at every shard
/// count.
#[test]
fn boundary_straddling_receivers_match_oracle() {
    use rmac::mobility::Pos;
    // Sender at x = 150 m, receiver pairs mirrored ±10, ±25, ±40 m around
    // it (the outermost pair, 80 m apart, is coupled through the sender).
    let mut positions = vec![Pos::new(150.0, 50.0)];
    for d in [10.0, 25.0, 40.0] {
        positions.push(Pos::new(150.0 - d, 50.0));
        positions.push(Pos::new(150.0 + d, 50.0));
    }
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(positions.len())
        .with_packets(12)
        .with_positions(positions);
    cfg.bounds = Bounds::new(300.0, 100.0);
    let oracle = common::checked(&cfg, Protocol::Rmac, 17);
    for shards in [2usize, 4, 8] {
        let out = Run::new(&cfg.clone().with_shards(shards), Protocol::Rmac, 17)
            .check()
            .execute()
            .assert_clean();
        assert_eq!(out.report, oracle, "shards={shards}");
        assert_eq!(out.shard.groups, 1, "one component, shards={shards}");
        assert_eq!(out.shard.group_stats[0].slots, 7, "shards={shards}");
    }
}

/// The benchmark's eight-cell layout (`multicell2000_shard2` at `--seed 1`):
/// 2000 nodes in eight paper-density cells along x, 120 m apart, the source
/// in cell 0. Reproduced here from the same SplitMix64 draws.
fn eight_cells() -> (ScenarioConfig, u64) {
    use rmac::mobility::Pos;
    struct SplitMix(u64);
    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }
    let derived = |stream: u64| SplitMix(1 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next();
    let (cells, per_cell, jitter_m) = (8usize, 250usize, 3.0);
    let cell_scale = (per_cell as f64 / 75.0).sqrt();
    let (w, h) = (500.0 * cell_scale, 300.0 * cell_scale);
    let pitch = w + 120.0;
    let mut positions = Vec::new();
    for cell in 0..cells {
        let x0 = cell as f64 * pitch;
        let mut base = SplitMix(0x2000 + cell as u64);
        let mut jitter = SplitMix(derived(10 + cell as u64));
        for _ in 0..per_cell {
            let p = Pos::new(base.range(x0, x0 + w), base.range(0.0, h));
            let x = (p.x + jitter.range(-jitter_m, jitter_m)).clamp(x0, x0 + w);
            let y = (p.y + jitter.range(-jitter_m, jitter_m)).clamp(0.0, h);
            positions.push(Pos::new(x, y));
        }
    }
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_packets(300)
        .with_positions(positions);
    cfg.bounds = Bounds::new(cells as f64 * pitch - 120.0, h);
    (cfg, derived(4))
}

/// Groups are whole radio components: at two shards the eight cells are
/// eight groups, the largest of which is exactly the source's cell, and
/// the report is bit-identical to the whole-world run. (A group holding
/// three beacon-only cells beside the source's would dispatch 2 195 062
/// events.)
#[test]
fn eight_cells_run_as_eight_groups_and_match() {
    let (cfg, seed) = eight_cells();
    let whole = Run::new(&cfg, Protocol::Rmac, seed).execute();
    let two = Run::new(&cfg.clone().with_shards(2), Protocol::Rmac, seed).execute();
    assert_eq!(two.report, whole.report);
    assert!(two.shard.groups >= 8, "{} groups", two.shard.groups);
    let largest = two
        .shard
        .group_stats
        .iter()
        .max_by_key(|g| g.events)
        .expect("groups");
    assert_eq!((largest.first_slot, largest.slots), (0, 250));
    assert_eq!(largest.events, 1_660_668);
}
