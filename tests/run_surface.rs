//! The run surface's contract: `Run` → `RunOutput` is the one front door,
//! and every surviving older name (the nine names `benchmark/README.md`
//! pins) is a shim that returns exactly `Run`'s output fields — for RMAC
//! and BMMM, with and without a fault plan — and
//! `Run` itself is shard-blind: any shard count equals the one-group run.

use rmac::engine::{
    run_replication_checked, run_replication_instrumented, run_replication_sharded_checked, Runner,
    ShardedRunner,
};
use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec};
use rmac::mobility::Bounds;
use rmac::prelude::*;

fn cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(10)
        .with_packets(12);
    cfg.bounds = Bounds::new(120.0, 100.0);
    cfg
}

/// Bursty corruption plus a mid-run crash/restart.
fn bursty_churn() -> FaultPlan {
    FaultPlan::none()
        .with_bursty(BurstySpec::moderate())
        .with_churn(ChurnSpec {
            node: 3,
            kind: ChurnKind::Crash,
            at_ms: 5_200,
            for_ms: 300,
        })
}

/// Protocol × plan grid the contract is held on.
fn grid() -> Vec<(Protocol, FaultPlan)> {
    let mut out = Vec::new();
    for p in [Protocol::Rmac, Protocol::Bmmm] {
        out.push((p, FaultPlan::none()));
        out.push((p, bursty_churn()));
    }
    out
}

/// Wall clocks off, so the whole obs report is a function of the seed.
const COUNTING: ObsConfig = ObsConfig {
    snapshot_period: None,
    kernel_wall: false,
};

/// `CheckReport` and `ObsReport` have no `PartialEq`; their `Debug` / JSON
/// renderings cover every field and counter.
fn same_check(a: &CheckReport, b: &CheckReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn same_obs(a: &ObsReport, b: &ObsReport) -> bool {
    a.to_json() == b.to_json()
}

const SEED: u64 = 9;

#[test]
fn fault_free_shims_return_runs_output() {
    let cfg = cfg();
    for p in [Protocol::Rmac, Protocol::Bmmm] {
        let plain = Run::new(&cfg, p, SEED).execute();
        assert!(plain.obs.is_none() && plain.check.is_none());
        // A whole-world run is the one-group case and says so.
        assert_eq!((plain.shard.shards, plain.shard.groups), (1, 1));
        assert_eq!(plain.parents.len(), cfg.nodes);

        assert_eq!(Runner::new(&cfg, p, SEED).run(SEED), plain.report);
        let (report, obs) = Runner::new(&cfg, p, SEED).run_obs(SEED);
        assert_eq!(report, plain.report);
        assert!(obs.is_none(), "run_obs without set_obs carries no obs");

        let observed = Run::new(&cfg, p, SEED).obs(COUNTING).execute();
        assert_eq!(observed.report, plain.report);
        let mut runner = Runner::new(&cfg, p, SEED);
        runner.set_obs(COUNTING);
        let (report, obs) = runner.run_obs(SEED);
        assert_eq!(report, plain.report);
        assert!(same_obs(
            &obs.expect("set_obs was called"),
            observed.obs.as_ref().expect("Run::obs was called")
        ));

        // The pinned shim reports `Run`'s statistics at any shard count.
        let (report, stats) = ShardedRunner::new(&cfg, p, SEED).run_with_stats();
        assert_eq!(report, plain.report);
        assert_eq!((stats.shards, stats.groups), (1, 1));
        let four = cfg.clone().with_shards(4);
        let sharded = Run::new(&four, p, SEED).execute();
        let (report, stats) = ShardedRunner::new(&four, p, SEED).run_with_stats();
        assert_eq!(report, sharded.report);
        assert_eq!(stats.groups, sharded.shard.groups);
        assert_eq!(stats.cross_pushes, sharded.shard.cross_pushes);
    }
}

#[test]
fn checked_and_instrumented_shims_return_runs_output() {
    let cfg = cfg();
    for (p, plan) in grid() {
        let run = Run::new(&cfg, p, SEED)
            .faults(&plan)
            .obs(COUNTING)
            .check()
            .execute();
        let (run_check, run_obs) = (run.check.expect("check"), run.obs.expect("obs"));
        assert!(run_check.is_clean(), "{p:?}: {}", run_check.summary());

        let (report, check) = run_replication_checked(&cfg, p, SEED, &plan);
        assert_eq!(report, run.report, "{p:?}");
        assert!(same_check(&check, &run_check), "{p:?}");

        let (report, obs, check) =
            run_replication_instrumented(&cfg, p, SEED, &plan, Some(COUNTING));
        assert_eq!(report, run.report, "{p:?}");
        assert!(same_check(&check, &run_check), "{p:?}");
        assert!(same_obs(&obs.expect("obs requested"), &run_obs), "{p:?}");
        let (report, obs, _) = run_replication_instrumented(&cfg, p, SEED, &plan, None);
        assert_eq!(report, run.report, "{p:?}");
        assert!(obs.is_none(), "no obs requested, none returned");

        let four = cfg.clone().with_shards(4);
        let sharded = Run::new(&four, p, SEED).faults(&plan).check().execute();
        let (report, check) = run_replication_sharded_checked(&four, p, SEED, &plan);
        assert_eq!(report, sharded.report, "{p:?}");
        assert!(same_check(&check, &sharded.check.expect("check")), "{p:?}");
    }
}

#[test]
fn run_is_engine_blind_at_every_shard_count() {
    let cfg = cfg();
    for (p, plan) in grid() {
        let whole = Run::new(&cfg, p, SEED).faults(&plan).check().execute();
        let whole_check = whole.check.expect("check");
        for shards in [1usize, 2, 4, 8] {
            let out = Run::new(&cfg.clone().with_shards(shards), p, SEED)
                .faults(&plan)
                .check()
                .execute();
            assert_eq!(out.report, whole.report, "{p:?} shards={shards}");
            assert_eq!(out.parents, whole.parents, "{p:?} shards={shards}");
            // Statistics always come back, one row per group.
            assert_eq!(out.shard.shards, shards);
            assert_eq!(out.shard.group_stats.len(), out.shard.groups);
            // Per-group verdicts merge to the one-group checker's gate counts.
            let check = out.check.expect("check");
            assert!(check.is_clean());
            assert_eq!(check.tx_checked, whole_check.tx_checked);
            assert_eq!(check.rx_ok_checked, whole_check.rx_ok_checked);
            assert_eq!(check.tone_emissions, whole_check.tone_emissions);
            assert_eq!(check.transition_nodes, whole_check.transition_nodes);
        }
    }
}

#[test]
#[should_panic(expected = "assert_clean on a run without .check()")]
fn assert_clean_needs_a_checker() {
    Run::new(&cfg(), Protocol::Rmac, SEED)
        .execute()
        .assert_clean();
}

#[test]
#[should_panic(expected = "protocol-conformance check failed")]
fn assert_clean_panics_on_a_dirty_verdict() {
    // The sense-skipping mutant under harsh corruption breaches C1.
    let plan = FaultPlan {
        bursty: Some(BurstySpec {
            mean_good_ms: 300.0,
            mean_bad_ms: 300.0,
            loss_good: 0.05,
            loss_bad: 0.9,
        }),
        ..FaultPlan::none()
    };
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(6)
        .with_packets(30);
    cfg.bounds = Bounds::new(110.0, 90.0);
    Run::new(&cfg, Protocol::RmacSkipRbtSense, 5)
        .faults(&plan)
        .check()
        .execute()
        .assert_clean();
}

#[test]
#[should_panic(expected = "rate_pps must be finite and positive")]
fn a_zero_rate_is_refused_at_the_front_door() {
    let mut cfg = cfg();
    cfg.rate_pps = 0.0;
    Run::new(&cfg, Protocol::Rmac, SEED);
}

#[test]
#[should_panic(expected = "rate_pps must be finite and positive")]
fn a_nan_rate_is_refused_at_the_front_door() {
    let mut cfg = cfg();
    cfg.rate_pps = f64::NAN;
    Run::new(&cfg, Protocol::Rmac, SEED);
}

#[test]
#[should_panic(expected = "nodes must be in 1..=65535, got 0")]
fn an_empty_network_is_refused_at_the_front_door() {
    Run::new(&cfg().with_nodes(0), Protocol::Rmac, SEED);
}

#[test]
#[should_panic(expected = "nodes must be in 1..=65535, got 65536")]
fn a_network_past_the_node_id_space_is_refused_at_the_front_door() {
    // Before any per-node allocation: the assert is the first thing `new` does.
    Run::new(&cfg().with_nodes(65_536), Protocol::Rmac, SEED);
}
