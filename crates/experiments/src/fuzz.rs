//! The scenario fuzzer: draw randomized [`FuzzScenario`]s (topology,
//! traffic, fault plane — the proptest strategies below), materialize
//! them, run them under the conformance checker, and shrink any violator
//! to a minimal reproducer.
//!
//! A scenario is kept apart from the `ScenarioConfig` + `FaultPlan` pair it
//! becomes so the shrinker has something to cut: it pops nodes, so fault
//! specs name nodes by an index taken modulo the population, and the
//! jammer is parked mid-topology only on conversion. Checked execution
//! treats panics in the stack as findings, not crashes of the fuzzer; the
//! shrinker is greedy delta-debugging — the vendored proptest shim has no
//! value trees, so minimization is explicit: drop faults one at a time,
//! halve traffic, pop nodes, and keep any reduction that still reproduces
//! the same invariant failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::collection::vec;
use proptest::prelude::*;
use rmac_engine::{CheckReport, Protocol, Reference, Run, ScenarioConfig};
use rmac_faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac_mobility::Bounds;
use rmac_obs::json;
use rmac_sim::SimTime;

/// Node placement for one fuzz case.
#[derive(Clone, Debug, PartialEq)]
pub enum FuzzTopology {
    /// A straight multihop chain: `hops + 1` nodes, `spacing_m` apart —
    /// hidden terminals at every hop.
    Chain { hops: usize, spacing_m: f64 },
    /// A dense square cluster: `nodes` random positions in a
    /// `side_m × side_m` box — contention and fan-out stress.
    Cluster { nodes: usize, side_m: f64 },
}

impl FuzzTopology {
    /// Number of protocol nodes this topology produces.
    pub fn nodes(&self) -> usize {
        match *self {
            FuzzTopology::Chain { hops, .. } => hops + 1,
            FuzzTopology::Cluster { nodes, .. } => nodes,
        }
    }
}

/// One jammer, less its position ([`materialize`] parks it mid-topology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzJam {
    /// Attacked channel.
    pub target: JamTarget,
    /// First burst, ms.
    pub start_ms: u64,
    /// Burst cadence, ms (clamped above the burst length on conversion).
    pub period_ms: u64,
    /// Burst length, ms.
    pub burst_ms: u64,
}

/// Fault plane of one fuzz case. Node indices are taken modulo the
/// population on conversion.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuzzFaults {
    /// Gilbert–Elliott bursty loss.
    pub bursty: Option<BurstySpec>,
    /// Crash/restart windows.
    pub churn: Vec<ChurnSpec>,
    /// At most one jammer (tones or data noise).
    pub jam: Option<FuzzJam>,
    /// Per-node clock skew.
    pub skew: Vec<SkewSpec>,
}

impl FuzzFaults {
    /// No faults at all.
    pub fn is_empty(&self) -> bool {
        self.bursty.is_none() && self.churn.is_empty() && self.jam.is_none() && self.skew.is_empty()
    }
}

/// A complete randomized scenario: everything the fuzz harness needs to
/// assemble and run one checked replication.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzScenario {
    /// Node placement.
    pub topology: FuzzTopology,
    /// Protocol under test. [`scenario_strategy`] draws RMAC and BMMM; the
    /// shrinker's own tests set the deliberately broken C1 mutant.
    pub protocol: Protocol,
    /// Source rate, packets/second.
    pub rate_pps: f64,
    /// Packets the source generates.
    pub packets: u64,
    /// Application payload bytes.
    pub payload: usize,
    /// Fault plane.
    pub faults: FuzzFaults,
    /// Shard count. Every case runs as one group on the heap reference
    /// queue and on the calendar queue, and at this many shards (its radio
    /// components packed into groups); a report divergence between any two
    /// is itself a finding.
    pub shards: usize,
}

impl FuzzScenario {
    /// Protocol population of the case.
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// One-line label for logs and reproducer files.
    pub fn label(&self) -> String {
        let topo = match self.topology {
            FuzzTopology::Chain { hops, spacing_m } => {
                format!("chain{}x{:.0}m", hops, spacing_m)
            }
            FuzzTopology::Cluster { nodes, side_m } => {
                format!("cluster{}in{:.0}m", nodes, side_m)
            }
        };
        format!(
            "{topo}-{}-{:.0}pps-{}pkt-{}B-s{}{}",
            self.protocol.label(),
            self.rate_pps,
            self.packets,
            self.payload,
            self.shards,
            if self.faults.is_empty() {
                ""
            } else {
                "-faulty"
            }
        )
    }
}

/// Strategy over topologies: chains up to 5 hops (spacing inside, at, or
/// slightly past radio range) and clusters up to 7 nodes.
pub fn topology_strategy() -> impl Strategy<Value = FuzzTopology> {
    prop_oneof![
        (1usize..=5, 40.0..80.0)
            .prop_map(|(hops, spacing_m)| FuzzTopology::Chain { hops, spacing_m }),
        (2usize..=7, 40.0..120.0)
            .prop_map(|(nodes, side_m)| FuzzTopology::Cluster { nodes, side_m }),
    ]
}

/// Strategy over fault planes; roughly half the draws are fault-free so
/// the fuzzer keeps covering the benign path too.
pub fn faults_strategy() -> impl Strategy<Value = FuzzFaults> {
    let bursty = prop_oneof![
        Just(None),
        (100.0..2000.0, 50.0..800.0, 0.3..0.95).prop_map(
            |(mean_good_ms, mean_bad_ms, loss_bad)| {
                Some(BurstySpec {
                    mean_good_ms,
                    mean_bad_ms,
                    loss_good: 0.0,
                    loss_bad,
                })
            }
        ),
    ];
    let churn = vec(
        (0u16..8, 1500u64..7000, 200u64..2500).prop_map(|(node, at_ms, for_ms)| ChurnSpec {
            node,
            kind: ChurnKind::Crash,
            at_ms,
            for_ms,
        }),
        0..3,
    );
    let target = prop_oneof![
        Just(JamTarget::Data),
        Just(JamTarget::Rbt),
        Just(JamTarget::Abt)
    ];
    let jam = prop_oneof![
        Just(None),
        (target, 1500u64..6000, 150u64..600, 10u64..80).prop_map(
            |(target, start_ms, period_ms, burst_ms)| Some(FuzzJam {
                target,
                start_ms,
                period_ms,
                burst_ms,
            })
        ),
    ];
    let skew = vec(
        (0u16..8, -250.0..250.0).prop_map(|(node, ppm)| SkewSpec { node, ppm }),
        0..3,
    );
    (bursty, churn, jam, skew).prop_map(|(bursty, churn, jam, skew)| FuzzFaults {
        bursty,
        churn,
        jam,
        skew,
    })
}

/// The full scenario strategy: randomized topology, protocol, traffic and
/// fault plane, sized so one case simulates in well under a second.
pub fn scenario_strategy() -> impl Strategy<Value = FuzzScenario> {
    let protocol = prop_oneof![Just(Protocol::Rmac), Just(Protocol::Bmmm)];
    let shards = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
    (
        topology_strategy(),
        protocol,
        5.0..60.0,
        (3u64..=30, 50usize..=500),
        (faults_strategy(), shards),
    )
        .prop_map(
            |(topology, protocol, rate_pps, (packets, payload), (faults, shards))| FuzzScenario {
                topology,
                protocol,
                rate_pps,
                packets,
                payload,
                faults,
                shards,
            },
        )
}

/// What one checked replication of a fuzz case produced.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Every invariant held.
    Clean,
    /// The checker recorded violations.
    Violations(CheckReport),
    /// The stack itself panicked (an engine/MAC bug, also a finding).
    Panicked(String),
    /// The report of the case cut into its shard groups diverged from the
    /// one-group run's — a decomposition, ownership or merge bug, the
    /// fuzzer's rarest and most valuable catch.
    ShardDivergence { shards: usize },
    /// The one-group calendar-queue report diverged from the binary-heap
    /// reference's — a scheduler ordering bug in the calendar queue itself.
    QueueDivergence,
}

impl CaseOutcome {
    /// Stable signature used to decide whether a shrunk case still
    /// reproduces "the same" failure: the first violated invariant's id,
    /// or `"PANIC"`. `None` when clean.
    pub fn signature(&self) -> Option<String> {
        match self {
            CaseOutcome::Clean => None,
            CaseOutcome::Violations(r) => {
                r.violations.first().map(|v| v.invariant.id().to_string())
            }
            CaseOutcome::Panicked(_) => Some("PANIC".to_string()),
            CaseOutcome::ShardDivergence { .. } => Some("SHARD_DIVERGENCE".to_string()),
            CaseOutcome::QueueDivergence => Some("QUEUE_DIVERGENCE".to_string()),
        }
    }

    /// Human-readable failure description.
    pub fn describe(&self) -> String {
        match self {
            CaseOutcome::Clean => "clean".to_string(),
            CaseOutcome::Violations(r) => r.summary(),
            CaseOutcome::Panicked(msg) => format!("panic: {msg}"),
            CaseOutcome::ShardDivergence { shards } => {
                format!("report at shards={shards} diverged from the one-group run's")
            }
            CaseOutcome::QueueDivergence => {
                "one-group calendar-queue report diverged from the binary-heap reference's"
                    .to_string()
            }
        }
    }
}

/// Convert the scenario into a runnable config and fault plan. Warmup/drain
/// are shortened from the paper defaults so one fuzz case simulates in a
/// fraction of a second.
pub fn materialize(fs: &FuzzScenario) -> (ScenarioConfig, Protocol, FaultPlan) {
    let mut cfg = match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } => {
            ScenarioConfig::paper_stationary(fs.rate_pps).with_chain(hops, spacing_m)
        }
        FuzzTopology::Cluster { nodes, side_m } => {
            let mut c = ScenarioConfig::paper_stationary(fs.rate_pps).with_nodes(nodes);
            c.bounds = Bounds::new(side_m, side_m);
            c
        }
    };
    cfg.name = format!("fuzz-{}", fs.label());
    cfg.packets = fs.packets;
    cfg.payload = fs.payload;
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(3);
    cfg.shards = fs.shards.max(1);

    let jam_pos = match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } => (hops as f64 * spacing_m / 2.0, 0.0),
        FuzzTopology::Cluster { side_m, .. } => (side_m / 2.0, side_m / 2.0),
    };
    let mut plan = FaultPlan {
        salt: 0,
        bursty: fs.faults.bursty.clone(),
        churn: fs.faults.churn.clone(),
        jammers: fs
            .faults
            .jam
            .iter()
            .map(|j| JammerSpec {
                x: jam_pos.0,
                y: jam_pos.1,
                target: j.target,
                start_ms: j.start_ms,
                // The engine merges overlapping tone bursts; keep a gap.
                period_ms: j.period_ms.max(j.burst_ms + 20),
                burst_ms: j.burst_ms,
            })
            .collect(),
        skew: fs.faults.skew.clone(),
    };
    // The shrinker pops nodes: indices wrap into the population left.
    let nodes = fs.nodes() as u16;
    plan.churn.iter_mut().for_each(|c| c.node %= nodes);
    plan.skew.iter_mut().for_each(|s| s.node %= nodes);
    (cfg, fs.protocol, plan)
}

/// Run one fuzz case under the conformance checker: as one group on the
/// binary-heap reference queue (the ground truth), as one group on the
/// calendar queue, and — when the case has more than one shard — cut into
/// its shard groups, with the C1–C5 invariants checked on every run (and
/// every group). Panics anywhere in the stack become
/// [`CaseOutcome::Panicked`] findings; a report mismatch against the
/// reference becomes a [`CaseOutcome::QueueDivergence`] or
/// [`CaseOutcome::ShardDivergence`] finding.
pub fn run_case(fs: &FuzzScenario, seed: u64) -> CaseOutcome {
    let (cfg, protocol, plan) = materialize(fs);
    let whole = cfg.clone().with_shards(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let checked = |run: Run| {
            let out = run.faults(&plan).check().execute();
            (out.report, out.check.expect("checker was attached"))
        };
        let (oracle, check) =
            checked(Run::new(&whole, protocol, seed).reference(Reference::HeapQueue));
        if !check.is_clean() {
            return CaseOutcome::Violations(check);
        }
        let (calendar, check) = checked(Run::new(&whole, protocol, seed));
        if !check.is_clean() {
            return CaseOutcome::Violations(check);
        }
        if calendar != oracle {
            return CaseOutcome::QueueDivergence;
        }
        // At one shard this would be the calendar run over again.
        if cfg.shards > 1 {
            let (sharded, check) = checked(Run::new(&cfg, protocol, seed));
            if !check.is_clean() {
                return CaseOutcome::Violations(check);
            }
            if sharded != oracle {
                return CaseOutcome::ShardDivergence { shards: cfg.shards };
            }
        }
        CaseOutcome::Clean
    }));
    result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        CaseOutcome::Panicked(msg)
    })
}

/// Candidate reductions of `fs`, most aggressive structural cuts last so
/// the cheap fault-dropping passes run first.
fn reductions(fs: &FuzzScenario) -> Vec<FuzzScenario> {
    let mut out = Vec::new();
    for i in 0..fs.faults.churn.len() {
        let mut c = fs.clone();
        c.faults.churn.remove(i);
        out.push(c);
    }
    for i in 0..fs.faults.skew.len() {
        let mut c = fs.clone();
        c.faults.skew.remove(i);
        out.push(c);
    }
    if fs.faults.jam.is_some() {
        let mut c = fs.clone();
        c.faults.jam = None;
        out.push(c);
    }
    if fs.faults.bursty.is_some() {
        let mut c = fs.clone();
        c.faults.bursty = None;
        out.push(c);
    }
    if fs.packets > 3 {
        let mut c = fs.clone();
        c.packets = (fs.packets / 2).max(3);
        out.push(c);
    }
    match fs.topology {
        FuzzTopology::Chain { hops, spacing_m } if hops > 1 => {
            let mut c = fs.clone();
            c.topology = FuzzTopology::Chain {
                hops: hops - 1,
                spacing_m,
            };
            out.push(c);
        }
        FuzzTopology::Cluster { nodes, side_m } if nodes > 2 => {
            let mut c = fs.clone();
            c.topology = FuzzTopology::Cluster {
                nodes: nodes - 1,
                side_m,
            };
            out.push(c);
        }
        _ => {}
    }
    if fs.payload > 50 {
        let mut c = fs.clone();
        c.payload = 50;
        out.push(c);
    }
    // Halve the shard count so reproducers carry the smallest partition
    // that still fails (a SHARD_DIVERGENCE at shards=2 is a far tighter
    // repro than one at shards=8).
    if fs.shards > 1 {
        let mut c = fs.clone();
        c.shards /= 2;
        out.push(c);
    }
    out
}

/// Greedy delta-debugging: repeatedly try the reductions of the current
/// scenario, keeping any that still fails with `signature`, until a full
/// pass makes no progress or `budget` replications are spent. Returns the
/// minimized scenario and the replications used.
pub fn shrink(
    fs: &FuzzScenario,
    seed: u64,
    signature: &str,
    budget: usize,
) -> (FuzzScenario, usize) {
    let mut cur = fs.clone();
    let mut spent = 0;
    'outer: loop {
        for candidate in reductions(&cur) {
            if spent >= budget {
                break 'outer;
            }
            spent += 1;
            if run_case(&candidate, seed).signature().as_deref() == Some(signature) {
                cur = candidate;
                continue 'outer;
            }
        }
        break;
    }
    (cur, spent)
}

/// Serialize a minimized failing case to JSON (reproducer artifact). The
/// file carries both the primitive scenario and the materialized fault
/// plan so a human can replay it without the fuzzer.
pub fn repro_json(fs: &FuzzScenario, seed: u64, signature: &str, detail: &str) -> String {
    let (_, _, plan) = materialize(fs);
    json::document(|o| {
        o.str("signature", signature)
            .u64("seed", seed)
            .str("label", &fs.label())
            .str("protocol", fs.protocol.label())
            .obj("topology", |o| match fs.topology {
                FuzzTopology::Chain { hops, spacing_m } => {
                    o.str("kind", "chain")
                        .u64("hops", hops as u64)
                        .f64("spacing_m", spacing_m);
                }
                FuzzTopology::Cluster { nodes, side_m } => {
                    o.str("kind", "cluster")
                        .u64("nodes", nodes as u64)
                        .f64("side_m", side_m);
                }
            })
            .f64("rate_pps", fs.rate_pps)
            .u64("packets", fs.packets)
            .u64("payload", fs.payload as u64)
            .u64("shards", fs.shards as u64)
            .obj("fault_plan", |o| plan.write_json(o))
            .str("detail", detail);
    })
}

/// Write the reproducer under `dir` (created if needed), named by case
/// index and signature. Returns the path.
pub fn write_repro(
    dir: &Path,
    case: u32,
    fs: &FuzzScenario,
    seed: u64,
    signature: &str,
    detail: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("case{case:04}_{signature}.json"));
    std::fs::write(&path, repro_json(fs, seed, signature, detail))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn mutant_cluster() -> FuzzScenario {
        FuzzScenario {
            topology: FuzzTopology::Cluster {
                nodes: 7,
                side_m: 80.0,
            },
            protocol: Protocol::RmacSkipRbtSense,
            rate_pps: 20.0,
            packets: 24,
            payload: 300,
            faults: FuzzFaults {
                bursty: Some(BurstySpec {
                    mean_good_ms: 300.0,
                    mean_bad_ms: 300.0,
                    loss_good: 0.0,
                    loss_bad: 0.9,
                }),
                churn: vec![],
                jam: None,
                skew: vec![SkewSpec { node: 1, ppm: 80.0 }],
            },
            shards: 2,
        }
    }

    /// The mutant fails with C1 and the shrinker brings the reproducer
    /// down to ≤ 5 nodes while preserving the signature (the ISSUE's
    /// shrinker acceptance bar).
    #[test]
    fn shrinker_minimizes_the_mutant_to_five_nodes_or_fewer() {
        let fs = mutant_cluster();
        let outcome = run_case(&fs, 3);
        let sig = outcome.signature().expect("mutant must violate");
        assert_eq!(sig, "C1", "{}", outcome.describe());
        let (small, spent) = shrink(&fs, 3, &sig, 60);
        assert!(spent > 0);
        assert!(
            small.nodes() <= 5,
            "shrunk only to {} nodes: {:?}",
            small.nodes(),
            small
        );
        assert!(small.packets <= fs.packets);
        // Still reproduces after minimization.
        assert_eq!(run_case(&small, 3).signature().as_deref(), Some("C1"));
    }

    /// Randomly drawn conformant-protocol cases come back clean (a small
    /// fixed budget of the same cases the CI smoke runs).
    #[test]
    fn sampled_cases_are_clean_for_conformant_protocols() {
        let strat = scenario_strategy();
        for case in 0..6u32 {
            let fs = strat.generate(&mut TestRng::for_case("fuzz_scenarios", case));
            let outcome = run_case(&fs, u64::from(case));
            assert!(
                outcome.signature().is_none(),
                "case {case} ({}): {}",
                fs.label(),
                outcome.describe()
            );
        }
    }

    #[test]
    fn repro_json_is_well_formed_enough() {
        use rmac_obs::json::Json;

        let fs = mutant_cluster();
        let detail = "C1 at \"n2\":\n\ttab, back\\slash";
        let json = repro_json(&fs, 3, "C1", detail);
        let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert_eq!(doc.str("signature"), Ok("C1"));
        assert_eq!(doc.uint("seed"), Ok(3));
        assert_eq!(doc.str("label"), Ok(fs.label().as_str()));
        assert_eq!(doc.str("protocol"), Ok(fs.protocol.label()));
        let topology = doc.req("topology").expect("topology");
        assert_eq!(topology.str("kind"), Ok("cluster"));
        assert_eq!(topology.uint("nodes"), Ok(fs.nodes() as u64));
        assert_eq!(doc.uint("packets"), Ok(fs.packets));
        assert_eq!(doc.uint("shards"), Ok(fs.shards as u64));
        // The embedded plan is the materialized one, readable on its own.
        let plan = FaultPlan::from_json(&doc.req("fault_plan").expect("plan").render());
        assert_eq!(
            plan.expect("plan parses").to_json(),
            materialize(&fs).2.to_json()
        );
        // Escapes survive the trip.
        assert_eq!(doc.str("detail"), Ok(detail));
    }

    #[test]
    fn strategies_draw_in_bounds() {
        let strat = scenario_strategy();
        let mut rng = TestRng::for_case("fuzz_strategy_bounds", 0);
        for _ in 0..200 {
            let s = strat.generate(&mut rng);
            assert!((2..=8).contains(&s.nodes()), "{:?}", s.topology);
            assert!(s.rate_pps >= 5.0 && s.rate_pps < 60.0);
            assert!((3..=30).contains(&s.packets));
            assert!((50..=500).contains(&s.payload));
            assert!(s.faults.churn.len() < 3);
            if let Some(j) = s.faults.jam {
                assert!(j.burst_ms < j.period_ms, "burst fits inside period");
            }
            assert!(matches!(s.shards, 1 | 2 | 4 | 8));
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn draws_are_deterministic_per_case() {
        let strat = scenario_strategy();
        let a = strat.generate(&mut TestRng::for_case("det", 7));
        let b = strat.generate(&mut TestRng::for_case("det", 7));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("det", 8));
        assert_ne!(a, c, "different cases draw different scenarios");
    }

    #[test]
    fn both_fault_classes_and_protocols_appear() {
        let strat = scenario_strategy();
        let mut rng = TestRng::for_case("fuzz_strategy_coverage", 1);
        let draws: Vec<FuzzScenario> = (0..300).map(|_| strat.generate(&mut rng)).collect();
        assert!(draws.iter().any(|s| s.protocol == Protocol::Rmac));
        assert!(draws.iter().any(|s| s.protocol == Protocol::Bmmm));
        assert!(draws.iter().any(|s| s.faults.is_empty()));
        assert!(draws.iter().any(|s| !s.faults.churn.is_empty()));
        assert!(draws.iter().any(|s| s.faults.jam.is_some()));
        assert!(draws
            .iter()
            .any(|s| matches!(s.topology, FuzzTopology::Chain { .. })));
        assert!(draws
            .iter()
            .any(|s| matches!(s.topology, FuzzTopology::Cluster { .. })));
        assert!(draws.iter().any(|s| s.shards == 1));
        assert!(draws.iter().any(|s| s.shards > 1));
    }
}
