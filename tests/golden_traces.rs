//! Golden-trace regression tests: four canonical scenarios whose full
//! frame-level JSONL traces are committed under `tests/golden/` and
//! re-derived on every run.
//!
//! A byte-for-byte match is a much stronger determinism statement than the
//! `RunReport` equality the other suites check: it pins the *order and
//! timing of every frame and fault event*, so any accidental RNG draw,
//! reordered event, or changed airtime shows up as a one-line diff instead
//! of a silently shifted aggregate.
//!
//! When a trace changes **intentionally** (protocol fix, schema change),
//! regenerate with:
//!
//! ```text
//! RMAC_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rmac::engine::{filter_tracer, Reference, TraceLevel, Tracer};
use rmac::faults::{JamTarget, JammerSpec};
use rmac::mobility::Pos;
use rmac::prelude::*;
use rmac::sim::SimTime;

/// Execute `run` with the conformance checker on (and asserted clean) and
/// a frame-level tracer attached; return the JSONL trace as one string
/// plus the run's output. Whatever queue and shard count `run` selects,
/// the trace goes through this one sink.
fn capture_output(run: Run) -> (String, RunOutput) {
    let lines: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&lines);
    let inner: Tracer = Box::new(move |e| sink.lock().expect("trace sink").push(e.to_json()));
    let out = run
        .tracer(filter_tracer(TraceLevel::Frames, inner))
        .check()
        .execute()
        .assert_clean();
    let lines = lines.lock().expect("trace sink");
    let mut trace = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines.iter() {
        trace.push_str(l);
        trace.push('\n');
    }
    (trace, out)
}

/// The one-shard calendar-queue capture every golden file is held against.
fn capture(cfg: &ScenarioConfig, protocol: Protocol, seed: u64, plan: &FaultPlan) -> String {
    capture_output(Run::new(cfg, protocol, seed).faults(plan)).0
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed golden file (or rewrite it when
/// `RMAC_REGEN_GOLDEN=1`). On mismatch, report the first diverging line —
/// a full trace diff belongs in `git diff` after a regen, not in a panic
/// message.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("RMAC_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with RMAC_REGEN_GOLDEN=1",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let n_exp = expected.lines().count();
    let n_act = actual.lines().count();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            e,
            a,
            "{name}: first divergence at line {} (golden has {n_exp} lines, run produced {n_act});\n\
             regenerate with RMAC_REGEN_GOLDEN=1 if the change is intentional",
            i + 1
        );
    }
    panic!(
        "{name}: traces agree for the common prefix but lengths differ \
         (golden {n_exp} lines, run {n_act}); regenerate with RMAC_REGEN_GOLDEN=1 if intentional"
    );
}

/// Keep the traces reviewable: short warmup/drain, a handful of packets.
fn trim(mut cfg: ScenarioConfig, name: &str) -> ScenarioConfig {
    cfg.warmup = SimTime::from_secs(2);
    cfg.drain = SimTime::from_secs(1);
    cfg.name = name.to_string();
    cfg
}

/// The four canonical golden scenarios: (golden file, scenario, seed,
/// fault plan). Shared by the per-scenario regression tests and the replay
/// matrix.
fn golden_scenarios() -> Vec<(&'static str, ScenarioConfig, u64, FaultPlan)> {
    let one_hop = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(60.0, 0.0),
                Pos::new(0.0, 60.0),
                Pos::new(60.0, 60.0),
            ]),
        "golden-one-hop",
    );
    let hidden = trim(
        ScenarioConfig::paper_stationary(10.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(70.0, 0.0),
                Pos::new(140.0, 0.0),
            ]),
        "golden-hidden-terminal",
    );
    let jam_cfg = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                Pos::new(0.0, 0.0),
                Pos::new(60.0, 0.0),
                Pos::new(0.0, 60.0),
            ]),
        "golden-tone-jam",
    );
    let jam_plan = FaultPlan {
        jammers: vec![JammerSpec {
            x: 30.0,
            y: 30.0,
            target: JamTarget::Rbt,
            start_ms: 2100,
            period_ms: 300,
            burst_ms: 30,
        }],
        ..FaultPlan::none()
    };
    let clusters = trim(
        ScenarioConfig::paper_stationary(5.0)
            .with_packets(3)
            .with_positions(vec![
                // Cluster A: source plus two receivers.
                Pos::new(40.0, 100.0),
                Pos::new(90.0, 100.0),
                Pos::new(40.0, 160.0),
                // Cluster B: radio-isolated bystanders, > 75 m from
                // everything in A, so two shards decouple the two radio
                // components into two causally closed groups.
                Pos::new(420.0, 100.0),
                Pos::new(460.0, 140.0),
            ]),
        "golden-decoupled-clusters",
    );
    vec![
        ("one_hop_multicast.jsonl", one_hop, 7, FaultPlan::none()),
        ("hidden_terminal.jsonl", hidden, 11, FaultPlan::none()),
        ("tone_jam.jsonl", jam_cfg, 13, jam_plan),
        ("decoupled_clusters.jsonl", clusters, 17, FaultPlan::none()),
    ]
}

/// Fig. 4's shape at golden fidelity: one sender multicasting to three
/// in-range receivers — MRTS, RBT window, reliable data, ordered ABTs.
#[test]
fn golden_one_hop_multicast() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(0);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert!(
        trace.contains("\"kind\":\"Mrts\"") && trace.contains("\"kind\":\"DataReliable\""),
        "trace lost the MRTS/data exchange"
    );
    assert_golden(name, &trace);
}

/// The classic hidden-terminal line: 0 and 2 are out of range of each
/// other, both in range of 1. The trace pins how RMAC's busy tones
/// arbitrate the middle node.
#[test]
fn golden_hidden_terminal_chain() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(1);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert_golden(name, &trace);
}

/// An RBT jammer parked next to a one-hop multicast: the trace pins both
/// the jam bursts (fault events) and the MAC's deferrals under them.
#[test]
fn golden_tone_jam() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(2);
    let trace = capture(&cfg, Protocol::Rmac, seed, &plan);
    assert!(
        trace.contains("\"ev\":\"fault\""),
        "trace lost the jam bursts"
    );
    assert_golden(name, &trace);
}

/// Two radio-isolated clusters: untraced, two shards decouple them into
/// two groups; traced, the run takes the single all-shards group, because
/// the serial order of same-instant events in different clusters is push
/// order, which neither group knows of the other.
#[test]
fn golden_decoupled_clusters() {
    let (name, cfg, seed, plan) = golden_scenarios().swap_remove(3);
    let (trace, serial) = capture_output(Run::new(&cfg, Protocol::Rmac, seed).faults(&plan));
    assert_golden(name, &trace);

    let cfg = cfg.with_shards(2);
    let two_shards = || Run::new(&cfg, Protocol::Rmac, seed).faults(&plan);
    let untraced = two_shards().execute();
    assert_eq!(untraced.shard.groups, 2);
    assert_eq!(untraced.report, serial.report);

    let (sharded_trace, traced) = capture_output(two_shards());
    assert_eq!(traced.shard.groups, 1);
    assert_eq!(traced.report, serial.report);
    assert_eq!(sharded_trace, trace, "{name}: sharded trace diverged");
}

/// The checker is not an order observer: a `.check()`-only run of the
/// clusters still decomposes, and its verdict is the per-group verdicts
/// merged — clean, with the serial checker's gate counts.
#[test]
fn checked_decoupled_clusters_still_decompose() {
    let (_, cfg, seed, plan) = golden_scenarios().swap_remove(3);
    let run = |cfg: &ScenarioConfig| Run::new(cfg, Protocol::Rmac, seed).faults(&plan).check();
    let serial = run(&cfg).execute().assert_clean();
    let sharded = run(&cfg.clone().with_shards(2)).execute().assert_clean();
    assert_eq!(sharded.shard.groups, 2);
    assert_eq!(sharded.report, serial.report);
    let gates = |out: &RunOutput| {
        let c = out.check.as_ref().expect("check");
        (
            c.tx_checked,
            c.rx_ok_checked,
            c.tone_emissions,
            c.transition_nodes,
        )
    };
    assert_eq!(gates(&sharded), gates(&serial));
}

/// The engine's trace contract as a full matrix: every golden scenario
/// replays **byte-stable** at 1/2/4/8 shards on the calendar queue and at
/// 1/2/4 shards on the heap reference queue. Traces are compared both
/// against a fresh one-shard capture (the live contract) and against the
/// committed golden file (so a simultaneous drift of both cannot slip
/// through). The goldens were recorded from live scheduler-stream draws,
/// so they are the independent oracle for the beacon timetable every run
/// now reads; the heap legs pin the calendar scheduler against the
/// binary-heap reference at frame granularity; a traced run is the single
/// all-shards group at any shard count.
#[test]
fn golden_traces_replay_byte_stable_under_sharding() {
    let regen = std::env::var("RMAC_REGEN_GOLDEN").ok().as_deref() == Some("1");
    for (name, cfg, seed, plan) in golden_scenarios() {
        let oracle = capture(&cfg, Protocol::Rmac, seed, &plan);
        let run = |cfg: &ScenarioConfig| Run::new(cfg, Protocol::Rmac, seed).faults(&plan);
        for shards in [1usize, 2, 4, 8] {
            let cfg = cfg.clone().with_shards(shards);
            let (sharded, _) = capture_output(run(&cfg));
            assert_eq!(
                sharded, oracle,
                "{name}: trace diverged from the one-shard capture (shards={shards})"
            );
            if shards <= 4 {
                let (heap, _) = capture_output(run(&cfg).reference(Reference::HeapQueue));
                assert_eq!(
                    heap, oracle,
                    "{name}: heap-reference trace diverged from the calendar queue's (shards={shards})"
                );
            }
        }
        if !regen {
            let committed = std::fs::read_to_string(golden_path(name))
                .unwrap_or_else(|e| panic!("missing golden file {name} ({e})"));
            assert_eq!(
                oracle, committed,
                "{name}: capture diverged from the committed golden"
            );
        }
    }
}
