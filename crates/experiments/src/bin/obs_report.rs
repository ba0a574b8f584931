//! `obs_report`: run one fully instrumented replication and turn it into
//! human-readable observability output plus machine-readable artifacts.
//!
//! The run has *everything* on — kernel profiling with wall clocks, the
//! per-node protocol counters, the snapshot sampler, and a full-stream
//! JSONL trace — and is still checked bit-identical against an
//! uninstrumented run of the same seed before anything is rendered. The
//! bin exits nonzero if the reports diverge, if any trace line was dropped
//! on write, if any written line fails to parse against the documented
//! schema, or if a JSON artifact does not read back as what the run
//! reported, so CI can use it as the instrumentation smoke test (`--smoke`
//! shrinks the scenario).
//!
//! Artifacts land in `results/obs/`: `trace.jsonl` (the event trace),
//! `snapshots.jsonl` (the sampled time series), `obs.json` (the whole
//! [`rmac_obs::ObsReport`]) and `shard_balance.json` (a four-shard rerun's
//! groups).

use std::process::exit;

use rmac_engine::{
    render_timeline, run_replication, JsonlSink, ObsConfig, Protocol, Run, ScenarioConfig,
    TraceEvent, TraceLevel,
};
use rmac_metrics::frame_kind_table;
use rmac_obs::json::Json;
use rmac_obs::Snapshot;
use rmac_sim::SimTime;

/// The replication's seed.
const SEED: u64 = 1;

fn fail(msg: &str) -> ! {
    eprintln!("obs_report: FAIL: {msg}");
    exit(1);
}

/// The JSON document at `path`, or each of its lines.
fn read_json(path: &str, lines: bool) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let docs = match lines {
        true => text.lines().map(Json::parse).collect(),
        false => Json::parse(&text).map(|doc| vec![doc]),
    };
    docs.unwrap_or_else(|e| fail(&format!("{path} does not parse: {e}")))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nodes, packets) = if smoke { (15, 8) } else { (75, 40) };
    // `with_nodes` keeps the paper's node density, so the smoke network
    // stays connected and actually exercises reliable sends.
    let cfg = ScenarioConfig::paper_stationary(10.0)
        .with_nodes(nodes)
        .with_packets(packets);
    eprintln!(
        "obs_report: {} nodes, {} packets, seed {SEED}{}",
        nodes,
        packets,
        if smoke { " (smoke)" } else { "" }
    );

    // The uninstrumented reference the instrumented run must match.
    let base = run_replication(&cfg, Protocol::Rmac, SEED);

    std::fs::create_dir_all("results/obs").expect("create results/obs/");
    let sink = JsonlSink::create("results/obs/trace.jsonl").expect("create trace.jsonl");
    // Full stream: the Signal filter is the identity, but routing through
    // it exercises the level plumbing end to end.
    let out = Run::new(&cfg, Protocol::Rmac, SEED)
        .tracer(rmac_engine::filter_tracer(
            TraceLevel::Signal,
            sink.tracer(),
        ))
        .obs(ObsConfig::full(SimTime::from_millis(250)))
        .execute();
    let (report, obs) = (out.report, out.obs.expect("obs was attached"));

    if report != base {
        fail("instrumented RunReport differs from the uninstrumented run");
    }
    let summary = sink.finish().expect("flush trace.jsonl");
    if summary.dropped != 0 {
        fail(&format!("{} trace lines dropped on write", summary.dropped));
    }

    let snapshots = obs
        .snapshots
        .iter()
        .map(Snapshot::to_json)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    std::fs::write("results/obs/snapshots.jsonl", snapshots).expect("write snapshots.jsonl");
    std::fs::write("results/obs/obs.json", obs.to_json()).expect("write obs.json");

    // Round-trip the trace through the documented schema.
    let text = std::fs::read_to_string("results/obs/trace.jsonl").expect("read trace.jsonl back");
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match TraceEvent::from_json(line) {
            Ok(r) => records.push(r),
            Err(e) => fail(&format!(
                "trace line {} is off the schema ({e}): {line}",
                i + 1
            )),
        }
    }
    if records.len() as u64 != summary.written {
        fail(&format!(
            "trace has {} lines but the sink wrote {}",
            records.len(),
            summary.written
        ));
    }

    // Shard-balance telemetry: re-run the same scenario at four shards
    // (its radio components packed into at most 16 groups) and surface
    // its per-group scheduling rows. The event counts are deterministic;
    // only wall_ns is telemetry.
    let sharded = Run::new(&cfg.clone().with_shards(4), Protocol::Rmac, SEED).execute();
    if sharded.report != base {
        fail("four-shard RunReport differs from the one-group run's");
    }
    let stats = sharded.shard;
    std::fs::write(
        "results/obs/shard_balance.json",
        stats.balance_json() + "\n",
    )
    .expect("write shard_balance.json");

    // Read the JSON artifacts back with the workspace's reader: each parses
    // and holds what the run reported.
    let doc = &read_json("results/obs/obs.json", false)[0];
    let counted = doc
        .get("registry")
        .and_then(|r| r.get("counters"))
        .is_some_and(|c| (obs.counters.iter()).all(|&(n, v)| c.uint(n) == Ok(v)));
    if !counted || doc.arr("nodes").map(<[Json]>::len) != Ok(obs.nodes.len()) {
        fail("obs.json does not read back as the report it was written from");
    }
    let snaps = read_json("results/obs/snapshots.jsonl", true);
    let events: Result<Vec<u64>, String> = snaps.iter().map(|s| s.uint("events")).collect();
    if events != Ok(obs.snapshots.iter().map(|s| s.events).collect()) {
        fail("snapshots.jsonl does not read back as the snapshots taken");
    }
    let events: Result<Vec<u64>, String> =
        match &read_json("results/obs/shard_balance.json", false)[0] {
            Json::Arr(rows) => rows.iter().map(|r| r.uint("events")).collect(),
            other => Err(format!("not an array: {}", other.render())),
        };
    if events != Ok(stats.group_stats.iter().map(|g| g.events).collect()) {
        fail("shard_balance.json does not read back as the groups that ran");
    }

    println!("{}", obs.render());
    println!("{}", frame_kind_table(&report).render());
    println!("{}", render_timeline(&records, 5_000_000, 40));
    let slots: usize = stats.group_stats.iter().map(|g| g.slots).sum();
    println!(
        "shard balance (4 shards -> {} groups of whole radio components, {slots} slots):",
        stats.groups
    );
    println!("{}", stats.render_balance());
    println!(
        "ok: RunReport bit-identical, {} trace lines written, 0 dropped \
         (artifacts in results/obs/)",
        summary.written
    );
}
