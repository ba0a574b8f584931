//! `obs_report`: run one fully instrumented replication and turn it into
//! human-readable observability output plus machine-readable artifacts.
//!
//! The run has *everything* on — kernel profiling with wall clocks, the
//! per-node protocol counters, the snapshot sampler, and a full-stream
//! JSONL trace — and is still checked bit-identical against an
//! uninstrumented run of the same seed before anything is rendered. The
//! bin exits nonzero if the reports diverge, if any trace line was dropped
//! on write, if any written line fails to parse against the documented
//! schema, if a JSON artifact does not read back as what the run
//! reported, or if the stream's per-kind frame tallies differ from the
//! channel's, so CI can use it as the instrumentation smoke test
//! (`--smoke` shrinks the scenario; any other argument exits 2). Every
//! table it prints is an `rmac_metrics::Table` built here.
//!
//! Artifacts land in `results/obs/`: `trace.jsonl` (the event trace),
//! `snapshots.jsonl` (the sampled time series), `obs.json` (the whole
//! [`rmac_obs::ObsReport`]) and `shard_balance.json` (a four-shard rerun's
//! groups).

use std::process::exit;

use rmac_engine::{
    render_timeline, GroupStats, JsonlSink, ObsConfig, Protocol, Run, ScenarioConfig, ShardStats,
    TraceEvent, TraceLevel,
};
use rmac_experiments::parse_smoke;
use rmac_metrics::table::fmt;
use rmac_metrics::{frame_kind_table, RunReport, Table, FRAME_KINDS};
use rmac_obs::json::Json;
use rmac_obs::{KernelProfiler, NodeObs, ObsReport, Snapshot, TONE_LABELS};
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

/// The cells of a row, each as text.
fn cells<T: ToString>(row: impl IntoIterator<Item = T>) -> Vec<String> {
    row.into_iter().map(|c| c.to_string()).collect()
}

/// The event-loop self-profile: one row per class that dispatched, with
/// its wall-time summary when the dispatches were timed.
fn kernel_table(k: &KernelProfiler) -> Table {
    let clock = if k.wall_enabled() { "on" } else { "off" };
    let mut t = Table::new(
        format!("Event-loop profile (wall clock {clock})"),
        &[
            "class", "count", "mean_ns", "p50_ns<=", "p99_ns<=", "max_ns",
        ],
    );
    for (i, label) in k.labels().iter().enumerate() {
        let (count, wall) = (k.class_count(i), k.class_wall(i));
        if count == 0 {
            continue;
        }
        let stats = match wall.is_empty() {
            true => ["-"; 4].map(String::from),
            false => [
                fmt(wall.mean(), 0),
                wall.quantile(0.5).to_string(),
                wall.quantile(0.99).to_string(),
                wall.max().to_string(),
            ],
        };
        let mut row = vec![label.to_string(), count.to_string()];
        row.extend(stats);
        t.row(row);
    }
    t
}

/// The end-of-run counters, then the gauges.
fn scalar_table(obs: &ObsReport) -> Table {
    let mut t = Table::new("Kernel counters", &["name", "value"]);
    for (name, v) in obs.counters.iter().chain(&obs.gauges) {
        t.row(vec![name.to_string(), v.to_string()]);
    }
    t
}

/// The state-transition matrix summed over nodes — the observed edges of
/// the paper's Table 1 — with a row for each state left at least once and
/// `.` for an edge never taken.
fn transition_table(obs: &ObsReport) -> Table {
    let labels = &obs.transition_labels;
    let n = labels.len();
    let mut sum = vec![0u64; n * n];
    for node in obs
        .nodes
        .iter()
        .filter(|node| node.transitions.len() == n * n)
    {
        for (a, b) in sum.iter_mut().zip(&node.transitions) {
            *a += b;
        }
    }
    let headers: Vec<&str> = std::iter::once("from")
        .chain(labels.iter().copied())
        .collect();
    let mut t = Table::new("State transitions (all nodes, from ↓ to →)", &headers);
    for (from, label) in labels.iter().enumerate() {
        let row = &sum[from * n..(from + 1) * n];
        if row.iter().any(|&c| c > 0) {
            let counts = row.iter().map(|&c| match c {
                0 => ".".to_string(),
                c => c.to_string(),
            });
            t.row(cells(std::iter::once(label.to_string()).chain(counts)));
        }
    }
    t
}

/// The per-node protocol counters of every node that sent or heard a
/// frame.
fn node_table(obs: &ObsReport) -> Table {
    let mut t = Table::new(
        "Per-node protocol counters",
        &[
            "node", "tx", "abort", "rx_ok", "rx_bad", "submit", "deliv", "t_arm", "t_fire",
            "cancel", "stale", "rbt_ms", "abt_ms",
        ],
    );
    for (i, n) in obs.nodes.iter().enumerate() {
        if n.tx_total() == 0 && n.rx_ok_total() == 0 && n.rx_corrupt_total() == 0 {
            continue;
        }
        let counts = [
            i as u64,
            n.tx_total(),
            n.tx_aborted,
            n.rx_ok_total(),
            n.rx_corrupt_total(),
            n.submitted,
            n.delivered,
            n.timer_arm_total(),
            n.timer_fire_total(),
            n.timer_cancelled_total(),
            n.timer_stale_total(),
        ];
        let tones = n.tone_busy_ns.map(|ns| fmt(ns as f64 / 1e6, 2));
        let mut row = cells(counts);
        row.extend(tones);
        t.row(row);
    }
    t
}

/// Each tone's sensed occupancy summed over nodes.
fn tone_table(obs: &ObsReport) -> Table {
    let mut t = Table::new("Sensed tone occupancy (all nodes)", &["tone", "ms"]);
    for (i, label) in TONE_LABELS.iter().enumerate() {
        let ns: u64 = obs.nodes.iter().map(|n| n.tone_busy_ns[i]).sum();
        t.row(vec![label.to_string(), fmt(ns as f64 / 1e6, 2)]);
    }
    t
}

/// The sampled time series.
fn snapshot_table(snapshots: &[Snapshot]) -> Table {
    let mut t = Table::new(
        format!("Time series ({} samples)", snapshots.len()),
        &[
            "t_ms", "events", "q_len", "q_hiwat", "tx", "rx_ok", "rx_bad", "received",
        ],
    );
    for s in snapshots {
        let counts = [
            s.events,
            s.queue_len,
            s.queue_high_water,
            s.tx_frames,
            s.rx_ok,
            s.rx_corrupt,
            s.receptions,
        ];
        let mut row = vec![fmt(s.t_ns as f64 / 1e6, 1)];
        row.extend(cells(counts));
        t.row(row);
    }
    t
}

/// Max over mean events per group: how evenly the packing split the work
/// (1 when no group dispatched anything).
fn balance(groups: &[GroupStats]) -> f64 {
    let total: u64 = groups.iter().map(|g| g.events).sum();
    let max = groups.iter().map(|g| g.events).max().unwrap_or(0);
    match total {
        0 => 1.0,
        _ => max as f64 * groups.len() as f64 / total as f64,
    }
}

/// One row per shard group. The event counts are deterministic simulation
/// state; the wall readings are not.
fn balance_table(stats: &ShardStats) -> Table {
    let groups = &stats.group_stats;
    let slots: usize = groups.iter().map(|g| g.slots).sum();
    let events: u64 = groups.iter().map(|g| g.events).sum();
    let mut t = Table::new(
        format!(
            "Shard balance ({} shards -> {} groups of whole radio components, {slots} slots, \
             {events} events, max/mean events {})",
            stats.shards,
            groups.len(),
            fmt(balance(groups), 2)
        ),
        &["group", "first_slot", "slots", "events", "wall_ms"],
    );
    for (i, g) in groups.iter().enumerate() {
        let counts = [i as u64, g.first_slot as u64, g.slots as u64, g.events];
        let mut row = cells(counts);
        row.push(fmt(g.wall_ns as f64 / 1e6, 3));
        t.row(row);
    }
    t
}

/// Whether the stream's per-kind `tx`, `rx_ok` and `rx_corrupt`, summed
/// over nodes, are the channel's tallies in the `RunReport`: two
/// independent counts of every frame of a fault-free run.
fn frame_kinds_agree(obs: &ObsReport, r: &RunReport) -> bool {
    let sum = |k, f: fn(&NodeObs) -> &[u64; FRAME_KINDS]| -> u64 {
        obs.nodes.iter().map(|n| f(n)[k]).sum()
    };
    (0..FRAME_KINDS).all(|k| {
        sum(k, |n| &n.tx) == r.tx_frames[k]
            && sum(k, |n| &n.rx_ok) == r.rx_frames_ok[k]
            && sum(k, |n| &n.rx_corrupt) == r.rx_frames_corrupt[k]
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = parse_smoke(&args).unwrap_or_else(|e| {
        eprintln!("obs_report: {e}\nusage: obs_report [--smoke]");
        exit(2);
    });
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
    let base = Run::new(&cfg, Protocol::Rmac, SEED).execute().report;

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

    if !frame_kinds_agree(&obs, &report) {
        fail("the stream's per-kind frame tallies differ from the channel's");
    }

    let tables = [
        kernel_table(&obs.kernel),
        scalar_table(&obs),
        frame_kind_table(&report),
        transition_table(&obs),
        node_table(&obs),
        tone_table(&obs),
        snapshot_table(&obs.snapshots),
    ];
    for t in tables {
        println!("{}", t.render());
    }
    println!("{}", render_timeline(&records, 5_000_000, 40));
    println!("{}", balance_table(&stats).render());
    println!(
        "ok: RunReport bit-identical, {} trace lines written, 0 dropped \
         (artifacts in results/obs/)",
        summary.written
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [&str; 3] = ["phy", "timer", "beacon"];

    /// A report of `nodes` under the state labels `states`.
    fn report(states: &[&'static str], nodes: Vec<NodeObs>) -> ObsReport {
        ObsReport {
            counters: Vec::new(),
            gauges: Vec::new(),
            kernel: KernelProfiler::new(&CLASSES, false),
            timer_labels: &[],
            transition_labels: states.to_vec(),
            nodes,
            snapshots: Vec::new(),
        }
    }

    /// The rows of a rendered table, each split into its cells.
    fn rows(t: &Table) -> Vec<Vec<String>> {
        let text = t.render();
        text.lines()
            .skip(3)
            .map(|l| cells(l.split_whitespace()))
            .collect()
    }

    #[test]
    fn a_class_that_never_dispatched_has_no_row() {
        let mut k = KernelProfiler::new(&CLASSES, false);
        k.count(1);
        assert_eq!(
            rows(&kernel_table(&k)),
            [["timer", "1", "-", "-", "-", "-"]]
        );
        let mut k = KernelProfiler::new(&CLASSES, true);
        k.record_ns(2, 500);
        assert_eq!(
            rows(&kernel_table(&k)),
            [["beacon", "1", "500", "500", "500", "500"]]
        );
    }

    #[test]
    fn transitions_are_summed_across_nodes() {
        let node = |transitions: Vec<u64>| NodeObs {
            transitions,
            ..NodeObs::new(0)
        };
        let obs = report(
            &["Idle", "Busy"],
            vec![node(vec![0, 2, 1, 0]), node(vec![0, 1, 0, 0])],
        );
        assert_eq!(
            rows(&transition_table(&obs)),
            [["Idle", ".", "3"], ["Busy", "1", "."]]
        );
        let none = report(&[], obs.nodes);
        assert_eq!(
            transition_table(&none).render().lines().nth(1),
            Some("from")
        );
    }

    #[test]
    fn frame_kinds_agree_only_kind_by_kind() {
        let node = |tx: u64| NodeObs {
            tx: [tx, 0, 0, 0, 0, 0, 0, 0, 0],
            rx_ok: [0, tx, 0, 0, 0, 0, 0, 0, 0],
            ..NodeObs::new(0)
        };
        let obs = report(&[], vec![node(2), node(3)]);
        let mut channel = RunReport::default();
        channel.tx_frames[0] = 5;
        channel.rx_frames_ok[1] = 5;
        assert!(frame_kinds_agree(&obs, &channel));
        channel.rx_frames_ok.swap(1, 2);
        assert!(!frame_kinds_agree(&obs, &channel));
    }

    #[test]
    fn balance_is_max_over_mean_events() {
        let group = |first_slot, slots, events, wall_ns| GroupStats {
            first_slot,
            slots,
            events,
            wall_ns,
        };
        let two = ShardStats {
            shards: 3,
            groups: 2,
            cross_pushes: 0,
            group_stats: vec![group(0, 12, 300, 2_500_000), group(5, 4, 100, 900_000)],
        };
        // 300 / mean(300, 100).
        assert_eq!(balance(&two.group_stats), 1.5);
        let t = balance_table(&two);
        let title = "3 shards -> 2 groups of whole radio components, 16 slots, 400 events, \
                     max/mean events 1.50";
        assert!(t.render().contains(title), "{}", t.render());
        assert_eq!(rows(&t)[1], ["1", "5", "4", "100", "0.900"]);
        let none = ShardStats {
            groups: 0,
            group_stats: Vec::new(),
            ..two
        };
        assert_eq!(balance(&none.group_stats), 1.0);
        assert!(balance_table(&none).render().contains("0 groups"));
    }
}
