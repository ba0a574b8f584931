//! The engine: every replication runs as its shard groups (DESIGN.md §10).
//!
//! The plane is cut into `cfg.shards` equal-width stripes along x; every
//! channel slot (protocol node or jammer) belongs to the stripe containing
//! its initial position. A replication is one or more *shard groups*:
//!
//! * Stripes whose populations are radio-isolated from each other — no
//!   cross-stripe pair within `range_m` — can never exchange events,
//!   because every event the engine generates targets either its emitting
//!   node or a receiver within radio range. The coupling analysis
//!   ([`coupled_groups`]) unions stripes bridged by an in-range pair; the
//!   resulting connected components are *causally closed* and run
//!   concurrently, one runner each.
//! * A group's runner is the [`Runner`] that owns the group's slots: it
//!   builds the full-width world (so global node indexing, RNG stream
//!   derivation and the spatial grid are untouched) on its own queue and
//!   seeds only what it owns. Since the whole-world execution restricted
//!   to a causally closed subset *is* that subset's own execution (FIFO
//!   tie-breaks are preserved on subsequences), each group reproduces its
//!   slice of the whole-world run exactly.
//! * The one RNG stream that would cross groups — the beacon scheduler —
//!   is closed under the beacon subsystem, so it is played out into the
//!   [`BeaconTimetable`] when the run starts and every group reads that.
//!
//! One stripe is one group that owns every slot: the whole-world run, with
//! no stripe map, coupling analysis or thread. So is every run whose causal
//! closure cannot be proven cheaply — mobility (nodes roam the whole plane),
//! a positive BER (the channel-noise draws are globally sequenced) — and
//! every run carrying what observes *global event order*: engine obs (its
//! kernel profile and snapshot series describe one event loop) and a tracer
//! (among radio-isolated groups the tie-break at equal timestamps is push
//! order, which no group can know of another), so a trace is the same JSONL
//! at any shard count by construction (`tests/golden_traces.rs`). The
//! checker composes per group instead ([`merge_checks`]): its invariants
//! are local to a node and its radio neighbourhood.
//!
//! Per-group results merge back losslessly ([`collect`]);
//! `tests/shard_equivalence.rs` holds decomposition, ownership and merge
//! to `RunReport` bit-identity against the one-group run at 2/4/8 shards.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rmac_check::CheckReport;
use rmac_mobility::{MobilityKind, Pos};
use rmac_obs::ObsReport;
use rmac_phy::FrameTallies;
use rmac_sim::{try_tasks, SimQueue, SimRng, SimTime};

use crate::config::{Protocol, ScenarioConfig};
use crate::run::{RunOutput, Spec};
use crate::trace::Tracer;
use crate::world::{build_motions, collect_report, BeaconTimetable, Ev, Harvest, Runner};

/// Guard margin on the radio range when testing whether two stripes are
/// coupled. Coupling strictly more than the channel does is always safe
/// (it only costs parallelism); this absorbs any floating-point slack in
/// the channel's own `dist ≤ range` comparison.
const RANGE_EPS: f64 = 1e-6;

/// Spatial partition of channel slots (protocol nodes, then jammers) into
/// `shards` equal-width stripes along x: each slot's owning stripe,
/// `floor(x / (width / shards))`, clamped into range so positions on (or
/// beyond) the right edge land in the last stripe.
fn stripes(positions: &[Pos], width: f64, shards: usize) -> Vec<usize> {
    let stripe_w = width / shards as f64;
    let stripe_of = |p: &Pos| {
        if stripe_w > 0.0 && p.x.is_finite() {
            ((p.x / stripe_w).floor() as i64).clamp(0, shards as i64 - 1) as usize
        } else {
            0
        }
    };
    positions.iter().map(stripe_of).collect()
}

/// Union shards bridged by any cross-stripe slot pair within radio range
/// and return the connected components (each a sorted list of shard ids,
/// components ordered by their smallest member). Components are causally
/// closed: no event generated inside one can target a slot in another.
pub(crate) fn coupled_groups(
    positions: &[Pos],
    owner: &[usize],
    shards: usize,
    range_m: f64,
) -> Vec<Vec<usize>> {
    fn find(uf: &mut [usize], mut i: usize) -> usize {
        while uf[i] != i {
            uf[i] = uf[uf[i]];
            i = uf[i];
        }
        i
    }
    let mut uf: Vec<usize> = (0..shards).collect();
    let reach = range_m + RANGE_EPS;
    // Plane sweep along x: only pairs with |dx| ≤ reach can couple, so a
    // sliding window keeps the check near-linear for striped layouts.
    let mut order: Vec<usize> = (0..positions.len()).collect();
    order.sort_by(|&a, &b| {
        positions[a]
            .x
            .partial_cmp(&positions[b].x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut lo = 0usize;
    for k in 0..order.len() {
        let i = order[k];
        while positions[order[lo]].x < positions[i].x - reach {
            lo += 1;
        }
        for &j in &order[lo..k] {
            if owner[i] == owner[j] {
                continue;
            }
            let (ri, rj) = (find(&mut uf, owner[i]), find(&mut uf, owner[j]));
            if ri == rj {
                continue;
            }
            let dx = positions[i].x - positions[j].x;
            let dy = positions[i].y - positions[j].y;
            if dx * dx + dy * dy <= reach * reach {
                // Union to the smaller root so components keep their
                // smallest shard id as representative.
                uf[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut components: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for s in 0..shards {
        let r = find(&mut uf, s);
        components[r].push(s);
    }
    components.retain(|g| !g.is_empty());
    components
}

/// Scheduling statistics of one replication.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Configured shard count.
    pub shards: usize,
    /// Causally closed shard groups the run decomposed into (1 for a
    /// whole-world run).
    pub groups: usize,
    /// 0 by construction: a group is one queue and groups exchange nothing
    /// (causal closure); dropped with the other pinned names under ROADMAP
    /// 2(c).
    pub cross_pushes: u64,
    /// Per-group scheduling breakdown, in group order (groups are ordered
    /// by their smallest shard id): the shard-balance raw material of
    /// `obs_report`.
    pub group_stats: Vec<GroupStats>,
}

impl ShardStats {
    /// Aligned plain-text shard-balance table: one row per group plus a
    /// totals line. Balance (max/mean events per group) quantifies how
    /// evenly the coupling analysis split the work. The event counts are
    /// deterministic simulation state; the wall readings are not.
    pub fn render_balance(&self) -> String {
        let rows = &self.group_stats;
        let mut out = format!(
            "{:<8} {:<10} {:>12} {:>10}\n",
            "group", "shards", "events", "wall_ms"
        );
        for (i, r) in rows.iter().enumerate() {
            let shards: Vec<String> = r.shards.iter().map(|s| s.to_string()).collect();
            let wall_ms = r.wall_ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "{i:<8} {:<10} {:>12} {wall_ms:>10.3}",
                shards.join("+"),
                r.events
            );
        }
        let total: u64 = rows.iter().map(|r| r.events).sum();
        let max = rows.iter().map(|r| r.events).max().unwrap_or(0);
        let balance = match total {
            0 => 1.0,
            _ => max as f64 / (total as f64 / rows.len() as f64),
        };
        let _ = writeln!(
            out,
            "total: {} groups, {total} events, balance (max/mean events) {balance:.2}",
            rows.len()
        );
        out
    }

    /// The per-group breakdown as a JSON array (hand-rolled, like every
    /// serializer in this workspace).
    pub fn balance_json(&self) -> String {
        let row = |r: &GroupStats| {
            let shards: Vec<String> = r.shards.iter().map(|s| s.to_string()).collect();
            format!(
                "{{\"shards\":[{}],\"events\":{},\"wall_ns\":{}}}",
                shards.join(","),
                r.events,
                r.wall_ns
            )
        };
        let rows: Vec<String> = self.group_stats.iter().map(row).collect();
        format!("[{}]", rows.join(","))
    }
}

/// One shard group's scheduling statistics.
#[derive(Clone, Debug)]
pub struct GroupStats {
    /// The shard ids the group owns, sorted ascending.
    pub shards: Vec<usize>,
    /// Events the group dispatched.
    pub events: u64,
    /// Wall-clock time the group's worker spent running it. Wall readings
    /// live outside the determinism domain: they feed the balance table
    /// only, never a `RunReport` or the campaign store.
    pub wall_ns: u64,
}

/// Result of one shard group's run.
struct GroupRun {
    harvest: Harvest,
    check: Option<CheckReport>,
    /// Attached obs forces a single group, so at most one run carries it.
    obs: Option<ObsReport>,
    wall_ns: u64,
}

/// Run one group to its end and close out its attachments — the one way a
/// runner finishes, whether it is its replication's only group or one of
/// many.
fn run_group<Q: SimQueue<Ev>>(mut runner: Runner<Q>, beacons: &BeaconTimetable) -> GroupRun {
    let started = Instant::now();
    runner.run_events(beacons);
    let check = runner.finish_check();
    let obs = runner.finish_obs();
    GroupRun {
        harvest: runner.harvest(),
        check,
        obs,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Run an assembled whole-world runner as the one group of its replication
/// (every stripe, every slot). The beacon schedule is built here, when the
/// run starts: assembly stays independent of the run's length.
pub(crate) fn run_whole<Q: SimQueue<Ev>>(runner: Runner<Q>, seed: u64) -> RunOutput {
    let (cfg, protocol) = (Arc::clone(&runner.cfg), runner.protocol);
    let beacons = BeaconTimetable::build(&cfg, runner.seed);
    let done = run_group(runner, &beacons);
    let every_stripe = (0..cfg.shards.max(1)).collect();
    collect(&cfg, protocol, seed, vec![every_stripe], vec![done])
}

/// Run `spec` to completion as its shard groups, each on a queue `make_q`
/// builds.
pub(crate) fn execute<Q: SimQueue<Ev>>(
    spec: &Spec,
    tracer: Option<Tracer>,
    make_q: fn(usize) -> Q,
) -> RunOutput {
    let cfg = &*spec.cfg;
    // Causal closure is only provable for frozen geometry and a noise-
    // free channel: mobility lets nodes roam across stripes, and a
    // positive BER sequences the shared channel-noise stream over all
    // receptions. Obs and the tracer observe global event order, which
    // only the single group reproduces.
    let decomposes = cfg.shards > 1
        && matches!(cfg.mobility, MobilityKind::Stationary)
        && cfg.ber_per_bit == 0.0
        && spec.obs.is_none()
        && tracer.is_none();
    if !decomposes {
        let mut runner = Runner::assemble(spec, make_q, |_| true);
        runner.attach(None, false, tracer);
        return run_whole(runner, spec.seed);
    }
    let positions: Vec<Pos> = build_motions(cfg, &spec.plan, &SimRng::new(spec.seed))
        .iter_mut()
        .map(|m| m.position_at(SimTime::ZERO))
        .collect();
    let owner = stripes(&positions, cfg.bounds.width, cfg.shards);
    let groups = coupled_groups(&positions, &owner, cfg.shards, cfg.range_m);
    let beacons = BeaconTimetable::build(cfg, spec.seed);
    let run = |group: &Vec<usize>| {
        let runner = Runner::assemble(spec, make_q, |slot| group.contains(&owner[slot]));
        run_group(runner, &beacons)
    };

    // The one worker pool: one worker per core, capped by the group count,
    // so on a single-core host the groups run back to back and the speedup
    // over the one-group run is pure working-set reduction (smaller event
    // queue, smaller live state per group). A group panic surfaces with its
    // own message.
    let results =
        try_tasks(&groups, run, |g| format!("shard group {g:?}")).unwrap_or_else(|e| panic!("{e}"));
    collect(cfg, spec.protocol, spec.seed, groups, results)
}

/// Merge the groups' results into the replication's output. Per-node state
/// comes from each node's owner group, walked in global node order so the
/// float accumulation in `collect_report` sums as the whole-world run does;
/// channel/fault tallies are sums and the final clock is the max.
fn collect(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    groups: Vec<Vec<usize>>,
    results: Vec<GroupRun>,
) -> RunOutput {
    let group_stats = groups
        .into_iter()
        .zip(&results)
        .map(|(shards, r)| GroupStats {
            shards,
            events: r.harvest.events,
            wall_ns: r.wall_ns,
        })
        .collect::<Vec<_>>();
    let mut results = results.into_iter();
    let first = results.next().expect("at least one shard group");
    let (mut merged, obs, mut check) = (first.harvest, first.obs, first.check);
    for r in results {
        let h = r.harvest;
        for (i, (net, ctr)) in h.nets.into_iter().zip(h.counters).enumerate() {
            if h.owned[i] {
                merged.nets[i] = net;
                merged.counters[i] = ctr;
            }
        }
        add_tallies(&mut merged.frames, &h.frames);
        merged.faults_injected += h.faults_injected;
        merged.events += h.events;
        merged.now = merged.now.max(h.now);
        merged.packets_sent += h.packets_sent;
        merged.crashes += h.crashes;
        merged.jam_bursts += h.jam_bursts;
        check = check.zip(r.check).map(|(a, b)| merge_checks(a, b));
    }
    RunOutput {
        report: collect_report(cfg, protocol, seed, &merged),
        obs,
        check,
        parents: merged.nets.iter().map(|n| n.bless().parent()).collect(),
        shard: ShardStats {
            shards: cfg.shards.max(1),
            groups: group_stats.len(),
            cross_pushes: 0,
            group_stats,
        },
    }
}

fn add_tallies(into: &mut FrameTallies, from: &FrameTallies) {
    for (a, b) in into.tx_frames.iter_mut().zip(from.tx_frames) {
        *a += b;
    }
    into.tx_aborted += from.tx_aborted;
    for (a, b) in into.rx_ok.iter_mut().zip(from.rx_ok) {
        *a += b;
    }
    for (a, b) in into.rx_corrupt.iter_mut().zip(from.rx_corrupt) {
        *a += b;
    }
}

/// Append one group's conformance report to the ones before it: violations
/// in group order, gate counters summed, truncation sticky.
fn merge_checks(mut out: CheckReport, r: CheckReport) -> CheckReport {
    out.violations.extend(r.violations);
    out.tx_checked += r.tx_checked;
    out.rx_ok_checked += r.rx_ok_checked;
    out.tone_emissions += r.tone_emissions;
    out.transition_nodes += r.transition_nodes;
    out.truncated |= r.truncated;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, Run, ScenarioConfig};

    #[test]
    fn stripes_partition_by_x() {
        let pos = [
            Pos::new(10.0, 5.0),
            Pos::new(240.0, 5.0),
            Pos::new(499.0, 5.0),
            Pos::new(250.0, 299.0),
        ];
        assert_eq!(stripes(&pos, 500.0, 2), vec![0, 0, 1, 1]);
        // Positions on/past the right edge clamp into the last stripe.
        let edges = [Pos::new(500.0, 0.0), Pos::new(-3.0, 0.0)];
        assert_eq!(stripes(&edges, 500.0, 4), vec![3, 0]);
    }

    #[test]
    fn isolated_stripes_form_separate_groups() {
        // Two clusters 300 m apart with a 75 m radio: the stripes are
        // radio-isolated and decompose into two groups.
        let pos = [
            Pos::new(50.0, 50.0),
            Pos::new(60.0, 50.0),
            Pos::new(440.0, 50.0),
            Pos::new(450.0, 50.0),
        ];
        let owner = stripes(&pos, 500.0, 2);
        let groups = coupled_groups(&pos, &owner, 2, 75.0);
        assert_eq!(groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn cross_stripe_pair_in_range_couples_shards() {
        // Nodes at 240 m and 260 m straddle the 250 m stripe boundary
        // within a 75 m radio range: the two stripes must join one group.
        let pos = [Pos::new(240.0, 50.0), Pos::new(260.0, 50.0)];
        let owner = stripes(&pos, 500.0, 2);
        assert_eq!(owner, vec![0, 1]);
        let groups = coupled_groups(&pos, &owner, 2, 75.0);
        assert_eq!(groups, vec![vec![0, 1]]);
    }

    #[test]
    fn coupling_is_transitive() {
        // A chain across three stripes: 0–1 coupled and 1–2 coupled must
        // merge all three, even though 0 and 2 are far apart.
        let pos = [
            Pos::new(160.0, 0.0),
            Pos::new(170.0, 0.0), // stripe 1 (167..333)
            Pos::new(330.0, 0.0),
            Pos::new(340.0, 0.0), // stripe 2
        ];
        let owner = stripes(&pos, 500.0, 3);
        assert_eq!(owner, vec![0, 1, 1, 2]);
        let groups = coupled_groups(&pos, &owner, 3, 75.0);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn striped_report_matches_the_one_group_run_on_a_small_scenario() {
        // The full equivalence matrix lives in tests/shard_equivalence.rs;
        // this is the in-crate smoke for the plumbing.
        let cfg = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(20)
            .with_packets(10);
        let whole = Run::new(&cfg, Protocol::Rmac, 7).execute();
        assert_eq!((whole.shard.shards, whole.shard.groups), (1, 1));
        for shards in [2usize, 4] {
            let cfg = cfg.clone().with_shards(shards);
            let out = Run::new(&cfg, Protocol::Rmac, 7).execute();
            assert_eq!(out.report, whole.report, "shards={shards}");
            assert_eq!(out.shard.shards, shards);
            assert!(out.shard.groups >= 1);
        }
    }

    fn two_groups() -> ShardStats {
        let group = |shards: &[usize], events, wall_ns| GroupStats {
            shards: shards.to_vec(),
            events,
            wall_ns,
        };
        ShardStats {
            shards: 3,
            groups: 2,
            cross_pushes: 0,
            group_stats: vec![group(&[0, 1], 300, 2_500_000), group(&[2], 100, 900_000)],
        }
    }

    #[test]
    fn render_lists_groups_and_totals() {
        let s = two_groups().render_balance();
        assert!(s.contains("0+1"));
        assert!(s.contains("400 events"));
        assert!(s.contains("2 groups"));
        // max/mean = 300/200.
        assert!(s.contains("1.50"));
    }

    #[test]
    fn json_lists_each_group() {
        let j = two_groups().balance_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"shards\":[0,1]"));
        assert!(j.contains("\"events\":300"));
    }

    #[test]
    fn no_groups_render_cleanly() {
        let none = ShardStats {
            groups: 0,
            group_stats: Vec::new(),
            ..two_groups()
        };
        assert!(none.render_balance().contains("0 groups"));
        assert_eq!(none.balance_json(), "[]");
    }
}
