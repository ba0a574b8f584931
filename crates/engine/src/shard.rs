//! The engine: every replication runs as its shard groups (DESIGN.md §8).
//!
//! A replication is one or more *shard groups*, each a set of channel slots
//! (protocol nodes and jammers) driven by one runner:
//!
//! * Every event the engine generates targets either its emitting slot or a
//!   receiver within radio range, so the connected components of the radio
//!   graph — slots adjacent when their initial positions lie within
//!   [`RANGE_M`] — can never exchange events: each component, and so any
//!   union of components, is *causally closed*. `components` finds them
//!   and `pack` packs them into about `4 · cfg.shards` groups, which run
//!   concurrently, one runner each.
//! * A group's runner is the [`Runner`] that owns the group's slots: it
//!   builds node stacks, RNG streams and counters for its own protocol
//!   nodes alone (each stream derived from the global node id), on its own
//!   queue, and seeds only what it owns; only the channel — radios,
//!   motions, spatial grid — spans every slot, because the PHY indexes it
//!   by node id. Since the whole-world execution restricted
//!   to a causally closed subset *is* that subset's own execution (FIFO
//!   tie-breaks are preserved on subsequences), each group reproduces its
//!   slice of the whole-world run exactly.
//! * The one RNG stream that would cross groups — the beacon scheduler —
//!   is closed under the beacon subsystem, so it is played out into the
//!   `BeaconTimetable` when the run starts and every group reads that.
//!
//! `cfg.shards = 1` is one group that owns every slot: the whole-world run,
//! with no component analysis or thread. So is every run whose causal
//! closure cannot be proven cheaply — mobility (nodes roam the whole plane),
//! a positive BER (the channel-noise draws are globally sequenced) — and
//! every run carrying what observes *global event order*: engine obs (its
//! kernel profile and snapshot series describe one event loop) and a tracer
//! (among radio-isolated groups the tie-break at equal timestamps is push
//! order, which no group can know of another), so a trace is the same JSONL
//! at any shard count by construction (`tests/golden_traces.rs`). The
//! checker composes per group instead (`merge_checks`): its invariants
//! are local to a node and its radio neighbourhood.
//!
//! Per-group results merge back losslessly (`collect`);
//! `tests/shard_equivalence.rs` holds decomposition, ownership and merge
//! to `RunReport` bit-identity against the one-group run at 2/4/8 shards.

use std::sync::Arc;
use std::time::Instant;

use rmac_check::CheckReport;
use rmac_core::api::MacCounters;
use rmac_mobility::{MobilityKind, Pos};
use rmac_net::NetLayer;
use rmac_obs::ObsReport;
use rmac_phy::FrameTallies;
use rmac_sim::{try_tasks, SimQueue, SimRng, SimTime};
use rmac_wire::consts::RANGE_M;
use rmac_wire::json;

use crate::config::{Protocol, ScenarioConfig};
use crate::run::{RunOutput, Spec};
use crate::trace::Tracer;
use crate::world::{build_motions, collect_report, BeaconTimetable, Ev, Harvest, Runner};

/// Guard margin on the radio range when testing whether two slots are
/// adjacent. Joining strictly more than the channel does is always safe
/// (it only costs parallelism); this absorbs any floating-point slack in
/// the channel's own `dist ≤ range` comparison.
const RANGE_EPS: f64 = 1e-6;

/// Groups per configured shard that [`pack`] aims for: enough for the pool
/// to run the source's group beside the rest, few enough that the fixed
/// cost of a group stays small — each still builds the full-width channel
/// and a queue, so on a sparse 2 000-node plane one group per component
/// (1 478) ran 3.5× longer than eight packed groups.
const GROUPS_PER_SHARD: usize = 4;

/// The connected components of the radio graph over the channel slots at
/// `positions` — two slots adjacent when within [`RANGE_M`] — each a sorted
/// list of slot ids, components ordered by their smallest member.
fn components(positions: &[Pos]) -> Vec<Vec<usize>> {
    fn find(uf: &mut [usize], mut i: usize) -> usize {
        while uf[i] != i {
            uf[i] = uf[uf[i]];
            i = uf[i];
        }
        i
    }
    let mut uf: Vec<usize> = (0..positions.len()).collect();
    let reach = RANGE_M + RANGE_EPS;
    // Plane sweep along x: only pairs with |dx| ≤ reach can be adjacent,
    // so a sliding window keeps the pass near-linear unless the whole
    // population stands in one column.
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
        while lo < k && positions[order[lo]].x < positions[i].x - reach {
            lo += 1;
        }
        for &j in &order[lo..k] {
            let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
            if ri == rj {
                continue;
            }
            let dx = positions[i].x - positions[j].x;
            let dy = positions[i].y - positions[j].y;
            if dx * dx + dy * dy <= reach * reach {
                // Union to the smaller root so a component's root is its
                // smallest member.
                uf[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); positions.len()];
    for s in 0..positions.len() {
        let root = find(&mut uf, s);
        members[root].push(s);
    }
    members.retain(|c| !c.is_empty());
    members
}

/// Pack components, walked in smallest-member order, into shard groups: a
/// group closes once it holds ⌈slots / (4 · shards)⌉ slots, so there are at
/// most `4 · shards` of them. The count depends on the geometry and
/// `shards` alone, never on the host. Node 0's component, which carries the
/// source's traffic, lands in the first group, which the pool starts
/// first. Each group is a sorted list of slot ids; groups are ordered by
/// their smallest slot.
fn pack(components: Vec<Vec<usize>>, shards: usize) -> Vec<Vec<usize>> {
    let slots: usize = components.iter().map(Vec::len).sum();
    let fill = slots.div_ceil(GROUPS_PER_SHARD * shards.max(1));
    let mut groups = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    for c in components {
        open.extend(c);
        if open.len() >= fill {
            groups.push(std::mem::take(&mut open));
        }
    }
    if !open.is_empty() {
        groups.push(open);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
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
    /// 4(d).
    pub cross_pushes: u64,
    /// Per-group scheduling breakdown, in group order (groups are ordered
    /// by their smallest slot): the shard-balance raw material of
    /// `obs_report`.
    pub group_stats: Vec<GroupStats>,
}

impl ShardStats {
    /// The per-group breakdown as a JSON array.
    pub fn balance_json(&self) -> String {
        json::objects(&self.group_stats, |o, r| {
            o.u64("first_slot", r.first_slot as u64)
                .u64("slots", r.slots as u64)
                .u64("events", r.events)
                .u64("wall_ns", r.wall_ns);
        })
    }
}

/// One shard group's scheduling statistics.
#[derive(Clone, Debug)]
pub struct GroupStats {
    /// The smallest channel slot the group owns (slots are protocol nodes,
    /// then jammers).
    pub first_slot: usize,
    /// How many channel slots the group owns.
    pub slots: usize,
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
    let (check, obs) = runner.finish();
    GroupRun {
        harvest: runner.harvest(),
        check,
        obs,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Run an assembled whole-world runner as the one group of its replication
/// (every slot). The beacon schedule is built here, when the run starts:
/// assembly stays independent of the run's length.
pub(crate) fn run_whole<Q: SimQueue<Ev>>(runner: Runner<Q>, seed: u64) -> RunOutput {
    let (cfg, protocol) = (Arc::clone(&runner.cfg), runner.protocol);
    let beacons = BeaconTimetable::build(&cfg, runner.seed);
    let done = run_group(runner, &beacons);
    collect(&cfg, protocol, seed, vec![done])
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
    // free channel: mobility lets nodes roam out of their components, and
    // a positive BER sequences the shared channel-noise stream over all
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
    let groups = cut(spec);
    let beacons = BeaconTimetable::build(cfg, spec.seed);
    let run = |group: &Vec<usize>| {
        let runner = Runner::assemble(spec, make_q, |slot| group.binary_search(&slot).is_ok());
        run_group(runner, &beacons)
    };

    // The one worker pool: one worker per core, capped by the group count,
    // taking groups in order, so the source's group starts first. On a
    // single-core host the groups run back to back and the speedup over
    // the one-group run is pure working-set reduction (smaller event
    // queue, smaller live state per group). A group panic surfaces with
    // its own message.
    let label = |g: &Vec<usize>| format!("shard group of slot {} ({} slots)", g[0], g.len());
    let results = try_tasks(&groups, run, label).unwrap_or_else(|e| panic!("{e}"));
    collect(cfg, spec.protocol, spec.seed, results)
}

/// The shard groups `spec` decomposes into: its radio components at the
/// initial positions, packed at `cfg.shards`.
fn cut(spec: &Spec) -> Vec<Vec<usize>> {
    let positions: Vec<Pos> = build_motions(&spec.cfg, &spec.plan, &SimRng::new(spec.seed))
        .iter_mut()
        .map(|m| m.position_at(SimTime::ZERO))
        .collect();
    pack(components(&positions), spec.cfg.shards)
}

/// Merge the groups' results into the replication's output. Per-node state
/// comes from each node's owner group, placed at its global id so the
/// float accumulation in `collect_report` sums in global node order as the
/// whole-world run does; channel/fault tallies are sums and the final clock
/// is the max.
fn collect(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    results: Vec<GroupRun>,
) -> RunOutput {
    let group_stats = results
        .iter()
        .map(|r| GroupStats {
            first_slot: r.harvest.slots[0],
            slots: r.harvest.slots.len(),
            events: r.harvest.events,
            wall_ns: r.wall_ns,
        })
        .collect::<Vec<_>>();
    let mut nodes: Vec<Option<(NetLayer, MacCounters)>> = (0..cfg.nodes).map(|_| None).collect();
    let mut place = |h: &mut Harvest| {
        let owned = h.nets.drain(..).zip(h.counters.drain(..));
        for (&slot, node) in h.slots.iter().zip(owned) {
            nodes[slot] = Some(node);
        }
    };
    let mut results = results.into_iter();
    let first = results.next().expect("at least one shard group");
    let (mut merged, obs, mut check) = (first.harvest, first.obs, first.check);
    place(&mut merged);
    for r in results {
        let mut h = r.harvest;
        place(&mut h);
        add_tallies(&mut merged.frames, &h.frames);
        merged.faults_injected += h.faults_injected;
        merged.events += h.events;
        merged.now = merged.now.max(h.now);
        merged.packets_sent += h.packets_sent;
        merged.crashes += h.crashes;
        merged.jam_bursts += h.jam_bursts;
        check = check.zip(r.check).map(|(a, b)| merge_checks(a, b));
    }
    (merged.nets, merged.counters) = nodes
        .into_iter()
        .map(|n| n.expect("every node has an owner group"))
        .unzip();
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

    /// Components and then groups at `shards`, over a 75 m radio.
    fn groups(pos: &[Pos], shards: usize) -> Vec<Vec<usize>> {
        pack(components(pos), shards)
    }

    #[test]
    fn isolated_clusters_split_into_separate_groups() {
        // Two clusters 380 m apart with a 75 m radio, listed interleaved:
        // each is a component, and at two shards (groups of ≥ 1 slot) a
        // group of its own.
        let pos = [
            Pos::new(50.0, 50.0),
            Pos::new(440.0, 50.0),
            Pos::new(60.0, 50.0),
            Pos::new(450.0, 50.0),
        ];
        assert_eq!(components(&pos), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(groups(&pos, 2), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn an_in_range_chain_couples_transitively() {
        // 0–1 and 1–2 within range, 0 and 2 150 m apart: one component.
        let pos = [
            Pos::new(0.0, 0.0),
            Pos::new(300.0, 0.0),
            Pos::new(75.0, 0.0),
            Pos::new(150.0, 0.0),
        ];
        assert_eq!(components(&pos), vec![vec![0, 2, 3], vec![1]]);
    }

    #[test]
    fn a_jammer_in_range_of_two_clusters_merges_them() {
        // Two clusters 140 m apart; the jammer slot (last) sits 70 m from
        // each and is the only bridge.
        let mut pos = vec![
            Pos::new(0.0, 0.0),
            Pos::new(10.0, 0.0),
            Pos::new(150.0, 0.0),
            Pos::new(160.0, 0.0),
        ];
        assert_eq!(components(&pos).len(), 2);
        pos.push(Pos::new(80.0, 0.0));
        assert_eq!(components(&pos), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn an_isolated_world_stays_within_four_groups_per_shard() {
        // 101 nodes 100 m apart: 101 components, packed into at most
        // 4 · shards groups that together own every slot once.
        let pos: Vec<Pos> = (0..101).map(|i| Pos::new(i as f64 * 100.0, 0.0)).collect();
        assert_eq!(components(&pos).len(), 101);
        for shards in [2usize, 3, 8] {
            let g = groups(&pos, shards);
            assert!(g.len() <= 4 * shards, "shards={shards}: {} groups", g.len());
            let mut owned: Vec<usize> = g.concat();
            owned.sort_unstable();
            assert_eq!(owned, (0..101).collect::<Vec<_>>(), "shards={shards}");
            assert!(
                g.windows(2).all(|w| w[0][0] < w[1][0]),
                "ordered by first slot"
            );
        }
    }

    #[test]
    fn a_one_node_world_runs_at_two_shards() {
        let cfg = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(1)
            .with_packets(3);
        let whole = Run::new(&cfg, Protocol::Rmac, 5).execute();
        let two = Run::new(&cfg.clone().with_shards(2), Protocol::Rmac, 5).execute();
        assert_eq!(two.report, whole.report);
        assert_eq!((two.shard.shards, two.shard.groups), (2, 1));
        assert_eq!(two.shard.group_stats[0].slots, 1);
    }

    #[test]
    fn sharded_report_matches_the_one_group_run_on_a_small_scenario() {
        // The full equivalence matrix lives in tests/shard_equivalence.rs;
        // this is the in-crate smoke for the plumbing. Twenty nodes on the
        // full plane fall apart into several radio components.
        let mut cfg = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(20)
            .with_packets(10);
        cfg.bounds = rmac_mobility::Bounds::PAPER;
        let whole = Run::new(&cfg, Protocol::Rmac, 7).execute();
        assert_eq!((whole.shard.shards, whole.shard.groups), (1, 1));
        assert_eq!(whole.shard.group_stats[0].slots, 20);
        for shards in [2usize, 4] {
            let cfg = cfg.clone().with_shards(shards);
            let out = Run::new(&cfg, Protocol::Rmac, 7).execute();
            assert_eq!(out.report, whole.report, "shards={shards}");
            assert_eq!(out.shard.shards, shards);
            assert!(out.shard.groups >= 1);
            let slots: usize = out.shard.group_stats.iter().map(|g| g.slots).sum();
            assert_eq!(slots, 20, "shards={shards}");
        }
    }

    #[test]
    fn a_group_builds_stacks_for_its_own_nodes_only() {
        use crate::run::Spec;
        use rmac_faults::FaultPlan;
        use rmac_sim::CalendarQueue;

        // The eight-cell layout of `multicell2000_shard2` on a lattice: 250
        // nodes per 913 m × 548 m cell, 36.5 m × 54.8 m apart (one
        // component each), cells 156 m apart (out of range).
        let positions = (0..2000)
            .map(|i| {
                let (cell, k) = (i / 250, i % 250);
                let x = cell as f64 * 1033.0 + (k % 25) as f64 * 913.0 / 25.0;
                Pos::new(x, (k / 25) as f64 * 54.8)
            })
            .collect();
        let mut cfg = ScenarioConfig::paper_stationary(20.0)
            .with_positions(positions)
            .with_shards(2);
        cfg.bounds = rmac_mobility::Bounds::new(8.0 * 1033.0, 548.0);
        let spec = Spec {
            cfg: Arc::new(cfg),
            protocol: Protocol::Rmac,
            seed: 1,
            plan: FaultPlan::none(),
            obs: None,
            check: false,
            brute_phy: false,
        };
        let groups = cut(&spec);
        assert_eq!(groups.len(), 8);
        let mut stacks = 0;
        for group in &groups {
            let runner = Runner::assemble(&spec, CalendarQueue::with_capacity, |slot| {
                group.binary_search(&slot).is_ok()
            });
            let owned = group.iter().filter(|&&s| s < spec.cfg.nodes).count();
            assert_eq!(
                runner.stack_counts(),
                [owned; 4],
                "group of slot {}",
                group[0]
            );
            stacks += owned;
        }
        // The whole world's 2 000 stacks, not 8 × 2 000.
        assert_eq!(stacks, spec.cfg.nodes);
    }

    fn two_groups() -> ShardStats {
        let group = |first_slot, slots, events, wall_ns| GroupStats {
            first_slot,
            slots,
            events,
            wall_ns,
        };
        ShardStats {
            shards: 3,
            groups: 2,
            cross_pushes: 0,
            group_stats: vec![group(0, 12, 300, 2_500_000), group(5, 4, 100, 900_000)],
        }
    }

    #[test]
    fn json_lists_each_group() {
        let j = two_groups().balance_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("{\"first_slot\":0,\"slots\":12,\"events\":300,"));
        assert!(j.contains("{\"first_slot\":5,\"slots\":4,\"events\":100,"));
    }

    #[test]
    fn no_groups_write_an_empty_array() {
        let none = ShardStats {
            groups: 0,
            group_stats: Vec::new(),
            ..two_groups()
        };
        assert_eq!(none.balance_json(), "[]");
    }
}
