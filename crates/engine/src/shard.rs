//! The sharded conservative-sync engine (DESIGN.md §10).
//!
//! The plane is cut into `cfg.shards` equal-width stripes along x; every
//! channel slot (protocol node or jammer) belongs to the stripe containing
//! its initial position. Each replication then runs as one or more *shard
//! groups*:
//!
//! * Shards whose node populations are radio-isolated from each other —
//!   no cross-stripe pair within `range_m` — can never exchange events,
//!   because every event the engine generates targets either its emitting
//!   node or a receiver within radio range. The coupling analysis
//!   ([`coupled_groups`]) unions shards bridged by an in-range pair; the
//!   resulting connected components are *causally closed* and run
//!   concurrently on scoped per-group runners, one OS thread each.
//! * A group's runner is the serial runner restricted to the group: the
//!   same `Runner<CalendarQueue<Ev>>` on its own flat queue with its own
//!   push counter, building the full-width world (so global node indexing,
//!   RNG stream derivation and the spatial grid are untouched) but seeding
//!   and dispatching only owned slots. Since the serial oracle's execution
//!   restricted to a causally closed subset *is* that subset's own
//!   execution (FIFO tie-breaks are preserved on subsequences), each group
//!   reproduces its slice of the oracle run exactly.
//! * The one shared RNG stream crossing groups — the beacon scheduler —
//!   is closed under the beacon subsystem, so its draws are pre-played
//!   into a [`BeaconTimetable`] that every group reads instead of a live
//!   stream.
//!
//! Scenarios where causal closure cannot be proven cheaply fall back to a
//! single group: mobility (nodes roam the whole plane) or a positive BER
//! (the channel-noise draws are globally sequenced). So does whatever
//! observes *global event order* — attached engine obs (its kernel profile
//! and snapshot series describe one event loop) and an attached tracer
//! (among radio-isolated groups the serial tie-break at equal timestamps
//! is push order, which no group can know of another). The single
//! all-shards group is the serial run itself, reading its beacon fires
//! from the timetable instead of the live scheduler stream, so a traced
//! run's JSONL is the serial engine's at any shard count by construction
//! (`tests/golden_traces.rs` holds it to that). The checker composes per
//! group instead ([`merge_checks`]): its invariants are local to a node
//! and its radio neighbourhood.
//!
//! Per-group results merge back losslessly: per-node state is taken from
//! each node's owner group in global node order (float accumulation order
//! is part of bit-identity), channel/fault tallies are sums, and the final
//! clock is the max. `tests/shard_equivalence.rs` holds the whole stack to
//! `RunReport` bit-identity against the serial engine at 2/4/8 shards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use rmac_check::CheckReport;
use rmac_mobility::{MobilityKind, Pos};
use rmac_obs::ObsReport;
use rmac_phy::FrameTallies;
use rmac_sim::{CalendarQueue, EventQueue, SimQueue, SimRng, SimTime};

use crate::run::{RunOutput, Spec};
use crate::trace::Tracer;
use crate::world::{build_motions, BeaconPlan, Harvest, Runner, Scope, BEACON_JITTER_NS};

/// Guard margin on the radio range when testing whether two stripes are
/// coupled. Coupling strictly more than the channel does is always safe
/// (it only costs parallelism); this absorbs any floating-point slack in
/// the channel's own `dist ≤ range` comparison.
const RANGE_EPS: f64 = 1e-6;

/// Spatial partition of channel slots into equal-width stripes along x.
pub(crate) struct ShardMap {
    /// Per channel slot (protocol nodes, then jammers): owning shard.
    pub(crate) owner: Vec<usize>,
}

impl ShardMap {
    /// Assign each slot to the stripe containing its position:
    /// `floor(x / (width / shards))`, clamped into range so positions on
    /// (or beyond) the right edge land in the last stripe.
    pub(crate) fn stripes(positions: &[Pos], width: f64, shards: usize) -> ShardMap {
        let stripe_w = width / shards as f64;
        let owner = positions
            .iter()
            .map(|p| {
                if stripe_w > 0.0 && p.x.is_finite() {
                    ((p.x / stripe_w).floor() as i64).clamp(0, shards as i64 - 1) as usize
                } else {
                    0
                }
            })
            .collect();
        ShardMap { owner }
    }
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

/// The beacon schedule, pre-played from the scheduler RNG stream.
///
/// The oracle's `sched_rng` (the master's `split(3)`) is consumed *only*
/// by the beacon subsystem: one initial-stagger draw per node in node
/// order, then one jitter draw per beacon dispatch, in global dispatch
/// order — crashed nodes keep ticking (and drawing), so the sequence never
/// depends on any other subsystem. That closure means the whole schedule
/// can be computed up front by replaying just the beacon events through a
/// miniature queue; each shard group then reads its nodes' fire times from
/// the shared table, consuming exactly "its" draws without a live shared
/// stream.
pub(crate) struct BeaconTimetable;

impl BeaconTimetable {
    /// Per node: absolute beacon fire times, covering every dispatch at or
    /// before `end` plus one successor each (so [`BeaconPlan`] can always
    /// read the next fire).
    pub(crate) fn build(
        nodes: usize,
        period: SimTime,
        end: SimTime,
        sched: &mut SimRng,
    ) -> Vec<Vec<SimTime>> {
        let mut times: Vec<Vec<SimTime>> = vec![Vec::new(); nodes];
        let mut beacons: EventQueue<u16> = EventQueue::with_capacity(nodes.max(16));
        // Initial staggers: drawn in node order, exactly as the oracle's
        // seeding loop does.
        for (i, t) in times.iter_mut().enumerate() {
            let at = SimTime::from_nanos(sched.below(period.nanos().max(1)));
            t.push(at);
            beacons.push(at, i as u16);
        }
        // Replay dispatches up to the end of the run (a beacon past it
        // never dispatches). Beacon events pop here in the same relative
        // order as in the full queue: pushes happen at the dispatch of the
        // predecessor beacon (same order by induction) and simultaneous
        // beacons tie-break FIFO in both queues. Interleaved non-beacon
        // events neither draw from the stream nor reorder beacons.
        while let Some((t, node)) = SimQueue::pop_at_or_before(&mut beacons, end) {
            let jitter = SimTime::from_nanos(sched.below(BEACON_JITTER_NS));
            let next = t + period + jitter;
            times[node as usize].push(next);
            beacons.push(next, node);
        }
        times
    }
}

/// Scheduling statistics of one sharded replication.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Configured shard count.
    pub shards: usize,
    /// Causally closed shard groups the run decomposed into (1 when the
    /// scenario forces serial execution).
    pub groups: usize,
    /// 0 by construction: a group is one queue and groups exchange nothing
    /// (causal closure); dropped with the other pinned names under ROADMAP
    /// 2(d).
    pub cross_pushes: u64,
    /// Per-group scheduling breakdown, in group order (groups are ordered
    /// by their smallest shard id). The shard-balance raw material for
    /// `obs_report` ([`rmac_obs::render_shard_balance`]).
    pub group_stats: Vec<GroupStats>,
}

impl ShardStats {
    /// The per-group breakdown as [`rmac_obs`] shard-balance rows.
    pub fn balance_rows(&self) -> Vec<rmac_obs::ShardGroupRow> {
        self.group_stats
            .iter()
            .map(|g| rmac_obs::ShardGroupRow {
                shards: g.shards.clone(),
                events: g.events,
                wall_ns: g.wall_ns,
            })
            .collect()
    }
}

/// One shard group's scheduling statistics.
#[derive(Clone, Debug)]
pub struct GroupStats {
    /// The shard ids the group owns, sorted ascending.
    pub shards: Vec<usize>,
    /// Events the group dispatched.
    pub events: u64,
    /// Wall-clock time the group's worker spent on it (assembly + run).
    /// Wall readings live outside the determinism domain: they feed the
    /// balance table only, never a `RunReport` or the campaign store.
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

/// Run `spec` on the sharded engine, `spec.cfg.shards` stripes wide.
pub(crate) fn execute(spec: &Spec, tracer: Option<Tracer>) -> RunOutput {
    let shards = spec.cfg.shards.max(1);
    let master = SimRng::new(spec.seed);
    let mut motions = build_motions(&spec.cfg, &spec.plan, &master);
    let positions: Vec<Pos> = motions
        .iter_mut()
        .map(|m| m.position_at(SimTime::ZERO))
        .collect();
    let map = ShardMap::stripes(&positions, spec.cfg.bounds.width, shards);
    // Causal closure is only provable for frozen geometry and a noise-
    // free channel: mobility lets nodes roam across stripes, and a
    // positive BER sequences the shared channel-noise stream over all
    // receptions. Obs and the tracer observe global event order, which
    // only the single group reproduces.
    let parallel_ok = matches!(spec.cfg.mobility, MobilityKind::Stationary)
        && spec.cfg.ber_per_bit == 0.0
        && spec.obs.is_none()
        && tracer.is_none();
    let groups: Vec<Vec<usize>> = if parallel_ok {
        coupled_groups(&positions, &map.owner, shards, spec.cfg.range_m)
    } else {
        vec![(0..shards).collect()]
    };
    let times = Arc::new(BeaconTimetable::build(
        spec.cfg.nodes,
        spec.cfg.beacon_period,
        spec.cfg.end_time(),
        &mut master.split(3),
    ));
    let owner = &map.owner;

    let run_group = |group: &[usize], tracer: Option<Tracer>| -> GroupRun {
        let started = std::time::Instant::now();
        let owned: Vec<bool> = owner.iter().map(|s| group.contains(s)).collect();
        let mut runner: Runner = Runner::assemble(
            spec,
            CalendarQueue::with_capacity,
            Some(Scope { owned }),
            Some(BeaconPlan::new(Arc::clone(&times))),
        );
        if let Some(t) = tracer {
            runner.set_tracer(t);
        }
        runner.run_events();
        let check = runner.finish_check();
        let obs = runner.finish_obs();
        GroupRun {
            harvest: runner.harvest(),
            check,
            obs,
            wall_ns: started.elapsed().as_nanos() as u64,
        }
    };

    // One worker per available core, capped by the group count.
    // Oversubscribing cores would only interleave the groups and
    // thrash their working sets against each other; on a single-core
    // host the groups therefore run back to back, and the speedup
    // over the oracle is pure working-set reduction (smaller event
    // heap, smaller live state per group).
    let workers = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(groups.len());
    let results: Vec<GroupRun> = if groups.len() == 1 {
        vec![run_group(&groups[0], tracer)]
    } else if workers <= 1 {
        groups.iter().map(|g| run_group(g, None)).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<GroupRun>>> = groups.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        let Some(g) = groups.get(gi) else { break };
                        let done = run_group(g, None);
                        *slots[gi].lock().expect("slot poisoned") = Some(done);
                    })
                })
                .collect();
            for h in handles {
                // A group panic surfaces with its own message.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot poisoned")
                    .expect("worker pool left a group unrun")
            })
            .collect()
    };

    let stats = ShardStats {
        shards,
        groups: groups.len(),
        cross_pushes: 0,
        group_stats: results
            .iter()
            .zip(&groups)
            .map(|(r, g)| GroupStats {
                shards: g.clone(),
                events: r.harvest.events,
                wall_ns: r.wall_ns,
            })
            .collect(),
    };
    let mut results = results.into_iter();
    let first = results.next().expect("at least one shard group");
    let mut merged = first.harvest;
    let obs = first.obs;
    let mut checks: Vec<CheckReport> = first.check.into_iter().collect();
    for (gi, r) in results.enumerate() {
        let group = &groups[gi + 1];
        let h = r.harvest;
        // Per-node state comes from each node's owner group; the merge
        // walks global node order so downstream float accumulation in
        // `collect_report` sums in the oracle's order.
        for (i, (net, ctr)) in h.nets.into_iter().zip(h.counters).enumerate() {
            if group.contains(&map.owner[i]) {
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
        checks.extend(r.check);
    }
    let check = spec.check.then(|| merge_checks(checks));
    RunOutput::collect(
        &spec.cfg,
        spec.protocol,
        spec.seed,
        &merged,
        obs,
        check,
        Some(stats),
    )
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

/// Concatenate per-group conformance reports: violations in group order,
/// gate counters summed, truncation sticky.
fn merge_checks(reports: Vec<CheckReport>) -> CheckReport {
    let mut reports = reports.into_iter();
    let mut out = reports.next().unwrap_or(CheckReport {
        violations: Vec::new(),
        tx_checked: 0,
        rx_ok_checked: 0,
        tone_emissions: 0,
        transition_nodes: 0,
        truncated: false,
    });
    for r in reports {
        out.violations.extend(r.violations);
        out.tx_checked += r.tx_checked;
        out.rx_ok_checked += r.rx_ok_checked;
        out.tone_emissions += r.tone_emissions;
        out.transition_nodes += r.transition_nodes;
        out.truncated |= r.truncated;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_replication, Protocol, ScenarioConfig, ShardedRunner};

    #[test]
    fn stripes_partition_by_x() {
        let pos = [
            Pos::new(10.0, 5.0),
            Pos::new(240.0, 5.0),
            Pos::new(499.0, 5.0),
            Pos::new(250.0, 299.0),
        ];
        let map = ShardMap::stripes(&pos, 500.0, 2);
        assert_eq!(map.owner, vec![0, 0, 1, 1]);
        // Positions on/past the right edge clamp into the last stripe.
        let map = ShardMap::stripes(&[Pos::new(500.0, 0.0), Pos::new(-3.0, 0.0)], 500.0, 4);
        assert_eq!(map.owner, vec![3, 0]);
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
        let map = ShardMap::stripes(&pos, 500.0, 2);
        let groups = coupled_groups(&pos, &map.owner, 2, 75.0);
        assert_eq!(groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn cross_stripe_pair_in_range_couples_shards() {
        // Nodes at 240 m and 260 m straddle the 250 m stripe boundary
        // within a 75 m radio range: the two stripes must join one group.
        let pos = [Pos::new(240.0, 50.0), Pos::new(260.0, 50.0)];
        let map = ShardMap::stripes(&pos, 500.0, 2);
        assert_eq!(map.owner, vec![0, 1]);
        let groups = coupled_groups(&pos, &map.owner, 2, 75.0);
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
        let map = ShardMap::stripes(&pos, 500.0, 3);
        assert_eq!(map.owner, vec![0, 1, 1, 2]);
        let groups = coupled_groups(&pos, &map.owner, 3, 75.0);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn timetable_is_monotonic_and_covers_the_run() {
        let period = SimTime::from_millis(500);
        let end = SimTime::from_secs(10);
        let mut sched = SimRng::new(42).split(3);
        let times = BeaconTimetable::build(8, period, end, &mut sched);
        assert_eq!(times.len(), 8);
        for per_node in &times {
            // Initial stagger inside one period, then strictly increasing
            // steps of period..period+jitter.
            assert!(per_node[0] < period);
            for w in per_node.windows(2) {
                let step = w[1] - w[0];
                assert!(step >= period);
                assert!(step < period + SimTime::from_nanos(BEACON_JITTER_NS));
            }
            // The table runs past the end of the run (last entry is the
            // never-dispatched successor).
            assert!(*per_node.last().unwrap() > end);
        }
    }

    #[test]
    fn sharded_report_matches_oracle_on_a_small_scenario() {
        // The full equivalence matrix lives in tests/shard_equivalence.rs;
        // this is the in-crate smoke for the plumbing.
        let cfg = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(20)
            .with_packets(10);
        let oracle = run_replication(&cfg, Protocol::Rmac, 7);
        for shards in [1usize, 2, 4] {
            let cfg = cfg.clone().with_shards(shards);
            let (report, stats) = ShardedRunner::new(&cfg, Protocol::Rmac, 7).run_with_stats();
            assert_eq!(report, oracle, "shards={shards}");
            assert_eq!(stats.shards, shards);
            assert!(stats.groups >= 1);
        }
    }
}
