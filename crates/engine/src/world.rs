//! The event loop: one simulation replication.

use std::borrow::Cow;
use std::sync::Arc;

use bytes::Bytes;
use rmac_check::{CheckConfig, CheckReport, Checker};
use rmac_core::api::{MacContext, MacCounters, MacService, TimerKind, TxOutcome, TxRequest};
use rmac_faults::{ChurnKind, FaultInjector, FaultPlan, JamTarget};
use rmac_metrics::{percentile, percentile_counted, RunReport};
use rmac_mobility::{random_positions, MobilityKind, Motion, Pos};
use rmac_net::{AppStats, BlessConfig, NetLayer};
use rmac_obs::{ObsReport, Snapshot};
use rmac_phy::{
    Channel, ChannelConfig, FaultKind, FrameTallies, IndexMode, Indication, PhyEvent, Reader, Tone,
    ToneLog, TxId,
};
use rmac_sim::{CalendarQueue, Cursor, EventQueue, LiveTimer, SimQueue, SimRng, SimTime};
use rmac_wire::{airtime::mrts_len, consts::BYTE_TIME, Dest, Frame, NodeId};

use crate::config::{Protocol, ScenarioConfig};
use crate::obs::{class_of, Attached, EngineObs, ObsConfig, TIMER_LABELS};
use crate::run::Spec;
use crate::trace::{TraceEvent, TraceWhat, Tracer};

/// The engine's event type.
#[derive(Clone, Debug)]
pub enum Ev {
    /// A channel event (propagation, frame ends, tone edges).
    Phy(PhyEvent),
    /// An entry of one node's MAC timer of `kind`: the live instance's
    /// own, or one that comes up before it ([`rmac_sim::LiveTimer`]).
    MacTimer { node: NodeId, kind: TimerKind },
    /// One node's BLESS-lite beacon tick, its `fire`-th of the run (from 0).
    Beacon { node: NodeId, fire: u32 },
    /// The source's next application packet.
    Source,
    /// A scheduled fault-plane action.
    Fault(FaultEv),
}

/// The fault plane's scheduled actions (crash/restart windows and jamming
/// burst edges from the attached [`FaultPlan`]).
#[derive(Clone, Copy, Debug)]
pub enum FaultEv {
    /// A node crashes: radio silenced, MAC and network state lost.
    NodeDown { node: NodeId },
    /// A crashed node restarts with fresh MAC and network entities.
    NodeUp { node: NodeId },
    /// Jammer `jammer` begins a noise burst.
    JamOn { jammer: usize },
    /// Jammer `jammer` ends a tone burst.
    JamOff { jammer: usize },
}

impl From<PhyEvent> for Ev {
    fn from(pe: PhyEvent) -> Ev {
        Ev::Phy(pe)
    }
}

/// Per-beacon scheduling jitter bound (ns): each beacon reschedules at
/// `period + uniform(0, BEACON_JITTER_NS)` so beacons never phase-lock
/// with the data traffic.
const BEACON_JITTER_NS: u64 = 10_000_000;

/// The beacon schedule of one replication, played out before it runs.
///
/// The scheduler stream (the master's `split(3)`) is consumed *only* by the
/// beacon subsystem: one initial-stagger draw per node in node order, then
/// one jitter draw per beacon dispatch, in global dispatch order — crashed
/// nodes keep ticking (and drawing), so the sequence never depends on any
/// other subsystem. That closure lets the whole schedule be computed by
/// replaying just the beacon events through a miniature queue; every shard
/// group then reads its nodes' fires from the one table, and no stream is
/// shared between groups. It grows with the run's length, 4 B per node per
/// beacon, so it is an input of *running* ([`Runner::run_events`]), never
/// of assembly.
pub(crate) struct BeaconTimetable {
    period: SimTime,
    /// Per node: its first fire, the initial stagger.
    first: Vec<SimTime>,
    /// Per node: the jitter (ns, below [`BEACON_JITTER_NS`]) of every later
    /// fire, entry `k` taking fire `k` to fire `k + 1` at `period + jitter`
    /// after it. One entry per fire at or before end-of-run, so a
    /// dispatching beacon can always work out its next fire; no more, since
    /// each vector is held at exact capacity.
    jitters: Vec<Vec<u32>>,
}

impl BeaconTimetable {
    pub(crate) fn build(cfg: &ScenarioConfig, seed: u64) -> BeaconTimetable {
        let (period, end) = (BlessConfig::default().beacon_period, cfg.end_time());
        let mut sched = SimRng::new(seed).split(3);
        let mut beacons: EventQueue<u16> = EventQueue::with_capacity(cfg.nodes.max(16));
        // Stagger the first beacons uniformly over one period, drawn in
        // node order, so the network does not start in lockstep.
        let first: Vec<SimTime> = (0..cfg.nodes)
            .map(|i| {
                let at = SimTime::from_nanos(sched.below(period.nanos().max(1)));
                beacons.push(at, i as u16);
                at
            })
            .collect();
        // Fires are at least a period apart, which bounds each node's count.
        let mut jitters: Vec<Vec<u32>> = first
            .iter()
            .map(|&at| match end.checked_sub(at) {
                Some(left) => Vec::with_capacity((left.nanos() / period.nanos()) as usize + 1),
                None => Vec::new(),
            })
            .collect();
        // Play the dispatches out up to the end of the run (a beacon past
        // it never dispatches): one jitter draw each, in dispatch order,
        // simultaneous beacons FIFO. A run drawing from the stream at each
        // dispatch — how `tests/golden/` was recorded — consumes it in
        // this order too: a beacon is pushed at its predecessor's
        // dispatch, and events of other kinds neither draw from the
        // stream nor reorder beacons.
        while let Some((t, node)) = SimQueue::pop_at_or_before(&mut beacons, end) {
            let jitter = sched.below(BEACON_JITTER_NS) as u32;
            jitters[node as usize].push(jitter);
            beacons.push(t + period + SimTime::from_nanos(jitter.into()), node);
        }
        for j in &mut jitters {
            j.shrink_to_fit();
        }
        BeaconTimetable {
            period,
            first,
            jitters,
        }
    }

    /// When `node`'s beacon fires first.
    fn first(&self, node: NodeId) -> SimTime {
        self.first[node.idx()]
    }

    /// When `node`'s beacon fires next, its `fire`-th (from 0) dispatching
    /// `now`: the nominal period plus the jitter the table drew for it. A
    /// fire the table does not cover is off the timetable.
    fn next(&self, node: NodeId, fire: u32, now: SimTime) -> SimTime {
        let Some(&jitter) = self.jitters[node.idx()].get(fire as usize) else {
            panic!("beacon off its timetable: {node:?}'s fire {fire} at {now}");
        };
        now + self.period + SimTime::from_nanos(jitter.into())
    }
}

/// Node placement and motion assembly: positions from the master's
/// `split(1)` stream, per-node waypoint motions from `split(1000 + i)`,
/// jammer slots appended stationary. Pure in `master`, so every shard group
/// (and the component analysis that divides them) derives identical world
/// geometry.
pub(crate) fn build_motions(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    master: &SimRng,
) -> Vec<Motion> {
    let mut place_rng = master.split(1);
    let positions = cfg
        .positions
        .clone()
        .unwrap_or_else(|| random_positions(cfg.nodes, cfg.bounds, &mut place_rng));
    debug_assert_eq!(positions.len(), cfg.nodes, "position count mismatch");
    let mut motions: Vec<Motion> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| match cfg.mobility {
            MobilityKind::Stationary => Motion::stationary(p),
            kind => Motion::new(p, kind, cfg.bounds, master.split(1000 + i as u64)),
        })
        .collect();
    // Jammers occupy extra channel slots past the protocol population;
    // they carry no MAC or network entity and never move.
    for j in &plan.jammers {
        motions.push(Motion::stationary(Pos { x: j.x, y: j.y }));
    }
    motions
}

/// One node's protocol stack, as it comes up at the start of a run and after
/// a restart: a fresh MAC entity and network layer. `watched` keeps the MAC's
/// transition counting on (obs reports it, the checker's C4 needs it);
/// detached runs skip the per-transition increment.
fn node_stack(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    node: NodeId,
    watched: bool,
) -> (Box<dyn MacService>, NetLayer) {
    let mut mac = protocol.make_mac(node, cfg.mac);
    if watched {
        mac.enable_transition_counting();
    }
    let mut net = NetLayer::new(node, BlessConfig::default(), cfg.payload);
    net.set_reliable_forwarding(cfg.reliable_forwarding);
    (mac, net)
}

/// Everything the MAC context borrows mutably: the queue, channel, and
/// per-node rngs/counters. Kept separate from the MAC/net entities so the
/// borrow checker can hand a MAC `&mut` access to the rest of the world.
///
/// The channel spans every slot of the replication; the per-node vectors
/// hold the runner's owned protocol nodes only, at their stack index
/// ([`Runner::stack_of`]).
struct WorldCore<Q: SimQueue<Ev>> {
    q: Q,
    channel: Channel,
    chan_rng: SimRng,
    rngs: Vec<SimRng>,
    counters: Vec<MacCounters>,
    /// Per timer kind (`kind as usize`), per node: the live instance. A
    /// kind's column is filled on its first arm, so a run holds the kinds
    /// its protocol uses.
    timers: [Vec<LiveTimer>; TimerKind::COUNT],
    /// Per-node clock-skew factor on MAC timer delays (1.0 = no skew).
    skew: Vec<f64>,
    /// Per-node crashed flag.
    down: Vec<bool>,
    /// The observation stream's readers, fed by [`WorldCore::report`]:
    /// fixed by [`Runner::attach`], empty for a detached run.
    readers: Vec<Attached>,
}

impl<Q: SimQueue<Ev>> WorldCore<Q> {
    /// Apply the clock-skew factor of the node at stack index `i` to a MAC
    /// timer delay.
    fn skewed(&self, i: usize, delay: SimTime) -> SimTime {
        let f = self.skew[i];
        if f == 1.0 {
            delay
        } else {
            SimTime::from_nanos((delay.nanos() as f64 * f).round() as u64)
        }
    }

    /// The own clock of the node at stack index `i` at true instant `t` —
    /// the inverse of [`skewed`](Self::skewed): a delay `d` armed now
    /// elapses when this reading has advanced by `d` (to the rounding of
    /// either).
    fn local(&self, i: usize, t: SimTime) -> SimTime {
        let f = self.skew[i];
        if f == 1.0 {
            t
        } else {
            SimTime::from_nanos((t.nanos() as f64 / f).round() as u64)
        }
    }

    /// Arm the `kind` timer of the node at stack index `i` (see
    /// [`LiveTimer::arm`]); whether a live instance was superseded.
    fn arm_timer(&mut self, i: usize, kind: TimerKind, at: SimTime, ev: Ev) -> bool {
        let column = &mut self.timers[kind as usize];
        if column.is_empty() {
            column.resize(self.rngs.len(), LiveTimer::default());
        }
        column[i].arm(&mut self.q, at, ev)
    }

    /// Cancel the `kind` timer of the node at stack index `i`; whether a
    /// live instance was cancelled.
    fn cancel_timer(&mut self, i: usize, kind: TimerKind) -> bool {
        let column = &mut self.timers[kind as usize];
        column.get_mut(i).is_some_and(LiveTimer::cancel)
    }

    /// Is any reader of the observation stream attached? The one branch a
    /// detached run pays per observable.
    fn watched(&self) -> bool {
        !self.readers.is_empty()
    }

    /// The attached obs books (kernel profile, sampler, timer tallies).
    fn obs(&mut self) -> Option<&mut EngineObs> {
        self.readers.iter_mut().find_map(|reader| match reader {
            Attached::Obs(obs) => Some(&mut **obs),
            _ => None,
        })
    }

    /// The observation stream's one outlet (DESIGN.md §9): `what` just
    /// happened at `node`, and its MAC has not reacted yet. Called only while
    /// [`watched`](Self::watched); every reader is fed here and only here.
    fn report(&mut self, node: NodeId, what: TraceWhat<&Arc<Frame>>) {
        let at = self.q.cursor();
        let (t, channel) = (at.time, &self.channel);
        let ev = TraceEvent { t, node, what };
        // What a reader holds a node to is what its MAC could read: the tone
        // records, at this event's cursor.
        let mut sensed = |node, over: SimTime| {
            let from = Cursor::end_of(at.time.saturating_sub(over));
            channel.tone_log(node, Tone::Rbt, from, at)
        };
        for reader in &mut self.readers {
            reader.on_event(&ev, &mut sensed);
        }
    }
}

/// The per-call [`MacContext`] view handed to a MAC entity.
struct Ctx<'a, Q: SimQueue<Ev>> {
    core: &'a mut WorldCore<Q>,
    node: NodeId,
    /// The node's stack index in the per-node vectors.
    i: usize,
    /// The node's network layer, for on-demand neighbor queries. Most MAC
    /// callbacks never ask, so the (alloc + sort) of a fresh-neighbor
    /// snapshot is paid only when [`MacContext::neighbors`] is called.
    net: &'a NetLayer,
    delivered: &'a mut Vec<Arc<Frame>>,
    outcomes: &'a mut Vec<(u64, TxOutcome)>,
}

impl<Q: SimQueue<Ev>> MacContext for Ctx<'_, Q> {
    fn now(&self) -> SimTime {
        self.core.q.now()
    }
    fn local_now(&self) -> SimTime {
        self.core.local(self.i, self.core.q.now())
    }
    fn schedule(&mut self, delay: SimTime, kind: TimerKind) {
        let (node, i) = (self.node, self.i);
        let at = self.core.q.now() + self.core.skewed(i, delay);
        let superseded = self
            .core
            .arm_timer(i, kind, at, Ev::MacTimer { node, kind });
        if let Some(obs) = self.core.obs() {
            let n = &mut obs.nodes[node.idx()];
            n.timer_arm[kind as usize] += 1;
            n.timer_cancelled[kind as usize] += u64::from(superseded);
        }
    }
    fn cancel_timer(&mut self, kind: TimerKind) {
        let cancelled = self.core.cancel_timer(self.i, kind);
        if let (true, Some(obs)) = (cancelled, self.core.obs()) {
            obs.nodes[self.node.idx()].timer_cancelled[kind as usize] += 1;
        }
    }
    fn start_tx(&mut self, frame: Frame) {
        self.core
            .channel
            .start_tx(&mut self.core.q, self.node, frame);
        if self.core.watched() {
            let on_air = self.core.channel.on_air(self.node).expect("just started");
            let frame = &Arc::clone(on_air);
            self.core.report(self.node, TraceWhat::TxStart { frame });
        }
    }
    fn abort_tx(&mut self) {
        self.core.channel.abort_tx(&mut self.core.q, self.node);
    }
    fn start_tone(&mut self, tone: Tone) {
        if self.core.watched() {
            let raised = TraceWhat::ToneEmit { tone, on: true };
            self.core.report(self.node, raised);
        }
        self.core
            .channel
            .start_tone(&mut self.core.q, self.node, tone);
    }
    fn stop_tone(&mut self, tone: Tone) {
        if self.core.watched() {
            let lowered = TraceWhat::ToneEmit { tone, on: false };
            self.core.report(self.node, lowered);
        }
        self.core
            .channel
            .stop_tone(&mut self.core.q, self.node, tone);
    }
    fn data_busy(&self) -> bool {
        let at = self.core.q.cursor();
        self.core.channel.data_busy(self.node, at)
    }
    fn tone_present(&self, tone: Tone) -> bool {
        let at = self.core.q.cursor();
        self.core.channel.tone_present(self.node, tone, at)
    }
    fn open_tone_watch(&mut self, tone: Tone) {
        let at = self.core.q.cursor();
        self.core.channel.open_watch(self.node, tone, at);
    }
    fn close_tone_watch(&mut self, tone: Tone) -> ToneLog {
        let at = self.core.q.cursor();
        self.core.channel.close_watch(self.node, tone, at)
    }
    fn deliver(&mut self, frame: &Arc<Frame>) {
        self.delivered.push(Arc::clone(frame));
    }
    fn notify(&mut self, token: u64, outcome: TxOutcome) {
        self.outcomes.push((token, outcome));
    }
    fn neighbors(&mut self) -> Vec<NodeId> {
        self.net.fresh_neighbors(self.core.q.now())
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rngs[self.i]
    }
    fn counters(&mut self) -> &mut MacCounters {
        &mut self.core.counters[self.i]
    }
}

/// Runtime state of an attached fault plan.
struct FaultRt {
    plan: FaultPlan,
    crashes: u64,
    jam_bursts: u64,
    /// Sequence numbers for the jammers' noise frames.
    jam_seq: u32,
}

/// Where [`Runner::stack_of`] finds no stack: a jammer slot, or a slot
/// another shard group owns.
const NO_STACK: u32 = u32::MAX;

/// One assembled replication: node stacks plus the event loop. Built and
/// driven by [`crate::Run`]; the public methods are the pinned shims in
/// [`crate::run`].
///
/// A runner drives one shard group of its replication — the channel slots
/// it owns. It builds node stacks, RNG streams and counters for its owned
/// protocol nodes alone; only the channel spans every slot, because the
/// PHY indexes it by [`NodeId`]. The whole-world run is the group that owns
/// every slot, where the stack index is the node id. Generic over the queue
/// implementation: [`crate::Run`] assembles it on the [`CalendarQueue`],
/// and on the heap reference queue for differential tests.
/// Monomorphization keeps each variant's hot loop branch-free over the
/// choice.
pub struct Runner<Q: SimQueue<Ev> = CalendarQueue<Ev>> {
    core: WorldCore<Q>,
    /// One per owned protocol node, at its stack index.
    macs: Vec<Box<dyn MacService>>,
    nets: Vec<NetLayer>,
    pub(crate) cfg: Arc<ScenarioConfig>,
    pub(crate) protocol: Protocol,
    /// The replication's seed: the beacon schedule is derived from it when
    /// the run starts.
    pub(crate) seed: u64,
    packets_left: u64,
    faults: Option<FaultRt>,
    /// Reused indication buffer for PHY dispatch (the event loop's hottest
    /// allocation without it).
    inds_scratch: Vec<Indication>,
    /// The last frame end's `FrameRx`, kept to be re-addressed while the
    /// next end carries the same frame ([`Runner::frame_end`]).
    last_rx: Option<Indication>,
    /// Frame handles cloned for a `FrameRx` (the obs gauge
    /// `engine.frame_rx_clones`).
    frame_clones: u64,
    /// Carrier falls at a live MAC, and how many of them entered it (the
    /// obs gauges `engine.carrier_falls`, `engine.carrier_off_entries`).
    carrier_falls: u64,
    carrier_off_entries: u64,
    /// The channel slots this runner's shard group owns, ascending:
    /// protocol nodes (the first `macs.len()`, the stack index being the
    /// position here), then jammers. Only owned slots are seeded; the
    /// component analysis in [`crate::shard`] guarantees no event for
    /// another slot can ever be generated.
    slots: Vec<usize>,
    /// The global→owned index map: per channel slot, its stack index, or
    /// [`NO_STACK`].
    stack_at: Vec<u32>,
}

/// The event loop's one extension point: [`Runner::run_loop`] calls
/// `before` once an event is popped (the clock already stands at `t`) and
/// `after` once it has dispatched, handing `before`'s mark across. The
/// loop is monomorphised per hook, so [`Detached`] costs nothing.
trait LoopHook<Q: SimQueue<Ev>> {
    /// What `before` hands to `after` across one dispatch.
    type Mark;
    fn before(&mut self, world: &mut Runner<Q>, t: SimTime, ev: &Ev) -> Self::Mark;
    fn after(&mut self, world: &mut Runner<Q>, mark: Self::Mark);
}

/// No instrumentation: the bare pop/dispatch loop.
struct Detached;

impl<Q: SimQueue<Ev>> LoopHook<Q> for Detached {
    type Mark = ();
    #[inline(always)]
    fn before(&mut self, _: &mut Runner<Q>, _: SimTime, _: &Ev) {}
    #[inline(always)]
    fn after(&mut self, _: &mut Runner<Q>, (): ()) {}
}

/// Attached instrumentation ([`crate::Run::obs`]): the kernel self-profile around
/// every dispatch plus, when configured, the snapshot sampler.
struct Observed {
    /// Sampler presence is fixed for the whole run; hoisted so sampler-less
    /// instrumented runs skip the per-event call.
    sampling: bool,
}

impl<Q: SimQueue<Ev>> LoopHook<Q> for Observed {
    /// The event's profiler class and, with wall timing on, when its
    /// dispatch started.
    type Mark = (usize, Option<std::time::Instant>);

    fn before(&mut self, world: &mut Runner<Q>, t: SimTime, ev: &Ev) -> Self::Mark {
        if self.sampling {
            world.sample_until(t);
        }
        let class = class_of(ev);
        let kernel = &mut world.core.obs().expect("obs hook without obs").kernel;
        if kernel.wall_enabled() {
            (class, Some(std::time::Instant::now()))
        } else {
            kernel.count(class);
            (class, None)
        }
    }

    fn after(&mut self, world: &mut Runner<Q>, (class, start): Self::Mark) {
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            let kernel = &mut world.core.obs().expect("obs hook without obs").kernel;
            kernel.record_ns(class, ns);
        }
    }
}

impl<Q: SimQueue<Ev>> Runner<Q> {
    /// Assemble the replication `spec` describes — the channel, the owned
    /// nodes' stacks and RNG streams, fault runtime and the obs/checker
    /// attachments (the tracer is not `Sync`; the caller attaches it to the
    /// one runner that carries it). Every group of a replication derives
    /// the identical channel and streams; they differ in the channel slots
    /// they own, as `owns` says (the queue is built by `make_q` from the
    /// pre-sizing capacity).
    ///
    /// An empty fault plan is bit-identical to no plan: every RNG stream is
    /// seeded the same, the PHY hook is only installed when the plan can
    /// corrupt frames, and jammer slots only exist when jammers do.
    pub(crate) fn assemble(
        spec: &Spec,
        make_q: impl FnOnce(usize) -> Q,
        owns: impl Fn(usize) -> bool,
    ) -> Runner<Q> {
        let (cfg, protocol, plan) = (&*spec.cfg, spec.protocol, &spec.plan);
        let master = SimRng::new(spec.seed);
        let motions = build_motions(cfg, plan, &master);
        let node_slots = motions.len();
        let mut channel = Channel::new(
            ChannelConfig {
                ber_per_bit: cfg.ber_per_bit,
                index: if spec.brute_phy {
                    IndexMode::BruteForce
                } else {
                    IndexMode::grid()
                },
            },
            motions,
        );
        if plan.has_phy_faults() {
            channel.set_fault_hook(Box::new(FaultInjector::from_plan(plan, spec.seed)));
        }
        // The owned slots, and the index map: an owned protocol node's stack
        // index is its place among them.
        let mut slots = Vec::with_capacity(node_slots);
        let mut stack_at = Vec::with_capacity(node_slots);
        for s in 0..node_slots {
            let owned = owns(s);
            let stack = if owned && s < cfg.nodes {
                slots.len() as u32
            } else {
                NO_STACK
            };
            stack_at.push(stack);
            if owned {
                slots.push(s);
            }
        }
        // The harvest keeps them until the merge, one list per group.
        slots.shrink_to_fit();
        let nodes = &slots[..slots.partition_point(|&s| s < cfg.nodes)];
        // Nobody watches yet: `attach` below turns the MACs' transition
        // counting on.
        let (macs, nets) = nodes
            .iter()
            .map(|&s| node_stack(cfg, protocol, NodeId(s as u16), false))
            .unzip();
        let rngs = nodes
            .iter()
            .map(|&s| master.split(2000 + s as u64))
            .collect();
        let mut skew = vec![1.0f64; nodes.len()];
        for s in &plan.skew {
            match stack_at.get(s.node as usize) {
                Some(&i) if i != NO_STACK => skew[i as usize] = 1.0 + s.ppm * 1e-6,
                _ => {}
            }
        }
        // Pre-size the event heap from the group's scale: each in-flight
        // transmission holds ~2 events per in-range receiver, plus MAC
        // timers and beacons per node. 64 slots per owned slot covers dense
        // contention rounds without reallocating mid-replication; slots the
        // group does not own never schedule anything.
        let queue_capacity = (slots.len() * 64).max(4096);
        let mut runner = Runner {
            core: WorldCore {
                q: make_q(queue_capacity),
                channel,
                chan_rng: master.split(2),
                rngs,
                counters: vec![MacCounters::default(); nodes.len()],
                timers: Default::default(),
                skew,
                down: vec![false; nodes.len()],
                readers: Vec::new(),
            },
            macs,
            nets,
            cfg: Arc::clone(&spec.cfg),
            protocol,
            seed: spec.seed,
            packets_left: cfg.packets,
            faults: if plan.is_empty() {
                None
            } else {
                Some(FaultRt {
                    plan: plan.clone(),
                    crashes: 0,
                    jam_bursts: 0,
                    jam_seq: 0,
                })
            },
            inds_scratch: Vec::new(),
            last_rx: None,
            frame_clones: 0,
            carrier_falls: 0,
            carrier_off_entries: 0,
            slots,
            stack_at,
        };
        runner.attach(spec.obs, spec.check, None);
        runner
    }

    /// `node`'s stack index, or `None` where this runner has no stack (a
    /// jammer slot, or another group's node).
    #[inline]
    fn stack_of(&self, node: NodeId) -> Option<usize> {
        match self.stack_at[node.idx()] {
            NO_STACK => None,
            i => Some(i as usize),
        }
    }

    /// The stack index of a node an event names: always an owned one.
    #[inline]
    fn owned(&self, node: NodeId) -> usize {
        self.stack_of(node)
            .expect("an event for a node this group does not own")
    }

    /// Attach readers of the observation stream (DESIGN.md §9): the deep
    /// instrumentation layer ([`crate::obs`]: per-node protocol counters,
    /// plus the kernel self-profile and, when configured, the periodic
    /// snapshot sampler), the protocol-conformance checker ([`rmac_check`])
    /// and/or a tracer. None perturbs the simulation — they draw no
    /// randomness and schedule nothing — so the report stays bit-identical.
    pub(crate) fn attach(&mut self, obs: Option<ObsConfig>, check: bool, tracer: Option<Tracer>) {
        let (core, nodes) = (&mut self.core, self.cfg.nodes);
        if let Some(cfg) = obs {
            core.readers
                .push(Attached::Obs(Box::new(EngineObs::new(cfg, nodes))));
            // The report's per-node `tone_busy_ns` is the one reader.
            core.channel.keep_tone_busy_time();
        }
        if check {
            let class = self.protocol.conformance_class();
            let checker = Checker::new(CheckConfig::new(nodes, class));
            core.readers.push(Attached::Check(Box::new(checker)));
        }
        core.readers
            .extend(tracer.map(|tracer| Attached::Other(Box::new(tracer))));
        if core.watched() {
            // Transition counting (obs reports it, the checker's C4 needs
            // it) lives in the MACs, gated so detached runs skip the
            // per-transition increment.
            for mac in self.macs.iter_mut() {
                mac.enable_transition_counting();
            }
        }
    }

    /// Close out the attached readers, each into its own report: the
    /// checker's and the obs layer's (a tracer has none).
    pub(crate) fn finish(&mut self) -> (Option<CheckReport>, Option<ObsReport>) {
        let (mut check, mut obs) = (None, None);
        for reader in std::mem::take(&mut self.core.readers) {
            match reader {
                Attached::Obs(books) => obs = Some(self.finish_obs(*books)),
                Attached::Check(checker) => check = Some(self.finish_check(*checker)),
                Attached::Other(_) => {}
            }
        }
        (check, obs)
    }

    /// Close out the checker: validate the end-of-run transition matrices
    /// (C4) and assemble the report.
    fn finish_check(&self, mut check: Checker) -> CheckReport {
        for (&s, mac) in self.slots.iter().zip(&self.macs) {
            if let Some((labels, matrix)) = mac.transitions() {
                check.check_transitions(NodeId(s as u16), labels, &matrix);
            }
        }
        check.finish(self.core.q.now())
    }

    /// Seed the queue's initial events: first beacons in node order, the
    /// source, then the fault plan's scheduled actions — owned slots only,
    /// in the global enumeration order, so a group's seeding is the
    /// restriction of the whole world's to the group.
    fn seed_events(&mut self, beacons: &BeaconTimetable) {
        let (nodes, jammers) = self.slots.split_at(self.macs.len());
        for &s in nodes {
            let node = NodeId(s as u16);
            let first = Ev::Beacon { node, fire: 0 };
            self.core.q.push(beacons.first(node), first);
        }
        if nodes.first() == Some(&0) {
            self.core.q.push(self.cfg.warmup, Ev::Source);
        }
        if let Some(f) = &self.faults {
            // Deaf/Mute churn is enforced purely at the PHY by the
            // injector; only full crashes need engine-side events.
            for c in &f.plan.churn {
                let crash =
                    matches!(c.kind, ChurnKind::Crash) && (c.node as usize) < self.cfg.nodes;
                if crash && self.stack_of(NodeId(c.node)).is_some() {
                    let node = NodeId(c.node);
                    self.core.q.push(
                        SimTime::from_millis(c.at_ms),
                        Ev::Fault(FaultEv::NodeDown { node }),
                    );
                    self.core.q.push(
                        SimTime::from_millis(c.at_ms + c.for_ms),
                        Ev::Fault(FaultEv::NodeUp { node }),
                    );
                }
            }
            for &s in jammers {
                let jammer = s - self.cfg.nodes;
                self.core.q.push(
                    SimTime::from_millis(f.plan.jammers[jammer].start_ms),
                    Ev::Fault(FaultEv::JamOn { jammer }),
                );
            }
        }
    }

    /// Run the event loop under the hook the attachments call for, beacons
    /// firing as `beacons` schedules them.
    pub(crate) fn run_events(&mut self, beacons: &BeaconTimetable) {
        match self.core.obs().map(|o| o.sampler.is_some()) {
            Some(sampling) => self.run_loop(&mut Observed { sampling }, beacons),
            None => self.run_loop(&mut Detached, beacons),
        }
    }

    /// The event loop: seed, then pop and dispatch everything due by the
    /// end of the scenario, with `hook` around every dispatch.
    fn run_loop<H: LoopHook<Q>>(&mut self, hook: &mut H, beacons: &BeaconTimetable) {
        self.seed_events(beacons);
        let end = self.cfg.end_time();
        // Fused head-check + pop: one key comparison per event decides
        // both "is it due" and "which window half wins".
        while let Some((t, ev)) = self.core.q.pop_at_or_before(end) {
            let mark = hook.before(self, t, &ev);
            self.dispatch(ev, beacons);
            hook.after(self, mark);
        }
    }

    /// Record every snapshot boundary at or before `t`, the timestamp of
    /// the event just popped and not yet dispatched. Boundary checks run
    /// *between* dispatches, outside the queue, so sampling changes neither
    /// the popped-event count nor any tie-break.
    fn sample_until(&mut self, t: SimTime) {
        let Some(mut sampler) = self.core.obs().and_then(|o| o.sampler.take()) else {
            return;
        };
        while sampler.due(t.nanos()) {
            let snap = self.snapshot_at(sampler.next_boundary_ns(), 1);
            sampler.record(snap);
        }
        self.core.obs().expect("sampled without obs").sampler = Some(sampler);
    }

    /// Cumulative run state as of now, stamped with boundary time `t_ns`.
    /// `in_flight` events are popped but not yet dispatched; the snapshot
    /// counts them as still queued.
    fn snapshot_at(&self, t_ns: u64, in_flight: u64) -> Snapshot {
        Snapshot {
            t_ns,
            events: self.core.q.total_popped() - in_flight,
            queue_len: self.core.q.len() as u64 + in_flight,
            queue_high_water: self.core.q.depth_high_water() as u64,
            tx_frames: self.core.channel.frame_tallies().tx_frames.iter().sum(),
            rx_ok: self.core.channel.frame_tallies().rx_ok.iter().sum(),
            rx_corrupt: self.core.channel.frame_tallies().rx_corrupt.iter().sum(),
            receptions: self
                .slots
                .iter()
                .zip(&self.nets)
                .filter(|&(&s, _)| s != 0)
                .map(|(_, net)| net.stats().received)
                .sum(),
            crashes: self.faults.as_ref().map_or(0, |f| f.crashes),
            jam_bursts: self.faults.as_ref().map_or(0, |f| f.jam_bursts),
        }
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: Ev, beacons: &BeaconTimetable) {
        match ev {
            Ev::Phy(PhyEvent::FrameArriveEnd { rx, tx, prop }) => self.frame_end(rx, tx, prop),
            Ev::Phy(pe) => {
                // The event's own key, not the end of its instant: a frame
                // end and another frame's onset can share a nanosecond at
                // one receiver.
                let at = self.core.q.cursor();
                let mut inds = std::mem::take(&mut self.inds_scratch);
                inds.clear();
                self.core
                    .channel
                    .handle(at, &mut self.core.chan_rng, &pe, &mut inds);
                for ind in inds.drain(..) {
                    self.indicate(&ind);
                }
                self.inds_scratch = inds;
            }
            Ev::MacTimer { node, kind } => {
                // Only the live instance reaches the MAC: an entry a later
                // arm superseded, or a cancel or a crash withdrew, is
                // dropped or carries the live instance on to its own key.
                let i = self.owned(node);
                let ev = Ev::MacTimer { node, kind };
                let live = self.core.timers[kind as usize][i].on_pop(&mut self.core.q, ev);
                if let Some(obs) = self.core.obs() {
                    let n = &mut obs.nodes[node.idx()];
                    n.timer_popped[kind as usize] += 1;
                    n.timer_fire[kind as usize] += u64::from(live);
                }
                if live {
                    self.enter(node, i, |mac, ctx| mac.on_timer(ctx, kind));
                }
            }
            Ev::Beacon { node, fire } => {
                let now = self.core.q.now();
                // A crashed node emits no beacons but keeps its tick alive
                // for the restart.
                let i = self.owned(node);
                if !self.core.down[i] {
                    let mut reqs = Vec::new();
                    self.nets[i].on_beacon_timer(now, &mut reqs);
                    for req in reqs {
                        self.submit(node, i, req);
                    }
                }
                let next = beacons.next(node, fire, now);
                let fire = fire + 1;
                self.core.q.push(next, Ev::Beacon { node, fire });
            }
            Ev::Source => {
                if self.packets_left == 0 {
                    return;
                }
                let (source, i) = (NodeId(0), self.owned(NodeId(0)));
                if self.core.down[i] {
                    // The source rides out its own crash: packets are
                    // deferred, not silently dropped.
                    self.core
                        .q
                        .push_after(self.cfg.source_interval(), Ev::Source);
                    return;
                }
                self.packets_left -= 1;
                let now = self.core.q.now();
                let mut reqs = Vec::new();
                self.nets[i].on_source_timer(now, &mut reqs);
                for req in reqs {
                    self.submit(source, i, req);
                }
                if self.packets_left > 0 {
                    self.core
                        .q
                        .push_after(self.cfg.source_interval(), Ev::Source);
                }
            }
            Ev::Fault(fe) => self.on_fault(fe),
        }
    }

    /// A frame end, told to its receiver as a `FrameRx`, then a `CarrierOff`
    /// if the channel fell idle there: to every reader, and to the MAC if it
    /// declared it can act on one, as its interest after the `FrameRx`
    /// stands ([`rmac_phy::ToneInterest::CARRIER_FALL`]). The `FrameRx` is
    /// kept and, while the next end carries the same frame — the rest of one
    /// transmission's fan-out, most often — re-addressed, so the fan-out
    /// clones about one frame handle per transmission instead of one per
    /// receiver.
    fn frame_end(&mut self, rx: NodeId, tx: TxId, prop: SimTime) {
        let at = self.core.q.cursor();
        let chan = &mut self.core.channel;
        let Some(end) = chan.end_frame(at, &mut self.core.chan_rng, rx, tx, prop) else {
            return;
        };
        let (ok, carrier_off) = (end.ok, end.carrier_off);
        let frame = match self.last_rx.take() {
            Some(Indication::FrameRx { frame, .. }) if Arc::ptr_eq(&frame, &end.frame) => frame,
            _ => {
                self.frame_clones += u64::from(matches!(end.frame, Cow::Borrowed(_)));
                end.frame.into_owned()
            }
        };
        let ind = Indication::FrameRx {
            node: rx,
            frame,
            ok,
        };
        self.indicate(&ind);
        if carrier_off {
            let fall = Indication::CarrierOff { node: rx };
            if let Some(i) = self.signal(&fall) {
                self.carrier_falls += 1;
                if self.core.channel.interest(rx).carrier_fall() {
                    self.carrier_off_entries += 1;
                    self.enter(rx, i, |mac, ctx| mac.on_indication(ctx, &fall));
                }
            }
        }
        self.last_rx = Some(ind);
    }

    fn on_fault(&mut self, fe: FaultEv) {
        match fe {
            FaultEv::NodeDown { node } => {
                // The crash (not the protocol) cuts short whatever is in
                // flight; the checker wipes the node's state on this.
                if self.core.watched() {
                    self.core.report(node, TraceWhat::Fault(FaultKind::Crash));
                }
                let i = self.owned(node);
                self.core.down[i] = true;
                if let Some(f) = self.faults.as_mut() {
                    f.crashes += 1;
                }
                // Silence the radio: abort any transmission in flight and
                // drop both busy tones.
                if self.core.channel.is_transmitting(node) {
                    self.core.channel.abort_tx(&mut self.core.q, node);
                }
                for tone in [Tone::Rbt, Tone::Abt] {
                    if self.core.channel.is_emitting(node, tone) {
                        self.core.channel.stop_tone(&mut self.core.q, node, tone);
                    }
                }
                // The dead MAC's tone watches, interest and timers go with it.
                self.core.channel.deafen(node);
                let cut = (self.core.timers.each_mut())
                    .map(|column| column.get_mut(i).is_some_and(LiveTimer::cancel));
                if let Some(obs) = self.core.obs() {
                    let stale = &mut obs.nodes[node.idx()].timer_stale;
                    for (n, cut) in stale.iter_mut().zip(cut) {
                        *n += u64::from(cut);
                    }
                }
            }
            FaultEv::NodeUp { node } => {
                if self.core.watched() {
                    self.core.report(node, TraceWhat::Fault(FaultKind::Restart));
                }
                let i = self.owned(node);
                self.core.down[i] = false;
                // A restart loses all volatile state: fresh MAC and
                // network entities (the crash withdrew the timers).
                (self.macs[i], self.nets[i]) =
                    node_stack(&self.cfg, self.protocol, node, self.core.watched());
            }
            FaultEv::JamOn { jammer } => {
                let (spec, seq) = {
                    let f = self.faults.as_mut().expect("jam event without fault plan");
                    let spec = f.plan.jammers[jammer].clone();
                    f.jam_bursts += 1;
                    f.jam_seq = f.jam_seq.wrapping_add(1);
                    (spec, f.jam_seq)
                };
                let node = NodeId((self.cfg.nodes + jammer) as u16);
                if self.core.watched() {
                    let kind = match spec.target {
                        JamTarget::Data => FaultKind::JamData,
                        JamTarget::Rbt => FaultKind::JamRbt,
                        JamTarget::Abt => FaultKind::JamAbt,
                    };
                    self.core.report(node, TraceWhat::Fault(kind));
                }
                match spec.target {
                    JamTarget::Data => {
                        // One garbage broadcast frame sized to the burst
                        // length; its payload never parses as a NetPayload,
                        // so even a clean reception dies above the MAC.
                        if !self.core.channel.is_transmitting(node) {
                            let bytes_per_ms = 1_000_000 / BYTE_TIME.nanos();
                            let len = (spec.burst_ms * bytes_per_ms).clamp(1, 1400) as usize;
                            let frame = Frame::data_unreliable(
                                node,
                                Dest::Broadcast,
                                Bytes::from(vec![0u8; len]),
                                seq,
                            );
                            self.core.channel.start_tx(&mut self.core.q, node, frame);
                        }
                    }
                    JamTarget::Rbt | JamTarget::Abt => {
                        let tone = match spec.target {
                            JamTarget::Rbt => Tone::Rbt,
                            _ => Tone::Abt,
                        };
                        // Overlapping bursts merge: the earliest JamOff
                        // wins. Keep burst_ms < period_ms for clean gaps.
                        if !self.core.channel.is_emitting(node, tone) {
                            self.core.channel.start_tone(&mut self.core.q, node, tone);
                        }
                        self.core.q.push_after(
                            SimTime::from_millis(spec.burst_ms),
                            Ev::Fault(FaultEv::JamOff { jammer }),
                        );
                    }
                }
                if spec.period_ms > 0 {
                    self.core.q.push_after(
                        SimTime::from_millis(spec.period_ms),
                        Ev::Fault(FaultEv::JamOn { jammer }),
                    );
                }
            }
            FaultEv::JamOff { jammer } => {
                let node = NodeId((self.cfg.nodes + jammer) as u16);
                let target = self
                    .faults
                    .as_ref()
                    .expect("jam event without fault plan")
                    .plan
                    .jammers[jammer]
                    .target;
                let tone = match target {
                    JamTarget::Rbt => Tone::Rbt,
                    JamTarget::Abt => Tone::Abt,
                    // Data bursts end on their own when the frame's
                    // airtime elapses.
                    JamTarget::Data => return,
                };
                if self.core.channel.is_emitting(node, tone) {
                    self.core.channel.stop_tone(&mut self.core.q, node, tone);
                }
            }
        }
    }

    fn indicate(&mut self, ind: &Indication) {
        if let Some(i) = self.signal(ind) {
            self.enter(ind.node(), i, |mac, ctx| mac.on_indication(ctx, ind));
        }
    }

    /// Report `ind` to the readers, and return the stack index of its node
    /// if it has a live MAC to tell.
    fn signal(&mut self, ind: &Indication) -> Option<usize> {
        let node = ind.node();
        // Jammer slots have no stack; crashed nodes have a dead one.
        let i = self.stack_of(node).filter(|&i| !self.core.down[i])?;
        // Reported before the MAC reacts: the checker's sensed-state model
        // stays in lockstep with what the MAC can observe.
        if self.core.watched() {
            self.core.report(node, ind.into());
        }
        Some(i)
    }

    /// Hand an upper-layer request to the MAC of `node`, at stack index `i`.
    fn submit(&mut self, node: NodeId, i: usize, req: TxRequest) {
        if self.core.watched() {
            let (reliable, bytes) = (req.reliable, req.payload.len());
            self.core
                .report(node, TraceWhat::Submit { reliable, bytes });
        }
        self.enter(node, i, |mac, ctx| {
            mac.submit(ctx, req);
            debug_assert!(ctx.delivered.is_empty(), "submit cannot deliver frames");
        });
    }

    /// The one way into the MAC of `node`, at stack index `i`: build its
    /// context, make the `call`, then settle what the call left behind.
    ///
    /// First the channel is told which tone flips, and whether a carrier
    /// rise, the MAC can act on in the state the call left it in: it
    /// schedules a `ToneEdge` or a `FrameArriveStart` for a node only while
    /// it is interested (DESIGN.md §5); everything else reads the records.
    /// Then the harvest: the outcomes the MAC notified go to the network
    /// layer, the frames it delivered go up, and any resulting forwards come
    /// back down.
    #[inline]
    fn enter(
        &mut self,
        node: NodeId,
        i: usize,
        call: impl FnOnce(&mut dyn MacService, &mut Ctx<'_, Q>),
    ) {
        let mut delivered = Vec::new();
        let mut outcomes = Vec::new();
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
            i,
            net: &self.nets[i],
            delivered: &mut delivered,
            outcomes: &mut outcomes,
        };
        let mac = &mut self.macs[i];
        call(mac.as_mut(), &mut ctx);
        let want = mac.tone_interest();
        self.core.channel.listen(&mut self.core.q, node, want);

        let now = self.core.q.now();
        // Positive acknowledgments are cross-layer liveness evidence for
        // the tree (failures are already accounted in the MAC counters).
        for (_, outcome) in &outcomes {
            if let TxOutcome::Reliable {
                delivered: acked, ..
            } = outcome
            {
                self.nets[i].on_reliable_outcome(now, acked);
            }
        }
        if delivered.is_empty() {
            return;
        }
        let mut reqs = Vec::new();
        for frame in &delivered {
            if self.core.watched() {
                self.core.report(node, TraceWhat::Deliver { frame });
            }
            self.nets[i].on_deliver(now, frame, &mut reqs);
        }
        for req in reqs {
            self.submit(node, i, req);
        }
    }

    /// Close out the instrumentation and assemble its report. Separate
    /// from the harvest so the `RunReport` never depends on whether
    /// instrumentation was attached.
    fn finish_obs(&mut self, mut obs: EngineObs) -> ObsReport {
        let end = self.cfg.end_time();
        for (i, n) in obs.nodes.iter_mut().enumerate() {
            n.tone_busy_ns =
                Tone::ALL.map(|tone| self.core.channel.tone_busy_ns(NodeId(i as u16), tone, end));
        }
        let snapshots = match obs.sampler.as_mut() {
            Some(sampler) => {
                // One final sample so the series always covers end of run.
                let snap = self.snapshot_at(sampler.next_boundary_ns(), 0);
                sampler.record(snap);
                std::mem::take(&mut sampler.series)
            }
            None => Vec::new(),
        };
        let mut transition_labels: Vec<&'static str> = Vec::new();
        for (&s, mac) in self.slots.iter().zip(&self.macs) {
            if let Some((labels, matrix)) = mac.transitions() {
                if transition_labels.is_empty() {
                    transition_labels = labels.to_vec();
                }
                obs.nodes[s].transitions = matrix;
            }
        }
        let phy = self.core.channel.obs_stats();
        let mut counters = vec![
            ("engine.events_popped", self.core.q.total_popped()),
            ("engine.events_pushed", self.core.q.total_pushed()),
            ("phy.pool_hits", phy.pool_hits),
            ("phy.pool_misses", phy.pool_misses),
            ("phy.tone_records", phy.tones.records),
            ("phy.tone_edges_scheduled", phy.tones.scheduled),
            ("phy.tone_catchups", phy.tones.catchups),
            ("phy.frame_onsets", phy.onsets.records),
            ("phy.frame_starts_scheduled", phy.onsets.scheduled),
            ("phy.frame_start_catchups", phy.onsets.catchups),
        ];
        if let Some(grid) = phy.grid {
            counters.push(("grid.refreshes", grid.refreshes));
            counters.push(("grid.rebuckets", grid.rebuckets));
            counters.push(("grid.queries", grid.queries));
            counters.push(("grid.list_rebuilds", grid.list_rebuilds));
            counters.push(("grid.list_candidates", grid.list_candidates));
        }
        let faults = self.faults.as_ref();
        counters.extend([
            ("fault.frames_corrupted", phy.faults_injected),
            ("fault.crashes", faults.map_or(0, |f| f.crashes)),
            ("fault.jam_bursts", faults.map_or(0, |f| f.jam_bursts)),
        ]);
        let gauges = vec![
            (
                "queue.depth_high_water",
                self.core.q.depth_high_water() as u64,
            ),
            ("queue.capacity", self.core.q.capacity() as u64),
            ("engine.frame_rx_clones", self.frame_clones),
            ("engine.carrier_falls", self.carrier_falls),
            ("engine.carrier_off_entries", self.carrier_off_entries),
        ];
        ObsReport {
            counters,
            gauges,
            kernel: obs.kernel,
            timer_labels: &TIMER_LABELS,
            transition_labels,
            nodes: obs.nodes,
            snapshots,
        }
    }

    /// Strip the finished group down to the state the report is computed
    /// from. The harvest is partition-friendly: every field is either
    /// per-node (the owned nodes', merged by taking each node from its
    /// owner group), a commutative sum, or a maximum — which is what lets
    /// the groups' merged report reproduce the whole-world run's
    /// bit-for-bit.
    pub(crate) fn harvest(self) -> Harvest {
        Harvest {
            slots: self.slots,
            nets: self.nets,
            counters: self.core.counters,
            frames: self.core.channel.frame_tallies(),
            faults_injected: self.core.channel.faults_injected(),
            events: self.core.q.total_popped(),
            now: self.core.q.now(),
            packets_sent: self.cfg.packets - self.packets_left,
            crashes: self.faults.as_ref().map_or(0, |f| f.crashes),
            jam_bursts: self.faults.as_ref().map_or(0, |f| f.jam_bursts),
        }
    }
}

/// The order-independent residue of a finished group: everything
/// [`collect_report`] needs, in a shape that merges across the groups of a
/// replication (the owned nodes' state, plus summable channel/fault
/// tallies).
pub(crate) struct Harvest {
    /// The channel slots the harvested group owned, ascending (protocol
    /// nodes first, then jammers).
    pub(crate) slots: Vec<usize>,
    /// One entry per owned protocol node, in `slots` order; the merge
    /// refills them with every node's, indexed by global node id.
    pub(crate) nets: Vec<NetLayer>,
    pub(crate) counters: Vec<MacCounters>,
    pub(crate) frames: FrameTallies,
    pub(crate) faults_injected: u64,
    pub(crate) events: u64,
    pub(crate) now: SimTime,
    pub(crate) packets_sent: u64,
    pub(crate) crashes: u64,
    pub(crate) jam_bursts: u64,
}

/// Assemble a [`RunReport`] from a (merged) harvest, in global node order:
/// float accumulation order is part of bit-identity.
pub(crate) fn collect_report(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    h: &Harvest,
) -> RunReport {
    let now = h.now;
    let n = cfg.nodes;
    let packets_sent = h.packets_sent;

    let receptions = h.nets.iter().skip(1).map(|net| net.stats().received).sum();
    let (e2e_delay_avg_s, delay_samples) = delay_avg_s(h.nets.iter().map(NetLayer::stats));

    let nonleaf: Vec<usize> = (0..n)
        .filter(|&i| h.counters[i].reliable_accepted > 0)
        .collect();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let drop_ratios: Vec<f64> = nonleaf
        .iter()
        .map(|&i| h.counters[i].drop_ratio())
        .collect();
    let retx_ratios: Vec<f64> = nonleaf
        .iter()
        .map(|&i| h.counters[i].retx_ratio())
        .collect();
    // R_txoh is reported as a ratio of sums over the non-leaf nodes
    // rather than a mean of per-node ratios: in a dynamic tree a node
    // that forwarded only one or two packets (a transient parent) has
    // a tiny denominator and a huge ratio, and a handful of such
    // outliers dominate the mean. The paper's stable GloMoSim trees do
    // not produce them; the ratio of sums recovers the same "typical
    // overhead per unit of data air time" the paper plots.
    let (txoh_num, txoh_den) = nonleaf.iter().fold((0u64, 0u64), |(n, d), &i| {
        let c = &h.counters[i];
        (
            n + (c.ctrl_airtime + c.abt_check_time).nanos(),
            d + c.reliable_data_airtime.nanos(),
        )
    });
    let txoh_pooled = if txoh_den == 0 {
        0.0
    } else {
        txoh_num as f64 / txoh_den as f64
    };
    let abort_ratios: Vec<f64> = nonleaf
        .iter()
        .map(|&i| h.counters[i].abort_ratio())
        .collect();

    let (mrts_len_avg, mrts_len_p99, mrts_len_max) =
        mrts_stats(h.counters.iter().map(|c| c.mrts_by_receivers.as_slice()));

    // Tree statistics at end of run (§4.1.1's Fig. 6 numbers).
    let hops: Vec<f64> = h
        .nets
        .iter()
        .enumerate()
        .filter(|(i, net)| *i != 0 && net.bless().hops() != u32::MAX)
        .map(|(_, net)| net.bless().hops() as f64)
        .collect();
    let children: Vec<f64> = h
        .nets
        .iter()
        .map(|net| net.children(now).len() as f64)
        .filter(|&c| c > 0.0)
        .collect();
    let frames = h.frames;

    RunReport {
        protocol: protocol.label().to_string(),
        scenario: cfg.name.clone(),
        rate_pps: cfg.rate_pps,
        seed,
        packets_sent,
        expected_receptions: packets_sent * (n as u64 - 1),
        receptions,
        nonleaf_nodes: nonleaf.len() as u64,
        drop_ratio_avg: mean(&drop_ratios),
        retx_ratio_avg: mean(&retx_ratios),
        txoh_ratio_avg: txoh_pooled,
        abort_avg: mean(&abort_ratios),
        abort_p99: percentile(&abort_ratios, 99.0),
        abort_max: abort_ratios.iter().fold(0.0f64, |a, &b| a.max(b)),
        mrts_len_avg,
        mrts_len_p99,
        mrts_len_max,
        e2e_delay_avg_s,
        delay_samples,
        hops_avg: mean(&hops),
        hops_p99: percentile(&hops, 99.0),
        children_avg: mean(&children),
        children_p99: percentile(&children, 99.0),
        events: h.events,
        tx_frames: frames.tx_frames,
        tx_aborted: frames.tx_aborted,
        rx_frames_ok: frames.rx_ok,
        rx_frames_corrupt: frames.rx_corrupt,
        sim_secs: now.as_secs_f64(),
        faults_injected: h.faults_injected,
        fault_crashes: h.crashes,
        fault_jam_bursts: h.jam_bursts,
    }
}

/// Mean end-to-end delay in seconds and its sample count: every node's
/// nanosecond sum and reception count, summed exactly in any order, then
/// divided once by the count. The total stays far inside `u64`: paper
/// scale sums to about 10¹⁶ ns, 1 800 times below the bound.
fn delay_avg_s<'a>(per_node: impl Iterator<Item = &'a AppStats>) -> (f64, u64) {
    let (sum_ns, n) = per_node.fold((0u64, 0u64), |(sum, n), s| {
        (sum + s.delay_sum_ns, n + s.received)
    });
    if n == 0 {
        return (0.0, 0);
    }
    (SimTime::from_nanos(sum_ns).as_secs_f64() / n as f64, n)
}

/// Mean, 99th percentile and maximum of every node's MRTS lengths, from
/// each node's count per receiver count. Lengths grow with the receiver
/// count, so the summed counts walk the lengths in ascending order. A length
/// is a frame's byte count, so every partial `f64` sum of the lengths is an
/// integer far below 2^53 and exact in any order: the mean divides the
/// integer sum.
fn mrts_stats<'a>(per_node: impl Iterator<Item = &'a [u64]>) -> (f64, f64, f64) {
    let mut by_receivers: Vec<u64> = Vec::new();
    for counts in per_node {
        if by_receivers.len() < counts.len() {
            by_receivers.resize(counts.len(), 0);
        }
        for (total, &c) in by_receivers.iter_mut().zip(counts) {
            *total += c;
        }
    }
    let n: u64 = by_receivers.iter().sum();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let mut lengths = by_receivers
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(k, &c)| (mrts_len(k) as u64, c));
    let sum: u64 = lengths.clone().map(|(len, c)| len * c).sum();
    let p99 = percentile_counted(lengths.clone().map(|(len, c)| (len as f64, c)), 99.0);
    let max = lengths.next_back().map_or(0.0, |(len, _)| len as f64);
    (sum as f64 / n as f64, p99, max)
}

#[cfg(test)]
mod tests;
