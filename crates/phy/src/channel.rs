//! The shared wireless channel.

use std::borrow::Cow;
use std::sync::Arc;

use rmac_mobility::{Motion, Pos};
use rmac_sim::{Cursor, Edge, EdgeTally, SimQueue, SimRng, SimTime};
use rmac_wire::consts::{RANGE_M, SPEED_OF_LIGHT, TAU};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::event::{Indication, PhyEvent};
use crate::grid::{GridStats, IndexMode, SpatialGrid, ROUNDING_M};
use crate::slab::IdSlab;
use crate::tone::{Heard, Tone, ToneInterest, ToneLog, ToneRec};

/// Identifier of one transmission on the data channel.
pub type TxId = u64;

/// A fault plane consulted at the frame-corruption decision point.
///
/// The hook is asked about every frame end that the channel's own model
/// (collisions, capture, mobility, BER) has decided is healthy; returning
/// `true` corrupts the frame anyway. Implementations live outside this
/// crate (see `rmac-faults`) so the channel stays fault-agnostic, and they
/// must draw any randomness from their *own* generator: the channel's RNG
/// is never passed in, which is what keeps a run with an inert hook
/// bit-identical to a run with no hook at all.
pub trait FaultHook: Send {
    /// Should this otherwise-healthy frame from `src` to `rx` be corrupted?
    fn corrupt_rx(&mut self, now: SimTime, src: NodeId, rx: NodeId, frame: &Frame) -> bool;

    /// How many frames this hook has corrupted so far.
    fn injected(&self) -> u64;
}

/// Capture threshold (linear SIR): an overlapped frame still decodes if its
/// received power exceeds this × the strongest concurrent interference sum.
/// GloMoSim's SNR-bounded radio behaves this way; 10 (= 10 dB) is the
/// conventional value.
pub const CAPTURE_THRESHOLD: f64 = 10.0;

/// Path-loss exponent of received powers (two-ray ground ≈ 4).
pub const PATH_LOSS_EXP: f64 = 4.0;

/// Received power over `dist` metres, counted in `gains`: distance^-α,
/// distances clamped to ≥ 1 m so powers stay finite.
fn path_gain(dist: f64, gains: &mut u64) -> f64 {
    *gains += 1;
    dist.max(1.0).powf(-PATH_LOSS_EXP)
}

/// One receiver of a transmission or tone, fixed at its start.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Link {
    rx: NodeId,
    /// Propagation delay, ns (≤ 250 at the 75 m range).
    delay_ns: u32,
    /// Distance from the source, m.
    dist: f64,
    /// Received power, or 0 where nobody has needed it yet: only a link
    /// kept in [`Channel::static_rx`] carries it.
    power: f64,
}

impl Link {
    fn prop(&self) -> SimTime {
        SimTime::from_nanos(u64::from(self.delay_ns))
    }
}

/// Static channel parameters. The radio range is
/// [`rmac_wire::consts::RANGE_M`] (unit-disk model).
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Independent bit-error probability applied to each received frame
    /// (`0.0` disables the error model).
    pub ber_per_bit: f64,
    /// How range queries are answered. The default grid index is
    /// bit-identical to [`IndexMode::BruteForce`] (the grid only filters
    /// candidates; exact positions decide membership) but queries the few
    /// cells around the transmitter instead of every node.
    pub index: IndexMode,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            ber_per_bit: 0.0,
            index: IndexMode::grid(),
        }
    }
}

/// One in-flight transmission.
struct TxRecord {
    src: NodeId,
    /// The handle every receiver's `FrameRx` shares: a frame end lends it
    /// ([`FrameEnd`]), and the end that retires the record hands it over,
    /// so the fan-out neither deep-clones the frame nor bumps a refcount
    /// per receiver.
    frame: Arc<Frame>,
    /// Current transmission end (truncated by aborts).
    end: SimTime,
    aborted: bool,
    /// Whether `TxComplete` has been delivered to the transmitter.
    done: bool,
    /// Who receives it, in ascending id order.
    receivers: Vec<Link>,
    /// Receivers whose frame-end has not yet been processed.
    pending_ends: usize,
}

/// A busy tone being emitted.
struct Emission {
    id: u64,
    /// Who hears it, fixed at onset, in a buffer from the receiver pool.
    /// A tone is presence only: its links are read for receiver and delay.
    receivers: Vec<Link>,
}

/// How far back tone records are kept after an emission ends, beyond what an
/// open watch holds: the reach of [`Channel::tone_log`].
pub const TONE_HISTORY: SimTime = SimTime::from_micros(200);

/// A receiver's record list is weeded of what nobody will read again when it
/// has grown this long: several at a time, to spread the cost, and before
/// presence queries have much to walk.
const CROWD: usize = 8;

fn edge_event<E: From<PhyEvent>>(rx: NodeId, tone: Tone, on: bool, emit: u64) -> E {
    E::from(PhyEvent::ToneEdge { rx, tone, on, emit })
}

/// A signal arriving, or about to arrive, at a node.
#[derive(Clone, Copy)]
struct Arriving {
    tx: TxId,
    /// Received power, worked out ([`Arriving::power`]) when a second signal
    /// first shares the antenna with this one; 0 until then, unless the
    /// link came with it. Only capture reads it, and capture needs two.
    power: f64,
    /// The strongest concurrent interference sum experienced so far.
    max_interference: f64,
    /// Unconditionally corrupted (half-duplex conflict, abort, …),
    /// regardless of capture.
    forced_bad: bool,
    /// Whether the frame end must read where both nodes are: the link began
    /// within drift reach of the range edge (see [`Channel::start_tx`]).
    near_edge: bool,
    /// Where the signal's link sits in its transmission's `receivers`.
    link: u16,
    /// The first bit: where the signal lands in the dispatch order — the key
    /// its `FrameArriveStart` claimed as the frame started — and whether that
    /// event carries it to the MAC.
    onset: Edge,
}

impl Arriving {
    /// The received power, worked out on first need from the link's
    /// distance. (A transmission's record lasts until its last frame end,
    /// so a signal on the antenna finds it.)
    fn power(&mut self, txs: &IdSlab<TxRecord>, gains: &mut u64) -> f64 {
        if self.power == 0.0 {
            let rec = txs.get(self.tx).expect("a landed signal's record is kept");
            self.power = path_gain(rec.receivers[usize::from(self.link)].dist, gains);
        }
        self.power
    }
}

/// Per-node transceiver state.
struct NodeRadio {
    transmitting: Option<TxId>,
    /// The first `landed` are the signals on the antenna, in the order their
    /// onsets were settled ([`Channel::settle`]) but for the `swap_remove`s
    /// of those that ended; the rest are on their way, or waiting for
    /// something to touch the radio, in onset-key order.
    arriving: Vec<Arriving>,
    landed: u32,
    /// What the node hears on each tone channel.
    heard: [Heard; 2],
    emitting: [Option<Emission>; 2],
    /// Where each open tone watch began.
    watch: [Option<Cursor>; 2],
    /// The tone flips, and whether the carrier rises or falls, the MAC wants
    /// dispatched.
    interest: ToneInterest,
}

impl NodeRadio {
    fn new() -> Self {
        NodeRadio {
            transmitting: None,
            arriving: Vec::new(),
            landed: 0,
            heard: Default::default(),
            emitting: [None, None],
            watch: [None, None],
            interest: ToneInterest::NONE,
        }
    }

    /// The signals on the antenna, and the ones yet to land.
    fn split(&mut self) -> (&mut [Arriving], &mut [Arriving]) {
        self.arriving.split_at_mut(self.landed as usize)
    }
}

/// The wireless medium: data channel plus the RBT and ABT tone channels.
///
/// See the [crate docs](crate) for the event-driven protocol between the
/// channel and the embedding simulation loop.
pub struct Channel {
    cfg: ChannelConfig,
    motions: Vec<Motion>,
    /// The largest [`Motion::speed_bound`]: two nodes part by at most
    /// `2 · v_max` m/s (DESIGN.md §5). Worked out as the first frame
    /// starts: a bound then holds for every frame after.
    v_max: Option<f64>,
    radios: Vec<NodeRadio>,
    txs: IdSlab<TxRecord>,
    next_tx: TxId,
    next_emit: u64,
    fault_hook: Option<Box<dyn FaultHook>>,
    /// Spatial index over node positions (`None` ⇒ brute-force scans).
    grid: Option<SpatialGrid>,
    /// Per-source links, kept for as long as no drift can make them false:
    /// forever, and only when *every* node is fixed (the grid's reuse
    /// horizon never ends) — under motion the grid keeps who can be in
    /// range and the links are worked out per fill. Each kept link carries
    /// its power, worked out once.
    static_rx: Vec<Option<Vec<Link>>>,
    /// Recycled link buffers (the allocation diet: transmission records
    /// hand their receiver lists back here instead of freeing).
    rx_pool: Vec<Vec<Link>>,
    /// Buffer requests served from a pool (observability).
    pool_hits: u64,
    /// Buffer requests that had to allocate (observability).
    pool_misses: u64,
    /// Always-on per-frame-kind frame tallies (see [`FrameTallies`]).
    frames: FrameTallies,
    /// Tone records and their `ToneEdge`s (see [`PhyObs`]).
    tones: EdgeTally,
    /// Frame onsets and their `FrameArriveStart`s (see [`PhyObs`]).
    onsets: EdgeTally,
    /// Received powers worked out (see [`PhyObs`]).
    path_gains: u64,
    /// Frame ends that read the geometry (see [`PhyObs`]).
    frame_end_position_reads: u64,
    /// Whether forgotten tone records fold their presence into the busy
    /// time [`Channel::tone_busy_ns`] reads ([`Channel::keep_tone_busy_time`]).
    keep_busy: bool,
    /// Busy-time folds (see [`PhyObs`]).
    busy_folds: u64,
}

/// What one frame end tells its receiver ([`Channel::end_frame`]).
pub struct FrameEnd<'a> {
    /// Whether the frame arrived intact.
    pub ok: bool,
    /// Whether the data channel at the receiver fell idle with it.
    pub carrier_off: bool,
    /// The transmission's frame: lent while other receivers still wait for
    /// their ends, handed over by the end that retires the record.
    pub frame: Cow<'a, Arc<Frame>>,
}

/// Cumulative per-frame-kind tallies (one slot per kind, indexed by
/// [`FrameKind::index`]), counted where the channel creates
/// the corresponding indications — the frame kind is statically known
/// there, so the always-on counting costs straight-line increments on
/// branches the PHY already takes. "As seen at the PHY": receptions at
/// crashed nodes count here even though their MACs never see the frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameTallies {
    /// Completed transmissions by kind (aborted ones included).
    pub tx_frames: [u64; FrameKind::COUNT],
    /// How many of those transmissions were aborted mid-air.
    pub tx_aborted: u64,
    /// Receptions delivered clean, by kind.
    pub rx_ok: [u64; FrameKind::COUNT],
    /// Receptions delivered corrupted, by kind.
    pub rx_corrupt: [u64; FrameKind::COUNT],
}

/// Cumulative channel-internal counters for the observability layer:
/// allocation-diet effectiveness and spatial-index maintenance. Reading
/// them never affects simulation results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhyObs {
    /// Receiver-buffer requests served by recycling a pooled buffer.
    pub pool_hits: u64,
    /// Receiver-buffer requests that allocated a fresh buffer.
    pub pool_misses: u64,
    /// Spatial-grid maintenance counters (`None` in brute-force mode).
    pub grid: Option<GridStats>,
    /// Frames corrupted by the attached fault hook.
    pub faults_injected: u64,
    /// Tone records written — one per emission per in-range receiver, two
    /// edges each — and the `ToneEdge` events pushed for them.
    pub tones: EdgeTally,
    /// Frame onsets written — one per transmission per in-range receiver —
    /// and the `FrameArriveStart` events pushed for them.
    pub onsets: EdgeTally,
    /// Received powers worked out: once per kept link when every node is
    /// fixed, else once per signal that shared an antenna with another.
    pub path_gains: u64,
    /// Frame ends that read both endpoints' positions: those whose link
    /// began within drift reach of the range edge.
    pub frame_end_position_reads: u64,
    /// Forgettings of tone records that folded their presence into the busy
    /// time: none unless [`Channel::keep_tone_busy_time`] was called.
    pub busy_folds: u64,
}

impl Channel {
    /// Build a channel over the given per-node trajectories.
    pub fn new(cfg: ChannelConfig, motions: Vec<Motion>) -> Channel {
        let n = motions.len();
        let grid = match cfg.index {
            IndexMode::BruteForce => None,
            IndexMode::Grid => Some(SpatialGrid::new(RANGE_M)),
        };
        Channel {
            cfg,
            motions,
            v_max: None,
            radios: (0..n).map(|_| NodeRadio::new()).collect(),
            txs: IdSlab::new(),
            next_tx: 0,
            next_emit: 0,
            fault_hook: None,
            grid,
            static_rx: vec![None; n],
            rx_pool: Vec::new(),
            pool_hits: 0,
            pool_misses: 0,
            frames: FrameTallies::default(),
            tones: EdgeTally::default(),
            onsets: EdgeTally::default(),
            path_gains: 0,
            frame_end_position_reads: 0,
            keep_busy: false,
            busy_folds: 0,
        }
    }

    /// Keep each node's tone busy time for [`Channel::tone_busy_ns`]: a
    /// forgotten tone record then folds its presence into a running total.
    /// Only a reader of that total needs the fold, so a channel skips it
    /// unless told.
    ///
    /// Panics once a tone record has been written: the time forgotten
    /// before would be missing from the total.
    pub fn keep_tone_busy_time(&mut self) {
        assert_eq!(
            self.tones.records, 0,
            "busy time must be kept from the first tone record on"
        );
        self.keep_busy = true;
    }

    /// The always-on per-frame-kind tallies.
    pub fn frame_tallies(&self) -> FrameTallies {
        self.frames
    }

    /// Cumulative channel-internal observability counters.
    pub fn obs_stats(&self) -> PhyObs {
        PhyObs {
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
            grid: self.grid.as_ref().map(|g| g.stats()),
            faults_injected: self.faults_injected(),
            tones: self.tones,
            onsets: self.onsets,
            path_gains: self.path_gains,
            frame_end_position_reads: self.frame_end_position_reads,
            busy_folds: self.busy_folds,
        }
    }

    /// Links kept for a world where nothing moves (diagnostics: each had
    /// its power worked out once).
    pub fn static_links(&self) -> usize {
        self.static_rx.iter().flatten().map(Vec::len).sum()
    }

    /// Pop a recycled link buffer, counting hit or miss.
    fn pooled_rx_buf(&mut self) -> Vec<Link> {
        match self.rx_pool.pop() {
            Some(buf) => {
                self.pool_hits += 1;
                buf
            }
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Attach a fault plane; see [`FaultHook`].
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Frames corrupted by the attached fault hook so far (0 without one).
    pub fn faults_injected(&self) -> u64 {
        self.fault_hook.as_ref().map_or(0, |h| h.injected())
    }

    /// Position of `node` at time `t`.
    pub fn position(&mut self, node: NodeId, t: SimTime) -> Pos {
        self.motions[node.idx()].position_at(t)
    }

    /// All nodes within radio range of `node` at time `t` (excluding
    /// `node` itself), in ascending id order.
    pub fn neighbors_at(&mut self, node: NodeId, t: SimTime) -> Vec<NodeId> {
        let mut buf = self.pooled_rx_buf();
        self.fill_receivers(node, t, &mut buf);
        let out = buf.iter().map(|l| l.rx).collect();
        buf.clear();
        self.rx_pool.push(buf);
        out
    }

    /// The link to `rx`, `d2` square metres away.
    fn link(rx: NodeId, d2: f64) -> Link {
        let dist = d2.sqrt();
        let delay = SimTime::from_secs_f64(dist / SPEED_OF_LIGHT).nanos();
        Link {
            rx,
            delay_ns: u32::try_from(delay).expect("a delay within radio range is ≤ 250 ns"),
            dist,
            power: 0.0,
        }
    }

    /// Fill `out` with the links to every node in range of `src` at `t`,
    /// ascending by id.
    ///
    /// Both index modes produce bit-identical links: the grid only names
    /// who can be in range, in id order ([`SpatialGrid::near`]); membership
    /// and link quantities are always computed from exact trajectory
    /// positions at `t`.
    fn fill_receivers(&mut self, src: NodeId, t: SimTime, out: &mut Vec<Link>) {
        out.clear();
        let range_sq = RANGE_M * RANGE_M;
        if let Some(grid) = self.grid.as_mut() {
            if let Some(cached) = &self.static_rx[src.idx()] {
                out.extend_from_slice(cached);
                return;
            }
            let p = self.motions[src.idx()].position_at(t);
            for &i in grid.near(src.idx(), t, &mut self.motions) {
                let d2 = self.motions[i as usize].position_at(t).dist_sq(p);
                if d2 <= range_sq {
                    out.push(Self::link(NodeId(i), d2));
                }
            }
            if grid.all_fixed() {
                for link in out.iter_mut() {
                    link.power = path_gain(link.dist, &mut self.path_gains);
                }
                self.static_rx[src.idx()] = Some(out.clone());
            }
        } else {
            let p = self.motions[src.idx()].position_at(t);
            for i in 0..self.radios.len() {
                if i == src.idx() {
                    continue;
                }
                let d2 = self.motions[i].position_at(t).dist_sq(p);
                if d2 <= range_sq {
                    out.push(Self::link(NodeId(i as u16), d2));
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // MAC-facing actions
    // -----------------------------------------------------------------

    /// Begin transmitting `frame` from `src`. The transmission occupies the
    /// antenna for `frame.airtime()`; every node in range at the start
    /// instant will experience the signal: each gets a record of the onset,
    /// and the ones interested in the carrier a `FrameArriveStart` event as
    /// well. Returns the transmission id.
    ///
    /// Whether a receiver's frame end reads the geometry is settled here: a
    /// frame end comes `airtime + prop` on, `prop` ≤ τ, and two nodes part
    /// by at most `2 · v_max` meanwhile (DESIGN.md §5), so a link that
    /// begins further than that inside the range stays in it — and an abort
    /// that cuts the frame short corrupts it anyway.
    ///
    /// Panics if `src` is already transmitting (a MAC state-machine bug).
    pub fn start_tx<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        frame: Frame,
    ) -> TxId {
        let now = q.now();
        // What has reached the antenna so far is lost to half duplex below;
        // what lands from here on sees a transmitter.
        self.settle(src, q.cursor());
        assert!(
            self.radios[src.idx()].transmitting.is_none(),
            "{src:?} started a transmission while already transmitting"
        );
        let id = self.next_tx;
        self.next_tx += 1;
        let mut receivers = self.pooled_rx_buf();
        self.fill_receivers(src, now, &mut receivers);
        let end = now + frame.airtime();
        let v_max = *self.v_max.get_or_insert_with(|| {
            self.motions
                .iter()
                .map(Motion::speed_bound)
                .fold(0.0, f64::max)
        });
        let edge = RANGE_M - ROUNDING_M - 2.0 * v_max * (end - now + TAU).as_secs_f64();
        for (i, link) in receivers.iter().enumerate() {
            let (rx, prop) = (link.rx, link.prop());
            let radio = &mut self.radios[rx.idx()];
            let onset = Edge::write(
                q,
                now + prop,
                radio.interest.carrier(),
                E::from(PhyEvent::FrameArriveStart { rx, tx: id }),
                &mut self.onsets,
            );
            let (on_air, pending) = radio.split();
            let at = on_air.len() + pending.partition_point(|a| a.onset.key < onset.key);
            let signal = Arriving {
                tx: id,
                power: link.power,
                max_interference: 0.0,
                forced_bad: false,
                near_edge: link.dist > edge,
                link: u16::try_from(i).expect("receivers are node ids, which are u16"),
                onset,
            };
            radio.arriving.insert(at, signal);
            q.push(
                end + prop,
                E::from(PhyEvent::FrameArriveEnd { rx, tx: id, prop }),
            );
        }
        self.onsets.records += receivers.len() as u64;
        q.push(end, E::from(PhyEvent::TxComplete { node: src, tx: id }));
        // Half duplex: anything arriving at the transmitter is lost.
        for a in self.radios[src.idx()].split().0 {
            a.forced_bad = true;
        }
        let pending_ends = receivers.len();
        self.txs.insert(
            id,
            TxRecord {
                src,
                frame: Arc::new(frame),
                end,
                aborted: false,
                done: false,
                receivers,
                pending_ends,
            },
        );
        self.radios[src.idx()].transmitting = Some(id);
        id
    }

    /// Abort `src`'s in-flight transmission right now (RMAC step 3 of
    /// §3.3.2: a node transmitting an MRTS that senses an RBT must abort).
    /// Receivers experience the truncated signal as a corrupted frame.
    pub fn abort_tx<E: From<PhyEvent>>(&mut self, q: &mut impl SimQueue<E>, src: NodeId) {
        let now = q.now();
        let id = self.radios[src.idx()]
            .transmitting
            .expect("abort_tx with no transmission in flight");
        let rec = self.txs.get_mut(id).expect("live tx without record");
        debug_assert!(!rec.done);
        if rec.aborted {
            return;
        }
        rec.aborted = true;
        rec.end = now;
        q.push(now, E::from(PhyEvent::TxComplete { node: src, tx: id }));
        for link in &rec.receivers {
            let (rx, prop) = (link.rx, link.prop());
            q.push(
                now + prop,
                E::from(PhyEvent::FrameArriveEnd { rx, tx: id, prop }),
            );
        }
    }

    /// Raise busy tone `tone` at `src`. In-range nodes sense it after the
    /// propagation delay: each gets a record of the emission, and the ones
    /// interested in the tone turning present a `ToneEdge` event as well.
    /// No-op if the tone is already raised.
    pub fn start_tone<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        tone: Tone,
    ) {
        if self.radios[src.idx()].emitting[tone.idx()].is_some() {
            return;
        }
        let now = q.now();
        let id = self.next_emit;
        self.next_emit += 1;
        let mut receivers = self.pooled_rx_buf();
        self.fill_receivers(src, now, &mut receivers);
        let horizon = now.saturating_sub(TONE_HISTORY);
        for link in &receivers {
            let (rx, prop) = (link.rx, link.prop());
            let radio = &mut self.radios[rx.idx()];
            let on = Edge::write(
                q,
                now + prop,
                radio.interest.wants(tone, true),
                edge_event(rx, tone, true, id),
                &mut self.tones,
            );
            let heard = &mut radio.heard[tone.idx()];
            if heard.recs.len() >= CROWD {
                let watch = radio.watch[tone.idx()];
                let horizon = watch.map_or(horizon, |w| w.time.min(horizon));
                if heard.forget_before(horizon, self.keep_busy) {
                    self.busy_folds += 1;
                }
            }
            heard.recs.push(ToneRec {
                emit: id,
                on,
                off: Edge::NEVER,
            });
        }
        self.tones.records += receivers.len() as u64;
        self.radios[src.idx()].emitting[tone.idx()] = Some(Emission { id, receivers });
    }

    /// Lower busy tone `tone` at `src`. The same nodes that sensed the
    /// rising edge sense the falling edge (the audibility set is fixed at
    /// tone onset — tones are short relative to node motion). No-op if the
    /// tone is not raised.
    pub fn stop_tone<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        src: NodeId,
        tone: Tone,
    ) {
        let Some(Emission { id, mut receivers }) =
            self.radios[src.idx()].emitting[tone.idx()].take()
        else {
            return;
        };
        let now = q.now();
        for link in &receivers {
            let (rx, prop) = (link.rx, link.prop());
            let radio = &mut self.radios[rx.idx()];
            let recs = &mut radio.heard[tone.idx()].recs;
            let i = recs
                .iter()
                .rposition(|r| r.emit == id)
                .expect("a lasting emission keeps its records");
            let off = Edge::write(
                q,
                now + prop,
                radio.interest.wants(tone, false),
                edge_event(rx, tone, false, id),
                &mut self.tones,
            );
            let on = recs[i].on;
            if off.key.time == on.key.time && !on.told() && !off.told() {
                // Lowered in the instant it was raised and nobody told:
                // nothing was, or will be, heard.
                recs.remove(i);
            } else {
                recs[i].off = off;
            }
        }
        receivers.clear();
        self.rx_pool.push(receivers);
    }

    /// Declare which tone flips, and whether the carrier rising or falling,
    /// `node`'s MAC can act on from here on. An edge or onset written while the MAC was
    /// not interested and still in flight — keyed after the event being
    /// dispatched — gets its `ToneEdge` or `FrameArriveStart` now, under its
    /// own key, so neither passes an interested MAC unannounced. Interest
    /// that closes cancels nothing: a MAC must tolerate a change it no
    /// longer cares about.
    pub fn listen<E: From<PhyEvent>>(
        &mut self,
        q: &mut impl SimQueue<E>,
        node: NodeId,
        want: ToneInterest,
    ) {
        let radio = &mut self.radios[node.idx()];
        let had = std::mem::replace(&mut radio.interest, want);
        if want == had {
            return;
        }
        if want.carrier() && !had.carrier() {
            for a in radio.split().1 {
                let first_bit = E::from(PhyEvent::FrameArriveStart { rx: node, tx: a.tx });
                a.onset.catch_up(q, first_bit, &mut self.onsets);
            }
        }
        for tone in Tone::ALL {
            for on in [true, false] {
                if !want.wants(tone, on) || had.wants(tone, on) {
                    continue;
                }
                for r in &mut radio.heard[tone.idx()].recs {
                    let edge = if on { &mut r.on } else { &mut r.off };
                    edge.catch_up(q, edge_event(node, tone, on, r.emit), &mut self.tones);
                }
            }
        }
    }

    /// What `node`'s MAC last declared it can act on.
    pub fn interest(&self, node: NodeId) -> ToneInterest {
        self.radios[node.idx()].interest
    }

    /// `node`'s MAC is gone (a crash): close its tone watches and withdraw
    /// its interest, so nothing holds the node's records back.
    pub fn deafen(&mut self, node: NodeId) {
        let radio = &mut self.radios[node.idx()];
        radio.watch = [None, None];
        radio.interest = ToneInterest::NONE;
    }

    /// Whether `src` currently emits `tone`.
    pub fn is_emitting(&self, src: NodeId, tone: Tone) -> bool {
        self.radios[src.idx()].emitting[tone.idx()].is_some()
    }

    /// Whether `node` is currently transmitting on the data channel.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.radios[node.idx()].transmitting.is_some()
    }

    /// The frame `node` is transmitting right now, as every receiver's
    /// `FrameRx` will share it.
    pub fn on_air(&self, node: NodeId) -> Option<&Arc<Frame>> {
        let tx = self.radios[node.idx()].transmitting?;
        Some(&self.txs.get(tx)?.frame)
    }

    /// Instantaneous carrier sense: is the data channel busy at `node`
    /// (signal energy arriving, or the node itself transmitting) for a
    /// reader at `at` — the cursor of the event being dispatched, or
    /// [`Cursor::end_of`] an instant?
    pub fn data_busy(&self, node: NodeId, at: Cursor) -> bool {
        let r = &self.radios[node.idx()];
        // (Past the first two tests every signal in the list is pending.)
        r.transmitting.is_some()
            || r.landed > 0
            || r.arriving
                .iter()
                .any(|a| a.onset.key <= at && self.txs.contains(a.tx))
    }

    /// Instantaneous tone sense: is `tone` present at `node` for a reader at
    /// `at` — the cursor of the event being dispatched, or
    /// [`Cursor::end_of`] an instant? A node does not sense its own
    /// emission.
    pub fn tone_present(&self, node: NodeId, tone: Tone, at: Cursor) -> bool {
        self.radios[node.idx()].heard[tone.idx()].present(at)
    }

    /// The flips of `tone` at `node` keyed in `(from, to]`, `from` no
    /// further back than [`TONE_HISTORY`].
    pub fn tone_log(&self, node: NodeId, tone: Tone, from: Cursor, to: Cursor) -> ToneLog {
        debug_assert!(to.time.saturating_sub(from.time) <= TONE_HISTORY);
        self.radios[node.idx()].heard[tone.idx()].log(from, to)
    }

    /// How long `tone` has been present at `node` before `upto`, ns.
    ///
    /// Panics unless the channel keeps busy time
    /// ([`Channel::keep_tone_busy_time`]): without it, forgotten records
    /// leave nothing behind and the sum would be partial.
    pub fn tone_busy_ns(&self, node: NodeId, tone: Tone, upto: SimTime) -> u64 {
        assert!(
            self.keep_busy,
            "tone_busy_ns on a channel that does not keep busy time \
             (call Channel::keep_tone_busy_time before the first tone)"
        );
        self.radios[node.idx()].heard[tone.idx()].busy_ns(upto)
    }

    /// Tone records currently kept for `node` (diagnostics: the number is
    /// bounded by what is audible, not by how long the run has lasted).
    pub fn tone_records_held(&self, node: NodeId) -> usize {
        self.radios[node.idx()]
            .heard
            .iter()
            .map(|h| h.recs.len())
            .sum()
    }

    /// Start watching `tone` at `node` (for λ-window detection) from `at`,
    /// the cursor of the event being dispatched. Replaces any previous
    /// watch on the same tone.
    pub fn open_watch(&mut self, node: NodeId, tone: Tone, at: Cursor) {
        self.radios[node.idx()].watch[tone.idx()] = Some(at);
    }

    /// Close the watch on `tone` at `node`, returning what it saw up to
    /// `at`.
    ///
    /// Panics if no watch is open (a MAC state-machine bug).
    pub fn close_watch(&mut self, node: NodeId, tone: Tone, at: Cursor) -> ToneLog {
        let radio = &mut self.radios[node.idx()];
        let from = radio.watch[tone.idx()]
            .take()
            .expect("close_watch without an open watch");
        radio.heard[tone.idx()].log(from, at)
    }

    // -----------------------------------------------------------------
    // Event processing
    // -----------------------------------------------------------------

    /// Process one previously scheduled [`PhyEvent`] popped under key `at`
    /// ([`SimQueue::cursor`]), appending the resulting [`Indication`]s to
    /// `out`. A caller whose queue holds nothing else in that instant at the
    /// radios concerned may pass the bare time.
    pub fn handle(
        &mut self,
        at: impl Into<Cursor>,
        rng: &mut SimRng,
        ev: &PhyEvent,
        out: &mut Vec<Indication>,
    ) {
        let at = at.into();
        match *ev {
            PhyEvent::FrameArriveStart { rx, tx } => self.frame_start(at, rx, tx, out),
            PhyEvent::FrameArriveEnd { rx, tx, prop } => {
                if let Some(end) = self.end_frame(at, rng, rx, tx, prop) {
                    let carrier_off = end.carrier_off;
                    out.push(Indication::FrameRx {
                        node: rx,
                        frame: end.frame.into_owned(),
                        ok: end.ok,
                    });
                    if carrier_off {
                        out.push(Indication::CarrierOff { node: rx });
                    }
                }
            }
            PhyEvent::TxComplete { node, tx } => self.tx_complete(at, node, tx, out),
            PhyEvent::ToneEdge { rx, tone, on, emit } => self.tone_edge(rx, tone, on, emit, out),
        }
    }

    /// Remove a finished transmission's record: its receiver buffer goes
    /// back to the pool, its frame to the caller.
    fn retire(&mut self, tx: TxId) -> Arc<Frame> {
        let TxRecord {
            frame,
            mut receivers,
            ..
        } = self.txs.remove(tx).expect("a retiring record is kept");
        receivers.clear();
        self.rx_pool.push(receivers);
        frame
    }

    /// Touch `node`'s radio: land, in key order, the signals whose onset is
    /// keyed at or before `upto` — each as the `FrameArriveStart` event it
    /// stands for would have, had it run at its key. Everything that reads
    /// or moves `transmitting` or the landed signals does this first, so
    /// between two touches nothing an onset reads can change, and landing it
    /// late is landing it on time. Returns the transmission whose onset last
    /// found the node idle and not transmitting: a carrier rise.
    fn settle(&mut self, node: NodeId, upto: Cursor) -> Option<TxId> {
        let r = &mut self.radios[node.idx()];
        let mut rose = None;
        while let Some(&Arriving { tx, .. }) = r
            .arriving
            .get(r.landed as usize)
            .filter(|a| a.onset.key <= upto)
        {
            if !self.txs.contains(tx) {
                // The transmission was aborted at its very start instant and
                // fully cleaned up; nothing arrives.
                r.arriving.remove(r.landed as usize);
                continue;
            }
            let transmitting = r.transmitting.is_some();
            let (on_air, pending) = r.split();
            // Capture bookkeeping: every live signal records the strongest
            // concurrent interference sum it has experienced; whether that
            // corrupts it is decided at frame end against the capture
            // threshold. A signal's power is worked out the first time it
            // shares the antenna: one that lands and ends alone needs none.
            let (txs, gains) = (&self.txs, &mut self.path_gains);
            let others_sum: f64 = on_air.iter_mut().map(|a| a.power(txs, gains)).sum();
            if on_air.is_empty() {
                if !transmitting {
                    rose = Some(tx);
                }
            } else {
                let total = others_sum + pending[0].power(txs, gains);
                for a in on_air.iter_mut() {
                    let intf = total - a.power;
                    if intf > a.max_interference {
                        a.max_interference = intf;
                    }
                }
            }
            pending[0].max_interference = others_sum;
            // Half duplex: a node cannot decode while transmitting.
            pending[0].forced_bad = transmitting;
            r.landed += 1;
        }
        rose
    }

    /// An onset the receiver's MAC asked to hear of: a `CarrierOn` if it is
    /// the one that takes the node from idle to busy.
    fn frame_start(&mut self, at: Cursor, rx: NodeId, tx: TxId, out: &mut Vec<Indication>) {
        if self.settle(rx, at) == Some(tx) {
            out.push(Indication::CarrierOn { node: rx });
        }
    }

    /// Process the `FrameArriveEnd` of transmission `tx` at `rx`, popped
    /// under key `at` with propagation delay `prop`: what [`Channel::handle`]
    /// would turn into a `FrameRx` and, with `carrier_off`, a `CarrierOff`.
    /// `None` for a stale end. Nothing is cloned: an engine that keeps the
    /// frame from a previous end of the same transmission (`Arc::ptr_eq`)
    /// needs no handle of its own per receiver.
    pub fn end_frame(
        &mut self,
        at: Cursor,
        rng: &mut SimRng,
        rx: NodeId,
        tx: TxId,
        prop: SimTime,
    ) -> Option<FrameEnd<'_>> {
        let rec = self.txs.get(tx)?; // else stale
        let now = at.time;
        if rec.end + prop != now {
            return None; // stale end event from before an abort truncated the tx
        }
        let (src, aborted) = (rec.src, rec.aborted);
        let kind_slot = rec.frame.kind.index();

        self.settle(rx, at);
        let r = &mut self.radios[rx.idx()];
        let on_air = r.split().0;
        // Else already delivered (an abort racing the original end).
        let pos = on_air.iter().position(|a| a.tx == tx)?;
        let on_air = on_air.len();
        // `swap_remove` among the landed; the pending keep their order.
        r.arriving.swap(pos, on_air - 1);
        let sig = r.arriving.remove(on_air - 1);
        r.landed -= 1;
        let still_tx = r.transmitting.is_some();
        let now_idle = r.landed == 0;

        // Capture: the frame survives overlap iff its power beat the
        // strongest concurrent interference by the capture threshold.
        // (Interference is nonzero only for a signal that shared the
        // antenna, which worked its power out then.)
        let captured_through =
            sig.max_interference == 0.0 || sig.power >= CAPTURE_THRESHOLD * sig.max_interference;
        let mut corrupted = sig.forced_bad || !captured_through || aborted || still_tx;
        // Mobility: the receiver (or transmitter) may have drifted out of
        // range during the frame; a link near the edge checks the geometry.
        if !corrupted && sig.near_edge {
            self.frame_end_position_reads += 1;
            let range_sq = RANGE_M * RANGE_M;
            let ps = self.motions[src.idx()].position_at(now);
            let pr = self.motions[rx.idx()].position_at(now);
            if ps.dist_sq(pr) > range_sq {
                corrupted = true;
            }
        }
        if !corrupted && self.cfg.ber_per_bit > 0.0 {
            let frame = &self.txs.get(tx).expect("record vanished mid-event").frame;
            let bits = (frame.length_bytes() * 8) as f64;
            let p_ok = (1.0 - self.cfg.ber_per_bit).powf(bits);
            if !rng.chance(p_ok) {
                corrupted = true;
            }
        }
        if !corrupted {
            if let Some(hook) = self.fault_hook.as_mut() {
                let frame = &self.txs.get(tx).expect("record vanished mid-event").frame;
                if hook.corrupt_rx(now, src, rx, frame) {
                    corrupted = true;
                }
            }
        }

        if corrupted {
            self.frames.rx_corrupt[kind_slot] += 1;
        } else {
            self.frames.rx_ok[kind_slot] += 1;
        }

        let rec = self.txs.get_mut(tx).expect("record vanished mid-event");
        rec.pending_ends -= 1;
        let frame = if rec.done && rec.pending_ends == 0 {
            Cow::Owned(self.retire(tx))
        } else {
            Cow::Borrowed(&self.txs.get(tx).expect("the record just read").frame)
        };
        Some(FrameEnd {
            ok: !corrupted,
            carrier_off: now_idle && !still_tx,
            frame,
        })
    }

    fn tx_complete(&mut self, at: Cursor, node: NodeId, tx: TxId, out: &mut Vec<Indication>) {
        let Some(rec) = self.txs.get_mut(tx) else {
            return;
        };
        if rec.done || rec.end != at.time {
            return; // stale completion from before an abort
        }
        rec.done = true;
        let aborted = rec.aborted;
        let frame = if rec.pending_ends == 0 {
            self.retire(tx)
        } else {
            Arc::clone(&rec.frame)
        };
        // What reached the antenna while it transmitted did so under half
        // duplex.
        self.settle(node, at);
        debug_assert_eq!(self.radios[node.idx()].transmitting, Some(tx));
        self.radios[node.idx()].transmitting = None;
        self.frames.tx_frames[frame.kind.index()] += 1;
        if aborted {
            self.frames.tx_aborted += 1;
        }
        out.push(Indication::TxDone {
            node,
            frame,
            aborted,
        });
        // If signals kept arriving while we transmitted, the carrier is
        // still busy; otherwise the channel at this node is now clear. No
        // CarrierOff is emitted for the end of one's own transmission —
        // TxDone already marks that instant.
    }

    /// An edge the receiver's MAC asked to hear of. The records already
    /// hold it; what is left to decide is whether it is a presence flip —
    /// the one thing a MAC is told — or an emission joining or leaving
    /// others.
    fn tone_edge(&self, rx: NodeId, tone: Tone, on: bool, emit: u64, out: &mut Vec<Indication>) {
        let heard = &self.radios[rx.idx()].heard[tone.idx()];
        let Some(rec) = heard.recs.iter().find(|r| r.emit == emit) else {
            return;
        };
        if heard.alone(emit, if on { rec.on.key } else { rec.off.key }) {
            out.push(Indication::ToneChanged {
                node: rx,
                tone,
                present: on,
            });
        }
    }
}

#[cfg(test)]
mod record_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rmac_mobility::{Bounds, MobilityKind};
    use rmac_wire::{Dest, FrameKind};

    type Q = rmac_sim::EventQueue<PhyEvent>;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn still(x: f64, y: f64) -> Motion {
        Motion::stationary(Pos::new(x, y))
    }

    fn data_frame(src: u16, len: usize) -> Frame {
        Frame::data_unreliable(n(src), Dest::Broadcast, Bytes::from(vec![0u8; len]), 1)
    }

    /// Drive the channel until the queue drains, collecting indications.
    fn drain(ch: &mut Channel, q: &mut Q) -> Vec<(SimTime, Indication)> {
        let mut rng = SimRng::new(0);
        let mut all = Vec::new();
        let mut scratch = Vec::new();
        while let Some((t, ev)) = q.pop() {
            scratch.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut scratch);
            all.extend(scratch.drain(..).map(|i| (t, i)));
        }
        all
    }

    fn rx_events(inds: &[(SimTime, Indication)], node: NodeId) -> Vec<&(SimTime, Indication)> {
        inds.iter().filter(|(_, i)| i.node() == node).collect()
    }

    #[test]
    fn clean_reception_with_propagation_delay() {
        // B sits 60 m from A: prop ≈ 200 ns.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(60.0, 0.0)],
        );
        let mut q = Q::new();
        ch.listen(&mut q, n(1), ToneInterest::CARRIER);
        let f = data_frame(0, 100);
        let airtime = f.airtime();
        ch.start_tx(&mut q, n(0), f);
        let inds = drain(&mut ch, &mut q);

        // B: CarrierOn at prop, FrameRx(ok) + CarrierOff at airtime + prop.
        let b = rx_events(&inds, n(1));
        assert_eq!(b.len(), 3, "{b:?}");
        let prop = SimTime::from_nanos(200);
        assert!(matches!(b[0], (t, Indication::CarrierOn { .. }) if *t == prop));
        match b[1] {
            (t, Indication::FrameRx { ok, frame, .. }) => {
                assert!(*ok);
                assert_eq!(frame.kind, FrameKind::DataUnreliable);
                assert_eq!(*t, airtime + prop);
            }
            other => panic!("expected FrameRx, got {other:?}"),
        }
        assert!(matches!(b[2], (_, Indication::CarrierOff { .. })));

        // A: TxDone at airtime, not aborted.
        let a = rx_events(&inds, n(0));
        assert_eq!(a.len(), 1);
        assert!(matches!(a[0], (t, Indication::TxDone { aborted: false, .. }) if *t == airtime));
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(80.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        assert!(rx_events(&inds, n(1)).is_empty());
    }

    #[test]
    fn overlapping_transmissions_collide() {
        // A and C both within range of B; A and C out of range of each
        // other (hidden terminals). Both transmit: B gets two corrupted
        // frames.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0), still(140.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        // C starts 50 µs later, well inside A's frame.
        q.push(
            SimTime::from_micros(50),
            PhyEvent::TxComplete {
                node: n(2),
                tx: 999_999,
            },
        );
        // Drain manually so we can interleave the second start.
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut started_c = false;
        let mut rx_at_b = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.start_tx(&mut q, n(2), data_frame(2, 100));
                started_c = true;
                continue;
            }
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            for i in &out {
                if let Indication::FrameRx { node, ok, frame } = i {
                    if *node == n(1) {
                        rx_at_b.push((frame.src, *ok));
                    }
                }
            }
        }
        assert!(started_c);
        assert_eq!(rx_at_b.len(), 2);
        assert!(rx_at_b.iter().all(|&(_, ok)| !ok), "{rx_at_b:?}");
    }

    #[test]
    fn sequential_transmissions_do_not_collide() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0), still(140.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 100);
        let first_end = f.airtime() + SimTime::MICRO;
        ch.start_tx(&mut q, n(0), f);
        // C transmits strictly after A's signal has fully passed B.
        q.push(
            first_end,
            PhyEvent::TxComplete {
                node: n(2),
                tx: 999_999,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut oks = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.start_tx(&mut q, n(2), data_frame(2, 100));
                continue;
            }
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            for i in &out {
                if let Indication::FrameRx { node, ok, .. } = i {
                    if *node == n(1) {
                        oks.push(*ok);
                    }
                }
            }
        }
        assert_eq!(oks, vec![true, true]);
    }

    #[test]
    fn half_duplex_transmitter_loses_incoming() {
        // B starts transmitting; while B transmits, A's frame arrives at B.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(70.0, 0.0)],
        );
        let mut q = Q::new();
        // B transmits a long frame.
        ch.start_tx(&mut q, n(1), data_frame(1, 400));
        // A transmits a short frame immediately after (overlapping).
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        let bad_rx_at_b: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(1) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(bad_rx_at_b, vec![false]);
        // A is also mid-frame of B's transmission → corrupted at A too.
        let rx_at_a: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(0) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(rx_at_a, vec![false]);
    }

    #[test]
    fn abort_truncates_frame_for_everyone() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 400);
        let full = f.airtime();
        ch.start_tx(&mut q, n(0), f);
        // Schedule a sentinel to abort at 100 µs (long before `full`).
        q.push(
            SimTime::from_micros(100),
            PhyEvent::TxComplete {
                node: n(0),
                tx: 999_999,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut got = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.abort_tx(&mut q, n(0));
                continue;
            }
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            for i in out.drain(..) {
                got.push((t, i));
            }
        }
        // Transmitter sees TxDone(aborted) at 100 µs, far before `full`.
        let tx_done: Vec<_> = got
            .iter()
            .filter(|(_, i)| matches!(i, Indication::TxDone { .. }))
            .collect();
        assert_eq!(tx_done.len(), 1);
        assert!(matches!(
            tx_done[0],
            (t, Indication::TxDone { aborted: true, .. }) if *t == SimTime::from_micros(100)
        ));
        assert!(SimTime::from_micros(100) < full);
        // Receiver sees exactly one FrameRx, corrupted, shortly after 100 µs.
        let rxs: Vec<_> = got
            .iter()
            .filter(|(_, i)| matches!(i, Indication::FrameRx { .. }))
            .collect();
        assert_eq!(rxs.len(), 1);
        match rxs[0] {
            (t, Indication::FrameRx { ok, .. }) => {
                assert!(!*ok);
                assert!(*t < SimTime::from_micros(101));
            }
            _ => unreachable!(),
        }
        assert!(!ch.is_transmitting(n(0)));
        assert!(ch.txs.is_empty(), "records leaked");
    }

    #[test]
    fn capture_lets_the_much_stronger_frame_survive() {
        // B at 10 m from A but 74 m from C: A's power is (74/10)^4 ≈ 3000×
        // C's, far above the 10× capture threshold — A's frame survives,
        // C's dies.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0), still(84.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        ch.start_tx(&mut q, n(2), data_frame(2, 100));
        let inds = drain(&mut ch, &mut q);
        let rx_at_b: Vec<(NodeId, bool)> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, frame } if *node == n(1) => Some((frame.src, *ok)),
                _ => None,
            })
            .collect();
        assert_eq!(rx_at_b.len(), 2);
        for (src, ok) in rx_at_b {
            assert_eq!(ok, src == n(0), "src {src:?}");
        }
    }

    #[test]
    fn comparable_powers_still_collide() {
        // Equidistant interferers: neither reaches 10× the other.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(35.0, 0.0), still(70.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        ch.start_tx(&mut q, n(2), data_frame(2, 100));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<bool> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } if *node == n(1) => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false, false]);
    }

    #[test]
    fn tones_propagate_and_merge() {
        // Two emitters raise the RBT at B; B, listening for both flips, is
        // told of one rise and one fall (emitters are indistinguishable).
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(50.0, 0.0), still(100.0, 0.0)],
        );
        ch.keep_tone_busy_time();
        let mut q = Q::new();
        let both = ToneInterest::flip(Tone::Rbt, true) | ToneInterest::flip(Tone::Rbt, false);
        ch.listen(&mut q, n(1), both);
        ch.open_watch(n(1), Tone::Rbt, q.cursor());
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        ch.start_tone(&mut q, n(2), Tone::Rbt);
        // Stop them at different times via sentinels.
        q.push(
            SimTime::from_micros(100),
            PhyEvent::TxComplete {
                node: n(0),
                tx: 111_111,
            },
        );
        q.push(
            SimTime::from_micros(200),
            PhyEvent::TxComplete {
                node: n(2),
                tx: 222_222,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut edges_at_b = Vec::new();
        while let Some((t, ev)) = q.pop() {
            match ev {
                PhyEvent::TxComplete { tx: 111_111, .. } => {
                    ch.stop_tone(&mut q, n(0), Tone::Rbt);
                    continue;
                }
                PhyEvent::TxComplete { tx: 222_222, .. } => {
                    ch.stop_tone(&mut q, n(2), Tone::Rbt);
                    continue;
                }
                _ => {}
            }
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            for i in out.drain(..) {
                if let Indication::ToneChanged { node, present, .. } = i {
                    if node == n(1) {
                        edges_at_b.push((t, present));
                    }
                }
            }
        }
        assert_eq!(edges_at_b.len(), 2, "{edges_at_b:?}");
        assert!(edges_at_b[0].1);
        assert!(!edges_at_b[1].1);
        // The falling edge comes from the *second* emitter stopping.
        assert!(edges_at_b[1].0 >= SimTime::from_micros(200));
        // Watch log agrees: tone present ~[0+, 200+prop] → max_on ≈ 200 µs.
        let end = Cursor::end_of(SimTime::from_micros(300));
        let log = ch.close_watch(n(1), Tone::Rbt, end);
        let max_on = log.max_on();
        assert!(
            max_on >= SimTime::from_micros(199) && max_on <= SimTime::from_micros(201),
            "{max_on}"
        );
        assert_eq!(log.edges.len(), 2, "the watch saw the flips B was told");
        assert_eq!(
            ch.tone_busy_ns(n(1), Tone::Rbt, end.time),
            max_on.nanos(),
            "busy time is the one merged interval"
        );
    }

    #[test]
    fn tone_sensing_excludes_self_and_respects_range() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(50.0, 0.0), still(200.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tone(&mut q, n(0), Tone::Abt);
        // Nobody listens, so nothing was scheduled: presence is read off
        // the records, here 1 µs on (B is 167 ns away).
        assert!(q.is_empty());
        let at = Cursor::end_of(SimTime::MICRO);
        assert!(!ch.tone_present(n(0), Tone::Abt, at), "self-sensing");
        assert!(!ch.tone_present(n(1), Tone::Abt, q.cursor()), "in flight");
        assert!(ch.tone_present(n(1), Tone::Abt, at));
        assert!(!ch.tone_present(n(2), Tone::Abt, at), "out of range");
        assert!(ch.is_emitting(n(0), Tone::Abt));
        q.push(
            SimTime::from_micros(2),
            PhyEvent::TxComplete { node: n(0), tx: 7 },
        );
        q.pop();
        ch.stop_tone(&mut q, n(0), Tone::Abt);
        assert!(ch.tone_present(n(1), Tone::Abt, q.cursor()), "in flight");
        assert!(!ch.tone_present(n(1), Tone::Abt, Cursor::end_of(SimTime::from_micros(3))));
        assert!(!ch.is_emitting(n(0), Tone::Abt));
    }

    #[test]
    fn ber_one_corrupts_everything() {
        let mut ch = Channel::new(
            ChannelConfig {
                ber_per_bit: 0.5,
                ..ChannelConfig::default()
            },
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { ok, .. } => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false]);
    }

    #[test]
    fn receiver_moving_out_of_range_loses_frame() {
        // B starts at 74 m and rushes away at (unphysical but convenient)
        // 10 km/s; by the end of a 2.2 ms frame it is ~96 m away → lost.
        let motions = vec![
            still(0.0, 0.0),
            Motion::linear(
                Pos::new(74.0, 0.0),
                Pos::new(474.0, 0.0),
                SimTime::ZERO,
                10_000.0,
            ),
        ];
        let mut ch = Channel::new(ChannelConfig::default(), motions);
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 500));
        let inds = drain(&mut ch, &mut q);
        let oks: Vec<_> = inds
            .iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { ok, .. } => Some(*ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![false]);
    }

    #[test]
    fn neighbors_at_reflects_positions() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![
                still(0.0, 0.0),
                still(50.0, 0.0),
                still(100.0, 0.0),
                still(76.0, 0.0),
            ],
        );
        let nb = ch.neighbors_at(n(0), SimTime::ZERO);
        assert_eq!(nb, vec![n(1)]);
        let nb2 = ch.neighbors_at(n(1), SimTime::ZERO);
        assert_eq!(nb2, vec![n(0), n(2), n(3)]);
    }

    /// A's neighbour list is built by its first frame, with B 79 m away —
    /// out of range, inside the skin. B walks in at 10 m/s; A's second
    /// frame, 0.45 s on and inside the list's 0.47 s horizon, is served from
    /// the same list and B, now 74.5 m away, receives it.
    #[test]
    fn a_node_that_walks_into_range_after_the_list_was_built_is_received() {
        let motions = vec![
            still(0.0, 0.0),
            Motion::linear(Pos::new(79.0, 0.0), Pos::new(0.0, 0.0), SimTime::ZERO, 10.0),
        ];
        let mut ch = Channel::new(ChannelConfig::default(), motions);
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        let later = SimTime::from_millis(450);
        q.push(
            later,
            PhyEvent::TxComplete {
                node: n(0),
                tx: 999_999,
            },
        );
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut heard = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let PhyEvent::TxComplete { tx: 999_999, .. } = ev {
                ch.start_tx(&mut q, n(0), data_frame(0, 100));
                continue;
            }
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            heard.extend(out.iter().filter_map(|i| match i {
                Indication::FrameRx { node, ok, .. } => Some((*node, *ok, t > later)),
                _ => None,
            }));
        }
        assert_eq!(heard, vec![(n(1), true, true)]);
        let grid = ch.obs_stats().grid.expect("the default index");
        assert_eq!((grid.queries, grid.list_rebuilds), (2, 1));
    }

    /// With every node fixed a source's second fill is the first one's
    /// links, copied, powers included: neither the index nor the path gain
    /// is asked again.
    #[test]
    fn all_fixed_fills_are_served_from_the_kept_links() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(50.0, 0.0), still(0.0, 80.0)],
        );
        let mut first = Vec::new();
        ch.fill_receivers(n(0), SimTime::ZERO, &mut first);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rx, n(1));
        assert_eq!(ch.static_rx[0].as_ref(), Some(&first));
        for secs in [1, 1_000_000] {
            let mut again = Vec::new();
            ch.fill_receivers(n(0), SimTime::from_secs(secs), &mut again);
            assert_eq!(again, first);
        }
        assert_eq!(ch.obs_stats().grid.unwrap().queries, 1);
        assert_eq!(ch.obs_stats().path_gains, 1);
    }

    /// Per-receiver records stay small: a link is 24 bytes, and a signal on
    /// an antenna finds its distance through its link, not a copy.
    #[test]
    fn links_and_arriving_signals_keep_their_size() {
        assert_eq!(std::mem::size_of::<Link>(), 24);
        assert_eq!(std::mem::size_of::<Arriving>(), 56);
    }

    #[test]
    fn carrier_sense_tracks_arrivals() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        assert!(!ch.data_busy(n(1), q.cursor()));
        ch.listen(&mut q, n(1), ToneInterest::CARRIER);
        ch.start_tx(&mut q, n(0), data_frame(0, 100));
        assert!(ch.data_busy(n(0), q.cursor()), "transmitter senses own tx");
        assert!(!ch.data_busy(n(1), q.cursor()), "in flight");
        // Process only the arrival-start at B.
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let (t, ev) = q.pop().unwrap();
        assert!(matches!(ev, PhyEvent::FrameArriveStart { .. }));
        // (The bare time will do: nothing else happens at B in this instant.)
        ch.handle(t, &mut rng, &ev, &mut out);
        assert!(matches!(out[..], [Indication::CarrierOn { .. }]));
        assert!(ch.data_busy(n(1), q.cursor()));
        drain(&mut ch, &mut q);
        assert!(!ch.data_busy(n(1), q.cursor()));
        assert!(!ch.data_busy(n(0), q.cursor()));
    }

    #[test]
    fn carrier_sense_reads_an_onset_nobody_was_told_of() {
        // B is 60 m from A (200 ns) and not listening: no event carries the
        // first bit, and carrier sense finds it all the same.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(60.0, 0.0)],
        );
        let mut q = Q::new();
        let f = data_frame(0, 100);
        let end = f.airtime() + SimTime::from_nanos(200);
        ch.start_tx(&mut q, n(0), f);
        assert_eq!(q.len(), 2, "the frame end at B and the completion at A");
        assert!(!ch.data_busy(n(1), Cursor::end_of(SimTime::from_nanos(199))));
        assert!(ch.data_busy(n(1), Cursor::end_of(SimTime::from_nanos(200))));
        let inds = drain(&mut ch, &mut q);
        let b = rx_events(&inds, n(1));
        assert_eq!(b.len(), 2, "{b:?}");
        assert!(matches!(b[0], (t, Indication::FrameRx { ok: true, .. }) if *t == end));
        assert!(matches!(b[1], (_, Indication::CarrierOff { .. })));
        assert!(!ch.data_busy(n(1), q.cursor()));
        let stats = ch.obs_stats();
        assert_eq!((stats.onsets.records, stats.onsets.scheduled), (1, 0));
    }

    /// Nothing moves, yet a receiver exactly at the range edge has no room
    /// for rounding: its frame end reads the geometry, one a metre inside
    /// does not. Both receive, and neither frame works out a power.
    #[test]
    fn a_receiver_exactly_at_the_range_edge_reads_the_geometry() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![
                still(0.0, 0.0),
                still(RANGE_M, 0.0),
                still(0.0, RANGE_M - 1.0),
            ],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 500));
        let oks: Vec<_> = drain(&mut ch, &mut q)
            .into_iter()
            .filter_map(|(_, i)| match i {
                Indication::FrameRx { node, ok, .. } => Some((node, ok)),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![(n(2), true), (n(1), true)]);
        let stats = ch.obs_stats();
        assert_eq!(stats.frame_end_position_reads, 1);
        assert_eq!(ch.static_links(), 2);
        assert_eq!(stats.path_gains, 2, "one per kept link");
    }

    /// A node at `from`: a random waypoint walk at up to `speed` (only from
    /// the start of time, where such walks begin) or a straight trip
    /// departing at `depart`.
    fn walk(rng: &mut SimRng, from: Pos, depart: SimTime, speed: f64) -> Motion {
        if depart == SimTime::ZERO && rng.chance(0.5) {
            let kind = MobilityKind::RandomWaypoint {
                min_speed: 1.0,
                max_speed: speed,
                pause: SimTime::from_millis(rng.below(500)),
            };
            Motion::new(from, kind, Bounds::PAPER, SimRng::new(rng.next_u64()))
        } else {
            let to = Pos::new(rng.uniform_f64(0.0, 500.0), rng.uniform_f64(0.0, 300.0));
            Motion::linear(from, to, depart, speed)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A frame end trusts its drift bound (DESIGN.md §5) only where the
        /// exact geometry agrees: whenever it skips the positions, the two
        /// nodes are in range at that instant. Pairs start 0–1 m inside the
        /// range edge at a random instant, on random waypoint walks and
        /// straight trips up to 50 m/s — some heading straight apart, the
        /// fastest two nodes can part — with frames up to a 600-byte one.
        #[test]
        fn a_frame_end_skips_the_geometry_only_where_drift_cannot_reach_the_edge(
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let t0 = if rng.chance(0.5) {
                SimTime::ZERO
            } else {
                SimTime::from_millis(rng.below(20_000))
            };
            let speed = rng.uniform_f64(1.0, 50.0);
            let angle = rng.uniform_f64(0.0, std::f64::consts::TAU);
            let inside = match rng.below(3) {
                0 => 0.0,
                1 => 10f64.powf(rng.uniform_f64(-9.0, 0.0)),
                _ => rng.uniform_f64(0.0, 1.0),
            };
            let away = |p: Pos, by: f64| Pos::new(p.x + angle.cos() * by, p.y + angle.sin() * by);
            let (anchor, placed) = if rng.chance(0.3) {
                let p = Pos::new(250.0, 150.0);
                let q = away(p, RANGE_M - inside);
                let apart = |from: Pos, by: f64| Motion::linear(from, away(from, by), t0, speed);
                (apart(p, -100.0), apart(q, 100.0))
            } else {
                let from = Pos::new(rng.uniform_f64(0.0, 500.0), rng.uniform_f64(0.0, 300.0));
                let anchor = walk(&mut rng, from, SimTime::ZERO, speed);
                let at_t0 = anchor.clone().position_at(t0);
                let placed = walk(&mut rng, away(at_t0, RANGE_M - inside), t0, speed);
                (anchor, placed)
            };
            let motions = if rng.chance(0.5) { vec![anchor, placed] } else { vec![placed, anchor] };
            let mut ch = Channel::new(ChannelConfig::default(), motions.clone());
            let mut q = Q::new();
            q.push(t0, PhyEvent::TxComplete { node: n(0), tx: 999_999 });
            q.pop();
            ch.start_tx(&mut q, n(0), data_frame(0, rng.below(600) as usize));
            let skipped = |ch: &Channel| ch.obs_stats().frame_end_position_reads == 0;
            for (t, ind) in drain(&mut ch, &mut q) {
                let Indication::FrameRx { node, ok, .. } = ind else {
                    continue;
                };
                prop_assert_eq!(node, n(1));
                let mut exact = motions.clone();
                let apart = exact[0].position_at(t).dist_sq(exact[1].position_at(t));
                let in_range = apart <= RANGE_M * RANGE_M;
                prop_assert!(in_range || !skipped(&ch), "skipped at {} m", apart.sqrt());
                prop_assert_eq!(ok, in_range);
            }
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use bytes::Bytes;
    use rmac_wire::Dest;

    type Q = rmac_sim::EventQueue<PhyEvent>;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn still(x: f64, y: f64) -> Motion {
        Motion::stationary(Pos::new(x, y))
    }

    fn data_frame(src: u16, len: usize) -> Frame {
        Frame::data_unreliable(n(src), Dest::Broadcast, Bytes::from(vec![0u8; len]), 1)
    }

    /// Drive the channel until the queue drains, collecting indications.
    fn drain(ch: &mut Channel, q: &mut Q) -> Vec<(SimTime, Indication)> {
        let mut rng = SimRng::new(0);
        let mut all = Vec::new();
        let mut scratch = Vec::new();
        while let Some((t, ev)) = q.pop() {
            scratch.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut scratch);
            all.extend(scratch.drain(..).map(|i| (t, i)));
        }
        all
    }

    #[test]
    fn colocated_nodes_communicate() {
        // Zero distance: power is clamped, prop delay is zero, events at
        // identical timestamps keep FIFO order.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(10.0, 10.0), still(10.0, 10.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 50));
        let inds = drain(&mut ch, &mut q);
        let ok = inds
            .iter()
            .any(|(_, i)| matches!(i, Indication::FrameRx { node, ok: true, .. } if *node == n(1)));
        assert!(ok, "{inds:?}");
    }

    #[test]
    fn reopening_a_watch_replaces_it() {
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(10.0, 0.0)],
        );
        let mut q = Q::new();
        ch.open_watch(n(1), Tone::Rbt, q.cursor());
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        // Re-open 5 µs later, while the tone is on: the new watch starts
        // "already on". Hold the tone 40 µs more before stopping it.
        for (us, tx) in [(5, 1), (45, 2)] {
            q.push(
                SimTime::from_micros(us),
                PhyEvent::TxComplete { node: n(0), tx },
            );
        }
        q.pop();
        ch.open_watch(n(1), Tone::Rbt, q.cursor());
        q.pop();
        ch.stop_tone(&mut q, n(0), Tone::Rbt);
        let end = Cursor::end_of(q.now() + SimTime::from_micros(10));
        let log = ch.close_watch(n(1), Tone::Rbt, end);
        assert!(log.initial_on);
        assert!(
            log.max_on() >= SimTime::from_micros(40),
            "tone was held ≥ 40 µs into the new watch: {}",
            log.max_on()
        );
    }

    #[test]
    fn back_to_back_transmissions_from_one_node() {
        // A node transmits, completes, and immediately transmits again:
        // both frames arrive cleanly at the receiver.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 60));
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        let mut oks = 0;
        let mut started_second = false;
        while let Some((_, ev)) = q.pop() {
            out.clear();
            ch.handle(q.cursor(), &mut rng, &ev, &mut out);
            for i in &out {
                match i {
                    Indication::TxDone { .. } if !started_second => {
                        started_second = true;
                        ch.start_tx(&mut q, n(0), data_frame(0, 60));
                    }
                    Indication::FrameRx { node, ok: true, .. } if *node == n(1) => {
                        oks += 1;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(oks, 2);
    }

    #[test]
    fn abort_immediately_after_start() {
        // Abort in the same instant the transmission begins: everything
        // must still clean up without panicking or leaking records.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(30.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tx(&mut q, n(0), data_frame(0, 400));
        ch.abort_tx(&mut q, n(0));
        let inds = drain(&mut ch, &mut q);
        assert!(inds
            .iter()
            .any(|(_, i)| matches!(i, Indication::TxDone { aborted: true, .. })));
        assert!(!ch.is_transmitting(n(0)));
        assert!(!ch.data_busy(n(1), q.cursor()));
    }

    #[test]
    fn dense_network_stress_no_leaks() {
        // 50 nodes in mutual range; half transmit simultaneously. The
        // channel must drain completely with no stuck carrier or records.
        let motions: Vec<Motion> = (0..50)
            .map(|i| still((i % 10) as f64 * 5.0, (i / 10) as f64 * 5.0))
            .collect();
        let mut ch = Channel::new(ChannelConfig::default(), motions);
        let mut q = Q::new();
        for i in 0..25u16 {
            ch.start_tx(&mut q, n(i), data_frame(i, 100));
        }
        let _ = drain(&mut ch, &mut q);
        for i in 0..50u16 {
            assert!(!ch.data_busy(n(i), q.cursor()), "stuck carrier at node {i}");
            assert!(!ch.is_transmitting(n(i)));
            assert!(
                ch.radios[i as usize].arriving.is_empty(),
                "onset left behind"
            );
        }
        assert!(ch.txs.is_empty(), "transmission records leaked");
    }

    #[test]
    fn tones_unaffected_by_data_collisions() {
        // Tones are on their own channels: a data-channel pileup never
        // perturbs tone presence.
        let mut ch = Channel::new(
            ChannelConfig::default(),
            vec![still(0.0, 0.0), still(20.0, 0.0), still(40.0, 0.0)],
        );
        let mut q = Q::new();
        ch.start_tone(&mut q, n(0), Tone::Rbt);
        ch.start_tx(&mut q, n(1), data_frame(1, 200));
        ch.start_tx(&mut q, n(2), data_frame(2, 200));
        drain(&mut ch, &mut q);
        assert!(ch.tone_present(n(1), Tone::Rbt, q.cursor()));
        assert!(ch.tone_present(n(2), Tone::Rbt, q.cursor()));
    }
}
