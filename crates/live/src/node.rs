//! [`LiveNode`]: the sans-I/O adapter between the RMAC core and a
//! datagram network.
//!
//! The MAC ([`rmac_core::Rmac`]) is a passive state machine that acts on
//! the world through [`MacContext`]. In the simulator that context wraps
//! the radio channel; here it wraps two datagram channels:
//!
//! * `start_tx` encodes the frame ([`rmac_wire::codec`]) and emits it on
//!   the data channel *at first-bit time* — the datagram's arrival at a
//!   peer is the first bit of the frame, and both ends reconstruct the
//!   rest of the timeline (TxDone, FrameRx, CarrierOff one airtime later)
//!   from the shared length→airtime arithmetic, keeping the paper's
//!   tone-window alignment without a shared clock. An `abort_tx` cannot
//!   truncate a datagram the way a radio truncates a signal, so it is made
//!   explicit instead: an `Abort{counter}` marker fans out on the control
//!   channel and receivers whose reception is still pending treat the
//!   named frame as corrupt — the truncated-frame observation RMAC's
//!   recovery paths expect;
//! * `start_tone`/`stop_tone` become ToneOn/ToneOff control datagrams
//!   fanned out to *every* configured neighbor (one encoding, under one
//!   datagram counter, copied to each in neighbor order), because a radio
//!   tone is heard by everyone in range and RMAC leans on exactly that (a
//!   third-party sender must sense a receiver's RBT and abort). The
//!   control datagrams ride out-of-band like RMC's TCP control channel
//!   rather than in-band like a real tone radio; the MAC logic is
//!   unchanged either way.
//!
//! The node never performs I/O: callers feed it [`Incoming`] datagrams
//! and clock advances, and drain [`OutDgram`]s, deliveries and transmit
//! outcomes. That makes the same adapter drivable by the virtual-time
//! loopback hub ([`LoopbackRunner`](crate::LoopbackRunner)), the UDP
//! backend ([`Driver`](crate::Driver)), and unit tests alike.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use rmac_core::{
    MacConfig, MacContext, MacCounters, MacService, Rmac, State, TimerKind, TxOutcome, TxRequest,
};
use rmac_phy::{Indication, Tone, ToneLog};
use rmac_sim::{EventQueue, LiveTimer, SimQueue, SimRng, SimTime};
use rmac_wire::consts::{BYTE_TIME, DATA_HEADER_LEN, PHY_OVERHEAD};
use rmac_wire::datagram::{DGRAM_CRC_LEN, DGRAM_HEADER_LEN, DGRAM_TONE_ABT, DGRAM_TONE_RBT};
use rmac_wire::{codec, decode_header, encode_datagram, Datagram, Dest, DgramBody, Frame, NodeId};

use crate::transport::{DgramChannel, Incoming, OutDgram};

/// Configuration for one live endpoint; its MAC runs `MacConfig::default()`.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// The one-hop neighbor set: who reliable *broadcasts* expand to and
    /// who our tone-edge datagrams fan out to (a radio tone is heard by
    /// everyone in range, so its stand-in must reach every neighbor).
    /// Live deployments have no simulated geometry, so the set is
    /// configured — RMC-style group membership — rather than derived.
    pub neighbors: Vec<NodeId>,
    /// Seed for this node's MAC-level RNG (backoff draws).
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            neighbors: Vec::new(),
            seed: 1,
        }
    }
}

/// Datagram-level statistics for one endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Data-channel datagrams sent (frames).
    pub data_tx: u64,
    /// Control-channel datagrams sent (tone edges).
    pub ctrl_tx: u64,
    /// Data-channel datagrams received (excluding our own echoes).
    pub data_rx: u64,
    /// Control datagrams received.
    pub ctrl_rx: u64,
    /// Our own datagrams echoed back to us, discarded.
    pub self_drops: u64,
    /// Datagrams or frames that failed to decode (treated as noise).
    pub decode_errors: u64,
}

/// The longest a reception can be in flight here: the air time of the
/// largest frame a datagram can carry (64 KiB, the UDP limit and the
/// receive buffer of [`crate::udp`]). An `Abort` marker older than this
/// names no reception that is still pending.
const LONGEST_AIRTIME: SimTime =
    SimTime::from_nanos(PHY_OVERHEAD.nanos() + 65_536 * BYTE_TIME.nanos());

/// What a node's timer queue holds.
enum Fire {
    /// A MAC timer: an entry of the kind's [`LiveTimer`], which says
    /// whether it is the live instance.
    Mac(TimerKind),
    /// Our own transmission's last bit leaves the antenna. Stale epochs
    /// (the transmission was aborted meanwhile) are ignored.
    TxDone { epoch: u64 },
    /// The last bit of a peer's frame arrives. `key` names the carrying
    /// datagram `(src, counter)` so a later `Abort` marker can poison the
    /// reception before it completes; `serial` is the local reception id
    /// the collision bookkeeping uses.
    RxEnd {
        frame: Frame,
        ok: bool,
        key: Option<(NodeId, u32)>,
        serial: u64,
    },
}

/// An open tone watch: what [`MacContext::close_tone_watch`] turns into a
/// [`ToneLog`]. (The simulator has no such state; it reads the same log
/// from the PHY's tone records.)
struct Watch {
    start: SimTime,
    initial_on: bool,
    edges: Vec<(SimTime, bool)>,
}

/// The [`MacContext`] the live node hands its MAC. Kept as a separate
/// struct so `mac.on_indication(&mut ctx, …)` borrows cleanly.
///
/// Invariant: `timers.now() <= now <=` every pending timer. `now` is the
/// latest stamp the node was advanced to — [`LiveNode::advance`] has fired
/// everything up to it, an arrival advances to its own stamp first, and
/// nothing lowers it — and every push is at `now` plus a delay. So a timer
/// is dispatched with `now` at its own instant, never late, and the queue's
/// "scheduled in the past" debug assertion cannot fire, whatever order a
/// driver hands over stamps in (the hostile-clock proptest below holds
/// both).
struct LiveCtx {
    id: NodeId,
    now: SimTime,
    rng: SimRng,
    counters: MacCounters,
    neighbors: Vec<NodeId>,
    /// Pending timers, on the simulator's `(time, seq)` FIFO key.
    timers: EventQueue<Fire>,
    /// The MAC's timers in `timers`, one per kind (`kind as usize`).
    mac_timers: [LiveTimer; TimerKind::COUNT],
    /// Indications synthesized during a MAC callback (e.g. the aborted
    /// TxDone that `abort_tx` implies). The MAC must never be re-entered
    /// from its own context calls, so these queue up and the node drains
    /// them after each callback returns.
    pending: VecDeque<Indication>,
    outbox: Vec<(SimTime, OutDgram)>,
    dgram_counter: u32,
    /// The frame currently leaving our antenna, if any.
    cur_tx: Option<Frame>,
    /// The datagram counter the in-flight frame was sent under, so an
    /// abort can name it in the retraction marker.
    cur_tx_ctr: Option<u32>,
    /// Bumped on abort so the scheduled [`Fire::TxDone`] goes stale.
    tx_epoch: u64,
    /// In-flight foreign frames (carrier sense is `> 0`).
    rx_carrier: u32,
    /// Next reception serial for the collision bookkeeping.
    rx_serial: u64,
    /// Serials of receptions currently in flight at this node.
    live_rx: Vec<u64>,
    /// In-flight receptions already doomed by a collision or a
    /// half-duplex conflict; consulted (and drained) when their
    /// [`Fire::RxEnd`] fires.
    collided_rx: Vec<u64>,
    /// Peers currently asserting each tone towards us, each once (a short
    /// list: only its emptiness is read).
    tone_in: [Vec<NodeId>; 2],
    /// Whether each of *our* tones is currently raised.
    tone_out: [bool; 2],
    watch: [Option<Watch>; 2],
    delivered: Vec<(SimTime, Frame)>,
    outcomes: Vec<(u64, TxOutcome)>,
    stats: LiveStats,
}

impl LiveCtx {
    /// Encode `body` under the next datagram counter.
    fn encode(&mut self, body: DgramBody) -> Vec<u8> {
        let d = Datagram {
            src: self.id,
            counter: self.dgram_counter,
            body,
        };
        self.dgram_counter = self.dgram_counter.wrapping_add(1);
        encode_datagram(&d)
    }

    /// One control datagram to every neighbor, in neighbor order: encoded
    /// once, under one counter, and copied (the last neighbor takes the
    /// buffer). No receiver reads a control datagram's counter; a node
    /// with no neighbor encodes nothing.
    fn ctrl_fanout(&mut self, body: DgramBody) {
        let Some(&last) = self.neighbors.last() else {
            return;
        };
        let bytes = self.encode(body);
        self.stats.ctrl_tx += self.neighbors.len() as u64;
        for &peer in &self.neighbors[..self.neighbors.len() - 1] {
            let copy = OutDgram::Ctrl(peer, bytes.clone());
            self.outbox.push((self.now, copy));
        }
        self.outbox.push((self.now, OutDgram::Ctrl(last, bytes)));
    }

    /// Tone edges fan out to *every* neighbor, not just the session peer:
    /// on the radio a tone is heard by everyone in range, and RMAC leans
    /// on that — a third-party sender must sense a receiver's RBT and
    /// abort, or its clean MRTS lands mid-`WF_RDATA` after the carrier
    /// cancelled `T_wf_rdata` and the receiver waits forever for data that
    /// was addressed to someone else's session.
    fn tone_fanout(&mut self, tone: Tone, on: bool) {
        let code = match tone {
            Tone::Rbt => DGRAM_TONE_RBT,
            Tone::Abt => DGRAM_TONE_ABT,
        };
        self.ctrl_fanout(DgramBody::Tone { tone: code, on });
    }

    /// Aggregate tone presence: a peer raised or lowered `tone` towards us.
    fn tone_edge(&mut self, peer: NodeId, tone: Tone, on: bool) {
        let peers = &mut self.tone_in[tone.idx()];
        let was = !peers.is_empty();
        let at = peers.iter().position(|&p| p == peer);
        match (on, at) {
            (true, None) => peers.push(peer),
            (false, Some(i)) => {
                peers.swap_remove(i);
            }
            _ => {}
        }
        let is = !peers.is_empty();
        if was != is {
            if let Some(w) = self.watch[tone.idx()].as_mut() {
                w.edges.push((self.now, is));
            }
            self.pending.push_back(Indication::ToneChanged {
                node: self.id,
                tone,
                present: is,
            });
        }
    }
}

impl MacContext for LiveCtx {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, delay: SimTime, kind: TimerKind) {
        let at = self.now + delay;
        self.mac_timers[kind as usize].arm(&mut self.timers, at, Fire::Mac(kind));
    }

    fn cancel_timer(&mut self, kind: TimerKind) {
        self.mac_timers[kind as usize].cancel();
    }

    fn start_tx(&mut self, frame: Frame) {
        debug_assert!(self.cur_tx.is_none(), "start_tx while transmitting");
        // Half-duplex: our own signal swamps whatever we were receiving,
        // exactly as the simulator's channel dooms a reception at a node
        // that starts transmitting mid-frame.
        for &s in &self.live_rx {
            if !self.collided_rx.contains(&s) {
                self.collided_rx.push(s);
            }
        }
        let ctr = self.dgram_counter;
        let bytes = self.encode(DgramBody::Frame(codec::encode(&frame)));
        self.stats.data_tx += 1;
        self.outbox.push((self.now, OutDgram::Data(bytes)));
        let epoch = self.tx_epoch;
        self.timers
            .push(self.now + frame.airtime(), Fire::TxDone { epoch });
        self.cur_tx = Some(frame);
        self.cur_tx_ctr = Some(ctr);
    }

    fn abort_tx(&mut self) {
        // The datagram already left (it was emitted at first-bit time and
        // UDP delivery is atomic), so unlike the radio channel an abort
        // cannot truncate the copy in flight. Instead the abort is made
        // explicit: an `Abort{counter}` marker fans out on the lossless
        // control channel, and receivers whose reception of that datagram
        // is still pending (the last bit has not "arrived" yet) flip it to
        // corrupt — the same truncated-frame observation the radio gives
        // them, which RMAC's recovery paths are built on. The marker wins
        // the race by construction: it leaves before the frame's airtime
        // ends, and the control channel is no slower than the data
        // channel. What the local MAC observes is identical to the
        // simulator: an immediate TxDone with `aborted` set.
        if let Some(frame) = self.cur_tx.take() {
            self.tx_epoch += 1;
            if let Some(ctr) = self.cur_tx_ctr.take() {
                self.ctrl_fanout(DgramBody::Abort { counter: ctr });
            }
            self.pending.push_back(Indication::TxDone {
                node: self.id,
                frame: frame.into(),
                aborted: true,
            });
        }
    }

    fn start_tone(&mut self, tone: Tone) {
        if self.tone_out[tone.idx()] {
            return; // already raised — same no-op as the PHY
        }
        self.tone_out[tone.idx()] = true;
        self.tone_fanout(tone, true);
    }

    fn stop_tone(&mut self, tone: Tone) {
        if self.tone_out[tone.idx()] {
            self.tone_out[tone.idx()] = false;
            self.tone_fanout(tone, false);
        }
    }

    fn data_busy(&self) -> bool {
        self.rx_carrier > 0 || self.cur_tx.is_some()
    }

    fn tone_present(&self, tone: Tone) -> bool {
        !self.tone_in[tone.idx()].is_empty()
    }

    fn open_tone_watch(&mut self, tone: Tone) {
        self.watch[tone.idx()] = Some(Watch {
            start: self.now,
            initial_on: self.tone_present(tone),
            edges: Vec::new(),
        });
    }

    fn close_tone_watch(&mut self, tone: Tone) -> ToneLog {
        let w = self.watch[tone.idx()].take();
        debug_assert!(w.is_some(), "close without open watch");
        let w = w.unwrap_or(Watch {
            start: self.now,
            initial_on: false,
            edges: Vec::new(),
        });
        ToneLog {
            start: w.start,
            end: self.now,
            initial_on: w.initial_on,
            edges: w.edges,
        }
    }

    fn deliver(&mut self, frame: &Arc<Frame>) {
        // Live nodes run at real-time rates; keep `take_delivered`'s owned
        // `Frame` API and pay the clone here.
        self.delivered.push((self.now, (**frame).clone()));
    }

    fn notify(&mut self, token: u64, outcome: TxOutcome) {
        self.outcomes.push((token, outcome));
    }

    fn neighbors(&mut self) -> Vec<NodeId> {
        self.neighbors.clone()
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn counters(&mut self) -> &mut MacCounters {
        &mut self.counters
    }
}

/// One RMAC endpoint over a datagram transport. See the module docs.
pub struct LiveNode {
    mac: Rmac,
    ctx: LiveCtx,
    /// Frames retracted by an `Abort` marker whose reception has not
    /// completed yet: when the marker arrived and the `(src, counter)` it
    /// names, oldest first. An entry goes when the matching `RxEnd` fires,
    /// or [`LONGEST_AIRTIME`] after it arrived (its frame was lost, or was
    /// never sent) — so a peer that sends nothing but markers holds its
    /// send rate × that horizon of this node's memory, not the run's length.
    aborted_rx: VecDeque<(SimTime, NodeId, u32)>,
}

impl LiveNode {
    /// Build an endpoint with identity `id`.
    pub fn new(id: NodeId, cfg: LiveConfig) -> LiveNode {
        LiveNode {
            mac: Rmac::new(id, MacConfig::default()),
            ctx: LiveCtx {
                id,
                now: SimTime::ZERO,
                rng: SimRng::new(cfg.seed),
                counters: MacCounters::default(),
                neighbors: cfg.neighbors,
                timers: EventQueue::new(),
                mac_timers: Default::default(),
                pending: VecDeque::new(),
                outbox: Vec::new(),
                dgram_counter: 0,
                cur_tx: None,
                cur_tx_ctr: None,
                tx_epoch: 0,
                rx_carrier: 0,
                rx_serial: 0,
                live_rx: Vec::new(),
                collided_rx: Vec::new(),
                tone_in: [Vec::new(), Vec::new()],
                tone_out: [false, false],
                watch: [None, None],
                delivered: Vec::new(),
                outcomes: Vec::new(),
                stats: LiveStats::default(),
            },
            aborted_rx: VecDeque::new(),
        }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.ctx.id
    }

    /// Current MAC state (diagnostics).
    pub fn state(&self) -> State {
        self.mac.state()
    }

    /// The node's local clock (latest time it has observed).
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// MAC-layer counters.
    pub fn counters(&self) -> &MacCounters {
        &self.ctx.counters
    }

    /// Datagram-layer statistics.
    pub fn stats(&self) -> &LiveStats {
        &self.ctx.stats
    }

    /// Earliest pending timer, if any — the driver's next wakeup.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.ctx.timers.peek_time()
    }

    /// Accept an upper-layer transmit request.
    pub fn submit(&mut self, req: TxRequest) {
        self.mac.submit(&mut self.ctx, req);
        self.drain_pending();
    }

    /// Advance the node's clock to `now`, firing every due timer in
    /// timestamp order (each fires at its own exact time, so a firing
    /// that schedules another timer still interleaves correctly).
    pub fn advance(&mut self, now: SimTime) {
        while let Some((at, fire)) = self.ctx.timers.pop_at_or_before(now) {
            self.dispatch(at, fire);
        }
        self.ctx.now = self.ctx.now.max(now);
    }

    /// Feed one received datagram (the driver timestamps it in MAC time).
    /// Timers due by `inc.at` fire first, so timers and arrivals interleave
    /// in time order.
    pub fn on_datagram(&mut self, inc: &Incoming) {
        self.advance(inc.at);
        // The CRC is checked once, and a frame's body is decoded where it
        // lies in `inc.bytes`, with no copy but the payload's (its `Frame`
        // here holds nothing).
        let read = decode_header(&inc.bytes).and_then(|h| match h.frame {
            true => Ok((h, DgramBody::Frame(Bytes::new()))),
            false => h.control_body(&inc.bytes).map(|body| (h, body)),
        });
        let (h, body) = match read {
            Ok(read) => read,
            Err(_) => {
                self.ctx.stats.decode_errors += 1;
                if inc.channel == DgramChannel::Data {
                    // Unframeable energy on the data channel: noise as long
                    // as the frame a datagram of its length would carry.
                    let len = inc
                        .bytes
                        .len()
                        .saturating_sub(DGRAM_HEADER_LEN + DGRAM_CRC_LEN);
                    self.rx_begin(noise(NodeId(u16::MAX), len), false, None);
                }
                self.drain_pending();
                return;
            }
        };
        if h.src == self.ctx.id {
            // Our own datagram echoed back — not a reception.
            self.ctx.stats.self_drops += 1;
            return;
        }
        match body {
            DgramBody::Frame(_) => {
                self.ctx.stats.data_rx += 1;
                let frame = h.body(&inc.bytes);
                match codec::decode(frame, h.src) {
                    // A copy the transport's loss model faded still decodes
                    // (the hub carries it intact) but arrives `corrupt`: the
                    // reception runs its full airtime — carrier, collision
                    // footprint, tone-window geometry all real — and only
                    // the final FrameRx comes up `ok = false`, exactly a
                    // radio frame that faded below the decode threshold.
                    Ok(frame) => self.rx_begin(frame, !inc.corrupt, Some((h.src, h.counter))),
                    Err(_) => {
                        self.ctx.stats.decode_errors += 1;
                        self.rx_begin(noise(h.src, frame.len()), false, None);
                    }
                }
            }
            DgramBody::Tone { tone, on } => {
                self.ctx.stats.ctrl_rx += 1;
                let tone = match tone {
                    DGRAM_TONE_RBT => Tone::Rbt,
                    DGRAM_TONE_ABT => Tone::Abt,
                    _ => {
                        self.ctx.stats.decode_errors += 1;
                        return;
                    }
                };
                self.ctx.tone_edge(h.src, tone, on);
            }
            DgramBody::Abort { counter } => {
                self.ctx.stats.ctrl_rx += 1;
                let now = self.ctx.now;
                while (self.aborted_rx.front()).is_some_and(|&(at, ..)| at + LONGEST_AIRTIME < now)
                {
                    self.aborted_rx.pop_front();
                }
                self.aborted_rx.push_back((now, h.src, counter));
            }
        }
        self.drain_pending();
    }

    /// First bit of a foreign frame: carrier rises now, the frame (and the
    /// carrier fall) land one airtime later.
    fn rx_begin(&mut self, frame: Frame, ok: bool, key: Option<(NodeId, u32)>) {
        let serial = self.ctx.rx_serial;
        self.ctx.rx_serial += 1;
        // The hub has no geometry or power, so the collision model is the
        // simulator's with capture off: any overlap kills every signal
        // involved, and a node transmitting is deaf to arrivals
        // (half-duplex). This is what serializes sessions on a real
        // channel — without it two data phases could overlap *and both
        // succeed*, and their interleaved ABT slots would misattribute
        // acknowledgments.
        if !self.ctx.live_rx.is_empty() || self.ctx.cur_tx.is_some() {
            for &s in &self.ctx.live_rx {
                if !self.ctx.collided_rx.contains(&s) {
                    self.ctx.collided_rx.push(s);
                }
            }
            self.ctx.collided_rx.push(serial);
        }
        self.ctx.live_rx.push(serial);
        self.ctx.rx_carrier += 1;
        if self.ctx.rx_carrier == 1 {
            self.ctx
                .pending
                .push_back(Indication::CarrierOn { node: self.ctx.id });
        }
        let end = self.ctx.now + frame.airtime();
        self.ctx.timers.push(
            end,
            Fire::RxEnd {
                frame,
                ok,
                key,
                serial,
            },
        );
    }

    fn dispatch(&mut self, at: SimTime, fire: Fire) {
        debug_assert!(at >= self.ctx.now, "a timer pending behind the clock");
        self.ctx.now = at;
        match fire {
            Fire::Mac(kind) => {
                let ctx = &mut self.ctx;
                if ctx.mac_timers[kind as usize].on_pop(&mut ctx.timers, Fire::Mac(kind)) {
                    self.mac.on_timer(ctx, kind);
                }
            }
            Fire::TxDone { epoch } => {
                if epoch == self.ctx.tx_epoch {
                    if let Some(frame) = self.ctx.cur_tx.take() {
                        self.ctx.cur_tx_ctr = None;
                        let id = self.ctx.id;
                        self.mac.on_indication(
                            &mut self.ctx,
                            &Indication::TxDone {
                                node: id,
                                frame: frame.into(),
                                aborted: false,
                            },
                        );
                    }
                }
            }
            Fire::RxEnd {
                frame,
                ok,
                key,
                serial,
            } => {
                // An abort marker arriving mid-reception retracts the
                // frame: the radio would have delivered a truncated,
                // CRC-failing signal.
                let retracted = key.is_some_and(|k| {
                    self.aborted_rx
                        .iter()
                        .position(|&(_, src, ctr)| (src, ctr) == k)
                        .map(|pos| self.aborted_rx.remove(pos))
                        .is_some()
                });
                if let Some(pos) = self.ctx.live_rx.iter().position(|&s| s == serial) {
                    self.ctx.live_rx.swap_remove(pos);
                }
                let collided = self
                    .ctx
                    .collided_rx
                    .iter()
                    .position(|&s| s == serial)
                    .map(|pos| self.ctx.collided_rx.swap_remove(pos))
                    .is_some();
                let ok = ok && !retracted && !collided;
                let id = self.ctx.id;
                self.mac.on_indication(
                    &mut self.ctx,
                    &Indication::FrameRx {
                        node: id,
                        frame: frame.into(),
                        ok,
                    },
                );
                debug_assert!(self.ctx.rx_carrier > 0);
                self.ctx.rx_carrier = self.ctx.rx_carrier.saturating_sub(1);
                if self.ctx.rx_carrier == 0 {
                    self.ctx
                        .pending
                        .push_back(Indication::CarrierOff { node: id });
                }
            }
        }
        self.drain_pending();
    }

    /// Feed queued synthesized indications to the MAC. Each callback may
    /// synthesize more; loop until quiet.
    fn drain_pending(&mut self) {
        while let Some(ind) = self.ctx.pending.pop_front() {
            self.mac.on_indication(&mut self.ctx, &ind);
        }
    }

    /// Drain outbound datagrams for the driver to send, each stamped with
    /// the MAC time it was emitted (its first-bit time). The outbox keeps
    /// its capacity for the next callback's datagrams.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, (SimTime, OutDgram)> {
        self.ctx.outbox.drain(..)
    }

    /// Drain frames delivered up to the "network layer", with delivery
    /// times. A node buffers every delivery until it is taken: a driver
    /// that never takes a node's deliveries holds them for as long as it
    /// runs.
    pub fn take_delivered(&mut self) -> Vec<(SimTime, Frame)> {
        std::mem::take(&mut self.ctx.delivered)
    }

    /// Drain finished transmit outcomes `(token, outcome)`.
    pub fn take_outcomes(&mut self) -> Vec<(u64, TxOutcome)> {
        std::mem::take(&mut self.ctx.outcomes)
    }
}

/// Undecodable energy on the data channel, heard as a frame of `len` bytes:
/// a broadcast data frame whose airtime is that length's (4 µs a byte). A
/// data frame is never shorter than its header and FCS, so anything under
/// `DATA_HEADER_LEN` (28 bytes) is heard as 28.
fn noise(src: NodeId, len: usize) -> Frame {
    let payload = vec![0u8; len.saturating_sub(DATA_HEADER_LEN)];
    Frame::data_unreliable(src, Dest::Broadcast, Bytes::from(payload), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_wire::consts::{L_ABT, PAPER_PAYLOAD, T_WF_RDATA};
    use rmac_wire::decode_datagram;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn incoming(at: SimTime, channel: DgramChannel, bytes: Vec<u8>) -> Incoming {
        Incoming {
            at,
            channel,
            bytes,
            corrupt: false,
        }
    }

    /// Hand-deliver every datagram between two nodes with fixed latencies:
    /// a two-node loopback hub in miniature (the real one lives in
    /// `crate::hub`). Returns when both nodes are quiet.
    fn pump(a: &mut LiveNode, b: &mut LiveNode, tau: SimTime) {
        // In-flight: (arrival, destination index, channel, bytes)
        let mut flight: Vec<(SimTime, usize, DgramChannel, Vec<u8>)> = Vec::new();
        for _ in 0..100_000 {
            for (i, node) in [&mut *a, &mut *b].into_iter().enumerate() {
                for (at, out) in node.drain_outbox() {
                    match out {
                        OutDgram::Data(bytes) => {
                            // Multicast: the *other* node hears it.
                            flight.push((at + tau, 1 - i, DgramChannel::Data, bytes));
                        }
                        OutDgram::Ctrl(to, bytes) => {
                            let dest = if to == n(1) { 0 } else { 1 };
                            flight.push((at + tau, dest, DgramChannel::Ctrl, bytes));
                        }
                    }
                }
            }
            // Next event: earliest arrival or timer.
            let arr = flight.iter().map(|f| f.0).min();
            let t_a = a.next_deadline();
            let t_b = b.next_deadline();
            let next = [arr, t_a, t_b].into_iter().flatten().min();
            let Some(t) = next else { break };
            a.advance(t);
            b.advance(t);
            flight.sort_by_key(|f| f.0);
            while let Some(pos) = flight.iter().position(|f| f.0 <= t) {
                let (at, dest, ch, bytes) = flight.remove(pos);
                let inc = incoming(at, ch, bytes);
                if dest == 0 {
                    a.on_datagram(&inc);
                } else {
                    b.on_datagram(&inc);
                }
            }
        }
    }

    /// The full reliable unicast exchange — MRTS, RBT, data, ABT — runs
    /// over datagrams end to end: the receiver delivers the payload and
    /// the sender reports it delivered.
    #[test]
    fn reliable_exchange_over_datagrams() {
        let pair = |me: u16, peer: u16| LiveConfig {
            neighbors: vec![n(peer)],
            seed: u64::from(me),
        };
        let mut tx = LiveNode::new(n(1), pair(1, 2));
        let mut rx = LiveNode::new(n(2), pair(2, 1));
        tx.submit(TxRequest {
            reliable: true,
            dest: Dest::Group(vec![n(2)]),
            payload: Bytes::from(vec![7u8; PAPER_PAYLOAD]),
            token: 42,
        });
        pump(&mut tx, &mut rx, SimTime::from_nanos(500));
        let delivered = rx.take_delivered();
        assert_eq!(delivered.len(), 1, "receiver must deliver the payload");
        assert_eq!(delivered[0].1.payload.len(), PAPER_PAYLOAD);
        let outcomes = tx.take_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            (42, TxOutcome::Reliable { delivered, failed }) => {
                assert_eq!(delivered, &vec![n(2)]);
                assert!(failed.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(tx.counters().drops, 0);
        assert!(tx.stats().data_tx >= 2, "MRTS + data");
        assert!(tx.stats().ctrl_rx >= 2, "RBT on/off, ABT on/off");
    }

    /// With no receiver answering, the sender retries and eventually
    /// reports the receiver failed — over datagrams just as in the sim.
    #[test]
    fn silence_exhausts_retries() {
        let mut tx = LiveNode::new(n(1), LiveConfig::default());
        tx.submit(TxRequest {
            reliable: true,
            dest: Dest::Group(vec![n(9)]),
            payload: Bytes::from(vec![1u8; 64]),
            token: 7,
        });
        // Drive by timers alone; nobody answers.
        for _ in 0..100_000 {
            let Some(d) = tx.next_deadline() else { break };
            tx.advance(d);
            tx.drain_outbox();
        }
        let outcomes = tx.take_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0] {
            (7, TxOutcome::Reliable { delivered, failed }) => {
                assert!(delivered.is_empty());
                assert_eq!(failed, &vec![n(9)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(tx.counters().drops, 1);
        assert_eq!(
            tx.counters().retransmissions,
            u64::from(MacConfig::default().retry_limit)
        );
    }

    /// Undecodable bytes on the data channel behave as noise: carrier
    /// rises and falls, nothing is delivered, and the MAC stays sane.
    #[test]
    fn garbage_is_noise_not_a_crash() {
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&incoming(
            SimTime::from_micros(5),
            DgramChannel::Data,
            vec![0xAB; 40],
        ));
        assert_eq!(node.stats().decode_errors, 1);
        // Carrier is up (busy) until the estimated airtime elapses.
        let d = node.next_deadline().expect("noise end scheduled");
        node.advance(d);
        assert!(node.take_delivered().is_empty());
        assert_eq!(node.stats().data_rx, 0);
    }

    /// Noise lasts as long as the frame it stands for: the frame inside an
    /// unframeable datagram (its length less the datagram header and
    /// trailer), or the frame whose FCS failed.
    #[test]
    fn noise_lasts_the_airtime_of_the_frame_it_stands_for() {
        use rmac_wire::airtime::frame_airtime;
        let at = SimTime::from_micros(5);
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&incoming(at, DgramChannel::Data, vec![0xAB; 100]));
        assert_eq!(node.next_deadline(), Some(at + frame_airtime(84)));

        let frame = Frame::data_unreliable(n(2), Dest::Broadcast, Bytes::from(vec![7u8; 72]), 0);
        let mut body = codec::encode(&frame).to_vec();
        assert_eq!(body.len(), 100);
        body[40] ^= 1;
        let dgram = encode_datagram(&Datagram {
            src: n(2),
            counter: 0,
            body: DgramBody::Frame(Bytes::from(body)),
        });
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&incoming(at, DgramChannel::Data, dgram));
        assert_eq!(node.stats().decode_errors, 1);
        assert_eq!(node.next_deadline(), Some(at + frame_airtime(100)));
    }

    /// The `MacContext` contract's busy-edge obligation on the noise path:
    /// the backoff countdown sleeps to its expiry, so undecodable energy
    /// must reach it as a `CarrierOn` — it then wakes at its next slot
    /// boundary and suspends, as a per-slot look would have.
    #[test]
    fn noise_wakes_a_sleeping_countdown_at_its_next_boundary() {
        use rmac_wire::consts::SLOT;
        let noise = |at| incoming(at, DgramChannel::Data, vec![0xAB; 40]);
        // A request that meets a busy channel draws BI; find a seed that
        // draws at least three slots.
        let (mut node, clear) = (1..)
            .find_map(|seed| {
                let cfg = LiveConfig {
                    seed,
                    ..LiveConfig::default()
                };
                let mut node = LiveNode::new(n(1), cfg);
                node.on_datagram(&noise(SimTime::from_micros(5)));
                node.submit(TxRequest {
                    reliable: true,
                    dest: Dest::Group(vec![n(2)]),
                    payload: Bytes::from_static(b"x"),
                    token: 1,
                });
                let clear = node.next_deadline().expect("noise end scheduled");
                node.advance(clear);
                let asleep =
                    node.state() == State::Backoff && node.next_deadline()? >= clear + SLOT.mul(3);
                asleep.then_some((node, clear))
            })
            .expect("some seed draws BI >= 3");
        let mid = clear + SLOT + SimTime::from_micros(7);
        node.advance(mid);
        assert_eq!(node.state(), State::Backoff, "no timer fired in between");
        node.on_datagram(&noise(mid));
        assert_eq!(node.next_deadline(), Some(clear + SLOT.mul(2)));
        node.advance(clear + SLOT.mul(2));
        assert_eq!(node.state(), State::Idle, "suspended at the boundary");
    }

    /// A peer that keeps sending CRC-valid datagrams of the unassigned
    /// kinds 3–5 moves a counter and nothing else: no timer, no output, no
    /// buffer that grows with it.
    #[test]
    fn a_flood_of_unassigned_kinds_is_counted_and_dropped() {
        use rmac_wire::crc::crc32;
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        for i in 0..10_000u32 {
            let mut wire = encode_datagram(&Datagram {
                src: n(2),
                counter: i,
                body: DgramBody::Abort { counter: i },
            });
            wire[3] = 3 + (i % 3) as u8;
            let covered = wire.len() - DGRAM_CRC_LEN;
            let crc = crc32(&wire[..covered]);
            wire[covered..].copy_from_slice(&crc.to_be_bytes());
            let at = SimTime::from_micros(u64::from(i));
            node.on_datagram(&incoming(at, DgramChannel::Ctrl, wire));
        }
        assert_eq!(node.stats().decode_errors, 10_000);
        assert_eq!(node.stats().ctrl_rx, 0);
        assert_eq!(node.next_deadline(), None);
        assert_eq!(node.drain_outbox().len(), 0);
        assert!(node.take_delivered().is_empty());
        assert!(node.take_outcomes().is_empty());
        assert!(node.aborted_rx.is_empty() && node.ctx.pending.is_empty());
    }

    /// A peer that sends retractions and never a frame — under one id or
    /// under fresh ones — holds its send rate × the longest air time of
    /// this node's memory, however long it keeps going.
    #[test]
    fn an_abort_flood_is_bounded() {
        let spacing = SimTime::from_micros(100);
        let bound = (LONGEST_AIRTIME.nanos() / spacing.nanos()) as usize + 1;
        let srcs: [fn(u32) -> NodeId; 2] = [|_| n(2), |i| n(2 + (i % 5_000) as u16)];
        for src in srcs {
            let mut node = LiveNode::new(n(1), LiveConfig::default());
            for i in 0..10_000u32 {
                let at = spacing.mul(u64::from(i));
                node.on_datagram(&abort(at, src(i), i));
                assert!(node.aborted_rx.len() <= bound, "{i}");
            }
            assert!(spacing.mul(10_000) > LONGEST_AIRTIME.mul(3));
            assert_eq!(node.stats().ctrl_rx, 10_000);
            assert_eq!(node.next_deadline(), None);
            assert_eq!(node.drain_outbox().len(), 0);
            assert!(node.take_delivered().is_empty() && node.ctx.pending.is_empty());
        }
    }

    fn dgram(
        at: SimTime,
        channel: DgramChannel,
        src: NodeId,
        counter: u32,
        body: DgramBody,
    ) -> Incoming {
        incoming(
            at,
            channel,
            encode_datagram(&Datagram { src, counter, body }),
        )
    }

    fn abort(at: SimTime, src: NodeId, counter: u32) -> Incoming {
        dgram(
            at,
            DgramChannel::Ctrl,
            src,
            counter,
            DgramBody::Abort { counter },
        )
    }

    /// An unreliable broadcast of 500 bytes from `src` under datagram
    /// `counter`: 2.208 ms on the air, delivered on a clean `FrameRx`.
    fn data(at: SimTime, src: NodeId, counter: u32) -> Incoming {
        let payload = Bytes::from(vec![counter as u8; PAPER_PAYLOAD]);
        framed(
            at,
            &Frame::data_unreliable(src, Dest::Broadcast, payload, counter),
            counter,
        )
    }

    /// Advance to `t` and return the payload tags of what was delivered.
    fn delivered_by(node: &mut LiveNode, t: SimTime) -> Vec<u8> {
        node.advance(t);
        let frames = node.take_delivered();
        frames.iter().map(|(_, f)| f.payload[0]).collect()
    }

    /// A marker arriving mid-reception turns that `FrameRx` corrupt — and
    /// no other: not the sender's next frame, not another sender's frame
    /// under the same counter.
    #[test]
    fn a_marker_mid_reception_corrupts_that_frame_and_no_other() {
        let ms = SimTime::from_millis;
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&data(ms(0), n(2), 7));
        node.on_datagram(&abort(ms(1), n(2), 7));
        assert_eq!(delivered_by(&mut node, ms(3)), []);
        assert!(node.aborted_rx.is_empty(), "a marker is spent on its frame");

        node.on_datagram(&data(ms(3), n(2), 8));
        assert_eq!(delivered_by(&mut node, ms(6)), [8]);

        node.on_datagram(&data(ms(6), n(3), 9));
        node.on_datagram(&abort(ms(7), n(2), 9));
        assert_eq!(delivered_by(&mut node, ms(9)), [9]);
    }

    /// Markers are kept per datagram, not per sender: one that aborts A,
    /// then sends and aborts B before A's `RxEnd` has fired here (the
    /// control channel running ahead of the data channel) poisons both,
    /// and B's marker waits for B's frame.
    #[test]
    fn aborting_b_before_a_has_ended_here_poisons_both() {
        let ms = SimTime::from_millis;
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&data(ms(0), n(2), 1));
        node.on_datagram(&abort(ms(1), n(2), 1));
        node.on_datagram(&abort(ms(2), n(2), 2));
        assert_eq!(delivered_by(&mut node, ms(3)), []);
        node.on_datagram(&data(ms(3), n(2), 2));
        assert_eq!(delivered_by(&mut node, ms(6)), []);
        assert!(node.aborted_rx.is_empty());
        node.on_datagram(&data(ms(6), n(2), 3));
        assert_eq!(delivered_by(&mut node, ms(9)), [3]);
    }

    /// A frame under datagram `counter`, as it arrives on the data channel.
    fn framed(at: SimTime, frame: &Frame, counter: u32) -> Incoming {
        let body = DgramBody::Frame(codec::encode(frame));
        dgram(at, DgramChannel::Data, frame.src, counter, body)
    }

    /// The tone edges in `node`'s outbox, in the order they were emitted.
    fn tone_edges(node: &mut LiveNode) -> Vec<(SimTime, u8, bool)> {
        let edge = |(at, out)| match out {
            OutDgram::Ctrl(_, bytes) => match decode_datagram(&bytes).expect("own datagram").body {
                DgramBody::Tone { tone, on } => Some((at, tone, on)),
                _ => None,
            },
            OutDgram::Data(_) => None,
        };
        node.drain_outbox().filter_map(edge).collect()
    }

    /// The receiver in ABT slot 0 arms `AbtStart` zero delay ahead, from
    /// inside the dispatch of the data frame's last bit: it fires in the
    /// same `advance`, at that instant, behind what was already due then (a
    /// second MRTS's last bit, pushed by hand — on the air the two frames
    /// would have collided) and ahead of everything later.
    #[test]
    fn a_timer_armed_for_now_fires_after_what_was_due_and_before_anything_later() {
        let us = SimTime::from_micros;
        let mrts = Frame::mrts(n(2), vec![n(1)]);
        let payload = Bytes::from(vec![3u8; PAPER_PAYLOAD]);
        let data = Frame::data_reliable(n(2), Dest::Group(vec![n(1)]), payload, 0);
        let cfg = LiveConfig {
            neighbors: vec![n(2)],
            ..LiveConfig::default()
        };
        let mut node = LiveNode::new(n(1), cfg);
        node.on_datagram(&framed(us(0), &mrts, 0));
        let heard = mrts.airtime();
        node.advance(heard + us(18));
        assert_eq!(tone_edges(&mut node), [(heard, DGRAM_TONE_RBT, true)]);
        node.on_datagram(&framed(heard + us(18), &data, 1));
        let end = heard + us(18) + data.airtime();
        node.advance(heard + T_WF_RDATA);
        assert_eq!(
            node.next_deadline(),
            Some(end),
            "the first bit cancelled T_wf_rdata"
        );

        node.ctx.rx_carrier += 1;
        let second = Fire::RxEnd {
            frame: Frame::mrts(n(2), vec![n(1)]),
            ok: true,
            key: None,
            serial: u64::MAX,
        };
        node.ctx.timers.push(end, second);

        node.advance(end);
        let (rbt, abt) = (DGRAM_TONE_RBT, DGRAM_TONE_ABT);
        assert_eq!(
            tone_edges(&mut node),
            [(end, rbt, false), (end, rbt, true), (end, abt, true)],
            "the data's end, the MRTS already due, then the AbtStart armed meanwhile"
        );
        assert_eq!(node.next_deadline(), Some(end + L_ABT), "AbtStop is next");
        node.advance(end + T_WF_RDATA);
        let later = [(end + L_ABT, abt, false), (end + T_WF_RDATA, rbt, false)];
        assert_eq!(tone_edges(&mut node), later);
    }

    /// The data frame's first bit cancels `T_wf_rdata`: its entry stays
    /// queued, but the timer never reaches RMAC, so the clock passing its
    /// deadline mid-frame leaves the session waiting for the frame's end.
    #[test]
    fn a_cancelled_wf_rdata_never_reaches_rmac_past_its_deadline() {
        let us = SimTime::from_micros;
        let mrts = Frame::mrts(n(2), vec![n(1)]);
        let payload = Bytes::from(vec![3u8; PAPER_PAYLOAD]);
        let data = Frame::data_reliable(n(2), Dest::Group(vec![n(1)]), payload, 0);
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&framed(us(0), &mrts, 0));
        let heard = mrts.airtime();
        node.advance(heard);
        assert_eq!(node.state(), State::WfRdata);
        let first_bit = heard + us(5);
        node.on_datagram(&framed(first_bit, &data, 1));
        assert_eq!(node.next_deadline(), Some(heard + T_WF_RDATA));
        node.advance(heard + T_WF_RDATA + us(1));
        assert_eq!(node.state(), State::WfRdata, "a cancelled timer fired");
        node.advance(first_bit + data.airtime());
        assert_eq!(node.take_delivered().len(), 1);
    }

    /// Deadlines keep 1 ns resolution: a tone window opens when a datagram
    /// happens to arrive, not on a tick, and a timer fires at its exact
    /// `SimTime` — not a nanosecond early, and stamped with it however far
    /// past it the driver's clock has run.
    #[test]
    fn a_deadline_fires_at_its_exact_nanosecond() {
        let first_bit = SimTime::from_nanos(1_234_567);
        let frame = Frame::data_unreliable(n(2), Dest::Broadcast, Bytes::from_static(b"x"), 0);
        let end = first_bit + frame.airtime();
        let mut node = LiveNode::new(n(1), LiveConfig::default());
        node.on_datagram(&framed(first_bit, &frame, 0));
        assert_eq!(node.next_deadline(), Some(end));
        node.advance(end - SimTime::NANO);
        assert!(node.take_delivered().is_empty());
        assert_eq!(node.next_deadline(), Some(end));
        node.advance(end + SimTime::from_millis(3));
        let delivered = node.take_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0, end);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile clocks: UDP's two reader threads can hand over an
        /// earlier-stamped packet after a later one, so `Driver::pump`
        /// feeds the node a stamp behind its clock. Whatever the order of
        /// stamps, the node's clock never runs backwards, no timer is
        /// pending behind it or pushed behind the queue's clock (`LiveCtx`'s
        /// invariant; the queue's own check and `dispatch`'s are
        /// `debug_assert`s, so this has to run in a debug build), and an
        /// `advance` leaves nothing due behind.
        #[test]
        fn any_order_of_stamps_keeps_the_clock_and_the_queue_sane(
            ops in proptest::collection::vec((0u8..14, 0u8..4, 0u64..3_000_000, 0u32..3), 1..120),
        ) {
            let mrts = Frame::mrts(n(2), vec![n(1)]);
            let reliable =
                Frame::data_reliable(n(2), Dest::Group(vec![n(1)]), Bytes::from_static(b"r"), 0);
            let tone = |at, tone, on| {
                dgram(at, DgramChannel::Ctrl, n(2), 0, DgramBody::Tone { tone, on })
            };
            let cfg = LiveConfig {
                neighbors: vec![n(2), n(3)],
                ..LiveConfig::default()
            };
            let mut node = LiveNode::new(n(1), cfg);
            for (i, (kind, clock, ns, counter)) in ops.into_iter().enumerate() {
                let before = node.now();
                let at = match clock {
                    0 => SimTime::from_nanos(ns),
                    1 => before + SimTime::from_nanos(ns % 50_000),
                    2 => SimTime::from_nanos(before.nanos().saturating_sub(ns)),
                    _ => node.next_deadline().unwrap_or(before),
                };
                match kind {
                    0 | 1 => {
                        node.advance(at);
                        proptest::prop_assert!(node.next_deadline().is_none_or(|d| d > at));
                    }
                    2 | 3 => node.submit(TxRequest {
                        reliable: kind == 2,
                        dest: Dest::Group(vec![n(2)]),
                        payload: Bytes::from_static(b"p"),
                        token: i as u64,
                    }),
                    4 => node.on_datagram(&framed(at, &mrts, counter)),
                    5 => node.on_datagram(&framed(at, &reliable, counter)),
                    6 => node.on_datagram(&data(at, n(3), counter)),
                    7..=10 => node.on_datagram(&tone(at, (kind - 7) / 2, kind % 2 == 1)),
                    11 => node.on_datagram(&abort(at, n(2), counter)),
                    12 => node.on_datagram(&incoming(at, DgramChannel::Data, vec![0xAB; 40])),
                    _ => node.on_datagram(&incoming(at, DgramChannel::Ctrl, vec![0xCD; 3])),
                }
                let now = node.now();
                proptest::prop_assert!(now >= before, "op {i}: the clock ran backwards");
                proptest::prop_assert!(node.ctx.timers.now() <= now, "op {i}: fired ahead of now");
                proptest::prop_assert!(node.next_deadline().is_none_or(|d| d >= now), "op {i}");
            }
        }
    }

    /// A tone edge and an abort marker are each encoded once: the same
    /// bytes, under one datagram counter, go to every neighbor in neighbor
    /// order, and the next datagram takes the next counter.
    #[test]
    fn one_edge_is_one_encoding_for_every_neighbor() {
        let neighbors = vec![n(4), n(2), n(3)];
        let cfg = LiveConfig {
            neighbors: neighbors.clone(),
            ..LiveConfig::default()
        };
        let mut node = LiveNode::new(n(1), cfg);
        node.ctx.start_tone(Tone::Rbt);
        node.ctx.start_tx(Frame::mrts(n(1), vec![n(2)]));
        node.ctx.abort_tx();
        node.ctx.stop_tone(Tone::Rbt);
        let out: Vec<_> = node.drain_outbox().collect();
        assert!(matches!(out[3], (_, OutDgram::Data(_))), "the MRTS");
        let fans = [&out[..3], &out[4..7], &out[7..]];
        let want = [
            (
                0,
                DgramBody::Tone {
                    tone: DGRAM_TONE_RBT,
                    on: true,
                },
            ),
            (2, DgramBody::Abort { counter: 1 }),
            (
                3,
                DgramBody::Tone {
                    tone: DGRAM_TONE_RBT,
                    on: false,
                },
            ),
        ];
        for (fan, (counter, body)) in fans.into_iter().zip(want) {
            let (to, bytes): (Vec<NodeId>, Vec<&Vec<u8>>) = fan
                .iter()
                .map(|(_, out)| match out {
                    OutDgram::Ctrl(to, bytes) => (*to, bytes),
                    OutDgram::Data(_) => panic!("a data datagram in a fan-out"),
                })
                .unzip();
            assert_eq!(to, neighbors);
            assert!(bytes.iter().all(|&b| b == bytes[0]), "{bytes:?}");
            let d = decode_datagram(bytes[0]).expect("own datagram");
            assert_eq!((d.counter, d.body), (counter, body));
        }
        assert_eq!(out.len(), 10);
        assert_eq!(node.stats().ctrl_tx, 9);
    }

    /// A node's own echoed datagram is discarded, not treated as traffic.
    #[test]
    fn own_echo_is_dropped() {
        let mut node = LiveNode::new(n(3), LiveConfig::default());
        node.submit(TxRequest {
            reliable: false,
            dest: Dest::Broadcast,
            payload: Bytes::from_static(b"x"),
            token: 0,
        });
        // Drive timers until the frame leaves (the MAC may back off first).
        let mut out: Vec<_> = node.drain_outbox().collect();
        for _ in 0..10_000 {
            if !out.is_empty() {
                break;
            }
            let Some(d) = node.next_deadline() else { break };
            node.advance(d);
            out = node.drain_outbox().collect();
        }
        assert!(!out.is_empty());
        let (_, OutDgram::Data(bytes)) = &out[0] else {
            panic!("expected data dgram")
        };
        node.on_datagram(&incoming(
            SimTime::from_micros(1),
            DgramChannel::Data,
            bytes.clone(),
        ));
        assert_eq!(node.stats().self_drops, 1);
        assert_eq!(node.stats().data_rx, 0);
    }
}
