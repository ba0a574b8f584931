//! [`LoopbackHub`]: the in-process datagram network.
//!
//! The hub is what a LAN switch plus the air is to the UDP backend:
//! data-channel datagrams fan out to every endpoint after a fixed τ, and
//! control datagrams travel point-to-point after `ctrl_latency`. Both
//! latencies default to 0.5 µs, which keeps τ + ctrl_latency ≤ 2 µs — the
//! bound under which the paper's 17 µs tone windows still contain λ = 15 µs
//! of tone (see the crate docs' timing model).
//!
//! Loss is where `rmac-faults` plugs in: each ordered data link (src → dst)
//! gets its own seeded Gilbert–Elliott chain, split deterministically from
//! the hub's master seed. A datagram the chain fades is still *delivered*,
//! flagged corrupt: the receiver hears the energy (carrier rises, overlaps
//! still collide) but cannot decode the payload — what a deep fade does to
//! a radio frame. Erasing the copy outright would remove its carrier and
//! interference footprint too, letting a second sender transmit blind and
//! letting a receiver cleanly capture one of two overlapping frames; that
//! asymmetry forges RBT/ABT attributions in the paper's anonymous tone
//! windows (two slot-aligned data phases, each believing the other's
//! acknowledgment tones). The control
//! channel is lossless by design, mirroring RMC's choice of a reliable
//! (TCP) control connection next to its lossy multicast data path: the tone
//! stand-ins are the protocol's *answers*, and the live mapping gives them
//! the reliable channel the analog tones' narrow-band robustness provided
//! in the paper.
//!
//! Everything is virtual-time and single-threaded: same seed, same
//! submission schedule ⇒ byte-identical runs.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use rmac_faults::{BurstySpec, GeChain};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::NodeId;

use crate::transport::{DgramChannel, Incoming, Transport, TransportError};

/// Loopback network parameters.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// One-way latency of the data channel (the stand-in for τ ≤ 1 µs).
    pub tau: SimTime,
    /// One-way latency of the control channel.
    pub ctrl_latency: SimTime,
    /// Gilbert–Elliott loss plan applied per ordered data link, or `None`
    /// for a lossless network.
    pub loss: Option<BurstySpec>,
    /// Master seed; per-link chains are split from it deterministically.
    pub seed: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            tau: SimTime::from_nanos(500),
            ctrl_latency: SimTime::from_nanos(500),
            loss: None,
            seed: 0xC0FFEE,
        }
    }
}

/// Traffic accounting for a hub's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Data datagrams offered (one per sender, before fan-out).
    pub data_sent: u64,
    /// Data datagram *copies* delivered to an endpoint.
    pub data_delivered: u64,
    /// Data datagram copies the loss chains faded (delivered flagged
    /// corrupt: energy without a decodable payload).
    pub data_corrupted: u64,
    /// Control datagrams carried (always delivered).
    pub ctrl_sent: u64,
}

/// One destination's pending arrivals: a min-heap of `(at, seq)` keys into
/// the shared payload map, so simultaneous arrivals keep send order.
type ArrivalQueue = BinaryHeap<Reverse<(SimTime, u64)>>;

struct Payload {
    channel: DgramChannel,
    bytes: Vec<u8>,
    corrupt: bool,
}

/// The in-process datagram network. See the module docs.
pub struct LoopbackHub {
    cfg: HubConfig,
    nodes: Vec<NodeId>,
    queues: HashMap<NodeId, ArrivalQueue>,
    payloads: HashMap<u64, Payload>,
    seq: u64,
    /// Per ordered data link `(src, dst)`: its loss chain.
    chains: HashMap<(NodeId, NodeId), GeChain>,
    rng: SimRng,
    stats: HubStats,
}

impl LoopbackHub {
    /// A hub connecting `nodes`.
    pub fn new(nodes: &[NodeId], cfg: HubConfig) -> LoopbackHub {
        LoopbackHub {
            rng: SimRng::new(cfg.seed),
            cfg,
            nodes: nodes.to_vec(),
            queues: nodes.iter().map(|&n| (n, ArrivalQueue::new())).collect(),
            payloads: HashMap::new(),
            seq: 0,
            chains: HashMap::new(),
            stats: HubStats::default(),
        }
    }

    /// The hub's configuration.
    pub fn config(&self) -> &HubConfig {
        &self.cfg
    }

    /// The connected endpoints.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Traffic totals so far.
    pub fn stats(&self) -> &HubStats {
        &self.stats
    }

    fn enqueue(
        &mut self,
        at: SimTime,
        dest: NodeId,
        channel: DgramChannel,
        bytes: Vec<u8>,
        corrupt: bool,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.queues
            .get_mut(&dest)
            .expect("unknown destination endpoint")
            .push(Reverse((at, seq)));
        self.payloads.insert(
            seq,
            Payload {
                channel,
                bytes,
                corrupt,
            },
        );
    }

    /// Does the (src → dst) loss chain fade a datagram sent at `now`?
    fn faded(&mut self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        let Some(spec) = self.cfg.loss.clone() else {
            return false;
        };
        let rng = &self.rng;
        let chain = self.chains.entry((src, dst)).or_insert_with(|| {
            let stream = (u64::from(src.0) << 16) | u64::from(dst.0);
            GeChain::new(spec, rng.split(stream.wrapping_add(1)))
        });
        chain.corrupts(now)
    }

    /// Offer a data-channel datagram from `src` at time `now`: every other
    /// endpoint receives a copy at `now + tau`. Copies the loss chains fade
    /// arrive flagged corrupt — energy without a decodable payload — so
    /// carrier sense and collision bookkeeping at the receiver still see
    /// them (see the module docs).
    pub fn send_data(&mut self, src: NodeId, now: SimTime, bytes: &[u8]) {
        self.stats.data_sent += 1;
        let at = now + self.cfg.tau;
        let dests: Vec<NodeId> = self.nodes.iter().copied().filter(|&n| n != src).collect();
        for dst in dests {
            let corrupt = self.faded(src, dst, now);
            if corrupt {
                self.stats.data_corrupted += 1;
            } else {
                self.stats.data_delivered += 1;
            }
            self.enqueue(at, dst, DgramChannel::Data, bytes.to_vec(), corrupt);
        }
    }

    /// Carry a control datagram from `src` to `dst` (lossless).
    pub fn send_ctrl(&mut self, _src: NodeId, dst: NodeId, now: SimTime, bytes: &[u8]) {
        self.stats.ctrl_sent += 1;
        let at = now + self.cfg.ctrl_latency;
        self.enqueue(at, dst, DgramChannel::Ctrl, bytes.to_vec(), false);
    }

    /// The earliest pending arrival time anywhere, if anything is in
    /// flight.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.queues
            .values()
            .filter_map(|q| q.peek().map(|Reverse((at, _))| *at))
            .min()
    }

    /// The earliest pending arrival for one endpoint.
    pub fn next_arrival_for(&self, dest: NodeId) -> Option<SimTime> {
        self.queues
            .get(&dest)
            .and_then(|q| q.peek().map(|Reverse((at, _))| *at))
    }

    /// Pop the globally earliest arrival if it is due at or before `t`
    /// (ties broken by send order), returning the destination and the
    /// datagram.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(NodeId, Incoming)> {
        let dest = self
            .queues
            .iter()
            .filter_map(|(&n, q)| q.peek().map(|&Reverse(key)| (key, n)))
            .min()
            .and_then(|(key, n)| (key.0 <= t).then_some(n))?;
        let inc = self.pop_for(dest)?;
        Some((dest, inc))
    }

    /// Pop the earliest arrival for `dest` if due at or before `t`.
    pub fn pop_due_for(&mut self, dest: NodeId, t: SimTime) -> Option<Incoming> {
        let Reverse((at, _)) = *self.queues.get(&dest)?.peek()?;
        if at > t {
            return None;
        }
        self.pop_for(dest)
    }

    fn pop_for(&mut self, dest: NodeId) -> Option<Incoming> {
        let Reverse((at, seq)) = self.queues.get_mut(&dest)?.pop()?;
        let p = self.payloads.remove(&seq).expect("payload for seq");
        Some(Incoming {
            at,
            channel: p.channel,
            bytes: p.bytes,
            peer: None,
            corrupt: p.corrupt,
        })
    }

    /// Datagrams still in flight.
    pub fn in_flight(&self) -> usize {
        self.payloads.len()
    }
}

/// One endpoint's [`Transport`] view of a shared [`LoopbackHub`]: the
/// "existing sim adapted behind the trait" backend, in virtual time.
///
/// All endpoints of a mesh share one hub and one virtual clock.
/// [`Transport::wait_until`] advances the clock instead of sleeping — to
/// the requested deadline, or to the next arrival *anywhere* if that is
/// sooner (so no endpoint's traffic is skipped over). Endpoints must
/// therefore be driven by a coordinator that always services the endpoint
/// with the earliest pending work first, as the [`Driver`](crate::Driver)
/// tests do by hand. (`LoopbackRunner` is not one: it drives `LiveNode`s
/// against the hub directly and never builds a `SimEndpoint`.)
pub struct SimEndpoint {
    hub: Rc<RefCell<LoopbackHub>>,
    clock: Rc<Cell<SimTime>>,
    id: NodeId,
}

impl SimEndpoint {
    /// Build a mesh of endpoints over a fresh hub. Returns the shared hub
    /// handle (for stats) alongside one endpoint per node id.
    pub fn mesh(nodes: &[NodeId], cfg: HubConfig) -> (Rc<RefCell<LoopbackHub>>, Vec<SimEndpoint>) {
        let hub = Rc::new(RefCell::new(LoopbackHub::new(nodes, cfg)));
        let clock = Rc::new(Cell::new(SimTime::ZERO));
        let endpoints = nodes
            .iter()
            .map(|&id| SimEndpoint {
                hub: Rc::clone(&hub),
                clock: Rc::clone(&clock),
                id,
            })
            .collect();
        (hub, endpoints)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimTime {
        self.clock.get()
    }
}

impl Transport for SimEndpoint {
    fn local(&self) -> NodeId {
        self.id
    }

    fn now(&self) -> SimTime {
        self.clock.get()
    }

    fn send_data(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let now = self.clock.get();
        self.hub.borrow_mut().send_data(self.id, now, bytes);
        Ok(())
    }

    fn send_ctrl(&mut self, to: NodeId, bytes: &[u8]) -> Result<(), TransportError> {
        let now = self.clock.get();
        self.hub.borrow_mut().send_ctrl(self.id, to, now, bytes);
        Ok(())
    }

    fn poll(&mut self) -> Result<Option<Incoming>, TransportError> {
        let now = self.clock.get();
        Ok(self.hub.borrow_mut().pop_due_for(self.id, now))
    }

    fn wait_until(&mut self, deadline: SimTime) -> Result<(), TransportError> {
        let arrival = self.hub.borrow().next_arrival();
        let target = match arrival {
            Some(a) if a < deadline => a,
            _ => deadline,
        };
        // Virtual time never runs backwards.
        self.clock.set(self.clock.get().max(target));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn data_fans_out_to_everyone_but_the_sender() {
        let ids = [n(1), n(2), n(3)];
        let mut hub = LoopbackHub::new(&ids, HubConfig::default());
        hub.send_data(n(1), us(10), b"hello");
        let mut got = Vec::new();
        while let Some((dst, inc)) = hub.pop_due(us(1_000)) {
            assert_eq!(inc.at, us(10) + SimTime::from_nanos(500));
            assert_eq!(inc.channel, DgramChannel::Data);
            assert_eq!(inc.bytes, b"hello");
            got.push(dst);
        }
        got.sort();
        assert_eq!(got, vec![n(2), n(3)]);
        assert_eq!(hub.in_flight(), 0);
    }

    #[test]
    fn ctrl_is_point_to_point_and_lossless() {
        let ids = [n(1), n(2), n(3)];
        let mut hub = LoopbackHub::new(
            &ids,
            HubConfig {
                loss: Some(BurstySpec {
                    mean_good_ms: 1.0,
                    mean_bad_ms: 1.0,
                    loss_good: 1.0, // fade every data datagram…
                    loss_bad: 1.0,
                }),
                ..HubConfig::default()
            },
        );
        for k in 0..100u64 {
            hub.send_ctrl(n(1), n(2), us(k), b"tone");
        }
        let mut delivered = 0;
        while let Some((dst, _)) = hub.pop_due(us(1_000)) {
            assert_eq!(dst, n(2));
            delivered += 1;
        }
        assert_eq!(delivered, 100, "…but control traffic always arrives");
    }

    #[test]
    fn arrivals_keep_send_order_at_equal_times() {
        let ids = [n(1), n(2)];
        let mut hub = LoopbackHub::new(&ids, HubConfig::default());
        hub.send_data(n(1), us(5), b"first");
        hub.send_data(n(1), us(5), b"second");
        let (_, a) = hub.pop_due(us(10)).unwrap();
        let (_, b) = hub.pop_due(us(10)).unwrap();
        assert_eq!(a.bytes, b"first");
        assert_eq!(b.bytes, b"second");
        assert!(hub.pop_due(us(10)).is_none());
    }

    #[test]
    fn loss_is_per_link_and_deterministic() {
        let spec = BurstySpec {
            mean_good_ms: 2.0,
            mean_bad_ms: 2.0,
            loss_good: 0.1,
            loss_bad: 0.9,
        };
        let run = |seed: u64| {
            let ids = [n(1), n(2), n(3)];
            let mut hub = LoopbackHub::new(
                &ids,
                HubConfig {
                    loss: Some(spec.clone()),
                    seed,
                    ..HubConfig::default()
                },
            );
            let mut pattern = Vec::new();
            for k in 0..2_000u64 {
                hub.send_data(n(1), us(k * 50), b"x");
                while let Some((dst, inc)) = hub.pop_due(us(k * 50 + 10)) {
                    pattern.push((k, dst, inc.corrupt));
                }
            }
            (pattern, hub.stats().clone())
        };
        let (p1, s1) = run(11);
        let (p2, s2) = run(11);
        assert_eq!(p1, p2, "same seed ⇒ same fade pattern");
        assert_eq!(s1, s2);
        let (p3, _) = run(12);
        assert_ne!(p1, p3, "different seed ⇒ different pattern");
        assert!(s1.data_corrupted > 0, "plan must actually fade something");
        // Every copy still arrives — fades corrupt, they do not erase.
        assert_eq!(s1.data_delivered + s1.data_corrupted, 2 * 2_000);
        assert_eq!(p1.len(), 2 * 2_000);
    }

    #[test]
    fn sim_endpoints_exchange_datagrams_in_virtual_time() {
        let ids = [n(1), n(2)];
        let (hub, mut eps) = SimEndpoint::mesh(&ids, HubConfig::default());
        let (a, rest) = eps.split_at_mut(1);
        let (a, b) = (&mut a[0], &mut rest[0]);
        assert_eq!(a.local(), n(1));
        a.send_data(b"ping").unwrap();
        assert!(b.poll().unwrap().is_none(), "nothing due before τ elapses");
        // Waiting runs the virtual clock forward to the arrival.
        b.wait_until(us(1_000)).unwrap();
        let inc = b.poll().unwrap().expect("arrival due");
        assert_eq!(inc.bytes, b"ping");
        assert_eq!(inc.at, SimTime::from_nanos(500));
        assert_eq!(
            b.now(),
            SimTime::from_nanos(500),
            "clock stopped at arrival"
        );
        b.send_ctrl(n(1), b"pong").unwrap();
        a.wait_until(us(1_000)).unwrap();
        let inc = a.poll().unwrap().expect("ctrl arrival");
        assert_eq!(inc.channel, DgramChannel::Ctrl);
        assert_eq!(inc.bytes, b"pong");
        assert_eq!(hub.borrow().stats().ctrl_sent, 1);
    }
}
