//! [`LoopbackHub`]: the in-process datagram network.
//!
//! The hub is what a LAN switch plus the air is to the UDP backend:
//! data-channel datagrams fan out to every endpoint, and control datagrams
//! travel point-to-point, both after one fixed latency of 0.5 µs. A frame's
//! hop plus its tone answer's hop then take 1 µs, within the 2 µs under
//! which the paper's 17 µs tone windows still contain λ = 15 µs of tone
//! (see the crate docs' timing model).
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
//! Every copy in flight sits on one FIFO in send order, which is also
//! arrival order: the caller sends at the instant it is executing, which
//! never decreases (`LoopbackRunner` does), and both channels add the same
//! latency, so no copy can arrive before one sent ahead of it. A debug
//! build asserts it at every send. Everything is virtual-time and
//! single-threaded: same seed, same submission schedule ⇒ byte-identical
//! runs.

use std::collections::VecDeque;

use rmac_faults::{BurstySpec, GeChain};
use rmac_sim::{SimRng, SimTime};
use rmac_wire::NodeId;

use crate::transport::{DgramChannel, Incoming, OutDgram};

/// One-way latency of both channels (the stand-in for τ ≤ 1 µs). One value
/// for both keeps arrival order equal to send order (see the module docs).
const LATENCY: SimTime = SimTime::from_nanos(500);

/// Loopback network parameters.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Gilbert–Elliott loss plan applied per ordered data link, or `None`
    /// for a lossless network.
    pub loss: Option<BurstySpec>,
    /// Master seed; per-link chains are split from it deterministically.
    pub seed: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
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

/// The in-process datagram network. See the module docs.
pub struct LoopbackHub {
    cfg: HubConfig,
    nodes: Vec<NodeId>,
    /// Every copy in flight, with its destination, in send order (which is
    /// arrival order).
    in_flight: VecDeque<(NodeId, Incoming)>,
    /// Per ordered data link, at `src * nodes.len() + dst` by endpoint
    /// position: its loss chain, made at the link's first copy.
    chains: Vec<Option<GeChain>>,
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
            in_flight: VecDeque::new(),
            chains: std::iter::repeat_with(|| None)
                .take(nodes.len() * nodes.len())
                .collect(),
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
        debug_assert!(
            self.in_flight.back().is_none_or(|(_, last)| last.at <= at),
            "a copy would arrive before one queued ahead of it"
        );
        let copy = Incoming {
            at,
            channel,
            bytes,
            corrupt,
        };
        self.in_flight.push_back((dest, copy));
    }

    /// Does the (src → dst) loss chain, at endpoint positions `s` and `d`,
    /// fade a datagram sent at `now`?
    fn faded(&mut self, s: usize, d: usize, now: SimTime) -> bool {
        let Some(spec) = &self.cfg.loss else {
            return false;
        };
        let (src, dst) = (self.nodes[s], self.nodes[d]);
        let rng = &self.rng;
        let chain = self.chains[s * self.nodes.len() + d].get_or_insert_with(|| {
            let stream = (u64::from(src.0) << 16) | u64::from(dst.0);
            GeChain::new(spec.clone(), rng.split(stream.wrapping_add(1)))
        });
        chain.corrupts(now)
    }

    /// Offer a data-channel datagram from `src` at time `now`: every other
    /// endpoint receives a copy 0.5 µs later. Copies the loss chains fade
    /// arrive flagged corrupt — energy without a decodable payload — so
    /// carrier sense and collision bookkeeping at the receiver still see
    /// them (see the module docs). An unknown `src` panics.
    ///
    /// `now` never decreases from one send to the next: the caller sends at
    /// the instant it is executing, as `LoopbackRunner::step` does (a debug
    /// build asserts it against the last copy still in flight).
    pub fn send_data(&mut self, src: NodeId, now: SimTime, bytes: &[u8]) {
        self.fan_out(src, now, bytes.to_vec());
    }

    /// Send a datagram whose buffer the caller gives up: a data datagram as
    /// [`send_data`](Self::send_data) does, its last copy keeping the
    /// buffer, or a control datagram from `src` to its `dst` (lossless),
    /// kept as the copy in flight. `now` is bound as for `send_data`; an
    /// unknown `dst` panics.
    pub fn send(&mut self, src: NodeId, now: SimTime, out: OutDgram) {
        match out {
            OutDgram::Data(bytes) => self.fan_out(src, now, bytes),
            OutDgram::Ctrl(dst, bytes) => {
                assert!(self.nodes.contains(&dst), "unknown destination endpoint");
                self.stats.ctrl_sent += 1;
                self.enqueue(now + LATENCY, dst, DgramChannel::Ctrl, bytes, false);
            }
        }
    }

    /// The data fan-out: a copy of `bytes` to every endpoint but `src`, in
    /// endpoint order; the last one takes `bytes` itself.
    fn fan_out(&mut self, src: NodeId, now: SimTime, mut bytes: Vec<u8>) {
        let s = self
            .nodes
            .iter()
            .position(|&n| n == src)
            .expect("unknown source endpoint");
        self.stats.data_sent += 1;
        let at = now + LATENCY;
        let last = (0..self.nodes.len()).rev().find(|&d| d != s);
        for d in 0..self.nodes.len() {
            if d == s {
                continue;
            }
            let corrupt = self.faded(s, d, now);
            if corrupt {
                self.stats.data_corrupted += 1;
            } else {
                self.stats.data_delivered += 1;
            }
            let copy = if Some(d) == last {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            self.enqueue(at, self.nodes[d], DgramChannel::Data, copy, corrupt);
        }
    }

    /// The earliest pending arrival time, if anything is in flight.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.in_flight.front().map(|(_, copy)| copy.at)
    }

    /// Pop the earliest arrival if it is due at or before `t` (ties in
    /// send order), returning the destination and the datagram.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(NodeId, Incoming)> {
        if self.in_flight.front()?.1.at <= t {
            self.in_flight.pop_front()
        } else {
            None
        }
    }

    /// Datagram copies still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
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

    fn ctrl(dst: NodeId, bytes: &[u8]) -> OutDgram {
        OutDgram::Ctrl(dst, bytes.to_vec())
    }

    /// Every data copy faded; control untouched.
    fn fade_everything() -> BurstySpec {
        BurstySpec {
            mean_good_ms: 1.0,
            mean_bad_ms: 1.0,
            loss_good: 1.0,
            loss_bad: 1.0,
        }
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
                loss: Some(fade_everything()), // fade every data datagram…
                ..HubConfig::default()
            },
        );
        for k in 0..100u64 {
            hub.send(n(1), us(k), ctrl(n(2), b"tone"));
        }
        let mut delivered = 0;
        while let Some((dst, _)) = hub.pop_due(us(1_000)) {
            assert_eq!(dst, n(2));
            delivered += 1;
        }
        assert_eq!(delivered, 100, "…but control traffic always arrives");
    }

    #[test]
    #[should_panic(expected = "unknown destination endpoint")]
    fn ctrl_to_an_unknown_endpoint_panics_at_send() {
        let mut hub = LoopbackHub::new(&[n(1), n(2)], HubConfig::default());
        hub.send(n(1), us(1), ctrl(n(9), b"lost"));
    }

    #[test]
    #[should_panic(expected = "unknown source endpoint")]
    fn data_from_an_unknown_endpoint_panics_at_send() {
        let mut hub = LoopbackHub::new(&[n(1), n(2)], HubConfig::default());
        hub.send_data(n(9), us(1), b"stray");
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

    /// A send stamped before the last copy still in flight would be
    /// delivered out of arrival order: a debug build refuses it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a copy would arrive before one queued ahead of it")]
    fn a_send_behind_the_last_queued_arrival_panics() {
        let mut hub = LoopbackHub::new(&[n(1), n(2)], HubConfig::default());
        hub.send_data(n(1), us(10), b"first");
        hub.send(n(2), us(9), ctrl(n(1), b"earlier"));
    }

    /// The owned entry point delivers what the borrowed `send_data` does:
    /// the same bytes to the same endpoints, in the same order, at the same
    /// times, faded alike, for one seeded sequence of sends from every
    /// endpoint, control datagrams among them.
    #[test]
    fn owned_sends_deliver_what_borrowed_ones_do() {
        let ids = [n(1), n(2), n(3), n(4)];
        let run = |owned: bool| {
            let cfg = HubConfig {
                loss: Some(crate::soak::ge20()),
                seed: 5,
            };
            let mut hub = LoopbackHub::new(&ids, cfg);
            let mut popped = Vec::new();
            for k in 0..400u64 {
                let now = us(k * 300);
                let (src, dst) = (ids[k as usize % 4], ids[(k as usize * 7 + 1) % 4]);
                let bytes = vec![k as u8; 20 + k as usize % 50];
                match (k % 3 == 0, owned) {
                    (true, _) => hub.send(src, now, OutDgram::Ctrl(dst, bytes)),
                    (false, true) => hub.send(src, now, OutDgram::Data(bytes)),
                    (false, false) => hub.send_data(src, now, &bytes),
                }
                while let Some((to, inc)) = hub.pop_due(now + us(100)) {
                    popped.push((to, inc.at, inc.channel, inc.bytes, inc.corrupt));
                }
            }
            (popped, hub.stats().clone())
        };
        let (owned, borrowed) = (run(true), run(false));
        assert!(owned.1.data_corrupted > 0, "the plan must fade something");
        assert_eq!(owned.0.len(), 134 + 266 * 3);
        assert_eq!(owned, borrowed);
    }

    /// What the send-order model and the hub are compared on.
    type Popped = (NodeId, SimTime, DgramChannel, Vec<u8>, bool);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The hub pops what a list of copies in send order pops: sends at
        /// non-decreasing stamps, to random endpoints, faded or not,
        /// interleaved with `pop_due` at the current stamp; each copy
        /// arrives 0.5 µs after its send, and `in_flight` and
        /// `next_arrival` are the list's length and head throughout.
        #[test]
        fn pops_in_send_order(
            fade in 0u8..2,
            ops in proptest::collection::vec((0u8..3, 0u16..4, 0u16..4, 0u64..800), 1..120),
        ) {
            let ids = [n(1), n(2), n(3), n(4)];
            let corrupt = fade == 1;
            let mut hub = LoopbackHub::new(
                &ids,
                HubConfig {
                    loss: corrupt.then(fade_everything),
                    ..HubConfig::default()
                },
            );
            let mut model: VecDeque<Popped> = VecDeque::new();
            let mut now = SimTime::ZERO;
            let drain = |hub: &mut LoopbackHub, model: &mut VecDeque<Popped>, t| {
                loop {
                    let want = match model.front() {
                        Some(&(_, at, ..)) if at <= t => model.pop_front(),
                        _ => None,
                    };
                    let got = hub
                        .pop_due(t)
                        .map(|(dst, inc)| (dst, inc.at, inc.channel, inc.bytes, inc.corrupt));
                    proptest::prop_assert_eq!(&got, &want);
                    proptest::prop_assert_eq!(hub.in_flight(), model.len());
                    if got.is_none() {
                        return Ok(());
                    }
                }
            };
            for (k, (kind, src, dst, dt)) in ops.into_iter().enumerate() {
                now += SimTime::from_nanos(dt);
                let (src, dst) = (ids[usize::from(src)], ids[usize::from(dst)]);
                let bytes = vec![k as u8; 1 + k % 7];
                let at = now + SimTime::from_nanos(500);
                match kind {
                    0 => {
                        hub.send_data(src, now, &bytes);
                        for &to in ids.iter().filter(|&&to| to != src) {
                            model.push_back((to, at, DgramChannel::Data, bytes.clone(), corrupt));
                        }
                    }
                    1 => {
                        hub.send(src, now, ctrl(dst, &bytes));
                        model.push_back((dst, at, DgramChannel::Ctrl, bytes, false));
                    }
                    _ => drain(&mut hub, &mut model, now)?,
                }
                proptest::prop_assert_eq!(hub.in_flight(), model.len());
                proptest::prop_assert_eq!(hub.next_arrival(), model.front().map(|c| c.1));
            }
            drain(&mut hub, &mut model, SimTime::MAX)?;
            proptest::prop_assert!(model.is_empty());
        }
    }
}
