//! The multicast application: source generation and tree forwarding.

use bytes::Bytes;
use rmac_core::api::TxRequest;
use rmac_sim::SimTime;
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

use crate::bless::{BlessConfig, BlessState};
use crate::payload::NetPayload;
use crate::seen::SeenIds;

/// Application-level statistics collected at one node.
#[derive(Clone, Debug, Default)]
pub struct AppStats {
    /// Packets generated (source only).
    pub generated: u64,
    /// Unique application packets received.
    pub received: u64,
    /// Duplicate receptions suppressed.
    pub duplicates: u64,
    /// Packets forwarded to children.
    pub forwarded: u64,
    /// Packets that arrived with no children to forward to.
    pub leaf_receipts: u64,
    /// Sum of the end-to-end delays of every unique reception, in
    /// nanoseconds; `received` counts them. Exact and order-free, it holds
    /// 584 years of summed delay: a paper-scale replication (75 nodes,
    /// 10 000 packets) sums to about 10¹⁶ ns in all.
    pub delay_sum_ns: u64,
}

/// The per-node network layer: BLESS-lite routing plus the multicast
/// forwarder. It is a passive component — the engine drives it with
/// deliveries and timer callbacks, and it emits [`TxRequest`]s to hand to
/// the MAC.
#[derive(Clone, Debug)]
pub struct NetLayer {
    id: NodeId,
    bless: BlessState,
    payload_len: usize,
    /// When false, packets are forwarded with the Unreliable Send service
    /// (one broadcast per hop, no recovery) — the §1 strawman that
    /// motivates MAC-layer reliability.
    reliable_forwarding: bool,
    seen: SeenIds,
    stats: AppStats,
    next_packet_id: u32,
    next_token: u64,
}

impl NetLayer {
    /// A network layer for node `id`. `payload_len` is the application
    /// packet size (500 bytes in the paper).
    pub fn new(id: NodeId, cfg: BlessConfig, payload_len: usize) -> NetLayer {
        NetLayer {
            id,
            bless: BlessState::new(id, cfg),
            payload_len,
            reliable_forwarding: true,
            seen: SeenIds::default(),
            stats: AppStats::default(),
            next_packet_id: 0,
            next_token: (id.0 as u64) << 32,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Switch the forwarder to the Unreliable Send service (single
    /// broadcast per hop, no recovery) — for the §1 motivation experiment.
    pub fn set_reliable_forwarding(&mut self, reliable: bool) {
        self.reliable_forwarding = reliable;
    }

    /// This node's routing state (read access for diagnostics).
    pub fn bless(&self) -> &BlessState {
        &self.bless
    }

    /// Collected statistics.
    pub fn stats(&self) -> &AppStats {
        &self.stats
    }

    /// Current fresh neighbor set (backs `MacContext::neighbors`).
    pub fn fresh_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.bless.fresh_neighbors(now)
    }

    /// Current children in the multicast tree.
    pub fn children(&self, now: SimTime) -> Vec<NodeId> {
        self.bless.children(now)
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Beacon timer fired: emit the routing broadcast (Unreliable Send,
    /// exactly as §4.1.1 prescribes).
    pub fn on_beacon_timer(&mut self, now: SimTime, out: &mut Vec<TxRequest>) {
        let beacon = self.bless.make_beacon(now);
        out.push(TxRequest {
            reliable: false,
            dest: Dest::Broadcast,
            payload: beacon.encode(0),
            token: self.token(),
        });
    }

    /// Source timer fired (root only): generate one application packet and
    /// forward it down the tree.
    pub fn on_source_timer(&mut self, now: SimTime, out: &mut Vec<TxRequest>) {
        debug_assert!(self.bless.is_root(), "only the root generates packets");
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        self.stats.generated += 1;
        // The source trivially "has" its own packet.
        self.seen.insert(id);
        let payload = NetPayload::App { id, origin: now };
        self.forward(now, payload, out);
    }

    /// The MAC reported a reliable send outcome: receivers that positively
    /// acknowledged are demonstrably live children.
    pub fn on_reliable_outcome(&mut self, now: SimTime, delivered: &[NodeId]) {
        for &child in delivered {
            self.bless.refresh_child(now, child);
        }
    }

    /// A data frame was delivered by the MAC.
    pub fn on_deliver(&mut self, now: SimTime, frame: &Frame, out: &mut Vec<TxRequest>) {
        let Some(payload) = NetPayload::decode(&frame.payload) else {
            return;
        };
        match payload {
            NetPayload::Beacon { hops, parent } => {
                debug_assert_eq!(frame.kind, FrameKind::DataUnreliable);
                self.bless.on_beacon(now, frame.src, hops, parent);
            }
            NetPayload::App { id, origin } => {
                if !self.seen.insert(id) {
                    self.stats.duplicates += 1;
                    return;
                }
                self.stats.received += 1;
                self.stats.delay_sum_ns += now.saturating_sub(origin).nanos();
                // Relay the received bytes instead of re-encoding: the
                // encoding of `App { id, origin }` padded to this node's
                // payload length is exactly the bytes that arrived (tag,
                // id, origin, zero pad), so the forward below can share
                // the reception's buffer — a refcount bump per hop in
                // place of a 500-byte allocate-and-fill.
                self.forward_reusing(now, NetPayload::App { id, origin }, &frame.payload, out);
            }
        }
    }

    /// Forward an application packet to the current children (Reliable
    /// Send, multicast mode). Nodes without children are leaves.
    fn forward(&mut self, now: SimTime, payload: NetPayload, out: &mut Vec<TxRequest>) {
        let bytes = payload.encode(self.payload_len);
        self.forward_bytes(now, bytes, out);
    }

    /// [`NetLayer::forward`], reusing an already-encoded buffer when its
    /// length matches this node's payload size (it then equals the fresh
    /// encoding byte for byte — asserted in debug builds).
    fn forward_reusing(
        &mut self,
        now: SimTime,
        payload: NetPayload,
        received: &Bytes,
        out: &mut Vec<TxRequest>,
    ) {
        if received.len() != self.payload_len {
            return self.forward(now, payload, out);
        }
        debug_assert_eq!(
            &payload.encode(self.payload_len)[..],
            &received[..],
            "received App payload differs from its re-encoding"
        );
        self.forward_bytes(now, received.clone(), out);
    }

    fn forward_bytes(&mut self, now: SimTime, payload: Bytes, out: &mut Vec<TxRequest>) {
        let children = self.bless.children(now);
        if children.is_empty() {
            self.stats.leaf_receipts += 1;
            return;
        }
        self.stats.forwarded += 1;
        let (reliable, dest) = if self.reliable_forwarding {
            (true, Dest::Group(children))
        } else {
            // One unreliable broadcast per hop: children filter by the
            // tree structure at reception (they accept from their parent
            // implicitly by deduplication).
            (false, Dest::Broadcast)
        };
        out.push(TxRequest {
            reliable,
            dest,
            payload,
            token: self.token(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::NetPayload;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn net(id: u16) -> NetLayer {
        NetLayer::new(n(id), BlessConfig::default(), 500)
    }

    fn beacon_frame(src: u16, hops: u32, parent: u16) -> Frame {
        Frame::data_unreliable(
            n(src),
            Dest::Broadcast,
            NetPayload::Beacon { hops, parent }.encode(0),
            0,
        )
    }

    fn app_frame(src: u16, id: u32, origin: SimTime, dest: Vec<NodeId>) -> Frame {
        Frame::data_reliable(
            n(src),
            Dest::Group(dest),
            NetPayload::App { id, origin }.encode(500),
            0,
        )
    }

    #[test]
    fn beacons_update_routing() {
        let mut net = net(5);
        let mut out = Vec::new();
        net.on_deliver(t(1), &beacon_frame(1, 0, u16::MAX), &mut out);
        assert!(out.is_empty(), "beacons are not forwarded");
        assert_eq!(net.bless().parent(), Some(n(1)));
        assert_eq!(net.bless().hops(), 1);
    }

    #[test]
    fn beacon_timer_broadcasts_unreliably() {
        let mut net = net(5);
        let mut out = Vec::new();
        net.on_beacon_timer(t(1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].reliable);
        assert_eq!(out[0].dest, Dest::Broadcast);
        assert!(NetPayload::decode(&out[0].payload).is_some());
    }

    #[test]
    fn source_generates_and_forwards_to_children() {
        let mut root = net(0);
        let mut out = Vec::new();
        // Two children claim the root.
        root.on_deliver(t(1), &beacon_frame(1, 1, 0), &mut out);
        root.on_deliver(t(1), &beacon_frame(2, 1, 0), &mut out);
        root.on_source_timer(t(2), &mut out);
        assert_eq!(root.stats().generated, 1);
        assert_eq!(out.len(), 1);
        let req = &out[0];
        assert!(req.reliable);
        assert_eq!(req.dest, Dest::Group(vec![n(1), n(2)]));
        assert_eq!(req.payload.len(), 500, "paper's 500-byte packets");
    }

    #[test]
    fn source_with_no_children_counts_leaf_receipt() {
        let mut root = net(0);
        let mut out = Vec::new();
        root.on_source_timer(t(2), &mut out);
        assert!(out.is_empty());
        assert_eq!(root.stats().leaf_receipts, 1);
    }

    #[test]
    fn reception_records_delay_and_forwards() {
        let mut nodek = net(5);
        let mut out = Vec::new();
        // Child 9 claims node 5, fresh when the packet arrives.
        nodek.on_deliver(t(3), &beacon_frame(9, 3, 5), &mut out);
        // App packet generated at t=2 arrives at t=4.
        nodek.on_deliver(t(4), &app_frame(1, 0, t(2), vec![n(5)]), &mut out);
        assert_eq!(nodek.stats().received, 1);
        assert_eq!(nodek.stats().forwarded, 1);
        assert_eq!(nodek.stats().delay_sum_ns, 2_000_000_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, Dest::Group(vec![n(9)]));
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut nodek = net(5);
        let mut out = Vec::new();
        nodek.on_deliver(t(4), &app_frame(1, 7, t(2), vec![n(5)]), &mut out);
        nodek.on_deliver(t(5), &app_frame(1, 7, t(2), vec![n(5)]), &mut out);
        assert_eq!(nodek.stats().received, 1);
        assert_eq!(nodek.stats().duplicates, 1);
        assert_eq!(nodek.stats().delay_sum_ns, 2_000_000_000);
    }

    #[test]
    fn unreliable_forwarding_broadcasts() {
        let mut nodek = net(5);
        nodek.set_reliable_forwarding(false);
        let mut out = Vec::new();
        nodek.on_deliver(t(3), &beacon_frame(9, 3, 5), &mut out);
        nodek.on_deliver(t(4), &app_frame(1, 0, t(2), vec![n(5)]), &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].reliable);
        assert_eq!(out[0].dest, Dest::Broadcast);
    }

    #[test]
    fn leaf_does_not_forward() {
        let mut leaf = net(5);
        let mut out = Vec::new();
        leaf.on_deliver(t(4), &app_frame(1, 0, t(2), vec![n(5)]), &mut out);
        assert!(out.is_empty());
        assert_eq!(leaf.stats().leaf_receipts, 1);
        assert_eq!(leaf.stats().received, 1);
    }

    #[test]
    fn garbage_payload_ignored() {
        let mut nodek = net(5);
        let mut out = Vec::new();
        let junk = Frame::data_unreliable(n(1), Dest::Broadcast, Bytes::from_static(b"\xEE"), 0);
        nodek.on_deliver(t(1), &junk, &mut out);
        assert!(out.is_empty());
        assert_eq!(nodek.stats().received, 0);
    }

    #[test]
    fn tokens_are_unique_per_node() {
        let mut a = net(1);
        let mut b = net(2);
        let mut out = Vec::new();
        a.on_beacon_timer(t(1), &mut out);
        a.on_beacon_timer(t(2), &mut out);
        b.on_beacon_timer(t(1), &mut out);
        let tokens: Vec<u64> = out.iter().map(|r| r.token).collect();
        assert_eq!(tokens.len(), 3);
        assert!(tokens[0] != tokens[1] && tokens[1] != tokens[2] && tokens[0] != tokens[2]);
    }
}
