//! [`LoopbackRunner`]: a deterministic coordinator for a mesh of
//! [`LiveNode`]s over a [`LoopbackHub`].
//!
//! Real deployments have one driver thread per endpoint; in-process we can
//! do better and interleave all endpoints in exact virtual-time order,
//! which is what makes loopback runs reproducible: each step picks the
//! globally earliest pending event time (a node timer or a datagram
//! arrival), fires every timer due at it (node order), delivers every
//! arrival due at it (send order), then forwards the produced datagrams to
//! the hub. Same seeds, same submission schedule ⇒ identical runs, event
//! for event — the property `tests/live_determinism.rs` pins down.

use rmac_core::TxRequest;
use rmac_sim::SimTime;
use rmac_wire::NodeId;

use crate::hub::{HubConfig, LoopbackHub};
use crate::node::{LiveConfig, LiveNode};

/// Drives N live nodes over the loopback hub in virtual time.
pub struct LoopbackRunner {
    nodes: Vec<LiveNode>,
    hub: LoopbackHub,
    clock: SimTime,
    steps: u64,
}

impl LoopbackRunner {
    /// Build a mesh: one node per `(id, config)`, all connected to a fresh
    /// hub.
    pub fn new(configs: Vec<(NodeId, LiveConfig)>, hub_cfg: HubConfig) -> LoopbackRunner {
        let ids: Vec<NodeId> = configs.iter().map(|&(id, _)| id).collect();
        LoopbackRunner {
            nodes: configs
                .into_iter()
                .map(|(id, cfg)| LiveNode::new(id, cfg))
                .collect(),
            hub: LoopbackHub::new(&ids, hub_cfg),
            clock: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The underlying hub (latency/loss accounting).
    pub fn hub(&self) -> &LoopbackHub {
        &self.hub
    }

    /// All nodes, in construction order.
    pub fn nodes(&self) -> &[LiveNode] {
        &self.nodes
    }

    /// All nodes, mutably, in construction order (drain every node's
    /// deliveries in one pass).
    pub fn nodes_mut(&mut self) -> &mut [LiveNode] {
        &mut self.nodes
    }

    fn index_of(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id() == id)
            .expect("unknown node id")
    }

    /// Immutable access to one node.
    pub fn node(&self, id: NodeId) -> &LiveNode {
        &self.nodes[self.index_of(id)]
    }

    /// Mutable access to one node (drain deliveries/outcomes).
    pub fn node_mut(&mut self, id: NodeId) -> &mut LiveNode {
        let i = self.index_of(id);
        &mut self.nodes[i]
    }

    /// Submit an upper-layer transmit request to `id` at the current
    /// virtual time.
    pub fn submit(&mut self, id: NodeId, req: TxRequest) {
        let clock = self.clock;
        let i = self.index_of(id);
        self.nodes[i].advance(clock);
        self.nodes[i].submit(req);
        self.flush(i);
    }

    /// Hand one node's produced datagrams to the hub, buffers and all.
    fn flush(&mut self, i: usize) {
        let id = self.nodes[i].id();
        for (at, out) in self.nodes[i].drain_outbox() {
            self.hub.send(id, at, out);
        }
    }

    /// Execute the next event instant. Returns `false` when nothing is
    /// pending anywhere (the mesh is idle).
    pub fn step(&mut self) -> bool {
        let timers = self.nodes.iter().filter_map(|n| n.next_deadline()).min();
        let arrivals = self.hub.next_arrival();
        let t = match [timers, arrivals].into_iter().flatten().min() {
            Some(t) => t,
            None => return false,
        };
        debug_assert!(t >= self.clock, "time went backwards");
        // Timers due at t fire first, in node order…
        for node in &mut self.nodes {
            node.advance(t);
        }
        // …then arrivals due at t, in send order.
        while let Some((dest, inc)) = self.hub.pop_due(t) {
            let i = self.index_of(dest);
            self.nodes[i].on_datagram(&inc);
        }
        for i in 0..self.nodes.len() {
            self.flush(i);
        }
        self.clock = t;
        self.steps += 1;
        true
    }

    /// Run until the mesh goes idle or `max_steps` steps have run. Returns
    /// `true` if idle was reached.
    pub fn run_until_idle(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if !self.step() {
                return true;
            }
        }
        self.idle()
    }

    /// Nothing pending anywhere: no node timer, nothing in flight.
    fn idle(&self) -> bool {
        self.hub.in_flight() == 0 && self.nodes.iter().all(|n| n.next_deadline().is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rmac_core::TxOutcome;
    use rmac_faults::BurstySpec;
    use rmac_wire::consts::PAPER_PAYLOAD;
    use rmac_wire::Dest;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn mesh(ids: &[u16], hub: HubConfig) -> LoopbackRunner {
        let configs = ids
            .iter()
            .map(|&i| {
                (
                    n(i),
                    LiveConfig {
                        neighbors: ids.iter().filter(|&&o| o != i).map(|&o| n(o)).collect(),
                        seed: 1_000 + u64::from(i),
                    },
                )
            })
            .collect();
        LoopbackRunner::new(configs, hub)
    }

    /// One publisher, two subscribers, lossless: a reliable group send
    /// reaches both and the publisher learns it.
    #[test]
    fn reliable_multicast_reaches_the_group() {
        let mut r = mesh(&[1, 2, 3], HubConfig::default());
        r.submit(
            n(1),
            TxRequest {
                reliable: true,
                dest: Dest::Group(vec![n(2), n(3)]),
                payload: Bytes::from(vec![9u8; PAPER_PAYLOAD]),
                token: 5,
            },
        );
        assert!(r.run_until_idle(1_000_000), "mesh must quiesce");
        for sub in [n(2), n(3)] {
            let d = r.node_mut(sub).take_delivered();
            assert_eq!(d.len(), 1, "{sub:?} must deliver");
        }
        let outcomes = r.node_mut(n(1)).take_outcomes();
        match &outcomes[..] {
            [(5, TxOutcome::Reliable { delivered, failed })] => {
                let mut d = delivered.clone();
                d.sort();
                assert_eq!(d, vec![n(2), n(3)]);
                assert!(failed.is_empty());
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    /// `run_until_idle(k)` runs at most `k` steps and answers idleness
    /// without stepping.
    #[test]
    fn run_until_idle_runs_at_most_max_steps() {
        let submitted = || {
            let mut r = mesh(&[1, 2, 3], HubConfig::default());
            r.submit(
                n(1),
                TxRequest {
                    reliable: true,
                    dest: Dest::Group(vec![n(2), n(3)]),
                    payload: Bytes::from(vec![1u8; 100]),
                    token: 1,
                },
            );
            r
        };
        let mut whole = submitted();
        assert!(whole.run_until_idle(1_000_000), "mesh must quiesce");
        let total = whole.steps();
        assert!(total > 2, "{total} steps");

        let mut r = submitted();
        assert!(!r.run_until_idle(0), "a submit leaves work pending");
        assert_eq!(r.steps(), 0, "run_until_idle(0) must not step");
        assert!(!r.run_until_idle(1));
        assert_eq!(r.steps(), 1);
        assert!(!r.run_until_idle(total - 2), "one instant is still pending");
        assert_eq!(r.steps(), total - 1);
        assert!(r.run_until_idle(1), "the last step leaves the mesh idle");
        assert_eq!(r.steps(), total);
        assert!(r.run_until_idle(0) && r.run_until_idle(3));
        assert_eq!(r.steps(), total, "an idle mesh takes no steps");
    }

    /// Two publishers contending for the channel still both complete
    /// (backoff resolves the collision domain).
    #[test]
    fn contending_publishers_both_complete() {
        let mut r = mesh(&[1, 2, 3], HubConfig::default());
        for (publisher, token) in [(n(1), 10u64), (n(2), 20u64)] {
            r.submit(
                publisher,
                TxRequest {
                    reliable: true,
                    dest: Dest::Group(vec![n(3)]),
                    payload: Bytes::from(vec![3u8; 100]),
                    token,
                },
            );
        }
        assert!(r.run_until_idle(2_000_000));
        let delivered = r.node_mut(n(3)).take_delivered();
        assert_eq!(delivered.len(), 2, "subscriber hears both publishers");
        for publisher in [n(1), n(2)] {
            let outcomes = r.node_mut(publisher).take_outcomes();
            assert_eq!(outcomes.len(), 1);
            let (_, TxOutcome::Reliable { delivered, .. }) = &outcomes[0] else {
                panic!("expected reliable outcome");
            };
            assert_eq!(delivered, &vec![n(3)]);
        }
    }

    /// Under data-channel loss the MAC's retry machinery recovers:
    /// delivery still happens, with retransmissions > 0 across enough
    /// packets.
    #[test]
    fn loss_is_survived_by_retries() {
        let lossy = HubConfig {
            loss: Some(BurstySpec {
                mean_good_ms: 0.5,
                mean_bad_ms: 0.5,
                loss_good: 0.05,
                loss_bad: 0.8,
            }),
            seed: 77,
        };
        let mut r = mesh(&[1, 2], lossy);
        let mut completed = 0u32;
        for k in 0..30u64 {
            r.submit(
                n(1),
                TxRequest {
                    reliable: true,
                    dest: Dest::Group(vec![n(2)]),
                    payload: Bytes::from(vec![k as u8; 200]),
                    token: k,
                },
            );
            assert!(r.run_until_idle(2_000_000));
            completed += u32::try_from(r.node_mut(n(1)).take_outcomes().len()).unwrap();
        }
        assert_eq!(completed, 30, "every request must conclude");
        let tx = r.node(n(1));
        assert!(
            tx.counters().retransmissions > 0,
            "an 80%-bad-state plan must force retries"
        );
    }

    /// The whole mesh is deterministic: same seeds and schedule give
    /// identical stats, counters and step counts.
    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let lossy = HubConfig {
                loss: Some(BurstySpec::moderate()),
                seed: 42,
            };
            let mut r = mesh(&[1, 2, 3], lossy);
            for k in 0..10u64 {
                r.submit(
                    n(1),
                    TxRequest {
                        reliable: true,
                        dest: Dest::Group(vec![n(2), n(3)]),
                        payload: Bytes::from(vec![k as u8; 64]),
                        token: k,
                    },
                );
                r.run_until_idle(2_000_000);
            }
            (
                r.steps(),
                r.now(),
                r.hub().stats().clone(),
                r.node(n(1)).counters().retransmissions,
                r.node(n(1)).stats().clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
