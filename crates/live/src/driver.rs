//! [`Driver`]: the backend-independent loop gluing a [`LiveNode`] to any
//! [`Transport`].
//!
//! One pump iteration is the loop from the [`crate::transport`] docs:
//! sleep until the node's next timer (or a bounded idle slice), drain
//! arrivals — the node fires the timers due before each arrival's
//! timestamp first — then advance to transport time and flush whatever the
//! MAC produced. The same driver runs over the loopback hub in virtual time
//! and over UDP sockets in (scaled) wall time; only the transport differs.

use rmac_core::TxRequest;
use rmac_sim::SimTime;

use crate::node::{LiveNode, OutDgram};
use crate::transport::{Transport, TransportError};

/// How long to wait for traffic when the node has no pending timer.
const IDLE_SLICE: SimTime = SimTime::from_millis(1);

/// A live endpoint: one MAC entity bound to one transport.
pub struct Driver<T: Transport> {
    node: LiveNode,
    transport: T,
}

impl<T: Transport> Driver<T> {
    /// Bind `node` to `transport`. The node's id must match the
    /// transport's endpoint.
    pub fn new(node: LiveNode, transport: T) -> Driver<T> {
        assert_eq!(node.id(), transport.local(), "node/transport id mismatch");
        Driver { node, transport }
    }

    /// The MAC entity (counters, deliveries, outcomes).
    pub fn node(&self) -> &LiveNode {
        &self.node
    }

    /// Mutable MAC access (drain deliveries/outcomes between pumps).
    pub fn node_mut(&mut self) -> &mut LiveNode {
        &mut self.node
    }

    /// The transport (peer tables, clock).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Submit an upper-layer transmit request at the current transport
    /// time and send whatever the MAC emitted.
    pub fn submit(&mut self, req: TxRequest) -> Result<(), TransportError> {
        self.node.advance(self.transport.now());
        self.node.submit(req);
        self.flush()
    }

    /// Send everything in the node's outbox.
    fn flush(&mut self) -> Result<(), TransportError> {
        for (_, out) in self.node.take_outbox() {
            match out {
                OutDgram::Data(bytes) => self.transport.send_data(&bytes)?,
                OutDgram::Ctrl(to, bytes) => self.transport.send_ctrl(to, &bytes)?,
            }
        }
        Ok(())
    }

    /// One driver iteration: wait for the next timer or for traffic,
    /// process both, flush. Returns the transport time afterwards.
    pub fn pump(&mut self) -> Result<SimTime, TransportError> {
        let deadline = self
            .node
            .next_deadline()
            .unwrap_or(self.transport.now() + IDLE_SLICE);
        self.transport.wait_until(deadline)?;
        while let Some(inc) = self.transport.poll()? {
            self.node.on_datagram(&inc);
            self.flush()?;
        }
        let now = self.transport.now();
        self.node.advance(now);
        self.flush()?;
        Ok(now)
    }

    /// Pump until `done(node)` holds or `deadline` passes. Returns `true`
    /// if the predicate was met.
    pub fn pump_until(
        &mut self,
        deadline: SimTime,
        mut done: impl FnMut(&LiveNode) -> bool,
    ) -> Result<bool, TransportError> {
        while !done(&self.node) {
            if self.pump()? >= deadline {
                return Ok(done(&self.node));
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{HubConfig, SimEndpoint};
    use crate::node::LiveConfig;
    use bytes::Bytes;
    use rmac_core::TxOutcome;
    use rmac_wire::{Dest, NodeId};

    /// The generic driver reproduces a full reliable exchange over the
    /// virtual-time loopback backend: this is the same loop `live_demo`
    /// runs over UDP.
    #[test]
    fn driver_loop_over_sim_endpoints() {
        let ids = [NodeId(1), NodeId(2)];
        let (hub, mut eps) = SimEndpoint::mesh(&ids, HubConfig::default());
        let rx_ep = eps.pop().unwrap();
        let tx_ep = eps.pop().unwrap();
        let mk = |id: NodeId| {
            LiveNode::new(
                id,
                LiveConfig {
                    neighbors: ids.iter().copied().filter(|&o| o != id).collect(),
                    seed: 100 + u64::from(id.0),
                    ..LiveConfig::default()
                },
            )
        };
        let mut tx = Driver::new(mk(NodeId(1)), tx_ep);
        let mut rx = Driver::new(mk(NodeId(2)), rx_ep);
        tx.submit(TxRequest {
            reliable: true,
            dest: Dest::Group(vec![NodeId(2)]),
            payload: Bytes::from(vec![7u8; 64]),
            token: 9,
        })
        .unwrap();
        // Real deployments pump each driver from its own thread, so
        // wall time never runs ahead of a peer's pending reply. To get
        // the same property single-threaded over the *shared* virtual
        // clock, pump whichever driver has the globally earliest pending
        // event (its next timer or a datagram already in flight to it) —
        // otherwise one node's idle slice drags the clock past the
        // other's microsecond tone windows.
        let next_for = |d: &Driver<SimEndpoint>| {
            let arrival = hub.borrow().next_arrival_for(d.node().id());
            [d.node().next_deadline(), arrival]
                .into_iter()
                .flatten()
                .min()
        };
        let deadline = SimTime::from_millis(100);
        let mut outcomes = Vec::new();
        while outcomes.is_empty() {
            let pump_tx = match (next_for(&tx), next_for(&rx)) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if pump_tx {
                tx.pump().unwrap();
            } else {
                rx.pump().unwrap();
            }
            outcomes = tx.node_mut().take_outcomes();
            assert!(
                tx.transport().now() < deadline,
                "exchange did not complete in 100 ms of virtual time"
            );
        }
        let (9, TxOutcome::Reliable { delivered, failed }) = &outcomes[0] else {
            panic!("unexpected outcome {outcomes:?}");
        };
        assert_eq!(delivered, &vec![NodeId(2)]);
        assert!(failed.is_empty());
        let got = rx.node_mut().take_delivered();
        assert_eq!(got.len(), 1, "exactly one delivery on a clean exchange");
        assert_eq!(got[0].1.payload.as_ref(), &[7u8; 64][..]);
    }

    /// Outcomes survive in the node until drained.
    #[test]
    fn outcome_is_observable_after_pump_until() {
        let ids = [NodeId(1), NodeId(2)];
        let (_, mut eps) = SimEndpoint::mesh(&ids, HubConfig::default());
        let rx_ep = eps.pop().unwrap();
        let tx_ep = eps.pop().unwrap();
        let cfg = |peer: u16| LiveConfig {
            neighbors: vec![NodeId(peer)],
            ..LiveConfig::default()
        };
        let mut tx = Driver::new(LiveNode::new(NodeId(1), cfg(2)), tx_ep);
        let mut rx = Driver::new(LiveNode::new(NodeId(2), cfg(1)), rx_ep);
        tx.submit(TxRequest {
            reliable: false,
            dest: Dest::Broadcast,
            payload: Bytes::from_static(b"fire and forget"),
            token: 1,
        })
        .unwrap();
        let deadline = SimTime::from_millis(50);
        loop {
            tx.pump().unwrap();
            rx.pump().unwrap();
            let outcomes = tx.node_mut().take_outcomes();
            if !outcomes.is_empty() {
                assert!(matches!(outcomes[0], (1, TxOutcome::Sent)));
                break;
            }
            assert!(tx.transport().now() < deadline, "broadcast never finished");
        }
    }
}
