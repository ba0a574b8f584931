//! [`Driver`]: the loop gluing a [`LiveNode`] to a [`UdpTransport`], one
//! per endpoint thread.
//!
//! One pump iteration:
//!
//! ```text
//! wait_until(node.next_deadline());             // or a bounded idle slice
//! while let Some(inc) = poll()? { node.on_datagram(&inc); flush(); }
//! node.advance(now());
//! flush();                                      // send_data / send_ctrl
//! ```
//!
//! The node fires the timers due before each arrival's timestamp first, so
//! an arrival stamped by the reader thread is seen at its own instant. The
//! in-process backend has its own driver, [`LoopbackRunner`](crate::LoopbackRunner),
//! which interleaves every node of the mesh in exact virtual-time order.

use rmac_core::TxRequest;
use rmac_sim::SimTime;

use crate::node::LiveNode;
use crate::transport::{OutDgram, TransportError};
use crate::udp::UdpTransport;

/// How long to wait for traffic when the node has no pending timer.
const IDLE_SLICE: SimTime = SimTime::from_millis(1);

/// A live endpoint: one MAC entity bound to one UDP transport.
pub struct Driver {
    node: LiveNode,
    transport: UdpTransport,
}

impl Driver {
    /// Bind `node` to `transport`. The node's id must match the
    /// transport's endpoint.
    pub fn new(node: LiveNode, transport: UdpTransport) -> Driver {
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
    pub fn transport(&self) -> &UdpTransport {
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
        for (_, out) in self.node.drain_outbox() {
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
