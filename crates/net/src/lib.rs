//! Network layer: BLESS-lite tree routing and the multicast application.
//!
//! The paper's evaluation (§4.1.1) runs a multicast application that
//! forwards packets along a single-source tree to all 75 nodes, the tree
//! being maintained by "a simplified version of the BLESS protocol" whose
//! only operation is *a periodical one-hop broadcast of routing messages*
//! (sent with the MAC's Unreliable Send). This crate implements exactly
//! that:
//!
//! * [`bless`] — the tree protocol: node 0 is the root; every node
//!   periodically broadcasts a beacon `(hops-to-root, parent)`; a node's
//!   parent is the fresh neighbor advertising the fewest hops, and a
//!   node's children are the neighbors whose beacons claim it as parent.
//! * [`app`] — the multicast source/forwarder: the root generates fixed-
//!   size packets at a configured rate; every node that receives a new
//!   packet forwards it to its current children with the MAC's Reliable
//!   Send (multicast mode). Duplicates (possible after a missed ABT or a
//!   topology change) are suppressed by packet id, held as a low-water
//!   mark plus a bitset of the ids above it.
//! * [`payload`] — the on-wire encoding of beacons and application
//!   packets (consuming `rmac-wire`'s byte conventions).

pub mod app;
pub mod bless;
pub mod payload;
mod seen;

pub use app::{AppStats, NetLayer};
pub use bless::{BlessConfig, BlessState};
pub use payload::NetPayload;
