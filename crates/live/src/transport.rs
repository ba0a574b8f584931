//! The [`Transport`] trait: what a live RMAC endpoint needs from the world.
//!
//! A transport is two datagram channels plus a MAC-time clock:
//!
//! * the **data channel** carries wire-encoded MAC frames to *everyone*
//!   (UDP multicast on the live backend, the hub's broadcast fan-out on
//!   the loopback shim);
//! * the **control channel** carries short unicast datagrams to one named
//!   peer — the busy-tone stand-ins and the session handshake.
//!
//! The trait is deliberately sans-select: [`Transport::poll`] never
//! blocks, [`Transport::wait_until`] blocks at most until a MAC-time
//! deadline (the caller's next timer). A driver loop is then backend
//! independent:
//!
//! ```text
//! loop {
//!     wait_until(node.next_deadline());
//!     while let Some(inc) = poll()? { node.on_datagram(...); }
//!     node.advance(now());
//!     flush node's outbox via send_data / send_ctrl;
//! }
//! ```

use rmac_sim::SimTime;
use rmac_wire::NodeId;

/// Which of the two channels a datagram traveled on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DgramChannel {
    /// The multicast data channel (wire-encoded MAC frames).
    Data,
    /// The unicast control channel (tones, handshake).
    Ctrl,
}

/// A received datagram, timestamped in MAC time at *arrival* — the live
/// protocol treats this as the first bit of the underlying frame.
#[derive(Clone, Debug)]
pub struct Incoming {
    /// Arrival time on the transport's clock.
    pub at: SimTime,
    /// Channel it arrived on.
    pub channel: DgramChannel,
    /// Raw bytes (a [`rmac_wire::datagram`] encoding).
    pub bytes: Vec<u8>,
    /// The sender's socket address, when the backend knows one (UDP).
    /// Drivers use it to learn control-channel peers from handshakes.
    pub peer: Option<std::net::SocketAddr>,
    /// The backend's loss model faded this copy: the energy is on the air
    /// (carrier rises, overlapping receptions still collide) but the
    /// payload is undecodable. A fade that *vanished* the datagram instead
    /// would give the receiver neither carrier nor interference — a radio
    /// impossibility that lets two senders transmit blind and lets a
    /// receiver cleanly capture one of two overlapping frames, which is
    /// exactly the asymmetry RMAC's anonymous tone windows cannot survive.
    /// Real UDP backends never set this (a failed checksum drops the
    /// datagram in the kernel); the virtual hub does.
    pub corrupt: bool,
}

/// Transport failures.
#[derive(Debug)]
pub enum TransportError {
    /// A control datagram was addressed to a node with no known address.
    UnknownPeer(NodeId),
    /// An OS-level socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(n) => write!(f, "no control address for {n:?}"),
            TransportError::Io(e) => write!(f, "transport I/O: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A live RMAC endpoint's view of the world.
pub trait Transport {
    /// This endpoint's node id.
    fn local(&self) -> NodeId;

    /// Current MAC time on this transport's clock (monotone).
    fn now(&self) -> SimTime;

    /// Send `bytes` on the data channel (reaches every other endpoint).
    fn send_data(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Send `bytes` on the control channel to `to`.
    fn send_ctrl(&mut self, to: NodeId, bytes: &[u8]) -> Result<(), TransportError>;

    /// Non-blocking receive: the next datagram already available, if any.
    fn poll(&mut self) -> Result<Option<Incoming>, TransportError>;

    /// Block until MAC time `deadline` is reached *or* traffic arrives,
    /// whichever is first (returning early on traffic is allowed but not
    /// required; returning exactly at the deadline always is). Virtual
    /// backends advance their clock here instead of sleeping.
    fn wait_until(&mut self, deadline: SimTime) -> Result<(), TransportError>;
}
