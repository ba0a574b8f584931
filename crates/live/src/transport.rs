//! The datagram vocabulary both backends share: what a live RMAC endpoint
//! sends and receives.
//!
//! An endpoint talks over two datagram channels:
//!
//! * the **data channel** carries wire-encoded MAC frames to *everyone*
//!   (unicast fan-out to every known peer on [`UdpTransport`](crate::UdpTransport),
//!   the broadcast fan-out of the in-process [`LoopbackHub`](crate::LoopbackHub));
//! * the **control channel** carries short unicast datagrams to one named
//!   peer — the busy-tone stand-ins and the abort markers.
//!
//! Both backends hand a [`LiveNode`](crate::LiveNode) the same [`Incoming`]
//! arrivals and take the same [`OutDgram`]s from it; each has its one
//! driver — [`LoopbackRunner`](crate::LoopbackRunner) in virtual time,
//! [`Driver`](crate::Driver) over sockets.

use rmac_sim::SimTime;
use rmac_wire::NodeId;

/// Which of the two channels a datagram traveled on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DgramChannel {
    /// The data channel to everyone (wire-encoded MAC frames).
    Data,
    /// The unicast control channel (tones, abort markers).
    Ctrl,
}

/// An outbound datagram produced by a node, for the driver to hand to its
/// network (the hub or the UDP sockets). A buffer is owned so that the hub
/// can keep it as the copy in flight.
#[derive(Clone, Debug)]
pub enum OutDgram {
    /// Broadcast on the data channel.
    Data(Vec<u8>),
    /// Unicast on the control channel.
    Ctrl(NodeId, Vec<u8>),
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
