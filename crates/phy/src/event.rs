//! PHY event and indication types.

use std::sync::Arc;

use rmac_sim::SimTime;
use rmac_wire::{Frame, NodeId};

use crate::tone::Tone;

/// Events the channel schedules for itself. The embedding simulation's
/// event type must implement `From<PhyEvent>` and hand popped events back
/// to [`Channel::handle`](crate::Channel::handle).
///
/// A frame end carries its per-receiver propagation delay, fixed at
/// transmission start, so processing it is O(1) instead of a linear search
/// over the transmission's receiver list. A frame's first bit is a record at
/// its receiver (key and link); the event exists only for a
/// receiver whose MAC declared it can act on the carrier rising.
#[derive(Clone, Debug)]
pub enum PhyEvent {
    /// The first bit of transmission `tx` reaches `rx`, whose MAC asked to
    /// hear of it.
    FrameArriveStart { rx: NodeId, tx: u64 },
    /// The last bit of transmission `tx` reaches `rx` after propagation
    /// delay `prop` (the event's timestamp, `end + prop`, encodes which
    /// truncation generation it belongs to; stale ones are ignored).
    FrameArriveEnd { rx: NodeId, tx: u64, prop: SimTime },
    /// Transmission `tx` leaves the transmitter's antenna completely.
    TxComplete { node: NodeId, tx: u64 },
    /// A tone emission edge (on or off) reaches `rx`.
    ToneEdge {
        rx: NodeId,
        tone: Tone,
        on: bool,
        emit: u64,
    },
}

/// What the channel tells the embedding engine after processing an event.
/// Indications are routed to the named node's MAC entity.
#[derive(Clone, Debug)]
pub enum Indication {
    /// The data channel at `node` transitioned idle → busy (first arriving
    /// signal energy). Raised only for a node whose MAC had declared
    /// interest in the carrier when the frame started, or since.
    CarrierOn { node: NodeId },
    /// The data channel at `node` transitioned busy → idle.
    CarrierOff { node: NodeId },
    /// A frame finished arriving at `node`. `ok` is false if the frame was
    /// corrupted by collision, half-duplex conflict, bit errors, or the
    /// node moving out of range mid-frame.
    ///
    /// The frame is shared (`Arc`) because one transmission fans out to
    /// every in-range receiver. [`Channel::handle`](crate::Channel::handle)
    /// clones the handle per receiver; the engine reads the verdict from
    /// [`Channel::end_frame`](crate::Channel::end_frame) and re-addresses
    /// one `FrameRx` across a transmission's consecutive ends, so the frame
    /// (and its receiver-list `Vec`s) is neither deep-cloned nor
    /// refcounted per receiver.
    FrameRx {
        node: NodeId,
        frame: Arc<Frame>,
        ok: bool,
    },
    /// `node`'s own transmission left the antenna (or was aborted).
    TxDone {
        node: NodeId,
        frame: Arc<Frame>,
        aborted: bool,
    },
    /// Tone presence at `node` changed.
    ToneChanged {
        node: NodeId,
        tone: Tone,
        present: bool,
    },
}

impl Indication {
    /// The node this indication is addressed to.
    pub fn node(&self) -> NodeId {
        match *self {
            Indication::CarrierOn { node }
            | Indication::CarrierOff { node }
            | Indication::FrameRx { node, .. }
            | Indication::TxDone { node, .. }
            | Indication::ToneChanged { node, .. } => node,
        }
    }
}
