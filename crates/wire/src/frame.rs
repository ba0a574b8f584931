//! The in-simulator frame representation.
//!
//! Frames travel through the simulated channel as typed structs (the PHY
//! models their *air time* from their on-the-wire length); the [`codec`]
//! module can also flatten them to real bytes per the paper's Fig. 3 layout.
//!
//! [`codec`]: crate::codec

use bytes::Bytes;
use rmac_sim::SimTime;

use crate::addr::{Dest, NodeId};
use crate::airtime::frame_airtime;
use crate::consts::{ADDR_LEN, DATA_HEADER_LEN, MRTS_FIXED_LEN, RTS_LEN, SHORT_CTRL_LEN};

/// Frame type discriminator (the paper's 1-byte "Frame Type" field).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Multicast Request-To-Send — RMAC's variable-length control frame
    /// carrying the ordered receiver list (Fig. 3).
    Mrts = 1,
    /// 802.11 Request-To-Send (baselines).
    Rts = 2,
    /// 802.11 Clear-To-Send (baselines).
    Cts = 3,
    /// BMMM Request-for-ACK.
    Rak = 4,
    /// 802.11 Acknowledgment (baselines).
    Ack = 5,
    /// LBP Not-Clear-To-Send (negative CTS).
    Ncts = 6,
    /// LBP Negative Acknowledgment.
    Nak = 7,
    /// Data frame sent by a Reliable Send service.
    DataReliable = 8,
    /// Data frame sent by an Unreliable Send service.
    DataUnreliable = 9,
}

impl FrameKind {
    /// How many kinds there are: the length of a per-kind tally.
    pub const COUNT: usize = 9;

    /// The kinds' `Debug` names (the trace schema's `kind` strings), indexed
    /// by [`index`](FrameKind::index).
    pub const LABELS: [&'static str; FrameKind::COUNT] = [
        "Mrts",
        "Rts",
        "Cts",
        "Rak",
        "Ack",
        "Ncts",
        "Nak",
        "DataReliable",
        "DataUnreliable",
    ];

    /// Every kind, in discriminant order.
    pub const ALL: [FrameKind; FrameKind::COUNT] = {
        use FrameKind::*;
        [
            Mrts,
            Rts,
            Cts,
            Rak,
            Ack,
            Ncts,
            Nak,
            DataReliable,
            DataUnreliable,
        ]
    };

    /// Dense 0-based index: this kind's place in [`ALL`](FrameKind::ALL),
    /// in [`LABELS`](FrameKind::LABELS) and in a per-kind tally.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize - 1
    }

    /// Whether this is a control frame (everything except data).
    pub fn is_control(self) -> bool {
        !matches!(self, FrameKind::DataReliable | FrameKind::DataUnreliable)
    }

    /// Whether this is a data frame.
    pub fn is_data(self) -> bool {
        !self.is_control()
    }
}

/// A MAC frame in flight.
///
/// The struct is a superset of all frame layouts; which fields are
/// meaningful depends on [`Frame::kind`]. Constructors enforce the per-kind
/// shape.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitter address.
    pub src: NodeId,
    /// Addressed receiver(s).
    pub dest: Dest,
    /// Ordered receiver list (MRTS only): position i in this list replies
    /// its ABT in slot i.
    pub order: Vec<NodeId>,
    /// Network-allocation-vector duration advertised by 802.11-family
    /// control frames: how long overhearers must defer.
    pub nav: SimTime,
    /// Application payload (data frames only).
    pub payload: Bytes,
    /// MAC-level sequence number (diagnostics and BMW expected-seq logic).
    pub seq: u32,
}

impl Frame {
    /// Build an MRTS with the given ordered receiver list (Fig. 3).
    pub fn mrts(src: NodeId, order: Vec<NodeId>) -> Frame {
        debug_assert!(!order.is_empty(), "MRTS must address at least one receiver");
        Frame {
            kind: FrameKind::Mrts,
            src,
            dest: Dest::Group(order.clone()),
            order,
            nav: SimTime::ZERO,
            payload: Bytes::new(),
            seq: 0,
        }
    }

    /// Build a reliable data frame for the given destination set.
    pub fn data_reliable(src: NodeId, dest: Dest, payload: Bytes, seq: u32) -> Frame {
        Frame {
            kind: FrameKind::DataReliable,
            src,
            dest,
            order: Vec::new(),
            nav: SimTime::ZERO,
            payload,
            seq,
        }
    }

    /// Build an unreliable data frame (§3.3.3).
    pub fn data_unreliable(src: NodeId, dest: Dest, payload: Bytes, seq: u32) -> Frame {
        Frame {
            kind: FrameKind::DataUnreliable,
            src,
            dest,
            order: Vec::new(),
            nav: SimTime::ZERO,
            payload,
            seq,
        }
    }

    /// Build a short control frame (RTS/CTS/RAK/ACK/NCTS/NAK) addressed to a
    /// single node, advertising `nav` to overhearers.
    pub fn control(kind: FrameKind, src: NodeId, target: NodeId, nav: SimTime) -> Frame {
        debug_assert!(kind.is_control() && kind != FrameKind::Mrts);
        Frame {
            kind,
            src,
            dest: Dest::Node(target),
            order: Vec::new(),
            nav,
            payload: Bytes::new(),
            seq: 0,
        }
    }

    /// On-the-wire length in bytes, per the paper's §2 and Fig. 3.
    pub fn length_bytes(&self) -> usize {
        match self.kind {
            FrameKind::Mrts => MRTS_FIXED_LEN + ADDR_LEN * self.order.len(),
            FrameKind::Rts => RTS_LEN,
            FrameKind::Cts | FrameKind::Rak | FrameKind::Ack | FrameKind::Ncts | FrameKind::Nak => {
                SHORT_CTRL_LEN
            }
            FrameKind::DataReliable | FrameKind::DataUnreliable => {
                DATA_HEADER_LEN + self.payload.len()
            }
        }
    }

    /// Total air time of this frame, including the 96 µs PHY overhead.
    pub fn airtime(&self) -> SimTime {
        frame_airtime(self.length_bytes())
    }

    /// Whether `node` is an intended receiver of this frame.
    pub fn addressed_to(&self, node: NodeId) -> bool {
        self.dest.accepts(node)
    }

    /// For an MRTS: the ABT reply slot index of `node` (its position in the
    /// ordered receiver list), if addressed.
    pub fn mrts_slot_of(&self, node: NodeId) -> Option<usize> {
        debug_assert_eq!(self.kind, FrameKind::Mrts);
        self.order.iter().position(|&n| n == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::PAPER_PAYLOAD;
    use rmac_sim::SimTime;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn kind_indices_are_dense_and_labelled() {
        for (i, kind) in FrameKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(FrameKind::LABELS[i], format!("{kind:?}"));
        }
    }

    #[test]
    fn mrts_length_follows_fig3() {
        // 12 fixed bytes + 6 per receiver
        for k in 1..=20 {
            let order: Vec<NodeId> = (0..k as u16).map(n).collect();
            let f = Frame::mrts(n(99), order);
            assert_eq!(f.length_bytes(), 12 + 6 * k);
        }
    }

    #[test]
    fn control_frame_lengths_match_802_11() {
        let rts = Frame::control(FrameKind::Rts, n(0), n(1), SimTime::ZERO);
        assert_eq!(rts.length_bytes(), 20);
        for kind in [
            FrameKind::Cts,
            FrameKind::Rak,
            FrameKind::Ack,
            FrameKind::Ncts,
            FrameKind::Nak,
        ] {
            let f = Frame::control(kind, n(0), n(1), SimTime::ZERO);
            assert_eq!(f.length_bytes(), 14, "{kind:?}");
        }
    }

    #[test]
    fn data_length_is_header_plus_payload() {
        let f = Frame::data_reliable(
            n(0),
            Dest::Group(vec![n(1)]),
            Bytes::from(vec![0u8; PAPER_PAYLOAD]),
            7,
        );
        assert_eq!(f.length_bytes(), 28 + 500);
    }

    #[test]
    fn ack_airtime_reproduces_paper_section_2() {
        // "the transmission of an ACK frame (14 bytes) only takes 56 µs if
        // transmitted at 2 Mb/s" — excluding PHY overhead.
        let ack = Frame::control(FrameKind::Ack, n(0), n(1), SimTime::ZERO);
        let body = ack.airtime() - crate::consts::PHY_OVERHEAD;
        assert_eq!(body, SimTime::from_micros(56));
    }

    #[test]
    fn mrts_slot_order() {
        let f = Frame::mrts(n(9), vec![n(4), n(2), n(7)]);
        assert_eq!(f.mrts_slot_of(n(4)), Some(0));
        assert_eq!(f.mrts_slot_of(n(2)), Some(1));
        assert_eq!(f.mrts_slot_of(n(7)), Some(2));
        assert_eq!(f.mrts_slot_of(n(5)), None);
        assert!(f.addressed_to(n(2)));
        assert!(!f.addressed_to(n(5)));
    }

    #[test]
    fn kind_classification() {
        assert!(FrameKind::Mrts.is_control());
        assert!(FrameKind::Ack.is_control());
        assert!(FrameKind::DataReliable.is_data());
        assert!(FrameKind::DataUnreliable.is_data());
    }
}
