//! Property tests for frame encoding and air-time arithmetic (the CRC
//! kernel is checked against a bitwise oracle in `crc.rs`).

use bytes::Bytes;
use proptest::prelude::*;
use rmac_sim::SimTime;
use rmac_wire::airtime::{frame_airtime, mrts_airtime, mrts_len};
use rmac_wire::codec::{decode, encode};
use rmac_wire::consts::{BYTE_TIME, PHY_OVERHEAD};
use rmac_wire::{Dest, Frame, FrameKind, NodeId};

proptest! {
    /// Any MRTS with 1..=20 receivers round-trips bit-exactly through the
    /// Fig. 3 wire format.
    #[test]
    fn mrts_roundtrip(ids in proptest::collection::vec(0u16..1000, 1..=20), src in 0u16..1000) {
        let order: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let f = Frame::mrts(NodeId(src), order.clone());
        let bytes = encode(&f);
        prop_assert_eq!(bytes.len(), mrts_len(order.len()));
        let g = decode(&bytes, NodeId(9999)).unwrap();
        prop_assert_eq!(g.src, NodeId(src));
        prop_assert_eq!(g.order, order);
    }

    /// Data frames round-trip payloads of any content.
    #[test]
    fn data_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..600),
                      src in 0u16..100, dst in 0u16..100, seq in any::<u32>()) {
        let f = Frame::data_unreliable(
            NodeId(src), Dest::Node(NodeId(dst)), Bytes::from(payload.clone()), seq);
        let g = decode(&encode(&f), NodeId(0)).unwrap();
        prop_assert_eq!(g.src, NodeId(src));
        prop_assert_eq!(g.seq, seq);
        prop_assert_eq!(&g.payload[..], &payload[..]);
    }

    /// Flipping any single bit of an encoded frame is detected by the FCS.
    #[test]
    fn single_bit_corruption_detected(
        ids in proptest::collection::vec(0u16..1000, 1..=20),
        byte_sel in any::<u16>(), bit in 0u8..8)
    {
        let order: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let mut bytes = encode(&Frame::mrts(NodeId(1), order)).to_vec();
        let idx = byte_sel as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(decode(&bytes, NodeId(0)).is_err());
    }

    /// Air time is affine in frame length: PHY overhead + 4 µs per byte.
    #[test]
    fn airtime_affine(len in 0usize..4096) {
        let t = frame_airtime(len);
        prop_assert_eq!(t, PHY_OVERHEAD + BYTE_TIME.mul(len as u64));
        prop_assert!(t >= SimTime::from_micros(96));
    }

    /// MRTS air time grows by exactly 24 µs per extra receiver.
    #[test]
    fn mrts_airtime_step(n in 1usize..20) {
        prop_assert_eq!(
            mrts_airtime(n + 1) - mrts_airtime(n),
            SimTime::from_micros(24)
        );
    }

    /// Frame length never depends on NAV or payload for control frames.
    #[test]
    fn control_length_constant(nav_us in 0u64..10_000, src in 0u16..100, dst in 0u16..100) {
        for kind in [FrameKind::Rts, FrameKind::Cts, FrameKind::Rak, FrameKind::Ack] {
            let f = Frame::control(kind, NodeId(src), NodeId(dst), SimTime::from_micros(nav_us));
            let expect = if kind == FrameKind::Rts { 20 } else { 14 };
            prop_assert_eq!(f.length_bytes(), expect);
        }
    }
}

proptest! {
    /// Decoding arbitrary bytes never panics — it returns an error or a
    /// well-formed frame whose re-encoding is itself decodable.
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(frame) = decode(&data, NodeId(0)) {
            let re = encode(&frame);
            prop_assert!(decode(&re, NodeId(0)).is_ok());
        }
    }

    /// Truncating a valid frame at any point yields an error, not a panic
    /// or a silently wrong frame.
    #[test]
    fn truncation_is_an_error(
        ids in proptest::collection::vec(0u16..100, 1..=10),
        cut_sel in any::<u16>())
    {
        let order: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let bytes = encode(&Frame::mrts(NodeId(1), order));
        let cut = 1 + (cut_sel as usize % (bytes.len() - 1));
        prop_assert!(decode(&bytes[..cut], NodeId(0)).is_err());
    }
}
