//! Frame formats, addressing and air-time arithmetic.
//!
//! This crate is the shared vocabulary between the PHY substrate, the MAC
//! protocols and the network layer:
//!
//! * [`addr`] — node identifiers and their 6-byte IEEE-style MAC addresses,
//! * [`consts`] — every physical/MAC constant the paper fixes (§2, §3.3),
//! * [`frame`] — the in-simulator frame representation (MRTS, RTS/CTS,
//!   RAK/ACK, NCTS/NAK, data frames) and their lengths,
//! * [`crc`] — a from-scratch CRC-32 (IEEE 802.3), the frame FCS and the
//!   datagram trailer,
//! * [`codec`] — binary encode/decode of frames per the paper's Fig. 3,
//! * [`airtime`] — transmission-delay arithmetic reproducing the paper's §2
//!   numbers (96 µs PHY overhead, 56 µs ACK, ≈ 632·n µs BMMM control cost),
//! * [`datagram`] — the live-transport datagram framing (`rmac-live`):
//!   MAC frames and busy-tone stand-ins as self-describing UDP payloads,
//! * [`json`] — the workspace's one JSON codec: a streaming writer and a
//!   parser (fault plans, trace lines, campaign manifests and stores, fuzz
//!   reproducers, obs artifacts).

pub mod addr;
pub mod airtime;
pub mod codec;
pub mod consts;
pub mod crc;
pub mod datagram;
pub mod frame;
pub mod json;

pub use addr::{Dest, NodeId};
pub use datagram::{
    decode_datagram, decode_header, encode_datagram, Datagram, DatagramError, DgramBody,
    DgramHeader,
};
pub use frame::{Frame, FrameKind};
