//! Live-transport datagram framing (the `rmac-live` wire format).
//!
//! The live backend runs the unmodified RMAC core over real sockets: MAC
//! frames travel on the *data* channel, fanned out by unicast to every
//! known peer, and the narrow-band busy tones — physical sinusoids in the
//! paper — become short out-of-band *control* datagrams to one peer each
//! (after PDXostc RMC's split of data and per-subscriber control).
//!
//! Every datagram, on either channel, wears the same 12-byte header:
//!
//! ```text
//! magic(2)=0x524C  version(1)=1  kind(1)  src(2)  reserved(2)  counter(4)
//! ```
//!
//! followed by a kind-specific body and a CRC-32 trailer over header+body
//! (same polynomial as the frame FCS). `src` is the sender's [`NodeId`];
//! `counter` is a per-sender datagram sequence number used only for loss
//! accounting and diagnostics — protocol correctness never depends on it.
//!
//! Body layouts:
//!
//! | kind | name | body |
//! |------|----------|-------------------------------------------|
//! | 1 | Frame | a [`codec`]-encoded MAC frame (opaque here) |
//! | 2 | Tone | tone(1) ∈ {0=RBT, 1=ABT}, on(1) ∈ {0, 1} |
//! | 6 | Abort | counter(4) of the aborted `Frame` datagram |
//!
//! `Tone` datagrams are the busy-tone stand-ins (§3.2): a receiver raising
//! its RBT sends `Tone{RBT, on}` to every neighbor (a tone is heard by all
//! in range), and lowers it with `Tone{RBT, off}`; the 17 µs ABT reply
//! becomes an on/off pair in the receiver's MRTS-assigned slot. `Abort`
//! retracts a frame the radio would have truncated: a datagram, once sent,
//! arrives whole, so a sender that aborts mid-"transmission" (RBT sensed
//! during its MRTS) follows up with `Abort{counter}` and receivers treat
//! the named frame as corrupt. Kinds 3–5 are unassigned: any other kind
//! byte is [`DatagramError::UnknownKind`].
//!
//! [`codec`]: crate::codec

use bytes::Bytes;

use crate::addr::NodeId;
use crate::crc::crc32;

/// Magic tag opening every live datagram: "RL".
pub const DGRAM_MAGIC: u16 = 0x524C;

/// Current live wire-format version.
pub const DGRAM_VERSION: u8 = 1;

/// Header length in bytes (before the body).
pub const DGRAM_HEADER_LEN: usize = 12;

/// CRC-32 trailer length.
pub const DGRAM_CRC_LEN: usize = 4;

/// Wire value for the Receiver Busy Tone in a `Tone` body.
pub const DGRAM_TONE_RBT: u8 = 0;

/// Wire value for the Acknowledgment Busy Tone in a `Tone` body.
pub const DGRAM_TONE_ABT: u8 = 1;

/// A decoded live datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node.
    pub src: NodeId,
    /// Per-sender datagram counter (diagnostics only).
    pub counter: u32,
    /// The kind-specific payload.
    pub body: DgramBody,
}

/// The kind-specific part of a [`Datagram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgramBody {
    /// A [`codec`](crate::codec)-encoded MAC frame (data channel). Kept
    /// opaque here: the receiver decodes it with the header's `src` as the
    /// implicit transmitter, exactly like the simulator's PHY hands the
    /// codec its link-layer source.
    Frame(Bytes),
    /// A busy-tone edge (control channel): `tone` ∈ {[`DGRAM_TONE_RBT`],
    /// [`DGRAM_TONE_ABT`]}.
    Tone {
        /// Which tone channel.
        tone: u8,
        /// Rising (`true`) or falling (`false`) edge.
        on: bool,
    },
    /// Retraction of an earlier `Frame` datagram from the same sender: the
    /// transmission was aborted mid-air (the radio would have truncated
    /// it), so receivers must treat the frame carried by the sender's
    /// datagram `counter` as corrupt if its reception is still pending.
    Abort {
        /// `counter` of the retracted `Frame` datagram.
        counter: u32,
    },
}

impl DgramBody {
    fn kind_byte(&self) -> u8 {
        match self {
            DgramBody::Frame(_) => 1,
            DgramBody::Tone { .. } => 2,
            DgramBody::Abort { .. } => 6,
        }
    }
}

/// Decode failures. Mirrors [`CodecError`](crate::codec::CodecError): a
/// typed rejection, never a panic or a silently wrong datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatagramError {
    /// Fewer bytes than the announced layout requires.
    Truncated,
    /// The first two bytes are not [`DGRAM_MAGIC`].
    BadMagic(u16),
    /// Unsupported wire-format version.
    BadVersion(u8),
    /// CRC-32 trailer mismatch.
    BadCrc {
        /// CRC computed over the received header+body.
        expected: u32,
        /// CRC carried in the trailer.
        actual: u32,
    },
    /// Unknown datagram kind byte.
    UnknownKind(u8),
    /// A `Tone` body naming a tone channel that does not exist, or an
    /// on/off flag that is neither 0 nor 1.
    BadTone(u8),
    /// The body is longer than its fixed-size kind allows.
    TrailingBytes(usize),
}

impl std::fmt::Display for DatagramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatagramError::Truncated => write!(f, "datagram truncated"),
            DatagramError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            DatagramError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DatagramError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "CRC mismatch: computed {expected:#010x}, trailer {actual:#010x}"
                )
            }
            DatagramError::UnknownKind(k) => write!(f, "unknown datagram kind {k}"),
            DatagramError::BadTone(t) => write!(f, "bad tone field {t}"),
            DatagramError::TrailingBytes(n) => write!(f, "{n} trailing bytes after body"),
        }
    }
}

impl std::error::Error for DatagramError {}

/// Encode a datagram: header, body, CRC-32 trailer.
pub fn encode_datagram(d: &Datagram) -> Vec<u8> {
    let body_len = match &d.body {
        DgramBody::Frame(b) => b.len(),
        DgramBody::Tone { .. } => 2,
        DgramBody::Abort { .. } => 4,
    };
    let mut out = Vec::with_capacity(DGRAM_HEADER_LEN + body_len + DGRAM_CRC_LEN);
    out.extend_from_slice(&DGRAM_MAGIC.to_be_bytes());
    out.push(DGRAM_VERSION);
    out.push(d.body.kind_byte());
    out.extend_from_slice(&d.src.0.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(&d.counter.to_be_bytes());
    match &d.body {
        DgramBody::Frame(b) => out.extend_from_slice(b),
        DgramBody::Tone { tone, on } => {
            debug_assert!(*tone == DGRAM_TONE_RBT || *tone == DGRAM_TONE_ABT);
            out.push(*tone);
            out.push(u8::from(*on));
        }
        DgramBody::Abort { counter } => out.extend_from_slice(&counter.to_be_bytes()),
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

fn be_u16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// What a datagram's header says: see [`decode_header`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DgramHeader {
    /// Sending node.
    pub src: NodeId,
    /// The sender's datagram counter.
    pub counter: u32,
    /// Whether the body is a `Frame`, the one data-channel kind.
    pub frame: bool,
}

/// Read a datagram's header once its magic, version, CRC and kind check
/// out — [`decode_datagram`]'s checks but the body's layout, with no copy
/// of the body.
pub fn decode_header(data: &[u8]) -> Result<DgramHeader, DatagramError> {
    let covered = checked(data)?;
    match covered[3] {
        1 | 2 | 6 => Ok(DgramHeader {
            src: NodeId(be_u16(&covered[4..6])),
            counter: be_u32(&covered[8..12]),
            frame: covered[3] == 1,
        }),
        other => Err(DatagramError::UnknownKind(other)),
    }
}

/// Header and body, once length, magic, version and CRC check out (in
/// that order: a foreign packet reports `BadMagic`, not a CRC accident).
fn checked(data: &[u8]) -> Result<&[u8], DatagramError> {
    if data.len() < DGRAM_HEADER_LEN + DGRAM_CRC_LEN {
        return Err(DatagramError::Truncated);
    }
    let magic = be_u16(&data[0..2]);
    if magic != DGRAM_MAGIC {
        return Err(DatagramError::BadMagic(magic));
    }
    if data[2] != DGRAM_VERSION {
        return Err(DatagramError::BadVersion(data[2]));
    }
    let (covered, trailer) = data.split_at(data.len() - DGRAM_CRC_LEN);
    let expected = crc32(covered);
    let actual = be_u32(trailer);
    if expected != actual {
        return Err(DatagramError::BadCrc { expected, actual });
    }
    Ok(covered)
}

/// Decode a datagram, validating magic, version, CRC and layout in that
/// order (a foreign packet reports `BadMagic`, not a CRC accident).
pub fn decode_datagram(data: &[u8]) -> Result<Datagram, DatagramError> {
    let h = decode_header(data)?;
    let body = match h.frame {
        true => DgramBody::Frame(Bytes::copy_from_slice(h.body(data))),
        false => h.control_body(data)?,
    };
    Ok(Datagram {
        src: h.src,
        counter: h.counter,
        body,
    })
}

impl DgramHeader {
    /// The body of `data`, the datagram this header was read from, where
    /// it lies: a `Frame`'s encoded frame.
    pub fn body<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[DGRAM_HEADER_LEN..data.len() - DGRAM_CRC_LEN]
    }

    /// The parsed body of `data`, the `Tone` or `Abort` datagram this
    /// header was read from: its layout checked, its CRC not read again.
    pub fn control_body(&self, data: &[u8]) -> Result<DgramBody, DatagramError> {
        let body = self.body(data);
        let sized = |n: usize| match body.len() {
            len if len < n => Err(DatagramError::Truncated),
            len if len > n => Err(DatagramError::TrailingBytes(len - n)),
            _ => Ok(body),
        };
        match data[3] {
            2 => {
                let body = sized(2)?;
                let tone = body[0];
                if tone != DGRAM_TONE_RBT && tone != DGRAM_TONE_ABT {
                    return Err(DatagramError::BadTone(tone));
                }
                let on = match body[1] {
                    0 => false,
                    1 => true,
                    other => return Err(DatagramError::BadTone(other)),
                };
                Ok(DgramBody::Tone { tone, on })
            }
            6 => Ok(DgramBody::Abort {
                counter: be_u32(sized(4)?),
            }),
            other => Err(DatagramError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `d` decodes back to itself, and its header alone reads the same
    /// sender, counter and kind.
    fn roundtrip(d: Datagram) {
        let wire = encode_datagram(&d);
        let header = DgramHeader {
            src: d.src,
            counter: d.counter,
            frame: matches!(d.body, DgramBody::Frame(_)),
        };
        assert_eq!(decode_header(&wire), Ok(header));
        assert_eq!(decode_datagram(&wire).expect("roundtrip"), d);
    }

    #[test]
    fn frame_roundtrips() {
        roundtrip(Datagram {
            src: NodeId(7),
            counter: 42,
            body: DgramBody::Frame(Bytes::from_static(b"\x01frame-bytes")),
        });
    }

    #[test]
    fn empty_frame_body_roundtrips() {
        roundtrip(Datagram {
            src: NodeId(0),
            counter: 0,
            body: DgramBody::Frame(Bytes::new()),
        });
    }

    #[test]
    fn tone_edges_roundtrip() {
        for tone in [DGRAM_TONE_RBT, DGRAM_TONE_ABT] {
            for on in [true, false] {
                roundtrip(Datagram {
                    src: NodeId(300),
                    counter: 9,
                    body: DgramBody::Tone { tone, on },
                });
            }
        }
    }

    #[test]
    fn abort_roundtrips() {
        roundtrip(Datagram {
            src: NodeId(12),
            counter: 100,
            body: DgramBody::Abort { counter: 99 },
        });
    }

    #[test]
    fn counter_and_src_survive() {
        let wire = encode_datagram(&Datagram {
            src: NodeId(65535),
            counter: u32::MAX,
            body: DgramBody::Abort { counter: 1 },
        });
        let d = decode_datagram(&wire).expect("decode");
        assert_eq!(d.src, NodeId(65535));
        assert_eq!(d.counter, u32::MAX);
    }

    #[test]
    fn corrupted_byte_is_caught_by_crc() {
        let mut wire = encode_datagram(&Datagram {
            src: NodeId(2),
            counter: 8,
            body: DgramBody::Abort { counter: 1 },
        });
        // Flip one payload bit (past magic/version so those checks pass).
        wire[9] ^= 0x10;
        assert!(matches!(
            decode_datagram(&wire),
            Err(DatagramError::BadCrc { .. })
        ));
    }
}
