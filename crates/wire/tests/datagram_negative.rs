//! Negative-path decode tests for the live-transport datagram codec:
//! hostile or damaged byte strings must come back as a typed
//! [`DatagramError`], never a panic or a silently wrong datagram. The live
//! node treats every rejection as channel noise, so these tests are the
//! contract that keeps a misbehaving peer (or a stray packet from another
//! program on the same port) from corrupting a node's MAC state — the
//! datagram twin of `decode_negative.rs` for MAC frames.

use bytes::Bytes;
use rmac_wire::addr::NodeId;
use rmac_wire::crc::crc32;
use rmac_wire::datagram::{
    decode_datagram, encode_datagram, Datagram, DatagramError, DgramBody, DGRAM_HEADER_LEN,
    DGRAM_MAGIC, DGRAM_TONE_ABT, DGRAM_TONE_RBT, DGRAM_VERSION,
};

fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// Hand-build a datagram: header with the given kind byte, a raw body, and
/// a *valid* CRC trailer, so tests exercise the layout checks behind the
/// CRC gate rather than tripping on `BadCrc` first.
fn seal(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&DGRAM_MAGIC.to_be_bytes());
    out.push(DGRAM_VERSION);
    out.push(kind);
    out.extend_from_slice(&5u16.to_be_bytes()); // src
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(&9u32.to_be_bytes()); // counter
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

#[test]
fn short_inputs_are_truncated_not_panics() {
    // Anything under header + CRC (16 bytes) is Truncated, whatever the
    // bytes say.
    for len in 0..DGRAM_HEADER_LEN + 4 {
        let bytes = vec![0u8; len];
        assert_eq!(
            decode_datagram(&bytes).unwrap_err(),
            DatagramError::Truncated,
            "len={len}"
        );
    }
}

#[test]
fn foreign_packets_report_bad_magic_not_a_crc_accident() {
    // A stray packet from another program: magic is checked first so the
    // report names the real problem.
    let mut wire = seal(6, &[0, 0, 0, 1]);
    wire[0] = 0x00;
    wire[1] = 0x01;
    assert_eq!(
        decode_datagram(&wire).unwrap_err(),
        DatagramError::BadMagic(0x0001)
    );
}

#[test]
fn future_versions_are_rejected_by_value() {
    for v in [0u8, 2, 0xFF] {
        let mut wire = seal(6, &[0, 0, 0, 1]);
        wire[2] = v;
        // Re-seal: the version byte is under the CRC.
        let len = wire.len();
        let crc = crc32(&wire[..len - 4]);
        wire[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            DatagramError::BadVersion(v),
            "version {v}"
        );
    }
}

#[test]
fn version_is_checked_before_crc() {
    // Flip the version WITHOUT fixing the trailer: the version gate must
    // fire first, so an incompatible peer is named as such rather than as
    // line noise.
    let mut wire = seal(6, &[0, 0, 0, 1]);
    wire[2] = 9;
    assert_eq!(
        decode_datagram(&wire).unwrap_err(),
        DatagramError::BadVersion(9)
    );
}

#[test]
fn crc_is_checked_before_layout() {
    // Corrupt a Tone body byte: the CRC gate fires before the tone-value
    // check, so a damaged datagram is never mis-parsed into a plausible
    // edge.
    let mut wire = encode_datagram(&Datagram {
        src: n(1),
        counter: 0,
        body: DgramBody::Tone {
            tone: DGRAM_TONE_RBT,
            on: true,
        },
    });
    wire[DGRAM_HEADER_LEN] = 7; // would be BadTone if layout ran
    assert!(matches!(
        decode_datagram(&wire),
        Err(DatagramError::BadCrc { .. })
    ));
}

#[test]
fn unknown_kind_bytes_are_rejected_by_value() {
    for k in [0u8, 3, 4, 5, 7, 42, 0xFF] {
        let wire = seal(k, &[]);
        assert_eq!(
            decode_datagram(&wire).unwrap_err(),
            DatagramError::UnknownKind(k),
            "kind byte {k}"
        );
    }
}

#[test]
fn tone_body_must_be_exactly_two_bytes() {
    assert_eq!(
        decode_datagram(&seal(2, &[])).unwrap_err(),
        DatagramError::Truncated
    );
    assert_eq!(
        decode_datagram(&seal(2, &[DGRAM_TONE_RBT])).unwrap_err(),
        DatagramError::Truncated
    );
    assert_eq!(
        decode_datagram(&seal(2, &[DGRAM_TONE_RBT, 1, 0])).unwrap_err(),
        DatagramError::TrailingBytes(1)
    );
}

#[test]
fn tone_channel_and_edge_values_are_validated() {
    // A tone channel that does not exist…
    assert_eq!(
        decode_datagram(&seal(2, &[2, 1])).unwrap_err(),
        DatagramError::BadTone(2)
    );
    // …and an on/off flag that is neither 0 nor 1 (a bit-flipped edge
    // must not silently become "on").
    assert_eq!(
        decode_datagram(&seal(2, &[DGRAM_TONE_ABT, 2])).unwrap_err(),
        DatagramError::BadTone(2)
    );
}

#[test]
fn abort_body_is_exactly_four_bytes() {
    assert_eq!(
        decode_datagram(&seal(6, &[1, 2, 3])).unwrap_err(),
        DatagramError::Truncated
    );
    assert_eq!(
        decode_datagram(&seal(6, &[1, 2, 3, 4, 5])).unwrap_err(),
        DatagramError::TrailingBytes(1)
    );
}

#[test]
fn every_truncation_of_a_valid_datagram_errors_cleanly() {
    // Every strict prefix must decode to SOME error (usually Truncated or
    // BadCrc — the prefix's last 4 bytes are not its checksum), and must
    // never panic or produce a datagram.
    let wire = encode_datagram(&Datagram {
        src: n(3),
        counter: 12,
        body: DgramBody::Abort { counter: 11 },
    });
    for len in 0..wire.len() {
        assert!(
            decode_datagram(&wire[..len]).is_err(),
            "prefix of len {len} decoded"
        );
    }
}

#[test]
fn frame_body_is_opaque_and_never_rejected_by_the_datagram_layer() {
    // The datagram layer carries MAC frames without inspecting them: junk
    // inside a well-formed kind-1 datagram decodes fine here and is the
    // *frame* codec's problem (the live node then models it as noise).
    let junk = Bytes::from_static(b"\xDE\xAD\xBE\xEF not a frame");
    let wire = encode_datagram(&Datagram {
        src: n(2),
        counter: 4,
        body: DgramBody::Frame(junk.clone()),
    });
    let d = decode_datagram(&wire).expect("opaque body must pass");
    assert_eq!(d.body, DgramBody::Frame(junk));
}

#[test]
fn datagram_errors_render_distinct_messages() {
    let msgs = [
        DatagramError::Truncated.to_string(),
        DatagramError::BadMagic(1).to_string(),
        DatagramError::BadVersion(9).to_string(),
        DatagramError::BadCrc {
            expected: 1,
            actual: 2,
        }
        .to_string(),
        DatagramError::UnknownKind(42).to_string(),
        DatagramError::BadTone(7).to_string(),
        DatagramError::TrailingBytes(3).to_string(),
    ];
    for (i, a) in msgs.iter().enumerate() {
        assert!(!a.is_empty());
        for b in msgs.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}
