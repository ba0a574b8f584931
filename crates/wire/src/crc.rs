//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! The MRTS frame of Fig. 3 carries a 32-bit cyclic redundancy code; this is
//! a from-scratch implementation of the standard reflected CRC-32 used by
//! Ethernet and 802.11 FCS fields, and the one checksum behind both the
//! frame FCS and the live datagram trailer.
//!
//! The kernel is slicing-by-16. A byte-at-a-time table loop makes every
//! lookup wait on the one before it; here the state is XORed into the first
//! four bytes of a 16-byte block, and the block's sixteen lookups are
//! independent, each into its own table: `TABLES[k][b]` is the CRC state of
//! byte `b` followed by `k` zero bytes, so their XOR is the state after the
//! whole block. The tail runs in 4-byte steps on the first four tables, then
//! byte by byte on `TABLES[0]`, which is the classic byte table. The sixteen
//! tables are 16 KB of read-only data built at compile time. Sixteen lanes
//! beat eight on the live soak, where every frame datagram is checksummed
//! twice at each end of a hop (DESIGN.md §11).

/// The reflected polynomial 0xEDB88320 (bit-reversed 0x04C11DB7).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop, one table each.
const LANES: usize = 16;

/// `TABLES[k][b]`: the state of byte `b` followed by `k` zero bytes,
/// computed at compile time.
const TABLES: [[u32; 256]; LANES] = build_tables();

const fn build_tables() -> [[u32; 256]; LANES] {
    let mut tables = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < LANES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold an `N`-byte block (`4 <= N <= LANES`) into `crc`: the state covers
/// the first four bytes, and every byte is one independent lookup.
#[inline(always)]
fn fold_block<const N: usize>(crc: u32, block: &[u8]) -> u32 {
    let mut bytes: [u8; N] = block.try_into().expect("chunks_exact yields whole blocks");
    for (b, s) in bytes.iter_mut().zip(crc.to_le_bytes()) {
        *b ^= s;
    }
    bytes
        .iter()
        .enumerate()
        .fold(0, |acc, (k, &b)| acc ^ TABLES[N - 1 - k][usize::from(b)])
}

/// Advance the raw CRC state `crc` over `data` (no init, no final XOR).
fn update(crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(LANES);
    let crc = blocks.by_ref().fold(crc, fold_block::<LANES>);
    let mut words = blocks.remainder().chunks_exact(4);
    let crc = words.by_ref().fold(crc, fold_block::<4>);
    words
        .remainder()
        .iter()
        .fold(crc, |c, &b| (c >> 8) ^ TABLES[0][usize::from(c as u8 ^ b)])
}

/// Compute the CRC-32 of `data` (init 0xFFFFFFFF, final XOR 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    update(!0, data) ^ !0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: one bit at a time, straight from the polynomial.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Known answers on each side of the block and word edges, and at about
    /// the size of a 500-byte data frame (zlib's CRC-32 gives the same).
    #[test]
    fn known_answers_across_block_edges() {
        for (len, want) in [
            (15, 0xA476_2116),
            (16, 0xEA7E_5B68),
            (17, 0x293C_DDB3),
            (31, 0xB350_9C52),
            (32, 0xF0B3_A9A8),
            (33, 0xD929_8305),
            (530, 0x988A_15E0),
        ] {
            let data = pattern(len);
            assert_eq!(crc32(&data), want, "length {len}");
            assert_eq!(bitwise(&data), want, "oracle at length {len}");
        }
    }

    /// Folding `a` then `b` is folding `a ‖ b`, at every split of an input
    /// that spans four blocks, a word tail and a byte tail.
    #[test]
    fn update_composes_at_every_split() {
        let data = pattern(70);
        for s in [0, !0, 0x1234_5678] {
            let whole = update(s, &data);
            for at in 0..=data.len() {
                let (a, b) = data.split_at(at);
                assert_eq!(update(update(s, a), b), whole, "state {s:#x}, split {at}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }

    proptest! {
        /// The kernel agrees with the bitwise oracle on any input of up to
        /// 2 048 bytes, read at any offset into a larger buffer so the
        /// slice's alignment varies.
        #[test]
        fn matches_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=2_048),
            offset in 0usize..16,
        ) {
            let mut buf = vec![0xA5; offset];
            buf.extend_from_slice(&data);
            prop_assert_eq!(crc32(&buf[offset..]), bitwise(&data));
        }
    }
}
