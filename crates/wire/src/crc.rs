//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! The MRTS frame of Fig. 3 carries a 32-bit cyclic redundancy code; this is
//! a from-scratch implementation of the standard reflected CRC-32 used by
//! Ethernet and 802.11 FCS fields, and the one checksum behind both the
//! frame FCS and the live datagram trailer.
//!
//! Two kernels compute the same state, and `update` picks one per call.
//!
//! The table kernel is slicing-by-16. A byte-at-a-time table loop makes
//! every lookup wait on the one before it; here the state is XORed into the
//! first four bytes of a 16-byte block, and the block's sixteen lookups are
//! independent, each into its own table: `TABLES[k][b]` is the CRC state of
//! byte `b` followed by `k` zero bytes, so their XOR is the state after the
//! whole block. The tail runs in 4-byte steps on the first four tables, then
//! byte by byte on `TABLES[0]`, which is the classic byte table. The sixteen
//! tables are 16 KB of read-only data built at compile time.
//!
//! The carry-less kernel (x86_64 with `pclmulqdq` and `sse4.1`) follows
//! Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction", as zlib and Chromium ship it. Four 128-bit lanes each fold
//! 16 bytes of every 64-byte step: a lane's two halves are multiplied,
//! carry-less, by `x^(512±32) mod P`, which carries them 64 bytes forward, and
//! the next block is added. The lanes then fold into one, further 16-byte
//! blocks fold into it, it folds to 64 bits, and a Barrett reduction leaves
//! the 32-bit state; a tail under 16 bytes runs on the table. An input under
//! 64 bytes starts on one lane instead and folds 16 bytes a step. The folding
//! constants are derived from `POLY` at compile time (`fold`).
//!
//! `update` takes the carry-less kernel for inputs of `ONE_LANE_BYTES` or
//! more when the CPU has both features, and the table otherwise: from 16 to
//! 31 bytes a standalone timing could not tell the two apart, and from 32
//! bytes one lane was faster at every length. On the live soak 81 % of the
//! checksummed bytes are frame datagrams over 256 bytes, each checksummed
//! twice at each end of a hop (DESIGN.md §11), while most calls are 14-byte
//! tone datagrams, which stay on the table.

/// The reflected polynomial 0xEDB88320 (bit-reversed 0x04C11DB7).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the table kernel's main loop, one table each.
const LANES: usize = 16;

/// Bytes folded per step of the carry-less kernel's main loop, and the
/// shortest input its four lanes take.
const FOLD_BYTES: usize = 64;

/// The shortest input `update` gives the carry-less kernel.
const ONE_LANE_BYTES: usize = 32;

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

/// Advance the raw CRC state `crc` over `data` (no init, no final XOR) on
/// the kernel that suits this input and this CPU.
fn update(crc: u32, data: &[u8]) -> u32 {
    if data.len() >= ONE_LANE_BYTES {
        if let Some(crc) = update_clmul(crc, data) {
            return crc;
        }
    }
    update_table(crc, data)
}

/// The table kernel: slicing-by-16, then 4-byte steps, then bytes.
fn update_table(crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(LANES);
    let crc = blocks.by_ref().fold(crc, fold_block::<LANES>);
    let mut words = blocks.remainder().chunks_exact(4);
    let crc = words.by_ref().fold(crc, fold_block::<4>);
    words
        .remainder()
        .iter()
        .fold(crc, |c, &b| (c >> 8) ^ TABLES[0][usize::from(c as u8 ^ b)])
}

/// The carry-less kernel over `data`, or `None` on a CPU without it.
#[cfg(target_arch = "x86_64")]
fn update_clmul(crc: u32, data: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `clmul::update` is safe code compiled for `pclmulqdq` and
    // `sse4.1`; its one requirement is that the CPU runs both, which the
    // line above has just detected.
    Some(unsafe { clmul::update(crc, data) })
}

/// The carry-less kernel is x86_64 only.
#[cfg(not(target_arch = "x86_64"))]
fn update_clmul(_crc: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// The carry-less kernel's constants, each derived from `POLY`. In the
/// reflected domain bit `31 - i` of a 32-bit remainder is the coefficient of
/// `x^i`; a folding constant is that remainder shifted left one bit, as the
/// 64-bit carry-less products want it (Intel's k1–k5, P′ and μ).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
mod fold {
    use super::POLY;

    /// `x^n mod P`, reflected and shifted left one bit.
    const fn x_pow_mod(n: u32) -> u64 {
        let mut r = 1u32 << 31; // x^0
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as u64) << 1
    }

    /// The Barrett constant `floor(x^64 / P)`, reflected over its 33 bits.
    const fn barrett_mu() -> u64 {
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        let mut bit = 64;
        while bit >= 32 {
            if (rem >> bit) & 1 != 0 {
                rem ^= p << (bit - 32);
                quot |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        quot.reverse_bits() >> 31
    }

    /// Carries a lane's (low, high) halves 64 bytes forward.
    pub const BY_64_BYTES: (u64, u64) = (x_pow_mod(4 * 128 + 32), x_pow_mod(4 * 128 - 32));
    /// Carries a lane's (low, high) halves 16 bytes forward.
    pub const BY_16_BYTES: (u64, u64) = (x_pow_mod(128 + 32), x_pow_mod(128 - 32));
    /// Folds 96 bits to 64.
    pub const TO_64_BITS: u64 = x_pow_mod(64);
    /// P′: the polynomial reflected over its 33 bits.
    pub const P: u64 = ((POLY as u64) << 1) | 1;
    /// μ, the Barrett constant.
    pub const MU: u64 = barrett_mu();
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{fold, update_table, FOLD_BYTES};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// The raw state after `data`: an input of `FOLD_BYTES` or more folds
    /// 64 bytes a step on four lanes, a shorter one from 16 bytes folds on
    /// one lane, and one under 16 bytes runs on the table alone.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        if data.len() < FOLD_BYTES {
            return one_lane(crc, data);
        }
        let (head, rest) = data.split_at(FOLD_BYTES);
        let mut lanes = [
            load(&head[..16]),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k = pair(fold::BY_64_BYTES);
        let mut steps = rest.chunks_exact(FOLD_BYTES);
        for step in steps.by_ref() {
            for (lane, block) in lanes.iter_mut().zip(step.chunks_exact(16)) {
                *lane = fold_into(*lane, k, load(block));
            }
        }
        let k = pair(fold::BY_16_BYTES);
        let [mut acc, a, b, c] = lanes;
        for lane in [a, b, c] {
            acc = fold_into(acc, k, lane);
        }
        fold_blocks(acc, steps.remainder())
    }

    /// One lane: the first 16-byte block holds the state, and every
    /// further one folds in 16 bytes forward.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn one_lane(crc: u32, data: &[u8]) -> u32 {
        if data.len() < 16 {
            return update_table(crc, data);
        }
        let (head, rest) = data.split_at(16);
        let acc = _mm_xor_si128(load(head), _mm_cvtsi32_si128(crc as i32));
        fold_blocks(acc, rest)
    }

    /// The state after `acc` and `rest`: `rest`'s 16-byte blocks fold into
    /// the lane, and its tail runs on the table.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_blocks(mut acc: __m128i, rest: &[u8]) -> u32 {
        let k = pair(fold::BY_16_BYTES);
        let mut blocks = rest.chunks_exact(16);
        for block in blocks.by_ref() {
            acc = fold_into(acc, k, load(block));
        }
        update_table(reduce(acc), blocks.remainder())
    }

    /// A 16-byte block as one vector, first byte lowest.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let half = |at: usize| {
            let bytes = block[at..at + 8].try_into().expect("a 16-byte block");
            u64::from_le_bytes(bytes) as i64
        };
        _mm_set_epi64x(half(8), half(0))
    }

    /// Constants `(low, high)` as one vector.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn pair((low, high): (u64, u64)) -> __m128i {
        _mm_set_epi64x(high as i64, low as i64)
    }

    /// `lane` carried forward by `k`, plus `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(lane, k);
        let high = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Fold 128 bits to 64, then Barrett-reduce to the raw 32-bit state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, pair(fold::BY_16_BYTES)),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), pair((fold::TO_64_BITS, 0))),
        );
        let barrett = pair((fold::P, fold::MU));
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), barrett);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
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

    type Kernel = fn(u32, &[u8]) -> u32;

    /// The kernels this CPU runs, by name: the table everywhere, the
    /// carry-less kernel where the CPU has it (said on stderr where not),
    /// and its one lane alone, fed 63 bytes at a time.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("table", update_table)];
        if update_clmul(0, &[]).is_some() {
            kernels.push(("clmul", |c, d| update_clmul(c, d).expect("detected")));
            kernels.push(("clmul, one lane", |c, d| {
                let pieces = d.chunks(FOLD_BYTES - 1);
                pieces.fold(c, |c, piece| update_clmul(c, piece).expect("detected"))
            }));
        } else {
            static SAID: std::sync::Once = std::sync::Once::new();
            SAID.call_once(|| {
                eprintln!("no pclmulqdq/sse4.1 here: only the table kernel is checked")
            });
        }
        kernels
    }

    fn crc_on(kernel: Kernel, data: &[u8]) -> u32 {
        kernel(!0, data) ^ !0
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

    /// Known answers on each side of the table's block and word edges, the
    /// carry-less kernel's 16-, 32- and 64-byte thresholds and its 16-byte
    /// blocks, and at about the size of a 500-byte data frame (zlib's CRC-32
    /// gives the same).
    #[test]
    fn known_answers_across_block_edges() {
        let kernels = kernels();
        for (len, want) in [
            (15, 0xA476_2116),
            (16, 0xEA7E_5B68),
            (17, 0x293C_DDB3),
            (31, 0xB350_9C52),
            (32, 0xF0B3_A9A8),
            (33, 0xD929_8305),
            (47, 0xF81E_571E),
            (48, 0x322F_18C4),
            (49, 0x2052_C0DB),
            (63, 0x3373_01C0),
            (64, 0x38E4_DBB5),
            (65, 0x6C31_1B46),
            (79, 0x118A_99CB),
            (80, 0x89CD_CB09),
            (530, 0x988A_15E0),
            (2_048, 0x0313_9B1E),
        ] {
            let data = pattern(len);
            assert_eq!(crc32(&data), want, "length {len}");
            assert_eq!(bitwise(&data), want, "oracle at length {len}");
            for &(name, kernel) in &kernels {
                assert_eq!(crc_on(kernel, &data), want, "{name} at length {len}");
            }
        }
    }

    /// Folding `a` then `b` is folding `a ‖ b`, on each kernel and on the
    /// picking `update`, at every split of an input whose splits straddle
    /// the 16-, 32- and 64-byte thresholds.
    #[test]
    fn update_composes_at_every_split() {
        let data = pattern(200);
        for (name, kernel) in kernels() {
            for s in [0, !0, 0x1234_5678] {
                let whole = kernel(s, &data);
                for at in 0..=data.len() {
                    let (a, b) = data.split_at(at);
                    let why = format!("{name}, state {s:#x}, split {at}");
                    assert_eq!(kernel(kernel(s, a), b), whole, "{why}");
                    assert_eq!(update(update(s, a), b), whole, "picked, {why}");
                }
            }
        }
    }

    /// The folding constants are the published ones (Intel's paper; zlib,
    /// Chromium and Linux carry the same).
    #[test]
    fn folding_constants_are_the_published_ones() {
        assert_eq!(fold::BY_64_BYTES, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(fold::BY_16_BYTES, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(fold::TO_64_BITS, 0x1_63CD_6124);
        assert_eq!(fold::P, 0x1_DB71_0641);
        assert_eq!(fold::MU, 0x1_F701_1641);
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
        /// Each kernel agrees with the bitwise oracle on any input of up to
        /// 2 048 bytes, read at any offset into a larger buffer so the
        /// slice's alignment varies.
        #[test]
        fn matches_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=2_048),
            offset in 0usize..16,
        ) {
            let mut buf = vec![0xA5; offset];
            buf.extend_from_slice(&data);
            let want = bitwise(&data);
            prop_assert_eq!(crc32(&buf[offset..]), want);
            for (name, kernel) in kernels() {
                prop_assert_eq!(crc_on(kernel, &buf[offset..]), want, "{}", name);
            }
        }
    }
}
