//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) for storage integrity.
//!
//! Adler-32 is the repo's cheap *rolling* checksum, but its error detection
//! is weak on short inputs (the `a` sum covers only ~16 bits of state for
//! records under a few hundred bytes). Segment frames need a checksum whose
//! detection strength is independent of input length, so the record store
//! frames entries with CRC-32: any single burst ≤ 32 bits is detected, and
//! random corruption escapes with probability 2⁻³².
//!
//! The checksum sits under every `RecordStore::put`, every
//! block-cache-miss `get`, the recovery scan, compaction, scrub and the
//! index-run files, on primary and secondary, and it is not a rounding
//! error next to the I/O. Two loops, one result:
//!
//! * **Four lanes** for every whole 2 KiB superblock. A slicing loop is
//!   one dependent chain — each step's lookups wait on the state the last
//!   step produced — so the superblock is cut into four 512-byte lanes,
//!   each its own slicing-by-8 chain (lane 0 continues the running state,
//!   the others start from zero), stepped together so their lookups
//!   overlap. A raw CRC is linear, `crc(s, A‖B) = shift(crc(s, A), |B|) ⊕
//!   crc(0, B)`, so the lanes fold back into one state through three
//!   tables that advance a state over 512, 1024 and 1536 zero bytes
//!   (multiplication by x^(8·512·k) mod P).
//! * **One chain, slicing-by-16**, for inputs shorter than a superblock
//!   and the tail after the last one: sixteen 256-entry tables, sixteen
//!   bytes folded per step through independent lookups, byte-at-a-time
//!   for what is left.
//!
//! Measured in `benches/hashes.rs` (one pinned core, PR 25): 17 KiB ≈ 1.6 →
//! 3.7 GiB/s (eight superblocks and a 1 KiB chain tail), 64 KiB ≈ 1.6 →
//! 4.0 GiB/s, 300 B unchanged at ≈ 1.8 GiB/s (all chain). Every result, at
//! every length and every incremental split, is zlib's.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the single-chain loop.
const SLICES: usize = 16;

/// Bytes per lane of a superblock, folded eight per step.
const LANE: usize = 512;
/// Independent lanes per superblock.
const LANES: usize = 4;
/// Bytes of one superblock: inputs shorter than this, and what is left
/// after the last whole one, take the single-chain loop.
const SUPERBLOCK: usize = LANES * LANE;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, which is what lets `SLICES`
/// bytes be looked up independently and XORed together. A `static`, not a
/// `const`: an unoptimised build copies a `const` array at every use.
static TABLES: [[u32; 256]; SLICES] = build_tables();

/// `SHIFT[k - 1]` advances a CRC state over `k × LANE` zero bytes — the
/// linear map "multiply by x^(8·LANE·k) mod P" — tabulated per state byte:
/// `SHIFT[k - 1][j][b]` is the image of `b << 8j`.
static SHIFT: [[[u32; 256]; 4]; LANES - 1] = build_shift_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
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

/// Applies the linear map whose image of bit `i` is `basis[i]`.
const fn apply(basis: &[u32; 32], v: u32) -> u32 {
    let mut out = 0;
    let mut bit = 0;
    while bit < 32 {
        if v >> bit & 1 != 0 {
            out ^= basis[bit];
        }
        bit += 1;
    }
    out
}

const fn build_shift_tables() -> [[[u32; 256]; 4]; LANES - 1] {
    // The one-lane shift, bit by bit: `LANE` zero bytes through the byte
    // table. Longer shifts compose it with itself.
    let byte = build_tables()[0];
    let mut lane = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut i = 0;
        while i < LANE {
            crc = (crc >> 8) ^ byte[(crc & 0xFF) as usize];
            i += 1;
        }
        lane[bit] = crc;
        bit += 1;
    }
    let mut tables = [[[0u32; 256]; 4]; LANES - 1];
    let mut basis = lane;
    let mut k = 0;
    while k < LANES - 1 {
        let mut j = 0;
        while j < 4 {
            let mut b = 0;
            while b < 256 {
                tables[k][j][b] = apply(&basis, (b as u32) << (8 * j));
                b += 1;
            }
            j += 1;
        }
        let mut bit = 0;
        while bit < 32 {
            basis[bit] = apply(&lane, basis[bit]);
            bit += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` (IEEE, reflected, init/xorout `!0` —
/// identical to zlib's `crc32()`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32, for checksumming data produced in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut superblocks = data.chunks_exact(SUPERBLOCK);
        let mut crc = self.state;
        for block in &mut superblocks {
            crc = fold_superblock(crc, block);
        }
        self.state = fold_chain(crc, superblocks.remainder());
    }

    /// Returns the final checksum value.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Folds one superblock as four lanes (see the module doc): lane `l` is
/// shifted over the `LANES − 1 − l` lanes after it and XORed in.
#[inline]
fn fold_superblock(crc: u32, block: &[u8]) -> u32 {
    let (a, rest) = block.split_at(LANE);
    let (b, rest) = rest.split_at(LANE);
    let (c, d) = rest.split_at(LANE);
    let mut s = [crc, 0, 0, 0];
    let words =
        a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)).zip(d.chunks_exact(8));
    for (((wa, wb), wc), wd) in words {
        s[0] = slice8(s[0], wa);
        s[1] = slice8(s[1], wb);
        s[2] = slice8(s[2], wc);
        s[3] = slice8(s[3], wd);
    }
    shift(&SHIFT[2], s[0]) ^ shift(&SHIFT[1], s[1]) ^ shift(&SHIFT[0], s[2]) ^ s[3]
}

/// Eight bytes through one chain, slicing-by-8.
#[inline(always)]
fn slice8(crc: u32, w: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// Advances `crc` over the zero bytes `table` was built for.
#[inline(always)]
fn shift(table: &[[u32; 256]; 4], crc: u32) -> u32 {
    table[0][(crc & 0xFF) as usize]
        ^ table[1][((crc >> 8) & 0xFF) as usize]
        ^ table[2][((crc >> 16) & 0xFF) as usize]
        ^ table[3][(crc >> 24) as usize]
}

/// One dependent chain, slicing-by-16, then byte at a time for the tail.
#[inline]
fn fold_chain(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
        // Byte `j` of the block is followed by `SLICES - 1 - j` more.
        crc = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ TABLES[12][(a >> 24) as usize]
            ^ TABLES[11][(b & 0xFF) as usize]
            ^ TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ TABLES[8][(b >> 24) as usize]
            ^ TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][(c >> 24) as usize]
            ^ TABLES[3][(d & 0xFF) as usize]
            ^ TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ TABLES[0][(d >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The definition, one bit at a time — no tables to get wrong. Entry
    /// `n` is the CRC of `data[..n]`, so one pass checks every length.
    fn bitwise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut crc = !0u32;
        let mut out = vec![!crc];
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            out.push(!crc);
        }
        out
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut rng = crate::dist::SplitMix64::new(0xC4C3_2000);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sliced_matches_bitwise_reference_at_every_length_and_alignment() {
        // Zero to three superblocks plus one slicing-by-16 block: every
        // lane/chain/byte-tail split, at every start offset within a word.
        const MAX: usize = 3 * SUPERBLOCK + SLICES;
        let data = noise(8 + MAX);
        for start in 0..8 {
            let reference = bitwise_prefixes(&data[start..start + MAX]);
            for (len, &want) in reference.iter().enumerate() {
                assert_eq!(crc32(&data[start..start + len]), want, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        // Two superblocks: a split inside either, or on the seam, moves
        // bytes between the lanes and the single chain.
        let data = noise(2 * SUPERBLOCK);
        let whole = bitwise_prefixes(&data)[data.len()];
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_under_random_multi_splits() {
        let data = noise(3 * SUPERBLOCK + 777);
        let reference = bitwise_prefixes(&data);
        let mut rng = crate::dist::SplitMix64::new(0x5EED_C4C3);
        for round in 0..300 {
            let len = rng.next_u64() as usize % (data.len() + 1);
            let mut cuts: Vec<usize> =
                (0..rng.next_u64() % 8).map(|_| rng.next_u64() as usize % (len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for &cut in &cuts {
                crc.update(&data[at..cut]);
                at = cut;
            }
            assert_eq!(crc.finalize(), reference[len], "round {round} cuts {cuts:?}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data = b"segment frame integrity check payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
