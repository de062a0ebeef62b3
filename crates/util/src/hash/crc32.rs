//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) for storage integrity.
//!
//! Adler-32 is the repo's cheap *rolling* checksum, but its error detection
//! is weak on short inputs (the `a` sum covers only ~16 bits of state for
//! records under a few hundred bytes). Segment frames need a checksum whose
//! detection strength is independent of input length, so the record store
//! frames entries with CRC-32: any single burst ≤ 32 bits is detected, and
//! random corruption escapes with probability 2⁻³².
//!
//! Slicing-by-16: sixteen 256-entry tables built at compile time, sixteen
//! input bytes folded per step through independent lookups, byte-at-a-time
//! only for the tail (~1.9 GiB/s in `benches/hashes.rs`; slicing-by-8
//! measured ~1.4). The checksum sits under every `RecordStore::put`, every
//! block-cache-miss `get`, the recovery scan, compaction and scrub, on
//! primary and secondary, and it is not a rounding error next to the I/O:
//! the one-lookup-per-byte loop this replaced ran at ≈ 0.4 GiB/s, each
//! lookup waiting on the last, which is ≈ 40 µs for a 17 KB frame — about
//! three quarters of a cache-miss `get` in `perf/`'s layer budget on
//! `wiki_ingest` (`storage.get_ns` 50 µs → 14 µs with this loop, nothing
//! else on that path changed).

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, which is what lets `SLICES`
/// bytes be looked up independently and XORed together.
const TABLES: [[u32; 256]; SLICES] = build_tables();

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
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// Returns the final checksum value.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
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

    /// The definition, one bit at a time — no tables to get wrong.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut rng = crate::dist::SplitMix64::new(0xC4C3_2000);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sliced_matches_bitwise_reference_at_every_length_and_alignment() {
        // Every main-loop/tail split (0..=300 covers 0–18 full blocks plus
        // each tail length) at every start offset within a word.
        let data = noise(8 + 300);
        for start in 0..8 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data = noise(1024);
        let whole = crc32_bitwise(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), whole, "split at {split}");
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
