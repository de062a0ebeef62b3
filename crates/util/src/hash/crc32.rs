//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) for storage integrity.
//!
//! Adler-32 is the repo's cheap *rolling* checksum, but its error detection
//! is weak on short inputs (the `a` sum covers only ~16 bits of state for
//! records under a few hundred bytes). Segment frames need a checksum whose
//! detection strength is independent of input length, so the record store
//! frames entries with CRC-32: any single burst ≤ 32 bits is detected, and
//! random corruption escapes with probability 2⁻³².
//!
//! The checksum sits under every `RecordStore::put`, block-cache-miss
//! `get`, oplog append, recovery scan, compaction, scrub and index-run
//! file, on both nodes. Two kernels, one result:
//!
//! * **Carry-less multiply** (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) for
//!   every input of 64 bytes or more on an x86_64 CPU with PCLMULQDQ and
//!   SSE4.1. Over GF(2) a CRC is a remainder mod P, and a block `n` bytes
//!   before the end contributes `block · x^(8n) mod P`. Four 128-bit
//!   accumulators, the first XORed with the incoming state, each advance
//!   64 bytes per step (halves times k1 / k2 = x^(512±32) mod P), so four
//!   multiply chains overlap. k3 / k4 = x^(128±32) fold them into one and
//!   then each further 16-byte block; k4 / k5 reduce 128 bits to 64 and a
//!   Barrett step to 32. The tail under 16 bytes goes through the chain.
//! * **One chain, slicing-by-16** for the rest — inputs under 64 bytes,
//!   every input on other CPUs and targets: sixteen 256-entry tables,
//!   sixteen bytes per step through independent lookups, then byte by byte.
//!
//! `benches/hashes.rs`, one pinned core of an x86_64 Xeon: 17 KiB ≈ 21
//! GiB/s, 300 B ≈ 10 GiB/s; the chain alone (`portable`) ≈ 1.8 and 1.9
//! GiB/s. Every result, at every length and every split, is zlib's.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the single-chain loop.
const SLICES: usize = 16;

/// Inputs this long or longer take the carry-less-multiply fold, where the
/// CPU has it: one 64-byte step of its four accumulators.
const CLMUL_MIN: usize = 64;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, which is what lets `SLICES`
/// bytes be looked up independently and XORed together. A `static`, not a
/// `const`: an unoptimised build copies a `const` array at every use.
static TABLES: [[u32; 256]; SLICES] = build_tables();

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

/// [`crc32`] through the slicing-by-16 chain alone, whatever the CPU: what
/// a target without the carry-less-multiply fold computes it with. For
/// benchmarks.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !fold_chain(!0, data)
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
        let crc = self.state;
        self.state = fold_clmul(crc, data).unwrap_or_else(|| fold_chain(crc, data));
    }

    /// Returns the final checksum value.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// `data` folded into `crc` by carry-less multiplies, or `None` where that
/// kernel does not run: inputs under `CLMUL_MIN` bytes, a CPU without
/// PCLMULQDQ and SSE4.1, a target other than x86_64.
#[inline]
fn fold_clmul(crc: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::fold` is compiled for pclmulqdq, sse2 and sse4.1.
        // pclmulqdq and sse4.1 were just detected on this CPU, and every
        // x86_64 CPU has sse2. It reads `data` through bounds-checked
        // slices only, so those features are its one requirement.
        #[allow(unsafe_code)]
        return Some(unsafe { clmul::fold(crc, data) });
    }
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected and shifted left one, as in Gopal et al.: k1 = x^(512+32),
    // k2 = x^(512−32), k3 = x^(128+32), k4 = x^(128−32), k5 = x^64, all mod
    // P; P′ is P itself and μ = ⌊x^64 / P⌋ is Barrett's reciprocal.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_PRIME: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds `data` (at least 64 bytes) into `crc`; see the module doc.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        let (first, rest) = data.split_at(super::CLMUL_MIN);
        let mut acc =
            [load(&first[..16]), load(&first[16..32]), load(&first[32..48]), load(&first[48..])];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut steps = rest.chunks_exact(super::CLMUL_MIN);
        for step in &mut steps {
            for (a, block) in acc.iter_mut().zip(step.chunks_exact(16)) {
                *a = fold16(*a, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(acc[0], k3k4, acc[1]);
        x = fold16(x, k3k4, acc[2]);
        x = fold16(x, k3k4, acc[3]);
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold16(x, k3k4, load(block));
        }
        super::fold_chain(reduce(x), blocks.remainder())
    }

    /// Moves `x` 128 bits further by the constants in `k` and adds `next`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// 128 bits → 64 (k4, then k5) → the 32-bit state (Barrett).
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 8),
            _mm_clmulepi64_si128(x, _mm_set_epi64x(K4, K3), 0x10),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        );
        let barrett = _mm_set_epi64x(MU, P_PRIME);
        let q = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10), low32);
        _mm_extract_epi32(_mm_xor_si128(x, _mm_clmulepi64_si128(q, barrett, 0x00)), 1) as u32
    }

    /// One 16-byte block, little-endian, without a pointer load.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let half =
            |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("a 16-byte block"));
        _mm_set_epi64x(half(8), half(0))
    }
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

    /// Folds one input into a raw state.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel: the chain alone, and — where this CPU runs it — the
    /// carry-less multiply, which leaves inputs under `CLMUL_MIN` bytes to
    /// the chain as `update` does.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("chain", fold_chain)];
        if fold_clmul(!0, &[0; CLMUL_MIN]).is_some() {
            kernels.push(("clmul", |crc, data| {
                fold_clmul(crc, data).unwrap_or_else(|| fold_chain(crc, data))
            }));
        }
        kernels
    }

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32_portable(b"123456789"), 0xCBF4_3926);
    }

    /// The definition, one bit at a time — no tables to get wrong. Entry
    /// `n` is the raw state after `data[..n]` from `init`, so one pass
    /// checks every length.
    fn bitwise_states(init: u32, data: &[u8]) -> Vec<u32> {
        let mut crc = init;
        let mut out = vec![crc];
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            out.push(crc);
        }
        out
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut rng = crate::dist::SplitMix64::new(0xC4C3_2000);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sliced_matches_bitwise_reference_at_every_length_and_alignment() {
        // Up to three 2 KiB pages plus one slicing-by-16 block: the chain
        // alone and under the multiply, every 64-byte step count, every
        // 16-byte block count and every byte tail, at every start offset
        // within a word.
        const MAX: usize = 3 * 2048 + SLICES;
        let data = noise(8 + MAX);
        for (name, kernel) in kernels() {
            for start in 0..8 {
                let reference = bitwise_states(!0, &data[start..start + MAX]);
                for (len, &want) in reference.iter().enumerate() {
                    let got = kernel(!0, &data[start..start + len]);
                    assert_eq!(got, want, "{name} start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn every_kernel_continues_any_incoming_state() {
        // The incoming state is XORed into the multiply's first block: a
        // state that is not the initial `!0` — zero included — must come
        // out as the bit-at-a-time reference has it, on either side of the
        // threshold and of each 16-byte block.
        let data = noise(64 + 16 * 40 + 1);
        let lens: Vec<usize> = [0, 1, 15, 16, 17, 63, 64, 65]
            .into_iter()
            .chain((1..=40).flat_map(|k| [64 + 16 * k - 1, 64 + 16 * k, 64 + 16 * k + 1]))
            .collect();
        for init in [0, 1, 0x8000_0000, 0xDEAD_BEEF, !0] {
            let reference = bitwise_states(init, &data);
            for (name, kernel) in kernels() {
                for &len in &lens {
                    assert_eq!(
                        kernel(init, &data[..len]),
                        reference[len],
                        "{name} init {init:#x} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        // Two 2 KiB pages: a split anywhere moves bytes between the
        // multiply and the chain, and gives the second piece a running
        // state.
        let data = noise(2 * 2048);
        let whole = bitwise_states(!0, &data)[data.len()];
        for (name, kernel) in kernels() {
            for split in 0..=data.len() {
                let got = kernel(kernel(!0, &data[..split]), &data[split..]);
                assert_eq!(got, whole, "{name} split at {split}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_under_random_multi_splits() {
        let data = noise(3 * 2048 + 777);
        let reference = bitwise_states(!0, &data);
        for (name, kernel) in kernels() {
            let mut rng = crate::dist::SplitMix64::new(0x5EED_C4C3);
            for round in 0..300 {
                let len = rng.next_u64() as usize % (data.len() + 1);
                let mut cuts: Vec<usize> =
                    (0..rng.next_u64() % 8).map(|_| rng.next_u64() as usize % (len + 1)).collect();
                cuts.push(len);
                cuts.sort_unstable();
                let mut crc = !0;
                let mut at = 0;
                for &cut in &cuts {
                    crc = kernel(crc, &data[at..cut]);
                    at = cut;
                }
                assert_eq!(crc, reference[len], "{name} round {round} cuts {cuts:?}");
            }
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

    /// CI must not test only the chain: where the CPU reports both
    /// features, `update` (which asks `fold_clmul` first) has to take the
    /// multiply from `CLMUL_MIN` bytes on.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn update_takes_the_multiply_wherever_the_cpu_has_it() {
        let data = noise(CLMUL_MIN);
        let has = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        assert_eq!(fold_clmul(!0, &data).is_some(), has, "pclmulqdq + sse4.1 detected: {has}");
        assert_eq!(fold_clmul(!0, &data[..CLMUL_MIN - 1]), None);
    }
}
