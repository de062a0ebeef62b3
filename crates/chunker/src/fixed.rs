//! Fixed-size chunking — the ablation baseline for content-defined
//! chunking.
//!
//! Fixed-size chunks are cheaper to compute but suffer the *boundary-shift
//! problem*: inserting a single byte re-aligns every subsequent chunk, so
//! both exact dedup and similarity sketches lose all matches after the
//! edit point. The tests here demonstrate exactly that failure mode, which
//! is why dbDedup (like every dedup system since LBFS) pays for
//! content-defined chunking.

use crate::cdc::Chunk;

/// Splits `data` into fixed `size`-byte chunks (last chunk may be short).
pub fn fixed_chunks(data: &[u8], size: usize) -> Vec<Chunk> {
    assert!(size > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(data.len() / size + 1);
    let mut off = 0;
    while off < data.len() {
        let len = size.min(data.len() - off);
        out.push(Chunk { offset: off, len });
        off += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdc::{ChunkerConfig, ContentChunker};
    use dbdedup_util::dist::SplitMix64;
    use dbdedup_util::hash::murmur3::murmur3_x64_128;
    use std::collections::HashSet;

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect()
    }

    fn chunk_hashes(data: &[u8], chunks: &[Chunk]) -> HashSet<u64> {
        chunks.iter().map(|c| murmur3_x64_128(c.slice(data), 0).0).collect()
    }

    #[test]
    fn covers_input_exactly() {
        let data = random_bytes(10_000, 1);
        let chunks = fixed_chunks(&data, 512);
        assert_eq!(chunks.len(), 20);
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset, pos);
            pos += c.len;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn short_tail() {
        let chunks = fixed_chunks(&[0u8; 1000], 512);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].len, 488);
    }

    #[test]
    fn empty_input() {
        assert!(fixed_chunks(&[], 64).is_empty());
    }

    /// The motivating ablation: one inserted byte destroys fixed-size
    /// chunk identity but barely dents content-defined identity.
    #[test]
    fn boundary_shift_problem() {
        let original = random_bytes(100_000, 2);
        let mut shifted = original.clone();
        shifted.insert(10, 0xAB); // one byte near the front

        // Fixed-size: almost no chunk survives the shift.
        let f_orig = chunk_hashes(&original, &fixed_chunks(&original, 256));
        let f_shift = chunk_hashes(&shifted, &fixed_chunks(&shifted, 256));
        let fixed_survivors = f_orig.intersection(&f_shift).count();

        // Content-defined: almost every chunk survives.
        let cdc = ContentChunker::new(ChunkerConfig::with_avg(256));
        let c_orig = chunk_hashes(&original, &cdc.chunk(&original));
        let c_shift = chunk_hashes(&shifted, &cdc.chunk(&shifted));
        let cdc_survivors = c_orig.intersection(&c_shift).count();

        assert!(
            fixed_survivors <= 2,
            "fixed-size chunks should not survive a shift: {fixed_survivors}"
        );
        assert!(
            cdc_survivors * 10 >= c_orig.len() * 8,
            "CDC chunks must survive: {cdc_survivors}/{}",
            c_orig.len()
        );
    }
}
