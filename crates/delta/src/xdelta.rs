//! The classic xDelta algorithm — the unoptimized baseline of Fig. 15.
//!
//! Two phases, following MacDonald's original design:
//!
//! 1. **Index the source**: split it into fixed-size (16-byte) blocks and
//!    record each block's Adler-32 checksum → offset in a temporary map.
//! 2. **Scan the target** byte-by-byte with a rolling Adler-32 of the same
//!    width. When the window checksum hits the index, verify the bytes and
//!    extend the match bidirectionally with byte-wise comparison to the
//!    longest common stretch; emit COPY for the match and INSERT for the
//!    gap before it, then continue after the match.
//!
//! The cost dbDedup attacks is exactly here: an index insertion for *every*
//! source block and an index probe at *every* target offset.

use crate::ops::{Delta, DeltaWriter, MIN_COPY_LEN};
use dbdedup_util::hash::adler32::{adler32, RollingAdler32};
use dbdedup_util::hash::fx::FxHashMap;

/// The block / window width used by classic xDelta.
pub const XDELTA_BLOCK: usize = 16;

/// Computes a forward delta reconstructing `target` from `source` using the
/// classic xDelta algorithm with 16-byte blocks.
pub fn xdelta_compress(source: &[u8], target: &[u8]) -> Delta {
    xdelta_compress_block(source, target, XDELTA_BLOCK)
}

/// [`xdelta_compress`] with an explicit block size (≥ 4).
pub fn xdelta_compress_block(source: &[u8], target: &[u8], block: usize) -> Delta {
    assert!(block >= 4, "block size too small to be meaningful");
    if source.len() < block {
        return Delta::literal(target);
    }

    // Phase 1: index non-overlapping source blocks by checksum. Later blocks
    // overwrite earlier ones on collision, matching the classic behaviour.
    let mut index: FxHashMap<u32, u32> =
        FxHashMap::with_capacity_and_hasher(source.len() / block + 1, Default::default());
    let mut off = 0usize;
    while off + block <= source.len() {
        index.insert(adler32(&source[off..off + block]), off as u32);
        off += block;
    }

    // Phase 2: scan the target.
    let mut w = DeltaWriter::new(target.len());
    let mut emitted = 0usize; // target bytes already encoded
    let mut j = 0usize; // window start
    let mut roll = RollingAdler32::new(block);
    let mut filled = 0usize; // how many bytes of the current window are fed

    while j + block <= target.len() {
        // (Re)fill the rolling window if we jumped.
        while filled < block {
            roll.roll(target[j + filled]);
            filled += 1;
        }
        let mut matched = false;
        if let Some(&cand) = index.get(&roll.hash()) {
            let s = cand as usize;
            if source[s..s + block] == target[j..j + block] {
                // Extend backward (bounded by already-emitted output) ...
                let mut s0 = s;
                let mut t0 = j;
                while s0 > 0 && t0 > emitted && source[s0 - 1] == target[t0 - 1] {
                    s0 -= 1;
                    t0 -= 1;
                }
                // ... and forward, a word at a time then the byte tail.
                let mut s1 = s + block;
                let mut t1 = j + block;
                while s1 + 8 <= source.len() && t1 + 8 <= target.len() {
                    let a = u64::from_le_bytes(source[s1..s1 + 8].try_into().expect("len 8"));
                    let b = u64::from_le_bytes(target[t1..t1 + 8].try_into().expect("len 8"));
                    if a != b {
                        break;
                    }
                    s1 += 8;
                    t1 += 8;
                }
                while s1 < source.len() && t1 < target.len() && source[s1] == target[t1] {
                    s1 += 1;
                    t1 += 1;
                }
                let len = t1 - t0;
                if len >= MIN_COPY_LEN {
                    w.insert(&target[emitted..t0]);
                    w.copy(s0, len);
                    emitted = t1;
                    j = t1;
                    roll.reset();
                    filled = 0;
                    matched = true;
                }
            }
        }
        if !matched {
            // Slide one byte.
            j += 1;
            if j + block <= target.len() {
                roll.roll(target[j + block - 1]);
            }
        }
    }
    w.insert(&target[emitted..]);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::dist::SplitMix64;

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect()
    }

    #[test]
    fn identical_inputs_one_copy() {
        let data = random_bytes(4096, 1);
        let d = xdelta_compress(&data, &data);
        assert_eq!(d.apply(&data).unwrap(), data);
        // A single COPY: varint(4096), then the tag, offset 0, varint(4096).
        assert_eq!(d.as_bytes(), b"\x80\x20\x01\x00\x80\x20");
    }

    #[test]
    fn small_edit_mostly_copied() {
        let src = random_bytes(10_000, 2);
        let mut tgt = src.clone();
        tgt[5_000] ^= 0xff;
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.copy_fraction() > 0.99, "copy fraction {}", d.copy_fraction());
        assert!(d.encoded_len() < 100, "encoded {} bytes", d.encoded_len());
    }

    #[test]
    fn insertion_in_middle() {
        let src = random_bytes(8_000, 3);
        let mut tgt = Vec::new();
        tgt.extend_from_slice(&src[..4_000]);
        tgt.extend_from_slice(b"INSERTED CONTENT THAT IS NEW");
        tgt.extend_from_slice(&src[4_000..]);
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() < 200);
    }

    #[test]
    fn unrelated_inputs_fall_back_to_literal() {
        let src = random_bytes(4_000, 4);
        let tgt = random_bytes(4_000, 5);
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        // No meaningful matches: encoded length ≈ target length.
        assert!(d.encoded_len() >= tgt.len());
        assert!(d.encoded_len() < tgt.len() + 64);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(xdelta_compress(b"", b"").target_len(), 0);
        let d = xdelta_compress(b"", b"target");
        assert_eq!(d.apply(b"").unwrap(), b"target");
        let d = xdelta_compress(b"source bytes here", b"");
        assert_eq!(d.apply(b"source bytes here").unwrap(), Vec::<u8>::new());
        let d = xdelta_compress(b"tiny", b"tiny");
        assert_eq!(d.apply(b"tiny").unwrap(), b"tiny");
    }

    #[test]
    fn dispersed_small_edits() {
        // The motivating database workload: many 10s-of-bytes edits spread
        // through a record (Fig. 2).
        let src = random_bytes(50_000, 6);
        let mut tgt = src.clone();
        for k in 0..20 {
            let at = 2_000 * (k + 1);
            for b in tgt.iter_mut().skip(at).take(30) {
                *b = b.wrapping_add(1);
            }
        }
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        // 600 modified bytes + framing; should be far below 10% of the record.
        assert!(d.encoded_len() < 5_000, "encoded {} bytes", d.encoded_len());
    }

    #[test]
    fn prefix_suffix_reuse() {
        let src = random_bytes(6_000, 7);
        let tgt = [&src[..3_000], &random_bytes(100, 8)[..], &src[3_000..]].concat();
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
    }

    #[test]
    fn custom_block_size() {
        let src = random_bytes(4_000, 9);
        let mut tgt = src.clone();
        tgt[100] ^= 1;
        for block in [4usize, 8, 32, 64] {
            let d = xdelta_compress_block(&src, &tgt, block);
            assert_eq!(d.apply(&src).unwrap(), tgt, "block {block}");
        }
    }
}
