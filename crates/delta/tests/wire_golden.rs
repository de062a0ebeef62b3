//! Golden delta bytes: both encoders, and Algorithm 2 over what they
//! produce, must write the same wire bytes, byte for byte, whatever builds
//! them. The digest was captured from the owned-op encoders, before the
//! wire writer replaced them; an encoder or writer that changes one byte of
//! one delta fails here rather than as a mystery `op_hash` or
//! `segment_hash` change in `perf/`.
//!
//! The corpus is seeded: records from 0 B to 70 KiB, each paired with an
//! edited version of itself (overwrites, insertions, deletions) in both
//! directions and with itself, encoded by dbdelta at anchor intervals 16
//! and 64 and by xdelta. Every forward delta is re-encoded backward, and
//! both are checked to round-trip before they are hashed.

use dbdedup_delta::{reencode, xdelta_compress, DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup_util::dist::SplitMix64;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Word-ish text with random variation: the shape the encoders face.
fn text(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        let word = rng.next_u64() % 700;
        out.extend_from_slice(format!("field{word}:value{} ", word * 7 % 13).as_bytes());
    }
    out.truncate(len);
    out
}

/// `doc` under 1–8 edits of 1–300 bytes: overwrites, insertions, deletions.
fn edited(rng: &mut SplitMix64, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..1 + rng.next_index(8) {
        let len = 1 + rng.next_index(300);
        let at = rng.next_index(out.len() + 1);
        match rng.next_u64() % 3 {
            0 => {
                let end = (at + len).min(out.len());
                for b in &mut out[at..end] {
                    *b = rng.next_u64() as u8;
                }
            }
            1 => {
                let novel = text(rng, len);
                out.splice(at..at, novel);
            }
            _ => {
                let end = (at + len).min(out.len());
                out.drain(at..end);
            }
        }
    }
    out
}

/// Record sizes: the window and block edges, a wiki revision, 70 KiB.
const SIZES: [usize; 14] = [0, 1, 7, 15, 16, 17, 31, 33, 64, 200, 1_000, 4_096, 17 << 10, 70 << 10];

/// (deltas, wire bytes, FNV-1a over every delta's length and bytes).
fn corpus_digest() -> (usize, usize, u64) {
    let mut encoders = [
        DbDeltaEncoder::new(DbDeltaConfig::with_interval(16)),
        DbDeltaEncoder::new(DbDeltaConfig::with_interval(64)),
    ];
    let (mut count, mut bytes, mut h) = (0usize, 0usize, 0xcbf2_9ce4_8422_2325u64);
    let mut add = |d: Delta, source: &[u8], target: &[u8]| {
        assert_eq!(d.apply(source).unwrap(), target);
        let w = d.as_bytes();
        h = fnv1a(fnv1a(h, &(w.len() as u64).to_le_bytes()), w);
        count += 1;
        bytes += w.len();
    };
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x601D_DE17 ^ seed);
        for &size in &SIZES {
            let a = text(&mut rng, size);
            let b = edited(&mut rng, &a);
            for (source, target) in [(&a, &b), (&b, &a), (&a, &a)] {
                let forwards = [
                    encoders[0].encode_anchored(source, None, target, None),
                    encoders[1].encode_anchored(source, None, target, None),
                    xdelta_compress(source, target),
                ];
                for forward in forwards {
                    let back = reencode(source, forward.as_bytes());
                    add(forward, source, target);
                    add(back, target, source);
                }
            }
        }
    }
    (count, bytes, h)
}

/// The corpus as the owned-op encoders wrote it.
const GOLDEN: (usize, usize, u64) = (4_032, 628_523, 0xdba1_920e_9c10_99b9);

#[test]
fn both_encoders_and_reencode_write_golden_wire_bytes() {
    assert_eq!(corpus_digest(), GOLDEN);
}
