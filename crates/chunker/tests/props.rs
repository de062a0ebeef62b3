//! Randomized-but-deterministic tests for chunking and sketching
//! invariants, driven by a seeded [`SplitMix64`] stream (proptest is
//! unavailable offline; every failure reproduces from the fixed seeds).

use dbdedup_chunker::{ChunkerConfig, ContentChunker, SketchExtractor};
use dbdedup_util::dist::SplitMix64;

fn rand_bytes(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<u8> {
    let len = min + rng.next_index(max - min);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Chunks always tile the input exactly, for arbitrary content.
#[test]
fn chunks_tile_input() {
    let mut rng = SplitMix64::new(0xC4C_0001);
    for _ in 0..48 {
        let data = rand_bytes(&mut rng, 0, 20_000);
        let avg_pow = 4 + rng.next_index(6) as u32;
        let chunker = ContentChunker::new(ChunkerConfig::with_avg(1 << avg_pow));
        let chunks = chunker.chunk(&data);
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset, pos);
            assert!(c.len > 0);
            pos += c.len;
        }
        assert_eq!(pos, data.len());
    }
}

/// Size bounds hold for every non-final chunk.
#[test]
fn chunk_size_bounds() {
    let mut rng = SplitMix64::new(0xC4C_0002);
    for _ in 0..48 {
        let data = rand_bytes(&mut rng, 0, 30_000);
        let cfg = ChunkerConfig::with_avg(256);
        let chunker = ContentChunker::new(cfg);
        let chunks = chunker.chunk(&data);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len <= cfg.max_size);
            if i + 1 != chunks.len() {
                assert!(c.len >= cfg.min_size, "chunk {} too small: {}", i, c.len);
            }
        }
    }
}

/// Chunking and sketching are pure functions of the input.
#[test]
fn deterministic() {
    let mut rng = SplitMix64::new(0xC4C_0003);
    for _ in 0..48 {
        let data = rand_bytes(&mut rng, 0, 10_000);
        let chunker = ContentChunker::new(ChunkerConfig::with_avg(128));
        assert_eq!(chunker.chunk(&data), chunker.chunk(&data));
        let ex = SketchExtractor::new(chunker, 8);
        assert_eq!(ex.extract(&data), ex.extract(&data));
    }
}

/// Sketches are bounded by K, sorted descending, and distinct.
#[test]
fn sketch_shape() {
    let mut rng = SplitMix64::new(0xC4C_0004);
    for _ in 0..48 {
        let data = rand_bytes(&mut rng, 1, 20_000);
        let k = 1 + rng.next_index(15);
        let ex = SketchExtractor::new(ContentChunker::new(ChunkerConfig::with_avg(64)), k);
        let s = ex.extract(&data);
        assert!(s.len() <= k);
        assert!(!s.is_empty());
        for w in s.features().windows(2) {
            assert!(w[0] > w[1]);
        }
    }
}

/// Min/max bounds and exact tiling hold on adversarial content the
/// rolling hash cannot find natural cut points in: all-zero runs and
/// short repeating patterns degenerate to max-size forced splits, never
/// to out-of-bounds chunks.
#[test]
fn adversarial_inputs_respect_bounds() {
    let mut rng = SplitMix64::new(0xC4C_0006);
    let patterns: Vec<Vec<u8>> = vec![
        vec![0u8; 40_000],                                                  // all zero
        vec![0xFFu8; 17_301],                                               // all ones, odd len
        (0..40_000).map(|i| (i % 2) as u8).collect(),                       // alternating
        b"ab".iter().cycle().take(33_333).copied().collect(),               // 2-byte period
        b"0123456789ABCDEF".iter().cycle().take(29_000).copied().collect(), // 16-byte period
        {
            // Random 64-byte motif repeated — periodic at exactly the
            // gear hash's 64-byte history, its worst case.
            let motif: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            motif.iter().cycle().take(37_000).copied().collect()
        },
    ];
    for avg_pow in [4u32, 6, 8, 10] {
        let cfg = ChunkerConfig::with_avg(1 << avg_pow);
        let chunker = ContentChunker::new(cfg);
        for (p, data) in patterns.iter().enumerate() {
            let chunks = chunker.chunk(data);
            let mut pos = 0;
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.offset, pos, "pattern {p} avg {}: gap/overlap", cfg.avg_size);
                assert!(c.len > 0, "pattern {p}: empty chunk");
                assert!(
                    c.len <= cfg.max_size,
                    "pattern {p} avg {}: chunk {i} len {} > max {}",
                    cfg.avg_size,
                    c.len,
                    cfg.max_size
                );
                if i + 1 != chunks.len() {
                    assert!(
                        c.len >= cfg.min_size,
                        "pattern {p} avg {}: chunk {i} len {} < min {}",
                        cfg.avg_size,
                        c.len,
                        cfg.min_size
                    );
                }
                pos += c.len;
            }
            assert_eq!(pos, data.len(), "pattern {p}: chunks must tile the input");
        }
    }
}

/// The localized-resync property the sketch relies on: after a
/// same-length perturbation of the record's prefix, the two chunkings
/// share a boundary shortly past the perturbed region, and from that
/// first common boundary on, *every* subsequent boundary is identical.
/// (Exact, not statistical: the boundary decision reads at most 64
/// trailing bytes — the hash is a 64-bit shift register — so once a
/// boundary past `p + 64` appears in both chunkings, the candidates and
/// the chunk start are the same from there on.)
#[test]
fn gear_boundaries_resync_after_prefix_perturbation() {
    let cfg = ChunkerConfig::with_avg(256);
    let mut rng = SplitMix64::new(0xC4C_0008);
    let chunker = ContentChunker::new(cfg);
    for round in 0..48 {
        let mut data = Vec::new();
        while data.len() < 16_000 {
            let w = rng.next_u64() % 500;
            data.extend_from_slice(format!("token{w} ").as_bytes());
        }
        let p = 1 + rng.next_index(700); // perturbed prefix length
        let mut mutated = data.clone();
        for b in &mut mutated[..p] {
            *b = rng.next_u64() as u8;
        }
        let bounds = |chunks: &[dbdedup_chunker::Chunk]| -> Vec<usize> {
            chunks.iter().map(|c| c.offset + c.len).collect()
        };
        let a = bounds(&chunker.chunk(&data));
        let b = bounds(&chunker.chunk(&mutated));
        // First boundary present in both chunkings that sits a full
        // 64-byte hash history past the perturbed region.
        let resync = a
            .iter()
            .copied()
            .find(|&x| x >= p + 64 && b.contains(&x))
            .unwrap_or_else(|| panic!("round {round}: no common boundary after prefix {p}"));
        assert!(
            resync <= p + 8 * cfg.max_size,
            "round {round}: resync at {resync} too far past prefix {p}"
        );
        let a_tail: Vec<usize> = a.iter().copied().filter(|&x| x > resync).collect();
        let b_tail: Vec<usize> = b.iter().copied().filter(|&x| x > resync).collect();
        assert_eq!(
            a_tail, b_tail,
            "round {round}: boundaries past resync at {resync} must be identical"
        );
    }
}

/// Identical prefixes produce identical leading chunks (locality: a
/// change can only affect chunks at or after the edit point).
#[test]
fn edit_locality() {
    let mut rng = SplitMix64::new(0xC4C_0005);
    for _ in 0..48 {
        let base = rand_bytes(&mut rng, 2_000, 12_000);
        let suffix = rand_bytes(&mut rng, 0, 2_000);
        let chunker = ContentChunker::new(ChunkerConfig::with_avg(128));
        let mut extended = base.clone();
        extended.extend_from_slice(&suffix);
        let a = chunker.chunk(&base);
        let b = chunker.chunk(&extended);
        // Every chunk of `base` that ends well before the tail region must
        // reappear identically in `extended`'s chunking.
        let safe_end = base.len().saturating_sub(chunker.config().max_size);
        let a_early: Vec<_> = a.iter().filter(|c| c.offset + c.len <= safe_end).collect();
        for c in a_early {
            assert!(b.contains(c), "chunk at {} len {} vanished after append", c.offset, c.len);
        }
    }
}
