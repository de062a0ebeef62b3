//! Boundary-equivalence differential harness: the fast gear scanner
//! (`ChunkerKind::Gear`, skip-ahead + 8-lane unrolled) must produce
//! **identical boundary sets and identical sketches** to its portable
//! scalar fallback (`ChunkerKind::GearScalar`) on every input class —
//! seeded random, all-zero, all-0xFF, periodic at several scales,
//! text-like, and boundary-adversarial constructions — at every
//! power-of-two average from 16 B to 64 KiB, over lengths chosen to
//! straddle the 8-byte lane width, the warm-up window, and the min/max
//! chunk-size edges. Every assertion message carries the seed, class,
//! average and length that failed, so a failure is a one-line repro.
//!
//! The suite also pins the **Rabin default** against golden boundary and
//! sketch hashes computed before the fast path existed: the `ChunkerKind`
//! refactor must leave every pre-existing store, sim trace and oplog
//! byte-identical. Since the Rabin scan itself was split into lane-parallel
//! candidate detection plus min/max selection, the suite also keeps the
//! byte-at-a-time loop it replaced ([`rabin_oracle`]) and holds the shipped
//! scan to it over the same input classes and the scan's own seams.

use dbdedup_chunker::{Chunk, ChunkerConfig, ChunkerKind, ContentChunker, SketchExtractor};
use dbdedup_util::dist::SplitMix64;
use dbdedup_util::hash::rabin::{RabinTables, RollingRabin};

/// Fixed seed for the CI `chunk-smoke` step; change it and the suite
/// explores a different corner of the space, but every failure still
/// prints the exact values to replay.
const SUITE_SEED: u64 = 0xB0D1_FF01;

fn gear_pair(avg: usize) -> (ContentChunker, ContentChunker) {
    let cfg = ChunkerConfig::with_avg(avg);
    (
        ContentChunker::with_kind(cfg, ChunkerKind::Gear),
        ContentChunker::with_kind(cfg, ChunkerKind::GearScalar),
    )
}

/// One named input generator; `len` is the exact output length.
fn input(class: &str, seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    match class {
        "random" => (0..len).map(|_| rng.next_u64() as u8).collect(),
        "zeros" => vec![0u8; len],
        "ones" => vec![0xFFu8; len],
        "periodic2" => (0..len).map(|i| if i % 2 == 0 { 0xA5 } else { 0x5A }).collect(),
        "periodic16" => b"0123456789ABCDEF".iter().cycle().take(len).copied().collect(),
        "periodic64" => {
            // Random 64-byte motif: periodic at exactly the gear window
            // scale, the worst case for the 64-byte-history hash.
            let motif: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            motif.iter().cycle().take(len).copied().collect()
        }
        "text" => {
            let mut d = Vec::with_capacity(len + 16);
            while d.len() < len {
                let w = rng.next_u64() % 700;
                d.extend_from_slice(format!("token{w} ").as_bytes());
            }
            d.truncate(len);
            d
        }
        "adversarial" => {
            // Alternating random noise and constant runs with lengths near
            // the chunking thresholds: forces max-size cuts, boundaries
            // immediately after min_size, and warm-up windows that span a
            // run/noise edge.
            let mut d = Vec::with_capacity(len + 64);
            let mut fill = 0x00u8;
            while d.len() < len {
                match rng.next_index(3) {
                    0 => {
                        let n = 1 + rng.next_index(96);
                        d.extend((0..n).map(|_| rng.next_u64() as u8));
                    }
                    1 => {
                        let n = 1 + rng.next_index(4096);
                        d.extend(std::iter::repeat_n(fill, n));
                        fill = fill.wrapping_add(0x55);
                    }
                    _ => {
                        let n = 1 + rng.next_index(40);
                        let b = rng.next_u64() as u8;
                        d.extend(std::iter::repeat_n(b, n));
                    }
                }
            }
            d.truncate(len);
            d
        }
        other => panic!("unknown input class {other}"),
    }
}

const CLASSES: [&str; 8] =
    ["random", "zeros", "ones", "periodic2", "periodic16", "periodic64", "text", "adversarial"];

/// Lengths exercising the scanner's structural edges for one config:
/// empty/tiny, the 8-byte lane width (63/64/65, 127/128/129), the warm-up
/// and min/max chunk-size boundaries ±1, and a multi-chunk stretch.
fn lengths_for(cfg: &ChunkerConfig) -> Vec<usize> {
    let mut lens = vec![
        0,
        1,
        7,
        8,
        9,
        63,
        64,
        65,
        127,
        128,
        129,
        cfg.min_size - 1,
        cfg.min_size,
        cfg.min_size + 1,
        cfg.min_size + 7,
        cfg.min_size + 8,
        cfg.min_size + 9,
        cfg.max_size - 1,
        cfg.max_size,
        cfg.max_size + 1,
        2 * cfg.max_size + 13,
    ];
    // A longer multi-chunk stretch, kept proportional so the 64 KiB
    // average doesn't blow the suite's runtime in debug builds.
    lens.push(if cfg.avg_size <= 4096 { 64 * cfg.avg_size + 29 } else { 6 * cfg.max_size + 29 });
    lens.sort_unstable();
    lens.dedup();
    lens
}

fn boundaries(chunks: &[Chunk]) -> Vec<usize> {
    chunks.iter().map(|c| c.offset + c.len).collect()
}

/// The tentpole property: fast and scalar gear scanning agree on every
/// class × average × length, and the sketches built on those boundaries
/// (streaming top-K vs sort-dedup-truncate reference) agree too.
#[test]
fn gear_fast_equals_scalar_across_all_input_classes() {
    let mut avg = 16usize;
    while avg <= 64 * 1024 {
        let (fast, scalar) = gear_pair(avg);
        let ex_fast = SketchExtractor::new(fast.clone(), 8);
        for class in CLASSES {
            for (i, len) in lengths_for(fast.config()).iter().enumerate() {
                let seed = SUITE_SEED ^ ((avg as u64) << 20) ^ (i as u64);
                let data = input(class, seed, *len);
                let a = fast.chunk(&data);
                let b = scalar.chunk(&data);
                assert_eq!(
                    a, b,
                    "boundary divergence — repro: class={class} avg={avg} len={len} \
                     seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
                );
                let sk_fast = ex_fast.extract_from_chunks(&data, &a);
                let sk_ref = ex_fast.extract_from_chunks_reference(&data, &b);
                assert_eq!(
                    sk_fast, sk_ref,
                    "sketch divergence — repro: class={class} avg={avg} len={len} \
                     seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
                );
            }
        }
        avg *= 2;
    }
}

/// Randomized sweep: unstructured lengths (not just the curated edge set)
/// across every class, at the averages where chunk counts are highest.
#[test]
fn gear_fast_equals_scalar_random_lengths() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0xDEAD);
    for round in 0..64 {
        let avg = 1usize << (4 + rng.next_index(7) as u32); // 16..1024
        let (fast, scalar) = gear_pair(avg);
        let class = CLASSES[rng.next_index(CLASSES.len())];
        let len = rng.next_index(50_000);
        let seed = rng.next_u64();
        let data = input(class, seed, len);
        assert_eq!(
            fast.chunk(&data),
            scalar.chunk(&data),
            "boundary divergence — repro: round={round} class={class} avg={avg} len={len} \
             seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
        );
    }
}

/// Truncating an input at (and one byte around) each of its own chunk
/// boundaries is the nastiest length family: the record ends exactly
/// where a scanner restarts. Fast and scalar must agree on every prefix.
#[test]
fn gear_fast_equals_scalar_on_boundary_aligned_prefixes() {
    for avg in [64usize, 1024] {
        let (fast, scalar) = gear_pair(avg);
        let data = input("text", SUITE_SEED ^ 0xA11D, 40_000);
        let cuts = boundaries(&fast.chunk(&data));
        for cut in cuts {
            for end in [cut.saturating_sub(1), cut, (cut + 1).min(data.len())] {
                let prefix = &data[..end];
                assert_eq!(
                    fast.chunk(prefix),
                    scalar.chunk(prefix),
                    "prefix divergence — repro: avg={avg} end={end} seed={:#x} \
                     (crates/chunker/tests/boundary_diff.rs)",
                    SUITE_SEED ^ 0xA11D
                );
            }
        }
    }
}

/// Golden pin: the default Rabin configuration must produce exactly the
/// boundaries and sketches it produced before the fast path existed
/// (hashes captured from the pre-`ChunkerKind` implementation). This is
/// the "existing stores/sims/traces are untouched" contract.
#[test]
fn rabin_default_boundaries_and_sketches_match_pre_kind_golden() {
    fn mix(h: u64, v: u64) -> u64 {
        SplitMix64::new(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
    // (avg, seed, len, chunk count, boundary hash, sketch hash) — captured
    // by running this exact fold against the pre-refactor chunker.
    let golden: [(usize, u64, usize, usize, u64, u64); 3] = [
        (64, 0xAB5A_0001, 50_000, 522, 0xa0fd_ce15_2c9e_6e8f, 0x43f0_2643_1c87_1ec5),
        (1024, 0xAB5A_0002, 200_000, 164, 0xd084_69c4_8977_fa1c, 0x57ea_8d0a_5faa_f896),
        (4096, 0xAB5A_0003, 400_000, 92, 0xd23a_7a0b_f087_9f59, 0xc34e_38a1_edf2_317e),
    ];
    for (avg, seed, len, n_chunks, bhash, shash) in golden {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let c = ContentChunker::new(ChunkerConfig::with_avg(avg));
        let chunks = c.chunk(&data);
        assert_eq!(chunks.len(), n_chunks, "avg={avg}: chunk count drifted from pre-kind golden");
        let mut h = 0u64;
        for ch in &chunks {
            h = mix(h, ch.offset as u64);
            h = mix(h, ch.len as u64);
        }
        assert_eq!(h, bhash, "avg={avg}: Rabin boundaries drifted from pre-kind golden");
        let ex = SketchExtractor::new(c, 8);
        let s = ex.extract(&data);
        let mut hs = 0u64;
        for f in s.features() {
            hs = mix(hs, *f);
        }
        assert_eq!(hs, shash, "avg={avg}: default sketch drifted from pre-kind golden");
    }
}

/// The Rabin chunker exactly as it ran before the candidates/selection
/// split: one rolling hash fed a byte at a time through a ring buffer,
/// reset at every chunk start. Kept here, outside the library, so the
/// oracle shares no code with the scan it checks (the magic is restated).
fn rabin_oracle(cfg: &ChunkerConfig, data: &[u8]) -> Vec<Chunk> {
    let tables = RabinTables::new(cfg.window);
    let mask = (1u64 << cfg.avg_size.trailing_zeros()) - 1;
    let magic = 0x0078_35b1_ab5a_9c27 & mask;
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut roll = RollingRabin::new(&tables);
    for (pos, &byte) in data.iter().enumerate() {
        roll.roll(byte);
        let chunk_len = pos - start + 1;
        let at_boundary =
            chunk_len >= cfg.min_size && roll.window_full() && (roll.hash() & mask) == magic;
        if at_boundary || chunk_len >= cfg.max_size {
            out.push(Chunk { offset: start, len: chunk_len });
            start = pos + 1;
            roll.reset();
        }
    }
    if start < data.len() {
        out.push(Chunk { offset: start, len: data.len() - start });
    }
    out
}

/// [`lengths_for`] plus the Rabin scan's own edges: the window (below it
/// no lane can be primed), whole multiples of the window, and a run of
/// consecutive lengths a few windows long (lanes shorter than their own
/// priming window, every remainder of the lane division).
fn rabin_lengths_for(cfg: &ChunkerConfig) -> Vec<usize> {
    let w = cfg.window;
    let mut lens = lengths_for(cfg);
    lens.extend([w - 1, w, w + 1]);
    for n in [2, 3, 4, 5, 8, 9] {
        lens.extend([n * w - 1, n * w, n * w + 1]);
    }
    lens.extend(2 * w + 2..=2 * w + 14);
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// The lane-parallel candidate scan plus selection is the old loop,
/// boundary for boundary, on every class × average × length.
#[test]
fn rabin_lanes_equal_byte_at_a_time_oracle() {
    let mut avg = 16usize;
    while avg <= 64 * 1024 {
        let cfg = ChunkerConfig::with_avg(avg);
        let chunker = ContentChunker::new(cfg);
        for class in CLASSES {
            for (i, len) in rabin_lengths_for(&cfg).iter().enumerate() {
                let seed = SUITE_SEED ^ 0x4AB1 ^ ((avg as u64) << 20) ^ (i as u64);
                let data = input(class, seed, *len);
                assert_eq!(
                    chunker.chunk(&data),
                    rabin_oracle(&cfg, &data),
                    "rabin divergence — repro: class={class} avg={avg} len={len} \
                     seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
                );
            }
        }
        avg *= 2;
    }
}

/// Unstructured lengths, and configurations `with_avg` never builds — the
/// tightest admissible one (`window == min_size`, where a boundary is
/// admissible the moment the window fills) and a `max_size` that is not a
/// multiple of anything.
#[test]
fn rabin_lanes_equal_oracle_random_lengths_and_tight_configs() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0x4AB1_0002);
    for round in 0..96 {
        let avg = 1usize << (4 + rng.next_index(8) as u32); // 16..2048
        let mut cfg = ChunkerConfig::with_avg(avg);
        if round % 3 == 1 {
            cfg.min_size = cfg.window;
            cfg.max_size = avg + 1 + rng.next_index(3 * avg);
        }
        let class = CLASSES[rng.next_index(CLASSES.len())];
        let len = rng.next_index(50_000);
        let seed = rng.next_u64();
        let data = input(class, seed, len);
        assert_eq!(
            ContentChunker::new(cfg).chunk(&data),
            rabin_oracle(&cfg, &data),
            "rabin divergence — repro: round={round} class={class} cfg={cfg:?} len={len} \
             seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
        );
    }
}

/// Lane seams: at small averages candidates are dense (one position in
/// `avg`), so over every prefix length of one noisy buffer each seam of
/// the lane division lands on, just before and just after a candidate
/// many times over — a lane that mis-primes its window, drops its first
/// position or double-reports its neighbour's last diverges here.
#[test]
fn rabin_lane_seams_swept_over_consecutive_lengths() {
    for avg in [16usize, 32, 64] {
        let cfg = ChunkerConfig::with_avg(avg);
        let chunker = ContentChunker::new(cfg);
        let seed = SUITE_SEED ^ 0x5EA4 ^ avg as u64;
        let data = input("random", seed, 1600);
        for len in cfg.window - 1..=data.len() {
            assert_eq!(
                chunker.chunk(&data[..len]),
                rabin_oracle(&cfg, &data[..len]),
                "rabin seam divergence — repro: class=random avg={avg} len={len} \
                 seed={seed:#x} (crates/chunker/tests/boundary_diff.rs)"
            );
        }
    }
}
