//! Boundary- and anchor-equivalence differential harness for both scans.
//!
//! **Gear** (`ChunkerKind::Gear`, the default): one hash rolled over the
//! whole record yields chunk-boundary candidates and delta anchors
//! together. The suite holds
//!
//! * the boundaries `ContentChunker::{chunk, scan}` select to
//!   [`gear_oracle`] — a byte-at-a-time loop with the min/max rule inline —
//!   on every input class (seeded random, all-zero, all-0xFF, periodic at
//!   several scales, text-like, boundary-adversarial) at every power-of-two
//!   average from 16 B to 64 KiB, over lengths chosen to straddle the
//!   min/max chunk-size edges;
//! * the same boundaries, for every average of 128 B and up, to
//!   [`gear_reset_oracle`] — the boundary function the gear kind computed
//!   before the scan became continuous (hash restarted shortly before each
//!   chunk's first admissible cut), kept verbatim. The two are one function
//!   there, so no store sketched under gear at those averages sees a
//!   boundary move; golden hashes captured from that previous scanner pin
//!   it (`gear_boundaries_and_sketches_match_golden`).
//!   **Below 128 B the function changed**: the previous scanner's restart
//!   left fewer bytes than the tested bits depend on (`warm > min_size`),
//!   so it tested half-warmed hashes; the continuous hash is always warm.
//!   Averages 16–64 are re-pinned here to the continuous function (the
//!   `avg = 64` golden row is new; `gear_below_128_differs_from_the_reset_
//!   function` shows the difference is real);
//! * the anchors of `ContentChunker::scan` and `AnchorSampler::scan` to
//!   [`anchor_oracle`], which shares nothing with the scan: it recomputes
//!   the hash of the 64 bytes behind every position from the table,
//!   restates the predicate, and applies the collapse rule to a finished
//!   list;
//! * the sketches built on those boundaries (streaming top-K vs
//!   sort-dedup-truncate reference).
//!
//! **Rabin** (`ChunkerKind::Rabin`): pinned against golden boundary and
//! sketch hashes computed before any of this existed — every store, sim
//! trace and oplog written under it stays byte-identical — and held to the
//! byte-at-a-time loop its lane-parallel candidate scan replaced
//! ([`rabin_oracle`]) over the same input classes and the scan's own seams.
//!
//! Every assertion message carries the seed, class, average and length
//! that failed, so a failure is a one-line repro.

use dbdedup_chunker::{
    Anchor, AnchorSampler, Chunk, ChunkerConfig, ChunkerKind, ContentChunker, RecordScan,
    SketchExtractor,
};
use dbdedup_util::dist::SplitMix64;
use dbdedup_util::hash::gear::GearTable;
use dbdedup_util::hash::rabin::{RabinTables, RollingRabin};

/// Fixed seed for the CI `kernel-diff` step; change it and the suite
/// explores a different corner of the space, but every failure still
/// prints the exact values to replay.
const SUITE_SEED: u64 = 0xB0D1_FF01;

fn gear(avg: usize) -> ContentChunker {
    ContentChunker::with_kind(ChunkerConfig::with_avg(avg), ChunkerKind::Gear)
}

fn rabin(cfg: ChunkerConfig) -> ContentChunker {
    ContentChunker::with_kind(cfg, ChunkerKind::Rabin)
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

/// Lengths exercising the scanners' structural edges for one config:
/// empty/tiny, the gear hash's 64-byte history (63/64/65, 127/128/129),
/// the min/max chunk-size boundaries ±1, and a multi-chunk stretch.
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

// ---------------------------------------------------------------------
// Gear: oracles
// ---------------------------------------------------------------------

/// The lowest hash bit a gear test looks at, and the pattern it matches —
/// restated, so the oracles share no constant with the library.
const ORACLE_SHIFT: u32 = 32;
const ORACLE_PATTERN: u64 = 0x0078_35b1_ab5a_9c27;

/// Whether `h` is "one position in `span`".
fn oracle_matches(h: u64, span: usize) -> bool {
    let low = span as u64 - 1;
    (h >> ORACLE_SHIFT) & low == ORACLE_PATTERN & low
}

/// The gear boundary function, one byte at a time: one hash over the whole
/// record, never reset; a chunk ends at the first matching position at
/// least `min_size` into it, or at `max_size`.
fn gear_oracle(cfg: &ChunkerConfig, data: &[u8]) -> Vec<Chunk> {
    let table = GearTable::standard();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut h = 0u64;
    for (pos, &byte) in data.iter().enumerate() {
        h = table.roll(h, byte);
        let chunk_len = pos - start + 1;
        let at_boundary = chunk_len >= cfg.min_size && oracle_matches(h, cfg.avg_size);
        if at_boundary || chunk_len >= cfg.max_size {
            out.push(Chunk { offset: start, len: chunk_len });
            start = pos + 1;
        }
    }
    if start < data.len() {
        out.push(Chunk { offset: start, len: data.len() - start });
    }
    out
}

/// The boundary function of the gear kind before the scan was continuous,
/// as that scanner's scalar reference computed it: for every chunk the
/// hash restarts from zero `warm` bytes before the first admissible cut
/// (or at the chunk start, when `min_size` is shorter than that).
fn gear_reset_oracle(cfg: &ChunkerConfig, data: &[u8]) -> Vec<Chunk> {
    let table = GearTable::standard();
    let warm = ORACLE_SHIFT as usize + cfg.avg_size.trailing_zeros() as usize;
    let n = data.len();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < n {
        let remaining = n - start;
        if remaining <= cfg.min_size {
            out.push(Chunk { offset: start, len: remaining });
            break;
        }
        let limit = start + remaining.min(cfg.max_size);
        let first = start + cfg.min_size - 1;
        let mut h = 0u64;
        let mut pos = start + cfg.min_size.saturating_sub(warm);
        while pos < first {
            h = table.roll(h, data[pos]);
            pos += 1;
        }
        let mut boundary = limit - 1;
        while pos < limit {
            h = table.roll(h, data[pos]);
            if oracle_matches(h, cfg.avg_size) {
                boundary = pos;
                break;
            }
            pos += 1;
        }
        out.push(Chunk { offset: start, len: boundary - start + 1 });
        start = boundary + 1;
    }
    out
}

/// The anchors of `data` without a rolling hash: the hash at a position is
/// the sum of the table entries of the 64 bytes ending there, each shifted
/// by its distance. Every matching position is listed first; runs of equal
/// fingerprint are then cut down to their last member.
fn anchor_oracle(interval: usize, data: &[u8]) -> Vec<Anchor> {
    let table = GearTable::standard();
    let mut all = Vec::new();
    for pos in 0..data.len() {
        let mut h = 0u64;
        for back in 0..=pos.min(63) {
            h = h.wrapping_add(table.roll(0, data[pos - back]) << back);
        }
        if oracle_matches(h, interval) {
            all.push(Anchor { pos: pos as u32, fp: (h >> 32) as u32 });
        }
    }
    let mut out: Vec<Anchor> = Vec::new();
    for (i, a) in all.iter().enumerate() {
        if all.get(i + 1).is_none_or(|next| next.fp != a.fp) {
            out.push(*a);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Gear: boundaries
// ---------------------------------------------------------------------

/// The scan's boundaries are the byte-at-a-time oracle's on every class ×
/// average × length — through `chunk` and through `scan` — and the
/// sketches built on them (streaming top-K vs sort-dedup-truncate
/// reference) agree too. From 128 B up they are also the previous gear
/// function's.
#[test]
fn gear_scan_equals_byte_at_a_time_oracle_across_all_input_classes() {
    let sampler = AnchorSampler::new(64);
    let mut scanned = RecordScan::default();
    let mut avg = 16usize;
    while avg <= 64 * 1024 {
        let chunker = gear(avg);
        let cfg = *chunker.config();
        let ex = SketchExtractor::new(chunker.clone(), 8);
        for class in CLASSES {
            for (i, len) in lengths_for(&cfg).iter().enumerate() {
                let seed = SUITE_SEED ^ ((avg as u64) << 20) ^ (i as u64);
                let data = input(class, seed, *len);
                let repro = format!(
                    "repro: class={class} avg={avg} len={len} seed={seed:#x} \
                     (crates/chunker/tests/boundary_diff.rs)"
                );
                let chunks = chunker.chunk(&data);
                assert_eq!(chunks, gear_oracle(&cfg, &data), "boundary divergence — {repro}");
                chunker.scan(&sampler, &data, &mut scanned);
                assert_eq!(scanned.chunks, chunks, "scan/chunk divergence — {repro}");
                if avg >= 128 {
                    assert_eq!(
                        chunks,
                        gear_reset_oracle(&cfg, &data),
                        "moved off the previous gear function — {repro}"
                    );
                }
                assert_eq!(
                    ex.extract_from_chunks(&data, &chunks),
                    ex.extract_from_chunks_reference(&data, &chunks),
                    "sketch divergence — {repro}"
                );
            }
        }
        avg *= 2;
    }
}

/// Randomized sweep: unstructured lengths (not just the curated edge set)
/// across every class, at the averages where chunk counts are highest.
#[test]
fn gear_scan_equals_oracles_random_lengths() {
    let mut rng = SplitMix64::new(SUITE_SEED ^ 0xDEAD);
    for round in 0..64 {
        let avg = 1usize << (4 + rng.next_index(7) as u32); // 16..1024
        let chunker = gear(avg);
        let class = CLASSES[rng.next_index(CLASSES.len())];
        let len = rng.next_index(50_000);
        let seed = rng.next_u64();
        let data = input(class, seed, len);
        let repro = format!(
            "repro: round={round} class={class} avg={avg} len={len} seed={seed:#x} \
             (crates/chunker/tests/boundary_diff.rs)"
        );
        let chunks = chunker.chunk(&data);
        assert_eq!(chunks, gear_oracle(chunker.config(), &data), "boundary divergence — {repro}");
        if avg >= 128 {
            assert_eq!(
                chunks,
                gear_reset_oracle(chunker.config(), &data),
                "moved off the previous gear function — {repro}"
            );
        }
    }
}

/// Truncating an input at (and one byte around) each of its own chunk
/// boundaries is the nastiest length family: the record ends exactly
/// where a chunk does.
#[test]
fn gear_scan_equals_oracle_on_boundary_aligned_prefixes() {
    for avg in [64usize, 1024] {
        let chunker = gear(avg);
        let data = input("text", SUITE_SEED ^ 0xA11D, 40_000);
        let cuts = boundaries(&chunker.chunk(&data));
        for cut in cuts {
            for end in [cut.saturating_sub(1), cut, (cut + 1).min(data.len())] {
                let prefix = &data[..end];
                assert_eq!(
                    chunker.chunk(prefix),
                    gear_oracle(chunker.config(), prefix),
                    "prefix divergence — repro: avg={avg} end={end} seed={:#x} \
                     (crates/chunker/tests/boundary_diff.rs)",
                    SUITE_SEED ^ 0xA11D
                );
            }
        }
    }
}

/// Where `warm > min_size` (averages 16–64) the continuous function is
/// *not* the previous one: this is the re-pin the header announces, shown
/// rather than asserted away.
#[test]
fn gear_below_128_differs_from_the_reset_function() {
    for avg in [16usize, 32, 64] {
        let chunker = gear(avg);
        let data = input("random", SUITE_SEED ^ 0x0128 ^ avg as u64, 50_000);
        let now = chunker.chunk(&data);
        assert_eq!(now, gear_oracle(chunker.config(), &data));
        assert_ne!(
            now,
            gear_reset_oracle(chunker.config(), &data),
            "avg={avg}: expected the half-warmed restarts of the previous scanner to cut elsewhere"
        );
    }
}

/// Golden pin for the gear kind, same fold as the Rabin pin below. The
/// 128 B, 1 KiB and 4 KiB rows were captured from the scanner this scan
/// replaced (reset-per-chunk, skip-ahead, unrolled) and must never move;
/// the 64 B row is new with the continuous function (it was 520 chunks,
/// `0xa867_3a84_797a_2bf8` / `0x614e_4d9e_bbb5_2d06` under the old one).
#[test]
fn gear_boundaries_and_sketches_match_golden() {
    let golden: [(usize, u64, usize, usize, u64, u64); 4] = [
        (64, 0xAB5A_0001, 50_000, 515, 0xbb3b_9d13_3ded_e6fa, 0x6767_a05a_992f_1590),
        (128, 0xAB5A_0004, 100_000, 607, 0xfc79_178e_0c58_ae4a, 0xf109_a9f3_a314_fd7e),
        (1024, 0xAB5A_0002, 200_000, 177, 0xc816_04df_6e57_b765, 0xc043_f74f_6e2b_b868),
        (4096, 0xAB5A_0003, 400_000, 86, 0xf04a_ea93_2ff1_2bac, 0xeb2d_5b9f_08ce_25d1),
    ];
    for row in golden {
        assert_golden(ChunkerKind::Gear, row);
    }
}

// ---------------------------------------------------------------------
// Gear: anchors
// ---------------------------------------------------------------------

/// The scan's anchors are the independent oracle's on every input class,
/// at intervals below, at and above the chunker's average (whichever test
/// is the narrower drives the hot branch), through `ContentChunker::scan`
/// under both kinds and through `AnchorSampler::scan`.
#[test]
fn anchors_equal_independent_oracle_across_all_input_classes() {
    let mut scanned = RecordScan::default();
    let mut alone = Vec::new();
    for interval in [16usize, 64, 4096] {
        let sampler = AnchorSampler::new(interval);
        for class in CLASSES {
            for (i, len) in [0usize, 1, 15, 63, 64, 65, 200, 4_097, 20_000].iter().enumerate() {
                let seed = SUITE_SEED ^ 0xA2C4 ^ ((interval as u64) << 20) ^ (i as u64);
                let data = input(class, seed, *len);
                let want = anchor_oracle(interval, &data);
                let repro = format!(
                    "repro: class={class} interval={interval} len={len} seed={seed:#x} \
                     (crates/chunker/tests/boundary_diff.rs)"
                );
                sampler.scan(&data, &mut alone);
                assert_eq!(alone, want, "sampler anchors diverged — {repro}");
                for chunker in [gear(1024), gear(64), rabin(ChunkerConfig::with_avg(1024))] {
                    chunker.scan(&sampler, &data, &mut scanned);
                    assert_eq!(
                        scanned.anchors,
                        want,
                        "{:?} avg={} scan anchors diverged — {repro}",
                        chunker.kind(),
                        chunker.config().avg_size
                    );
                }
            }
        }
    }
}

/// A run of one repeated byte holds the hash at a fixed point; for the
/// byte values whose fixed point is an anchor, every position of the run
/// would be one. For all 256 values, a long run inside mixed content must
/// leave the list bounded — `len / (interval / 4)` — and equal to the
/// oracle's.
#[test]
fn repeated_byte_runs_collapse_for_every_byte_value() {
    let interval = 64usize;
    let sampler = AnchorSampler::new(interval);
    let mut anchors = Vec::new();
    let mut saturating = 0;
    for byte in 0..=255u8 {
        let mut data = input("text", SUITE_SEED ^ 0x2525 ^ byte as u64, 3_000);
        data.extend(std::iter::repeat_n(byte, 6_000));
        data.extend(input("random", SUITE_SEED ^ 0x5252 ^ byte as u64, 3_000));
        sampler.scan(&data, &mut anchors);
        assert!(
            anchors.len() <= data.len() / (interval / 4),
            "byte {byte:#04x}: {} anchors over {} bytes",
            anchors.len(),
            data.len()
        );
        assert_eq!(anchors, anchor_oracle(interval, &data), "byte {byte:#04x}");
        // Uncollapsed, such a run alone would hold thousands.
        let fixed_point = GearTable::standard().hash(&[byte; 64]);
        if oracle_matches(fixed_point, interval) {
            saturating += 1;
            let in_run = anchors.iter().filter(|a| (3_064..9_000).contains(&(a.pos as usize)));
            assert_eq!(in_run.count(), 1, "byte {byte:#04x}: the run keeps its last anchor only");
        }
    }
    assert!(saturating > 0, "no byte value exercises the collapse; pick another table");
}

/// One `(avg, seed, len, chunk count, boundary hash, sketch hash)` golden
/// row, checked against `kind` on seeded random bytes.
fn assert_golden(kind: ChunkerKind, row: (usize, u64, usize, usize, u64, u64)) {
    fn mix(h: u64, v: u64) -> u64 {
        SplitMix64::new(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
    let (avg, seed, len, n_chunks, bhash, shash) = row;
    let mut rng = SplitMix64::new(seed);
    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let c = ContentChunker::with_kind(ChunkerConfig::with_avg(avg), kind);
    let chunks = c.chunk(&data);
    assert_eq!(chunks.len(), n_chunks, "{kind:?} avg={avg}: chunk count drifted from golden");
    let mut h = 0u64;
    for ch in &chunks {
        h = mix(h, ch.offset as u64);
        h = mix(h, ch.len as u64);
    }
    assert_eq!(h, bhash, "{kind:?} avg={avg}: boundaries drifted from golden");
    let ex = SketchExtractor::new(c, 8);
    let s = ex.extract(&data);
    let mut hs = 0u64;
    for f in s.features() {
        hs = mix(hs, *f);
    }
    assert_eq!(hs, shash, "{kind:?} avg={avg}: sketch drifted from golden");
}

// ---------------------------------------------------------------------
// Rabin
// ---------------------------------------------------------------------

/// Golden pin: the Rabin kind must produce exactly the boundaries and
/// sketches it produced before any other kind existed (hashes captured
/// from the pre-`ChunkerKind` implementation). This is the "stores, sims
/// and traces written under Rabin are untouched" contract.
#[test]
fn rabin_boundaries_and_sketches_match_pre_kind_golden() {
    // (avg, seed, len, chunk count, boundary hash, sketch hash) — captured
    // by running this exact fold against the pre-refactor chunker.
    let golden: [(usize, u64, usize, usize, u64, u64); 3] = [
        (64, 0xAB5A_0001, 50_000, 522, 0xa0fd_ce15_2c9e_6e8f, 0x43f0_2643_1c87_1ec5),
        (1024, 0xAB5A_0002, 200_000, 164, 0xd084_69c4_8977_fa1c, 0x57ea_8d0a_5faa_f896),
        (4096, 0xAB5A_0003, 400_000, 92, 0xd23a_7a0b_f087_9f59, 0xc34e_38a1_edf2_317e),
    ];
    for row in golden {
        assert_golden(ChunkerKind::Rabin, row);
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
        let chunker = rabin(cfg);
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
            rabin(cfg).chunk(&data),
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
        let chunker = rabin(cfg);
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
