//! Content-defined chunking: the gear-hash scan and the windowed Rabin
//! scan, selected by [`ChunkerKind`].
//!
//! Both kinds work the same way: find every *candidate* position — one
//! whose fingerprint matches a fixed bit pattern in `n` bits, one position
//! in `2ⁿ` — then apply the min/max rule to the candidates, which bounds
//! the tail of the geometric length distribution exactly as in LBFS-lineage
//! dedup systems.
//!
//! In the default [`ChunkerKind::Gear`] the fingerprint is the one gear
//! hash of [`dbdedup_util::hash::gear`], rolled over the whole record once
//! and never reset, and the same pass samples the record's delta anchors
//! ([`ContentChunker::scan`]). With a hash that is never reset the
//! boundaries are those of the per-chunk scanner this replaced (hash
//! restarted `32 + log2(avg_size)` bytes before each chunk's first
//! admissible cut) wherever those warm-up bytes fit inside `min_size` —
//! every average of 128 bytes and up. Below that the old scanner tested
//! hashes that had not seen their full window; the continuous hash has, so
//! the boundaries differ there (`tests/boundary_diff.rs` keeps both
//! byte-at-a-time oracles and says which averages were re-pinned).
//!
//! In [`ChunkerKind::Rabin`], the paper's configuration, a 48-byte window
//! slides over the record and the fingerprint is the window's Rabin
//! fingerprint. Whether a position matches depends only on the window
//! before it, so the scan finds every matching position with four
//! interleaved rolling hashes over disjoint ranges of the record; the
//! boundaries are byte-identical to the one-hash, byte-at-a-time loop this
//! replaced (`tests/boundary_diff.rs`).

use dbdedup_util::hash::gear::{self, Anchor, AnchorSampler, BitTest};
use dbdedup_util::hash::rabin::RabinTables;
use std::sync::Arc;

/// A chunk's position within its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk start.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
}

impl Chunk {
    /// Borrows this chunk's bytes out of the whole record.
    pub fn slice<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[self.offset..self.offset + self.len]
    }
}

/// Parameters controlling chunk-size distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerConfig {
    /// Target average chunk size; must be a power of two ≥ 16.
    pub avg_size: usize,
    /// Minimum chunk size (boundaries before this are suppressed).
    pub min_size: usize,
    /// Maximum chunk size (a boundary is forced here).
    pub max_size: usize,
    /// Rabin sliding-window width in bytes.
    pub window: usize,
}

impl ChunkerConfig {
    /// The conventional configuration for a given average chunk size:
    /// `min = avg/4`, `max = avg*4`, 48-byte window (shrunk for tiny chunks).
    ///
    /// **Invariant** (relied on by every chunker kind and the boundary
    /// resync property): `window ≤ min_size ≤ avg_size ≤ max_size`. Because
    /// a Rabin boundary decision needs a full window of in-chunk bytes,
    /// `min_size` is clamped *up* to the window width — so for tiny
    /// averages (`avg_size < 4 · window`, i.e. below 64 with the 16-byte
    /// floor) the effective minimum is the window, **not** `avg/4`: at
    /// `avg = 16` the clamp makes `min_size == avg_size == 16`. The clamp
    /// never breaks `min_size ≤ avg_size` since `window ≤ max(16, avg/2) ≤
    /// avg` for every admissible average; `validate` asserts the full chain
    /// at chunker construction.
    pub fn with_avg(avg_size: usize) -> Self {
        assert!(avg_size.is_power_of_two() && avg_size >= 16, "avg must be a power of two >= 16");
        let window = 48.min(avg_size / 2).max(16);
        let cfg =
            Self { avg_size, min_size: (avg_size / 4).max(window), max_size: avg_size * 4, window };
        cfg.validate();
        cfg
    }

    /// dbDedup's default 1 KiB average chunk size.
    pub fn db_dedup_default() -> Self {
        Self::with_avg(1024)
    }

    /// The traditional-dedup default of 4 KiB average chunks.
    pub fn trad_dedup_default() -> Self {
        Self::with_avg(4096)
    }

    fn validate(&self) {
        assert!(self.avg_size.is_power_of_two(), "avg_size must be a power of two");
        assert!(self.min_size >= self.window, "min_size must cover the window");
        assert!(self.max_size >= self.avg_size, "max_size must be >= avg_size");
        assert!(self.min_size <= self.avg_size, "min_size must be <= avg_size");
    }
}

/// Which boundary detector drives content-defined chunking.
///
/// The kinds are **not** boundary-compatible with each other: switching a
/// store's kind re-chunks new content differently. Chunking only feeds
/// sketching, so old chains still decode and a store written under one
/// kind keeps ingesting under the other; new records merely stop finding
/// the old ones similar until their chains have new heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkerKind {
    /// Windowed Rabin fingerprint scan — the paper's configuration, kept as
    /// the reference kind. Its boundaries are pinned to golden hashes and
    /// never move. Costs a second pass: the delta anchors still come from
    /// a gear scan.
    Rabin,
    /// One gear-hash pass for boundaries and delta anchors together
    /// ([`dbdedup_util::hash::gear`]) — the default.
    #[default]
    Gear,
}

/// The per-kind scanning state built at construction.
#[derive(Debug, Clone)]
enum Scanner {
    Rabin { tables: Arc<RabinTables>, mask: u64, magic: u64 },
    Gear(BitTest),
}

/// What one pass over a record yields — its chunks and its delta anchors —
/// in buffers the caller keeps and hands back for the next record.
#[derive(Debug, Clone, Default)]
pub struct RecordScan {
    /// The record's content-defined chunks, covering it exactly.
    pub chunks: Vec<Chunk>,
    /// The record's delta anchors, ascending.
    pub anchors: Vec<Anchor>,
    ends: Candidates,
}

/// Candidate chunk ends, one ascending list per Rabin lane (the gear scan
/// fills the first).
type Candidates = [Vec<usize>; RABIN_LANES];

/// A reusable content-defined chunker.
///
/// Construction builds the Rabin tables for the configured window (Rabin
/// kind only; the gear kind uses the process-wide gear table), so create
/// one chunker per configuration and share it (it is `Send + Sync`).
#[derive(Debug, Clone)]
pub struct ContentChunker {
    config: ChunkerConfig,
    kind: ChunkerKind,
    scanner: Scanner,
}

impl ContentChunker {
    /// Creates a chunker for `config` with the default (gear) detector.
    pub fn new(config: ChunkerConfig) -> Self {
        Self::with_kind(config, ChunkerKind::default())
    }

    /// Creates a chunker for `config` using the given boundary detector.
    pub fn with_kind(config: ChunkerConfig, kind: ChunkerKind) -> Self {
        config.validate();
        let scanner = match kind {
            ChunkerKind::Rabin => {
                let bits = config.avg_size.trailing_zeros();
                let mask = (1u64 << bits) - 1;
                // A fixed non-zero pattern: all-zero windows (runs of
                // identical bytes) hash to 0, so `magic = 0` would
                // degenerate to min-size chunks on zero-filled regions.
                let magic = 0x0078_35b1_ab5a_9c27 & mask;
                Scanner::Rabin { tables: Arc::new(RabinTables::new(config.window)), mask, magic }
            }
            ChunkerKind::Gear => Scanner::Gear(BitTest::one_in(config.avg_size)),
        };
        Self { config, kind, scanner }
    }

    /// The configuration this chunker was built with.
    pub fn config(&self) -> &ChunkerConfig {
        &self.config
    }

    /// The boundary detector this chunker was built with.
    pub fn kind(&self) -> ChunkerKind {
        self.kind
    }

    /// Splits `data` into content-defined chunks covering it exactly.
    ///
    /// Records shorter than the minimum chunk size yield a single chunk.
    pub fn chunk(&self, data: &[u8]) -> Vec<Chunk> {
        let mut out = Vec::with_capacity(data.len() / self.config.avg_size + 1);
        self.chunk_into(data, &mut out);
        out
    }

    /// Like [`Self::chunk`] but reuses an output buffer.
    pub fn chunk_into(&self, data: &[u8], out: &mut Vec<Chunk>) {
        let mut ends = Candidates::default();
        self.candidates(data, None, &mut Vec::new(), &mut ends);
        self.select_boundaries(data.len(), &ends, out);
    }

    /// Chunks `data` and samples its delta anchors, replacing what `out`
    /// held. Under the gear kind this is one pass over the bytes; under
    /// Rabin the anchors cost a gear pass of their own.
    pub fn scan(&self, sampler: &AnchorSampler, data: &[u8], out: &mut RecordScan) {
        out.anchors.clear();
        self.candidates(data, Some(sampler.test()), &mut out.anchors, &mut out.ends);
        self.select_boundaries(data.len(), &out.ends, &mut out.chunks);
    }

    /// Every candidate chunk end of `data` into `ends` and, when asked for,
    /// its anchors onto `anchors`.
    ///
    /// The `Rabin` kind's candidates are a compatibility contract:
    /// `tests/boundary_diff.rs` pins the boundaries they select against
    /// golden hashes and holds the lanes to the byte-at-a-time loop they
    /// replaced.
    fn candidates(
        &self,
        data: &[u8],
        anchor: Option<BitTest>,
        anchors: &mut Vec<Anchor>,
        ends: &mut Candidates,
    ) {
        ends.iter_mut().for_each(Vec::clear);
        match &self.scanner {
            Scanner::Rabin { tables, mask, magic } => {
                rabin_candidates(tables, *mask, *magic, self.config.window, data, ends);
                gear::scan(data, anchor, None, anchors, &mut Vec::new());
            }
            Scanner::Gear(boundary) => {
                gear::scan(data, anchor, Some(*boundary), anchors, &mut ends[0]);
            }
        }
    }

    /// Applies the min/max rule to candidate chunk ends (ascending over
    /// the flattened lists): each chunk ends at the first candidate at
    /// least `min_size` past its start, or is cut at `max_size` when there
    /// is none in reach.
    fn select_boundaries(&self, len: usize, ends: &Candidates, out: &mut Vec<Chunk>) {
        out.clear();
        let mut candidates = ends.iter().flatten().copied().peekable();
        let mut start = 0usize;
        while start < len {
            let (lo, hi) = (start + self.config.min_size, start + self.config.max_size);
            while candidates.next_if(|&end| end < lo).is_some() {}
            let end = candidates.peek().map_or(hi, |&end| end.min(hi)).min(len);
            out.push(Chunk { offset: start, len: end - start });
            start = end;
        }
    }
}

/// Independent rolling hashes the Rabin candidate scan interleaves. One
/// hash is a chain of dependent table lookups (~260 MiB/s); four chains
/// keep the load ports busy instead of waiting on one (~900 MiB/s; two
/// reach ~480, six and eight no more than four). Even a record two windows
/// long is quicker this way than through one chain, so there is no
/// single-lane path.
const RABIN_LANES: usize = 4;

/// Every chunk end (exclusive) whose preceding `window` bytes fingerprint
/// to `magic` under `mask`, onto one ascending list per lane over
/// consecutive ranges of `data` — flattened, they ascend over the whole
/// record.
///
/// Whether a position is a candidate depends on the `window` bytes before
/// it and nothing else, so the lanes need no knowledge of where chunks
/// start: `ChunkerConfig::validate` keeps `window ≤ min_size`, hence by the
/// time a boundary is admissible its window lies wholly inside the chunk.
/// Each lane is primed with the window before its range and reads the
/// outgoing byte straight from `data` (no ring buffer).
fn rabin_candidates(
    tables: &RabinTables,
    mask: u64,
    magic: u64,
    window: usize,
    data: &[u8],
    ends: &mut Candidates,
) {
    if data.len() < window {
        return;
    }
    // Lane `l` rolls its window end over `[window + l·per, window + (l+1)·per)`.
    let per = (data.len() - window) / RABIN_LANES;
    let outgoing: [&[u8]; RABIN_LANES] = std::array::from_fn(|l| &data[l * per..][..per]);
    let incoming: [&[u8]; RABIN_LANES] = std::array::from_fn(|l| &data[window + l * per..][..per]);
    let mut hash = [0u64; RABIN_LANES];
    for i in 0..window {
        for l in 0..RABIN_LANES {
            hash[l] = tables.append(hash[l], data[l * per + i]);
        }
    }
    // Later lanes' primed windows are the previous lane's last position.
    if hash[0] & mask == magic {
        ends[0].push(window);
    }
    for i in 0..per {
        for l in 0..RABIN_LANES {
            hash[l] = tables.append(tables.expire(hash[l], outgoing[l][i]), incoming[l][i]);
            if hash[l] & mask == magic {
                ends[l].push(window + l * per + i + 1);
            }
        }
    }
    // What the division left over continues the last lane.
    let mut last = hash[RABIN_LANES - 1];
    for pos in window + RABIN_LANES * per..data.len() {
        last = tables.append(tables.expire(last, data[pos - window]), data[pos]);
        if last & mask == magic {
            ends[RABIN_LANES - 1].push(pos + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::dist::SplitMix64;

    const KINDS: [ChunkerKind; 2] = [ChunkerKind::Rabin, ChunkerKind::Gear];

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect()
    }

    #[test]
    fn chunks_cover_input_exactly() {
        for kind in KINDS {
            let c = ContentChunker::with_kind(ChunkerConfig::with_avg(64), kind);
            let data = random_bytes(10_000, 1);
            let chunks = c.chunk(&data);
            let mut pos = 0;
            for ch in &chunks {
                assert_eq!(ch.offset, pos, "{kind:?}: chunks must be contiguous");
                assert!(ch.len > 0);
                pos += ch.len;
            }
            assert_eq!(pos, data.len());
        }
    }

    #[test]
    fn size_bounds_respected() {
        for kind in KINDS {
            let cfg = ChunkerConfig::with_avg(64);
            let c = ContentChunker::with_kind(cfg, kind);
            let data = random_bytes(50_000, 2);
            let chunks = c.chunk(&data);
            for (i, ch) in chunks.iter().enumerate() {
                assert!(ch.len <= cfg.max_size, "{kind:?}: chunk {i} too large: {}", ch.len);
                if i != chunks.len() - 1 {
                    assert!(ch.len >= cfg.min_size, "{kind:?}: chunk {i} too small: {}", ch.len);
                }
            }
        }
    }

    #[test]
    fn average_size_in_expected_range() {
        for kind in KINDS {
            let cfg = ChunkerConfig::with_avg(256);
            let c = ContentChunker::with_kind(cfg, kind);
            let data = random_bytes(1 << 20, 3);
            let chunks = c.chunk(&data);
            let avg = data.len() / chunks.len();
            // With min/max clamping the realized average sits near (and
            // usually a bit above) the nominal average on random data.
            assert!(
                (cfg.avg_size / 2..cfg.avg_size * 3).contains(&avg),
                "{kind:?}: avg chunk size {avg} for nominal {}",
                cfg.avg_size
            );
        }
    }

    #[test]
    fn boundaries_are_content_defined() {
        // Inserting bytes at the front must leave boundaries in the
        // unmodified tail aligned to the same content.
        for kind in KINDS {
            let c = ContentChunker::with_kind(ChunkerConfig::with_avg(64), kind);
            let tail = random_bytes(20_000, 4);
            let mut shifted = random_bytes(137, 5);
            shifted.extend_from_slice(&tail);

            let a = c.chunk(&tail);
            let b = c.chunk(&shifted);
            // Collect boundary positions relative to the tail content.
            let bounds_a: Vec<usize> = a.iter().map(|ch| ch.offset + ch.len).collect();
            let bounds_b: Vec<usize> = b
                .iter()
                .map(|ch| ch.offset + ch.len)
                .filter(|&e| e > 137 + 1000) // skip the perturbed prefix region
                .map(|e| e - 137)
                .collect();
            // Most tail boundaries should appear in both chunkings.
            let common = bounds_b.iter().filter(|e| bounds_a.contains(e)).count();
            assert!(
                common * 10 >= bounds_b.len() * 8,
                "{kind:?}: only {common}/{} boundaries realigned",
                bounds_b.len()
            );
        }
    }

    #[test]
    fn constant_data_does_not_degenerate() {
        // A constant run holds either fingerprint at a fixed point; the
        // non-zero pattern must turn that into max-size chunks, not
        // min-size confetti.
        for kind in KINDS {
            for fill in [0x00u8, 0xFF] {
                let cfg = ChunkerConfig::with_avg(64);
                let c = ContentChunker::with_kind(cfg, kind);
                let data = vec![fill; 100_000];
                let avg = data.len() / c.chunk(&data).len();
                assert!(avg >= cfg.avg_size, "{kind:?} fill {fill:#x} collapsed to avg {avg}");
            }
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        for kind in KINDS {
            let c = ContentChunker::with_kind(ChunkerConfig::with_avg(1024), kind);
            assert!(c.chunk(&[]).is_empty());
            assert_eq!(c.chunk(&[42]), vec![Chunk { offset: 0, len: 1 }]);
            let small = c.chunk(&random_bytes(100, 6));
            assert_eq!(small.len(), 1);
            assert_eq!(small[0].len, 100);
        }
    }

    #[test]
    fn deterministic() {
        for kind in KINDS {
            let c = ContentChunker::with_kind(ChunkerConfig::with_avg(128), kind);
            let data = random_bytes(30_000, 7);
            assert_eq!(c.chunk(&data), c.chunk(&data));
        }
    }

    #[test]
    fn chunk_slice_accessor() {
        let data = b"hello world".to_vec();
        let ch = Chunk { offset: 6, len: 5 };
        assert_eq!(ch.slice(&data), b"world");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_avg_rejected() {
        let _ = ChunkerConfig::with_avg(1000);
    }

    /// Regression for the `with_avg` min-size clamp: for every admissible
    /// power-of-two average the invariant chain `window ≤ min_size ≤
    /// avg_size ≤ max_size` holds, and the clamp is exactly
    /// `max(avg/4, window)` — for tiny averages that lifts `min_size`
    /// above `avg/4` (up to `avg` itself at 16) without ever exceeding it.
    #[test]
    fn with_avg_min_size_clamp_invariants() {
        for avg_pow in 4..=16u32 {
            let avg = 1usize << avg_pow;
            let cfg = ChunkerConfig::with_avg(avg);
            assert!(cfg.window <= cfg.min_size, "avg {avg}: window above min");
            assert!(cfg.min_size <= cfg.avg_size, "avg {avg}: min above avg");
            assert!(cfg.avg_size <= cfg.max_size, "avg {avg}: avg above max");
            assert_eq!(cfg.min_size, (avg / 4).max(cfg.window), "avg {avg}: clamp rule");
            assert_eq!(cfg.max_size, avg * 4);
            if avg <= 64 {
                assert!(
                    cfg.min_size > avg / 4,
                    "avg {avg}: tiny averages must clamp min_size up to the window"
                );
            }
        }
        // The documented extreme: at avg 16 the clamp meets the average.
        assert_eq!(ChunkerConfig::with_avg(16).min_size, 16);
    }

    #[test]
    fn default_kind_is_gear_and_kind_is_reported() {
        let cfg = ChunkerConfig::with_avg(64);
        assert_eq!(ContentChunker::new(cfg).kind(), ChunkerKind::Gear);
        assert_eq!(ChunkerKind::default(), ChunkerKind::Gear);
        for kind in KINDS {
            assert_eq!(ContentChunker::with_kind(cfg, kind).kind(), kind);
        }
    }

    /// `scan` is `chunk_into` plus the sampler's own anchors, under either
    /// kind, and reusing the buffers leaves nothing of the previous record.
    #[test]
    fn scan_chunks_like_chunk_and_anchors_like_the_sampler() {
        let sampler = AnchorSampler::new(64);
        for kind in KINDS {
            let c = ContentChunker::with_kind(ChunkerConfig::with_avg(256), kind);
            let mut out = RecordScan::default();
            for (len, seed) in [(40_000, 8), (3, 9), (0, 10), (12_345, 11)] {
                let data = random_bytes(len, seed);
                c.scan(&sampler, &data, &mut out);
                assert_eq!(out.chunks, c.chunk(&data), "{kind:?} len {len}");
                let mut anchors = vec![Anchor { pos: 7, fp: 7 }];
                sampler.scan(&data, &mut anchors);
                assert_eq!(out.anchors, anchors, "{kind:?} len {len}");
                assert!(len < 10_000 || anchors.len() > len / 128, "{kind:?}: too few anchors");
            }
        }
    }
}
