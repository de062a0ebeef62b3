//! Content-defined chunking with the gear hash.
//!
//! The scan finds every *candidate* position — one whose fingerprint
//! matches a fixed bit pattern in `n` bits, one position in `2ⁿ` — then
//! applies the min/max rule to the candidates, which bounds the tail of the
//! geometric length distribution exactly as in LBFS-lineage dedup systems.
//!
//! The fingerprint is the one gear hash of [`dbdedup_util::hash::gear`],
//! rolled over the whole record once and never reset, and the same pass
//! samples the record's delta anchors ([`ContentChunker::scan`]). With a
//! hash that is never reset the boundaries are those of the per-chunk
//! scanner this replaced (hash restarted `32 + log2(avg_size)` bytes before
//! each chunk's first admissible cut) wherever those warm-up bytes fit
//! inside `min_size` — every average of 128 bytes and up. Below that the
//! old scanner tested hashes that had not seen their full window; the
//! continuous hash has, so the boundaries differ there
//! (`tests/boundary_diff.rs` keeps both byte-at-a-time oracles and says
//! which averages were re-pinned).
//!
//! The paper cuts with a Rabin fingerprint over a 48-byte window (§3.1.1);
//! DESIGN.md §15 records why this chunker departs from it.

use dbdedup_util::hash::gear::{self, Anchor, AnchorSampler, BitTest};

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
}

impl ChunkerConfig {
    /// The conventional configuration for a given average chunk size:
    /// `min = avg/4`, `max = avg*4`, with `min_size` never below `avg/2`
    /// clamped to 16..=48.
    ///
    /// That floor is the paper's 48-byte fingerprint window (shrunk for
    /// tiny chunks), which the chunker once needed inside every chunk. It
    /// lifts `min_size` above `avg/4` for every average below 256 — at
    /// `avg = 16` to the average itself — and stays because the gear
    /// boundaries pinned at those averages were cut with it.
    pub fn with_avg(avg_size: usize) -> Self {
        assert!(avg_size.is_power_of_two() && avg_size >= 16, "avg must be a power of two >= 16");
        let floor = (avg_size / 2).clamp(16, 48);
        let cfg = Self { avg_size, min_size: (avg_size / 4).max(floor), max_size: avg_size * 4 };
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
        assert!(self.min_size > 0, "min_size must be positive");
        assert!(self.max_size >= self.avg_size, "max_size must be >= avg_size");
        assert!(self.min_size <= self.avg_size, "min_size must be <= avg_size");
    }
}

/// The boundary detector. The gear scan is the only one; the type and
/// [`ContentChunker::with_kind`] are kept because the `perf/` benchmark
/// names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkerKind {
    /// One gear-hash pass for boundaries and delta anchors together
    /// ([`dbdedup_util::hash::gear`]).
    #[default]
    Gear,
}

/// What one pass over a record yields — its chunks and its delta anchors —
/// in buffers the caller keeps and hands back for the next record.
#[derive(Debug, Clone, Default)]
pub struct RecordScan {
    /// The record's content-defined chunks, covering it exactly.
    pub chunks: Vec<Chunk>,
    /// The record's delta anchors, ascending.
    pub anchors: Vec<Anchor>,
    /// Candidate chunk ends, ascending.
    ends: Vec<usize>,
}

/// A reusable content-defined chunker. It holds no tables of its own (the
/// gear table is process-wide), so it is cheap to clone and `Send + Sync`.
#[derive(Debug, Clone)]
pub struct ContentChunker {
    config: ChunkerConfig,
    boundary: BitTest,
}

impl ContentChunker {
    /// Creates a chunker for `config`.
    pub fn new(config: ChunkerConfig) -> Self {
        config.validate();
        Self { config, boundary: BitTest::one_in(config.avg_size) }
    }

    /// [`Self::new`]; `kind` has one value.
    pub fn with_kind(config: ChunkerConfig, kind: ChunkerKind) -> Self {
        let ChunkerKind::Gear = kind;
        Self::new(config)
    }

    /// The configuration this chunker was built with.
    pub fn config(&self) -> &ChunkerConfig {
        &self.config
    }

    /// The boundary detector this chunker was built with: always the gear scan.
    pub fn kind(&self) -> ChunkerKind {
        ChunkerKind::Gear
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
        let mut ends = Vec::new();
        gear::scan(data, None, Some(self.boundary), &mut Vec::new(), &mut ends);
        self.select_boundaries(data.len(), &ends, out);
    }

    /// Chunks `data` and samples its delta anchors in one pass over the
    /// bytes, replacing what `out` held.
    pub fn scan(&self, sampler: &AnchorSampler, data: &[u8], out: &mut RecordScan) {
        out.anchors.clear();
        out.ends.clear();
        gear::scan(
            data,
            Some(sampler.test()),
            Some(self.boundary),
            &mut out.anchors,
            &mut out.ends,
        );
        self.select_boundaries(data.len(), &out.ends, &mut out.chunks);
    }

    /// Applies the min/max rule to candidate chunk ends (ascending): each
    /// chunk ends at the first candidate at least `min_size` past its
    /// start, or is cut at `max_size` when there is none in reach.
    fn select_boundaries(&self, len: usize, ends: &[usize], out: &mut Vec<Chunk>) {
        out.clear();
        let mut candidates = ends.iter().copied().peekable();
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

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::dist::SplitMix64;

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect()
    }

    fn chunker(avg: usize) -> ContentChunker {
        ContentChunker::new(ChunkerConfig::with_avg(avg))
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let data = random_bytes(10_000, 1);
        let mut pos = 0;
        for ch in &chunker(64).chunk(&data) {
            assert_eq!(ch.offset, pos, "chunks must be contiguous");
            assert!(ch.len > 0);
            pos += ch.len;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn size_bounds_respected() {
        let cfg = ChunkerConfig::with_avg(64);
        let data = random_bytes(50_000, 2);
        let chunks = ContentChunker::new(cfg).chunk(&data);
        for (i, ch) in chunks.iter().enumerate() {
            assert!(ch.len <= cfg.max_size, "chunk {i} too large: {}", ch.len);
            if i != chunks.len() - 1 {
                assert!(ch.len >= cfg.min_size, "chunk {i} too small: {}", ch.len);
            }
        }
    }

    #[test]
    fn average_size_in_expected_range() {
        let data = random_bytes(1 << 20, 3);
        let avg = data.len() / chunker(256).chunk(&data).len();
        // With min/max clamping the realized average sits near (and
        // usually a bit above) the nominal average on random data.
        assert!((128..768).contains(&avg), "avg chunk size {avg} for nominal 256");
    }

    #[test]
    fn boundaries_are_content_defined() {
        // Inserting bytes at the front must leave boundaries in the
        // unmodified tail aligned to the same content.
        let c = chunker(64);
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
            "only {common}/{} boundaries realigned",
            bounds_b.len()
        );
    }

    #[test]
    fn constant_data_does_not_degenerate() {
        // A constant run holds the fingerprint at a fixed point; the
        // non-zero pattern must turn that into max-size chunks, not
        // min-size confetti.
        for fill in [0x00u8, 0xFF] {
            let data = vec![fill; 100_000];
            let avg = data.len() / chunker(64).chunk(&data).len();
            assert!(avg >= 64, "fill {fill:#x} collapsed to avg {avg}");
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let c = chunker(1024);
        assert!(c.chunk(&[]).is_empty());
        assert_eq!(c.chunk(&[42]), vec![Chunk { offset: 0, len: 1 }]);
        let small = c.chunk(&random_bytes(100, 6));
        assert_eq!(small.len(), 1);
        assert_eq!(small[0].len, 100);
    }

    #[test]
    fn deterministic() {
        let c = chunker(128);
        let data = random_bytes(30_000, 7);
        assert_eq!(c.chunk(&data), c.chunk(&data));
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

    /// `with_avg`'s sizes for every admissible power-of-two average, as
    /// they were when `min_size` was clamped up to a fingerprint window
    /// held in the config: below 256 the floor lifts `min_size` above
    /// `avg/4`. The gear goldens at those averages were cut with these
    /// sizes.
    #[test]
    fn with_avg_min_size_clamp_invariants() {
        let table: [(usize, usize, usize); 13] = [
            (16, 16, 64),
            (32, 16, 128),
            (64, 32, 256),
            (128, 48, 512),
            (256, 64, 1024),
            (512, 128, 2048),
            (1024, 256, 4096),
            (2048, 512, 8192),
            (4096, 1024, 16384),
            (8192, 2048, 32768),
            (16384, 4096, 65536),
            (32768, 8192, 131072),
            (65536, 16384, 262144),
        ];
        for (avg, min_size, max_size) in table {
            let cfg = ChunkerConfig::with_avg(avg);
            assert_eq!((cfg.min_size, cfg.max_size), (min_size, max_size), "avg {avg}");
        }
    }

    #[test]
    fn default_kind_is_gear_and_kind_is_reported() {
        let cfg = ChunkerConfig::with_avg(64);
        assert_eq!(ChunkerKind::default(), ChunkerKind::Gear);
        assert_eq!(ContentChunker::new(cfg).kind(), ChunkerKind::Gear);
        assert_eq!(ContentChunker::with_kind(cfg, ChunkerKind::Gear).kind(), ChunkerKind::Gear);
    }

    /// `scan` is `chunk_into` plus the sampler's own anchors, and reusing
    /// the buffers leaves nothing of the previous record.
    #[test]
    fn scan_chunks_like_chunk_and_anchors_like_the_sampler() {
        let sampler = AnchorSampler::new(64);
        let c = chunker(256);
        let mut out = RecordScan::default();
        for (len, seed) in [(40_000, 8), (3, 9), (0, 10), (12_345, 11)] {
            let data = random_bytes(len, seed);
            c.scan(&sampler, &data, &mut out);
            assert_eq!(out.chunks, c.chunk(&data), "len {len}");
            let mut anchors = vec![Anchor { pos: 7, fp: 7 }];
            sampler.scan(&data, &mut anchors);
            assert_eq!(out.anchors, anchors, "len {len}");
            assert!(len < 10_000 || anchors.len() > len / 128, "too few anchors");
        }
    }
}
