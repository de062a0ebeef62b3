//! Gear rolling hash — the fast content-defined fingerprint — and the one
//! scan built on it.
//!
//! `h' = (h << 1) + GEAR[b]`: one shift, one add, one table load per byte,
//! with a dependency chain short enough to sustain ~1 byte/cycle. Each
//! input byte's influence shifts out after 64 steps, so the hash is a
//! function of (at most) the trailing 64 bytes — making it a drop-in
//! *rolling, content-defined* fingerprint without the explicit expire step
//! the paper's Rabin fingerprint needs. This is the same trade FastCDC made
//! over Rabin-based chunkers: identical boundary semantics, ~3× the speed.
//!
//! **The scan.** A record's bytes are hashed for two purposes — finding
//! content-defined chunk boundaries and sampling the *anchors* the delta
//! encoder rendezvouses on — and [`scan`] serves both from a single pass:
//! one hash rolled from the first byte of the record to the last, never
//! reset, each value looked at through two [`BitTest`]s:
//!
//! * the **anchor** test — `log2(anchor_interval)` bits — samples the
//!   delta anchors (Algorithm 1 of the paper samples its anchors off the
//!   fingerprint that finds chunk boundaries in just this way);
//! * the **boundary** test — `log2(avg_size)` bits — marks candidate chunk
//!   ends, which the chunker runs through its min/max selection.
//!
//! It lives here, beside the table, because three crates consume it: the
//! chunker (boundaries, and `ContentChunker::scan`, the per-insert entry
//! point), the delta encoder (anchors) and the source cache (which keeps a
//! record's anchors beside its bytes).
//!
//! **Subset masks.** Both tests take their bits from [`GEAR_SHIFT`] upwards
//! and their pattern from the same constant, so the narrower test's bits
//! are a subset of the wider one's and a position that passes the wider
//! passes the narrower. The hot loop therefore carries a single, rarely
//! taken branch — the narrower test — and only behind it asks which of the
//! two the position satisfies. (Bit `i` of a gear hash depends on the
//! trailing `i + 1` bytes, so testing from bit 32 gives every decision a
//! window of at least 33 bytes; low bits would let a handful of bytes
//! decide. The pattern is non-zero because a constant run drives the hash
//! to a fixed point, and a zero pattern would turn the all-zero run's into
//! a match at every position.)

use std::sync::OnceLock;

/// The 256-entry random table driving the gear hash.
#[derive(Debug, Clone)]
pub struct GearTable {
    table: [u64; 256],
}

impl GearTable {
    /// Builds a table from a seed (deterministic).
    pub fn from_seed(seed: u64) -> Self {
        let mut table = [0u64; 256];
        let mut rng = crate::dist::SplitMix64::new(seed);
        for t in &mut table {
            *t = rng.next_u64();
        }
        Self { table }
    }

    /// The process-wide standard table (fixed seed, shared by source and
    /// target scans and across replicas).
    pub fn standard() -> &'static GearTable {
        static STD: OnceLock<GearTable> = OnceLock::new();
        STD.get_or_init(|| GearTable::from_seed(0x6765_6172_5f68_6173))
    }

    /// Advances the hash by one byte.
    #[inline(always)]
    pub fn roll(&self, h: u64, b: u8) -> u64 {
        (h << 1).wrapping_add(self.table[b as usize])
    }

    /// Hash of an entire slice (equals rolling from 0 over every byte).
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut h = 0u64;
        for &b in data {
            h = self.roll(h, b);
        }
        h
    }
}

/// The lowest hash bit either test looks at.
const GEAR_SHIFT: u32 = 32;

/// The bit pattern both tests match against (its low bits are `0b100111`,
/// so every test of one bit or more is non-zero).
const PATTERN: u64 = 0x0078_35b1_ab5a_9c27;

/// "One position in `span`": the `log2(span)` hash bits from
/// [`GEAR_SHIFT`] equal [`PATTERN`]'s low bits. The one predicate behind
/// both anchors and boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitTest {
    mask: u64,
    magic: u64,
}

impl BitTest {
    /// The test passing one position in `span` (a power of two).
    pub fn one_in(span: usize) -> Self {
        assert!(span.is_power_of_two(), "gear sampling span must be a power of two (got {span})");
        let bits = span.trailing_zeros();
        assert!(
            bits + GEAR_SHIFT < 64,
            "gear sampling supports spans below 2^{} (got 2^{bits})",
            64 - GEAR_SHIFT
        );
        let low = span as u64 - 1;
        Self { mask: low << GEAR_SHIFT, magic: (PATTERN & low) << GEAR_SHIFT }
    }

    #[inline(always)]
    fn matches(self, h: u64) -> bool {
        h & self.mask == self.magic
    }

    /// The test every position passing `self` *or* `other` passes: the one
    /// with fewer bits (its bits and pattern are a prefix of the other's).
    fn narrower(self, other: Self) -> Self {
        if self.mask <= other.mask {
            self
        } else {
            other
        }
    }
}

/// A sampled position of a record's gear scan: where the delta encoder
/// looks for a rendezvous between source and target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Offset of the anchor's **last** byte (wrapped past 4 GiB, where an
    /// anchor merely fails the encoder's byte verification).
    pub pos: u32,
    /// The hash's upper half at that byte — a function of the 64 bytes
    /// ending there, equal in two records wherever those bytes are. Advisory:
    /// the encoder verifies bytes before it trusts a match.
    pub fp: u32,
}

/// Samples a record's delta anchors: one position in `anchor_interval`, at
/// the same offsets of the same content whichever record it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorSampler {
    test: BitTest,
}

impl AnchorSampler {
    /// A sampler for an expected gap of `anchor_interval` bytes (a power of
    /// two).
    pub fn new(anchor_interval: usize) -> Self {
        Self { test: BitTest::one_in(anchor_interval) }
    }

    /// The anchors of `data`, ascending, replacing what `anchors` held —
    /// the whole scan for a record that needs no chunk boundaries (a delta
    /// source that arrived without its anchors).
    pub fn scan(&self, data: &[u8], anchors: &mut Vec<Anchor>) {
        anchors.clear();
        scan(data, Some(self.test), None, anchors, &mut Vec::new());
    }

    /// The predicate that makes a position an anchor.
    pub fn test(&self) -> BitTest {
        self.test
    }
}

/// The scan: rolls one hash over all of `data`, appending the positions
/// that pass `anchor` to `anchors` and the chunk ends (exclusive) that pass
/// `boundary` to `ends`.
///
/// A run of one repeated byte holds the hash at a fixed point, and when
/// that fixed point passes the anchor test every position of the run is an
/// anchor with the same fingerprint. Consecutive anchors of equal
/// fingerprint therefore collapse to the last one — what the encoder's
/// table would do with them anyway ("later overwrites earlier", as in
/// Algorithm 1) — which bounds the list on such input.
pub fn scan(
    data: &[u8],
    anchor: Option<BitTest>,
    boundary: Option<BitTest>,
    anchors: &mut Vec<Anchor>,
    ends: &mut Vec<usize>,
) {
    let either = match (anchor, boundary) {
        (Some(a), Some(b)) => a.narrower(b),
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => return,
    };
    let table = GearTable::standard();
    let mut h = 0u64;
    for (pos, &byte) in data.iter().enumerate() {
        h = table.roll(h, byte);
        if either.matches(h) {
            if anchor.is_some_and(|t| t.matches(h)) {
                let found = Anchor { pos: pos as u32, fp: (h >> 32) as u32 };
                match anchors.last_mut() {
                    Some(last) if last.fp == found.fp => *last = found,
                    _ => anchors.push(found),
                }
            }
            if boundary.is_some_and(|t| t.matches(h)) {
                ends.push(pos + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seeded() {
        let a = GearTable::from_seed(1);
        let b = GearTable::from_seed(1);
        let c = GearTable::from_seed(2);
        assert_eq!(a.hash(b"hello world"), b.hash(b"hello world"));
        assert_ne!(a.hash(b"hello world"), c.hash(b"hello world"));
    }

    #[test]
    fn window_is_64_bytes() {
        // Two streams with different prefixes but identical trailing 64
        // bytes converge to the same hash.
        let g = GearTable::standard();
        let tail: Vec<u8> = (0..64u8).collect();
        let mut s1 = vec![0xAAu8; 100];
        let mut s2 = vec![0x55u8; 37];
        s1.extend_from_slice(&tail);
        s2.extend_from_slice(&tail);
        assert_eq!(g.hash(&s1), g.hash(&s2), "hash must depend only on trailing 64 bytes");
    }

    #[test]
    fn position_sensitive_within_window() {
        let g = GearTable::standard();
        assert_ne!(g.hash(b"ab"), g.hash(b"ba"));
    }

    #[test]
    fn standard_table_is_stable() {
        assert_eq!(GearTable::standard().hash(b"x"), GearTable::standard().hash(b"x"));
    }

    #[test]
    fn tests_are_nonzero_nested_and_above_the_shift() {
        for pow in 1..=16u32 {
            let t = BitTest::one_in(1 << pow);
            assert_ne!(t.magic, 0, "2^{pow}: pattern must be non-zero");
            assert_eq!(t.magic & t.mask, t.magic);
            assert_eq!(t.mask.trailing_zeros(), GEAR_SHIFT);
            assert_eq!(t.mask.count_ones(), pow);
            let wider = BitTest::one_in(1 << (pow + 1));
            assert_eq!(wider.mask & t.mask, t.mask, "2^{pow}: bits are a subset of the wider");
            assert_eq!(wider.magic & t.mask, t.magic, "2^{pow}: patterns agree on shared bits");
            assert_eq!(t.narrower(wider), t);
            assert_eq!(wider.narrower(t), t);
        }
    }

    #[test]
    fn a_boundary_is_an_anchor_when_the_interval_is_the_narrower() {
        let mut rng = crate::dist::SplitMix64::new(0x6EA2_0003);
        let data: Vec<u8> = (0..200_000).map(|_| rng.next_u64() as u8).collect();
        let (mut anchors, mut ends) = (Vec::new(), Vec::new());
        scan(
            &data,
            Some(BitTest::one_in(64)),
            Some(BitTest::one_in(1024)),
            &mut anchors,
            &mut ends,
        );
        assert!(ends.len() > 100 && anchors.len() > 10 * ends.len());
        for end in ends {
            assert!(anchors.iter().any(|a| a.pos as usize + 1 == end), "boundary {end} unanchored");
        }
    }

    #[test]
    fn either_test_alone_and_both_together_agree() {
        let mut rng = crate::dist::SplitMix64::new(0x6EA2_0004);
        let data: Vec<u8> = (0..60_000).map(|_| rng.next_u64() as u8).collect();
        // Interval below, at and above the average: whichever test is the
        // narrower, each list is what its own test alone produces.
        for (interval, avg) in [(16, 1024), (64, 64), (4096, 128)] {
            let (a, b) = (BitTest::one_in(interval), BitTest::one_in(avg));
            let (mut anchors, mut ends) = (Vec::new(), Vec::new());
            scan(&data, Some(a), Some(b), &mut anchors, &mut ends);
            let (mut only_anchors, mut only_ends) = (Vec::new(), Vec::new());
            scan(&data, Some(a), None, &mut only_anchors, &mut Vec::new());
            scan(&data, None, Some(b), &mut Vec::new(), &mut only_ends);
            assert_eq!(anchors, only_anchors, "interval {interval} avg {avg}");
            assert_eq!(ends, only_ends, "interval {interval} avg {avg}");
        }
    }
}
