//! dbDedup's anchor-sampled delta compressor (Algorithm 1 of the paper).
//!
//! The classic xDelta spends most of its time maintaining and probing the
//! source block index. dbDedup's variant samples *anchors* instead:
//! offsets whose rolling content fingerprint matches a bit pattern. Only
//! anchors are inserted into the source index, and only anchors of the
//! target are probed — cutting index traffic by the anchor interval.
//! Because anchors are content-defined, the *same data* produces anchors
//! at the *same offsets* in source and target, so shared regions still
//! rendezvous; bidirectional byte-wise extension (BYTECOMP) then grows
//! each rendezvous to the full common stretch, which is why the
//! compression-ratio loss stays small even at large intervals (Fig. 15).
//!
//! The encoder itself hashes nothing. Anchors come from the gear scan that
//! also finds a record's chunk boundaries ([`dbdedup_util::hash::gear`]), so a
//! caller that has scanned a record once — the engine, on every insert —
//! hands the anchors in ([`DbDeltaEncoder::encode_anchored`]) and keeps
//! them beside the record for when it next serves as a source; a side that
//! comes without any is scanned on the spot. What is
//! left here is matching: index the source's anchors in a flat table, probe
//! it with the target's, verify bytes, extend. [`DbDeltaEncoder::encode`]
//! is the stand-alone form: scan both sides, then match.

use crate::ops::{Delta, DeltaWriter, MIN_COPY_LEN};
use dbdedup_util::hash::gear::{Anchor, AnchorSampler};

/// Configuration for the anchor-sampled encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbDeltaConfig {
    /// Match-verification width in bytes (the paper and xDelta use 16).
    pub window: usize,
    /// Expected gap between anchors; must be a power of two.
    ///
    /// `16` approximates xDelta's probe density; the paper's default is
    /// `64` (≈80% faster for single-digit-percent compression loss).
    pub anchor_interval: usize,
}

impl Default for DbDeltaConfig {
    fn default() -> Self {
        Self { window: 16, anchor_interval: 64 }
    }
}

impl DbDeltaConfig {
    /// Config with the paper's default window and a chosen anchor interval.
    pub fn with_interval(anchor_interval: usize) -> Self {
        Self { window: 16, anchor_interval }
    }
}

/// Source anchors by fingerprint: open addressing, linear probing, at most
/// half full, cleared and refilled per encode so its allocation is reused.
/// A later anchor overwrites an earlier one of the same fingerprint, as in
/// the paper's pseudo-code.
#[derive(Debug, Clone, Default)]
struct AnchorTable {
    slots: Vec<Anchor>,
    /// `32 − log2(slots.len())`: the slot of a fingerprint is the top bits
    /// of its multiplicative hash.
    shift: u32,
}

/// An unoccupied slot. No anchor of a source that fits `u32` offsets ends
/// at this position with a verifiable window before it, and
/// [`AnchorTable::fill`] refuses the one that claims to.
const EMPTY: u32 = u32::MAX;

impl AnchorTable {
    /// Replaces the contents with the anchors of a `len`-byte source that
    /// have a whole `window` before them inside it.
    fn fill(&mut self, anchors: &[Anchor], window: usize, len: usize) {
        let capacity = (anchors.len() * 2).next_power_of_two().max(16);
        self.shift = 32 - capacity.trailing_zeros();
        self.slots.clear();
        self.slots.resize(capacity, Anchor { pos: EMPTY, fp: 0 });
        let mask = capacity - 1;
        for a in anchors {
            let end = a.pos as usize;
            if end >= len || end + 1 < window || a.pos == EMPTY {
                continue;
            }
            let mut i = self.slot_of(a.fp);
            while self.slots[i].pos != EMPTY && self.slots[i].fp != a.fp {
                i = (i + 1) & mask;
            }
            self.slots[i] = *a;
        }
    }

    /// Offset of the last byte of the source anchor fingerprinted `fp`.
    fn get(&self, fp: u32) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(fp);
        while self.slots[i].pos != EMPTY {
            if self.slots[i].fp == fp {
                return Some(self.slots[i].pos as usize);
            }
            i = (i + 1) & mask;
        }
        None
    }

    #[inline(always)]
    fn slot_of(&self, fp: u32) -> usize {
        (fp.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }
}

/// Reusable anchor-sampled delta encoder. Cheap to clone; create one per
/// thread and reuse it across records.
#[derive(Debug, Clone)]
pub struct DbDeltaEncoder {
    sampler: AnchorSampler,
    min_match: usize,
    config: DbDeltaConfig,
    table: AnchorTable,
    /// Anchors of a side [`Self::encode_anchored`] was given none for.
    scanned: [Vec<Anchor>; 2],
}

impl Default for DbDeltaEncoder {
    fn default() -> Self {
        Self::new(DbDeltaConfig::default())
    }
}

impl DbDeltaEncoder {
    /// Creates an encoder for `config`.
    pub fn new(config: DbDeltaConfig) -> Self {
        assert!(config.window >= 4, "window too small");
        assert!(config.anchor_interval.is_power_of_two(), "anchor interval must be a power of two");
        Self {
            sampler: AnchorSampler::new(config.anchor_interval),
            // Require matches substantially longer than the verification
            // window: natural text repeats short phrases, and a spurious
            // phrase-level match (the index keeps one position per hash)
            // would desynchronize the scan for little gain.
            min_match: (2 * config.window).max(MIN_COPY_LEN),
            config,
            table: AnchorTable::default(),
            scanned: Default::default(),
        }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &DbDeltaConfig {
        &self.config
    }

    /// The sampler whose anchors this encoder matches on — what a caller
    /// scans records with to use [`Self::encode_anchored`].
    pub fn sampler(&self) -> &AnchorSampler {
        &self.sampler
    }

    /// Computes a forward delta reconstructing `target` from `source`,
    /// scanning both for their anchors first.
    pub fn encode(&self, source: &[u8], target: &[u8]) -> Delta {
        let (mut source_anchors, mut target_anchors) = (Vec::new(), Vec::new());
        self.sampler.scan(source, &mut source_anchors);
        self.sampler.scan(target, &mut target_anchors);
        match_anchored(
            self.config.window,
            self.min_match,
            &mut AnchorTable::default(),
            source,
            &source_anchors,
            target,
            &target_anchors,
        )
    }

    /// [`Self::encode`] for a caller that may already hold the anchors of
    /// either record from this encoder's [`sampler`](Self::sampler) — only
    /// a side given as `None` is scanned — reusing the encoder's buffers.
    ///
    /// The anchors only say where to look: every match is verified byte for
    /// byte before it is emitted, so the delta reconstructs `target` from
    /// `source` whatever the lists hold — stale, foreign or out of range,
    /// they cost compression, never correctness.
    pub fn encode_anchored(
        &mut self,
        source: &[u8],
        source_anchors: Option<&[Anchor]>,
        target: &[u8],
        target_anchors: Option<&[Anchor]>,
    ) -> Delta {
        let [scanned_source, scanned_target] = &mut self.scanned;
        let source_anchors = source_anchors.unwrap_or_else(|| {
            self.sampler.scan(source, scanned_source);
            scanned_source
        });
        let target_anchors = target_anchors.unwrap_or_else(|| {
            self.sampler.scan(target, scanned_target);
            scanned_target
        });
        match_anchored(
            self.config.window,
            self.min_match,
            &mut self.table,
            source,
            source_anchors,
            target,
            target_anchors,
        )
    }
}

/// Algorithm 1 with the fingerprinting already done: a window of `ws`
/// bytes is verified behind every probe hit, and a match shorter than
/// `min_match` after extension is not worth a COPY.
fn match_anchored(
    ws: usize,
    min_match: usize,
    table: &mut AnchorTable,
    source: &[u8],
    source_anchors: &[Anchor],
    target: &[u8],
    target_anchors: &[Anchor],
) -> Delta {
    if source.len() < ws || target.len() < ws {
        return Delta::literal(target);
    }

    // Pass 1 (Algorithm 1, lines 8-14): index the source anchors.
    table.fill(source_anchors, ws, source.len());

    // Pass 2 (lines 15-31): probe with the target anchors in order,
    // extending each rendezvous bidirectionally (BYTECOMP).
    let mut w = DeltaWriter::new(target.len());
    let mut emitted = 0usize;
    for anchor in target_anchors {
        let i = anchor.pos as usize;
        // The window must lie inside the target and past what earlier
        // matches already cover.
        if i >= target.len() || i + 1 < emitted + ws {
            continue;
        }
        let Some(s_end) = table.get(anchor.fp) else {
            continue;
        };
        // Verify the window bytes (fingerprint equality is advisory).
        if source[s_end + 1 - ws..=s_end] != target[i + 1 - ws..=i] {
            continue;
        }
        let mut s0 = s_end + 1 - ws;
        let mut t0 = i + 1 - ws;
        while s0 > 0 && t0 > emitted && source[s0 - 1] == target[t0 - 1] {
            s0 -= 1;
            t0 -= 1;
        }
        let mut s1 = s_end + 1;
        let mut t1 = i + 1;
        // Word-at-a-time extension, then byte tail.
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
        if len >= min_match {
            w.insert(&target[emitted..t0]);
            w.copy(s0, len);
            emitted = t1;
        }
    }
    w.insert(&target[emitted..]);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdelta::xdelta_compress;
    use dbdedup_util::dist::SplitMix64;

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect()
    }

    fn edit(src: &[u8], seed: u64, n_edits: usize, edit_len: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        let mut tgt = src.to_vec();
        for _ in 0..n_edits {
            let at = rng.next_index(tgt.len().saturating_sub(edit_len).max(1));
            for b in tgt.iter_mut().skip(at).take(edit_len) {
                *b = (rng.next_u64() & 0xff) as u8;
            }
        }
        tgt
    }

    #[test]
    fn roundtrip_identical() {
        let enc = DbDeltaEncoder::default();
        let data = random_bytes(20_000, 1);
        let d = enc.encode(&data, &data);
        assert_eq!(d.apply(&data).unwrap(), data);
        assert!(d.encoded_len() < 128, "identical data encoded to {}", d.encoded_len());
    }

    #[test]
    fn roundtrip_small_edits() {
        let enc = DbDeltaEncoder::default();
        let src = random_bytes(50_000, 2);
        let tgt = edit(&src, 3, 10, 40);
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() < tgt.len() / 10, "encoded {} of {}", d.encoded_len(), tgt.len());
    }

    #[test]
    fn compression_close_to_xdelta_at_interval_16() {
        // Fig 15: anchor interval 16 ≈ xDelta.
        let enc = DbDeltaEncoder::new(DbDeltaConfig::with_interval(16));
        let src = random_bytes(100_000, 4);
        let tgt = edit(&src, 5, 20, 50);
        let ours = enc.encode(&src, &tgt).encoded_len();
        let xd = xdelta_compress(&src, &tgt).encoded_len();
        let ratio = ours as f64 / xd as f64;
        assert!(ratio < 1.5, "dbdelta/xdelta size ratio {ratio}");
    }

    #[test]
    fn larger_interval_modest_loss() {
        // Fig 15: interval 64 loses only single-digit % compression.
        let src = random_bytes(200_000, 6);
        let tgt = edit(&src, 7, 30, 60);
        let e16 = DbDeltaEncoder::new(DbDeltaConfig::with_interval(16)).encode(&src, &tgt);
        let e128 = DbDeltaEncoder::new(DbDeltaConfig::with_interval(128)).encode(&src, &tgt);
        assert_eq!(e16.apply(&src).unwrap(), tgt);
        assert_eq!(e128.apply(&src).unwrap(), tgt);
        let loss = e128.encoded_len() as f64 / e16.encoded_len() as f64;
        assert!(loss < 3.0, "interval-128 delta {}x the size of interval-16", loss);
    }

    #[test]
    fn unrelated_data_degrades_to_literal_size() {
        let enc = DbDeltaEncoder::default();
        let src = random_bytes(10_000, 8);
        let tgt = random_bytes(10_000, 9);
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() >= tgt.len() * 95 / 100);
    }

    #[test]
    fn short_inputs_literal() {
        let enc = DbDeltaEncoder::default();
        let d = enc.encode(b"short", b"other");
        assert_eq!(d.apply(b"short").unwrap(), b"other");
        let d = enc.encode(b"a long enough source for a window", b"tiny");
        assert_eq!(d.apply(b"a long enough source for a window").unwrap(), b"tiny");
        assert_eq!(enc.encode(b"src", b"").target_len(), 0);
    }

    #[test]
    fn textual_edit_realistic() {
        // Varied sentences: perfectly periodic text has too few distinct
        // windows to contain any anchors at all, which is not representative.
        let para: String = (0..400)
            .map(|i| {
                format!("Sentence number {i} talks about the lazy dog and topic {}. ", i * 37 % 91)
            })
            .collect();
        let src = para.clone().into_bytes();
        let tgt = para.replacen("lazy dog", "sleepy cat", 3).into_bytes();
        let enc = DbDeltaEncoder::default();
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() < src.len() / 4);
    }

    #[test]
    fn interval_must_be_power_of_two() {
        let r = std::panic::catch_unwind(|| DbDeltaEncoder::new(DbDeltaConfig::with_interval(100)));
        assert!(r.is_err());
    }

    #[test]
    fn append_only_growth() {
        // Message-board pattern: new post quotes all prior content.
        let enc = DbDeltaEncoder::default();
        let src = random_bytes(5_000, 10);
        let mut tgt = src.clone();
        tgt.extend_from_slice(&random_bytes(500, 11));
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() < 1_000, "append delta {}", d.encoded_len());
    }

    #[test]
    fn zero_runs_do_not_break_anchoring() {
        // Constant runs give near-constant gear hashes; make sure mixed
        // content around them still deltas correctly.
        let mut src = random_bytes(10_000, 12);
        src.extend_from_slice(&[0u8; 5_000]);
        src.extend_from_slice(&random_bytes(10_000, 13));
        let mut tgt = src.clone();
        tgt[20_000] ^= 0xff;
        let enc = DbDeltaEncoder::default();
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
        assert!(d.encoded_len() < src.len() / 5);
    }
}
