//! Randomized cross-codec properties for the two delta encoders.
//!
//! Seeded lognormal edit bursts make version pairs that look like real
//! database record updates (many small localized edits, a few large
//! ones). For every pair, both codecs must
//!
//! 1. round-trip exactly (encode → wire bytes → apply == target), and
//! 2. never expand the record beyond raw size + a fixed envelope
//!    overhead.
//!
//! The anchor-sampled encoder is also driven through
//! [`DbDeltaEncoder::encode_anchored`] with anchor lists it has no reason to
//! trust — empty, stale, another record's, out of range, shuffled — and
//! must still round-trip exactly: its correctness rests on byte
//! verification, never on the anchors. With honest anchors it must produce
//! the stand-alone encoder's delta, and on the Fig. 15 revision pairs stay
//! within 5 % of the size the hash-it-yourself encoder it replaced
//! produced.
//!
//! Everything is seeded; a failure prints the `seed=` needed to
//! reproduce it deterministically.

use dbdedup_delta::ops::Delta;
use dbdedup_delta::{xdelta_compress, DbDeltaConfig, DbDeltaEncoder};
use dbdedup_util::dist::{LogNormal, SplitMix64};
use dbdedup_util::hash::gear::Anchor;
use dbdedup_workloads::wikipedia::revision_chain;

const SEEDS: [u64; 6] = [1, 2, 3, 42, 0xD1FF, 7_777];

/// Fixed envelope overhead allowed on top of raw size: length header and
/// op framing slack on pathological inputs.
const MAX_OVERHEAD: usize = 64;

fn random_text(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    // Word-ish text: long repeated structure with random variation, the
    // shape delta encoders actually face.
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = rng.next_u64() % 1000;
        out.extend_from_slice(format!("field{word}:value{word} ").as_bytes());
    }
    out.truncate(len);
    out
}

/// Applies `bursts` lognormal-sized edits (overwrite / insert / delete)
/// at random positions.
fn edit_bursts(rng: &mut SplitMix64, doc: &mut Vec<u8>, bursts: usize) {
    let burst_len = LogNormal::from_median(48.0, 1.0);
    for _ in 0..bursts {
        let len = burst_len.sample_clamped(rng, 4, 2048) as usize;
        let at = rng.next_index(doc.len().saturating_sub(1).max(1));
        match rng.next_u64() % 4 {
            0 | 1 => {
                // Overwrite in place.
                let end = (at + len).min(doc.len());
                for b in &mut doc[at..end] {
                    *b = (rng.next_u64() % 26 + 97) as u8;
                }
            }
            2 => {
                // Insert new bytes.
                let novel = random_text(rng, len);
                doc.splice(at..at, novel);
            }
            _ => {
                // Delete a range (keep the doc non-trivial).
                let end = (at + len).min(doc.len());
                if doc.len() - (end - at) > 512 {
                    doc.drain(at..end);
                }
            }
        }
    }
}

/// Seeded chain of versions v0..v5, each a lognormal edit burst away
/// from its predecessor.
fn version_chain(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut doc = random_text(&mut rng, 24 * 1024);
    let burst_count = LogNormal::from_median(6.0, 0.8);
    let mut versions = vec![doc.clone()];
    for _ in 0..5 {
        let bursts = burst_count.sample_clamped(&mut rng, 1, 40) as usize;
        edit_bursts(&mut rng, &mut doc, bursts);
        versions.push(doc.clone());
    }
    versions
}

fn both_codecs(source: &[u8], target: &[u8]) -> [(&'static str, Delta); 2] {
    [
        ("xdelta", xdelta_compress(source, target)),
        ("dbdedup", DbDeltaEncoder::default().encode(source, target)),
    ]
}

#[test]
fn lognormal_edit_bursts_roundtrip_exactly() {
    for seed in SEEDS {
        let versions = version_chain(seed);
        for w in versions.windows(2) {
            let (source, target) = (&w[0], &w[1]);
            for (codec, delta) in both_codecs(source, target) {
                let applied = delta
                    .apply(source)
                    .unwrap_or_else(|e| panic!("seed={seed} codec={codec}: apply failed: {e}"));
                assert_eq!(applied, *target, "seed={seed} codec={codec}: reconstruction diverged");
            }
        }
    }
}

#[test]
fn encoded_size_bounded_by_raw_plus_fixed_overhead() {
    for seed in SEEDS {
        let versions = version_chain(seed);
        for w in versions.windows(2) {
            let (source, target) = (&w[0], &w[1]);
            for (codec, delta) in both_codecs(source, target) {
                assert!(
                    delta.encoded_len() <= target.len() + MAX_OVERHEAD,
                    "seed={seed} codec={codec}: {} > {} + {MAX_OVERHEAD}",
                    delta.encoded_len(),
                    target.len()
                );
            }
        }
        // Unrelated pair: no exploitable similarity, still bounded (the
        // encoders degrade toward one literal INSERT).
        let mut rng = SplitMix64::new(seed ^ 0xABCD);
        let a: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
        let b: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
        for (codec, delta) in both_codecs(&a, &b) {
            assert!(
                delta.encoded_len() <= b.len() + MAX_OVERHEAD,
                "seed={seed} codec={codec}: unrelated pair expanded past the envelope"
            );
            assert_eq!(delta.apply(&a).unwrap(), b, "seed={seed} codec={codec}");
        }
    }
}

#[test]
fn degenerate_pairs_roundtrip() {
    let doc = version_chain(99).remove(0);
    // Identical source and target.
    for (codec, delta) in both_codecs(&doc, &doc) {
        assert_eq!(delta.apply(&doc).unwrap(), doc, "codec={codec}");
        assert!(delta.encoded_len() <= doc.len() + MAX_OVERHEAD, "codec={codec}");
    }
    // Empty target.
    for (codec, delta) in both_codecs(&doc, b"") {
        assert_eq!(delta.apply(&doc).unwrap(), Vec::<u8>::new(), "codec={codec}");
        assert!(delta.encoded_len() <= MAX_OVERHEAD, "codec={codec}");
    }
    // Empty source (nothing to copy from).
    for (codec, delta) in both_codecs(b"", &doc) {
        assert_eq!(delta.apply(b"").unwrap(), doc, "codec={codec}");
        assert!(delta.encoded_len() <= doc.len() + MAX_OVERHEAD, "codec={codec}");
    }
}

/// The anchors of `data` as the encoder's own sampler finds them.
fn honest(enc: &DbDeltaEncoder, data: &[u8]) -> Vec<Anchor> {
    let mut anchors = Vec::new();
    enc.sampler().scan(data, &mut anchors);
    anchors
}

#[test]
fn anchored_encode_with_honest_anchors_is_the_standalone_encode() {
    let mut enc = DbDeltaEncoder::default();
    for seed in SEEDS {
        let versions = version_chain(seed);
        for w in versions.windows(2) {
            let (source, target) = (&w[0], &w[1]);
            let (sa, ta) = (honest(&enc, source), honest(&enc, target));
            // One encoder, reused: nothing of the previous pair's table may
            // leak into this one.
            let anchored = enc.encode_anchored(source, Some(&sa), target, Some(&ta));
            let standalone = enc.encode(source, target);
            assert_eq!(anchored, standalone, "seed={seed}");
            assert_eq!(anchored.apply(source).unwrap(), *target, "seed={seed}");
            // Either side may come without anchors and is scanned on the
            // spot: same anchors, same delta.
            assert_eq!(enc.encode_anchored(source, None, target, Some(&ta)), standalone);
            assert_eq!(enc.encode_anchored(source, Some(&sa), target, None), standalone);
            assert_eq!(enc.encode_anchored(source, None, target, None), standalone);
        }
    }
}

#[test]
fn anchored_encode_roundtrips_whatever_the_anchor_lists_hold() {
    let mut enc = DbDeltaEncoder::default();
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xA2C4_0125);
        let versions = version_chain(seed);
        let other = version_chain(seed ^ 0x5EED).remove(3);
        let (source, target) = (&versions[1], &versions[4]);
        let (sa, ta) = (honest(&enc, source), honest(&enc, target));
        let stale = honest(&enc, &versions[0]);
        let foreign = honest(&enc, &other);
        let wild: Vec<Anchor> = (0..300)
            .map(|_| Anchor { pos: rng.next_u64() as u32, fp: rng.next_u64() as u32 })
            .collect();
        // Real fingerprints at the wrong offsets, including past the end
        // and inside the first window.
        let displaced: Vec<Anchor> = sa
            .iter()
            .enumerate()
            .map(|(i, a)| Anchor {
                pos: match i % 4 {
                    0 => a.pos / 2,
                    1 => a.pos.wrapping_add(1 << 20),
                    2 => (i % 16) as u32,
                    _ => u32::MAX,
                },
                fp: a.fp,
            })
            .collect();
        let mut shuffled = ta.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_index(i + 1));
        }
        let mut doubled = ta.clone();
        doubled.extend_from_slice(&ta);
        let lists: [(&str, &[Anchor]); 8] = [
            ("honest", &sa),
            ("empty", &[]),
            ("stale", &stale),
            ("foreign", &foreign),
            ("wild", &wild),
            ("displaced", &displaced),
            ("shuffled-target", &shuffled),
            ("doubled-target", &doubled),
        ];
        for (s_name, s_list) in lists {
            for (t_name, t_list) in [("honest", &ta[..])].into_iter().chain(lists) {
                let delta = enc.encode_anchored(source, Some(s_list), target, Some(t_list));
                let applied = delta.apply(source).unwrap_or_else(|e| {
                    panic!("seed={seed} source={s_name} target={t_name}: apply failed: {e}")
                });
                assert_eq!(
                    applied, *target,
                    "seed={seed} source={s_name} target={t_name}: reconstruction diverged"
                );
                assert!(
                    delta.encoded_len() <= target.len() + MAX_OVERHEAD,
                    "seed={seed} source={s_name} target={t_name}: expanded past the envelope"
                );
            }
        }
        // Degenerate records under wild lists too.
        for (src, tgt) in
            [(&source[..], &b""[..]), (&b""[..], &target[..]), (&source[..5], &target[..9])]
        {
            let delta = enc.encode_anchored(src, Some(&wild), tgt, Some(&wild));
            assert_eq!(delta.apply(src).unwrap(), tgt, "seed={seed}: degenerate pair");
        }
    }
}

/// Total delta bytes the encoder this one replaced (its own gear pass over
/// source and target, a hash map per call) produced over the 119 revision
/// pairs `fig15_anchor_interval` measures, at the default interval of 64.
const FIG15_PRE_SCAN_DELTA_BYTES: u64 = 17_034;

#[test]
fn fig15_pairs_stay_within_five_percent_of_the_replaced_encoder() {
    let chain = revision_chain(120, 42);
    let mut enc = DbDeltaEncoder::new(DbDeltaConfig::with_interval(64));
    let mut bytes = 0u64;
    for w in chain.windows(2) {
        let (sa, ta) = (honest(&enc, &w[0]), honest(&enc, &w[1]));
        let delta = enc.encode_anchored(&w[0], Some(&sa), &w[1], Some(&ta));
        assert_eq!(delta.apply(&w[0]).unwrap(), w[1]);
        bytes += delta.encoded_len() as u64;
    }
    assert!(
        bytes * 100 <= FIG15_PRE_SCAN_DELTA_BYTES * 105,
        "{bytes} delta bytes over the Fig. 15 pairs, more than 5 % above {FIG15_PRE_SCAN_DELTA_BYTES}"
    );
}
