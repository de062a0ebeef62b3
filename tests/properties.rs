//! Randomized-but-deterministic tests over the core invariants:
//!
//! * delta encode → apply is the identity for arbitrary byte pairs,
//!   for both encoders and straight from the wire bytes;
//! * re-encoding a forward delta yields a backward delta that restores
//!   the source exactly;
//! * blockz round-trips arbitrary data;
//! * the full engine returns every inserted record byte-exactly under
//!   arbitrary revision histories, with any encoding policy.
//!
//! Inputs are drawn from a seeded [`SplitMix64`] stream (the registry is
//! unreachable in this environment, so proptest is unavailable); every
//! failure reproduces from the fixed seeds below.

use dbdedup::delta::{reencode, xdelta_compress, DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup::storage::blockz;
use dbdedup::util::dist::SplitMix64;
use dbdedup::{DedupEngine, EncodingPolicy, EngineConfig, RecordId};

fn rand_bytes(rng: &mut SplitMix64, max: usize) -> Vec<u8> {
    let len = rng.next_index(max.max(1));
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A source plus a derived target: random edits applied to the source,
/// biased so the pair is *similar* (the interesting regime for deltas).
fn similar_pair(rng: &mut SplitMix64) -> (Vec<u8>, Vec<u8>) {
    let src = rand_bytes(rng, 8192);
    let mut tgt = src.clone();
    for _ in 0..rng.next_index(8) {
        let insert = rand_bytes(rng, 64);
        if tgt.is_empty() {
            tgt = insert;
            continue;
        }
        let at = rng.next_index(tgt.len());
        let del = (insert.len() / 2).min(tgt.len() - at);
        tgt.splice(at..at + del, insert);
    }
    (src, tgt)
}

#[test]
fn dbdelta_roundtrip() {
    let mut rng = SplitMix64::new(0xD17A_0001);
    for _ in 0..64 {
        let (src, tgt) = similar_pair(&mut rng);
        let enc = DbDeltaEncoder::default();
        let d = enc.encode(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
    }
}

#[test]
fn dbdelta_wire_roundtrip() {
    let mut rng = SplitMix64::new(0xD17A_0002);
    for _ in 0..64 {
        let (src, tgt) = similar_pair(&mut rng);
        let enc = DbDeltaEncoder::new(DbDeltaConfig::with_interval(16));
        let d = enc.encode(&src, &tgt);
        let mut out = Vec::new();
        Delta::apply_encoded(d.as_bytes(), &src, &mut out).unwrap();
        assert_eq!(out, tgt);
    }
}

#[test]
fn xdelta_roundtrip() {
    let mut rng = SplitMix64::new(0xD17A_0003);
    for _ in 0..64 {
        let (src, tgt) = similar_pair(&mut rng);
        let d = xdelta_compress(&src, &tgt);
        assert_eq!(d.apply(&src).unwrap(), tgt);
    }
}

#[test]
fn reencode_restores_source() {
    let mut rng = SplitMix64::new(0xD17A_0004);
    for _ in 0..64 {
        let (src, tgt) = similar_pair(&mut rng);
        let enc = DbDeltaEncoder::default();
        let fwd = enc.encode(&src, &tgt);
        let bwd = reencode(&src, fwd.as_bytes());
        assert_eq!(bwd.apply(&tgt).unwrap(), src);
    }
}

#[test]
fn blockz_roundtrip() {
    let mut rng = SplitMix64::new(0xD17A_0005);
    for _ in 0..64 {
        let data = rand_bytes(&mut rng, 16384);
        let c = blockz::compress(&data);
        assert_eq!(blockz::decompress(&c).unwrap(), data);
    }
}

#[test]
fn delta_decode_rejects_garbage() {
    let mut rng = SplitMix64::new(0xD17A_0006);
    for _ in 0..256 {
        let data = rand_bytes(&mut rng, 256);
        // Must never panic: either a valid delta or a clean error.
        let _ = Delta::validate(&data);
        let _ = Delta::apply_encoded(&data, &data, &mut Vec::new());
        let _ = blockz::decompress(&data);
    }
}

/// Arbitrary revision history: a first version plus 1–7 edit rounds.
fn rand_history(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut out = vec![rand_bytes(rng, 4096)];
    for _ in 0..1 + rng.next_index(7) {
        let mut next = out.last().expect("non-empty").clone();
        for _ in 0..rng.next_index(4) {
            let ins = rand_bytes(rng, 48);
            if next.is_empty() {
                next = ins;
                continue;
            }
            let at = rng.next_index(next.len());
            let del = (ins.len() / 2).min(next.len() - at);
            next.splice(at..at + del, ins);
        }
        out.push(next);
    }
    out
}

/// Engine-level property: arbitrary revision histories round-trip under
/// every encoding policy.
#[test]
fn engine_roundtrip_any_history() {
    let mut rng = SplitMix64::new(0xD17A_0007);
    for case in 0..24 {
        let history = rand_history(&mut rng);
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.filter_quantile = 0.0;
        cfg.encoding = match case % 3 {
            0 => EncodingPolicy::Backward,
            1 => EncodingPolicy::Hop { distance: 4, max_levels: 2 },
            _ => EncodingPolicy::VersionJumping { cluster: 4 },
        };
        let mut e = DedupEngine::open_temp(cfg).unwrap();
        for (i, rev) in history.iter().enumerate() {
            e.insert("prop", RecordId(i as u64), rev).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for (i, rev) in history.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..]);
        }
    }
}
