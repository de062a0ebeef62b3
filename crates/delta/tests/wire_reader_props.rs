//! The one wire reader under three entry points must agree with itself.
//!
//! [`Delta::apply_encoded`] applies straight from wire bytes and
//! [`Delta::validate`] only checks them; both must behave exactly as the
//! decode-then-apply path they replace on the read path:
//!
//! * `apply_encoded(b, src)` returns the same bytes, or the same error, as
//!   `Delta::decode(b).and_then(|d| d.apply(src))`;
//! * `validate(b)` succeeds exactly when `decode(b)` does, and fails with
//!   the same error.
//!
//! The inputs are well-formed deltas (from both encoders, and random op
//! streams whose COPYs may run past the source), every single-byte flip of
//! their wire form (three masks per byte), and every truncation of it.
//! Everything is seeded; a failure prints the seed and the mutation.

use dbdedup_delta::ops::{Delta, DeltaError, DeltaOp};
use dbdedup_delta::{xdelta_compress, DbDeltaEncoder};
use dbdedup_util::dist::SplitMix64;

const SEEDS: [u64; 4] = [1, 7, 0xD1FF, 0xA11CE];

fn text(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"abcdefgh ijklmnop\n"[rng.next_index(18)]).collect()
}

/// `doc` with a few short overwrites, an insertion and a deletion.
fn edited(rng: &mut SplitMix64, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..3 {
        let at = rng.next_index(out.len() - 16);
        out[at..at + 12].copy_from_slice(b"EDITED-BYTES");
    }
    let at = rng.next_index(out.len());
    out.splice(at..at, text(rng, 40));
    let at = rng.next_index(out.len() - 64);
    out.drain(at..at + 64);
    out
}

/// Random ops against a source of `src_len` bytes: COPYs mostly in bounds,
/// sometimes past the end; INSERTs of 1–40 bytes.
fn random_ops(rng: &mut SplitMix64, src_len: usize) -> Delta {
    let n = 1 + rng.next_index(12);
    let ops = (0..n)
        .map(|_| match rng.next_u64() % 3 {
            0 => {
                let len = 1 + rng.next_index(40);
                DeltaOp::Insert(text(rng, len))
            }
            _ => {
                let src_off = rng.next_index(src_len + 32);
                DeltaOp::Copy { src_off, len: 1 + rng.next_index(64) }
            }
        })
        .collect();
    Delta::from_ops(ops)
}

/// The deltas one seed contributes, with the source each applies to.
fn cases(seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    let src = text(&mut rng, 1_500);
    let tgt = edited(&mut rng, &src);
    let mut out = vec![
        (src.clone(), DbDeltaEncoder::default().encode(&src, &tgt).encode()),
        (src.clone(), xdelta_compress(&src, &tgt).encode()),
        (src.clone(), Delta::literal(&tgt[..100]).encode()),
        (src.clone(), Delta::default().encode()),
    ];
    for _ in 0..6 {
        out.push((src.clone(), random_ops(&mut rng, src.len()).encode()));
    }
    out
}

fn decode_then_apply(wire: &[u8], src: &[u8]) -> Result<Vec<u8>, DeltaError> {
    Delta::decode(wire).and_then(|d| d.apply(src))
}

fn check(wire: &[u8], src: &[u8], what: &str) {
    let mut out = vec![0xEE; 7]; // stale contents must not leak into the result
    let got = Delta::apply_encoded(wire, src, &mut out).map(|()| out);
    assert_eq!(got, decode_then_apply(wire, src), "{what}: apply_encoded ≢ decode+apply");
    assert_eq!(Delta::validate(wire), Delta::decode(wire).map(drop), "{what}: validate ≢ decode");
}

#[test]
fn wire_reader_agrees_on_well_formed_deltas() {
    let mut kinds = [0usize; 2];
    for seed in SEEDS {
        for (i, (src, wire)) in cases(seed).iter().enumerate() {
            check(wire, src, &format!("seed={seed} case={i}"));
            kinds[usize::from(decode_then_apply(wire, src).is_ok())] += 1;
        }
    }
    // Both outcomes are exercised: clean applies and COPYs out of bounds.
    assert!(kinds[0] > 0 && kinds[1] > 0, "outcomes (err, ok): {kinds:?}");
}

#[test]
fn wire_reader_agrees_under_every_single_byte_flip() {
    for seed in SEEDS {
        for (i, (src, wire)) in cases(seed).iter().enumerate() {
            for pos in 0..wire.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bad = wire.clone();
                    bad[pos] ^= mask;
                    check(&bad, src, &format!("seed={seed} case={i} pos={pos} mask={mask:#04x}"));
                }
            }
        }
    }
}

#[test]
fn wire_reader_agrees_under_every_truncation() {
    for seed in SEEDS {
        for (i, (src, wire)) in cases(seed).iter().enumerate() {
            for cut in 0..=wire.len() {
                check(&wire[..cut], src, &format!("seed={seed} case={i} cut={cut}"));
            }
        }
    }
}

#[test]
fn a_malformed_wire_outranks_a_copy_out_of_bounds() {
    // The first op COPYs past the source; the stream then ends in a bad tag.
    let mut wire = Delta::from_ops(vec![DeltaOp::Copy { src_off: 90, len: 20 }]).encode();
    wire.push(0x7f);
    let mut out = Vec::new();
    let got = Delta::apply_encoded(&wire, &[0u8; 100], &mut out);
    assert!(matches!(got, Err(DeltaError::Codec(_))), "{got:?}");
    assert_eq!(got.map(|()| out), decode_then_apply(&wire, &[0u8; 100]));
}
