//! The one wire reader under every entry point must agree with a reference
//! decoder, and the one writer must write what it was fed, normalised.
//!
//! The reference (`decode`, then `apply_ops`) parses the wire format into
//! owned instructions and applies them with a loop of its own, sharing no
//! code with the crate's reader. Against it:
//!
//! * `apply_encoded(b, src)` returns the same bytes, or the same error, as
//!   `decode(b)` then `apply_ops(…, src)`;
//! * `validate(b)` succeeds exactly when `decode(b)` does, and fails with
//!   the same error.
//!
//! The inputs are well-formed deltas (from both encoders, and random op
//! streams whose COPYs may run past the source), every single-byte flip of
//! their wire form (three masks per byte), and every truncation of it.
//!
//! [`DeltaWriter`] is fed random op streams — empty ops, adjacent INSERTs,
//! COPYs that continue each other in the source — and what it writes reads
//! back with no empty op, no two adjacent INSERTs, no two adjacent COPYs
//! contiguous in the source, and applies to the concatenation of what was
//! fed. Everything is seeded; a failure prints the seed and the mutation.

use dbdedup_delta::ops::{Delta, DeltaError, DeltaWriter};
use dbdedup_delta::{xdelta_compress, DbDeltaEncoder};
use dbdedup_util::codec::{ByteReader, CodecError};
use dbdedup_util::dist::SplitMix64;

const SEEDS: [u64; 4] = [1, 7, 0xD1FF, 0xA11CE];

/// One instruction, owned: what the reference decoder builds.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Copy { src_off: usize, len: usize },
    Insert(Vec<u8>),
}

impl Op {
    fn output_len(&self) -> usize {
        match self {
            Op::Copy { len, .. } => *len,
            Op::Insert(d) => d.len(),
        }
    }
}

/// The reference decoder: the header's target length and every
/// instruction, or the first malformation, or a length that disagrees with
/// the header.
fn decode(wire: &[u8]) -> Result<(usize, Vec<Op>), DeltaError> {
    let mut r = ByteReader::new(wire);
    let target_len = r.get_varint()? as usize;
    let (mut ops, mut produced) = (Vec::new(), 0usize);
    while !r.is_empty() {
        let op = match r.get_u8()? {
            0x01 => Op::Copy { src_off: r.get_varint()? as usize, len: r.get_varint()? as usize },
            0x00 => Op::Insert(r.get_len_prefixed()?.to_vec()),
            t => return Err(CodecError::InvalidTag(t).into()),
        };
        produced = produced.saturating_add(op.output_len());
        ops.push(op);
    }
    if produced != target_len {
        return Err(DeltaError::LengthMismatch { expected: target_len, actual: produced });
    }
    Ok((target_len, ops))
}

/// The reference apply of decoded instructions.
fn apply_ops(ops: &[Op], src: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Copy { src_off, len } => {
                let range = src_off
                    .checked_add(*len)
                    .filter(|&end| end <= src.len())
                    .map(|end| *src_off..end)
                    .ok_or(DeltaError::CopyOutOfBounds {
                        src_off: *src_off,
                        len: *len,
                        src_len: src.len(),
                    })?;
                out.extend_from_slice(&src[range]);
            }
            Op::Insert(d) => out.extend_from_slice(d),
        }
    }
    Ok(out)
}

fn decode_then_apply(wire: &[u8], src: &[u8]) -> Result<Vec<u8>, DeltaError> {
    decode(wire).and_then(|(_, ops)| apply_ops(&ops, src))
}

/// `ops` through the writer.
fn write(ops: &[Op]) -> Delta {
    let mut w = DeltaWriter::new(ops.iter().map(Op::output_len).sum());
    for op in ops {
        match op {
            Op::Copy { src_off, len } => w.copy(*src_off, *len),
            Op::Insert(d) => w.insert(d),
        }
    }
    w.finish()
}

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
fn random_ops(rng: &mut SplitMix64, src_len: usize) -> Vec<Op> {
    let n = 1 + rng.next_index(12);
    (0..n)
        .map(|_| match rng.next_u64() % 3 {
            0 => {
                let len = 1 + rng.next_index(40);
                Op::Insert(text(rng, len))
            }
            _ => {
                let src_off = rng.next_index(src_len + 32);
                Op::Copy { src_off, len: 1 + rng.next_index(64) }
            }
        })
        .collect()
}

/// The deltas one seed contributes, with the source each applies to.
fn cases(seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    let src = text(&mut rng, 1_500);
    let tgt = edited(&mut rng, &src);
    let mut out = vec![
        (src.clone(), DbDeltaEncoder::default().encode(&src, &tgt).into_bytes()),
        (src.clone(), xdelta_compress(&src, &tgt).into_bytes()),
        (src.clone(), Delta::literal(&tgt[..100]).into_bytes()),
        (src.clone(), Delta::literal(b"").into_bytes()),
    ];
    for _ in 0..6 {
        out.push((src.clone(), write(&random_ops(&mut rng, src.len())).into_bytes()));
    }
    out
}

fn check(wire: &[u8], src: &[u8], what: &str) {
    let mut out = vec![0xEE; 7]; // stale contents must not leak into the result
    let got = Delta::apply_encoded(wire, src, &mut out).map(|()| out);
    assert_eq!(got, decode_then_apply(wire, src), "{what}: apply_encoded ≢ decode+apply");
    assert_eq!(Delta::validate(wire), decode(wire).map(drop), "{what}: validate ≢ decode");
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
    let mut wire = write(&[Op::Copy { src_off: 90, len: 20 }]).into_bytes();
    wire.push(0x7f);
    let mut out = Vec::new();
    let got = Delta::apply_encoded(&wire, &[0u8; 100], &mut out);
    assert!(matches!(got, Err(DeltaError::Codec(_))), "{got:?}");
    assert_eq!(got.map(|()| out), decode_then_apply(&wire, &[0u8; 100]));
}

#[test]
fn the_writer_writes_what_it_is_fed_normalised() {
    let (mut merged_inserts, mut merged_copies) = (0, 0);
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed ^ 0x0037_17E5);
        let src = text(&mut rng, 300);
        let (mut fed, mut expected) = (Vec::new(), Vec::new());
        for _ in 0..rng.next_index(24) {
            let op = match rng.next_u64() % 4 {
                0 => {
                    // Sometimes empty; sometimes long enough that a merge
                    // grows the INSERT's length varint past 128 or 16 384.
                    let len = match rng.next_index(8) {
                        0 => 100 + rng.next_index(9_000),
                        _ => rng.next_index(6),
                    };
                    Op::Insert(text(&mut rng, len))
                }
                1 => {
                    // Continue the last COPY in the source, when there is one.
                    let src_off = match fed.last() {
                        Some(Op::Copy { src_off, len }) => src_off + len,
                        _ => rng.next_index(src.len() + 1),
                    };
                    Op::Copy { src_off, len: rng.next_index(src.len() - src_off + 1) }
                }
                _ => {
                    let src_off = rng.next_index(src.len() + 1);
                    Op::Copy { src_off, len: rng.next_index(src.len() - src_off + 1) }
                }
            };
            expected.extend_from_slice(&apply_ops(std::slice::from_ref(&op), &src).unwrap());
            fed.push(op);
        }
        let delta = write(&fed);
        let (target_len, ops) = decode(delta.as_bytes()).unwrap();
        assert_eq!(target_len, expected.len(), "seed={seed}");
        assert!(ops.iter().all(|op| op.output_len() > 0), "seed={seed}: an empty op {ops:?}");
        for pair in ops.windows(2) {
            assert_eq!(mergeable(&pair[0], &pair[1]), None, "seed={seed}: {ops:?}");
        }
        assert_eq!(delta.apply(&src).unwrap(), expected, "seed={seed}");
        assert_eq!(delta.target_len(), expected.len(), "seed={seed}");
        // What there was to merge, once empty ops vanish.
        let nonempty: Vec<&Op> = fed.iter().filter(|op| op.output_len() > 0).collect();
        for pair in nonempty.windows(2) {
            match mergeable(pair[0], pair[1]) {
                Some("adjacent INSERTs") => merged_inserts += 1,
                Some(_) => merged_copies += 1,
                None => {}
            }
        }
    }
    // The streams exercise merging, not only pass-through.
    assert!(merged_inserts > 0 && merged_copies > 0, "{merged_inserts} {merged_copies}");
}

/// Why the writer should have merged `a` and `b`, if it should have.
fn mergeable(a: &Op, b: &Op) -> Option<&'static str> {
    match (a, b) {
        (Op::Insert(_), Op::Insert(_)) => Some("adjacent INSERTs"),
        (Op::Copy { src_off, len }, Op::Copy { src_off: next, .. }) if src_off + len == *next => {
            Some("contiguous COPYs")
        }
        _ => None,
    }
}
