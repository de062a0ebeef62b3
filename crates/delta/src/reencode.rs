//! Delta re-encoding (Algorithm 2) — the forward→backward transform.
//!
//! Two-way encoding needs both a forward delta (new record from old, for
//! the replication stream) and a backward delta (old record from new, for
//! local storage). Running the compressor twice would double the CPU cost;
//! instead, dbDedup *re-encodes*: every COPY in the forward delta is a
//! region the two records share, so flipping each `(src_off, tgt_off, len)`
//! triple and filling the source's uncovered gaps with INSERTs yields the
//! backward delta using only pointer arithmetic and memcpy — no checksums,
//! no index (§4.2).
//!
//! The transform can be slightly sub-optimal when forward COPYs overlap in
//! the source (the overlapped part is re-inserted literally), but that is
//! rare and the paper accepts the same trade.
//!
//! It reads the forward delta straight from its wire bytes — the primary
//! from what its encoder wrote, a secondary from the oplog entry it just
//! applied — so both nodes run the same transform over the same bytes.

use crate::ops::{Delta, DeltaWriter, OpRef, WireOps, MIN_COPY_LEN};

/// Re-encodes a forward delta (`target` from `source`), given as its wire
/// bytes, into a backward delta (`source` from `target`).
///
/// `forward` must be a delta that [`Delta::apply_encoded`] accepts against
/// `source`, reconstructing `target`; the returned delta then reconstructs
/// `source` from `target`. Other bytes give a meaningless delta, or a
/// panic when the header is malformed or a COPY runs past `source`.
pub fn reencode(source: &[u8], forward: &[u8]) -> Delta {
    // Collect the shared segments: (src_off, tgt_off, len).
    let mut segs: Vec<(usize, usize, usize)> = Vec::new();
    let mut t_pos = 0usize;
    for op in WireOps::new(forward).expect("a forward delta starts with its header") {
        if let OpRef::Copy { src_off, len } = op {
            segs.push((src_off, t_pos, len));
        }
        t_pos += op.output_len();
    }
    segs.sort_unstable_by_key(|&(s, _, _)| s);

    let mut w = DeltaWriter::new(source.len());
    let mut s_pos = 0usize;
    for (mut s_off, mut t_off, mut len) in segs {
        // Trim any part of the segment that earlier segments already cover.
        if s_off + len <= s_pos {
            continue;
        }
        if s_off < s_pos {
            let shift = s_pos - s_off;
            s_off += shift;
            t_off += shift;
            len -= shift;
        }
        w.insert(&source[s_pos..s_off]);
        if len >= MIN_COPY_LEN {
            w.copy(t_off, len);
        } else {
            // Framing would outweigh the copy; inline the bytes (they are
            // identical in source and target by construction).
            w.insert(&source[s_off..s_off + len]);
        }
        s_pos = s_off + len;
    }
    w.insert(&source[s_pos..]);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbdelta::DbDeltaEncoder;
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

    fn check_roundtrip(src: &[u8], tgt: &[u8], fwd: &Delta) {
        assert_eq!(fwd.apply(src).unwrap(), tgt, "precondition: forward applies");
        let bwd = reencode(src, fwd.as_bytes());
        assert_eq!(bwd.apply(tgt).unwrap(), src, "backward must reconstruct the source");
    }

    #[test]
    fn reencode_dbdelta_forward() {
        let enc = DbDeltaEncoder::default();
        let src = random_bytes(30_000, 1);
        let tgt = edit(&src, 2, 15, 30);
        let fwd = enc.encode(&src, &tgt);
        check_roundtrip(&src, &tgt, &fwd);
    }

    #[test]
    fn reencode_xdelta_forward() {
        let src = random_bytes(20_000, 3);
        let tgt = edit(&src, 4, 5, 100);
        let fwd = xdelta_compress(&src, &tgt);
        check_roundtrip(&src, &tgt, &fwd);
    }

    #[test]
    fn backward_delta_is_small_for_similar_records() {
        let enc = DbDeltaEncoder::default();
        let src = random_bytes(50_000, 5);
        let tgt = edit(&src, 6, 10, 20);
        let fwd = enc.encode(&src, &tgt);
        let bwd = reencode(&src, fwd.as_bytes());
        assert!(
            bwd.encoded_len() < src.len() / 10,
            "backward delta {} bytes for {} byte source",
            bwd.encoded_len(),
            src.len()
        );
    }

    #[test]
    fn literal_forward_gives_literal_backward() {
        let src = random_bytes(1_000, 7);
        let tgt = random_bytes(1_000, 8);
        let fwd = Delta::literal(&tgt);
        let bwd = reencode(&src, fwd.as_bytes());
        assert_eq!(bwd.apply(&tgt).unwrap(), src);
        assert!(bwd.copied_len() == 0);
    }

    #[test]
    fn overlapping_forward_copies_handled() {
        // Construct a forward delta whose COPYs overlap in the source:
        // target repeats the same source region twice.
        let src = random_bytes(1_000, 9);
        let mut w = DeltaWriter::new(800);
        w.copy(100, 400);
        w.copy(300, 400);
        let fwd = w.finish();
        let tgt = fwd.apply(&src).unwrap();
        let bwd = reencode(&src, fwd.as_bytes());
        assert_eq!(bwd.apply(&tgt).unwrap(), src);
    }

    #[test]
    fn identical_records() {
        let data = random_bytes(10_000, 10);
        let fwd = DbDeltaEncoder::default().encode(&data, &data);
        let bwd = reencode(&data, fwd.as_bytes());
        assert_eq!(bwd.apply(&data).unwrap(), data);
        assert!(bwd.encoded_len() < 64);
    }

    #[test]
    fn empty_source() {
        let tgt = random_bytes(100, 11);
        let fwd = Delta::literal(&tgt);
        let bwd = reencode(b"", fwd.as_bytes());
        assert_eq!(bwd.apply(&tgt).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn empty_target() {
        let src = random_bytes(100, 12);
        let fwd = Delta::literal(b"");
        let bwd = reencode(&src, fwd.as_bytes());
        assert_eq!(bwd.apply(b"").unwrap(), src);
    }

    #[test]
    fn shrinking_edit() {
        // Target deletes a big middle chunk of source.
        let src = random_bytes(20_000, 13);
        let tgt = [&src[..5_000], &src[15_000..]].concat();
        let fwd = DbDeltaEncoder::default().encode(&src, &tgt);
        check_roundtrip(&src, &tgt, &fwd);
    }

    #[test]
    fn growing_edit() {
        let src = random_bytes(10_000, 14);
        let tgt = [&src[..], &random_bytes(10_000, 15)[..]].concat();
        let fwd = DbDeltaEncoder::default().encode(&src, &tgt);
        check_roundtrip(&src, &tgt, &fwd);
    }
}
