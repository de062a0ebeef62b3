//! The COPY/INSERT instruction model and its wire format.
//!
//! A delta reconstructs a *target* byte string from a *source*: COPY
//! instructions reference `(offset, len)` ranges of the source, INSERT
//! instructions carry literal bytes. The wire format is deliberately lean —
//! its framing overhead competes byte-for-byte against the space savings
//! dedup produces:
//!
//! ```text
//! delta     := varint(target_len) op*
//! op        := 0x01 varint(src_off) varint(len)        ; COPY
//!            | 0x00 varint(len) byte{len}              ; INSERT
//! ```
//!
//! One reader parses that format (`WireOps`), borrowing each INSERT's
//! literal from the wire. It sits under [`Delta::decode`] (which owns the
//! ops), [`Delta::validate`] (which keeps nothing) and
//! [`Delta::apply_encoded`] (which applies straight from the wire bytes);
//! one COPY/INSERT loop (`apply_ops`) sits under both applies.

use dbdedup_util::codec::{varint_len, ByteReader, ByteWriter, CodecError};

/// Minimum COPY length worth emitting: below this the instruction framing
/// outweighs the bytes saved, so encoders fold short copies into the
/// neighbouring INSERT.
pub const MIN_COPY_LEN: usize = 8;

/// Output pre-allocated before applying: `target_len` may come from an
/// untrusted wire header, so growth beyond this follows actual output.
const MAX_PREALLOC: usize = 1 << 20;

/// One delta instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at `src_off` in the source.
    Copy {
        /// Offset into the source record.
        src_off: usize,
        /// Number of bytes to copy.
        len: usize,
    },
    /// Append literal bytes to the target.
    Insert(Vec<u8>),
}

impl DeltaOp {
    /// Bytes of target output this op produces.
    pub fn output_len(&self) -> usize {
        match self {
            DeltaOp::Copy { len, .. } => *len,
            DeltaOp::Insert(d) => d.len(),
        }
    }

    /// Encoded size of this op on the wire.
    pub fn encoded_len(&self) -> usize {
        match self {
            DeltaOp::Copy { src_off, len } => {
                1 + varint_len(*src_off as u64) + varint_len(*len as u64)
            }
            DeltaOp::Insert(d) => 1 + varint_len(d.len() as u64) + d.len(),
        }
    }

    fn view(&self) -> OpRef<'_> {
        match self {
            DeltaOp::Copy { src_off, len } => OpRef::Copy { src_off: *src_off, len: *len },
            DeltaOp::Insert(d) => OpRef::Insert(d),
        }
    }
}

/// An instruction as the wire holds it: an INSERT borrows its literal.
#[derive(Clone, Copy)]
enum OpRef<'a> {
    Copy { src_off: usize, len: usize },
    Insert(&'a [u8]),
}

impl OpRef<'_> {
    fn output_len(self) -> usize {
        match self {
            OpRef::Copy { len, .. } => len,
            OpRef::Insert(d) => d.len(),
        }
    }

    fn to_op(self) -> DeltaOp {
        match self {
            OpRef::Copy { src_off, len } => DeltaOp::Copy { src_off, len },
            OpRef::Insert(d) => DeltaOp::Insert(d.to_vec()),
        }
    }
}

/// The one wire reader: the header's target length, then each instruction
/// in order. Malformed input ends the iteration early; `finish` then
/// reports it, or, for a well-formed stream, whether the instructions
/// produce exactly the declared length.
struct WireOps<'a> {
    r: ByteReader<'a>,
    target_len: usize,
    /// Bytes the instructions read so far produce (saturating: a hostile
    /// header cannot overflow it).
    produced: usize,
    error: Option<DeltaError>,
}

impl<'a> WireOps<'a> {
    fn new(bytes: &'a [u8]) -> Result<Self, DeltaError> {
        let mut r = ByteReader::new(bytes);
        let target_len = r.get_varint()? as usize;
        Ok(Self { r, target_len, produced: 0, error: None })
    }

    fn read_op(&mut self) -> Result<OpRef<'a>, DeltaError> {
        match self.r.get_u8()? {
            0x01 => {
                let src_off = self.r.get_varint()? as usize;
                let len = self.r.get_varint()? as usize;
                Ok(OpRef::Copy { src_off, len })
            }
            0x00 => Ok(OpRef::Insert(self.r.get_len_prefixed()?)),
            t => Err(CodecError::InvalidTag(t).into()),
        }
    }

    /// Reads whatever is left, then reports the first malformation, or a
    /// length that disagrees with the header.
    fn finish(mut self) -> Result<usize, DeltaError> {
        self.by_ref().for_each(drop);
        match self.error {
            Some(e) => Err(e),
            None if self.produced != self.target_len => {
                Err(DeltaError::LengthMismatch { expected: self.target_len, actual: self.produced })
            }
            None => Ok(self.target_len),
        }
    }
}

impl<'a> Iterator for WireOps<'a> {
    type Item = OpRef<'a>;

    fn next(&mut self) -> Option<OpRef<'a>> {
        if self.r.is_empty() || self.error.is_some() {
            return None;
        }
        match self.read_op() {
            Ok(op) => {
                self.produced = self.produced.saturating_add(op.output_len());
                Some(op)
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// The one COPY/INSERT loop: writes the target `ops` build from `source`
/// into `out`, replacing its contents, and bounds-checks every COPY and the
/// total length.
fn apply_ops<'a>(
    target_len: usize,
    ops: impl Iterator<Item = OpRef<'a>>,
    source: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), DeltaError> {
    out.clear();
    out.reserve(target_len.min(MAX_PREALLOC));
    for op in ops {
        match op {
            OpRef::Copy { src_off, len } => {
                let end = src_off
                    .checked_add(len)
                    .filter(|&e| e <= source.len())
                    .ok_or(DeltaError::CopyOutOfBounds { src_off, len, src_len: source.len() })?;
                out.extend_from_slice(&source[src_off..end]);
            }
            OpRef::Insert(data) => out.extend_from_slice(data),
        }
    }
    if out.len() != target_len {
        return Err(DeltaError::LengthMismatch { expected: target_len, actual: out.len() });
    }
    Ok(())
}

/// A complete delta: the instruction stream plus the expected target length.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
    target_len: usize,
}

/// Which encoder produced a delta — the leading byte of the *tagged*
/// envelope ([`Delta::encode_tagged`] / [`Delta::decode_tagged`]).
///
/// Both encoders emit the same COPY/INSERT instruction stream, so an
/// untagged xDelta payload decodes "successfully" as a dbDedup delta and
/// vice versa — and then reconstructs garbage if applied against state
/// maintained by the other codec's pipeline. Interchange paths that mix
/// codecs tag the envelope so a mismatch fails with a typed error
/// ([`DeltaError::WrongCodec`]) instead. The internal storage/oplog
/// format stays untagged: there the codec is fixed by configuration and
/// the extra byte would compete against the savings it frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCodec {
    /// Classic xDelta (MacDonald, 2000): Adler-32 block index.
    XDelta,
    /// dbDedup's anchor-sampled encoder (Algorithm 1).
    DbDedup,
}

impl DeltaCodec {
    /// The stable one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            DeltaCodec::XDelta => 0x58,  // 'X'
            DeltaCodec::DbDedup => 0x44, // 'D'
        }
    }

    /// Stable lowercase name (diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            DeltaCodec::XDelta => "xdelta",
            DeltaCodec::DbDedup => "dbdedup",
        }
    }
}

impl std::fmt::Display for DeltaCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced when applying or decoding a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A COPY range fell outside the provided source.
    CopyOutOfBounds {
        /// Offset requested.
        src_off: usize,
        /// Length requested.
        len: usize,
        /// Actual source length.
        src_len: usize,
    },
    /// The reconstructed target length did not match the header.
    LengthMismatch {
        /// Length declared in the delta header.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
    /// The wire bytes were malformed.
    Codec(CodecError),
    /// A tagged envelope carried another codec's tag (or junk) where
    /// `expected` was required.
    WrongCodec {
        /// The codec the caller required.
        expected: DeltaCodec,
        /// The tag byte actually found (`None` for an empty envelope).
        found: Option<u8>,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::CopyOutOfBounds { src_off, len, src_len } => {
                write!(
                    f,
                    "COPY [{src_off}, {src_off}+{len}) out of bounds for source of {src_len} bytes"
                )
            }
            DeltaError::LengthMismatch { expected, actual } => {
                write!(f, "delta produced {actual} bytes, header declared {expected}")
            }
            DeltaError::Codec(e) => write!(f, "malformed delta: {e}"),
            DeltaError::WrongCodec { expected, found } => match found {
                Some(t) => write!(f, "delta tagged {t:#04x} is not a {expected} delta"),
                None => write!(f, "empty envelope is not a {expected} delta"),
            },
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<CodecError> for DeltaError {
    fn from(e: CodecError) -> Self {
        DeltaError::Codec(e)
    }
}

impl Delta {
    /// Builds a delta from raw ops, normalizing as it goes:
    /// * adjacent INSERTs are merged,
    /// * adjacent COPYs contiguous in the source are merged,
    /// * COPYs shorter than [`MIN_COPY_LEN`] are *not* rewritten here (the
    ///   encoders handle that — they have the target bytes at hand).
    pub fn from_ops(ops: Vec<DeltaOp>) -> Self {
        let mut norm: Vec<DeltaOp> = Vec::with_capacity(ops.len());
        let mut target_len = 0usize;
        for op in ops {
            if op.output_len() == 0 {
                continue;
            }
            target_len += op.output_len();
            match (norm.last_mut(), op) {
                (Some(DeltaOp::Insert(prev)), DeltaOp::Insert(data)) => {
                    prev.extend_from_slice(&data);
                }
                (Some(DeltaOp::Copy { src_off: po, len: pl }), DeltaOp::Copy { src_off, len })
                    if *po + *pl == src_off =>
                {
                    *pl += len;
                }
                (_, op) => norm.push(op),
            }
        }
        Self { ops: norm, target_len }
    }

    /// A delta that is a single literal INSERT (no source reference).
    ///
    /// Used when no similar record is found but the caller still wants a
    /// uniform representation.
    pub fn literal(data: &[u8]) -> Self {
        if data.is_empty() {
            return Self::default();
        }
        Self { ops: vec![DeltaOp::Insert(data.to_vec())], target_len: data.len() }
    }

    /// The instructions.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Length of the target this delta reconstructs.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Total bytes produced by COPY instructions (the "matched" volume).
    pub fn copied_len(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { len, .. } => *len,
                DeltaOp::Insert(_) => 0,
            })
            .sum()
    }

    /// Size of this delta on the wire.
    pub fn encoded_len(&self) -> usize {
        varint_len(self.target_len as u64)
            + self.ops.iter().map(DeltaOp::encoded_len).sum::<usize>()
    }

    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        w.put_varint(self.target_len as u64);
        for op in &self.ops {
            match op {
                DeltaOp::Copy { src_off, len } => {
                    w.put_u8(0x01);
                    w.put_varint(*src_off as u64);
                    w.put_varint(*len as u64);
                }
                DeltaOp::Insert(data) => {
                    w.put_u8(0x00);
                    w.put_len_prefixed(data);
                }
            }
        }
        w.into_vec()
    }

    /// Parses the wire format.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeltaError> {
        let mut wire = WireOps::new(bytes)?;
        let ops = wire.by_ref().map(OpRef::to_op).collect();
        let target_len = wire.finish()?;
        Ok(Self { ops, target_len })
    }

    /// Checks that `bytes` parse, exactly as [`Delta::decode`] does, without
    /// building anything.
    pub fn validate(bytes: &[u8]) -> Result<(), DeltaError> {
        WireOps::new(bytes)?.finish().map(drop)
    }

    /// Reconstructs the target of the delta whose wire form is `bytes` from
    /// `source` into `out` (replacing its contents), without decoding the
    /// delta first: no op list, no copy of any INSERT. Succeeds and fails
    /// exactly as `Delta::decode(bytes)?.apply(source)` does, with the same
    /// error — a malformed wire outranks a COPY out of bounds.
    pub fn apply_encoded(bytes: &[u8], source: &[u8], out: &mut Vec<u8>) -> Result<(), DeltaError> {
        let mut wire = WireOps::new(bytes)?;
        let applied = apply_ops(wire.target_len, wire.by_ref(), source, out);
        wire.finish()?;
        applied
    }

    /// Serializes to the tagged envelope: `codec.tag()` followed by the
    /// untagged wire format. See [`DeltaCodec`].
    pub fn encode_tagged(&self, codec: DeltaCodec) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.encoded_len());
        out.push(codec.tag());
        out.extend_from_slice(&self.encode());
        out
    }

    /// Parses a tagged envelope, requiring `codec`'s tag. Another codec's
    /// envelope (or a truncated one) fails with
    /// [`DeltaError::WrongCodec`] before any instruction is interpreted.
    pub fn decode_tagged(codec: DeltaCodec, bytes: &[u8]) -> Result<Self, DeltaError> {
        match bytes.split_first() {
            Some((&t, rest)) if t == codec.tag() => Self::decode(rest),
            Some((&t, _)) => Err(DeltaError::WrongCodec { expected: codec, found: Some(t) }),
            None => Err(DeltaError::WrongCodec { expected: codec, found: None }),
        }
    }

    /// Reconstructs the target from `source`.
    pub fn apply(&self, source: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let mut out = Vec::new();
        apply_ops(self.target_len, self.ops.iter().map(DeltaOp::view), source, &mut out)?;
        Ok(out)
    }

    /// Fraction of the target covered by COPYs, in `[0, 1]`.
    pub fn copy_fraction(&self) -> f64 {
        if self.target_len == 0 {
            return 0.0;
        }
        self.copied_len() as f64 / self.target_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_roundtrip() {
        let d = Delta::literal(b"hello world");
        assert_eq!(d.apply(b"ignored source").unwrap(), b"hello world");
        let d2 = Delta::decode(&d.encode()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn copy_and_insert_apply() {
        let src = b"abcdefghij";
        let d = Delta::from_ops(vec![
            DeltaOp::Copy { src_off: 0, len: 5 },
            DeltaOp::Insert(b"XYZ".to_vec()),
            DeltaOp::Copy { src_off: 5, len: 5 },
        ]);
        assert_eq!(d.apply(src).unwrap(), b"abcdeXYZfghij");
        assert_eq!(d.target_len(), 13);
        assert_eq!(d.copied_len(), 10);
    }

    #[test]
    fn normalization_merges_adjacent() {
        let d = Delta::from_ops(vec![
            DeltaOp::Insert(b"ab".to_vec()),
            DeltaOp::Insert(b"cd".to_vec()),
            DeltaOp::Copy { src_off: 0, len: 4 },
            DeltaOp::Copy { src_off: 4, len: 4 },
            DeltaOp::Copy { src_off: 20, len: 4 },
            DeltaOp::Insert(Vec::new()),
        ]);
        assert_eq!(
            d.ops(),
            &[
                DeltaOp::Insert(b"abcd".to_vec()),
                DeltaOp::Copy { src_off: 0, len: 8 },
                DeltaOp::Copy { src_off: 20, len: 4 },
            ]
        );
    }

    #[test]
    fn copy_out_of_bounds_detected() {
        let d = Delta::from_ops(vec![DeltaOp::Copy { src_off: 5, len: 10 }]);
        let err = d.apply(b"short").unwrap_err();
        assert!(matches!(err, DeltaError::CopyOutOfBounds { .. }));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = Delta::literal(b"x").encode();
        bytes.push(0x7f);
        assert!(matches!(
            Delta::decode(&bytes),
            Err(DeltaError::Codec(CodecError::InvalidTag(0x7f)))
        ));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut w = ByteWriter::new();
        w.put_varint(100); // claims 100 bytes
        w.put_u8(0x00);
        w.put_len_prefixed(b"only five"); // produces 9
        assert!(matches!(
            Delta::decode(w.as_slice()),
            Err(DeltaError::LengthMismatch { expected: 100, actual: 9 })
        ));
    }

    #[test]
    fn empty_delta() {
        let d = Delta::default();
        assert_eq!(d.apply(b"src").unwrap(), Vec::<u8>::new());
        assert_eq!(Delta::decode(&d.encode()).unwrap(), d);
        assert_eq!(d.copy_fraction(), 0.0);
    }

    #[test]
    fn encoded_len_is_exact() {
        let d = Delta::from_ops(vec![
            DeltaOp::Copy { src_off: 1_000_000, len: 300 },
            DeltaOp::Insert(vec![7; 200]),
        ]);
        assert_eq!(d.encoded_len(), d.encode().len());
    }

    #[test]
    fn tagged_envelope_roundtrips_and_cross_rejects() {
        let d = Delta::from_ops(vec![
            DeltaOp::Copy { src_off: 0, len: 9 },
            DeltaOp::Insert(b"tail".to_vec()),
        ]);
        for codec in [DeltaCodec::XDelta, DeltaCodec::DbDedup] {
            let wire = d.encode_tagged(codec);
            assert_eq!(Delta::decode_tagged(codec, &wire).unwrap(), d);
        }
        let as_x = d.encode_tagged(DeltaCodec::XDelta);
        assert_eq!(
            Delta::decode_tagged(DeltaCodec::DbDedup, &as_x),
            Err(DeltaError::WrongCodec { expected: DeltaCodec::DbDedup, found: Some(0x58) })
        );
        assert_eq!(
            Delta::decode_tagged(DeltaCodec::XDelta, &[]),
            Err(DeltaError::WrongCodec { expected: DeltaCodec::XDelta, found: None })
        );
    }

    #[test]
    fn overlapping_copies_allowed() {
        // COPY ranges may overlap in the source — each is independent.
        let src = b"abcdef";
        let d = Delta::from_ops(vec![
            DeltaOp::Copy { src_off: 0, len: 4 },
            DeltaOp::Copy { src_off: 2, len: 4 },
        ]);
        assert_eq!(d.apply(src).unwrap(), b"abcdcdef");
    }
}
