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
//! A [`Delta`] *is* its wire form. One writer ([`DeltaWriter`]) builds
//! every delta, header first, copying each INSERT's literal from the
//! caller's slice straight into the wire. One reader (`WireOps`) parses it,
//! borrowing each literal from the wire: it sits under [`Delta::validate`]
//! (which keeps nothing), [`Delta::apply_encoded`] (the one COPY/INSERT
//! loop, behind [`Delta::apply`] too), [`Delta::copied_len`] and
//! [`reencode`](crate::reencode).

use dbdedup_util::codec::{varint_len, ByteReader, CodecError};

/// Minimum COPY length worth emitting: below this the instruction framing
/// outweighs the bytes saved, so encoders fold short copies into the
/// neighbouring INSERT.
pub const MIN_COPY_LEN: usize = 8;

/// Output pre-allocated before applying: `target_len` may come from an
/// untrusted wire header, so growth beyond this follows actual output.
const MAX_PREALLOC: usize = 1 << 20;

/// An instruction as the wire holds it: an INSERT borrows its literal.
#[derive(Clone, Copy)]
pub(crate) enum OpRef<'a> {
    Copy { src_off: usize, len: usize },
    Insert(&'a [u8]),
}

impl OpRef<'_> {
    pub(crate) fn output_len(self) -> usize {
        match self {
            OpRef::Copy { len, .. } => len,
            OpRef::Insert(d) => d.len(),
        }
    }
}

/// The one wire reader: the header's target length, then each instruction
/// in order. Malformed input ends the iteration early; `finish` then
/// reports it, or, for a well-formed stream, whether the instructions
/// produce exactly the declared length.
pub(crate) struct WireOps<'a> {
    r: ByteReader<'a>,
    target_len: usize,
    /// Bytes the instructions read so far produce (saturating: a hostile
    /// header cannot overflow it).
    produced: usize,
    error: Option<DeltaError>,
}

impl<'a> WireOps<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, DeltaError> {
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

/// The one COPY/INSERT loop: writes the target `wire`'s instructions build
/// from `source` into `out`, replacing its contents, and bounds-checks
/// every COPY and the total length.
fn apply_ops(wire: &mut WireOps<'_>, source: &[u8], out: &mut Vec<u8>) -> Result<(), DeltaError> {
    out.clear();
    out.reserve(wire.target_len.min(MAX_PREALLOC));
    for op in wire.by_ref() {
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
    if out.len() != wire.target_len {
        return Err(DeltaError::LengthMismatch { expected: wire.target_len, actual: out.len() });
    }
    Ok(())
}

/// The one delta writer. The caller declares the target length up front,
/// so the header is written first and every instruction straight after
/// it; [`finish`](Self::finish) checks the declaration. Instructions are
/// normalised as they arrive:
/// * empty ones vanish,
/// * adjacent INSERTs merge,
/// * a COPY that continues the previous one in the source extends it,
/// * COPYs shorter than [`MIN_COPY_LEN`] are *not* rewritten here (the
///   encoders handle that — they have the target bytes at hand).
///
/// A COPY is held back until the next instruction shows it cannot grow.
/// An INSERT is written at once, its literal copied straight from the
/// caller's slice; an INSERT right after it lengthens it in place, moving
/// its literal only when the length varint grows a byte.
#[derive(Debug)]
pub struct DeltaWriter {
    wire: Vec<u8>,
    target_len: usize,
    /// Target bytes the instructions taken so far produce.
    written: usize,
    /// A COPY not yet written, in case the next continues it.
    copy: Option<(usize, usize)>,
    /// While the last instruction written is an INSERT: where its length
    /// varint starts, and that length.
    insert: Option<(usize, usize)>,
}

impl DeltaWriter {
    /// Starts a delta whose instructions will produce `target_len` bytes.
    pub fn new(target_len: usize) -> Self {
        // Most deltas of similar records are a few hundred bytes; a larger
        // one grows the buffer by doubling.
        let mut wire = Vec::with_capacity(128);
        wire.extend(varint(target_len));
        Self { wire, target_len, written: 0, copy: None, insert: None }
    }

    /// Appends a COPY of `len` source bytes from `src_off`.
    pub fn copy(&mut self, src_off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.written += len;
        self.insert = None;
        if let Some((off, held)) = &mut self.copy {
            if *off + *held == src_off {
                *held += len;
                return;
            }
        }
        self.flush();
        self.copy = Some((src_off, len));
    }

    /// Appends an INSERT of `data`.
    pub fn insert(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.written += data.len();
        let (at, len) = match self.insert {
            Some((at, len)) => {
                let was = varint_len(len as u64);
                self.wire.splice(at..at + was, varint(len + data.len()));
                (at, len + data.len())
            }
            None => {
                self.flush();
                self.wire.push(0x00);
                let at = self.wire.len();
                self.wire.extend(varint(data.len()));
                (at, data.len())
            }
        };
        self.wire.extend_from_slice(data);
        self.insert = Some((at, len));
    }

    /// Writes the held COPY.
    fn flush(&mut self) {
        if let Some((src_off, len)) = self.copy.take() {
            self.wire.push(0x01);
            self.wire.extend(varint(src_off));
            self.wire.extend(varint(len));
        }
    }

    /// The finished delta.
    ///
    /// # Panics
    ///
    /// If the instructions produce other than the declared target length.
    pub fn finish(mut self) -> Delta {
        self.flush();
        assert_eq!(
            self.written, self.target_len,
            "delta instructions produce {} bytes, {} were declared",
            self.written, self.target_len
        );
        Delta { wire: self.wire, target_len: self.target_len }
    }
}

/// `v` as a LEB128 varint, the bytes `ByteWriter::put_varint` writes.
fn varint(v: usize) -> impl Iterator<Item = u8> {
    let n = varint_len(v as u64);
    (0..n).map(move |i| {
        let low = (v >> (7 * i)) as u8 & 0x7f;
        if i + 1 < n {
            low | 0x80
        } else {
            low
        }
    })
}

/// A complete delta in its wire form, as [`DeltaWriter`] wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    wire: Vec<u8>,
    target_len: usize,
}

/// Errors surfaced when applying or reading a delta.
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
    /// A delta that is a single literal INSERT (no source reference).
    ///
    /// Used when no similar record is found but the caller still wants a
    /// uniform representation.
    pub fn literal(data: &[u8]) -> Self {
        let mut w = DeltaWriter::new(data.len());
        w.insert(data);
        w.finish()
    }

    /// Length of the target this delta reconstructs.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Total bytes produced by COPY instructions (the "matched" volume).
    pub fn copied_len(&self) -> usize {
        WireOps::new(&self.wire)
            .expect("a written delta starts with its header")
            .map(|op| match op {
                OpRef::Copy { len, .. } => len,
                OpRef::Insert(_) => 0,
            })
            .sum()
    }

    /// Size of this delta on the wire.
    pub fn encoded_len(&self) -> usize {
        self.wire.len()
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.wire
    }

    /// The wire bytes, without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.wire
    }

    /// Checks that `bytes` are a well-formed delta: every instruction
    /// parses and together they produce the header's length.
    pub fn validate(bytes: &[u8]) -> Result<(), DeltaError> {
        WireOps::new(bytes)?.finish().map(drop)
    }

    /// Reconstructs the target of the delta whose wire form is `bytes` from
    /// `source` into `out` (replacing its contents), straight from the
    /// wire: no op list, no copy of any INSERT. Bounds-checks every COPY and
    /// the total length; a malformed wire outranks a COPY out of bounds, so
    /// the error is [`validate`](Self::validate)'s whenever it has one.
    pub fn apply_encoded(bytes: &[u8], source: &[u8], out: &mut Vec<u8>) -> Result<(), DeltaError> {
        let mut wire = WireOps::new(bytes)?;
        let applied = apply_ops(&mut wire, source, out);
        wire.finish()?;
        applied
    }

    /// Reconstructs the target from `source`.
    pub fn apply(&self, source: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let mut out = Vec::new();
        Self::apply_encoded(&self.wire, source, &mut out)?;
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
    use dbdedup_util::codec::ByteWriter;

    fn written(target_len: usize, build: impl FnOnce(&mut DeltaWriter)) -> Delta {
        let mut w = DeltaWriter::new(target_len);
        build(&mut w);
        w.finish()
    }

    #[test]
    fn literal_roundtrip() {
        let d = Delta::literal(b"hello world");
        assert_eq!(d.apply(b"ignored source").unwrap(), b"hello world");
        assert_eq!(d.as_bytes(), b"\x0b\x00\x0bhello world");
        assert_eq!(Delta::validate(d.as_bytes()), Ok(()));
    }

    #[test]
    fn copy_and_insert_apply() {
        let src = b"abcdefghij";
        let d = written(13, |w| {
            w.copy(0, 5);
            w.insert(b"XYZ");
            w.copy(5, 5);
        });
        assert_eq!(d.apply(src).unwrap(), b"abcdeXYZfghij");
        assert_eq!(d.target_len(), 13);
        assert_eq!(d.copied_len(), 10);
    }

    #[test]
    fn normalization_merges_adjacent() {
        let d = written(16, |w| {
            w.insert(b"ab");
            w.copy(9, 0);
            w.insert(b"cd");
            w.copy(0, 4);
            w.insert(b"");
            w.copy(4, 4);
            w.copy(20, 4);
            w.insert(b"");
        });
        // INSERT "abcd", COPY [0, 8), COPY [20, 24).
        assert_eq!(d.as_bytes(), b"\x10\x00\x04abcd\x01\x00\x08\x01\x14\x04");
    }

    #[test]
    fn copy_out_of_bounds_detected() {
        let d = written(10, |w| w.copy(5, 10));
        let err = d.apply(b"short").unwrap_err();
        assert!(matches!(err, DeltaError::CopyOutOfBounds { .. }));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = Delta::literal(b"x").into_bytes();
        bytes.push(0x7f);
        let bad_tag = Err(DeltaError::Codec(CodecError::InvalidTag(0x7f)));
        assert_eq!(Delta::validate(&bytes), bad_tag);
        assert_eq!(Delta::apply_encoded(&bytes, b"", &mut Vec::new()), bad_tag);
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut w = ByteWriter::new();
        w.put_varint(100); // claims 100 bytes
        w.put_u8(0x00);
        w.put_len_prefixed(b"only five"); // produces 9
        let mismatch = Err(DeltaError::LengthMismatch { expected: 100, actual: 9 });
        assert_eq!(Delta::validate(w.as_slice()), mismatch);
        assert_eq!(Delta::apply_encoded(w.as_slice(), b"", &mut Vec::new()), mismatch);
    }

    #[test]
    #[should_panic(expected = "delta instructions produce 9 bytes, 100 were declared")]
    fn writer_refuses_a_length_other_than_declared() {
        written(100, |w| w.insert(b"only five"));
    }

    #[test]
    fn empty_delta() {
        let d = Delta::literal(b"");
        assert_eq!(d.apply(b"src").unwrap(), Vec::<u8>::new());
        assert_eq!(d.as_bytes(), [0]);
        assert_eq!(d.copy_fraction(), 0.0);
    }

    #[test]
    fn encoded_len_is_exact() {
        let d = written(500, |w| {
            w.copy(1_000_000, 300);
            w.insert(&[7; 200]);
        });
        // Header varint(500); COPY tag, varint(1e6), varint(300); INSERT
        // tag, varint(200), 200 literal bytes.
        assert_eq!(d.encoded_len(), 2 + (1 + 3 + 2) + (1 + 2 + 200));
        assert_eq!(d.encoded_len(), d.as_bytes().len());
    }

    #[test]
    fn overlapping_copies_allowed() {
        // COPY ranges may overlap in the source — each is independent.
        let src = b"abcdef";
        let d = written(8, |w| {
            w.copy(0, 4);
            w.copy(2, 4);
        });
        assert_eq!(d.apply(src).unwrap(), b"abcdcdef");
    }
}
