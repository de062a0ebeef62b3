//! The on-disk framing of every append-only log file, the record store's
//! segments and the durable oplog alike:
//!
//! ```text
//! file:  magic (8) | format version u32 LE (4) | crc32(first 12) (4) | frames
//! frame: marker 0xDB 0x5E (2) | entry len u32 LE (4) | crc32(entry) (4) | entry
//! ```
//!
//! This module builds and verifies frames and says what sits at an offset
//! of a file being recovered: a valid frame, a damaged run ending where the
//! next valid frame starts (the marker is what a scan resynchronizes on),
//! or damage running to the end — a torn tail. What an entry means, and
//! what to do about damage, is the caller's: the store quarantines and
//! resyncs, the oplog keeps only its verified prefix.

use dbdedup_util::codec::ByteWriter;
use dbdedup_util::hash::crc32::crc32;

/// Length of a log file's header.
pub(crate) const FILE_HDR: usize = 16;
/// Length of a frame's header: marker, entry length, entry CRC.
pub(crate) const FRAME_HDR: usize = 10;
/// The two bytes every frame starts with.
const MARKER: [u8; 2] = [0xDB, 0x5E];
/// Sanity cap on one entry; a header declaring more is damage.
const MAX_ENTRY: usize = 1 << 30;

/// A kind of log file, as its header names it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Format {
    magic: &'static [u8; 8],
    version: u32,
}

/// Record-store segments.
pub(crate) const SEGMENT: Format = Format { magic: b"DBDPSEG\0", version: 2 };
/// The durable oplog (version 1 was headerless, each entry length-prefixed).
pub(crate) const OPLOG: Format = Format { magic: b"DBDOPLG\0", version: 2 };

impl Format {
    /// The header a file of this format opens with.
    pub(crate) fn header(self) -> [u8; FILE_HDR] {
        let mut h = [0u8; FILE_HDR];
        h[..8].copy_from_slice(self.magic);
        h[8..12].copy_from_slice(&self.version.to_le_bytes());
        let crc = crc32(&h[..12]);
        h[12..].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Whether `file` opens with this format's header, intact.
    pub(crate) fn header_valid(self, file: &[u8]) -> bool {
        file.get(..FILE_HDR) == Some(&self.header()[..])
    }
}

/// Builds one frame in one buffer: `entry` writes the entry (of about
/// `hint` bytes) behind a placeholder header, then length and CRC go in.
pub(crate) fn build(hint: usize, entry: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(FRAME_HDR + hint);
    w.put_bytes(&MARKER);
    w.put_bytes(&[0; FRAME_HDR - MARKER.len()]);
    entry(&mut w);
    let mut frame = w.into_vec();
    let (header, entry) = frame.split_at_mut(FRAME_HDR);
    header[2..6].copy_from_slice(&(entry.len() as u32).to_le_bytes());
    header[6..10].copy_from_slice(&crc32(entry).to_le_bytes());
    frame
}

/// The entry of a verified frame.
pub(crate) fn entry(frame: &[u8]) -> &[u8] {
    &frame[FRAME_HDR..]
}

/// The length of the frame whose header starts `bytes`, from the header
/// alone: `None` unless the marker is there and the frame fits in `room`.
pub(crate) fn span(bytes: &[u8], room: u64) -> Option<u64> {
    if bytes.len() < FRAME_HDR || bytes[..2] != MARKER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes")) as usize;
    let total = (FRAME_HDR + len) as u64;
    (len <= MAX_ENTRY && total <= room).then_some(total)
}

/// The frame at `pos` of `buf`, if a fully valid one (marker, in-bounds
/// length, CRC) starts there.
pub(crate) fn verify_at(buf: &[u8], pos: usize) -> Option<&[u8]> {
    let rest = buf.get(pos..)?;
    let frame = &rest[..span(rest, rest.len() as u64)? as usize];
    let crc = u32::from_le_bytes(frame[6..10].try_into().expect("4 bytes"));
    (crc32(entry(frame)) == crc).then_some(frame)
}

/// The damaged run a recovery scan finds at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Damage {
    /// Damage ending at this offset, where the next valid frame starts.
    UpTo(usize),
    /// Damage running to the end of the file: a torn tail.
    Torn,
}

/// What sits at `pos` of `buf`: a frame whose entry `accept` takes, with
/// the frame's length, or the damaged run starting there. A frame whose
/// entry `accept` refuses was written malformed: damage like any other.
pub(crate) fn classify<'a, T>(
    buf: &'a [u8],
    pos: usize,
    accept: impl FnOnce(&'a [u8]) -> Option<T>,
) -> Result<(T, usize), Damage> {
    if let Some(frame) = verify_at(buf, pos) {
        if let Some(taken) = accept(entry(frame)) {
            return Ok((taken, frame.len()));
        }
    }
    Err(match (pos + 1..buf.len()).find(|&q| verify_at(buf, q).is_some()) {
        Some(next) => Damage::UpTo(next),
        None => Damage::Torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file of `format` holding one frame per entry, and where each
    /// frame starts.
    fn file(format: Format, entries: &[&[u8]]) -> (Vec<u8>, Vec<usize>) {
        let mut buf = format.header().to_vec();
        let mut starts = Vec::new();
        for e in entries {
            starts.push(buf.len());
            buf.extend(build(e.len(), |w| w.put_bytes(e)));
        }
        (buf, starts)
    }

    #[test]
    fn headers_name_their_kind_and_any_flip_invalidates_them() {
        let seg = SEGMENT.header();
        assert_eq!(&seg[..8], b"DBDPSEG\0");
        assert_eq!(seg[8..12], 2u32.to_le_bytes());
        assert!(SEGMENT.header_valid(&seg) && OPLOG.header_valid(&OPLOG.header()));
        assert!(!OPLOG.header_valid(&seg), "a segment is not an oplog");
        assert!(!SEGMENT.header_valid(&seg[..FILE_HDR - 1]));
        for i in 0..FILE_HDR {
            let mut h = seg;
            h[i] ^= 0x01;
            assert!(!SEGMENT.header_valid(&h), "flip at {i}");
        }
    }

    #[test]
    fn built_frames_verify_where_they_start_and_nowhere_else() {
        let (buf, starts) = file(SEGMENT, &[b"one", b"", &[7; 300]]);
        for (i, &at) in starts.iter().enumerate() {
            let frame = verify_at(&buf, at).expect("valid frame");
            assert_eq!(frame.len(), starts.get(i + 1).unwrap_or(&buf.len()) - at);
            assert_eq!(span(frame, frame.len() as u64), Some(frame.len() as u64));
            assert_eq!(span(frame, frame.len() as u64 - 1), None, "must fit its room");
        }
        assert_eq!(entry(verify_at(&buf, starts[0]).unwrap()), b"one");
        let others = (0..buf.len() + 1).filter(|p| !starts.contains(p));
        assert!(others.into_iter().all(|p| verify_at(&buf, p).is_none()));
    }

    #[test]
    fn classify_tells_damage_up_to_the_next_frame_from_a_torn_tail() {
        let (clean, starts) = file(OPLOG, &[b"first", b"second", b"third"]);
        let any = |e: &[u8]| Some(e.to_vec());
        assert_eq!(classify(&clean, starts[1], any), Ok((b"second".to_vec(), 16)));
        // A flip in the middle frame: damage up to the third.
        let mut buf = clean.clone();
        buf[starts[1] + 12] ^= 0x40;
        assert_eq!(classify(&buf, starts[1], any), Err(Damage::UpTo(starts[2])));
        // A flip in the last frame, or a tear through it: a torn tail.
        buf[starts[2] + 3] ^= 0x40;
        assert_eq!(classify(&buf, starts[2], any), Err(Damage::Torn));
        assert_eq!(classify(&clean[..clean.len() - 1], starts[2], any), Err(Damage::Torn));
        // A frame whose entry is refused is damage too.
        assert_eq!(classify(&clean, starts[0], |_| None::<()>), Err(Damage::UpTo(starts[1])));
    }
}
