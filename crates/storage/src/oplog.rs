//! The operation log driving asynchronous replication (§4.1, Fig. 8).
//!
//! Every mutation appends an entry; the primary ships batches of
//! unsynchronized entries to secondaries. With dbDedup enabled, insert
//! payloads travel **forward-encoded**: a reference to the base record plus
//! the forward delta, which is what shrinks replication traffic in step
//! with storage (Fig. 11). Entries serialize to a compact wire format so
//! network accounting is byte-accurate.

use crate::frame::{self, Damage};
use crate::store::{RecoveryReport, SalvagedFrame};
use bytes::Bytes;
use dbdedup_util::codec::{varint_len, ByteReader, ByteWriter, CodecError};
use dbdedup_util::ids::RecordId;
use std::collections::VecDeque;
use std::io::{Read, Write};

/// An insert payload as shipped over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OplogPayload {
    /// The record's raw bytes (no similar record was found, or dedup is
    /// disabled).
    Raw(Bytes),
    /// Forward-encoded: decode by applying `delta` to the locally stored
    /// `base` record.
    Forward {
        /// The source record of the forward delta.
        base: RecordId,
        /// Encoded forward delta.
        delta: Bytes,
    },
}

/// The operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OplogKind {
    /// A new record.
    Insert {
        /// Record id.
        id: RecordId,
        /// Payload (raw or forward-encoded).
        payload: OplogPayload,
    },
    /// A full-record update, shipped raw: on the wire its id is followed by
    /// a raw payload (tag 0), exactly as a raw insert's is.
    Update {
        /// Record id.
        id: RecordId,
        /// The record's new content.
        data: Bytes,
    },
    /// A deletion.
    Delete {
        /// Record id.
        id: RecordId,
    },
}

/// One oplog entry: a logical sequence number plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OplogEntry {
    /// Monotonic logical sequence number (the paper's timestamp).
    pub lsn: u64,
    /// The operation.
    pub kind: OplogKind,
}

impl OplogEntry {
    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_to(&mut w);
        w.into_vec()
    }

    /// Length of [`Self::encode`]'s output, without producing it.
    pub fn encoded_len(&self) -> usize {
        let raw_len = |b: &[u8]| 1 + varint_len(b.len() as u64) + b.len();
        varint_len(self.lsn)
            + 1
            + 8
            + match &self.kind {
                OplogKind::Insert { payload: OplogPayload::Raw(b), .. }
                | OplogKind::Update { data: b, .. } => raw_len(b),
                OplogKind::Insert { payload: OplogPayload::Forward { delta, .. }, .. } => {
                    8 + raw_len(delta)
                }
                OplogKind::Delete { .. } => 0,
            }
    }

    /// Appends the wire format to `w`.
    pub fn encode_to(&self, w: &mut ByteWriter) {
        w.put_varint(self.lsn);
        match &self.kind {
            OplogKind::Insert { id, payload } => {
                w.put_u8(0);
                w.put_u64(id.get());
                encode_payload(w, payload);
            }
            OplogKind::Update { id, data } => {
                w.put_u8(1);
                w.put_u64(id.get());
                w.put_u8(0);
                w.put_len_prefixed(data);
            }
            OplogKind::Delete { id } => {
                w.put_u8(2);
                w.put_u64(id.get());
            }
        }
    }

    /// Parses one entry from `r`.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let lsn = r.get_varint()?;
        let tag = r.get_u8()?;
        let id = RecordId(r.get_u64()?);
        let kind = match tag {
            0 => OplogKind::Insert { id, payload: decode_payload(r)? },
            // An update's payload can only be raw.
            1 => match r.get_u8()? {
                0 => OplogKind::Update { id, data: Bytes::copy_from_slice(r.get_len_prefixed()?) },
                t => return Err(CodecError::InvalidTag(t)),
            },
            2 => OplogKind::Delete { id },
            t => return Err(CodecError::InvalidTag(t)),
        };
        Ok(Self { lsn, kind })
    }
}

fn encode_payload(w: &mut ByteWriter, p: &OplogPayload) {
    match p {
        OplogPayload::Raw(b) => {
            w.put_u8(0);
            w.put_len_prefixed(b);
        }
        OplogPayload::Forward { base, delta } => {
            w.put_u8(1);
            w.put_u64(base.get());
            w.put_len_prefixed(delta);
        }
    }
}

fn decode_payload(r: &mut ByteReader<'_>) -> Result<OplogPayload, CodecError> {
    match r.get_u8()? {
        0 => Ok(OplogPayload::Raw(Bytes::copy_from_slice(r.get_len_prefixed()?))),
        1 => {
            let base = RecordId(r.get_u64()?);
            let delta = Bytes::copy_from_slice(r.get_len_prefixed()?);
            Ok(OplogPayload::Forward { base, delta })
        }
        t => Err(CodecError::InvalidTag(t)),
    }
}

/// Encodes a batch of entries into one wire frame.
pub fn encode_batch(entries: &[OplogEntry]) -> Vec<u8> {
    let framed = |n: usize| varint_len(n as u64) + n;
    let body: usize = entries.iter().map(|e| framed(e.encoded_len())).sum();
    let mut w = ByteWriter::with_capacity(varint_len(entries.len() as u64) + body);
    w.put_varint(entries.len() as u64);
    for e in entries {
        w.put_varint(e.encoded_len() as u64);
        e.encode_to(&mut w);
    }
    w.into_vec()
}

/// Decodes a batch frame.
pub fn decode_batch(frame: &[u8]) -> Result<Vec<OplogEntry>, CodecError> {
    let mut r = ByteReader::new(frame);
    let n = r.get_varint()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let body = r.get_len_prefixed()?;
        let mut br = ByteReader::new(body);
        out.push(OplogEntry::decode(&mut br)?);
    }
    Ok(out)
}

/// Why a cursor read could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorGap {
    /// The requested LSN precedes the retention floor: the gap has been
    /// trimmed and only a full anti-entropy resync can re-converge the
    /// replica.
    TrimmedBelowFloor {
        /// The LSN the replica asked for.
        requested: u64,
        /// The lowest LSN still retained.
        floor: u64,
    },
}

impl std::fmt::Display for CursorGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorGap::TrimmedBelowFloor { requested, floor } => write!(
                f,
                "oplog cursor {requested} precedes retention floor {floor}; full resync required"
            ),
        }
    }
}

impl std::error::Error for CursorGap {}

/// The primary's oplog with a ship cursor and bounded retention of
/// already-shipped entries — in memory only, or ([`Oplog::open`]) also
/// written to a log file, framed and checksummed like a store segment, that
/// is replayed on the next open, so a restarted primary can resume
/// replication from where it left off (MongoDB's oplog is likewise a
/// durable collection).
///
/// Shipment no longer discards entries: the queue keeps a contiguous run
/// `[floor_lsn, next_lsn)` and a cursor separating shipped from pending.
/// A replica that missed traffic (full queue, partition, crash) re-reads
/// the gap by LSN via [`read_from`](Self::read_from) — *oplog-cursor
/// catch-up* — instead of needing a full anti-entropy pass. Shipped
/// entries are trimmed once they exceed the retention budget (or when the
/// caller acknowledges replica progress via
/// [`ack_shipped`](Self::ack_shipped)); a cursor that falls below the
/// floor gets a typed [`CursorGap`] telling it catch-up is impossible.
#[derive(Debug)]
pub struct Oplog {
    /// Retained entries with their wire lengths; `entries[i]` has LSN
    /// `floor_lsn + i` (LSNs are contiguous by construction).
    entries: VecDeque<(OplogEntry, u32)>,
    next_lsn: u64,
    /// LSN of `entries.front()`.
    floor_lsn: u64,
    /// Index (relative to `floor_lsn`) of the first unshipped entry.
    cursor: usize,
    /// Total unsynchronized payload bytes (used for batch thresholds).
    pending_bytes: usize,
    /// Wire bytes of retained, already-shipped entries.
    shipped_bytes: usize,
    /// Budget for retained shipped entries before trimming.
    retain_bytes: usize,
    /// The log file every entry is written to before it is queued, when
    /// the oplog is durable. It keeps everything: shipping, acks and the
    /// retention budget only shrink the in-memory window (a real
    /// deployment truncates the file by retention policy, which is
    /// orthogonal to this reproduction).
    sink: Option<std::fs::File>,
    /// What [`Oplog::open`] cut from the file.
    recovery: RecoveryReport,
}

/// Default retention budget for already-shipped entries (catch-up window).
pub const DEFAULT_OPLOG_RETAIN_BYTES: usize = 8 << 20;

impl Default for Oplog {
    fn default() -> Self {
        Self::with_retention(DEFAULT_OPLOG_RETAIN_BYTES)
    }
}

impl Oplog {
    /// Creates an empty oplog with the default retention budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty oplog retaining up to `retain_bytes` of shipped
    /// entries for cursor catch-up.
    pub fn with_retention(retain_bytes: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            next_lsn: 0,
            floor_lsn: 0,
            cursor: 0,
            pending_bytes: 0,
            shipped_bytes: 0,
            retain_bytes,
            sink: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (or creates) a durable oplog at `path`, replaying its entries
    /// into the pending queue. The file is framed like a store segment,
    /// under its own magic (version 2; a headerless version-1 file reads as
    /// a damaged header). Replay keeps the **longest verified prefix**: the
    /// first frame that fails its CRC, does not decode or does not carry
    /// the next LSN ends it, and the file is truncated there, valid frames
    /// after the damage included, so that `entries[i]` keeps LSN
    /// `floor_lsn + i` and later appends extend the prefix. A damaged
    /// header cuts the whole file, like the store's active segment's.
    ///
    /// Replayed entries are all pending again, shipped ones included, and
    /// re-applying one is still *not* idempotent (a replayed insert is
    /// inserted twice; ROADMAP item 1(c)): whoever reopens a log must not
    /// re-ship what a replica already applied.
    pub fn open(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let mut file =
            std::fs::OpenOptions::new().create(true).read(true).append(true).open(path.as_ref())?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut log = Self::new();
        // A header that does not verify makes the whole file a torn tail.
        let valid = frame::OPLOG.header_valid(&buf);
        let (mut keep, mut damage) = (if valid { frame::FILE_HDR } else { 0 }, Damage::Torn);
        while valid && keep < buf.len() {
            match frame::classify(&buf, keep, |entry| {
                let e = OplogEntry::decode(&mut ByteReader::new(entry)).ok()?;
                (log.entries.is_empty() || e.lsn == log.next_lsn).then_some((e, entry.len()))
            }) {
                Ok(((e, wire_len), len)) => {
                    log.queue(e, wire_len);
                    keep += len;
                }
                Err(found) => {
                    damage = found;
                    break;
                }
            }
        }
        log.floor_lsn = log.entries.front().map_or(0, |(e, _)| e.lsn);
        let (cut, report) = ((buf.len() - keep) as u64, &mut log.recovery);
        (report.segments_scanned, report.entries_recovered) = (1, log.entries.len() as u64);
        if cut > 0 {
            file.set_len(keep as u64)?;
            if let Damage::UpTo(_) = damage {
                (report.quarantined_entries, report.quarantined_bytes) = (1, cut);
                report.skipped.push(SalvagedFrame { segment: 0, offset: keep as u64, bytes: cut });
            } else {
                report.truncated_tail_bytes = cut;
            }
            report.notes.push(format!("oplog: cut {cut} bytes at offset {keep} ({damage:?})"));
        }
        if keep == 0 {
            file.write_all(&frame::OPLOG.header())?;
        }
        log.sink = Some(file);
        Ok(log)
    }

    /// What [`Oplog::open`] cut from the file: damage with valid frames
    /// after it as quarantined, a torn tail or damaged header as truncated.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Adjusts the retention budget in place, trimming immediately if the
    /// new budget is already exceeded.
    pub fn set_retention(&mut self, retain_bytes: usize) {
        self.retain_bytes = retain_bytes;
        self.trim_to_budget();
    }

    /// Appends an operation, assigning it the next LSN. Returns the entry's
    /// LSN and its encoded wire length (for network accounting). A durable
    /// log writes the framed entry to its file first; if that fails the
    /// entry is not queued and no LSN is consumed.
    pub fn append(&mut self, kind: OplogKind) -> std::io::Result<(u64, usize)> {
        let lsn = self.next_lsn;
        let entry = OplogEntry { lsn, kind };
        let wire_len = entry.encoded_len();
        if let Some(file) = &mut self.sink {
            file.write_all(&frame::build(wire_len, |w| entry.encode_to(w)))?;
        }
        self.queue(entry, wire_len);
        Ok((lsn, wire_len))
    }

    /// Queues `entry` as the newest pending one.
    fn queue(&mut self, entry: OplogEntry, wire_len: usize) {
        self.next_lsn = entry.lsn + 1;
        self.pending_bytes += wire_len;
        self.entries.push_back((entry, wire_len as u32));
    }

    /// Forces appended entries to stable storage (a no-op without a file).
    pub fn sync(&mut self) -> std::io::Result<()> {
        match &self.sink {
            Some(file) => file.sync_data(),
            None => Ok(()),
        }
    }

    /// Entries not yet shipped.
    pub fn pending(&self) -> usize {
        self.entries.len() - self.cursor
    }

    /// Unshipped payload bytes.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// The next LSN to be assigned (one past the newest entry).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The lowest LSN still retained (== `next_lsn` when empty).
    pub fn floor_lsn(&self) -> u64 {
        self.floor_lsn
    }

    /// Takes up to `max_bytes` of entries for shipment (at least one entry
    /// when non-empty). Shipped entries stay retained for catch-up until
    /// trimmed by the retention budget or [`ack_shipped`](Self::ack_shipped).
    pub fn take_batch(&mut self, max_bytes: usize) -> Vec<OplogEntry> {
        let mut out = Vec::new();
        let mut bytes = 0usize;
        while let Some(&(ref entry, len)) = self.entries.get(self.cursor) {
            let len = len as usize;
            if !out.is_empty() && bytes + len > max_bytes {
                break;
            }
            bytes += len;
            self.pending_bytes -= len;
            self.shipped_bytes += len;
            out.push(entry.clone());
            self.cursor += 1;
        }
        self.trim_to_budget();
        out
    }

    /// Reads up to `max_bytes` of retained entries starting at `from_lsn`
    /// (at least one entry when any exist at or past it), without moving
    /// the ship cursor — the replica-driven catch-up read. `from_lsn` may
    /// point into the pending region; pending entries it returns are *not*
    /// marked shipped (the caller acknowledges progress separately).
    pub fn read_from(&self, from_lsn: u64, max_bytes: usize) -> Result<Vec<OplogEntry>, CursorGap> {
        if from_lsn < self.floor_lsn {
            return Err(CursorGap::TrimmedBelowFloor {
                requested: from_lsn,
                floor: self.floor_lsn,
            });
        }
        let start = (from_lsn - self.floor_lsn) as usize;
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for &(ref entry, len) in self.entries.iter().skip(start) {
            if !out.is_empty() && bytes + len as usize > max_bytes {
                break;
            }
            bytes += len as usize;
            out.push(entry.clone());
        }
        Ok(out)
    }

    /// Acknowledges that every replica has applied entries below `lsn`:
    /// marks them shipped (if the cursor lagged) and trims them from
    /// retention. Entries at or above the cursor that are still pending
    /// are never trimmed past — `lsn` is clamped to the pending boundary.
    pub fn ack_shipped(&mut self, lsn: u64) {
        let upto = lsn.min(self.floor_lsn + self.cursor as u64);
        while self.floor_lsn < upto {
            let (_, len) = self.entries.pop_front().expect("floor below cursor implies entries");
            self.shipped_bytes -= len as usize;
            self.floor_lsn += 1;
            self.cursor -= 1;
        }
    }

    /// Drops the oldest shipped entries once they exceed the retention
    /// budget. Pending entries are never trimmed.
    fn trim_to_budget(&mut self) {
        while self.shipped_bytes > self.retain_bytes && self.cursor > 0 {
            let (_, len) = self.entries.pop_front().expect("cursor > 0 implies shipped entries");
            self.shipped_bytes -= len as usize;
            self.floor_lsn += 1;
            self.cursor -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(b: &[u8]) -> OplogPayload {
        OplogPayload::Raw(Bytes::copy_from_slice(b))
    }

    #[test]
    fn entry_roundtrip_all_kinds() {
        let entries = vec![
            OplogEntry {
                lsn: 0,
                kind: OplogKind::Insert { id: RecordId(1), payload: raw(b"abc") },
            },
            OplogEntry {
                lsn: 1,
                kind: OplogKind::Insert {
                    id: RecordId(2),
                    payload: OplogPayload::Forward {
                        base: RecordId(1),
                        delta: Bytes::from_static(b"\x01\x02"),
                    },
                },
            },
            OplogEntry {
                lsn: 1,
                kind: OplogKind::Update { id: RecordId(2), data: Bytes::from_static(b"xyz") },
            },
            OplogEntry { lsn: 2, kind: OplogKind::Delete { id: RecordId(3) } },
            // Multi-byte varints: LSN and payload length past 127.
            OplogEntry {
                lsn: 1 << 40,
                kind: OplogKind::Insert { id: RecordId(4), payload: raw(&[7; 128]) },
            },
        ];
        for e in &entries {
            let bytes = e.encode();
            assert_eq!(e.encoded_len(), bytes.len(), "{e:?}");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&OplogEntry::decode(&mut r).unwrap(), e);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn batch_roundtrip() {
        let entries: Vec<OplogEntry> = (0..10)
            .map(|i| OplogEntry {
                lsn: i,
                kind: OplogKind::Insert { id: RecordId(i), payload: raw(&[i as u8; 16]) },
            })
            .collect();
        let frame = encode_batch(&entries);
        assert_eq!(decode_batch(&frame).unwrap(), entries);
        // The frame is a count, then each entry's own encoding behind its
        // length — written in place, to an exactly sized buffer.
        let mut w = ByteWriter::new();
        w.put_varint(entries.len() as u64);
        for e in &entries {
            w.put_len_prefixed(&e.encode());
        }
        assert_eq!(frame, w.into_vec());
        assert_eq!(frame.capacity(), frame.len());
    }

    #[test]
    fn lsn_monotonic() {
        let mut log = Oplog::new();
        let (lsn0, len0) = log.append(OplogKind::Delete { id: RecordId(1) }).unwrap();
        let (lsn1, _) = log.append(OplogKind::Delete { id: RecordId(2) }).unwrap();
        assert_eq!(lsn0, 0);
        assert_eq!(lsn1, 1);
        assert!(len0 > 0);
        assert_eq!(log.pending(), 2);
    }

    #[test]
    fn take_batch_respects_byte_budget() {
        let mut log = Oplog::new();
        for i in 0..20u64 {
            log.append(OplogKind::Insert { id: RecordId(i), payload: raw(&[0u8; 100]) }).unwrap();
        }
        let before = log.pending_bytes();
        let batch = log.take_batch(350);
        assert!((2..=4).contains(&batch.len()), "batch of {} entries", batch.len());
        assert_eq!(
            log.pending_bytes(),
            before - batch.iter().map(|e| e.encode().len()).sum::<usize>()
        );
        // Batches preserve order.
        assert_eq!(batch[0].lsn, 0);
        assert_eq!(batch[1].lsn, 1);
    }

    #[test]
    fn oversized_single_entry_still_ships() {
        let mut log = Oplog::new();
        log.append(OplogKind::Insert { id: RecordId(1), payload: raw(&[0u8; 10_000]) }).unwrap();
        let batch = log.take_batch(100);
        assert_eq!(batch.len(), 1, "a batch always makes progress");
        assert_eq!(log.pending(), 0);
        assert_eq!(log.pending_bytes(), 0);
    }

    #[test]
    fn forward_payload_encoded_len_counts_base_ref() {
        // `encoded_len` is what `append` returns and the engine books as
        // network bytes: a forward payload carries its 8-byte base id on
        // top of what a raw payload of the same length costs.
        let entry =
            |payload| OplogEntry { lsn: 3, kind: OplogKind::Insert { id: RecordId(1), payload } };
        let fwd =
            entry(OplogPayload::Forward { base: RecordId(1), delta: Bytes::from_static(&[0; 10]) });
        let raw = entry(raw(&[0; 10]));
        assert_eq!(fwd.encoded_len(), raw.encoded_len() + 8);
        assert_eq!(
            (fwd.encoded_len(), raw.encoded_len()),
            (fwd.encode().len(), raw.encode().len())
        );
    }

    #[test]
    fn an_update_ships_as_a_raw_payload_only() {
        // An update's wire bytes are a raw insert's of the same content but
        // for the kind tag — the form every update has always shipped in, so
        // network bytes and the oplog file format stay where they were.
        let data = Bytes::from_static(b"the record's new content");
        let kind_tag = varint_len(5);
        let update =
            OplogEntry { lsn: 5, kind: OplogKind::Update { id: RecordId(9), data: data.clone() } };
        let insert = OplogEntry {
            lsn: 5,
            kind: OplogKind::Insert { id: RecordId(9), payload: OplogPayload::Raw(data) },
        };
        let (mut wire, raw_insert) = (update.encode(), insert.encode());
        assert_eq!((wire[kind_tag], update.encoded_len()), (1, wire.len()));
        wire[kind_tag] = 0;
        assert_eq!(wire, raw_insert);
        // A forward payload (tag 1) under an update kind is malformed.
        let mut wire = OplogEntry {
            lsn: 5,
            kind: OplogKind::Insert {
                id: RecordId(9),
                payload: OplogPayload::Forward {
                    base: RecordId(1),
                    delta: Bytes::from_static(b"d"),
                },
            },
        }
        .encode();
        wire[kind_tag] = 1;
        assert_eq!(OplogEntry::decode(&mut ByteReader::new(&wire)), Err(CodecError::InvalidTag(1)));
    }

    #[test]
    fn durable_oplog_replays_after_reopen() {
        let path = std::env::temp_dir().join(format!(
            "dbdedup-oplog-{}-{:x}",
            std::process::id(),
            0xd0u8 as u64
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut log = Oplog::open(&path).unwrap();
            log.append(OplogKind::Insert { id: RecordId(1), payload: raw(b"one") }).unwrap();
            log.append(OplogKind::Delete { id: RecordId(2) }).unwrap();
            log.sync().unwrap();
            // Ship one entry, then "crash" with one pending.
            let b = log.take_batch(1);
            assert_eq!(b.len(), 1);
        }
        {
            // Recovery replays the full durable log: shipped entries come
            // back as pending. Re-applying them is not idempotent (ROADMAP
            // item 1(c)); this only checks what the log itself replays.
            let mut log = Oplog::open(&path).unwrap();
            assert_eq!(log.pending(), 2);
            let batch = log.take_batch(usize::MAX);
            assert_eq!(batch[0].lsn, 0);
            assert_eq!(batch[1].lsn, 1);
            // New appends continue the LSN sequence.
            let (lsn, _) = log.append(OplogKind::Delete { id: RecordId(3) }).unwrap();
            assert_eq!(lsn, 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durable_oplog_tolerates_torn_tail() {
        let path = std::env::temp_dir().join(format!("dbdedup-oplog-torn-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut log = Oplog::open(&path).unwrap();
            log.append(OplogKind::Delete { id: RecordId(1) }).unwrap();
            log.sync().unwrap();
        }
        // Simulate a torn write: append garbage frame header.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap(); // declares 200 bytes, has 3
        }
        let log = Oplog::open(&path).unwrap();
        assert_eq!(log.pending(), 1, "intact prefix replayed, torn tail dropped");
        let _ = std::fs::remove_file(&path);
    }

    fn insert(id: u64, fill: u8) -> OplogKind {
        OplogKind::Insert { id: RecordId(id), payload: raw(&[fill; 40]) }
    }

    /// Every entry the log holds, in order.
    fn replayed(log: &Oplog) -> Vec<OplogEntry> {
        log.read_from(log.floor_lsn(), usize::MAX).unwrap()
    }

    #[test]
    fn entries_appended_after_a_torn_tail_survive_the_next_reopen() {
        let path =
            std::env::temp_dir().join(format!("dbdedup-oplog-retear-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut log = Oplog::open(&path).unwrap();
            log.append(insert(1, 0xA1)).unwrap();
            log.append(insert(2, 0xA2)).unwrap();
        }
        // A crash tore the second entry's write.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();
        {
            let mut log = Oplog::open(&path).unwrap();
            assert_eq!(log.next_lsn(), 1, "the torn entry is gone");
            log.append(insert(3, 0xA3)).unwrap();
        }
        let log = Oplog::open(&path).unwrap();
        let want = [(0, insert(1, 0xA1)), (1, insert(3, 0xA3))];
        assert_eq!(replayed(&log), want.map(|(lsn, kind)| OplogEntry { lsn, kind }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_byte_ends_the_replay_before_the_entry_it_hit() {
        let path = std::env::temp_dir().join(format!("dbdedup-oplog-flip-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let kinds = [insert(1, 0xB1), insert(2, 0xB2), insert(3, 0xB3)];
        {
            let mut log = Oplog::open(&path).unwrap();
            for kind in &kinds {
                log.append(kind.clone()).unwrap();
            }
        }
        // Rot one byte inside the second entry's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.windows(40).position(|w| w == [0xB2; 40]).unwrap() + 20;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let log = Oplog::open(&path).unwrap();
        let intact = vec![OplogEntry { lsn: 0, kind: kinds[0].clone() }];
        assert_eq!(replayed(&log), intact, "no altered entry, and nothing after it");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shipped_entries_are_retained_for_cursor_reads() {
        let mut log = Oplog::new();
        for i in 0..10u64 {
            log.append(OplogKind::Insert { id: RecordId(i), payload: raw(&[i as u8; 50]) })
                .unwrap();
        }
        let batch = log.take_batch(usize::MAX);
        assert_eq!(batch.len(), 10);
        assert_eq!(log.pending(), 0);
        // A replica that missed LSNs 4.. re-reads them from the cursor.
        let gap = log.read_from(4, usize::MAX).unwrap();
        assert_eq!(gap.len(), 6);
        assert_eq!(gap[0].lsn, 4);
        assert_eq!(gap[5].lsn, 9);
    }

    #[test]
    fn read_from_spans_shipped_and_pending() {
        let mut log = Oplog::new();
        for i in 0..6u64 {
            log.append(OplogKind::Delete { id: RecordId(i) }).unwrap();
        }
        let _ = log.take_batch(30); // ship a prefix
        let shipped = 6 - log.pending() as u64;
        assert!(shipped > 0 && log.pending() > 0, "need both regions");
        let all = log.read_from(0, usize::MAX).unwrap();
        assert_eq!(all.len(), 6, "cursor reads cross the ship boundary");
        // Reading pending entries does not mark them shipped.
        assert_eq!(log.pending(), 6 - shipped as usize);
    }

    #[test]
    fn read_from_below_floor_is_a_typed_gap() {
        let mut log = Oplog::with_retention(0); // trim everything shipped
        for i in 0..5u64 {
            log.append(OplogKind::Delete { id: RecordId(i) }).unwrap();
        }
        let _ = log.take_batch(usize::MAX);
        assert_eq!(log.floor_lsn(), 5, "zero retention trims all shipped entries");
        match log.read_from(2, usize::MAX) {
            Err(CursorGap::TrimmedBelowFloor { requested: 2, floor: 5 }) => {}
            other => panic!("expected trimmed gap, got {other:?}"),
        }
        // At the floor itself the read is legal (and empty).
        assert!(log.read_from(5, usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn ack_trims_retention_but_never_pending() {
        let mut log = Oplog::new();
        for i in 0..8u64 {
            log.append(OplogKind::Delete { id: RecordId(i) }).unwrap();
        }
        let taken = log.take_batch(20).len() as u64; // partial ship
        assert!(taken < 8);
        // Ack beyond the ship cursor clamps to it: pending survives.
        log.ack_shipped(8);
        assert_eq!(log.floor_lsn(), taken);
        assert_eq!(log.pending(), (8 - taken) as usize);
        assert_eq!(log.read_from(taken, usize::MAX).unwrap().len(), (8 - taken) as usize);
    }

    #[test]
    fn retention_budget_bounds_shipped_memory() {
        let mut log = Oplog::with_retention(200);
        for i in 0..50u64 {
            log.append(OplogKind::Insert { id: RecordId(i), payload: raw(&[0u8; 40]) }).unwrap();
        }
        let _ = log.take_batch(usize::MAX);
        assert!(log.floor_lsn() > 0, "old shipped entries must be trimmed");
        assert!(log.next_lsn() == 50);
        // Whatever remains is still a contiguous, readable suffix.
        let tail = log.read_from(log.floor_lsn(), usize::MAX).unwrap();
        assert_eq!(tail.last().unwrap().lsn, 49);
        assert_eq!(tail.first().unwrap().lsn, log.floor_lsn());
    }

    #[test]
    fn durable_oplog_supports_cursor_reads_after_reopen() {
        let path =
            std::env::temp_dir().join(format!("dbdedup-oplog-cursor-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut log = Oplog::open(&path).unwrap();
            for i in 0..4u64 {
                log.append(OplogKind::Delete { id: RecordId(i) }).unwrap();
            }
            log.sync().unwrap();
        }
        let log = Oplog::open(&path).unwrap();
        assert_eq!(log.floor_lsn(), 0);
        assert_eq!(log.next_lsn(), 4);
        assert_eq!(log.read_from(2, usize::MAX).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// With or without a file behind it the log hands out the same LSNs
    /// and wire lengths and serves the same batches and cursor reads; a
    /// reopen brings back the same entries (all of them pending again).
    #[test]
    fn file_sink_changes_nothing_but_durability() {
        let path =
            std::env::temp_dir().join(format!("dbdedup-oplog-parity-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let kinds = |round: u64| {
            (0..6u64).map(move |i| match i % 3 {
                0 => {
                    OplogKind::Insert { id: RecordId(round * 10 + i), payload: raw(&[i as u8; 70]) }
                }
                1 => OplogKind::Update {
                    id: RecordId(round * 10 + i),
                    data: Bytes::from(vec![round as u8; 9]),
                },
                _ => OplogKind::Delete { id: RecordId(round * 10 + i) },
            })
        };
        let mut mem = Oplog::new();
        let mut file = Oplog::open(&path).unwrap();
        for k in kinds(0) {
            assert_eq!(mem.append(k.clone()).unwrap(), file.append(k).unwrap());
        }
        assert_eq!(mem.take_batch(150), file.take_batch(150));
        assert_eq!(mem.pending(), file.pending());
        assert_eq!(mem.read_from(1, 200), file.read_from(1, 200));
        file.sync().unwrap();
        mem.sync().unwrap();
        drop(file);

        // After the reopen everything is pending again, so the in-memory
        // twin is a log the same appends went into and nothing was taken
        // from.
        let mut file = Oplog::open(&path).unwrap();
        let mut mem = Oplog::new();
        for k in kinds(0) {
            mem.append(k).unwrap();
        }
        assert_eq!((mem.floor_lsn(), mem.next_lsn()), (file.floor_lsn(), file.next_lsn()));
        for k in kinds(1) {
            assert_eq!(mem.append(k.clone()).unwrap(), file.append(k).unwrap());
        }
        assert_eq!(mem.read_from(4, usize::MAX), file.read_from(4, usize::MAX));
        assert_eq!(mem.take_batch(usize::MAX), file.take_batch(usize::MAX));
        mem.ack_shipped(5);
        file.ack_shipped(5);
        assert_eq!(mem.read_from(2, usize::MAX), file.read_from(2, usize::MAX));
        assert_eq!(mem.read_from(5, 40), file.read_from(5, 40));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_batch_rejected() {
        let entries = vec![OplogEntry {
            lsn: 0,
            kind: OplogKind::Insert { id: RecordId(1), payload: raw(b"x") },
        }];
        let mut frame = encode_batch(&entries);
        frame.truncate(frame.len() - 1);
        assert!(decode_batch(&frame).is_err());
    }
}
