//! Opening a store: the salvage scan that replays every segment into the
//! directory (the policy is in the parent module's docs).

use super::{
    fault_write, open_segment, parse_entry, segment_index, segment_path, truncate_file, Loc,
    RecordStore, StoreError,
};
use crate::frame::{self, Damage};
use std::fs;

/// One damaged frame (or contiguous damaged run) the opening salvage scan
/// skipped — the structured counterpart of the free-text
/// [`RecoveryReport::notes`], consumed by the engine to emit a `Warn`
/// event per quarantined frame instead of burying the loss in a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvagedFrame {
    /// Segment the damage sits in.
    pub segment: u32,
    /// Byte offset the damaged run starts at.
    pub offset: u64,
    /// Bytes the quarantined run covers.
    pub bytes: u64,
}

/// What a recovery scan found and did, per [`RecordStore::open`] or `Oplog::open`.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: u32,
    /// Valid entries replayed into the directory (including tombstones
    /// and superseded versions).
    pub entries_recovered: u64,
    /// Damaged entries (or contiguous damaged runs) skipped.
    pub quarantined_entries: u64,
    /// Bytes covered by quarantined runs.
    pub quarantined_bytes: u64,
    /// Torn-tail bytes truncated from the active segment.
    pub truncated_tail_bytes: u64,
    /// Human-readable notes, one per salvage action.
    pub notes: Vec<String>,
    /// Per-frame detail of every quarantined run, in scan order.
    pub skipped: Vec<SalvagedFrame>,
}

impl RecoveryReport {
    /// Whether the scan salvaged anything (quarantine or truncation).
    pub fn is_clean(&self) -> bool {
        self.quarantined_entries == 0 && self.truncated_tail_bytes == 0
    }
}

impl RecordStore {
    pub(super) fn recover(&mut self) -> Result<(), StoreError> {
        let mut report = RecoveryReport::default();
        // Replay every segment file in index order; the directory converges
        // to the latest *valid* entry per id, tombstones delete. Compaction
        // removes the segments it empties, so indices may have gaps; the
        // highest one is the active segment.
        let mut segments = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            segments.extend(segment_index(&entry?.file_name()));
        }
        segments.sort_unstable();
        let active_idx = segments.last().copied().unwrap_or(0);
        for &idx in &segments {
            self.scan_segment(idx, idx == active_idx, &mut report)?;
        }
        let inner = self.inner.get_mut();
        inner.active_idx = active_idx;
        inner.active = open_segment(&self.dir, inner.active_idx)?;
        inner.active_off = inner.active.metadata()?.len();
        inner.readers = (0..=inner.active_idx).map(|_| None).collect();
        if inner.active_off == 0 {
            let header = frame::SEGMENT.header();
            fault_write(&mut inner.active, self.config.fault.as_deref(), &header)?;
            inner.io.writes += 1;
            inner.io.write_bytes += header.len() as u64;
            inner.active_off = header.len() as u64;
        }
        self.recovery = report;
        Ok(())
    }

    /// Scans one segment in salvage mode (see module docs).
    fn scan_segment(
        &mut self,
        idx: u32,
        is_active: bool,
        report: &mut RecoveryReport,
    ) -> Result<(), StoreError> {
        let path = segment_path(&self.dir, idx);
        let buf = fs::read(&path)?;
        report.segments_scanned += 1;
        let inner = self.inner.get_mut();
        // A file whose header does not verify is one damaged run from
        // offset 0 to its end (on the active segment, a crash tore the
        // header write). No frame can start at 0 behind a valid header.
        let mut at = if frame::SEGMENT.header_valid(&buf) { frame::FILE_HDR } else { 0 };
        while at < buf.len() {
            let found = match at {
                0 => Err(Damage::Torn),
                _ => frame::classify(&buf, at, |entry| parse_entry(entry).ok()),
            };
            let end = match found {
                Ok((parsed, len)) => {
                    let loc = Loc {
                        seg: idx,
                        off: at as u64,
                        len: len as u32,
                        payload_len: parsed.payload.len() as u32,
                        uncompressed_len: parsed.uncompressed_len,
                        form: parsed.form,
                        degraded: parsed.degraded_db.is_some(),
                    };
                    inner.book(parsed.id, loc, parsed.tombstone);
                    report.entries_recovered += 1;
                    at += len;
                    continue;
                }
                Err(Damage::UpTo(next)) => next,
                Err(Damage::Torn) if is_active => {
                    // Cut the torn tail off so future appends extend a
                    // clean prefix (a file cut to nothing gets its header
                    // again on open).
                    truncate_file(&path, at as u64)?;
                    let torn = (buf.len() - at) as u64;
                    inner.io.truncated_tail_bytes += torn;
                    report.truncated_tail_bytes += torn;
                    report
                        .notes
                        .push(format!("seg {idx}: truncated {torn}-byte torn tail at offset {at}"));
                    break;
                }
                Err(Damage::Torn) => buf.len(),
            };
            let run = (end - at) as u64;
            inner.io.quarantined_entries += 1;
            // Junk in the header slot is not dead space: compaction never
            // counts a segment's first `FILE_HDR` bytes as dead.
            let hdr_slot = if at == 0 { run.min(frame::FILE_HDR as u64) } else { 0 };
            inner.dead_bytes += run - hdr_slot;
            report.quarantined_entries += 1;
            report.quarantined_bytes += run;
            report.notes.push(format!("seg {idx}: quarantined {run} damaged bytes at offset {at}"));
            report.skipped.push(SalvagedFrame { segment: idx, offset: at as u64, bytes: run });
            at = end;
        }
        if !is_active {
            inner.seg_mut(idx).sealed_len = buf.len() as u64;
        }
        Ok(())
    }
}
