//! The integrity scrub: [`RecordStore::scrub_step`] re-verifies live frames
//! against the disk a bounded slice at a time, and
//! [`RecordStore::quarantine`] drops a record whose frame failed.

use super::compaction::Entry;
use super::{stored_record, RecordStore, StoreError, StoredRecord};
use crate::blockcache::BlockKey;
use bytes::Bytes;
use dbdedup_util::ids::RecordId;
use std::sync::Arc;

/// Resume point for the integrity scrub: the next position whose live
/// frames still await verification. Persists across bounded
/// [`RecordStore::scrub_step`] slices (the compaction-cursor idiom), so
/// repeated slices walk the whole store segment-at-a-time and then wrap.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct ScrubCursor {
    pub(super) seg: u32,
    pub(super) off: u64,
}

/// A live frame [`RecordStore::scrub_step`] read and verified: its CRC,
/// length, id and kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedFrame {
    /// The record the frame belongs to.
    pub id: RecordId,
    /// `(segment, offset)` the frame was read at. The record is still this
    /// frame while [`RecordStore::frame_extent`] names this position.
    pub at: (u32, u64),
    /// The frame, a view of the buffer its span was read into.
    pub(super) frame: Bytes,
}

impl VerifiedFrame {
    /// The frame's form and payload, as [`RecordStore::get`] returns them:
    /// a compressed payload is decompressed here, outside the store lock,
    /// and fails as `get` would if it does not.
    pub fn record(&self) -> Result<StoredRecord, StoreError> {
        stored_record(&self.frame)
    }
}

/// What one bounded verified-scan slice covered, per
/// [`RecordStore::scrub_step`].
#[must_use = "a verify slice names the corrupt records; dropping it loses the damage report"]
#[derive(Debug, Default, Clone)]
pub struct VerifySlice {
    /// Live records whose on-disk frames verified clean, in scan order.
    pub clean: Vec<VerifiedFrame>,
    /// Live records whose on-disk frames failed verification
    /// (marker/length/CRC, an entry that does not parse or names another
    /// record) or did not read.
    pub corrupt: Vec<RecordId>,
    /// Frame bytes read from disk and checked.
    pub bytes_verified: u64,
    /// The cursor wrapped past the last segment: a full pass over every
    /// live frame has completed.
    pub pass_complete: bool,
}

impl RecordStore {
    /// One bounded increment of the integrity scrub: verifies up to
    /// ~`max_bytes` of **live** frames against the disk, in segment/offset
    /// order starting at the persistent scrub cursor, and reports which
    /// records read back clean versus corrupt. Each segment's share of the
    /// slice is read with compaction's span reader: one read per run of
    /// frames closer than `SPAN_GAP`, each frame verified against its
    /// directory entry. The scan deliberately bypasses the block cache, in
    /// both directions — a cached clean copy of bytes that have since
    /// rotted on the platter is exactly the damage a scrub exists to find,
    /// and caching what it verified would push out the frames foreground
    /// reads use — and evicts the cached copy of any frame that fails, so
    /// subsequent reads observe the damage too. A frame that does not read
    /// is reported corrupt like one that fails verification, and the
    /// cursor moves past it as past any other. A clean frame comes back
    /// with its bytes, so a caller checking more than the checksum need
    /// not read it again.
    ///
    /// Detection only: the directory is not modified. Callers quarantine
    /// and heal (see [`RecordStore::quarantine`]). When the cursor walks
    /// past the last segment it wraps to the start and the slice reports
    /// `pass_complete`.
    pub fn scrub_step(&self, max_bytes: u64) -> Result<VerifySlice, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let budget = max_bytes.max(1);
        let mut slice = VerifySlice::default();
        let mut entries = Vec::new();
        while slice.bytes_verified < budget {
            let cur = inner.scrub;
            if cur.seg > inner.active_idx {
                inner.scrub = ScrubCursor::default();
                slice.pass_complete = true;
                break;
            }
            // The segment's live frames from the cursor on, up to the
            // budget; the cursor moves past the last of them, or to the
            // next segment once this one is exhausted within budget.
            entries.clear();
            for (id, loc) in inner.live_frames_from(cur.seg, cur.off) {
                entries.push(Entry::live(id, loc));
                slice.bytes_verified += u64::from(loc.len);
                if slice.bytes_verified >= budget {
                    break;
                }
            }
            let next = match entries.last() {
                Some(e) if slice.bytes_verified >= budget => {
                    ScrubCursor { seg: cur.seg, off: e.off + u64::from(e.len) }
                }
                _ => ScrubCursor { seg: cur.seg + 1, off: 0 },
            };
            let mut out = Vec::new();
            // A frame that does not read is damage like one that does not
            // verify: reported, and passed like any other frame.
            let _unread = self.read_kept(inner, cur.seg, &mut entries, &mut out)?;
            // `out` holds the clean frames back to back, in entry order.
            let out = Arc::new(out);
            let mut pos = 0;
            for e in &entries {
                if e.kept() {
                    let frame = Bytes::from_shared(Arc::clone(&out), pos..pos + e.len as usize);
                    pos += e.len as usize;
                    slice.clean.push(VerifiedFrame { id: e.id, at: (cur.seg, e.off), frame });
                } else {
                    inner.cache.remove(BlockKey { seg: cur.seg, off: e.off });
                    slice.corrupt.push(e.id);
                }
            }
            inner.scrub = next;
        }
        Ok(slice)
    }

    /// The persistent scrub cursor as `(segment, offset)` — the next
    /// position [`RecordStore::scrub_step`] will verify from.
    pub fn scrub_position(&self) -> (u32, u64) {
        let inner = self.inner.lock();
        (inner.scrub.seg, inner.scrub.off)
    }

    /// Drops `id`'s live directory entry because its on-disk frame is
    /// damaged, turning the frame into dead space for compaction. Returns
    /// the frame length, or `None` when the id is not live. The damaged
    /// frame physically stays on disk as a stale put until compaction
    /// reclaims it; since it no longer passes CRC, a restart's salvage
    /// scan quarantines it again rather than resurrecting the record.
    pub fn quarantine(&self, id: RecordId) -> Result<Option<u64>, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(old) = inner.directory.remove(&id) else {
            return Ok(None);
        };
        inner.retire(id, old);
        // The cache may still hold the clean pre-damage copy: evict it so
        // no read resurrects vanished data.
        inner.cache.remove(BlockKey { seg: old.seg, off: old.off });
        inner.io.quarantined_entries += 1;
        Ok(Some(u64::from(old.len)))
    }
}
