//! The integrity scrub: [`RecordStore::scrub_step`] re-verifies live frames
//! against the disk a bounded slice at a time, and
//! [`RecordStore::quarantine`] drops a record whose frame failed.

use super::{read_frame, RecordStore, StoreError};
use crate::blockcache::BlockKey;
use dbdedup_util::ids::RecordId;

/// Resume point for the integrity scrub: the next position whose live
/// frames still await verification. Persists across bounded
/// [`RecordStore::scrub_step`] slices (the compaction-cursor idiom), so
/// repeated slices walk the whole store segment-at-a-time and then wrap.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct ScrubCursor {
    pub(super) seg: u32,
    pub(super) off: u64,
}

/// What one bounded verified-scan slice covered, per
/// [`RecordStore::scrub_step`].
#[must_use = "a verify slice names the corrupt records; dropping it loses the damage report"]
#[derive(Debug, Default, Clone)]
pub struct VerifySlice {
    /// Live records whose on-disk frames verified clean.
    pub clean: Vec<RecordId>,
    /// Live records whose on-disk frames failed verification
    /// (marker/length/CRC or unparseable entry).
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
    /// records read back clean versus corrupt. The scan deliberately
    /// bypasses the block cache — a cached clean copy of bytes that have
    /// since rotted on the platter is exactly the damage a scrub exists to
    /// find — and evicts the cached copy of any frame that fails, so
    /// subsequent reads observe the damage too.
    ///
    /// Detection only: the directory is not modified. Callers quarantine
    /// and heal (see [`RecordStore::quarantine`]). When the cursor walks
    /// past the last segment it wraps to the start and the slice reports
    /// `pass_complete`.
    pub fn scrub_step(&self, max_bytes: u64) -> Result<VerifySlice, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut slice = VerifySlice::default();
        'outer: while slice.bytes_verified < max_bytes.max(1) {
            let cur = inner.scrub;
            if cur.seg > inner.active_idx {
                inner.scrub = ScrubCursor::default();
                slice.pass_complete = true;
                break;
            }
            // The segment's live frames from the cursor on, one lookup in
            // its ordered view at a time (verification needs `inner`).
            loop {
                let next = inner.live_frames_from(cur.seg, inner.scrub.off).next();
                let Some((id, loc)) = next else { break };
                if read_frame(inner, &self.dir, loc)?.is_some() {
                    slice.clean.push(id);
                } else {
                    slice.corrupt.push(id);
                }
                slice.bytes_verified += u64::from(loc.len);
                inner.scrub = ScrubCursor { seg: loc.seg, off: loc.off + u64::from(loc.len) };
                if slice.bytes_verified >= max_bytes.max(1) {
                    break 'outer;
                }
            }
            // Segment exhausted within budget: move to the next one.
            inner.scrub = ScrubCursor { seg: cur.seg + 1, off: 0 };
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
