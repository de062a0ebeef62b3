//! Incremental compaction: [`RecordStore::compact_step`] copies the live
//! frames of a victim segment forward and removes it.

use super::{
    fault_write, parse_entry, reader, rotate_active, segment_path, Inner, Loc, RecordStore,
    StoreError,
};
use crate::fault::FaultInjector;
use crate::frame;
use dbdedup_util::ids::RecordId;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// What a compaction pass accomplished. Marked `#[must_use]` so callers
/// either assert on the numbers or export them through the metrics
/// registry — silently dropping reclamation stats hides regressions.
#[must_use = "compaction stats report reclaimed space; check or export them"]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Segment files fully processed and emptied.
    pub segments_rewritten: u64,
    /// Physical bytes freed (old segment bytes minus bytes copied forward).
    pub bytes_reclaimed: u64,
    /// Damaged entries skipped (quarantined) instead of copied.
    pub entries_skipped: u64,
    /// Frame bytes examined. A bounded [`RecordStore::compact_step`] can
    /// make real progress mid-segment without completing one; this field
    /// distinguishes that from a genuine no-op.
    pub bytes_scanned: u64,
}

impl CompactStats {
    /// Folds another pass's stats into this one.
    pub fn merge(&mut self, other: CompactStats) {
        self.segments_rewritten += other.segments_rewritten;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.entries_skipped += other.entries_skipped;
        self.bytes_scanned += other.bytes_scanned;
    }

    /// Whether the pass did nothing at all (no progress possible).
    pub fn is_noop(&self) -> bool {
        self.segments_rewritten == 0
            && self.bytes_reclaimed == 0
            && self.entries_skipped == 0
            && self.bytes_scanned == 0
    }
}

/// A kept frame of the pending compaction run (see [`CompactScratch`]).
#[derive(Debug, Clone, Copy)]
struct KeptFrame {
    id: RecordId,
    len: u32,
    tombstone: bool,
}

/// Reusable buffers of [`RecordStore::compact_step`]: the read window over
/// the victim, and the run of kept frames — adjacent in the victim, so one
/// slice of the window — that the next write appends in one go.
#[derive(Debug, Default)]
pub(super) struct CompactScratch {
    /// Bytes `[win_off, win_off + window.len())` of segment `win_seg`;
    /// `None` between steps (only the allocation is kept).
    window: Vec<u8>,
    win_seg: Option<u32>,
    win_off: u64,
    /// Frames examined and kept since the cursor, not yet written. Nothing
    /// in memory (directory, counters, cursor) reflects them until their
    /// write returned `Ok`.
    run: Vec<KeptFrame>,
    run_bytes: u64,
    /// Offset in the active segment at which the run's first frame lands.
    run_base: u64,
}

/// Floor and cap of one window read: a frame-per-step budget still reads a
/// few frames' worth at once, an unbounded one does not map a whole segment.
const COMPACT_WINDOW_MIN: u64 = 4 << 10;
const COMPACT_WINDOW_MAX: u64 = 1 << 20;

/// Resume point for incremental compaction: which sealed segment is being
/// copied forward and how far the frame scan has progressed.
#[derive(Debug, Clone, Copy)]
pub(super) struct CompactCursor {
    seg: u32,
    pub(super) off: u64,
    file_len: u64,
    /// Frame bytes copied forward because they were live.
    pub(super) live_moved: u64,
    /// Frame bytes copied forward because they were still-needed tombstones.
    carried_tombs: u64,
}

impl CompactCursor {
    fn at_start(seg: u32, file_len: u64) -> Self {
        Self { seg, off: 0, file_len, live_moved: 0, carried_tombs: 0 }
    }
}

/// Removal for the compaction paths: a "crashed" injector means the
/// process is dead, so the destructive half of copy-then-remove must never
/// land either. (The copies preceding it were silently dropped; removing
/// the victim anyway would destroy live records.)
fn fault_remove(path: &Path, fault: Option<&FaultInjector>) -> std::io::Result<()> {
    if fault.is_some_and(|inj| inj.crashed()) {
        return Ok(());
    }
    fs::remove_file(path)
}

/// Bytes of a segment file that are neither its header nor `live` frames.
fn dead_in(file_len: u64, live: u64) -> u64 {
    file_len.saturating_sub(frame::FILE_HDR as u64).saturating_sub(live)
}

impl Inner {
    /// The victim a step floored at `min_dead_share` would pick: among the
    /// sealed segments with at least that share of their bytes dead (and
    /// some), the one with the highest LFS cost-benefit score
    /// `(1 − u) · age / (1 + u)`, where `u` is the live share of its bytes
    /// and `age` how many segments were opened after it; ties go to the
    /// older. A floor of 0 is the drain: with no sealed victim, the active
    /// segment's dead space is reclaimed by sealing it, and the victim is
    /// `active_idx`.
    pub(super) fn victim(&self, min_dead_share: f64) -> Option<u32> {
        if self.dead_bytes <= self.tomb_bytes {
            // Nothing truly reclaimable: every dead byte is a tombstone
            // that still shadows a stale put somewhere. Rewriting
            // segments now would only shuffle those tombstones around.
            return None;
        }
        let mut best: Option<(f64, u32)> = None;
        for (seg, s) in (0..self.active_idx).zip(&self.segs) {
            let dead = dead_in(s.sealed_len, s.live_frame_bytes);
            if dead == 0 || (dead as f64) < min_dead_share * s.sealed_len as f64 {
                continue;
            }
            let u = s.live_frame_bytes as f64 / s.sealed_len as f64;
            let score = (1.0 - u) * f64::from(self.active_idx - seg) / (1.0 + u);
            if best.is_none_or(|(top, _)| score > top) {
                best = Some((score, seg));
            }
        }
        match best {
            Some((_, seg)) => Some(seg),
            None if min_dead_share <= 0.0
                && dead_in(self.active_off, self.seg_live_frame_bytes(self.active_idx)) > 0 =>
            {
                Some(self.active_idx)
            }
            None => None,
        }
    }
}

impl RecordStore {
    /// One bounded increment of background compaction: copies at most
    /// ~`max_bytes` of frame bytes forward from a victim segment into the
    /// active segment, then returns. Progress persists in a cursor, so
    /// repeated calls walk whole segments; a finished segment's file is
    /// removed and its dead space reclaimed.
    ///
    /// A victim in progress is always continued. A new one is the sealed
    /// segment with the best cost-benefit score among those with at least
    /// `min_dead_share` of their bytes dead: a mostly-dead old segment
    /// frees the most for what its live frames cost to copy, while a young
    /// one's frames are still dying by themselves. With `min_dead_share`
    /// 0 the step drains: any sealed segment holding dead bytes qualifies,
    /// and when none does but the active segment holds dead bytes, the
    /// active segment is sealed (rotated) so the next calls can reclaim it
    /// too. A floored step never seals it.
    ///
    /// Per frame of the victim:
    /// * the **live** entry (directory points here) is copied forward and
    ///   the directory re-pointed;
    /// * a **stale** put (superseded) is dropped — this is the reclaim;
    /// * a **tombstone** is dropped if its id is live again or no stale
    ///   put for it remains anywhere, else carried forward (dropping it
    ///   early would let recovery resurrect the record from a stale put);
    /// * a **damaged** frame is quarantined like the salvage scan does.
    ///
    /// Crash-safe by write ordering: copies land in the active segment
    /// before the victim is removed, so a crash anywhere replays to a
    /// state where every live record decodes (the copy, being later in
    /// replay order, wins).
    pub fn compact_step(
        &self,
        max_bytes: u64,
        min_dead_share: f64,
    ) -> Result<CompactStats, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // The scratch buffers live in `inner` only between steps.
        let mut scratch = std::mem::take(&mut inner.compact);
        let result = self.compact_step_with(inner, &mut scratch, max_bytes, min_dead_share);
        // An error leaves the unwritten run behind: forget it, the cursor
        // still sits at its first frame.
        scratch.run.clear();
        scratch.run_bytes = 0;
        scratch.win_seg = None;
        if scratch.window.capacity() as u64 > COMPACT_WINDOW_MAX {
            scratch.window = Vec::new(); // one oversized frame grew it
        }
        inner.compact = scratch;
        result
    }

    fn compact_step_with(
        &self,
        inner: &mut Inner,
        scratch: &mut CompactScratch,
        max_bytes: u64,
        min_dead_share: f64,
    ) -> Result<CompactStats, StoreError> {
        let fault = self.config.fault.as_deref();
        let budget = max_bytes.max(1);
        let mut stats = CompactStats::default();
        let mut spent = 0u64;
        while spent < budget {
            let Some(mut cur) = inner.cursor else {
                match self.pick_victim(inner, min_dead_share)? {
                    Some(cur) => {
                        inner.cursor = Some(cur);
                        continue;
                    }
                    None => break,
                }
            };
            if cur.off == 0 {
                // Validate the victim header before trusting its frames: a
                // header that rotted since open gives up the whole segment,
                // live frames included, like damage mid-segment does.
                let mut hdr = [0u8; frame::FILE_HDR];
                let f = reader(inner, &self.dir, cur.seg)?;
                f.seek(SeekFrom::Start(0))?;
                if f.read_exact(&mut hdr).is_ok() && frame::SEGMENT.header_valid(&hdr) {
                    cur.off = hdr.len() as u64;
                } else {
                    self.quarantine_from(inner, &mut cur, &mut stats);
                }
                inner.cursor = Some(cur);
            }
            if cur.off >= cur.file_len {
                // Segment fully processed: free it.
                fault_remove(&segment_path(&self.dir, cur.seg), fault)?;
                inner.readers[cur.seg as usize] = None;
                // Whatever the ordered view still lists here is stale.
                let seg = inner.seg_mut(cur.seg);
                debug_assert_eq!(seg.live_frame_bytes, 0);
                seg.frames = Vec::new();
                seg.sealed_len = 0;
                // Everything in the victim except the frames that were
                // live (and moved) was dead space — including the old
                // copies of carried tombstones, whose fresh copies were
                // added to `dead_bytes` when appended.
                inner.dead_bytes =
                    inner.dead_bytes.saturating_sub(dead_in(cur.file_len, cur.live_moved));
                stats.bytes_reclaimed +=
                    cur.file_len.saturating_sub(cur.live_moved).saturating_sub(cur.carried_tombs);
                stats.segments_rewritten += 1;
                inner.cursor = None;
                continue;
            }
            spent += self.step_frames(inner, scratch, &mut cur, budget - spent, &mut stats)?;
        }
        stats.bytes_scanned += spent;
        Ok(stats)
    }

    /// Whether a step floored at `min_dead_share` would do anything: a
    /// victim is in progress, or [`RecordStore::compact_step`] would pick
    /// one. Reads only the per-segment counters.
    pub fn compaction_due(&self, min_dead_share: f64) -> bool {
        let inner = self.inner.lock();
        inner.cursor.is_some() || inner.victim(min_dead_share).is_some()
    }

    /// Starts the next victim (see [`Inner::victim`]), sealing the active
    /// segment first when that is the one.
    fn pick_victim(
        &self,
        inner: &mut Inner,
        min_dead_share: f64,
    ) -> Result<Option<CompactCursor>, StoreError> {
        let Some(seg) = inner.victim(min_dead_share) else { return Ok(None) };
        if seg == inner.active_idx {
            rotate_active(inner, &self.dir, self.config.fault.as_deref())?;
        }
        Ok(Some(CompactCursor::at_start(seg, inner.segs[seg as usize].sealed_len)))
    }

    /// Processes the victim's frames from the cursor until `budget` frame
    /// bytes are examined, the segment ends, or damage abandons the rest of
    /// it. Each frame is copied, dropped or quarantined exactly as if it
    /// were stepped alone; only the I/O is batched — the victim is read
    /// through `scratch.window` and every run of adjacent kept frames goes
    /// out in one write ([`Self::flush_run`]). A dropped frame ends the run
    /// *before* its own bookkeeping is applied, so at any failure the
    /// cursor sits at the first frame whose fate is not yet in memory.
    /// Returns the frame bytes consumed.
    fn step_frames(
        &self,
        inner: &mut Inner,
        scratch: &mut CompactScratch,
        cur: &mut CompactCursor,
        budget: u64,
        stats: &mut CompactStats,
    ) -> Result<u64, StoreError> {
        let mut spent = 0u64;
        while spent < budget {
            // `cur.off` trails the scan by the pending run.
            let at = cur.off + scratch.run_bytes;
            if at >= cur.file_len {
                break;
            }
            let want = (budget - spent).clamp(COMPACT_WINDOW_MIN, COMPACT_WINDOW_MAX);
            // A frame that verifies counts as read even if its entry then
            // fails to parse (it was *written* malformed).
            let frame = self.frame_in_window(inner, scratch, cur, at, want)?;
            let parsed = frame.and_then(|framed| {
                let total = framed.len() as u64;
                inner.io.reads += 1;
                inner.io.read_bytes += total;
                let parsed = parse_entry(frame::entry(&scratch.window[framed])).ok()?;
                Some((parsed.id, parsed.tombstone, total))
            });
            let Some((id, tombstone, total)) = parsed else {
                // First bad frame: what was kept before it lands first,
                // then the rest of the segment is given up.
                self.flush_run(inner, scratch, cur)?;
                self.quarantine_from(inner, cur, stats);
                inner.cursor = Some(*cur);
                break;
            };
            // A tombstone is carried to the tail while it still shadows a
            // stale put (it stays the latest entry for its id, so replay
            // still ends deleted); a put is carried while it is the live
            // frame.
            let keep = if tombstone {
                !inner.directory.contains_key(&id)
                    && inner.stale_puts.get(&id).copied().unwrap_or(0) > 0
            } else {
                inner.is_live_at(id, cur.seg, at)
            };
            if keep {
                // Where appending frame by frame would rotate before this
                // frame, the run ends so that its write lands first.
                if !scratch.run.is_empty()
                    && scratch.run_base + scratch.run_bytes >= self.config.segment_bytes
                {
                    self.flush_run(inner, scratch, cur)?;
                }
                if scratch.run.is_empty() {
                    // A full active segment is rotated by the run's flush.
                    scratch.run_base = if inner.active_off >= self.config.segment_bytes {
                        frame::FILE_HDR as u64
                    } else {
                        inner.active_off
                    };
                }
                scratch.run.push(KeptFrame { id, len: total as u32, tombstone });
                scratch.run_bytes += total;
            } else {
                self.flush_run(inner, scratch, cur)?;
                if tombstone {
                    inner.tomb_bytes = inner.tomb_bytes.saturating_sub(total);
                } else if let Some(n) = inner.stale_puts.get_mut(&id) {
                    *n -= 1;
                    if *n == 0 {
                        inner.stale_puts.remove(&id);
                    }
                }
                cur.off += total;
                inner.cursor = Some(*cur);
            }
            spent += total;
        }
        // Copy-before-truncate: nothing stays pending past the step.
        self.flush_run(inner, scratch, cur)?;
        Ok(spent)
    }

    /// Makes `scratch.window` hold the whole frame starting at victim
    /// offset `at` and verifies it. Returns where in the window it sits, or
    /// `None` when no valid frame starts there. The window
    /// is re-read — about `want` bytes, more for a larger frame — only when
    /// the frame crosses its end, after the pending run (a slice of the old
    /// window) has been written.
    fn frame_in_window(
        &self,
        inner: &mut Inner,
        scratch: &mut CompactScratch,
        cur: &mut CompactCursor,
        at: u64,
        want: u64,
    ) -> Result<Option<std::ops::Range<usize>>, StoreError> {
        let left = cur.file_len - at;
        let mut need = frame::FRAME_HDR as u64;
        if left < need {
            return Ok(None); // trailing fragment too short to be a frame
        }
        loop {
            let held = (scratch.win_off + scratch.window.len() as u64).saturating_sub(at);
            if scratch.win_seg != Some(cur.seg) || at < scratch.win_off || held < need {
                self.flush_run(inner, scratch, cur)?;
                let len = want.max(need).min(left) as usize;
                let f = reader(inner, &self.dir, cur.seg)?;
                f.seek(SeekFrom::Start(at))?;
                scratch.window.resize(len, 0);
                scratch.win_seg = Some(cur.seg);
                scratch.win_off = at;
                let mut got = 0;
                while got < len {
                    match f.read(&mut scratch.window[got..])? {
                        0 => break,
                        n => got += n,
                    }
                }
                scratch.window.truncate(got);
                if (got as u64) < need {
                    // The file is shorter than the cursor was told.
                    return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
                }
            }
            let pos = (at - scratch.win_off) as usize;
            let Some(total) = frame::span(&scratch.window[pos..], left) else {
                return Ok(None);
            };
            if need < total {
                need = total; // header seen; now the whole frame
                continue;
            }
            return Ok(frame::verify_at(&scratch.window, pos).map(|framed| pos..pos + framed.len()));
        }
    }

    /// Appends the pending run to the active segment with one write
    /// (rotating first if the segment is full) and only then re-points the
    /// directory at the copies, books carried tombstones, and moves
    /// `active_off`, the I/O counters and the cursor past the run. If the
    /// write fails, memory still describes the victim: no entry names bytes
    /// that were never written.
    fn flush_run(
        &self,
        inner: &mut Inner,
        scratch: &mut CompactScratch,
        cur: &mut CompactCursor,
    ) -> Result<(), StoreError> {
        if scratch.run.is_empty() {
            return Ok(());
        }
        let fault = self.config.fault.as_deref();
        if inner.active_off >= self.config.segment_bytes {
            rotate_active(inner, &self.dir, fault)?;
        }
        let start = (cur.off - scratch.win_off) as usize;
        let bytes = &scratch.window[start..start + scratch.run_bytes as usize];
        fault_write(&mut inner.active, fault, bytes)?;
        for frame in scratch.run.drain(..) {
            let total = u64::from(frame.len);
            let (seg, off) = (inner.active_idx, inner.active_off);
            inner.active_off += total;
            inner.io.writes += 1;
            inner.io.write_bytes += total;
            if frame.tombstone {
                inner.dead_bytes += total;
                cur.carried_tombs += total;
            } else {
                let loc = inner.directory.get_mut(&frame.id).expect("kept put is live");
                let prev = *loc;
                (loc.seg, loc.off) = (seg, off);
                let moved = *loc;
                inner.forget_sizes(prev);
                inner.add_sizes(frame.id, moved);
                cur.live_moved += total;
            }
            cur.off += total;
        }
        scratch.run_bytes = 0;
        inner.cursor = Some(*cur);
        Ok(())
    }

    /// Salvage path for damage found mid-compaction (a bad frame, or a bad
    /// header at the start): drop any directory entries pointing into the
    /// rest of the segment (they could never be read anyway) and advance
    /// the cursor to the end so the segment gets removed.
    fn quarantine_from(
        &self,
        inner: &mut Inner,
        cur: &mut CompactCursor,
        stats: &mut CompactStats,
    ) {
        let doomed: Vec<(RecordId, Loc)> = inner.live_frames_from(cur.seg, cur.off).collect();
        for (id, loc) in doomed {
            inner.directory.remove(&id);
            // Count the lost entry as dead so the completion-time
            // subtraction (which assumes non-moved bytes were dead)
            // balances.
            inner.dead_bytes += u64::from(loc.len);
            inner.forget_sizes(loc);
            inner.io.quarantined_entries += 1;
            stats.entries_skipped += 1;
        }
        inner.io.quarantined_entries += 1;
        stats.entries_skipped += 1;
        // The skipped run was dead (or just became dead); completion
        // accounting treats everything not copied as reclaimed.
        cur.off = cur.file_len;
    }
}
