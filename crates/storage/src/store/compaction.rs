//! Incremental compaction: [`RecordStore::compact_step`] copies the live
//! frames of a victim segment forward and removes it.
//!
//! A step walks the victim's per-segment view — its put list and its
//! tombstone list, merged in offset order — not its bytes. A dead frame
//! costs a list entry: it is booked and never read. Only the frames that
//! survive are read (neighbours share one read), verified, and appended
//! with one write per active segment they land in.

use super::{
    fault_write, parse_entry, reader, rotate_active, segment_path, Inner, Loc, RecordStore,
    StoreError,
};
use crate::blockcache::BlockKey;
use crate::fault::FaultInjector;
use crate::frame;
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::ids::RecordId;
use std::fs::{self, File};
use std::os::unix::fs::FileExt;
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
    /// Victim bytes the cursor moved past, header included, whatever
    /// became of their frames; over whole victims this less
    /// `bytes_reclaimed` is the bytes copied forward. A bounded
    /// [`RecordStore::compact_step`] can make real progress mid-segment
    /// without completing one; this field distinguishes that from a
    /// genuine no-op.
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

/// Frames [`RecordStore::read_kept`] reads that lie closer than this share one read:
/// reading the dead bytes between them is cheaper than another read call.
/// Kept small because the bytes bridged count against a compaction step's
/// budget: at 4 KiB a step read most of the 1–4 KB dead frames of a
/// small-record store and moved less of its victim.
pub(super) const SPAN_GAP: u64 = 1 << 10;

/// What a dead entry costs a step's budget. It is booked in memory and
/// never read, but a long run of them must still end a step.
const DEAD_ENTRY_COST: u64 = 64;

/// What a step does with one frame of the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Dropped unread: a superseded put, or a tombstone that shadows
    /// nothing any more.
    Drop,
    /// Copied forward: the live put, or a tombstone that still shadows a
    /// stale put somewhere.
    Keep,
    /// Was to be kept but failed verification: quarantined.
    Lost,
}

/// One entry of the victim's view, with its fate.
#[derive(Debug, Clone, Copy)]
pub(super) struct Entry {
    pub(super) off: u64,
    pub(super) id: RecordId,
    /// Frame length; 0 for a stale put, whose length nothing needs.
    pub(super) len: u32,
    tomb: bool,
    fate: Fate,
}

impl Entry {
    /// The live put frame of `id` at `loc`, to be read.
    pub(super) fn live(id: RecordId, loc: Loc) -> Self {
        Self { off: loc.off, id, len: loc.len, tomb: false, fate: Fate::Keep }
    }

    pub(super) fn kept(&self) -> bool {
        self.fate == Fate::Keep
    }
}

/// Reusable buffers of [`RecordStore::compact_step`].
#[derive(Debug, Default)]
pub(super) struct CompactScratch {
    /// The entries a step walks, in victim offset order.
    entries: Vec<Entry>,
    /// Stale puts per id the step has dropped but not yet booked, so that
    /// a tombstone later in the walk is judged as if they were.
    dropped: FxHashMap<RecordId, u32>,
    /// The kept frames, verified, back to back: what the step writes.
    out: Vec<u8>,
}

/// Resume point for incremental compaction: which sealed segment is being
/// copied forward and how far the walk has progressed. Entries of the
/// victim's view before `off` are booked already.
#[derive(Debug, Clone, Copy)]
pub(super) struct CompactCursor {
    pub(super) seg: u32,
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

#[cfg(test)]
thread_local! {
    /// Offsets `[from, to)` of every segment that [`fill_at`] cannot read
    /// on this thread, as a bad sector would fail: tests set it.
    pub(super) static BAD_BYTES: std::cell::Cell<Option<(u64, u64)>> =
        const { std::cell::Cell::new(None) };
}

/// Reads `buf.len()` bytes of `f` from `off`, fewer where the file ends
/// first; returns how many.
fn fill_at(f: &File, off: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    #[cfg(test)]
    if BAD_BYTES.get().is_some_and(|(from, to)| off < to && from < off + buf.len() as u64) {
        return Err(std::io::Error::other("unreadable bytes"));
    }
    let mut got = 0;
    while got < buf.len() {
        match f.read_at(&mut buf[got..], off + got as u64)? {
            0 => break,
            n => got += n,
        }
    }
    Ok(got)
}

/// Whether the frame `e` names — its length, id and kind — verifies at
/// `at` of `buf`.
fn holds(buf: &[u8], at: usize, e: &Entry) -> bool {
    frame::verify_at(buf, at)
        .filter(|framed| framed.len() == e.len as usize)
        .and_then(|framed| parse_entry(frame::entry(framed)).ok())
        .is_some_and(|parsed| parsed.id == e.id && parsed.tombstone == e.tomb)
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

    /// Decides the fate of the victim's entries from the cursor on, in
    /// offset order, into `scratch.entries`, until `budget` is spent or
    /// the view runs out. A put is kept iff it is the live frame; a
    /// tombstone is kept iff its id is not live again and a stale put for
    /// it remains, counting the stale puts dropped earlier in the walk.
    /// A kept frame costs its read, including a dead gap shorter than
    /// [`SPAN_GAP`] before it, and its write; a dropped one
    /// [`DEAD_ENTRY_COST`]. Returns the budget spent and the victim offset
    /// the cursor moves to once the entries are booked.
    fn plan_step(
        &self,
        scratch: &mut CompactScratch,
        cur: &CompactCursor,
        budget: u64,
    ) -> (u64, u64) {
        scratch.entries.clear();
        scratch.dropped.clear();
        let seg = &self.segs[cur.seg as usize];
        let from = seg.frames.partition_point(|&(off, _)| off < cur.off);
        let mut puts = seg.frames[from..].iter().peekable();
        let from = seg.tombs.partition_point(|&(off, ..)| off < cur.off);
        let mut tombs = seg.tombs[from..].iter().peekable();
        let (mut spent, mut span_end) = (0u64, None::<u64>);
        loop {
            let next_put = puts.peek().map(|&&(off, _)| off);
            let next_tomb = tombs.peek().map(|&&(off, ..)| off);
            let Some(off) = next_put.into_iter().chain(next_tomb).min() else {
                return (spent, cur.file_len);
            };
            if spent >= budget {
                return (spent, off);
            }
            let entry = if next_tomb == Some(off) {
                let &(_, id, len) = tombs.next().expect("peeked");
                let stale = self.stale_puts.get(&id).copied().unwrap_or(0);
                let dropped = scratch.dropped.get(&id).copied().unwrap_or(0);
                let keep = !self.directory.contains_key(&id) && stale > dropped;
                Entry { off, id, len, tomb: true, fate: if keep { Fate::Keep } else { Fate::Drop } }
            } else {
                let &(_, id) = puts.next().expect("peeked");
                match self.directory.get(&id) {
                    Some(loc) if loc.seg == cur.seg && loc.off == off => {
                        Entry { off, id, len: loc.len, tomb: false, fate: Fate::Keep }
                    }
                    _ => {
                        *scratch.dropped.entry(id).or_insert(0) += 1;
                        Entry { off, id, len: 0, tomb: false, fate: Fate::Drop }
                    }
                }
            };
            if entry.kept() {
                let len = u64::from(entry.len);
                let gap = span_end.map_or(SPAN_GAP, |end| off - end);
                let bridged = if gap < SPAN_GAP { gap } else { 0 };
                spent += bridged + 2 * len;
                span_end = Some(off + len);
            } else {
                spent += DEAD_ENTRY_COST;
            }
            scratch.entries.push(entry);
        }
    }

    /// Books one entry of a step, after the write that carried it (if
    /// any) returned `Ok`: a kept frame lands at `active_off`, in the order
    /// of the write.
    fn book_step_entry(&mut self, e: Entry, cur: &mut CompactCursor, stats: &mut CompactStats) {
        let len = u64::from(e.len);
        match e.fate {
            Fate::Drop if e.tomb => self.tomb_bytes = self.tomb_bytes.saturating_sub(len),
            Fate::Drop => {
                if let Some(n) = self.stale_puts.get_mut(&e.id) {
                    *n -= 1;
                    if *n == 0 {
                        self.stale_puts.remove(&e.id);
                    }
                }
            }
            Fate::Keep => {
                let (seg, off) = (self.active_idx, self.active_off);
                self.active_off += len;
                self.io.writes += 1;
                self.io.write_bytes += len;
                if e.tomb {
                    self.dead_bytes += len;
                    cur.carried_tombs += len;
                    self.add_tomb(e.id, seg, off, e.len);
                } else {
                    let loc = self.directory.get_mut(&e.id).expect("kept put is live");
                    let prev = *loc;
                    (loc.seg, loc.off) = (seg, off);
                    let moved = *loc;
                    self.forget_sizes(prev);
                    self.add_sizes(e.id, moved);
                    cur.live_moved += len;
                }
            }
            Fate::Lost => {
                if e.tomb {
                    self.tomb_bytes = self.tomb_bytes.saturating_sub(len);
                } else if let Some(loc) = self.directory.remove(&e.id) {
                    // Its bytes were booked live: they are dead now, as
                    // victim completion assumes of every byte not moved.
                    self.dead_bytes += u64::from(loc.len);
                    self.forget_sizes(loc);
                    self.cache.remove(BlockKey { seg: loc.seg, off: loc.off });
                }
                self.io.quarantined_entries += 1;
                stats.entries_skipped += 1;
            }
        }
    }

    /// Salvage path for a victim whose header rotted after open: the
    /// recovery scan would give the whole file up, so the step does too.
    /// Every entry of its view is booked dead — live records quarantined,
    /// stale puts and tombstones dropped — and the cursor jumps to the end
    /// so the segment gets removed.
    fn quarantine_victim(
        &mut self,
        scratch: &mut CompactScratch,
        cur: &mut CompactCursor,
        stats: &mut CompactStats,
    ) {
        scratch.entries.clear();
        let seg = &self.segs[cur.seg as usize];
        for &(off, id) in &seg.frames {
            let fate = if self.is_live_at(id, cur.seg, off) { Fate::Lost } else { Fate::Drop };
            scratch.entries.push(Entry { off, id, len: 0, tomb: false, fate });
        }
        for &(off, id, len) in &seg.tombs {
            scratch.entries.push(Entry { off, id, len, tomb: true, fate: Fate::Drop });
        }
        for &e in &scratch.entries {
            self.book_step_entry(e, cur, stats);
        }
        // The damaged run itself.
        self.io.quarantined_entries += 1;
        stats.entries_skipped += 1;
        cur.off = cur.file_len;
    }
}

impl RecordStore {
    /// One bounded increment of background compaction: walks a victim
    /// segment's frames from a persistent cursor until about `max_bytes`
    /// are spent, copying the live ones forward into the active segment,
    /// then returns. Repeated calls walk whole segments; a finished
    /// segment's file is removed and its dead space reclaimed. The budget
    /// counts the bytes a step reads and writes, plus a small fixed cost
    /// per dead frame, which is booked without being read.
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
    /// Per frame of the victim's view, in offset order:
    /// * the **live** entry (directory points here) is read, verified and
    ///   copied forward, and the directory re-pointed;
    /// * a **stale** put (superseded) is dropped unread — this is the
    ///   reclaim;
    /// * a **tombstone** is dropped unread if its id is live again or no
    ///   stale put for it remains anywhere, else carried forward (dropping
    ///   it early would let recovery resurrect the record from a stale
    ///   put);
    /// * a kept frame that fails verification is **quarantined** alone, as
    ///   [`RecordStore::quarantine`] would; damage in a dropped frame costs
    ///   nothing. A victim whose header rotted is given up whole, as a
    ///   reopen would.
    ///
    /// Nothing in memory (directory, counters, cursor) moves until the
    /// write carrying a step's copies returned `Ok`. Crash-safe by write
    /// ordering: copies land in the active segment before the victim is
    /// removed, so a crash anywhere replays to a state where every live
    /// record decodes (the copy, being later in replay order, wins).
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
        // One oversized frame or an unbounded step may have grown it.
        scratch.out.clear();
        scratch.out.shrink_to(usize::try_from(max_bytes).unwrap_or(usize::MAX));
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
                // live frames included, as the recovery scan would.
                let mut hdr = [0u8; frame::FILE_HDR];
                let f = reader(inner, &self.dir, cur.seg)?;
                if fill_at(f, 0, &mut hdr)? == hdr.len() && frame::SEGMENT.header_valid(&hdr) {
                    cur.off = hdr.len() as u64;
                } else {
                    inner.quarantine_victim(scratch, &mut cur, &mut stats);
                }
                stats.bytes_scanned += cur.off;
                inner.cursor = Some(cur);
            }
            if cur.off < cur.file_len {
                let (cost, end) = inner.plan_step(scratch, &cur, budget - spent);
                spent += cost;
                let unread =
                    self.read_kept(inner, cur.seg, &mut scratch.entries, &mut scratch.out)?;
                if let Some(err) = unread {
                    return Err(err.into());
                }
                self.write_and_book(inner, scratch, &mut cur, end, &mut stats)?;
            }
            if cur.off >= cur.file_len {
                // Segment fully processed: free it.
                fault_remove(&segment_path(&self.dir, cur.seg), fault)?;
                inner.readers[cur.seg as usize] = None;
                // Whatever the view still lists here is booked.
                let seg = inner.seg_mut(cur.seg);
                debug_assert_eq!(seg.live_frame_bytes, 0);
                seg.frames = Vec::new();
                seg.tombs = Vec::new();
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
            }
        }
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

    /// Reads the kept frames of `entries` (ascending offsets in segment
    /// `seg`) from disk, past the block cache, into `out`, back to back.
    /// Kept frames closer than [`SPAN_GAP`] share one read; each is
    /// verified against its entry (CRC, length, id and kind), and one that
    /// fails, or lies past the end of the file, becomes [`Fate::Lost`] and
    /// is left out. A compaction step reads its kept frames with it, and a
    /// scrub slice its live ones.
    ///
    /// A span whose read fails is read again a frame at a time, so a bad
    /// sector loses only the frames on it; a frame that does not read
    /// either becomes `Lost` too, and the first such error is returned
    /// once every span is read. The caller decides what it means: damage
    /// to report for a scrub slice, a step to abandon for compaction,
    /// which would otherwise drop a record that may yet read again.
    pub(super) fn read_kept(
        &self,
        inner: &mut Inner,
        seg: u32,
        entries: &mut [Entry],
        out: &mut Vec<u8>,
    ) -> Result<Option<std::io::Error>, StoreError> {
        out.clear();
        let mut failed = None;
        let mut i = 0;
        while i < entries.len() {
            if !entries[i].kept() {
                i += 1;
                continue;
            }
            // The span: kept frames from `i` on, each within the gap of
            // the one before; `j` ends it.
            let start = entries[i].off;
            let mut end = start + u64::from(entries[i].len);
            let mut j = i + 1;
            while let Some(e) = entries.get(j) {
                if e.kept() {
                    if e.off - end >= SPAN_GAP {
                        break;
                    }
                    end = e.off + u64::from(e.len);
                }
                j += 1;
            }
            let base = out.len();
            out.resize(base + (end - start) as usize, 0);
            let f = reader(inner, &self.dir, seg)?;
            let got = match fill_at(f, start, &mut out[base..]) {
                Ok(got) => got,
                Err(err) => {
                    failed.get_or_insert(err);
                    // Zeroes never verify: a frame that does not read is lost.
                    out[base..].fill(0);
                    for e in entries[i..j].iter().filter(|e| e.kept()) {
                        let at = base + (e.off - start) as usize;
                        let frame = &mut out[at..at + e.len as usize];
                        if let Err(err) = fill_at(f, e.off, frame) {
                            frame.fill(0);
                            failed.get_or_insert(err);
                        }
                    }
                    out.len() - base
                }
            };
            inner.io.read_bytes += got as u64;
            let mut to = base;
            for e in entries[i..j].iter_mut().filter(|e| e.kept()) {
                let at = base + (e.off - start) as usize;
                inner.io.reads += 1;
                if holds(&out[..base + got], at, e) {
                    out.copy_within(at..at + e.len as usize, to);
                    to += e.len as usize;
                } else {
                    inner.io.verify_failures += 1;
                    e.fate = Fate::Lost;
                }
            }
            out.truncate(to);
            i = j;
        }
        Ok(failed)
    }

    /// Appends `scratch.out` to the active segment — one write per active
    /// segment it lands in, rotating where appending frame by frame would
    /// — and after each write returned `Ok` books the entries up to the
    /// next write's first frame and moves the cursor there (to `end` after
    /// the last). If a write fails, memory still describes the victim from
    /// the cursor on: no entry names bytes that were never written.
    fn write_and_book(
        &self,
        inner: &mut Inner,
        scratch: &CompactScratch,
        cur: &mut CompactCursor,
        end: u64,
        stats: &mut CompactStats,
    ) -> Result<(), StoreError> {
        let fault = self.config.fault.as_deref();
        let full = self.config.segment_bytes;
        let entries = &scratch.entries;
        let (mut from, mut written) = (0, 0);
        loop {
            // This write's frames: up to one that would land after a
            // rotation, where appending frame by frame would rotate.
            let mut pos =
                if inner.active_off >= full { frame::FILE_HDR as u64 } else { inner.active_off };
            let (mut to, mut bytes) = (from, 0u64);
            while let Some(e) = entries.get(to) {
                if e.kept() {
                    if bytes > 0 && pos >= full {
                        break;
                    }
                    pos += u64::from(e.len);
                    bytes += u64::from(e.len);
                }
                to += 1;
            }
            if bytes > 0 {
                if inner.active_off >= full {
                    rotate_active(inner, &self.dir, fault)?;
                }
                let chunk = &scratch.out[written..written + bytes as usize];
                fault_write(&mut inner.active, fault, chunk)?;
                written += bytes as usize;
            }
            for &e in &entries[from..to] {
                inner.book_step_entry(e, cur, stats);
            }
            let next = entries.get(to).map_or(end, |e| e.off);
            stats.bytes_scanned += next - cur.off;
            cur.off = next;
            inner.cursor = Some(*cur);
            if to == entries.len() {
                return Ok(());
            }
            from = to;
        }
    }
}
