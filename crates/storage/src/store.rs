//! The log-structured record store.
//!
//! Records are appended to segment files and located through an in-memory
//! directory (`RecordId` → segment/offset). Updates append a fresh entry
//! and re-point the directory; the superseded bytes become dead space that
//! [`RecordStore::compact_step`] reclaims. Each entry stores its payload either
//! **raw** or as a **backward delta** tagged with the base record it
//! decodes against — the on-disk half of dbDedup's two-way encoding.
//!
//! Optional per-entry block compression (`blockz`) stands in for the
//! page-level Snappy compression of the paper's MongoDB/WiredTiger setup.
//!
//! ## On-disk format (version 2)
//!
//! Every segment opens with a 16-byte header:
//!
//! ```text
//! magic "DBDPSEG\0" (8) | format version u32 LE (4) | crc32(first 12) (4)
//! ```
//!
//! Entries are framed for integrity and resynchronization:
//!
//! ```text
//! marker 0xDB 0x5E (2) | entry len u32 LE (4) | crc32(entry) (4) | entry
//! ```
//!
//! Every read verifies the frame (marker, length, CRC-32) before parsing;
//! a mismatch surfaces as [`StoreError::Corrupt`] and is counted in
//! [`IoStats::verify_failures`], never returned as data.
//!
//! ## Salvage recovery
//!
//! [`RecordStore::open`] never fails hard on a damaged directory. The
//! recovery scan *contains* corruption instead of propagating it:
//!
//! * a frame that fails validation is **quarantined** — the scan skips
//!   forward byte-by-byte until the next position holding a fully valid
//!   frame (marker + in-bounds length + CRC), so one damaged entry in a
//!   sealed segment no longer swallows everything after it;
//! * trailing garbage on the **active** segment (a torn tail from a crash
//!   mid-append) is physically truncated back to the last valid frame;
//! * a sealed segment with a destroyed header is quarantined whole.
//!
//! The result is prefix-consistent: every surviving directory entry points
//! at a frame that verified during the scan, and counts of what was lost
//! are reported via [`RecoveryReport`] and [`IoStats`].

use crate::blockcache::{BlockCache, BlockCacheStats, BlockKey};
use crate::blockz;
use crate::fault::{FaultInjector, WriteOutcome};
use bytes::Bytes;
use dbdedup_util::codec::{ByteReader, ByteWriter};
use dbdedup_util::hash::crc32::crc32;
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::ids::RecordId;
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of every segment file.
const SEG_MAGIC: &[u8; 8] = b"DBDPSEG\0";
/// Current on-disk format version.
const FORMAT_VERSION: u32 = 2;
/// Segment header: magic + version + header CRC.
const SEG_HDR_LEN: usize = 16;
/// Two-byte frame marker the salvage scan resynchronizes on.
const FRAME_MARKER: [u8; 2] = [0xDB, 0x5E];
/// Frame header: marker + entry length + entry CRC.
const FRAME_HDR: usize = 10;
/// Sanity cap on a single entry; lengths beyond this are treated as
/// corruption during scanning.
const MAX_ENTRY_BYTES: usize = 1 << 30;

/// How a stored payload reconstructs the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageForm {
    /// The payload is the record's bytes.
    Raw,
    /// The payload is a backward delta; decoding requires `base`.
    Delta {
        /// The record this delta decodes against.
        base: RecordId,
    },
}

/// A record as returned by [`RecordStore::get`]: payload plus its form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Raw-vs-delta disposition.
    pub form: StorageForm,
    /// The stored payload (decompressed if block compression applied).
    pub payload: Bytes,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Bytes per segment file before rotating.
    pub segment_bytes: u64,
    /// Block-cache budget for entry reads (the buffer-pool stand-in);
    /// 0 disables caching.
    pub block_cache_bytes: usize,
    /// Apply `blockz` block compression to payloads (kept only when it
    /// actually shrinks the payload).
    pub block_compression: bool,
    /// `fsync` after every append (off by default, like the paper's
    /// journaling-disabled setup).
    pub fsync: bool,
    /// Deterministic fault injection applied to every physical segment
    /// write. `None` in production; tests share the injector via `Arc` to
    /// script crashes and corruption. After an injected crash the
    /// in-memory store is a zombie whose directory no longer matches
    /// disk — only the subsequent reopen (recovery) is meaningful.
    pub fault: Option<Arc<FaultInjector>>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 << 20,
            block_cache_bytes: 8 << 20,
            block_compression: false,
            fsync: false,
            fault: None,
        }
    }
}

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// An on-disk entry failed verification or parsing.
    Corrupt(String),
    /// The record is not in the store.
    NotFound(RecordId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store entry: {m}"),
            StoreError::NotFound(id) => write!(f, "record {id} not found"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Cumulative I/O counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoStats {
    /// Entry reads served from disk.
    pub reads: u64,
    /// Entry writes (appends).
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Damaged entries (or entry runs) quarantined — during recovery
    /// scanning or when compaction skips an unreadable record.
    pub quarantined_entries: u64,
    /// Bytes of torn tail physically truncated from active segments
    /// during recovery.
    pub truncated_tail_bytes: u64,
    /// Reads that failed frame verification (marker/length/CRC).
    pub verify_failures: u64,
}

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

/// What a recovery scan found and did, per [`RecordStore::open`].
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

/// Where a record's live frame sits, and what it holds. `payload_len` and
/// `uncompressed_len` are the frame's contribution to the live-byte
/// counters, so that **`live_payload_bytes` and `live_uncompressed_bytes`
/// are always the sums of these fields over the directory**: whoever
/// creates a `Loc` (append, recovery scan, compaction) copies them from the
/// frame it just wrote or verified, and superseding, deleting or
/// quarantining a record subtracts them without reading the old frame back.
/// The same holds per segment for [`SegLive`]: a directory entry enters
/// through [`Inner::add_sizes`] and leaves through [`Inner::forget_sizes`],
/// and those two keep the totals, the segment's frame-byte counter and its
/// position-ordered view in step.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u32,
    off: u64,
    len: u32,
    /// Stored payload bytes (after block compression).
    payload_len: u32,
    /// Payload bytes before block compression.
    uncompressed_len: u32,
    form: StorageForm,
    /// The live frame carries the degraded tag (admitted under overload,
    /// awaiting out-of-line re-dedup). Mirrors on-disk flag bit 3, so the
    /// degraded work-list survives restart through the recovery scan.
    degraded: bool,
}

/// One segment's share of the directory: what the maintenance paths that
/// work a segment at a time (scrub slice, victim choice, mid-compaction
/// quarantine) read instead of walking every record.
#[derive(Debug, Default)]
struct SegLive {
    /// `(offset, id)` of every put frame the directory has pointed at in
    /// this segment since it was last emptied, ascending by offset (a
    /// segment only grows at its tail). Superseding a frame leaves its
    /// entry behind: an entry is live iff the directory still points `id`
    /// at exactly this position, checked on use, and the list is dropped
    /// whole when compaction empties the segment. 16 bytes per put frame on
    /// disk.
    frames: Vec<(u64, RecordId)>,
    /// Sum of `Loc::len` over the directory entries in this segment.
    live_frame_bytes: u64,
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
struct CompactScratch {
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
struct CompactCursor {
    seg: u32,
    off: u64,
    file_len: u64,
    /// Frame bytes copied forward because they were live.
    live_moved: u64,
    /// Frame bytes copied forward because they were still-needed tombstones.
    carried_tombs: u64,
}

/// Resume point for the integrity scrub: the next position whose live
/// frames still await verification. Persists across bounded
/// [`RecordStore::scrub_step`] slices (the compaction-cursor idiom), so
/// repeated slices walk the whole store segment-at-a-time and then wrap.
#[derive(Debug, Default, Clone, Copy)]
struct ScrubCursor {
    seg: u32,
    off: u64,
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

struct Inner {
    directory: FxHashMap<RecordId, Loc>,
    readers: Vec<Option<File>>,
    active: File,
    active_idx: u32,
    active_off: u64,
    /// Live stored payload bytes (post-compression) — the denominator of
    /// every storage compression ratio.
    live_payload_bytes: u64,
    /// Live payload bytes before block compression.
    live_uncompressed_bytes: u64,
    dead_bytes: u64,
    /// Bytes of tombstone frames currently on disk. Subset of
    /// `dead_bytes`; a tombstone can only be dropped once no superseded
    /// put frame for its id remains, so `dead_bytes - tomb_bytes` is the
    /// space compaction can actually reclaim right now.
    tomb_bytes: u64,
    /// Per-id count of superseded put frames still physically on disk.
    /// A tombstone whose id has no stale puts left shadows nothing and is
    /// dropped (not carried) when its segment is compacted.
    stale_puts: FxHashMap<RecordId, u32>,
    /// Per-segment view of the directory, indexed by segment.
    segs: Vec<SegLive>,
    cursor: Option<CompactCursor>,
    compact: CompactScratch,
    scrub: ScrubCursor,
    io: IoStats,
    cache: BlockCache,
}

impl Inner {
    /// Books the frame at `old` — no longer the live one for `id` — as dead
    /// space and takes its sizes out of the live counters. The frame stays
    /// on disk as a stale put until compaction; a tombstone for this id
    /// must outlive it (see `stale_puts`).
    fn retire(&mut self, id: RecordId, old: Loc) {
        self.dead_bytes += u64::from(old.len);
        *self.stale_puts.entry(id).or_insert(0) += 1;
        self.forget_sizes(old);
    }

    /// Takes a frame the directory no longer points at out of the live
    /// counters. Its entry in the segment's ordered view goes stale.
    fn forget_sizes(&mut self, old: Loc) {
        self.live_payload_bytes -= u64::from(old.payload_len);
        self.live_uncompressed_bytes -= u64::from(old.uncompressed_len);
        self.segs[old.seg as usize].live_frame_bytes -= u64::from(old.len);
    }

    /// Books the frame the directory now points `id` at. Within a segment
    /// callers arrive in offset order (appends, the recovery scan and
    /// compaction's copies all move forward), which keeps the view sorted.
    fn add_sizes(&mut self, id: RecordId, new: Loc) {
        self.live_payload_bytes += u64::from(new.payload_len);
        self.live_uncompressed_bytes += u64::from(new.uncompressed_len);
        if self.segs.len() <= new.seg as usize {
            self.segs.resize_with(new.seg as usize + 1, SegLive::default);
        }
        let seg = &mut self.segs[new.seg as usize];
        debug_assert!(seg.frames.last().is_none_or(|&(off, _)| off < new.off));
        seg.frames.push((new.off, id));
        seg.live_frame_bytes += u64::from(new.len);
    }

    /// Whether the directory points `id` at exactly `(seg, off)`.
    fn is_live_at(&self, id: RecordId, seg: u32, off: u64) -> bool {
        self.directory.get(&id).is_some_and(|loc| loc.seg == seg && loc.off == off)
    }

    /// The live frames of `seg` at or past `from`, in on-disk order.
    fn live_frames_from(&self, seg: u32, from: u64) -> impl Iterator<Item = (RecordId, Loc)> + '_ {
        let frames = self.segs.get(seg as usize).map_or(&[][..], |s| &s.frames[..]);
        let start = frames.partition_point(|&(off, _)| off < from);
        frames[start..].iter().filter_map(move |&(off, id)| {
            let loc = *self.directory.get(&id)?;
            (loc.seg == seg && loc.off == off).then_some((id, loc))
        })
    }

    fn seg_live_frame_bytes(&self, seg: u32) -> u64 {
        self.segs.get(seg as usize).map_or(0, |s| s.live_frame_bytes)
    }
}

/// See module docs.
pub struct RecordStore {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<Inner>,
    recovery: RecoveryReport,
    own_dir: bool,
}

impl std::fmt::Debug for RecordStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordStore").field("dir", &self.dir).finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, idx: u32) -> PathBuf {
    dir.join(format!("seg{idx:06}.dat"))
}

fn segment_header() -> [u8; SEG_HDR_LEN] {
    let mut h = [0u8; SEG_HDR_LEN];
    h[..8].copy_from_slice(SEG_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

fn header_valid(buf: &[u8]) -> bool {
    buf.len() >= SEG_HDR_LEN
        && &buf[..8] == SEG_MAGIC
        && u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) == FORMAT_VERSION
        && u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) == crc32(&buf[..12])
}

/// Returns the entry length if a fully valid frame (marker, in-bounds
/// length, CRC) begins at `pos`.
fn frame_at(buf: &[u8], pos: usize) -> Option<usize> {
    let rest = buf.len().checked_sub(pos)?;
    if rest < FRAME_HDR || buf[pos..pos + 2] != FRAME_MARKER {
        return None;
    }
    let len = u32::from_le_bytes(buf[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
    if len > MAX_ENTRY_BYTES || rest - FRAME_HDR < len {
        return None;
    }
    let crc = u32::from_le_bytes(buf[pos + 6..pos + 10].try_into().expect("4 bytes"));
    let entry = &buf[pos + FRAME_HDR..pos + FRAME_HDR + len];
    (crc32(entry) == crc).then_some(len)
}

/// The single choke-point through which store bytes reach a file; applies
/// the fault injector when one is configured.
fn fault_write(
    file: &mut File,
    fault: Option<&FaultInjector>,
    bytes: &[u8],
) -> std::io::Result<()> {
    match fault {
        None => file.write_all(bytes),
        Some(inj) => {
            let mut buf = bytes.to_vec();
            match inj.on_write(&mut buf)? {
                WriteOutcome::Proceed => file.write_all(&buf),
                WriteOutcome::Truncated(n) => file.write_all(&buf[..n]),
                WriteOutcome::Dropped => Ok(()),
            }
        }
    }
}

fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(len)
}

/// Truncation for the compaction paths: a "crashed" injector means the
/// process is dead, so the destructive half of copy-then-truncate must
/// never land either. (The copies preceding it were silently dropped;
/// truncating the victim anyway would destroy live records.)
fn fault_truncate(path: &Path, len: u64, fault: Option<&FaultInjector>) -> std::io::Result<()> {
    if fault.is_some_and(|inj| inj.crashed()) {
        return Ok(());
    }
    truncate_file(path, len)
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl RecordStore {
    /// Opens (creating if needed) a store in `dir`. An existing store is
    /// recovered by scanning its segments in salvage mode: damaged
    /// entries are quarantined and a torn active tail is truncated, but
    /// the open itself only fails on filesystem errors — never on
    /// corruption.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = Self {
            inner: Mutex::new(Inner {
                directory: FxHashMap::default(),
                readers: Vec::new(),
                active: OpenOptions::new()
                    .create(true)
                    .append(true)
                    .read(true)
                    .open(segment_path(&dir, 0))?,
                active_idx: 0,
                active_off: 0,
                live_payload_bytes: 0,
                live_uncompressed_bytes: 0,
                dead_bytes: 0,
                tomb_bytes: 0,
                stale_puts: FxHashMap::default(),
                segs: Vec::new(),
                cursor: None,
                compact: CompactScratch::default(),
                scrub: ScrubCursor::default(),
                io: IoStats::default(),
                cache: BlockCache::new(config.block_cache_bytes),
            }),
            dir,
            config,
            recovery: RecoveryReport::default(),
            own_dir: false,
        };
        store.recover()?;
        Ok(store)
    }

    /// Opens a store in a fresh unique temporary directory, removed on drop.
    pub fn open_temp(config: StoreConfig) -> Result<Self, StoreError> {
        let dir = std::env::temp_dir().join(format!(
            "dbdedup-store-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut s = Self::open(dir, config)?;
        s.own_dir = true;
        Ok(s)
    }

    /// What the opening recovery scan found and salvaged.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery.clone()
    }

    /// The store's on-disk directory. Sidecar subsystems (the tiered
    /// feature index's run files) key their derived state under it so a
    /// store and its derived files move together.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn recover(&mut self) -> Result<(), StoreError> {
        let mut report = RecoveryReport::default();
        // Replay every segment in order; the directory converges to the
        // latest *valid* entry per id, tombstones delete.
        let mut count = 0u32;
        while segment_path(&self.dir, count).exists() {
            count += 1;
        }
        for idx in 0..count {
            let is_active = idx + 1 == count;
            self.scan_segment(idx, is_active, &mut report)?;
        }
        let inner = self.inner.get_mut();
        inner.active_idx = count.saturating_sub(1);
        inner.active = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(segment_path(&self.dir, inner.active_idx))?;
        inner.active_off = inner.active.metadata()?.len();
        inner.readers = (0..=inner.active_idx).map(|_| None).collect();
        if inner.active_off == 0 {
            fault_write(&mut inner.active, self.config.fault.as_deref(), &segment_header())?;
            inner.io.writes += 1;
            inner.io.write_bytes += SEG_HDR_LEN as u64;
            inner.active_off = SEG_HDR_LEN as u64;
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
        if buf.is_empty() {
            return Ok(()); // fresh segment; header written on open
        }
        let inner = self.inner.get_mut();
        if !header_valid(&buf) {
            if is_active {
                // The whole active segment is unparseable (e.g. a crash
                // tore the header write): truncate and rewrite on open.
                truncate_file(&path, 0)?;
                inner.io.truncated_tail_bytes += buf.len() as u64;
                report.truncated_tail_bytes += buf.len() as u64;
                report.notes.push(format!(
                    "seg {idx}: invalid header on active segment; truncated {} bytes",
                    buf.len()
                ));
            } else {
                inner.io.quarantined_entries += 1;
                inner.dead_bytes += buf.len() as u64;
                report.quarantined_entries += 1;
                report.quarantined_bytes += buf.len() as u64;
                report.notes.push(format!(
                    "seg {idx}: invalid header on sealed segment; {} bytes quarantined",
                    buf.len()
                ));
                report.skipped.push(SalvagedFrame {
                    segment: idx,
                    offset: 0,
                    bytes: buf.len() as u64,
                });
            }
            return Ok(());
        }
        let mut pos = SEG_HDR_LEN;
        while pos < buf.len() {
            if let Some(len) = frame_at(&buf, pos) {
                let entry = &buf[pos + FRAME_HDR..pos + FRAME_HDR + len];
                // A CRC-valid frame that still fails to parse means the
                // entry was *written* malformed; quarantine it like any
                // other damage rather than trusting it.
                if let Ok(parsed) = parse_entry(entry) {
                    let loc = Loc {
                        seg: idx,
                        off: pos as u64,
                        len: (FRAME_HDR + len) as u32,
                        payload_len: parsed.payload.len() as u32,
                        uncompressed_len: parsed.uncompressed_len,
                        form: parsed.form,
                        degraded: parsed.degraded_db.is_some(),
                    };
                    if let Some(old) = inner.directory.remove(&parsed.id) {
                        inner.retire(parsed.id, old);
                    }
                    if parsed.tombstone {
                        inner.dead_bytes += u64::from(loc.len);
                        inner.tomb_bytes += u64::from(loc.len);
                    } else {
                        inner.directory.insert(parsed.id, loc);
                        inner.add_sizes(parsed.id, loc);
                    }
                    report.entries_recovered += 1;
                    pos += FRAME_HDR + len;
                    continue;
                }
            }
            // Corruption at `pos`: resynchronize at the next valid frame.
            let start = pos;
            match (start + 1..buf.len()).find(|&q| frame_at(&buf, q).is_some()) {
                Some(q) => {
                    inner.io.quarantined_entries += 1;
                    inner.dead_bytes += (q - start) as u64;
                    report.quarantined_entries += 1;
                    report.quarantined_bytes += (q - start) as u64;
                    report.notes.push(format!(
                        "seg {idx}: quarantined {} damaged bytes at offset {start}",
                        q - start
                    ));
                    report.skipped.push(SalvagedFrame {
                        segment: idx,
                        offset: start as u64,
                        bytes: (q - start) as u64,
                    });
                    pos = q;
                }
                None if is_active => {
                    // Torn tail from a crash mid-append: cut it off so
                    // future appends extend a clean prefix.
                    truncate_file(&path, start as u64)?;
                    let torn = buf.len() - start;
                    inner.io.truncated_tail_bytes += torn as u64;
                    report.truncated_tail_bytes += torn as u64;
                    report.notes.push(format!(
                        "seg {idx}: truncated {torn}-byte torn tail at offset {start}"
                    ));
                    break;
                }
                None => {
                    let run = buf.len() - start;
                    inner.io.quarantined_entries += 1;
                    inner.dead_bytes += run as u64;
                    report.quarantined_entries += 1;
                    report.quarantined_bytes += run as u64;
                    report.notes.push(format!(
                        "seg {idx}: quarantined {run} damaged trailing bytes at offset {start}"
                    ));
                    report.skipped.push(SalvagedFrame {
                        segment: idx,
                        offset: start as u64,
                        bytes: run as u64,
                    });
                    break;
                }
            }
        }
        Ok(())
    }

    /// Writes (or overwrites) `id` with `payload` stored under `form`.
    /// Overwriting a degraded entry clears its tag (the fresh frame has
    /// no degraded flag, and the directory follows the latest frame).
    pub fn put(&self, id: RecordId, form: StorageForm, payload: &[u8]) -> Result<(), StoreError> {
        self.append_entry(id, form, payload, false, None)
    }

    /// Writes `id` raw and tags the frame as **degraded**: admitted via
    /// the overload pass-through path of logical database `db`, so the
    /// out-of-line re-dedup task can find it again — even after a restart,
    /// since the tag lives in segment metadata and is replayed by the
    /// recovery scan. A later [`RecordStore::put`] clears the tag.
    pub fn put_degraded(&self, id: RecordId, db: &str, payload: &[u8]) -> Result<(), StoreError> {
        self.append_entry(id, StorageForm::Raw, payload, false, Some(db))
    }

    /// Removes `id`. Idempotent; a tombstone is appended so recovery sees
    /// the deletion.
    pub fn delete(&self, id: RecordId) -> Result<(), StoreError> {
        self.append_entry(id, StorageForm::Raw, &[], true, None)
    }

    fn append_entry(
        &self,
        id: RecordId,
        form: StorageForm,
        payload: &[u8],
        tombstone: bool,
        degraded_db: Option<&str>,
    ) -> Result<(), StoreError> {
        let (framed, payload_len) =
            encode_frame(id, form, payload, self.config.block_compression, tombstone, degraded_db);
        let total = framed.len();
        let fault = self.config.fault.as_deref();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if inner.active_off >= self.config.segment_bytes {
            rotate_active(inner, &self.dir, fault)?;
        }
        fault_write(&mut inner.active, fault, &framed)?;
        if self.config.fsync {
            inner.active.sync_data()?;
        }
        let loc = Loc {
            seg: inner.active_idx,
            off: inner.active_off,
            len: total as u32,
            payload_len,
            uncompressed_len: payload.len() as u32,
            form,
            degraded: degraded_db.is_some(),
        };
        inner.active_off += total as u64;
        inner.io.writes += 1;
        inner.io.write_bytes += total as u64;

        // Directory + accounting.
        if let Some(old) = inner.directory.remove(&id) {
            inner.retire(id, old);
        }
        if tombstone {
            inner.dead_bytes += total as u64;
            inner.tomb_bytes += total as u64;
        } else {
            inner.directory.insert(id, loc);
            inner.add_sizes(id, loc);
        }
        Ok(())
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: RecordId) -> bool {
        self.inner.lock().directory.contains_key(&id)
    }

    /// Reads `id`, verifying the frame checksum before parsing. An
    /// uncompressed payload is returned as a view into the verified frame
    /// (the block cache's buffer), not a copy of it.
    pub fn get(&self, id: RecordId) -> Result<StoredRecord, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let loc = *inner.directory.get(&id).ok_or(StoreError::NotFound(id))?;
        let raw = read_entry_bytes(inner, &self.dir, loc)?;
        let parsed = parse_entry(&raw[FRAME_HDR..]).map_err(StoreError::Corrupt)?;
        debug_assert_eq!(parsed.id, id);
        let payload = if parsed.compressed {
            Bytes::from(
                blockz::decompress(parsed.payload)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?,
            )
        } else {
            let start = raw.len() - parsed.payload.len();
            Bytes::from_shared(Arc::clone(&raw), start..raw.len())
        };
        Ok(StoredRecord { form: parsed.form, payload })
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.inner.lock().directory.len()
    }

    /// Whether the store has no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live stored payload bytes, post block-compression — the storage
    /// footprint figures report.
    pub fn stored_payload_bytes(&self) -> u64 {
        self.inner.lock().live_payload_bytes
    }

    /// Live payload bytes before block compression (isolates dedup's own
    /// contribution from `blockz`'s).
    pub fn stored_uncompressed_bytes(&self) -> u64 {
        self.inner.lock().live_uncompressed_bytes
    }

    /// Dead (superseded) bytes awaiting compaction.
    pub fn dead_bytes(&self) -> u64 {
        self.inner.lock().dead_bytes
    }

    /// Bytes of tombstone frames currently on disk. These are dead but
    /// not yet reclaimable: a tombstone must outlive every superseded put
    /// frame for its id or recovery would resurrect the record.
    pub fn tombstone_bytes(&self) -> u64 {
        self.inner.lock().tomb_bytes
    }

    /// Dead bytes compaction can actually free right now (dead space
    /// minus still-needed tombstone frames). Background maintenance
    /// quiesces when this reaches zero.
    pub fn reclaimable_dead_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.dead_bytes.saturating_sub(inner.tomb_bytes)
    }

    /// On-disk frame length of `id`'s live entry, if present. Lets the
    /// engine cost deleted-but-referenced records without reading them.
    pub fn entry_len(&self, id: RecordId) -> Option<u64> {
        self.inner.lock().directory.get(&id).map(|loc| u64::from(loc.len))
    }

    /// Where `id`'s live frame sits on disk: `(segment, offset, len)`.
    /// Diagnostic — fault-injection tests use it to aim corruption at a
    /// specific live record rather than at dead bytes.
    pub fn frame_extent(&self, id: RecordId) -> Option<(u32, u64, u32)> {
        self.inner.lock().directory.get(&id).map(|loc| (loc.seg, loc.off, loc.len))
    }

    /// Cumulative I/O counters. With the block cache enabled, `reads`
    /// counts only cache misses that reached the file.
    pub fn io_stats(&self) -> IoStats {
        self.inner.lock().io
    }

    /// The raw on-disk bytes of every segment file in segment order
    /// (the differential equivalence harness compares these across
    /// engines byte for byte). Taken under the store lock, so the view
    /// is consistent between appends; a segment emptied by compaction
    /// reads as an empty vector.
    pub fn segment_bytes(&self) -> Result<Vec<Vec<u8>>, StoreError> {
        let inner = self.inner.lock();
        let mut out = Vec::with_capacity(inner.active_idx as usize + 1);
        for i in 0..=inner.active_idx {
            match fs::read(segment_path(&self.dir, i)) {
                Ok(bytes) => out.push(bytes),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => out.push(Vec::new()),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }

    /// Block-cache (buffer pool) counters.
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.inner.lock().cache.stats()
    }

    /// Lists every live record with its storage form (raw vs delta+base),
    /// without touching disk. Drives engine chain recovery after restart.
    pub fn live_forms(&self) -> Vec<(RecordId, StorageForm)> {
        self.inner.lock().directory.iter().map(|(&id, loc)| (id, loc.form)).collect()
    }

    /// Whether `id`'s live frame carries the degraded tag (stored raw via
    /// the overload pass-through path and not yet re-deduplicated).
    pub fn is_degraded(&self, id: RecordId) -> bool {
        self.inner.lock().directory.get(&id).map(|loc| loc.degraded).unwrap_or(false)
    }

    /// Every live record still tagged degraded, with the logical database
    /// it was admitted into, sorted by id. This is the crash-recoverable
    /// half of the engine's degraded-set: the tag rides in segment
    /// metadata, so a restart rebuilds the re-dedup work-list from here.
    /// An entry whose frame no longer reads back (quarantined mid-life)
    /// is skipped — anti-entropy owns damaged records, not re-dedup.
    pub fn degraded_records(&self) -> Result<Vec<(RecordId, String)>, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let tagged: Vec<(RecordId, Loc)> = inner
            .directory
            .iter()
            .filter(|(_, loc)| loc.degraded)
            .map(|(&id, &loc)| (id, loc))
            .collect();
        let mut out = Vec::with_capacity(tagged.len());
        for (id, loc) in tagged {
            let raw = match read_entry_bytes(inner, &self.dir, loc) {
                Ok(raw) => raw,
                Err(StoreError::Corrupt(_)) => continue,
                Err(e) => return Err(e),
            };
            let Ok(parsed) = parse_entry(&raw[FRAME_HDR..]) else { continue };
            let Some(db) = parsed.degraded_db else { continue };
            out.push((id, String::from_utf8_lossy(db).into_owned()));
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        Ok(out)
    }

    /// The logical database `id`'s live degraded-tagged frame was admitted
    /// into, or `None` when the frame is untagged, unreadable, or absent.
    /// The per-id counterpart of [`RecordStore::degraded_records`], used
    /// by the scrub's backlog-consistency check.
    pub fn degraded_db(&self, id: RecordId) -> Result<Option<String>, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(&loc) = inner.directory.get(&id) else {
            return Ok(None);
        };
        if !loc.degraded {
            return Ok(None);
        }
        let raw = match read_entry_bytes(inner, &self.dir, loc) {
            Ok(raw) => raw,
            Err(StoreError::Corrupt(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let Ok(parsed) = parse_entry(&raw[FRAME_HDR..]) else {
            return Ok(None);
        };
        Ok(parsed.degraded_db.map(|db| String::from_utf8_lossy(db).into_owned()))
    }

    /// One bounded increment of background compaction: copies at most
    /// ~`max_bytes` of frame bytes forward from the best victim segment
    /// (the sealed segment with the most dead space) into the active
    /// segment, then returns. Progress persists in a cursor, so repeated
    /// calls walk whole segments; a finished segment is truncated to zero
    /// (not removed: the recovery scan walks segment indices contiguously
    /// from zero, so a missing `seg000000.dat` would blind a reopened store
    /// to every later segment) and its dead space reclaimed. When every sealed segment is clean
    /// but the active segment holds dead bytes, the active segment is
    /// sealed (rotated) so the next calls can reclaim it too.
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
    /// before the victim is truncated, so a crash anywhere replays to a
    /// state where every live record decodes (the copy, being later in
    /// replay order, wins).
    pub fn compact_step(&self, max_bytes: u64) -> Result<CompactStats, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // The scratch buffers live in `inner` only between steps.
        let mut scratch = std::mem::take(&mut inner.compact);
        let result = self.compact_step_with(inner, &mut scratch, max_bytes);
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
    ) -> Result<CompactStats, StoreError> {
        let fault = self.config.fault.as_deref();
        let budget = max_bytes.max(1);
        let mut stats = CompactStats::default();
        let mut spent = 0u64;
        while spent < budget {
            let Some(mut cur) = inner.cursor else {
                match self.pick_victim(inner)? {
                    Some(cur) => {
                        inner.cursor = Some(cur);
                        continue;
                    }
                    None => break,
                }
            };
            if cur.off == 0 {
                // Validate the victim header before trusting its frames.
                let mut hdr = vec![0u8; SEG_HDR_LEN];
                ensure_reader(inner, &self.dir, cur.seg)?;
                let f = inner.readers[cur.seg as usize].as_mut().expect("reader opened");
                f.seek(SeekFrom::Start(0))?;
                let ok = f.read_exact(&mut hdr).is_ok() && header_valid(&hdr);
                if !ok {
                    // Whole segment is junk (recovery already counted it
                    // as dead); empty it.
                    fault_truncate(&segment_path(&self.dir, cur.seg), 0, fault)?;
                    inner.readers[cur.seg as usize] = None;
                    inner.dead_bytes = inner.dead_bytes.saturating_sub(cur.file_len);
                    inner.io.quarantined_entries += 1;
                    stats.entries_skipped += 1;
                    stats.bytes_reclaimed += cur.file_len;
                    stats.segments_rewritten += 1;
                    inner.cursor = None;
                    continue;
                }
                cur.off = SEG_HDR_LEN as u64;
            }
            if cur.off >= cur.file_len {
                // Segment fully processed: free it.
                fault_truncate(&segment_path(&self.dir, cur.seg), 0, fault)?;
                inner.readers[cur.seg as usize] = None;
                // Whatever the ordered view still lists here is stale.
                if let Some(seg) = inner.segs.get_mut(cur.seg as usize) {
                    debug_assert_eq!(seg.live_frame_bytes, 0);
                    seg.frames = Vec::new();
                }
                // Everything in the victim except the frames that were
                // live (and moved) was dead space — including the old
                // copies of carried tombstones, whose fresh copies were
                // added to `dead_bytes` when appended.
                let dead_in_victim =
                    cur.file_len.saturating_sub(SEG_HDR_LEN as u64).saturating_sub(cur.live_moved);
                inner.dead_bytes = inner.dead_bytes.saturating_sub(dead_in_victim);
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

    /// Chooses the next compaction victim: the sealed segment with the
    /// most dead bytes, or — if only the active segment holds dead
    /// space — seals the active segment first and picks it.
    fn pick_victim(&self, inner: &mut Inner) -> Result<Option<CompactCursor>, StoreError> {
        if inner.dead_bytes <= inner.tomb_bytes {
            // Nothing truly reclaimable: every dead byte is a tombstone
            // that still shadows a stale put somewhere. Rewriting
            // segments now would only shuffle those tombstones around.
            return Ok(None);
        }
        let mut best: Option<(u64, u32, u64)> = None; // (dead, seg, file_len)
        for seg in 0..inner.active_idx {
            let Ok(meta) = fs::metadata(segment_path(&self.dir, seg)) else { continue };
            let file_len = meta.len();
            if file_len == 0 {
                continue; // already compacted away
            }
            let live = inner.seg_live_frame_bytes(seg);
            let dead = file_len.saturating_sub(SEG_HDR_LEN as u64).saturating_sub(live);
            if dead > 0 && best.map(|(d, _, _)| dead > d).unwrap_or(true) {
                best = Some((dead, seg, file_len));
            }
        }
        if let Some((_, seg, file_len)) = best {
            return Ok(Some(CompactCursor {
                seg,
                off: 0,
                file_len,
                live_moved: 0,
                carried_tombs: 0,
            }));
        }
        // No sealed victim. If the active segment carries the dead
        // space, seal it (rotate) and compact the now-sealed segment.
        let active_live = inner.seg_live_frame_bytes(inner.active_idx);
        let active_dead =
            inner.active_off.saturating_sub(SEG_HDR_LEN as u64).saturating_sub(active_live);
        if active_dead > 0 {
            let seg = inner.active_idx;
            let file_len = inner.active_off;
            rotate_active(inner, &self.dir, self.config.fault.as_deref())?;
            return Ok(Some(CompactCursor {
                seg,
                off: 0,
                file_len,
                live_moved: 0,
                carried_tombs: 0,
            }));
        }
        Ok(None)
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
            let parsed = frame.and_then(|(pos, entry_len)| {
                inner.io.reads += 1;
                inner.io.read_bytes += (FRAME_HDR + entry_len) as u64;
                let entry = &scratch.window[pos + FRAME_HDR..pos + FRAME_HDR + entry_len];
                let parsed = parse_entry(entry).ok()?;
                Some((parsed.id, parsed.tombstone, (FRAME_HDR + entry_len) as u64))
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
                        SEG_HDR_LEN as u64
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
    /// offset `at` and verifies it (marker, in-bounds length, CRC). Returns
    /// its position in the window and its entry length, or `None` when no
    /// valid frame starts there. The window is re-read — about `want`
    /// bytes, more for a larger frame — only when the frame crosses its end,
    /// after the pending run (a slice of the old window) has been written.
    fn frame_in_window(
        &self,
        inner: &mut Inner,
        scratch: &mut CompactScratch,
        cur: &mut CompactCursor,
        at: u64,
        want: u64,
    ) -> Result<Option<(usize, usize)>, StoreError> {
        let left = cur.file_len - at;
        if left < FRAME_HDR as u64 {
            return Ok(None); // trailing fragment too short to be a frame
        }
        let mut need = FRAME_HDR as u64;
        loop {
            let held = (scratch.win_off + scratch.window.len() as u64).saturating_sub(at);
            if scratch.win_seg != Some(cur.seg) || at < scratch.win_off || held < need {
                self.flush_run(inner, scratch, cur)?;
                let len = want.max(need).min(left) as usize;
                ensure_reader(inner, &self.dir, cur.seg)?;
                let f = inner.readers[cur.seg as usize].as_mut().expect("reader opened");
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
            let hdr = &scratch.window[pos..pos + FRAME_HDR];
            if hdr[..2] != FRAME_MARKER {
                return Ok(None);
            }
            let len = u32::from_le_bytes(hdr[2..6].try_into().expect("4 bytes")) as usize;
            let total = (FRAME_HDR + len) as u64;
            if len > MAX_ENTRY_BYTES || total > left {
                return Ok(None);
            }
            if need < total {
                need = total; // header seen; now the whole frame
                continue;
            }
            return Ok(frame_at(&scratch.window, pos).map(|entry_len| (pos, entry_len)));
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

    /// Salvage path for in-segment damage found mid-compaction: drop any
    /// directory entries pointing into the rest of the segment (they
    /// could never be read anyway) and advance the cursor to the end so
    /// the segment gets truncated.
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
            // Live frames of the cursor segment still ahead of the cursor,
            // in on-disk order: the segment's ordered view from the cursor
            // on, walked by index because verification needs `inner`.
            let (first, end) = inner.segs.get(cur.seg as usize).map_or((0, 0), |s| {
                (s.frames.partition_point(|&(off, _)| off < cur.off), s.frames.len())
            });
            for i in first..end {
                let (off, id) = inner.segs[cur.seg as usize].frames[i];
                let Some(&loc) = inner.directory.get(&id) else { continue };
                if loc.seg != cur.seg || loc.off != off {
                    continue; // superseded since: a stale entry
                }
                if verify_frame_on_disk(inner, &self.dir, loc)? {
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

/// Opens the next segment as the active one. Nothing in `inner` moves
/// until the new segment's header is written: a failed rotation leaves the
/// old segment active (and at most an empty file behind, which the next
/// attempt reuses), so no later append can be booked at an offset of a file
/// it did not go to.
fn rotate_active(
    inner: &mut Inner,
    dir: &Path,
    fault: Option<&FaultInjector>,
) -> Result<(), StoreError> {
    let next = inner.active_idx + 1;
    let mut file =
        OpenOptions::new().create(true).append(true).read(true).open(segment_path(dir, next))?;
    fault_write(&mut file, fault, &segment_header())?;
    // The sealed segment's ordered view has stopped growing.
    if let Some(sealed) = inner.segs.get_mut(inner.active_idx as usize) {
        sealed.frames.shrink_to_fit();
    }
    inner.active_idx = next;
    inner.active = file;
    inner.io.writes += 1;
    inner.io.write_bytes += SEG_HDR_LEN as u64;
    inner.active_off = SEG_HDR_LEN as u64;
    if inner.readers.len() <= next as usize {
        inner.readers.resize_with(next as usize + 1, || None);
    }
    Ok(())
}

impl Drop for RecordStore {
    fn drop(&mut self) {
        if self.own_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

fn read_entry_bytes(inner: &mut Inner, dir: &Path, loc: Loc) -> Result<Arc<Vec<u8>>, StoreError> {
    let key = BlockKey { seg: loc.seg, off: loc.off };
    if let Some(cached) = inner.cache.get(key) {
        return Ok(cached);
    }
    let mut buf = vec![0u8; loc.len as usize];
    // Reads use a dedicated handle per segment (the append handle's cursor
    // must stay at the tail).
    ensure_reader(inner, dir, loc.seg)?;
    let f = inner.readers[loc.seg as usize].as_mut().expect("reader opened");
    f.seek(SeekFrom::Start(loc.off))?;
    f.read_exact(&mut buf)?;
    inner.io.reads += 1;
    inner.io.read_bytes += u64::from(loc.len);
    // Verify the frame before the bytes are trusted (or cached).
    let entry_len = (loc.len as usize).saturating_sub(FRAME_HDR);
    if frame_at(&buf, 0) != Some(entry_len) {
        inner.io.verify_failures += 1;
        return Err(StoreError::Corrupt(format!(
            "seg {} off {}: frame verification failed (marker/length/crc)",
            loc.seg, loc.off
        )));
    }
    let arc = Arc::new(buf);
    inner.cache.insert(key, Arc::clone(&arc));
    Ok(arc)
}

/// Reads the frame at `loc` straight from disk — never the block cache —
/// and verifies it end to end (marker, length, CRC, parseable entry).
/// Returns whether the frame is intact; a failure also bumps
/// [`IoStats::verify_failures`] and evicts any cached copy. A segment file
/// shorter than the directory believes counts as a failed frame, not an
/// I/O abort.
fn verify_frame_on_disk(inner: &mut Inner, dir: &Path, loc: Loc) -> Result<bool, StoreError> {
    ensure_reader(inner, dir, loc.seg)?;
    let f = inner.readers[loc.seg as usize].as_mut().expect("reader opened");
    let mut buf = vec![0u8; loc.len as usize];
    f.seek(SeekFrom::Start(loc.off))?;
    let read_ok = f.read_exact(&mut buf).is_ok();
    inner.io.reads += 1;
    inner.io.read_bytes += u64::from(loc.len);
    let entry_len = (loc.len as usize).saturating_sub(FRAME_HDR);
    let ok =
        read_ok && frame_at(&buf, 0) == Some(entry_len) && parse_entry(&buf[FRAME_HDR..]).is_ok();
    if !ok {
        inner.io.verify_failures += 1;
        inner.cache.remove(BlockKey { seg: loc.seg, off: loc.off });
    }
    Ok(ok)
}

fn ensure_reader(inner: &mut Inner, dir: &Path, seg: u32) -> Result<(), StoreError> {
    if inner.readers.len() <= seg as usize {
        inner.readers.resize_with(seg as usize + 1, || None);
    }
    if inner.readers[seg as usize].is_none() {
        inner.readers[seg as usize] = Some(File::open(segment_path(dir, seg))?);
    }
    Ok(())
}

struct ParsedEntry<'a> {
    id: RecordId,
    form: StorageForm,
    compressed: bool,
    tombstone: bool,
    /// Logical database name when the entry carries the degraded tag
    /// (flag bit 3): admitted raw under overload, awaiting re-dedup.
    degraded_db: Option<&'a [u8]>,
    uncompressed_len: u32,
    payload: &'a [u8],
}

/// Builds a complete frame — header and entry in one buffer, the entry
/// length and CRC patched into the header once the entry is written — and
/// returns it with the stored (post-compression) payload length.
///
/// Entry layout (after the frame header):
/// `id:u64 | flags:u8 | [base:u64 if delta] | [db_len:varint | db if degraded]
///  | uncompressed_len:varint | payload`
/// flags: bit0 delta, bit1 compressed, bit2 tombstone, bit3 degraded
/// (admitted raw under overload; tagged with the logical database so
/// out-of-line re-dedup can replay the full pipeline after a restart).
fn encode_frame(
    id: RecordId,
    form: StorageForm,
    payload: &[u8],
    try_compress: bool,
    tombstone: bool,
    degraded_db: Option<&str>,
) -> (Vec<u8>, u32) {
    let mut flags = 0u8;
    let compressed_payload;
    let mut use_compressed = false;
    if try_compress && !payload.is_empty() {
        compressed_payload = blockz::compress(payload);
        if compressed_payload.len() < payload.len() {
            use_compressed = true;
        }
    } else {
        compressed_payload = Vec::new();
    }
    if let StorageForm::Delta { .. } = form {
        flags |= 0b0001;
    }
    if use_compressed {
        flags |= 0b0010;
    }
    if tombstone {
        flags |= 0b0100;
    }
    if degraded_db.is_some() {
        flags |= 0b1000;
    }
    let body: &[u8] = if use_compressed { &compressed_payload } else { payload };
    let mut w = ByteWriter::with_capacity(FRAME_HDR + body.len() + 32);
    w.put_bytes(&FRAME_MARKER);
    w.put_bytes(&[0; FRAME_HDR - FRAME_MARKER.len()]);
    w.put_u64(id.get());
    w.put_u8(flags);
    if let StorageForm::Delta { base } = form {
        w.put_u64(base.get());
    }
    if let Some(db) = degraded_db {
        w.put_varint(db.len() as u64);
        w.put_bytes(db.as_bytes());
    }
    w.put_varint(payload.len() as u64);
    w.put_bytes(body);
    let mut frame = w.into_vec();
    let (header, entry) = frame.split_at_mut(FRAME_HDR);
    header[2..6].copy_from_slice(&(entry.len() as u32).to_le_bytes());
    header[6..10].copy_from_slice(&crc32(entry).to_le_bytes());
    (frame, body.len() as u32)
}

fn parse_entry(entry: &[u8]) -> Result<ParsedEntry<'_>, String> {
    let mut r = ByteReader::new(entry);
    let id = RecordId(r.get_u64().map_err(|e| e.to_string())?);
    let flags = r.get_u8().map_err(|e| e.to_string())?;
    let form = if flags & 0b0001 != 0 {
        StorageForm::Delta { base: RecordId(r.get_u64().map_err(|e| e.to_string())?) }
    } else {
        StorageForm::Raw
    };
    let degraded_db = if flags & 0b1000 != 0 {
        let db_len = r.get_varint().map_err(|e| e.to_string())? as usize;
        Some(r.get_bytes(db_len).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let uncompressed_len = r.get_varint().map_err(|e| e.to_string())? as u32;
    let pos = r.position();
    let payload = &entry[pos..];
    Ok(ParsedEntry {
        id,
        form,
        compressed: flags & 0b0010 != 0,
        tombstone: flags & 0b0100 != 0,
        degraded_db,
        uncompressed_len,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    fn store() -> RecordStore {
        RecordStore::open_temp(StoreConfig::default()).expect("temp store")
    }

    /// Compacts to quiescence — steps of `budget` until one does nothing —
    /// and returns what they did in total.
    fn compact_to_quiescence(s: &RecordStore, budget: u64) -> CompactStats {
        let mut total = CompactStats::default();
        for _ in 0..1_000_000 {
            let step = s.compact_step(budget).unwrap();
            if step.is_noop() {
                return total;
            }
            total.merge(step);
        }
        panic!("compaction at budget {budget} did not quiesce");
    }

    fn compact_fully(s: &RecordStore) -> CompactStats {
        compact_to_quiescence(s, u64::MAX)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbdedup-store-test-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store();
        s.put(RecordId(1), StorageForm::Raw, b"hello").unwrap();
        let r = s.get(RecordId(1)).unwrap();
        assert_eq!(r.form, StorageForm::Raw);
        assert_eq!(&r.payload[..], b"hello");
    }

    #[test]
    fn degraded_tag_roundtrips_and_clears_on_put() {
        let s = store();
        s.put_degraded(RecordId(7), "accounts", b"raw pass-through bytes").unwrap();
        assert!(s.is_degraded(RecordId(7)));
        assert_eq!(&s.get(RecordId(7)).unwrap().payload[..], b"raw pass-through bytes");
        assert_eq!(s.degraded_records().unwrap(), vec![(RecordId(7), "accounts".to_string())]);
        // A clean overwrite supersedes the tagged frame: tag gone.
        s.put(RecordId(7), StorageForm::Raw, b"raw pass-through bytes").unwrap();
        assert!(!s.is_degraded(RecordId(7)));
        assert!(s.degraded_records().unwrap().is_empty());
    }

    #[test]
    fn degraded_tag_survives_reopen_and_compaction() {
        let dir = temp_dir("degraded");
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            s.put_degraded(RecordId(1), "db-a", &[0xa; 400]).unwrap();
            s.put_degraded(RecordId(2), "db-b", &[0xb; 400]).unwrap();
            s.put(RecordId(3), StorageForm::Raw, &[0xc; 400]).unwrap();
            // Record 2 is cleanly rewritten: its tag must not resurrect.
            s.put(RecordId(2), StorageForm::Raw, &[0xb; 400]).unwrap();
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(s.recovery_report().is_clean());
            assert_eq!(s.degraded_records().unwrap(), vec![(RecordId(1), "db-a".to_string())]);
            let stats = compact_fully(&s);
            assert!(stats.bytes_reclaimed > 0);
            assert_eq!(
                s.degraded_records().unwrap(),
                vec![(RecordId(1), "db-a".to_string())],
                "compaction copies frames verbatim, so the tag survives"
            );
            assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], &[0xa; 400][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_tag_with_block_compression() {
        let cfg = StoreConfig { block_compression: true, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        let text = "compressible degraded content, repeated. ".repeat(100);
        s.put_degraded(RecordId(4), "logs", text.as_bytes()).unwrap();
        assert_eq!(&s.get(RecordId(4)).unwrap().payload[..], text.as_bytes());
        assert_eq!(s.degraded_records().unwrap(), vec![(RecordId(4), "logs".to_string())]);
    }

    #[test]
    fn delta_form_preserved() {
        let s = store();
        s.put(RecordId(2), StorageForm::Delta { base: RecordId(9) }, b"delta-bytes").unwrap();
        let r = s.get(RecordId(2)).unwrap();
        assert_eq!(r.form, StorageForm::Delta { base: RecordId(9) });
        assert_eq!(&r.payload[..], b"delta-bytes");
    }

    #[test]
    fn overwrite_repoints_and_accounts() {
        let s = store();
        s.put(RecordId(1), StorageForm::Raw, &[0xa; 1000]).unwrap();
        let live1 = s.stored_payload_bytes();
        s.put(RecordId(1), StorageForm::Raw, &[0xb; 10]).unwrap();
        assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], &[0xb; 10]);
        assert_eq!(s.stored_payload_bytes(), 10);
        assert!(s.dead_bytes() >= live1, "old entry became dead space");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn superseding_an_uncached_frame_reads_nothing_back() {
        // No block cache, so an accounting path that re-read the old frame
        // for its sizes would show up as a disk read.
        let cfg = StoreConfig { block_cache_bytes: 0, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        for id in 1..=3 {
            s.put(RecordId(id), StorageForm::Raw, &[id as u8; 17_000]).unwrap();
        }
        s.put(RecordId(1), StorageForm::Delta { base: RecordId(2) }, &[0xd; 300]).unwrap();
        s.delete(RecordId(2)).unwrap();
        assert_eq!(s.quarantine(RecordId(3)).unwrap().map(|len| len > 17_000), Some(true));
        assert_eq!(s.io_stats().reads, 0, "overwrite, delete and quarantine read no frame");
        assert_eq!(s.stored_payload_bytes(), 300);
        assert_eq!(s.stored_uncompressed_bytes(), 300);
    }

    /// `scrub_step` as it was before the ordered view existed — filter the
    /// whole directory for the cursor segment, sort by offset — kept as the
    /// oracle the indexed walk is checked against.
    fn scrub_step_scan(s: &RecordStore, max_bytes: u64) -> VerifySlice {
        let mut inner = s.inner.lock();
        let inner = &mut *inner;
        let mut slice = VerifySlice::default();
        'outer: while slice.bytes_verified < max_bytes.max(1) {
            let cur = inner.scrub;
            if cur.seg > inner.active_idx {
                inner.scrub = ScrubCursor::default();
                slice.pass_complete = true;
                break;
            }
            let mut locs: Vec<(RecordId, Loc)> = inner
                .directory
                .iter()
                .filter(|(_, loc)| loc.seg == cur.seg && loc.off >= cur.off)
                .map(|(&id, &loc)| (id, loc))
                .collect();
            if locs.is_empty() {
                inner.scrub = ScrubCursor { seg: cur.seg + 1, off: 0 };
                continue;
            }
            locs.sort_unstable_by_key(|&(_, loc)| loc.off);
            for (id, loc) in locs {
                if verify_frame_on_disk(inner, &s.dir, loc).unwrap() {
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
            inner.scrub = ScrubCursor { seg: cur.seg + 1, off: 0 };
        }
        slice
    }

    /// One full scrub pass per budget, slice by slice: the indexed walk and
    /// the scan report the same frames and leave the same cursor.
    fn assert_scrub_matches_scan(s: &RecordStore, at: &str) {
        for budget in [1, 4 << 10, 64 << 10] {
            s.inner.lock().scrub = ScrubCursor::default();
            loop {
                let from = s.scrub_position();
                let want = scrub_step_scan(s, budget);
                let want_pos = s.scrub_position();
                s.inner.lock().scrub = ScrubCursor { seg: from.0, off: from.1 };
                let got = s.scrub_step(budget).unwrap();
                let ctx = format!("{at}: budget {budget} from {from:?}");
                assert_eq!(got.clean, want.clean, "{ctx}");
                assert_eq!(got.corrupt, want.corrupt, "{ctx}");
                assert_eq!(got.bytes_verified, want.bytes_verified, "{ctx}");
                assert_eq!(got.pass_complete, want.pass_complete, "{ctx}");
                assert_eq!(s.scrub_position(), want_pos, "{ctx}");
                if got.pass_complete {
                    break;
                }
            }
        }
    }

    /// The per-segment half of the "always the sum over the directory"
    /// invariant: the ordered view, read the way maintenance reads it, is
    /// the directory sorted by position, and each segment's frame-byte
    /// counter is the directory's sum for that segment.
    fn assert_segment_views_match_directory(inner: &Inner, at: &str) {
        let mut by_position: Vec<(u32, u64, RecordId)> =
            inner.directory.iter().map(|(&id, loc)| (loc.seg, loc.off, id)).collect();
        by_position.sort_unstable();
        let view: Vec<(u32, u64, RecordId)> = (0..inner.segs.len() as u32)
            .flat_map(|seg| inner.live_frames_from(seg, 0).map(move |(id, loc)| (seg, loc.off, id)))
            .collect();
        assert_eq!(view, by_position, "{at}: ordered view");
        for seg in 0..=inner.active_idx {
            let sum: u64 = inner
                .directory
                .values()
                .filter(|loc| loc.seg == seg)
                .map(|loc| u64::from(loc.len))
                .sum();
            assert_eq!(inner.seg_live_frame_bytes(seg), sum, "{at}: live frame bytes of seg {seg}");
        }
    }

    /// Flips one byte inside the frame at `loc`, behind the store's back.
    fn rot_frame(dir: &Path, loc: Loc) {
        let mut f =
            OpenOptions::new().read(true).write(true).open(segment_path(dir, loc.seg)).unwrap();
        let at = loc.off + u64::from(loc.len) - 1;
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(at)).unwrap();
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(at)).unwrap();
        f.write_all(&[b[0] ^ 0x10]).unwrap();
    }

    /// The live-byte counters, maintained from `Loc` sizes alone, equal the
    /// sum over the directory at every step of a churn and equal what a
    /// fresh recovery scan of the same directory computes from the frames —
    /// and so do the per-segment counters and the ordered view that scrub,
    /// victim choice and mid-compaction quarantine read, with `scrub_step`
    /// over that view reporting what the directory scan reports.
    #[test]
    fn live_byte_counters_match_directory_and_reopen_after_churn() {
        for block_compression in [false, true] {
            let dir = temp_dir(if block_compression { "sizes-z" } else { "sizes-raw" });
            let cfg = StoreConfig {
                segment_bytes: 8192,
                block_cache_bytes: 4096,
                block_compression,
                ..Default::default()
            };
            let mut rng = dbdedup_util::dist::SplitMix64::new(0x10C5_12E5);
            for round in 0..4 {
                let s = RecordStore::open(&dir, cfg.clone()).unwrap();
                for step in 0..400 {
                    let id = RecordId(rng.next_index(40) as u64);
                    match rng.next_index(10) {
                        0..=4 => {
                            // Half compressible text, half noise.
                            let len = rng.next_index(1500);
                            let payload: Vec<u8> = if rng.next_index(2) == 0 {
                                b"compressible text ".iter().cycle().take(len).copied().collect()
                            } else {
                                (0..len).map(|_| rng.next_u64() as u8).collect()
                            };
                            let form = match rng.next_index(3) {
                                0 => StorageForm::Delta { base: RecordId(99) },
                                _ => StorageForm::Raw,
                            };
                            s.put(id, form, &payload).unwrap();
                        }
                        5 => s.put_degraded(id, "db", &[step as u8; 64]).unwrap(),
                        6 | 7 => s.delete(id).unwrap(),
                        8 => drop(s.compact_step(3000).unwrap()),
                        _ if step % 7 == 0 => drop(compact_fully(&s)),
                        _ if step % 7 == 3 => {
                            // Rot a live frame: both scrubs must name it.
                            // Then quarantine it as the scrubber would, and
                            // compact the damage off the disk (giving up
                            // the rest of its segment) so that a reopen
                            // finds what memory holds.
                            let live = s.inner.lock().directory.get(&id).copied();
                            if let Some(loc) = live {
                                rot_frame(&dir, loc);
                                assert_scrub_matches_scan(&s, &format!("step {step} (rot)"));
                                assert_eq!(s.quarantine(id).unwrap(), Some(u64::from(loc.len)));
                                let _ = compact_fully(&s);
                            }
                        }
                        _ => {}
                    }
                    if step % 50 == 0 {
                        assert_scrub_matches_scan(&s, &format!("step {step}"));
                    }
                    let inner = s.inner.lock();
                    assert_segment_views_match_directory(&inner, &format!("step {step}"));
                    let sum = |f: fn(&Loc) -> u32| {
                        inner.directory.values().map(|loc| u64::from(f(loc))).sum::<u64>()
                    };
                    assert_eq!(inner.live_payload_bytes, sum(|l| l.payload_len), "step {step}");
                    assert_eq!(
                        inner.live_uncompressed_bytes,
                        sum(|l| l.uncompressed_len),
                        "step {step}"
                    );
                }
                let (payload, uncompressed, len) =
                    (s.stored_payload_bytes(), s.stored_uncompressed_bytes(), s.len());
                if block_compression {
                    assert!(payload < uncompressed, "some frames were compressed");
                }
                drop(s);
                let reopened = RecordStore::open(&dir, cfg.clone()).unwrap();
                let at = format!("round {round} compression {block_compression}");
                assert_eq!(reopened.len(), len, "{at}");
                assert_eq!(reopened.stored_payload_bytes(), payload, "{at}");
                assert_eq!(reopened.stored_uncompressed_bytes(), uncompressed, "{at}");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn missing_record_errors() {
        let s = store();
        assert!(matches!(s.get(RecordId(404)), Err(StoreError::NotFound(RecordId(404)))));
    }

    #[test]
    fn delete_then_get_fails() {
        let s = store();
        s.put(RecordId(5), StorageForm::Raw, b"gone soon").unwrap();
        s.delete(RecordId(5)).unwrap();
        assert!(!s.contains(RecordId(5)));
        assert!(matches!(s.get(RecordId(5)), Err(StoreError::NotFound(_))));
        assert_eq!(s.stored_payload_bytes(), 0);
    }

    #[test]
    fn block_compression_shrinks_text() {
        let cfg = StoreConfig { block_compression: true, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        let text = "compressible text content, repeated. ".repeat(200);
        s.put(RecordId(1), StorageForm::Raw, text.as_bytes()).unwrap();
        assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], text.as_bytes());
        assert!(s.stored_payload_bytes() < text.len() as u64 / 2);
        assert_eq!(s.stored_uncompressed_bytes(), text.len() as u64);
    }

    #[test]
    fn incompressible_payload_stored_raw() {
        let cfg = StoreConfig { block_compression: true, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        let mut rng = dbdedup_util::dist::SplitMix64::new(1);
        let data: Vec<u8> = (0..10_000).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        s.put(RecordId(1), StorageForm::Raw, &data).unwrap();
        assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], &data[..]);
        assert_eq!(s.stored_payload_bytes(), data.len() as u64);
    }

    #[test]
    fn segment_rotation() {
        let cfg = StoreConfig { segment_bytes: 4096, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        for i in 0..100u64 {
            s.put(RecordId(i), StorageForm::Raw, &vec![i as u8; 500]).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 500][..]);
        }
    }

    #[test]
    fn recovery_restores_directory() {
        let dir = temp_dir("recover");
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            s.put(RecordId(1), StorageForm::Raw, b"one").unwrap();
            s.put(RecordId(2), StorageForm::Delta { base: RecordId(1) }, b"two-delta").unwrap();
            s.put(RecordId(1), StorageForm::Raw, b"one-v2").unwrap();
            s.delete(RecordId(2)).unwrap();
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(s.recovery_report().is_clean());
            assert_eq!(s.len(), 1);
            assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], b"one-v2");
            assert!(!s.contains(RecordId(2)));
            // Store remains writable after recovery.
            s.put(RecordId(3), StorageForm::Raw, b"three").unwrap();
            assert_eq!(&s.get(RecordId(3)).unwrap().payload[..], b"three");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let s = store();
        for i in 0..50u64 {
            s.put(RecordId(i), StorageForm::Raw, &vec![1u8; 1000]).unwrap();
        }
        for i in 0..25u64 {
            s.delete(RecordId(i)).unwrap();
        }
        for i in 25..50u64 {
            s.put(RecordId(i), StorageForm::Raw, &[2u8; 10]).unwrap();
        }
        assert!(s.dead_bytes() > 0);
        let stats = compact_fully(&s);
        assert!(stats.bytes_reclaimed > 0, "stats report the reclaim");
        assert!(stats.segments_rewritten >= 1);
        assert_eq!(stats.entries_skipped, 0);
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(s.tombstone_bytes(), 0, "full compaction drops all tombstones");
        for i in 25..50u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![2u8; 10][..]);
        }
        assert_eq!(s.len(), 25);
        // Still writable post-compaction.
        s.put(RecordId(99), StorageForm::Raw, b"after").unwrap();
        assert_eq!(&s.get(RecordId(99)).unwrap().payload[..], b"after");
    }

    #[test]
    fn reopen_after_compact_keeps_records() {
        // Regression: compaction used to *remove* superseded segment
        // files, but the recovery scan walks indices contiguously from
        // zero — a reopened store found no seg000000.dat and silently
        // came up empty.
        let dir = temp_dir("reopen-compact");
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            for i in 0..20u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
            }
            for i in 0..10u64 {
                s.delete(RecordId(i)).unwrap();
            }
            let _ = compact_fully(&s);
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(s.recovery_report().is_clean());
            assert_eq!(s.len(), 10);
            for i in 10..20u64 {
                assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 100][..]);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_step_drains_dead_space_incrementally() {
        let cfg = StoreConfig { segment_bytes: 4096, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        for i in 0..100u64 {
            s.put(RecordId(i), StorageForm::Raw, &vec![i as u8; 400]).unwrap();
        }
        for i in 0..50u64 {
            s.delete(RecordId(i)).unwrap();
        }
        for i in 50..100u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 40]).unwrap();
        }
        assert!(s.reclaimable_dead_bytes() > 0);
        let mut total = CompactStats::default();
        let mut steps = 0;
        while s.reclaimable_dead_bytes() > 0 {
            let stats = s.compact_step(2048).unwrap();
            if stats.is_noop() {
                break;
            }
            total.merge(stats);
            steps += 1;
            assert!(steps < 10_000, "incremental compaction must terminate");
        }
        assert_eq!(s.reclaimable_dead_bytes(), 0, "all reclaimable space drained");
        assert!(total.bytes_reclaimed > 0);
        assert!(total.segments_rewritten > 1, "walked multiple segments");
        assert!(steps > 1, "budget forced multiple bounded steps");
        for i in 50..100u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 40][..]);
        }
        assert_eq!(s.len(), 50);
        // Still writable, and the store reopens to the same contents.
        s.put(RecordId(200), StorageForm::Raw, b"post-step").unwrap();
        assert_eq!(&s.get(RecordId(200)).unwrap().payload[..], b"post-step");
    }

    #[test]
    fn compact_step_survives_reopen_midway() {
        let dir = temp_dir("step-reopen");
        let cfg = StoreConfig { segment_bytes: 2048, ..Default::default() };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..60u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            for i in 0..30u64 {
                s.delete(RecordId(i)).unwrap();
            }
            // Partial pass only: stop with the cursor mid-segment.
            let _ = s.compact_step(512).unwrap();
        }
        {
            let s = RecordStore::open(&dir, cfg).unwrap();
            assert!(s.recovery_report().is_clean());
            assert_eq!(s.len(), 30);
            for i in 30..60u64 {
                assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 200][..]);
                assert!(!s.contains(RecordId(i - 30)), "deleted stays deleted");
            }
            // And compaction can finish after the reopen.
            while s.reclaimable_dead_bytes() > 0 {
                if s.compact_step(4096).unwrap().is_noop() {
                    break;
                }
            }
            assert_eq!(s.reclaimable_dead_bytes(), 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Windowed compaction ≡ frame-at-a-time compaction
    // ------------------------------------------------------------------

    /// A fixed churned store over many small segments: frames from 60 B to
    /// 6 KB (so they straddle a 4 KiB window, and one outgrows it), stale
    /// puts, tombstones that outlive their segment, degraded tags.
    fn churned_store(dir: &Path, fault: Option<Arc<FaultInjector>>) -> RecordStore {
        let cfg =
            StoreConfig { segment_bytes: 8192, block_cache_bytes: 0, fault, ..Default::default() };
        let s = RecordStore::open(dir, cfg).unwrap();
        let mut rng = dbdedup_util::dist::SplitMix64::new(0xC0A1_E5CE);
        for step in 0..700u64 {
            let id = RecordId(rng.next_index(90) as u64);
            let len = match rng.next_index(12) {
                0 => 6000,
                1..=3 => 40 + rng.next_index(200),
                _ => 300 + rng.next_index(1200),
            };
            match rng.next_index(8) {
                0 | 1 => s.delete(id).unwrap(),
                2 => s.put_degraded(id, "db", &vec![step as u8; len]).unwrap(),
                3 => {
                    s.put(id, StorageForm::Delta { base: RecordId(7) }, &vec![id.0 as u8; len])
                        .unwrap();
                }
                _ => s.put(id, StorageForm::Raw, &vec![step as u8; len]).unwrap(),
            }
        }
        s
    }

    fn live_payloads(s: &RecordStore) -> Vec<(RecordId, StoredRecord)> {
        let mut ids: Vec<RecordId> = s.live_forms().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| (id, s.get(id).unwrap())).collect()
    }

    #[test]
    fn windowed_compaction_writes_the_segments_frame_at_a_time_compaction_writes() {
        // Budget 1 degenerates to one frame per step and one write per kept
        // frame: the reference. The others read through 4 KiB windows,
        // through one window per step, and through whole segments.
        let mut reference = None;
        for budget in [1, 4096, 256 << 10, 1 << 20] {
            let dir = temp_dir("windowed");
            let s = churned_store(&dir, None);
            let before = live_payloads(&s);
            let stats = compact_to_quiescence(&s, budget);
            assert_eq!(stats.entries_skipped, 0);
            assert_eq!(s.reclaimable_dead_bytes(), 0);
            assert_eq!(live_payloads(&s), before, "budget {budget}: every record reads as before");
            let io = s.io_stats();
            let outcome = (s.segment_bytes().unwrap(), stats, io.reads, io.writes, io.read_bytes);
            assert!(outcome.0.len() > 20, "rotations mid-run need many segments");
            match &reference {
                None => reference = Some(outcome),
                Some(r) => {
                    assert!(outcome.0 == r.0, "budget {budget}: segment files differ");
                    assert_eq!((outcome.1, outcome.2, outcome.3, outcome.4), (r.1, r.2, r.3, r.4));
                }
            }
            drop(s);
            let reopened = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(reopened.recovery_report().is_clean(), "budget {budget}");
            assert_eq!(live_payloads(&reopened), before, "budget {budget}: after reopen");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn damage_anywhere_in_a_window_takes_the_frame_at_a_time_path() {
        // Rot the first, a middle and the last frame of the first victim
        // while the store is open (the directory still points at them):
        // whatever the window size, compaction keeps what precedes the
        // damage, gives up the rest of that segment, and ends with the same
        // files, stats and survivors as stepping one frame at a time.
        for which in 0..3 {
            let mut reference = None;
            for budget in [1, 4096, 256 << 10] {
                let dir = temp_dir("windowed-damage");
                let s = churned_store(&dir, None);
                // A sealed segment that will be compacted (it holds dead
                // bytes) and has the most live frames to lose.
                let victim = {
                    let inner = s.inner.lock();
                    (0..inner.active_idx)
                        .filter(|&seg| {
                            let len = fs::metadata(segment_path(&dir, seg)).unwrap().len();
                            len - SEG_HDR_LEN as u64 > inner.seg_live_frame_bytes(seg)
                        })
                        .max_by_key(|&seg| inner.live_frames_from(seg, 0).count())
                        .expect("a dirty sealed segment")
                };
                let frames: Vec<Loc> =
                    s.inner.lock().live_frames_from(victim, 0).map(|(_, loc)| loc).collect();
                assert!(frames.len() >= 3, "victim {victim} has {} live frames", frames.len());
                rot_frame(
                    &dir,
                    [frames[0], frames[frames.len() / 2], frames[frames.len() - 1]][which],
                );
                let stats = compact_to_quiescence(&s, budget);
                assert!(stats.entries_skipped >= 1, "damage {which} budget {budget}: {stats:?}");
                let survivors = live_payloads(&s);
                let outcome = (s.segment_bytes().unwrap(), stats, survivors);
                match &reference {
                    None => reference = Some(outcome),
                    Some(r) => {
                        assert!(outcome.0 == r.0, "damage {which} budget {budget}: files differ");
                        assert_eq!(outcome.1, r.1, "damage {which} budget {budget}");
                        assert_eq!(outcome.2, r.2, "damage {which} budget {budget}");
                    }
                }
                drop(s);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn carried_tombstone_rides_in_the_run_between_its_live_neighbours() {
        let dir = temp_dir("carried-tomb");
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let cfg = StoreConfig {
            segment_bytes: 2048,
            fault: Some(Arc::clone(&inj)),
            ..Default::default()
        };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            // seg 0: X and a filler. seg 1: A, X's tombstone, B, then C —
            // superseded from seg 2, which makes seg 1 the first victim
            // while X's stale put still sits in seg 0.
            s.put(RecordId(100), StorageForm::Raw, &[0x58; 1500]).unwrap();
            s.put(RecordId(1), StorageForm::Raw, &[0xF0; 600]).unwrap();
            s.put(RecordId(2), StorageForm::Raw, &[0xAA; 300]).unwrap();
            s.delete(RecordId(100)).unwrap();
            s.put(RecordId(3), StorageForm::Raw, &[0xBB; 300]).unwrap();
            s.put(RecordId(4), StorageForm::Raw, &[0xCC; 1800]).unwrap();
            s.put(RecordId(4), StorageForm::Raw, &[0xCD; 10]).unwrap();
            assert_eq!(s.frame_extent(RecordId(2)).unwrap().0, 1);
            assert_eq!(s.frame_extent(RecordId(4)).unwrap().0, 2);
            let (writes, tombs) = (inj.writes_seen(), s.tombstone_bytes());
            let step = s.compact_step(u64::MAX).unwrap();
            assert_eq!(step.segments_rewritten, 2, "seg 1, then seg 0: {step:?}");
            // Seg 1's kept frames — A, the tombstone, B — went out as one
            // write; seg 0's filler as another. No rotation in between.
            assert_eq!(inj.writes_seen() - writes, 2);
            assert_eq!(s.tombstone_bytes(), tombs, "the tombstone was carried, not dropped");
            let a = s.frame_extent(RecordId(2)).unwrap();
            let b = s.frame_extent(RecordId(3)).unwrap();
            assert_eq!(a.0, b.0);
            assert_eq!(b.1 - (a.1 + u64::from(a.2)), tombs, "the tombstone sits between A and B");
        }
        let s = RecordStore::open(&dir, cfg).unwrap();
        assert!(!s.contains(RecordId(100)), "replay still ends deleted");
        assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[0xAA; 300][..]);
        assert_eq!(&s.get(RecordId(3)).unwrap().payload[..], &[0xBB; 300][..]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store in `dir`, opened under `cfg`, whose compaction cursor sits in
    /// a sealed victim just past its one stale frame, with `n + 1` small
    /// live frames in a row ahead of it. Returns the store and the ids of
    /// those frames in victim order.
    fn sealed_victim_with_one_long_run(
        dir: &Path,
        cfg: StoreConfig,
        n: u64,
    ) -> (RecordStore, Vec<RecordId>) {
        {
            // Built in one default-sized segment, whatever `cfg` rotates at.
            let s = RecordStore::open(dir, StoreConfig::default()).unwrap();
            for i in 0..=n {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
            }
            s.put(RecordId(0), StorageForm::Raw, &[0xEE; 100]).unwrap();
        }
        let s = RecordStore::open(dir, cfg).unwrap();
        // A one-byte budget seals the active segment as the victim and
        // stops after its first frame, the stale put of record 0.
        let first = s.compact_step(1).unwrap();
        assert!(first.bytes_scanned > 0 && first.segments_rewritten == 0, "{first:?}");
        let ids = (1..=n).chain([0]).map(RecordId).collect();
        (s, ids)
    }

    #[test]
    fn one_compaction_step_writes_once_per_run_not_once_per_frame() {
        // The regression guard, in counts: physical writes per step.
        let dir = temp_dir("one-write");
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
        let (s, ids) = sealed_victim_with_one_long_run(&dir, cfg, 240);
        let (ops, io) = (inj.writes_seen(), s.io_stats());
        let step = s.compact_step(256 << 10).unwrap();
        assert_eq!(step.segments_rewritten, 1, "{step:?}");
        assert_eq!(inj.writes_seen() - ops, 1, "241 adjacent live frames, one write");
        assert_eq!(s.io_stats().writes - io.writes, 241, "`writes` still counts entries");
        assert_eq!(s.io_stats().write_bytes - io.write_bytes, step.bytes_scanned);
        for id in ids {
            assert_eq!(s.get(id).unwrap().payload.len(), 100);
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        // With segments small enough to rotate mid-run, each rotation costs
        // its header and one more run; the files are what per-frame
        // appends leave (see the equivalence test above).
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let cfg = StoreConfig {
            segment_bytes: 8192,
            fault: Some(Arc::clone(&inj)),
            ..Default::default()
        };
        let (s, _) = sealed_victim_with_one_long_run(&dir, cfg, 240);
        let (ops, segs) = (inj.writes_seen(), s.inner.lock().active_idx);
        let step = s.compact_step(256 << 10).unwrap();
        let rotations = u64::from(s.inner.lock().active_idx - segs);
        assert!(rotations >= 2 && step.segments_rewritten == 1, "{rotations} {step:?}");
        assert!(
            inj.writes_seen() - ops <= 1 + 2 * rotations,
            "{} ops, {rotations} rotations",
            inj.writes_seen() - ops
        );
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_run_write_leaves_memory_describing_the_victim() {
        // Where the run's write lands in the op stream, from a clean run.
        let dir = temp_dir("failed-run");
        let probe = Arc::new(FaultInjector::new(FaultPlan::new()));
        let cfg = StoreConfig { fault: Some(Arc::clone(&probe)), ..Default::default() };
        drop(sealed_victim_with_one_long_run(&dir, cfg, 50));
        let run_op = probe.writes_seen();
        let _ = fs::remove_dir_all(&dir);

        let plan = FaultPlan::new().fault_at(run_op, FaultKind::IoError);
        let cfg = StoreConfig {
            block_cache_bytes: 0,
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        };
        let (s, ids) = sealed_victim_with_one_long_run(&dir, cfg, 50);
        let snapshot = |s: &RecordStore| {
            let inner = s.inner.lock();
            let locs: Vec<(u32, u64)> =
                ids.iter().map(|id| (inner.directory[id].seg, inner.directory[id].off)).collect();
            let cur = inner.cursor.expect("mid-victim");
            (locs, inner.active_off, inner.io.writes, inner.dead_bytes, cur.off, cur.live_moved)
        };
        let before = snapshot(&s);
        assert!(matches!(s.compact_step(256 << 10), Err(StoreError::Io(_))));
        assert_eq!(snapshot(&s), before, "no entry names bytes that were never written");
        assert_segment_views_match_directory(&s.inner.lock(), "after the failed run");
        for &id in &ids {
            assert_eq!(s.get(id).unwrap().payload.len(), 100, "still served from the victim");
        }
        // The error was transient: the next step redoes the run.
        let step = s.compact_step(256 << 10).unwrap();
        assert_eq!(step.segments_rewritten, 1, "{step:?}");
        assert_eq!(s.reclaimable_dead_bytes(), 0);
        for &id in &ids {
            assert_eq!(s.get(id).unwrap().payload.len(), 100);
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_ending_in_a_fragment_shorter_than_a_header_still_compacts() {
        let dir = temp_dir("short-tail");
        let cfg = StoreConfig { segment_bytes: 1024, block_cache_bytes: 0, ..Default::default() };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..12u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            s.put(RecordId(0), StorageForm::Raw, &[0xFF; 20]).unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(segment_path(&dir, 0)).unwrap();
        f.write_all(&[0xDB, 0x5E, 1]).unwrap();
        drop(f);
        let s = RecordStore::open(&dir, cfg).unwrap();
        assert_eq!(s.recovery_report().quarantined_bytes, 3);
        let stats = compact_to_quiescence(&s, 4096);
        assert!(stats.entries_skipped >= 1, "{stats:?}");
        assert_eq!(s.reclaimable_dead_bytes(), 0);
        for i in 1..12u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 200][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_dropped_once_stale_puts_are_gone() {
        let cfg = StoreConfig { segment_bytes: 1 << 20, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        s.put(RecordId(1), StorageForm::Raw, &[1u8; 500]).unwrap();
        s.put(RecordId(2), StorageForm::Raw, &[2u8; 500]).unwrap();
        s.delete(RecordId(1)).unwrap();
        assert!(s.tombstone_bytes() > 0);
        // Everything sits in the active segment; the step seals it and
        // copies forward. The stale put for id 1 is dropped first, so by
        // the time the tombstone is scanned it shadows nothing.
        let mut steps = 0;
        while s.reclaimable_dead_bytes() > 0 || s.tombstone_bytes() > 0 {
            if s.compact_step(u64::MAX).unwrap().is_noop() {
                break;
            }
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(s.tombstone_bytes(), 0, "tombstone physically gone");
        assert_eq!(s.dead_bytes(), 0);
        assert!(!s.contains(RecordId(1)));
        assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[2u8; 500][..]);
    }

    #[test]
    fn io_stats_accumulate() {
        let s = store();
        s.put(RecordId(1), StorageForm::Raw, b"x").unwrap();
        s.get(RecordId(1)).unwrap();
        let io = s.io_stats();
        assert_eq!(io.writes, 2, "segment header + entry");
        assert_eq!(io.reads, 1);
        assert!(io.write_bytes > 0 && io.read_bytes > 0);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let s = store();
        s.put(RecordId(7), StorageForm::Raw, b"").unwrap();
        assert_eq!(&s.get(RecordId(7)).unwrap().payload[..], b"");
    }

    #[test]
    fn segments_carry_validated_header() {
        let dir = temp_dir("header");
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            s.put(RecordId(1), StorageForm::Raw, b"x").unwrap();
        }
        let buf = fs::read(segment_path(&dir, 0)).unwrap();
        assert!(header_valid(&buf));
        assert_eq!(&buf[..8], SEG_MAGIC);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_read_detects_on_disk_flip() {
        let dir = temp_dir("flip");
        let payload = vec![0x41u8; 300];
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            s.put(RecordId(1), StorageForm::Raw, &payload).unwrap();
        }
        // Flip one payload byte behind the store's back.
        let path = segment_path(&dir, 0);
        let mut buf = fs::read(&path).unwrap();
        let at = buf.len() - 50;
        buf[at] ^= 0x01;
        fs::write(&path, &buf).unwrap();
        {
            // Recovery quarantines the damaged entry (it is the torn tail
            // of the active segment, so it is truncated away).
            let cfg = StoreConfig { block_cache_bytes: 0, ..Default::default() };
            let s = RecordStore::open(&dir, cfg).unwrap();
            let report = s.recovery_report();
            assert!(!report.is_clean());
            assert!(!s.contains(RecordId(1)), "damaged record not served");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_in_sealed_segment_does_not_drop_later_entries() {
        let dir = temp_dir("salvage-middle");
        let cfg = StoreConfig { segment_bytes: 2048, block_cache_bytes: 0, ..Default::default() };
        let first_seg_ids: Vec<u64>;
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..40u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            first_seg_ids = s
                .inner
                .lock()
                .directory
                .iter()
                .filter(|(_, loc)| loc.seg == 0)
                .map(|(id, _)| id.get())
                .collect();
            assert!(first_seg_ids.len() >= 2, "need a sealed multi-entry segment");
        }
        // Damage the CRC of the first frame of sealed segment 0.
        let path = segment_path(&dir, 0);
        let mut buf = fs::read(&path).unwrap();
        buf[SEG_HDR_LEN + 6] ^= 0xFF;
        fs::write(&path, &buf).unwrap();
        {
            let s = RecordStore::open(&dir, cfg).unwrap();
            let report = s.recovery_report();
            assert_eq!(report.quarantined_entries, 1, "exactly the damaged frame");
            // Every record in segment 0 except the damaged first one must
            // still be readable — the pre-v2 scanner dropped them all.
            let mut survivors = 0;
            for &id in &first_seg_ids {
                if s.contains(RecordId(id)) {
                    let r = s.get(RecordId(id)).unwrap();
                    assert_eq!(&r.payload[..], &vec![id as u8; 200][..]);
                    survivors += 1;
                }
            }
            assert!(survivors >= first_seg_ids.len() - 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_physically() {
        let dir = temp_dir("torn");
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            s.put(RecordId(1), StorageForm::Raw, b"keep-me").unwrap();
        }
        let path = segment_path(&dir, 0);
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xDB, 0x5E, 9, 0, 0, 0, 1, 2]).unwrap(); // torn frame header
        drop(f);
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            let report = s.recovery_report();
            assert_eq!(report.truncated_tail_bytes, 8);
            assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], b"keep-me");
            assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);
            // Appends after salvage extend the clean prefix.
            s.put(RecordId(2), StorageForm::Raw, b"after-salvage").unwrap();
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(s.recovery_report().is_clean());
            assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], b"after-salvage");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_with_destroyed_header_is_quarantined() {
        let dir = temp_dir("badhdr");
        let cfg = StoreConfig { segment_bytes: 1024, block_cache_bytes: 0, ..Default::default() };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..20u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let mut buf = fs::read(&path).unwrap();
        buf[0] ^= 0xFF;
        fs::write(&path, &buf).unwrap();
        {
            // Open succeeds; records in later segments survive.
            let s = RecordStore::open(&dir, cfg).unwrap();
            let report = s.recovery_report();
            assert!(report.quarantined_bytes >= buf.len() as u64);
            assert!(!s.is_empty(), "later segments salvaged");
            assert_eq!(&s.get(RecordId(19)).unwrap().payload[..], &vec![19u8; 200][..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_recovers_to_prefix() {
        let dir = temp_dir("crash");
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(4)));
        {
            let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
            let s = RecordStore::open(&dir, cfg).unwrap();
            // Write op 0 is the segment header; entries are ops 1, 2, 3, …
            for i in 0..10u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
            }
            assert!(inj.crashed());
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(s.recovery_report().is_clean(), "silent drop leaves a clean prefix");
            assert_eq!(s.len(), 3, "exactly the pre-crash writes survive");
            for i in 0..3u64 {
                assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 100][..]);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_compact_step_never_truncates_the_victim() {
        let dir = temp_dir("crash-compact");
        // Build a dirty store cleanly, then reattach with a crash plan.
        {
            let cfg = StoreConfig { segment_bytes: 2048, ..Default::default() };
            let s = RecordStore::open(&dir, cfg).unwrap();
            for i in 0..40u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            for i in 0..20u64 {
                s.put(RecordId(i), StorageForm::Raw, &[0xAB; 200]).unwrap();
            }
        }
        // Crash on the very first compaction write: every copy-forward is
        // dropped, so the victim truncation must be suppressed too.
        for k in 0..6u64 {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(k)));
            {
                let cfg = StoreConfig {
                    segment_bytes: 2048,
                    fault: Some(Arc::clone(&inj)),
                    ..Default::default()
                };
                let s = RecordStore::open(&dir, cfg).unwrap();
                while s.reclaimable_dead_bytes() > 0 {
                    match s.compact_step(1024) {
                        Ok(stats) if stats.is_noop() => break,
                        Ok(_) => {}
                        Err(_) => break,
                    }
                    if inj.crashed() {
                        break;
                    }
                }
            }
            let s =
                RecordStore::open(&dir, StoreConfig { segment_bytes: 2048, ..Default::default() })
                    .unwrap_or_else(|e| panic!("crash at {k}: reopen failed: {e}"));
            for i in 0..40u64 {
                let expect = if i < 20 { vec![0xAB; 200] } else { vec![i as u8; 200] };
                assert_eq!(
                    &s.get(RecordId(i)).unwrap().payload[..],
                    &expect[..],
                    "crash at write {k} lost record {i}"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_truncated_on_reopen() {
        let dir = temp_dir("shortw");
        let plan = FaultPlan::new().fault_at(3, FaultKind::ShortWrite { keep: 7 });
        let inj = Arc::new(FaultInjector::new(plan));
        {
            let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
            let s = RecordStore::open(&dir, cfg).unwrap();
            for i in 0..5u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 64]).unwrap();
            }
        }
        {
            let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            let report = s.recovery_report();
            assert_eq!(report.truncated_tail_bytes, 7, "the torn prefix is cut");
            assert_eq!(s.len(), 2, "ops 1 and 2 survive; 3 tore, 4+ dropped");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_error_is_surfaced_not_panicked() {
        let plan = FaultPlan::new().fault_at(1, FaultKind::IoError);
        let cfg =
            StoreConfig { fault: Some(Arc::new(FaultInjector::new(plan))), ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        assert!(matches!(s.put(RecordId(1), StorageForm::Raw, b"boom"), Err(StoreError::Io(_))));
        // Transient: the next put succeeds.
        s.put(RecordId(2), StorageForm::Raw, b"fine").unwrap();
        assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], b"fine");
    }

    #[test]
    fn failed_rotation_leaves_the_old_segment_active() {
        // Ops: 0 = seg 0 header, 1..=3 = puts, 4 = seg 1 header (fails).
        let dir = temp_dir("rotate-fail");
        let plan = FaultPlan::new().fault_at(4, FaultKind::IoError);
        let cfg = StoreConfig {
            segment_bytes: 512,
            block_cache_bytes: 0,
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..3u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            assert!(matches!(
                s.put(RecordId(3), StorageForm::Raw, &[3; 200]),
                Err(StoreError::Io(_))
            ));
            assert_eq!(s.inner.lock().active_idx, 0, "the rotation did not happen");
            // The retry rotates for real; every frame is where the
            // directory says it is.
            for i in 3..6u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
            assert_eq!(s.frame_extent(RecordId(3)).unwrap().0, 1);
            for i in 0..6u64 {
                assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 200][..]);
            }
        }
        let s = RecordStore::open(&dir, StoreConfig { fault: None, ..cfg }).unwrap();
        assert!(s.recovery_report().is_clean());
        assert_eq!(s.len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_full_pass_on_clean_store_verifies_every_live_frame() {
        let dir = temp_dir("scrub-clean");
        let cfg = StoreConfig { segment_bytes: 1024, ..Default::default() };
        let s = RecordStore::open(&dir, cfg).unwrap();
        for i in 0..12u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
        }
        let mut clean = 0usize;
        loop {
            let slice = s.scrub_step(512).unwrap();
            assert!(slice.corrupt.is_empty(), "{slice:?}");
            clean += slice.clean.len();
            if slice.pass_complete {
                break;
            }
        }
        assert_eq!(clean, 12, "one full pass covers every live record exactly once");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_detects_rot_the_block_cache_still_masks() {
        let dir = temp_dir("scrub-rot");
        let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
        s.put(RecordId(1), StorageForm::Raw, &[0xAA; 300]).unwrap();
        s.put(RecordId(2), StorageForm::Raw, &[0xBB; 300]).unwrap();
        // Prime the cache with clean copies, then rot record 1 on disk.
        let _ = s.get(RecordId(1)).unwrap();
        let _ = s.get(RecordId(2)).unwrap();
        let path = segment_path(&dir, 0);
        let loc = s.inner.lock().directory[&RecordId(1)];
        let mut buf = fs::read(&path).unwrap();
        buf[loc.off as usize + FRAME_HDR + 20] ^= 0x40;
        fs::write(&path, &buf).unwrap();
        // A cached read still serves the stale clean copy...
        assert_eq!(&s.get(RecordId(1)).unwrap().payload[..], &[0xAA; 300][..]);
        // ...but the scrub reads the platter, finds the rot, and evicts
        // the masking cache entry.
        let mut corrupt = Vec::new();
        loop {
            let slice = s.scrub_step(u64::MAX).unwrap();
            corrupt.extend(slice.corrupt.clone());
            if slice.pass_complete {
                break;
            }
        }
        assert_eq!(corrupt, vec![RecordId(1)]);
        assert!(matches!(s.get(RecordId(1)), Err(StoreError::Corrupt(_))));
        assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[0xBB; 300][..]);
        assert!(s.io_stats().verify_failures >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_hands_out_a_view_of_the_verified_frame_not_a_copy() {
        let dir = temp_dir("view");
        let s =
            RecordStore::open(&dir, StoreConfig { block_compression: true, ..Default::default() })
                .unwrap();
        let mut rng = dbdedup_util::dist::SplitMix64::new(25);
        let noise: Vec<u8> = (0..17 << 10).map(|_| rng.next_u64() as u8).collect();
        let text = b"field = value; ".repeat(400);
        let delta = StorageForm::Delta { base: RecordId(1) };
        s.put(RecordId(1), StorageForm::Raw, &noise).unwrap(); // incompressible: kept as is
        s.put(RecordId(2), delta, &text).unwrap();
        let stored = |id| s.inner.lock().directory[&RecordId(id)].payload_len;
        assert_eq!(stored(1), noise.len() as u32);
        assert!(stored(2) < text.len() as u32);
        // Uncompressed: the payload is the tail of the frame the miss
        // verified and cached, and a hit hands out the same bytes again.
        let r = s.get(RecordId(1)).unwrap();
        assert_eq!(&r.payload[..], &noise[..]);
        let loc = s.inner.lock().directory[&RecordId(1)];
        let frame =
            s.inner.lock().cache.get(BlockKey { seg: loc.seg, off: loc.off }).expect("cached");
        assert_eq!(r.payload.as_ptr_range().end, frame.as_ptr_range().end);
        assert!(frame.as_ptr_range().contains(&r.payload.as_ptr()));
        assert_eq!(s.get(RecordId(1)).unwrap().payload.as_ptr(), r.payload.as_ptr());
        // Compressed: still decompressed, into a buffer of its own.
        let z = s.get(RecordId(2)).unwrap();
        assert_eq!((z.form, &z.payload[..]), (delta, &text[..]));
        let _ = fs::remove_dir_all(&dir);

        // Rot on disk is refused at the frame check — no view is made of it
        // — while a view handed out earlier keeps the bytes that verified.
        let dir = temp_dir("view-rot");
        let s = RecordStore::open(&dir, StoreConfig { block_cache_bytes: 0, ..Default::default() })
            .unwrap();
        s.put(RecordId(1), StorageForm::Raw, &noise).unwrap();
        let before = s.get(RecordId(1)).unwrap();
        let loc = s.inner.lock().directory[&RecordId(1)];
        let path = segment_path(&dir, 0);
        let mut buf = fs::read(&path).unwrap();
        buf[loc.off as usize + loc.len as usize - 1] ^= 0x01;
        fs::write(&path, &buf).unwrap();
        assert!(matches!(s.get(RecordId(1)), Err(StoreError::Corrupt(_))));
        assert_eq!(s.io_stats().verify_failures, 1);
        assert_eq!(&before.payload[..], &noise[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_cursor_persists_across_bounded_slices() {
        let s = store();
        for i in 0..8u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
        }
        let slice = s.scrub_step(1).unwrap();
        assert_eq!(slice.clean.len(), 1, "budget of 1 byte still verifies one frame");
        assert!(!slice.pass_complete);
        let (seg, off) = s.scrub_position();
        assert!((seg, off) > (0, 0), "cursor advanced");
        let next = s.scrub_step(1).unwrap();
        assert_eq!(next.clean.len(), 1);
        assert_ne!(slice.clean[0], next.clean[0], "no frame verified twice in one pass");
    }

    #[test]
    fn quarantine_removes_record_and_survives_reopen() {
        let dir = temp_dir("quarantine");
        let cfg = StoreConfig { block_cache_bytes: 0, ..Default::default() };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            s.put(RecordId(1), StorageForm::Raw, &[0x11; 250]).unwrap();
            s.put(RecordId(2), StorageForm::Raw, &[0x22; 250]).unwrap();
            // Rot record 1 on disk, then quarantine it like scrub would.
            let loc = s.inner.lock().directory[&RecordId(1)];
            let path = segment_path(&dir, 0);
            let mut buf = fs::read(&path).unwrap();
            buf[loc.off as usize + FRAME_HDR + 5] ^= 0x01;
            fs::write(&path, &buf).unwrap();
            let len = s.quarantine(RecordId(1)).unwrap();
            assert_eq!(len, Some(u64::from(loc.len)));
            assert!(!s.contains(RecordId(1)));
            assert!(s.dead_bytes() >= u64::from(loc.len));
            assert_eq!(s.quarantine(RecordId(1)).unwrap(), None, "idempotent");
            // The unreadable frame's sizes left the live counters anyway.
            assert_eq!(s.stored_payload_bytes(), 250);
        }
        {
            // The dropped frame fails CRC on disk, so the reopen scan
            // quarantines it again instead of resurrecting the record.
            let s = RecordStore::open(&dir, cfg).unwrap();
            assert!(!s.contains(RecordId(1)), "no resurrection");
            assert_eq!(s.stored_payload_bytes(), 250, "recovery agrees with the running count");
            assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[0x22; 250][..]);
            let report = s.recovery_report();
            assert_eq!(report.quarantined_entries, 1);
            assert_eq!(report.skipped.len(), 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_report_lists_each_quarantined_frame() {
        let dir = temp_dir("salvage-detail");
        let cfg = StoreConfig { segment_bytes: 2048, block_cache_bytes: 0, ..Default::default() };
        {
            let s = RecordStore::open(&dir, cfg.clone()).unwrap();
            for i in 0..40u64 {
                s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
            }
        }
        // Damage two separated frames in sealed segment 0.
        let path = segment_path(&dir, 0);
        let mut buf = fs::read(&path).unwrap();
        buf[SEG_HDR_LEN + 6] ^= 0xFF;
        buf[SEG_HDR_LEN + 800] ^= 0xFF;
        fs::write(&path, &buf).unwrap();
        {
            let s = RecordStore::open(&dir, cfg).unwrap();
            let report = s.recovery_report();
            assert_eq!(report.skipped.len() as u64, report.quarantined_entries);
            assert_eq!(report.skipped.iter().map(|f| f.bytes).sum::<u64>(), {
                report.quarantined_bytes
            });
            for f in &report.skipped {
                assert_eq!(f.segment, 0);
                assert!(f.bytes > 0);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
