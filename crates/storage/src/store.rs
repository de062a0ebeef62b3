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
//! A segment is a log file in the crate's one frame format (the `frame`
//! module). Every read verifies the frame (marker, length, CRC-32) before
//! parsing; a mismatch surfaces as [`StoreError::Corrupt`] and is counted
//! in [`IoStats::verify_failures`], never returned as data.
//!
//! ## Salvage recovery
//!
//! [`RecordStore::open`] never fails hard on a damaged directory. Its scan
//! (`store/recovery.rs`) **quarantines** a frame that fails validation and
//! resynchronizes at the next fully valid frame, so one damaged entry no
//! longer swallows everything after it; **truncates** a torn tail off the
//! active segment; and quarantines a sealed segment whose header is
//! destroyed. The result is prefix-consistent: every surviving directory
//! entry points at a frame that verified during the scan, and what was
//! lost is reported via [`RecoveryReport`] and [`IoStats`]. Compaction
//! lives in `store/compaction.rs`, the integrity scrub in `store/scrub.rs`.

mod compaction;
mod recovery;
mod scrub;
#[cfg(test)]
mod tests;

pub use compaction::CompactStats;
pub use recovery::{RecoveryReport, SalvagedFrame};
pub use scrub::{VerifiedFrame, VerifySlice};

use crate::blockcache::{BlockCache, BlockCacheStats, BlockKey};
use crate::blockz;
use crate::fault::{FaultInjector, WriteOutcome};
use crate::frame;
use bytes::Bytes;
use compaction::{CompactCursor, CompactScratch};
use dbdedup_util::codec::{ByteReader, CodecError};
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::ids::RecordId;
use parking_lot::Mutex;
use scrub::ScrubCursor;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
            segment_bytes: 4 << 20,
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
/// work a segment at a time (scrub slice, victim choice, the compaction
/// walk) read instead of walking every record or every byte.
#[derive(Debug, Default)]
struct SegLive {
    /// `(offset, id)` of every put frame the directory has pointed at in
    /// this segment since it was last emptied, ascending by offset (a
    /// segment only grows at its tail). Superseding a frame leaves its
    /// entry behind: an entry is live iff the directory still points `id`
    /// at exactly this position, checked on use, and the list is dropped
    /// whole when compaction empties the segment. 16 bytes per put frame on
    /// disk. Every entry that is not live is one count of `stale_puts`.
    frames: Vec<(u64, RecordId)>,
    /// `(offset, id, frame length)` of every tombstone frame in this
    /// segment, ascending by offset; their lengths sum to the segment's
    /// share of `tomb_bytes`. With `frames` it names every booked frame, so
    /// compaction decides each frame's fate without reading it.
    tombs: Vec<(u64, RecordId, u32)>,
    /// Sum of `Loc::len` over the directory entries in this segment.
    live_frame_bytes: u64,
    /// The file's length once sealed (set by rotation and the recovery
    /// scan, zeroed when compaction removes the file); 0 for the active
    /// segment. With `live_frame_bytes` it prices the segment as a victim
    /// without asking the file system.
    sealed_len: u64,
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
    /// Bytes of tombstone frames currently on disk: the sum over the
    /// segments' tombstone lists. Subset of `dead_bytes`; a tombstone can
    /// only be dropped once no superseded put frame for its id remains, so
    /// `dead_bytes - tomb_bytes` is the space compaction can actually
    /// reclaim right now.
    tomb_bytes: u64,
    /// Per-id count of superseded put frames still physically on disk: the
    /// entries of the segments' put lists that are not live. A tombstone
    /// whose id has no stale puts left shadows nothing and is dropped (not
    /// carried) when its segment is compacted.
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
    /// Books a frame just appended or replayed for `id` at `loc`: the frame
    /// it supersedes retires, and a tombstone is dead space from the start.
    fn book(&mut self, id: RecordId, loc: Loc, tombstone: bool) {
        if let Some(old) = self.directory.remove(&id) {
            self.retire(id, old);
        }
        if tombstone {
            self.dead_bytes += u64::from(loc.len);
            self.tomb_bytes += u64::from(loc.len);
            self.add_tomb(id, loc.seg, loc.off, loc.len);
        } else {
            self.directory.insert(id, loc);
            self.add_sizes(id, loc);
        }
    }

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
        let seg = self.seg_mut(new.seg);
        debug_assert!(seg.frames.last().is_none_or(|&(off, _)| off < new.off));
        seg.frames.push((new.off, id));
        seg.live_frame_bytes += u64::from(new.len);
    }

    /// Lists the `len`-byte tombstone frame for `id` at `(seg, off)` in
    /// that segment's view (appended or replayed, or carried by
    /// compaction; offset order as for [`Inner::add_sizes`]).
    fn add_tomb(&mut self, id: RecordId, seg: u32, off: u64, len: u32) {
        let tombs = &mut self.seg_mut(seg).tombs;
        debug_assert!(tombs.last().is_none_or(|&(last, ..)| last < off));
        tombs.push((off, id, len));
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

    /// Segment `seg`'s view, created empty on first use.
    fn seg_mut(&mut self, seg: u32) -> &mut SegLive {
        if self.segs.len() <= seg as usize {
            self.segs.resize_with(seg as usize + 1, SegLive::default);
        }
        &mut self.segs[seg as usize]
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

/// The index a [`segment_path`] file name carries, or `None` for any other
/// file.
fn segment_index(name: &std::ffi::OsStr) -> Option<u32> {
    name.to_str()?.strip_prefix("seg")?.strip_suffix(".dat")?.parse().ok()
}

/// Opens segment `idx` to append to (and read), creating it if needed.
fn open_segment(dir: &Path, idx: u32) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).read(true).open(segment_path(dir, idx))
}

/// The single choke-point through which store bytes reach a file; applies
/// the fault injector when one is configured.
fn fault_write(
    file: &mut File,
    fault: Option<&FaultInjector>,
    bytes: &[u8],
) -> std::io::Result<()> {
    let Some(inj) = fault else { return file.write_all(bytes) };
    let mut buf = bytes.to_vec();
    match inj.on_write(&mut buf)? {
        WriteOutcome::Proceed => file.write_all(&buf),
        WriteOutcome::Truncated(n) => file.write_all(&buf[..n]),
        WriteOutcome::Dropped => Ok(()),
    }
}

fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(len)
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
                active: open_segment(&dir, 0)?,
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
        inner.book(id, loc, tombstone);
        Ok(())
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: RecordId) -> bool {
        self.inner.lock().directory.contains_key(&id)
    }

    /// The form of `id`'s live frame, from the directory alone: no frame is
    /// read, so damage in it goes unnoticed until something does.
    pub fn form(&self, id: RecordId) -> Option<StorageForm> {
        self.inner.lock().directory.get(&id).map(|loc| loc.form)
    }

    /// Reads `id`, verifying the frame checksum before parsing. An
    /// uncompressed payload is returned as a view into the verified frame
    /// (the block cache's buffer), not a copy of it.
    pub fn get(&self, id: RecordId) -> Result<StoredRecord, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let loc = *inner.directory.get(&id).ok_or(StoreError::NotFound(id))?;
        let raw = read_entry_bytes(inner, &self.dir, loc)?;
        let len = raw.len();
        stored_record(&Bytes::from_shared(raw, 0..len))
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
    /// is consistent between appends; a segment compaction emptied (and
    /// removed) reads as an empty vector.
    pub fn segment_bytes(&self) -> Result<Vec<Vec<u8>>, StoreError> {
        let inner = self.inner.lock();
        (0..=inner.active_idx)
            .map(|i| match fs::read(segment_path(&self.dir, i)) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
                read => Ok(read?),
            })
            .collect()
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
            out.extend(degraded_db_at(inner, &self.dir, loc)?.map(|db| (id, db)));
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
        let loc = inner.directory.get(&id).copied();
        loc.map_or(Ok(None), |loc| degraded_db_at(inner, &self.dir, loc))
    }
}

/// Seals the active segment at its current length and opens the next one
/// as the active one. Nothing in `inner` moves until the new segment's
/// header is written: a failed rotation leaves the old segment active (and
/// at most an empty file behind, which the next attempt reuses), so no
/// later append can be booked at an offset of a file it did not go to.
fn rotate_active(
    inner: &mut Inner,
    dir: &Path,
    fault: Option<&FaultInjector>,
) -> Result<(), StoreError> {
    let next = inner.active_idx + 1;
    let mut file = open_segment(dir, next)?;
    let header = frame::SEGMENT.header();
    fault_write(&mut file, fault, &header)?;
    let sealed_len = inner.active_off;
    let sealed = inner.seg_mut(inner.active_idx);
    sealed.sealed_len = sealed_len;
    // The sealed segment's ordered view has stopped growing.
    sealed.frames.shrink_to_fit();
    sealed.tombs.shrink_to_fit();
    inner.active_idx = next;
    inner.active = file;
    inner.io.writes += 1;
    inner.io.write_bytes += header.len() as u64;
    inner.active_off = header.len() as u64;
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

/// The frame at `loc` through the block cache: a hit hands out the cached
/// bytes, a miss reads and verifies them ([`read_frame`]) before caching.
fn read_entry_bytes(inner: &mut Inner, dir: &Path, loc: Loc) -> Result<Arc<Vec<u8>>, StoreError> {
    let key = BlockKey { seg: loc.seg, off: loc.off };
    if let Some(cached) = inner.cache.get(key) {
        return Ok(cached);
    }
    let frame = read_frame(inner, dir, loc)?.ok_or_else(|| {
        StoreError::Corrupt(format!("seg {} off {}: frame failed verification", loc.seg, loc.off))
    })?;
    let arc = Arc::new(frame);
    inner.cache.insert(key, Arc::clone(&arc));
    Ok(arc)
}

/// Reads the frame at `loc` from disk, never the block cache, and verifies
/// it end to end: one frame whose entry parses. `None` when it does not (a
/// segment shorter than the directory believes included), which bumps
/// [`IoStats::verify_failures`] and evicts any cached copy.
fn read_frame(inner: &mut Inner, dir: &Path, loc: Loc) -> Result<Option<Vec<u8>>, StoreError> {
    let mut buf = vec![0u8; loc.len as usize];
    let read_ok = reader(inner, dir, loc.seg)?.read_exact_at(&mut buf, loc.off).is_ok();
    inner.io.reads += 1;
    inner.io.read_bytes += u64::from(loc.len);
    let ok = read_ok
        && frame::verify_at(&buf, 0)
            .is_some_and(|f| f.len() == buf.len() && parse_entry(frame::entry(f)).is_ok());
    if !ok {
        inner.io.verify_failures += 1;
        inner.cache.remove(BlockKey { seg: loc.seg, off: loc.off });
    }
    Ok(ok.then_some(buf))
}

/// What the verified `frame` stores: an uncompressed payload as a view of
/// `frame`, a compressed one decompressed into a buffer of its own.
fn stored_record(frame: &Bytes) -> Result<StoredRecord, StoreError> {
    let parsed =
        parse_entry(frame::entry(frame)).map_err(|e| StoreError::Corrupt(e.to_string()))?;
    let payload = if parsed.compressed {
        let plain =
            blockz::decompress(parsed.payload).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        Bytes::from(plain)
    } else {
        frame.slice(frame.len() - parsed.payload.len()..frame.len())
    };
    Ok(StoredRecord { form: parsed.form, payload })
}

/// The logical database the frame at `loc` was admitted into under
/// overload, or `None` when it is untagged or no longer reads back.
fn degraded_db_at(inner: &mut Inner, dir: &Path, loc: Loc) -> Result<Option<String>, StoreError> {
    if !loc.degraded {
        return Ok(None);
    }
    let raw = match read_entry_bytes(inner, dir, loc) {
        Ok(raw) => raw,
        Err(StoreError::Corrupt(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let db = parse_entry(frame::entry(&raw)).ok().and_then(|parsed| parsed.degraded_db);
    Ok(db.map(|db| String::from_utf8_lossy(db).into_owned()))
}

/// The read handle of segment `seg`, opened on first use. Reads are
/// positioned (`FileExt::read_at`), so they move no file cursor.
fn reader<'a>(inner: &'a mut Inner, dir: &Path, seg: u32) -> Result<&'a File, StoreError> {
    if inner.readers.len() <= seg as usize {
        inner.readers.resize_with(seg as usize + 1, || None);
    }
    let slot = &mut inner.readers[seg as usize];
    if slot.is_none() {
        *slot = Some(File::open(segment_path(dir, seg))?);
    }
    Ok(slot.as_ref().expect("reader opened"))
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

/// Builds a complete frame and returns it with the stored
/// (post-compression) payload length.
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
    let compressed = (try_compress && !payload.is_empty())
        .then(|| blockz::compress(payload))
        .filter(|z| z.len() < payload.len());
    let body = compressed.as_deref().unwrap_or(payload);
    let flags = u8::from(matches!(form, StorageForm::Delta { .. }))
        | u8::from(compressed.is_some()) << 1
        | u8::from(tombstone) << 2
        | u8::from(degraded_db.is_some()) << 3;
    let frame = frame::build(body.len() + 32, |w| {
        w.put_u64(id.get());
        w.put_u8(flags);
        if let StorageForm::Delta { base } = form {
            w.put_u64(base.get());
        }
        if let Some(db) = degraded_db {
            w.put_len_prefixed(db.as_bytes());
        }
        w.put_varint(payload.len() as u64);
        w.put_bytes(body);
    });
    (frame, body.len() as u32)
}

fn parse_entry(entry: &[u8]) -> Result<ParsedEntry<'_>, CodecError> {
    let mut r = ByteReader::new(entry);
    let id = RecordId(r.get_u64()?);
    let flags = r.get_u8()?;
    let form = match flags & 0b0001 {
        0 => StorageForm::Raw,
        _ => StorageForm::Delta { base: RecordId(r.get_u64()?) },
    };
    let degraded_db = if flags & 0b1000 != 0 { Some(r.get_len_prefixed()?) } else { None };
    let uncompressed_len = r.get_varint()? as u32;
    Ok(ParsedEntry {
        id,
        form,
        compressed: flags & 0b0010 != 0,
        tombstone: flags & 0b0100 != 0,
        degraded_db,
        uncompressed_len,
        payload: &entry[r.position()..],
    })
}
