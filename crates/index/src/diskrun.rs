//! Immutable on-disk feature runs — the cold tier of the tiered index.
//!
//! A run is a sorted, CRC-framed file of `(feature checksum, record slot)`
//! entries spilled from the hot cuckoo tier. Three design rules:
//!
//! 1. **One probe, one read.** Entries are sorted by checksum and indexed
//!    by a 257-slot offset table keyed on the checksum's high byte, so a
//!    probe reads exactly one contiguous byte range from the file.
//! 2. **Zero I/O on misses.** Each run carries a Bloom filter over its
//!    checksums ([`crate::bloom`]); the filter lives in memory, so a lookup
//!    that cannot hit never touches the disk.
//! 3. **Derived data, never fail open.** Runs can be rebuilt from the
//!    record store at any time, so a CRC mismatch or short file at open is
//!    handled by quarantining the file — not by trusting partial contents
//!    and not by failing the engine.
//!
//! ## File format (all little-endian)
//!
//! ```text
//! magic "DDRN" | version u16 | flags u16 | bloom_k u32 | bloom_seed u64
//! | bloom_words u64 | entry_count u64
//! | offsets[257] u32      (entry-index boundaries per checksum high byte)
//! | bloom bit words       (bloom_words × u64)
//! | entries               (entry_count × { checksum u16, slot u32 })
//! | crc32 u32             (over every preceding byte)
//! ```
//!
//! A run keeps one whole-file CRC footer rather than the per-frame framing
//! of the store's segments and the oplog: it is immutable and written by
//! temp file + rename, so it never has a torn tail to salvage, and any
//! damage condemns the whole run, which is rebuilt rather than resynced.

use crate::bloom::BloomFilter;
use dbdedup_util::hash::crc32;
use dbdedup_util::{ByteReader, ByteWriter};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DDRN";
const VERSION: u16 = 1;
/// Fixed header bytes before the offset table.
const HEADER_BYTES: usize = 4 + 2 + 2 + 4 + 8 + 8 + 8;
/// Offset-table slots: one per checksum high byte, plus the end sentinel.
const OFFSET_SLOTS: usize = 257;
/// Bytes per serialized entry: u16 checksum + u32 slot.
pub const RUN_ENTRY_BYTES: usize = 6;

/// Why a run file was rejected at open.
#[derive(Debug)]
pub enum RunError {
    /// The file could not be read.
    Io(io::Error),
    /// The file's contents failed validation (CRC, magic, structure).
    Corrupt(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Io(e) => write!(f, "run io error: {e}"),
            RunError::Corrupt(why) => write!(f, "run corrupt: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// An open, validated, immutable on-disk feature run.
///
/// Resident state is the Bloom filter plus the offset table; entry data
/// stays on disk and is read one bucket at a time by [`DiskRun::probe`].
#[derive(Debug, Clone)]
pub struct DiskRun {
    path: PathBuf,
    id: u64,
    bloom: BloomFilter,
    offsets: Vec<u32>,
    entry_count: u64,
    entries_base: u64,
    file_bytes: u64,
}

impl DiskRun {
    /// Writes a new run at `path` (atomically: temp file + rename) and
    /// returns it opened. `entries` are `(checksum, slot)` pairs; they are
    /// stably sorted by checksum, so the caller's within-checksum order
    /// (newest first) is preserved and becomes the probe order.
    pub fn write(
        path: &Path,
        id: u64,
        entries: &[(u16, u32)],
        bloom_fp_target: f64,
    ) -> io::Result<DiskRun> {
        let mut sorted: Vec<(u16, u32)> = entries.to_vec();
        sorted.sort_by_key(|&(c, _)| c);

        // Bloom over the distinct checksums; seed derived from the run id so
        // files are byte-deterministic for a given input.
        let distinct = {
            let mut d = 0usize;
            let mut last: Option<u16> = None;
            for &(c, _) in &sorted {
                if last != Some(c) {
                    d += 1;
                    last = Some(c);
                }
            }
            d
        };
        let mut bloom =
            BloomFilter::with_target_fp(distinct, bloom_fp_target, id.wrapping_mul(0x9e37) ^ 0x51);
        let mut offsets = vec![0u32; OFFSET_SLOTS];
        {
            let mut last: Option<u16> = None;
            for &(c, _) in &sorted {
                if last != Some(c) {
                    bloom.insert(u64::from(c));
                    last = Some(c);
                }
            }
            // offsets[b] = index of first entry with high byte >= b.
            let mut idx = 0usize;
            for b in 0..=256usize {
                while idx < sorted.len() && usize::from(sorted[idx].0 >> 8) < b {
                    idx += 1;
                }
                offsets[b.min(OFFSET_SLOTS - 1)] = idx as u32;
            }
            offsets[OFFSET_SLOTS - 1] = sorted.len() as u32;
        }

        let mut w = ByteWriter::with_capacity(
            HEADER_BYTES + OFFSET_SLOTS * 4 + bloom.words().len() * 8 + sorted.len() * 6 + 4,
        );
        w.put_bytes(MAGIC);
        w.put_u16(VERSION);
        w.put_u16(0); // flags
        w.put_u32(bloom.k());
        w.put_u64(bloom.seed());
        w.put_u64(bloom.words().len() as u64);
        w.put_u64(sorted.len() as u64);
        for &o in &offsets {
            w.put_u32(o);
        }
        for &word in bloom.words() {
            w.put_u64(word);
        }
        for &(c, s) in &sorted {
            w.put_u16(c);
            w.put_u32(s);
        }
        let body = w.into_vec();
        let crc = crc32(&body);

        let tmp = path.with_extension("tmp");
        {
            let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
            f.write_all(&body)?;
            f.write_all(&crc.to_le_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Self::open(path, id).map_err(|e| match e {
            RunError::Io(io) => io,
            RunError::Corrupt(why) => io::Error::other(format!("just-written run invalid: {why}")),
        })
    }

    /// Opens and validates a run file. Any structural or CRC failure yields
    /// [`RunError::Corrupt`]; the caller quarantines such files.
    pub fn open(path: &Path, id: u64) -> Result<DiskRun, RunError> {
        let bytes = fs::read(path)?;
        if bytes.len() < HEADER_BYTES + OFFSET_SLOTS * 4 + 4 {
            return Err(RunError::Corrupt(format!("short file: {} bytes", bytes.len())));
        }
        let body = checked_body(&bytes)?;
        let mut r = ByteReader::new(body);
        let magic = r.get_bytes(4).map_err(|_| RunError::Corrupt("truncated magic".into()))?;
        if magic != MAGIC {
            return Err(RunError::Corrupt("bad magic".into()));
        }
        let bad = |_| RunError::Corrupt("truncated header".into());
        let version = r.get_u16().map_err(bad)?;
        if version != VERSION {
            return Err(RunError::Corrupt(format!("unsupported version {version}")));
        }
        let _flags = r.get_u16().map_err(bad)?;
        let bloom_k = r.get_u32().map_err(bad)?;
        let bloom_seed = r.get_u64().map_err(bad)?;
        let bloom_words = r.get_u64().map_err(bad)? as usize;
        let entry_count = r.get_u64().map_err(bad)?;
        let mut offsets = Vec::with_capacity(OFFSET_SLOTS);
        for _ in 0..OFFSET_SLOTS {
            offsets.push(r.get_u32().map_err(|_| RunError::Corrupt("truncated offsets".into()))?);
        }
        if offsets.windows(2).any(|w| w[0] > w[1])
            || u64::from(offsets[OFFSET_SLOTS - 1]) != entry_count
        {
            return Err(RunError::Corrupt("offset table inconsistent".into()));
        }
        let mut words = Vec::with_capacity(bloom_words);
        for _ in 0..bloom_words {
            words.push(r.get_u64().map_err(|_| RunError::Corrupt("truncated bloom".into()))?);
        }
        let entries_base = (HEADER_BYTES + OFFSET_SLOTS * 4 + bloom_words * 8) as u64;
        let expect = entries_base + entry_count * RUN_ENTRY_BYTES as u64 + 4;
        if bytes.len() as u64 != expect {
            return Err(RunError::Corrupt(format!(
                "length mismatch: have {} want {expect}",
                bytes.len()
            )));
        }
        Ok(DiskRun {
            path: path.to_path_buf(),
            id,
            bloom: BloomFilter::from_parts(words, bloom_k, bloom_seed),
            offsets,
            entry_count,
            entries_base,
            file_bytes: bytes.len() as u64,
        })
    }

    /// Whether `checksum` might be present. Pure in-memory Bloom check —
    /// zero I/O, and `false` is definitive.
    pub fn may_contain(&self, checksum: u16) -> bool {
        self.bloom.contains(u64::from(checksum))
    }

    /// Reads the slots recorded for `checksum`: one contiguous read of the
    /// checksum's high-byte bucket, then an exact filter. Order is file
    /// order (newest first within a checksum, by construction).
    pub fn probe(&self, checksum: u16) -> io::Result<Vec<u32>> {
        let hi = usize::from(checksum >> 8);
        let start = self.offsets[hi] as u64;
        let end = self.offsets[hi + 1] as u64;
        if start >= end {
            return Ok(Vec::new());
        }
        let mut f = File::open(&self.path)?;
        f.seek(SeekFrom::Start(self.entries_base + start * RUN_ENTRY_BYTES as u64))?;
        let mut buf = vec![0u8; ((end - start) as usize) * RUN_ENTRY_BYTES];
        f.read_exact(&mut buf)?;
        let mut out = Vec::new();
        for chunk in buf.chunks_exact(RUN_ENTRY_BYTES) {
            let c = u16::from_le_bytes([chunk[0], chunk[1]]);
            if c == checksum {
                out.push(u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]));
            }
        }
        Ok(out)
    }

    /// Reads every entry back (merge path), re-verifying the CRC so a file
    /// corrupted after open is caught rather than merged onward.
    pub fn read_all(&self) -> Result<Vec<(u16, u32)>, RunError> {
        let bytes = fs::read(&self.path)?;
        let expect = self.entries_base + self.entry_count * RUN_ENTRY_BYTES as u64 + 4;
        if bytes.len() as u64 != expect {
            return Err(RunError::Corrupt("length changed since open".into()));
        }
        let data = &checked_body(&bytes)?[self.entries_base as usize..];
        let mut out = Vec::with_capacity(self.entry_count as usize);
        for chunk in data.chunks_exact(RUN_ENTRY_BYTES) {
            out.push((
                u16::from_le_bytes([chunk[0], chunk[1]]),
                u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]),
            ));
        }
        Ok(out)
    }

    /// Deletes the backing file (rebuild / merge retirement).
    pub fn delete(&self) -> io::Result<()> {
        fs::remove_file(&self.path)
    }

    /// Renames the backing file aside with a `.quarantined` extension so a
    /// corrupt run never gets re-opened (falls back to deletion).
    pub fn quarantine_path(path: &Path) {
        let aside = path.with_extension("quarantined");
        if fs::rename(path, &aside).is_err() {
            let _ = fs::remove_file(path);
        }
    }

    /// The run's numeric id (monotonic per partition; larger = newer).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of entries in the run.
    pub fn len(&self) -> usize {
        self.entry_count as usize
    }

    /// Whether the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Size of the backing file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Resident memory held for this run (Bloom bits + offset table).
    pub fn resident_bytes(&self) -> usize {
        self.bloom.resident_bytes() + self.offsets.len() * 4
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Splits the CRC footer off a whole run file and checks it against the
/// body, which it returns. `file` holds at least the footer.
fn checked_body(file: &[u8]) -> Result<&[u8], RunError> {
    let (body, footer) = file.split_at(file.len() - 4);
    if crc32(body) != u32::from_le_bytes(footer.try_into().expect("4 bytes")) {
        return Err(RunError::Corrupt("crc mismatch".into()));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dbdedup-diskrun-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn write_open_probe_roundtrip() {
        let d = tmpdir("roundtrip");
        let entries: Vec<(u16, u32)> = (0..500u32).map(|i| ((i % 300) as u16 + 1, i)).collect();
        let run = DiskRun::write(&d.join("00000001.run"), 1, &entries, 0.01).expect("write");
        assert_eq!(run.len(), 500);
        for c in 1u16..=300 {
            assert!(run.may_contain(c), "bloom must pass inserted checksum {c}");
            let slots = run.probe(c).expect("probe");
            let want: Vec<u32> =
                entries.iter().filter(|&&(ec, _)| ec == c).map(|&(_, s)| s).collect();
            assert_eq!(slots, want, "checksum {c}");
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crc_mismatch_is_corrupt() {
        let d = tmpdir("crc");
        let path = d.join("00000001.run");
        DiskRun::write(&path, 1, &[(7, 1), (9, 2)], 0.01).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        match DiskRun::open(&path, 1) {
            Err(RunError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_corrupt() {
        let d = tmpdir("torn");
        let path = d.join("00000001.run");
        DiskRun::write(&path, 1, &(0..100).map(|i| (i as u16 + 1, i)).collect::<Vec<_>>(), 0.01)
            .expect("write");
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 13]).expect("truncate");
        assert!(matches!(DiskRun::open(&path, 1), Err(RunError::Corrupt(_))));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_run_roundtrips() {
        let d = tmpdir("empty");
        let run = DiskRun::write(&d.join("0.run"), 0, &[], 0.01).expect("write");
        assert!(run.is_empty());
        assert!(run.probe(5).expect("probe").is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn read_all_returns_sorted_entries() {
        let d = tmpdir("readall");
        let entries = vec![(30u16, 3u32), (10, 1), (20, 2), (10, 9)];
        let run = DiskRun::write(&d.join("0.run"), 0, &entries, 0.01).expect("write");
        let back = run.read_all().expect("read_all");
        assert_eq!(back, vec![(10, 1), (10, 9), (20, 2), (30, 3)], "stable checksum sort");
        let _ = fs::remove_dir_all(&d);
    }
}
