//! Unit tests of the record store. The compaction tests are in
//! `compaction_tests.rs`, included below rather than declared as a module so
//! that every test keeps its `store::tests::` path.

use super::*;
use crate::fault::{FaultKind, FaultPlan};
use compaction::SPAN_GAP;
use std::io::{Read, Seek, SeekFrom};

fn store() -> RecordStore {
    RecordStore::open_temp(StoreConfig::default()).expect("temp store")
}

/// Compacts to quiescence — steps of `budget` until one does nothing —
/// and returns what they did in total.
fn compact_to_quiescence(s: &RecordStore, budget: u64) -> CompactStats {
    let mut total = CompactStats::default();
    for _ in 0..1_000_000 {
        let step = s.compact_step(budget, 0.0).unwrap();
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

/// `scrub_step` as it was before the ordered view and span reads existed —
/// filter the whole directory for the cursor segment, sort by offset, read
/// and verify each frame on its own — kept as the oracle the indexed,
/// span-reading walk is checked against.
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
            // A clean frame of another record is damage too.
            let frame = read_frame(inner, &s.dir, loc)
                .unwrap()
                .filter(|f| parse_entry(frame::entry(f)).is_ok_and(|e| e.id == id && !e.tombstone));
            match frame {
                Some(f) => {
                    let frame = Bytes::from(f);
                    slice.clean.push(VerifiedFrame { id, at: (loc.seg, loc.off), frame });
                }
                None => slice.corrupt.push(id),
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
/// the scan report the same frames, with the same contents, and leave the
/// same cursor.
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

/// The books of dead frames balance against the per-segment views:
/// `tomb_bytes` is the sum of the tombstone lists, and `stale_puts` counts,
/// per id, the entries of the put lists that are not live. A victim's
/// entries behind the compaction cursor are left out: they are booked.
fn assert_books_balance(inner: &Inner, at: &str) {
    let booked = |seg: u32, off: u64| inner.cursor.is_some_and(|c| c.seg == seg && off < c.off);
    let (mut tombs, mut stale) = (0u64, FxHashMap::<RecordId, u32>::default());
    for (seg, view) in (0u32..).zip(&inner.segs) {
        for &(off, _, len) in &view.tombs {
            tombs += if booked(seg, off) { 0 } else { u64::from(len) };
        }
        for &(off, id) in &view.frames {
            if !booked(seg, off) && !inner.is_live_at(id, seg, off) {
                *stale.entry(id).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(inner.tomb_bytes, tombs, "{at}: tomb_bytes");
    assert_eq!(inner.stale_puts, stale, "{at}: stale_puts");
}

/// Each segment's put and tombstone lists, up to the active segment.
type Views = Vec<(Vec<(u64, RecordId)>, Vec<(u64, RecordId, u32)>)>;

fn views(inner: &Inner) -> Views {
    (0..=inner.active_idx as usize)
        .map(|seg| inner.segs.get(seg).map(|v| (v.frames.clone(), v.tombs.clone())))
        .map(Option::unwrap_or_default)
        .collect()
}

/// Flips one byte inside the frame at `loc`, behind the store's back.
fn rot_frame(dir: &Path, loc: Loc) {
    let mut f = OpenOptions::new().read(true).write(true).open(segment_path(dir, loc.seg)).unwrap();
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
/// and so do the per-segment counters, sealed lengths and ordered view
/// that scrub and victim choice read, with `scrub_step` over that view
/// reporting what the directory scan reports. The books compaction walks
/// by — put and tombstone lists, `stale_puts`, `tomb_bytes` — balance
/// after every step, compaction steps of random budgets included, and
/// equal a reopen's.
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
                    8 => drop(s.compact_step(1 + rng.next_index(8000) as u64, 0.4).unwrap()),
                    _ if step % 7 == 0 => drop(compact_fully(&s)),
                    _ if step % 7 == 3 => {
                        // Rot a live frame: both scrubs must name it.
                        // Then quarantine it as the scrubber would, and
                        // compact the damage off the disk (a dead frame
                        // now, dropped unread) so that a reopen finds
                        // what memory holds.
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
                assert_books_balance(&inner, &format!("step {step}"));
                assert_sealed_lens_match_files(&inner, &dir, &format!("step {step}"));
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
            // A victim in progress still holds the old copies of what it
            // moved, which a reopen would count as stale: finish it.
            while s.inner.lock().cursor.is_some() {
                let _ = s.compact_step(1 + rng.next_index(8000) as u64, 0.4).unwrap();
            }
            let books = {
                let inner = s.inner.lock();
                (inner.tomb_bytes, inner.stale_puts.clone(), views(&inner))
            };
            drop(s);
            let reopened = RecordStore::open(&dir, cfg.clone()).unwrap();
            let at = format!("round {round} compression {block_compression}");
            assert_eq!(reopened.len(), len, "{at}");
            assert_eq!(reopened.stored_payload_bytes(), payload, "{at}");
            assert_eq!(reopened.stored_uncompressed_bytes(), uncompressed, "{at}");
            assert_sealed_lens_match_files(&reopened.inner.lock(), &dir, &at);
            let inner = reopened.inner.lock();
            assert_books_balance(&inner, &at);
            assert!((inner.tomb_bytes, inner.stale_puts.clone(), views(&inner)) == books, "{at}");
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

// Compaction: whole and bounded passes, the walk over the view and what
// it reads and writes, damage, crash and I/O-error safety of the
// copy-forward.
include!("compaction_tests.rs");

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
    assert!(frame::SEGMENT.header_valid(&buf));
    assert_eq!(&buf[..8], b"DBDPSEG\0");
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
    buf[frame::FILE_HDR + 6] ^= 0xFF;
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
        // Compaction removes the junk segment and its dead bytes exactly.
        let _ = compact_fully(&s);
        assert!(!segment_path(&dir, 0).exists());
        assert_eq!(s.dead_bytes(), 0);
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
                match s.compact_step(1024, 0.0) {
                    Ok(stats) if stats.is_noop() => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
                if inj.crashed() {
                    break;
                }
            }
        }
        let s = RecordStore::open(&dir, StoreConfig { segment_bytes: 2048, ..Default::default() })
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
    let cfg = StoreConfig { fault: Some(Arc::new(FaultInjector::new(plan))), ..Default::default() };
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
        assert!(matches!(s.put(RecordId(3), StorageForm::Raw, &[3; 200]), Err(StoreError::Io(_))));
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
    buf[loc.off as usize + frame::FRAME_HDR + 20] ^= 0x40;
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
    let s = RecordStore::open(&dir, StoreConfig { block_compression: true, ..Default::default() })
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
    let frame = s.inner.lock().cache.get(BlockKey { seg: loc.seg, off: loc.off }).expect("cached");
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

/// The span-reading scrub against the per-frame oracle where spans are
/// hard, at budgets of 1 B, 4 KiB and 64 KiB (`assert_scrub_matches_scan`):
/// dead gaps just under and at [`SPAN_GAP`], a corrupt frame inside a
/// span, and live frames past the end of a segment truncated under the
/// store.
#[test]
fn scrub_span_reads_match_the_per_frame_oracle() {
    let dir = temp_dir("scrub-spans");
    let s = RecordStore::open(&dir, StoreConfig { block_cache_bytes: 0, ..Default::default() })
        .unwrap();
    let loc = |id| s.inner.lock().directory[&RecordId(id)];
    let ids = |v: &[VerifiedFrame]| v.iter().map(|f| f.id.get()).collect::<Vec<_>>();
    let full_pass = || {
        let slice = s.scrub_step(u64::MAX).unwrap();
        assert!(slice.pass_complete);
        let corrupt: Vec<u64> = slice.corrupt.iter().map(|id| id.get()).collect();
        (ids(&slice.clean), corrupt)
    };
    // A frame's bytes besides its payload, at the payload sizes used here.
    s.put(RecordId(100), StorageForm::Raw, &[0; 512]).unwrap();
    let overhead = u64::from(loc(100).len) - 512;
    s.delete(RecordId(100)).unwrap();
    // Live 1–3 back to back; a dead frame of SPAN_GAP − 1 bytes before
    // live 4, one of SPAN_GAP bytes before live 5.
    let dead = |id, len: u64| {
        s.put(RecordId(id), StorageForm::Raw, &vec![0xdd; (len - overhead) as usize]).unwrap();
        assert_eq!(u64::from(loc(id).len), len);
    };
    for id in 1..=3u64 {
        s.put(RecordId(id), StorageForm::Raw, &[id as u8; 200]).unwrap();
    }
    dead(201, SPAN_GAP - 1);
    s.put(RecordId(4), StorageForm::Raw, &[4; 200]).unwrap();
    dead(202, SPAN_GAP);
    s.put(RecordId(5), StorageForm::Raw, &[5; 200]).unwrap();
    s.delete(RecordId(201)).unwrap();
    s.delete(RecordId(202)).unwrap();
    // The gap under SPAN_GAP is read with its neighbours, the other not.
    let read = s.io_stats().read_bytes;
    assert_eq!(full_pass(), (vec![1, 2, 3, 4, 5], vec![]));
    let live: u64 = (1..=5).map(|id| u64::from(loc(id).len)).sum();
    assert_eq!(s.io_stats().read_bytes - read, live + SPAN_GAP - 1);
    assert_scrub_matches_scan(&s, "dead gaps");
    // A corrupt frame inside the first span fails alone.
    rot_frame(&dir, loc(2));
    assert_eq!(full_pass(), (vec![1, 3, 4, 5], vec![2]));
    assert_scrub_matches_scan(&s, "corrupt mid-span");
    // Cut the segment inside frame 4: it and frame 5 lie past the end.
    let cut = loc(4).off + 10;
    OpenOptions::new().write(true).open(segment_path(&dir, 0)).unwrap().set_len(cut).unwrap();
    assert_eq!(full_pass(), (vec![1, 3], vec![2, 4, 5]));
    assert_scrub_matches_scan(&s, "truncated");
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

/// The scrub checks whose frame it read: a CRC-clean frame of the right
/// length is still damage when it belongs to another record.
#[test]
fn scrub_reports_directory_entries_swapped_between_same_length_frames() {
    let s = store();
    s.put(RecordId(1), StorageForm::Raw, &[0x11; 300]).unwrap();
    s.put(RecordId(2), StorageForm::Raw, &[0x22; 300]).unwrap();
    {
        let mut inner = s.inner.lock();
        let inner = &mut *inner;
        let (one, two) = (inner.directory[&RecordId(1)], inner.directory[&RecordId(2)]);
        assert_eq!(one.len, two.len);
        inner.directory.insert(RecordId(1), two);
        inner.directory.insert(RecordId(2), one);
        // The segment's ordered view follows the directory.
        for (_, id) in &mut inner.segs[0].frames {
            *id = RecordId(3 - id.get());
        }
    }
    let slice = s.scrub_step(u64::MAX).unwrap();
    assert!(slice.clean.is_empty(), "{slice:?}");
    assert_eq!(slice.corrupt, vec![RecordId(2), RecordId(1)]);
    assert_scrub_matches_scan(&s, "swapped");
}

/// A frame that does not read is damage to report, not a slice to fail:
/// only the frame on the unreadable bytes is corrupt, the rest of its span
/// still verifies, and the cursor moves past it. Compaction, which would
/// drop such a frame, abandons its step instead.
#[test]
fn scrub_reports_an_unreadable_frame_corrupt_and_moves_past_it() {
    let s = store();
    for id in 1..=5u64 {
        s.put(RecordId(id), StorageForm::Raw, &[id as u8; 300]).unwrap();
    }
    let bad = s.inner.lock().directory[&RecordId(3)];
    compaction::BAD_BYTES.set(Some((bad.off + 10, bad.off + 11)));
    let ids = |v: &[VerifiedFrame]| v.iter().map(|f| f.id.get()).collect::<Vec<_>>();
    let failures = s.io_stats().verify_failures;
    // Frames 1–5 are one span: its read fails, and its frames are read
    // again one at a time.
    let slice = s.scrub_step(u64::MAX).unwrap();
    assert!(slice.pass_complete);
    assert_eq!((ids(&slice.clean), slice.corrupt), (vec![1, 2, 4, 5], vec![RecordId(3)]));
    assert_eq!(s.io_stats().verify_failures, failures + 1);
    // Bounded slices do not stall on it either.
    let (mut clean, mut corrupt) = (Vec::new(), Vec::new());
    for _ in 0..6 {
        let slice = s.scrub_step(1).unwrap();
        clean.extend(ids(&slice.clean));
        corrupt.extend(slice.corrupt);
        if slice.pass_complete {
            break;
        }
    }
    assert_eq!((clean, corrupt), (vec![1, 2, 4, 5], vec![RecordId(3)]));
    s.delete(RecordId(1)).unwrap();
    assert!(matches!(s.compact_step(u64::MAX, 0.0), Err(StoreError::Io(_))));
    assert!(s.contains(RecordId(3)), "a frame that did not read is not dropped");
    compaction::BAD_BYTES.set(None);
    assert_eq!(compact_fully(&s).entries_skipped, 0);
    for id in 2..=5u64 {
        assert_eq!(&s.get(RecordId(id)).unwrap().payload[..], &[id as u8; 300][..]);
    }
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
        buf[loc.off as usize + frame::FRAME_HDR + 5] ^= 0x01;
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
    buf[frame::FILE_HDR + 6] ^= 0xFF;
    buf[frame::FILE_HDR + 800] ^= 0xFF;
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
