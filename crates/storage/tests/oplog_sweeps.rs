//! Flip-every-byte and tear-at-every-offset sweeps over a small closed oplog
//! file. Whatever the damage, a reopen replays exactly the entries whose
//! frames end before it, cuts the file there and reports the cut; one more
//! append and another reopen then keep that prefix plus the new entry.

use bytes::Bytes;
use dbdedup_storage::{Oplog, OplogEntry, OplogKind, OplogPayload, RecoveryReport};
use dbdedup_util::ids::RecordId;
use std::fs;
use std::path::{Path, PathBuf};

/// Bytes of the file header before the first frame.
const HEADER: usize = 16;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dbdedup-oplog-sweep-{tag}-{}", std::process::id()))
}

fn replayed(log: &Oplog) -> Vec<OplogEntry> {
    log.read_from(log.floor_lsn(), usize::MAX).unwrap()
}

/// Writes the file every sweep starts from — every kind, both payload
/// forms — and returns its bytes, its entries, and where each entry's
/// frame ends.
fn clean_file(path: &Path) -> (Vec<u8>, Vec<OplogEntry>, Vec<usize>) {
    let _ = fs::remove_file(path);
    let raw = |fill: u8, n: usize| OplogPayload::Raw(Bytes::from(vec![fill; n]));
    let kinds = [
        OplogKind::Insert { id: RecordId(1), payload: raw(0x11, 24) },
        OplogKind::Insert {
            id: RecordId(3),
            payload: OplogPayload::Forward { base: RecordId(1), delta: Bytes::from(vec![0x22; 9]) },
        },
        OplogKind::Update { id: RecordId(1), data: Bytes::from(vec![0x44; 12]) },
        OplogKind::Delete { id: RecordId(1) },
        OplogKind::Insert { id: RecordId(2), payload: raw(0x33, 150) },
    ];
    let mut log = Oplog::open(path).unwrap();
    let mut ends = Vec::new();
    for kind in kinds {
        log.append(kind).unwrap();
        ends.push(fs::metadata(path).unwrap().len() as usize);
    }
    let entries = replayed(&log);
    drop(log);
    (fs::read(path).unwrap(), entries, ends)
}

/// Reopens the damaged file at `path`, which must keep exactly the first
/// `n` entries, each equal to the original, and leave the file ending at
/// `prefix_end`; then appends one entry and reopens again. Returns what the
/// first reopen reported.
fn reopen_keeps_prefix(
    path: &Path,
    entries: &[OplogEntry],
    n: usize,
    prefix_end: usize,
    ctx: &str,
) -> RecoveryReport {
    let mut log = Oplog::open(path).unwrap();
    assert_eq!(replayed(&log), entries[..n], "{ctx}: replay");
    assert_eq!(fs::metadata(path).unwrap().len(), prefix_end as u64, "{ctx}: file cut");
    let report = log.recovery_report().clone();
    let extra = OplogKind::Delete { id: RecordId(99) };
    assert_eq!(log.append(extra.clone()).unwrap().0, n as u64, "{ctx}: LSNs stay contiguous");
    drop(log);
    let log = Oplog::open(path).unwrap();
    assert!(log.recovery_report().is_clean(), "{ctx}: second reopen");
    let mut want = entries[..n].to_vec();
    want.push(OplogEntry { lsn: n as u64, kind: extra });
    assert_eq!(replayed(&log), want, "{ctx}: prefix plus the new entry");
    report
}

/// Entries whose frames end at or before `at`, and where the last of them ends.
fn prefix(ends: &[usize], at: usize) -> (usize, usize) {
    let n = ends.iter().take_while(|&&end| end <= at).count();
    (n, if n == 0 { HEADER } else { ends[n - 1] })
}

#[test]
fn flipping_any_byte_keeps_exactly_the_frames_before_it() {
    let path = temp_path("flip");
    let (clean, entries, ends) = clean_file(&path);
    for at in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 1 << (at % 8);
        fs::write(&path, &bytes).unwrap();
        let (n, end) = prefix(&ends, at);
        let ctx = format!("flip at {at} of {}", clean.len());
        let r = reopen_keeps_prefix(&path, &entries, n, end, &ctx);
        let cut = (clean.len() - end) as u64;
        let found = (r.quarantined_entries, r.quarantined_bytes, r.truncated_tail_bytes);
        if at < HEADER {
            // A damaged header takes the active segment's path: the whole
            // file is cut as a torn tail.
            assert_eq!(found, (0, 0, clean.len() as u64), "{ctx}");
        } else if n + 1 < entries.len() {
            // Valid frames follow the damaged one; they are cut too, so
            // that LSNs stay contiguous, and the cut reads as quarantine.
            assert_eq!(found, (1, cut, 0), "{ctx}");
            assert_eq!(r.skipped.len(), 1, "{ctx}");
        } else {
            assert_eq!(found, (0, 0, cut), "{ctx}");
        }
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn tearing_at_any_offset_keeps_exactly_the_frames_before_it() {
    let path = temp_path("tear");
    let (clean, entries, ends) = clean_file(&path);
    for at in 0..=clean.len() {
        fs::write(&path, &clean[..at]).unwrap();
        let (n, end) = prefix(&ends, at);
        let ctx = format!("tear at {at} of {}", clean.len());
        let r = reopen_keeps_prefix(&path, &entries, n, end, &ctx);
        // A torn header is cut whole; an empty file is a fresh one.
        let torn = if at < HEADER { at } else { at - end };
        assert_eq!((r.quarantined_entries, r.truncated_tail_bytes), (0, torn as u64), "{ctx}");
    }
    let _ = fs::remove_file(&path);
}
