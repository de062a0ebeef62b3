//! Crash/corruption sweeps over the whole stack: every byte-offset crash
//! point, seeded one-byte corruption fuzzing, scripted write-fault plans,
//! and a fault-injected replica set that re-converges by resuming applies
//! and through anti-entropy resync.

use dbdedup::delta::{DbDeltaConfig, DbDeltaEncoder};
use dbdedup::engine::engine::RededupOutcome;
use dbdedup::repl::anti_entropy;
use dbdedup::storage::store::{RecordStore, StorageForm, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::workloads::{Enron, MessageBoards, Op, StackExchange, Wikipedia, Workload};
use dbdedup::{
    DedupEngine, EngineConfig, FaultInjector, FaultKind, FaultPlan, RecordId, ReplicaSet,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbdedup-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seg_path(dir: &Path) -> PathBuf {
    dir.join("seg000000.dat")
}

fn cache_free() -> StoreConfig {
    StoreConfig { block_cache_bytes: 0, ..Default::default() }
}

/// Truncate the (single) segment file at EVERY byte offset in turn and
/// reopen: the store must always open, and its directory must equal the
/// state after the longest prefix of complete frames — never a mix, never
/// a later record without an earlier one.
#[test]
fn crash_point_sweep_recovers_longest_prefix() {
    let dir = temp_dir("sweep");
    // Build a timeline: after each operation, remember the segment length
    // and the expected directory contents at that point.
    type Snapshot = Vec<(RecordId, Vec<u8>)>;
    let mut timeline: Vec<(u64, Snapshot)> = Vec::new();
    {
        let store = RecordStore::open(&dir, cache_free()).expect("open");
        let mut state: Snapshot = Vec::new();
        timeline.push((std::fs::metadata(seg_path(&dir)).unwrap().len(), state.clone()));
        let mut rng = SplitMix64::new(0xC4A5_0001);
        for i in 0..8u64 {
            let data: Vec<u8> =
                (0..(80 + rng.next_below(80))).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            store.put(RecordId(i), StorageForm::Raw, &data).expect("put");
            state.push((RecordId(i), data));
            timeline.push((std::fs::metadata(seg_path(&dir)).unwrap().len(), state.clone()));
        }
        // An overwrite and a delete, so the sweep also crosses superseding
        // frames and a tombstone.
        store.put(RecordId(2), StorageForm::Raw, b"record two, second version").expect("put");
        state[2].1 = b"record two, second version".to_vec();
        timeline.push((std::fs::metadata(seg_path(&dir)).unwrap().len(), state.clone()));
        store.delete(RecordId(5)).expect("delete");
        state.retain(|(id, _)| *id != RecordId(5));
        timeline.push((std::fs::metadata(seg_path(&dir)).unwrap().len(), state.clone()));
    }
    let full = std::fs::read(seg_path(&dir)).expect("read segment");

    for cut in 0..=full.len() as u64 {
        let d2 = temp_dir("sweep-cut");
        std::fs::create_dir_all(&d2).unwrap();
        std::fs::write(seg_path(&d2), &full[..cut as usize]).unwrap();
        let store = RecordStore::open(&d2, cache_free())
            .unwrap_or_else(|e| panic!("open must never fail hard (cut {cut}): {e}"));
        // Longest recorded state whose segment length fits in the cut.
        let expected = timeline
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        let report = store.recovery_report();
        assert_eq!(store.len(), expected.len(), "cut {cut}: directory size (report {report:?})");
        for (id, data) in &expected {
            assert_eq!(
                &store.get(*id).expect("prefix record readable").payload[..],
                &data[..],
                "cut {cut}: record {id}"
            );
        }
        assert_eq!(report.quarantined_entries, 0, "cut {cut}: truncation is not quarantine");
        let _ = std::fs::remove_dir_all(&d2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One random byte flip per seeded iteration: the store must open, quarantine
/// (or truncate away) exactly the damaged entry, and serve every other
/// record byte-identically.
#[test]
fn corruption_fuzz_quarantines_only_the_damaged_entry() {
    const RECORDS: u64 = 10;
    let mut rng = SplitMix64::new(0xF422_0001);
    for iter in 0..40 {
        let dir = temp_dir(&format!("fuzz-{iter}"));
        let mut originals = Vec::new();
        {
            let store = RecordStore::open(&dir, cache_free()).expect("open");
            for i in 0..RECORDS {
                let data: Vec<u8> = (0..(120 + rng.next_below(200)))
                    .map(|_| (rng.next_u64() & 0xff) as u8)
                    .collect();
                store.put(RecordId(i), StorageForm::Raw, &data).expect("put");
                originals.push((RecordId(i), data));
            }
        }
        // Flip one byte anywhere past the segment header.
        let seg = seg_path(&dir);
        let len = std::fs::metadata(&seg).unwrap().len();
        let pos = 16 + rng.next_below(len - 16);
        let bit = 1u8 << (rng.next_u64() % 8);
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&seg).unwrap();
            f.seek(SeekFrom::Start(pos)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(pos)).unwrap();
            f.write_all(&[b[0] ^ bit]).unwrap();
        }
        let store = RecordStore::open(&dir, cache_free())
            .unwrap_or_else(|e| panic!("iter {iter}: open must never fail hard: {e}"));
        let report = store.recovery_report();
        let mut lost = 0u64;
        for (id, data) in &originals {
            match store.get(*id) {
                Ok(r) => assert_eq!(&r.payload[..], &data[..], "iter {iter}: record {id}"),
                Err(_) => lost += 1,
            }
        }
        assert_eq!(lost, 1, "iter {iter}: exactly the damaged entry is lost ({report:?})");
        assert!(
            report.quarantined_entries == 1 || report.truncated_tail_bytes > 0,
            "iter {iter}: damage accounted for ({report:?})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A scripted crash at every write-op index: the store silently drops that
/// write and all later ones (zombie process), and reopening the directory
/// always yields the longest durable prefix.
#[test]
fn fault_plan_crash_at_every_write_recovers_prefix() {
    const RECORDS: u64 = 12;
    // Write op 0 is the segment header; puts are ops 1..=RECORDS.
    for k in 0..=RECORDS + 1 {
        let dir = temp_dir(&format!("crashk-{k}"));
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(k)));
        {
            let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..cache_free() };
            let store = RecordStore::open(&dir, cfg).expect("open");
            for i in 0..RECORDS {
                // The zombie store may error or pretend success; either is
                // acceptable while "crashed" — it must not panic.
                let _ = store.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]);
            }
        }
        let store = RecordStore::open(&dir, cache_free())
            .unwrap_or_else(|e| panic!("crash at write {k}: open failed: {e}"));
        let survivors = k.saturating_sub(1).min(RECORDS);
        assert_eq!(store.len(), survivors as usize, "crash at write {k}");
        for i in 0..survivors {
            assert_eq!(&store.get(RecordId(i)).unwrap().payload[..], &[i as u8; 100]);
        }
        assert!(store.recovery_report().quarantined_entries == 0, "clean prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// Compaction appends every run of adjacent kept frames with one write, so
/// a fault no longer hits a frame: it hits a run. At every write op of a
/// compaction to quiescence, a crash, a write torn mid-frame, a write torn
/// exactly between two frames of the run, and a transient I/O error: after
/// the error the store still serves every record (its directory names no
/// bytes the failed write never wrote) and finishes the job, and after any
/// of them a reopen reads every record's bytes from whichever copy survived.
#[test]
fn faults_inside_a_coalesced_compaction_run_lose_no_live_record() {
    const SEGMENT: u64 = 4096;
    let cfg = |fault| StoreConfig { segment_bytes: SEGMENT, fault, ..cache_free() };
    let template = temp_dir("run-template");
    let mut model = std::collections::BTreeMap::new();
    let mut deleted = Vec::new();
    let frame_len;
    {
        // Equal-sized frames, so a cut at one frame length is a cut on a
        // frame boundary of any run.
        let store = RecordStore::open(&template, cfg(None)).expect("open");
        for i in 0..72u64 {
            store.put(RecordId(i), StorageForm::Raw, &[i as u8; 180]).expect("put");
            model.insert(i, vec![i as u8; 180]);
        }
        frame_len = store.frame_extent(RecordId(0)).unwrap().2;
        for i in (0..72u64).step_by(6) {
            store.put(RecordId(i), StorageForm::Raw, &[0xEE ^ i as u8; 180]).expect("overwrite");
            model.insert(i, vec![0xEE ^ i as u8; 180]);
        }
        for i in (3..72u64).step_by(12) {
            store.delete(RecordId(i)).expect("delete");
            model.remove(&i);
            deleted.push(i);
        }
    }
    let check = |store: &RecordStore, at: &str| {
        for (&id, data) in &model {
            let got = store.get(RecordId(id)).unwrap_or_else(|e| panic!("{at}: record {id}: {e}"));
            assert_eq!(&got.payload[..], &data[..], "{at}: record {id}");
        }
        for &id in &deleted {
            assert!(!store.contains(RecordId(id)), "{at}: deleted record {id} is back");
        }
    };
    // A clean pass sizes the sweep and shows that runs do coalesce here.
    let ops = {
        let dir = temp_dir("run-probe");
        copy_dir(&template, &dir);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let store = RecordStore::open(&dir, cfg(Some(Arc::clone(&inj)))).expect("open");
        let entries = store.io_stats().writes;
        while !store.compact_step(2048, 0.0).expect("clean compaction").is_noop() {}
        check(&store, "clean pass");
        let (ops, entries) = (inj.writes_seen(), store.io_stats().writes - entries);
        assert!(entries > ops + 10, "{entries} frames and headers in {ops} writes");
        let _ = std::fs::remove_dir_all(&dir);
        ops
    };
    let kinds = [
        FaultKind::Crash,
        FaultKind::ShortWrite { keep: frame_len + frame_len / 2 },
        FaultKind::ShortWrite { keep: frame_len },
        FaultKind::IoError,
    ];
    for k in 0..ops {
        for kind in kinds {
            let at = format!("{kind:?} at write {k}");
            let dir = temp_dir("run-fault");
            copy_dir(&template, &dir);
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().fault_at(k, kind)));
            {
                let store = RecordStore::open(&dir, cfg(Some(Arc::clone(&inj)))).expect("open");
                loop {
                    match store.compact_step(2048, 0.0) {
                        Ok(step) if step.is_noop() => break,
                        Ok(_) => {}
                        // A zombie may fail any way it likes; a live store
                        // only fails the way it was told to.
                        Err(_) if inj.crashed() => break,
                        Err(e) => {
                            assert_eq!(kind, FaultKind::IoError, "{at}: {e}");
                            check(&store, &format!("{at}, right after the error"));
                        }
                    }
                    if inj.crashed() {
                        break; // the process is dead
                    }
                }
                if kind == FaultKind::IoError {
                    assert_eq!(inj.faults_injected(), 1, "{at}");
                    assert_eq!(store.reclaimable_dead_bytes(), 0, "{at}: retried to the end");
                    check(&store, &format!("{at}, after retrying"));
                }
            }
            let store = RecordStore::open(&dir, cfg(None))
                .unwrap_or_else(|e| panic!("{at}: reopen failed: {e}"));
            check(&store, &format!("{at}, reopened"));
            while !store.compact_step(2048, 0.0).expect("post-fault compaction").is_noop() {}
            assert_eq!(store.reclaimable_dead_bytes(), 0, "{at}");
            check(&store, &format!("{at}, reopened and compacted"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&template);
}

fn engine() -> DedupEngine {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    DedupEngine::open_temp(cfg).expect("engine")
}

/// `n` revisions of one `len`-byte document, each a few small edits past
/// the last.
fn revisions(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut doc: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
    let mut docs = vec![doc.clone()];
    for _ in 1..n {
        for _ in 0..5 {
            let at = rng.next_below((doc.len() - 50) as u64) as usize;
            for b in doc.iter_mut().skip(at).take(40) {
                *b = (rng.next_u64() % 26 + 97) as u8;
            }
        }
        docs.push(doc.clone());
    }
    docs
}

/// Crash-at-every-write sweep over the out-of-line re-dedup rewrite path.
/// The rewrite's copy-before-supersede ordering promises: whatever write
/// the crash lands on, (1) every record stays byte-readable, (2) a
/// degraded-set entry disappears only when its rewrite durably committed
/// (the tagged frame is only ever superseded by the final clean put), and
/// (3) the drain never touches the oplog. After recovery, the remaining
/// backlog must drain to empty.
#[test]
fn rededup_rewrite_crash_sweep_preserves_records_and_backlog() {
    // A revision chain, so drained records delta-encode against each other.
    let docs = revisions(4, 8_000, 0x4ED0_0001);
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let burst: Vec<RecordId> = (1..docs.len() as u64).map(RecordId).collect();

    for k in 0..=8u64 {
        let dir = temp_dir(&format!("rededup-{k}"));
        // Build the degraded burst in a durable directory, then "restart".
        {
            let store = RecordStore::open(&dir, cache_free()).expect("open");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine");
            e.insert("db", RecordId(0), &docs[0]).expect("insert");
            e.set_replication_pressure(true);
            for (i, d) in docs.iter().enumerate().skip(1) {
                e.insert("db", RecordId(i as u64), d).expect("insert");
            }
        }
        // Reopen behind a fault injector that crashes at write-op k, and
        // drain the backlog into the crash. The zombie engine may error or
        // pretend success; it must not panic or emit oplog entries.
        {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(k)));
            let faulted = StoreConfig { fault: Some(Arc::clone(&inj)), ..cache_free() };
            let store = RecordStore::open(&dir, faulted).expect("open faulted");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine faulted");
            assert_eq!(e.degraded_backlog_ids(), burst, "crash k={k}: recovered backlog");
            let lsn_before = e.oplog_next_lsn();
            for id in e.degraded_backlog_ids() {
                let _ = e.rededup_record(id);
            }
            assert_eq!(
                e.oplog_next_lsn(),
                lsn_before,
                "crash k={k}: re-dedup must never touch the oplog"
            );
        }
        // Recover and audit the crash model.
        let store = RecordStore::open(&dir, cache_free()).expect("reopen");
        let mut e = DedupEngine::new(store, cfg.clone()).expect("engine recovered");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(
                &e.read(RecordId(i as u64)).unwrap()[..],
                &d[..],
                "crash k={k}: record {i} must stay readable"
            );
        }
        let backlog = e.degraded_backlog_ids();
        for &id in &burst {
            // No entry is lost: an id left the backlog only by durably
            // committing the clean (untagged) frame that ends its rewrite.
            assert_eq!(
                backlog.contains(&id),
                e.store().is_degraded(id),
                "crash k={k}: backlog/tag mismatch for {id:?}"
            );
        }
        if k == 0 {
            assert_eq!(backlog, burst, "crash before any write must keep the whole backlog");
        }
        // The surviving backlog drains to empty post-recovery, and every
        // record still reads back byte-identically.
        for id in e.degraded_backlog_ids() {
            e.rededup_record(id).expect("post-recovery re-dedup");
        }
        assert_eq!(e.degraded_backlog_len(), 0, "crash k={k}");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "crash k={k}: final {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One oplog-silent local rewrite, staged for a crash at each of its
/// writes. Record `i` always holds `docs[i]`.
struct RewriteCase {
    name: &'static str,
    /// Durable state, built and closed before the faulted session opens.
    setup: fn(&Path, &EngineConfig, &[Vec<u8>]),
    /// In-memory state the rewrite needs (queued write-backs, tombstones),
    /// built inside the faulted session; crashes are scheduled past it.
    stage: fn(&mut DedupEngine, &[Vec<u8>]),
    /// The rewrite itself; `peer` holds every record, for repairs. Run
    /// again after recovery, as a restarted maintainer would.
    rewrite: fn(&mut DedupEngine, &mut DedupEngine),
    /// Records that must be live straight after recovery.
    durable: &'static [u64],
    /// Records that must read back once the rewrite has been re-run.
    survivors: &'static [u64],
}

fn insert_all(e: &mut DedupEngine, docs: &[Vec<u8>], ids: std::ops::Range<usize>) {
    for i in ids {
        e.insert("db", RecordId(i as u64), &docs[i]).expect("insert");
    }
}

fn chain_on_disk(dir: &Path, cfg: &EngineConfig, docs: &[Vec<u8>], n: usize) {
    let store = RecordStore::open(dir, cache_free()).expect("open");
    let mut e = DedupEngine::new(store, cfg.clone()).expect("engine");
    insert_all(&mut e, docs, 0..n);
    e.flush_all_writebacks().expect("flush");
}

const REWRITE_CASES: &[RewriteCase] = &[
    RewriteCase {
        name: "write-back flush",
        setup: |dir, cfg, docs| chain_on_disk(dir, cfg, docs, 3),
        // The index does not survive the reopen, so record 3 lands unique
        // and 4 and 5 each queue a write-back for their predecessor.
        stage: |e, docs| {
            for i in 3..6 {
                if !e.store().contains(RecordId(i as u64)) {
                    insert_all(e, docs, i..i + 1);
                }
            }
        },
        rewrite: |e, _| drop(e.flush_all_writebacks()),
        durable: &[0, 1, 2],
        survivors: &[0, 1, 2],
    },
    RewriteCase {
        name: "gc_record, mid-chain tombstone",
        setup: |dir, cfg, docs| chain_on_disk(dir, cfg, docs, 5),
        stage: |e, _| {
            if e.delete(RecordId(2)).is_ok() && e.store().contains(RecordId(2)) {
                assert!(e.chains().base_of(RecordId(2)).is_some(), "pinned mid-chain");
            }
        },
        rewrite: |e, _| drop(e.gc_record(RecordId(2))),
        durable: &[0, 1, 3, 4],
        survivors: &[0, 1, 3, 4],
    },
    RewriteCase {
        name: "gc_record, terminal tombstone",
        setup: |dir, cfg, docs| chain_on_disk(dir, cfg, docs, 3),
        stage: |e, _| {
            if e.delete(RecordId(2)).is_ok() && e.store().contains(RecordId(2)) {
                assert!(e.chains().base_of(RecordId(2)).is_none(), "pinned terminal raw base");
            }
        },
        rewrite: |e, _| drop(e.gc_record(RecordId(2))),
        durable: &[0, 1],
        survivors: &[0, 1],
    },
    RewriteCase {
        name: "re-dedup, tag clear after an interrupted rewrite",
        // What a rewrite of record 1 leaves when it dies before its last
        // write: the source already a delta against 1, 1 still tagged.
        setup: |dir, cfg, docs| {
            {
                let store = RecordStore::open(dir, cache_free()).expect("open");
                let mut e = DedupEngine::new(store, cfg.clone()).expect("engine");
                insert_all(&mut e, docs, 0..1);
                e.set_replication_pressure(true);
                insert_all(&mut e, docs, 1..2);
            }
            let backward = DbDeltaEncoder::new(DbDeltaConfig::with_interval(cfg.anchor_interval))
                .encode(&docs[1], &docs[0]);
            RecordStore::open(dir, cache_free())
                .expect("open")
                .put(RecordId(0), StorageForm::Delta { base: RecordId(1) }, backward.as_bytes())
                .expect("put");
        },
        stage: |e, _| assert_eq!(e.chains().base_of(RecordId(0)), Some(RecordId(1))),
        rewrite: |e, _| {
            let outcome = e.rededup_record(RecordId(1));
            assert!(matches!(outcome, Ok(RededupOutcome::Skipped) | Err(_)), "{outcome:?}");
        },
        durable: &[0, 1],
        survivors: &[0, 1],
    },
    RewriteCase {
        name: "re-dedup, keep raw",
        setup: |dir, cfg, docs| {
            let store = RecordStore::open(dir, cache_free()).expect("open");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine");
            e.set_replication_pressure(true);
            insert_all(&mut e, docs, 0..1);
        },
        stage: |_, _| {},
        rewrite: |e, _| {
            let outcome = e.rededup_record(RecordId(0));
            assert!(!matches!(outcome, Ok(RededupOutcome::Rededuped { .. })), "{outcome:?}");
        },
        durable: &[0],
        survivors: &[0],
    },
    RewriteCase {
        name: "repair_record, through a scrub heal",
        setup: |dir, cfg, docs| chain_on_disk(dir, cfg, docs, 4),
        // Rot record 1's frame underneath the engine. It is lost until a
        // scrub heals it — crash or no crash — so it is not in `durable`.
        stage: |e, _| {
            use std::io::{Read, Seek, SeekFrom};
            let Some((seg, off, _)) = e.store().frame_extent(RecordId(1)) else {
                return; // recovery after a crash: already quarantined
            };
            let path = e.store().dir().join(format!("seg{seg:06}.dat"));
            let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
            let mut b = [0u8; 1];
            f.seek(SeekFrom::Start(off + 12)).unwrap();
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(off + 12)).unwrap();
            f.write_all(&[b[0] ^ 0x40]).unwrap();
        },
        rewrite: |e, peer| {
            for _ in 0..64 {
                match e.scrub_slice(1 << 20, Some(peer)) {
                    Ok(slice) if !slice.pass_complete => {}
                    _ => return,
                }
            }
        },
        durable: &[0, 2, 3],
        survivors: &[0, 1, 2, 3],
    },
];

/// Crash-at-every-write sweep over every caller of the engine's one
/// local-rewrite primitive that has no sweep of its own: for each case and
/// each write of the rewrite, a crash there must leave every live record
/// reading its own bytes, the records the rewrite did not target live, and
/// the oplog where it was — and re-running the rewrite after recovery must
/// finish the job.
#[test]
fn local_rewrite_crash_sweep_keeps_records_and_oplog() {
    let docs = revisions(6, 6_000, 0x10CA_1001);
    let mut peer = engine();
    insert_all(&mut peer, &docs, 0..docs.len());
    for case in REWRITE_CASES {
        let dir = temp_dir("rewrite-sweep");
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.oplog_path = Some(dir.join("oplog"));
        // Opens the staged engine behind an injector that crashes at write
        // `crash_at` (never, for `None`); returns both.
        let staged = |crash_at: Option<u64>| {
            let _ = std::fs::remove_dir_all(&dir);
            (case.setup)(&dir, &cfg, &docs);
            let plan = crash_at.map_or(FaultPlan::new(), |k| FaultPlan::new().crash_at_write(k));
            let inj = Arc::new(FaultInjector::new(plan));
            let faulted = StoreConfig { fault: Some(Arc::clone(&inj)), ..cache_free() };
            let store = RecordStore::open(&dir, faulted).expect("open faulted");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine faulted");
            (case.stage)(&mut e, &docs);
            (e, inj)
        };
        let first_write = staged(None).1.writes_seen();
        for k in first_write.. {
            let name = format!("{}, crash at write {k}", case.name);
            let (mut e, inj) = staged(Some(k));
            let lsn = e.oplog_next_lsn();
            (case.rewrite)(&mut e, &mut peer);
            assert_eq!(e.oplog_next_lsn(), lsn, "{name}: a local rewrite is oplog-silent");
            let fired = inj.crashed();
            drop(e);

            let store = RecordStore::open(&dir, cache_free()).expect("reopen");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine recovered");
            assert_eq!(e.oplog_next_lsn(), lsn, "{name}: oplog after recovery");
            let live = e.live_record_ids();
            for &id in &live {
                assert_eq!(&e.read(id).unwrap()[..], &docs[id.0 as usize][..], "{name}: {id:?}");
            }
            for &id in case.durable {
                assert!(live.contains(&RecordId(id)), "{name}: record {id} lost");
            }
            (case.stage)(&mut e, &docs);
            let lsn = e.oplog_next_lsn();
            (case.rewrite)(&mut e, &mut peer);
            assert_eq!(e.oplog_next_lsn(), lsn, "{name}: re-run is oplog-silent");
            for &id in case.survivors {
                let got = e.read(RecordId(id)).unwrap_or_else(|err| panic!("{name}: {id}: {err}"));
                assert_eq!(&got[..], &docs[id as usize][..], "{name}: record {id} after re-run");
            }
            if !fired {
                assert!(k > first_write, "{}: the rewrite wrote nothing", case.name);
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash-at-every-write sweep over an update of a decode base: the writes
/// that move its dependents onto its base, then its own raw put, for a
/// record in mid-chain and for the chain's raw end. Whichever write the
/// crash lands on, a reopen reads every other record's own bytes and the
/// updated record's old content or its new, never an error.
#[test]
fn update_of_a_decode_base_crash_sweep_reads_old_or_new() {
    let docs = revisions(5, 6_000, 0x0DA7_E001);
    let fresh = revisions(1, 5_000, 0x0DA7_E002).remove(0);
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let dir = temp_dir("update-sweep");
    for target in [2u64, 4] {
        // The chain behind an injector that crashes at write `crash_at`
        // (never, for `None`).
        let staged = |crash_at: Option<u64>| {
            let _ = std::fs::remove_dir_all(&dir);
            chain_on_disk(&dir, &cfg, &docs, docs.len());
            let plan = crash_at.map_or(FaultPlan::new(), |k| FaultPlan::new().crash_at_write(k));
            let inj = Arc::new(FaultInjector::new(plan));
            let faulted = StoreConfig { fault: Some(Arc::clone(&inj)), ..cache_free() };
            let e = DedupEngine::new(RecordStore::open(&dir, faulted).expect("open"), cfg.clone())
                .expect("engine faulted");
            assert!(e.chains().refcount(RecordId(target)) > 0, "record {target} is a decode base");
            (e, inj)
        };
        let first_write = staged(None).1.writes_seen();
        for k in first_write.. {
            let at = format!("update of {target}, crash at write {k}");
            let (mut e, inj) = staged(Some(k));
            let _ = e.update(RecordId(target), &fresh);
            let fired = inj.crashed();
            drop(e);

            let store = RecordStore::open(&dir, cache_free()).expect("reopen");
            let mut e = DedupEngine::new(store, cfg.clone()).expect("engine recovered");
            assert_eq!(e.live_record_ids().len(), docs.len(), "{at}");
            for (i, d) in docs.iter().enumerate() {
                let got =
                    e.read(RecordId(i as u64)).unwrap_or_else(|err| panic!("{at}: {i}: {err}"));
                if i as u64 == target {
                    assert!(got[..] == d[..] || got[..] == fresh[..], "{at}: neither old nor new");
                } else {
                    assert_eq!(&got[..], &d[..], "{at}: record {i}");
                }
            }
            if !fired {
                assert!(k > first_write + 1, "{at}: a dependent moved, then the put");
                assert_eq!(&e.read(RecordId(target)).unwrap()[..], &fresh[..], "{at}");
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit flip on a raw degraded-tagged pass-through record: the next open
/// must salvage cleanly (quarantining exactly the damaged frame, with the
/// skip counted and a typed event emitted), the rescanned re-dedup backlog
/// must agree with the surviving on-disk tags — the damaged record in
/// neither — and the remaining backlog must drain normally.
#[test]
fn bitflip_on_degraded_record_salvages_and_keeps_backlog_consistent() {
    use dbdedup::{MaintConfig, Maintainer};
    let dir = temp_dir("degraded-rot");
    let docs = revisions(5, 6_000, 0xDE64_0001);
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let burst: Vec<RecordId> = (1..docs.len() as u64).map(RecordId).collect();
    {
        let store = RecordStore::open(&dir, cache_free()).expect("open");
        let mut e = DedupEngine::new(store, cfg.clone()).expect("engine");
        e.insert("db", RecordId(0), &docs[0]).expect("insert");
        e.set_replication_pressure(true);
        for (i, d) in docs.iter().enumerate().skip(1) {
            e.insert("db", RecordId(i as u64), d).expect("insert degraded");
        }
        assert_eq!(e.degraded_backlog_ids(), burst);
    }
    // Rot one byte inside the live frame of a degraded record while the
    // store is closed (at-rest bit rot, not a write fault).
    let victim = RecordId(2);
    let (seg, off, _) = {
        let probe = RecordStore::open(&dir, cache_free()).expect("probe");
        probe.frame_extent(victim).expect("live frame")
    };
    {
        use std::io::{Read, Seek, SeekFrom};
        let path = dir.join(format!("seg{seg:06}.dat"));
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        f.write_all(&[b[0] ^ 0x10]).unwrap();
    }
    // Restart: salvage skips the rotted frame silently (counted + typed
    // event), and the rescanned backlog matches the surviving tags.
    let store = RecordStore::open(&dir, cache_free()).expect("salvage open");
    assert_eq!(store.recovery_report().quarantined_entries, 1);
    assert_eq!(store.recovery_report().skipped.len(), 1);
    let mut e = DedupEngine::new(store, cfg).expect("engine after salvage");
    assert!(e.metrics().salvage_skipped >= 1, "skip must surface as a gauge");
    assert!(!e.event_log().of_kind("salvage_skipped").is_empty(), "typed Warn event per frame");
    let backlog = e.degraded_backlog_ids();
    assert!(!backlog.contains(&victim), "quarantined record cannot stay queued");
    for &id in &burst {
        assert_eq!(
            backlog.contains(&id),
            e.store().is_degraded(id),
            "backlog/tag mismatch for {id:?}"
        );
    }
    assert!(matches!(e.read(victim), Err(dbdedup::EngineError::NotFound(_))));
    // The survivors drain to empty and read back byte-identically; a scrub
    // pass over the healed store confirms nothing else is wrong.
    let lsn_before = e.oplog_next_lsn();
    for id in e.degraded_backlog_ids() {
        e.rededup_record(id).expect("drain survivor");
    }
    assert_eq!(e.degraded_backlog_len(), 0);
    assert_eq!(e.oplog_next_lsn(), lsn_before, "drain must be oplog-silent");
    for (i, d) in docs.iter().enumerate() {
        if RecordId(i as u64) == victim {
            continue;
        }
        assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "survivor {i}");
    }
    let mut maint = Maintainer::new(MaintConfig::default());
    assert!(maint.scrub_pass_local(&mut e).expect("scrub").is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flips one bit in the middle of `id`'s live frame, on disk, behind the
/// store's back.
fn flip_mid_frame(dir: &Path, store: &RecordStore, id: RecordId) {
    use std::io::{Read, Seek, SeekFrom};
    let (seg, off, len) = store.frame_extent(id).expect("live frame");
    let at = off + u64::from(len) / 2;
    let path = dir.join(format!("seg{seg:06}.dat"));
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[b[0] ^ 0x40]).unwrap();
}

/// At-run-time rot in the frame of a raw record the source cache holds. A
/// read serves the cached copy, the way a block-cache hit masks rot on the
/// disk below it; the scrub reads the store itself, so it still finds the
/// damaged frame, and heals it from that same cached copy.
#[test]
fn rot_behind_a_cached_raw_record_is_masked_for_reads_and_healed_by_the_scrub() {
    use dbdedup::{MaintConfig, Maintainer};
    let dir = temp_dir("cached-rot");
    let store = RecordStore::open(&dir, cache_free()).expect("open");
    let mut e = DedupEngine::new(store, EngineConfig::default()).expect("engine");
    let mut rng = SplitMix64::new(0xCAC4_0001);
    let docs: Vec<Vec<u8>> =
        (0..3).map(|_| (0..5_000).map(|_| rng.next_u64() as u8).collect()).collect();
    for (i, d) in docs.iter().enumerate() {
        e.insert("db", RecordId(i as u64), d).expect("insert");
    }
    let victim = RecordId(1);
    assert_eq!(e.store().form(victim), Some(StorageForm::Raw));
    flip_mid_frame(&dir, e.store(), victim);
    assert!(e.store().get(victim).is_err(), "the frame itself no longer verifies");
    assert_eq!(&e.read(victim).expect("served from the cache")[..], &docs[1][..]);
    assert!(e.broken_records().is_empty());
    // Everything else decodes from the store: anti-entropy's checksum sees
    // the damage the read did not.
    assert!(e.content_checksum(victim).is_err());
    let mut maint = Maintainer::new(MaintConfig::default());
    let found = maint.scrub_pass_local(&mut e).expect("scrub");
    assert_eq!((found.totals.corrupt, found.totals.healed_local), (1, 1), "{found:?}");
    assert_eq!(&e.store().get(victim).expect("healed frame").payload[..], &docs[1][..]);
    assert!(maint.scrub_pass_local(&mut e).expect("scrub").is_clean());
    for (i, d) in docs.iter().enumerate() {
        assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// At-run-time rot in the frame of a junction a read left in the source
/// cache. Reads below the junction stop at the cached copy; the scrub's walk
/// admits nothing and reads the junction's own frame, so it still finds the
/// damage, and heals it from that cached copy.
#[test]
fn rot_in_a_cached_junctions_own_frame_is_found_and_healed_by_the_scrub() {
    use dbdedup::{MaintConfig, Maintainer};
    let dir = temp_dir("junction-rot");
    let open = || {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::new(RecordStore::open(&dir, cache_free()).expect("open"), cfg).expect("engine")
    };
    let mut rng = SplitMix64::new(0x7C7_0001);
    let mut doc: Vec<u8> = (0..6_000).map(|_| b'a' + (rng.next_u64() % 26) as u8).collect();
    let mut docs = Vec::new();
    for _ in 0..40 {
        let at = rng.next_index(doc.len() - 40);
        doc[at..at + 40].fill(b'A' + (rng.next_u64() % 26) as u8);
        docs.push(doc.clone());
    }
    {
        let mut e = open();
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).expect("insert");
        }
        e.flush_all_writebacks().expect("flush");
    }
    // Reopened, nothing is cached, and a scrub pass caches nothing: the
    // first read below a junction still climbs its whole path.
    let mut e = open();
    let mut maint = Maintainer::new(MaintConfig::default());
    assert!(maint.scrub_pass_local(&mut e).expect("scrub").is_clean());
    let below = RecordId(1);
    let path = e.chains().decode_path(below).expect("tracked");
    assert_eq!(&e.read(below).expect("read")[..], &docs[1][..]);
    assert_eq!(e.metrics().read_decode_hops.max(), path.len() as u64 - 1);
    let junction = path[1..path.len() - 1]
        .iter()
        .copied()
        .find(|&r| e.chains().refcount(r) >= 2)
        .expect("a junction decoded on the way down");
    assert!(matches!(e.store().form(junction), Some(StorageForm::Delta { .. })));
    flip_mid_frame(&dir, e.store(), junction);
    assert!(e.store().get(junction).is_err(), "the frame itself no longer verifies");
    assert_eq!(&e.read(below).expect("stops at the cached junction")[..], &docs[1][..]);
    assert!(e.broken_records().is_empty());
    assert!(e.content_checksum(junction).is_err(), "decode_record reads the junction's frame");
    let found = maint.scrub_pass_local(&mut e).expect("scrub");
    assert_eq!((found.totals.corrupt, found.totals.healed_local), (1, 1), "{found:?}");
    let healed = &e.store().get(junction).expect("healed frame").payload[..];
    assert_eq!(healed, &docs[junction.0 as usize][..]);
    assert!(maint.scrub_pass_local(&mut e).expect("scrub").is_clean());
    for (i, d) in docs.iter().enumerate() {
        assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives one workload through a replica set whose secondary store throws
/// transient I/O errors and whose link is cut from insert `cut_at` for
/// longer than the primary's oplog retention, then proves the set
/// re-converged on its own: each failed `sync` is resumed by the next from
/// the applied cursor, and the cut is repaired by the anti-entropy fallback.
fn converges_after_faults(name: &str, ops: Vec<Op>, cut_at: usize) {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    // A dozen inserts slide this window past the cut link's cursor.
    cfg.oplog_retain_bytes = 1_000;
    let store_faults = Arc::new(FaultInjector::new(
        FaultPlan::new().fault_at(3, FaultKind::IoError).fault_at(11, FaultKind::IoError),
    ));
    let store = RecordStore::open_temp(StoreConfig {
        fault: Some(Arc::clone(&store_faults)),
        ..Default::default()
    })
    .expect("secondary store");
    let secondary = DedupEngine::new(store, cfg.clone()).expect("secondary engine");
    let mut set = ReplicaSet::new(DedupEngine::open_temp(cfg).expect("primary"), vec![secondary]);

    let mut acked = Vec::new();
    let mut failed_syncs = 0;
    for (k, op) in ops.into_iter().enumerate() {
        let Op::Insert { id, data } = op else { continue };
        if k == cut_at {
            set.set_partitioned(0, true);
        } else if k == cut_at + 12 {
            set.set_partitioned(0, false);
        }
        set.primary.insert(name, id, &data).expect("insert");
        acked.push((id, data));
        if set.sync().is_err() {
            failed_syncs += 1;
        }
    }
    set.sync().expect("final sync");
    assert_eq!(store_faults.faults_injected(), 2, "{name}: the store plan must fire");
    assert_eq!(failed_syncs, 2, "{name}: each store error fails one sync");
    assert!(set.full_resyncs() >= 1, "{name}: the cut must outlive retention");

    set.flush_all().expect("flush");
    let (primary, secondary) = (&mut set.primary, &mut set.secondaries[0]);
    assert_eq!(primary.live_record_ids(), secondary.live_record_ids(), "{name}: live sets");
    for (id, data) in &acked {
        assert_eq!(&primary.read(*id).unwrap()[..], &data[..], "{name}: primary {id}");
        assert_eq!(&secondary.read(*id).unwrap()[..], &data[..], "{name}: secondary {id}");
    }
    // The set's own fallback was the first pass; a second finds nothing.
    let second = anti_entropy(primary, secondary).expect("resync");
    assert!(second.is_clean(), "{name}: second pass clean, was {second:?}");
}

#[test]
fn replication_converges_after_faults_wikipedia() {
    let w = Wikipedia::insert_only(36, 0xAE01);
    let db = w.db();
    converges_after_faults(db, w.collect(), 14);
}

#[test]
fn replication_converges_after_faults_enron() {
    let w = Enron::insert_only(36, 0xAE02);
    let db = w.db();
    converges_after_faults(db, w.collect(), 16);
}

#[test]
fn replication_converges_after_faults_stackexchange() {
    let w = StackExchange::insert_only(36, 0xAE03);
    let db = w.db();
    converges_after_faults(db, w.collect(), 18);
}

#[test]
fn replication_converges_after_faults_msgboards() {
    let w = MessageBoards::insert_only(36, 0xAE04);
    let db = w.db();
    converges_after_faults(db, w.collect(), 20);
}
