//! Durability: the record store recovers from disk, and a fresh engine
//! over the recovered store serves every record — delta-encoded chains
//! included (decode follows on-disk base pointers, not in-memory state).

use dbdedup::storage::oplog::OplogKind;
use dbdedup::storage::store::{CompactStats, RecordStore, StoreConfig};
use dbdedup::workloads::wikipedia::revision_chain;
use dbdedup::{DedupEngine, EngineConfig, RecordId};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbdedup-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> EngineConfig {
    let mut c = EngineConfig::default();
    c.min_benefit_bytes = 16;
    c
}

#[test]
fn engine_survives_store_reopen() {
    let dir = temp_dir("reopen");
    let chain = revision_chain(30, 1);
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        for (i, rev) in chain.iter().enumerate() {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
        e.flush_all_writebacks().expect("flush");
        // Engine dropped here; only the on-disk store survives.
    }
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("recover");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        // Every version — including delta-encoded interior records — reads
        // back from the recovered base pointers.
        for (i, rev) in chain.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..], "revision {i}");
        }
        // And the recovered engine accepts new inserts.
        e.insert("wikipedia", RecordId(1000), b"fresh content after recovery long enough")
            .expect("insert post-recovery");
        assert_eq!(
            &e.read(RecordId(1000)).unwrap()[..],
            b"fresh content after recovery long enough"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pending_writebacks_lost_on_crash_are_harmless() {
    // The lossy write-back cache's core guarantee (§3.3.2): if the process
    // dies before writebacks flush, records are simply still raw.
    let dir = temp_dir("crash");
    let chain = revision_chain(20, 2);
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        for (i, rev) in chain.iter().enumerate() {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
        assert!(e.pending_writebacks() > 0, "writebacks still queued = simulated crash");
        // NO flush: drop with the cache full.
    }
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("recover");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        for (i, rev) in chain.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..], "revision {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_engine_supports_delete_and_gc() {
    // Chain recovery must restore refcounts so post-restart deletes keep
    // dependent records decodable and GC still collects.
    let dir = temp_dir("recover-gc");
    let chain = revision_chain(12, 8);
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        for (i, rev) in chain.iter().enumerate() {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
        e.flush_all_writebacks().expect("flush");
    }
    {
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("recover");
        let mut e = DedupEngine::new(store, cfg()).expect("engine");
        // Delete a mid-chain record that others decode through: it must
        // linger (refcount recovered > 0) and its dependents stay readable.
        e.delete(RecordId(5)).expect("delete");
        assert!(e.read(RecordId(5)).is_err());
        for (i, rev) in chain.iter().enumerate() {
            if i == 5 {
                continue;
            }
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..], "revision {i}");
        }
        // Reads through the deleted record trigger the GC splice; after
        // enough reads it is physically gone.
        for _ in 0..chain.len() {
            for i in 0..5u64 {
                let _ = e.read(RecordId(i));
            }
        }
        assert!(!e.store().contains(RecordId(5)), "GC must collect the deleted record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_oplog_resumes_replication_after_restart() {
    let dir = temp_dir("oplog");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let oplog_path = dir.join("oplog.log");
    let store_dir = dir.join("store");
    let chain = revision_chain(10, 4);
    {
        let store = RecordStore::open(&store_dir, StoreConfig::default()).expect("open");
        let mut c = cfg();
        c.oplog_path = Some(oplog_path.clone());
        let mut e = DedupEngine::new(store, c).expect("engine");
        for (i, rev) in chain.iter().enumerate() {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
        // Crash before shipping anything.
    }
    {
        // Restarted primary: the durable oplog still holds every entry, so
        // a secondary can catch up from scratch.
        let store = RecordStore::open(&store_dir, StoreConfig::default()).expect("reopen");
        let mut c = cfg();
        c.oplog_path = Some(oplog_path.clone());
        let mut e = DedupEngine::new(store, c).expect("engine");
        let batch = e.take_oplog_batch(usize::MAX);
        assert_eq!(batch.len(), chain.len(), "all entries recovered for shipping");
        let mut secondary = DedupEngine::open_temp(cfg()).expect("secondary");
        for entry in &batch {
            secondary.apply_oplog_entry(entry).expect("apply");
        }
        for (i, rev) in chain.iter().enumerate() {
            assert_eq!(&secondary.read(RecordId(i as u64)).unwrap()[..], &rev[..]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_oplog_keeps_entries_appended_after_a_torn_tail() {
    let dir = temp_dir("oplog-torn");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let oplog_path = dir.join("oplog.log");
    let store_dir = dir.join("store");
    let chain = revision_chain(8, 5);
    let open = || {
        let store = RecordStore::open(&store_dir, StoreConfig::default()).expect("open");
        let mut c = cfg();
        c.oplog_path = Some(oplog_path.clone());
        DedupEngine::new(store, c).expect("engine")
    };
    {
        let mut e = open();
        for (i, rev) in chain.iter().enumerate().take(4) {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
    }
    // A crash tore the last oplog write.
    let len = std::fs::metadata(&oplog_path).expect("oplog").len();
    let file = std::fs::OpenOptions::new().write(true).open(&oplog_path).expect("oplog");
    file.set_len(len - 3).expect("tear");
    {
        let mut e = open();
        assert_eq!(e.oplog_next_lsn(), 3, "the torn entry is cut");
        assert_eq!(e.event_log().of_kind("salvage").len(), 1, "and the cut is reported");
        for (i, rev) in chain.iter().enumerate().skip(4) {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert after reopen");
        }
    }
    let mut e = open();
    assert!(e.event_log().of_kind("salvage").is_empty(), "the second reopen finds nothing");
    let batch = e.take_oplog_batch(usize::MAX);
    let lsns: Vec<u64> = batch.iter().map(|entry| entry.lsn).collect();
    assert_eq!(lsns, (0..7).collect::<Vec<_>>(), "three survivors, then four new entries");
    let after: Vec<RecordId> = batch[3..]
        .iter()
        .map(|entry| match entry.kind {
            OplogKind::Insert { id, .. } => id,
            ref other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(after, (4..8).map(RecordId).collect::<Vec<_>>(), "appended after the reopen");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_preserves_chains() {
    let dir = temp_dir("compact");
    let chain = revision_chain(25, 3);
    let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
    let mut e = DedupEngine::new(store, cfg()).expect("engine");
    for (i, rev) in chain.iter().enumerate() {
        e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
    }
    e.flush_all_writebacks().expect("flush");
    // Writebacks superseded lots of entries; compact and re-verify.
    assert!(e.store().dead_bytes() > 0);
    let mut stats = CompactStats::default();
    loop {
        let step = e.compact_step(u64::MAX, 0.0).expect("compact");
        if step.is_noop() {
            break;
        }
        stats.merge(step);
    }
    assert!(stats.bytes_reclaimed > 0, "compaction should report reclaimed bytes: {stats:?}");
    assert_eq!(e.store().dead_bytes(), 0);
    for (i, rev) in chain.iter().enumerate() {
        assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..], "revision {i}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
