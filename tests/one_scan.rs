//! One gear scan per record, end to end.
//!
//! The engine scans a new record once — chunk boundaries and delta anchors
//! out of the same pass — hands the anchors to the encoder as the target
//! side and keeps them beside the record in the source cache for when it is
//! next a source. Wherever the anchors come from (this insert's scan, a
//! pipeline worker's, the cache, or a scan on demand because nobody had
//! them), they are the same function of the bytes, so none of these paths
//! may change a byte that is stored or shipped:
//!
//! * serial ≡ 4-worker `ParallelIngest` (anchors travel in the
//!   `PreparedInsert`), over chains long enough for hop-base re-encodes,
//!   where the *new* record's anchors are the source side;
//! * primary ≡ secondary content (a secondary caches records without
//!   anchors and scans on demand);
//! * an engine whose source cache never holds anything (every source is
//!   decoded from the store and scanned on demand) ships the same deltas as
//!   one that always hits;
//! * a store written at one chunk size reopens at another and keeps
//!   ingesting.

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::workloads::wikipedia::revision_chain;
use dbdedup::{
    DedupEngine, EngineConfig, IngestConfig, InsertOutcome, ParallelIngest, RecordId, ReplicaSet,
    ShardedEngine,
};

fn cfg() -> EngineConfig {
    let mut c = EngineConfig::default();
    c.min_benefit_bytes = 16;
    c
}

/// Two interleaved revision chains: sources alternate between cache
/// residents, and both chains grow past the hop distance.
fn interleaved_chains(n: usize) -> Vec<(RecordId, Vec<u8>)> {
    let (a, b) = (revision_chain(n, 71), revision_chain(n, 72));
    a.into_iter()
        .zip(b)
        .flat_map(|(x, y)| [x, y])
        .zip(0u64..)
        .map(|(d, i)| (RecordId(i), d))
        .collect()
}

fn oplog_bytes(e: &DedupEngine) -> Vec<u8> {
    e.oplog_entries_from(0, usize::MAX)
        .expect("nothing shipped or acked: the floor is 0")
        .iter()
        .flat_map(|entry| entry.encode())
        .collect()
}

fn deduped(e: &DedupEngine) -> u64 {
    e.metrics().deduped_inserts
}

#[test]
fn serial_and_four_worker_ingest_commit_identical_bytes() {
    let ops = interleaved_chains(40);
    let mut serial = DedupEngine::open_temp(cfg()).expect("serial");
    for (id, data) in &ops {
        serial.insert("wikipedia", *id, data).expect("serial insert");
    }
    assert!(deduped(&serial) > 60, "the chains must actually deduplicate");

    let sharded = ShardedEngine::open_temp(cfg(), 1).expect("sharded");
    let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(4));
    for (id, data) in &ops {
        ingest.submit("wikipedia", *id, data);
    }
    let (parallel, report) = ingest.finish().expect("finish");
    assert_eq!(report.committed, ops.len() as u64);

    serial.flush_all_writebacks().expect("flush");
    parallel.with_shard(0, |shard| {
        shard.flush_all_writebacks().expect("flush");
        assert_eq!(oplog_bytes(&serial), oplog_bytes(shard), "oplog bytes diverged");
        assert_eq!(
            serial.store().segment_bytes().expect("segments"),
            shard.store().segment_bytes().expect("segments"),
            "segment bytes diverged"
        );
    });
}

#[test]
fn primary_and_secondary_hold_the_same_content() {
    let ops = interleaved_chains(40);
    let mut set = ReplicaSet::open_temp(cfg(), 1).expect("replica set");
    for (i, (id, data)) in ops.iter().enumerate() {
        set.primary.insert("wikipedia", *id, data).expect("insert");
        if i % 8 == 7 {
            set.sync().expect("sync");
        }
    }
    set.sync().expect("sync");
    set.flush_all().expect("flush");
    for (id, data) in &ops {
        let want = set.primary.content_checksum(*id).expect("primary checksum");
        assert_eq!(set.secondaries[0].content_checksum(*id).expect("secondary checksum"), want);
        assert_eq!(&set.secondaries[0].read(*id).expect("secondary read")[..], &data[..]);
    }
    // The secondary regenerated the same backward deltas, hop bases
    // included, from records it had never scanned.
    assert_eq!(
        set.primary.store().stored_payload_bytes(),
        set.secondaries[0].store().stored_payload_bytes()
    );
}

#[test]
fn a_source_cache_miss_ships_the_same_delta_as_a_hit() {
    // No cache reward, so both engines select the same sources; one keeps
    // every chain head (and its anchors) cached, the other caches nothing
    // and must decode and scan every source on demand.
    let config = |source_cache_bytes: usize| {
        let mut c = cfg();
        c.cache_reward = 0;
        c.source_cache_bytes = source_cache_bytes;
        c
    };
    let ops = interleaved_chains(40);
    let mut hits = DedupEngine::open_temp(config(32 << 20)).expect("hits");
    let mut misses = DedupEngine::open_temp(config(0)).expect("misses");
    for (id, data) in &ops {
        let a = hits.insert("wikipedia", *id, data).expect("insert");
        let b = misses.insert("wikipedia", *id, data).expect("insert");
        assert_eq!(a, b, "record {id}: outcome depends on where the source's anchors came from");
    }
    assert!(deduped(&hits) > 60);
    let (h, m) = (hits.metrics().source_cache, misses.metrics().source_cache);
    // (A hop base is released from the cache once upgraded, so the rare
    // later encode against one misses even here.)
    assert!(h.hits > 60 && h.misses < 6, "the cached engine must nearly always hit: {h:?}");
    assert!(m.hits == 0 && m.misses > 60, "the cacheless engine must always miss: {m:?}");
    assert_eq!(oplog_bytes(&hits), oplog_bytes(&misses), "forward deltas diverged");
    hits.flush_all_writebacks().expect("flush");
    misses.flush_all_writebacks().expect("flush");
    assert_eq!(
        hits.store().segment_bytes().expect("segments"),
        misses.store().segment_bytes().expect("segments"),
        "backward deltas diverged"
    );
}

/// Chunking only feeds the sketch, and sketches live in the in-memory
/// index: a store written at a 256-byte average chunk reopens at the
/// default 1 KiB, its chains still decode and new records still dedup.
#[test]
fn a_store_written_at_one_chunk_size_keeps_ingesting_at_another() {
    let dir = std::env::temp_dir().join(format!("dbdedup-it-one-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chain = revision_chain(36, 73);
    let (old, new) = chain.split_at(20);
    {
        let mut small = cfg();
        small.chunk_avg_size = 256;
        let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
        let mut e = DedupEngine::new(store, small).expect("engine");
        for (i, rev) in old.iter().enumerate() {
            e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
        }
        assert!(deduped(&e) >= 15);
        e.flush_all_writebacks().expect("flush");
    }
    assert_eq!(cfg().chunk_avg_size, 1024);
    let store = RecordStore::open(&dir, StoreConfig::default()).expect("recover");
    let mut e = DedupEngine::new(store, cfg()).expect("engine");
    let mut outcomes = Vec::new();
    for (i, rev) in new.iter().enumerate() {
        let id = RecordId((old.len() + i) as u64);
        outcomes.push(e.insert("wikipedia", id, rev).expect("insert at the default chunk size"));
    }
    // The index is in memory, so the first revision after the reopen finds
    // nothing similar whatever the chunk size; from then on revisions
    // sketched at 1 KiB find each other.
    assert_eq!(outcomes[0], InsertOutcome::Unique);
    let found = outcomes.iter().filter(|o| matches!(o, InsertOutcome::Deduped { .. })).count();
    assert!(found >= 12, "only {found} of {} later revisions deduplicated", outcomes.len() - 1);
    e.flush_all_writebacks().expect("flush");
    // Chains written at 256 B decode; so do the new ones.
    for (i, rev) in chain.iter().enumerate() {
        assert_eq!(&e.read(RecordId(i as u64)).expect("read")[..], &rev[..], "revision {i}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
