//! One update rule on every node: an update moves the records that decode
//! through it onto its own base, then writes its new content raw in place.
//! Whether a node's write-back flushes had made the record a decode base
//! must not change what any node stores, ships or reads, before or after a
//! clean close.

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::{DedupEngine, EncodingPolicy, EngineConfig, InsertOutcome, RecordId, ReplicaSet};
use std::path::{Path, PathBuf};

fn cfg() -> EngineConfig {
    let mut c = EngineConfig::default();
    c.min_benefit_bytes = 16;
    c
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbdedup-update-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> DedupEngine {
    DedupEngine::new(RecordStore::open(dir, StoreConfig::default()).unwrap(), cfg()).unwrap()
}

/// Four versions of one document of about `len` lower-case bytes, each
/// with five 40-byte runs of the last replaced by 30 to 50 fresh bytes, so
/// that an offset into one version addresses other bytes in the next.
fn versions(seed: u64, len: usize) -> [Vec<u8>; 4] {
    fn letters(n: u64, rng: &mut SplitMix64) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() % 26 + 97) as u8).collect()
    }
    let mut rng = SplitMix64::new(seed);
    let mut doc = letters(len as u64, &mut rng);
    std::array::from_fn(|i| {
        if i > 0 {
            for _ in 0..5 {
                let at = rng.next_below((doc.len() - 40) as u64) as usize;
                let n = 30 + rng.next_below(21);
                doc.splice(at..at + 40, letters(n, &mut rng));
            }
        }
        doc.clone()
    })
}

/// Asserts that every node of `set` reads `want` for each of its records.
fn assert_reads(set: &mut ReplicaSet, want: &[(u64, &[u8])], ctx: &str) {
    for &(id, data) in want {
        let id = RecordId(id);
        let got = set.primary.read(id).unwrap_or_else(|e| panic!("{ctx}: primary {id}: {e}"));
        assert!(got[..] == data[..], "{ctx}: primary record {id}");
        for (k, sec) in set.secondaries.iter_mut().enumerate() {
            let got = sec.read(id).unwrap_or_else(|e| panic!("{ctx}: secondary {k} {id}: {e}"));
            assert!(got[..] == data[..], "{ctx}: secondary {k} record {id}");
        }
    }
}

/// Record 2 is a decode base on the primary, whose write-back has flushed,
/// and not on the secondary, whose write-back has not (short documents of
/// some seeds do not deduplicate at all). Record 2 is updated, and record
/// 3, an edit of its new content, is inserted. When the primary picks 2 as
/// 3's source, the secondary applies 3's forward delta against its own
/// copy of 2: both nodes must hold the same new content for 2.
#[test]
fn an_update_of_a_base_only_the_primary_has_committed_reads_the_same_everywhere() {
    // Backward encoding: no hop base stays cached to outbid record 2.
    let backward = EngineConfig { encoding: EncodingPolicy::Backward, ..cfg() };
    let mut reached = 0;
    for seed in 0..32u64 {
        let [v0, v1, v2, v3] = versions(seed, 3_000 + 250 * seed as usize);
        let ctx = format!("seed {seed}");
        let mut set = ReplicaSet::open_temp(backward.clone(), 1).unwrap();
        set.primary.insert("db", RecordId(1), &v0).unwrap();
        set.primary.insert("db", RecordId(2), &v1).unwrap();
        set.sync().unwrap();
        set.primary.flush_all_writebacks().unwrap();
        assert_eq!(set.secondaries[0].chains().refcount(RecordId(2)), 0, "{ctx}");
        let base_on_primary = set.primary.chains().refcount(RecordId(2)) == 1;
        set.primary.update(RecordId(2), &v2).unwrap();
        let out = set.primary.insert("db", RecordId(3), &v3).unwrap();
        if base_on_primary && matches!(out, InsertOutcome::Deduped { source: RecordId(2), .. }) {
            reached += 1;
        }
        set.sync().unwrap_or_else(|e| panic!("{ctx}: secondary apply: {e}"));
        set.flush_all().unwrap();
        assert_reads(&mut set, &[(1, &v0), (2, &v2), (3, &v3)], &ctx);
    }
    assert!(reached >= 16, "only {reached} of 32 seeds encoded 3 against the updated 2");
}

/// The update of a decode base is on disk at once, so a clean close keeps
/// it, and the record it moved keeps its own content.
#[test]
fn an_update_of_a_decode_base_survives_a_clean_close() {
    let dir = temp_dir("reopen");
    let [v0, v1, v2, _] = versions(0x5EED, 6_000);
    {
        let mut e = open(&dir);
        e.insert("db", RecordId(1), &v0).unwrap();
        e.insert("db", RecordId(2), &v1).unwrap();
        e.flush_all_writebacks().unwrap();
        assert_eq!(e.chains().refcount(RecordId(2)), 1, "record 1 decodes through 2");
        e.update(RecordId(2), &v2).unwrap();
    }
    let mut e = open(&dir);
    assert!(e.read(RecordId(2)).unwrap()[..] == v2[..], "the update is lost");
    assert!(e.read(RecordId(1)).unwrap()[..] == v0[..], "the moved record changed");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pair over caller-owned stores sees an update of a decode base, closes
/// and reopens, and keeps replicating on top of the updated record.
#[test]
fn a_pair_reopened_after_an_update_of_a_decode_base_still_converges() {
    let (pdir, sdir) = (temp_dir("pair-primary"), temp_dir("pair-secondary"));
    let [v0, v1, v2, v3] = versions(0xFA12, 8_000);
    {
        let mut set = ReplicaSet::new(open(&pdir), vec![open(&sdir)]);
        set.primary.insert("db", RecordId(1), &v0).unwrap();
        set.primary.insert("db", RecordId(2), &v1).unwrap();
        set.sync().unwrap();
        set.primary.flush_all_writebacks().unwrap();
        set.primary.update(RecordId(2), &v2).unwrap();
        set.sync().unwrap();
        assert_reads(&mut set, &[(1, &v0), (2, &v2)], "before the close");
    }
    let mut set = ReplicaSet::new(open(&pdir), vec![open(&sdir)]);
    assert_reads(&mut set, &[(1, &v0), (2, &v2)], "after the reopen");
    // The links start again at LSN 0, where the reopened in-memory oplog
    // does.
    set.primary.insert("db", RecordId(3), &v3).unwrap();
    set.sync().unwrap();
    set.flush_all().unwrap();
    assert_reads(&mut set, &[(1, &v0), (2, &v2), (3, &v3)], "after more replication");
    drop(set);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
}
