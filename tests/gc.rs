//! Garbage collection and reference-count semantics (§4.1), exercised
//! hard: deletes at every chain position, cascades, updates of decode
//! bases, and reads that must keep working through it all.

use dbdedup::workloads::wikipedia::revision_chain;
use dbdedup::{DedupEngine, EncodingPolicy, EngineConfig, RecordId};

fn engine() -> DedupEngine {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    // Backward encoding gives a fully linear chain — the worst case for GC.
    cfg.encoding = EncodingPolicy::Backward;
    DedupEngine::open_temp(cfg).expect("engine")
}

fn build(n: usize, seed: u64) -> (DedupEngine, Vec<Vec<u8>>) {
    let chain = revision_chain(n, seed);
    let mut e = engine();
    for (i, rev) in chain.iter().enumerate() {
        e.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
    }
    e.flush_all_writebacks().expect("flush");
    (e, chain)
}

#[test]
fn delete_every_position_one_at_a_time() {
    // Delete records one by one from the oldest end; survivors must always
    // decode, and deleted records must eventually be physically collected.
    let n = 12;
    let (mut e, chain) = build(n, 1);
    for victim in 0..n as u64 - 1 {
        e.delete(RecordId(victim)).expect("delete");
        assert!(e.read(RecordId(victim)).is_err());
        // Survivors still read correctly (their decode paths may pass
        // through the deleted record until GC splices it out).
        for i in victim + 1..n as u64 {
            assert_eq!(
                &e.read(RecordId(i)).unwrap()[..],
                &chain[i as usize][..],
                "survivor {i} after deleting {victim}"
            );
        }
    }
    // Only the head remains; repeated reads have GC'd the rest.
    for _ in 0..n {
        let _ = e.read(RecordId(n as u64 - 1));
    }
    assert_eq!(e.store().len(), 1, "all deleted records collected");
}

#[test]
fn delete_newest_first_cascades() {
    // Deleting from the head inward: each head has refcount 1 (its
    // predecessor decodes through it), so it lingers until the reader-side
    // GC splices. Delete in reverse and confirm the chain stays sound.
    let n = 8;
    let (mut e, chain) = build(n, 2);
    for victim in (1..n as u64).rev() {
        e.delete(RecordId(victim)).expect("delete");
        // All older records still decode.
        for i in 0..victim {
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &chain[i as usize][..]);
        }
    }
    assert_eq!(&e.read(RecordId(0)).unwrap()[..], &chain[0][..]);
}

#[test]
fn delete_middle_then_read_ends() {
    let (mut e, chain) = build(9, 3);
    for victim in [3u64, 4, 5] {
        e.delete(RecordId(victim)).expect("delete");
    }
    // Repeated reads of the oldest record splice the deleted run out.
    for _ in 0..8 {
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &chain[0][..]);
    }
    for victim in [3u64, 4, 5] {
        assert!(!e.store().contains(RecordId(victim)), "record {victim} collected");
    }
    assert!(e.metrics().gc_spliced >= 3);
}

#[test]
fn update_of_a_decode_base_moves_its_dependent_off_it() {
    let (mut e, chain) = build(4, 4);
    // Record 3 (head) is record 2's decode base. The update stores record 2
    // raw (3 ended the chain) and then record 3's new content in place.
    e.update(RecordId(3), b"brand new head content").expect("update");
    assert_eq!(e.chains().refcount(RecordId(3)), 0);
    assert_eq!(e.retrievals_for(RecordId(2)), Some(0));
    assert_eq!(&e.read(RecordId(3)).unwrap()[..], b"brand new head content");
    assert_eq!(&e.read(RecordId(2)).unwrap()[..], &chain[2][..], "old content still decodes");
    // Deleting the moved record and collecting it leaves the update alone.
    e.delete(RecordId(2)).expect("delete");
    for _ in 0..6 {
        let _ = e.read(RecordId(0));
        let _ = e.read(RecordId(1));
    }
    assert_eq!(&e.read(RecordId(3)).unwrap()[..], b"brand new head content");
    // Remaining older records survive it all.
    assert_eq!(&e.read(RecordId(0)).unwrap()[..], &chain[0][..]);
}

#[test]
fn delete_all_records() {
    let n = 6;
    let (mut e, _) = build(n, 5);
    for i in 0..n as u64 {
        e.delete(RecordId(i)).expect("delete");
    }
    for i in 0..n as u64 {
        assert!(e.read(RecordId(i)).is_err());
    }
    // With nothing readable, lingering tombstoned content is bounded by
    // what refcounts require; inserting fresh data still works.
    e.insert("wikipedia", RecordId(100), b"a fresh start with enough bytes to chunk")
        .expect("insert");
    assert_eq!(&e.read(RecordId(100)).unwrap()[..], b"a fresh start with enough bytes to chunk");
}

#[test]
fn hop_encoding_gc_interplay() {
    // GC across hop lanes: deleting a hop base must not break records that
    // decode through it.
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg.encoding = EncodingPolicy::Hop { distance: 4, max_levels: 2 };
    let chain = revision_chain(20, 6);
    let mut e = DedupEngine::new(
        dbdedup::storage::store::RecordStore::open_temp(Default::default()).unwrap(),
        cfg,
    )
    .unwrap();
    for (i, rev) in chain.iter().enumerate() {
        e.insert("wikipedia", RecordId(i as u64), rev).unwrap();
        e.flush_all_writebacks().unwrap();
    }
    // Record 8 is a hop base (others decode through it). Delete it.
    e.delete(RecordId(8)).expect("delete");
    for (i, rev) in chain.iter().enumerate() {
        if i == 8 {
            assert!(e.read(RecordId(8)).is_err());
        } else {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &rev[..], "revision {i}");
        }
    }
}
