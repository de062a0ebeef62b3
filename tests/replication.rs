//! Replication integration: forward-encoded shipping, secondary
//! re-encoding, convergence under mixed mutations, resuming after a
//! transient secondary fault.

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::workloads::{standard_suite, Op};
use dbdedup::{
    DedupEngine, EngineConfig, FaultInjector, FaultKind, FaultPlan, RecordId, ReplicaSet,
};
use std::sync::Arc;

fn cfg() -> EngineConfig {
    let mut c = EngineConfig::default();
    c.min_benefit_bytes = 16;
    c
}

#[test]
fn all_workloads_converge() {
    for mut wl in standard_suite(120, 7) {
        let mut set = ReplicaSet::open_temp(cfg(), 1).expect("replica set");
        let db = wl.db();
        let mut ids = Vec::new();
        for op in &mut wl {
            if let Op::Insert { id, data } = op {
                set.primary.insert(db, id, &data).expect("insert");
                ids.push(id);
            }
        }
        set.sync().expect("sync");
        set.flush_all().expect("flush");
        for id in ids {
            assert_eq!(
                &set.primary.read(id).unwrap()[..],
                &set.secondaries[0].read(id).unwrap()[..],
                "{}: record {id} diverged",
                wl.name()
            );
        }
        assert_eq!(
            set.primary.store().stored_payload_bytes(),
            set.secondaries[0].store().stored_payload_bytes(),
            "{}: storage footprints must converge",
            wl.name()
        );
    }
}

#[test]
fn network_savings_mirror_storage_savings() {
    // Fig 11: the two ratios are within a few percent of each other.
    let mut set = ReplicaSet::open_temp(cfg(), 1).expect("replica set");
    let mut wl = standard_suite(200, 8).into_iter().next().expect("wikipedia");
    let mut original = 0u64;
    for op in &mut *wl {
        if let Op::Insert { id, data } = op {
            original += data.len() as u64;
            set.primary.insert("wikipedia", id, &data).expect("insert");
        }
    }
    set.sync().expect("sync");
    set.flush_all().expect("flush");
    let storage = original as f64 / set.primary.store().stored_payload_bytes() as f64;
    let network = original as f64 / set.total_network_bytes() as f64;
    assert!(storage > 3.0 && network > 3.0, "storage {storage:.1} network {network:.1}");
    let gap = (1.0 - storage / network).abs();
    assert!(gap < 0.25, "storage-vs-network gap too large: {gap:.2}");
}

#[test]
fn interleaved_sync_and_mutation() {
    let mut set = ReplicaSet::open_temp(cfg(), 1).expect("replica set");
    let mut wl = standard_suite(100, 9).into_iter().next().expect("wikipedia");
    let mut ids = Vec::new();
    for (k, op) in (&mut *wl).enumerate() {
        if let Op::Insert { id, data } = op {
            set.primary.insert("wikipedia", id, &data).expect("insert");
            ids.push(id);
            if k % 7 == 0 {
                set.sync().expect("sync");
            }
            if k % 13 == 0 && ids.len() > 2 {
                let victim = ids[ids.len() / 2];
                if set.primary.read(victim).is_ok() {
                    set.primary.delete(victim).expect("delete");
                }
            }
        }
    }
    set.sync().expect("sync");
    set.flush_all().expect("flush");
    for id in ids {
        match set.primary.read(id) {
            Ok(content) => assert_eq!(&set.secondaries[0].read(id).unwrap()[..], &content[..]),
            Err(_) => {
                assert!(set.secondaries[0].read(id).is_err(), "{id} deleted on one side only")
            }
        }
    }
}

/// A secondary store error partway through a batch: the first `sync`
/// fails after two entries applied, and the next resumes at the failed
/// entry instead of re-applying the batch from its start.
#[test]
fn transient_secondary_fault_mid_batch_resumes_from_the_applied_cursor() {
    // Write 0 is the segment header, so write 3 is the third record.
    let faults = Arc::new(FaultInjector::new(FaultPlan::new().fault_at(3, FaultKind::IoError)));
    let store = RecordStore::open_temp(StoreConfig {
        fault: Some(Arc::clone(&faults)),
        ..Default::default()
    })
    .expect("secondary store");
    let secondary = DedupEngine::new(store, cfg()).expect("secondary");
    let primary = DedupEngine::open_temp(cfg()).expect("primary");
    let mut set = ReplicaSet::new(primary, vec![secondary]);
    // Unrelated records: every entry is a raw insert.
    let mut rng = SplitMix64::new(35);
    for i in 0..8u64 {
        let doc: Vec<u8> = (0..3_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
        set.primary.insert("raw", RecordId(i), &doc).expect("insert");
    }
    assert!(set.sync().is_err(), "the injected store error surfaces");
    assert_eq!(set.secondaries[0].store().len(), 2, "two entries applied before the fault");
    set.sync().expect("the retry resumes at the failed entry");
    set.flush_all().expect("flush");
    for i in 0..8u64 {
        let want = set.primary.read(RecordId(i)).unwrap();
        assert_eq!(&set.secondaries[0].read(RecordId(i)).unwrap()[..], &want[..], "record {i}");
    }
    // No entry applied twice: the secondary counted each insert once.
    let (p, s) = (set.primary.metrics(), set.secondaries[0].metrics());
    assert_eq!((s.unique_inserts, s.original_bytes), (8, 24_000));
    assert_eq!((p.unique_inserts, p.original_bytes), (s.unique_inserts, s.original_bytes));
}

#[test]
fn secondary_serves_reads_of_old_versions() {
    let mut set = ReplicaSet::open_temp(cfg(), 1).expect("replica set");
    let chain = dbdedup::workloads::wikipedia::revision_chain(40, 11);
    for (i, rev) in chain.iter().enumerate() {
        set.primary.insert("wikipedia", RecordId(i as u64), rev).expect("insert");
    }
    set.sync().expect("sync");
    set.flush_all().expect("flush");
    // Time-travel reads on the secondary.
    for (i, rev) in chain.iter().enumerate() {
        assert_eq!(&set.secondaries[0].read(RecordId(i as u64)).unwrap()[..], &rev[..]);
    }
}
