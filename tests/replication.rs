//! Replication integration: forward-encoded shipping, secondary
//! re-encoding, convergence under mixed mutations, async pipeline.

use dbdedup::repl::{AsyncReplicator, ShipOutcome};
use dbdedup::workloads::{standard_suite, Op};
use dbdedup::{DedupEngine, EngineConfig, RecordId, ReplicaSet};

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

#[test]
fn async_replicator_under_load() {
    let mut primary = DedupEngine::open_temp(cfg()).expect("engine");
    let secondary = DedupEngine::open_temp(cfg()).expect("engine");
    let repl = AsyncReplicator::spawn(secondary, 4);
    let mut wl = standard_suite(150, 10).into_iter().nth(1).expect("enron");
    let mut ids = Vec::new();
    for op in &mut *wl {
        if let Op::Insert { id, data } = op {
            primary.insert("enron", id, &data).expect("insert");
            ids.push(id);
            let batch = primary.take_oplog_batch(32 << 10);
            // A full queue surfaces as Backpressured with the batch still
            // ours; block until the apply thread makes room.
            let outcome = repl.ship_with_deadline(&batch, std::time::Duration::from_secs(30), id.0);
            assert_eq!(outcome, ShipOutcome::Enqueued, "ship refused under load");
        }
    }
    let tail = primary.take_oplog_batch(usize::MAX);
    let outcome = repl.ship_with_deadline(&tail, std::time::Duration::from_secs(30), 0);
    assert_eq!(outcome, ShipOutcome::Enqueued);
    assert_eq!(repl.apply_errors(), 0, "apply error: {:?}", repl.last_error());
    let mut secondary = repl.join().expect("join");
    primary.flush_all_writebacks().expect("flush");
    secondary.flush_all_writebacks().expect("flush");
    for id in ids {
        assert_eq!(&primary.read(id).unwrap()[..], &secondary.read(id).unwrap()[..]);
    }
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
