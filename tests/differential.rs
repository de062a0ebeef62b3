//! Differential equivalence harness: the parallel ingest pipeline must
//! be *byte-identical* to serial execution.
//!
//! Seeded workload generators drive (a) a plain serial [`DedupEngine`],
//! (b) a [`ShardedEngine`] fed serially, and (c) [`ParallelIngest`] at
//! worker counts {1, 2, 4, 8} over identical input streams, then compare
//!
//! * raw on-disk segment bytes (`RecordStore::segment_bytes`),
//! * encoded oplog bytes (what replication ships), and
//! * the decision-relevant metric counters (dedup hits, uniques, every
//!   bypass class, stored/original/network byte totals).
//!
//! Timing-independent by construction: whatever interleaving the worker
//! threads produce, the reorder buffer commits in submission order, so a
//! pass here is meaningful on any machine, including single-core CI.
//! Every assertion message carries a `repro:` clause with the seed and
//! worker count that failed.

use dbdedup_core::{
    DedupEngine, EngineConfig, IngestConfig, InsertOutcome, ParallelIngest, ShardedEngine,
};
use dbdedup_util::dist::{LogNormal, SplitMix64};
use dbdedup_util::ids::RecordId;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Fixed seed for the CI `differential-smoke` step.
const SMOKE_SEED: u64 = 0xD1FF;

fn config() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    // Small thresholds so every decision class (dedup, unique, size
    // bypass, governor bypass) fires within a short workload.
    cfg.min_benefit_bytes = 16;
    cfg.filter_refresh_interval = 25;
    cfg.governor_min_inserts = 15;
    cfg
}

/// One seeded workload: a stream of (db, id, payload) inserts mixing
/// dedupable version chains, standalone uniques, tiny records (size
/// filter), and incompressible blobs concentrated on one database so the
/// governor trips deterministically.
fn workload(seed: u64, n: usize) -> Vec<(String, RecordId, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    let dbs = ["users", "orders", "logs"];
    let mut docs: Vec<Vec<u8>> = dbs
        .iter()
        .map(|_| {
            let mut d = Vec::new();
            while d.len() < 7_000 {
                let w = rng.next_u64() % 900;
                d.extend_from_slice(format!("rec{w} field{w} payload chunk. ").as_bytes());
            }
            d
        })
        .collect();
    let burst_len = LogNormal::from_median(64.0, 1.0);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let roll = rng.next_u64() % 100;
        let (db, data) = if roll < 60 {
            // New version of one database's document: a few lognormal
            // edit bursts over the previous version.
            let d = rng.next_index(dbs.len());
            let doc = &mut docs[d];
            for _ in 0..1 + rng.next_index(4) {
                let len = burst_len.sample_clamped(&mut rng, 8, 1024) as usize;
                let at = rng.next_index(doc.len().saturating_sub(len + 1).max(1));
                for b in doc.iter_mut().skip(at).take(len) {
                    *b = (rng.next_u64() % 26 + 97) as u8;
                }
            }
            (dbs[d].to_string(), doc.clone())
        } else if roll < 75 {
            // Standalone unique record (no prior similar content).
            let mut d = Vec::new();
            while d.len() < 2_000 + rng.next_index(3_000) {
                d.extend_from_slice(format!("unique{}-{} ", i, rng.next_u64()).as_bytes());
            }
            (dbs[rng.next_index(dbs.len())].to_string(), d)
        } else if roll < 85 {
            // Tiny record — lands under the size filter's cut-off.
            let len = 8 + rng.next_index(56);
            let d: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
            (dbs[rng.next_index(dbs.len())].to_string(), d)
        } else {
            // Incompressible blob on a dedicated database: its ratio
            // never clears the governor threshold, so dedup gets
            // disabled for "noise" partway through the stream.
            let len = 2_048 + rng.next_index(2_048);
            let d: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            ("noise".to_string(), d)
        };
        out.push((db, RecordId(i as u64), data));
    }
    out
}

/// The decision-relevant counters two equivalent engines must agree on.
fn counters(e: &DedupEngine) -> Vec<(&'static str, u64)> {
    let m = e.metrics();
    vec![
        ("original_bytes", m.original_bytes),
        ("stored_bytes", m.stored_bytes),
        ("stored_uncompressed_bytes", m.stored_uncompressed_bytes),
        ("network_bytes", m.network_bytes),
        ("deduped_inserts", m.deduped_inserts),
        ("unique_inserts", m.unique_inserts),
        ("bypassed_size", m.bypassed_size),
        ("bypassed_governor", m.bypassed_governor),
        ("bypassed_overload", m.bypassed_overload),
    ]
}

fn oplog_bytes(e: &DedupEngine) -> Vec<u8> {
    e.oplog_entries_from(0, usize::MAX)
        .expect("oplog floor is 0 — nothing shipped/acked in these runs")
        .iter()
        .flat_map(|entry| entry.encode())
        .collect()
}

/// Asserts `serial` (ground truth) and one shard of the parallel run are
/// byte-identical. `repro` is appended to every failure message.
fn assert_engines_identical(serial: &mut DedupEngine, parallel: &mut DedupEngine, repro: &str) {
    serial.flush_all_writebacks().expect("serial flush");
    parallel.flush_all_writebacks().expect("parallel flush");
    assert_eq!(counters(serial), counters(parallel), "metric counters diverged — repro: {repro}");
    assert_eq!(oplog_bytes(serial), oplog_bytes(parallel), "oplog bytes diverged — repro: {repro}");
    let a = serial.store().segment_bytes().expect("serial segments");
    let b = parallel.store().segment_bytes().expect("parallel segments");
    assert_eq!(a.len(), b.len(), "segment count diverged — repro: {repro}");
    for (i, (sa, sb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(sa, sb, "segment {i} bytes diverged — repro: {repro}");
    }
}

/// Runs `ops` through a serial engine and through `ParallelIngest` over a
/// single-shard `ShardedEngine` with `workers` workers, then demands
/// byte identity.
fn run_one(seed: u64, workers: usize, ops: &[(String, RecordId, Vec<u8>)]) {
    let repro = format!("seed={seed:#x} workers={workers} (tests/differential.rs)");
    let mut serial = DedupEngine::open_temp(config()).expect("serial engine");
    for (db, id, data) in ops {
        serial.insert(db, *id, data).expect("serial insert");
    }

    let sharded = ShardedEngine::open_temp(config(), 1).expect("sharded engine");
    let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(workers));
    for (db, id, data) in ops {
        ingest.submit(db, *id, data);
    }
    let (parallel, report) = ingest.finish().expect("parallel finish");
    assert_eq!(report.committed, ops.len() as u64, "repro: {repro}");
    assert_eq!(report.degraded_total, 0, "no overload was applied — repro: {repro}");
    parallel.with_shard(0, |shard| assert_engines_identical(&mut serial, shard, &repro));
}

#[test]
fn parallel_matches_serial_across_seeds_and_worker_counts() {
    for seed in [11, 22, 33] {
        let ops = workload(seed, 140);
        for workers in WORKER_SWEEP {
            run_one(seed, workers, &ops);
        }
    }
}

/// Fixed-seed, 4-worker run — the `ci.sh differential-smoke` gate.
#[test]
fn smoke_fixed_seed_four_workers() {
    run_one(SMOKE_SEED, 4, &workload(SMOKE_SEED, 140));
}

/// The workload actually exercises every decision class — otherwise the
/// byte-identity assertions above prove less than they claim.
#[test]
fn workload_covers_all_decision_classes() {
    let ops = workload(SMOKE_SEED, 140);
    let mut e = DedupEngine::open_temp(config()).expect("engine");
    let mut saw = [0u64; 4]; // deduped, unique, size, governor
    for (db, id, data) in &ops {
        match e.insert(db, *id, data).expect("insert") {
            InsertOutcome::Deduped { .. } => saw[0] += 1,
            InsertOutcome::Unique => saw[1] += 1,
            InsertOutcome::BypassedSize => saw[2] += 1,
            InsertOutcome::BypassedGovernor => saw[3] += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(
        saw.iter().all(|&c| c > 0),
        "workload must hit dedup/unique/size-bypass/governor-bypass, got {saw:?}"
    );
}

/// Multi-shard: the sharded engine fed serially vs `ParallelIngest` over
/// an identically-configured sharded engine — every shard byte-identical.
#[test]
fn sharded_parallel_matches_sharded_serial() {
    let seed = 44;
    let shards = 3;
    let ops = workload(seed, 140);
    let repro = format!("seed={seed} workers=4 shards={shards} (tests/differential.rs)");

    let serial = ShardedEngine::open_temp(config(), shards).expect("serial sharded");
    for (db, id, data) in &ops {
        serial.insert(db, *id, data).expect("serial insert");
    }

    let par_engine = ShardedEngine::open_temp(config(), shards).expect("parallel sharded");
    let mut ingest = ParallelIngest::new(par_engine, IngestConfig::with_workers(4));
    for (db, id, data) in &ops {
        ingest.submit(db, *id, data);
    }
    let (parallel, _) = ingest.finish().expect("parallel finish");

    for k in 0..shards {
        serial.with_shard(k, |s| {
            parallel.with_shard(k, |p| {
                assert_engines_identical(s, p, &format!("{repro} shard={k}"));
            })
        });
    }
    // Reads agree end-to-end as well.
    for (_, id, data) in &ops {
        // Later versions overwrite earlier chunks of the same doc content,
        // but ids are unique, so every record must read back exactly.
        assert_eq!(
            &parallel.read(*id).expect("read")[..],
            &data[..],
            "record {id:?} read diverged — repro: {repro}"
        );
    }
}

/// Overload pass-through degradation preserves equivalence: with the
/// replication-pressure gate toggled at a drain barrier, the parallel
/// pipeline (which skips its worker stage while degraded) still matches
/// the serial engine byte for byte.
#[test]
fn overload_pass_through_matches_serial() {
    let seed = 55;
    let ops = workload(seed, 120);
    let half = ops.len() / 2;
    let repro = format!("seed={seed} workers=4 overload (tests/differential.rs)");

    let mut serial = DedupEngine::open_temp(config()).expect("serial engine");
    serial.set_replication_pressure(true);
    for (db, id, data) in &ops[..half] {
        serial.insert(db, *id, data).expect("serial insert");
    }
    serial.set_replication_pressure(false);
    for (db, id, data) in &ops[half..] {
        serial.insert(db, *id, data).expect("serial insert");
    }

    let sharded = ShardedEngine::open_temp(config(), 1).expect("sharded engine");
    sharded.set_replication_pressure(true);
    let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(4));
    for (db, id, data) in &ops[..half] {
        ingest.submit(db, *id, data);
    }
    // Barrier: gate flips are only equivalence-preserving between drains
    // (commits are asynchronous; mid-stream flips would land at a
    // different record index than the serial run's).
    ingest.drain().expect("drain");
    ingest.engine().set_replication_pressure(false);
    for (db, id, data) in &ops[half..] {
        ingest.submit(db, *id, data);
    }
    let (parallel, report) = ingest.finish().expect("parallel finish");
    assert!(
        report.pass_through > 0,
        "first half must run degraded (pass-through) — repro: {repro}"
    );
    // Not all of the first half reports BypassedOverload: raw storage
    // during the overloaded stretch drives every database's compression
    // ratio to 1.0, so the governor starts disabling databases mid-burst
    // (BypassedGovernor) — identically in both engines.
    assert!(
        parallel.metrics().bypassed_overload > 0,
        "overloaded half must shed dedup — repro: {repro}"
    );
    // `pass_through` is a routing gauge; `degraded_total` counts actual
    // overload shedding. Here they're driven by the same burst, and the
    // cumulative counter must agree exactly with the engine's own count.
    assert!(report.degraded_total > 0, "repro: {repro}");
    assert_eq!(
        report.degraded_total,
        parallel.metrics().bypassed_overload,
        "degraded_total must count exactly the overload-shed commits — repro: {repro}"
    );
    parallel.with_shard(0, |shard| assert_engines_identical(&mut serial, shard, &repro));
}
