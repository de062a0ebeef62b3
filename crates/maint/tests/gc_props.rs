//! Property sweeps for the maintenance tier: random insert/update/delete
//! churn followed by a full quiesce must leave (1) every live read
//! byte-identical to a shadow map, (2) no tombstoned payload bytes
//! anywhere in the segment files, and (3) the chain bookkeeping
//! self-consistent. A crash sweep proves maintenance is interruptible at
//! every write without losing live records, and a second sweep does the
//! same for torn writes and transient I/O errors — which, now that
//! compaction appends a run of frames per write, land inside runs.

use dbdedup_core::{DedupEngine, EngineConfig, EngineError};
use dbdedup_maint::{MaintConfig, Maintainer};
use dbdedup_storage::store::{RecordStore, StoreConfig};
use dbdedup_storage::{FaultInjector, FaultKind, FaultPlan};
use dbdedup_util::dist::SplitMix64;
use dbdedup_util::ids::RecordId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbdedup-maintp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg
}

fn mutate(doc: &mut [u8], rng: &mut SplitMix64) {
    for _ in 0..4 {
        let at = rng.next_index(doc.len().saturating_sub(60).max(1));
        for b in doc.iter_mut().skip(at).take(48) {
            *b = (rng.next_u64() % 26 + 97) as u8;
        }
    }
}

/// Drives seeded churn against `e`, mirroring every operation into a
/// shadow map. Returns (shadow of live records, ids ever deleted).
fn churn(e: &mut DedupEngine, seed: u64, rounds: usize) -> (BTreeMap<u64, Vec<u8>>, Vec<u64>) {
    let mut rng = SplitMix64::new(seed);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut deleted: Vec<u64> = Vec::new();
    let mut doc: Vec<u8> = (0..8_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
    let mut next_id = 0u64;
    for _ in 0..rounds {
        match rng.next_u64() % 10 {
            // Deletes and updates each ~20% once a population exists.
            0 | 1 if shadow.len() > 4 => {
                let keys: Vec<u64> = shadow.keys().copied().collect();
                let victim = keys[rng.next_index(keys.len())];
                e.delete(RecordId(victim)).expect("delete");
                shadow.remove(&victim);
                deleted.push(victim);
            }
            2 | 3 if !shadow.is_empty() => {
                let keys: Vec<u64> = shadow.keys().copied().collect();
                let target = keys[rng.next_index(keys.len())];
                let mut new = shadow[&target].clone();
                mutate(&mut new, &mut rng);
                e.update(RecordId(target), &new).expect("update");
                shadow.insert(target, new);
            }
            _ => {
                mutate(&mut doc, &mut rng);
                e.insert("db", RecordId(next_id), &doc).expect("insert");
                shadow.insert(next_id, doc.clone());
                next_id += 1;
            }
        }
    }
    (shadow, deleted)
}

/// Chain bookkeeping must agree with itself: every tracked record's
/// refcount equals its observed dependent count.
fn assert_chain_invariants(e: &DedupEngine) {
    let chains = e.chains();
    for id in chains.tracked_ids() {
        assert_eq!(
            chains.refcount(id) as usize,
            chains.dependents_of(id).len(),
            "refcount mismatch for {id:?}"
        );
        if let Some(base) = chains.base_of(id) {
            assert!(
                chains.tracked_ids().contains(&base),
                "{id:?} points at untracked base {base:?}"
            );
        }
    }
}

fn assert_matches_shadow(e: &mut DedupEngine, shadow: &BTreeMap<u64, Vec<u8>>, deleted: &[u64]) {
    for (&id, data) in shadow {
        assert_eq!(&e.read(RecordId(id)).unwrap()[..], &data[..], "record {id}");
    }
    for &id in deleted {
        if shadow.contains_key(&id) {
            continue; // id re-inserted after deletion never happens (ids are unique)
        }
        assert!(
            matches!(e.read(RecordId(id)), Err(EngineError::NotFound(_))),
            "deleted record {id} must stay gone"
        );
    }
}

#[test]
fn churn_then_quiesce_preserves_every_live_read() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE, 0xD00D] {
        let mut e = DedupEngine::open_temp(engine_cfg()).expect("engine");
        let (shadow, deleted) = churn(&mut e, seed, 300);
        e.flush_all_writebacks().expect("flush");
        let mut m = Maintainer::new(MaintConfig::default());
        let report = m.run_until_quiesced(&mut e).expect("quiesce");
        assert!(m.quiesced(&e), "seed {seed:#x}: {report:?}");
        assert!(report.skipped_broken.is_empty(), "seed {seed:#x}");
        assert_eq!(e.pinned_dead_bytes(), 0, "seed {seed:#x}");
        assert_eq!(e.reclaimable_dead_bytes(), 0, "seed {seed:#x}");
        assert_matches_shadow(&mut e, &shadow, &deleted);
        assert_chain_invariants(&e);
        let snap = e.metrics();
        assert_eq!(snap.maint_gc_backlog, 0, "seed {seed:#x}");
        assert_eq!(snap.maint_pinned_dead_bytes, 0, "seed {seed:#x}");
    }
}

#[test]
fn quiesce_under_tiny_budgets_matches_unbudgeted_result() {
    let mut small = DedupEngine::open_temp(engine_cfg()).expect("engine");
    let (shadow, deleted) = churn(&mut small, 0x5EED, 250);
    small.flush_all_writebacks().expect("flush");
    let mut cfg = MaintConfig::default();
    cfg.compact_budget_bytes = 1024; // pathological budget: many tiny steps
    cfg.gc_per_tick = 1;
    let mut m = Maintainer::new(cfg);
    m.run_until_quiesced(&mut small).expect("quiesce");
    assert!(m.quiesced(&small));
    assert_matches_shadow(&mut small, &shadow, &deleted);
    assert_chain_invariants(&small);
}

fn read_all_segments(dir: &Path) -> Vec<u8> {
    let mut all = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dirent").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dat"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no segment files under {dir:?}");
    for p in entries {
        all.extend(std::fs::read(&p).expect("read segment"));
    }
    all
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// After quiescing, not one payload byte of a tombstoned record may
/// survive anywhere in the segment files — the paper-level guarantee
/// that deletion eventually means deletion, even for records pinned as
/// decode bases. (Block compression is off by default, so payloads land
/// on disk verbatim and a byte scan is conclusive.)
#[test]
fn quiesce_scrubs_tombstoned_payload_bytes_from_disk() {
    let dir = temp_dir("scrub");
    let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
    let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");

    // Ten versions sharing a body; each version carries a unique sentinel
    // tag at a fixed offset (so no tag ever leaks into a neighbor's
    // content or delta literals).
    let mut rng = SplitMix64::new(0x7A65_0515);
    let mut body: Vec<u8> = (0..9_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
    let tag = |i: u64| format!("@@TOMBSTONE-{i:06}@@").into_bytes();
    let mut docs = Vec::new();
    for i in 0..10u64 {
        mutate(&mut body, &mut rng);
        let mut doc = tag(i);
        doc.extend_from_slice(&body);
        e.insert("db", RecordId(i), &doc).expect("insert");
        docs.push(doc);
    }
    e.flush_all_writebacks().expect("flush");

    let doomed = [2u64, 5, 8];
    for &i in &doomed {
        e.delete(RecordId(i)).expect("delete");
    }
    // Sanity: before maintenance, the deleted payloads are still on disk
    // (superseded frames and pinned chain members) — so the scan below is
    // actually capable of detecting a leak.
    let before = read_all_segments(&dir);
    for &i in &doomed {
        assert!(contains(&before, &tag(i)), "pre-quiesce sanity: tag {i} should be on disk");
    }

    let mut m = Maintainer::new(MaintConfig::default());
    m.run_until_quiesced(&mut e).expect("quiesce");
    assert!(m.quiesced(&e));

    let after = read_all_segments(&dir);
    for &i in &doomed {
        assert!(!contains(&after, &tag(i)), "tombstoned payload {i} survived on disk");
    }
    // Live records are still fully there (the head is raw on disk).
    assert!(contains(&after, &tag(9)), "live head payload must remain");
    for i in 0..10u64 {
        if doomed.contains(&i) {
            continue;
        }
        assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash maintenance at every early write op: recovery must reopen clean,
/// lose no live record, and a fresh maintainer must still quiesce.
#[test]
fn crash_mid_maintenance_loses_no_live_records() {
    for k in 0..24u64 {
        let dir = temp_dir(&format!("crash-{k}"));
        let (shadow, deleted) = {
            let store = RecordStore::open(&dir, StoreConfig::default()).expect("open");
            let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");
            let (shadow, deleted) = churn(&mut e, 0xCAFE + k, 150);
            e.flush_all_writebacks().expect("flush");
            (shadow, deleted)
        };
        // Reopen with a crash scripted at maintenance write op `k`; the
        // zombie store swallows that write and everything after it.
        {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(k)));
            let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
            let store = RecordStore::open(&dir, cfg).expect("open faulted");
            let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");
            // Deletion marks are not durable on their own; re-issue them as
            // a recovery driver would replay its log.
            for &id in &deleted {
                let _ = e.delete(RecordId(id));
            }
            let mut m = Maintainer::new(MaintConfig::default());
            // The crash may surface as an error or silently-dropped writes;
            // either way the process "dies" here.
            let _ = m.run_until_quiesced(&mut e);
        }
        // Restart: salvage recovery must yield a store where every live
        // record reads byte-identical, and maintenance can finish its job.
        let store = RecordStore::open(&dir, StoreConfig::default())
            .unwrap_or_else(|e| panic!("crash at {k}: reopen failed: {e}"));
        let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");
        for &id in &deleted {
            let _ = e.delete(RecordId(id));
        }
        let mut m = Maintainer::new(MaintConfig::default());
        m.run_until_quiesced(&mut e).expect("post-crash quiesce");
        assert!(m.quiesced(&e), "crash at {k}");
        assert_matches_shadow(&mut e, &shadow, &deleted);
        assert_chain_invariants(&e);
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("dirent").path();
        std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy");
    }
}

fn open_engine(dir: &Path, fault: Option<Arc<FaultInjector>>, deleted: &[u64]) -> DedupEngine {
    let cfg = StoreConfig { fault, ..Default::default() };
    let store = RecordStore::open(dir, cfg).expect("open");
    let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");
    // Deletion marks are not durable on their own; re-issue them as a
    // recovery driver would replay its log.
    for &id in deleted {
        let _ = e.delete(RecordId(id));
    }
    e
}

/// Maintenance writes that tear (mid-header, mid-frame) or fail outright:
/// a torn write is a crash, and the reopened store must read every live
/// record; a failed write is not, and the *same* engine must go on to
/// quiesce with every live record intact — a compaction run whose write
/// failed left the directory pointing at the victim.
#[test]
fn torn_or_failed_write_mid_maintenance_loses_no_live_records() {
    let template = temp_dir("faults-template");
    let (shadow, deleted) = {
        let store = RecordStore::open(&template, StoreConfig::default()).expect("open");
        let mut e = DedupEngine::new(store, engine_cfg()).expect("engine");
        let (shadow, deleted) = churn(&mut e, 0xFA17, 100);
        e.flush_all_writebacks().expect("flush");
        (shadow, deleted)
    };
    // A clean pass sizes the sweep, and shows that compaction's writes do
    // carry several frames each here.
    let ops = {
        let dir = temp_dir("faults-probe");
        copy_dir(&template, &dir);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let mut e = open_engine(&dir, Some(Arc::clone(&inj)), &deleted);
        let entries = e.store().io_stats().writes;
        Maintainer::new(MaintConfig::default()).run_until_quiesced(&mut e).expect("quiesce");
        let (ops, entries) = (inj.writes_seen(), e.store().io_stats().writes - entries);
        assert!(entries > ops, "{entries} frames and headers in {ops} writes");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
        ops
    };
    let kinds = [
        FaultKind::ShortWrite { keep: 9 },
        FaultKind::ShortWrite { keep: 3000 },
        FaultKind::IoError,
    ];
    for k in (0..ops).step_by((ops as usize / 6).max(1)) {
        for kind in kinds {
            let at = format!("{kind:?} at write {k}");
            let dir = temp_dir("faults-run");
            copy_dir(&template, &dir);
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().fault_at(k, kind)));
            {
                let mut e = open_engine(&dir, Some(Arc::clone(&inj)), &deleted);
                let mut m = Maintainer::new(MaintConfig::default());
                let first = m.run_until_quiesced(&mut e);
                if kind == FaultKind::IoError {
                    assert!(first.is_err(), "{at}: the error must surface");
                    assert!(!inj.crashed());
                    m.run_until_quiesced(&mut e).unwrap_or_else(|e| panic!("{at}: retry: {e}"));
                    assert!(m.quiesced(&e), "{at}");
                    assert_matches_shadow(&mut e, &shadow, &deleted);
                    assert_chain_invariants(&e);
                }
            }
            let mut e = open_engine(&dir, None, &deleted);
            let mut m = Maintainer::new(MaintConfig::default());
            m.run_until_quiesced(&mut e)
                .unwrap_or_else(|e| panic!("{at}: post-fault quiesce: {e}"));
            assert!(m.quiesced(&e), "{at}");
            assert_matches_shadow(&mut e, &shadow, &deleted);
            assert_chain_invariants(&e);
            drop(e);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&template);
}
