//! Every read equals a trivial model.
//!
//! A seeded schedule interleaves inserts (new versions of a few documents,
//! so chains and hop bases form), updates, deletes of chain-interior
//! records, reads, write-back flushes, background chain GC, compaction and
//! clean close/reopen. Every read must return exactly what a
//! `HashMap<RecordId, Vec<u8>>` model holds, and a deleted record must read
//! `NotFound`. The schedule runs at the default source-cache budget, where
//! reads of cached raw records never touch the store and a read keeps the
//! junctions it decodes, and at 0, where every read decodes from the store.
//!
//! With no cache a read's walk reaches the end of its decode path, so a
//! read whose path holds a tombstone must splice it out (`gc_spliced`
//! advances): that is the branch where the decode keeps the tombstone's
//! neighbours' contents and no other node's. With the cache a read may stop
//! at a junction below the tombstone, so background GC must drain what
//! reads no longer reach: the backlog is emptied before every close and at
//! the end.
//!
//! Two steps aim at junctions a read has just cached: an update of one (its
//! cached content must go, and its former dependents must still read
//! right), and a delete of the record a cached junction decodes through.

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::{DedupEngine, EncodingPolicy, EngineConfig, EngineError, RecordId};
use std::collections::HashMap;
use std::path::Path;

const SEEDS: [u64; 2] = [0x5EAD_0001, 0x5EAD_0002];
const STEPS: usize = 1_200;

fn fresh(rng: &mut SplitMix64) -> Vec<u8> {
    (0..3_000).map(|_| b'a' + (rng.next_u64() % 26) as u8).collect()
}

/// `doc` with one to three short edits: similar enough to dedup. Each edit
/// replaces 16 bytes with 8–24, so versions shift against each other and a
/// delta applied to any base but its own cannot come out right by accident.
fn edit(rng: &mut SplitMix64, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..1 + rng.next_index(3) {
        let at = rng.next_index(out.len() - 24);
        let new: Vec<u8> =
            (0..8 + rng.next_index(17)).map(|_| b'A' + (rng.next_u64() % 26) as u8).collect();
        out.splice(at..at + 16, new);
    }
    out
}

fn open(dir: &Path, source_cache_bytes: usize) -> DedupEngine {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg.source_cache_bytes = source_cache_bytes;
    // A short hop distance, so chains of a few dozen versions already have
    // hop bases of two levels, and with them junctions.
    cfg.encoding = EncodingPolicy::Hop { distance: 4, max_levels: 2 };
    let small_segments = StoreConfig { segment_bytes: 64 << 10, ..Default::default() };
    DedupEngine::new(RecordStore::open(dir, small_segments).unwrap(), cfg).unwrap()
}

/// Runs background GC until no deleted record is left pinned.
fn drain_gc(e: &mut DedupEngine, what: &str) {
    while let Some(&id) = e.gc_backlog_head(1).first() {
        e.gc_record(id).expect(what);
        assert!(e.gc_backlog_head(1).first() != Some(&id), "{what}: {id} stays in the backlog");
    }
    assert_eq!(e.chains().deleted_len(), 0, "{what}");
}

/// A live junction (two or more records decode through it) and a live
/// record decoding through it, picked by `rng` among those `fits` accepts.
fn junction(
    e: &DedupEngine,
    live: &[RecordId],
    rng: &mut SplitMix64,
    fits: impl Fn(RecordId) -> bool,
) -> Option<(RecordId, RecordId)> {
    let below = |j: RecordId| e.chains().dependents_of(j).into_iter().find(|d| live.contains(d));
    let found: Vec<(RecordId, RecordId)> = live
        .iter()
        .filter(|&&j| e.chains().refcount(j) >= 2 && fits(j))
        .filter_map(|&j| Some((j, below(j)?)))
        .collect();
    found.get(rng.next_index(found.len().max(1))).copied()
}

/// What one schedule did, so a caller can see every branch happened.
#[derive(Debug, Default, Clone, Copy)]
struct Ran {
    /// Reads that spliced a tombstone out.
    spliced: u64,
    /// Segments compaction emptied.
    compacted: u64,
    /// Junctions updated just after a read cached them.
    junction_updates: u64,
    /// Records deleted under a junction a read had just cached.
    deletes_above_junctions: u64,
    /// Clean close/reopen cycles.
    reopens: u64,
}

impl Ran {
    fn all_happened(&self) -> bool {
        let Ran { spliced, compacted, junction_updates, deletes_above_junctions, reopens } = *self;
        [spliced, compacted, junction_updates, deletes_above_junctions, reopens]
            .iter()
            .all(|&n| n > 0)
    }
}

/// Runs one schedule.
fn run(seed: u64, source_cache_bytes: usize) -> Ran {
    let dir = std::env::temp_dir()
        .join(format!("dbdedup-read-model-{seed:x}-{source_cache_bytes}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = open(&dir, source_cache_bytes);
    let mut rng = SplitMix64::new(seed);
    let mut model: HashMap<RecordId, Vec<u8>> = HashMap::new();
    // Ids in a stable order for seeded picks; `docs` is each document's
    // newest content, whatever happened to the record that carried it.
    let (mut live, mut deleted, mut docs): (_, _, Vec<Vec<u8>>) = (Vec::new(), Vec::new(), vec![]);
    let mut ran = Ran::default();
    for step in 0..STEPS {
        let what = format!("seed={seed:#x} cache={source_cache_bytes} step={step}");
        match rng.next_below(100) {
            // Insert: mostly the next version of a document, half of those of
            // the first, whose chain grows long enough for hop bases.
            0..=39 => {
                let data = if docs.is_empty() || rng.next_index(10) == 0 {
                    docs.push(fresh(&mut rng));
                    docs[docs.len() - 1].clone()
                } else {
                    let d = match rng.next_index(2) {
                        0 => 0,
                        _ => rng.next_index(docs.len()),
                    };
                    docs[d] = edit(&mut rng, &docs[d]);
                    docs[d].clone()
                };
                let id = RecordId((live.len() + deleted.len()) as u64);
                e.insert("db", id, &data).expect(&what);
                model.insert(id, data);
                live.push(id);
            }
            // Update any live record, a decode base or not.
            40..=45 if !live.is_empty() => {
                let id = live[rng.next_index(live.len())];
                let data = edit(&mut rng, &model[&id]);
                e.update(id, &data).expect(&what);
                model.insert(id, data);
            }
            // Update a junction a read below it has just cached.
            46..=47 => {
                let delta = |j: RecordId| e.chains().base_of(j).is_some();
                let Some((j, below)) = junction(&e, &live, &mut rng, delta) else { continue };
                assert_eq!(&e.read(below).expect(&what)[..], &model[&below][..], "{what}");
                let former: Vec<RecordId> =
                    e.chains().dependents_of(j).into_iter().filter(|d| live.contains(d)).collect();
                let data = edit(&mut rng, &model[&j]);
                e.update(j, &data).expect(&what);
                model.insert(j, data);
                for id in std::iter::once(j).chain(former) {
                    assert_eq!(&e.read(id).expect(&what)[..], &model[&id][..], "{what}: {id}");
                }
                ran.junction_updates += 1;
            }
            // Delete, preferring a record others decode through.
            48..=54 if !live.is_empty() => {
                let bases: Vec<usize> =
                    (0..live.len()).filter(|&i| e.chains().refcount(live[i]) > 0).collect();
                let i = match bases.is_empty() {
                    true => rng.next_index(live.len()),
                    false => bases[rng.next_index(bases.len())],
                };
                let id = live.swap_remove(i);
                e.delete(id).expect(&what);
                model.remove(&id);
                deleted.push(id);
            }
            55..=59 => {
                match rng.next_index(2) {
                    0 => e.pump(1.0, 8).expect(&what),
                    _ => e.flush_all_writebacks().expect(&what),
                };
            }
            60..=63 => {
                if let Some(&id) = e.gc_backlog_head(1).first() {
                    e.gc_record(id).expect(&what);
                }
            }
            64..=66 => {
                ran.compacted += e.compact_step(32 << 10, 0.0).expect(&what).segments_rewritten;
            }
            // Delete the record a junction decodes through, just after a read
            // cached the junction: reads below it now stop short of the
            // tombstone.
            67 => {
                let base_live =
                    |j: RecordId| e.chains().base_of(j).is_some_and(|b| model.contains_key(&b));
                let Some((j, below)) = junction(&e, &live, &mut rng, base_live) else { continue };
                assert_eq!(&e.read(below).expect(&what)[..], &model[&below][..], "{what}");
                let base = e.chains().base_of(j).expect("checked");
                live.retain(|&id| id != base);
                e.delete(base).expect(&what);
                model.remove(&base);
                deleted.push(base);
                assert_eq!(&e.read(below).expect(&what)[..], &model[&below][..], "{what}");
                ran.deletes_above_junctions += 1;
            }
            // A clean close: pinned deletes drained first, since nothing
            // durable records them yet.
            68 if rng.next_index(4) == 0 => {
                drain_gc(&mut e, &what);
                e.flush_all_writebacks().expect(&what);
                drop(e);
                e = open(&dir, source_cache_bytes);
                ran.reopens += 1;
            }
            _ if !deleted.is_empty() && rng.next_index(6) == 0 => {
                let id = deleted[rng.next_index(deleted.len())];
                assert!(matches!(e.read(id), Err(EngineError::NotFound(_))), "{what}: {id}");
            }
            _ if !live.is_empty() => {
                let id = live[rng.next_index(live.len())];
                let tombstone = !e.chains().deleted_on_path(id).is_empty();
                let before = e.metrics();
                assert_eq!(&e.read(id).expect(&what)[..], &model[&id][..], "{what}: {id}");
                let after = e.metrics();
                let walked = after.read_decode_hops.count() > before.read_decode_hops.count();
                let splice = after.gc_spliced > before.gc_spliced;
                assert!(!splice || tombstone, "{what}: {id} spliced with no tombstone");
                if walked && tombstone && source_cache_bytes == 0 {
                    assert!(splice, "{what}: {id} walked past a tombstone without splicing");
                }
                ran.spliced += u64::from(splice);
            }
            _ => {}
        }
    }
    e.flush_all_writebacks().unwrap();
    drain_gc(&mut e, &format!("seed={seed:#x} cache={source_cache_bytes} end"));
    for id in &live {
        assert_eq!(&e.read(*id).unwrap()[..], &model[id][..], "seed={seed:#x} final {id}");
    }
    for id in &deleted {
        assert!(matches!(e.read(*id), Err(EngineError::NotFound(_))), "final {id}");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
    ran
}

#[test]
fn reads_equal_the_model_at_the_default_source_cache_budget() {
    let budget = EngineConfig::default().source_cache_bytes;
    for seed in SEEDS {
        let ran = run(seed, budget);
        assert!(ran.all_happened(), "seed={seed:#x}: {ran:?}");
    }
}

#[test]
fn reads_equal_the_model_with_no_source_cache() {
    for seed in SEEDS {
        let ran = run(seed, 0);
        assert!(ran.all_happened(), "seed={seed:#x}: {ran:?}");
    }
}
