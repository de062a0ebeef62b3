//! Every read equals a trivial model.
//!
//! A seeded schedule interleaves inserts (new versions of a few documents,
//! so chains and hop bases form), updates, deletes of chain-interior
//! records, reads, write-back flushes, background chain GC and compaction.
//! Every read must return exactly what a `HashMap<RecordId, Vec<u8>>` model
//! holds, and a deleted record must read `NotFound`. The schedule runs at the
//! default source-cache budget, where reads of cached raw records never touch
//! the store, and at 0, where every read decodes from the store.
//!
//! With no cache a read's walk reaches the end of its decode path, so a
//! read whose path holds a tombstone must splice it out (`gc_spliced`
//! advances): that is the branch where the decode keeps the tombstone's
//! neighbours' contents and no other node's.

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::{DedupEngine, EngineConfig, EngineError, RecordId};
use std::collections::HashMap;

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

/// Runs one schedule; returns how many reads spliced a tombstone out and how
/// many segments compaction emptied, so a caller can see both happened.
fn run(seed: u64, source_cache_bytes: usize) -> (u64, u64) {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg.source_cache_bytes = source_cache_bytes;
    let small_segments = StoreConfig { segment_bytes: 64 << 10, ..Default::default() };
    let mut e = DedupEngine::new(RecordStore::open_temp(small_segments).unwrap(), cfg).unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut model: HashMap<RecordId, Vec<u8>> = HashMap::new();
    // Ids in a stable order for seeded picks; `docs` is each document's
    // newest content, whatever happened to the record that carried it.
    let (mut live, mut deleted, mut docs): (_, _, Vec<Vec<u8>>) = (Vec::new(), Vec::new(), vec![]);
    let (mut spliced, mut compacted) = (0u64, 0u64);
    for step in 0..STEPS {
        let what = format!("seed={seed:#x} cache={source_cache_bytes} step={step}");
        match rng.next_below(100) {
            // Insert: mostly the next version of a document.
            0..=39 => {
                let data = if docs.is_empty() || rng.next_index(10) == 0 {
                    docs.push(fresh(&mut rng));
                    docs[docs.len() - 1].clone()
                } else {
                    let d = rng.next_index(docs.len());
                    docs[d] = edit(&mut rng, &docs[d]);
                    docs[d].clone()
                };
                let id = RecordId((live.len() + deleted.len()) as u64);
                e.insert("db", id, &data).expect(&what);
                model.insert(id, data);
                live.push(id);
            }
            // Update any live record, a decode base or not.
            40..=47 if !live.is_empty() => {
                let id = live[rng.next_index(live.len())];
                let data = edit(&mut rng, &model[&id]);
                e.update(id, &data).expect(&what);
                model.insert(id, data);
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
                compacted += e.compact_step(32 << 10, 0.0).expect(&what).segments_rewritten;
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
                let walked = after.reads_decoded > before.reads_decoded;
                let splice = after.gc_spliced > before.gc_spliced;
                assert!(!splice || tombstone, "{what}: {id} spliced with no tombstone");
                if walked && tombstone && source_cache_bytes == 0 {
                    assert!(splice, "{what}: {id} walked past a tombstone without splicing");
                }
                spliced += u64::from(splice);
            }
            _ => {}
        }
    }
    e.flush_all_writebacks().unwrap();
    for id in &live {
        assert_eq!(&e.read(*id).unwrap()[..], &model[id][..], "seed={seed:#x} final {id}");
    }
    for id in &deleted {
        assert!(matches!(e.read(*id), Err(EngineError::NotFound(_))), "final {id}");
    }
    (spliced, compacted)
}

#[test]
fn reads_equal_the_model_at_the_default_source_cache_budget() {
    let budget = EngineConfig::default().source_cache_bytes;
    for seed in SEEDS {
        let (spliced, compacted) = run(seed, budget);
        assert!(spliced > 0 && compacted > 0, "seed={seed:#x}: {spliced} splices, {compacted}");
    }
}

#[test]
fn reads_equal_the_model_with_no_source_cache() {
    for seed in SEEDS {
        let (spliced, compacted) = run(seed, 0);
        assert!(spliced > 0 && compacted > 0, "seed={seed:#x}: {spliced} splices, {compacted}");
    }
}
