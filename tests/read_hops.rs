//! A read decodes a hop base once.
//!
//! A recovered chain forgets its positions, so its pending hop bases are
//! never upgraded, and a reopened source cache holds none of them: without
//! help, every read of an old version climbs to the head: 97–106 hops for
//! the siblings read here. A client read keeps the junctions it decodes
//! (records two or more others decode through) in the source cache, so a
//! later read of a sibling stops at the first junction above it: at most
//! the level-0 climb of one hop distance (11–15 hops here).

use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::{DedupEngine, EngineConfig, RecordId};

const VERSIONS: usize = 700;
const AFTER_REOPEN: usize = 100;

/// One 12 KB document and its revisions, five 40-byte edits apart.
fn versions(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut doc: Vec<u8> = (0..12_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
    let mut out = vec![doc.clone()];
    for _ in 1..n {
        for _ in 0..5 {
            let at = rng.next_index(doc.len() - 50);
            for b in doc.iter_mut().skip(at).take(40) {
                *b = (rng.next_u64() % 26 + 97) as u8;
            }
        }
        out.push(doc.clone());
    }
    out
}

fn open(dir: &std::path::Path) -> DedupEngine {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    DedupEngine::new(RecordStore::open(dir, StoreConfig::default()).unwrap(), cfg).unwrap()
}

fn insert(e: &mut DedupEngine, docs: &[Vec<u8>], ids: std::ops::Range<usize>) {
    for i in ids {
        e.insert("db", RecordId(i as u64), &docs[i]).unwrap();
        e.pump(1.0, 4).unwrap();
    }
}

/// Hops every read so far decoded, from the engine's own counts.
fn hops_so_far(e: &DedupEngine) -> u64 {
    let m = e.metrics();
    (m.read_decode_hops.mean() * m.read_decode_hops.count() as f64).round() as u64
}

/// Reads `id`, checks it against its version, and returns the hops it took.
fn read_hops(e: &mut DedupEngine, docs: &[Vec<u8>], id: u64) -> u64 {
    let before = hops_so_far(e);
    assert_eq!(&e.read(RecordId(id)).unwrap()[..], &docs[id as usize][..], "record {id}");
    hops_so_far(e) - before
}

#[test]
fn after_a_reopen_sibling_reads_stop_at_the_junctions_a_first_read_decoded() {
    let dir = std::env::temp_dir().join(format!("dbdedup-read-hops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let docs = versions(VERSIONS, 0x40B5);
    let reopen_at = VERSIONS - AFTER_REOPEN;
    {
        let mut e = open(&dir);
        insert(&mut e, &docs, 0..reopen_at);
        e.flush_all_writebacks().unwrap();
    }
    let mut e = open(&dir);
    insert(&mut e, &docs, reopen_at..VERSIONS);
    let first = read_hops(&mut e, &docs, 1);
    assert!(first > 16, "record 1 climbs the recovered chain: {first} hops");
    for id in [2, 3, 17, 100, 101] {
        let hops = read_hops(&mut e, &docs, id);
        assert!(hops <= 16, "record {id} decoded {hops} hops after record 1's read");
    }
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
