//! Golden segment bytes: a fixed sequence of store operations must write
//! the same segment files, byte for byte, whatever computes the frame
//! checksums. The pins were captured from the slicing-by-16 CRC-32 chain,
//! before any faster kernel ran; a kernel that drifts on any length, or a
//! frame codec that changes a byte, fails here rather than as a mystery
//! `segment_hash` change in `perf/`.

use dbdedup::storage::store::{RecordStore, StorageForm, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::util::hash::crc32::crc32;
use dbdedup::RecordId;
use std::path::PathBuf;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn noise(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn text(n: usize) -> Vec<u8> {
    let line: Vec<u8> = (0..)
        .map(|i| format!("field {i} = value {};\n", i * 7 % 13))
        .take(64)
        .collect::<String>()
        .into();
    line.iter().copied().cycle().take(n).collect()
}

fn config() -> StoreConfig {
    StoreConfig { segment_bytes: 48 << 10, block_compression: true, ..Default::default() }
}

fn segment_hashes(store: &RecordStore) -> Vec<(usize, u64)> {
    store.segment_bytes().unwrap().iter().map(|seg| (seg.len(), fnv1a(seg))).collect()
}

/// Segment lengths and FNV-1a as the puts wrote them.
const GOLDEN_WRITTEN: &[(usize, u64)] =
    &[(0x15c3c, 0xd311_95c9_4619_41e6), (0x60c2, 0xf280_0c78_0601_608b)];
/// The same after the sequence's one compaction step. Compaction reads
/// only the frames it keeps and writes them with one write per active
/// segment, yet each copy still lands where appending the kept frames one
/// by one would put it, so these bytes are the per-frame copier's too.
const GOLDEN_COMPACTED: &[(usize, u64)] = &[
    (0, 0xcbf2_9ce4_8422_2325), // emptied victims read as empty files
    (0, 0xcbf2_9ce4_8422_2325),
    (0x175a1, 0xc74b_89ac_f0e8_02c8),
];

#[test]
fn fixed_sequence_writes_golden_segment_bytes() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dbdedup-frame-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v1 = noise(1, 17 << 10); // a wiki-revision-size frame
    let v1b = noise(11, 17 << 10);
    let big = noise(2, 70 << 10); // its own segment
    let compressible = text(9000); // stored blockz-compressed
    let delta = noise(4, 300); // a delta-size frame
    let degraded = noise(5, 6144); // framed: 6 KiB + 18 B
    let expected: Vec<(u64, StorageForm, &[u8])> = vec![
        (1, StorageForm::Raw, &v1b),
        (2, StorageForm::Raw, &big),
        (4, StorageForm::Delta { base: RecordId(1) }, &delta),
        (5, StorageForm::Raw, &degraded),
    ];
    {
        let s = RecordStore::open(&dir, config()).unwrap();
        s.put(RecordId(1), StorageForm::Raw, &v1).unwrap();
        s.put(RecordId(2), StorageForm::Raw, &big).unwrap();
        s.put(RecordId(3), StorageForm::Raw, &compressible).unwrap();
        assert!(s.stored_payload_bytes() < (v1.len() + big.len() + compressible.len()) as u64);
        s.put(RecordId(4), StorageForm::Delta { base: RecordId(1) }, &delta).unwrap();
        s.put_degraded(RecordId(5), "golden", &degraded).unwrap();
        s.put(RecordId(1), StorageForm::Raw, &v1b).unwrap(); // overwrite
        s.delete(RecordId(3)).unwrap(); // tombstone
        assert_eq!(segment_hashes(&s), GOLDEN_WRITTEN);
        let step = s.compact_step(256 << 10, 0.0).unwrap();
        assert!(step.bytes_reclaimed > 0, "{step:?}");
        for (id, form, bytes) in &expected {
            let r = s.get(RecordId(*id)).unwrap();
            assert_eq!((r.form, &r.payload[..]), (*form, *bytes), "id {id}");
        }
        assert!(s.get(RecordId(3)).is_err());
        assert_eq!(segment_hashes(&s), GOLDEN_COMPACTED);
    }
    let s = RecordStore::open(&dir, config()).unwrap();
    assert!(s.recovery_report().is_clean(), "{:?}", s.recovery_report());
    for (id, form, bytes) in &expected {
        let r = s.get(RecordId(*id)).unwrap();
        assert_eq!((r.form, &r.payload[..]), (*form, *bytes), "id {id} after reopen");
    }
    assert_eq!(s.degraded_records().unwrap(), vec![(RecordId(5), "golden".to_string())]);
    assert_eq!(segment_hashes(&s), GOLDEN_COMPACTED, "a clean reopen rewrites nothing");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `crc32` of one fixed buffer's prefixes: empty, one byte, either side of
/// 2 KiB, the edge of 6 KiB, a 17 KiB record and 64 KiB + 3.
const GOLDEN_CRCS: &[(usize, u32)] = &[
    (0, 0),
    (1, 0x0762_ae69),
    (2047, 0xfbe6_d71c),
    (2048, 0x5647_4884),
    (2049, 0xc138_3093),
    (6143, 0xa581_b88b),
    (6144, 0x5c19_81cc),
    (17_408, 0x5071_4797),
    (65_539, 0xf46c_62e5),
];

#[test]
fn crc32_of_fixed_prefixes_is_golden() {
    let buf = noise(0xC4C3_2025, 65_539);
    let got: Vec<(usize, u32)> = [0, 1, 2047, 2048, 2049, 6143, 6144, 17_408, 65_539]
        .into_iter()
        .map(|len| (len, crc32(&buf[..len])))
        .collect();
    assert_eq!(got, GOLDEN_CRCS);
}
