// The record store's compaction tests, included by `tests.rs` (so they
// share its imports and helpers and keep their `store::tests::` paths).

#[test]
fn compaction_reclaims_dead_space() {
    let s = store();
    for i in 0..50u64 {
        s.put(RecordId(i), StorageForm::Raw, &vec![1u8; 1000]).unwrap();
    }
    for i in 0..25u64 {
        s.delete(RecordId(i)).unwrap();
    }
    for i in 25..50u64 {
        s.put(RecordId(i), StorageForm::Raw, &[2u8; 10]).unwrap();
    }
    assert!(s.dead_bytes() > 0);
    let stats = compact_fully(&s);
    assert!(stats.bytes_reclaimed > 0, "stats report the reclaim");
    assert!(stats.segments_rewritten >= 1);
    assert_eq!(stats.entries_skipped, 0);
    assert_eq!(s.dead_bytes(), 0);
    assert_eq!(s.tombstone_bytes(), 0, "full compaction drops all tombstones");
    for i in 25..50u64 {
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![2u8; 10][..]);
    }
    assert_eq!(s.len(), 25);
    // Still writable post-compaction.
    s.put(RecordId(99), StorageForm::Raw, b"after").unwrap();
    assert_eq!(&s.get(RecordId(99)).unwrap().payload[..], b"after");
}

#[test]
fn reopen_after_compact_keeps_records() {
    // Regression: compaction once removed emptied segment files while the
    // recovery scan walked indices contiguously from zero — a reopened
    // store found no seg000000.dat and silently came up empty. Recovery
    // now lists the files that are there.
    let dir = temp_dir("reopen-compact");
    {
        let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
        for i in 0..20u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
        }
        for i in 0..10u64 {
            s.delete(RecordId(i)).unwrap();
        }
        let _ = compact_fully(&s);
        assert!(!segment_path(&dir, 0).exists(), "the emptied segment is removed");
    }
    {
        let s = RecordStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(s.recovery_report().is_clean());
        assert_eq!(s.len(), 10);
        for i in 10..20u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 100][..]);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compact_step_drains_dead_space_incrementally() {
    let cfg = StoreConfig { segment_bytes: 4096, ..Default::default() };
    let s = RecordStore::open_temp(cfg).unwrap();
    for i in 0..100u64 {
        s.put(RecordId(i), StorageForm::Raw, &vec![i as u8; 400]).unwrap();
    }
    for i in 0..50u64 {
        s.delete(RecordId(i)).unwrap();
    }
    for i in 50..100u64 {
        s.put(RecordId(i), StorageForm::Raw, &[i as u8; 40]).unwrap();
    }
    assert!(s.reclaimable_dead_bytes() > 0);
    let mut total = CompactStats::default();
    let mut steps = 0;
    while s.reclaimable_dead_bytes() > 0 {
        let io = s.io_stats();
        let stats = s.compact_step(2048, 0.0).unwrap();
        if stats.is_noop() {
            break;
        }
        // The budget counts bytes read and written; a step overruns it by
        // at most its last kept frame (read with the gap before it, and
        // written) and the headers of the segments it rotated to.
        let after = s.io_stats();
        let moved = after.read_bytes - io.read_bytes + after.write_bytes - io.write_bytes;
        assert!(moved <= 2048 + SPAN_GAP + 2 * 421 + 64, "step {steps} moved {moved} bytes");
        total.merge(stats);
        steps += 1;
        assert!(steps < 10_000, "incremental compaction must terminate");
    }
    assert_eq!(s.reclaimable_dead_bytes(), 0, "all reclaimable space drained");
    assert!(total.bytes_reclaimed > 0);
    assert!(total.segments_rewritten > 1, "walked multiple segments");
    assert!(steps > 1, "budget forced multiple bounded steps");
    for i in 50..100u64 {
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 40][..]);
    }
    assert_eq!(s.len(), 50);
    // Still writable, and the store reopens to the same contents.
    s.put(RecordId(200), StorageForm::Raw, b"post-step").unwrap();
    assert_eq!(&s.get(RecordId(200)).unwrap().payload[..], b"post-step");
}

#[test]
fn compact_step_survives_reopen_midway() {
    let dir = temp_dir("step-reopen");
    let cfg = StoreConfig { segment_bytes: 2048, ..Default::default() };
    {
        let s = RecordStore::open(&dir, cfg.clone()).unwrap();
        for i in 0..60u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
        }
        for i in 0..30u64 {
            s.delete(RecordId(i)).unwrap();
        }
        // Partial pass only: stop with the cursor mid-segment.
        let _ = s.compact_step(512, 0.0).unwrap();
    }
    {
        let s = RecordStore::open(&dir, cfg).unwrap();
        assert!(s.recovery_report().is_clean());
        assert_eq!(s.len(), 30);
        for i in 30..60u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &vec![i as u8; 200][..]);
            assert!(!s.contains(RecordId(i - 30)), "deleted stays deleted");
        }
        // And compaction can finish after the reopen.
        while s.reclaimable_dead_bytes() > 0 {
            if s.compact_step(4096, 0.0).unwrap().is_noop() {
                break;
            }
        }
        assert_eq!(s.reclaimable_dead_bytes(), 0);
    }
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------
// The walk over the view: what a step reads and writes
// ------------------------------------------------------------------

/// A fixed churned store over many small segments: frames from 60 B to
/// 6 KB (dead gaps either side of `SPAN_GAP`), stale puts, tombstones
/// that outlive their segment, degraded tags.
fn churned_store(dir: &Path, fault: Option<Arc<FaultInjector>>) -> RecordStore {
    let cfg =
        StoreConfig { segment_bytes: 8192, block_cache_bytes: 0, fault, ..Default::default() };
    let s = RecordStore::open(dir, cfg).unwrap();
    let mut rng = dbdedup_util::dist::SplitMix64::new(0xC0A1_E5CE);
    for step in 0..700u64 {
        let id = RecordId(rng.next_index(90) as u64);
        let len = match rng.next_index(12) {
            0 => 6000,
            1..=3 => 40 + rng.next_index(200),
            _ => 300 + rng.next_index(1200),
        };
        match rng.next_index(8) {
            0 | 1 => s.delete(id).unwrap(),
            2 => s.put_degraded(id, "db", &vec![step as u8; len]).unwrap(),
            3 => {
                s.put(id, StorageForm::Delta { base: RecordId(7) }, &vec![id.0 as u8; len])
                    .unwrap();
            }
            _ => s.put(id, StorageForm::Raw, &vec![step as u8; len]).unwrap(),
        }
    }
    s
}

fn live_payloads(s: &RecordStore) -> Vec<(RecordId, StoredRecord)> {
    let mut ids: Vec<RecordId> = s.live_forms().into_iter().map(|(id, _)| id).collect();
    ids.sort_unstable();
    ids.into_iter().map(|id| (id, s.get(id).unwrap())).collect()
}

#[test]
fn compaction_writes_the_same_segments_at_every_budget() {
    // Where a copy lands depends on the victim order and the frame order
    // alone, not on where steps end: a step of any budget writes what
    // appending the kept frames one by one would. Budget 1 keeps one
    // frame per step; the others share reads and writes among many.
    let mut reference = None;
    for budget in [1, 4096, 256 << 10, 1 << 20] {
        let dir = temp_dir("budgets");
        let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
        let s = churned_store(&dir, Some(Arc::clone(&inj)));
        let before = live_payloads(&s);
        let mut stats = CompactStats::default();
        loop {
            let (ops, segs) = (inj.writes_seen(), s.inner.lock().active_idx);
            let step = s.compact_step(budget, 0.0).unwrap();
            if step.is_noop() {
                break;
            }
            // One write per victim and active segment the step touched,
            // and a header per rotation.
            let rotations = u64::from(s.inner.lock().active_idx - segs);
            let victims = step.segments_rewritten + u64::from(s.inner.lock().cursor.is_some());
            let writes = inj.writes_seen() - ops;
            assert!(writes <= victims + 2 * rotations, "budget {budget}: {writes} writes, {step:?}");
            stats.merge(step);
        }
        assert_eq!(stats.entries_skipped, 0);
        assert_eq!(s.reclaimable_dead_bytes(), 0);
        assert_eq!(live_payloads(&s), before, "budget {budget}: every record reads as before");
        let outcome = (s.segment_bytes().unwrap(), stats, s.io_stats().writes);
        assert!(outcome.0.len() > 20, "rotations mid-step need many segments");
        match &reference {
            None => reference = Some(outcome),
            Some(r) => {
                assert!(outcome.0 == r.0, "budget {budget}: segment files differ");
                assert_eq!((outcome.1, outcome.2), (r.1, r.2), "budget {budget}");
            }
        }
        drop(s);
        let reopened = RecordStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(reopened.recovery_report().is_clean(), "budget {budget}");
        assert_eq!(live_payloads(&reopened), before, "budget {budget}: after reopen");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_step_reads_no_byte_of_a_frame_it_drops() {
    // Live 100-byte records between dead ones that no span bridges
    // (6 KB) or that every span does (500 B), then the dead ones'
    // tombstones, all in one victim.
    for dead_len in [6000, 500] {
        let cfg = StoreConfig { block_cache_bytes: 0, ..Default::default() };
        let s = RecordStore::open_temp(cfg).unwrap();
        for i in 0..30u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
            s.put(RecordId(100 + i), StorageForm::Raw, &vec![0xDD; dead_len]).unwrap();
        }
        for i in 0..30u64 {
            s.delete(RecordId(100 + i)).unwrap();
        }
        let kept: u64 = (0..30).map(|i| u64::from(s.frame_extent(RecordId(i)).unwrap().2)).sum();
        let io = s.io_stats();
        let step = s.compact_step(u64::MAX, 0.0).unwrap();
        assert_eq!(step.segments_rewritten, 1, "{step:?}");
        let after = s.io_stats();
        assert_eq!(after.reads - io.reads, 30, "one verified read per kept frame");
        let read = after.read_bytes - io.read_bytes;
        if dead_len as u64 > SPAN_GAP {
            assert_eq!(read, kept, "dead {dead_len}: only the kept frames were read");
        } else {
            assert!(read <= kept + 29 * SPAN_GAP, "dead {dead_len}: {read} bytes read");
        }
        assert_eq!(s.tombstone_bytes(), 0, "tombstones behind their stale puts go unread");
        for i in 0..30u64 {
            assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 100][..]);
        }
    }
}

fn forty_in_8k_cfg() -> StoreConfig {
    StoreConfig { segment_bytes: 8192, block_cache_bytes: 0, ..Default::default() }
}

/// 40 records of 300 bytes in 8 KiB segments and no block cache: records
/// 0–25 fill segment 0.
fn forty_in_8k_segments(dir: &Path) -> RecordStore {
    let s = RecordStore::open(dir, forty_in_8k_cfg()).unwrap();
    for i in 0..40u64 {
        s.put(RecordId(i), StorageForm::Raw, &[i as u8; 300]).unwrap();
    }
    s
}

#[test]
fn a_rotted_dead_frame_costs_no_live_record() {
    // Compaction never reads a superseded frame, so rot in one is never
    // seen: the victim's live records all move on, and the rotted bytes
    // leave with its file. (Giving the victim up from the first frame
    // that fails to verify would lose records 2–25 here.)
    let dir = temp_dir("rotted-dead");
    let s = forty_in_8k_segments(&dir);
    let old = s.inner.lock().directory[&RecordId(1)];
    s.put(RecordId(1), StorageForm::Raw, &[0xEE; 300]).unwrap();
    rot_frame(&dir, old);
    let stats = compact_to_quiescence(&s, 256 << 10);
    assert_eq!(stats.entries_skipped, 0, "{stats:?}");
    assert_eq!(s.io_stats().verify_failures, 0, "the dead frame was never read");
    assert!(!segment_path(&dir, old.seg).exists());
    let want = |i: u64| if i == 1 { [0xEE; 300] } else { [i as u8; 300] };
    for i in 0..40u64 {
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &want(i)[..], "record {i}");
    }
    drop(s);
    let s = RecordStore::open(&dir, forty_in_8k_cfg()).unwrap();
    assert!(s.recovery_report().is_clean(), "the rot left with its segment");
    for i in 0..40u64 {
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &want(i)[..], "record {i} reopened");
    }
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_rotted_live_frame_costs_only_its_own_record() {
    // A kept frame that fails verification is quarantined alone; its
    // neighbours either side are copied as if it were not there.
    let dir = temp_dir("rotted-live");
    let s = forty_in_8k_segments(&dir);
    s.put(RecordId(1), StorageForm::Raw, &[0xEE; 300]).unwrap();
    let rotted = s.inner.lock().directory[&RecordId(5)];
    assert_eq!(rotted.seg, 0);
    rot_frame(&dir, rotted);
    let quarantined = s.io_stats().quarantined_entries;
    let stats = compact_to_quiescence(&s, 256 << 10);
    assert_eq!(stats.entries_skipped, 1, "{stats:?}");
    assert_eq!(s.io_stats().quarantined_entries - quarantined, 1);
    assert!(!s.contains(RecordId(5)));
    assert_segment_views_match_directory(&s.inner.lock(), "after the quarantine");
    let survivors = live_payloads(&s);
    assert_eq!(survivors.len(), 39);
    for (id, r) in &survivors {
        let want = if id.0 == 1 { [0xEE; 300] } else { [id.0 as u8; 300] };
        assert_eq!(&r.payload[..], &want[..], "record {id}");
    }
    let after = (s.stored_payload_bytes(), s.reclaimable_dead_bytes(), s.tombstone_bytes());
    drop(s);
    let s = RecordStore::open(&dir, forty_in_8k_cfg()).unwrap();
    assert!(s.recovery_report().is_clean(), "{:?}", s.recovery_report());
    assert_eq!(live_payloads(&s), survivors);
    assert_eq!((s.stored_payload_bytes(), s.reclaimable_dead_bytes(), s.tombstone_bytes()), after);
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn carried_tombstone_rides_in_the_run_between_its_live_neighbours() {
    let dir = temp_dir("carried-tomb");
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let cfg =
        StoreConfig { segment_bytes: 2048, fault: Some(Arc::clone(&inj)), ..Default::default() };
    {
        let s = RecordStore::open(&dir, cfg.clone()).unwrap();
        // seg 0: X and a large filler. seg 1: A, X's tombstone, B, then
        // C — superseded from seg 2, which makes mostly-dead seg 1 the
        // first victim while X's stale put still sits in mostly-live seg 0.
        s.put(RecordId(100), StorageForm::Raw, &[0x58; 300]).unwrap();
        s.put(RecordId(1), StorageForm::Raw, &[0xF0; 1800]).unwrap();
        s.put(RecordId(2), StorageForm::Raw, &[0xAA; 300]).unwrap();
        s.delete(RecordId(100)).unwrap();
        s.put(RecordId(3), StorageForm::Raw, &[0xBB; 300]).unwrap();
        s.put(RecordId(4), StorageForm::Raw, &[0xCC; 1800]).unwrap();
        s.put(RecordId(4), StorageForm::Raw, &[0xCD; 10]).unwrap();
        assert_eq!(s.frame_extent(RecordId(2)).unwrap().0, 1);
        assert_eq!(s.frame_extent(RecordId(4)).unwrap().0, 2);
        let (writes, tombs) = (inj.writes_seen(), s.tombstone_bytes());
        let step = s.compact_step(u64::MAX, 0.0).unwrap();
        assert_eq!(step.segments_rewritten, 2, "seg 1, then seg 0: {step:?}");
        // Seg 1's kept frames — A, the tombstone, B — went out as one
        // write; seg 0's filler as another. No rotation in between.
        assert_eq!(inj.writes_seen() - writes, 2);
        assert_eq!(s.tombstone_bytes(), tombs, "the tombstone was carried, not dropped");
        let a = s.frame_extent(RecordId(2)).unwrap();
        let b = s.frame_extent(RecordId(3)).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(b.1 - (a.1 + u64::from(a.2)), tombs, "the tombstone sits between A and B");
    }
    let s = RecordStore::open(&dir, cfg).unwrap();
    assert!(!s.contains(RecordId(100)), "replay still ends deleted");
    assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[0xAA; 300][..]);
    assert_eq!(&s.get(RecordId(3)).unwrap().payload[..], &[0xBB; 300][..]);
    let _ = fs::remove_dir_all(&dir);
}

/// A store in `dir`, opened under `cfg`, whose compaction cursor sits in
/// a sealed victim just past its one stale frame, with `n + 1` small
/// live frames in a row ahead of it. Returns the store and the ids of
/// those frames in victim order.
fn sealed_victim_with_one_long_run(
    dir: &Path,
    cfg: StoreConfig,
    n: u64,
) -> (RecordStore, Vec<RecordId>) {
    {
        // Built in one default-sized segment, whatever `cfg` rotates at.
        let s = RecordStore::open(dir, StoreConfig::default()).unwrap();
        for i in 0..=n {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 100]).unwrap();
        }
        s.put(RecordId(0), StorageForm::Raw, &[0xEE; 100]).unwrap();
    }
    let s = RecordStore::open(dir, cfg).unwrap();
    // A one-byte budget seals the active segment as the victim and
    // stops after its first frame, the stale put of record 0.
    let first = s.compact_step(1, 0.0).unwrap();
    assert!(first.bytes_scanned > 0 && first.segments_rewritten == 0, "{first:?}");
    let ids = (1..=n).chain([0]).map(RecordId).collect();
    (s, ids)
}

#[test]
fn one_compaction_step_writes_once_per_active_segment_it_touches() {
    // The regression guard, in counts: physical writes per step.
    let dir = temp_dir("one-write");
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
    let (s, ids) = sealed_victim_with_one_long_run(&dir, cfg, 240);
    let (ops, io) = (inj.writes_seen(), s.io_stats());
    let step = s.compact_step(256 << 10, 0.0).unwrap();
    assert_eq!(step.segments_rewritten, 1, "{step:?}");
    assert_eq!(inj.writes_seen() - ops, 1, "241 adjacent live frames, one write");
    assert_eq!(s.io_stats().writes - io.writes, 241, "`writes` still counts entries");
    assert_eq!(s.io_stats().write_bytes - io.write_bytes, step.bytes_scanned);
    for id in ids {
        assert_eq!(s.get(id).unwrap().payload.len(), 100);
    }
    drop(s);
    let _ = fs::remove_dir_all(&dir);

    // With segments small enough to rotate mid-step, each rotation costs
    // its header and one more write; the files are what per-frame
    // appends leave (see the every-budget test above).
    let inj = Arc::new(FaultInjector::new(FaultPlan::new()));
    let cfg =
        StoreConfig { segment_bytes: 8192, fault: Some(Arc::clone(&inj)), ..Default::default() };
    let (s, _) = sealed_victim_with_one_long_run(&dir, cfg, 240);
    let (ops, segs) = (inj.writes_seen(), s.inner.lock().active_idx);
    let step = s.compact_step(256 << 10, 0.0).unwrap();
    let rotations = u64::from(s.inner.lock().active_idx - segs);
    assert!(rotations >= 2 && step.segments_rewritten == 1, "{rotations} {step:?}");
    assert_eq!(inj.writes_seen() - ops, 1 + 2 * rotations, "{rotations} rotations");
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failed_run_write_leaves_memory_describing_the_victim() {
    // Where the run's write lands in the op stream, from a clean run.
    let dir = temp_dir("failed-run");
    let probe = Arc::new(FaultInjector::new(FaultPlan::new()));
    let cfg = StoreConfig { fault: Some(Arc::clone(&probe)), ..Default::default() };
    drop(sealed_victim_with_one_long_run(&dir, cfg, 50));
    let run_op = probe.writes_seen();
    let _ = fs::remove_dir_all(&dir);

    let plan = FaultPlan::new().fault_at(run_op, FaultKind::IoError);
    let cfg = StoreConfig {
        block_cache_bytes: 0,
        fault: Some(Arc::new(FaultInjector::new(plan))),
        ..Default::default()
    };
    let (s, ids) = sealed_victim_with_one_long_run(&dir, cfg, 50);
    let snapshot = |s: &RecordStore| {
        let inner = s.inner.lock();
        let locs: Vec<(u32, u64)> =
            ids.iter().map(|id| (inner.directory[id].seg, inner.directory[id].off)).collect();
        let cur = inner.cursor.expect("mid-victim");
        (locs, inner.active_off, inner.io.writes, inner.dead_bytes, cur.off, cur.live_moved)
    };
    let before = snapshot(&s);
    assert!(matches!(s.compact_step(256 << 10, 0.0), Err(StoreError::Io(_))));
    assert_eq!(snapshot(&s), before, "no entry names bytes that were never written");
    assert_segment_views_match_directory(&s.inner.lock(), "after the failed run");
    for &id in &ids {
        assert_eq!(s.get(id).unwrap().payload.len(), 100, "still served from the victim");
    }
    // The error was transient: the next step redoes the run.
    let step = s.compact_step(256 << 10, 0.0).unwrap();
    assert_eq!(step.segments_rewritten, 1, "{step:?}");
    assert_eq!(s.reclaimable_dead_bytes(), 0);
    for &id in &ids {
        assert_eq!(s.get(id).unwrap().payload.len(), 100);
    }
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sealed_segment_ending_in_a_fragment_shorter_than_a_header_still_compacts() {
    let dir = temp_dir("short-tail");
    let cfg = StoreConfig { segment_bytes: 1024, block_cache_bytes: 0, ..Default::default() };
    {
        let s = RecordStore::open(&dir, cfg.clone()).unwrap();
        for i in 0..12u64 {
            s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
        }
        s.put(RecordId(0), StorageForm::Raw, &[0xFF; 20]).unwrap();
    }
    let mut f = OpenOptions::new().append(true).open(segment_path(&dir, 0)).unwrap();
    f.write_all(&[0xDB, 0x5E, 1]).unwrap();
    drop(f);
    let s = RecordStore::open(&dir, cfg).unwrap();
    assert_eq!(s.recovery_report().quarantined_bytes, 3);
    // The fragment is no frame of the view, so the walk never reaches it:
    // it leaves with its segment, quarantined once, by the reopen.
    let stats = compact_to_quiescence(&s, 4096);
    assert_eq!(stats.entries_skipped, 0, "{stats:?}");
    assert!(stats.segments_rewritten >= 1, "{stats:?}");
    assert!(!segment_path(&dir, 0).exists());
    assert_eq!(s.reclaimable_dead_bytes(), 0);
    for i in 1..12u64 {
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], &[i as u8; 200][..]);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tombstones_dropped_once_stale_puts_are_gone() {
    let cfg = StoreConfig { segment_bytes: 1 << 20, ..Default::default() };
    let s = RecordStore::open_temp(cfg).unwrap();
    s.put(RecordId(1), StorageForm::Raw, &[1u8; 500]).unwrap();
    s.put(RecordId(2), StorageForm::Raw, &[2u8; 500]).unwrap();
    s.delete(RecordId(1)).unwrap();
    assert!(s.tombstone_bytes() > 0);
    // Everything sits in the active segment; the step seals it and
    // copies forward. The stale put for id 1 is dropped first, so by
    // the time the tombstone is scanned it shadows nothing.
    let mut steps = 0;
    while s.reclaimable_dead_bytes() > 0 || s.tombstone_bytes() > 0 {
        if s.compact_step(u64::MAX, 0.0).unwrap().is_noop() {
            break;
        }
        steps += 1;
        assert!(steps < 100);
    }
    assert_eq!(s.tombstone_bytes(), 0, "tombstone physically gone");
    assert_eq!(s.dead_bytes(), 0);
    assert!(!s.contains(RecordId(1)));
    assert_eq!(&s.get(RecordId(2)).unwrap().payload[..], &[2u8; 500][..]);
}

// ------------------------------------------------------------------
// Victim choice, floors, removal
// ------------------------------------------------------------------

/// 2 KiB segments and no block cache: 200-byte raw records frame to 221
/// bytes, so a segment seals holding ten of them.
fn ten_per_segment_cfg() -> StoreConfig {
    StoreConfig { segment_bytes: 2048, block_cache_bytes: 0, ..Default::default() }
}

/// A store in `dir` holding records `0..n` of 200 bytes each, record `i`
/// in segment `i / 10`.
fn ten_per_segment(dir: &Path, n: u64) -> RecordStore {
    let s = RecordStore::open(dir, ten_per_segment_cfg()).unwrap();
    for i in 0..n {
        s.put(RecordId(i), StorageForm::Raw, &[i as u8; 200]).unwrap();
    }
    s
}

/// Overwrites `ids` with 20-byte payloads (in the active segment),
/// leaving their old frames dead where they were.
fn supersede(s: &RecordStore, ids: impl IntoIterator<Item = u64>) {
    for i in ids {
        s.put(RecordId(i), StorageForm::Raw, &[0xEE; 20]).unwrap();
    }
}

/// Every sealed segment's recorded length is its file's (0 once removed);
/// the active segment has none yet.
fn assert_sealed_lens_match_files(inner: &Inner, dir: &Path, at: &str) {
    for seg in 0..=inner.active_idx {
        let file = fs::metadata(segment_path(dir, seg)).map_or(0, |m| m.len());
        let want = if seg == inner.active_idx { 0 } else { file };
        let got = inner.segs.get(seg as usize).map_or(0, |s| s.sealed_len);
        assert_eq!(got, want, "{at}: sealed length of seg {seg}");
    }
}

#[test]
fn victim_is_the_older_of_equal_dead_shares_unless_a_younger_is_much_deader() {
    let dir = temp_dir("victim-choice");
    let s = ten_per_segment(&dir, 32); // segments 0-2 sealed, 3 active
    supersede(&s, [0, 1, 2, 20, 21, 22]);
    let victim = |floor| s.inner.lock().victim(floor);
    assert_eq!(victim(0.0), Some(0), "three of ten dead in both: the older");
    supersede(&s, 23..26);
    // Greedy would take segment 2 now; its frames are younger.
    assert_eq!(victim(0.0), Some(0), "six of ten dead, two segments younger");
    supersede(&s, 26..29);
    assert_eq!(victim(0.0), Some(2), "nine of ten dead beats three of ten");
    assert_eq!(victim(0.8), Some(2));
    assert_eq!(victim(0.95), None, "no segment is that dead");
    // The step starts on that victim and removes it first.
    while s.compact_step(256, 0.0).unwrap().segments_rewritten == 0 {}
    assert!(!segment_path(&dir, 2).exists());
    assert!(segment_path(&dir, 0).exists());
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn floored_step_leaves_segments_under_the_floor_and_the_active_one_alone() {
    let dir = temp_dir("floored");
    let s = ten_per_segment(&dir, 32);
    // Dead space under a 0.3 floor everywhere: two of ten frames in
    // segment 0, and superseded frames in the active segment.
    supersede(&s, [0, 1, 31, 31, 31]);
    let files = s.segment_bytes().unwrap();
    let active = s.inner.lock().active_idx;
    assert!(!s.compaction_due(0.3));
    assert!(s.compact_step(u64::MAX, 0.3).unwrap().is_noop());
    assert!(s.segment_bytes().unwrap() == files, "nothing was copied");
    assert_eq!(s.inner.lock().active_idx, active, "the active segment was not sealed");
    assert!(s.compaction_due(0.0), "a drain would take both");
    // Two more dead frames put segment 0 over the floor: floored steps
    // empty it, and nothing else.
    supersede(&s, [2, 3]);
    let mut total = CompactStats::default();
    while s.compaction_due(0.3) {
        total.merge(s.compact_step(512, 0.3).unwrap());
    }
    assert_eq!(total.segments_rewritten, 1, "{total:?}");
    assert!(!segment_path(&dir, 0).exists());
    assert_eq!(s.inner.lock().active_idx, active, "the copies fit: no rotation");
    assert!(s.reclaimable_dead_bytes() > 0, "the active segment's dead frames stay");
    // The unfloored drain still takes everything.
    let _ = compact_to_quiescence(&s, 4096);
    assert_eq!(s.reclaimable_dead_bytes(), 0);
    for i in 0..32u64 {
        let want: &[u8] = if i < 4 || i == 31 { &[0xEE; 20] } else { &[i as u8; 200] };
        assert_eq!(&s.get(RecordId(i)).unwrap().payload[..], want, "record {i}");
    }
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn header_rotted_after_open_drops_the_victims_live_records_as_a_reopen_would() {
    let dir = temp_dir("header-rot");
    let s = ten_per_segment(&dir, 32);
    supersede(&s, [0, 1, 2]);
    let doomed = s.inner.lock().live_frames_from(0, 0).count() as u64;
    assert_eq!(doomed, 7);
    // The sealed segment's header rots while the store is open.
    let mut f = OpenOptions::new().read(true).write(true).open(segment_path(&dir, 0)).unwrap();
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(3)).unwrap();
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(3)).unwrap();
    f.write_all(&[b[0] ^ 0x20]).unwrap();
    drop(f);
    let quarantined = s.io_stats().quarantined_entries;
    let stats = compact_to_quiescence(&s, 4096);
    assert_eq!(stats.entries_skipped, doomed + 1, "each live record, and the damaged run");
    assert_eq!(s.io_stats().quarantined_entries - quarantined, doomed + 1);
    assert!(!segment_path(&dir, 0).exists());
    assert_segment_views_match_directory(&s.inner.lock(), "after the quarantine");
    let after = (s.len(), s.stored_payload_bytes(), s.reclaimable_dead_bytes());
    assert_eq!(after.0, 32 - doomed as usize);
    drop(s);
    let s = RecordStore::open(&dir, ten_per_segment_cfg()).unwrap();
    assert!(s.recovery_report().is_clean(), "{:?}", s.recovery_report());
    assert_eq!((s.len(), s.stored_payload_bytes(), s.reclaimable_dead_bytes()), after);
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopen_after_removed_victims_replays_the_segments_left() {
    let dir = temp_dir("gaps");
    let before = {
        let s = ten_per_segment(&dir, 52); // segments 0-4 sealed, 5 active
        // Segments 1 and 3 are mostly dead: a floored pass removes them.
        supersede(&s, (10..18).chain(30..38));
        while s.compaction_due(0.5) {
            let _ = s.compact_step(4096, 0.5).unwrap();
        }
        let present: Vec<bool> = (0..=5).map(|seg| segment_path(&dir, seg).exists()).collect();
        assert_eq!(present, [true, false, true, false, true, true]);
        assert_eq!(s.inner.lock().active_idx, 5);
        live_payloads(&s)
    };
    let s = RecordStore::open(&dir, ten_per_segment_cfg()).unwrap();
    assert!(s.recovery_report().is_clean(), "{:?}", s.recovery_report());
    assert_eq!(s.recovery_report().segments_scanned, 4);
    assert_eq!(live_payloads(&s), before);
    assert_eq!(s.inner.lock().active_idx, 5, "the highest index is the active segment");
    assert_sealed_lens_match_files(&s.inner.lock(), &dir, "after the reopen");
    s.put(RecordId(99), StorageForm::Raw, b"after the gaps").unwrap();
    assert_eq!(s.frame_extent(RecordId(99)).unwrap().0, 5);
    drop(s);
    let s = RecordStore::open(&dir, ten_per_segment_cfg()).unwrap();
    assert_eq!(&s.get(RecordId(99)).unwrap().payload[..], b"after the gaps");
    assert_eq!(s.len(), before.len() + 1);
    drop(s);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_every_write_across_a_victims_removal_loses_no_record() {
    let dir = temp_dir("crash-removal");
    // Segments 0 and 2 half dead, and dead frames in the active segment:
    // the drain removes three victims, rotating on the way.
    let build = |fault: Option<Arc<FaultInjector>>| {
        let _ = fs::remove_dir_all(&dir);
        let s = ten_per_segment(&dir, 32);
        supersede(&s, [0, 2, 4, 6, 8, 20, 22, 24, 26, 28, 31]);
        let expected = live_payloads(&s);
        drop(s);
        let s = RecordStore::open(&dir, StoreConfig { fault, ..ten_per_segment_cfg() }).unwrap();
        (s, expected)
    };
    let probe = Arc::new(FaultInjector::new(FaultPlan::new()));
    let (s, expected) = build(Some(Arc::clone(&probe)));
    let stats = compact_to_quiescence(&s, 1024);
    assert!(stats.segments_rewritten >= 3, "{stats:?}");
    let writes = probe.writes_seen();
    drop(s);
    for k in 0..=writes {
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash_at_write(k)));
        let (s, _) = build(Some(Arc::clone(&inj)));
        while !inj.crashed() && !s.compact_step(1024, 0.0).unwrap().is_noop() {}
        drop(s);
        let s = RecordStore::open(&dir, ten_per_segment_cfg()).unwrap();
        assert_eq!(live_payloads(&s), expected, "crash at write {k}");
        assert_sealed_lens_match_files(&s.inner.lock(), &dir, &format!("crash at write {k}"));
        // What the crash left behind still compacts and reopens whole.
        let _ = compact_to_quiescence(&s, 1024);
        assert_eq!(s.reclaimable_dead_bytes(), 0, "crash at write {k}");
        drop(s);
        let s = RecordStore::open(&dir, ten_per_segment_cfg()).unwrap();
        assert_eq!(live_payloads(&s), expected, "crash at write {k}, compacted and reopened");
    }
    let _ = fs::remove_dir_all(&dir);
}
