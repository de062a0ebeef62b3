//! Corruption repair and the integrity scrub: re-materializing records from
//! authoritative content, and the bounded scrub-and-heal slice that finds
//! the damage. Every heal goes through `repair_record`, hence
//! `rewrite_local`: oplog-silent like all maintenance.

use super::{DedupEngine, EngineError, Rewrite};
use crate::repair::RepairSource;
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_storage::store::VerifiedFrame;
use dbdedup_util::hash::crc32::crc32;
use dbdedup_util::ids::RecordId;

/// Bound on heal-and-rewalk iterations when verifying one chain: each
/// iteration either finishes or heals a distinct damaged node, so this is
/// only a backstop against a pathological store.
const MAX_CHAIN_HEALS: usize = 32;

/// What one bounded integrity-scrub slice found and repaired.
#[must_use = "the slice report carries unhealable-record escalations; dropping it loses them"]
#[derive(Debug, Default, Clone)]
pub struct ScrubSlice {
    /// Live frames whose on-disk bytes verified clean.
    pub verified: u64,
    /// Damaged frames detected (and quarantined) by the checksum tier.
    pub corrupt: u64,
    /// Damaged records healed from the source cache's copy of their
    /// content.
    pub healed_local: u64,
    /// Damaged records healed from the attached repair source.
    pub healed_replica: u64,
    /// Records no source could supply: quarantined, broken-marked, and
    /// escalated. They stay on [`DedupEngine::broken_records`] for resync.
    pub unhealable: Vec<RecordId>,
    /// Chains the decodability tier found broken (frames intact, but a
    /// node on the decode path damaged or missing).
    pub chain_faults: u64,
    /// Index/backlog drift repaired by the consistency tier.
    pub inconsistencies: u64,
    /// Segment bytes whose checksums were verified.
    pub bytes_verified: u64,
    /// Whether this slice wrapped the cursor (one full pass completed).
    pub pass_complete: bool,
}

impl ScrubSlice {
    /// Whether the slice found no damage and no drift at all.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
            && self.chain_faults == 0
            && self.inconsistencies == 0
            && self.unhealable.is_empty()
    }

    /// Folds another slice's tallies into this one (pass aggregation).
    pub fn merge(&mut self, other: &ScrubSlice) {
        self.verified += other.verified;
        self.corrupt += other.corrupt;
        self.healed_local += other.healed_local;
        self.healed_replica += other.healed_replica;
        self.unhealable.extend(other.unhealable.iter().copied());
        self.chain_faults += other.chain_faults;
        self.inconsistencies += other.inconsistencies;
        self.bytes_verified += other.bytes_verified;
        self.pass_complete |= other.pass_complete;
    }
}

impl DedupEngine {
    /// Record ids known unreadable due to corruption: decode bases
    /// quarantined by salvage recovery plus chains found broken by reads.
    /// The anti-entropy resync treats this as its priority work-list (it
    /// still checksum-compares everything else).
    pub fn broken_records(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self.broken.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Every live (stored, non-deleted) record id, sorted.
    pub fn live_record_ids(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self
            .store
            .live_forms()
            .into_iter()
            .map(|(id, _)| id)
            .filter(|&id| !self.chains.is_deleted(id))
            .collect();
        v.sort_unstable();
        v
    }

    /// CRC-32 of a record's logical content — what [`read`](Self::read)
    /// would return — for cheap replica comparison during anti-entropy.
    pub fn content_checksum(&mut self, id: RecordId) -> Result<u32, EngineError> {
        if self.chains.is_deleted(id) {
            return Err(EngineError::NotFound(id));
        }
        let content = self.decode_record(id)?;
        Ok(crc32(&content))
    }

    /// Re-materializes `id` from authoritative peer content: stores it raw,
    /// rebuilds its chain membership, and drops every cache entry or queued
    /// writeback computed from the old (possibly corrupt) bytes. Dependents
    /// that decode through `id` keep working — stored deltas apply to a
    /// base's *logical* content, which this restores.
    pub fn repair_record(&mut self, id: RecordId, data: &[u8]) -> Result<(), EngineError> {
        // Deltas queued against the old bytes — in either direction — are
        // bogus once the stored content changes, and the clean raw re-put
        // clears any on-disk degraded tag, so the backlog entry goes too.
        self.drop_derived(id, true);
        self.rewrite_local(id, Rewrite::Raw, data)?;
        self.slots.assign(id);
        self.broken.remove(&id);
        self.metrics.repaired_records += 1;
        self.events.record(Severity::Info, EventKind::Repaired { id: id.0 });
        Ok(())
    }

    /// Removes a record the peer says must not exist (e.g. a stale version
    /// resurrected because its tombstone was lost with a torn tail).
    pub fn repair_remove(&mut self, id: RecordId) -> Result<(), EngineError> {
        self.broken.remove(&id);
        if !self.store.contains(id) {
            return Ok(());
        }
        self.drop_derived(id, true);
        if self.chains.chain_index(id).is_some() {
            if !self.chains.is_deleted(id) {
                self.chains.mark_deleted(id);
            }
            if self.chains.refcount(id) == 0 {
                self.chains.remove(id);
                self.store.delete(id)?;
                self.slots.release(id);
            }
            // refcount > 0: the content lingers as a decode base; the normal
            // read-path GC collects it once dependents re-encode.
        } else {
            self.store.delete(id)?;
            self.slots.release(id);
        }
        Ok(())
    }

    /// Clears a broken mark after external verification: the caller (the
    /// anti-entropy pass) confirmed the record reads correctly — e.g. the
    /// damaged base it decoded through has since been repaired.
    pub fn clear_broken_mark(&mut self, id: RecordId) {
        self.broken.remove(&id);
    }

    /// Runs one bounded scrub-and-heal slice behind the store's persistent
    /// scrub cursor, verifying up to `max_bytes` of live frames.
    ///
    /// Three detection tiers run per slice:
    /// (a) on-disk frame checksums, read past the block cache;
    /// (b) chain decodability back to the raw root for every frame that
    ///     scanned clean, starting from the bytes tier (a) verified;
    /// (c) index ↔ store ↔ degraded-backlog agreement.
    ///
    /// Damage is quarantined and healed in place — from the source cache
    /// when it holds the content, otherwise from `repair` — with every
    /// write going through
    /// [`repair_record`](Self::repair_record): copy-before-supersede and
    /// oplog-silent, like all maintenance. A record no source can supply
    /// is escalated in the returned slice rather than panicking.
    pub fn scrub_slice(
        &mut self,
        max_bytes: u64,
        repair: Option<&mut dyn RepairSource>,
    ) -> Result<ScrubSlice, EngineError> {
        // Verification reads are off the I/O meter (see `unmetered_reads`):
        // the scrubber must not register as foreground load, or it would
        // suppress the idle-time writeback flushing it runs alongside.
        self.unmetered_reads = true;
        let result = self.scrub_slice_inner(max_bytes, repair);
        self.unmetered_reads = false;
        result
    }

    fn scrub_slice_inner(
        &mut self,
        max_bytes: u64,
        mut repair: Option<&mut dyn RepairSource>,
    ) -> Result<ScrubSlice, EngineError> {
        self.tracer.sample();
        let t = self.tracer.start();
        let scan = self.store.scrub_step(max_bytes)?;
        let mut out = ScrubSlice {
            verified: scan.clean.len() as u64,
            bytes_verified: scan.bytes_verified,
            pass_complete: scan.pass_complete,
            ..ScrubSlice::default()
        };
        // Tier (a): frames whose stored checksums no longer verify.
        for &id in &scan.corrupt {
            out.corrupt += 1;
            self.metrics.scrub_corrupt += 1;
            self.scrub_heal(id, &mut repair, &mut out)?;
        }
        // Tiers (b) and (c) over the frames that scanned clean.
        for frame in scan.clean {
            self.scrub_check_consistency(frame.id, &mut out)?;
            self.scrub_check_chain(frame, &mut repair, &mut out)?;
        }
        self.metrics.scrub_verified += out.verified;
        self.metrics.scrub_inconsistencies += out.inconsistencies;
        if out.pass_complete {
            self.metrics.scrub_passes += 1;
        }
        self.tracer.stop(t, Stage::MaintScrub);
        if out.corrupt > 0 || out.chain_faults > 0 {
            self.events.record(
                Severity::Warn,
                EventKind::MaintScrub {
                    verified: out.verified,
                    corrupt: out.corrupt + out.chain_faults,
                    healed: out.healed_local + out.healed_replica,
                },
            );
        }
        Ok(out)
    }

    /// Quarantines one damaged record and heals it: from the source cache
    /// first (an entry there holds the exact logical content), then from
    /// the repair source. Returns whether the record itself was restored; a
    /// record no source can supply stays quarantined and broken-marked — a
    /// typed escalation, not a panic.
    fn scrub_heal(
        &mut self,
        id: RecordId,
        repair: &mut Option<&mut dyn RepairSource>,
        out: &mut ScrubSlice,
    ) -> Result<bool, EngineError> {
        self.store.quarantine(id)?;
        // The source cache stores full logical content and is kept
        // coherent with every update and repair — authoritative when
        // present.
        if let Some(content) = self.source_cache.get(id) {
            self.repair_record(id, &content)?;
            out.healed_local += 1;
            self.metrics.scrub_healed_local += 1;
            return Ok(true);
        }
        if let Some(src) = repair.as_deref_mut() {
            if let Some(bytes) = src.fetch_authoritative(id)? {
                self.repair_record(id, &bytes)?;
                out.healed_replica += 1;
                self.metrics.scrub_healed_replica += 1;
                return Ok(true);
            }
        }
        self.scrub_escalate(id, out);
        Ok(false)
    }

    /// Marks a record unhealable: it stays quarantined (reads return
    /// `NotFound`) and broken-marked so a later resync or replica-attached
    /// scrub pass retries it, and the slice report plus a typed event
    /// escalate it to the operator.
    fn scrub_escalate(&mut self, id: RecordId, out: &mut ScrubSlice) {
        if out.unhealable.contains(&id) {
            return;
        }
        self.broken.insert(id);
        // A quarantined record has nothing left to re-deduplicate.
        self.degraded.remove(&id);
        self.metrics.scrub_unhealable += 1;
        self.events.record(Severity::Error, EventKind::ScrubUnhealable { id: id.0 });
        out.unhealable.push(id);
    }

    /// Tier (c): index ↔ store ↔ degraded-backlog agreement for one live
    /// record, repairing drift in place.
    fn scrub_check_consistency(
        &mut self,
        id: RecordId,
        out: &mut ScrubSlice,
    ) -> Result<(), EngineError> {
        // Every live frame must be known to the chain manager — a frame
        // with no chain entry is unreachable by GC and encoding.
        if self.chains.chain_index(id).is_none() {
            self.chains.start_chain(id);
            self.slots.assign(id);
            out.inconsistencies += 1;
        }
        if self.chains.is_deleted(id) {
            // Deleted-but-pinned decode bases never re-enter the backlog.
            return Ok(());
        }
        let tagged = self.store.is_degraded(id);
        let listed = self.degraded.contains_key(&id);
        if listed && !tagged {
            // Backlog entry outlived its on-disk tag (e.g. a crash between
            // a clean rewrite and the in-memory dequeue).
            self.degraded.remove(&id);
            out.inconsistencies += 1;
        } else if tagged && !listed {
            // On-disk tag with no backlog entry: the record would never be
            // re-deduplicated. Re-enqueue it under its recorded database.
            if let Some(db) = self.store.degraded_db(id)? {
                self.degraded.insert(id, db);
                out.inconsistencies += 1;
            }
        }
        Ok(())
    }

    /// Tier (b): decode the chain of `frame`'s record back to its raw
    /// root, healing any damaged node the walk trips over. The first walk
    /// starts from the frame tier (a) verified — a raw frame is its own
    /// root — as long as the record is still that frame: an earlier heal
    /// in the slice may have rewritten it. The walk re-runs, from the
    /// store, after each heal (a chain can be broken in more than one
    /// place); when the damaged node cannot be healed, the record itself
    /// is restored raw from the repair source as the fallback.
    fn scrub_check_chain(
        &mut self,
        frame: VerifiedFrame,
        repair: &mut Option<&mut dyn RepairSource>,
        out: &mut ScrubSlice,
    ) -> Result<(), EngineError> {
        let id = frame.id;
        // Deleted records are unreadable by definition.
        if self.chains.is_deleted(id) {
            return Ok(());
        }
        let scanned =
            self.store.frame_extent(id).is_some_and(|(seg, off, _)| (seg, off) == frame.at);
        let mut first = scanned.then(|| frame.record());
        let mut faulted = false;
        for _ in 0..MAX_CHAIN_HEALS {
            let broken_at = match self.decode_with_path(id, false, first.take()) {
                Ok(_) => {
                    // Reads fine — clear a stale broken mark left by an
                    // earlier failed read whose damage has since healed.
                    self.broken.remove(&id);
                    return Ok(());
                }
                Err(EngineError::ChainBroken { broken_at, .. }) => broken_at,
                // Quarantined by an earlier unhealable escalation — it is
                // already on the report.
                Err(EngineError::NotFound(_)) => return Ok(()),
                Err(e) => return Err(e),
            };
            if !faulted {
                faulted = true;
                out.chain_faults += 1;
            }
            if self.scrub_heal(broken_at, repair, out)? {
                // Healed — re-walk; the chain may be broken elsewhere too.
                continue;
            }
            if broken_at != id {
                // The damaged base is gone for good; restoring `id` raw
                // from the source severs its dependence on that base.
                self.scrub_heal(id, repair, out)?;
            }
            return Ok(());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{engine, versioned_docs};
    use super::*;
    use crate::config::EngineConfig;
    use dbdedup_delta::Delta;
    use dbdedup_storage::store::{RecordStore, StorageForm, StoreConfig};

    #[test]
    fn repair_record_restores_content_and_dependents() {
        let mut e = engine();
        let docs = versioned_docs(3, 21);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        // Chain: 0 ← 1 ← 2(raw). Re-materialize the mid-chain record from
        // "peer" content; record 0 decodes through 1's logical content, so
        // it must survive the rewrite.
        e.repair_record(RecordId(1), &docs[1]).unwrap();
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[1][..]);
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        assert_eq!(e.metrics().repaired_records, 1);
        assert!(e.broken_records().is_empty());
    }

    #[test]
    fn repair_remove_drops_unwanted_record() {
        let mut e = engine();
        e.insert("db", RecordId(7), &versioned_docs(1, 22)[0]).unwrap();
        e.repair_remove(RecordId(7)).unwrap();
        assert!(matches!(e.read(RecordId(7)), Err(EngineError::NotFound(_))));
        // Repair-removing an id that never existed is a no-op.
        e.repair_remove(RecordId(99)).unwrap();
    }

    /// Byte offset inside a frame to flip: past the 10-byte frame header,
    /// into the entry's id field — any live frame is at least this long,
    /// and the flip always breaks the entry checksum.
    const FRAME_PROBE: u64 = 12;

    fn scrub_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbdedup-engine-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_at(dir: &std::path::Path) -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        let store = RecordStore::open(dir, StoreConfig::default()).unwrap();
        DedupEngine::new(store, cfg).unwrap()
    }

    /// Flips one bit inside `id`'s live frame on disk, underneath the
    /// running engine (the directory and caches don't notice).
    fn rot_live_frame(dir: &std::path::Path, e: &DedupEngine, id: RecordId, delta: u64) {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let (seg, off, len) = e.store().frame_extent(id).expect("live frame");
        assert!(delta < u64::from(len));
        let path = dir.join(format!("seg{seg:06}.dat"));
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(off + delta)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(off + delta)).unwrap();
        f.write_all(&[b[0] ^ 0x40]).unwrap();
    }

    fn scrub_full_pass(e: &mut DedupEngine, mut src: Option<&mut DedupEngine>) -> ScrubSlice {
        let mut total = ScrubSlice::default();
        for _ in 0..1_000 {
            let s = e
                .scrub_slice(1 << 20, src.as_deref_mut().map(|s| s as &mut dyn RepairSource))
                .unwrap();
            let done = s.pass_complete;
            total.merge(&s);
            if done {
                return total;
            }
        }
        panic!("scrub pass never completed");
    }

    #[test]
    fn scrub_clean_store_reports_clean_and_stays_oplog_silent() {
        let mut e = engine();
        let docs = versioned_docs(8, 60);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64 + 1), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let lsn = e.oplog_next_lsn();
        let pass = scrub_full_pass(&mut e, None);
        assert!(pass.is_clean(), "{pass:?}");
        assert_eq!(pass.verified, 8);
        assert_eq!(e.oplog_next_lsn(), lsn, "scrub must not write the oplog");
        assert_eq!(e.metrics().scrub_passes, 1);
        assert_eq!(e.metrics().scrub_verified, 8);
    }

    #[test]
    fn scrub_heals_rotted_frame_locally_from_source_cache() {
        let dir = scrub_dir("local");
        let docs = versioned_docs(1, 61);
        let mut e = engine_at(&dir);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        rot_live_frame(&dir, &e, RecordId(1), FRAME_PROBE);
        let lsn = e.oplog_next_lsn();
        let pass = scrub_full_pass(&mut e, None);
        assert_eq!(pass.corrupt, 1);
        assert_eq!(pass.healed_local, 1, "{pass:?}");
        assert!(pass.unhealable.is_empty());
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
        assert_eq!(e.oplog_next_lsn(), lsn, "repair must not write the oplog");
        // The healed frame scans clean on the next pass.
        let again = scrub_full_pass(&mut e, None);
        assert!(again.is_clean(), "{again:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_heals_rotted_frame_from_repair_source() {
        let dir = scrub_dir("replica");
        let docs = versioned_docs(4, 62);
        let mut control = engine();
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
                control.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
        }
        // Reopen: caches are cold, so local reconstruction is impossible
        // and the heal must go through the repair source.
        let mut e = engine_at(&dir);
        rot_live_frame(&dir, &e, RecordId(1), FRAME_PROBE);
        let lsn = e.oplog_next_lsn();
        let pass = scrub_full_pass(&mut e, Some(&mut control));
        assert_eq!(pass.corrupt, 1);
        assert_eq!(pass.healed_replica, 1, "{pass:?}");
        assert!(pass.unhealable.is_empty());
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64 + 1)).unwrap()[..], &d[..], "record {i}");
        }
        assert_eq!(e.oplog_next_lsn(), lsn);
        assert_eq!(e.metrics().scrub_healed_replica, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_without_any_source_escalates_typed_unhealable() {
        let dir = scrub_dir("unhealable");
        let docs = versioned_docs(3, 63);
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
        }
        let mut e = engine_at(&dir);
        rot_live_frame(&dir, &e, RecordId(1), FRAME_PROBE);
        let pass = scrub_full_pass(&mut e, None);
        assert_eq!(pass.unhealable, vec![RecordId(1)], "{pass:?}");
        assert!(matches!(e.read(RecordId(1)), Err(EngineError::NotFound(_))));
        assert!(e.broken_records().contains(&RecordId(1)));
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], &docs[1][..]);
        assert_eq!(e.metrics().scrub_unhealable, 1);
        drop(e);
        // Restart: the quarantined frame fails its checksum again during
        // salvage, so the damaged record stays gone (no resurrection) and
        // the skip is surfaced per frame.
        let e2 = engine_at(&dir);
        assert!(!e2.store().contains(RecordId(1)));
        assert!(e2.metrics().salvage_skipped >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_heals_a_rotted_updated_base_alone_its_former_dependent_moved_off() {
        let dir = scrub_dir("updated-base");
        let docs = versioned_docs(2, 64);
        let mut control = engine();
        let mut e = engine_at(&dir);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64 + 1), d).unwrap();
            control.insert("db", RecordId(i as u64 + 1), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        control.flush_all_writebacks().unwrap();
        // Record 2 is record 1's decode base (refcount 1). The update moves
        // record 1 off it (raw, as 2 ended the chain) before writing the new
        // content in place, so rot in 2's frame damages record 2 alone.
        e.update(RecordId(2), b"fresh content").unwrap();
        control.update(RecordId(2), b"fresh content").unwrap();
        assert_eq!(e.chains().refcount(RecordId(2)), 0);
        rot_live_frame(&dir, &e, RecordId(2), FRAME_PROBE);
        let pass = scrub_full_pass(&mut e, Some(&mut control));
        assert_eq!((pass.corrupt, pass.chain_faults), (1, 0), "{pass:?}");
        assert_eq!((pass.healed_local, pass.healed_replica), (0, 1), "{pass:?}");
        assert!(pass.unhealable.is_empty(), "{pass:?}");
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], b"fresh content");
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_slice_over_raw_frames_adds_nothing_to_the_block_cache() {
        let mut e = engine();
        let mut rng = dbdedup_util::dist::SplitMix64::new(67);
        for i in 0..24u64 {
            let record: Vec<u8> = (0..2_000).map(|_| rng.next_u64() as u8).collect();
            e.insert("db", RecordId(i), &record).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        assert!(e.store().live_forms().iter().all(|&(_, form)| form == StorageForm::Raw));
        let before = e.store().block_cache_stats();
        let pass = scrub_full_pass(&mut e, None);
        assert!(pass.is_clean(), "{pass:?}");
        assert_eq!(pass.verified, 24);
        // Tier (a) reads past the cache, and a raw frame is its own chain
        // root: no lookup, so no entry, for any frame of the slice.
        let after = e.store().block_cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
    }

    #[test]
    fn scrub_decodes_a_record_an_earlier_heal_rewrote_from_the_store() {
        let dir = scrub_dir("rewritten-in-slice");
        let docs = versioned_docs(2, 66);
        let mut control = engine();
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
                control.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
            e.flush_all_writebacks().unwrap();
        }
        // Reopen with cold caches: record 1 decodes through record 2.
        let mut e = engine_at(&dir);
        assert_eq!(e.store().form(RecordId(1)), Some(StorageForm::Delta { base: RecordId(2) }));
        // Behind the engine, record 2 becomes a checksum-clean delta no
        // decoder accepts, written after record 1's frame: record 1's chain
        // check trips over it first and heals it, so when the slice reaches
        // record 2 its scanned bytes are stale.
        assert!(Delta::validate(b"").is_err());
        e.store().put(RecordId(2), StorageForm::Delta { base: RecordId(1) }, b"").unwrap();
        let pass = scrub_full_pass(&mut e, Some(&mut control));
        assert_eq!((pass.verified, pass.corrupt, pass.chain_faults), (2, 0, 1), "{pass:?}");
        assert_eq!((pass.healed_local, pass.healed_replica), (0, 1), "{pass:?}");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64 + 1)).unwrap()[..], &d[..], "record {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_walks_a_clean_delta_frame_to_its_base() {
        let dir = scrub_dir("missing-base");
        let docs = versioned_docs(2, 68);
        let mut control = engine();
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
                control.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
            e.flush_all_writebacks().unwrap();
        }
        let mut e = engine_at(&dir);
        assert_eq!(e.store().form(RecordId(1)), Some(StorageForm::Delta { base: RecordId(2) }));
        // Record 1's frame is intact; only the walk to its base, gone from
        // the store, finds its chain broken.
        let _ = e.store().quarantine(RecordId(2)).unwrap();
        let pass = scrub_full_pass(&mut e, Some(&mut control));
        assert_eq!((pass.verified, pass.corrupt, pass.chain_faults), (1, 0, 1), "{pass:?}");
        assert_eq!(pass.healed_replica, 1, "{pass:?}");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64 + 1)).unwrap()[..], &d[..], "record {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_restores_dropped_degraded_backlog_entry() {
        let mut e = engine();
        let docs = versioned_docs(2, 65);
        e.set_replication_pressure(true);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.set_replication_pressure(false);
        assert_eq!(e.degraded_backlog_len(), 1);
        // Simulate backlog drift: the in-memory entry vanishes while the
        // on-disk tag stays (the crash window the consistency tier closes).
        e.degraded.clear();
        let pass = scrub_full_pass(&mut e, None);
        assert!(pass.inconsistencies >= 1, "{pass:?}");
        assert_eq!(e.degraded_backlog_ids(), vec![RecordId(1)]);
        assert!(e.metrics().scrub_inconsistencies >= 1);
    }
}
