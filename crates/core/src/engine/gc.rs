//! Background chain GC and retention: the maintenance-time counterparts of
//! the read-side GC in [`super`] (§4.1), for tombstones no read happens to
//! walk past. Oplog-silent — every write goes through `rewrite_local`.

use super::{DedupEngine, EngineError};
use bytes::Bytes;
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_util::ids::RecordId;

impl DedupEngine {
    /// Deleted records still lingering in the store because dependents
    /// decode through them — the chain-GC work list, sorted so a
    /// deterministic scheduler visits them in a reproducible order.
    pub fn gc_backlog_ids(&self) -> Vec<RecordId> {
        self.chains.deleted_ids()
    }

    /// The first `max` ids of [`gc_backlog_ids`](Self::gc_backlog_ids) —
    /// one bounded GC slice — without materialising the rest.
    pub fn gc_backlog_head(&self, max: usize) -> Vec<RecordId> {
        self.chains.deleted_iter().take(max).collect()
    }

    /// Length of the chain-GC work list, in constant time.
    pub fn gc_backlog_len(&self) -> usize {
        self.chains.deleted_len()
    }

    /// Bytes held on disk by deleted-but-referenced records. This dead
    /// space is invisible to segment dead-byte accounting — the entries
    /// are live in the store directory, only their content is
    /// client-deleted — so it gets its own gauge.
    pub fn pinned_dead_bytes(&self) -> u64 {
        self.chains.deleted_iter().filter_map(|id| self.store.entry_len(id)).sum()
    }

    /// Actively splices one deleted record out of its chain — the
    /// background counterpart of the read-path GC, for tombstones no
    /// read ever happens to walk past. Every dependent is re-encoded
    /// against the deleted record's own base (or stored raw when the
    /// deleted record was terminal), then the record is physically
    /// removed. Returns how many dependents were re-encoded.
    ///
    /// Purely local: re-encoding preserves each dependent's logical
    /// content, so no oplog entry is emitted and replicas need not run
    /// GC in lockstep.
    pub fn gc_record(&mut self, id: RecordId) -> Result<u64, EngineError> {
        if !self.chains.is_deleted(id) || !self.store.contains(id) {
            return Ok(0);
        }
        self.tracer.sample();
        let t = self.tracer.start();
        let result = self.gc_record_inner(id);
        self.tracer.stop(t, Stage::MaintGc);
        result
    }

    fn gc_record_inner(&mut self, id: RecordId) -> Result<u64, EngineError> {
        let reencoded = self.rehome_dependents(id)?;
        // Queued writebacks that would re-delta something against the
        // record being removed are worthless now.
        self.wb_cache.invalidate_by_base(id);
        self.try_remove_deleted(id)?;
        if !self.store.contains(id) {
            self.metrics.maint_removed += 1;
        }
        self.metrics.maint_reencoded += reencoded;
        self.events.record(Severity::Info, EventKind::MaintGc { id: id.0, reencoded });
        Ok(reencoded)
    }

    /// Moves every record that decodes through `id` onto `id`'s own base:
    /// each is re-encoded against that base, or stored raw when `id` is raw,
    /// so nothing needs `id`'s stored bytes any more. The one loop under
    /// background GC, which then removes a tombstone, and an update, which
    /// then overwrites a decode base in place. Oplog-silent — every
    /// dependent keeps its content. Returns how many dependents moved.
    pub(super) fn rehome_dependents(&mut self, id: RecordId) -> Result<u64, EngineError> {
        let new_base = self.chains.base_of(id);
        // `id`'s own base, decoded for the first dependent and reused by the
        // rest, with the path that decode walked (which starts at that base).
        let mut base: Option<(Bytes, Vec<RecordId>)> = None;
        let mut moved = 0u64;
        for dep in self.chains.dependents_of(id) {
            let dep_content = self.decode_record(dep)?;
            if let Some(nb) = new_base {
                match &base {
                    None => {
                        let (content, path, _) = self.decode_with_path(nb, false)?;
                        base = Some((content, path));
                    }
                    Some((_, path)) => self.recharge_decode(path),
                }
            }
            let onto = base.as_ref().map(|(content, path)| (path[0], &content[..]));
            self.splice_out(dep, &dep_content, onto)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Charges one more decode along `path` without doing it: the reads it
    /// would submit to the I/O meter, and the source-cache probes (up to
    /// the first hit, which is where the walk would stop) it would promote.
    /// Both steer what reaches the segments — the meter paces write-back
    /// flushes, recency decides evictions and with them source selection —
    /// so reusing a decoded base must leave them exactly where decoding it
    /// again would. Neither a splice nor a decode changes what the cache
    /// holds, so the probes hit and miss as that decode's would.
    fn recharge_decode(&mut self, path: &[RecordId]) {
        let mut reads = 1; // the walk's first node always comes from the store
        for &node in &path[1..] {
            if self.source_cache.get(node).is_some() {
                break;
            }
            reads += 1;
        }
        if !self.unmetered_reads {
            self.io.submit(reads);
        }
    }

    /// Retires up to `max_records` versions sitting more than `max_tail`
    /// hops behind their chain head, deleting them locally (no oplog
    /// entry — retention is a per-node storage policy, and replicas
    /// apply their own). Returns the retired ids, sorted.
    pub fn retire_tail_versions(
        &mut self,
        max_tail: u64,
        max_records: usize,
    ) -> Result<Vec<RecordId>, EngineError> {
        let mut retired = Vec::new();
        for id in self.chains.retention_candidates(max_tail) {
            if retired.len() >= max_records {
                break;
            }
            let depth = self.chains.depth_behind_head(id).unwrap_or(0);
            self.apply_delete(id, false)?;
            self.metrics.maint_retired += 1;
            self.events.record(Severity::Info, EventKind::MaintRetired { id: id.0, depth });
            retired.push(id);
        }
        Ok(retired)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{engine, versioned_docs};
    use super::*;

    #[test]
    fn gc_record_collects_pinned_deletes_without_reads() {
        let mut e = engine();
        let docs = versioned_docs(5, 40);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        // Delete a mid-chain record: dependents pin it in the store.
        e.delete(RecordId(2)).unwrap();
        assert_eq!(e.gc_backlog_ids(), vec![RecordId(2)]);
        assert!(e.pinned_dead_bytes() > 0);
        // Background GC splices it out with no foreground read involved.
        let reencoded = e.gc_record(RecordId(2)).unwrap();
        assert!(reencoded >= 1, "dependent must be re-encoded, got {reencoded}");
        assert!(e.gc_backlog_ids().is_empty());
        assert_eq!(e.pinned_dead_bytes(), 0);
        assert!(!e.store().contains(RecordId(2)));
        assert_eq!(e.metrics().maint_removed, 1);
        // Surviving versions still read back exactly.
        for i in [0u64, 1, 3, 4] {
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
        }
        assert!(matches!(e.read(RecordId(2)), Err(EngineError::NotFound(_))));
    }

    #[test]
    fn gc_record_on_terminal_base_makes_dependent_raw() {
        let mut e = engine();
        let docs = versioned_docs(2, 41);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.insert("db", RecordId(2), &docs[1]).unwrap();
        e.flush_all_writebacks().unwrap();
        // Record 1 decodes through 2 (backward encoding); delete 2.
        e.delete(RecordId(2)).unwrap();
        assert!(e.store().contains(RecordId(2)), "pinned by its dependent");
        e.gc_record(RecordId(2)).unwrap();
        assert!(!e.store().contains(RecordId(2)));
        assert_eq!(e.retrievals_for(RecordId(1)), Some(0), "dependent re-stored raw");
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
    }

    /// `gc_record_inner` as it was: the deleted record's base decoded once
    /// per dependent. The oracle for what reusing that decode must leave
    /// behind on the I/O meter and in the source cache.
    fn gc_record_decoding_per_dependent(e: &mut DedupEngine, id: RecordId) -> u64 {
        let new_base = e.chains.base_of(id);
        let mut reencoded = 0;
        for dep in e.chains.dependents_of(id) {
            let dep_content = e.decode_record(dep).unwrap();
            let base = new_base.map(|nb| (nb, e.decode_record(nb).unwrap()));
            e.splice_out(dep, &dep_content, base.as_ref().map(|(nb, c)| (*nb, &c[..]))).unwrap();
            reencoded += 1;
        }
        e.wb_cache.invalidate_by_base(id);
        e.try_remove_deleted(id).unwrap();
        reencoded
    }

    #[test]
    fn reusing_the_decoded_base_charges_what_decoding_it_per_dependent_charged() {
        // Under hop encoding (distance 16) version 32 of a chain is a hop
        // base: versions 31 and 16 both decode through it.
        const VICTIM: RecordId = RecordId(32);
        let docs = versioned_docs(40, 46);
        let build = || {
            let mut e = engine();
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64), d).unwrap();
            }
            e.flush_all_writebacks().unwrap();
            e.delete(VICTIM).unwrap();
            assert!(e.chains().refcount(VICTIM) >= 2, "a multi-dependent victim");
            assert!(e.chains().base_of(VICTIM).is_some(), "with a base of its own");
            e
        };
        let (mut new, mut old) = (build(), build());
        let dependents = u64::from(new.chains().refcount(VICTIM));
        assert_eq!(new.gc_record(VICTIM).unwrap(), dependents);
        assert_eq!(gc_record_decoding_per_dependent(&mut old, VICTIM), dependents);
        assert_eq!(new.io_queue_len(), old.io_queue_len(), "same reads on the I/O meter");
        let (a, b) = (new.metrics().source_cache, old.metrics().source_cache);
        assert_eq!((a.hits, a.misses, a.evictions), (b.hits, b.misses, b.evictions));
        assert!(new.store().segment_bytes().unwrap() == old.store().segment_bytes().unwrap());
        for (i, d) in docs.iter().enumerate().filter(|(i, _)| *i as u64 != VICTIM.0) {
            assert_eq!(&new.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
        }
    }

    #[test]
    fn gc_record_is_a_noop_for_live_records() {
        let mut e = engine();
        e.insert("db", RecordId(1), &versioned_docs(1, 42)[0]).unwrap();
        assert_eq!(e.gc_record(RecordId(1)).unwrap(), 0);
        assert!(e.store().contains(RecordId(1)));
    }

    #[test]
    fn retention_retires_deep_tail_versions_locally() {
        let mut e = engine();
        let docs = versioned_docs(6, 44);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let oplog_before = e.oplog_next_lsn();
        // Chain is 0←1←…←5 with head 5; cap the tail at 3 versions.
        let retired = e.retire_tail_versions(3, usize::MAX).unwrap();
        assert_eq!(retired, vec![RecordId(0), RecordId(1)]);
        assert_eq!(e.metrics().maint_retired, 2);
        assert_eq!(e.oplog_next_lsn(), oplog_before, "retention must not hit the oplog");
        // Retired versions flow through the normal GC path.
        for id in retired {
            e.gc_record(id).unwrap();
        }
        assert!(e.gc_backlog_ids().is_empty());
        for i in 2..6u64 {
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
        }
        assert!(matches!(e.read(RecordId(0)), Err(EngineError::NotFound(_))));
    }
}
