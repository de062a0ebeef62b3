//! Background chain GC and retention: the maintenance-time counterparts of
//! the read-side GC in [`super`] (§4.1), for tombstones no read happens to
//! walk past. Oplog-silent — every write goes through `rewrite_local`.

use super::{DedupEngine, EngineError};
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_util::ids::RecordId;

impl DedupEngine {
    /// Deleted records still lingering in the store because dependents
    /// decode through them — the chain-GC work list, sorted so a
    /// deterministic scheduler visits them in a reproducible order.
    pub fn gc_backlog_ids(&self) -> Vec<RecordId> {
        self.chains.deleted_ids()
    }

    /// Bytes held on disk by deleted-but-referenced records. This dead
    /// space is invisible to segment dead-byte accounting — the entries
    /// are live in the store directory, only their content is
    /// client-deleted — so it gets its own gauge.
    pub fn pinned_dead_bytes(&self) -> u64 {
        self.chains.deleted_ids().iter().filter_map(|&id| self.store.entry_len(id)).sum()
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
        let new_base = self.chains.base_of(id);
        let mut reencoded = 0u64;
        for dep in self.chains.dependents_of(id) {
            let dep_content = self.decode_record(dep)?;
            let base = match new_base {
                Some(nb) => Some((nb, self.decode_record(nb)?)),
                None => None,
            };
            self.splice_out(dep, &dep_content, base.as_ref().map(|(nb, c)| (*nb, &c[..])))?;
            reencoded += 1;
        }
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
