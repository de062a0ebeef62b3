//! Out-of-line re-dedup of records admitted raw under overload: the same
//! dedup pipeline and chain commit as the inline insert in [`super`], with
//! the copy-before-supersede write ordering in place of raw-first.

use super::{DedupEngine, EngineError, Rewrite};
use dbdedup_cache::CachedSource;
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_storage::store::StorageForm;
use dbdedup_util::ids::RecordId;

/// What the out-of-line re-dedup of one overload-degraded record did
/// (see [`DedupEngine::rededup_record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RededupOutcome {
    /// A beneficial similar source was found: the raw record was rewritten
    /// into `source`'s chain, its tagged raw frame superseded only after
    /// every chain half was durably committed (copy-before-supersede).
    Rededuped {
        /// The selected source record.
        source: RecordId,
        /// Forward-delta size the full pipeline would have shipped.
        forward_bytes: usize,
    },
    /// The replayed pipeline found no (beneficial) source — exactly what
    /// the inline path would have concluded. The record stays raw, its
    /// features stay registered, and the degraded tag is durably cleared.
    KeptRaw,
    /// The record no longer needs re-dedup (deleted, updated, damaged, or
    /// already chained by a crash-interrupted rewrite); the backlog entry
    /// was dropped.
    Skipped,
}

impl DedupEngine {
    /// Records admitted raw under overload and still awaiting out-of-line
    /// re-dedup, in id (= insertion) order — the re-dedup work list a
    /// deterministic maintenance scheduler drains.
    pub fn degraded_backlog_ids(&self) -> Vec<RecordId> {
        self.degraded.keys().copied().collect()
    }

    /// Size of the out-of-line re-dedup backlog.
    pub fn degraded_backlog_len(&self) -> usize {
        self.degraded.len()
    }

    /// Re-runs the full dedup pipeline — sketch → index lookup → source
    /// selection → delta encode — for one record admitted raw under
    /// overload, and rewrites it into a chain when a beneficial source
    /// exists. Always drains the record's backlog entry (re-dedup
    /// converges; every call makes progress).
    ///
    /// Purely local, like every PR-4 maintenance task: no oplog entry is
    /// emitted — the raw content already replicated at admission time, and
    /// the rewrite preserves it byte for byte. Admission heuristics (size
    /// filter, governor) are deliberately not consulted or updated: the
    /// record was already admitted, and maintenance must not steer them.
    ///
    /// Crash model (copy-before-supersede): the raw tagged frame stays the
    /// live entry for `id` until every chain half is durably committed;
    /// only then does a clean raw re-put supersede it — clearing the
    /// on-disk tag. A crash at any intermediate write leaves the record
    /// readable raw and its degraded-set entry recoverable from segment
    /// metadata; a restart either re-runs the rewrite or (when the chain
    /// halves already landed) just clears the tag.
    pub fn rededup_record(&mut self, id: RecordId) -> Result<RededupOutcome, EngineError> {
        let Some(db) = self.degraded.get(&id).cloned() else {
            return Ok(RededupOutcome::Skipped);
        };
        self.tracer.sample();
        let t = self.tracer.start();
        let result = self.rededup_inner(id, &db);
        self.tracer.stop(t, Stage::MaintRededup);
        if let Ok(outcome) = &result {
            let name = match outcome {
                RededupOutcome::Rededuped { .. } => {
                    self.metrics.rededup_rewritten += 1;
                    "rededuped"
                }
                RededupOutcome::KeptRaw => {
                    self.metrics.rededup_kept_raw += 1;
                    "kept_raw"
                }
                RededupOutcome::Skipped => {
                    self.metrics.rededup_skipped += 1;
                    "skipped"
                }
            };
            self.events.record(Severity::Info, EventKind::MaintRededup { id: id.0, outcome: name });
        }
        result
    }

    fn rededup_inner(&mut self, id: RecordId, db: &str) -> Result<RededupOutcome, EngineError> {
        // The record may have moved on since it was tagged.
        if !self.store.contains(id) || self.chains.is_deleted(id) {
            self.degraded.remove(&id);
            return Ok(RededupOutcome::Skipped);
        }
        if self.broken.contains(&id) {
            // Damaged records belong to anti-entropy (repair re-puts raw,
            // clearing the tag).
            self.degraded.remove(&id);
            return Ok(RededupOutcome::Skipped);
        }
        if self.chains.refcount(id) > 0 || self.chains.base_of(id).is_some() {
            // A crash-interrupted rewrite already committed its chain
            // halves (or the record got chained some other way). Nothing
            // to re-encode — just durably clear the on-disk tag while the
            // live frame is still raw-and-tagged.
            if self.store.is_degraded(id) {
                let sr = self.store.get(id)?;
                if sr.form == StorageForm::Raw {
                    self.rewrite_local(id, Rewrite::Raw, &sr.payload)?;
                }
            }
            self.degraded.remove(&id);
            return Ok(RededupOutcome::Skipped);
        }

        // Raw refcount-0 singleton, exactly as the overload path left it:
        // run the one dedup pipeline the inline path runs (the overload
        // path skipped it, so the record's features enter the index here,
        // just later), so a degraded burst drained in insertion order
        // converges to the same index, chain, storage and cache state a
        // never-degraded run produces.
        let data = self.store.get(id)?.payload;
        match self.dedup_pipeline(db, id, &data, None)? {
            (new, None) => self.rededup_keep_raw(id, new),
            (new, Some((source, src, forward))) => {
                let forward_bytes = forward.encoded_len();
                self.apply_rededup(id, source, new, &src.data, forward.as_bytes())?;
                Ok(RededupOutcome::Rededuped { source, forward_bytes })
            }
        }
    }

    /// Terminal no-source outcome of a re-dedup pass: the record stays
    /// raw, exactly as the inline unique path would have stored it. The
    /// clean raw re-put supersedes the tagged frame (durable tag clear),
    /// and the content seeds the source cache like a unique insert does.
    fn rededup_keep_raw(
        &mut self,
        id: RecordId,
        new: CachedSource,
    ) -> Result<RededupOutcome, EngineError> {
        self.rewrite_local(id, Rewrite::Raw, &new.data)?;
        self.source_cache.insert_source(id, new);
        self.degraded.remove(&id);
        Ok(RededupOutcome::KeptRaw)
    }

    /// Commits a re-dedup rewrite with the copy-before-supersede ordering:
    /// chain halves (backward deltas for the source and any hop upgrades)
    /// land first — all synchronous, whatever the write-back cache mode,
    /// so the rewrite is durably complete — and only then is the raw
    /// tagged frame superseded by a clean raw re-put of identical bytes.
    /// The chain and cache operations are the inline insert's own
    /// (`link_into_chain`), so a drained backlog converges to the inline
    /// result.
    fn apply_rededup(
        &mut self,
        id: RecordId,
        source: RecordId,
        new: CachedSource,
        src_content: &[u8],
        forward: &[u8],
    ) -> Result<(), EngineError> {
        // Re-enter the record through the normal append machinery: its
        // singleton chain (refcount 0, no base) is retired and `id` joins
        // `source`'s chain, so hop policy sees the same operation sequence
        // an inline dedup insert would have produced.
        self.chains.remove(id);
        let bytes = new.data.clone();
        self.link_into_chain(id, source, new, src_content, forward, true)?;
        // Commit point: a clean raw frame (identical bytes, no tag)
        // supersedes the degraded frame. Until this write lands, every
        // prior write is additive — a crash leaves the record readable
        // and the tag in place.
        self.rewrite_local(id, Rewrite::Raw, &bytes)?;
        self.degraded.remove(&id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{engine, versioned_docs};
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::InsertOutcome;
    use dbdedup_storage::store::{RecordStore, StoreConfig};

    #[test]
    fn rededup_drains_degraded_burst_to_inline_parity() {
        // Control: the same workload with dedup never degraded.
        let mut control = engine();
        let docs = versioned_docs(6, 51);
        for (i, d) in docs.iter().enumerate() {
            control.insert("db", RecordId(i as u64), d).unwrap();
        }
        control.flush_all_writebacks().unwrap();

        // Degraded run: records 1.. admitted raw during an overload burst.
        let mut e = engine();
        e.insert("db", RecordId(0), &docs[0]).unwrap();
        e.set_replication_pressure(true);
        for (i, d) in docs.iter().enumerate().skip(1) {
            assert_eq!(
                e.insert("db", RecordId(i as u64), d).unwrap(),
                InsertOutcome::BypassedOverload
            );
        }
        e.set_replication_pressure(false);
        assert_eq!(e.degraded_backlog_len(), docs.len() - 1);

        // Out-of-line drain in insertion order, oplog-silently.
        let lsn_before = e.oplog_next_lsn();
        for id in e.degraded_backlog_ids() {
            assert!(
                matches!(e.rededup_record(id).unwrap(), RededupOutcome::Rededuped { .. }),
                "record {id:?} should find its predecessor"
            );
        }
        e.flush_all_writebacks().unwrap();
        assert_eq!(e.degraded_backlog_len(), 0);
        assert_eq!(e.oplog_next_lsn(), lsn_before, "re-dedup must not hit the oplog");

        // Convergence parity: same bytes back, same chain shape, and the
        // same stored footprint as the never-degraded control.
        let (mc, md) = (control.metrics(), e.metrics());
        assert_eq!(md.stored_bytes, mc.stored_bytes);
        assert_eq!(md.stored_uncompressed_bytes, mc.stored_uncompressed_bytes);
        assert_eq!(md.maint_rededup_rewritten, docs.len() as u64 - 1);
        assert_eq!(md.maint_degraded_backlog, 0);
        for i in 0..docs.len() as u64 {
            assert_eq!(
                e.chains().base_of(RecordId(i)),
                control.chains().base_of(RecordId(i)),
                "base of {i}"
            );
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
        }
    }

    #[test]
    fn rededup_keeps_unmatched_record_raw_and_registers_features() {
        let mut e = engine();
        let docs = versioned_docs(2, 77);
        e.set_replication_pressure(true);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.set_replication_pressure(false);
        assert!(e.store().is_degraded(RecordId(1)));
        // Empty index: no source exists, so the record stays raw — but the
        // pass both clears the on-disk tag and registers its features.
        assert!(matches!(e.rededup_record(RecordId(1)).unwrap(), RededupOutcome::KeptRaw));
        assert!(!e.store().is_degraded(RecordId(1)));
        assert_eq!(e.degraded_backlog_len(), 0);
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
        assert_eq!(e.metrics().maint_rededup_kept_raw, 1);
        // ...so a later near-duplicate dedups against it.
        assert!(matches!(
            e.insert("db", RecordId(2), &docs[1]).unwrap(),
            InsertOutcome::Deduped { source: RecordId(1), .. }
        ));
    }

    #[test]
    fn degraded_backlog_survives_restart_via_segment_metadata() {
        let dir = std::env::temp_dir()
            .join(format!("dbdedup-engine-rededup-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let docs = versioned_docs(3, 52);
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        {
            let store = RecordStore::open(&dir, StoreConfig::default()).unwrap();
            let mut e = DedupEngine::new(store, cfg.clone()).unwrap();
            e.insert("db", RecordId(0), &docs[0]).unwrap();
            e.set_replication_pressure(true);
            e.insert("db", RecordId(1), &docs[1]).unwrap();
            e.insert("db", RecordId(2), &docs[2]).unwrap();
        }
        let store = RecordStore::open(&dir, StoreConfig::default()).unwrap();
        let mut e = DedupEngine::new(store, cfg).unwrap();
        assert_eq!(e.degraded_backlog_ids(), vec![RecordId(1), RecordId(2)]);
        // The similarity index is in-memory by design, so the first drained
        // record finds no source — but its pass registers its features, and
        // the next one chains onto it.
        assert!(matches!(e.rededup_record(RecordId(1)).unwrap(), RededupOutcome::KeptRaw));
        assert!(matches!(
            e.rededup_record(RecordId(2)).unwrap(),
            RededupOutcome::Rededuped { source: RecordId(1), .. }
        ));
        assert_eq!(e.degraded_backlog_len(), 0);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_and_deletes_drop_degraded_backlog_entries() {
        let mut e = engine();
        let docs = versioned_docs(3, 53);
        e.set_replication_pressure(true);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.insert("db", RecordId(2), &docs[1]).unwrap();
        e.insert("db", RecordId(3), &docs[2]).unwrap();
        e.set_replication_pressure(false);
        // A client update supersedes the degraded bytes; a delete removes
        // them. Neither should leave stale re-dedup work behind.
        e.update(RecordId(1), &docs[2]).unwrap();
        e.delete(RecordId(2)).unwrap();
        assert_eq!(e.degraded_backlog_ids(), vec![RecordId(3)]);
        // Re-dedup of a since-departed id is a clean no-op.
        assert!(matches!(e.rededup_record(RecordId(1)).unwrap(), RededupOutcome::Skipped));
        assert!(matches!(e.rededup_record(RecordId(3)).unwrap(), RededupOutcome::KeptRaw));
        assert_eq!(e.degraded_backlog_len(), 0);
    }
}
