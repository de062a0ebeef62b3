//! Space reclamation over derived and superseded bytes: budgeted segment
//! compaction, and merging, rebuilding and gauging the tiered feature
//! index's cold runs. All of it local and oplog-silent.

use super::{DedupEngine, EngineError};
use crate::metrics::IndexTierMetrics;
use dbdedup_index::TieredStats;
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_storage::store::{CompactStats, StoreError};

/// Outcome of one budgeted tiered-index merge slice
/// ([`DedupEngine::index_merge_step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMergeStats {
    /// Cold-tier runs consumed (merged or quarantined) this slice.
    pub runs_merged: u64,
    /// Entries written into merged runs this slice.
    pub entries_written: u64,
    /// Run bytes read plus written this slice (the budget currency).
    pub bytes_processed: u64,
}

impl IndexMergeStats {
    /// Whether the slice did no work.
    pub fn is_noop(&self) -> bool {
        self.runs_merged == 0
    }
}

impl DedupEngine {
    /// Runs one bounded incremental-compaction step (at most `max_bytes`
    /// of segment bytes processed; a new victim needs `min_dead_share` of
    /// its bytes dead, and 0 drains everything — see
    /// [`RecordStore::compact_step`](dbdedup_storage::RecordStore::compact_step)),
    /// accumulating the stats into the engine's cumulative compaction
    /// counters.
    pub fn compact_step(
        &mut self,
        max_bytes: u64,
        min_dead_share: f64,
    ) -> Result<CompactStats, EngineError> {
        self.tracer.sample();
        let t = self.tracer.start();
        let stats = self.store.compact_step(max_bytes, min_dead_share)?;
        self.tracer.stop(t, Stage::MaintCompact);
        if !stats.is_noop() {
            self.io.submit(1);
            self.metrics.compact.merge(stats);
        }
        if stats.segments_rewritten > 0 {
            self.events.record(
                Severity::Info,
                EventKind::MaintCompact {
                    segments: stats.segments_rewritten,
                    reclaimed_bytes: stats.bytes_reclaimed,
                },
            );
        }
        Ok(stats)
    }

    /// Dead segment bytes compaction can still reclaim (excludes
    /// tombstone frames that must survive until the stale puts they
    /// shadow are rewritten away).
    pub fn reclaimable_dead_bytes(&self) -> u64 {
        self.store.reclaimable_dead_bytes()
    }

    /// Whether a compaction step floored at `min_dead_share` would do
    /// anything (a victim in progress, or one to pick).
    pub fn compaction_due(&self, min_dead_share: f64) -> bool {
        self.store.compaction_due(min_dead_share)
    }

    /// Cold-tier feature runs above the per-partition merge target — the
    /// tiered index's contribution to the maintenance backlog. Zero when
    /// tiering is off (no budget configured) or already converged.
    pub fn index_merge_backlog(&self) -> u64 {
        self.index
            .partition_names()
            .iter()
            .filter_map(|db| self.index.partition(db))
            .map(|p| p.merge_backlog())
            .sum()
    }

    /// One budgeted slice of cold-tier run merging: walks partitions in
    /// name order and merges run pairs (newest first) until `max_bytes` of
    /// run data has been processed — at least one pair whenever any backlog
    /// exists, so progress is guaranteed. Merging touches only derived
    /// local files, so it is oplog-silent by construction.
    pub fn index_merge_step(&mut self, max_bytes: u64) -> Result<IndexMergeStats, EngineError> {
        self.tracer.sample();
        let t = self.tracer.start();
        let mut out = IndexMergeStats::default();
        'partitions: for db in self.index.partition_names() {
            let part = self.index.partition_mut(&db);
            while let Some(step) = part.merge_step() {
                let o = step.map_err(|e| EngineError::Store(StoreError::Io(e)))?;
                out.runs_merged += o.runs_merged;
                out.entries_written += o.entries;
                out.bytes_processed += o.bytes_read + o.bytes_written;
                if out.bytes_processed >= max_bytes.max(1) {
                    break 'partitions;
                }
            }
        }
        self.tracer.stop(t, Stage::MaintIndexMerge);
        if out.runs_merged > 0 {
            // Each merge reads and rewrites run files: real background I/O.
            self.io.submit(out.runs_merged);
            self.events.record(
                Severity::Info,
                EventKind::MaintIndexMerge { runs: out.runs_merged, entries: out.entries_written },
            );
        }
        Ok(out)
    }

    /// Rebuilds `db`'s feature-index partition from the record store:
    /// drops the partition outright (deleting its derived run files) and
    /// re-registers the features of every live, readable record. This is
    /// the recovery path after run-file corruption — runs are derived
    /// data, so the store is always sufficient to regenerate them.
    ///
    /// The store does not persist a record→database mapping, so every live
    /// record re-registers under `db`. In mixed-database deployments that
    /// only adds advisory false-positive candidates, which downstream
    /// delta verification discards. Returns the number of records indexed.
    pub fn rebuild_index_partition(&mut self, db: &str) -> Result<u64, EngineError> {
        self.index.drop_partition(db);
        let mut registered = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        for id in self.live_record_ids() {
            // Unreadable (broken-chain) records can't be sketched; they are
            // resync's problem, not the index's.
            let Ok(content) = self.read(id) else { continue };
            // Steps ① and ② of the insert workflow; the tally is unused.
            let sketch = self.scan_and_sketch(&content, &mut scratch.scan);
            self.lookup_candidates(db, id, &sketch, &mut scratch.counts);
            registered += 1;
        }
        self.scratch = scratch;
        Ok(registered)
    }

    /// Aggregated tiered-index behavior counters across all partitions.
    pub fn index_tier_stats(&self) -> TieredStats {
        let mut total = TieredStats::default();
        for db in self.index.partition_names() {
            if let Some(p) = self.index.partition(&db) {
                let s = p.stats();
                total.spills += s.spills;
                total.spill_errors += s.spill_errors;
                total.dropped_runs += s.dropped_runs;
                total.hot_hits += s.hot_hits;
                total.cold_hits += s.cold_hits;
                total.cold_probes += s.cold_probes;
                total.bloom_rejects += s.bloom_rejects;
                total.bloom_false_probes += s.bloom_false_probes;
                total.probe_errors += s.probe_errors;
                total.merges += s.merges;
                total.merged_entries += s.merged_entries;
            }
        }
        total
    }

    /// The tiered index's full gauge set for the metrics registry:
    /// behavior counters plus current occupancy of both tiers.
    pub fn index_tier_metrics(&self) -> IndexTierMetrics {
        let s = self.index_tier_stats();
        let mut m = IndexTierMetrics {
            partitions: self.index.partition_count() as u64,
            entries: self.index.len() as u64,
            allocated_bytes: self.index.allocated_bytes() as u64,
            evictions: self.index.evictions(),
            spills: s.spills,
            spill_errors: s.spill_errors,
            hot_hits: s.hot_hits,
            cold_hits: s.cold_hits,
            cold_probes: s.cold_probes,
            bloom_rejects: s.bloom_rejects,
            bloom_false_probes: s.bloom_false_probes,
            dropped_runs: s.dropped_runs,
            merges: s.merges,
            merged_entries: s.merged_entries,
            ..Default::default()
        };
        for db in self.index.partition_names() {
            if let Some(p) = self.index.partition(&db) {
                m.runs += p.run_count() as u64;
                m.run_entries += p.run_entries() as u64;
                m.run_file_bytes += p.run_file_bytes();
                m.merge_backlog += p.merge_backlog();
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{engine, versioned_docs};
    use dbdedup_util::ids::RecordId;

    #[test]
    fn compact_step_accumulates_cumulative_stats() {
        let mut e = engine();
        let docs = versioned_docs(8, 43);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        assert!(e.reclaimable_dead_bytes() > 0, "writebacks leave superseded frames");
        let mut steps = 0;
        while e.reclaimable_dead_bytes() > 0 {
            let s = e.compact_step(4096, 0.0).unwrap();
            assert!(!s.is_noop(), "steps must make progress while dead space remains");
            steps += 1;
            assert!(steps < 10_000, "compaction failed to converge");
        }
        let m = e.metrics();
        assert!(m.compact.bytes_reclaimed > 0, "{:?}", m.compact);
        assert!(m.compact.bytes_scanned > 0);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "version {i}");
        }
    }
}
