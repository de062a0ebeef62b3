//! Engine metrics: everything the paper's figures report.
//!
//! The snapshot renders through the [`Registry`] from `dbdedup-obs`: each
//! field is registered by name (duplicates panic eagerly) and the JSON is
//! schema-stable — same fields, same order, every time. The legacy key set
//! of the old hand-rolled `to_json` is preserved verbatim as a prefix, so
//! downstream plotting scripts keep working.

use dbdedup_cache::{SourceCacheStats, WritebackCacheStats};
use dbdedup_obs::{Registry, Stage, StageSet};
use dbdedup_storage::CompactStats;
use dbdedup_util::stats::LogHistogram;

/// Running counters maintained by the engine.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Original (pre-dedup, pre-compression) bytes ingested.
    pub original_bytes: u64,
    /// Bytes appended to the oplog wire format (network transfer volume).
    pub network_bytes: u64,
    /// Inserts that found a similar record and were delta-encoded.
    pub deduped_inserts: u64,
    /// Inserts stored raw because no (beneficial) similar record existed.
    pub unique_inserts: u64,
    /// Inserts bypassed by the size filter.
    pub bypassed_size: u64,
    /// Inserts bypassed because the governor disabled the database.
    pub bypassed_governor: u64,
    /// Total forward-delta bytes produced.
    pub forward_delta_bytes: u64,
    /// Source-record retrievals that needed a store read (cache misses are
    /// also visible in `source_cache`).
    pub source_disk_reads: u64,
    /// Distribution of decode retrievals per read.
    pub read_retrievals: LogHistogram,
    /// Records garbage-collected on the read path.
    pub gc_spliced: u64,
    /// Reads that failed because corruption broke the decode chain.
    pub chain_broken_reads: u64,
    /// Replicated-apply attempts that were retried after a transient error.
    pub apply_retries: u64,
    /// Records re-materialized from a peer (anti-entropy repair).
    pub repaired_records: u64,
    /// Inserts that bypassed dedup because the replication layer reported
    /// overload (transient governor gate).
    pub bypassed_overload: u64,
    /// Shipments refused because the replica's queue was full.
    pub backpressure_events: u64,
    /// Batches delivered through oplog-cursor catch-up (gap replay after
    /// overflow, partition, or crash) rather than the steady-state stream.
    pub catchup_batches: u64,
    /// Replica health state-machine transitions observed.
    pub health_transitions: u64,
    /// Worst replication lag observed, in oplog entries.
    pub max_replica_lag: u64,
    /// Dependents re-encoded by background chain GC.
    pub maint_reencoded: u64,
    /// Tombstoned records physically removed by background chain GC.
    pub maint_removed: u64,
    /// Old versions retired by the retention policy.
    pub maint_retired: u64,
    /// Degraded records rewritten into a chain by out-of-line re-dedup.
    pub rededup_rewritten: u64,
    /// Degraded records re-examined but kept raw (no beneficial source).
    pub rededup_kept_raw: u64,
    /// Re-dedup passes skipped (record deleted, damaged, or already
    /// chained by a crash-interrupted rewrite).
    pub rededup_skipped: u64,
    /// Cumulative incremental-compaction stats.
    pub compact: CompactStats,
    /// Live frames whose on-disk bytes the integrity scrub verified clean.
    pub scrub_verified: u64,
    /// Damaged frames the scrub detected and quarantined.
    pub scrub_corrupt: u64,
    /// Damaged records healed from the source cache's copy of their
    /// content.
    pub scrub_healed_local: u64,
    /// Damaged records healed from an authoritative repair source.
    pub scrub_healed_replica: u64,
    /// Damaged records no source could supply: quarantined and escalated.
    pub scrub_unhealable: u64,
    /// Index/backlog drift repaired by the scrub's consistency tier.
    pub scrub_inconsistencies: u64,
    /// Full scrub passes completed over the store.
    pub scrub_passes: u64,
    /// Corrupt frames skipped (quarantined) by open-time salvage.
    pub salvage_skipped: u64,
}

/// Tiered feature-index gauges: hot-tier occupancy plus cold-run behavior
/// (spills, Bloom-gated probes, merges). All zero when tiering is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexTierMetrics {
    /// Live per-database partitions.
    pub partitions: u64,
    /// Entries across all tiers (hot tables + disk runs).
    pub entries: u64,
    /// Actual allocated memory: hot table capacity plus resident cold
    /// state (Bloom filters, offset tables).
    pub allocated_bytes: u64,
    /// Hot-tier LRU evictions.
    pub evictions: u64,
    /// Hot-tier spills into cold runs.
    pub spills: u64,
    /// Spills whose run file failed to persist (entries dropped).
    pub spill_errors: u64,
    /// Open cold-tier runs.
    pub runs: u64,
    /// Entries resident in cold-tier runs.
    pub run_entries: u64,
    /// Bytes of cold-tier run files on disk.
    pub run_file_bytes: u64,
    /// Lookups answered (at least partially) by the hot tier.
    pub hot_hits: u64,
    /// Lookups that surfaced extra candidates from a cold run.
    pub cold_hits: u64,
    /// Disk probes issued against cold runs (≤ 1 per lookup).
    pub cold_probes: u64,
    /// Run consultations answered "cannot hit" by the Bloom filter alone.
    pub bloom_rejects: u64,
    /// Probes that passed the Bloom filter but matched nothing (observed
    /// false positives).
    pub bloom_false_probes: u64,
    /// Run files quarantined for failing validation.
    pub dropped_runs: u64,
    /// Pairwise run merges completed by maintenance.
    pub merges: u64,
    /// Entries written by those merges.
    pub merged_entries: u64,
    /// Runs above the per-partition merge target right now.
    pub merge_backlog: u64,
}

impl IndexTierMetrics {
    /// Observed Bloom false-positive rate: wasted probes over all cold
    /// consultations the filter answered.
    pub fn observed_fp_rate(&self) -> f64 {
        let consultations = self.cold_probes + self.bloom_rejects;
        if consultations == 0 {
            0.0
        } else {
            self.bloom_false_probes as f64 / consultations as f64
        }
    }

    /// Accumulates another shard's gauges.
    pub fn merge(&mut self, o: IndexTierMetrics) {
        self.partitions += o.partitions;
        self.entries += o.entries;
        self.allocated_bytes += o.allocated_bytes;
        self.evictions += o.evictions;
        self.spills += o.spills;
        self.spill_errors += o.spill_errors;
        self.runs += o.runs;
        self.run_entries += o.run_entries;
        self.run_file_bytes += o.run_file_bytes;
        self.hot_hits += o.hot_hits;
        self.cold_hits += o.cold_hits;
        self.cold_probes += o.cold_probes;
        self.bloom_rejects += o.bloom_rejects;
        self.bloom_false_probes += o.bloom_false_probes;
        self.dropped_runs += o.dropped_runs;
        self.merges += o.merges;
        self.merged_entries += o.merged_entries;
        self.merge_backlog += o.merge_backlog;
    }
}

/// A point-in-time copy of every metric the figures need, combining engine
/// counters with cache and store statistics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Original bytes ingested.
    pub original_bytes: u64,
    /// Live stored payload bytes (post-dedup, post-compression).
    pub stored_bytes: u64,
    /// Live stored payload bytes before block compression.
    pub stored_uncompressed_bytes: u64,
    /// Oplog wire bytes (network transfer).
    pub network_bytes: u64,
    /// Feature-index memory (accounted, paper-style).
    pub index_bytes: usize,
    /// Deduped inserts.
    pub deduped_inserts: u64,
    /// Unique inserts.
    pub unique_inserts: u64,
    /// Size-filter bypasses.
    pub bypassed_size: u64,
    /// Governor bypasses.
    pub bypassed_governor: u64,
    /// Source cache statistics.
    pub source_cache: SourceCacheStats,
    /// Write-back cache statistics.
    pub writeback_cache: WritebackCacheStats,
    /// Worst decode retrievals observed on reads.
    pub max_read_retrievals: u64,
    /// Mean decode retrievals observed on reads.
    pub mean_read_retrievals: f64,
    /// Reads those two figures were observed over (the weight of the mean
    /// when shards merge).
    pub reads_decoded: u64,
    /// Read-path GC splices performed.
    pub gc_spliced: u64,
    /// Store entries quarantined by salvage recovery (bad checksums).
    pub quarantined_entries: u64,
    /// Torn-tail bytes truncated from the active segment on recovery.
    pub truncated_tail_bytes: u64,
    /// Reads that failed on a corruption-broken decode chain.
    pub chain_broken_reads: u64,
    /// Replicated-apply attempts retried after transient errors.
    pub apply_retries: u64,
    /// Records re-materialized from a peer by anti-entropy resync.
    pub repaired_records: u64,
    /// Inserts that bypassed dedup under replication overload.
    pub bypassed_overload: u64,
    /// Shipments refused by a full replica queue (backpressure).
    pub backpressure_events: u64,
    /// Batches delivered via oplog-cursor catch-up.
    pub catchup_batches: u64,
    /// Replica health state-machine transitions.
    pub health_transitions: u64,
    /// Worst replication lag observed (oplog entries).
    pub max_replica_lag: u64,
    /// Per-stage latency histograms (nanoseconds) from the sampling
    /// stage tracer.
    pub stages: StageSet,
    /// Current modeled I/O queue depth (the §3.3.2 idleness signal).
    pub io_queue_depth: f64,
    /// Fraction of metered time the modeled device has been idle.
    pub io_idle_fraction: f64,
    /// Events ever recorded into the structured event log.
    pub events_logged: u64,
    /// Events dropped by the event log's ring bound.
    pub events_dropped: u64,
    /// Events currently resident in the log's bounded ring.
    pub events_ring_len: u64,
    /// Deleted records still pinned in the store by dependents (the
    /// chain-GC backlog).
    pub maint_gc_backlog: u64,
    /// Bytes held by those pinned, deleted-but-referenced records.
    pub maint_pinned_dead_bytes: u64,
    /// Dead bytes in sealed/active segments (superseded frames).
    pub maint_dead_bytes: u64,
    /// Dead bytes compaction can actually reclaim right now (excludes
    /// still-needed tombstone frames).
    pub maint_reclaimable_dead_bytes: u64,
    /// Dependents re-encoded by background chain GC.
    pub maint_reencoded: u64,
    /// Tombstoned records physically removed by background chain GC.
    pub maint_removed: u64,
    /// Old versions retired by the retention policy.
    pub maint_retired: u64,
    /// Degraded records rewritten into a chain by out-of-line re-dedup.
    pub maint_rededup_rewritten: u64,
    /// Degraded records re-examined but kept raw by re-dedup.
    pub maint_rededup_kept_raw: u64,
    /// Re-dedup passes skipped (deleted / damaged / already chained).
    pub maint_rededup_skipped: u64,
    /// Overload-degraded records still awaiting out-of-line re-dedup.
    pub maint_degraded_backlog: u64,
    /// Cumulative incremental-compaction stats.
    pub compact: CompactStats,
    /// Live frames whose on-disk bytes the integrity scrub verified clean.
    pub scrub_verified: u64,
    /// Damaged frames the scrub detected and quarantined.
    pub scrub_corrupt: u64,
    /// Damaged records healed locally (from the source cache).
    pub scrub_healed_local: u64,
    /// Damaged records healed from an authoritative repair source.
    pub scrub_healed_replica: u64,
    /// Damaged records no source could supply: quarantined and escalated.
    pub scrub_unhealable: u64,
    /// Index/backlog drift repaired by the scrub's consistency tier.
    pub scrub_inconsistencies: u64,
    /// Full scrub passes completed over the store.
    pub scrub_passes: u64,
    /// Corrupt frames skipped (quarantined) by open-time salvage.
    pub salvage_skipped: u64,
    /// Tiered feature-index gauges (hot + cold tiers).
    pub index_tier: IndexTierMetrics,
}

impl MetricsSnapshot {
    /// Builds the unified metrics registry: every engine counter, cache
    /// stat, store/oplog stat, replica-health counter, I/O gauge, and
    /// per-stage latency percentile, each registered exactly once. The
    /// first 28 fields are the legacy `to_json` key set in its original
    /// order.
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        r.set_u64("original_bytes", self.original_bytes);
        r.set_u64("stored_bytes", self.stored_bytes);
        r.set_u64("stored_uncompressed_bytes", self.stored_uncompressed_bytes);
        r.set_u64("network_bytes", self.network_bytes);
        r.set_u64("index_bytes", self.index_bytes as u64);
        r.set_u64("deduped_inserts", self.deduped_inserts);
        r.set_u64("unique_inserts", self.unique_inserts);
        r.set_u64("bypassed_size", self.bypassed_size);
        r.set_u64("bypassed_governor", self.bypassed_governor);
        r.set_f64("storage_ratio", self.storage_ratio());
        r.set_f64("network_ratio", self.network_ratio());
        r.set_f64("dedup_only_ratio", self.dedup_only_ratio());
        r.set_f64("source_cache_miss_ratio", self.source_cache.miss_ratio());
        r.set_u64("writebacks_flushed", self.writeback_cache.flushed);
        r.set_u64("writebacks_dropped", self.writeback_cache.dropped);
        r.set_u64("max_read_retrievals", self.max_read_retrievals);
        r.set_f64("mean_read_retrievals", self.mean_read_retrievals);
        r.set_u64("gc_spliced", self.gc_spliced);
        r.set_u64("quarantined_entries", self.quarantined_entries);
        r.set_u64("truncated_tail_bytes", self.truncated_tail_bytes);
        r.set_u64("chain_broken_reads", self.chain_broken_reads);
        r.set_u64("apply_retries", self.apply_retries);
        r.set_u64("repaired_records", self.repaired_records);
        r.set_u64("bypassed_overload", self.bypassed_overload);
        r.set_u64("backpressure_events", self.backpressure_events);
        r.set_u64("catchup_batches", self.catchup_batches);
        r.set_u64("health_transitions", self.health_transitions);
        r.set_u64("max_replica_lag", self.max_replica_lag);
        r.set_u64("reads_decoded", self.reads_decoded);
        r.set_u64("source_cache_hits", self.source_cache.hits);
        r.set_u64("source_cache_misses", self.source_cache.misses);
        r.set_u64("source_cache_evictions", self.source_cache.evictions);
        r.set_u64("writebacks_inserted", self.writeback_cache.inserted);
        r.set_u64("writebacks_invalidated", self.writeback_cache.invalidated);
        r.set_u64("writebacks_lost_savings", self.writeback_cache.lost_savings);
        r.set_f64("io_queue_depth", self.io_queue_depth);
        r.set_f64("io_idle_fraction", self.io_idle_fraction);
        r.set_u64("events_logged", self.events_logged);
        r.set_u64("events_dropped", self.events_dropped);
        r.set_u64("events.dropped_total", self.events_dropped);
        r.set_u64("events.len", self.events_ring_len);
        r.set_u64("maint.gc_backlog", self.maint_gc_backlog);
        r.set_u64("maint.pinned_dead_bytes", self.maint_pinned_dead_bytes);
        r.set_u64("maint.dead_bytes", self.maint_dead_bytes);
        r.set_u64("maint.reclaimable_dead_bytes", self.maint_reclaimable_dead_bytes);
        r.set_u64("maint.reencoded", self.maint_reencoded);
        r.set_u64("maint.removed", self.maint_removed);
        r.set_u64("maint.retired", self.maint_retired);
        r.set_u64("maint.rededup.rewritten", self.maint_rededup_rewritten);
        r.set_u64("maint.rededup.kept_raw", self.maint_rededup_kept_raw);
        r.set_u64("maint.rededup.skipped", self.maint_rededup_skipped);
        r.set_u64("maint.rededup.backlog", self.maint_degraded_backlog);
        r.set_u64("compact.segments_rewritten", self.compact.segments_rewritten);
        r.set_u64("compact.bytes_reclaimed", self.compact.bytes_reclaimed);
        r.set_u64("compact.entries_skipped", self.compact.entries_skipped);
        r.set_u64("compact.bytes_scanned", self.compact.bytes_scanned);
        r.set_u64("scrub.verified", self.scrub_verified);
        r.set_u64("scrub.corrupt", self.scrub_corrupt);
        r.set_u64("scrub.healed_local", self.scrub_healed_local);
        r.set_u64("scrub.healed_replica", self.scrub_healed_replica);
        r.set_u64("scrub.unhealable", self.scrub_unhealable);
        r.set_u64("scrub.inconsistencies", self.scrub_inconsistencies);
        r.set_u64("scrub.passes", self.scrub_passes);
        r.set_u64("store.salvage.skipped", self.salvage_skipped);
        r.set_u64("index.partitions", self.index_tier.partitions);
        r.set_u64("index.entries", self.index_tier.entries);
        r.set_u64("index.accounted_bytes", self.index_bytes as u64);
        r.set_u64("index.allocated_bytes", self.index_tier.allocated_bytes);
        r.set_u64("index.evictions", self.index_tier.evictions);
        r.set_u64("index.spills", self.index_tier.spills);
        r.set_u64("index.spill_errors", self.index_tier.spill_errors);
        r.set_u64("index.runs", self.index_tier.runs);
        r.set_u64("index.run_entries", self.index_tier.run_entries);
        r.set_u64("index.run_file_bytes", self.index_tier.run_file_bytes);
        r.set_u64("index.dropped_runs", self.index_tier.dropped_runs);
        r.set_u64("index.hot.hits", self.index_tier.hot_hits);
        r.set_u64("index.cold.hits", self.index_tier.cold_hits);
        r.set_u64("index.cold.probes", self.index_tier.cold_probes);
        r.set_u64("index.cold.bloom_rejects", self.index_tier.bloom_rejects);
        r.set_u64("index.cold.bloom_false_probes", self.index_tier.bloom_false_probes);
        r.set_f64("index.cold.bloom_fp_rate", self.index_tier.observed_fp_rate());
        r.set_u64("maint.index.backlog", self.index_tier.merge_backlog);
        r.set_u64("maint.index.merges", self.index_tier.merges);
        r.set_u64("maint.index.merged_entries", self.index_tier.merged_entries);
        for stage in Stage::ALL {
            r.set_histogram(&format!("stage.{}", stage.name()), self.stages.get(stage));
        }
        r
    }

    /// One deployment-wide snapshot out of one per shard: counters and byte
    /// gauges add up, worst-case gauges keep the worst, the mean decode
    /// depth is weighted by the reads behind it, and device idleness is
    /// the mean across shard devices. `None` for no shards.
    ///
    /// The literal below names every field (no `..`), so a new one does not
    /// compile until someone decides how it merges.
    pub fn merge(shards: impl IntoIterator<Item = MetricsSnapshot>) -> Option<MetricsSnapshot> {
        let mut merged = 1.0;
        shards.into_iter().reduce(|a, b| {
            merged += 1.0;
            let reads = a.reads_decoded + b.reads_decoded;
            let mut stages = a.stages;
            stages.merge(&b.stages);
            let (mut compact, mut index_tier) = (a.compact, a.index_tier);
            compact.merge(b.compact);
            index_tier.merge(b.index_tier);
            MetricsSnapshot {
                original_bytes: a.original_bytes + b.original_bytes,
                stored_bytes: a.stored_bytes + b.stored_bytes,
                stored_uncompressed_bytes: a.stored_uncompressed_bytes
                    + b.stored_uncompressed_bytes,
                network_bytes: a.network_bytes + b.network_bytes,
                index_bytes: a.index_bytes + b.index_bytes,
                deduped_inserts: a.deduped_inserts + b.deduped_inserts,
                unique_inserts: a.unique_inserts + b.unique_inserts,
                bypassed_size: a.bypassed_size + b.bypassed_size,
                bypassed_governor: a.bypassed_governor + b.bypassed_governor,
                source_cache: SourceCacheStats {
                    hits: a.source_cache.hits + b.source_cache.hits,
                    misses: a.source_cache.misses + b.source_cache.misses,
                    evictions: a.source_cache.evictions + b.source_cache.evictions,
                },
                writeback_cache: WritebackCacheStats {
                    inserted: a.writeback_cache.inserted + b.writeback_cache.inserted,
                    flushed: a.writeback_cache.flushed + b.writeback_cache.flushed,
                    dropped: a.writeback_cache.dropped + b.writeback_cache.dropped,
                    invalidated: a.writeback_cache.invalidated + b.writeback_cache.invalidated,
                    lost_savings: a.writeback_cache.lost_savings + b.writeback_cache.lost_savings,
                },
                max_read_retrievals: a.max_read_retrievals.max(b.max_read_retrievals),
                mean_read_retrievals: (a.mean_read_retrievals * a.reads_decoded as f64
                    + b.mean_read_retrievals * b.reads_decoded as f64)
                    / reads.max(1) as f64,
                reads_decoded: reads,
                gc_spliced: a.gc_spliced + b.gc_spliced,
                quarantined_entries: a.quarantined_entries + b.quarantined_entries,
                truncated_tail_bytes: a.truncated_tail_bytes + b.truncated_tail_bytes,
                chain_broken_reads: a.chain_broken_reads + b.chain_broken_reads,
                apply_retries: a.apply_retries + b.apply_retries,
                repaired_records: a.repaired_records + b.repaired_records,
                bypassed_overload: a.bypassed_overload + b.bypassed_overload,
                backpressure_events: a.backpressure_events + b.backpressure_events,
                catchup_batches: a.catchup_batches + b.catchup_batches,
                health_transitions: a.health_transitions + b.health_transitions,
                max_replica_lag: a.max_replica_lag.max(b.max_replica_lag),
                stages,
                io_queue_depth: a.io_queue_depth + b.io_queue_depth,
                io_idle_fraction: a.io_idle_fraction
                    + (b.io_idle_fraction - a.io_idle_fraction) / merged,
                events_logged: a.events_logged + b.events_logged,
                events_dropped: a.events_dropped + b.events_dropped,
                events_ring_len: a.events_ring_len + b.events_ring_len,
                maint_gc_backlog: a.maint_gc_backlog + b.maint_gc_backlog,
                maint_pinned_dead_bytes: a.maint_pinned_dead_bytes + b.maint_pinned_dead_bytes,
                maint_dead_bytes: a.maint_dead_bytes + b.maint_dead_bytes,
                maint_reclaimable_dead_bytes: a.maint_reclaimable_dead_bytes
                    + b.maint_reclaimable_dead_bytes,
                maint_reencoded: a.maint_reencoded + b.maint_reencoded,
                maint_removed: a.maint_removed + b.maint_removed,
                maint_retired: a.maint_retired + b.maint_retired,
                maint_rededup_rewritten: a.maint_rededup_rewritten + b.maint_rededup_rewritten,
                maint_rededup_kept_raw: a.maint_rededup_kept_raw + b.maint_rededup_kept_raw,
                maint_rededup_skipped: a.maint_rededup_skipped + b.maint_rededup_skipped,
                maint_degraded_backlog: a.maint_degraded_backlog + b.maint_degraded_backlog,
                compact,
                scrub_verified: a.scrub_verified + b.scrub_verified,
                scrub_corrupt: a.scrub_corrupt + b.scrub_corrupt,
                scrub_healed_local: a.scrub_healed_local + b.scrub_healed_local,
                scrub_healed_replica: a.scrub_healed_replica + b.scrub_healed_replica,
                scrub_unhealable: a.scrub_unhealable + b.scrub_unhealable,
                scrub_inconsistencies: a.scrub_inconsistencies + b.scrub_inconsistencies,
                scrub_passes: a.scrub_passes + b.scrub_passes,
                salvage_skipped: a.salvage_skipped + b.salvage_skipped,
                index_tier,
            }
        })
    }

    /// Renders the snapshot as one flat JSON object (via the registry).
    /// Handy for piping harness output into plotting scripts.
    pub fn to_json(&self) -> String {
        self.registry().to_json()
    }

    /// Storage compression ratio: original / stored.
    pub fn storage_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Storage compression from dedup alone (before block compression).
    pub fn dedup_only_ratio(&self) -> f64 {
        if self.stored_uncompressed_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.stored_uncompressed_bytes as f64
        }
    }

    /// Network compression ratio: original / transferred.
    pub fn network_ratio(&self) -> f64 {
        if self.network_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.network_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            original_bytes: 1000,
            stored_bytes: 100,
            stored_uncompressed_bytes: 200,
            network_bytes: 50,
            index_bytes: 48,
            deduped_inserts: 9,
            unique_inserts: 1,
            bypassed_size: 0,
            bypassed_governor: 0,
            source_cache: SourceCacheStats::default(),
            writeback_cache: WritebackCacheStats::default(),
            max_read_retrievals: 0,
            mean_read_retrievals: 0.0,
            reads_decoded: 0,
            gc_spliced: 0,
            quarantined_entries: 0,
            truncated_tail_bytes: 0,
            chain_broken_reads: 0,
            apply_retries: 0,
            repaired_records: 0,
            bypassed_overload: 0,
            backpressure_events: 0,
            catchup_batches: 0,
            health_transitions: 0,
            max_replica_lag: 0,
            stages: StageSet::new(),
            io_queue_depth: 0.0,
            io_idle_fraction: 1.0,
            events_logged: 0,
            events_dropped: 0,
            events_ring_len: 0,
            maint_gc_backlog: 0,
            maint_pinned_dead_bytes: 0,
            maint_dead_bytes: 0,
            maint_reclaimable_dead_bytes: 0,
            maint_reencoded: 0,
            maint_removed: 0,
            maint_retired: 0,
            maint_rededup_rewritten: 0,
            maint_rededup_kept_raw: 0,
            maint_rededup_skipped: 0,
            maint_degraded_backlog: 0,
            compact: CompactStats::default(),
            scrub_verified: 0,
            scrub_corrupt: 0,
            scrub_healed_local: 0,
            scrub_healed_replica: 0,
            scrub_unhealable: 0,
            scrub_inconsistencies: 0,
            scrub_passes: 0,
            salvage_skipped: 0,
            index_tier: IndexTierMetrics::default(),
        }
    }

    #[test]
    fn merge_adds_counters_weights_the_mean_and_keeps_the_worst() {
        let (mut a, mut b) = (snap(), snap());
        (a.reads_decoded, a.mean_read_retrievals, a.max_read_retrievals) = (1, 4.0, 4);
        (b.reads_decoded, b.mean_read_retrievals, b.io_idle_fraction) = (3, 0.0, 0.25);
        b.max_replica_lag = 7;
        let m = MetricsSnapshot::merge([a, b, snap()]).unwrap();
        assert_eq!(m.original_bytes, 3000);
        assert_eq!((m.reads_decoded, m.mean_read_retrievals, m.max_read_retrievals), (4, 1.0, 4));
        assert_eq!(m.max_replica_lag, 7);
        assert!((m.io_idle_fraction - 0.75).abs() < 1e-12, "{}", m.io_idle_fraction);
        assert!(MetricsSnapshot::merge([]).is_none());
    }

    #[test]
    fn ratios() {
        let s = snap();
        assert!((s.storage_ratio() - 10.0).abs() < 1e-9);
        assert!((s.dedup_only_ratio() - 5.0).abs() < 1e-9);
        assert!((s.network_ratio() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn json_carries_replication_robustness_counters() {
        let mut s = snap();
        s.backpressure_events = 3;
        s.catchup_batches = 2;
        s.health_transitions = 5;
        s.max_replica_lag = 41;
        s.bypassed_overload = 7;
        let j = s.to_json();
        for needle in [
            "\"backpressure_events\":3",
            "\"catchup_batches\":2",
            "\"health_transitions\":5",
            "\"max_replica_lag\":41",
            "\"bypassed_overload\":7",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn json_carries_stage_percentiles_and_io_gauges() {
        let mut s = snap();
        s.stages.record(Stage::Chunk, 1_000);
        s.io_queue_depth = 3.5;
        let j = s.to_json();
        assert!(j.contains("\"stage.chunk.count\":1"), "{j}");
        assert!(j.contains("\"stage.chunk.p50\":"), "{j}");
        assert!(j.contains("\"stage.decode_chain.p999\":"), "{j}");
        assert!(j.contains("\"io_queue_depth\":3.5000"), "{j}");
        assert!(j.contains("\"io_idle_fraction\":1.0000"), "{j}");
    }

    #[test]
    fn json_carries_maintenance_gauges() {
        let mut s = snap();
        s.maint_gc_backlog = 4;
        s.maint_pinned_dead_bytes = 4096;
        s.maint_reclaimable_dead_bytes = 512;
        s.maint_removed = 2;
        s.maint_rededup_rewritten = 6;
        s.maint_degraded_backlog = 11;
        s.compact.segments_rewritten = 3;
        s.compact.bytes_reclaimed = 9999;
        let j = s.to_json();
        for needle in [
            "\"maint.gc_backlog\":4",
            "\"maint.pinned_dead_bytes\":4096",
            "\"maint.reclaimable_dead_bytes\":512",
            "\"maint.removed\":2",
            "\"maint.rededup.rewritten\":6",
            "\"maint.rededup.backlog\":11",
            "\"compact.segments_rewritten\":3",
            "\"compact.bytes_reclaimed\":9999",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn json_carries_scrub_gauges() {
        let mut s = snap();
        s.scrub_verified = 40;
        s.scrub_corrupt = 2;
        s.scrub_healed_local = 1;
        s.scrub_healed_replica = 1;
        s.scrub_unhealable = 0;
        s.scrub_passes = 3;
        s.salvage_skipped = 5;
        let j = s.to_json();
        for needle in [
            "\"scrub.verified\":40",
            "\"scrub.corrupt\":2",
            "\"scrub.healed_local\":1",
            "\"scrub.healed_replica\":1",
            "\"scrub.unhealable\":0",
            "\"scrub.passes\":3",
            "\"store.salvage.skipped\":5",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn json_carries_event_ring_gauges() {
        let mut s = snap();
        s.events_logged = 700;
        s.events_dropped = 444;
        s.events_ring_len = 256;
        let j = s.to_json();
        for needle in [
            "\"events_logged\":700",
            "\"events_dropped\":444",
            "\"events.dropped_total\":444",
            "\"events.len\":256",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn json_carries_index_tier_gauges() {
        let mut s = snap();
        s.index_tier.partitions = 2;
        s.index_tier.entries = 500;
        s.index_tier.spills = 3;
        s.index_tier.runs = 4;
        s.index_tier.run_entries = 400;
        s.index_tier.cold_probes = 90;
        s.index_tier.bloom_rejects = 10;
        s.index_tier.bloom_false_probes = 1;
        s.index_tier.merge_backlog = 3;
        s.index_tier.merges = 7;
        let j = s.to_json();
        for needle in [
            "\"index.partitions\":2",
            "\"index.entries\":500",
            "\"index.accounted_bytes\":48",
            "\"index.spills\":3",
            "\"index.runs\":4",
            "\"index.run_entries\":400",
            "\"index.cold.probes\":90",
            "\"index.cold.bloom_rejects\":10",
            "\"index.cold.bloom_fp_rate\":0.0100",
            "\"maint.index.backlog\":3",
            "\"maint.index.merges\":7",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn observed_fp_rate_handles_zero_consultations() {
        let m = IndexTierMetrics::default();
        assert_eq!(m.observed_fp_rate(), 0.0);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let mut s = snap();
        s.stored_bytes = 0;
        s.network_bytes = 0;
        s.stored_uncompressed_bytes = 0;
        assert_eq!(s.storage_ratio(), 1.0);
        assert_eq!(s.network_ratio(), 1.0);
        assert_eq!(s.dedup_only_ratio(), 1.0);
    }
}
