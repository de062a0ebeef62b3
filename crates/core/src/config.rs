//! Engine configuration, with the paper's defaults.

use dbdedup_chunker::ChunkerKind;
use dbdedup_encoding::EncodingPolicy;

/// All dbDedup tunables in one place. `EngineConfig::default()` is the
/// configuration the paper evaluates (§5): 1 KiB chunks, K = 8 features,
/// reward score 2, 32 MiB source cache, 8 MiB write-back cache, hop
/// distance 16, anchor interval 64.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Whether deduplication is enabled at all (off ⇒ plain storage).
    pub dedup_enabled: bool,
    /// Average content-defined chunk size for feature extraction (power of
    /// two). The paper sweeps 64 B – 1 KiB.
    pub chunk_avg_size: usize,
    /// Boundary detector. [`ChunkerKind::Gear`] is its only value: one gear-
    /// hash pass over each record finds chunk boundaries and the delta
    /// encoder's anchors together. Kept only because the `perf/` benchmark
    /// names it; the engine does not read it.
    pub chunker_kind: ChunkerKind,
    /// Sketch size K: features kept per record.
    pub sketch_k: usize,
    /// Cache-aware selection reward added to a candidate's feature-match
    /// score when it is resident in the source cache (§3.1.3).
    pub cache_reward: u32,
    /// Source record cache budget in bytes.
    pub source_cache_bytes: usize,
    /// Lossy write-back cache budget in bytes.
    pub writeback_cache_bytes: usize,
    /// Encoding policy for local storage.
    pub encoding: EncodingPolicy,
    /// Anchor interval for the delta compressor (power of two; 16 ≈ xDelta).
    pub anchor_interval: usize,
    /// Apply block compression (`blockz`, our Snappy stand-in) to stored
    /// payloads.
    pub block_compression: bool,
    /// Governor: disable dedup for a database whose compression ratio
    /// stays below this threshold...
    pub governor_min_ratio: f64,
    /// ...after this many record insertions (§3.4.1; the paper uses 100 k).
    pub governor_min_inserts: u64,
    /// Size filter: refresh the cut-off every this many inserts (§3.4.2).
    pub filter_refresh_interval: u64,
    /// Size filter: records below this quantile of the size distribution
    /// are bypassed (the paper uses the 40th percentile).
    pub filter_quantile: f64,
    /// Maximum records a dedup insert is allowed to examine per feature.
    pub max_candidates_per_feature: usize,
    /// Minimum bytes a forward delta must save for dedup to be worthwhile;
    /// otherwise the record is treated as unique.
    pub min_benefit_bytes: usize,
    /// Apply backward writebacks synchronously at insert time instead of
    /// buffering them in the lossy cache. Only used by the Fig. 13b
    /// ablation ("w/o write-back cache"); hurts burst throughput.
    pub synchronous_writebacks: bool,
    /// When set, the oplog is persisted to this file (MongoDB's oplog is a
    /// durable collection); otherwise it is memory-only.
    pub oplog_path: Option<std::path::PathBuf>,
    /// Budget (bytes) of already-shipped oplog entries retained for
    /// replica cursor catch-up. A replica whose cursor falls below the
    /// retention floor must fall back to a full anti-entropy resync.
    pub oplog_retain_bytes: usize,
    /// Stage-latency tracing samples one operation in this many
    /// (`0` disables tracing entirely). The default keeps the insert-path
    /// overhead within the ≤ 2 % budget the telemetry self-test enforces.
    pub trace_sample_every: u32,
    /// Maximum events retained by the structured event log ring buffer.
    pub event_log_capacity: usize,
    /// Accounted-byte budget for each database's hot (in-memory) feature
    /// index tier. Reaching it spills the tier into an immutable on-disk
    /// run behind a Bloom prefilter. `None` (the default, the paper's
    /// configuration) keeps the index purely in memory and is byte-for-byte
    /// identical to the pre-tiering engine.
    pub index_hot_budget_bytes: Option<usize>,
    /// Whether spills persist to disk runs. When false, reaching the hot
    /// budget discards the tier instead — the eviction-cliff baseline the
    /// `index_tiering` bench compares against.
    pub index_spill_to_disk: bool,
    /// Target false-positive rate for each run's Bloom prefilter: the
    /// fraction of cold lookups allowed to pay a wasted disk probe.
    pub index_bloom_fp_target: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            dedup_enabled: true,
            chunk_avg_size: 1024,
            chunker_kind: ChunkerKind::Gear,
            sketch_k: 8,
            cache_reward: 2,
            source_cache_bytes: 32 << 20,
            writeback_cache_bytes: 8 << 20,
            encoding: EncodingPolicy::default_hop(),
            anchor_interval: 64,
            block_compression: false,
            governor_min_ratio: 1.1,
            governor_min_inserts: 100_000,
            filter_refresh_interval: 1000,
            filter_quantile: 0.40,
            max_candidates_per_feature: 8,
            min_benefit_bytes: 64,
            synchronous_writebacks: false,
            oplog_path: None,
            oplog_retain_bytes: dbdedup_storage::oplog::DEFAULT_OPLOG_RETAIN_BYTES,
            trace_sample_every: 32,
            event_log_capacity: 1024,
            index_hot_budget_bytes: None,
            index_spill_to_disk: true,
            index_bloom_fp_target: 0.01,
        }
    }
}

impl EngineConfig {
    /// The paper's dbDedup configuration with a specific chunk size.
    pub fn with_chunk_size(chunk_avg_size: usize) -> Self {
        Self { chunk_avg_size, ..Default::default() }
    }

    /// Plain storage, no dedup (the "Original" configuration of Fig. 12).
    pub fn no_dedup() -> Self {
        Self { dedup_enabled: false, ..Default::default() }
    }

    /// Block compression only (the "Snappy" configuration).
    pub fn compression_only() -> Self {
        Self { dedup_enabled: false, block_compression: true, ..Default::default() }
    }

    /// Disables the size filter (used by ablation benches).
    pub fn without_size_filter(mut self) -> Self {
        self.filter_quantile = 0.0;
        self
    }
}

/// Tunables for the bounded-worker parallel ingest pipeline
/// ([`crate::pipeline::ParallelIngest`]).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Preparer (chunk + sketch) worker threads. Clamped to ≥ 1.
    pub workers: usize,
    /// Maximum submitted-but-uncommitted records before `submit` blocks
    /// (backpressure). Bounds both the worker queue and every reorder
    /// buffer. Clamped to ≥ 1.
    pub max_inflight: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self { workers: 4, max_inflight: 64 }
    }
}

impl IngestConfig {
    /// A pipeline with `workers` preparer threads and a proportional
    /// in-flight cap (16 records per worker, at least 16).
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        Self { workers, max_inflight: (workers * 16).max(16) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.chunk_avg_size, 1024);
        assert_eq!(c.chunker_kind, ChunkerKind::Gear);
        assert_eq!(c.sketch_k, 8);
        assert_eq!(c.cache_reward, 2);
        assert_eq!(c.anchor_interval, 64);
        assert_eq!(c.source_cache_bytes, 32 << 20);
        assert_eq!(c.writeback_cache_bytes, 8 << 20);
        assert!((c.governor_min_ratio - 1.1).abs() < 1e-9);
        assert!((c.filter_quantile - 0.40).abs() < 1e-9);
        match c.encoding {
            EncodingPolicy::Hop { distance, .. } => assert_eq!(distance, 16),
            _ => panic!("default must be hop encoding"),
        }
    }

    #[test]
    fn presets() {
        assert!(!EngineConfig::no_dedup().dedup_enabled);
        let s = EngineConfig::compression_only();
        assert!(!s.dedup_enabled);
        assert!(s.block_compression);
        assert_eq!(EngineConfig::default().without_size_filter().filter_quantile, 0.0);
    }

    #[test]
    fn ingest_config_clamps_workers() {
        let c = IngestConfig::with_workers(0);
        assert_eq!(c.workers, 1);
        assert!(c.max_inflight >= 16);
        assert_eq!(IngestConfig::with_workers(8).max_inflight, 128);
        assert_eq!(IngestConfig::default().workers, 4);
    }
}
