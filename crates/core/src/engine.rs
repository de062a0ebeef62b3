//! The dbDedup engine: workflow, read path, update/delete semantics, and
//! write-back flushing (Fig. 3 + §4.1 of the paper).
//!
//! Each write-path mechanism has one owner here, and every other path calls
//! it: steps ①–④ of the workflow are `dedup_pipeline`; linking a record
//! into its source's chain is `link_into_chain`; storing a record raw at
//! the head of a fresh chain is `insert_raw`; re-storing a record in
//! another form with the same content, oplog-silently, is `rewrite_local`;
//! cutting a tombstone out of a chain is `splice_out`; moving every
//! dependent off a record, for background GC and for an update, is
//! `rehome_dependents` (in `gc`); forgetting what was derived from a
//! record's old bytes is `drop_derived`. Callers own only
//! their write *ordering*: raw-first for an insert (`apply_dedup_insert`),
//! copy-before-supersede for maintenance.
//!
//! The maintenance verbs — all local and oplog-silent — are further
//! `impl DedupEngine` blocks in the child modules: chain GC and retention
//! (`gc`), out-of-line re-dedup (`rededup`), segment compaction and
//! tiered-index upkeep (`compaction`), repair and the integrity scrub
//! (`scrub`); `telemetry` holds the counters, health and metrics read-outs.

mod compaction;
mod gc;
mod rededup;
mod scrub;
mod telemetry;

pub use compaction::IndexMergeStats;
pub use rededup::RededupOutcome;
pub use scrub::ScrubSlice;

use crate::config::EngineConfig;
use crate::filter::SizeFilter;
use crate::governor::{Governor, GovernorVerdict};
use crate::metrics::EngineMetrics;
use crate::pipeline::{InsertPreparer, PreparedInsert};
use bytes::Bytes;
use dbdedup_cache::{CachedSource, PendingWriteback, SourceRecordCache, WritebackCache};
use dbdedup_chunker::{RecordScan, Sketch, SketchExtractor};
use dbdedup_delta::ops::DeltaError;
use dbdedup_delta::{reencode, DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup_encoding::{ChainManager, Writeback};
use dbdedup_index::{
    CuckooConfig, FeatureIndex, PartitionedIndex, TieredConfig, TieredFeatureIndex,
};
use dbdedup_obs::{EventKind, EventLog, FlightRecorder, Severity, Stage, StageTracer};
use dbdedup_storage::oplog::CursorGap;
use dbdedup_storage::store::{RecordStore, StorageForm, StoreConfig, StoreError};
use dbdedup_storage::{IoMeter, Oplog, OplogEntry, OplogKind, OplogPayload};
use dbdedup_util::hash::fx::{FxHashMap, FxHashSet};
use dbdedup_util::ids::RecordId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors surfaced by engine operations.
#[derive(Debug)]
pub enum EngineError {
    /// Storage-layer failure.
    Store(StoreError),
    /// A stored delta failed to decode (data corruption).
    Delta(DeltaError),
    /// The record does not exist (or is deleted).
    NotFound(RecordId),
    /// An insert reused an existing record id.
    DuplicateId(RecordId),
    /// The durable oplog failed.
    Oplog(std::io::Error),
    /// A read failed because corruption broke the record's decode chain:
    /// `id` was requested, but `broken_at` (somewhere on its decode path)
    /// is quarantined, missing, or undecodable. The chain is marked; the
    /// anti-entropy resync re-materializes it from a peer.
    ChainBroken {
        /// The record whose read failed.
        id: RecordId,
        /// The decode-path node that is actually damaged.
        broken_at: RecordId,
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "store: {e}"),
            EngineError::Delta(e) => write!(f, "delta: {e}"),
            EngineError::NotFound(id) => write!(f, "record {id} not found"),
            EngineError::DuplicateId(id) => write!(f, "record {id} already exists"),
            EngineError::Oplog(e) => write!(f, "oplog: {e}"),
            EngineError::ChainBroken { id, broken_at, detail } => {
                write!(f, "record {id} unreadable: decode chain broken at {broken_at} ({detail})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl From<DeltaError> for EngineError {
    fn from(e: DeltaError) -> Self {
        EngineError::Delta(e)
    }
}

/// What happened to an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A similar record was found; the insert was delta-encoded against it.
    Deduped {
        /// The selected source record.
        source: RecordId,
        /// Encoded forward-delta size in bytes.
        forward_bytes: usize,
    },
    /// No (beneficial) similar record; stored raw.
    Unique,
    /// Below the size filter's threshold; dedup skipped.
    BypassedSize,
    /// The governor has disabled dedup for this database.
    BypassedGovernor,
    /// The replication layer reported overload; dedup encoding was shed
    /// for this insert (stored raw, reversible — see
    /// [`DedupEngine::set_replication_pressure`]).
    BypassedOverload,
    /// Dedup disabled in configuration.
    Disabled,
}

/// Maps dense 4-byte index slots to record ids (the feature index stores
/// slots, as the paper's index stores 4-byte record pointers).
#[derive(Debug, Default)]
struct SlotTable {
    slots: Vec<Option<RecordId>>,
    free: Vec<u32>,
    by_record: FxHashMap<RecordId, u32>,
}

impl SlotTable {
    fn assign(&mut self, id: RecordId) -> u32 {
        if let Some(&s) = self.by_record.get(&id) {
            return s;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(id);
                s
            }
            None => {
                self.slots.push(Some(id));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_record.insert(id, slot);
        slot
    }

    fn get(&self, slot: u32) -> Option<RecordId> {
        self.slots.get(slot as usize).copied().flatten()
    }

    fn release(&mut self, id: RecordId) {
        if let Some(slot) = self.by_record.remove(&id) {
            self.slots[slot as usize] = None;
            self.free.push(slot);
        }
    }
}

/// The physical form [`DedupEngine::rewrite_local`] re-stores a record in,
/// which fixes the base-pointer update that goes with the write.
#[derive(Clone, Copy)]
enum Rewrite {
    /// Raw: the record stops decoding through anything.
    Raw,
    /// A planned backward delta against `base` reaching disk.
    Writeback { base: RecordId },
    /// A delta against `base` that bridges a spliced-out tombstone.
    Splice { base: RecordId },
}

/// The one splice read-side GC makes on a decode path: `dead`, the first
/// deleted node past the record read, is cut out from under `dep`, the node
/// above it, which is re-encoded against `dead`'s own base on the path (or
/// stored raw when `dead` ended the path).
struct Splice {
    dep: RecordId,
    dep_content: Bytes,
    dead: RecordId,
    base: Option<(RecordId, Bytes)>,
}

/// Buffers the insert path fills for every record and reuses for the next.
#[derive(Debug, Default)]
struct InsertScratch {
    /// The new record's chunks and anchors.
    scan: RecordScan,
    /// Candidate slot → features it shares with the new record.
    counts: Vec<(u32, u32)>,
}

/// The dbDedup engine. See module docs.
pub struct DedupEngine {
    config: EngineConfig,
    store: RecordStore,
    oplog: Oplog,
    extractor: SketchExtractor,
    encoder: DbDeltaEncoder,
    scratch: InsertScratch,
    index: PartitionedIndex<TieredFeatureIndex>,
    chains: ChainManager,
    source_cache: SourceRecordCache,
    wb_cache: WritebackCache,
    io: IoMeter,
    governor: Governor,
    filter: SizeFilter,
    slots: SlotTable,
    /// Records known unreadable due to corruption: decode bases quarantined
    /// by salvage recovery, plus chains found broken by reads. Advisory —
    /// the store remains authoritative — but gives the anti-entropy resync
    /// its priority work-list.
    broken: FxHashSet<RecordId>,
    /// Records admitted raw via the overload pass-through path, keyed to
    /// the logical database they were tagged under — the out-of-line
    /// re-dedup backlog. Ordered by id so maintenance drains in insertion
    /// order, replaying the same index/chain operation sequence the inline
    /// path would have run. The durable half lives in segment metadata
    /// ([`RecordStore::put_degraded`]); this map is rebuilt from
    /// [`RecordStore::degraded_records`] on restart.
    degraded: BTreeMap<RecordId, String>,
    metrics: EngineMetrics,
    /// Sampling per-stage latency tracer (insert workflow, read decode).
    tracer: StageTracer,
    /// Structured incident log, shared with replication components.
    events: Arc<EventLog>,
    /// Optional anomaly flight recorder; when attached it taps the event
    /// log (mirroring events, auto-firing dump triggers) and the stage
    /// tracer (mirroring sampled spans).
    flight: Option<Arc<FlightRecorder>>,
    /// While set, decode reads skip the I/O meter. The scrubber turns this
    /// on for its verification walk: charging those reads to the idleness
    /// signal would let one background task (verification) starve another
    /// (idle-time writeback flushing) indefinitely on small stores. Repair
    /// writes stay metered — they are real foreground-visible I/O.
    unmetered_reads: bool,
}

impl std::fmt::Debug for DedupEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupEngine").field("records", &self.chains.len()).finish_non_exhaustive()
    }
}

impl DedupEngine {
    /// Creates an engine over an existing record store.
    pub fn new(store: RecordStore, config: EngineConfig) -> Result<Self, EngineError> {
        // Shared with the parallel-ingest preparer so worker-computed
        // sketches are bit-identical to inline ones.
        let (extractor, _) = InsertPreparer::from_config(&config).into_parts();
        let encoder = DbDeltaEncoder::new(DbDeltaConfig::with_interval(config.anchor_interval));
        // Hot tier only by default (the paper's configuration); a budget
        // turns on tiering, spilling into Bloom-gated runs kept under the
        // store's directory so a store and its derived index files move
        // together. Runs are derived data — losing them only costs ratio.
        let index = PartitionedIndex::new(TieredConfig {
            cuckoo: CuckooConfig {
                max_candidates: config.max_candidates_per_feature,
                ..Default::default()
            },
            hot_budget_bytes: config.index_hot_budget_bytes,
            bloom_fp_target: config.index_bloom_fp_target,
            run_dir: if config.index_spill_to_disk {
                Some(store.dir().join("index-runs"))
            } else {
                None
            },
            ..Default::default()
        });
        let mut oplog = match &config.oplog_path {
            Some(path) => Oplog::open(path).map_err(EngineError::Oplog)?,
            None => Oplog::new(),
        };
        oplog.set_retention(config.oplog_retain_bytes);
        // Restart over an existing store: rebuild chain topology and
        // reference counts from the on-disk base pointers so deletes, GC
        // and future encodes behave correctly. (The similarity index is
        // in-memory by design — as in the paper — so recovered records are
        // re-discovered only once new similar data arrives.)
        let mut chains = ChainManager::new(config.encoding);
        let mut broken: FxHashSet<RecordId> = FxHashSet::default();
        if !store.is_empty() {
            let forms = store.live_forms();
            let live: FxHashSet<RecordId> = forms.iter().map(|&(id, _)| id).collect();
            chains.recover(forms.into_iter().map(|(id, form)| {
                let base = match form {
                    StorageForm::Raw => None,
                    // Salvage recovery may have quarantined the base this
                    // delta decodes through. The record is unreadable until
                    // resync re-materializes it — track it as a raw-headed
                    // broken chain rather than faulting on a dangling
                    // pointer.
                    StorageForm::Delta { base } if !live.contains(&base) => {
                        broken.insert(id);
                        None
                    }
                    StorageForm::Delta { base } => Some(base),
                };
                (id, base)
            }));
        }
        // The degraded-set survives restart through segment metadata: every
        // live frame still carrying the overload tag re-enters the re-dedup
        // backlog, in id (= insertion) order.
        let degraded: BTreeMap<RecordId, String> = store.degraded_records()?.into_iter().collect();
        let tracer = StageTracer::new(config.trace_sample_every);
        let events = EventLog::shared(config.event_log_capacity);
        // Surface what salvage recovery found on the way up, in the store
        // and in the durable oplog: quarantined checksum failures and
        // torn-tail truncation are the first things an operator reads
        // after a crash.
        let (recovery, cut) = (store.io_stats(), oplog.recovery_report());
        let quarantined = recovery.quarantined_entries + cut.quarantined_entries;
        let truncated_bytes = recovery.truncated_tail_bytes + cut.truncated_tail_bytes;
        if quarantined > 0 || truncated_bytes > 0 {
            events.record(Severity::Error, EventKind::Salvage { quarantined, truncated_bytes });
        }
        // One warning per skipped frame with its exact location, so an
        // operator can correlate quarantines with device-level errors.
        let salvage = store.recovery_report();
        for frame in &salvage.skipped {
            events.record(
                Severity::Warn,
                EventKind::SalvageSkipped {
                    segment: u64::from(frame.segment),
                    offset: frame.offset,
                    bytes: frame.bytes,
                },
            );
        }
        let metrics = EngineMetrics {
            salvage_skipped: salvage.skipped.len() as u64,
            ..EngineMetrics::default()
        };
        Ok(Self {
            tracer,
            events,
            extractor,
            encoder,
            scratch: InsertScratch::default(),
            index,
            chains,
            source_cache: SourceRecordCache::new(config.source_cache_bytes),
            wb_cache: WritebackCache::new(config.writeback_cache_bytes),
            io: IoMeter::hdd_profile(),
            governor: Governor::new(config.governor_min_ratio, config.governor_min_inserts),
            filter: SizeFilter::new(config.filter_refresh_interval, config.filter_quantile),
            slots: SlotTable::default(),
            broken,
            degraded,
            metrics,
            oplog,
            store,
            config,
            flight: None,
            unmetered_reads: false,
        })
    }

    /// Creates an engine over a temporary store (tests, benches, examples).
    pub fn open_temp(config: EngineConfig) -> Result<Self, EngineError> {
        let store_cfg =
            StoreConfig { block_compression: config.block_compression, ..Default::default() };
        Self::new(RecordStore::open_temp(store_cfg)?, config)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The underlying store (for size accounting in experiments).
    pub fn store(&self) -> &RecordStore {
        &self.store
    }

    // ------------------------------------------------------------------
    // Insert path (Fig. 3)
    // ------------------------------------------------------------------

    /// Inserts a new record into logical database `db`.
    pub fn insert(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
    ) -> Result<InsertOutcome, EngineError> {
        self.insert_prepared(db, id, data, None)
    }

    /// Inserts a record whose pure CPU stages (the scan for chunks and
    /// delta anchors, and sketch extraction) may already have been computed
    /// off-thread by an [`InsertPreparer`]. With `prepared = None` this *is*
    /// the serial insert path; with `Some(_)` only those stages are
    /// substituted — every gate, lookup, selection, and append below runs
    /// unchanged, in call order, so the two paths commit identical bytes.
    pub fn insert_prepared(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<PreparedInsert>,
    ) -> Result<InsertOutcome, EngineError> {
        let outcome = self.insert_gated(db, id, data, prepared)?;
        // Counted once the record is in: a failed insert adds nothing.
        self.metrics.original_bytes += data.len() as u64;
        Ok(outcome)
    }

    /// [`insert_prepared`](Self::insert_prepared)'s gates, dedup pipeline
    /// and writes.
    fn insert_gated(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<PreparedInsert>,
    ) -> Result<InsertOutcome, EngineError> {
        if self.store.contains(id) {
            return Err(EngineError::DuplicateId(id));
        }
        // One sampling decision per insert; unsampled operations skip
        // every clock read below.
        let sampled = self.tracer.sample();
        let len = data.len() as u64;

        if !self.config.dedup_enabled {
            self.insert_raw(id, Bytes::copy_from_slice(data), None, true)?;
            return Ok(InsertOutcome::Disabled);
        }
        if self.governor.is_disabled(db) {
            self.metrics.bypassed_governor += 1;
            self.insert_raw(id, Bytes::copy_from_slice(data), None, true)?;
            return Ok(InsertOutcome::BypassedGovernor);
        }
        if self.governor.is_overloaded() {
            // Replication backpressure: shed the CPU-heavy dedup stage
            // (feature extraction, index lookup, delta encoding) so ingest
            // keeps absorbing the burst. The raw record still replicates —
            // a throughput/compression trade, never a correctness one.
            self.metrics.bypassed_overload += 1;
            self.record_governor(db, len, len);
            self.insert_raw(id, Bytes::copy_from_slice(data), Some(db), true)?;
            return Ok(InsertOutcome::BypassedOverload);
        }
        if self.filter.observe(db, len) {
            self.metrics.bypassed_size += 1;
            self.record_governor(db, len, len);
            self.insert_raw(id, Bytes::copy_from_slice(data), None, true)?;
            return Ok(InsertOutcome::BypassedSize);
        }

        if let (true, Some(p)) = (sampled, &prepared) {
            // Credit the worker's measured time to the same stage
            // histograms the inline scan feeds.
            self.tracer.stages_mut().record(Stage::Chunk, p.chunk_ns);
            self.tracer.stages_mut().record(Stage::Sketch, p.sketch_ns);
        }
        let (new, found) = self.dedup_pipeline(db, id, data, prepared)?;
        let Some((source, src, forward)) = found else {
            // Unique — and a future similar record will want this content
            // and its anchors: the source cache shares the oplog's copy.
            self.record_governor(db, len, len);
            self.insert_raw(id, new.data.clone(), None, true)?;
            self.source_cache.insert_source(id, new);
            return Ok(InsertOutcome::Unique);
        };
        let forward = Bytes::from(forward.into_bytes());
        let forward_bytes = forward.len();
        self.record_governor(db, len, forward_bytes as u64);
        self.apply_dedup_insert(id, source, new, &src.data, &forward, true)?;
        self.metrics.deduped_inserts += 1;
        self.metrics.forward_delta_bytes += forward_bytes as u64;
        Ok(InsertOutcome::Deduped { source, forward_bytes })
    }

    /// Steps ①–④ of the workflow for a record every gate let through —
    /// the one dedup pipeline, run inline by an insert and out of line by
    /// [`rededup_record`](Self::rededup_record): scan and sketch `data` (or
    /// take a pipeline worker's — same configuration, so same sketch and
    /// anchors), register its features and tally the candidates, select the
    /// source, fetch it, encode the forward delta and hold that to the
    /// benefit gate. Returns the record as the source cache will keep it
    /// and, when a beneficial source exists, that source, its content and
    /// the delta. What gets written, and in which order, is the caller's.
    #[allow(clippy::type_complexity)]
    fn dedup_pipeline(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<PreparedInsert>,
    ) -> Result<(CachedSource, Option<(RecordId, CachedSource, Delta)>), EngineError> {
        // The scan and the tally fill the engine's scratch buffers.
        let mut scratch = std::mem::take(&mut self.scratch);
        // ① Feature extraction and the record's anchors.
        let (sketch, anchors) = match prepared {
            Some(p) => (p.sketch, Arc::from(p.anchors)),
            None => {
                let sketch = self.scan_and_sketch(data, &mut scratch.scan);
                (sketch, Arc::from(scratch.scan.anchors.as_slice()))
            }
        };
        let new = CachedSource { data: Bytes::copy_from_slice(data), anchors: Some(anchors) };
        // ② Index lookup (and registration of the new record's features).
        let t = self.tracer.start();
        self.lookup_candidates(db, id, &sketch, &mut scratch.counts);
        self.tracer.stop(t, Stage::IndexLookup);
        // ③ Cache-aware source selection (§3.1.3).
        let source = self.select_source(&scratch.counts);
        self.scratch = scratch;
        let Some(source) = source else {
            return Ok((new, None));
        };
        // ④ Delta compression (forward here; the caller's chain commit
        // re-encodes it backward).
        let t = self.tracer.start();
        let fetched = self.fetch_for_encode(source);
        self.tracer.stop(t, Stage::SourceFetch);
        let src = match fetched {
            Ok(c) => c,
            // The chosen source is corrupt or vanished. The new data is
            // intact in hand — it stays raw rather than failing the
            // client's write over somebody else's damage.
            Err(EngineError::ChainBroken { .. } | EngineError::NotFound(_)) => {
                return Ok((new, None))
            }
            Err(e) => return Err(e),
        };
        let t = self.tracer.start();
        let forward = self.delta_between(&src, &new);
        self.tracer.stop(t, Stage::DeltaEncode);
        if !self.is_beneficial(data.len(), &forward) {
            return Ok((new, None));
        }
        Ok((new, Some((source, src, forward))))
    }

    /// Step ①: one scan of `data` for its chunks and delta anchors (left
    /// in `scan`), then its sketch.
    fn scan_and_sketch(&mut self, data: &[u8], scan: &mut RecordScan) -> Sketch {
        let t = self.tracer.start();
        self.extractor.chunker().scan(self.encoder.sampler(), data, scan);
        self.tracer.stop(t, Stage::Chunk);
        let t = self.tracer.start();
        let sketch = self.extractor.extract_from_chunks(data, &scan.chunks);
        self.tracer.stop(t, Stage::Sketch);
        sketch
    }

    /// Step ②: registers `sketch`'s features under `id` and tallies, per
    /// candidate slot, how many of them it shares, into `counts`.
    fn lookup_candidates(
        &mut self,
        db: &str,
        id: RecordId,
        sketch: &Sketch,
        counts: &mut Vec<(u32, u32)>,
    ) {
        counts.clear();
        let slot = self.slots.assign(id);
        let part = self.index.partition_mut(db);
        let probes_before = part.stats().cold_probes;
        for &feature in sketch.features() {
            for cand in part.lookup_insert(feature, slot) {
                if cand == slot {
                    continue;
                }
                match counts.iter_mut().find(|(c, _)| *c == cand) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((cand, 1)),
                }
            }
        }
        let cold_probes = part.stats().cold_probes - probes_before;
        if cold_probes > 0 {
            // Cold-tier probes are real disk reads; meter them so the
            // idleness signal sees index I/O like any other foreground read.
            self.io.submit(cold_probes);
        }
    }

    /// Step ③, cache-aware source selection (§3.1.3): the live candidate
    /// sharing the most features, a cached one favoured by the reward, the
    /// newest on a tie.
    fn select_source(&self, counts: &[(u32, u32)]) -> Option<RecordId> {
        let mut best: Option<(u32, RecordId)> = None;
        for &(cand_slot, feature_score) in counts {
            let Some(cand_id) = self.slots.get(cand_slot) else {
                continue;
            };
            if self.chains.is_deleted(cand_id) || !self.store.contains(cand_id) {
                continue;
            }
            let mut score = feature_score;
            if self.source_cache.contains(cand_id) {
                score += self.config.cache_reward;
            }
            let better = match best {
                None => true,
                Some((bs, bid)) => score > bs || (score == bs && cand_id > bid),
            };
            if better {
                best = Some((score, cand_id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// The forward delta of `target` from `source`. A side that comes
    /// without its anchors — a source that was not in the cache, or was
    /// cached by a path that had no reason to scan it — is scanned by the
    /// encoder.
    fn delta_between(&mut self, source: &CachedSource, target: &CachedSource) -> Delta {
        self.encoder.encode_anchored(
            &source.data,
            source.anchors.as_deref(),
            &target.data,
            target.anchors.as_deref(),
        )
    }

    /// The benefit gate of step ④: a forward delta is worth a chain only
    /// when it saves at least `min_benefit_bytes` over the raw record.
    fn is_beneficial(&self, raw_len: usize, forward: &Delta) -> bool {
        raw_len as i64 - forward.encoded_len() as i64 >= self.config.min_benefit_bytes as i64
    }

    fn record_governor(&mut self, db: &str, original: u64, stored: u64) {
        if let GovernorVerdict::DisableNow = self.governor.record_insert(db, original, stored) {
            self.index.drop_partition(db);
            self.events.record(Severity::Warn, EventKind::GovernorDisabled { db: db.to_string() });
        }
    }

    /// Appends one operation to the oplog, counting its wire bytes as
    /// network transfer.
    fn log_op(&mut self, kind: OplogKind) -> Result<(), EngineError> {
        let (_, wire) = self.oplog.append(kind).map_err(EngineError::Oplog)?;
        self.metrics.network_bytes += wire as u64;
        Ok(())
    }

    /// Commits a dedup insert with the raw-first ordering — on the primary
    /// and, from the oplog re-encoder (§4.1), on a secondary (`emit_oplog`
    /// false): the forward delta's wire bytes are logged, the new record's
    /// raw frame lands, and only then is it linked into `source`'s chain.
    /// Both nodes hand the chain commit the same bytes: the ones the oplog
    /// entry holds.
    fn apply_dedup_insert(
        &mut self,
        id: RecordId,
        source: RecordId,
        new: CachedSource,
        src_content: &[u8],
        forward: &Bytes,
        emit_oplog: bool,
    ) -> Result<(), EngineError> {
        if emit_oplog {
            let payload = OplogPayload::Forward { base: source, delta: forward.clone() };
            self.log_op(OplogKind::Insert { id, payload })?;
        }
        let t = self.tracer.start();
        self.store.put(id, StorageForm::Raw, &new.data)?;
        self.tracer.stop(t, Stage::StoreAppend);
        self.io.submit(1);
        self.slots.assign(id);
        self.link_into_chain(
            id,
            source,
            new,
            src_content,
            forward,
            self.config.synchronous_writebacks,
        )
    }

    /// The one chain commit, shared by the inline insert and out-of-line
    /// re-dedup: extends `source`'s chain with `id`, produces every backward
    /// delta the plan asks for, and hands `new` to the source cache. With
    /// `sync` each delta is written at once (the Fig. 13b ablation, and
    /// re-dedup's copy-before-supersede); otherwise it waits in the lossy
    /// write-back cache for an idle device.
    fn link_into_chain(
        &mut self,
        id: RecordId,
        source: RecordId,
        new: CachedSource,
        src_content: &[u8],
        forward: &[u8],
        sync: bool,
    ) -> Result<(), EngineError> {
        let plan = self.chains.append(id, source);
        for wb in &plan.writebacks {
            let Some((content_len, enc)) =
                self.writeback_delta(wb.target, source, &new, src_content, forward)?
            else {
                continue;
            };
            let saving = content_len as i64 - enc.len() as i64;
            if saving > 0 {
                if sync {
                    // A delta still queued for this target was computed
                    // against an older base; this one supersedes it.
                    self.wb_cache.invalidate(wb.target);
                    self.rewrite_local(wb.target, Rewrite::Writeback { base: id }, &enc)?;
                } else {
                    self.wb_cache.insert(PendingWriteback {
                        target: wb.target,
                        base: id,
                        delta: enc,
                        space_saving: saving as u64,
                    });
                }
            }
            // An upgraded hop base won't be needed as an encode source
            // again; release its cache residency.
            if wb.target != source {
                self.source_cache.remove(wb.target);
            }
        }

        // Cache maintenance (§3.3.1): the new record supersedes the source
        // as chain head — unless the source is a hop base still awaiting
        // its upgrade, in which case it stays resident.
        let src_level = self
            .chains
            .chain_index(source)
            .map(|idx| self.chains.policy().level_of(idx))
            .unwrap_or(0);
        let replaces = if src_level >= 1 { None } else { Some(source) };
        self.source_cache.replace_or_insert(id, new, replaces);
        Ok(())
    }

    /// The encoded backward delta that turns `target` into a delta against
    /// the new record, with `target`'s content length — timed as delta
    /// encoding. The selected source's comes free by re-encoding the
    /// forward delta's wire bytes; other targets (hop upgrades) need their
    /// own pass against their cached or stored content. `None` for a
    /// corrupt hop target: it just keeps its current form — the writeback
    /// is an optimization, never worth failing the insert for.
    fn writeback_delta(
        &mut self,
        target: RecordId,
        source: RecordId,
        new: &CachedSource,
        src_content: &[u8],
        forward: &[u8],
    ) -> Result<Option<(usize, Vec<u8>)>, EngineError> {
        if target == source {
            let t = self.tracer.start();
            let enc = reencode(src_content, forward).into_bytes();
            self.tracer.stop(t, Stage::DeltaEncode);
            return Ok(Some((src_content.len(), enc)));
        }
        let c = match self.fetch_for_encode(target) {
            Ok(c) => c,
            Err(EngineError::ChainBroken { .. } | EngineError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let t = self.tracer.start();
        let enc = self.delta_between(new, &c).into_bytes();
        self.tracer.stop(t, Stage::DeltaEncode);
        Ok(Some((c.data.len(), enc)))
    }

    /// Stores `data` raw as the head of a fresh chain — the one raw insert,
    /// behind a unique or bypassed insert on the primary, an
    /// overload-degraded one, and a secondary applying a raw entry
    /// (`emit_oplog` false). With `degraded_db` the frame carries the
    /// degraded tag naming the logical database, and the record joins the
    /// re-dedup backlog, so out-of-line re-dedup can recover the lost
    /// compression later — even across a restart. The tag is local storage
    /// metadata: the oplog entry, which shares `data`, is the same either
    /// way.
    fn insert_raw(
        &mut self,
        id: RecordId,
        data: Bytes,
        degraded_db: Option<&str>,
        emit_oplog: bool,
    ) -> Result<(), EngineError> {
        if emit_oplog {
            self.log_op(OplogKind::Insert { id, payload: OplogPayload::Raw(data.clone()) })?;
        }
        let t = self.tracer.start();
        match degraded_db {
            Some(db) => self.store.put_degraded(id, db, &data)?,
            None => self.store.put(id, StorageForm::Raw, &data)?,
        }
        self.tracer.stop(t, Stage::StoreAppend);
        self.io.submit(1);
        self.chains.start_chain(id);
        self.metrics.unique_inserts += 1;
        if let Some(db) = degraded_db {
            self.degraded.insert(id, db.to_string());
        }
        Ok(())
    }

    /// The one local-rewrite primitive: re-stores `id` in another physical
    /// form that decodes to the same logical content, re-points its base
    /// pointer to match, and meters the write. Never an oplog entry — every
    /// caller preserves what a read returns, so replicas need not rewrite
    /// in lockstep. Callers that retire an older frame of some *other*
    /// record afterwards (copy-before-supersede) order their calls so that
    /// a crash between any two leaves every record readable.
    fn rewrite_local(
        &mut self,
        id: RecordId,
        how: Rewrite,
        payload: &[u8],
    ) -> Result<(), EngineError> {
        let form = match how {
            Rewrite::Raw => StorageForm::Raw,
            Rewrite::Writeback { base } | Rewrite::Splice { base } => StorageForm::Delta { base },
        };
        self.store.put(id, form, payload)?;
        match how {
            Rewrite::Raw if self.chains.chain_index(id).is_some() => self.chains.clear_base(id),
            // Quarantined wholesale and now restored: the record re-enters
            // as the head of a fresh chain.
            Rewrite::Raw => {
                self.chains.start_chain(id);
            }
            Rewrite::Writeback { base } => {
                self.chains.commit_writeback(Writeback { target: id, base })
            }
            Rewrite::Splice { base } => self.chains.splice_base(id, base),
        }
        self.io.submit(1);
        Ok(())
    }

    /// Drops everything derived from `id`'s bytes when they change or stop
    /// being served: its own queued write-back, its cached content, its
    /// re-dedup backlog entry. With `dependents_too`, also every queued
    /// delta that decodes *against* those bytes — for a caller about to
    /// replace them in place; a delete, whose old bytes stay on as a decode
    /// base, leaves those deltas valid, and a physical removal leaves them
    /// for the flush to discard when it finds the base gone.
    fn drop_derived(&mut self, id: RecordId, dependents_too: bool) {
        self.wb_cache.invalidate(id);
        if dependents_too {
            self.wb_cache.invalidate_by_base(id);
        }
        self.source_cache.remove(id);
        self.degraded.remove(&id);
    }

    /// Fetches a record's full content for use as a delta source: source
    /// cache first (with the record's anchors, if it was cached with any),
    /// decode from storage on miss.
    fn fetch_for_encode(&mut self, id: RecordId) -> Result<CachedSource, EngineError> {
        if let Some(c) = self.source_cache.get_source(id) {
            return Ok(c);
        }
        self.metrics.source_disk_reads += 1;
        Ok(CachedSource { data: self.decode_record(id)?, anchors: None })
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads a record, decoding through its base chain if necessary, and
    /// performing read-side GC of deleted bases (§4.1).
    pub fn read(&mut self, id: RecordId) -> Result<Bytes, EngineError> {
        if self.chains.is_deleted(id) {
            return Err(EngineError::NotFound(id));
        }
        self.tracer.sample();
        let t = self.tracer.start();
        if let Some(content) = self.cached_raw(id) {
            self.tracer.stop(t, Stage::DecodeChain);
            self.metrics.read_retrievals.record(0);
            return Ok(content);
        }
        let decoded = self.decode_with_path(id, true);
        self.tracer.stop(t, Stage::DecodeChain);
        let (content, path, splice) = decoded?;
        self.metrics.read_retrievals.record((path.len() - 1) as u64);
        self.gc_on_path(splice)?;
        Ok(content)
    }

    /// A record stored raw that the source cache holds is its own content:
    /// `read` serves it from there. The store read it replaces is still
    /// charged to the I/O meter, and the cache's recency and stats stay
    /// untouched: the meter paces write-back flushes and recency steers
    /// source selection, so both must stand exactly where the store read
    /// would leave them. A record stored as a delta never comes from here,
    /// even when cached (a pending hop base, or a junction a read admitted):
    /// its read still takes its own frame from the store and walks to the
    /// first cached base above it. `decode_record` (scrub, GC, source fetch)
    /// never comes here either: the scrub must see a damaged frame behind a
    /// cached copy.
    fn cached_raw(&mut self, id: RecordId) -> Option<Bytes> {
        // The peek is a plain map lookup; the store's locked directory lookup
        // is paid only by reads the cache holds.
        let content = self.source_cache.peek(id)?;
        if self.store.form(id)? != StorageForm::Raw {
            return None;
        }
        if !self.unmetered_reads {
            self.io.submit(1);
        }
        Some(content)
    }

    /// Decodes a record's content without GC, metrics or cache admission:
    /// the walk behind scrub, GC, re-dedup and source fetch.
    fn decode_record(&mut self, id: RecordId) -> Result<Bytes, EngineError> {
        let (content, _, _) = self.decode_with_path(id, false)?;
        Ok(content)
    }

    /// Marks a corruption-broken decode and builds the typed error: a read
    /// of `id` failed because `broken_at` on its decode path is damaged.
    /// Both ends are recorded so later resync passes know what to
    /// re-materialize.
    fn chain_broken(
        &mut self,
        id: RecordId,
        broken_at: RecordId,
        detail: impl Into<String>,
    ) -> EngineError {
        self.broken.insert(id);
        self.broken.insert(broken_at);
        self.metrics.chain_broken_reads += 1;
        self.events
            .record(Severity::Error, EventKind::ChainBroken { id: id.0, broken_at: broken_at.0 });
        EngineError::ChainBroken { id, broken_at, detail: detail.into() }
    }

    /// Walks base pointers up to a raw record (or, past `id`, to a base the
    /// source cache holds), checking each delta's wire form on the way;
    /// then applies each delta straight from its wire bytes on the way back
    /// down, alternating two buffers. Returns the content, the path `[id,
    /// …, base]`, and — when the path passes a deleted node — the splice
    /// read-side GC makes there.
    ///
    /// With `admit` (a client read), every live *junction* decoded above
    /// `id` — a record two or more others decode through, in practice a hop
    /// base — goes into the source cache, so the next read below it stops
    /// there instead of climbing to the head again (§3.3.1). Scrub, GC and
    /// source fetch pass `false`: a scrub slice would flood the cache.
    #[allow(clippy::type_complexity)]
    fn decode_with_path(
        &mut self,
        id: RecordId,
        admit: bool,
    ) -> Result<(Bytes, Vec<RecordId>, Option<Splice>), EngineError> {
        let mut path = vec![id];
        // Each delta on the path, a view of the frame it was read in.
        let mut deltas: Vec<Bytes> = Vec::new();
        let tail: Bytes;
        loop {
            let cur = *path.last().expect("path non-empty");
            // Decode bases may be served from the source cache (§4.1 Read).
            if cur != id {
                if let Some(c) = self.source_cache.get(cur) {
                    tail = c;
                    break;
                }
            }
            let sr = match self.store.get(cur) {
                Ok(sr) => sr,
                Err(StoreError::NotFound(_)) if cur == id => {
                    return Err(EngineError::NotFound(cur))
                }
                Err(StoreError::NotFound(_)) => {
                    // A missing mid-chain base is corruption fallout (salvage
                    // quarantined it), not a client-visible absent record.
                    return Err(self.chain_broken(id, cur, "decode base missing from store"));
                }
                Err(StoreError::Corrupt(detail)) => return Err(self.chain_broken(id, cur, detail)),
                Err(e) => return Err(e.into()),
            };
            if !self.unmetered_reads {
                self.io.submit(1);
            }
            match sr.form {
                StorageForm::Raw => {
                    tail = sr.payload;
                    break;
                }
                StorageForm::Delta { base } => {
                    if let Err(e) = Delta::validate(&sr.payload) {
                        let detail = format!("stored delta undecodable: {e}");
                        return Err(self.chain_broken(id, cur, detail));
                    }
                    deltas.push(sr.payload);
                    path.push(base);
                }
            }
        }
        // Read-side GC splices out the first deleted node below `id`, and
        // needs the contents of its two neighbours: only those, and the
        // junctions a read admits, are copied out of the unwind.
        let dead = (1..path.len()).find(|&k| self.chains.is_deleted(path[k]));
        let slot = |k: usize| match dead {
            Some(d) if k + 1 == d => Some(0),
            Some(d) if k == d + 1 => Some(1),
            _ => None,
        };
        let mut kept: [Option<Bytes>; 2] = [None, None];
        let last = path.len() - 1;
        if let Some(i) = slot(last) {
            kept[i] = Some(tail.clone());
        }
        // Unwind: after step k, `cur` holds the content of path[k].
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        for k in (0..last).rev() {
            let below: &[u8] = if k + 1 == last { &tail } else { &cur };
            if let Err(e) = Delta::apply_encoded(&deltas[k], below, &mut next) {
                let detail = format!("delta application failed: {e}");
                return Err(self.chain_broken(id, path[k], detail));
            }
            std::mem::swap(&mut cur, &mut next);
            // Path[0]'s content is the result, kept without a copy below.
            if k == 0 {
                continue;
            }
            let node = path[k];
            let junction =
                admit && self.chains.refcount(node) >= 2 && !self.chains.is_deleted(node);
            if junction || slot(k).is_some() {
                let content = Bytes::copy_from_slice(&cur);
                if let Some(i) = slot(k) {
                    kept[i] = Some(content.clone());
                }
                if junction {
                    self.source_cache.insert(node, content);
                }
            }
        }
        let content = if last == 0 { tail } else { Bytes::from(cur) };
        let splice = dead.map(|d| {
            let [dep_content, base] = kept;
            Splice {
                dep: path[d - 1],
                dep_content: dep_content.unwrap_or_else(|| content.clone()),
                dead: path[d],
                base: base.map(|c| (path[d + 1], c)),
            }
        });
        Ok((content, path, splice))
    }

    /// Read-side GC (§4.1): splices the deleted record a read walked past
    /// out of the decode path, and removes it physically once unreferenced.
    /// The path below it no longer reflects the stored topology, so one
    /// splice per read keeps GC amortized (later reads continue).
    fn gc_on_path(&mut self, splice: Option<Splice>) -> Result<(), EngineError> {
        let Some(s) = splice else { return Ok(()) };
        let new_base = s.base.as_ref().map(|(base, content)| (*base, &content[..]));
        self.splice_out(s.dep, &s.dep_content, new_base)?;
        self.try_remove_deleted(s.dead)
    }

    /// The one tombstone splice, behind read-side GC and background
    /// [`gc_record`](Self::gc_record): cuts a deleted record out from under
    /// its dependent `dep` by re-encoding `dep` against the deleted record's
    /// own base — or, when the deleted record was the terminal raw base,
    /// storing `dep` raw.
    fn splice_out(
        &mut self,
        dep: RecordId,
        dep_content: &[u8],
        new_base: Option<(RecordId, &[u8])>,
    ) -> Result<(), EngineError> {
        match new_base {
            Some((base, base_content)) => {
                let delta = self.encoder.encode_anchored(base_content, None, dep_content, None);
                self.rewrite_local(dep, Rewrite::Splice { base }, delta.as_bytes())?;
            }
            None => self.rewrite_local(dep, Rewrite::Raw, dep_content)?,
        }
        self.metrics.gc_spliced += 1;
        Ok(())
    }

    /// Physically removes a deleted record if nothing references it, then
    /// cascades to its base.
    fn try_remove_deleted(&mut self, id: RecordId) -> Result<(), EngineError> {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if !self.chains.is_deleted(c) || self.chains.refcount(c) != 0 {
                break;
            }
            let base = self.chains.base_of(c);
            self.chains.remove(c);
            self.store.delete(c)?;
            self.slots.release(c);
            self.drop_derived(c, false);
            cur = base;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Update / delete (§4.1)
    // ------------------------------------------------------------------

    /// Replaces a record's content.
    pub fn update(&mut self, id: RecordId, data: &[u8]) -> Result<(), EngineError> {
        self.apply_update(id, data, true)
    }

    /// The one update rule, on the primary and on a secondary alike: the
    /// records that decode through `id` move onto `id`'s own base the way
    /// background GC moves them off a tombstone, then the new content is
    /// written raw in place. No branch depends on what the write-back
    /// flushes have committed, so every node stores the same logical
    /// content at once, and the updated record, like any chain head, reads
    /// without decoding.
    fn apply_update(
        &mut self,
        id: RecordId,
        data: &[u8],
        emit_oplog: bool,
    ) -> Result<(), EngineError> {
        if !self.store.contains(id) || self.chains.is_deleted(id) {
            return Err(EngineError::NotFound(id));
        }
        // Moved first, while the old bytes they decode through are still
        // stored: a crash at any write leaves every dependent readable and
        // `id` holding its old content or its new.
        self.rehome_dependents(id)?;
        // A queued writeback would clobber this update (§4.1), queued deltas
        // computed against the OLD content of this record (as their decode
        // base) turn bogus, and new content supersedes whatever the overload
        // path admitted (the raw put below also clears the on-disk tag).
        self.drop_derived(id, true);
        if emit_oplog {
            self.log_op(OplogKind::Update { id, data: Bytes::copy_from_slice(data) })?;
        }
        self.store.put(id, StorageForm::Raw, data)?;
        self.metrics.original_bytes += data.len() as u64;
        self.chains.clear_base(id);
        self.io.submit(1);
        Ok(())
    }

    /// Deletes a record. Content lingers (invisibly) while other records
    /// decode through it.
    pub fn delete(&mut self, id: RecordId) -> Result<(), EngineError> {
        self.apply_delete(id, true)
    }

    fn apply_delete(&mut self, id: RecordId, emit_oplog: bool) -> Result<(), EngineError> {
        if !self.store.contains(id) || self.chains.is_deleted(id) {
            return Err(EngineError::NotFound(id));
        }
        self.drop_derived(id, false);
        if emit_oplog {
            self.log_op(OplogKind::Delete { id })?;
        }
        self.chains.mark_deleted(id);
        self.try_remove_deleted(id)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write-back flushing (§3.3.2)
    // ------------------------------------------------------------------

    /// Advances the I/O clock by `seconds` and flushes writebacks while the
    /// device is idle (up to `max` of them). Returns how many flushed.
    pub fn pump(&mut self, seconds: f64, max: usize) -> Result<usize, EngineError> {
        self.io.tick(seconds);
        let mut n = 0;
        while n < max && self.io.is_idle() {
            if !self.flush_one_writeback()? {
                break;
            }
            n += 1;
        }
        Ok(n)
    }

    /// Forces every queued writeback to disk (end-of-run accounting).
    pub fn flush_all_writebacks(&mut self) -> Result<usize, EngineError> {
        let mut n = 0;
        while self.flush_one_writeback()? {
            n += 1;
        }
        Ok(n)
    }

    /// Number of writebacks currently queued.
    pub fn pending_writebacks(&self) -> usize {
        self.wb_cache.len()
    }

    fn flush_one_writeback(&mut self) -> Result<bool, EngineError> {
        let Some(wb) = self.wb_cache.pop_most_valuable() else {
            return Ok(false);
        };
        // The world may have moved since this was queued.
        if !self.store.contains(wb.target) || !self.store.contains(wb.base) {
            return Ok(true);
        }
        self.rewrite_local(wb.target, Rewrite::Writeback { base: wb.base }, &wb.delta)?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Replication plumbing
    // ------------------------------------------------------------------

    /// Takes a batch of unshipped oplog entries (primary side). Taken
    /// entries remain retained for cursor catch-up until acknowledged or
    /// trimmed by the retention budget.
    pub fn take_oplog_batch(&mut self, max_bytes: usize) -> Vec<OplogEntry> {
        self.oplog.take_batch(max_bytes)
    }

    /// Unshipped oplog entries.
    pub fn oplog_pending(&self) -> usize {
        self.oplog.pending()
    }

    /// Reads up to `max_bytes` of retained oplog entries starting at
    /// `from_lsn` without consuming them — the replica-driven catch-up
    /// path. A cursor below the retention floor returns the typed
    /// [`CursorGap`]; only a full anti-entropy resync can help then.
    pub fn oplog_entries_from(
        &self,
        from_lsn: u64,
        max_bytes: usize,
    ) -> Result<Vec<OplogEntry>, CursorGap> {
        self.oplog.read_from(from_lsn, max_bytes)
    }

    /// Acknowledges that every replica has applied entries below `lsn`,
    /// letting the retention window trim.
    pub fn oplog_ack_shipped(&mut self, lsn: u64) {
        self.oplog.ack_shipped(lsn);
    }

    /// The next oplog LSN the primary will assign (replication head).
    pub fn oplog_next_lsn(&self) -> u64 {
        self.oplog.next_lsn()
    }

    /// The lowest oplog LSN still retained for catch-up.
    pub fn oplog_floor_lsn(&self) -> u64 {
        self.oplog.floor_lsn()
    }

    /// Raises or lowers the replication-pressure gate: while raised, new
    /// inserts bypass dedup encoding (stored raw) so the ingest path sheds
    /// CPU under overload. Reversible, unlike the governor's per-database
    /// disable.
    pub fn set_replication_pressure(&mut self, on: bool) {
        if self.governor.is_overloaded() != on {
            self.events.record(Severity::Warn, EventKind::OverloadGate { on });
        }
        self.governor.set_overloaded(on);
    }

    /// Whether the replication-pressure gate is raised.
    pub fn replication_pressure(&self) -> bool {
        self.governor.is_overloaded()
    }

    /// Applies one replicated oplog entry (secondary side, §4.1): decodes
    /// forward-encoded inserts against local data and regenerates the same
    /// backward deltas the primary stores; updates and deletes run the
    /// primary's own rule.
    pub fn apply_oplog_entry(&mut self, entry: &OplogEntry) -> Result<(), EngineError> {
        self.tracer.sample();
        let t = self.tracer.start();
        let result = self.apply_oplog_inner(entry);
        self.tracer.stop(t, Stage::ReplApply);
        result
    }

    fn apply_oplog_inner(&mut self, entry: &OplogEntry) -> Result<(), EngineError> {
        match &entry.kind {
            OplogKind::Insert { id, payload: OplogPayload::Raw(data) } => {
                self.insert_raw(*id, data.clone(), None, false)?;
                self.source_cache.insert(*id, data.clone());
                self.metrics.original_bytes += data.len() as u64;
                Ok(())
            }
            OplogKind::Insert { id, payload: OplogPayload::Forward { base, delta } } => {
                let src_content = self.fetch_for_encode(*base)?.data;
                // Only bytes that apply against this base reach `reencode`
                // in the chain commit.
                let mut data = Vec::new();
                Delta::apply_encoded(delta, &src_content, &mut data)?;
                let len = data.len() as u64;
                // A secondary never selects sources, so nothing here scans
                // the record: it is cached without anchors and scanned if
                // ever encoded against.
                let new = CachedSource { data: Bytes::from(data), anchors: None };
                self.apply_dedup_insert(*id, *base, new, &src_content, delta, false)?;
                // Counted once applied, so a retried entry counts once.
                self.metrics.original_bytes += len;
                self.metrics.deduped_inserts += 1;
                Ok(())
            }
            OplogKind::Update { id, data } => self.apply_update(*id, data, false),
            OplogKind::Delete { id } => self.apply_delete(*id, false),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current compression ratio reported by the governor for `db`.
    pub fn governor_ratio(&self, db: &str) -> f64 {
        self.governor.ratio(db)
    }

    /// Whether the governor disabled `db`.
    pub fn governor_disabled(&self, db: &str) -> bool {
        self.governor.is_disabled(db)
    }

    /// The size filter's current threshold for `db`.
    pub fn filter_threshold(&self, db: &str) -> u64 {
        self.filter.threshold(db)
    }

    /// Current modeled I/O queue length (testing/diagnostics).
    pub fn io_queue_len(&self) -> f64 {
        self.io.queue_len()
    }

    /// Decode retrievals a read of `id` would need right now.
    pub fn retrievals_for(&self, id: RecordId) -> Option<usize> {
        self.chains.retrievals_for(id)
    }

    /// The chain manager (read-only; used by experiment harnesses).
    pub fn chains(&self) -> &ChainManager {
        &self.chains
    }

    /// A thread-safe handle performing this engine's exact scan and
    /// feature extraction off-thread, for use with
    /// [`DedupEngine::insert_prepared`].
    pub fn preparer(&self) -> InsertPreparer {
        InsertPreparer::from_parts(self.extractor.clone(), *self.encoder.sampler())
    }
}

/// Fixtures shared by this module's unit tests and the child modules'.
#[cfg(test)]
mod testkit {
    use super::{DedupEngine, EngineConfig};
    use dbdedup_util::dist::SplitMix64;

    pub(super) fn engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::open_temp(cfg).expect("temp engine")
    }

    pub(super) fn versioned_docs(n: usize, seed: u64) -> Vec<Vec<u8>> {
        // A chain of revisions: each edit mutates a small dispersed region.
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
}

#[cfg(test)]
mod tests {
    use super::testkit::{engine, versioned_docs};
    use super::*;
    use dbdedup_util::dist::SplitMix64;

    #[test]
    fn first_insert_is_unique() {
        let mut e = engine();
        let out = e.insert("db", RecordId(1), &versioned_docs(1, 1)[0]).unwrap();
        assert_eq!(out, InsertOutcome::Unique);
        assert_eq!(e.metrics().unique_inserts, 1);
    }

    #[test]
    fn revision_dedups_against_predecessor() {
        let mut e = engine();
        let docs = versioned_docs(3, 2);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        let out = e.insert("db", RecordId(2), &docs[1]).unwrap();
        match out {
            InsertOutcome::Deduped { source, forward_bytes } => {
                assert_eq!(source, RecordId(1));
                assert!(forward_bytes < docs[1].len() / 10, "forward {} bytes", forward_bytes);
            }
            o => panic!("expected dedup, got {o:?}"),
        }
        let out = e.insert("db", RecordId(3), &docs[2]).unwrap();
        assert!(matches!(out, InsertOutcome::Deduped { source: RecordId(2), .. }), "{out:?}");
    }

    #[test]
    fn reads_return_exact_content_at_every_version() {
        let mut e = engine();
        let docs = versioned_docs(10, 3);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "version {i}");
        }
    }

    #[test]
    fn latest_version_reads_without_decoding() {
        let mut e = engine();
        let docs = versioned_docs(5, 4);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        assert_eq!(e.retrievals_for(RecordId(4)), Some(0), "chain head stays raw");
        assert!(e.retrievals_for(RecordId(0)).unwrap() > 0);
    }

    #[test]
    fn storage_and_network_shrink() {
        let mut e = engine();
        let docs = versioned_docs(20, 5);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let m = e.metrics();
        assert!(m.storage_ratio() > 5.0, "storage ratio {}", m.storage_ratio());
        assert!(m.network_ratio() > 5.0, "network ratio {}", m.network_ratio());
        assert_eq!(m.deduped_inserts, 19);
    }

    #[test]
    fn unrelated_records_stay_unique() {
        let mut e = engine();
        let mut rng = SplitMix64::new(6);
        for i in 0..5u64 {
            let data: Vec<u8> = (0..20_000).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            let out = e.insert("db", RecordId(i), &data).unwrap();
            assert_eq!(out, InsertOutcome::Unique, "record {i}");
        }
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut e = engine();
        e.insert("db", RecordId(1), b"some content long enough").unwrap();
        assert!(matches!(
            e.insert("db", RecordId(1), b"again"),
            Err(EngineError::DuplicateId(RecordId(1)))
        ));
    }

    #[test]
    fn update_with_zero_refcount_applies_in_place() {
        let mut e = engine();
        let docs = versioned_docs(2, 7);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.insert("db", RecordId(2), &docs[1]).unwrap();
        e.flush_all_writebacks().unwrap();
        // Record 1 is encoded against 2; record 1 has refcount 0.
        e.update(RecordId(1), b"fresh content").unwrap();
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], b"fresh content");
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], &docs[1][..]);
    }

    #[test]
    fn update_with_references_moves_dependents_onto_its_base() {
        let mut e = engine();
        let docs = versioned_docs(3, 8);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        // Chain: 0 ← 1 ← 2(raw). Record 1 is record 0's decode base.
        e.update(RecordId(1), b"updated mid-chain").unwrap();
        assert_eq!(e.chains().base_of(RecordId(0)), Some(RecordId(2)), "re-encoded onto 2");
        assert_eq!(e.chains().refcount(RecordId(1)), 0);
        assert_eq!(e.retrievals_for(RecordId(1)), Some(0), "the update is stored raw");
        assert_eq!(e.store().form(RecordId(1)), Some(StorageForm::Raw));
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], b"updated mid-chain");
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], &docs[2][..]);
        // Updating the raw end of the chain stores its dependent raw.
        e.update(RecordId(2), b"updated head").unwrap();
        assert_eq!(e.retrievals_for(RecordId(0)), Some(0));
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], b"updated head");
    }

    #[test]
    fn delete_unreferenced_removes_immediately() {
        let mut e = engine();
        e.insert("db", RecordId(1), &versioned_docs(1, 9)[0]).unwrap();
        e.delete(RecordId(1)).unwrap();
        assert!(matches!(e.read(RecordId(1)), Err(EngineError::NotFound(_))));
        assert_eq!(e.store().len(), 0);
    }

    #[test]
    fn delete_referenced_lingers_then_gc_on_read() {
        let mut e = engine();
        let docs = versioned_docs(3, 10);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        // Chain: 0 ← 1 ← 2(raw). Delete 1 (it is 0's decode base).
        e.delete(RecordId(1)).unwrap();
        assert!(matches!(e.read(RecordId(1)), Err(EngineError::NotFound(_))));
        // Reading 0 still works and triggers the splice.
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        assert!(e.metrics().gc_spliced >= 1);
        // After the splice the deleted record is physically gone.
        assert!(!e.store().contains(RecordId(1)));
        // And record 0 still reads correctly through its new base.
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
    }

    #[test]
    fn a_cache_served_read_leaves_cache_and_meter_where_the_store_read_did() {
        let mut rng = SplitMix64::new(0xCAC4E);
        let docs: Vec<Vec<u8>> =
            (0..8).map(|_| (0..6_000).map(|_| rng.next_u64() as u8).collect()).collect();
        let build = || {
            let mut cfg = EngineConfig::default();
            cfg.source_cache_bytes = 24 << 10; // the last few records only
            let mut e = DedupEngine::open_temp(cfg).unwrap();
            for (i, d) in docs[..7].iter().enumerate() {
                assert_eq!(e.insert("db", RecordId(i as u64), d).unwrap(), InsertOutcome::Unique);
            }
            e
        };
        let (mut served, mut oracle) = (build(), build());
        // The least recently used record still cached: the next eviction's.
        let lru = (0..7).map(RecordId).find(|&id| served.source_cache.contains(id)).unwrap();
        assert_eq!(served.store.form(lru), Some(StorageForm::Raw));
        let (stats, queue, reads) = (
            served.source_cache.stats(),
            served.io_queue_len(),
            served.metrics().read_decode_hops.count(),
        );
        // The oracle takes the store path every read of it took before.
        let content = served.read(lru).unwrap();
        let (stored, path, _) = oracle.decode_with_path(lru, false).unwrap();
        assert_eq!((content, path.len()), (stored, 1));
        assert_eq!(served.io_queue_len(), queue + 1.0, "exactly one read on the meter");
        assert_eq!(served.io_queue_len(), oracle.io_queue_len());
        let after = served.source_cache.stats();
        assert_eq!((after.hits, after.misses), (stats.hits, stats.misses));
        let m = served.metrics();
        assert_eq!((m.read_decode_hops.count(), m.read_decode_hops.max()), (reads + 1, 0));
        // Recency untouched: the next record cached evicts the one just read.
        for e in [&mut served, &mut oracle] {
            e.insert("db", RecordId(7), &docs[7]).unwrap();
        }
        assert!(!served.source_cache.contains(lru), "the read promoted its record");
        for id in (0..8).map(RecordId) {
            assert_eq!(served.source_cache.contains(id), oracle.source_cache.contains(id), "{id}");
        }
        assert_eq!(served.source_cache.stats().evictions, oracle.source_cache.stats().evictions);
    }

    #[test]
    fn a_cached_record_stored_as_a_delta_still_decodes_through_the_store() {
        let mut e = engine();
        let docs = versioned_docs(3, 0xDE17A);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        // Record 0 decodes through 1; cache it anyway, as a pending hop base is.
        assert!(matches!(e.store.form(RecordId(0)), Some(StorageForm::Delta { .. })));
        e.source_cache.insert(RecordId(0), Bytes::from(docs[0].clone()));
        let frames_read = |e: &DedupEngine| {
            let s = e.store().block_cache_stats();
            s.hits + s.misses
        };
        let (stats, frames) = (e.source_cache.stats(), frames_read(&e));
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        let hops = e.retrievals_for(RecordId(0)).unwrap() as u64;
        assert!(hops >= 1);
        let decoded = e.metrics().read_decode_hops;
        assert_eq!((decoded.count(), decoded.max()), (1, hops));
        let after = e.source_cache.stats();
        assert!(after.hits + after.misses > stats.hits + stats.misses, "bases probed on the way");
        assert!(frames_read(&e) > frames, "its frames come from the store");
    }

    #[test]
    fn writebacks_flush_only_when_idle() {
        let mut e = engine();
        // Enough inserts that their own I/O keeps the queue above the
        // idleness threshold.
        let docs = versioned_docs(8, 11);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        assert!(e.pending_writebacks() > 0);
        assert!(e.io_queue_len() > 4.0, "insert I/O must leave the device busy");
        // No time passes: the inserts' own I/O keeps the device busy.
        let flushed = e.pump(0.0, 100).unwrap();
        assert_eq!(flushed, 0, "busy device must defer writebacks");
        // Idle period: flushing drains — and throttles itself, since each
        // flushed writeback is itself I/O; repeated idle pumps finish it.
        let flushed = e.pump(10.0, 100).unwrap();
        assert!(flushed > 0);
        let mut guard = 0;
        while e.pending_writebacks() > 0 && guard < 100 {
            e.pump(1.0, 100).unwrap();
            guard += 1;
        }
        assert_eq!(e.pending_writebacks(), 0);
    }

    #[test]
    fn dropped_writebacks_cost_only_compression() {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.writeback_cache_bytes = 1; // effectively drop everything
        let mut e = DedupEngine::open_temp(cfg).unwrap();
        let docs = versioned_docs(5, 12);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        // All writebacks were dropped: every record still readable, raw.
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..]);
            assert_eq!(e.retrievals_for(RecordId(i as u64)), Some(0));
        }
        assert!(e.metrics().writeback_cache.dropped > 0);
    }

    #[test]
    fn governor_disables_incompressible_db() {
        let mut cfg = EngineConfig::default();
        cfg.governor_min_inserts = 10;
        cfg.filter_quantile = 0.0;
        let mut e = DedupEngine::open_temp(cfg).unwrap();
        let mut rng = SplitMix64::new(13);
        let mut disabled_at = None;
        for i in 0..20u64 {
            let data: Vec<u8> = (0..5_000).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            let out = e.insert("rand", RecordId(i), &data).unwrap();
            if out == InsertOutcome::BypassedGovernor && disabled_at.is_none() {
                disabled_at = Some(i);
            }
        }
        assert!(e.governor_disabled("rand"));
        assert!(disabled_at.is_some(), "later inserts must bypass");
        assert_eq!(e.metrics().index_bytes, 0, "partition dropped");
    }

    #[test]
    fn size_filter_bypasses_small_records() {
        let mut cfg = EngineConfig::default();
        cfg.filter_refresh_interval = 10;
        let mut e = DedupEngine::open_temp(cfg).unwrap();
        let docs = versioned_docs(1, 14);
        // Mix of large and tiny records to train the filter.
        for i in 0..10u64 {
            if i % 2 == 0 {
                e.insert("db", RecordId(i), &docs[0]).unwrap();
            } else {
                e.insert("db", RecordId(i), b"tiny").unwrap();
            }
        }
        // The trained threshold equals the tiny-record size (4 B); only
        // records strictly below it bypass.
        let out = e.insert("db", RecordId(100), b"x").unwrap();
        assert_eq!(out, InsertOutcome::BypassedSize);
        assert!(e.metrics().bypassed_size >= 1);
    }

    #[test]
    fn inplace_update_invalidates_dependent_writebacks() {
        // Regression: record N is inserted (queuing a writeback that
        // re-encodes N-1 against N), then N is client-updated in place
        // while the writeback is still queued. Flushing the stale delta
        // against N's new content would corrupt N-1.
        let mut e = engine();
        let docs = versioned_docs(2, 99);
        e.insert("db", RecordId(0), &docs[0]).unwrap();
        e.insert("db", RecordId(1), &docs[1]).unwrap();
        assert!(e.pending_writebacks() > 0, "writeback for record 0 queued");
        // Record 1 has refcount 0 (nothing committed yet): in-place update.
        e.update(RecordId(1), b"completely new content").unwrap();
        e.flush_all_writebacks().unwrap();
        // Record 0 must still decode to its original bytes.
        assert_eq!(&e.read(RecordId(0)).unwrap()[..], &docs[0][..]);
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], b"completely new content");
        assert!(e.metrics().writeback_cache.invalidated >= 1);
    }

    #[test]
    fn secondary_replays_oplog_to_identical_content() {
        let mut primary = engine();
        let mut secondary = engine();
        let docs = versioned_docs(10, 15);
        for (i, d) in docs.iter().enumerate() {
            primary.insert("db", RecordId(i as u64), d).unwrap();
        }
        primary.update(RecordId(9), b"updated on primary").unwrap();
        primary.delete(RecordId(0)).unwrap();
        let batch = primary.take_oplog_batch(usize::MAX);
        for entry in &batch {
            secondary.apply_oplog_entry(entry).unwrap();
        }
        primary.flush_all_writebacks().unwrap();
        secondary.flush_all_writebacks().unwrap();
        for i in 1..9u64 {
            assert_eq!(
                &secondary.read(RecordId(i)).unwrap()[..],
                &primary.read(RecordId(i)).unwrap()[..],
                "record {i}"
            );
        }
        assert_eq!(&secondary.read(RecordId(9)).unwrap()[..], b"updated on primary");
        assert!(matches!(secondary.read(RecordId(0)), Err(EngineError::NotFound(_))));
        // Storage footprints converge (same deltas, same raw heads).
        assert_eq!(
            primary.store().stored_payload_bytes(),
            secondary.store().stored_payload_bytes()
        );
    }

    #[test]
    fn a_secondary_refuses_a_bad_forward_entry_cleanly() {
        let mut primary = engine();
        let mut secondary = engine();
        let docs = versioned_docs(4, 15);
        for (i, d) in docs[..3].iter().enumerate() {
            primary.insert("db", RecordId(i as u64), d).unwrap();
        }
        for entry in &primary.take_oplog_batch(usize::MAX) {
            secondary.apply_oplog_entry(entry).unwrap();
        }
        let base = RecordId(2);
        let mut w = dbdedup_delta::DeltaWriter::new(64);
        w.copy(docs[2].len() - 8, 64);
        let past_base = w.finish().into_bytes();
        // A 4-byte target, then a bad tag.
        let malformed = vec![4, 0x7f];
        // What a refused entry must leave as it was.
        let state = |e: &DedupEngine| {
            let (m, c) = (e.metrics(), e.chains());
            (
                (e.store().len(), c.len(), c.refcount(base), c.chain_index(base), c.is_head(base)),
                (m.original_bytes, m.deduped_inserts, e.pending_writebacks()),
                m.source_cache.evictions,
            )
        };
        let lookups = |e: &DedupEngine| {
            let s = e.metrics().source_cache;
            s.hits + s.misses
        };
        for (what, delta) in [("malformed", malformed), ("COPY past its base", past_base)] {
            let (before, lookups_before) = (state(&secondary), lookups(&secondary));
            let payload = OplogPayload::Forward { base, delta: Bytes::from(delta) };
            let entry = OplogEntry { lsn: 3, kind: OplogKind::Insert { id: RecordId(3), payload } };
            let got = secondary.apply_oplog_entry(&entry);
            assert!(matches!(got, Err(EngineError::Delta(_))), "{what}: {got:?}");
            assert_eq!(state(&secondary), before, "{what}");
            assert_eq!(lookups(&secondary), lookups_before + 1, "{what}: one fetch of the base");
            assert!(matches!(secondary.read(RecordId(3)), Err(EngineError::NotFound(_))));
        }
        // The replica still applies the primary's real entry for that id.
        primary.insert("db", RecordId(3), &docs[3]).unwrap();
        for entry in &primary.take_oplog_batch(usize::MAX) {
            secondary.apply_oplog_entry(entry).unwrap();
        }
        assert_eq!(&secondary.read(RecordId(3)).unwrap()[..], &docs[3][..]);
    }

    #[test]
    fn no_dedup_mode_stores_raw() {
        let mut e = DedupEngine::open_temp(EngineConfig::no_dedup()).unwrap();
        let docs = versioned_docs(5, 16);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(e.insert("db", RecordId(i as u64), d).unwrap(), InsertOutcome::Disabled);
        }
        let m = e.metrics();
        assert!(m.storage_ratio() < 1.05, "no compression expected");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..]);
        }
    }

    #[test]
    fn content_checksums_match_across_replicas() {
        let mut primary = engine();
        let mut secondary = engine();
        let docs = versioned_docs(6, 20);
        for (i, d) in docs.iter().enumerate() {
            primary.insert("db", RecordId(i as u64), d).unwrap();
        }
        primary.update(RecordId(3), b"updated content").unwrap();
        for entry in &primary.take_oplog_batch(usize::MAX) {
            secondary.apply_oplog_entry(entry).unwrap();
        }
        primary.flush_all_writebacks().unwrap();
        // Secondary never flushes: physical forms diverge, logical
        // checksums must not.
        assert_eq!(primary.live_record_ids(), secondary.live_record_ids());
        for id in primary.live_record_ids() {
            assert_eq!(
                primary.content_checksum(id).unwrap(),
                secondary.content_checksum(id).unwrap(),
                "record {id}"
            );
        }
    }

    #[test]
    fn overload_gate_stores_raw_but_keeps_replicating() {
        let mut e = engine();
        let docs = versioned_docs(4, 32);
        e.insert("db", RecordId(0), &docs[0]).unwrap();
        e.set_replication_pressure(true);
        assert!(e.replication_pressure());
        // Near-duplicates that would normally delta-encode now go raw.
        assert_eq!(e.insert("db", RecordId(1), &docs[1]).unwrap(), InsertOutcome::BypassedOverload);
        assert_eq!(e.insert("db", RecordId(2), &docs[2]).unwrap(), InsertOutcome::BypassedOverload);
        e.set_replication_pressure(false);
        // The gate is transient: dedup resumes once pressure clears.
        assert!(matches!(
            e.insert("db", RecordId(3), &docs[3]).unwrap(),
            InsertOutcome::Deduped { .. }
        ));
        assert_eq!(e.metrics().bypassed_overload, 2);
        // Bypassed inserts still produced oplog entries: a secondary
        // replaying the stream converges despite the shed encoding.
        let mut secondary = engine();
        for entry in &e.take_oplog_batch(usize::MAX) {
            secondary.apply_oplog_entry(entry).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(
                &secondary.read(RecordId(i)).unwrap()[..],
                &e.read(RecordId(i)).unwrap()[..],
                "record {i}"
            );
        }
    }

    /// An engine holding four mutually dissimilar records (ids 1–4, all
    /// cached as sources) and a two-version chain whose head, id 11, was
    /// deleted while id 10 still decodes through it. Returns the engine and
    /// a slot lookup.
    fn selection_fixture() -> (DedupEngine, impl Fn(&DedupEngine, u64) -> u32) {
        let mut e = engine();
        let mut rng = SplitMix64::new(0x5E1);
        for id in 1..=4u64 {
            let data: Vec<u8> = (0..6_000).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(e.insert("db", RecordId(id), &data).unwrap(), InsertOutcome::Unique);
        }
        let docs = versioned_docs(2, 0x5E2);
        e.insert("db", RecordId(10), &docs[0]).unwrap();
        e.insert("db", RecordId(11), &docs[1]).unwrap();
        e.flush_all_writebacks().unwrap();
        e.delete(RecordId(11)).unwrap();
        assert!(e.store().contains(RecordId(11)), "pinned by its dependent");
        (e, |e: &DedupEngine, id: u64| e.slots.by_record[&RecordId(id)])
    }

    #[test]
    fn select_source_scores_features_then_cache_then_recency() {
        let (mut e, slot) = selection_fixture();
        let (s1, s2, s3) = (slot(&e, 1), slot(&e, 2), slot(&e, 3));
        assert_eq!(e.select_source(&[]), None);
        // Most shared features wins, wherever it sits in the tally.
        assert_eq!(e.select_source(&[(s1, 3), (s2, 5), (s3, 4)]), Some(RecordId(2)));
        assert_eq!(e.select_source(&[(s2, 5), (s1, 3)]), Some(RecordId(2)));
        // Equal scores: the newest record.
        assert_eq!(e.select_source(&[(s1, 3), (s3, 3), (s2, 3)]), Some(RecordId(3)));
        // The cache reward (2 by default) lifts a cached candidate over an
        // uncached one that shares one feature more, and ties one that
        // shares two more — the tie then goes to the newer id.
        e.source_cache.remove(RecordId(2));
        assert_eq!(e.select_source(&[(s1, 3), (s2, 4)]), Some(RecordId(1)));
        assert_eq!(e.select_source(&[(s1, 3), (s2, 5)]), Some(RecordId(2)));
        assert_eq!(e.select_source(&[(s1, 3), (s2, 6)]), Some(RecordId(2)));
        e.config.cache_reward = 0;
        assert_eq!(e.select_source(&[(s1, 3), (s2, 4)]), Some(RecordId(2)));
    }

    #[test]
    fn select_source_skips_deleted_and_vanished_candidates() {
        let (mut e, slot) = selection_fixture();
        let (s1, s4, s11) = (slot(&e, 1), slot(&e, 4), slot(&e, 11));
        // Deleted but still stored as a decode base: never a source.
        assert_eq!(e.select_source(&[(s11, 9), (s1, 1)]), Some(RecordId(1)));
        assert_eq!(e.select_source(&[(s11, 9)]), None);
        // Gone from the store underneath the index (quarantined frame).
        e.store.delete(RecordId(4)).unwrap();
        assert_eq!(e.select_source(&[(s4, 9), (s1, 1)]), Some(RecordId(1)));
        // Physically removed: its slot resolves to nothing.
        e.delete(RecordId(1)).unwrap();
        assert_eq!(e.select_source(&[(s1, 9), (s4, 9)]), None);
        // A slot the table never handed out.
        assert_eq!(e.select_source(&[(u32::MAX, 9)]), None);
    }

    #[test]
    fn benefit_gate_boundary_is_min_benefit_bytes() {
        let mut e = engine();
        let docs = versioned_docs(2, 0xBE);
        let forward = e.encoder.encode(&docs[0], &docs[1]);
        let (raw, enc) = (docs[1].len(), forward.encoded_len());
        assert!(enc < raw);
        e.config.min_benefit_bytes = raw - enc;
        assert!(e.is_beneficial(raw, &forward), "saving exactly the minimum passes");
        e.config.min_benefit_bytes = raw - enc + 1;
        assert!(!e.is_beneficial(raw, &forward), "one byte short does not");
        // A delta no smaller than the record never passes, even at zero.
        e.config.min_benefit_bytes = 0;
        assert!(e.is_beneficial(enc, &forward));
        assert!(!e.is_beneficial(enc - 1, &forward));
        // And the gate is what the pipeline obeys, on either side of it.
        for (min_benefit, expected) in [
            (raw - enc + 1, InsertOutcome::Unique),
            (raw - enc, InsertOutcome::Deduped { source: RecordId(1), forward_bytes: enc }),
        ] {
            let mut e = engine();
            e.config.min_benefit_bytes = min_benefit;
            e.insert("db", RecordId(1), &docs[0]).unwrap();
            assert_eq!(e.insert("db", RecordId(2), &docs[1]).unwrap(), expected);
        }
    }

    #[test]
    fn oplog_cursor_apis_serve_gap_replay() {
        let mut e = engine();
        let docs = versioned_docs(6, 32);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        assert_eq!(e.oplog_floor_lsn(), 0);
        let head = e.oplog_next_lsn();
        assert_eq!(head, 6);
        // Ship the steady-state stream; taken entries stay retained.
        let shipped = e.take_oplog_batch(usize::MAX);
        assert_eq!(shipped.len(), 6);
        // A replica that only applied the first two entries replays the
        // gap [2, head) from the cursor, byte-identical to the shipment.
        let gap = e.oplog_entries_from(2, usize::MAX).unwrap();
        assert_eq!(gap.len(), 4);
        for (a, b) in gap.iter().zip(&shipped[2..]) {
            assert_eq!(a.encode(), b.encode());
        }
        // Once every replica acks the head, retention may trim; a cursor
        // below the floor is then a typed gap, not silent truncation.
        e.oplog_ack_shipped(head);
        // (The default retention budget is generous; the trim mechanics are
        // covered at the storage layer. Here we only assert the typed error
        // plumbs through when a cursor does fall below the floor.)
        if e.oplog_floor_lsn() > 0 {
            match e.oplog_entries_from(0, usize::MAX) {
                Err(CursorGap::TrimmedBelowFloor { requested, floor }) => {
                    assert_eq!(requested, 0);
                    assert!(floor > 0);
                }
                other => panic!("expected TrimmedBelowFloor, got {other:?}"),
            }
        }
    }

    #[test]
    fn hop_encoding_bounds_decode_depth() {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.encoding = dbdedup_encoding::EncodingPolicy::Hop { distance: 4, max_levels: 2 };
        let mut e = DedupEngine::open_temp(cfg).unwrap();
        let docs = versioned_docs(40, 17);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
            e.flush_all_writebacks().unwrap();
        }
        let worst = (0..40u64).map(|i| e.retrievals_for(RecordId(i)).unwrap()).max().unwrap();
        assert!(worst < 39, "hop encoding must beat the full backward walk: {worst}");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "version {i}");
        }
    }
}
