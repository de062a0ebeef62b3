//! The dbDedup engine: workflow, read path, update/delete semantics, and
//! write-back flushing (Fig. 3 + §4.1 of the paper).

use crate::config::EngineConfig;
use crate::filter::SizeFilter;
use crate::governor::{Governor, GovernorVerdict};
use crate::health::{self, HealthInputs, HealthReport, HealthThresholds, LinkState};
use crate::metrics::{EngineMetrics, IndexTierMetrics, MetricsSnapshot};
use crate::pipeline::{InsertPreparer, PreparedInsert};
use crate::repair::RepairSource;
use bytes::Bytes;
use dbdedup_cache::{CachedSource, PendingWriteback, SourceRecordCache, WritebackCache};
use dbdedup_chunker::{Anchor, RecordScan, Sketch, SketchExtractor};
use dbdedup_delta::ops::DeltaError;
use dbdedup_delta::{reencode, DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup_encoding::{ChainManager, Writeback};
use dbdedup_index::{
    CuckooConfig, FeatureIndex, PartitionedIndex, TieredConfig, TieredFeatureIndex, TieredStats,
};
use dbdedup_obs::{EventKind, EventLog, FlightRecorder, Severity, Stage, StageSet, StageTracer};
use dbdedup_storage::oplog::{CursorGap, DurableOplog};
use dbdedup_storage::store::{CompactStats, RecordStore, StorageForm, StoreConfig, StoreError};
use dbdedup_storage::{IoMeter, Oplog, OplogEntry, OplogKind, OplogPayload};
use dbdedup_util::hash::crc32::crc32;
use dbdedup_util::hash::fx::{FxHashMap, FxHashSet};
use dbdedup_util::ids::RecordId;
use dbdedup_util::time::Clock;
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
    /// A replica's background apply thread panicked (replication halted;
    /// the affected secondary needs a resync).
    ReplicaPanicked(String),
}

/// In-memory or durable oplog, behind one interface.
enum OplogBackend {
    Mem(Oplog),
    Durable(DurableOplog),
}

impl OplogBackend {
    fn append(&mut self, kind: OplogKind) -> Result<(u64, usize), EngineError> {
        match self {
            OplogBackend::Mem(o) => Ok(o.append(kind)),
            OplogBackend::Durable(o) => o.append(kind).map_err(EngineError::Oplog),
        }
    }

    fn take_batch(&mut self, max_bytes: usize) -> Vec<OplogEntry> {
        match self {
            OplogBackend::Mem(o) => o.take_batch(max_bytes),
            OplogBackend::Durable(o) => o.take_batch(max_bytes),
        }
    }

    fn pending(&self) -> usize {
        match self {
            OplogBackend::Mem(o) => o.pending(),
            OplogBackend::Durable(o) => o.pending(),
        }
    }

    fn read_from(&self, from_lsn: u64, max_bytes: usize) -> Result<Vec<OplogEntry>, CursorGap> {
        match self {
            OplogBackend::Mem(o) => o.read_from(from_lsn, max_bytes),
            OplogBackend::Durable(o) => o.read_from(from_lsn, max_bytes),
        }
    }

    fn ack_shipped(&mut self, lsn: u64) {
        match self {
            OplogBackend::Mem(o) => o.ack_shipped(lsn),
            OplogBackend::Durable(o) => o.ack_shipped(lsn),
        }
    }

    fn next_lsn(&self) -> u64 {
        match self {
            OplogBackend::Mem(o) => o.next_lsn(),
            OplogBackend::Durable(o) => o.next_lsn(),
        }
    }

    fn floor_lsn(&self) -> u64 {
        match self {
            OplogBackend::Mem(o) => o.floor_lsn(),
            OplogBackend::Durable(o) => o.floor_lsn(),
        }
    }
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
            EngineError::ReplicaPanicked(msg) => write!(f, "replica apply thread panicked: {msg}"),
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

/// A record's bytes with the anchors of its scan, when they are in hand.
#[derive(Clone, Copy)]
struct Scanned<'a> {
    bytes: &'a [u8],
    anchors: Option<&'a [Anchor]>,
}

impl<'a> Scanned<'a> {
    fn bare(bytes: &'a [u8]) -> Self {
        Self { bytes, anchors: None }
    }

    fn cached(source: &'a CachedSource) -> Self {
        Self { bytes: &source.data, anchors: source.anchors.as_deref() }
    }

    /// What the source cache keeps of this record (one copy of each part).
    fn to_cached(self) -> CachedSource {
        CachedSource {
            data: Bytes::copy_from_slice(self.bytes),
            anchors: self.anchors.map(Arc::from),
        }
    }
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
    oplog: OplogBackend,
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
    /// Client updates held aside while the old content serves as a decode
    /// base (§4.1 Update); compacted when the refcount reaches zero.
    shadow: FxHashMap<RecordId, Bytes>,
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
    /// Damaged records healed from local state (shadowed update or cached
    /// source content).
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
        let oplog = match &config.oplog_path {
            Some(path) => {
                let mut log = DurableOplog::open(path).map_err(EngineError::Oplog)?;
                log.set_retention(config.oplog_retain_bytes);
                OplogBackend::Durable(log)
            }
            None => OplogBackend::Mem(Oplog::with_retention(config.oplog_retain_bytes)),
        };
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
        // Surface what salvage recovery found on the way up: quarantined
        // checksum failures and torn-tail truncation are the first things
        // an operator reads after a crash.
        let recovery = store.io_stats();
        if recovery.quarantined_entries > 0 || recovery.truncated_tail_bytes > 0 {
            events.record(
                Severity::Error,
                EventKind::Salvage {
                    quarantined: recovery.quarantined_entries,
                    truncated_bytes: recovery.truncated_tail_bytes,
                },
            );
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
            shadow: FxHashMap::default(),
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
        if self.store.contains(id) {
            return Err(EngineError::DuplicateId(id));
        }
        // One sampling decision per insert; unsampled operations skip
        // every clock read below.
        let sampled = self.tracer.sample();
        self.metrics.original_bytes += data.len() as u64;

        if !self.config.dedup_enabled {
            self.insert_unique(id, data)?;
            return Ok(InsertOutcome::Disabled);
        }
        if self.governor.is_disabled(db) {
            self.metrics.bypassed_governor += 1;
            self.insert_unique(id, data)?;
            return Ok(InsertOutcome::BypassedGovernor);
        }
        if self.governor.is_overloaded() {
            // Replication backpressure: shed the CPU-heavy dedup stage
            // (feature extraction, index lookup, delta encoding) so ingest
            // keeps absorbing the burst. The raw record still replicates —
            // a throughput/compression trade, never a correctness one.
            self.metrics.bypassed_overload += 1;
            self.record_governor(db, data.len() as u64, data.len() as u64);
            self.insert_unique_degraded(db, id, data)?;
            return Ok(InsertOutcome::BypassedOverload);
        }
        if self.filter.observe(db, data.len() as u64) {
            self.metrics.bypassed_size += 1;
            self.record_governor(db, data.len() as u64, data.len() as u64);
            self.insert_unique(id, data)?;
            return Ok(InsertOutcome::BypassedSize);
        }

        // The rest borrows the engine's scratch buffers; they go back
        // whichever way the insert ends.
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.insert_deduped(db, id, data, prepared, sampled, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    /// Steps ①–④ of the workflow for a record every gate let through.
    fn insert_deduped(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<PreparedInsert>,
        sampled: bool,
        scratch: &mut InsertScratch,
    ) -> Result<InsertOutcome, EngineError> {
        // ① Feature extraction and the record's anchors — inline, or
        // carried in from a pipeline worker (same configuration, so same
        // sketch and anchors).
        let worker_anchors;
        let (sketch, anchors) = match prepared {
            Some(p) => {
                if sampled {
                    // Credit the worker's measured time to the same stage
                    // histograms the inline path feeds.
                    self.tracer.stages_mut().record(Stage::Chunk, p.chunk_ns);
                    self.tracer.stages_mut().record(Stage::Sketch, p.sketch_ns);
                }
                worker_anchors = p.anchors;
                (p.sketch, worker_anchors.as_slice())
            }
            None => {
                let t = self.tracer.start();
                self.extractor.chunker().scan(self.encoder.sampler(), data, &mut scratch.scan);
                self.tracer.stop(t, Stage::Chunk);
                let t = self.tracer.start();
                let sketch = self.extractor.extract_from_chunks(data, &scratch.scan.chunks);
                self.tracer.stop(t, Stage::Sketch);
                (sketch, scratch.scan.anchors.as_slice())
            }
        };
        let new = Scanned { bytes: data, anchors: Some(anchors) };
        // ② Index lookup (and registration of the new record's features).
        let t = self.tracer.start();
        self.lookup_candidates(db, id, &sketch, &mut scratch.counts);
        self.tracer.stop(t, Stage::IndexLookup);
        // ③ Cache-aware source selection (§3.1.3).
        let Some(source) = self.select_source(&scratch.counts) else {
            self.record_governor(db, data.len() as u64, data.len() as u64);
            self.insert_unique_cached(id, new)?;
            return Ok(InsertOutcome::Unique);
        };

        // ④ Delta compression (forward first, then re-encode backward).
        let t = self.tracer.start();
        let fetched = self.fetch_for_encode(source);
        self.tracer.stop(t, Stage::SourceFetch);
        let src = match fetched {
            Ok(c) => c,
            Err(EngineError::ChainBroken { .. } | EngineError::NotFound(_)) => {
                // The chosen source is corrupt or vanished. The new data is
                // intact in hand — degrade to a unique insert rather than
                // failing the client's write over somebody else's damage.
                self.record_governor(db, data.len() as u64, data.len() as u64);
                self.insert_unique_cached(id, new)?;
                return Ok(InsertOutcome::Unique);
            }
            Err(e) => return Err(e),
        };
        let t = self.tracer.start();
        let forward = self.delta_between(Scanned::cached(&src), new);
        self.tracer.stop(t, Stage::DeltaEncode);
        let saved = data.len() as i64 - forward.encoded_len() as i64;
        if saved < self.config.min_benefit_bytes as i64 {
            self.record_governor(db, data.len() as u64, data.len() as u64);
            self.insert_unique_cached(id, new)?;
            return Ok(InsertOutcome::Unique);
        }

        let forward_bytes = forward.encoded_len();
        self.record_governor(db, data.len() as u64, forward_bytes as u64);
        self.apply_dedup_insert(id, source, new.to_cached(), &src.data, &forward, true)?;
        self.metrics.deduped_inserts += 1;
        self.metrics.forward_delta_bytes += forward_bytes as u64;
        Ok(InsertOutcome::Deduped { source, forward_bytes })
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
    fn delta_between(&mut self, source: Scanned<'_>, target: Scanned<'_>) -> Delta {
        self.encoder.encode_anchored(source.bytes, source.anchors, target.bytes, target.anchors)
    }

    fn record_governor(&mut self, db: &str, original: u64, stored: u64) {
        if let GovernorVerdict::DisableNow = self.governor.record_insert(db, original, stored) {
            self.index.drop_partition(db);
            self.events.record(Severity::Warn, EventKind::GovernorDisabled { db: db.to_string() });
        }
    }

    /// Shared dedup-insert machinery used by the primary insert path and by
    /// the secondary's oplog re-encoder (§4.1): stores the new record raw,
    /// extends the encoding chain, queues backward writebacks, and hands
    /// `new` to the source cache. `emit_oplog` is false on secondaries.
    fn apply_dedup_insert(
        &mut self,
        id: RecordId,
        source: RecordId,
        new: CachedSource,
        src_content: &[u8],
        forward: &Delta,
        emit_oplog: bool,
    ) -> Result<(), EngineError> {
        if emit_oplog {
            let t = self.tracer.start();
            let delta = Bytes::from(forward.encode());
            self.tracer.stop(t, Stage::DeltaEncode);
            let (_, wire) = self.oplog.append(OplogKind::Insert {
                id,
                payload: OplogPayload::Forward { base: source, delta },
            })?;
            self.metrics.network_bytes += wire as u64;
        }
        let t = self.tracer.start();
        self.store.put(id, StorageForm::Raw, &new.data)?;
        self.tracer.stop(t, Stage::StoreAppend);
        self.io.submit(1);
        self.slots.assign(id);

        let plan = self.chains.append(id, source);
        for wb in &plan.writebacks {
            let Some((content_len, enc)) = self.writeback_delta(
                wb.target,
                source,
                Scanned::cached(&new),
                src_content,
                forward,
            )?
            else {
                continue;
            };
            let saving = content_len as i64 - enc.len() as i64;
            if saving > 0 {
                if self.config.synchronous_writebacks {
                    // Fig. 13b ablation: pay the extra write immediately.
                    self.store.put(wb.target, StorageForm::Delta { base: id }, &enc)?;
                    self.chains.commit_writeback(Writeback { target: wb.target, base: id });
                    self.io.submit(1);
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
    /// forward delta; other targets (hop upgrades) need their own pass
    /// against their cached or stored content. `None` for a corrupt hop
    /// target: it just keeps its current form — the writeback is an
    /// optimization, never worth failing the insert for.
    fn writeback_delta(
        &mut self,
        target: RecordId,
        source: RecordId,
        new: Scanned<'_>,
        src_content: &[u8],
        forward: &Delta,
    ) -> Result<Option<(usize, Vec<u8>)>, EngineError> {
        if target == source {
            let t = self.tracer.start();
            let enc = reencode(src_content, forward).encode();
            self.tracer.stop(t, Stage::DeltaEncode);
            return Ok(Some((src_content.len(), enc)));
        }
        let c = match self.fetch_for_encode(target) {
            Ok(c) => c,
            Err(EngineError::ChainBroken { .. } | EngineError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let t = self.tracer.start();
        let enc = self.delta_between(new, Scanned::cached(&c)).encode();
        self.tracer.stop(t, Stage::DeltaEncode);
        Ok(Some((c.data.len(), enc)))
    }

    /// Returns the copy of `data` the oplog entry holds, for a caller that
    /// wants to share it rather than copy the record again.
    fn insert_unique(&mut self, id: RecordId, data: &[u8]) -> Result<Bytes, EngineError> {
        let shared = Bytes::copy_from_slice(data);
        let (_, wire) = self
            .oplog
            .append(OplogKind::Insert { id, payload: OplogPayload::Raw(shared.clone()) })?;
        self.metrics.network_bytes += wire as u64;
        let t = self.tracer.start();
        self.store.put(id, StorageForm::Raw, data)?;
        self.tracer.stop(t, Stage::StoreAppend);
        self.io.submit(1);
        self.chains.start_chain(id);
        self.metrics.unique_inserts += 1;
        Ok(shared)
    }

    /// Unique insert that also seeds the source cache (a future similar
    /// record will want this content, and its anchors).
    fn insert_unique_cached(&mut self, id: RecordId, new: Scanned<'_>) -> Result<(), EngineError> {
        let data = self.insert_unique(id, new.bytes)?;
        self.source_cache
            .insert_source(id, CachedSource { data, anchors: new.anchors.map(Arc::from) });
        Ok(())
    }

    /// Unique insert for the overload pass-through path: stored raw like
    /// [`insert_unique`](Self::insert_unique), but the frame carries the
    /// degraded tag (with the logical database) so out-of-line re-dedup can
    /// recover the lost compression later — even across a restart. The raw
    /// record still replicates through the oplog exactly as before; the
    /// tag is primary-local storage metadata.
    fn insert_unique_degraded(
        &mut self,
        db: &str,
        id: RecordId,
        data: &[u8],
    ) -> Result<(), EngineError> {
        let (_, wire) = self.oplog.append(OplogKind::Insert {
            id,
            payload: OplogPayload::Raw(Bytes::copy_from_slice(data)),
        })?;
        self.metrics.network_bytes += wire as u64;
        let t = self.tracer.start();
        self.store.put_degraded(id, db, data)?;
        self.tracer.stop(t, Stage::StoreAppend);
        self.io.submit(1);
        self.chains.start_chain(id);
        self.metrics.unique_inserts += 1;
        self.degraded.insert(id, db.to_string());
        Ok(())
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
        if let Some(s) = self.shadow.get(&id) {
            return Ok(s.clone());
        }
        self.tracer.sample();
        let t = self.tracer.start();
        let decoded = self.decode_with_path(id);
        self.tracer.stop(t, Stage::DecodeChain);
        let (content, path, contents) = decoded?;
        self.metrics.read_retrievals.record((path.len() - 1) as u64);
        self.gc_on_path(&path, &contents)?;
        Ok(content)
    }

    /// Decodes a record's content without GC or metrics (internal).
    fn decode_record(&mut self, id: RecordId) -> Result<Bytes, EngineError> {
        let (content, _, _) = self.decode_with_path(id)?;
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

    /// Walks base pointers to a raw record, then applies deltas back down.
    /// Returns the content, the path `[id, …, raw]`, and each path node's
    /// decoded content.
    #[allow(clippy::type_complexity)]
    fn decode_with_path(
        &mut self,
        id: RecordId,
    ) -> Result<(Bytes, Vec<RecordId>, Vec<Bytes>), EngineError> {
        let mut path = vec![id];
        let mut deltas: Vec<Delta> = Vec::new();
        let tail_content: Bytes;
        loop {
            let cur = *path.last().expect("path non-empty");
            // Decode bases may be served from the source cache (§4.1 Read).
            if cur != id {
                if let Some(c) = self.source_cache.get(cur) {
                    tail_content = c;
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
                    tail_content = sr.payload;
                    break;
                }
                StorageForm::Delta { base } => {
                    match Delta::decode(&sr.payload) {
                        Ok(d) => deltas.push(d),
                        Err(e) => {
                            return Err(self.chain_broken(
                                id,
                                cur,
                                format!("stored delta undecodable: {e}"),
                            ))
                        }
                    }
                    path.push(base);
                }
            }
        }
        // Unwind: contents[k] is the content of path[k].
        let mut contents = vec![Bytes::new(); path.len()];
        contents[path.len() - 1] = tail_content;
        for k in (0..path.len() - 1).rev() {
            let decoded = match deltas[k].apply(&contents[k + 1]) {
                Ok(d) => d,
                Err(e) => {
                    return Err(self.chain_broken(
                        id,
                        path[k],
                        format!("delta application failed: {e}"),
                    ))
                }
            };
            contents[k] = Bytes::from(decoded);
        }
        Ok((contents[0].clone(), path, contents))
    }

    /// Read-side GC (§4.1): splice deleted records out of the decode path
    /// and physically remove them once unreferenced.
    fn gc_on_path(&mut self, path: &[RecordId], contents: &[Bytes]) -> Result<(), EngineError> {
        for k in 1..path.len() {
            let dead = path[k];
            if !self.chains.is_deleted(dead) {
                continue;
            }
            let neighbor = path[k - 1];
            if k + 1 < path.len() {
                // Re-encode the neighbor against the deleted record's base.
                let new_base = path[k + 1];
                let delta = self.delta_between(
                    Scanned::bare(&contents[k + 1]),
                    Scanned::bare(&contents[k - 1]),
                );
                self.store.put(neighbor, StorageForm::Delta { base: new_base }, &delta.encode())?;
                self.chains.splice_base(neighbor, new_base);
            } else {
                // The deleted record is the terminal raw base: the neighbor
                // becomes raw itself.
                self.store.put(neighbor, StorageForm::Raw, &contents[k - 1])?;
                self.chains.clear_base(neighbor);
            }
            self.io.submit(1);
            self.metrics.gc_spliced += 1;
            self.try_remove_deleted(dead)?;
            // The path below `dead` no longer reflects the stored topology;
            // one splice per read keeps GC amortized (later reads continue).
            break;
        }
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
            self.shadow.remove(&c);
            self.source_cache.remove(c);
            self.wb_cache.invalidate(c);
            // Compaction opportunity for a shadowed base whose refcount may
            // have just dropped to zero; deletion cascade too.
            if let Some(b) = base {
                if self.chains.refcount(b) == 0 {
                    self.compact_shadow(b)?;
                }
            }
            cur = base;
        }
        Ok(())
    }

    /// If `id` holds a client update in the shadow table and is no longer a
    /// decode base, fold the update into storage (§4.1 Update compaction).
    fn compact_shadow(&mut self, id: RecordId) -> Result<(), EngineError> {
        if self.chains.refcount(id) != 0 {
            return Ok(());
        }
        if let Some(data) = self.shadow.remove(&id) {
            // Same hazard as an in-place update: the stored content is
            // about to change, so deltas based on the old bytes must go.
            self.wb_cache.invalidate_by_base(id);
            self.store.put(id, StorageForm::Raw, &data)?;
            self.chains.clear_base(id);
            self.io.submit(1);
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

    fn apply_update(
        &mut self,
        id: RecordId,
        data: &[u8],
        emit_oplog: bool,
    ) -> Result<(), EngineError> {
        if !self.store.contains(id) || self.chains.is_deleted(id) {
            return Err(EngineError::NotFound(id));
        }
        // A queued writeback would clobber this update — invalidate (§4.1).
        self.wb_cache.invalidate(id);
        self.source_cache.remove(id);
        // New content supersedes whatever the overload path admitted; the
        // re-dedup backlog entry is obsolete (the in-place rewrite below
        // also clears the on-disk tag).
        self.degraded.remove(&id);
        if emit_oplog {
            let (_, wire) = self.oplog.append(OplogKind::Update {
                id,
                payload: OplogPayload::Raw(Bytes::copy_from_slice(data)),
            })?;
            self.metrics.network_bytes += wire as u64;
        }
        self.metrics.original_bytes += data.len() as u64;
        if self.chains.refcount(id) == 0 {
            // In-place rewrite: queued deltas computed against the OLD
            // content of this record (as their decode base) are now bogus.
            self.wb_cache.invalidate_by_base(id);
            self.store.put(id, StorageForm::Raw, data)?;
            self.chains.clear_base(id);
            self.shadow.remove(&id);
            self.io.submit(1);
        } else {
            // Old content must survive as a decode base; hold the update
            // aside until the refcount drains.
            self.shadow.insert(id, Bytes::copy_from_slice(data));
        }
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
        self.wb_cache.invalidate(id);
        self.source_cache.remove(id);
        self.degraded.remove(&id);
        if emit_oplog {
            let (_, wire) = self.oplog.append(OplogKind::Delete { id })?;
            self.metrics.network_bytes += wire as u64;
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
        self.store.put(wb.target, StorageForm::Delta { base: wb.base }, &wb.delta)?;
        self.chains.commit_writeback(Writeback { target: wb.target, base: wb.base });
        self.io.submit(1);
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
    /// backward deltas the primary stores.
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
                self.metrics.original_bytes += data.len() as u64;
                self.store.put(*id, StorageForm::Raw, data)?;
                self.io.submit(1);
                self.chains.start_chain(*id);
                self.metrics.unique_inserts += 1;
                self.source_cache.insert(*id, data.clone());
                Ok(())
            }
            OplogKind::Insert { id, payload: OplogPayload::Forward { base, delta } } => {
                let src_content = self.fetch_for_encode(*base)?.data;
                let forward = Delta::decode(delta)?;
                let data = forward.apply(&src_content)?;
                self.metrics.original_bytes += data.len() as u64;
                self.metrics.deduped_inserts += 1;
                // A secondary never selects sources, so nothing here scans
                // the record: it is cached without anchors and scanned if
                // ever encoded against.
                let new = CachedSource { data: Bytes::from(data), anchors: None };
                self.apply_dedup_insert(*id, *base, new, &src_content, &forward, false)
            }
            OplogKind::Update { id, payload } => {
                let data = match payload {
                    OplogPayload::Raw(d) => d.clone(),
                    OplogPayload::Forward { base, delta } => {
                        let src = self.fetch_for_encode(*base)?.data;
                        Bytes::from(Delta::decode(delta)?.apply(&src)?)
                    }
                };
                self.apply_update(*id, &data, false)
            }
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

    // ------------------------------------------------------------------
    // Background maintenance (chain GC, compaction, retention)
    // ------------------------------------------------------------------

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
            match new_base {
                Some(nb) => {
                    let base_content = self.decode_record(nb)?;
                    let delta = self
                        .delta_between(Scanned::bare(&base_content), Scanned::bare(&dep_content));
                    self.store.put(dep, StorageForm::Delta { base: nb }, &delta.encode())?;
                    self.chains.splice_base(dep, nb);
                }
                None => {
                    self.store.put(dep, StorageForm::Raw, &dep_content)?;
                    self.chains.clear_base(dep);
                }
            }
            self.io.submit(1);
            self.metrics.gc_spliced += 1;
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
        if self.broken.contains(&id) || self.shadow.contains_key(&id) {
            // Damaged records belong to anti-entropy (repair re-puts raw,
            // clearing the tag); shadowed ones hold a pending client
            // update that supersedes the degraded bytes.
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
                    self.store.put(id, StorageForm::Raw, &sr.payload)?;
                    self.io.submit(1);
                }
            }
            self.degraded.remove(&id);
            return Ok(RededupOutcome::Skipped);
        }

        // Raw refcount-0 singleton, exactly as the overload path left it:
        // replay the inline pipeline stages in call order, so a degraded
        // burst drained in insertion order converges to the same index,
        // chain, storage and cache state a never-degraded run produces.
        let data = self.store.get(id)?.payload;
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.rededup_replay(id, db, &data, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    fn rededup_replay(
        &mut self,
        id: RecordId,
        db: &str,
        data: &[u8],
        scratch: &mut InsertScratch,
    ) -> Result<RededupOutcome, EngineError> {
        // ① Feature extraction and the record's anchors.
        self.extractor.chunker().scan(self.encoder.sampler(), data, &mut scratch.scan);
        let sketch = self.extractor.extract_from_chunks(data, &scratch.scan.chunks);
        let new = Scanned { bytes: data, anchors: Some(&scratch.scan.anchors) };
        // ② Index lookup + registration (the overload path skipped it, so
        // the record's features enter the index here, just later).
        self.lookup_candidates(db, id, &sketch, &mut scratch.counts);
        // ③ Cache-aware source selection (§3.1.3), same scoring as inline.
        let Some(source) = self.select_source(&scratch.counts) else {
            return self.rededup_keep_raw(id, new);
        };
        // ④ Delta compression, with the same benefit gate as inline.
        let src = match self.fetch_for_encode(source) {
            Ok(c) => c,
            Err(EngineError::ChainBroken { .. } | EngineError::NotFound(_)) => {
                return self.rededup_keep_raw(id, new);
            }
            Err(e) => return Err(e),
        };
        let forward = self.delta_between(Scanned::cached(&src), new);
        let saved = data.len() as i64 - forward.encoded_len() as i64;
        if saved < self.config.min_benefit_bytes as i64 {
            return self.rededup_keep_raw(id, new);
        }
        let forward_bytes = forward.encoded_len();
        self.apply_rededup(id, source, new, &src.data, &forward)?;
        Ok(RededupOutcome::Rededuped { source, forward_bytes })
    }

    /// Terminal no-source outcome of a re-dedup pass: the record stays
    /// raw, exactly as the inline unique path would have stored it. The
    /// clean raw re-put supersedes the tagged frame (durable tag clear),
    /// and the content seeds the source cache like a unique insert does.
    fn rededup_keep_raw(
        &mut self,
        id: RecordId,
        new: Scanned<'_>,
    ) -> Result<RededupOutcome, EngineError> {
        self.store.put(id, StorageForm::Raw, new.bytes)?;
        self.io.submit(1);
        self.source_cache.insert_source(id, new.to_cached());
        self.degraded.remove(&id);
        Ok(RededupOutcome::KeptRaw)
    }

    /// Commits a re-dedup rewrite with the copy-before-supersede ordering:
    /// chain halves (backward deltas for the source and any hop upgrades)
    /// land first — all synchronous, so the rewrite is durably complete —
    /// and only then is the raw tagged frame superseded by a clean raw
    /// re-put of identical bytes. Mirrors
    /// [`apply_dedup_insert`](Self::apply_dedup_insert)'s chain and cache
    /// operations so a drained backlog converges to the inline result.
    fn apply_rededup(
        &mut self,
        id: RecordId,
        source: RecordId,
        new: Scanned<'_>,
        src_content: &[u8],
        forward: &Delta,
    ) -> Result<(), EngineError> {
        // Re-enter the record through the normal append machinery: its
        // singleton chain (refcount 0, no base) is retired and `id` joins
        // `source`'s chain, so hop policy sees the same operation sequence
        // an inline dedup insert would have produced.
        self.chains.remove(id);
        let plan = self.chains.append(id, source);
        for wb in &plan.writebacks {
            let Some((content_len, enc)) =
                self.writeback_delta(wb.target, source, new, src_content, forward)?
            else {
                continue;
            };
            let saving = content_len as i64 - enc.len() as i64;
            if saving > 0 {
                // Always synchronous, regardless of the writeback-cache
                // mode: the whole point of copy-before-supersede is that
                // the rewrite is durably complete before the raw frame
                // goes away. A queued delta for this target computed
                // against older content would now be stale — drop it.
                self.wb_cache.invalidate(wb.target);
                self.store.put(wb.target, StorageForm::Delta { base: id }, &enc)?;
                self.chains.commit_writeback(Writeback { target: wb.target, base: id });
                self.io.submit(1);
            }
            if wb.target != source {
                self.source_cache.remove(wb.target);
            }
        }
        // Commit point: a clean raw frame (identical bytes, no tag)
        // supersedes the degraded frame. Until this write lands, every
        // prior write is additive — a crash leaves the record readable
        // and the tag in place.
        self.store.put(id, StorageForm::Raw, new.bytes)?;
        self.io.submit(1);
        // Cache maintenance identical to the inline dedup path (§3.3.1).
        let src_level = self
            .chains
            .chain_index(source)
            .map(|idx| self.chains.policy().level_of(idx))
            .unwrap_or(0);
        let replaces = if src_level >= 1 { None } else { Some(source) };
        self.source_cache.replace_or_insert(id, new.to_cached(), replaces);
        self.degraded.remove(&id);
        Ok(())
    }

    /// Runs one bounded incremental-compaction step (at most `max_bytes`
    /// of segment bytes processed), accumulating the stats into the
    /// engine's cumulative compaction counters.
    pub fn compact_step(&mut self, max_bytes: u64) -> Result<CompactStats, EngineError> {
        self.tracer.sample();
        let t = self.tracer.start();
        let stats = self.store.compact_step(max_bytes)?;
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

    // ------------------------------------------------------------------
    // Tiered-index maintenance
    // ------------------------------------------------------------------

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
        for id in self.live_record_ids() {
            // Unreadable (broken-chain) records can't be sketched; they are
            // resync's problem, not the index's.
            let Ok(content) = self.read(id) else { continue };
            let mut chunks = Vec::new();
            self.extractor.chunker().chunk_into(&content, &mut chunks);
            let sketch = self.extractor.extract_from_chunks(&content, &chunks);
            let slot = self.slots.assign(id);
            let part = self.index.partition_mut(db);
            for &feature in sketch.features() {
                part.lookup_insert(feature, slot);
            }
            registered += 1;
        }
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

    // ------------------------------------------------------------------
    // Corruption repair (anti-entropy resync support)
    // ------------------------------------------------------------------

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
        if let Some(s) = self.shadow.get(&id) {
            return Ok(crc32(s));
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
        // bogus once the stored content changes.
        self.wb_cache.invalidate(id);
        self.wb_cache.invalidate_by_base(id);
        self.source_cache.remove(id);
        self.shadow.remove(&id);
        self.store.put(id, StorageForm::Raw, data)?;
        self.io.submit(1);
        if self.chains.chain_index(id).is_some() {
            self.chains.clear_base(id);
        } else {
            // The record itself was quarantined wholesale; it re-enters as
            // the head of a fresh chain.
            self.chains.start_chain(id);
        }
        self.slots.assign(id);
        self.broken.remove(&id);
        // The clean raw re-put above cleared any on-disk degraded tag;
        // keep the backlog consistent with it.
        self.degraded.remove(&id);
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
        self.wb_cache.invalidate(id);
        self.wb_cache.invalidate_by_base(id);
        self.source_cache.remove(id);
        self.shadow.remove(&id);
        self.degraded.remove(&id);
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

    // ------------------------------------------------------------------
    // Integrity scrub (scrub-and-heal)
    // ------------------------------------------------------------------

    /// Runs one bounded scrub-and-heal slice behind the store's persistent
    /// scrub cursor, verifying up to `max_bytes` of live frames.
    ///
    /// Three detection tiers run per slice:
    /// (a) on-disk frame checksums, read past the block cache;
    /// (b) chain decodability back to the raw root for every frame that
    ///     scanned clean;
    /// (c) index ↔ store ↔ degraded-backlog agreement.
    ///
    /// Damage is quarantined and healed in place — locally when the
    /// content survives in memory (a shadowed update, a cached source),
    /// otherwise from `repair` — with every write going through
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
        for &id in &scan.clean {
            self.scrub_check_consistency(id, &mut out)?;
            self.scrub_check_chain(id, &mut repair, &mut out)?;
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

    /// Quarantines one damaged record and heals it: local reconstruction
    /// first (a shadowed update or a source-cache entry holds the exact
    /// logical content), then the repair source. Returns whether the
    /// record itself was restored; a record no source can supply stays
    /// quarantined and broken-marked — a typed escalation, not a panic.
    fn scrub_heal(
        &mut self,
        id: RecordId,
        repair: &mut Option<&mut dyn RepairSource>,
        out: &mut ScrubSlice,
    ) -> Result<bool, EngineError> {
        self.store.quarantine(id)?;
        // A shadowed update holds the record's current logical content
        // aside in memory; fold it in. The damaged frame held the *old*
        // content the dependents' deltas decode against, and that content
        // is gone for good — heal the dependents individually too.
        if let Some(content) = self.shadow.get(&id).cloned() {
            let deps = self.chains.dependents_of(id);
            self.repair_record(id, &content)?;
            out.healed_local += 1;
            self.metrics.scrub_healed_local += 1;
            for dep in deps {
                if self.chains.is_deleted(dep) {
                    continue;
                }
                let fetched = match repair.as_deref_mut() {
                    Some(src) => src.fetch_authoritative(dep)?,
                    None => None,
                };
                match fetched {
                    Some(bytes) => {
                        self.repair_record(dep, &bytes)?;
                        out.healed_replica += 1;
                        self.metrics.scrub_healed_replica += 1;
                    }
                    None => self.scrub_escalate(dep, out),
                }
            }
            return Ok(true);
        }
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

    /// Tier (b): decode `id`'s chain back to its raw root, healing any
    /// damaged node the walk trips over. The walk re-runs after each heal
    /// (a chain can be broken in more than one place); when the damaged
    /// node cannot be healed, `id` itself is restored raw from the repair
    /// source as the fallback.
    fn scrub_check_chain(
        &mut self,
        id: RecordId,
        repair: &mut Option<&mut dyn RepairSource>,
        out: &mut ScrubSlice,
    ) -> Result<(), EngineError> {
        // A shadowed record's logical content lives in the shadow map; its
        // stored frame is only a decode base, checksum-verified by tier
        // (a) already. Deleted records are unreadable by definition.
        if self.shadow.contains_key(&id) || self.chains.is_deleted(id) {
            return Ok(());
        }
        let mut faulted = false;
        for _ in 0..MAX_CHAIN_HEALS {
            let broken_at = match self.decode_record(id) {
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

    /// Counts one replication-apply retry (called by the async replicator
    /// when it re-attempts a transiently failed oplog apply).
    pub fn record_apply_retry(&mut self) {
        self.metrics.apply_retries += 1;
    }

    /// Counts one shipment refused by a full replica queue.
    pub fn record_backpressure(&mut self) {
        self.metrics.backpressure_events += 1;
    }

    /// Counts one batch delivered through oplog-cursor catch-up.
    pub fn record_catchup_batch(&mut self) {
        self.metrics.catchup_batches += 1;
    }

    /// Counts one replica health state-machine transition.
    pub fn record_health_transition(&mut self) {
        self.metrics.health_transitions += 1;
    }

    /// Records an observed replica lag (oplog entries behind the primary),
    /// keeping the worst value seen.
    pub fn observe_replica_lag(&mut self, lag: u64) {
        self.metrics.max_replica_lag = self.metrics.max_replica_lag.max(lag);
    }

    /// A shared handle to the engine's structured event log (the
    /// replication layer records its incidents here too).
    pub fn event_log(&self) -> Arc<EventLog> {
        self.events.clone()
    }

    /// A thread-safe handle performing this engine's exact scan and
    /// feature extraction off-thread, for use with
    /// [`DedupEngine::insert_prepared`].
    pub fn preparer(&self) -> InsertPreparer {
        InsertPreparer::from_parts(self.extractor.clone(), *self.encoder.sampler())
    }

    /// The per-stage latency histograms accumulated so far.
    pub fn stage_timings(&self) -> &StageSet {
        self.tracer.stages()
    }

    /// Records one span observation into `stage` directly (callers that
    /// time work outside the engine — e.g. the replication shipper — but
    /// want it in the same stage table).
    pub fn record_stage_ns(&mut self, stage: Stage, ns: u64) {
        if self.tracer.is_enabled() {
            self.tracer.stages_mut().record(stage, ns);
        }
    }

    /// Points the telemetry clock (span timing and event timestamps) at
    /// `clock`. The deterministic simulator passes its shared virtual
    /// clock so two runs with the same seed produce byte-identical
    /// event traces.
    pub fn set_telemetry_clock(&mut self, clock: Arc<dyn Clock>) {
        self.tracer.set_clock(clock.clone());
        if let Some(flight) = &self.flight {
            flight.set_clock(clock.clone());
        }
        self.events.set_clock(clock);
    }

    /// Attaches an anomaly [`FlightRecorder`]: the event log mirrors every
    /// event into its ring (auto-firing dump triggers on anomalies) and
    /// the stage tracer mirrors sampled spans. Call after
    /// [`set_telemetry_clock`](Self::set_telemetry_clock) if the recorder
    /// should share the same (virtual) clock — or hand it one directly.
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.events.set_flight_recorder(Arc::clone(&recorder));
        self.tracer.set_flight_recorder(Arc::clone(&recorder));
        self.flight = Some(recorder);
    }

    /// The attached anomaly flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.clone()
    }

    /// Records a periodic full-registry snapshot into the flight
    /// recorder's ring (no-op when no recorder is attached). The driving
    /// loop calls this on its maintenance cadence so a dump carries the
    /// metric state leading up to the anomaly, not just events.
    pub fn flight_snapshot(&self) {
        if let Some(flight) = &self.flight {
            flight.record_snapshot(&self.metrics().registry().to_json());
        }
    }

    /// The I/O meter's current pressure view (queue depth, idleness).
    pub fn io_pressure(&self) -> dbdedup_storage::IoPressure {
        self.io.pressure()
    }

    /// Assesses node health with default thresholds. `links` carries the
    /// state of every replication link (empty when replication is not
    /// configured); everything else is read from the engine's own state.
    pub fn health(&self, links: &[LinkState]) -> HealthReport {
        self.health_with(links, &HealthThresholds::default())
    }

    /// Assesses node health with explicit thresholds.
    pub fn health_with(&self, links: &[LinkState], thresholds: &HealthThresholds) -> HealthReport {
        let inputs = HealthInputs {
            ingest_overloaded: self.governor.is_overloaded(),
            links: links.to_vec(),
            degraded_backlog: self.degraded.len() as u64,
            gc_backlog: self.chains.deleted_ids().len() as u64,
            reclaimable_dead_bytes: self.store.reclaimable_dead_bytes(),
            index_merge_backlog: self.index_merge_backlog(),
            scrub_unhealable: self.metrics.scrub_unhealable,
            broken_records: self.broken.len() as u64,
            io: self.io.pressure(),
        };
        health::assess(&inputs, thresholds)
    }

    /// A consistent snapshot of every figure-relevant metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        let io = self.store.io_stats();
        MetricsSnapshot {
            original_bytes: self.metrics.original_bytes,
            stored_bytes: self.store.stored_payload_bytes(),
            stored_uncompressed_bytes: self.store.stored_uncompressed_bytes(),
            network_bytes: self.metrics.network_bytes,
            index_bytes: self.index.accounted_bytes(),
            deduped_inserts: self.metrics.deduped_inserts,
            unique_inserts: self.metrics.unique_inserts,
            bypassed_size: self.metrics.bypassed_size,
            bypassed_governor: self.metrics.bypassed_governor,
            source_cache: self.source_cache.stats(),
            writeback_cache: self.wb_cache.stats(),
            max_read_retrievals: self.metrics.read_retrievals.max(),
            mean_read_retrievals: self.metrics.read_retrievals.mean(),
            gc_spliced: self.metrics.gc_spliced,
            quarantined_entries: io.quarantined_entries,
            truncated_tail_bytes: io.truncated_tail_bytes,
            chain_broken_reads: self.metrics.chain_broken_reads,
            apply_retries: self.metrics.apply_retries,
            repaired_records: self.metrics.repaired_records,
            bypassed_overload: self.metrics.bypassed_overload,
            backpressure_events: self.metrics.backpressure_events,
            catchup_batches: self.metrics.catchup_batches,
            health_transitions: self.metrics.health_transitions,
            max_replica_lag: self.metrics.max_replica_lag,
            stages: self.tracer.stages().clone(),
            io_queue_depth: self.io.queue_len(),
            io_idle_fraction: self.io.idle_fraction(),
            events_logged: self.events.logged(),
            events_dropped: self.events.dropped(),
            events_ring_len: self.events.len() as u64,
            maint_gc_backlog: self.chains.deleted_ids().len() as u64,
            maint_pinned_dead_bytes: self.pinned_dead_bytes(),
            maint_dead_bytes: self.store.dead_bytes(),
            maint_reclaimable_dead_bytes: self.store.reclaimable_dead_bytes(),
            maint_reencoded: self.metrics.maint_reencoded,
            maint_removed: self.metrics.maint_removed,
            maint_retired: self.metrics.maint_retired,
            maint_rededup_rewritten: self.metrics.rededup_rewritten,
            maint_rededup_kept_raw: self.metrics.rededup_kept_raw,
            maint_rededup_skipped: self.metrics.rededup_skipped,
            maint_degraded_backlog: self.degraded.len() as u64,
            compact: self.metrics.compact,
            scrub_verified: self.metrics.scrub_verified,
            scrub_corrupt: self.metrics.scrub_corrupt,
            scrub_healed_local: self.metrics.scrub_healed_local,
            scrub_healed_replica: self.metrics.scrub_healed_replica,
            scrub_unhealable: self.metrics.scrub_unhealable,
            scrub_inconsistencies: self.metrics.scrub_inconsistencies,
            scrub_passes: self.metrics.scrub_passes,
            salvage_skipped: self.metrics.salvage_skipped,
            index_tier: self.index_tier_metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::dist::SplitMix64;

    fn engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::open_temp(cfg).expect("temp engine")
    }

    fn versioned_docs(n: usize, seed: u64) -> Vec<Vec<u8>> {
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
    fn update_with_references_shadows_until_compaction() {
        let mut e = engine();
        let docs = versioned_docs(2, 8);
        e.insert("db", RecordId(1), &docs[0]).unwrap();
        e.insert("db", RecordId(2), &docs[1]).unwrap();
        e.flush_all_writebacks().unwrap();
        // Record 2 is the decode base of record 1 (refcount 1).
        e.update(RecordId(2), b"updated head").unwrap();
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], b"updated head");
        // Record 1 still decodes to its original content.
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
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
        primary.update(RecordId(3), b"shadowed or in-place update content").unwrap();
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

    #[test]
    fn health_flips_degraded_with_overload_and_back() {
        let mut e = engine();
        let r = e.health(&[]);
        assert_eq!(r.verdict, crate::health::Verdict::Ready);
        assert!(r.ready());
        e.set_replication_pressure(true);
        let r = e.health(&[]);
        assert_eq!(r.verdict, crate::health::Verdict::Degraded);
        assert!(r.ready(), "overload degrades but keeps serving");
        e.set_replication_pressure(false);
        assert_eq!(e.health(&[]).verdict, crate::health::Verdict::Ready);
        // A partitioned-only link set pulls the node from rotation.
        let r = e.health(&[crate::health::LinkState::Partitioned]);
        assert!(!r.ready());
    }

    #[test]
    fn flight_recorder_attaches_and_snapshots() {
        use dbdedup_obs::{FlightConfig, FlightTrigger};
        let mut e = engine();
        let rec = dbdedup_obs::FlightRecorder::shared(FlightConfig::default());
        e.set_flight_recorder(Arc::clone(&rec));
        assert!(e.flight_recorder().is_some());
        e.insert("db", RecordId(1), &versioned_docs(1, 77)[0]).unwrap();
        e.flight_snapshot();
        assert!(!rec.is_empty());
        let dump = rec.trigger(FlightTrigger::OverloadOnset);
        assert!(dump.contains("\"t\":\"snapshot\""), "{dump}");
        assert!(dump.contains("\"unique_inserts\":1"), "{dump}");
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
            let s = e.compact_step(4096).unwrap();
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

    // ------------------------------------------------------------------
    // Integrity scrub
    // ------------------------------------------------------------------

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
    fn scrub_folds_shadow_and_heals_dependents_when_shadowed_base_rots() {
        let dir = scrub_dir("shadow");
        let docs = versioned_docs(2, 64);
        let mut control = engine();
        let mut e = engine_at(&dir);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64 + 1), d).unwrap();
            control.insert("db", RecordId(i as u64 + 1), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        control.flush_all_writebacks().unwrap();
        // Record 2 is record 1's decode base (refcount 1); updating it
        // shadows the new content in memory while the stored frame keeps
        // serving the old bytes to record 1's delta.
        e.update(RecordId(2), b"shadowed fresh content").unwrap();
        control.update(RecordId(2), b"shadowed fresh content").unwrap();
        rot_live_frame(&dir, &e, RecordId(2), FRAME_PROBE);
        let pass = scrub_full_pass(&mut e, Some(&mut control));
        assert!(pass.healed_local >= 1, "shadow fold: {pass:?}");
        assert!(pass.unhealable.is_empty(), "{pass:?}");
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], b"shadowed fresh content");
        assert_eq!(&e.read(RecordId(1)).unwrap()[..], &docs[0][..]);
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
