//! Parallel ingest pipeline: bounded workers + a sequence-stamped reorder
//! buffer, deterministically identical to serial execution.
//!
//! The insert workflow (Fig. 3) is CPU-bound, and its first two stages —
//! content-defined chunking and sketch extraction — are *pure* functions
//! of the record bytes. [`ParallelIngest`] fans exactly those stages out
//! to a pool of `std::thread` workers while everything order-dependent
//! (feature-index lookup, source selection, delta encoding, store/oplog
//! append) commits through per-shard committer threads that drain a
//! sequence-stamped reorder buffer **in submission order**. Because the
//! commit path replays the serial engine's exact decision sequence — same
//! gates, same index registrations, same cache state at each step — the
//! on-disk segments, oplog bytes, and replication behavior are
//! byte-identical to a serial run over the same input stream. The
//! differential suite (`tests/differential.rs`) enforces this for every
//! worker count.
//!
//! Sharding multiplies the parallelism: records of different logical
//! databases route to independent shards (§3.4.1 — duplication rarely
//! crosses database boundaries), so each shard's committer runs the full
//! order-dependent tail of the pipeline concurrently with the others,
//! while the shared worker pool overlaps chunking/sketching of records
//! still in flight.
//!
//! Under replication overload the engine sheds dedup encoding
//! ([`InsertOutcome::BypassedOverload`]); the pipeline observes that
//! outcome and flips its lane into **pass-through** — records skip the
//! worker stage entirely (their sketch would be discarded by the overload
//! gate anyway), so parallelism degrades to the serial shed path instead
//! of amplifying load. The transition is recorded as an
//! `ingest_degraded` event.

use crate::config::{EngineConfig, IngestConfig};
use crate::engine::EngineError;
use crate::engine::InsertOutcome;
use crate::sharded::ShardedEngine;
use bytes::Bytes;
use dbdedup_chunker::{
    Anchor, AnchorSampler, ChunkerConfig, ContentChunker, RecordScan, Sketch, SketchExtractor,
};
use dbdedup_obs::{EventKind, EventLog, Registry, Severity};
use dbdedup_util::ids::RecordId;
use dbdedup_util::stats::LogHistogram;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

// ---------------------------------------------------------------------
// Prepared inserts: the pure prefix of the insert workflow
// ---------------------------------------------------------------------

/// The result of the pure CPU stages of one insert (the record's scan —
/// chunks and delta anchors — and sketch extraction), computed off the
/// commit path by a pipeline worker and handed to
/// [`DedupEngine::insert_prepared`].
///
/// Because both stages are pure functions of the record bytes and the
/// engine configuration, a prepared insert commits to exactly the same
/// bytes as an unprepared one.
///
/// [`DedupEngine::insert_prepared`]: crate::engine::DedupEngine::insert_prepared
#[derive(Debug, Clone)]
pub struct PreparedInsert {
    pub(crate) sketch: Sketch,
    /// The record's delta anchors: the target side of its encode, then
    /// cached beside it for when it is a source.
    pub(crate) anchors: Vec<Anchor>,
    /// Nanoseconds the worker spent scanning (carried into the `chunk`
    /// stage histogram when the committing operation is sampled).
    pub(crate) chunk_ns: u64,
    /// Nanoseconds the worker spent extracting the sketch.
    pub(crate) sketch_ns: u64,
}

/// A cloneable, thread-safe handle that performs the pure prefix of the
/// insert workflow: the record's scan and sketch extraction.
///
/// Built from the same [`EngineConfig`] as the engine itself, so the
/// sketch and anchors a worker produces are bit-for-bit what the engine
/// would have computed inline.
#[derive(Debug, Clone)]
pub struct InsertPreparer {
    extractor: SketchExtractor,
    sampler: AnchorSampler,
}

impl InsertPreparer {
    /// Builds a preparer exactly as [`DedupEngine::new`] builds its own
    /// extractor and anchor sampler — the single construction point both
    /// paths share.
    ///
    /// [`DedupEngine::new`]: crate::engine::DedupEngine::new
    pub fn from_config(config: &EngineConfig) -> Self {
        let chunker = ContentChunker::with_kind(
            ChunkerConfig::with_avg(config.chunk_avg_size),
            config.chunker_kind,
        );
        Self::from_parts(
            SketchExtractor::new(chunker, config.sketch_k),
            AnchorSampler::new(config.anchor_interval),
        )
    }

    pub(crate) fn from_parts(extractor: SketchExtractor, sampler: AnchorSampler) -> Self {
        Self { extractor, sampler }
    }

    pub(crate) fn into_parts(self) -> (SketchExtractor, AnchorSampler) {
        (self.extractor, self.sampler)
    }

    /// Scans `data` and extracts its sketch, timing each stage.
    pub fn prepare(&self, data: &[u8]) -> PreparedInsert {
        let t0 = Instant::now();
        let mut scan = RecordScan::default();
        self.extractor.chunker().scan(&self.sampler, data, &mut scan);
        let chunk_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let sketch = self.extractor.extract_from_chunks(data, &scan.chunks);
        let sketch_ns = t1.elapsed().as_nanos() as u64;
        PreparedInsert { sketch, anchors: scan.anchors, chunk_ns, sketch_ns }
    }
}

// ---------------------------------------------------------------------
// Internal plumbing
// ---------------------------------------------------------------------

/// A record travelling from the caller to a worker.
struct Job {
    lane: usize,
    seq: u64,
    db: String,
    id: RecordId,
    data: Bytes,
}

/// A record ready to commit (sketch computed, or pass-through).
struct Ready {
    db: String,
    id: RecordId,
    data: Bytes,
    prepared: Option<PreparedInsert>,
}

/// Bounded-by-inflight MPMC job queue (Mutex + Condvar; the global
/// in-flight cap bounds its depth, so the queue itself never blocks
/// producers).
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        Self { inner: Mutex::new((VecDeque::new(), false)), cv: Condvar::new() }
    }

    /// Enqueues a job, returning the resulting queue depth.
    fn push(&self, job: Job) -> usize {
        let mut g = lock_or_recover(&self.inner);
        g.0.push_back(job);
        let depth = g.0.len();
        drop(g);
        self.cv.notify_one();
        depth
    }

    /// Blocks for the next job; `None` once closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut g = lock_or_recover(&self.inner);
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock_or_recover(&self.inner).1 = true;
        self.cv.notify_all();
    }
}

/// Per-shard commit lane: the sequence-stamped reorder buffer plus the
/// lane's degradation flag.
struct Lane {
    inner: Mutex<LaneState>,
    cv: Condvar,
    /// Last commit on this lane observed the overload gate raised: new
    /// submissions pass the worker stage through untouched.
    pressure: AtomicBool,
    /// The owning shard's event log (degradation transitions land here).
    events: Arc<EventLog>,
}

struct LaneState {
    ready: HashMap<u64, Ready>,
    /// Next sequence number the committer will commit.
    next: u64,
    closed: bool,
}

impl Lane {
    fn new(events: Arc<EventLog>, pass_through: bool) -> Self {
        Self {
            inner: Mutex::new(LaneState { ready: HashMap::new(), next: 0, closed: false }),
            cv: Condvar::new(),
            pressure: AtomicBool::new(pass_through),
            events,
        }
    }

    /// Delivers a prepared record into the reorder buffer, returning the
    /// buffer occupancy after insertion.
    fn deliver(&self, seq: u64, ready: Ready) -> usize {
        let mut g = lock_or_recover(&self.inner);
        g.ready.insert(seq, ready);
        let occ = g.ready.len();
        drop(g);
        self.cv.notify_all();
        occ
    }

    /// Blocks until the next in-order record is available; `None` once
    /// the lane is closed (close happens only after a full drain, so no
    /// record is ever stranded).
    fn take_next(&self) -> Option<Ready> {
        let mut g = lock_or_recover(&self.inner);
        loop {
            let next = g.next;
            if let Some(r) = g.ready.remove(&next) {
                g.next += 1;
                return Some(r);
            }
            if g.closed {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock_or_recover(&self.inner).closed = true;
        self.cv.notify_all();
    }
}

/// In-flight accounting: count of submitted-but-uncommitted records plus
/// the first commit error (later errors are counted, not kept).
struct Inflight {
    count: usize,
    error: Option<EngineError>,
    errors_seen: u64,
}

struct Stats {
    submitted: AtomicU64,
    committed: AtomicU64,
    pass_through: AtomicU64,
    /// Commits the engine actually shed under overload
    /// ([`InsertOutcome::BypassedOverload`]). `pass_through` counts lane
    /// routing (and includes permanently pass-through lanes when dedup is
    /// disabled in configuration); this counts overload shedding alone.
    degraded_total: AtomicU64,
    backpressure_stalls: AtomicU64,
    queue_depth_max: AtomicU64,
    reorder_occupancy_max: AtomicU64,
    worker_busy_ns: AtomicU64,
    hists: Mutex<(LogHistogram, LogHistogram)>, // (commit_ns, stall_ns)
    started: Instant,
}

/// Recovers the guard from a poisoned pipeline lock. Every critical
/// section in this module leaves its guarded data consistent at each exit
/// point, so when a worker or committer thread panics (poisoning a mutex
/// mid-unwind), the remaining threads — and the shutdown path, which
/// still needs these locks to drain and join — can safely continue
/// instead of cascading the panic through `drain`/`Drop`.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn store_max(cell: &AtomicU64, value: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while value > cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

struct Shared {
    jobs: JobQueue,
    lanes: Vec<Lane>,
    inflight: Mutex<Inflight>,
    inflight_cv: Condvar,
    stats: Stats,
}

impl Shared {
    fn commit_done(&self) {
        let mut g = lock_or_recover(&self.inflight);
        g.count -= 1;
        drop(g);
        self.inflight_cv.notify_all();
    }

    fn record_error(&self, e: EngineError) {
        let mut g = lock_or_recover(&self.inflight);
        g.errors_seen += 1;
        if g.error.is_none() {
            g.error = Some(e);
        }
    }
}

// ---------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------

/// Bounded-worker parallel ingest over a [`ShardedEngine`]. See the
/// module docs for the pipeline shape and the determinism argument.
///
/// ```
/// use dbdedup_core::{EngineConfig, IngestConfig, ParallelIngest, ShardedEngine};
/// use dbdedup_util::ids::RecordId;
///
/// let sharded = ShardedEngine::open_temp(EngineConfig::default(), 2).unwrap();
/// let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(2));
/// for i in 0..8u64 {
///     ingest.submit("users", RecordId(i), format!("record body {i}").as_bytes());
/// }
/// ingest.drain().unwrap();
/// let (engine, report) = ingest.finish().unwrap();
/// assert_eq!(report.committed, 8);
/// assert_eq!(engine.metrics().deduped_inserts + engine.metrics().unique_inserts
///     + engine.metrics().bypassed_size, 8);
/// ```
pub struct ParallelIngest {
    engine: ShardedEngine,
    shared: Arc<Shared>,
    /// Caller-side per-lane sequence stamps.
    seqs: Vec<u64>,
    workers: Vec<JoinHandle<()>>,
    committers: Vec<JoinHandle<()>>,
    config: IngestConfig,
    shut_down: bool,
}

impl std::fmt::Debug for ParallelIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelIngest")
            .field("workers", &self.config.workers)
            .field("shards", &self.engine.shard_count())
            .finish_non_exhaustive()
    }
}

impl ParallelIngest {
    /// Starts the pipeline: `config.workers` preparer threads plus one
    /// committer thread per shard of `engine`.
    pub fn new(engine: ShardedEngine, config: IngestConfig) -> Self {
        let config = IngestConfig {
            workers: config.workers.max(1),
            max_inflight: config.max_inflight.max(1),
        };
        let shards = engine.shard_count();
        // Dedup disabled in configuration ⇒ every sketch would be thrown
        // away; run permanently in pass-through.
        let pass_through = !engine.config().dedup_enabled;
        let lanes = (0..shards)
            .map(|k| Lane::new(engine.with_shard(k, |e| e.event_log()), pass_through))
            .collect();
        let shared = Arc::new(Shared {
            jobs: JobQueue::new(),
            lanes,
            inflight: Mutex::new(Inflight { count: 0, error: None, errors_seen: 0 }),
            inflight_cv: Condvar::new(),
            stats: Stats {
                submitted: AtomicU64::new(0),
                committed: AtomicU64::new(0),
                pass_through: AtomicU64::new(0),
                degraded_total: AtomicU64::new(0),
                backpressure_stalls: AtomicU64::new(0),
                queue_depth_max: AtomicU64::new(0),
                reorder_occupancy_max: AtomicU64::new(0),
                worker_busy_ns: AtomicU64::new(0),
                hists: Mutex::new((LogHistogram::new(), LogHistogram::new())),
                started: Instant::now(),
            },
        });

        let preparer = engine.preparer();
        let workers = (0..config.workers)
            .map(|w| {
                let shared = shared.clone();
                let preparer = preparer.clone();
                std::thread::Builder::new()
                    .name(format!("ingest-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &preparer))
                    .expect("spawn ingest worker")
            })
            .collect();
        let committers = (0..shards)
            .map(|k| {
                let shared = shared.clone();
                let engine = engine.clone();
                std::thread::Builder::new()
                    .name(format!("ingest-commit-{k}"))
                    .spawn(move || committer_loop(&shared, &engine, k))
                    .expect("spawn ingest committer")
            })
            .collect();
        Self {
            engine,
            shared,
            seqs: vec![0; shards],
            workers,
            committers,
            config,
            shut_down: false,
        }
    }

    /// Submits one insert. Returns once the record is accepted into the
    /// pipeline — commits happen asynchronously, in submission order per
    /// shard. Blocks only when `max_inflight` records are outstanding
    /// (backpressure). Errors surface at [`drain`](Self::drain) /
    /// [`finish`](Self::finish).
    pub fn submit(&mut self, db: &str, id: RecordId, data: &[u8]) {
        // Backpressure gate.
        {
            let mut g = lock_or_recover(&self.shared.inflight);
            if g.count >= self.config.max_inflight {
                self.shared.stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                while g.count >= self.config.max_inflight {
                    g = self
                        .shared
                        .inflight_cv
                        .wait(g)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                let stall = t0.elapsed().as_nanos() as u64;
                let mut h = lock_or_recover(&self.shared.stats.hists);
                h.1.record(stall);
            }
            g.count += 1;
        }
        let lane_idx = self.engine.route(db);
        let seq = self.seqs[lane_idx];
        self.seqs[lane_idx] += 1;
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let data = Bytes::copy_from_slice(data);
        let lane = &self.shared.lanes[lane_idx];
        if lane.pressure.load(Ordering::Relaxed) {
            // Degraded: the overload gate would discard the sketch anyway,
            // so skip the worker stage and let the committer replay the
            // serial shed path.
            self.shared.stats.pass_through.fetch_add(1, Ordering::Relaxed);
            let occ = lane.deliver(seq, Ready { db: db.to_string(), id, data, prepared: None });
            store_max(&self.shared.stats.reorder_occupancy_max, occ as u64);
        } else {
            let depth =
                self.shared.jobs.push(Job { lane: lane_idx, seq, db: db.to_string(), id, data });
            store_max(&self.shared.stats.queue_depth_max, depth as u64);
        }
    }

    /// Blocks until every submitted record has committed; returns the
    /// first commit error recorded since the previous drain, if any.
    pub fn drain(&mut self) -> Result<(), EngineError> {
        let mut g = lock_or_recover(&self.shared.inflight);
        while g.count > 0 {
            g = self.shared.inflight_cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        match g.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Updates a record, draining the pipeline first so the update
    /// serializes after every submitted insert.
    pub fn update(&mut self, id: RecordId, data: &[u8]) -> Result<(), EngineError> {
        self.drain()?;
        self.engine.update(id, data)
    }

    /// Deletes a record, draining the pipeline first.
    pub fn delete(&mut self, id: RecordId) -> Result<(), EngineError> {
        self.drain()?;
        self.engine.delete(id)
    }

    /// Reads a record, draining the pipeline first so every submitted
    /// insert is visible.
    pub fn read(&mut self, id: RecordId) -> Result<Bytes, EngineError> {
        self.drain()?;
        self.engine.read(id)
    }

    /// The underlying sharded engine. Callers should
    /// [`drain`](Self::drain) first if they need to observe every
    /// submitted insert.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// A point-in-time snapshot of the pipeline's own gauges.
    pub fn snapshot(&self) -> IngestSnapshot {
        let s = &self.shared.stats;
        let (commit_ns, stall_ns) = {
            let h = lock_or_recover(&s.hists);
            (h.0.clone(), h.1.clone())
        };
        IngestSnapshot {
            workers: self.config.workers as u64,
            shards: self.engine.shard_count() as u64,
            submitted: s.submitted.load(Ordering::Relaxed),
            committed: s.committed.load(Ordering::Relaxed),
            pass_through: s.pass_through.load(Ordering::Relaxed),
            degraded_total: s.degraded_total.load(Ordering::Relaxed),
            backpressure_stalls: s.backpressure_stalls.load(Ordering::Relaxed),
            queue_depth_max: s.queue_depth_max.load(Ordering::Relaxed),
            reorder_occupancy_max: s.reorder_occupancy_max.load(Ordering::Relaxed),
            worker_busy_ns: s.worker_busy_ns.load(Ordering::Relaxed),
            wall_ns: s.started.elapsed().as_nanos() as u64,
            commit_ns,
            stall_ns,
        }
    }

    /// Drains, stops every thread, and returns the engine plus the final
    /// pipeline report. The first commit error (if any) is returned after
    /// shutdown completes.
    pub fn finish(mut self) -> Result<(ShardedEngine, IngestSnapshot), EngineError> {
        let drained = self.drain();
        let report = self.snapshot();
        self.shutdown();
        let engine = self.engine.clone();
        drained.map(|()| (engine, report))
    }

    fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.shared.jobs.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for lane in &self.shared.lanes {
            lane.close();
        }
        for c in self.committers.drain(..) {
            let _ = c.join();
        }
    }
}

impl Drop for ParallelIngest {
    fn drop(&mut self) {
        // Best-effort: wait for in-flight commits so dropping the pipeline
        // never abandons accepted records, then stop the threads.
        let _ = self.drain();
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, preparer: &InsertPreparer) {
    while let Some(job) = shared.jobs.pop() {
        let t0 = Instant::now();
        let prepared = preparer.prepare(&job.data);
        shared.stats.worker_busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let occ = shared.lanes[job.lane].deliver(
            job.seq,
            Ready { db: job.db, id: job.id, data: job.data, prepared: Some(prepared) },
        );
        store_max(&shared.stats.reorder_occupancy_max, occ as u64);
    }
}

fn committer_loop(shared: &Shared, engine: &ShardedEngine, lane_idx: usize) {
    let lane = &shared.lanes[lane_idx];
    while let Some(r) = lane.take_next() {
        let t0 = Instant::now();
        let result = engine.insert_prepared(&r.db, r.id, &r.data, r.prepared);
        let commit_ns = t0.elapsed().as_nanos() as u64;
        {
            let mut h = lock_or_recover(&shared.stats.hists);
            h.0.record(commit_ns);
        }
        match result {
            Ok(out) => {
                shared.stats.committed.fetch_add(1, Ordering::Relaxed);
                // Track the overload gate: BypassedOverload means the gate
                // is raised; any outcome that passed the gate means it is
                // down. Governor/config bypasses say nothing about it.
                let new_pressure = match out {
                    InsertOutcome::BypassedOverload => {
                        shared.stats.degraded_total.fetch_add(1, Ordering::Relaxed);
                        Some(true)
                    }
                    InsertOutcome::Deduped { .. }
                    | InsertOutcome::Unique
                    | InsertOutcome::BypassedSize => Some(false),
                    InsertOutcome::BypassedGovernor | InsertOutcome::Disabled => None,
                };
                if let Some(on) = new_pressure {
                    let was = lane.pressure.swap(on, Ordering::Relaxed);
                    if was != on {
                        lane.events.record(Severity::Warn, EventKind::IngestDegraded { on });
                    }
                }
            }
            Err(e) => shared.record_error(e),
        }
        shared.commit_done();
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// A snapshot of the pipeline's own gauges, exported under `ingest.*`
/// registry keys alongside the engine metrics.
#[derive(Debug, Clone)]
pub struct IngestSnapshot {
    /// Configured worker count.
    pub workers: u64,
    /// Shard (committer) count.
    pub shards: u64,
    /// Records accepted by `submit`.
    pub submitted: u64,
    /// Records committed (successfully inserted).
    pub committed: u64,
    /// Records that skipped the worker stage. This is a *routing* gauge:
    /// it includes lanes that are permanently pass-through because dedup
    /// is disabled in configuration, not just overload shedding.
    pub pass_through: u64,
    /// Cumulative count of commits the engine shed under replication
    /// overload (`BypassedOverload`) — each one enters the out-of-line
    /// re-dedup backlog. Stays zero when pass-through is merely
    /// config-disabled dedup.
    pub degraded_total: u64,
    /// Times `submit` blocked on the in-flight cap.
    pub backpressure_stalls: u64,
    /// Worst worker-queue depth observed.
    pub queue_depth_max: u64,
    /// Worst reorder-buffer occupancy observed (any lane).
    pub reorder_occupancy_max: u64,
    /// Total nanoseconds workers spent preparing records.
    pub worker_busy_ns: u64,
    /// Wall nanoseconds since the pipeline started.
    pub wall_ns: u64,
    /// Commit-path service time per record, nanoseconds.
    pub commit_ns: LogHistogram,
    /// Backpressure stall time per blocked submit, nanoseconds.
    pub stall_ns: LogHistogram,
}

impl IngestSnapshot {
    /// Fraction of total worker capacity spent doing useful preparation
    /// work, in `[0, 1]`.
    pub fn worker_utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.workers == 0 {
            return 0.0;
        }
        (self.worker_busy_ns as f64 / (self.wall_ns as f64 * self.workers as f64)).min(1.0)
    }

    /// Registers every gauge under `ingest.*` keys.
    pub fn extend_registry(&self, r: &mut Registry) {
        r.set_u64("ingest.workers", self.workers);
        r.set_u64("ingest.shards", self.shards);
        r.set_u64("ingest.submitted", self.submitted);
        r.set_u64("ingest.committed", self.committed);
        r.set_u64("ingest.pass_through", self.pass_through);
        r.set_u64("ingest.degraded_total", self.degraded_total);
        r.set_u64("ingest.backpressure_stalls", self.backpressure_stalls);
        r.set_u64("ingest.queue_depth_max", self.queue_depth_max);
        r.set_u64("ingest.reorder_occupancy_max", self.reorder_occupancy_max);
        r.set_f64("ingest.worker_utilization", self.worker_utilization());
        r.set_histogram("ingest.commit", &self.commit_ns);
        r.set_histogram("ingest.stall", &self.stall_ns);
    }

    /// Renders the snapshot as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut r = Registry::new();
        self.extend_registry(&mut r);
        r.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DedupEngine;
    use dbdedup_util::dist::SplitMix64;

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.min_benefit_bytes = 16;
        c
    }

    fn versioned_docs(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(seed);
        let mut doc: Vec<u8> = (0..9_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
        let mut out = vec![doc.clone()];
        for _ in 1..n {
            for _ in 0..4 {
                let at = rng.next_index(doc.len() - 60);
                for b in doc.iter_mut().skip(at).take(48) {
                    *b = (rng.next_u64() % 26 + 97) as u8;
                }
            }
            out.push(doc.clone());
        }
        out
    }

    #[test]
    fn prepared_insert_matches_inline_insert() {
        let docs = versioned_docs(6, 11);
        let mut inline = DedupEngine::open_temp(cfg()).unwrap();
        let mut prepared = DedupEngine::open_temp(cfg()).unwrap();
        let prep = prepared.preparer();
        for (i, d) in docs.iter().enumerate() {
            let a = inline.insert("db", RecordId(i as u64), d).unwrap();
            let p = prep.prepare(d);
            let b = prepared.insert_prepared("db", RecordId(i as u64), d, Some(p)).unwrap();
            assert_eq!(a, b, "outcome diverged at record {i}");
        }
        inline.flush_all_writebacks().unwrap();
        prepared.flush_all_writebacks().unwrap();
        assert_eq!(
            inline.store().segment_bytes().unwrap(),
            prepared.store().segment_bytes().unwrap(),
            "segments diverged"
        );
    }

    #[test]
    fn pipeline_commits_everything_in_order() {
        let sharded = ShardedEngine::open_temp(cfg(), 2).unwrap();
        let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(3));
        let docs = versioned_docs(20, 12);
        for (i, d) in docs.iter().enumerate() {
            ingest.submit(if i % 2 == 0 { "alpha" } else { "beta" }, RecordId(i as u64), d);
        }
        ingest.drain().unwrap();
        let (engine, report) = ingest.finish().unwrap();
        assert_eq!(report.submitted, 20);
        assert_eq!(report.committed, 20);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&engine.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
        }
    }

    #[test]
    fn duplicate_id_error_surfaces_at_drain() {
        let sharded = ShardedEngine::open_temp(cfg(), 1).unwrap();
        let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(2));
        let doc = versioned_docs(1, 13).remove(0);
        ingest.submit("db", RecordId(7), &doc);
        ingest.submit("db", RecordId(7), &doc);
        let err = ingest.drain().expect_err("duplicate id must surface");
        assert!(matches!(err, EngineError::DuplicateId(RecordId(7))), "{err}");
        // The pipeline keeps working after an error.
        ingest.submit("db", RecordId(8), &doc);
        ingest.drain().unwrap();
    }

    #[test]
    fn backpressure_bounds_inflight() {
        let sharded = ShardedEngine::open_temp(cfg(), 1).unwrap();
        let mut cfg = IngestConfig::with_workers(2);
        cfg.max_inflight = 2;
        let mut ingest = ParallelIngest::new(sharded, cfg);
        let docs = versioned_docs(16, 14);
        for (i, d) in docs.iter().enumerate() {
            ingest.submit("db", RecordId(i as u64), d);
        }
        ingest.drain().unwrap();
        let snap = ingest.snapshot();
        assert!(snap.queue_depth_max <= 2, "queue depth {}", snap.queue_depth_max);
        assert!(snap.backpressure_stalls > 0, "tiny cap must stall submits");
        let (_, report) = ingest.finish().unwrap();
        assert_eq!(report.committed, 16);
    }

    #[test]
    fn overload_degrades_to_pass_through() {
        let sharded = ShardedEngine::open_temp(cfg(), 1).unwrap();
        sharded.set_replication_pressure(true);
        let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(2));
        let docs = versioned_docs(10, 15);
        for (i, d) in docs.iter().enumerate() {
            ingest.submit("db", RecordId(i as u64), d);
            // Serialize commits so the degradation flag set by the first
            // commit governs later submits deterministically.
            ingest.drain().unwrap();
        }
        let snap = ingest.snapshot();
        assert!(
            snap.pass_through >= 8,
            "overloaded lane must skip the worker stage, pass_through={}",
            snap.pass_through
        );
        // Every commit was genuinely shed under overload, so the two
        // gauges tell the same story here — unlike config-disabled dedup.
        assert_eq!(snap.degraded_total, 10);
        let (engine, _) = ingest.finish().unwrap();
        assert_eq!(engine.metrics().bypassed_overload, 10);
        assert_eq!(engine.metrics().maint_degraded_backlog, 10);
    }

    #[test]
    fn disabled_dedup_pass_through_is_not_degradation() {
        let mut config = cfg();
        config.dedup_enabled = false;
        let sharded = ShardedEngine::open_temp(config, 1).unwrap();
        let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(2));
        let docs = versioned_docs(6, 18);
        for (i, d) in docs.iter().enumerate() {
            ingest.submit("db", RecordId(i as u64), d);
        }
        ingest.drain().unwrap();
        let snap = ingest.snapshot();
        assert_eq!(snap.pass_through, 6, "disabled dedup runs permanently pass-through");
        assert_eq!(snap.degraded_total, 0, "nothing was shed under overload");
        let (engine, _) = ingest.finish().unwrap();
        assert_eq!(engine.metrics().maint_degraded_backlog, 0);
    }

    #[test]
    fn snapshot_exports_ingest_registry_keys() {
        let sharded = ShardedEngine::open_temp(cfg(), 1).unwrap();
        let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(1));
        ingest.submit("db", RecordId(1), &versioned_docs(1, 16)[0]);
        ingest.drain().unwrap();
        let j = ingest.snapshot().to_json();
        for needle in [
            "\"ingest.workers\":1",
            "\"ingest.submitted\":1",
            "\"ingest.committed\":1",
            "\"ingest.pass_through\":0",
            "\"ingest.degraded_total\":0",
            "\"ingest.queue_depth_max\":",
            "\"ingest.reorder_occupancy_max\":",
            "\"ingest.worker_utilization\":",
            "\"ingest.commit.p99\":",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
    }

    #[test]
    fn preparer_matches_engine_extraction_config() {
        let config = cfg();
        let from_cfg = InsertPreparer::from_config(&config);
        let engine = DedupEngine::open_temp(config).unwrap();
        let from_engine = engine.preparer();
        let data = versioned_docs(1, 17).remove(0);
        let (a, b) = (from_cfg.prepare(&data), from_engine.prepare(&data));
        assert_eq!(a.sketch, b.sketch);
        assert_eq!(a.anchors, b.anchors);
        assert!(a.anchors.len() > data.len() / 256, "a 9 KB record has anchors to carry");
    }
}
