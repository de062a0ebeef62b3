//! Asynchronous replication: the secondary applies batches on its own
//! thread, fed through a bounded crossbeam channel — the push model of the
//! paper's Fig. 8 (primary never blocks on the replica except for
//! back-pressure).
//!
//! Shipping never silently drops an acknowledged batch: [`ship`] is
//! non-blocking and reports a full queue as [`ShipOutcome::Backpressured`]
//! with the entries untouched on the caller's side, and
//! [`ship_with_deadline`] turns that into bounded blocking via jittered
//! exponential backoff. The only way a frame disappears is an injected
//! transport fault ([`ShipOutcome::LostInTransit`]), which is counted,
//! recorded in the structured [`EventLog`], and repaired by oplog-cursor
//! catch-up or anti-entropy.
//!
//! [`ship`]: AsyncReplicator::ship
//! [`ship_with_deadline`]: AsyncReplicator::ship_with_deadline

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use dbdedup_core::{DedupEngine, EngineError};
use dbdedup_obs::{EventKind, EventLog, Severity};
use dbdedup_storage::oplog::{decode_batch, encode_batch, OplogEntry};
use dbdedup_storage::store::StoreError;
use dbdedup_storage::{FaultInjector, WriteOutcome};
use dbdedup_util::time::system_clock;
use dbdedup_util::{Backoff, BackoffConfig, Clock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many times one oplog entry is attempted before its error sticks.
const MAX_APPLY_ATTEMPTS: u32 = 4;

/// What happened to a shipped batch. Every caller must look: ignoring a
/// non-`Enqueued` outcome is exactly the silent-loss footgun this type
/// exists to remove.
#[must_use = "a non-Enqueued outcome means the batch was NOT delivered; handle or retry it"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipOutcome {
    /// The frame was handed to the apply queue.
    Enqueued,
    /// The bounded queue is full. Nothing was sent and nothing was lost —
    /// the entries are still the caller's; retry, block with a deadline,
    /// or let the replica catch up from its oplog cursor.
    Backpressured,
    /// The apply thread is gone; no send can ever succeed again.
    Disconnected,
    /// An injected transport fault swallowed the frame in flight. The
    /// replica diverges until cursor catch-up or anti-entropy repairs it.
    LostInTransit,
}

impl ShipOutcome {
    /// Whether the batch actually reached the apply queue.
    pub fn is_enqueued(self) -> bool {
        self == ShipOutcome::Enqueued
    }
}

/// Shared transport counters.
#[derive(Debug, Default)]
struct Counters {
    bytes: AtomicU64,
    batches: AtomicU64,
    entries: AtomicU64,
    apply_errors: AtomicU64,
    apply_retries: AtomicU64,
    dropped_batches: AtomicU64,
    backpressured: AtomicU64,
}

/// Whether an apply error is worth retrying: transient I/O conditions can
/// clear (the next attempt hits the disk again); semantic errors
/// (corruption, duplicate ids, missing bases) never do.
fn is_transient(err: &EngineError) -> bool {
    matches!(err, EngineError::Store(StoreError::Io(_)) | EngineError::Oplog(_))
}

/// Handle to a secondary applying oplog batches asynchronously.
pub struct AsyncReplicator {
    tx: Option<Sender<Vec<u8>>>,
    handle: Option<JoinHandle<DedupEngine>>,
    counters: Arc<Counters>,
    last_error: Arc<Mutex<Option<String>>>,
    transport_faults: Option<Arc<FaultInjector>>,
    clock: Arc<dyn Clock>,
    events: Arc<EventLog>,
}

impl AsyncReplicator {
    /// Spawns the apply thread around `secondary` with the system clock.
    /// `queue_depth` bounds in-flight batches (back-pressure).
    pub fn spawn(secondary: DedupEngine, queue_depth: usize) -> Self {
        Self::spawn_with_clock(secondary, queue_depth, system_clock())
    }

    /// Spawns the apply thread with an explicit clock: retry backoff on
    /// the apply side sleeps on it, so a simulation can hand both sides a
    /// shared virtual clock and replay the schedule deterministically.
    pub fn spawn_with_clock(
        mut secondary: DedupEngine,
        queue_depth: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let (tx, rx): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = bounded(queue_depth.max(1));
        let counters = Arc::new(Counters::default());
        let last_error = Arc::new(Mutex::new(None));
        let c2 = Arc::clone(&counters);
        let e2 = Arc::clone(&last_error);
        let apply_clock = Arc::clone(&clock);
        let handle = std::thread::spawn(move || {
            // Jitter seeds derive from a per-thread counter so a replayed
            // schedule produces the same backoff sequence.
            let mut seed = 0x5eed_u64;
            for frame in rx.iter() {
                match decode_batch(&frame) {
                    Ok(entries) => {
                        c2.entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
                        for entry in &entries {
                            seed = seed.wrapping_add(1);
                            apply_with_retry(&mut secondary, entry, &c2, &e2, &apply_clock, seed);
                        }
                    }
                    Err(err) => {
                        c2.apply_errors.fetch_add(1, Ordering::Relaxed);
                        *e2.lock() = Some(err.to_string());
                    }
                }
            }
            secondary
        });
        let events = Arc::new(EventLog::with_clock(64, Arc::clone(&clock)));
        Self {
            tx: Some(tx),
            handle: Some(handle),
            counters,
            last_error,
            transport_faults: None,
            clock,
            events,
        }
    }

    /// Routes transport incidents into a shared event log (typically the
    /// primary engine's, so one JSONL export covers the whole pipeline).
    pub fn with_event_log(mut self, events: Arc<EventLog>) -> Self {
        self.events = events;
        self
    }

    /// The event log transport incidents are recorded into.
    pub fn event_log(&self) -> Arc<EventLog> {
        Arc::clone(&self.events)
    }

    /// Injects faults into the shipping transport: each outgoing frame is
    /// one "write" in the plan's op numbering (including re-attempts after
    /// backpressure), so frames can be torn, bit-flipped, or dropped in
    /// flight — a dropped batch is what a crashed network link produces,
    /// and cursor catch-up or the resync pass repairs the divergence.
    pub fn with_transport_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.transport_faults = Some(faults);
        self
    }

    /// Ships one batch without blocking. A full queue comes back as
    /// [`ShipOutcome::Backpressured`] with nothing consumed and nothing
    /// lost; only an injected transport fault can swallow the frame.
    pub fn ship(&self, batch: &[OplogEntry]) -> ShipOutcome {
        if batch.is_empty() {
            return ShipOutcome::Enqueued;
        }
        let mut frame = encode_batch(batch);
        if let Some(inj) = &self.transport_faults {
            match inj.on_write(&mut frame) {
                Ok(WriteOutcome::Proceed) => {}
                Ok(WriteOutcome::Truncated(n)) => frame.truncate(n),
                Ok(WriteOutcome::Dropped) | Err(_) => {
                    self.note_loss();
                    return ShipOutcome::LostInTransit;
                }
            }
        }
        let Some(tx) = &self.tx else {
            return ShipOutcome::Disconnected;
        };
        let frame_len = frame.len() as u64;
        match tx.try_send(frame) {
            Ok(()) => {
                // Counted only on delivery: backpressured attempts cost no
                // wire bytes.
                self.counters.bytes.fetch_add(frame_len, Ordering::Relaxed);
                self.counters.batches.fetch_add(1, Ordering::Relaxed);
                ShipOutcome::Enqueued
            }
            Err(TrySendError::Full(_)) => {
                self.counters.backpressured.fetch_add(1, Ordering::Relaxed);
                ShipOutcome::Backpressured
            }
            // The apply thread died; the error surfaces via
            // `apply_errors` / join.
            Err(TrySendError::Disconnected(_)) => ShipOutcome::Disconnected,
        }
    }

    /// Ships one batch, absorbing backpressure with jittered exponential
    /// backoff for up to `deadline`. Returns the final outcome — still
    /// [`ShipOutcome::Backpressured`] if the queue never drained in time,
    /// at which point the caller falls back to cursor catch-up.
    pub fn ship_with_deadline(
        &self,
        batch: &[OplogEntry],
        deadline: Duration,
        seed: u64,
    ) -> ShipOutcome {
        let cfg = BackoffConfig {
            max_attempts: u32::MAX,
            deadline: Some(deadline),
            ..BackoffConfig::default()
        };
        let mut backoff = Backoff::new(cfg, Arc::clone(&self.clock), seed);
        loop {
            match self.ship(batch) {
                ShipOutcome::Backpressured => {
                    if !backoff.sleep() {
                        return ShipOutcome::Backpressured;
                    }
                }
                outcome => return outcome,
            }
        }
    }

    fn note_loss(&self) {
        // Saturating on purpose: a wrapped counter would read as "almost
        // no loss" exactly when loss was catastrophic.
        let total = self
            .counters
            .dropped_batches
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(1)))
            .map_or(u64::MAX, |prev| prev.saturating_add(1));
        // Every loss is a queryable event, not a one-shot stderr line: the
        // payload carries the running total so even ring-dropped history
        // stays reconstructible from the latest retained event.
        self.events.record(Severity::Warn, EventKind::DroppedBatch { total });
    }

    /// Total frame bytes shipped.
    pub fn bytes_shipped(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// Total entries shipped.
    pub fn entries_shipped(&self) -> u64 {
        self.counters.entries.load(Ordering::Relaxed)
    }

    /// Apply-side errors seen so far (after retries were exhausted).
    pub fn apply_errors(&self) -> u64 {
        self.counters.apply_errors.load(Ordering::Relaxed)
    }

    /// Transient apply failures that were retried.
    pub fn apply_retries(&self) -> u64 {
        self.counters.apply_retries.load(Ordering::Relaxed)
    }

    /// Batches lost to injected transport faults.
    pub fn dropped_batches(&self) -> u64 {
        self.counters.dropped_batches.load(Ordering::Relaxed)
    }

    /// Ship attempts refused because the apply queue was full.
    pub fn backpressure_events(&self) -> u64 {
        self.counters.backpressured.load(Ordering::Relaxed)
    }

    /// Most recent apply-side error message, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Closes the channel, waits for the apply thread to drain, and
    /// returns the secondary engine for inspection. If the apply thread
    /// panicked, the panic is contained and surfaced as
    /// [`EngineError::ReplicaPanicked`] instead of propagating.
    pub fn join(mut self) -> Result<DedupEngine, EngineError> {
        self.tx.take(); // drop sender → apply loop finishes
        self.handle.take().expect("join called once").join().map_err(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            EngineError::ReplicaPanicked(msg)
        })
    }
}

/// Applies one entry with bounded jittered-backoff retry for transient
/// errors (shared [`Backoff`] helper, driven by the replicator's clock).
fn apply_with_retry(
    secondary: &mut DedupEngine,
    entry: &OplogEntry,
    counters: &Counters,
    last_error: &Mutex<Option<String>>,
    clock: &Arc<dyn Clock>,
    seed: u64,
) {
    let cfg = BackoffConfig { max_attempts: MAX_APPLY_ATTEMPTS - 1, ..BackoffConfig::default() };
    let mut backoff = Backoff::new(cfg, Arc::clone(clock), seed);
    loop {
        match secondary.apply_oplog_entry(entry) {
            Ok(()) => return,
            Err(err) if is_transient(&err) => {
                if backoff.sleep() {
                    counters.apply_retries.fetch_add(1, Ordering::Relaxed);
                    secondary.record_apply_retry();
                } else {
                    counters.apply_errors.fetch_add(1, Ordering::Relaxed);
                    *last_error.lock() = Some(err.to_string());
                    return;
                }
            }
            Err(err) => {
                counters.apply_errors.fetch_add(1, Ordering::Relaxed);
                *last_error.lock() = Some(err.to_string());
                return;
            }
        }
    }
}

impl Drop for AsyncReplicator {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_core::EngineConfig;
    use dbdedup_workloads::{Op, Wikipedia};

    /// Generous deadline for tests that want the old blocking semantics.
    const TEST_DEADLINE: Duration = Duration::from_secs(10);

    fn engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::open_temp(cfg).unwrap()
    }

    #[test]
    fn async_pipeline_converges() {
        let mut primary = engine();
        let repl = AsyncReplicator::spawn(engine(), 8);
        let mut ids = Vec::new();
        for op in Wikipedia::insert_only(40, 5) {
            if let Op::Insert { id, data } = op {
                primary.insert("wikipedia", id, &data).unwrap();
                ids.push(id);
                // Ship as we go, in small batches.
                let batch = primary.take_oplog_batch(64 << 10);
                assert!(repl.ship_with_deadline(&batch, TEST_DEADLINE, id.0).is_enqueued());
            }
        }
        // Drain the tail.
        let batch = primary.take_oplog_batch(usize::MAX);
        assert!(repl.ship_with_deadline(&batch, TEST_DEADLINE, 0).is_enqueued());
        assert_eq!(repl.apply_errors(), 0, "apply error: {:?}", repl.last_error());
        let mut secondary = repl.join().unwrap();
        primary.flush_all_writebacks().unwrap();
        secondary.flush_all_writebacks().unwrap();
        for id in ids {
            assert_eq!(
                &primary.read(id).unwrap()[..],
                &secondary.read(id).unwrap()[..],
                "record {id}"
            );
        }
    }

    #[test]
    fn bytes_and_entries_counted() {
        let mut primary = engine();
        let repl = AsyncReplicator::spawn(engine(), 4);
        for i in 0..5u64 {
            primary.insert("db", dbdedup_util::ids::RecordId(i), &vec![i as u8; 2_000]).unwrap();
        }
        let batch = primary.take_oplog_batch(usize::MAX);
        assert_eq!(repl.ship(&batch), ShipOutcome::Enqueued);
        assert!(repl.bytes_shipped() > 0);
        let secondary = repl.join().unwrap();
        assert_eq!(secondary.store().len(), 5);
    }

    #[test]
    fn empty_batches_ignored() {
        let repl = AsyncReplicator::spawn(engine(), 1);
        assert_eq!(repl.ship(&[]), ShipOutcome::Enqueued);
        assert_eq!(repl.bytes_shipped(), 0);
        let _ = repl.join().unwrap();
    }

    /// A depth-1 replicator whose apply thread blocks until `gate` fires,
    /// so tests can hold the queue full deterministically.
    fn gated_replicator(clock: Arc<dyn Clock>) -> (AsyncReplicator, std::sync::mpsc::Sender<()>) {
        let (tx, rx) = bounded::<Vec<u8>>(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let counters = Arc::new(Counters::default());
        let last_error = Arc::new(Mutex::new(None));
        let c2 = Arc::clone(&counters);
        let e2 = Arc::clone(&last_error);
        let apply_clock = Arc::clone(&clock);
        let handle = std::thread::spawn(move || {
            let mut secondary = engine();
            let _ = gate_rx.recv();
            let mut seed = 0u64;
            for frame in rx.iter() {
                let entries = decode_batch(&frame).expect("test frames are valid");
                c2.entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
                for entry in &entries {
                    seed += 1;
                    apply_with_retry(&mut secondary, entry, &c2, &e2, &apply_clock, seed);
                }
            }
            secondary
        });
        let events = Arc::new(EventLog::with_clock(64, Arc::clone(&clock)));
        let repl = AsyncReplicator {
            tx: Some(tx),
            handle: Some(handle),
            counters,
            last_error,
            transport_faults: None,
            clock,
            events,
        };
        (repl, gate_tx)
    }

    #[test]
    fn backpressure_never_loses_an_acked_batch() {
        // Regression for the silent-loss footgun: a full queue must
        // surface as Backpressured with the batch still in the caller's
        // hands — never a quiet drop.
        let mut primary = engine();
        let mut batches = Vec::new();
        for op in Wikipedia::insert_only(6, 6) {
            if let Op::Insert { id, data } = op {
                primary.insert("wikipedia", id, &data).unwrap();
                batches.push(primary.take_oplog_batch(usize::MAX));
            }
        }
        let (repl, gate) = gated_replicator(system_clock());
        // Depth-1 queue, gated apply thread: the first ship lands, the
        // second is refused — deterministically.
        assert_eq!(repl.ship(&batches[0]), ShipOutcome::Enqueued);
        assert_eq!(repl.ship(&batches[1]), ShipOutcome::Backpressured);
        assert!(repl.backpressure_events() >= 1);
        gate.send(()).unwrap();
        // Nothing was lost: re-shipping the refused batch (and the rest)
        // delivers every entry the primary acked.
        for batch in &batches[1..] {
            assert!(repl.ship_with_deadline(batch, TEST_DEADLINE, 9).is_enqueued());
        }
        assert_eq!(repl.dropped_batches(), 0, "backpressure must never drop");
        assert_eq!(repl.apply_errors(), 0, "{:?}", repl.last_error());
        let secondary = repl.join().unwrap();
        assert_eq!(secondary.store().len(), 6);
    }

    #[test]
    fn ship_with_deadline_expires_backpressured() {
        use dbdedup_util::VirtualClock;
        // Queue full and apply gated: with a virtual clock the backoff
        // burns through the deadline without wall-clock waiting and the
        // caller gets a typed Backpressured back instead of blocking
        // forever.
        let mut primary = engine();
        for i in 0..2u64 {
            primary.insert("db", dbdedup_util::ids::RecordId(i), &vec![i as u8; 4_000]).unwrap();
        }
        let clock = VirtualClock::shared();
        let (repl, gate) = gated_replicator(clock.clone());
        let b0 = primary.take_oplog_batch(2_000);
        let b1 = primary.take_oplog_batch(usize::MAX);
        assert_eq!(repl.ship(&b0), ShipOutcome::Enqueued);
        let deadline = Duration::from_millis(50);
        assert_eq!(repl.ship_with_deadline(&b1, deadline, 7), ShipOutcome::Backpressured);
        assert!(clock.now() >= deadline, "the backoff waited out the whole deadline");
        // The refused batch is still the caller's: once the gate opens it
        // delivers in full. (Spin on the real scheduler here — the virtual
        // clock would burn any deadline before the apply thread wakes.)
        gate.send(()).unwrap();
        let mut outcome = repl.ship(&b1);
        while outcome == ShipOutcome::Backpressured {
            std::thread::yield_now();
            outcome = repl.ship(&b1);
        }
        assert!(outcome.is_enqueued());
        let secondary = repl.join().unwrap();
        assert_eq!(secondary.store().len(), 2);
    }

    #[test]
    fn transient_store_faults_are_retried_to_convergence() {
        use dbdedup_storage::store::{RecordStore, StoreConfig};
        use dbdedup_storage::{FaultKind, FaultPlan};

        // The secondary's disk throws transient I/O errors on a few writes;
        // every one must be absorbed by retry, not surface as an apply
        // error. (The injector advances its op counter per attempt, so the
        // retry lands on a clean op.)
        let plan = FaultPlan::new().fault_at(2, FaultKind::IoError).fault_at(5, FaultKind::IoError);
        let inj = Arc::new(FaultInjector::new(plan));
        let store_cfg = StoreConfig { fault: Some(Arc::clone(&inj)), ..Default::default() };
        let store = RecordStore::open_temp(store_cfg).unwrap();
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        let secondary = DedupEngine::new(store, cfg).unwrap();

        let mut primary = engine();
        let repl = AsyncReplicator::spawn(secondary, 8);
        let mut ids = Vec::new();
        for op in Wikipedia::insert_only(12, 7) {
            if let Op::Insert { id, data } = op {
                primary.insert("wikipedia", id, &data).unwrap();
                ids.push(id);
            }
        }
        assert!(repl
            .ship_with_deadline(&primary.take_oplog_batch(usize::MAX), TEST_DEADLINE, 1)
            .is_enqueued());
        // Counters race with the apply thread; keep a handle and read them
        // after join() has drained it.
        let counters = Arc::clone(&repl.counters);
        let mut secondary = repl.join().unwrap();
        let retries = counters.apply_retries.load(Ordering::Relaxed);
        assert_eq!(counters.apply_errors.load(Ordering::Relaxed), 0);
        assert!(retries > 0, "injected I/O errors must trigger retries");
        assert!(inj.faults_injected() > 0);
        assert_eq!(secondary.metrics().apply_retries, retries);
        for id in ids {
            assert_eq!(&primary.read(id).unwrap()[..], &secondary.read(id).unwrap()[..]);
        }
    }

    #[test]
    fn transport_drops_are_counted_not_fatal() {
        use dbdedup_storage::{FaultKind, FaultPlan};

        // Frame 1 is torn to nothing mid-flight (decode error on the
        // secondary), and the crash drops everything after — the primary
        // keeps running either way, and every loss is typed and counted.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new().fault_at(1, FaultKind::ShortWrite { keep: 0 }),
        ));
        let mut primary = engine();
        let repl = AsyncReplicator::spawn(engine(), 4).with_transport_faults(inj);
        let mut lost = 0u64;
        for op in Wikipedia::insert_only(9, 8) {
            if let Op::Insert { id, data } = op {
                primary.insert("wikipedia", id, &data).unwrap();
                match repl.ship_with_deadline(
                    &primary.take_oplog_batch(usize::MAX),
                    TEST_DEADLINE,
                    id.0,
                ) {
                    ShipOutcome::LostInTransit => lost += 1,
                    ShipOutcome::Enqueued => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // `join` is the barrier: the apply thread has drained the queue —
        // torn frame included — once it returns. The counters and the
        // event log are shared with that thread, so they outlive it.
        let counters = Arc::clone(&repl.counters);
        let events = repl.event_log();
        let secondary = repl.join().unwrap();
        let dropped = counters.dropped_batches.load(Ordering::Relaxed);
        assert!(
            counters.apply_errors.load(Ordering::Relaxed) > 0,
            "the torn frame must fail to decode"
        );
        assert!(dropped > 0, "post-crash frames are dropped");
        assert_eq!(dropped, lost, "every loss reported to the caller");
        // Losses are queryable incidents, not a one-shot stderr line: one
        // dropped_batch event per lost frame, the last carrying the total.
        let drops = events.of_kind("dropped_batch");
        assert_eq!(drops.len() as u64, lost);
        assert!(drops.iter().all(|e| e.severity == Severity::Warn));
        assert_eq!(
            drops.last().map(|e| e.kind.clone()),
            Some(EventKind::DroppedBatch { total: lost })
        );
        assert!(
            secondary.store().len() < primary.store().len(),
            "lost batches must leave the secondary behind (catch-up/resync's job)"
        );
    }

    #[test]
    fn join_surfaces_apply_thread_panic_as_error() {
        // Construct a replicator whose apply thread dies; join() must
        // return a typed error, never propagate the panic.
        let repl = AsyncReplicator {
            tx: None,
            handle: Some(std::thread::spawn(|| -> DedupEngine {
                panic!("synthetic apply-thread death")
            })),
            counters: Arc::new(Counters::default()),
            last_error: Arc::new(Mutex::new(None)),
            transport_faults: None,
            clock: system_clock(),
            events: Arc::new(EventLog::new(4)),
        };
        match repl.join() {
            Err(EngineError::ReplicaPanicked(msg)) => {
                assert!(msg.contains("synthetic"), "payload preserved: {msg}")
            }
            other => panic!("expected ReplicaPanicked, got {other:?}"),
        }
    }
}
