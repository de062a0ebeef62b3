//! Deterministic simulation harness for the replication stack.
//!
//! One seeded run drives a primary and N replicas through a scripted-
//! randomized schedule of the failures the paper's deployment model has
//! to survive: network partitions and heals, replica crash-restarts that
//! lose in-flight frames, transient transport faults that swallow a fetch,
//! slow-apply replicas, and bursty overload against bounded apply queues.
//! Everything runs single-threaded on a [`VirtualClock`] with a single
//! [`SplitMix64`] stream, so a run is a pure function of its
//! [`SimConfig`]: the same seed replays the same event order, timestamps
//! and trace hash, and a failing seed is a self-contained counterexample.
//!
//! The harness asserts the system's two core robustness invariants at the
//! end of every run, after healing and draining:
//!
//! 1. **Convergence** — every replica's live record set and per-record
//!    logical content checksums equal the primary's, byte-identical on
//!    read, with no broken decode chains left anywhere.
//! 2. **Losslessness** — a final [`anti_entropy_with_clock`] pass finds
//!    *nothing* to repair: cursor catch-up alone (plus, when the retention
//!    window slid too far, the counted full-resync fallback) re-converged
//!    every replica. No acknowledged write may ever need silent re-repair.
//!
//! The simulator drives a [`ReplicaSet`] — the replication link the rest
//! of the system runs — one step at a time, and owns only the schedule:
//! faults, workload, slow spells, the overload gate, maintenance, and the
//! model and convergence checks. Replicas pull from the primary's retained
//! oplog by LSN; a crash drops the volatile in-flight queue and rewinds the
//! fetch cursor to the applied one, and a full queue refuses the fetch
//! (backpressure) rather than dropping — which is what makes the
//! losslessness invariant hold by construction rather than by luck.
//!
//! ```no_run
//! use dbdedup_repl::sim::{SimConfig, Simulation};
//! let report = Simulation::new(SimConfig { seed: 42, ..Default::default() })
//!     .unwrap()
//!     .run()
//!     .unwrap_or_else(|e| panic!("counterexample: {e}"));
//! assert!(report.catchup_batches > 0);
//! ```

use crate::resync::anti_entropy_with_clock;
use crate::set::{Fetch, ReplicaSet};
use dbdedup_core::{DedupEngine, EngineConfig, EngineError};
use dbdedup_maint::{MaintConfig, Maintainer};
use dbdedup_obs::{EventKind, FlightConfig, FlightRecorder, Severity};
use dbdedup_util::dist::SplitMix64;
use dbdedup_util::ids::RecordId;
use dbdedup_util::time::{Clock, VirtualClock};
use std::sync::Arc;
use std::time::Duration;

/// Everything a run depends on. A run is a pure function of this value.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the single PRNG stream driving workload, faults and jitter.
    pub seed: u64,
    /// Number of replicas pulling from the primary.
    pub replicas: usize,
    /// Scheduler ticks to run before the healing drain.
    pub ticks: u64,
    /// Records inserted per ordinary tick.
    pub inserts_per_tick: usize,
    /// Probability a tick is an overload burst.
    pub burst_prob: f64,
    /// Insert multiplier during a burst tick.
    pub burst_factor: usize,
    /// Probability an operation updates an existing record instead of
    /// inserting a new one.
    pub update_prob: f64,
    /// Probability an operation deletes an existing record.
    pub delete_prob: f64,
    /// Per-replica apply queue bound, in oplog entries. A full queue
    /// refuses the fetch (backpressure) instead of dropping.
    pub queue_depth: usize,
    /// Byte budget per fetch from the primary's retained oplog.
    pub fetch_budget: usize,
    /// Per-tick probability a healthy replica gets partitioned.
    pub partition_prob: f64,
    /// Per-tick probability a partitioned replica heals.
    pub heal_prob: f64,
    /// Per-tick probability a replica crash-restarts (loses its in-flight
    /// queue; durable state survives).
    pub crash_prob: f64,
    /// Per-fetch probability the transport swallows the frame (transient
    /// fault; the cursor does not advance, so nothing is lost).
    pub drop_prob: f64,
    /// Per-tick probability a replica turns slow (applies one entry per
    /// tick) for `slow_ticks`.
    pub slow_prob: f64,
    /// How long a slow spell lasts, in ticks.
    pub slow_ticks: u64,
    /// Lag (entries) past which a link is declared Lagging.
    pub lag_threshold: u64,
    /// Primary oplog retention budget; small values force the full-resync
    /// fallback when a partition outlives the window.
    pub oplog_retain_bytes: usize,
    /// Run one background-maintenance tick on the **primary only** every
    /// this many scheduler ticks (0 disables). Maintenance is local-only
    /// (no oplog traffic), so the convergence invariants must hold no
    /// matter how its schedule interleaves with faults — which is exactly
    /// what the simulator checks.
    pub maint_every: u64,
    /// Hot-tier memory budget for every engine's feature index (`None`
    /// keeps the index fully in memory). Small values force spills into
    /// cold on-disk runs, interleaving the tiered-index maintenance task
    /// with faults — the trace must stay byte-stable regardless.
    pub index_hot_budget_bytes: Option<usize>,
    /// Attach an anomaly flight recorder to the primary. Every event is
    /// mirrored into its ring, every maintenance tick records a registry
    /// snapshot, and anomaly triggers (overload onset, partitions) fire
    /// dumps — all stamped by the shared virtual clock, so the dump bytes
    /// are part of the determinism contract ([`SimReport::flight_jsonl`]).
    pub flight_recorder: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            replicas: 3,
            ticks: 60,
            inserts_per_tick: 2,
            burst_prob: 0.15,
            burst_factor: 8,
            update_prob: 0.25,
            delete_prob: 0.05,
            queue_depth: 8,
            fetch_budget: 16 << 10,
            partition_prob: 0.06,
            heal_prob: 0.25,
            crash_prob: 0.03,
            drop_prob: 0.04,
            slow_prob: 0.08,
            slow_ticks: 3,
            lag_threshold: 8,
            oplog_retain_bytes: 8 << 20,
            maint_every: 4,
            index_hot_budget_bytes: None,
            flight_recorder: false,
        }
    }
}

/// A failing run: the seed *is* the counterexample.
#[derive(Debug)]
pub struct SimError {
    /// The seed that produced the failure.
    pub seed: u64,
    /// Tick at which the invariant broke (`ticks` + drain for end-checks).
    pub tick: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation seed {} failed at tick {}: {} \
             (re-run with this seed to reproduce the exact schedule)",
            self.seed, self.tick, self.detail
        )
    }
}

impl std::error::Error for SimError {}

/// What a completed (passing) run observed. Two runs of the same config
/// are equal, trace hash included — that is the determinism contract.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The seed that was run.
    pub seed: u64,
    /// Scheduled ticks plus drain iterations actually executed.
    pub ticks: u64,
    /// Order-sensitive hash of every scheduled event.
    pub trace_hash: u64,
    /// Live records at the end of the run.
    pub live_records: usize,
    /// Partition events injected.
    pub partitions: u64,
    /// Heal events injected.
    pub heals: u64,
    /// Crash-restart events injected.
    pub crashes: u64,
    /// Frames swallowed by transient transport faults.
    pub transport_drops: u64,
    /// Fetches refused by a full apply queue.
    pub backpressure_events: u64,
    /// Batches delivered to a replica in the CatchingUp state.
    pub catchup_batches: u64,
    /// Anti-entropy fallbacks forced by retention-floor gaps.
    pub full_resyncs: u64,
    /// Health state-machine transitions across all replicas.
    pub health_transitions: u64,
    /// Worst replication lag observed (entries).
    pub max_lag: u64,
    /// Inserts the primary stored raw because the overload gate was up.
    pub bypassed_overload: u64,
    /// Deleted records the primary's background GC spliced out.
    pub maint_gc_records: u64,
    /// Segment bytes the primary's incremental compaction reclaimed.
    pub maint_reclaimed_bytes: u64,
    /// Maintenance ticks skipped because the overload gate was up.
    pub maint_paused_ticks: u64,
    /// Updates of a record that some node (the primary or a replica)
    /// decoded another record through when the update was issued.
    pub decode_base_updates: u64,
    /// Overload-degraded records the primary's maintainer re-deduplicated
    /// out-of-line after the bursts passed.
    pub rededuped: u64,
    /// Cold-tier feature runs the primary's maintainer merged away (0
    /// unless [`SimConfig::index_hot_budget_bytes`] forces spills).
    pub index_runs_merged: u64,
    /// The primary's structured event trace as JSONL. Timestamps come from
    /// the shared virtual clock, so the same seed renders the same bytes —
    /// the trace is part of the determinism contract (`Eq` above).
    pub events_jsonl: String,
    /// Anomaly dumps the flight recorder fired during the run (0 when
    /// [`SimConfig::flight_recorder`] is off).
    pub flight_dumps: u64,
    /// The final flight-recorder dump, byte-for-byte (empty when the
    /// recorder is off). Part of the determinism contract: the same seed
    /// must render the same dump bytes.
    pub flight_jsonl: String,
}

/// The harness. Build with [`Simulation::new`], then [`run`](Self::run).
pub struct Simulation {
    cfg: SimConfig,
    clock: Arc<VirtualClock>,
    rng: SplitMix64,
    /// The primary, the replicas and the links between them.
    set: ReplicaSet,
    /// Per replica, the tick until which it applies one entry per tick.
    slow_until: Vec<u64>,
    /// Current content of every live record as its client was acknowledged
    /// it: drives workload generation, and is the model the primary is
    /// checked against at the end.
    contents: Vec<(RecordId, Vec<u8>)>,
    next_id: u64,
    trace: u64,
    /// The primary's background maintenance scheduler (replicas run none —
    /// asymmetry is the point: convergence must not depend on it).
    maintainer: Maintainer,
    report: SimReport,
    /// The primary's anomaly flight recorder, when
    /// [`SimConfig::flight_recorder`] asked for one.
    flight: Option<Arc<FlightRecorder>>,
}

/// Order-sensitive trace mixing (SplitMix64 finalizer over a running hash).
fn mix(h: u64, v: u64) -> u64 {
    SplitMix64::new(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One seeded coin flip; `p == 0` draws nothing from the stream.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    p > 0.0 && rng.next_f64() < p
}

impl Simulation {
    /// Builds the primary, the replicas and the shared virtual clock.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        assert!(cfg.replicas >= 1, "need at least one replica");
        let seed = cfg.seed;
        let mk = |detail: String| SimError { seed, tick: 0, detail };
        // Every engine runs the engine's defaults except:
        let ecfg = EngineConfig {
            // dedup any delta that saves a little, so more records sit in
            // chains (and more are decode bases) for the faults to hit;
            min_benefit_bytes: 16,
            // a scenario shrinks retention to force the full-resync fallback;
            oplog_retain_bytes: cfg.oplog_retain_bytes,
            // a scenario bounds the hot tier to interleave spills and merges.
            index_hot_budget_bytes: cfg.index_hot_budget_bytes,
            ..EngineConfig::default()
        };
        // Every engine's telemetry runs on the shared virtual clock, so
        // span durations and event timestamps replay with the schedule.
        let clock = VirtualClock::shared();
        let open = |what: String| {
            let mut engine = DedupEngine::open_temp(ecfg.clone())
                .map_err(|e| mk(format!("open {what}: {e}")))?;
            engine.set_telemetry_clock(Arc::clone(&clock) as Arc<dyn Clock>);
            Ok::<_, SimError>(engine)
        };
        let mut primary = open("primary".into())?;
        let flight = cfg.flight_recorder.then(|| {
            let rec = Arc::new(FlightRecorder::with_clock(
                FlightConfig::default(),
                Arc::clone(&clock) as Arc<dyn Clock>,
            ));
            primary.set_flight_recorder(Arc::clone(&rec));
            rec
        });
        let replicas =
            (0..cfg.replicas).map(|i| open(format!("replica {i}"))).collect::<Result<_, _>>()?;
        // Eager trigger + small budget: the simulator wants maintenance
        // interleaved with faults as often as possible, in bounded bites.
        let mut mcfg = MaintConfig::default();
        mcfg.compact_trigger_ratio = 0.05;
        mcfg.compact_budget_bytes = 8 << 10;
        Ok(Self {
            rng: SplitMix64::new(seed ^ 0xdbde_d0d0_u64.rotate_left(17)),
            clock,
            set: ReplicaSet::with_lag_threshold(primary, replicas, cfg.lag_threshold),
            slow_until: vec![0; cfg.replicas],
            cfg,
            contents: Vec::new(),
            next_id: 0,
            trace: 0,
            maintainer: Maintainer::new(mcfg),
            report: SimReport { seed, ..SimReport::default() },
            flight,
        })
    }

    fn fail(&self, tick: u64, detail: String) -> SimError {
        SimError { seed: self.cfg.seed, tick, detail }
    }

    fn chance(&mut self, p: f64) -> bool {
        chance(&mut self.rng, p)
    }

    fn note(&mut self, code: u64, a: u64, b: u64) {
        self.trace = mix(self.trace, code);
        self.trace = mix(self.trace, a);
        self.trace = mix(self.trace, b);
    }

    /// Runs the scheduled ticks, heals and drains, verifies the invariants
    /// and returns the report — or the failing seed as a [`SimError`].
    pub fn run(mut self) -> Result<SimReport, SimError> {
        for tick in 0..self.cfg.ticks {
            self.clock.advance(Duration::from_millis(10));
            self.inject_faults(tick);
            self.workload(tick).map_err(|e| self.fail(tick, format!("workload: {e}")))?;
            self.ship(tick, self.cfg.drop_prob)
                .map_err(|e| self.fail(tick, format!("ship: {e}")))?;
            self.apply(tick).map_err(|e| self.fail(tick, format!("apply: {e}")))?;
            self.settle(tick);
            self.maintain(tick).map_err(|e| self.fail(tick, format!("maint: {e}")))?;
        }
        self.drain()?;
        // After the drain, the primary quiesces its maintenance backlogs
        // entirely — replicas run no maintenance at all, so verification
        // below proves convergence is independent of the GC schedule.
        if self.cfg.maint_every > 0 {
            let q = self
                .maintainer
                .run_until_quiesced(&mut self.set.primary)
                .map_err(|e| self.fail(self.report.ticks, format!("quiesce: {e}")))?;
            self.report.maint_reclaimed_bytes += q.compact.bytes_reclaimed;
            self.report.rededuped += q.rededuped;
            self.report.index_runs_merged += q.index_runs_merged;
            self.note(
                16,
                q.reencoded ^ q.rededuped.rotate_left(24) ^ q.index_runs_merged.rotate_left(48),
                q.compact.bytes_reclaimed,
            );
            let backlog = self.set.primary.degraded_backlog_len();
            if backlog != 0 {
                return Err(self.fail(
                    self.report.ticks,
                    format!("{backlog} degraded records survived quiescence"),
                ));
            }
        }
        self.verify()?;
        self.report.trace_hash = self.trace;
        let primary = &self.set.primary;
        let m = primary.metrics();
        self.report.live_records = primary.live_record_ids().len();
        self.report.bypassed_overload = m.bypassed_overload;
        self.report.health_transitions = m.health_transitions;
        self.report.backpressure_events = m.backpressure_events;
        self.report.catchup_batches = m.catchup_batches;
        self.report.max_lag = m.max_replica_lag;
        self.report.full_resyncs = self.set.full_resyncs();
        self.report.events_jsonl = primary.event_log().to_jsonl();
        if let Some(flight) = &self.flight {
            self.report.flight_dumps = flight.dumps();
            self.report.flight_jsonl = flight.last_dump().unwrap_or_default();
        }
        Ok(self.report.clone())
    }

    /// One scheduled maintenance tick on the primary (see
    /// [`SimConfig::maint_every`]). The tick's work is mixed into the
    /// trace hash: maintenance is part of the determinism contract.
    fn maintain(&mut self, tick: u64) -> Result<(), EngineError> {
        if self.cfg.maint_every == 0 || !(tick + 1).is_multiple_of(self.cfg.maint_every) {
            return Ok(());
        }
        // `pump` first lets the virtual I/O device drain queued backward
        // writebacks (committing chain links), then runs the tick — the
        // same idle-time coupling a real deployment uses.
        let (flushed, r) = self.maintainer.pump(&mut self.set.primary, 0.05, 32)?;
        // The flight recorder's periodic registry snapshot rides the
        // maintenance cadence, so an anomaly dump carries the metric
        // state leading up to the trigger.
        self.set.primary.flight_snapshot();
        if r.paused {
            self.report.maint_paused_ticks += 1;
        }
        self.report.maint_gc_records += r.gc_records;
        self.report.maint_reclaimed_bytes += r.compact.bytes_reclaimed;
        self.report.rededuped += r.rededuped;
        self.report.index_runs_merged += r.index_runs_merged;
        self.note(
            15,
            tick,
            flushed as u64
                ^ r.gc_records.rotate_left(16)
                ^ r.rededuped.rotate_left(40)
                ^ r.index_runs_merged.rotate_left(52)
                ^ (r.compact.bytes_reclaimed << 8),
        );
        Ok(())
    }

    /// Seeded fault scheduling for one tick.
    fn inject_faults(&mut self, tick: u64) {
        for i in 0..self.cfg.replicas {
            let replica = i as u64;
            if self.set.is_partitioned(i) {
                if self.chance(self.cfg.heal_prob) {
                    self.set.set_partitioned(i, false);
                    self.report.heals += 1;
                    self.note(2, tick, replica);
                }
            } else if self.chance(self.cfg.partition_prob) {
                self.set.set_partitioned(i, true);
                self.report.partitions += 1;
                self.note(1, tick, replica);
            }
            if self.chance(self.cfg.crash_prob) {
                // The durable engine survives, so nothing is lost.
                self.set.crash_restart(i);
                self.report.crashes += 1;
                self.note(3, tick, replica);
            }
            if self.chance(self.cfg.slow_prob) {
                self.slow_until[i] = tick + self.cfg.slow_ticks;
                self.set.primary.event_log().record(
                    Severity::Info,
                    EventKind::SlowSpell { replica, ticks: self.cfg.slow_ticks },
                );
                self.note(4, tick, replica);
            }
        }
    }

    /// Applies one tick of seeded workload to the primary.
    fn workload(&mut self, tick: u64) -> Result<(), EngineError> {
        let burst = self.chance(self.cfg.burst_prob);
        let n = self.cfg.inserts_per_tick * if burst { self.cfg.burst_factor } else { 1 };
        for _ in 0..n {
            let roll = self.rng.next_f64();
            if roll < self.cfg.delete_prob && self.contents.len() > 4 {
                let at = self.rng.next_below(self.contents.len() as u64) as usize;
                let (id, _) = self.contents.swap_remove(at);
                self.set.primary.delete(id)?;
                self.note(6, tick, id.0);
            } else if roll < self.cfg.delete_prob + self.cfg.update_prob
                && !self.contents.is_empty()
            {
                let at = self.rng.next_below(self.contents.len() as u64) as usize;
                let mut doc = self.contents[at].1.clone();
                self.mutate(&mut doc);
                let id = self.contents[at].0;
                let is_base = |e: &DedupEngine| e.chains().refcount(id) > 0;
                if is_base(&self.set.primary) || self.set.secondaries.iter().any(is_base) {
                    self.report.decode_base_updates += 1;
                }
                self.set.primary.update(id, &doc)?;
                self.contents[at].1 = doc;
                self.note(7, tick, id.0);
            } else {
                // New record: usually a near-duplicate of an earlier one so
                // the dedup path stays hot under simulation.
                let doc = if self.contents.is_empty() || self.rng.next_f64() < 0.3 {
                    self.fresh_doc()
                } else {
                    let at = self.rng.next_below(self.contents.len() as u64) as usize;
                    let mut d = self.contents[at].1.clone();
                    self.mutate(&mut d);
                    d
                };
                let id = RecordId(self.next_id);
                self.next_id += 1;
                self.set.primary.insert("sim", id, &doc)?;
                self.contents.push((id, doc));
                self.note(5, tick, id.0);
            }
        }
        Ok(())
    }

    fn fresh_doc(&mut self) -> Vec<u8> {
        (0..2048).map(|_| (self.rng.next_u64() % 26 + 97) as u8).collect()
    }

    fn mutate(&mut self, doc: &mut [u8]) {
        for _ in 0..4 {
            let at = self.rng.next_below(doc.len() as u64) as usize;
            let end = (at + 16).min(doc.len());
            for b in &mut doc[at..end] {
                *b = (self.rng.next_u64() % 26 + 97) as u8;
            }
        }
    }

    /// Fetch phase: every reachable replica pulls from its fetch cursor
    /// into its bounded queue, through a transport that loses a frame with
    /// probability `drop_prob` (the cursor holds, so nothing is lost).
    fn ship(&mut self, tick: u64, drop_prob: f64) -> Result<(), EngineError> {
        let (budget, depth) = (self.cfg.fetch_budget, self.cfg.queue_depth);
        let mut pressured = false;
        for i in 0..self.cfg.replicas {
            let rng = &mut self.rng;
            let fetched = self.set.fetch(i, budget, depth, || chance(rng, drop_prob))?;
            let replica = i as u64;
            match fetched {
                Fetch::Idle => {}
                Fetch::Backpressured => {
                    pressured = true;
                    self.note(8, tick, replica);
                }
                Fetch::Lost => {
                    self.report.transport_drops += 1;
                    self.note(9, tick, replica);
                }
                Fetch::Resynced => self.note(14, tick, replica),
                Fetch::Queued { clipped, catchup } => {
                    if clipped {
                        pressured = true;
                        self.note(8, tick, replica);
                    }
                    if catchup {
                        self.note(13, tick, replica);
                    }
                    self.note(10, tick, replica);
                }
            }
        }
        // Overload gate: sustained backpressure sheds the dedup stage on
        // the primary (records go raw) until the queues breathe again.
        self.set.primary.set_replication_pressure(pressured);
        self.note(if pressured { 11 } else { 12 }, tick, 0);
        Ok(())
    }

    /// Apply phase: each replica drains its queue (one entry per tick when
    /// slow).
    fn apply(&mut self, tick: u64) -> Result<(), EngineError> {
        for i in 0..self.cfg.replicas {
            let budget = if self.slow_until[i] > tick { 1 } else { usize::MAX };
            self.set.apply(i, budget)?;
        }
        Ok(())
    }

    /// End-of-tick bookkeeping: lag observation, health transitions,
    /// retention advance.
    fn settle(&mut self, tick: u64) {
        self.report.ticks = tick + 1;
        self.set.settle();
    }

    /// Heals every partition, clears overload and slow spells, and pumps
    /// until every replica has applied up to the primary's head.
    fn drain(&mut self) -> Result<(), SimError> {
        let base = self.cfg.ticks;
        self.set.primary.set_replication_pressure(false);
        for i in 0..self.cfg.replicas {
            self.slow_until[i] = 0;
            if self.set.is_partitioned(i) {
                self.set.set_partitioned(i, false);
                self.report.heals += 1;
            }
        }
        // Each pass moves every replica at least one batch forward, so the
        // bound is generous; hitting it means the drain is stuck.
        let max_passes = 4 * self.set.primary.oplog_next_lsn() + 64;
        for pass in 0..max_passes {
            let tick = base + pass;
            self.clock.advance(Duration::from_millis(10));
            if self.set.caught_up() {
                self.report.ticks = tick;
                return Ok(());
            }
            // Drain with transport faults off: the drop/crash/partition
            // schedules ran their course during the scripted ticks.
            self.ship(tick, 0.0).map_err(|e| self.fail(tick, format!("drain ship: {e}")))?;
            self.apply(tick).map_err(|e| self.fail(tick, format!("drain apply: {e}")))?;
            self.settle(tick);
        }
        Err(self.fail(base + max_passes, "drain did not converge (stuck cursor?)".into()))
    }

    /// The primary against what its clients were acknowledged, then the two
    /// invariants: byte-identical convergence, and a final anti-entropy
    /// pass with nothing to do.
    fn verify(&mut self) -> Result<(), SimError> {
        let tick = self.report.ticks;
        self.set
            .primary
            .flush_all_writebacks()
            .map_err(|e| self.fail(tick, format!("primary flush: {e}")))?;
        if !self.set.primary.broken_records().is_empty() {
            return Err(self.fail(tick, "primary has broken decode chains".into()));
        }
        let ids = self.set.primary.live_record_ids();
        let mut acked: Vec<RecordId> = self.contents.iter().map(|&(id, _)| id).collect();
        acked.sort_unstable();
        if ids != acked {
            return Err(self.fail(
                tick,
                format!("primary live set {} vs {} acknowledged", ids.len(), acked.len()),
            ));
        }
        for (id, data) in &self.contents {
            let got = self
                .set
                .primary
                .read(*id)
                .map_err(|e| self.fail(tick, format!("primary read {id}: {e}")))?;
            if got[..] != data[..] {
                return Err(self.fail(tick, format!("primary record {id} is not what was acked")));
            }
        }
        for i in 0..self.cfg.replicas {
            self.set.secondaries[i]
                .flush_all_writebacks()
                .map_err(|e| self.fail(tick, format!("replica {i} flush: {e}")))?;
            let r_ids = self.set.secondaries[i].live_record_ids();
            if r_ids != ids {
                return Err(self.fail(
                    tick,
                    format!("replica {i} live set diverged: {} vs {}", r_ids.len(), ids.len()),
                ));
            }
            for &id in &ids {
                let want = self
                    .set
                    .primary
                    .read(id)
                    .map_err(|e| self.fail(tick, format!("primary read {id}: {e}")))?;
                let got = self.set.secondaries[i]
                    .read(id)
                    .map_err(|e| self.fail(tick, format!("replica {i} read {id}: {e}")))?;
                if want != got {
                    return Err(self.fail(tick, format!("replica {i} record {id} bytes diverged")));
                }
            }
            // Losslessness: catch-up (plus counted resyncs) already did all
            // the work — the pass of last resort must find a clean pair.
            let clock: Arc<dyn Clock> = Arc::clone(&self.clock) as Arc<dyn Clock>;
            let (primary, secondary) = (&mut self.set.primary, &mut self.set.secondaries[i]);
            let report = anti_entropy_with_clock(primary, secondary, &clock)
                .map_err(|e| self.fail(tick, format!("verify resync {i}: {e}")))?;
            if !report.is_clean() {
                return Err(self.fail(
                    tick,
                    format!("replica {i} needed hidden repairs: {report:?} — entries were lost"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_schedule_partitions_overloads_and_heals() {
        // The acceptance scenario: a seeded schedule that provably
        // partitions a replica mid-workload, overloads the bounded queues,
        // heals, and converges byte-identically through cursor catch-up
        // with no full resync.
        let cfg = SimConfig {
            seed: 0xD15EA5E,
            replicas: 3,
            ticks: 50,
            burst_prob: 0.3,
            partition_prob: 0.12,
            queue_depth: 4,
            ..Default::default()
        };
        let report = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(report.partitions > 0, "schedule must partition someone: {report:?}");
        assert!(report.backpressure_events > 0, "bursts must overload the queues: {report:?}");
        assert!(report.catchup_batches > 0, "healing must use cursor catch-up: {report:?}");
        assert_eq!(report.full_resyncs, 0, "catch-up must suffice: {report:?}");
        assert!(report.health_transitions > 0, "{report:?}");
        assert!(report.live_records > 0, "{report:?}");
        // The incidents the counters summarize are present as typed
        // events in the JSONL trace.
        assert!(report.events_jsonl.contains("\"kind\":\"partition\""));
        assert!(report.events_jsonl.contains("\"kind\":\"backpressure\""));
        assert!(report.events_jsonl.contains("\"kind\":\"health_transition\""));
    }

    #[test]
    fn same_seed_same_schedule_twice() {
        let cfg = SimConfig { seed: 77, ticks: 40, ..Default::default() };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        let b = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b, "a seed must replay its exact event order");
        assert_eq!(a.trace_hash, b.trace_hash);
        assert!(!a.events_jsonl.is_empty(), "the schedule must log events");
        assert_eq!(a.events_jsonl, b.events_jsonl, "event trace must be byte-identical");
    }

    #[test]
    fn tiered_index_keeps_the_trace_byte_stable_per_seed() {
        // A tiny hot budget makes every engine spill feature runs and the
        // primary's maintainer merge them between faults. Spill and merge
        // schedules are deterministic, so two runs of the seed must still
        // produce byte-identical reports and event traces — and the
        // convergence invariants must survive the tiering.
        let cfg = SimConfig {
            seed: 0x71E2ED,
            ticks: 50,
            maint_every: 2,
            index_hot_budget_bytes: Some(512),
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(a.index_runs_merged > 0, "the budget must force spills and merges: {a:?}");
        let b = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b, "tiering must not perturb the determinism contract");
        assert_eq!(a.events_jsonl, b.events_jsonl, "event trace must be byte-identical");
    }

    #[test]
    fn flight_recorder_dump_is_byte_stable_across_same_seed_runs() {
        // Bursty traffic against tiny queues guarantees overload-onset
        // triggers; partitions add replica-partition triggers. Two runs of
        // the seed must produce byte-identical dump contents — ring
        // entries, registry snapshots, timestamps and all.
        let cfg = SimConfig {
            seed: 0xF117_B0C5,
            replicas: 3,
            ticks: 50,
            burst_prob: 0.4,
            partition_prob: 0.12,
            queue_depth: 2,
            maint_every: 2,
            flight_recorder: true,
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(a.flight_dumps > 0, "the schedule must fire anomaly triggers: {a:?}");
        assert!(a.flight_jsonl.starts_with("{\"t\":\"trigger\""), "{}", a.flight_jsonl);
        assert!(a.flight_jsonl.contains("\"t\":\"event\""), "dump must carry ring events");
        assert!(
            a.flight_jsonl.contains("\"t\":\"snapshot\""),
            "dump must carry periodic registry snapshots"
        );
        let b = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.flight_dumps, b.flight_dumps);
        assert_eq!(a.flight_jsonl, b.flight_jsonl, "dump bytes must replay with the seed");
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_off_keeps_reports_unchanged() {
        let cfg = SimConfig { seed: 77, ticks: 40, ..Default::default() };
        let r = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.flight_dumps, 0);
        assert!(r.flight_jsonl.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Simulation::new(SimConfig { seed: 5, ticks: 30, ..Default::default() })
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("{e}"));
        let b = Simulation::new(SimConfig { seed: 6, ticks: 30, ..Default::default() })
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("{e}"));
        assert_ne!(a.trace_hash, b.trace_hash, "seeds must actually steer the schedule");
    }

    #[test]
    fn primary_only_maintenance_preserves_convergence() {
        // Delete-heavy churn with maintenance interleaved on the primary
        // every other tick. Replicas never GC or compact, yet every run
        // must converge byte-identically — and two runs of the seed must
        // agree on the whole schedule, maintenance included.
        let cfg = SimConfig {
            seed: 0xBADD_EED5,
            replicas: 2,
            ticks: 60,
            delete_prob: 0.2,
            update_prob: 0.3,
            maint_every: 2,
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(a.maint_gc_records > 0, "deletes must exercise background GC: {a:?}");
        assert!(a.maint_reclaimed_bytes > 0, "churn must exercise compaction: {a:?}");
        assert!(a.events_jsonl.contains("\"kind\":\"maint_gc\""), "typed GC events expected");
        let b = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b, "maintenance must not break seed determinism");
        assert_eq!(a.events_jsonl, b.events_jsonl);
    }

    #[test]
    fn maintenance_pauses_under_replication_pressure() {
        // Tiny queues + heavy bursts keep the overload gate up often; the
        // maintainer must actually skip ticks while it is.
        let cfg = SimConfig {
            seed: 0x0BE5E,
            replicas: 3,
            ticks: 60,
            burst_prob: 0.5,
            queue_depth: 2,
            maint_every: 1,
            ..Default::default()
        };
        let report = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(report.backpressure_events > 0, "{report:?}");
        assert!(report.maint_paused_ticks > 0, "pressure must pause maintenance: {report:?}");
    }

    #[test]
    fn degraded_burst_drains_to_quiescence() {
        // Heavy bursts against tiny queues force the overload gate up, so
        // some inserts land raw with dedup shed; the maintainer's re-dedup
        // slices must drain every one of them by the end of the run, and
        // the whole recovery must be part of the deterministic schedule.
        let cfg = SimConfig {
            seed: 0xDE64_ADED,
            replicas: 3,
            ticks: 60,
            burst_prob: 0.5,
            update_prob: 0.4,
            queue_depth: 2,
            maint_every: 1,
            ..Default::default()
        };
        let a = Simulation::new(cfg.clone()).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(a.bypassed_overload > 0, "bursts must degrade some inserts: {a:?}");
        assert!(a.rededuped > 0, "the maintainer must re-dedup the backlog: {a:?}");
        let b = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a, b, "degradation recovery must not break seed determinism");
    }

    #[test]
    fn tiny_retention_forces_counted_full_resync() {
        // A retention window far smaller than a partition's worth of
        // traffic: catch-up is impossible, the fallback must kick in, and
        // the run must still converge.
        let cfg = SimConfig {
            seed: 9,
            replicas: 2,
            ticks: 40,
            partition_prob: 0.2,
            heal_prob: 0.1,
            oplog_retain_bytes: 1_000,
            ..Default::default()
        };
        let report = Simulation::new(cfg).unwrap().run().unwrap_or_else(|e| panic!("{e}"));
        assert!(report.partitions > 0, "{report:?}");
        assert!(report.full_resyncs > 0, "trimmed window must force resync: {report:?}");
    }
}
