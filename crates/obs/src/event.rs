//! The structured event log: a bounded ring buffer of typed incidents.
//!
//! Metrics answer "how much"; the event log answers "what happened and
//! when". Replication incidents — health transitions, salvage recovery,
//! backpressure, governor and overload-gate flips, chain-broken reads,
//! catch-up sessions, dropped frames — are recorded with a sequence
//! number, a clock timestamp and a typed payload, and can be exported as
//! JSONL for post-mortem queries and deterministic simulation traces.
//!
//! The buffer is bounded: when full, the oldest event is dropped and the
//! drop is counted, so the log can run on the hot path forever without
//! growing. Recording goes through a mutex (`&self`), so one log can be
//! shared between an engine and a replicator thread via `Arc`.

use crate::flight::{FlightRecorder, FlightTrigger};
use dbdedup_util::time::{system_clock, Clock};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Expected lifecycle events (catch-up sessions, gate flips).
    Info,
    /// Degraded but self-healing conditions (backpressure, lost frames).
    Warn,
    /// Data-affecting incidents (chain-broken reads, salvage quarantine).
    Error,
}

impl Severity {
    /// Stable lowercase name for the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// The typed payload of one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A replication link's health state machine moved.
    HealthTransition {
        /// Link / replica index.
        replica: u64,
        /// State left (stable name, e.g. `"healthy"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A replica became unreachable.
    Partition {
        /// Link / replica index.
        replica: u64,
    },
    /// A partitioned replica became reachable again.
    Heal {
        /// Link / replica index.
        replica: u64,
    },
    /// A replica crash-restarted, losing its volatile in-flight queue.
    CrashRestart {
        /// Link / replica index.
        replica: u64,
    },
    /// A replica entered a slow-apply spell.
    SlowSpell {
        /// Link / replica index.
        replica: u64,
        /// Spell length in scheduler ticks.
        ticks: u64,
    },
    /// A shipment was refused by a full apply queue.
    Backpressure {
        /// Link / replica index.
        replica: u64,
    },
    /// A transient transport fault swallowed a fetch (cursor holds).
    TransportDrop {
        /// Link / replica index.
        replica: u64,
    },
    /// A batch was delivered to a replica in the CatchingUp state.
    CatchupBatch {
        /// Link / replica index.
        replica: u64,
    },
    /// A cursor fell below the retention floor: full anti-entropy resync.
    FullResync {
        /// Link / replica index.
        replica: u64,
    },
    /// The replication-pressure overload gate flipped.
    OverloadGate {
        /// `true` when raised (dedup shed), `false` when lowered.
        on: bool,
    },
    /// A parallel-ingest commit lane toggled pass-through degradation
    /// (records skip the worker stage while the overload gate sheds
    /// dedup anyway).
    IngestDegraded {
        /// `true` entering pass-through, `false` resuming full pipeline.
        on: bool,
    },
    /// Salvage recovery quarantined entries / truncated a torn tail, in the
    /// store's segments or the durable oplog.
    Salvage {
        /// Entries quarantined for bad checksums.
        quarantined: u64,
        /// Torn-tail bytes truncated from the active segment or the oplog.
        truncated_bytes: u64,
    },
    /// A read failed because corruption broke the decode chain.
    ChainBroken {
        /// The record whose read failed.
        id: u64,
        /// The decode-path node that is actually damaged.
        broken_at: u64,
    },
    /// The governor disabled dedup for an unproductive database.
    GovernorDisabled {
        /// The database name.
        db: String,
    },
    /// A record was re-materialized from authoritative peer content.
    Repaired {
        /// The repaired record.
        id: u64,
    },
    /// Background chain GC collected a tombstoned record, re-encoding
    /// the records that pinned it.
    MaintGc {
        /// The record physically removed.
        id: u64,
        /// Dependent records re-encoded (spliced / rebased) to release it.
        reencoded: u64,
    },
    /// Background compaction finished an increment.
    MaintCompact {
        /// Segment files emptied this increment.
        segments: u64,
        /// Physical bytes freed this increment.
        reclaimed_bytes: u64,
    },
    /// The retention policy retired an over-deep chain-tail version.
    MaintRetired {
        /// The retired record.
        id: u64,
        /// Its depth behind the chain head when retired.
        depth: u64,
    },
    /// Out-of-line re-dedup processed one overload-degraded record.
    MaintRededup {
        /// The degraded record that was drained from the backlog.
        id: u64,
        /// What happened: "rededuped" (rewritten into a chain),
        /// "kept_raw" (no beneficial source; tag cleared), or
        /// "skipped" (deleted/broken/already-chained meanwhile).
        outcome: &'static str,
    },
    /// The opening salvage scan quarantined one damaged frame (or
    /// contiguous damaged run) — per-frame detail behind the aggregate
    /// `salvage` event.
    SalvageSkipped {
        /// Segment the damage sits in.
        segment: u64,
        /// Byte offset the damaged run starts at.
        offset: u64,
        /// Bytes the quarantined run covers.
        bytes: u64,
    },
    /// An integrity-scrub slice finished.
    MaintScrub {
        /// Live records whose frames verified clean this slice.
        verified: u64,
        /// Damaged records detected this slice.
        corrupt: u64,
        /// Records healed (locally or from a replica) this slice.
        healed: u64,
    },
    /// Scrub found a damaged record that nothing could heal: no local
    /// reconstruction and no replica supplied authoritative bytes. The
    /// record is quarantined and stays marked broken.
    ScrubUnhealable {
        /// The unhealable record.
        id: u64,
    },
    /// A tiered-index maintenance slice merged cold-tier feature runs.
    MaintIndexMerge {
        /// Runs consumed (merged or quarantined) this slice.
        runs: u64,
        /// Entries written into merged runs this slice.
        entries: u64,
    },
}

impl EventKind {
    /// Stable snake_case kind name for the JSON encoding.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::HealthTransition { .. } => "health_transition",
            EventKind::Partition { .. } => "partition",
            EventKind::Heal { .. } => "heal",
            EventKind::CrashRestart { .. } => "crash_restart",
            EventKind::SlowSpell { .. } => "slow_spell",
            EventKind::Backpressure { .. } => "backpressure",
            EventKind::TransportDrop { .. } => "transport_drop",
            EventKind::CatchupBatch { .. } => "catchup_batch",
            EventKind::FullResync { .. } => "full_resync",
            EventKind::OverloadGate { .. } => "overload_gate",
            EventKind::IngestDegraded { .. } => "ingest_degraded",
            EventKind::Salvage { .. } => "salvage",
            EventKind::ChainBroken { .. } => "chain_broken",
            EventKind::GovernorDisabled { .. } => "governor_disabled",
            EventKind::Repaired { .. } => "repaired",
            EventKind::MaintGc { .. } => "maint_gc",
            EventKind::MaintCompact { .. } => "maint_compact",
            EventKind::MaintRetired { .. } => "maint_retired",
            EventKind::MaintRededup { .. } => "maint_rededup",
            EventKind::SalvageSkipped { .. } => "salvage_skipped",
            EventKind::MaintScrub { .. } => "maint_scrub",
            EventKind::ScrubUnhealable { .. } => "scrub_unhealable",
            EventKind::MaintIndexMerge { .. } => "maint_index_merge",
        }
    }
}

/// Escapes a string for a JSON string literal (control chars, quote,
/// backslash).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives ring drops).
    pub seq: u64,
    /// Clock timestamp, nanoseconds since the clock's epoch.
    pub at_ns: u64,
    /// Severity.
    pub severity: Severity,
    /// Typed payload.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"t_ns\":{},\"severity\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.at_ns,
            self.severity.name(),
            self.kind.name()
        );
        match &self.kind {
            EventKind::HealthTransition { replica, from, to } => {
                s.push_str(&format!(",\"replica\":{replica},\"from\":\"{from}\",\"to\":\"{to}\""));
            }
            EventKind::Partition { replica }
            | EventKind::Heal { replica }
            | EventKind::CrashRestart { replica }
            | EventKind::Backpressure { replica }
            | EventKind::TransportDrop { replica }
            | EventKind::CatchupBatch { replica }
            | EventKind::FullResync { replica } => {
                s.push_str(&format!(",\"replica\":{replica}"));
            }
            EventKind::SlowSpell { replica, ticks } => {
                s.push_str(&format!(",\"replica\":{replica},\"ticks\":{ticks}"));
            }
            EventKind::OverloadGate { on } | EventKind::IngestDegraded { on } => {
                s.push_str(&format!(",\"on\":{on}"));
            }
            EventKind::Salvage { quarantined, truncated_bytes } => {
                s.push_str(&format!(
                    ",\"quarantined\":{quarantined},\"truncated_bytes\":{truncated_bytes}"
                ));
            }
            EventKind::ChainBroken { id, broken_at } => {
                s.push_str(&format!(",\"id\":{id},\"broken_at\":{broken_at}"));
            }
            EventKind::GovernorDisabled { db } => {
                s.push_str(",\"db\":\"");
                escape_json(db, &mut s);
                s.push('"');
            }
            EventKind::Repaired { id } => {
                s.push_str(&format!(",\"id\":{id}"));
            }
            EventKind::MaintGc { id, reencoded } => {
                s.push_str(&format!(",\"id\":{id},\"reencoded\":{reencoded}"));
            }
            EventKind::MaintCompact { segments, reclaimed_bytes } => {
                s.push_str(&format!(
                    ",\"segments\":{segments},\"reclaimed_bytes\":{reclaimed_bytes}"
                ));
            }
            EventKind::MaintRetired { id, depth } => {
                s.push_str(&format!(",\"id\":{id},\"depth\":{depth}"));
            }
            EventKind::MaintRededup { id, outcome } => {
                s.push_str(&format!(",\"id\":{id},\"outcome\":\"{outcome}\""));
            }
            EventKind::SalvageSkipped { segment, offset, bytes } => {
                s.push_str(&format!(
                    ",\"segment\":{segment},\"offset\":{offset},\"bytes\":{bytes}"
                ));
            }
            EventKind::MaintScrub { verified, corrupt, healed } => {
                s.push_str(&format!(
                    ",\"verified\":{verified},\"corrupt\":{corrupt},\"healed\":{healed}"
                ));
            }
            EventKind::ScrubUnhealable { id } => {
                s.push_str(&format!(",\"id\":{id}"));
            }
            EventKind::MaintIndexMerge { runs, entries } => {
                s.push_str(&format!(",\"runs\":{runs},\"entries\":{entries}"));
            }
        }
        s.push('}');
        s
    }
}

struct Inner {
    events: VecDeque<Event>,
    clock: Arc<dyn Clock>,
    next_seq: u64,
    dropped: u64,
    /// Optional anomaly flight recorder: every event is mirrored into its
    /// ring, and trigger-class events fire a dump (see
    /// [`FlightTrigger::for_event`]).
    recorder: Option<Arc<FlightRecorder>>,
}

/// The bounded structured event log. See module docs.
pub struct EventLog {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("len", &inner.events.len())
            .field("logged", &inner.next_seq)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl EventLog {
    /// Creates a log holding at most `capacity` events, stamped by the
    /// system clock.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, system_clock())
    }

    /// Creates a log stamped by an explicit clock (a shared
    /// [`VirtualClock`] makes the trace deterministic).
    ///
    /// [`VirtualClock`]: dbdedup_util::time::VirtualClock
    pub fn with_clock(capacity: usize, clock: Arc<dyn Clock>) -> Self {
        assert!(capacity >= 1, "event log needs room for at least one event");
        Self {
            inner: Mutex::new(Inner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                clock,
                next_seq: 0,
                dropped: 0,
                recorder: None,
            }),
            capacity,
        }
    }

    /// A shared handle (the common way to thread one log through an
    /// engine plus its replication components).
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// Swaps the timestamp clock.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        self.inner.lock().clock = clock;
    }

    /// Attaches an anomaly [`FlightRecorder`]: every subsequent event is
    /// mirrored into its ring, and events in the trigger taxonomy
    /// ([`FlightTrigger::for_event`]) fire an automatic dump.
    pub fn set_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        self.inner.lock().recorder = Some(recorder);
    }

    /// Records one event, dropping (and counting) the oldest if full.
    pub fn record(&self, severity: Severity, kind: EventKind) {
        let mut inner = self.inner.lock();
        let at_ns = inner.clock.now().as_nanos().min(u64::MAX as u128) as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let event = Event { seq, at_ns, severity, kind };
        let tap = inner.recorder.clone();
        inner.events.push_back(event.clone());
        drop(inner);
        // The flight-recorder mirror (and any triggered dump I/O) runs
        // outside the log's lock so a dump can never block recording.
        if let Some(recorder) = tap {
            recorder.record_event(&event.to_json());
            if let Some(trigger) = FlightTrigger::for_event(&event.kind) {
                let _ = recorder.trigger(trigger);
            }
        }
    }

    /// Total events ever recorded (including ones since dropped).
    pub fn logged(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events dropped by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events currently retained in the ring (the occupancy gauge the
    /// registry exports as `events.len`).
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Retained events whose kind name equals `kind` (test queries).
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.inner.lock().events.iter().filter(|e| e.kind.name() == kind).cloned().collect()
    }

    /// Renders every retained event as JSONL (one object per line, each
    /// line newline-terminated). Deterministic given a deterministic
    /// clock and event order.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for e in &inner.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::time::VirtualClock;
    use std::time::Duration;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = EventLog::new(2);
        for i in 0..5u64 {
            log.record(Severity::Info, EventKind::Backpressure { replica: i });
        }
        assert_eq!(log.logged(), 5);
        assert_eq!(log.dropped(), 3);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 3, "oldest retained after drops");
        assert_eq!(snap[1].seq, 4);
    }

    #[test]
    fn jsonl_is_deterministic_on_a_virtual_clock() {
        let mk = || {
            let clock = VirtualClock::shared();
            let log = EventLog::with_clock(16, clock.clone());
            clock.advance(Duration::from_millis(10));
            log.record(Severity::Warn, EventKind::Partition { replica: 1 });
            clock.advance(Duration::from_millis(5));
            log.record(
                Severity::Info,
                EventKind::HealthTransition { replica: 1, from: "healthy", to: "partitioned" },
            );
            log.to_jsonl()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same schedule must render byte-identical JSONL");
        assert!(a.contains("\"t_ns\":10000000"));
        assert!(a.contains("\"kind\":\"partition\""));
    }

    #[test]
    fn every_kind_renders_valid_json() {
        let log = EventLog::new(64);
        let kinds = vec![
            EventKind::HealthTransition { replica: 0, from: "healthy", to: "lagging" },
            EventKind::Partition { replica: 1 },
            EventKind::Heal { replica: 1 },
            EventKind::CrashRestart { replica: 2 },
            EventKind::SlowSpell { replica: 0, ticks: 3 },
            EventKind::Backpressure { replica: 1 },
            EventKind::TransportDrop { replica: 0 },
            EventKind::CatchupBatch { replica: 2 },
            EventKind::FullResync { replica: 2 },
            EventKind::OverloadGate { on: true },
            EventKind::IngestDegraded { on: true },
            EventKind::Salvage { quarantined: 4, truncated_bytes: 512 },
            EventKind::ChainBroken { id: 9, broken_at: 3 },
            EventKind::GovernorDisabled { db: "rand\"om".into() },
            EventKind::Repaired { id: 9 },
            EventKind::MaintGc { id: 5, reencoded: 2 },
            EventKind::MaintCompact { segments: 1, reclaimed_bytes: 4096 },
            EventKind::MaintRetired { id: 3, depth: 40 },
            EventKind::MaintRededup { id: 8, outcome: "rededuped" },
            EventKind::SalvageSkipped { segment: 0, offset: 16, bytes: 210 },
            EventKind::MaintScrub { verified: 40, corrupt: 1, healed: 1 },
            EventKind::ScrubUnhealable { id: 11 },
            EventKind::MaintIndexMerge { runs: 2, entries: 300 },
        ];
        for k in kinds {
            log.record(Severity::Info, k);
        }
        for line in log.to_jsonl().lines() {
            crate::json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line}: {e}"));
        }
    }

    #[test]
    fn len_tracks_ring_occupancy() {
        let log = EventLog::new(3);
        assert!(log.is_empty());
        for i in 0..5u64 {
            log.record(Severity::Info, EventKind::Heal { replica: i });
        }
        assert_eq!(log.len(), 3, "occupancy is capped at capacity");
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn flight_recorder_tap_mirrors_events_and_fires_triggers() {
        use crate::flight::{FlightConfig, FlightRecorder};
        let log = EventLog::new(16);
        let rec = FlightRecorder::shared(FlightConfig::default());
        log.set_flight_recorder(Arc::clone(&rec));
        log.record(Severity::Info, EventKind::Heal { replica: 0 });
        assert_eq!(rec.dumps(), 0, "heal is not a trigger");
        log.record(Severity::Warn, EventKind::Partition { replica: 0 });
        assert_eq!(rec.dumps(), 1, "partition triggers a dump");
        let dump = rec.last_dump().unwrap();
        assert!(dump.contains("\"kind\":\"replica_partition\""), "{dump}");
        assert!(dump.contains("\"kind\":\"heal\""), "ring context precedes the trigger: {dump}");
        assert!(dump.contains("\"kind\":\"partition\""), "the triggering event is in the ring");
    }

    #[test]
    fn of_kind_filters() {
        let log = EventLog::new(8);
        log.record(Severity::Warn, EventKind::Partition { replica: 0 });
        log.record(Severity::Info, EventKind::Heal { replica: 0 });
        log.record(Severity::Warn, EventKind::Partition { replica: 1 });
        assert_eq!(log.of_kind("partition").len(), 2);
        assert_eq!(log.of_kind("heal").len(), 1);
        assert_eq!(log.of_kind("salvage").len(), 0);
    }
}
