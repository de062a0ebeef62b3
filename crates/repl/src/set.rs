//! Replica sets: one primary fanning its oplog out to N secondaries —
//! the "distributed databases replicated across geographical regions"
//! deployment the paper's introduction motivates. Every secondary receives
//! the same forward-encoded batches, so replication traffic is paid once
//! per replica but the dedup encoding cost is paid once, on the primary.
//!
//! Each link is the one replication link model: a *fetch cursor* (the next
//! LSN its replica will pull via [`DedupEngine::oplog_entries_from`]), an
//! *applied cursor* (everything below it is applied on the replica), the
//! bounded in-flight queue between the two, a partition flag and a
//! [`HealthTracker`]. The link moves in four steps — `fetch`, `apply`,
//! `crash_restart` and `settle` — which the deterministic simulator
//! interleaves with its fault schedule, and [`sync`] runs back to back.
//! A partitioned or lagging replica simply stops advancing its cursors and
//! streams the gap when it returns — no other link is held back, and the
//! primary trims retention only below the slowest applied cursor. A fetch
//! cursor that falls below the retention floor triggers the full
//! anti-entropy fallback (the decision table in DESIGN.md §7.2).
//!
//! [`sync`]: ReplicaSet::sync

use crate::health::{HealthTracker, ReplicaHealth};
use crate::resync::anti_entropy_with_clock;
use dbdedup_core::{DedupEngine, EngineConfig, EngineError};
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_storage::oplog::{decode_batch, encode_batch, CursorGap, OplogEntry};
use std::collections::VecDeque;
use std::time::Duration;

/// Lag (oplog entries) past which a link is declared `Lagging`.
const DEFAULT_LAG_THRESHOLD: u64 = 64;

/// Byte budget of each batch [`ReplicaSet::sync`] fetches.
const SYNC_BATCH_BYTES: usize = 1 << 20;

/// Nanoseconds between two readings of one clock, saturated into a `u64`.
fn span_ns(t0: Duration, t1: Duration) -> u64 {
    t1.saturating_sub(t0).as_nanos().min(u64::MAX as u128) as u64
}

/// One link's transport counters. Frames are the encoded batches a network
/// transport would carry, so `bytes` is exactly the replication traffic the
/// paper's Fig. 11 reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetworkStats {
    /// Batches shipped primary → secondary.
    pub batches: u64,
    /// Total frame bytes transferred.
    pub bytes: u64,
    /// Oplog entries replicated.
    pub entries: u64,
}

/// What one [`ReplicaSet::fetch`] did on its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    /// Nothing moved: the link is partitioned, or its fetch cursor is at
    /// the primary's head.
    Idle,
    /// The in-flight queue was full (backpressure): nothing was read and
    /// nothing was lost.
    Backpressured,
    /// The transport lost the frame. The fetch cursor holds, so the next
    /// fetch reads the same entries again.
    Lost,
    /// The fetch cursor was below the retention floor: anti-entropy
    /// re-converged the replica and both cursors jumped to the head.
    Resynced,
    /// A frame reached the in-flight queue.
    Queued {
        /// The queue's room cut the frame short (backpressure); the rest
        /// is fetched later.
        clipped: bool,
        /// The link was catching up, so this was a catch-up batch.
        catchup: bool,
    },
}

/// One primary → secondary link.
struct Link {
    /// Next LSN to fetch from the primary.
    fetch_next: u64,
    /// Next LSN to apply: everything below is applied on the replica.
    applied_next: u64,
    /// Entries `applied_next..fetch_next`, fetched but not yet applied.
    /// Volatile: a crash-restart loses them.
    queue: VecDeque<OplogEntry>,
    /// No traffic flows while set.
    partitioned: bool,
    health: HealthTracker,
}

/// A primary plus N secondaries joined by byte-counted in-process links.
pub struct ReplicaSet {
    /// The write-serving node.
    pub primary: DedupEngine,
    /// The replicas, in fan-out order.
    pub secondaries: Vec<DedupEngine>,
    links: Vec<Link>,
    per_link: Vec<NetworkStats>,
    full_resyncs: u64,
}

impl ReplicaSet {
    /// Joins engines the caller opened, over stores and oplogs of its
    /// choosing. Every link's cursors start at LSN 0, where a new oplog
    /// starts: a secondary is taken to have applied nothing yet.
    pub fn new(primary: DedupEngine, secondaries: Vec<DedupEngine>) -> Self {
        Self::with_lag_threshold(primary, secondaries, DEFAULT_LAG_THRESHOLD)
    }

    /// [`new`](Self::new), declaring a link `Lagging` once it falls more
    /// than `lag_threshold` entries behind.
    pub(crate) fn with_lag_threshold(
        primary: DedupEngine,
        secondaries: Vec<DedupEngine>,
        lag_threshold: u64,
    ) -> Self {
        let n = secondaries.len();
        assert!(n >= 1, "a replica set needs at least one secondary");
        let links = (0..n)
            .map(|_| Link {
                fetch_next: 0,
                applied_next: 0,
                queue: VecDeque::new(),
                partitioned: false,
                health: HealthTracker::new(lag_threshold),
            })
            .collect();
        Self {
            primary,
            secondaries,
            links,
            per_link: vec![NetworkStats::default(); n],
            full_resyncs: 0,
        }
    }

    /// Creates a primary and `n` secondaries with the same configuration,
    /// each over a temporary store.
    pub fn open_temp(config: EngineConfig, n: usize) -> Result<Self, EngineError> {
        let secondaries = (0..n)
            .map(|_| DedupEngine::open_temp(config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(DedupEngine::open_temp(config)?, secondaries))
    }

    /// Drives link `i`'s health state machine through `f`; when the state
    /// changes, counts the transition and records a typed event.
    fn transition(&mut self, i: usize, f: impl FnOnce(&mut HealthTracker) -> bool) {
        let health = &mut self.links[i].health;
        let from = health.state();
        if f(health) {
            let to = health.state();
            self.primary.record_health_transition();
            self.primary.event_log().record(
                Severity::Info,
                EventKind::HealthTransition { replica: i as u64, from: from.name(), to: to.name() },
            );
        }
    }

    /// Cuts or restores link `i`. While cut, no traffic flows; on restore
    /// the replica enters catch-up and streams its gap from the primary's
    /// retained oplog.
    pub fn set_partitioned(&mut self, i: usize, on: bool) {
        self.links[i].partitioned = on;
        let replica = i as u64;
        let events = self.primary.event_log();
        if on {
            events.record(Severity::Warn, EventKind::Partition { replica });
            self.transition(i, HealthTracker::partitioned);
        } else {
            events.record(Severity::Info, EventKind::Heal { replica });
            self.transition(i, HealthTracker::begin_catchup);
        }
    }

    /// Whether link `i` is cut.
    pub(crate) fn is_partitioned(&self, i: usize) -> bool {
        self.links[i].partitioned
    }

    /// Whether every replica has applied up to the primary's head.
    pub(crate) fn caught_up(&self) -> bool {
        let head = self.primary.oplog_next_lsn();
        self.links.iter().all(|l| l.applied_next >= head)
    }

    /// Health of link `i`.
    pub fn link_health(&self, i: usize) -> ReplicaHealth {
        self.links[i].health.state()
    }

    /// Every link's state in the core health model's vocabulary, in
    /// fan-out order — the `links` argument of
    /// [`DedupEngine::health`].
    pub fn link_states(&self) -> Vec<dbdedup_core::health::LinkState> {
        self.links.iter().map(|l| l.health.state().into()).collect()
    }

    /// The primary's aggregated health report, folding every replica
    /// link into the node-level verdict.
    pub fn health_report(&self) -> dbdedup_core::health::HealthReport {
        self.primary.health(&self.link_states())
    }

    /// Full anti-entropy passes forced by retention-floor gaps.
    pub fn full_resyncs(&self) -> u64 {
        self.full_resyncs
    }

    /// Pulls one frame of up to `max_bytes` of oplog into link `i`'s
    /// in-flight queue from its fetch cursor, keeping at most
    /// `queue_depth` entries in flight. `lost` is the transport: asked once
    /// per frame read, it says whether the frame is lost in transit.
    /// Backpressure and catch-up batches are counted on the primary; a
    /// cursor below the retention floor falls back to anti-entropy.
    pub(crate) fn fetch(
        &mut self,
        i: usize,
        max_bytes: usize,
        queue_depth: usize,
        lost: impl FnOnce() -> bool,
    ) -> Result<Fetch, EngineError> {
        let link = &self.links[i];
        if link.partitioned {
            return Ok(Fetch::Idle);
        }
        let catchup = link.health.state() == ReplicaHealth::CatchingUp;
        let replica = i as u64;
        let events = self.primary.event_log();
        let room = queue_depth.saturating_sub(link.queue.len());
        if room == 0 {
            self.primary.record_backpressure();
            events.record(Severity::Warn, EventKind::Backpressure { replica });
            return Ok(Fetch::Backpressured);
        }
        if link.fetch_next >= self.primary.oplog_next_lsn() {
            return Ok(Fetch::Idle);
        }
        let mut entries = match self.primary.oplog_entries_from(link.fetch_next, max_bytes) {
            Ok(entries) => entries,
            Err(CursorGap::TrimmedBelowFloor { .. }) => {
                self.full_resync(i)?;
                return Ok(Fetch::Resynced);
            }
        };
        if lost() {
            events.record(Severity::Warn, EventKind::TransportDrop { replica });
            return Ok(Fetch::Lost);
        }
        let clipped = entries.len() > room;
        if clipped {
            entries.truncate(room);
            self.primary.record_backpressure();
            events.record(Severity::Warn, EventKind::Backpressure { replica });
        }
        if entries.is_empty() {
            return Ok(Fetch::Idle);
        }
        if catchup {
            self.primary.record_catchup_batch();
            events.record(Severity::Info, EventKind::CatchupBatch { replica });
        }
        let clock = self.primary.telemetry_clock();
        let t_ship = clock.now();
        let frame = encode_batch(&entries);
        let st = &mut self.per_link[i];
        st.batches += 1;
        st.bytes += frame.len() as u64;
        st.entries += entries.len() as u64;
        let decoded = decode_batch(&frame).expect("self-encoded frame is valid");
        self.primary.record_stage_ns(Stage::ReplShip, span_ns(t_ship, clock.now()));
        let link = &mut self.links[i];
        link.fetch_next += decoded.len() as u64;
        link.queue.extend(decoded);
        Ok(Fetch::Queued { clipped, catchup })
    }

    /// Retention slid past link `i`'s fetch cursor: re-converges the
    /// replica by full anti-entropy and moves both cursors to the head.
    fn full_resync(&mut self, i: usize) -> Result<(), EngineError> {
        self.full_resyncs += 1;
        self.primary
            .event_log()
            .record(Severity::Warn, EventKind::FullResync { replica: i as u64 });
        self.links[i].queue.clear();
        let clock = self.primary.telemetry_clock();
        let report = anti_entropy_with_clock(&mut self.primary, &mut self.secondaries[i], &clock)?;
        self.per_link[i].bytes += report.shipped_bytes;
        let head = self.primary.oplog_next_lsn();
        let link = &mut self.links[i];
        link.fetch_next = head;
        link.applied_next = head;
        self.transition(i, HealthTracker::begin_catchup);
        Ok(())
    }

    /// Applies up to `max` of link `i`'s in-flight entries in LSN order,
    /// advancing the applied cursor past each one as it lands. An entry
    /// that fails stays at the head of the queue, so the next apply resumes
    /// with it and no entry is applied twice. Returns the entries applied.
    pub(crate) fn apply(&mut self, i: usize, max: usize) -> Result<u64, EngineError> {
        let link = &mut self.links[i];
        let secondary = &mut self.secondaries[i];
        let catchup = link.health.state() == ReplicaHealth::CatchingUp;
        let clock = self.primary.telemetry_clock();
        let t_apply = clock.now();
        let mut applied = 0u64;
        while applied < max as u64 {
            let Some(entry) = link.queue.front() else {
                break;
            };
            debug_assert_eq!(entry.lsn, link.applied_next, "in-flight queue out of LSN order");
            secondary.apply_oplog_entry(entry)?;
            link.applied_next += 1;
            link.queue.pop_front();
            applied += 1;
        }
        if catchup && applied > 0 {
            self.primary.record_stage_ns(Stage::CatchUp, span_ns(t_apply, clock.now()));
        }
        Ok(applied)
    }

    /// Crash-restarts replica `i`: its in-flight queue is lost and the
    /// fetch cursor rewinds to the applied one, so the next fetch re-reads
    /// exactly what was lost. Applied entries are durable on the replica.
    pub(crate) fn crash_restart(&mut self, i: usize) {
        let link = &mut self.links[i];
        link.queue.clear();
        link.fetch_next = link.applied_next;
        self.primary
            .event_log()
            .record(Severity::Warn, EventKind::CrashRestart { replica: i as u64 });
    }

    /// Observes every link's lag (driving its health state machine), then
    /// acknowledges the primary's oplog up to the slowest applied cursor.
    /// A partitioned link's stalled cursor is exactly what holds the
    /// retention window open for its eventual catch-up.
    pub(crate) fn settle(&mut self) {
        let head = self.primary.oplog_next_lsn();
        for i in 0..self.links.len() {
            let lag = head - self.links[i].applied_next;
            self.transition(i, |h| h.observe_lag(lag));
            self.primary.observe_replica_lag(lag);
        }
        // Everything fetched so far counts as shipped (eligible for
        // retention trimming) only now, after every reachable link pulled.
        let _ = self.primary.take_oplog_batch(usize::MAX);
        let slowest = self.links.iter().map(|l| l.applied_next).min().unwrap_or(head);
        self.primary.oplog_ack_shipped(slowest);
    }

    /// Ships pending oplog entries to every reachable secondary from its
    /// own cursor, in batches of up to 1 MiB applied in full, then
    /// settles. Returns the most entries applied on any single link.
    pub fn sync(&mut self) -> Result<u64, EngineError> {
        let mut best = 0u64;
        for i in 0..self.links.len() {
            let mut applied = 0u64;
            loop {
                let fetched = self.fetch(i, SYNC_BATCH_BYTES, usize::MAX, || false)?;
                applied += self.apply(i, usize::MAX)?;
                if !matches!(fetched, Fetch::Queued { .. }) {
                    break;
                }
            }
            best = best.max(applied);
        }
        self.settle();
        Ok(best)
    }

    /// Per-link network counters (one per secondary).
    pub fn link_stats(&self) -> &[NetworkStats] {
        &self.per_link
    }

    /// Total bytes across all links.
    pub fn total_network_bytes(&self) -> u64 {
        self.per_link.iter().map(|s| s.bytes).sum()
    }

    /// Flushes the write-back caches everywhere.
    pub fn flush_all(&mut self) -> Result<(), EngineError> {
        self.primary.flush_all_writebacks()?;
        for s in &mut self.secondaries {
            s.flush_all_writebacks()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::ids::RecordId;
    use dbdedup_workloads::{Op, Wikipedia};

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.min_benefit_bytes = 16;
        c
    }

    #[test]
    fn three_secondaries_converge_identically() {
        let mut set = ReplicaSet::open_temp(cfg(), 3).unwrap();
        let mut ids = Vec::new();
        for op in Wikipedia::insert_only(60, 3) {
            if let Op::Insert { id, data } = op {
                set.primary.insert("wikipedia", id, &data).unwrap();
                ids.push(id);
            }
        }
        set.sync().unwrap();
        set.flush_all().unwrap();
        let primary_bytes = set.primary.store().stored_payload_bytes();
        for (k, sec) in set.secondaries.iter_mut().enumerate() {
            assert_eq!(
                sec.store().stored_payload_bytes(),
                primary_bytes,
                "secondary {k} storage diverged"
            );
        }
        for id in ids {
            let want = set.primary.read(id).unwrap();
            for sec in &mut set.secondaries {
                assert_eq!(&sec.read(id).unwrap()[..], &want[..]);
            }
        }
    }

    #[test]
    fn updates_and_deletes_replicate() {
        let mut set = ReplicaSet::open_temp(cfg(), 1).unwrap();
        set.primary.insert("db", RecordId(1), &vec![b'x'; 5_000]).unwrap();
        set.primary.insert("db", RecordId(2), &vec![b'y'; 5_000]).unwrap();
        set.primary.update(RecordId(1), b"updated content").unwrap();
        set.primary.delete(RecordId(2)).unwrap();
        set.sync().unwrap();
        assert_eq!(&set.secondaries[0].read(RecordId(1)).unwrap()[..], b"updated content");
        assert!(set.secondaries[0].read(RecordId(2)).is_err());
    }

    #[test]
    fn network_traffic_is_compressed() {
        let mut set = ReplicaSet::open_temp(cfg(), 1).unwrap();
        let mut original = 0u64;
        for op in Wikipedia::insert_only(80, 3) {
            if let Op::Insert { id, data } = op {
                original += data.len() as u64;
                set.primary.insert("wikipedia", id, &data).unwrap();
            }
        }
        set.sync().unwrap();
        assert_eq!(set.link_stats()[0].entries, 80);
        let ratio = original as f64 / set.total_network_bytes() as f64;
        assert!(ratio > 3.0, "network compression ratio {ratio:.2}");
    }

    #[test]
    fn fanout_pays_traffic_per_link() {
        let mut set = ReplicaSet::open_temp(cfg(), 2).unwrap();
        set.primary.insert("db", RecordId(1), &vec![7u8; 20_000]).unwrap();
        set.sync().unwrap();
        let links = set.link_stats();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].bytes, links[1].bytes, "same frames on every link");
        assert_eq!(set.total_network_bytes(), links[0].bytes * 2);
    }

    #[test]
    fn incremental_fanout() {
        let mut set = ReplicaSet::open_temp(cfg(), 2).unwrap();
        for i in 0..5u64 {
            set.primary.insert("db", RecordId(i), &vec![i as u8; 5_000]).unwrap();
            set.sync().unwrap();
        }
        assert_eq!(set.sync().unwrap(), 0);
        for sec in &mut set.secondaries {
            assert_eq!(sec.store().len(), 5);
        }
    }

    #[test]
    fn partitioned_link_catches_up_from_cursor() {
        let mut set = ReplicaSet::open_temp(cfg(), 2).unwrap();
        let mut ids = Vec::new();
        let ops: Vec<_> = Wikipedia::insert_only(30, 4).collect();
        // First third replicates everywhere.
        for op in &ops[..10] {
            if let Op::Insert { id, data } = op {
                set.primary.insert("wikipedia", *id, data).unwrap();
                ids.push(*id);
            }
        }
        set.sync().unwrap();
        // Partition link 1 mid-workload; link 0 keeps replicating.
        set.set_partitioned(1, true);
        assert_eq!(set.link_health(1), ReplicaHealth::Partitioned);
        for op in &ops[10..] {
            if let Op::Insert { id, data } = op {
                set.primary.insert("wikipedia", *id, data).unwrap();
                ids.push(*id);
            }
        }
        set.sync().unwrap();
        assert_eq!(set.secondaries[0].store().len(), 30);
        assert_eq!(set.secondaries[1].store().len(), 10, "partitioned link frozen");
        // Heal: the link streams its gap from the retained cursor window —
        // no full resync.
        set.set_partitioned(1, false);
        assert_eq!(set.link_health(1), ReplicaHealth::CatchingUp);
        set.sync().unwrap();
        assert_eq!(set.link_health(1), ReplicaHealth::Healthy);
        assert_eq!(set.full_resyncs(), 0, "catch-up must suffice");
        set.flush_all().unwrap();
        for id in &ids {
            let want = set.primary.read(*id).unwrap();
            for sec in &mut set.secondaries {
                assert_eq!(&sec.read(*id).unwrap()[..], &want[..], "record {id}");
            }
        }
        let m = set.primary.metrics();
        assert!(m.catchup_batches > 0, "gap must ship via catch-up batches");
        assert!(m.health_transitions >= 3, "Healthy→Partitioned→CatchingUp→Healthy");
        assert!(m.max_replica_lag >= 20, "lag observed while partitioned");
        // The whole incident is reconstructible from the primary's event
        // log: cut, heal, catch-up traffic, and each health transition.
        let log = set.primary.event_log();
        assert_eq!(log.of_kind("partition").len(), 1);
        assert_eq!(log.of_kind("heal").len(), 1);
        assert!(!log.of_kind("catchup_batch").is_empty());
        assert!(log.of_kind("health_transition").len() as u64 >= 3);
        // Ship latency lands in the primary's stage table.
        assert!(set.primary.stage_timings().get(Stage::ReplShip).count() > 0);
    }

    /// Inserts `n` unrelated 2 KB records on the primary.
    fn insert_raw_docs(set: &mut ReplicaSet, n: u64) {
        for i in 0..n {
            let doc: Vec<u8> = (0..2_000).map(|k| (k * 7 + i as usize * 13) as u8 | 1).collect();
            set.primary.insert("db", RecordId(i), &doc).unwrap();
        }
    }

    fn assert_converged(set: &mut ReplicaSet) {
        for id in set.primary.live_record_ids() {
            let want = set.primary.read(id).unwrap();
            for sec in &mut set.secondaries {
                assert_eq!(&sec.read(id).unwrap()[..], &want[..], "record {id}");
            }
        }
    }

    #[test]
    fn full_queue_backpressures_without_losing_an_entry() {
        let mut set = ReplicaSet::open_temp(cfg(), 1).unwrap();
        insert_raw_docs(&mut set, 6);
        // Room for two in flight: the frame is clipped, then refused.
        let got = set.fetch(0, usize::MAX, 2, || false).unwrap();
        assert_eq!(got, Fetch::Queued { clipped: true, catchup: false });
        assert_eq!(set.fetch(0, usize::MAX, 2, || false).unwrap(), Fetch::Backpressured);
        assert_eq!(set.primary.metrics().backpressure_events, 2);
        assert_eq!(set.link_stats()[0].entries, 2, "a refused fetch ships nothing");
        // Applying makes room; the rest follows from the fetch cursor.
        while set.apply(0, usize::MAX).unwrap() > 0 {
            set.fetch(0, usize::MAX, 2, || false).unwrap();
        }
        assert!(set.caught_up());
        assert_eq!(set.secondaries[0].store().len(), 6);
        assert_converged(&mut set);
    }

    #[test]
    fn lost_frame_and_crash_restart_refetch_from_the_cursors() {
        let mut set = ReplicaSet::open_temp(cfg(), 1).unwrap();
        insert_raw_docs(&mut set, 4);
        assert_eq!(set.fetch(0, usize::MAX, 8, || true).unwrap(), Fetch::Lost);
        assert_eq!(set.link_stats()[0].batches, 0, "a lost frame is not counted shipped");
        assert!(matches!(set.fetch(0, 4_000, 8, || false).unwrap(), Fetch::Queued { .. }));
        assert_eq!(set.apply(0, 1).unwrap(), 1);
        // The crash loses the queued entry; the next fetch re-reads it.
        set.crash_restart(0);
        assert_eq!(set.apply(0, usize::MAX).unwrap(), 0, "nothing left in flight");
        set.sync().unwrap();
        assert_eq!(set.secondaries[0].metrics().unique_inserts, 4, "each entry applied once");
        let log = set.primary.event_log();
        assert_eq!(log.of_kind("transport_drop").len(), 1);
        assert_eq!(log.of_kind("crash_restart").len(), 1);
        assert_converged(&mut set);
    }

    #[test]
    fn health_report_folds_link_states_into_node_verdict() {
        use dbdedup_core::health::{LinkState, Verdict};
        let mut set = ReplicaSet::open_temp(cfg(), 2).unwrap();
        set.primary.insert("db", RecordId(1), &vec![9u8; 4_000]).unwrap();
        set.sync().unwrap();
        assert_eq!(set.link_states(), vec![LinkState::Healthy, LinkState::Healthy]);
        assert_eq!(set.health_report().verdict, Verdict::Ready);
        // One partitioned link degrades; both pull the node from rotation.
        set.set_partitioned(0, true);
        let r = set.health_report();
        assert_eq!(r.verdict, Verdict::Degraded);
        assert!(r.ready());
        set.set_partitioned(1, true);
        let r = set.health_report();
        assert_eq!(r.verdict, Verdict::Unready);
        assert!(!r.ready());
        // Healing re-enters catch-up (degraded), then sync restores Ready.
        set.set_partitioned(0, false);
        set.set_partitioned(1, false);
        assert_eq!(set.health_report().verdict, Verdict::Degraded);
        set.sync().unwrap();
        assert_eq!(set.health_report().verdict, Verdict::Ready);
    }

    #[test]
    fn trimmed_cursor_falls_back_to_full_resync() {
        // Tiny retention: while link 1 is partitioned, the window slides
        // past its cursor, so healing cannot replay the gap and the set
        // must fall back to anti-entropy — and still converge.
        let mut c = cfg();
        c.oplog_retain_bytes = 2_000;
        let mut set = ReplicaSet::open_temp(c, 2).unwrap();
        let ops: Vec<_> = Wikipedia::insert_only(20, 5).collect();
        let mut ids = Vec::new();
        for op in &ops[..5] {
            if let Op::Insert { id, data } = op {
                set.primary.insert("wikipedia", *id, data).unwrap();
                ids.push(*id);
            }
        }
        set.sync().unwrap();
        set.set_partitioned(1, true);
        for op in &ops[5..] {
            if let Op::Insert { id, data } = op {
                set.primary.insert("wikipedia", *id, data).unwrap();
                ids.push(*id);
            }
        }
        set.sync().unwrap();
        set.set_partitioned(1, false);
        set.sync().unwrap();
        assert!(set.full_resyncs() >= 1, "trimmed window forces resync");
        set.flush_all().unwrap();
        for id in &ids {
            let want = set.primary.read(*id).unwrap();
            assert_eq!(&set.secondaries[1].read(*id).unwrap()[..], &want[..]);
        }
    }
}
