//! Replica sets: one primary fanning its oplog out to N secondaries —
//! the "distributed databases replicated across geographical regions"
//! deployment the paper's introduction motivates. Every secondary receives
//! the same forward-encoded batches, so replication traffic is paid once
//! per replica but the dedup encoding cost is paid once, on the primary.
//!
//! Each link keeps its own *oplog cursor* (the next LSN its replica will
//! apply) and pulls batches via [`DedupEngine::oplog_entries_from`], so a
//! partitioned or lagging replica simply stops advancing its cursor and
//! streams the gap when it returns — no other link is held back, and the
//! primary trims retention only below the slowest cursor. A cursor that
//! falls below the retention floor triggers the full anti-entropy fallback
//! (the decision table in DESIGN.md §7.2).

use crate::health::{HealthTracker, ReplicaHealth};
use crate::resync::anti_entropy;
use dbdedup_core::{DedupEngine, EngineConfig, EngineError};
use dbdedup_obs::{EventKind, Severity, Stage};
use dbdedup_storage::oplog::{decode_batch, encode_batch, CursorGap};

/// Nanoseconds elapsed since `t0`, saturated into a `u64`.
fn elapsed_ns(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Lag (oplog entries) past which a link is declared `Lagging`.
const DEFAULT_LAG_THRESHOLD: u64 = 64;

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

/// A primary plus N secondaries joined by byte-counted in-process links.
pub struct ReplicaSet {
    /// The write-serving node.
    pub primary: DedupEngine,
    /// The replicas, in fan-out order.
    pub secondaries: Vec<DedupEngine>,
    batch_budget: usize,
    per_link: Vec<NetworkStats>,
    /// Next LSN each secondary will apply.
    cursors: Vec<u64>,
    /// Links currently unreachable (no traffic flows).
    partitioned: Vec<bool>,
    health: Vec<HealthTracker>,
    full_resyncs: u64,
}

impl ReplicaSet {
    /// Joins engines the caller opened, over stores and oplogs of its
    /// choosing. Every link's cursor starts at LSN 0, where a new oplog
    /// starts: a secondary is taken to have applied nothing yet.
    pub fn new(primary: DedupEngine, secondaries: Vec<DedupEngine>) -> Self {
        let n = secondaries.len();
        assert!(n >= 1, "a replica set needs at least one secondary");
        Self {
            primary,
            secondaries,
            batch_budget: 1 << 20,
            per_link: vec![NetworkStats::default(); n],
            cursors: vec![0; n],
            partitioned: vec![false; n],
            health: (0..n).map(|_| HealthTracker::new(DEFAULT_LAG_THRESHOLD)).collect(),
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

    /// Cuts or restores link `i`. While cut, `sync` skips the link; on
    /// restore the replica enters catch-up and streams its gap from the
    /// primary's retained oplog.
    pub fn set_partitioned(&mut self, i: usize, on: bool) {
        self.partitioned[i] = on;
        let from = self.health[i].state();
        let changed =
            if on { self.health[i].partitioned() } else { self.health[i].begin_catchup() };
        let events = self.primary.event_log();
        if on {
            events.record(Severity::Warn, EventKind::Partition { replica: i as u64 });
        } else {
            events.record(Severity::Info, EventKind::Heal { replica: i as u64 });
        }
        if changed {
            self.primary.record_health_transition();
            events.record(
                Severity::Info,
                EventKind::HealthTransition {
                    replica: i as u64,
                    from: from.name(),
                    to: self.health[i].state().name(),
                },
            );
        }
    }

    /// Health of link `i`.
    pub fn link_health(&self, i: usize) -> ReplicaHealth {
        self.health[i].state()
    }

    /// Every link's state in the core health model's vocabulary, in
    /// fan-out order — the `links` argument of
    /// [`DedupEngine::health`].
    pub fn link_states(&self) -> Vec<dbdedup_core::health::LinkState> {
        self.health.iter().map(|h| h.state().into()).collect()
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

    /// Ships pending oplog entries to every reachable secondary from its
    /// own cursor. Returns the most entries applied on any single link.
    pub fn sync(&mut self) -> Result<u64, EngineError> {
        let head = self.primary.oplog_next_lsn();
        let mut best = 0u64;
        for i in 0..self.secondaries.len() {
            if self.partitioned[i] {
                let lag = head - self.cursors[i];
                self.primary.observe_replica_lag(lag);
                continue;
            }
            best = best.max(self.pump_link(i, head)?);
        }
        // Only after every reachable link has pulled do the entries count
        // as shipped (which makes them eligible for retention trimming) —
        // marking them earlier could trim entries a healthy link had not
        // read yet. Then acknowledge up to the slowest cursor; a
        // partitioned link's stalled cursor is exactly what holds the
        // retention window open for its eventual catch-up.
        let _ = self.primary.take_oplog_batch(usize::MAX);
        if let Some(&min) = self.cursors.iter().min() {
            self.primary.oplog_ack_shipped(min);
        }
        Ok(best)
    }

    /// Advances link `i` from its cursor to `head`, one budgeted batch at
    /// a time. Falls back to full anti-entropy when the cursor is below
    /// the retention floor.
    fn pump_link(&mut self, i: usize, head: u64) -> Result<u64, EngineError> {
        let mut applied = 0u64;
        let catching_up = self.health[i].state() == ReplicaHealth::CatchingUp;
        let events = self.primary.event_log();
        while self.cursors[i] < head {
            let entries = match self.primary.oplog_entries_from(self.cursors[i], self.batch_budget)
            {
                Ok(entries) => entries,
                Err(CursorGap::TrimmedBelowFloor { .. }) => {
                    // The gap predates the retention window: only a full
                    // checksum walk can re-converge this replica.
                    self.full_resyncs += 1;
                    events.record(Severity::Warn, EventKind::FullResync { replica: i as u64 });
                    let report = anti_entropy(&mut self.primary, &mut self.secondaries[i])?;
                    self.per_link[i].bytes += report.shipped_bytes;
                    self.cursors[i] = head;
                    break;
                }
            };
            if entries.is_empty() {
                break;
            }
            let t_ship = std::time::Instant::now();
            let frame = encode_batch(&entries);
            let st = &mut self.per_link[i];
            st.batches += 1;
            st.bytes += frame.len() as u64;
            st.entries += entries.len() as u64;
            if catching_up {
                self.primary.record_catchup_batch();
                events.record(Severity::Info, EventKind::CatchupBatch { replica: i as u64 });
            }
            let decoded = decode_batch(&frame).expect("self-encoded frame is valid");
            self.primary.record_stage_ns(Stage::ReplShip, elapsed_ns(t_ship));
            let t_apply = std::time::Instant::now();
            let sec = &mut self.secondaries[i];
            for entry in &decoded {
                sec.apply_oplog_entry(entry)?;
            }
            if catching_up {
                self.primary.record_stage_ns(Stage::CatchUp, elapsed_ns(t_apply));
            }
            self.cursors[i] += decoded.len() as u64;
            applied += decoded.len() as u64;
        }
        let lag = head - self.cursors[i];
        self.primary.observe_replica_lag(lag);
        let from = self.health[i].state();
        if self.health[i].observe_lag(lag) {
            self.primary.record_health_transition();
            events.record(
                Severity::Info,
                EventKind::HealthTransition {
                    replica: i as u64,
                    from: from.name(),
                    to: self.health[i].state().name(),
                },
            );
        }
        Ok(applied)
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
