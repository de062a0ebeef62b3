//! Telemetry, health and the metrics snapshot: counters the replication
//! layer bumps, the stage tracer's and flight recorder's plumbing, and the
//! two read-outs — [`DedupEngine::health`] and [`DedupEngine::metrics`].

use super::DedupEngine;
use crate::health::{self, HealthInputs, HealthReport, HealthThresholds, LinkState};
use crate::metrics::MetricsSnapshot;
use dbdedup_obs::{EventLog, FlightRecorder, Stage, StageSet};
use dbdedup_util::time::Clock;
use std::sync::Arc;

impl DedupEngine {
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
            gc_backlog: self.gc_backlog_len() as u64,
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
            reads_decoded: self.metrics.read_retrievals.count(),
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
            maint_gc_backlog: self.gc_backlog_len() as u64,
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
    use super::super::testkit::{engine, versioned_docs};
    use super::*;
    use dbdedup_util::ids::RecordId;

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
}
