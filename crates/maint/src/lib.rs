//! # dbdedup-maint
//!
//! The online maintenance tier: the background work dbDedup's foreground
//! path defers so inserts and reads stay fast (§4.1 discusses the GC; the
//! bounded-pause compaction generalizes the host store's space reclaim).
//!
//! A [`Maintainer`] owns no data — it schedules bounded slices of six
//! engine-side task types against a [`DedupEngine`], in the order a
//! [`tick`](Maintainer::tick) runs them:
//!
//! 1. **Retention** — an optional policy capping how many versions a
//!    chain keeps behind its head; retired versions are deleted locally
//!    and flow through the GC path below.
//! 2. **Chain GC** — deleted records pinned in the store because live
//!    dependents decode through them. The read path splices these out
//!    opportunistically, but cold chains are never read; the maintainer
//!    takes the head of the backlog ([`DedupEngine::gc_backlog_head`]) and
//!    re-encodes dependents so the tombstoned content can be physically
//!    removed.
//! 3. **Out-of-line re-dedup** — records admitted raw while the
//!    replication-pressure gate sheds dedup encoding stay compressible;
//!    the maintainer drains the engine's degraded backlog
//!    ([`DedupEngine::degraded_backlog_ids`]) through
//!    [`DedupEngine::rededup_record`], recovering the lost compression
//!    after the burst. A drained backlog converges to the same storage
//!    state a never-degraded run produces (the engine's convergence-parity
//!    property).
//! 4. **Incremental compaction** — superseded segment frames are
//!    reclaimed one budgeted [`DedupEngine::compact_step`] at a time
//!    (copy-forward of live frames, then remove the segment), instead of a
//!    stop-the-world segment rewrite. A tick starts a segment only once
//!    [`MaintConfig::compact_trigger_ratio`] of it is dead, choosing by
//!    cost and benefit, so it copies little to free a lot. A step walks
//!    the segment's per-segment view, not its bytes: dead frames are
//!    booked without being read, and the budget pays for reading and
//!    writing the frames that survive. It follows re-dedup because each
//!    rewrite supersedes a raw frame: dead space the same tick can start
//!    on.
//! 5. **Tiered-index run merging** — the memory-bounded feature index
//!    spills cold entries into immutable on-disk runs; the maintainer
//!    merges them pairwise ([`DedupEngine::index_merge_step`]) toward the
//!    per-partition target so a cold lookup stays a single Bloom-gated
//!    probe. Runs are derived local files, so merging is oplog-silent by
//!    construction.
//! 6. **Integrity scrub** — a budgeted verified walk of the store behind
//!    a persistent cursor ([`DedupEngine::scrub_slice`]): frame checksums
//!    re-read past the block cache, chain decodability back to the root,
//!    and index ↔ store ↔ backlog consistency. Damage is quarantined and
//!    healed in place — locally when the content survives in memory,
//!    from an attached [`RepairSource`] otherwise — and a record no
//!    source can supply is escalated in a typed [`ScrubReport`] rather
//!    than panicking or silently vanishing. Last, so that it verifies the
//!    tick's own rewrites.
//!
//! Every slice is bounded in **bytes or items, never in time**: what a tick
//! does is a function of the engine's state alone, so two runs of one seed
//! write the same segments whatever the machine's speed. And every slice
//! costs what it processes, not what the store holds: the backlogs are
//! ordered sets kept by the chain manager, and the store finds a segment's
//! live frames in a per-segment ordered view (see `DESIGN.md` §9, "What a
//! tick costs").
//!
//! Everything here is **local-only**: re-encoding, compaction, retention,
//! and repair never touch the oplog, so replicas converge regardless of
//! when (or whether) each node runs maintenance. Scheduling is
//! deterministic — sorted work lists, no clocks, no randomness — so the
//! deterministic replication simulator can interleave maintenance ticks
//! and still produce byte-identical traces per seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dbdedup_core::{DedupEngine, EngineError, RepairSource, ScrubSlice};
use dbdedup_storage::CompactStats;
use dbdedup_util::ids::RecordId;

/// Tuning for the maintenance scheduler. Defaults are conservative:
/// small per-tick budgets that keep foreground pauses bounded.
#[derive(Debug, Clone)]
pub struct MaintConfig {
    /// Share of a sealed segment's bytes that must be dead before a tick
    /// starts compacting it (the floor of [`DedupEngine::compact_step`]).
    /// Among the segments over it a tick picks by cost and benefit, and it
    /// finishes a segment before starting another. Dead bytes under the
    /// floor, and in the active segment, wait for more to die or for
    /// [`Maintainer::run_until_quiesced`], which drains everything. At 0
    /// every tick is a slice of that drain.
    pub compact_trigger_ratio: f64,
    /// Bytes one compaction step reads plus the bytes it writes, with a
    /// small fixed charge per dead frame (booked, never read) — the knob
    /// bounding how long one tick can stall the foreground. Since a step
    /// reads and writes only the frames it keeps, a mostly-dead victim
    /// moves many budgets' worth of segment per step.
    pub compact_budget_bytes: u64,
    /// Deleted records spliced out per tick.
    pub gc_per_tick: usize,
    /// Cap on versions kept behind each chain head; `None` disables the
    /// retention task (the default — retention is an opt-in policy).
    pub max_tail_versions: Option<u64>,
    /// Versions retired per tick when retention is enabled.
    pub retire_per_tick: usize,
    /// Overload-degraded records re-deduplicated per tick. Each one
    /// replays the full sketch → lookup → encode pipeline, so this is the
    /// CPU-heaviest slice; the default keeps it small.
    pub rededup_per_tick: usize,
    /// Skip maintenance ticks while the replication-pressure gate is
    /// raised, so background I/O never competes with an overloaded
    /// ingest path.
    pub pause_under_pressure: bool,
    /// Segment bytes checksum-verified per tick by the integrity scrub
    /// (0 disables the in-tick scrub slice). The scrub cursor wraps
    /// forever, so this tier never gates [`Maintainer::quiesced`].
    pub scrub_budget_bytes: u64,
    /// Cold-tier feature-run bytes (read + written) processed per tick by
    /// the tiered-index run merger. Whenever any backlog exists at least
    /// one pair is merged, so progress is guaranteed; 0 keeps that
    /// minimum-one-pair behavior with the smallest possible slice.
    pub index_merge_budget_bytes: u64,
}

impl Default for MaintConfig {
    fn default() -> Self {
        Self {
            compact_trigger_ratio: 0.25,
            compact_budget_bytes: 320 * 1024,
            gc_per_tick: 4,
            max_tail_versions: None,
            retire_per_tick: 4,
            rededup_per_tick: 4,
            pause_under_pressure: true,
            scrub_budget_bytes: 64 * 1024,
            index_merge_budget_bytes: 256 * 1024,
        }
    }
}

/// What one maintenance tick accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// Deleted records the GC task processed.
    pub gc_records: u64,
    /// Dependents re-encoded while splicing them out.
    pub reencoded: u64,
    /// Versions retired by the retention task.
    pub retired: u64,
    /// Overload-degraded records processed by the re-dedup task.
    pub rededuped: u64,
    /// Compaction progress this tick.
    pub compact: CompactStats,
    /// Frames the in-tick scrub slice verified clean.
    pub scrub_verified: u64,
    /// Damaged frames the scrub slice detected (and quarantined).
    pub scrub_corrupt: u64,
    /// Damaged records the scrub slice healed (locally or from a source).
    pub scrub_healed: u64,
    /// Records escalated as unhealable (quarantined, broken-marked; the
    /// anti-entropy resync retries them from its priority work-list).
    pub scrub_unhealable: u64,
    /// Cold-tier feature runs merged away by the tiered-index task.
    pub index_runs_merged: u64,
    /// Entries those merges rewrote into consolidated runs.
    pub index_merged_entries: u64,
    /// The tick was skipped because the replication-pressure gate was up.
    pub paused: bool,
}

impl TickReport {
    /// Whether the tick did any backlog work at all. The steady-state
    /// scrub slice intentionally doesn't count: its cursor wraps forever,
    /// so verification alone must not make a drained engine look busy.
    pub fn is_idle(&self) -> bool {
        self.gc_records == 0
            && self.retired == 0
            && self.rededuped == 0
            && self.compact.is_noop()
            && self.scrub_corrupt == 0
            && self.index_runs_merged == 0
            && !self.paused
    }
}

/// Summary of one full scrub pass (cursor wrap) over the store.
#[must_use = "the scrub report carries unhealable-record escalations; dropping it loses them"]
#[derive(Debug, Default, Clone)]
pub struct ScrubReport {
    /// Bounded slices it took to wrap the cursor once.
    pub slices: u64,
    /// Aggregated tallies across those slices, including the typed list
    /// of records no source could supply.
    pub totals: ScrubSlice,
}

impl ScrubReport {
    /// Whether the pass found no damage and no drift at all.
    pub fn is_clean(&self) -> bool {
        self.totals.is_clean()
    }
}

/// Summary of a full [`Maintainer::run_until_quiesced`] drain.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QuiesceReport {
    /// Passes over the backlog before quiescence.
    pub iterations: u64,
    /// Total dependents re-encoded.
    pub reencoded: u64,
    /// Total versions retired.
    pub retired: u64,
    /// Total overload-degraded records re-deduplicated.
    pub rededuped: u64,
    /// Total compaction work.
    pub compact: CompactStats,
    /// Total cold-tier feature runs merged away.
    pub index_runs_merged: u64,
    /// Deleted records skipped because corruption broke their chains
    /// (they stay in the backlog for anti-entropy repair to resolve).
    pub skipped_broken: Vec<RecordId>,
}

/// The background maintenance scheduler. See the crate docs for the task
/// types; [`tick`](Self::tick) runs one bounded slice of each, and
/// [`pump`](Self::pump) piggybacks a tick on the engine's writeback pump
/// so embedders keep a single periodic call.
#[derive(Debug)]
pub struct Maintainer {
    cfg: MaintConfig,
    ticks: u64,
    paused_ticks: u64,
}

impl Maintainer {
    /// Creates a scheduler with the given tuning.
    pub fn new(cfg: MaintConfig) -> Self {
        Self { cfg, ticks: 0, paused_ticks: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> &MaintConfig {
        &self.cfg
    }

    /// Ticks run so far (including paused ones).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks skipped because the replication-pressure gate was raised.
    pub fn paused_ticks(&self) -> u64 {
        self.paused_ticks
    }

    /// Whether the engine has no maintenance work left for a tick: the GC
    /// backlog is empty, no overload-degraded record still awaits
    /// out-of-line re-dedup, no compaction victim is in progress or over
    /// [`MaintConfig::compact_trigger_ratio`], and the tiered index's cold
    /// runs are merged down to the per-partition target. Dead bytes under
    /// the floor (or in the active segment) are left to accumulate;
    /// [`run_until_quiesced`](Self::run_until_quiesced) reclaims them too.
    pub fn quiesced(&self, engine: &DedupEngine) -> bool {
        engine.gc_backlog_len() == 0
            && engine.degraded_backlog_len() == 0
            && !engine.compaction_due(self.cfg.compact_trigger_ratio)
            && engine.index_merge_backlog() == 0
    }

    /// Runs one bounded maintenance tick — the six tasks of the crate docs,
    /// in their order: retention, chain GC, out-of-line re-dedup, at most
    /// one budgeted compaction step, one budgeted index-run merge slice,
    /// one budgeted scrub slice. Each task's slice is capped by the config
    /// in items or bytes, so a tick's foreground impact is bounded no
    /// matter how much backlog has accumulated, and an idle tick looks at
    /// backlog *lengths* only. (Re-dedup runs before compaction because
    /// each rewrite supersedes a raw frame — dead space the same tick's
    /// compaction step can start reclaiming; scrub runs last so that it
    /// verifies this tick's rewrites too.)
    pub fn tick(&mut self, engine: &mut DedupEngine) -> Result<TickReport, EngineError> {
        self.ticks += 1;
        let mut report = TickReport::default();
        if self.cfg.pause_under_pressure && engine.replication_pressure() {
            self.paused_ticks += 1;
            report.paused = true;
            return Ok(report);
        }
        if let Some(max_tail) = self.cfg.max_tail_versions {
            report.retired =
                engine.retire_tail_versions(max_tail, self.cfg.retire_per_tick)?.len() as u64;
        }
        for id in engine.gc_backlog_head(self.cfg.gc_per_tick) {
            match engine.gc_record(id) {
                Ok(n) => {
                    report.gc_records += 1;
                    report.reencoded += n;
                }
                // A corruption-broken chain is anti-entropy's problem; GC
                // leaves it pinned rather than erroring the whole tick.
                Err(EngineError::ChainBroken { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        for id in engine.degraded_backlog_ids().into_iter().take(self.cfg.rededup_per_tick) {
            engine.rededup_record(id)?;
            report.rededuped += 1;
        }
        let floor = self.cfg.compact_trigger_ratio;
        if engine.compaction_due(floor) {
            report.compact = engine.compact_step(self.cfg.compact_budget_bytes, floor)?;
        }
        if engine.index_merge_backlog() > 0 {
            let merged = engine.index_merge_step(self.cfg.index_merge_budget_bytes)?;
            report.index_runs_merged = merged.runs_merged;
            report.index_merged_entries = merged.entries_written;
        }
        // Steady-state integrity scrub, last so it verifies this tick's
        // rewrites too. No repair source is attached here: damage heals
        // locally when possible, and anything else is escalated onto the
        // engine's broken list for resync (or a replica-attached
        // [`scrub_pass`](Self::scrub_pass)) to repair.
        if self.cfg.scrub_budget_bytes > 0 {
            let slice = engine.scrub_slice(self.cfg.scrub_budget_bytes, None)?;
            report.scrub_verified = slice.verified;
            report.scrub_corrupt = slice.corrupt;
            report.scrub_healed = slice.healed_local + slice.healed_replica;
            report.scrub_unhealable = slice.unhealable.len() as u64;
        }
        Ok(report)
    }

    /// Runs one full scrub pass (until the store cursor wraps) in bounded
    /// slices, healing through `repair` when local reconstruction fails.
    /// Pass `None::<&mut DedupEngine>` (or use
    /// [`scrub_pass_local`](Self::scrub_pass_local)) to scrub without an
    /// authoritative source.
    pub fn scrub_pass<R: RepairSource>(
        &mut self,
        engine: &mut DedupEngine,
        mut repair: Option<&mut R>,
    ) -> Result<ScrubReport, EngineError> {
        let budget = self.cfg.scrub_budget_bytes.max(1);
        let mut report = ScrubReport::default();
        loop {
            let slice = engine
                .scrub_slice(budget, repair.as_deref_mut().map(|r| r as &mut dyn RepairSource))?;
            report.slices += 1;
            let done = slice.pass_complete;
            report.totals.merge(&slice);
            if done {
                return Ok(report);
            }
        }
    }

    /// [`scrub_pass`](Self::scrub_pass) with no repair source: damage
    /// heals locally or is escalated.
    pub fn scrub_pass_local(
        &mut self,
        engine: &mut DedupEngine,
    ) -> Result<ScrubReport, EngineError> {
        self.scrub_pass(engine, None::<&mut DedupEngine>)
    }

    /// Scrubs until a full pass comes back clean — damage found on one
    /// pass is healed in place, and the follow-up pass proves the store
    /// converged — or until `max_passes` passes ran. Escalated records
    /// leave the store between passes (quarantined), so this terminates
    /// even when some damage is unhealable; the last report's
    /// `totals.unhealable` carries what was given up on.
    pub fn scrub_until_clean<R: RepairSource>(
        &mut self,
        engine: &mut DedupEngine,
        mut repair: Option<&mut R>,
        max_passes: u64,
    ) -> Result<ScrubReport, EngineError> {
        let mut last = ScrubReport::default();
        for _ in 0..max_passes.max(1) {
            let report = self.scrub_pass(engine, repair.as_deref_mut())?;
            let clean = report.is_clean();
            last.slices += report.slices;
            last.totals.merge(&report.totals);
            if clean {
                return Ok(last);
            }
        }
        Ok(last)
    }

    /// The embedder's single periodic call: advances the engine's I/O
    /// clock and flushes writebacks while the device is idle (exactly
    /// [`DedupEngine::pump`]), then runs one maintenance tick. Returns
    /// (writebacks flushed, tick report).
    pub fn pump(
        &mut self,
        engine: &mut DedupEngine,
        seconds: f64,
        max_flushes: usize,
    ) -> Result<(usize, TickReport), EngineError> {
        let flushed = engine.pump(seconds, max_flushes)?;
        let report = self.tick(engine)?;
        Ok((flushed, report))
    }

    /// Drains every maintenance backlog: loops retention + GC + compaction
    /// (ignoring per-tick budgets' pacing but not their safety) until the
    /// engine is [`quiesced`](Self::quiesced) or no further progress is
    /// possible (e.g. every remaining backlog entry is corruption-broken).
    /// The pressure pause is intentionally *not* honored here — callers
    /// asking for a full drain want it unconditionally.
    pub fn run_until_quiesced(
        &mut self,
        engine: &mut DedupEngine,
    ) -> Result<QuiesceReport, EngineError> {
        let mut report = QuiesceReport::default();
        loop {
            report.iterations += 1;
            let mut progress = false;
            if let Some(max_tail) = self.cfg.max_tail_versions {
                let retired = engine.retire_tail_versions(max_tail, usize::MAX)?;
                report.retired += retired.len() as u64;
                progress |= !retired.is_empty();
            }
            report.skipped_broken.clear();
            for id in engine.gc_backlog_ids() {
                match engine.gc_record(id) {
                    Ok(n) => {
                        report.reencoded += n;
                        progress = true;
                    }
                    Err(EngineError::ChainBroken { .. }) => report.skipped_broken.push(id),
                    Err(e) => return Err(e),
                }
            }
            for id in engine.degraded_backlog_ids() {
                let before = engine.degraded_backlog_len();
                engine.rededup_record(id)?;
                if engine.degraded_backlog_len() < before {
                    report.rededuped += 1;
                    progress = true;
                }
            }
            while engine.reclaimable_dead_bytes() > 0 {
                let stats = engine.compact_step(self.cfg.compact_budget_bytes, 0.0)?;
                if stats.is_noop() {
                    break;
                }
                report.compact.merge(stats);
                progress = true;
            }
            while engine.index_merge_backlog() > 0 {
                let merged = engine.index_merge_step(self.cfg.index_merge_budget_bytes)?;
                if merged.is_noop() {
                    break;
                }
                report.index_runs_merged += merged.runs_merged;
                progress = true;
            }
            // What is left of the backlog is drained as far as it can be
            // when all of it was skipped as broken this pass. (A skipped id
            // can since have left the backlog: removals cascade to bases.)
            let still_broken =
                report.skipped_broken.iter().filter(|&&id| engine.chains().is_deleted(id)).count();
            if engine.gc_backlog_len() == still_broken
                && engine.degraded_backlog_len() == 0
                && engine.reclaimable_dead_bytes() == 0
                && engine.index_merge_backlog() == 0
            {
                return Ok(report);
            }
            if !progress {
                // Nothing moved and work remains: surface it rather than
                // spinning (should be unreachable outside fault tests).
                return Ok(report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_core::EngineConfig;
    use dbdedup_util::dist::SplitMix64;

    fn engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::open_temp(cfg).expect("temp engine")
    }

    fn versioned_docs(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(seed);
        let mut doc: Vec<u8> = (0..10_000).map(|_| (rng.next_u64() % 26 + 97) as u8).collect();
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
    fn quiesce_reclaims_all_tombstoned_records() {
        let mut e = engine();
        let docs = versioned_docs(10, 1);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for i in [1u64, 3, 5, 7] {
            e.delete(RecordId(i)).unwrap();
        }
        assert!(!e.gc_backlog_ids().is_empty(), "deletes should pin mid-chain records");
        let mut m = Maintainer::new(MaintConfig::default());
        let report = m.run_until_quiesced(&mut e).unwrap();
        assert!(m.quiesced(&e));
        assert!(report.reencoded > 0, "{report:?}");
        assert!(report.skipped_broken.is_empty());
        assert_eq!(e.pinned_dead_bytes(), 0);
        for i in [0u64, 2, 4, 6, 8, 9] {
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
        }
    }

    #[test]
    fn ticks_bound_gc_work_per_slice() {
        let mut e = engine();
        let docs = versioned_docs(12, 2);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for i in 1..9u64 {
            e.delete(RecordId(i)).unwrap();
        }
        let backlog = e.gc_backlog_ids().len();
        assert!(backlog >= 4, "backlog {backlog}");
        let mut cfg = MaintConfig::default();
        cfg.gc_per_tick = 2;
        let mut m = Maintainer::new(cfg);
        let r = m.tick(&mut e).unwrap();
        assert_eq!(r.gc_records, 2, "{r:?}");
        assert_eq!(e.gc_backlog_ids().len(), backlog - 2);
    }

    #[test]
    fn ticks_bound_rededup_work_per_slice() {
        let mut e = engine();
        let docs = versioned_docs(7, 8);
        e.insert("db", RecordId(0), &docs[0]).unwrap();
        e.set_replication_pressure(true);
        for (i, d) in docs.iter().enumerate().skip(1) {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.set_replication_pressure(false);
        assert_eq!(e.degraded_backlog_len(), 6);
        let mut cfg = MaintConfig::default();
        cfg.rededup_per_tick = 2;
        let mut m = Maintainer::new(cfg);
        assert!(!m.quiesced(&e), "degraded backlog must block quiescence");
        let r = m.tick(&mut e).unwrap();
        assert_eq!(r.rededuped, 2, "{r:?}");
        assert_eq!(e.degraded_backlog_len(), 4);
        // Three more ticks drain the rest; the backlog gates quiescence.
        while e.degraded_backlog_len() > 0 {
            m.tick(&mut e).unwrap();
        }
        let report = m.run_until_quiesced(&mut e).unwrap();
        assert!(m.quiesced(&e), "{report:?}");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64)).unwrap()[..], &d[..], "record {i}");
        }
    }

    #[test]
    fn pressure_gate_pauses_ticks() {
        let mut e = engine();
        let docs = versioned_docs(4, 3);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        e.delete(RecordId(1)).unwrap();
        let mut m = Maintainer::new(MaintConfig::default());
        e.set_replication_pressure(true);
        let r = m.tick(&mut e).unwrap();
        assert!(r.paused);
        assert_eq!(r.gc_records, 0);
        assert_eq!(m.paused_ticks(), 1);
        e.set_replication_pressure(false);
        let r = m.tick(&mut e).unwrap();
        assert!(!r.paused);
        assert!(r.gc_records > 0);
    }

    #[test]
    fn ticks_compact_a_segment_only_once_it_crosses_the_floor() {
        use dbdedup_storage::{RecordStore, StoreConfig};
        let store_cfg = StoreConfig { segment_bytes: 16 << 10, ..StoreConfig::default() };
        let store = RecordStore::open_temp(store_cfg).unwrap();
        let mut e = DedupEngine::new(store, EngineConfig::default()).unwrap();
        let mut rng = SplitMix64::new(30);
        let records: Vec<Vec<u8>> =
            (0..64).map(|_| (0..1000).map(|_| rng.next_u64() as u8).collect()).collect();
        for (i, r) in records.iter().enumerate() {
            e.insert("db", RecordId(i as u64), r).unwrap();
        }
        let first: Vec<RecordId> = (0..64)
            .map(RecordId)
            .filter(|&id| e.store().frame_extent(id).unwrap().0 == 0)
            .collect();
        let seg0 = e.store().dir().join("seg000000.dat");
        let len = std::fs::metadata(&seg0).unwrap().len();
        let mut cfg = MaintConfig::default();
        cfg.compact_trigger_ratio = 0.5;
        cfg.compact_budget_bytes = 4096;
        let max_ticks = len.div_ceil(cfg.compact_budget_bytes);
        let mut m = Maintainer::new(cfg);
        // Deleting segment 0's records one at a time: ticks copy nothing
        // while less than half of it is dead (every other sealed segment
        // is all live), then empty it within its length in budgets.
        let mut dead = 0;
        for &id in &first {
            dead += u64::from(e.store().frame_extent(id).unwrap().2);
            e.delete(id).unwrap();
            if dead * 2 < len {
                let r = m.tick(&mut e).unwrap();
                assert!(r.compact.is_noop(), "{dead} of {len} bytes dead: {r:?}");
                assert!(m.quiesced(&e), "dead bytes under the floor are no tick's work");
                continue;
            }
            let mut ticks = 0;
            while seg0.exists() {
                let r = m.tick(&mut e).unwrap();
                assert!(!r.compact.is_noop(), "{r:?}");
                ticks += 1;
                assert!(ticks <= max_ticks, "{ticks} ticks for a {len}-byte segment");
            }
            break;
        }
        assert!(!seg0.exists(), "segment 0 crossed the floor and was emptied");
        for (i, r) in records.iter().enumerate() {
            let id = RecordId(i as u64);
            if !first.contains(&id) {
                assert_eq!(&e.read(id).unwrap()[..], &r[..], "record {i}");
            }
        }
    }

    #[test]
    fn retention_caps_chain_tail_depth() {
        let mut e = engine();
        let docs = versioned_docs(9, 5);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let mut cfg = MaintConfig::default();
        cfg.max_tail_versions = Some(3);
        let mut m = Maintainer::new(cfg);
        let report = m.run_until_quiesced(&mut e).unwrap();
        assert!(report.retired > 0, "{report:?}");
        // Only head + 3 trailing versions survive.
        for i in 0..5u64 {
            assert!(e.read(RecordId(i)).is_err(), "record {i} should be retired");
        }
        for i in 5..9u64 {
            assert_eq!(&e.read(RecordId(i)).unwrap()[..], &docs[i as usize][..], "record {i}");
        }
        assert_eq!(e.metrics().maint_retired, 5);
    }

    #[test]
    fn pump_combines_writeback_flush_and_tick() {
        let mut e = engine();
        let docs = versioned_docs(6, 6);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.delete(RecordId(2)).unwrap();
        let mut m = Maintainer::new(MaintConfig::default());
        let mut flushed_total = 0;
        for _ in 0..100 {
            let (flushed, _) = m.pump(&mut e, 1.0, 8).unwrap();
            flushed_total += flushed;
            if e.pending_writebacks() == 0 && m.quiesced(&e) {
                break;
            }
        }
        assert!(flushed_total > 0, "pump must flush writebacks");
        assert!(e.pending_writebacks() == 0);
        assert!(m.quiesced(&e), "pump ticks must drain maintenance backlogs");
    }

    /// The regression guard for "a tick costs what it moves", in counts: on
    /// a large store with nothing to do, a tick writes nothing and reads
    /// only its scrub slice — it does not walk the store to find that out.
    #[test]
    fn tick_on_a_quiesced_store_writes_nothing_and_reads_only_its_scrub_slice() {
        use dbdedup_storage::{FaultInjector, FaultPlan, RecordStore, StoreConfig};
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::new()));
        let store_cfg =
            StoreConfig { fault: Some(std::sync::Arc::clone(&inj)), ..StoreConfig::default() };
        let store = RecordStore::open_temp(store_cfg).unwrap();
        let mut e = DedupEngine::new(store, EngineConfig::default()).unwrap();
        let mut rng = SplitMix64::new(20_000);
        for i in 0..20_000u64 {
            let record: Vec<u8> = (0..48).map(|_| rng.next_u64() as u8).collect();
            e.insert("db", RecordId(i), &record).unwrap();
        }
        for i in (0..20_000u64).step_by(50) {
            e.delete(RecordId(i)).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let mut m = Maintainer::new(MaintConfig::default());
        let _ = m.run_until_quiesced(&mut e).unwrap();
        assert!(m.quiesced(&e));
        let (writes, io) = (inj.writes_seen(), e.store().io_stats());
        let r = m.tick(&mut e).unwrap();
        assert!(r.is_idle(), "{r:?}");
        assert_eq!(inj.writes_seen(), writes, "an idle tick writes nothing");
        assert!(r.scrub_verified > 0, "the scrub slice did run: {r:?}");
        // Each frame of the slice is read twice: once past the block cache
        // for its checksum, once through it for its chain.
        let read = e.store().io_stats().read_bytes - io.read_bytes;
        assert!(read <= 3 * m.config().scrub_budget_bytes, "{read} bytes read by an idle tick");
    }

    // ------------------------------------------------------------------
    // Tiered-index run merging
    // ------------------------------------------------------------------

    /// An engine whose hot index tier is tiny, so inserts spill cold runs.
    fn tiered_engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.index_hot_budget_bytes = Some(256);
        DedupEngine::open_temp(cfg).expect("temp engine")
    }

    #[test]
    fn index_run_backlog_gates_quiescence_and_merges_drain_it() {
        let mut e = tiered_engine();
        for (i, d) in versioned_docs(24, 14).iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        assert!(e.index_merge_backlog() > 0, "tiny hot budget must spill multiple runs");
        let lsn = e.oplog_next_lsn();
        let mut m = Maintainer::new(MaintConfig::default());
        assert!(!m.quiesced(&e), "run backlog must block quiescence");
        let report = m.run_until_quiesced(&mut e).unwrap();
        assert!(report.index_runs_merged > 0, "{report:?}");
        assert_eq!(e.index_merge_backlog(), 0);
        assert!(m.quiesced(&e));
        assert_eq!(e.oplog_next_lsn(), lsn, "run merging must stay oplog-silent");
    }

    #[test]
    fn ticks_bound_index_merge_work_per_slice() {
        let mut e = tiered_engine();
        for (i, d) in versioned_docs(24, 15).iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        let backlog = e.index_merge_backlog();
        assert!(backlog >= 2, "backlog {backlog}");
        let mut cfg = MaintConfig::default();
        // A 1-byte budget still merges exactly one pair: progress per tick
        // is guaranteed but bounded.
        cfg.index_merge_budget_bytes = 1;
        let mut m = Maintainer::new(cfg);
        let r = m.tick(&mut e).unwrap();
        assert_eq!(r.index_runs_merged, 2, "{r:?}");
        assert!(!r.is_idle(), "a merging tick is backlog work");
        assert_eq!(e.index_merge_backlog(), backlog - 1);
    }

    // ------------------------------------------------------------------
    // Integrity scrub
    // ------------------------------------------------------------------

    fn scrub_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbdedup-maint-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_at(dir: &std::path::Path) -> DedupEngine {
        use dbdedup_storage::{RecordStore, StoreConfig};
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        let store = RecordStore::open(dir, StoreConfig::default()).unwrap();
        DedupEngine::new(store, cfg).unwrap()
    }

    /// Flips one bit inside `id`'s live frame on disk, under the engine.
    fn rot_live_frame(dir: &std::path::Path, e: &DedupEngine, id: RecordId) {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let (seg, off, _) = e.store().frame_extent(id).expect("live frame");
        let path = dir.join(format!("seg{seg:06}.dat"));
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        f.write_all(&[b[0] ^ 0x40]).unwrap();
    }

    #[test]
    fn ticks_run_steady_state_scrub_without_gating_idleness() {
        let mut e = engine();
        let docs = versioned_docs(6, 9);
        for (i, d) in docs.iter().enumerate() {
            e.insert("db", RecordId(i as u64), d).unwrap();
        }
        e.flush_all_writebacks().unwrap();
        let mut m = Maintainer::new(MaintConfig::default());
        let _ = m.run_until_quiesced(&mut e).unwrap();
        assert!(m.quiesced(&e));
        let r = m.tick(&mut e).unwrap();
        assert!(r.scrub_verified > 0, "{r:?}");
        assert_eq!(r.scrub_corrupt, 0);
        assert!(r.is_idle(), "a clean scrub slice must not look like backlog work: {r:?}");
        assert!(m.quiesced(&e), "the wrapping scrub cursor must not gate quiescence");
    }

    #[test]
    fn scrub_budget_zero_disables_the_slice() {
        let mut e = engine();
        e.insert("db", RecordId(1), &versioned_docs(1, 10)[0]).unwrap();
        let mut cfg = MaintConfig::default();
        cfg.scrub_budget_bytes = 0;
        let mut m = Maintainer::new(cfg);
        let r = m.tick(&mut e).unwrap();
        assert_eq!(r.scrub_verified, 0);
        assert_eq!(e.metrics().scrub_verified, 0);
    }

    #[test]
    fn scrub_pass_heals_bit_rot_from_attached_repair_source() {
        let dir = scrub_dir("heal");
        let docs = versioned_docs(5, 11);
        let mut control = engine();
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
                control.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
        }
        // Reopen so caches are cold: the heal must come from the source.
        let mut e = engine_at(&dir);
        rot_live_frame(&dir, &e, RecordId(2));
        let lsn = e.oplog_next_lsn();
        let mut m = Maintainer::new(MaintConfig::default());
        let report = m.scrub_pass(&mut e, Some(&mut control)).unwrap();
        assert_eq!(report.totals.corrupt, 1, "{report:?}");
        assert_eq!(report.totals.healed_replica, 1);
        assert!(report.totals.unhealable.is_empty());
        assert_eq!(e.oplog_next_lsn(), lsn, "scrub repair must stay oplog-silent");
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(&e.read(RecordId(i as u64 + 1)).unwrap()[..], &d[..], "record {i}");
        }
        // The next pass proves convergence.
        let again = m.scrub_pass_local(&mut e).unwrap();
        assert!(again.is_clean(), "{again:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unhealable_scrub_fires_an_atomic_flight_dump() {
        use dbdedup_obs::{FlightConfig, FlightRecorder};
        let dir = scrub_dir("flight");
        let docs = versioned_docs(3, 13);
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
        }
        let mut e = engine_at(&dir);
        rot_live_frame(&dir, &e, RecordId(1));
        let dump_path = dir.join("flight.jsonl");
        let rec = FlightRecorder::shared(FlightConfig {
            capacity: 0,
            dump_path: Some(dump_path.clone()),
        });
        e.set_flight_recorder(std::sync::Arc::clone(&rec));
        let mut m = Maintainer::new(MaintConfig::default());
        let report = m.scrub_until_clean(&mut e, None::<&mut DedupEngine>, 4).unwrap();
        assert_eq!(report.totals.unhealable, vec![RecordId(1)], "{report:?}");
        // The escalation event auto-fired a trigger and the dump landed on
        // disk atomically (no .tmp left behind).
        assert!(rec.dumps() >= 1, "{rec:?}");
        assert_eq!(rec.dump_errors(), 0, "{rec:?}");
        let dump = std::fs::read_to_string(&dump_path).expect("dump file");
        assert!(dump.starts_with("{\"t\":\"trigger\""), "{dump}");
        assert!(dump.contains("\"kind\":\"unhealable_quarantine\""), "{dump}");
        assert!(
            dump.contains("\"kind\":\"scrub_unhealable\""),
            "ring must carry the event: {dump}"
        );
        assert!(!dump_path.with_extension("tmp").exists(), "atomic rename must consume the tmp");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_until_clean_escalates_unhealable_damage_without_source() {
        let dir = scrub_dir("escalate");
        let docs = versioned_docs(3, 12);
        {
            let mut e = engine_at(&dir);
            for (i, d) in docs.iter().enumerate() {
                e.insert("db", RecordId(i as u64 + 1), d).unwrap();
            }
        }
        let mut e = engine_at(&dir);
        rot_live_frame(&dir, &e, RecordId(1));
        let mut m = Maintainer::new(MaintConfig::default());
        let report = m.scrub_until_clean(&mut e, None::<&mut DedupEngine>, 4).unwrap();
        assert_eq!(report.totals.unhealable, vec![RecordId(1)], "{report:?}");
        // Typed escalation, not silent loss: the record is quarantined and
        // broken-marked for resync, while everything else stays readable.
        assert!(e.broken_records().contains(&RecordId(1)));
        assert_eq!(&e.read(RecordId(2)).unwrap()[..], &docs[1][..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
