//! Per-stage latency spans.
//!
//! A [`StageTracer`] owns one [`LogHistogram`] per [`Stage`] and a
//! pluggable [`Clock`]. The engine rolls a 1-in-N sampling decision once
//! per operation ([`StageTracer::sample`]); when the operation is sampled,
//! each stage brackets its work with [`StageTracer::start`] /
//! [`StageTracer::stop`] and the elapsed nanoseconds land in that stage's
//! histogram. An unsampled operation costs one branch per stage — no
//! clock reads — which is what keeps the default overhead within the
//! ≤ 2 % budget the overhead self-test enforces.

use crate::flight::FlightRecorder;
use dbdedup_util::stats::LogHistogram;
use dbdedup_util::time::{system_clock, Clock};
use std::sync::Arc;
use std::time::Duration;

/// Every pipeline stage the telemetry layer can attribute latency to.
///
/// The first seven are the paper's per-stage breakdown (§4, Fig. 12):
/// the insert workflow plus the read path's decode-chain walk. The next
/// three cover the replication ship/apply/catch-up paths, and the last
/// two the background maintenance tier (chain GC and incremental
/// compaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Content-defined chunking of the incoming record.
    Chunk,
    /// Similarity-sketch extraction over the chunks.
    Sketch,
    /// Feature-index lookup (and registration of the new record).
    IndexLookup,
    /// Source-record retrieval for delta encoding (cache or store).
    SourceFetch,
    /// Forward delta encoding against the selected source.
    DeltaEncode,
    /// Appending the new record to the store.
    StoreAppend,
    /// Read-path decode: walking base pointers and applying deltas.
    DecodeChain,
    /// Encoding and enqueueing one replication frame.
    ReplShip,
    /// Applying one replicated oplog entry on a secondary.
    ReplApply,
    /// Applying one cursor catch-up batch on a healing link.
    CatchUp,
    /// Background chain GC: re-encoding dependents and removing a
    /// tombstoned record.
    MaintGc,
    /// Background incremental compaction: one bounded copy-forward step.
    MaintCompact,
    /// Out-of-line re-dedup of one overload-degraded record: replaying
    /// sketch → index lookup → source selection → delta encode and
    /// rewriting the raw record into a chain.
    MaintRededup,
    /// Background integrity scrub: verified segment scan, chain decode
    /// checks, and quarantine-then-heal repair of damaged frames.
    MaintScrub,
    /// Background tiered-index maintenance: merging cold-tier feature runs
    /// pairwise toward the per-partition target.
    MaintIndexMerge,
}

impl Stage {
    /// Every stage, in stable schema order.
    pub const ALL: [Stage; 15] = [
        Stage::Chunk,
        Stage::Sketch,
        Stage::IndexLookup,
        Stage::SourceFetch,
        Stage::DeltaEncode,
        Stage::StoreAppend,
        Stage::DecodeChain,
        Stage::ReplShip,
        Stage::ReplApply,
        Stage::CatchUp,
        Stage::MaintGc,
        Stage::MaintCompact,
        Stage::MaintRededup,
        Stage::MaintScrub,
        Stage::MaintIndexMerge,
    ];

    /// The stage's stable snake_case name (metric key component).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Chunk => "chunk",
            Stage::Sketch => "sketch",
            Stage::IndexLookup => "index_lookup",
            Stage::SourceFetch => "source_fetch",
            Stage::DeltaEncode => "delta_encode",
            Stage::StoreAppend => "store_append",
            Stage::DecodeChain => "decode_chain",
            Stage::ReplShip => "repl_ship",
            Stage::ReplApply => "repl_apply",
            Stage::CatchUp => "catchup",
            Stage::MaintGc => "maint_gc",
            Stage::MaintCompact => "maint_compact",
            Stage::MaintRededup => "maint_rededup",
            Stage::MaintScrub => "maint_scrub",
            Stage::MaintIndexMerge => "maint_index_merge",
        }
    }
}

/// One latency histogram per stage (nanoseconds).
#[derive(Debug, Clone)]
pub struct StageSet {
    hists: Vec<LogHistogram>,
}

impl Default for StageSet {
    fn default() -> Self {
        Self::new()
    }
}

impl StageSet {
    /// Creates an empty set covering every [`Stage`].
    pub fn new() -> Self {
        Self { hists: vec![LogHistogram::new(); Stage::ALL.len()] }
    }

    /// Records one observation of `ns` nanoseconds for `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns);
    }

    /// The histogram for `stage`.
    pub fn get(&self, stage: Stage) -> &LogHistogram {
        &self.hists[stage as usize]
    }

    /// Total samples across all stages.
    pub fn total_samples(&self) -> u64 {
        self.hists.iter().map(|h| h.count()).sum()
    }

    /// Merges another set into this one (per-shard aggregation).
    pub fn merge(&mut self, other: &StageSet) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }
}

/// The sampling stage timer. See module docs.
#[derive(Debug)]
pub struct StageTracer {
    stages: StageSet,
    clock: Arc<dyn Clock>,
    /// 1-in-N sampling; 0 disables tracing entirely.
    sample_every: u32,
    countdown: u32,
    /// Whether the current operation is being sampled.
    current: bool,
    /// Optional anomaly flight recorder: sampled spans are mirrored into
    /// its ring (the unsampled path is untouched — still no clock reads).
    recorder: Option<Arc<FlightRecorder>>,
}

impl StageTracer {
    /// Creates a tracer sampling one operation in `sample_every` against
    /// the system clock. `sample_every == 0` disables tracing.
    pub fn new(sample_every: u32) -> Self {
        Self::with_clock(sample_every, system_clock())
    }

    /// Creates a tracer with an explicit clock (e.g. a [`VirtualClock`]
    /// shared with a deterministic simulation).
    ///
    /// [`VirtualClock`]: dbdedup_util::time::VirtualClock
    pub fn with_clock(sample_every: u32, clock: Arc<dyn Clock>) -> Self {
        Self {
            stages: StageSet::new(),
            clock,
            sample_every,
            // First operation is sampled, so short runs still see data.
            countdown: 1.min(sample_every),
            current: false,
            recorder: None,
        }
    }

    /// A tracer that never samples (telemetry disabled).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Whether tracing is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Swaps the clock (the simulator hands every component its virtual
    /// clock after construction).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The clock spans are timed on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Attaches an anomaly [`FlightRecorder`]: every sampled span is
    /// mirrored into its ring alongside the histogram observation.
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Rolls the per-operation sampling decision. Call once at the top of
    /// each operation; subsequent [`start`](Self::start) calls follow it.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if self.sample_every == 0 {
            self.current = false;
            return false;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.sample_every;
            self.current = true;
        } else {
            self.current = false;
        }
        self.current
    }

    /// Begins a span: the clock is read only when the current operation is
    /// sampled. The returned token is passed to [`stop`](Self::stop).
    #[inline]
    pub fn start(&self) -> Option<Duration> {
        if self.current {
            Some(self.clock.now())
        } else {
            None
        }
    }

    /// Ends a span, recording elapsed nanoseconds into `stage`.
    #[inline]
    pub fn stop(&mut self, token: Option<Duration>, stage: Stage) {
        if let Some(t0) = token {
            let ns = self.clock.now().saturating_sub(t0).as_nanos().min(u64::MAX as u128) as u64;
            self.stages.record(stage, ns);
            if let Some(recorder) = &self.recorder {
                recorder.record_span(stage.name(), ns);
            }
        }
    }

    /// The accumulated per-stage histograms.
    pub fn stages(&self) -> &StageSet {
        &self.stages
    }

    /// Mutable access for callers that timed work themselves and want the
    /// observation in the same stage table.
    pub fn stages_mut(&mut self) -> &mut StageSet {
        &mut self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::time::VirtualClock;

    #[test]
    fn sampling_rate_is_one_in_n() {
        let mut t = StageTracer::new(4);
        let sampled: Vec<bool> = (0..12).map(|_| t.sample()).collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 3);
        assert!(sampled[0], "first operation must be sampled");
    }

    #[test]
    fn disabled_tracer_never_samples_or_records() {
        let mut t = StageTracer::disabled();
        assert!(!t.is_enabled());
        for _ in 0..100 {
            assert!(!t.sample());
            let tok = t.start();
            assert!(tok.is_none());
            t.stop(tok, Stage::Chunk);
        }
        assert_eq!(t.stages().total_samples(), 0);
    }

    #[test]
    fn spans_record_virtual_elapsed_time() {
        let clock = VirtualClock::shared();
        let mut t = StageTracer::with_clock(1, clock.clone());
        assert!(t.sample());
        let tok = t.start();
        clock.advance(Duration::from_micros(250));
        t.stop(tok, Stage::DeltaEncode);
        let h = t.stages().get(Stage::DeltaEncode);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250_000);
        assert_eq!(t.stages().get(Stage::Chunk).count(), 0);
    }

    #[test]
    fn unsampled_operations_cost_no_clock_reads() {
        let clock = VirtualClock::shared();
        let mut t = StageTracer::with_clock(2, clock.clone());
        assert!(t.sample());
        assert!(!t.sample()); // second op unsampled
        let tok = t.start();
        assert!(tok.is_none());
        t.stop(tok, Stage::Chunk);
        assert_eq!(t.stages().get(Stage::Chunk).count(), 0);
    }

    #[test]
    fn sampled_spans_mirror_into_the_flight_recorder() {
        use crate::flight::{FlightConfig, FlightRecorder, FlightTrigger};
        let clock = VirtualClock::shared();
        let mut t = StageTracer::with_clock(2, clock.clone());
        let rec = FlightRecorder::shared(FlightConfig::default());
        t.set_flight_recorder(Arc::clone(&rec));
        assert!(t.sample());
        let tok = t.start();
        clock.advance(Duration::from_micros(5));
        t.stop(tok, Stage::Sketch);
        assert!(!t.sample());
        t.stop(t.start(), Stage::Sketch); // unsampled: no mirror
        assert_eq!(rec.len(), 1);
        let dump = rec.trigger(FlightTrigger::OverloadOnset);
        assert!(dump.contains("\"stage\":\"sketch\"") && dump.contains("\"ns\":5000"), "{dump}");
    }

    #[test]
    fn stage_sets_merge_across_shards() {
        let mut a = StageSet::new();
        let mut b = StageSet::new();
        a.record(Stage::Chunk, 100);
        b.record(Stage::Chunk, 1_000_000);
        b.record(Stage::StoreAppend, 5);
        a.merge(&b);
        assert_eq!(a.get(Stage::Chunk).count(), 2);
        assert_eq!(a.get(Stage::Chunk).max(), 1_000_000);
        assert_eq!(a.get(Stage::StoreAppend).count(), 1);
        assert_eq!(a.total_samples(), 3);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
