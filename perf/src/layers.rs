//! The traced invocation's per-layer budget.
//!
//! Three sources, as `README.md` lays out per metric:
//!
//! * **spans** recorded by the driver around every public call (client
//!   ops, the pump and tick an op waited behind, syncs), kept in memory
//!   and written as JSONL at exit, plus the engine's own stage tracer at
//!   sample rate 1 — these give the busy shares and the stage budget with
//!   its unaccounted remainder;
//! * **counters** read from `DedupEngine::metrics()` and the store before
//!   and after the timed phase;
//! * a **layer replay** that feeds a sample of the very records the phase
//!   inserted through each lower layer's public functions on their own;
//!
//! and two reference runs of the first quarter of the same op list,
//! untraced: one as configured (tracing overhead) and one with dedup off
//! (the Fig. 12 comparison).

use crate::driver::{self, Kind, Phase, Verdict};
use crate::env::Calibrator;
use crate::workload::{Op, OpStream, Plan, Preset, Workload};
use crate::{err, prepare, quantile_us, RunConfig};
use dbdedup::chunker::{ChunkerConfig, ContentChunker, SketchExtractor};
use dbdedup::delta::{DbDeltaConfig, DbDeltaEncoder};
use dbdedup::index::{CuckooConfig, CuckooFeatureIndex};
use dbdedup::obs::{Stage, StageSet};
use dbdedup::repl::ReplicaSet;
use dbdedup::storage::blockcache::BlockCacheStats;
use dbdedup::storage::blockz;
use dbdedup::storage::store::{IoStats, RecordStore, StorageForm, StoreConfig};
use dbdedup::util::dist::SplitMix64;
use dbdedup::{
    DedupEngine, EngineConfig, IngestConfig, MetricsSnapshot, ParallelIngest, RecordId,
    ShardedEngine,
};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Stages of a client op, in budget order.
const OP_STAGES: [Stage; 7] = [
    Stage::Chunk,
    Stage::Sketch,
    Stage::IndexLookup,
    Stage::SourceFetch,
    Stage::DeltaEncode,
    Stage::StoreAppend,
    Stage::DecodeChain,
];

/// Passes over the sample in each replay, so each timing covers tens of
/// milliseconds.
const REPLAY_PASSES: usize = 8;

/// Engine and store counters at one instant.
pub struct Counters {
    metrics: MetricsSnapshot,
    io: IoStats,
    block_cache: BlockCacheStats,
    /// The secondary's stage table (oplog apply happens there).
    secondary_stages: StageSet,
}

impl Counters {
    /// Reads them off the primary (and the secondary's stage table).
    pub fn read(set: &ReplicaSet) -> Self {
        Self {
            metrics: set.primary.metrics(),
            io: set.primary.store().io_stats(),
            block_cache: set.primary.store().block_cache_stats(),
            secondary_stages: set.secondaries[0].stage_timings().clone(),
        }
    }
}

fn stage_ns(s: &StageSet, stage: Stage) -> f64 {
    let h = s.get(stage);
    h.mean() * h.count() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mib_per_s(bytes: usize, ns: u128) -> f64 {
    ratio(bytes as f64 / (1 << 20) as f64, ns as f64 / 1e9)
}

/// What the layer replay measured.
#[derive(Default)]
struct Replay {
    chunk_mib_s: f64,
    sketch_mib_s: f64,
    chunks_per_record: f64,
    encode_mib_s: f64,
    apply_mib_s: f64,
    copy_fraction: f64,
    delta_bytes: f64,
    source_fetch_us: f64,
    put_ns: f64,
    get_ns: f64,
    blockz_mib_s: f64,
    index_insert_ns: f64,
    index_lookup_ns: f64,
}

impl Replay {
    /// Restates every figure at the reference machine speed, given the
    /// speed the machine had while they were measured.
    fn at_speed(&mut self, speed: f64) {
        for rate in [
            &mut self.chunk_mib_s,
            &mut self.sketch_mib_s,
            &mut self.encode_mib_s,
            &mut self.apply_mib_s,
            &mut self.blockz_mib_s,
        ] {
            *rate /= speed;
        }
        for time in [
            &mut self.source_fetch_us,
            &mut self.put_ns,
            &mut self.get_ns,
            &mut self.index_insert_ns,
            &mut self.index_lookup_ns,
        ] {
            *time *= speed;
        }
    }
}

fn replay(
    config: &EngineConfig,
    inserted: &[(Option<RecordId>, Vec<u8>)],
    primary: &mut DedupEngine,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let bytes: usize = inserted.iter().map(|(_, d)| d.len()).sum();
    let records = inserted.len().max(1);

    // chunker: boundary detection alone, then chunking + sketch.
    let chunker = ContentChunker::with_kind(
        ChunkerConfig::with_avg(config.chunk_avg_size),
        config.chunker_kind,
    );
    let t = Instant::now();
    let mut chunks = 0usize;
    for _ in 0..REPLAY_PASSES {
        for (_, data) in inserted {
            chunks += black_box(chunker.chunk(black_box(data))).len();
        }
    }
    let chunk_ns = t.elapsed().as_nanos();
    r.chunk_mib_s = mib_per_s(bytes * REPLAY_PASSES, chunk_ns);
    r.chunks_per_record = chunks as f64 / (records * REPLAY_PASSES) as f64;
    let extractor = SketchExtractor::new(chunker, config.sketch_k);
    let t = Instant::now();
    for _ in 0..REPLAY_PASSES {
        for (_, data) in inserted {
            black_box(extractor.extract(black_box(data)));
        }
    }
    // `extract` chunks too; the sketch's own rate is over the difference.
    let sketch_ns = t.elapsed().as_nanos().saturating_sub(chunk_ns).max(1);
    r.sketch_mib_s = mib_per_s(bytes * REPLAY_PASSES, sketch_ns);

    // delta: the pairs the engine itself chose. Fetching the source back
    // out of the store is the cost an insert pays on a source-cache miss.
    let mut pairs = Vec::new();
    let t = Instant::now();
    for (source, target) in inserted {
        let Some(source) = source else { continue };
        if let Ok(content) = primary.read(*source) {
            pairs.push((content, target));
        }
    }
    r.source_fetch_us = ratio(t.elapsed().as_nanos() as f64 / 1e3, pairs.len() as f64);
    let encoder = DbDeltaEncoder::new(DbDeltaConfig::with_interval(config.anchor_interval));
    let pair_bytes: usize = pairs.iter().map(|(_, t)| t.len()).sum();
    let t = Instant::now();
    let mut deltas = Vec::new();
    for pass in 0..REPLAY_PASSES {
        for (source, target) in &pairs {
            let d = encoder.encode(black_box(source), black_box(target));
            if pass == 0 {
                deltas.push(d);
            }
        }
    }
    r.encode_mib_s = mib_per_s(pair_bytes * REPLAY_PASSES, t.elapsed().as_nanos());
    let t = Instant::now();
    for _ in 0..REPLAY_PASSES {
        for ((source, _), d) in pairs.iter().zip(&deltas) {
            black_box(d.apply(black_box(source)).map_err(err)?);
        }
    }
    r.apply_mib_s = mib_per_s(pair_bytes * REPLAY_PASSES, t.elapsed().as_nanos());
    let n = deltas.len().max(1) as f64;
    r.copy_fraction = deltas.iter().map(|d| d.copy_fraction()).sum::<f64>() / n;
    r.delta_bytes = deltas.iter().map(|d| d.encoded_len()).sum::<usize>() as f64 / n;

    // storage: raw put and get on a scratch store, and block compression.
    let store = RecordStore::open_temp(StoreConfig::default()).map_err(err)?;
    let t = Instant::now();
    let mut id = 0u64;
    for _ in 0..REPLAY_PASSES {
        for (_, data) in inserted {
            store.put(RecordId(id), StorageForm::Raw, data).map_err(err)?;
            id += 1;
        }
    }
    r.put_ns = ratio(t.elapsed().as_nanos() as f64, id as f64);
    let t = Instant::now();
    for k in 0..id {
        black_box(store.get(RecordId(k)).map_err(err)?);
    }
    r.get_ns = ratio(t.elapsed().as_nanos() as f64, id as f64);
    drop(store);
    let t = Instant::now();
    for (_, data) in inserted {
        black_box(blockz::compress(black_box(data)));
    }
    r.blockz_mib_s = mib_per_s(bytes, t.elapsed().as_nanos());

    // index: the hot tier's two operations on a fixed feature stream.
    const FEATURES: u32 = 200_000;
    let mut rng = SplitMix64::new(0x1d3c_0ffe_e5ee_d001);
    let features: Vec<u64> = (0..FEATURES).map(|_| rng.next_u64()).collect();
    let mut index = CuckooFeatureIndex::new(CuckooConfig::default());
    let t = Instant::now();
    for (slot, &f) in features.iter().enumerate() {
        black_box(index.lookup_insert(f, slot as u32));
    }
    r.index_insert_ns = t.elapsed().as_nanos() as f64 / f64::from(FEATURES);
    let t = Instant::now();
    for &f in &features {
        black_box(index.lookup(f));
    }
    r.index_lookup_ns = t.elapsed().as_nanos() as f64 / f64::from(FEATURES);
    Ok(r)
}

/// The two reference runs, made before the traced run rather than after:
/// each store is deleted while its pages are still only dirty in memory. A
/// store left on disk for the length of a traced run is old enough for the
/// kernel to start writing it back, and that lands in whatever runs next.
pub struct References {
    /// (ops/s, insert p99 in us) of the untraced quarter as configured.
    dedup: (f64, f64),
    /// The same with dedup off (Fig. 12's "original").
    nodedup: (f64, f64),
}

impl References {
    /// Makes both runs.
    pub fn measure(cfg: &RunConfig) -> Result<Self, String> {
        Ok(Self { dedup: reference(cfg, true)?, nodedup: reference(cfg, false)? })
    }
}

/// Untraced throughput and insert p99 of the first quarter of the op list
/// on a store of its own, with dedup on or off.
fn reference(cfg: &RunConfig, dedup: bool) -> Result<(f64, f64), String> {
    let full = cfg.workload.plan(cfg.preset);
    let plan = Plan { measured: full.measured / 4, ..full };
    let config = driver::engine_config(cfg.workload, false, dedup);
    let root = cfg.data_dir.join(if dedup { "ref-dedup" } else { "ref-nodedup" });
    let (mut rig, _) = prepare(&root, cfg.workload, cfg.seed, plan, &config, 1)?;
    let mut phase = Phase::default();
    rig.run(plan.measured, false, &mut phase)?;
    drop(rig);
    std::fs::remove_dir_all(root).map_err(err)?;
    let speed = phase.speed();
    let ops_s = ratio(plan.measured as f64, phase.stopwatch_ns() as f64 / 1e9 * speed);
    Ok((ops_s, quantile_us(&mut phase.latency_ns[Kind::Insert as usize], 0.99) * speed))
}

/// `ParallelIngest` at two workers against a plain serial insert loop over
/// the same records (the first of the preload): the speed-up, and the share
/// of the pipeline's wall time `submit` spent blocked on the in-flight
/// cap. Meaningful only where `usable_cores` ≥ 2, so the entry script runs
/// it unpinned in a process of its own.
pub fn pipeline_probe(workload: Workload, seed: u64, preset: Preset) -> Result<(f64, f64), String> {
    let plan = workload.plan(preset);
    let mut stream = OpStream::new(workload, seed, plan);
    let mut ops = Vec::new();
    stream.next_batch(plan.preload.min(3_000) as usize, &mut ops);
    let config = driver::engine_config(workload, false, true);

    let mut engine = DedupEngine::open_temp(config.clone()).map_err(err)?;
    let t = Instant::now();
    for op in &ops {
        let Op::Insert { db, id, data } = op else { unreachable!("preload is insert-only") };
        engine.insert(db, *id, data).map_err(err)?;
    }
    let serial_ns = t.elapsed().as_nanos() as f64;
    drop(engine);

    let sharded = ShardedEngine::open_temp(config, 1).map_err(err)?;
    let mut ingest = ParallelIngest::new(sharded, IngestConfig::with_workers(2));
    let t = Instant::now();
    for op in &ops {
        let Op::Insert { db, id, data } = op else { unreachable!("preload is insert-only") };
        ingest.submit(db, *id, data);
    }
    ingest.drain().map_err(err)?;
    let parallel_ns = t.elapsed().as_nanos() as f64;
    let (_, snapshot) = ingest.finish().map_err(err)?;
    let stalled_ns = snapshot.stall_ns.mean() * snapshot.stall_ns.count() as f64;
    Ok((ratio(serial_ns, parallel_ns), ratio(stalled_ns, parallel_ns)))
}

/// Everything the traced run gathers while its engines are still open.
pub struct Traced {
    before: Counters,
    after: Counters,
    replay: Replay,
    registry_render_us: f64,
    refs: References,
    pipeline: (f64, f64),
}

impl Traced {
    /// Reads the end-of-phase counters and replays the layers on the
    /// sampled records.
    pub fn collect(
        cfg: &RunConfig,
        config: &EngineConfig,
        phase: &mut Phase,
        set: &mut ReplicaSet,
        before: Counters,
        refs: References,
    ) -> Result<Self, String> {
        let after = Counters::read(set);
        let mut calib = Calibrator::new();
        let mut slices = vec![calib.slice(), calib.slice()];
        let t = Instant::now();
        for _ in 0..5 {
            black_box(set.primary.metrics().to_json());
        }
        let registry_render_us = t.elapsed().as_nanos() as f64 / 5e3;
        let mut replay = replay(config, &phase.inserted, &mut set.primary)?;
        phase.inserted = Vec::new();
        slices.extend([calib.slice(), calib.slice()]);
        replay.at_speed(Calibrator::speed(&slices));
        let pipeline = match cfg.pipeline {
            Some(measured) => measured,
            None => pipeline_probe(cfg.workload, cfg.seed, cfg.preset)?,
        };
        Ok(Self { before, after, replay, registry_render_us, refs, pipeline })
    }

    /// Pushes every per-layer metric (in `BENCHMARK.json` order) and writes
    /// the spans.
    #[allow(clippy::too_many_arguments)]
    pub fn metrics(
        self,
        cfg: &RunConfig,
        plan: Plan,
        phase: &Phase,
        verdict: &Verdict,
        reopen_s: f64,
        written: u64,
        shipped: u64,
        push: &mut dyn FnMut(&str, f64, &'static str),
    ) -> Result<(), String> {
        let (b, a) = (&self.before.metrics, &self.after.metrics);
        let stopwatch = phase.stopwatch_ns() as f64;
        // Times (not shares) are restated at the reference machine speed.
        let speed = phase.speed();
        let time = |k: Kind| phase.time_ns[k as usize] as f64;
        let self_share = |k: Kind| ratio(phase.self_ns[k as usize] as f64, stopwatch);
        let self_ns = phase.self_ns.iter().sum::<u64>() as f64;
        let mut lat = phase.latency_ns.clone();

        push("core.insert.busy_share", self_share(Kind::Insert), "ratio");
        push("core.read.busy_share", self_share(Kind::Read), "ratio");
        push("core.read.p50_us", quantile_us(&mut lat[Kind::Read as usize], 0.50) * speed, "us");
        push(
            "core.update.p99_us",
            quantile_us(&mut lat[Kind::Update as usize], 0.99) * speed,
            "us",
        );
        push(
            "core.delete.p99_us",
            quantile_us(&mut lat[Kind::Delete as usize], 0.99) * speed,
            "us",
        );
        let inserts = lat[Kind::Insert as usize].len() as f64;
        push(
            "core.dedup_hit_ratio",
            ratio((a.deduped_inserts - b.deduped_inserts) as f64, inserts),
            "ratio",
        );
        push(
            "core.bypass_size_share",
            ratio((a.bypassed_size - b.bypassed_size) as f64, inserts),
            "ratio",
        );
        push(
            "core.bypass_governor_share",
            ratio((a.bypassed_governor - b.bypassed_governor) as f64, inserts),
            "ratio",
        );
        let mut staged = 0.0;
        for stage in OP_STAGES {
            let ns = stage_ns(&a.stages, stage) - stage_ns(&b.stages, stage);
            staged += ns;
            push(&format!("core.stage.{}.share", stage.name()), ratio(ns, self_ns), "ratio");
        }
        push("core.stage.unaccounted_share", 1.0 - ratio(staged, self_ns), "ratio");
        push("core.ref.nodedup_ops_ratio", ratio(self.refs.dedup.0, self.refs.nodedup.0), "ratio");
        push(
            "core.ref.nodedup_insert_p99_ratio",
            ratio(self.refs.dedup.1, self.refs.nodedup.1),
            "ratio",
        );
        push("core.pipeline.speedup_w2", self.pipeline.0, "ratio");
        push("core.pipeline.commit_stall_share", self.pipeline.1, "ratio");
        push(
            "core.reopen.lost_update_share",
            ratio(verdict.updates_lost as f64, verdict.updates_sampled as f64),
            "ratio",
        );
        push(
            "core.reopen.resurrected_delete_share",
            ratio(verdict.deletes_resurrected as f64, verdict.deletes_sampled as f64),
            "ratio",
        );

        let r = &self.replay;
        push("chunker.chunk_mib_s", r.chunk_mib_s, "MiB/s");
        push("chunker.sketch_mib_s", r.sketch_mib_s, "MiB/s");
        push("chunker.chunks_per_record", r.chunks_per_record, "count");
        push("delta.encode_mib_s", r.encode_mib_s, "MiB/s");
        push("delta.apply_mib_s", r.apply_mib_s, "MiB/s");
        push("delta.copy_fraction", r.copy_fraction, "ratio");
        push("delta.bytes_per_insert", r.delta_bytes, "B");

        let (ib, ia) = (&b.index_tier, &a.index_tier);
        push("index.lookup_ns", r.index_lookup_ns, "ns");
        push("index.insert_ns", r.index_insert_ns, "ns");
        push("index.hot_bytes", a.index_bytes as f64, "B");
        // Of the features looked up (at most K per indexed insert), those
        // that cost a disk-run probe.
        let indexed =
            a.stages.get(Stage::IndexLookup).count() - b.stages.get(Stage::IndexLookup).count();
        let sketch_k = driver::engine_config(cfg.workload, true, true).sketch_k as f64;
        push(
            "index.cold_probe_share",
            ratio((ia.cold_probes - ib.cold_probes) as f64, indexed as f64 * sketch_k),
            "ratio",
        );
        push("index.bloom_fp_rate", ia.observed_fp_rate(), "ratio");
        push("index.run_count_end", ia.runs as f64, "count");
        push("index.evictions", (ia.evictions - ib.evictions) as f64, "count");

        let hits = (a.source_cache.hits - b.source_cache.hits) as f64;
        let misses = (a.source_cache.misses - b.source_cache.misses) as f64;
        push("cache.source_hit_ratio", ratio(hits, hits + misses), "ratio");
        push("cache.source_miss_fetch_us", r.source_fetch_us, "us");
        push(
            "cache.writeback_flushed",
            (a.writeback_cache.flushed - b.writeback_cache.flushed) as f64,
            "count",
        );
        push(
            "cache.writeback_lossy_evictions",
            (a.writeback_cache.dropped - b.writeback_cache.dropped) as f64,
            "count",
        );

        let [reads, zero, hops, hops_max] = phase.read_hops.map(|v| v as f64);
        push("encoding.read_zero_decode_share", ratio(zero, reads), "ratio");
        push("encoding.decode_hops_mean", ratio(hops, reads), "count");
        push("encoding.decode_hops_max", hops_max, "count");

        let (cb, ca) = (&self.before.block_cache, &self.after.block_cache);
        let (bc_hits, bc_misses) = ((ca.hits - cb.hits) as f64, (ca.misses - cb.misses) as f64);
        let disk_written = (self.after.io.write_bytes - self.before.io.write_bytes) as f64;
        let rewritten = (a.compact.bytes_scanned - b.compact.bytes_scanned)
            .saturating_sub(a.compact.bytes_reclaimed - b.compact.bytes_reclaimed);
        push("storage.put_ns", r.put_ns, "ns");
        push("storage.get_ns", r.get_ns, "ns");
        push("storage.block_cache_hit_ratio", ratio(bc_hits, bc_hits + bc_misses), "ratio");
        push("storage.write_amp", ratio(disk_written, written as f64), "ratio");
        push(
            "storage.space_amp",
            ratio((a.stored_bytes + a.maint_dead_bytes) as f64, a.stored_bytes as f64),
            "ratio",
        );
        push("storage.compact_bytes_rewritten", rewritten as f64, "B");
        // Already at reference speed (set-up has its own slices).
        push("storage.reopen_s", reopen_s, "s");
        push("storage.blockz_mib_s", r.blockz_mib_s, "MiB/s");

        let apply = |c: &Counters| {
            let h = c.secondary_stages.get(Stage::ReplApply);
            (h.mean() * h.count() as f64, h.count() as f64)
        };
        let ((ns1, n1), (ns0, n0)) = (apply(&self.after), apply(&self.before));
        push("repl.sync.busy_share", ratio(time(Kind::Sync), stopwatch), "ratio");
        push("repl.ship_bytes_per_op", ratio(shipped as f64, plan.measured as f64), "B");
        push("repl.apply_us_per_entry", ratio((ns1 - ns0) / 1e3, n1 - n0) * speed, "us");
        push("repl.lag_entries_max", phase.lag_entries_max as f64, "count");

        let mut ticks = phase.tick_ns.clone();
        push("maint.tick.busy_share", ratio(time(Kind::Tick), stopwatch), "ratio");
        push("maint.tick.p99_us", quantile_us(&mut ticks, 0.99) * speed, "us");
        push("maint.tick.max_us", quantile_us(&mut ticks, 1.0) * speed, "us");
        push("maint.gc_reencoded", phase.gc_reencoded as f64, "count");
        push("maint.compact_reclaimed_bytes", phase.compact_reclaimed_bytes as f64, "B");
        // A run entry is six bytes on disk.
        push("maint.index_merge_bytes", phase.index_merged_entries as f64 * 6.0, "B");
        push(
            "maint.backlog_end",
            (a.maint_gc_backlog + a.maint_degraded_backlog + ia.merge_backlog) as f64,
            "count",
        );

        let traced_quarter =
            ratio((plan.measured / 4) as f64, phase.quarter_ns as f64 / 1e9 * speed);
        push("obs.trace_overhead_share", 1.0 - ratio(traced_quarter, self.refs.dedup.0), "ratio");
        push("obs.registry_render_us", self.registry_render_us, "us");
        push(
            "workloads.gen_share",
            ratio(phase.gen_ns as f64, phase.gen_ns as f64 + stopwatch),
            "ratio",
        );

        if let Some(path) = &cfg.spans_out {
            write_spans(path, phase).map_err(err)?;
        }
        Ok(())
    }
}

/// One JSON object per line: `name`, `start_ns`, `end_ns` (since the phase
/// began), `parent` (line index of the span that waited for this one, or
/// null) and `op` (index of the client op in the op list).
fn write_spans(path: &std::path::Path, phase: &Phase) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &phase.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.op
        )?;
    }
    out.flush()
}
