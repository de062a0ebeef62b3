//! Set-up, the timed phase, and the correctness checks.
//!
//! One closed-loop client on one thread drives `DedupEngine` insert /
//! read / update / delete on the primary, `ReplicaSet::sync` to one
//! secondary every [`SYNC_EVERY`] ops and `Maintainer::tick` every
//! [`TICK_EVERY`] ops — by op count, never by wall clock, so what the
//! engine is asked to do is a function of the seed alone.

use crate::env::Calibrator;
use crate::workload::{Op, OpStream, Plan, Workload};
use crate::{fnv1a, FNV_OFFSET};
use dbdedup::repl::ReplicaSet;
use dbdedup::storage::store::{RecordStore, StoreConfig};
use dbdedup::util::hash::crc32::crc32;
use dbdedup::{
    DedupEngine, EngineConfig, EngineError, InsertOutcome, MaintConfig, Maintainer, RecordId,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ops between write-back pumps on the primary.
pub const PUMP_EVERY: u64 = 4;
/// Ops between maintenance ticks on the primary.
pub const TICK_EVERY: u64 = 64;
/// Ops between replication syncs.
pub const SYNC_EVERY: u64 = 32;
/// Modeled client think time per op, fed to the engine's I/O meter (a
/// 200-IOPS device model): at 25 ms per op the modeled device has idle
/// capacity for about four write-back flushes per client op, so the
/// write-back cache drains in steady state instead of only at exit.
const SIM_SECS_PER_OP: f64 = 0.025;
/// Write-backs one pump may flush.
const PUMP_MAX_FLUSHES: usize = 16;
/// Calibration slices interleaved with a phase.
const CALIB_SLICES: u64 = 256;
/// Ops generated per batch, between timed sections.
const BATCH: usize = 256;
/// The tiered index's hot budget on `churn_tiered`: about one eighth of
/// what the unbounded index holds at the end of the same op list
/// (measured once with the budget off, then frozen).
pub const CHURN_HOT_BUDGET_BYTES: usize = 16 << 10;
/// Records re-read after the final close and reopen, and compared between
/// primary and secondary.
const VERIFY_SAMPLE: u64 = 1024;

/// Span and latency kinds, indexable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Client insert.
    Insert,
    /// Client read.
    Read,
    /// Client update.
    Update,
    /// Client delete.
    Delete,
    /// Write-back pump (child of the op that waited behind it).
    Pump,
    /// Maintenance tick (child of the op that waited behind it).
    Tick,
    /// Replication sync to the secondary.
    Sync,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 7] =
        [Kind::Insert, Kind::Read, Kind::Update, Kind::Delete, Kind::Pump, Kind::Tick, Kind::Sync];

    /// The span name.
    pub fn name(self) -> &'static str {
        ["insert", "read", "update", "delete", "pump", "tick", "sync"][self as usize]
    }
}

/// One benchmark-side span around a public call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Nanoseconds since the phase started.
    pub start_ns: u64,
    /// Nanoseconds since the phase started.
    pub end_ns: u64,
    /// Index of the span that waited for this one, if any.
    pub parent: Option<u32>,
    /// Index of the client op in the op list (preload excluded).
    pub op: u64,
}

/// What the timed phase recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Client latency samples in nanoseconds, by `Kind` (ops only). A
    /// pump or tick the op waited behind is included.
    pub latency_ns: [Vec<u64>; 4],
    /// Total time per `Kind`.
    pub time_ns: [u64; 7],
    /// Client ops' own time per `Kind`: the span less the pump and tick the
    /// op waited behind.
    pub self_ns: [u64; 4],
    /// Per-tick durations.
    pub tick_ns: Vec<u64>,
    /// Generator time between timed sections.
    pub gen_ns: u64,
    /// Times of the calibration slices interleaved with the phase.
    pub calib_ns: Vec<u64>,
    /// Ops that returned an error or a wrong answer.
    pub failed: u64,
    /// Most oplog entries ever waiting for a sync.
    pub lag_entries_max: u64,
    /// Summed maintenance work.
    pub gc_reencoded: u64,
    /// Bytes reclaimed by compaction steps.
    pub compact_reclaimed_bytes: u64,
    /// Entries rewritten by index-run merges.
    pub index_merged_entries: u64,
    /// Stopwatch reading when a quarter of the ops were done.
    pub quarter_ns: u64,
    /// Logical live bytes ÷ bytes on disk under the primary's directory,
    /// after every batch of the phase.
    pub storage_ratio: Vec<f64>,
    /// Spans, when tracing.
    pub spans: Vec<Span>,
    /// When tracing: up to 256 inserted records with the source the
    /// engine deduplicated them against, if it did — the layer replay's
    /// input.
    pub inserted: Vec<(Option<RecordId>, Vec<u8>)>,
    /// When tracing: decode hops the chain manager reports for each read
    /// (count, zero-hop count, sum, max).
    pub read_hops: [u64; 4],
}

impl Phase {
    /// The machine's speed during the phase (1.0 = reference).
    pub fn speed(&self) -> f64 {
        Calibrator::speed(&self.calib_ns)
    }

    /// The stopwatch: client ops (with the pumps and ticks they waited
    /// behind) plus syncs.
    pub fn stopwatch_ns(&self) -> u64 {
        self.time_ns[..4].iter().sum::<u64>() + self.time_ns[Kind::Sync as usize]
    }

    /// Ops timed.
    pub fn ops(&self) -> u64 {
        self.latency_ns.iter().map(|v| v.len() as u64).sum()
    }
}

/// Where a node's files live.
#[derive(Debug, Clone)]
pub struct NodeDirs {
    /// The primary's store directory (segments and index runs).
    pub primary: PathBuf,
    /// The secondary's store directory.
    pub secondary: PathBuf,
    /// The primary's durable oplog for the current phase.
    pub oplog: PathBuf,
}

impl NodeDirs {
    fn under(root: &Path) -> Self {
        Self {
            primary: root.join("primary"),
            secondary: root.join("secondary"),
            oplog: root.join("oplog-preload.log"),
        }
    }
}

/// The engine configuration of `workload`: the paper's defaults, plus the
/// index hot budget on `churn_tiered`. `dedup` off gives the Fig. 12
/// "original" reference.
pub fn engine_config(workload: Workload, trace: bool, dedup: bool) -> EngineConfig {
    let mut c = if dedup { EngineConfig::default() } else { EngineConfig::no_dedup() };
    if trace {
        c.trace_sample_every = 1;
    }
    if workload == Workload::ChurnTiered {
        c.index_hot_budget_bytes = Some(CHURN_HOT_BUDGET_BYTES);
    }
    c
}

/// Maintenance as each workload runs it: the defaults, with the in-tick
/// integrity scrub only on `churn_tiered`. The tick period is a count of
/// ops, and a scrub slice re-decodes whole chains (about 2 ms on the wiki
/// stores): every 64 reads of 4 us each it would be half of `wiki_read`.
/// Scrub is exercised where maintenance is the subject.
pub fn maint_config(workload: Workload) -> MaintConfig {
    let mut c = MaintConfig::default();
    if workload != Workload::ChurnTiered {
        c.scrub_budget_bytes = 0;
    }
    c
}

fn open_engine(dir: &Path, config: EngineConfig) -> Result<DedupEngine, EngineError> {
    // fsync stays off (the paper's journaling-disabled set-up): durability
    // cost is the host file system's and is not what this benchmark times.
    let store = RecordStore::open(dir, StoreConfig::default())?;
    DedupEngine::new(store, config)
}

/// Opens a primary (with a durable oplog at `dirs.oplog`) and a secondary
/// over `dirs` and joins them. `ReplicaSet` can only be built over
/// temporary stores; its nodes are public fields, so the temporary pair is
/// swapped for the real one.
fn open_set(dirs: &NodeDirs, config: &EngineConfig) -> Result<ReplicaSet, EngineError> {
    let mut primary_cfg = config.clone();
    primary_cfg.oplog_path = Some(dirs.oplog.clone());
    let mut set = ReplicaSet::open_temp(EngineConfig::no_dedup(), 1)?;
    set.primary = open_engine(&dirs.primary, primary_cfg)?;
    set.secondaries[0] = open_engine(&dirs.secondary, config.clone())?;
    Ok(set)
}

/// Set-up timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything below: open, preload, flush, quiesce, close, reopen; at
    /// the reference machine speed.
    pub total_s: f64,
    /// The reopen with recovery alone (both nodes), likewise.
    pub reopen_s: f64,
}

/// Builds the long-lived store: opens both nodes on fresh directories,
/// bulk-inserts the preload through the primary (syncing and pumping as
/// in steady state), flushes every write-back, drains maintenance, closes
/// both nodes and reopens them with recovery. Generator time is excluded.
pub fn setup(
    root: &Path,
    config: &EngineConfig,
    stream: &mut OpStream,
    plan: Plan,
    calib: &mut Calibrator,
) -> Result<(ReplicaSet, NodeDirs, SetupTimes), EngineError> {
    let mut dirs = NodeDirs::under(root);
    let mut timed = 0u64;
    let mut slices = Vec::new();
    let t = Instant::now();
    let mut set = open_set(&dirs, config)?;
    timed += t.elapsed().as_nanos() as u64;

    let mut batch = Vec::with_capacity(BATCH);
    let mut i = 0u64;
    while i < plan.preload {
        stream.next_batch(BATCH, &mut batch);
        slices.push(calib.slice());
        let t = Instant::now();
        for op in batch.drain(..) {
            let Op::Insert { db, id, data } = op else { unreachable!("preload is insert-only") };
            set.primary.insert(db, id, &data)?;
            i += 1;
            if i.is_multiple_of(PUMP_EVERY) {
                set.primary.pump(PUMP_EVERY as f64 * SIM_SECS_PER_OP, PUMP_MAX_FLUSHES)?;
            }
            if i.is_multiple_of(SYNC_EVERY) {
                sync(&mut set)?;
            }
        }
        timed += t.elapsed().as_nanos() as u64;
    }

    let t = Instant::now();
    set.sync()?;
    set.flush_all()?;
    Maintainer::new(MaintConfig::default()).run_until_quiesced(&mut set.primary)?;
    drop(set);

    // The secondary has applied everything, so the preload's oplog is
    // retired (a deployment trims it by retention) and the measured phase
    // starts a fresh one at LSN 0, where a new `ReplicaSet`'s cursors start.
    dirs.oplog = root.join("oplog.log");
    let t_reopen = Instant::now();
    let set = open_set(&dirs, config)?;
    let reopen_s = t_reopen.elapsed().as_secs_f64();
    timed += t.elapsed().as_nanos() as u64;
    slices.extend((0..8).map(|_| calib.slice()));
    let speed = Calibrator::speed(&slices);
    Ok((set, dirs, SetupTimes { total_s: timed as f64 / 1e9 * speed, reopen_s: reopen_s * speed }))
}

fn sync(set: &mut ReplicaSet) -> Result<(), EngineError> {
    set.sync()?;
    // The secondary's own write-backs flush in the idle time its modeled
    // device has had since the last batch.
    set.secondaries[0].pump(SYNC_EVERY as f64 * SIM_SECS_PER_OP, PUMP_MAX_FLUSHES)?;
    Ok(())
}

/// A store that has been set up, with everything that drives it.
pub struct Rig {
    /// Primary and secondary.
    pub set: ReplicaSet,
    /// Where their files are.
    pub dirs: NodeDirs,
    /// The op list, positioned at the next op to run.
    pub stream: OpStream,
    /// Median set-up times over the repetitions.
    pub setup: SetupTimes,
    maint: Maintainer,
    calib: Calibrator,
    /// Ops run since the reopen; pumps, ticks and syncs fall on multiples
    /// of their periods of this index.
    next_op: u64,
}

impl Rig {
    /// Sets up `reps` times under `root`, each time on fresh directories,
    /// and keeps the last store.
    pub fn set_up(
        root: &Path,
        workload: Workload,
        seed: u64,
        plan: Plan,
        config: &EngineConfig,
        reps: usize,
    ) -> Result<Self, String> {
        let mut calib = Calibrator::new();
        let mut times = Vec::with_capacity(reps);
        let mut kept: Option<(ReplicaSet, NodeDirs, OpStream)> = None;
        for rep in 0..reps {
            // The previous repetition's store goes before the next is built.
            if let Some((set, ..)) = kept.take() {
                drop(set);
                std::fs::remove_dir_all(root.join(format!("rep{}", rep - 1)))
                    .map_err(|e| e.to_string())?;
            }
            let mut stream = OpStream::new(workload, seed, plan);
            let (set, dirs, t) =
                setup(&root.join(format!("rep{rep}")), config, &mut stream, plan, &mut calib)
                    .map_err(|e| e.to_string())?;
            times.push(t);
            kept = Some((set, dirs, stream));
        }
        let (set, dirs, stream) = kept.ok_or("no set-up repetitions")?;
        let median = |f: fn(&SetupTimes) -> f64| {
            let mut v: Vec<f64> = times.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        Ok(Self {
            set,
            dirs,
            stream,
            setup: SetupTimes { total_s: median(|t| t.total_s), reopen_s: median(|t| t.reopen_s) },
            maint: Maintainer::new(maint_config(workload)),
            calib,
            next_op: 0,
        })
    }

    /// Runs the next `ops` ops of the op list. Everything is timed and
    /// checked into `p` (a warm-up's is thrown away, apart from its
    /// failures).
    pub fn run(&mut self, ops: u64, trace: bool, p: &mut Phase) -> Result<(), String> {
        let Self { set, stream, maint, calib, .. } = self;
        let first_op = self.next_op;
        self.next_op += ops;
        let origin = Instant::now();
        let now = || origin.elapsed().as_nanos() as u64;
        let mut batch = Vec::with_capacity(BATCH);
        let mut done = 0u64;
        let keep_every = (ops / 4096).max(1);
        let calib_every = (ops / CALIB_SLICES).max(1);
        let mut inserts = 0u64;
        while done < ops {
            let t_gen = now();
            stream.next_batch(BATCH.min((ops - done) as usize), &mut batch);
            p.gen_ns += now() - t_gen;
            for op in batch.drain(..) {
                let i = first_op + done;
                if done.is_multiple_of(calib_every) {
                    p.calib_ns.push(calib.slice());
                }
                if let (true, Op::Read { id, .. }) = (trace, &op) {
                    let hops = set.primary.retrievals_for(*id).unwrap_or(0) as u64;
                    p.read_hops[0] += 1;
                    p.read_hops[1] += u64::from(hops == 0);
                    p.read_hops[2] += hops;
                    p.read_hops[3] = p.read_hops[3].max(hops);
                }
                // The op's clock starts before any background work it has to
                // wait behind: that stall is what a client sees.
                let t0 = now();
                let mut pump = None;
                let mut tick = None;
                if i.is_multiple_of(PUMP_EVERY) {
                    set.primary
                        .pump(PUMP_EVERY as f64 * SIM_SECS_PER_OP, PUMP_MAX_FLUSHES)
                        .map_err(|e| format!("pump before op {i}: {e}"))?;
                    pump = Some((t0, now()));
                }
                if i.is_multiple_of(TICK_EVERY) && i > 0 {
                    let t = now();
                    let report = maint
                        .tick(&mut set.primary)
                        .map_err(|e| format!("tick before op {i}: {e}"))?;
                    tick = Some((t, now()));
                    p.gc_reencoded += report.reencoded;
                    p.compact_reclaimed_bytes += report.compact.bytes_reclaimed;
                    p.index_merged_entries += report.index_merged_entries;
                }
                // Each arm reads the clock right after the engine call; a
                // read's byte comparison is the benchmark's work, not the
                // client's, and stays outside the op's time.
                let (kind, t_end, ok, source) = match &op {
                    Op::Insert { db, id, data } => {
                        let r = set.primary.insert(db, *id, data);
                        let source = match r {
                            Ok(InsertOutcome::Deduped { source, .. }) => Some(source),
                            _ => None,
                        };
                        (Kind::Insert, now(), r.is_ok(), source)
                    }
                    Op::Read { id, crc, len } => {
                        let r = set.primary.read(*id);
                        let t = now();
                        let ok = r.is_ok_and(|b| b.len() as u32 == *len && crc32(&b) == *crc);
                        (Kind::Read, t, ok, None)
                    }
                    Op::Update { id, data } => {
                        let r = set.primary.update(*id, data);
                        (Kind::Update, now(), r.is_ok(), None)
                    }
                    Op::Delete { id } => {
                        let r = set.primary.delete(*id);
                        (Kind::Delete, now(), r.is_ok(), None)
                    }
                };
                done += 1;
                let synced = if (i + 1).is_multiple_of(SYNC_EVERY) {
                    let lag = set.primary.oplog_pending() as u64;
                    let t = now();
                    sync(set).map_err(|e| format!("sync after op {i}: {e}"))?;
                    Some((t, now(), lag))
                } else {
                    None
                };
                p.latency_ns[kind as usize].push(t_end - t0);
                p.time_ns[kind as usize] += t_end - t0;
                p.failed += u64::from(!ok);
                let parent = p.spans.len() as u32;
                if trace {
                    p.spans.push(Span { kind, start_ns: t0, end_ns: t_end, parent: None, op: i });
                }
                p.self_ns[kind as usize] += t_end - t0;
                for (k, child) in [(Kind::Pump, pump), (Kind::Tick, tick)] {
                    let Some((s, e)) = child else { continue };
                    p.time_ns[k as usize] += e - s;
                    p.self_ns[kind as usize] -= e - s;
                    if k == Kind::Tick {
                        p.tick_ns.push(e - s);
                    }
                    if trace {
                        p.spans.push(Span {
                            kind: k,
                            start_ns: s,
                            end_ns: e,
                            parent: Some(parent),
                            op: i,
                        });
                    }
                }
                if let Some((s, e, lag)) = synced {
                    p.lag_entries_max = p.lag_entries_max.max(lag);
                    p.time_ns[Kind::Sync as usize] += e - s;
                    if trace {
                        p.spans.push(Span {
                            kind: Kind::Sync,
                            start_ns: s,
                            end_ns: e,
                            parent: None,
                            op: i,
                        });
                    }
                }
                if let Op::Insert { data, .. } = op {
                    inserts += 1;
                    if trace && inserts.is_multiple_of(keep_every) && p.inserted.len() < 256 {
                        p.inserted.push((source, data));
                    }
                }
                if done == ops / 4 {
                    p.quarter_ns = p.stopwatch_ns();
                }
            }
            // Between batches the model and the engine are at the same op.
            let disk = dir_bytes(set.primary.store().dir());
            p.storage_ratio.push(stream.live_bytes() as f64 / disk.max(1) as f64);
        }
        Ok(())
    }
}

/// The outcome of the end-of-run checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Sampled live ids whose primary and secondary checksums agree with
    /// each other and with the model.
    pub replicas_agree: bool,
    /// Sampled inserted-and-never-modified ids read back byte-equal to the
    /// model right after a close and reopen.
    pub survives_reopen: bool,
    /// Sampled ids whose last write was an update, and how many of them
    /// read back as something else after the reopen. The engine holds an
    /// update of a record that other records decode through in memory
    /// (its `shadow` table) until the dependents are gone, so a clean
    /// close loses it; the benchmark counts this instead of hiding it.
    pub updates_sampled: u64,
    /// See `updates_sampled`.
    pub updates_lost: u64,
    /// Sampled deleted ids, and how many were readable again after the
    /// reopen (a deleted record pinned by dependents has no tombstone yet).
    pub deletes_sampled: u64,
    /// See `deletes_sampled`.
    pub deletes_resurrected: u64,
    /// FNV-1a over the primary's segment files, in name order.
    pub segment_hash: u64,
}

/// Evenly spaced sample of `0..ids`.
fn sample_ids(ids: u64) -> impl Iterator<Item = u64> {
    let step = (ids / VERIFY_SAMPLE).max(1);
    (0..ids).step_by(step as usize)
}

/// Compares primary and secondary on a sample, closes both, hashes the
/// primary's segments, reopens the primary and re-reads the sample.
pub fn verify(rig: Rig, config: &EngineConfig) -> Result<Verdict, EngineError> {
    let Rig { mut set, dirs, stream, .. } = rig;
    let mut v = Verdict { replicas_agree: true, survives_reopen: true, ..Verdict::default() };
    set.sync()?;
    for id in sample_ids(stream.ids()) {
        let Some(expect) = stream.expect(id) else { continue };
        let p = set.primary.content_checksum(RecordId(id));
        let s = set.secondaries[0].content_checksum(RecordId(id));
        if !matches!((p, s), (Ok(a), Ok(b)) if a == b && a == expect.crc) {
            v.replicas_agree = false;
        }
    }
    drop(set);
    v.segment_hash = hash_segments(&dirs.primary).map_err(EngineError::Oplog)?;
    let mut primary = open_engine(&dirs.primary, config.clone())?;
    for id in sample_ids(stream.ids()) {
        let answer = primary.read(RecordId(id));
        match stream.expect(id) {
            Some(e) => {
                let same = answer.is_ok_and(|b| b.len() as u32 == e.len && crc32(&b) == e.crc);
                if e.updated {
                    v.updates_sampled += 1;
                    v.updates_lost += u64::from(!same);
                } else if !same {
                    v.survives_reopen = false;
                }
            }
            None => {
                v.deletes_sampled += 1;
                v.deletes_resurrected += u64::from(answer.is_ok());
            }
        }
    }
    Ok(v)
}

fn hash_segments(dir: &Path) -> std::io::Result<u64> {
    use std::io::Read;
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dat"))
        .collect();
    files.sort();
    let mut h = FNV_OFFSET;
    let mut buf = vec![0u8; 1 << 20];
    for path in files {
        let mut f = std::fs::File::open(path)?;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            h = fnv1a(h, &buf[..n]);
        }
    }
    Ok(h)
}

/// Bytes of every file under `dir`, recursively: segments and index runs.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
