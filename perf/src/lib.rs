//! Fixed-work, steady-state end-to-end benchmark of dbdedup.
//!
//! [`run`] executes one (workload, seed, preset): set-up (preload, flush,
//! close, reopen with recovery), a warm-up, the timed phase, and the
//! correctness checks. Untraced it reports the eight end-to-end metrics;
//! traced it repeats the same work with spans and the engine's stage tracer
//! at sample rate 1 and reports the per-layer budget instead. See
//! `README.md` for what each metric is expected to move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod env;
pub mod layers;
pub mod workload;

use dbdedup::EngineConfig;
use driver::{Kind, Phase, Rig};
use std::path::{Path, PathBuf};
use workload::{Plan, Preset, Workload};

/// One invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the op list.
    pub seed: u64,
    /// Which frozen op counts.
    pub preset: Preset,
    /// Traced (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Directory for stores, oplogs and index runs; created, and removed
    /// again before returning.
    pub data_dir: PathBuf,
    /// Where to write the span JSONL of a traced run.
    pub spans_out: Option<PathBuf>,
    /// Whether the entry script pinned this process with `taskset`.
    pub pinned: bool,
    /// `core.pipeline.speedup_w2` and `core.pipeline.commit_stall_share`,
    /// measured by an unpinned [`layers::pipeline_probe`] process that the
    /// entry script ran first (a pinned process has one CPU).
    pub pipeline: Option<(f64, f64)>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of the op list.
    pub seed: u64,
    /// Preset name.
    pub preset: &'static str,
    /// Whether this was the traced invocation.
    pub trace: bool,
    /// Every check passed: no failed op, replicas agree, acknowledged
    /// writes survive a reopen.
    pub correct: bool,
    /// Ops timed (frozen per preset).
    pub attempted: u64,
    /// Ops that errored or answered wrongly, warm-up included.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Timed samples per client op kind: insert, read, update, delete.
    pub samples: [u64; 4],
    /// Stopwatch time of the measured phase, seconds, as the clock read it.
    pub measured_s: f64,
    /// The machine's speed during the measured phase as a multiple of the
    /// reference speed; reported times are clock times multiplied by it.
    pub machine_speed: f64,
    /// FNV-1a of the op list (preload and warm-up included).
    pub op_hash: u64,
    /// FNV-1a of the primary's segment files after the final close.
    pub segment_hash: u64,
    /// CPUs of the machine.
    pub cores: usize,
    /// CPUs this process could use.
    pub usable_cores: usize,
    /// Whether the process was pinned.
    pub pinned: bool,
    /// File system under the data directory.
    pub fs: String,
    /// |after ÷ before − 1| of the calibration kernel.
    pub calib_drift: f64,
    /// Calibration drifted by more than 5 %: something else ran.
    pub disturbed: bool,
}

/// Set-ups per full untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Exact quantile of nanosecond samples, in microseconds.
pub fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

/// Start value of [`fnv1a`].
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`, eight bytes per multiply (then
/// the remainder bytewise): a change detector over hundreds of MiB, not a
/// cryptographic digest.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Sets up under `root` and runs the warm-up. Returns the rig, positioned
/// at the first measured op, and how many warm-up ops failed.
pub(crate) fn prepare(
    root: &Path,
    workload: Workload,
    seed: u64,
    plan: Plan,
    config: &EngineConfig,
    reps: usize,
) -> Result<(Rig, u64), String> {
    let mut rig = Rig::set_up(root, workload, seed, plan, config, reps)?;
    let mut warm = Phase::default();
    rig.run(plan.warmup, false, &mut warm)?;
    rig.set.sync().map_err(err)?;
    Ok((rig, warm.failed))
}

/// Runs one invocation. Errors are infrastructure failures (a directory
/// that cannot be created, an engine call that fails outside a client op);
/// a wrong answer in the timed phase is a `failed` op, not an error.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let plan = cfg.workload.plan(cfg.preset);
    let config = driver::engine_config(cfg.workload, cfg.trace, true);
    std::fs::create_dir_all(&cfg.data_dir).map_err(err)?;
    let fs = env::fs_type(&cfg.data_dir);
    let mut calib = env::Calibrator::new();
    let calib_before = calib.now(9);
    let refs = if cfg.trace { Some(layers::References::measure(cfg)?) } else { None };

    // Only the untraced run reports `setup_s`, so only it repeats set-up.
    let reps = if cfg.preset == Preset::Full && !cfg.trace { SETUP_REPS } else { 1 };
    let root = cfg.data_dir.join("main");
    let (mut rig, warm_failed) = prepare(&root, cfg.workload, cfg.seed, plan, &config, reps)?;
    let shipped0 = rig.set.total_network_bytes();
    let written0 = rig.stream.written_bytes();
    let before = refs.map(|refs| (layers::Counters::read(&rig.set), refs));

    let mut phase = Phase::default();
    rig.run(plan.measured, cfg.trace, &mut phase)?;
    rig.set.sync().map_err(err)?;
    let shipped = rig.set.total_network_bytes() - shipped0;
    let written = rig.stream.written_bytes() - written0;

    let measured_s = phase.stopwatch_ns() as f64 / 1e9;
    let samples = [0, 1, 2, 3].map(|k| phase.latency_ns[k].len() as u64);
    let traced = match before {
        Some((before, refs)) => {
            Some(layers::Traced::collect(cfg, &config, &mut phase, &mut rig.set, before, refs)?)
        }
        None => None,
    };
    let (setup, op_hash) = (rig.setup, rig.stream.op_hash());
    let verdict = driver::verify(rig, &config).map_err(err)?;
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    match traced {
        Some(traced) => traced.metrics(
            cfg,
            plan,
            &phase,
            &verdict,
            setup.reopen_s,
            written,
            shipped,
            &mut push,
        )?,
        None => {
            // Times are at the reference machine speed: see `Calibrator`.
            let speed = phase.speed();
            let [ins, rd, ..] = &mut phase.latency_ns;
            push("setup_s", setup.total_s, "s");
            push("ops_s", plan.measured as f64 / (measured_s * speed), "1/s");
            push("insert_p50_us", quantile_us(ins, 0.50) * speed, "us");
            push("insert_p99_us", quantile_us(ins, 0.99) * speed, "us");
            // The median read is demoted to the traced run (`core.read.p50_us`):
            // on `wiki_read` it is a 2 us copy of a cached record, bound by
            // the memory system the sandbox shares with its neighbours, and
            // sets of ten spread by up to 22 %.
            push("read_p99_us", quantile_us(rd, 0.99) * speed, "us");
            // The mean over the phase: where in its cycle compaction
            // happens to be at the last op is not a property of the code.
            let ratio = phase.storage_ratio.iter().sum::<f64>() / phase.storage_ratio.len() as f64;
            push("storage_ratio", ratio, "ratio");
            push("network_ratio", written as f64 / shipped.max(1) as f64, "ratio");
            // Read last, after the final reopen: the high-water mark at exit.
            push("peak_rss_mib", env::peak_rss_mib(), "MiB");
        }
    }
    std::fs::remove_dir_all(&cfg.data_dir).map_err(err)?;

    let calib_after = calib.now(9);
    let calib_drift = (calib_after / calib_before - 1.0).abs();
    if cfg.trace {
        metrics.push(Metric {
            name: "bench.calib_drift".into(),
            value: calib_drift,
            unit: "ratio",
        });
    }
    let failed = warm_failed + phase.failed;
    Ok(Report {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        preset: cfg.preset.name(),
        trace: cfg.trace,
        correct: failed == 0
            && phase.ops() == plan.measured
            && verdict.replicas_agree
            && verdict.survives_reopen,
        attempted: plan.measured,
        failed,
        metrics,
        samples,
        measured_s,
        machine_speed: phase.speed(),
        op_hash,
        segment_hash: verdict.segment_hash,
        cores: env::machine_cores(),
        usable_cores: env::usable_cores(),
        pinned: cfg.pinned,
        fs,
        calib_drift,
        disturbed: calib_drift > 0.05,
    })
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The full report as one JSON object: the result line's keys plus the
    /// run's identity, environment and determinism hashes. This is what
    /// `run.py --out` saves and `run.py --compare` reads.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"preset\": \"{}\", \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {{\"insert\": {}, \
             \"read\": {}, \"update\": {}, \"delete\": {}}}, \"measured_s\": {}, \
             \"machine_speed\": {}, \"op_hash\": \"{:016x}\", \"segment_hash\": \"{:016x}\", \"cores\": {}, \
             \"usable_cores\": {}, \"pinned\": {}, \"fs\": \"{}\", \"calib_drift\": {}, \
             \"disturbed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.preset,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            self.samples[Kind::Insert as usize],
            self.samples[Kind::Read as usize],
            self.samples[Kind::Update as usize],
            self.samples[Kind::Delete as usize],
            num(self.measured_s),
            num(self.machine_speed),
            self.op_hash,
            self.segment_hash,
            self.cores,
            self.usable_cores,
            self.pinned,
            self.fs,
            num(self.calib_drift),
            self.disturbed,
            self.metrics_json()
        )
    }
}

/// A JSON number with all the digits measured (non-finite becomes 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
