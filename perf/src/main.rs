//! Command line of the benchmark binary; `run.py` builds and invokes it.

use dbdedup_perf::workload::{Preset, Workload, WORKLOADS};
use dbdedup_perf::{run, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dbdedup-perf --workload <name> --seed <n> --data-dir <dir> \
                     [--preset full|smoke] [--trace 0|1] [--pinned 0|1] [--spans-out <file>] \
                     [--out <file>] [--pipeline <speedup>,<stall share>] [--pipeline-probe 1]";

struct Args {
    cfg: RunConfig,
    out: Option<PathBuf>,
    /// Only measure the parallel-ingest pipeline and print its two numbers.
    pipeline_probe: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut data_dir = None;
    let mut preset = Preset::Full;
    let mut trace = false;
    let mut pinned = false;
    let mut spans_out = None;
    let mut out = None;
    let mut pipeline = None;
    let mut pipeline_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let switch = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", WORKLOADS.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            "--preset" => {
                preset = match value.as_str() {
                    "full" => Preset::Full,
                    "smoke" => Preset::Smoke,
                    _ => return Err("--preset takes full or smoke".into()),
                }
            }
            "--trace" => trace = switch(&value)?,
            "--pinned" => pinned = switch(&value)?,
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--pipeline" => {
                let parsed = value
                    .split_once(',')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                pipeline = Some(parsed.ok_or("--pipeline takes <speedup>,<stall share>")?)
            }
            "--pipeline-probe" => pipeline_probe = switch(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cfg = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        preset,
        trace,
        data_dir: data_dir.ok_or("--data-dir is required")?,
        spans_out,
        pinned,
        pipeline,
    };
    Ok(Args { cfg, out, pipeline_probe })
}

fn main() -> ExitCode {
    let Args { cfg, out, pipeline_probe } = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `ReplicaSet::open_temp` and the layer replays create their scratch
    // stores under the temp dir: keep them inside the data directory.
    std::env::set_var("TMPDIR", &cfg.data_dir);
    if pipeline_probe {
        let made = std::fs::create_dir_all(&cfg.data_dir).map_err(|e| e.to_string());
        let probed = made.and_then(|()| {
            dbdedup_perf::layers::pipeline_probe(cfg.workload, cfg.seed, cfg.preset)
        });
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        return match probed {
            Ok((speedup, stall)) => {
                println!("{speedup},{stall}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pipeline probe failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            let _ = std::fs::remove_dir_all(&cfg.data_dir);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} preset {} trace {} cores {} usable_cores {} pinned {} fs {}",
        report.workload,
        report.seed,
        report.preset,
        u8::from(report.trace),
        report.cores,
        report.usable_cores,
        u8::from(report.pinned),
        report.fs
    );
    println!(
        "attempted {} failed {} correct {} measured_s {:.3} machine_speed {:.3} samples insert={} read={} update={} delete={}",
        report.attempted,
        report.failed,
        report.correct,
        report.measured_s,
        report.machine_speed,
        report.samples[0],
        report.samples[1],
        report.samples[2],
        report.samples[3]
    );
    println!("op_hash {:016x} segment_hash {:016x}", report.op_hash, report.segment_hash);
    println!(
        "calib_drift {:.4}{}",
        report.calib_drift,
        if report.disturbed { " DISTURBED" } else { "" }
    );
    for m in &report.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.to_json() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
