//! The smoke preset (about 1 % of the full op counts) on all four
//! workloads: every check passes, one seed gives one op list, one set of
//! bytes on disk and therefore the same ratios, and another seed gives
//! another op list.

use dbdedup_perf::workload::{Preset, Workload, WORKLOADS};
use dbdedup_perf::{run, Report, RunConfig};
use std::path::Path;

fn smoke(base: &Path, workload: Workload, seed: u64, run_no: u32) -> Report {
    let cfg = RunConfig {
        workload,
        seed,
        preset: Preset::Smoke,
        trace: false,
        data_dir: base.join(format!("{}-{seed}-{run_no}", workload.name())),
        spans_out: None,
        pinned: false,
        pipeline: None,
    };
    let report = run(&cfg).expect("smoke run");
    assert!(report.correct, "{}: a check failed: {report:?}", workload.name());
    assert_eq!(report.failed, 0, "{}", workload.name());
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report.metrics.iter().find(|m| m.name == name).expect("metric reported").value
}

#[test]
fn smoke_runs_are_correct_and_repeat_exactly() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&base).expect("scratch directory");
    // The one test of this binary, so nothing else reads the variable:
    // the engine's temporary stores stay under the target directory.
    std::env::set_var("TMPDIR", &base);
    for name in WORKLOADS {
        let workload = Workload::parse(name).expect("listed workload");
        let first = smoke(&base, workload, 7, 0);
        let again = smoke(&base, workload, 7, 1);
        let other = smoke(&base, workload, 8, 0);
        assert_eq!(first.attempted, workload.plan(Preset::Smoke).measured);
        assert_eq!(first.attempted, again.attempted);
        assert_eq!(first.attempted, other.attempted);
        assert_eq!(first.op_hash, again.op_hash, "{name}: one seed, one op list");
        assert_eq!(first.segment_hash, again.segment_hash, "{name}: one seed, one set of bytes");
        for ratio in ["storage_ratio", "network_ratio"] {
            assert_eq!(metric(&first, ratio), metric(&again, ratio), "{name}: {ratio}");
        }
        assert_ne!(first.op_hash, other.op_hash, "{name}: another seed, another op list");
    }
    std::fs::remove_dir_all(&base).expect("scratch directory removed");
}
