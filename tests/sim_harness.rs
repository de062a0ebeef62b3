//! Simulation smoke sweep — the CI-facing entry point for the
//! deterministic replication simulator (`scripts/ci.sh` step `sim-smoke`).
//!
//! A fixed set of seeds runs the full fault schedule (partitions, heals,
//! crash-restarts, transport drops, slow applies, overload bursts) and
//! must converge byte-identically. A failure prints the seed: re-running
//! that seed replays the exact schedule.

use dbdedup::repl::sim::{SimConfig, SimReport, Simulation};

/// The fixed CI seeds. Chosen so the sweep collectively exercises every
/// fault path (asserted below) while staying well under the 30 s budget.
const SMOKE_SEEDS: [u64; 6] = [1, 2, 3, 42, 0xD15EA5E, 0xFEED_FACE];

fn run(cfg: SimConfig) -> SimReport {
    let seed = cfg.seed;
    Simulation::new(cfg)
        .unwrap()
        .run()
        .unwrap_or_else(|e| panic!("sim-smoke FAILED on seed {seed}: {e}"))
}

#[test]
fn sim_smoke_fixed_seeds_converge() {
    let mut partitions = 0;
    let mut crashes = 0;
    let mut drops = 0;
    let mut backpressure = 0;
    let mut catchups = 0;
    for seed in SMOKE_SEEDS {
        let report = run(SimConfig { seed, ticks: 50, ..Default::default() });
        partitions += report.partitions;
        crashes += report.crashes;
        drops += report.transport_drops;
        backpressure += report.backpressure_events;
        catchups += report.catchup_batches;
    }
    // The sweep as a whole must have actually exercised the machinery —
    // a sweep that injects nothing proves nothing.
    assert!(partitions > 0, "no partition across the whole sweep");
    assert!(crashes > 0, "no crash-restart across the whole sweep");
    assert!(drops > 0, "no transport fault across the whole sweep");
    assert!(backpressure > 0, "no overload across the whole sweep");
    assert!(catchups > 0, "no cursor catch-up across the whole sweep");
}

/// Seeds whose schedules, at a higher update rate, update records that
/// some node decodes through (`SimReport::decode_base_updates`) while the
/// nodes' write-back flushes disagree about it. A rule that branched on
/// that left a replica's bytes silently diverged on each of them at commit
/// bf8270d, before updates had one rule: 13, 95, 111, 216 and 290 under
/// its default chunker (the paper's Rabin fingerprint), the others with its
/// gear chunker selected (the only 9 failures among the 207 other seeds
/// below 300 that reach the case under gear).
const UPDATE_RULE_SEEDS: [u64; 14] =
    [6, 13, 75, 95, 104, 111, 124, 216, 226, 231, 247, 265, 274, 290];

/// Seeds picked the same way when the simulator cut chunks with the paper's
/// Rabin fingerprint. Under gear their schedules no longer update a decode
/// base; they still run as convergence seeds.
const FORMER_UPDATE_RULE_SEEDS: [u64; 3] = [81, 149, 292];

#[test]
fn updates_of_decode_bases_converge_to_what_was_acked() {
    let cfg = |seed| SimConfig { seed, ticks: 60, update_prob: 0.3, ..Default::default() };
    for seed in UPDATE_RULE_SEEDS {
        assert!(run(cfg(seed)).decode_base_updates > 0, "seed {seed} updates no decode base");
    }
    for seed in FORMER_UPDATE_RULE_SEEDS {
        run(cfg(seed));
    }
}

#[test]
fn sim_smoke_is_deterministic() {
    let cfg = SimConfig { seed: 42, ticks: 50, ..Default::default() };
    let a = run(cfg.clone());
    let b = run(cfg);
    assert_eq!(a, b, "same seed must produce the identical report");
    // The structured event trace is part of the contract: byte-identical
    // JSONL across the two runs, and every line is a valid JSON object.
    assert!(!a.events_jsonl.is_empty(), "the schedule must log events");
    assert_eq!(a.events_jsonl, b.events_jsonl, "event trace must be byte-identical");
    for line in a.events_jsonl.lines() {
        let obj =
            dbdedup_obs::json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
        assert!(obj.get("seq").is_some() && obj.get("kind").is_some(), "{line}");
    }
}
