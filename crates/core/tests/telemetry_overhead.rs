//! Overhead self-test: stage tracing at the default 1-in-32 sampling rate
//! must cost at most 2 % of insert throughput.
//!
//! An unsampled operation pays one branch per stage and no clock reads,
//! so the true cost is far below the budget; these tests exist so a
//! future change that accidentally moves clock reads onto the unsampled
//! path (or starts sampling every operation) fails loudly.
//!
//! Two complementary checks:
//!
//! * A **deterministic** one: a counting clock is injected through
//!   `set_telemetry_clock` and the exact number of clock reads a real
//!   ingest performs is bounded. Sampling every operation or timing the
//!   unsampled path both multiply the count far past the bound, so the
//!   structural property holds in every build profile regardless of
//!   machine load.
//! * A **wall-clock** one: identical workloads into a traced engine
//!   (default rate) and an untraced one (`trace_sample_every = 0`), run
//!   as paired trials with the pair order alternating, comparing minima.
//!   The minimum-of-trials estimator discards scheduler noise, and
//!   alternating the order removes position bias. Because extra trials
//!   can only lower the minima, the test is adaptive: it keeps sampling
//!   (bounded) until the ratio stabilizes under the budget. The 2 %
//!   budget is asserted in release builds — the profile the claim is
//!   about; debug builds get a loose sanity bound because the
//!   unoptimized baseline plus full-suite CI contention swamps a 2 %
//!   signal there (the counting-clock test carries the regression-
//!   catching duty in that profile).

use dbdedup_core::{DedupEngine, EngineConfig};
use dbdedup_util::ids::RecordId;
use dbdedup_util::time::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIN_TRIALS: usize = 6;
const MAX_TRIALS: usize = 30;
const BUDGET: f64 = if cfg!(debug_assertions) { 1.25 } else { 1.02 };
const DOCS: usize = 500;

/// A clock that counts every `now()` read. Time advances one nanosecond
/// per read, which keeps spans monotonic without touching the real clock.
#[derive(Debug, Default)]
struct CountingClock {
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.reads.fetch_add(1, Ordering::Relaxed))
    }

    fn sleep(&self, _d: Duration) {}
}

fn workload() -> Vec<Vec<u8>> {
    // Near-duplicate 4 KiB docs so the full dedup pipeline (chunk,
    // sketch, index, encode, append) stays hot — the traced path.
    let base: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    (0..DOCS)
        .map(|i| {
            let mut d = base.clone();
            let at = (i * 97) % (d.len() - 8);
            d[at..at + 8].copy_from_slice(&(i as u64).to_le_bytes());
            d
        })
        .collect()
}

fn ingest_once(sample_every: u32, docs: &[Vec<u8>]) -> Duration {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg.trace_sample_every = sample_every;
    let mut e = DedupEngine::open_temp(cfg).expect("engine");
    let t0 = Instant::now();
    for (i, d) in docs.iter().enumerate() {
        e.insert("overhead", RecordId(i as u64), d).expect("insert");
    }
    t0.elapsed()
}

fn ingest_counting_reads(sample_every: u32, docs: &[Vec<u8>]) -> u64 {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    cfg.trace_sample_every = sample_every;
    let mut e = DedupEngine::open_temp(cfg).expect("engine");
    let clock = Arc::new(CountingClock::default());
    e.set_telemetry_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    for (i, d) in docs.iter().enumerate() {
        e.insert("overhead", RecordId(i as u64), d).expect("insert");
    }
    clock.reads.load(Ordering::Relaxed)
}

#[test]
fn clock_reads_scale_with_sampled_operations_only() {
    let docs = workload();
    let default_rate = EngineConfig::default().trace_sample_every;

    // Disabled tracing must never touch the clock: the unsampled path is
    // one branch per stage, nothing else.
    let reads_off = ingest_counting_reads(0, &docs);
    assert_eq!(reads_off, 0, "tracing disabled, yet the clock was read {reads_off} times");

    // At the default rate, reads are bounded by (sampled ops) x (spans
    // per insert) x (two reads per span). An insert brackets fewer than
    // twelve spans — chunk, sketch, index lookup, source fetch, store
    // append, and delta encoding in up to six pieces (the forward delta,
    // its wire form, one write-back for each of the four chain levels) —
    // so the regression this guards — a clock read on every operation —
    // lands at >= 2 reads x DOCS, far past the bound.
    let sampled_ops = (DOCS as u64).div_ceil(u64::from(default_rate));
    let bound = (sampled_ops + 1) * 12 * 2;
    let reads_on = ingest_counting_reads(default_rate, &docs);
    assert!(reads_on > 0, "default-rate tracing recorded no spans at all");
    assert!(
        reads_on <= bound,
        "{reads_on} clock reads for {DOCS} inserts at 1-in-{default_rate} sampling \
         (bound {bound}): clock reads have leaked onto the unsampled path"
    );
}

#[test]
fn default_sampling_costs_at_most_two_percent() {
    let docs = workload();
    // Warm up allocators, page cache and branch predictors off the clock.
    let _ = ingest_once(0, &docs);
    let _ = ingest_once(EngineConfig::default().trace_sample_every, &docs);

    let default_rate = EngineConfig::default().trace_sample_every;
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut ratio = f64::INFINITY;
    for trial in 0..MAX_TRIALS {
        if trial % 2 == 0 {
            best_off = best_off.min(ingest_once(0, &docs));
            best_on = best_on.min(ingest_once(default_rate, &docs));
        } else {
            best_on = best_on.min(ingest_once(default_rate, &docs));
            best_off = best_off.min(ingest_once(0, &docs));
        }
        ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
        if trial + 1 >= MIN_TRIALS && ratio <= BUDGET {
            break;
        }
    }
    assert!(
        ratio <= BUDGET,
        "tracing at the default rate costs {:.2}% (> {:.0}% budget) after {MAX_TRIALS} trials; \
         traced {best_on:?} vs untraced {best_off:?}",
        (ratio - 1.0) * 100.0,
        (BUDGET - 1.0) * 100.0
    );
}
