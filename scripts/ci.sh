#!/usr/bin/env bash
# Tier-1 verification gate. Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

# Byte-identity of the write-path kernels, checked before anything slower
# (or any benchmark) runs: sliced CRC-32 against a bit-at-a-time reference
# at every length/alignment/split; the one gear scan — boundaries against
# two byte-at-a-time oracles (the continuous function, and from 128 B up
# the per-chunk function it replaced) with golden pins, anchors against an
# oracle that rolls nothing, repeated-byte runs for all 256 byte values;
# the lane-parallel Rabin scan against the byte-at-a-time loop it replaced
# (plus the golden boundary pins); the anchored delta encoder — round trip
# under arbitrary anchor lists, identity with the stand-alone encode, size
# on the Fig. 15 pairs; the store's size-carrying directory (no frame
# re-read on supersede; live counters equal a reopen's); and perf/'s smoke
# determinism guard (same op_hash and segment_hash twice per seed) — a
# boundary, anchor or frame drift fails here, not as a mystery ratio change
# in a benchmark.
echo "==> kernel-diff"
cargo test -q -p dbdedup-util --lib hash::crc32
cargo test -q -p dbdedup-util --lib hash::gear
cargo test -q -p dbdedup-chunker --test boundary_diff
cargo test -q -p dbdedup-delta --test roundtrip_props
cargo test -q -p dbdedup-storage --lib store::tests
(cd perf && cargo test -q --offline)

# --test-threads=4 keeps multiple test binaries' worth of engine/pipeline
# threads alive concurrently, so the parallel ingest path is exercised
# under real thread contention even on small CI machines.
echo "==> cargo test -q -- --test-threads=4"
cargo test -q -- --test-threads=4

# Deterministic replication simulator over the fixed CI seed sweep
# (tests/sim_harness.rs). A failure prints the seed; re-running that seed
# replays the exact schedule.
echo "==> sim-smoke"
cargo test -q --test sim_harness

# Differential equivalence smoke (tests/differential.rs): ParallelIngest
# at 4 workers over the fixed seed 0xD1FF must produce byte-identical
# store segments, oplog bytes, and metric counters to the serial engine.
# Timing-independent — meaningful on any core count.
echo "==> differential-smoke"
cargo test -q --test differential smoke_fixed_seed_four_workers

# Metrics-registry schema round-trip (crates/core/tests/metrics_schema.rs):
# the JSON export parses with the in-repo parser, every registry field
# appears exactly once, and the legacy key set is still a subset.
echo "==> metrics-schema"
cargo test -q -p dbdedup-core --test metrics_schema

# Maintenance tier: lint the crate at -D warnings and run the property
# sweep (churn → quiesce byte-equality, tombstone scrub, crash sweep).
echo "==> maint-smoke"
cargo clippy -p dbdedup-maint -- -D warnings
cargo test -q -p dbdedup-maint

# Degradation loop: fixed-seed convergence-parity property (degraded
# burst → quiesce must equal a never-degraded run byte-for-byte,
# oplog-silently) plus the rewrite crash sweep, with the maint crate
# lint-clean at -D warnings (already enforced by maint-smoke above).
echo "==> rededup-smoke"
cargo test -q -p dbdedup-maint --test rededup_props
cargo test -q --test fault_injection rededup_rewrite_crash_sweep

# Integrity scrubber: fixed-seed bit-rot sweep (crates/maint/tests/
# scrub_props.rs) — flip every byte of a small store, require scrub-and-
# heal to converge to byte parity with a never-corrupted control, detect
# every live-frame flip, stay oplog-silent, and escalate typed when no
# repair source exists — plus the degraded-record salvage test.
echo "==> scrub-smoke"
cargo test -q -p dbdedup-maint --test scrub_props
cargo test -q --test fault_injection bitflip_on_degraded

# Operator surface: boot a real engine plus StatusServer on an ephemeral
# port and scrape it over TCP (tests/obs_endpoint.rs) — /metrics must
# cover every registry key exactly once with JSON/Prometheus value
# agreement under name sanitization, /health must flip Ready→Degraded→
# Ready through the overload gate, and /ready must gate 503 when every
# replica link is partitioned. Plus the obs::json parser edge sweep and
# the flight-recorder determinism property in the sim.
echo "==> obs-smoke"
cargo test -q --test obs_endpoint
cargo test -q -p dbdedup-obs --test json_edge
cargo test -q -p dbdedup-repl --lib sim::tests::flight_recorder_dump_is_byte_stable_across_same_seed_runs

# Tiered feature index: clippy-clean index crate, the Bloom/tiered
# property suites, the end-to-end tiering tests (<=1 cold probe per
# lookup, budgeted oplog-silent merges, quarantine-and-rebuild after run
# corruption, maintainer/health integration), and the fixed-seed
# differential smoke proving an unlimited budget is byte-identical to
# the pure in-memory cuckoo index.
echo "==> index-smoke"
cargo clippy -q -p dbdedup-index -- -D warnings
cargo test -q -p dbdedup-index
cargo test -q --test index_tiering
cargo test -q --test index_tiering unlimited_budget_is_byte_identical_to_pure_in_memory_index

# Chunking and scanning: clippy-clean chunker, delta and cache crates (the
# producers, the consumer and the keeper of anchors), the chunker's unit
# and property sweeps over both kinds (the boundary/anchor differential
# already ran in kernel-diff), the source cache's anchor accounting, the
# end-to-end one-scan tests (serial ≡ 4-worker parallel, primary ≡
# secondary, cache miss ≡ hit, a Rabin store reopened under the default
# kind), and the Rabin kind crossed with serial/parallel ingest. A failure
# prints the repro seed.
echo "==> chunk-smoke"
cargo clippy -q -p dbdedup-chunker -p dbdedup-delta -p dbdedup-cache -- -D warnings
cargo test -q -p dbdedup-chunker
cargo test -q -p dbdedup-cache
cargo test -q --test one_scan
cargo test -q --test differential rabin_kind

echo "==> ci.sh: all green"
