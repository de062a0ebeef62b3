#!/usr/bin/env bash
# Tier-1 verification gate. Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p dbdedup-maint -- -D warnings
cargo clippy -q -p dbdedup-index -- -D warnings
cargo clippy -q -p dbdedup-chunker -p dbdedup-delta -p dbdedup-cache -- -D warnings

echo "==> cargo build --release"
cargo build --release

# dbdedup-util holds the workspace's one `unsafe` block, the call into the
# carry-less-multiply CRC-32 kernel: its tests run optimised as well.
echo "==> cargo test -q --release -p dbdedup-util"
cargo test -q --release -p dbdedup-util

# perf/ is a workspace of its own, so the one `cargo test` below does not
# reach it: its smoke determinism guard (same op_hash and segment_hash twice
# per seed) runs here, before anything slower — a boundary, anchor or frame
# drift fails as a hash mismatch, not as a mystery ratio change in a
# benchmark.
echo "==> perf determinism guard"
(cd perf && cargo test -q --offline)

# The root manifest's `default-members` make this one invocation run every
# suite in the workspace. What the named suites in it pin, so a failure can
# be re-run alone (`cargo test -q -p <crate> --test <suite> [filter]`, or
# `--lib <path>` for unit tests); a failing property prints its seed:
#
# * kernel identity — dbdedup-util `hash::crc32`: each kernel called
#   directly (the slicing-by-16 chain, and the carry-less-multiply fold
#   where the CPU has PCLMULQDQ + SSE4.1) against a bit-at-a-time reference
#   at every length from 0 to 3 × 2 KiB + 16 at 8 alignments
#   (`sliced_matches_bitwise_reference_at_every_length_and_alignment`),
#   from five incoming states around the 64-byte threshold and every
#   16-byte block edge (`every_kernel_continues_any_incoming_state`), at
#   every split of 4 KiB (`incremental_matches_oneshot_at_every_split`) and
#   under seeded random multi-splits
#   (`incremental_matches_oneshot_under_random_multi_splits`);
#   `update_takes_the_multiply_wherever_the_cpu_has_it` fails where the CPU
#   has both features and `update` would still run the chain; the root
#   package's `frame_golden` (`cargo test -q --test frame_golden`: FNV-1a
#   of the segment files a fixed store sequence writes, and `crc32` at
#   fixed prefixes, pinned to the slicing-by-16 chain's values);
#   dbdedup-delta `wire_golden` (`cargo test -q -p dbdedup-delta --test
#   wire_golden`: FNV-1a of the forward and backward wire bytes both
#   encoders and `reencode` write on a seeded 0 B – 70 KiB corpus, pinned
#   to the owned-op encoders' bytes);
#   dbdedup-storage `get_hands_out_a_view_of_the_verified_frame_not_a_copy`
#   and the `bytes` shim's own tests (`cargo test -q -p bytes`: `From<Vec>`
#   keeps the allocation, a view compares/hashes/prints by content);
#   `hash::gear`; dbdedup-chunker `boundary_diff` (the one gear scan against
#   two byte-at-a-time oracles with golden pins, anchors against an oracle
#   that rolls nothing, the lane-parallel Rabin scan against the loop it
#   replaced) and `props`; dbdedup-delta `roundtrip_props` (anchored encoder
#   round trip under arbitrary anchor lists, identity with the stand-alone
#   encode, size on the Fig. 15 pairs); dbdedup-storage `store::tests` (the
#   size-carrying directory: no frame re-read on supersede, live counters
#   equal a reopen's); dbdedup-cache (anchor accounting).
# * one frame format under segments and the oplog file — dbdedup-storage
#   `frame::tests` (`cargo test -q -p dbdedup-storage --lib frame::`:
#   headers name their kind and any flip invalidates them, frames verify
#   only where they start, damage up to the next frame vs a torn tail); the
#   oplog sweep suite `oplog_sweeps` (`cargo test -q -p dbdedup-storage
#   --test oplog_sweeps`: flip every byte, header included, and tear at
#   every offset of a small oplog file — the replay is exactly the frames
#   before the damage, the cut is reported, and an append survives the next
#   reopen); the two regressions that fail on a length-prefixed oplog,
#   `oplog::tests::entries_appended_after_a_torn_tail_survive_the_next_reopen`
#   and `oplog::tests::a_flipped_byte_ends_the_replay_before_the_entry_it_hit`,
#   and their engine-level twin `cargo test -q --test durability
#   durable_oplog_keeps_entries_appended_after_a_torn_tail`.
# * one delta writer, one wire reader, and the read path — dbdedup-delta
#   `wire_reader_props` (`cargo test -q -p dbdedup-delta --test
#   wire_reader_props`: against a reference decoder local to the test file,
#   which parses into owned ops and applies with a loop of its own,
#   `Delta::apply_encoded` returns what decode-then-apply returns, error
#   variant included, and `validate` succeeds exactly when the reference
#   decode does, on encoder and random deltas and under every single-byte
#   flip and every truncation of their wire form; `DeltaWriter` fed random
#   op streams writes no empty op, no adjacent INSERTs and no COPYs
#   contiguous in the source, and what it writes applies to what it was
#   fed); dbdedup-core
#   `engine::tests::a_secondary_refuses_a_bad_forward_entry_cleanly` (a
#   malformed forward delta and one whose COPY runs past its base are
#   refused with `EngineError::Delta` before `reencode` sees them, leaving
#   store, chains, caches and counters as they were);
#   the root package's `read_model` (`cargo test -q --test read_model`: a
#   seeded schedule of inserts, updates, deletes of chain-interior records,
#   reads, flushes, `gc_record`, `compact_step` and clean close/reopen,
#   every read equal to a `HashMap` model at the default source-cache
#   budget and at 0, every cache-less read past a tombstone splicing it,
#   an update of a junction a read has just cached reading right with its
#   former dependents, and the GC backlog drained to 0 before every close
#   although reads stop at cached junctions below its tombstones);
#   `read_hops` (`cargo test -q --test read_hops`: after a reopen, one read
#   of an old version leaves the junctions it decoded cached, and each
#   sibling read then decodes ≤ 16 hops — 97–106 without it);
#   dbdedup-encoding `analysis::tests` (the default hop layout's worst and
#   mean decode hops pinned at N = 200, 1 000 and 5 000, each above the
#   paper's loose bound) and
#   `an_upgrade_that_saves_nothing_leaves_the_hop_base_on_its_short_delta`;
#   dbdedup-core
#   `engine::tests::a_cache_served_read_leaves_cache_and_meter_where_the_store_read_did`
#   and `a_cached_record_stored_as_a_delta_still_decodes_through_the_store`
#   (the byte-identity contract of a cache-served read); `fault_injection`
#   `rot_behind_a_cached_raw_record_is_masked_for_reads_and_healed_by_the_scrub`
#   and `rot_in_a_cached_junctions_own_frame_is_found_and_healed_by_the_scrub`
#   (a scrub pass admits nothing to the cache, and still finds and heals a
#   flipped byte in the frame of a junction a read cached).
# * one scan, one pipeline — `one_scan` (serial ≡ 4-worker parallel, primary
#   ≡ secondary, cache miss ≡ hit, a Rabin store reopened under the default
#   kind) and `differential` (ParallelIngest at every worker count commits
#   byte-identical segments, oplog bytes and counters to the serial engine;
#   `smoke_fixed_seed_four_workers` is the fixed seed 0xD1FF; `rabin_kind*`
#   crosses the Rabin kind with serial/parallel ingest). Timing-independent.
# * replication — `sim_harness` (the deterministic simulator driving a
#   `ReplicaSet` over the fixed seed sweep, each run checking the primary
#   against what its clients were acknowledged and then every replica
#   against the primary; a failure prints the seed, and re-running it
#   replays the exact schedule); dbdedup-repl `catchup_props`; the root
#   package's `replication`
#   `transient_secondary_fault_mid_batch_resumes_from_the_applied_cursor`
#   (a secondary store error mid-batch fails one `sync`, the next resumes
#   at the failed entry and applies and counts each entry once); and
#   `fault_injection` `replication_converges_after_faults_*` (store errors
#   and a partition past a small retention window, repaired by the set).
# * one update rule — the root package's `update_rule` (`cargo test -q
#   --test update_rule`: two nodes whose write-back flushes disagree on
#   whether a record is a decode base read the same bytes after it is
#   updated and a record is encoded against its new content; the update of
#   a decode base survives a clean close; a pair joined by `ReplicaSet::new`
#   over its own stores converges across a reopen); `fault_injection`
#   `update_of_a_decode_base_crash_sweep_reads_old_or_new` (a crash at every
#   write of such an update reads every record back, the updated one old or
#   new); `sim_harness` `updates_of_decode_bases_converge_to_what_was_acked`
#   (seeds 13, 81, 95, 111, 149, 216, 290 and 292 at `update_prob` 0.3);
#   dbdedup-storage `oplog::tests::an_update_ships_as_a_raw_payload_only`
#   (an update's wire bytes are a raw payload's, and a forward one is
#   refused).
# * maintenance — dbdedup-maint `gc_props` (churn → quiesce byte-equality,
#   tombstone scrub, crash sweep, torn-write and I/O-error sweep). The two
#   regression guards for "a tick costs what it moves" count writes, not
#   time: dbdedup-maint
#   `tick_on_a_quiesced_store_writes_nothing_and_reads_only_its_scrub_slice`
#   (an idle tick on 20 000 records: 0 physical writes, reads bounded by the
#   scrub budget) and dbdedup-storage
#   `one_compaction_step_writes_once_per_active_segment_it_touches` (one
#   `compact_step(256 KiB)` over 241 adjacent live frames: 1 physical
#   write, and 1 + 2 per rotation crossed). Compaction walks the
#   per-segment view and reads only what it keeps: dbdedup-storage
#   `a_step_reads_no_byte_of_a_frame_it_drops` (bytes read = kept bytes
#   when no span bridges a dead frame, at most `SPAN_GAP` more per bridged
#   gap otherwise), `compaction_writes_the_same_segments_at_every_budget`
#   (budgets of 1 B to 1 MiB write identical files, at most one write per
#   victim and active segment a step touches),
#   `a_rotted_dead_frame_costs_no_live_record` and
#   `a_rotted_live_frame_costs_only_its_own_record` (damage costs only the
#   kept frame it hits). Beside them, byte identity and index ≡ scan:
#   dbdedup-storage `live_byte_counters_match_directory_and_reopen_after_churn`
#   (ordered view ≡ sorted directory, `scrub_step` ≡ its directory-scan
#   oracle, sealed lengths ≡ file lengths, and the dead-frame books —
#   `tomb_bytes` = Σ tombstone lists, `stale_puts` = the put lists'
#   non-live entries — after every step, compaction at random budgets
#   included, and equal to a reopen's). The scrub reads each frame once:
#   dbdedup-storage `scrub_span_reads_match_the_per_frame_oracle` (the
#   span-reading slice ≡ a frame-at-a-time oracle, contents included, at
#   budgets of 1 B, 4 KiB and 64 KiB, over a corrupt frame inside a span,
#   dead gaps of `SPAN_GAP` − 1 and `SPAN_GAP` bytes and live frames past
#   the end of a truncated segment) and
#   `scrub_reports_directory_entries_swapped_between_same_length_frames`
#   (a clean frame of another record is corrupt) and
#   `scrub_reports_an_unreadable_frame_corrupt_and_moves_past_it` (a read
#   error fails only the frame it hits, the cursor moves past it, and a
#   compaction step stops instead of dropping it); dbdedup-core
#   `engine::scrub::tests::scrub_slice_over_raw_frames_adds_nothing_to_the_block_cache`,
#   `scrub_decodes_a_record_an_earlier_heal_rewrote_from_the_store` (the
#   chain tier uses tier (a)'s bytes only while the directory still points
#   at them) and `scrub_walks_a_clean_delta_frame_to_its_base`. The
#   victim rule (4 MiB segments, cost-benefit victims over a floor, emptied
#   segments removed): dbdedup-storage
#   `victim_is_the_older_of_equal_dead_shares_unless_a_younger_is_much_deader`,
#   `floored_step_leaves_segments_under_the_floor_and_the_active_one_alone`
#   (and an unfloored drain still reaches zero),
#   `header_rotted_after_open_drops_the_victims_live_records_as_a_reopen_would`,
#   and for recovery over removed segments
#   `reopen_after_removed_victims_replays_the_segments_left` and
#   `crash_at_every_write_across_a_victims_removal_loses_no_record`;
#   dbdedup-maint `ticks_compact_a_segment_only_once_it_crosses_the_floor`
#   (no copy while every sealed segment is under `compact_trigger_ratio`,
#   then empty within ⌈len ÷ `compact_budget_bytes`⌉ ticks).
#   dbdedup-encoding `indexes_equal_full_scans_under_random_topology_edits`;
#   dbdedup-core
#   `reusing_the_decoded_base_charges_what_decoding_it_per_dependent_charged`.
#   `rededup_props` (a degraded burst drained
#   must equal a never-degraded run byte for byte, oplog-silently) and
#   `scrub_props` (flip every byte of a small store: scrub-and-heal converges
#   to a never-corrupted control, detects every live-frame flip, escalates
#   typed when no repair source exists); `fault_injection` (crash at every
#   write of the store, of the re-dedup rewrite, and of every other local
#   rewrite; `faults_inside_a_coalesced_compaction_run_lose_no_live_record`
#   puts a crash, a
#   tear mid-frame, a tear on a frame boundary and an I/O error at every
#   write of a compaction whose writes carry several frames;
#   `bitflip_on_degraded*` is the degraded-record salvage test).
# * tiered index — dbdedup-index `bloom_props`/`tiered_props`, and
#   `index_tiering` (≤1 cold probe per lookup, budgeted oplog-silent merges,
#   quarantine-and-rebuild after run corruption, maintainer/health
#   integration, an unlimited budget byte-identical to the pure in-memory
#   cuckoo index).
# * operator surface — dbdedup-core `metrics_schema` (the JSON export parses
#   with the in-repo parser, every registry field exactly once, the legacy
#   key set still a subset, `read.decode_hops.*` agreeing with the legacy
#   read counts); `obs_endpoint` (a real engine plus StatusServer
#   scraped over TCP: /metrics covers every registry key once with
#   JSON/Prometheus agreement, /health flips Ready→Degraded→Ready through
#   the overload gate, /ready gates 503 when every link is partitioned);
#   dbdedup-obs `json_edge`; dbdedup-repl
#   `sim::tests::flight_recorder_dump_is_byte_stable_across_same_seed_runs`.
#
# --test-threads=4 keeps multiple test binaries' worth of engine/pipeline
# threads alive concurrently, so the parallel ingest path is exercised
# under real thread contention even on small CI machines.
echo "==> cargo test -q -- --test-threads=4"
cargo test -q -- --test-threads=4

echo "==> ci.sh: all green"
