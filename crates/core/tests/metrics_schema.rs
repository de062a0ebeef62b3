//! Schema round-trip for the unified metrics registry.
//!
//! The registry's JSON export is the deployment-facing contract: scrapers
//! key on field names, and the CI `metrics-schema` step runs this file.
//! Three properties are pinned here:
//!
//! 1. The export is valid JSON (checked with the in-repo parser, which
//!    keeps duplicate keys visible instead of silently collapsing them).
//! 2. Every registry field appears in the JSON exactly once.
//! 3. The registry is a strict superset of the legacy hand-rolled
//!    `to_json` schema — renaming or dropping a pre-registry key breaks
//!    existing scrapers and must fail here.

use dbdedup_core::{DedupEngine, EngineConfig};
use dbdedup_obs::json;
use dbdedup_util::ids::RecordId;

/// Every key the pre-registry `MetricsSnapshot::to_json` emitted. New
/// fields may be added freely; removing or renaming any of these is a
/// breaking schema change.
const LEGACY_KEYS: [&str; 28] = [
    "original_bytes",
    "stored_bytes",
    "stored_uncompressed_bytes",
    "network_bytes",
    "index_bytes",
    "deduped_inserts",
    "unique_inserts",
    "bypassed_size",
    "bypassed_governor",
    "storage_ratio",
    "network_ratio",
    "dedup_only_ratio",
    "source_cache_miss_ratio",
    "writebacks_flushed",
    "writebacks_dropped",
    "max_read_retrievals",
    "mean_read_retrievals",
    "gc_spliced",
    "quarantined_entries",
    "truncated_tail_bytes",
    "chain_broken_reads",
    "apply_retries",
    "repaired_records",
    "bypassed_overload",
    "backpressure_events",
    "catchup_batches",
    "health_transitions",
    "max_replica_lag",
];

fn exercised_engine() -> DedupEngine {
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let mut e = DedupEngine::open_temp(cfg).expect("engine");
    let base: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    for i in 0..20u64 {
        let mut doc = base.clone();
        doc[7] = i as u8;
        e.insert("schema", RecordId(i), &doc).expect("insert");
    }
    e.flush_all_writebacks().expect("flush");
    for i in 0..20u64 {
        e.read(RecordId(i)).expect("read");
    }
    e
}

#[test]
fn registry_json_round_trips_with_every_field_exactly_once() {
    let e = exercised_engine();
    let snap = e.metrics();
    let registry = snap.registry();
    let parsed = json::parse(&snap.to_json()).expect("registry export must be valid JSON");
    let obj = parsed.as_obj().expect("export must be one JSON object");

    // Exactly the registry's fields, in some order, each exactly once.
    assert_eq!(obj.len(), registry.len(), "field count mismatch");
    for key in registry.keys() {
        let hits = obj.iter().filter(|(k, _)| k == key).count();
        assert_eq!(hits, 1, "field {key:?} must appear exactly once, found {hits}");
    }
}

#[test]
fn registry_is_a_superset_of_the_legacy_schema() {
    let e = exercised_engine();
    let snap = e.metrics();
    let parsed = json::parse(&snap.to_json()).expect("valid JSON");
    let obj = parsed.as_obj().expect("object");
    for key in LEGACY_KEYS {
        assert!(
            obj.iter().any(|(k, _)| k == key),
            "legacy key {key:?} vanished from the registry export — breaking schema change"
        );
    }
}

#[test]
fn stage_histograms_reach_the_export_from_real_traffic() {
    let e = exercised_engine();
    let parsed = json::parse(&e.metrics().to_json()).expect("valid JSON");
    // The insert path was traced (first op is always sampled), so the
    // insert stages carry samples; the read path likewise.
    for stage in ["chunk", "sketch", "index_lookup", "store_append", "decode_chain"] {
        let key = format!("stage.{stage}.count");
        let count =
            parsed.get(&key).and_then(|v| v.as_num()).unwrap_or_else(|| panic!("missing {key}"));
        assert!(count >= 1.0, "{key} must have recorded at least one span");
        for pct in ["p50", "p95", "p99", "p999", "max"] {
            let k = format!("stage.{stage}.{pct}");
            assert!(parsed.get(&k).is_some(), "missing {k}");
        }
    }
}

#[test]
fn decoded_hops_reach_the_export_as_a_histogram() {
    let e = exercised_engine();
    let snap = e.metrics();
    let parsed = json::parse(&snap.to_json()).expect("valid JSON");
    let get = |pct: &str| {
        let key = format!("read.decode_hops.{pct}");
        parsed.get(&key).and_then(|v| v.as_num()).unwrap_or_else(|| panic!("missing {key}"))
    };
    assert_eq!(get("count"), parsed.get("reads_decoded").and_then(|v| v.as_num()).unwrap());
    assert_eq!(get("max"), parsed.get("max_read_retrievals").and_then(|v| v.as_num()).unwrap());
    assert!(get("p50") <= get("p99") && get("p99") <= get("max"));
}
