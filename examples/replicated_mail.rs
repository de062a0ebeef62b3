//! Geo-replicated mail store: dedup-aware replication in action.
//!
//! Runs an Enron-style email workload on a primary, ships the
//! forward-encoded oplog to a secondary, and verifies the replicas
//! converge to byte-identical content — while the wire carries a fraction
//! of the raw bytes (the paper's second headline benefit).
//!
//! ```sh
//! cargo run --release --example replicated_mail
//! ```

use dbdedup::util::fmt::{format_bytes, format_ratio};
use dbdedup::workloads::{Enron, Op};
use dbdedup::{EngineConfig, ReplicaSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inserts =
        std::env::var("DBDEDUP_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1200usize);

    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let mut set = ReplicaSet::open_temp(cfg, 1)?;

    println!("ingesting {inserts} email messages on the primary...");
    let mut ids = Vec::new();
    let mut original = 0u64;
    for op in Enron::insert_only(inserts, 99) {
        if let Op::Insert { id, data } = op {
            original += data.len() as u64;
            set.primary.insert("enron", id, &data)?;
            ids.push(id);
            // Ship continuously, as MongoDB's oplog syncer would.
            if set.primary.oplog_pending() > 32 {
                set.sync()?;
            }
        }
    }
    set.sync()?;
    set.flush_all()?;

    println!("verifying replica convergence on all {} messages...", ids.len());
    for id in &ids {
        assert_eq!(
            &set.primary.read(*id)?[..],
            &set.secondaries[0].read(*id)?[..],
            "replica diverged at {id}"
        );
    }

    let net = set.link_stats()[0];
    let stored = set.primary.store().stored_payload_bytes();
    println!("\n--- replication report ---");
    println!("messages:             {}", ids.len());
    println!("original volume:      {}", format_bytes(original));
    println!("wire bytes shipped:   {} in {} batches", format_bytes(net.bytes), net.batches);
    println!("network compression:  {}", format_ratio(original as f64 / net.bytes as f64));
    println!("primary storage:      {}", format_bytes(stored));
    println!("storage compression:  {}", format_ratio(original as f64 / stored as f64));
    println!(
        "secondary storage:    {} (byte-identical: {})",
        format_bytes(set.secondaries[0].store().stored_payload_bytes()),
        set.secondaries[0].store().stored_payload_bytes() == stored,
    );
    Ok(())
}
