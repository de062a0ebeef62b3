//! # dbdedup-core
//!
//! The dbDedup engine: similarity-based deduplication for an online DBMS,
//! wired into the storage substrate exactly as Fig. 8 of the paper wires it
//! into MongoDB.
//!
//! The insert path runs the four-step workflow of Fig. 3 — feature
//! extraction → feature-index lookup → cache-aware source selection →
//! two-way delta compression — then:
//!
//! * stores the new record **raw** (backward encoding keeps chain heads
//!   decode-free),
//! * appends the **forward-encoded** record to the oplog for replication,
//! * queues **backward-delta writebacks** (the selected source, plus any
//!   hop-base upgrades) in the lossy write-back cache for idle-time
//!   flushing.
//!
//! Reads decode iteratively along base pointers ([`engine::DedupEngine::read`]),
//! performing the read-side garbage collection of §4.1. Unproductive work
//! is avoided by the [`governor`] (per-database auto-disable) and the
//! adaptive [`filter`] (skip small records).
//!
//! [`baseline`] implements the traditional exact-match chunk dedup system
//! the paper compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod filter;
pub mod governor;
pub mod health;
pub mod metrics;
pub mod pipeline;
pub mod repair;
pub mod sharded;

pub use config::{EngineConfig, IngestConfig};
// Re-exported so engine embedders can set `EngineConfig::chunker_kind`
// without depending on the chunker crate directly.
pub use dbdedup_chunker::ChunkerKind;
pub use engine::{DedupEngine, EngineError, InsertOutcome, ScrubSlice};
pub use health::{
    HealthInputs, HealthReport, HealthThresholds, LinkState, SubsystemHealth, Verdict,
};
pub use metrics::MetricsSnapshot;
pub use pipeline::{IngestSnapshot, InsertPreparer, ParallelIngest, PreparedInsert};
pub use repair::RepairSource;
pub use sharded::ShardedEngine;
