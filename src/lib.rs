//! # dbdedup
//!
//! A from-scratch Rust implementation of **dbDedup** — *"Online
//! Deduplication for Databases"* (Xu, Pavlo, Sengupta, Ganger; SIGMOD
//! 2017): similarity-based deduplication for online DBMSs that compresses
//! both local storage and the replication stream with byte-level delta
//! encoding of individual records.
//!
//! ## Quickstart
//!
//! ```
//! use dbdedup::{DedupEngine, EngineConfig, RecordId};
//!
//! let mut engine = DedupEngine::open_temp(EngineConfig::default()).unwrap();
//! let v1: String = (0..600).map(|i| format!("sentence {i} of the article. ")).collect();
//! let v2 = v1.replacen("sentence 77 of", "a revision 77 to", 1);
//! engine.insert("wiki", RecordId(1), v1.as_bytes()).unwrap();
//! engine.insert("wiki", RecordId(2), v2.as_bytes()).unwrap();
//! assert_eq!(&engine.read(RecordId(2)).unwrap()[..], v2.as_bytes());
//! let m = engine.metrics();
//! assert!(m.network_ratio() > 1.5); // v2 shipped as a small forward delta
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] (re-export of `dbdedup-core`) | the dedup engine: workflow, governor, size filter, baseline |
//! | [`chunker`] | content-defined chunking + similarity sketches |
//! | [`delta`] | xDelta, anchor-sampled delta, re-encoding, decode |
//! | [`index`] | cuckoo feature index, exact-dedup chunk index |
//! | [`encoding`] | backward / hop / version-jumping chains, Table 2 analysis |
//! | [`cache`] | source record cache, lossy write-back cache |
//! | [`storage`] | record store, oplog, blockz compression, I/O meter |
//! | [`maint`] | background maintenance: chain GC, incremental compaction, retention |
//! | [`obs`] | telemetry: metrics registry, event log, status endpoint, flight recorder |
//! | [`repl`] | primary/secondary replication |
//! | [`workloads`] | the four paper dataset generators |
//! | [`util`] | hashes, codecs, stats, samplers |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dbdedup_cache as cache;
pub use dbdedup_chunker as chunker;
pub use dbdedup_core as engine;
pub use dbdedup_delta as delta;
pub use dbdedup_encoding as encoding;
pub use dbdedup_index as index;
pub use dbdedup_maint as maint;
pub use dbdedup_obs as obs;
pub use dbdedup_repl as repl;
pub use dbdedup_storage as storage;
pub use dbdedup_util as util;
pub use dbdedup_workloads as workloads;

pub use dbdedup_core::{
    DedupEngine, EngineConfig, EngineError, IngestConfig, InsertOutcome, MetricsSnapshot,
    ParallelIngest, ShardedEngine,
};
pub use dbdedup_encoding::EncodingPolicy;
pub use dbdedup_maint::{MaintConfig, Maintainer};
pub use dbdedup_repl::{ReplicaSet, ResyncReport};
pub use dbdedup_storage::{FaultInjector, FaultKind, FaultPlan, RecoveryReport};
pub use dbdedup_util::ids::RecordId;
