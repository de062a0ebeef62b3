//! # dbdedup-storage
//!
//! The storage substrate dbDedup integrates into — our stand-in for
//! MongoDB + WiredTiger in the paper's evaluation (§4.1, Fig. 8). dbDedup
//! needs four things from its host DBMS, and this crate provides exactly
//! those:
//!
//! * [`store`] — a log-structured, disk-backed **record store**: records
//!   are appended to segment files and located through an in-memory
//!   directory; updates append a new version and re-point the directory
//!   (compaction reclaims dead space). Records are stored either raw or as
//!   a backward delta referencing a base record.
//! * [`blockz`] — a from-scratch LZ77 **block compressor** standing in for
//!   Snappy: byte-oriented literal/copy format, greedy hash-chain matching,
//!   the same "fast, intra-block-only" profile. Dedup's gains compose with
//!   it (Fig. 1, Fig. 10).
//! * [`oplog`] — the **operation log** that drives asynchronous
//!   replication: insert/update/delete entries carrying either raw record
//!   payloads or forward-encoded deltas, batched for shipping.
//! * [`iometer`] — a deterministic **I/O activity meter** exposing the
//!   queue-length idleness signal the lossy write-back cache keys off
//!   (§3.3.2).
//! * [`blockcache`] — a byte-budgeted LRU block cache in front of segment
//!   reads, standing in for the DBMS buffer pool (WiredTiger's cache).
//! * [`fault`] — deterministic **fault injection** (torn writes, bit
//!   flips, transient I/O errors, crash-at-write-K) threaded through the
//!   store's write path, so crash/corruption recovery is testable from a
//!   seed.
//! * `frame` (crate-private) — the one **on-disk framing** of segments and
//!   the oplog file: checksummed header and frames, and what a recovery
//!   scan finds at an offset (valid frame, damaged run, torn tail).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockcache;
pub mod blockz;
pub mod fault;
pub(crate) mod frame;
pub mod iometer;
pub mod oplog;
pub mod store;

pub use fault::{FaultInjector, FaultKind, FaultPlan, WriteOutcome};
pub use iometer::{IoMeter, IoPressure};
pub use oplog::{CursorGap, Oplog, OplogEntry, OplogKind, OplogPayload};
pub use store::{
    CompactStats, RecordStore, RecoveryReport, SalvagedFrame, StorageForm, StoreConfig, StoreError,
    StoredRecord, VerifySlice,
};
