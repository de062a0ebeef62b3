//! # dbdedup-cache
//!
//! The two specialized caches that make delta-encoded storage practical
//! online (§3.3 of the paper):
//!
//! * [`source`] — the **source record cache**: a small byte-budgeted LRU
//!   holding the raw bytes of each encoding chain's head (and the latest
//!   hop base per level), with the delta anchors of each where known.
//!   Delta compression needs the source record's content; workloads that dedup well have strong temporal locality
//!   (consecutive revisions, posts in one thread), so a 32 MiB cache
//!   absorbs ~75–90% of source retrievals (Fig. 13a).
//! * [`writeback`] — the **lossy write-back delta cache**: backward
//!   encoding replaces the *source* record with a delta, amplifying writes.
//!   Those writebacks are not required for correctness — dropping one just
//!   leaves the record raw — so they are buffered in a lossy cache,
//!   prioritized by the absolute space saving each delta contributes, and
//!   flushed when I/O goes idle (Fig. 13b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod source;
pub mod writeback;

pub use source::{CachedSource, SourceCacheStats, SourceRecordCache};
pub use writeback::{PendingWriteback, WritebackCache, WritebackCacheStats};
