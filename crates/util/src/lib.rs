//! # dbdedup-util
//!
//! Foundational utilities shared by every dbDedup crate:
//!
//! * [`hash`] — the hash functions the paper's pipeline is built on, all
//!   implemented from scratch: Rabin fingerprints (content-defined chunking
//!   and anchor selection), MurmurHash3 (cheap chunk features),
//!   Adler-32 (xDelta block checksums), and SHA-1 (the exact-dedup
//!   baseline's collision-resistant chunk identity).
//! * [`codec`] — compact binary encoding helpers (LEB128 varints, length
//!   prefixed byte strings) used by the delta wire format, the record store
//!   and the oplog.
//! * [`stats`] — histograms, percentile sketches and CDF helpers used by the
//!   benchmark harnesses to reproduce the paper's figures.
//! * [`dist`] — deterministic samplers (Zipf, log-normal, split-mix RNG)
//!   used by the synthetic workload generators.
//! * [`fmt`] — human-readable byte-size formatting for experiment output.
//! * [`time`] — the pluggable [`time::Clock`] (real or virtual) that the
//!   retry/backoff paths wait on, so the deterministic simulator controls
//!   the passage of time.
//! * [`backoff`] — the shared jittered-exponential, deadline-aware retry
//!   policy used by replication apply, anti-entropy repair, and blocking
//!   shipment.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod codec;
pub mod dist;
pub mod fmt;
pub mod hash;
pub mod ids;
pub mod stats;
pub mod time;

pub use backoff::{Backoff, BackoffConfig};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use ids::RecordId;
pub use time::{Clock, SystemClock, VirtualClock};
