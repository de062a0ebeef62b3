//! # dbdedup-repl
//!
//! Primary/secondary replication over the dedup-aware oplog (Fig. 8 of the
//! paper).
//!
//! The primary appends forward-encoded oplog entries; the syncer ships
//! them in batches over a byte-counted transport; the secondary's
//! re-encoder decodes each forward delta against its local copy of the
//! base record, stores the new record raw, and regenerates the *same*
//! backward deltas the primary stores — so both replicas converge to
//! byte-identical storage while only the small forward delta crosses the
//! network.
//!
//! Two drivers are provided:
//!
//! * [`set::ReplicaSet`] — synchronous, deterministic, one primary fanning
//!   out to N secondaries with per-link cursors, health and byte-accurate
//!   network accounting; used by the experiment harnesses (Fig. 11).
//! * [`asynch::AsyncReplicator`] — a crossbeam-channel pipeline with the
//!   secondary applying batches on its own thread, mirroring the paper's
//!   asynchronous push model, with bounded retry for transient apply
//!   errors and optional transport fault injection.
//!
//! Replication is lossless under overload: shipping reports a typed
//! [`asynch::ShipOutcome`] (backpressure is the caller's to absorb, with
//! [`asynch::AsyncReplicator::ship_with_deadline`] for bounded blocking),
//! and a replica that missed traffic — full queue, partition, crash —
//! replays the gap from the primary's retained oplog window by LSN
//! (*cursor catch-up*) before anything as expensive as a full resync is
//! considered. Every link carries a [`health::HealthTracker`] state
//! machine (Healthy → Lagging → Partitioned → CatchingUp) surfaced
//! through the engine's metrics.
//!
//! When the stream alone cannot re-converge a replica (corruption
//! quarantined records, the retention window slid past its cursor),
//! [`resync::anti_entropy`] checksum-compares the live record sets and
//! re-ships raw payloads for the divergent records only.
//!
//! The [`sim`] module is a deterministic simulation harness driving a
//! primary and N replicas through seeded schedules of partitions, crashes,
//! overload bursts and slow applies on a virtual clock — a failing seed is
//! a reproducible counterexample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynch;
pub mod health;
pub mod repair;
pub mod resync;
pub mod set;
pub mod sim;

pub use asynch::{AsyncReplicator, ShipOutcome};
pub use health::{HealthTracker, ReplicaHealth};
pub use repair::{FetchStats, RepairFetcher};
pub use resync::{anti_entropy, anti_entropy_with_clock, ResyncReport};
pub use set::{NetworkStats, ReplicaSet};
pub use sim::{SimConfig, SimReport, Simulation};
