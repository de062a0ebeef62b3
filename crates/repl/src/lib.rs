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
//! [`set::ReplicaSet`] is the one link model: one primary fanning out to
//! N secondaries, each link with a fetch cursor, an applied cursor, a
//! bounded in-flight queue between them, a partition flag and a
//! [`health::HealthTracker`] (Healthy → Lagging → Partitioned →
//! CatchingUp) surfaced through the engine's metrics, with byte-accurate
//! network accounting (Fig. 11). [`set::ReplicaSet::sync`] runs the link's
//! steps back to back; the [`sim`] module interleaves them with faults.
//!
//! Replication is lossless under overload and failure: a full queue
//! refuses the fetch (backpressure) instead of dropping,
//! an apply that fails leaves its entry at the head of the queue for the
//! next attempt, and a replica that missed traffic — partition, lost
//! frame, crash — replays the gap from the primary's retained oplog window
//! by LSN (*cursor catch-up*) before anything as expensive as a full
//! resync is considered.
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

pub mod health;
pub mod repair;
pub mod resync;
pub mod set;
pub mod sim;

pub use health::{HealthTracker, ReplicaHealth};
pub use repair::{FetchStats, RepairFetcher};
pub use resync::{anti_entropy, anti_entropy_with_clock, ResyncReport};
pub use set::{NetworkStats, ReplicaSet};
pub use sim::{SimConfig, SimReport, Simulation};
