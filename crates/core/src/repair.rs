//! Authoritative-content sources for scrub-and-heal repair.
//!
//! When the integrity scrub finds a damaged record it cannot reconstruct
//! locally (the source cache does not hold its content), the last resort
//! is fetching the record's logical bytes from somewhere authoritative —
//! in practice a replica, reached through the replication layer's retry
//! and backoff machinery. The scrub itself must not depend on that layer
//! (the dependency points the other way), so it talks to this minimal
//! trait instead; `dbdedup-repl` wraps a [`ReplicaSet`] peer walk behind
//! it, and any engine is trivially a source for another engine's scrub.
//!
//! [`ReplicaSet`]: https://docs.rs/dbdedup-repl

use crate::engine::{DedupEngine, EngineError};
use dbdedup_util::ids::RecordId;

/// Supplies authoritative record content for healing.
pub trait RepairSource {
    /// Fetches the full logical content of `id`, or `Ok(None)` when this
    /// source cannot supply it (absent, deleted, or itself damaged there).
    /// Errors are transport/storage failures worth surfacing; "not here"
    /// is not an error.
    fn fetch_authoritative(&mut self, id: RecordId) -> Result<Option<Vec<u8>>, EngineError>;
}

/// Any engine can serve as a repair source for another engine's scrub:
/// authoritative content is just a read, and a record this engine cannot
/// read either (absent or chain-broken) is a `None`, not a failure.
impl RepairSource for DedupEngine {
    fn fetch_authoritative(&mut self, id: RecordId) -> Result<Option<Vec<u8>>, EngineError> {
        match self.read(id) {
            Ok(bytes) => Ok(Some(bytes.to_vec())),
            Err(EngineError::NotFound(_) | EngineError::ChainBroken { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}
