//! Anti-entropy resync: re-converging a replica after corruption or lost
//! replication traffic.
//!
//! The oplog stream is the fast path; it assumes both sides stay healthy.
//! When a replica loses data — salvage recovery quarantined entries, a
//! transport fault dropped batches, a read found a broken chain — the
//! stream alone cannot repair it, because the divergent records are in the
//! past, not in the pending oplog. [`anti_entropy`] walks the live record
//! sets instead: it checksum-compares each record's *logical* content
//! (CRC-32 of what a read would return) and re-ships raw payloads only for
//! records that are missing, extra, or mismatched. Cost is one decode per
//! record plus payload bytes proportional to the damage, so a clean pair
//! pays only the checksum scan.

use dbdedup_core::{DedupEngine, EngineError};
use dbdedup_storage::store::StoreError;
use dbdedup_util::hash::fx::FxHashSet;
use dbdedup_util::ids::RecordId;
use dbdedup_util::time::system_clock;
use dbdedup_util::{Backoff, BackoffConfig, Clock};
use std::sync::Arc;

/// Attempts per destination repair before a transient error sticks.
const MAX_REPAIR_ATTEMPTS: u32 = 4;

/// Retries `f` with jittered exponential backoff (the shared [`Backoff`]
/// helper) while it fails transiently — I/O conditions clear; semantic
/// errors don't. The resync pass is the recovery path of last resort, so
/// it absorbs transient faults itself rather than leaving them to a later
/// pass.
fn with_retry(
    dst: &mut DedupEngine,
    clock: &Arc<dyn Clock>,
    seed: u64,
    mut f: impl FnMut(&mut DedupEngine) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let cfg = BackoffConfig { max_attempts: MAX_REPAIR_ATTEMPTS - 1, ..BackoffConfig::default() };
    let mut backoff = Backoff::new(cfg, Arc::clone(clock), seed);
    loop {
        match f(dst) {
            Ok(()) => return Ok(()),
            Err(e @ (EngineError::Store(StoreError::Io(_)) | EngineError::Oplog(_))) => {
                if backoff.sleep() {
                    dst.record_apply_retry();
                } else {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// What one anti-entropy pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// Records checksum-compared.
    pub checked: u64,
    /// Records whose checksums disagreed (or were unreadable on the
    /// destination).
    pub mismatched: u64,
    /// Records re-materialized on the destination from source content.
    pub repaired: u64,
    /// Records removed from the destination (present there, absent on the
    /// source).
    pub removed: u64,
    /// Payload bytes shipped for repairs (plus per-record framing).
    pub shipped_bytes: u64,
}

impl ResyncReport {
    /// Whether the pass found the replicas already converged.
    pub fn is_clean(&self) -> bool {
        self.mismatched == 0 && self.repaired == 0 && self.removed == 0
    }
}

/// Per-record wire overhead we account for a repair shipment: record id
/// (8), payload length (4), payload checksum (4).
const REPAIR_FRAME_OVERHEAD: u64 = 16;

/// Runs one anti-entropy pass from `src` (authoritative) to `dst`,
/// re-materializing every divergent record. After a pass over a healthy
/// source, every read on `dst` returns byte-identical content to `src` and
/// `dst` has no broken-chain marks left.
///
/// Errors on the *source* propagate (an authoritative copy that cannot be
/// read cannot repair anyone); errors on the destination are what the pass
/// exists to fix.
pub fn anti_entropy(
    src: &mut DedupEngine,
    dst: &mut DedupEngine,
) -> Result<ResyncReport, EngineError> {
    anti_entropy_with_clock(src, dst, &system_clock())
}

/// [`anti_entropy`] with an explicit clock driving the repair-retry
/// backoff, so the deterministic simulator can run resync passes without
/// wall-clock sleeps.
pub fn anti_entropy_with_clock(
    src: &mut DedupEngine,
    dst: &mut DedupEngine,
    clock: &Arc<dyn Clock>,
) -> Result<ResyncReport, EngineError> {
    let mut report = ResyncReport::default();
    let src_ids = src.live_record_ids();
    let src_set: FxHashSet<RecordId> = src_ids.iter().copied().collect();

    // Records the destination has (or believes broken) that the source
    // doesn't: remove. Covers tombstones lost with a torn tail.
    for id in dst.live_record_ids() {
        if !src_set.contains(&id) {
            with_retry(dst, clock, id.0, |d| d.repair_remove(id))?;
            report.removed += 1;
        }
    }
    for id in dst.broken_records() {
        if !src_set.contains(&id) {
            with_retry(dst, clock, id.0, |d| d.repair_remove(id))?;
            report.removed += 1;
        }
    }

    // Checksum-compare every live source record. A destination that can't
    // produce a checksum (missing record, broken chain) counts as a
    // mismatch and gets the raw payload re-shipped.
    for id in src_ids {
        report.checked += 1;
        let want = src.content_checksum(id)?;
        match dst.content_checksum(id) {
            Ok(have) if have == want => {
                // Readable and identical; clear any stale broken mark left
                // from a chain that has since been repaired underneath it.
                dst.clear_broken_mark(id);
            }
            _ => {
                report.mismatched += 1;
                let data = src.read(id)?;
                report.shipped_bytes += data.len() as u64 + REPAIR_FRAME_OVERHEAD;
                with_retry(dst, clock, id.0, |d| d.repair_record(id, &data))?;
                report.repaired += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_core::EngineConfig;
    use dbdedup_workloads::{Op, Wikipedia};

    fn engine() -> DedupEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        DedupEngine::open_temp(cfg).unwrap()
    }

    #[test]
    fn clean_pair_is_a_noop() {
        let mut src = engine();
        let mut dst = engine();
        for op in Wikipedia::insert_only(20, 31) {
            if let Op::Insert { id, data } = op {
                src.insert("wikipedia", id, &data).unwrap();
            }
        }
        for entry in &src.take_oplog_batch(usize::MAX) {
            dst.apply_oplog_entry(entry).unwrap();
        }
        let report = anti_entropy(&mut src, &mut dst).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checked, 20);
        assert_eq!(report.shipped_bytes, 0);
    }

    #[test]
    fn lost_batches_are_repaired() {
        let mut src = engine();
        let mut dst = engine();
        let mut ids = Vec::new();
        for (i, op) in Wikipedia::insert_only(30, 32).enumerate() {
            if let Op::Insert { id, data } = op {
                src.insert("wikipedia", id, &data).unwrap();
                ids.push(id);
                let batch = src.take_oplog_batch(usize::MAX);
                // Drop every third batch on the floor: transport loss. A
                // surviving forward-encoded insert whose base was in a lost
                // batch fails to apply — more divergence for the pass.
                if i % 3 != 0 {
                    for entry in &batch {
                        let _ = dst.apply_oplog_entry(entry);
                    }
                }
            }
        }
        let report = anti_entropy(&mut src, &mut dst).unwrap();
        assert!(report.repaired >= 10, "{report:?}");
        assert!(report.shipped_bytes > 0);
        for id in &ids {
            assert_eq!(&src.read(*id).unwrap()[..], &dst.read(*id).unwrap()[..]);
        }
        // A second pass finds nothing.
        assert!(anti_entropy(&mut src, &mut dst).unwrap().is_clean());
    }

    #[test]
    fn extra_records_are_removed() {
        let mut src = engine();
        let mut dst = engine();
        for op in Wikipedia::insert_only(10, 33) {
            if let Op::Insert { id, data } = op {
                src.insert("wikipedia", id, &data).unwrap();
            }
        }
        for entry in &src.take_oplog_batch(usize::MAX) {
            dst.apply_oplog_entry(entry).unwrap();
        }
        // Deletes replicate as oplog entries; lose them all.
        for id in src.live_record_ids().into_iter().take(3) {
            src.delete(id).unwrap();
        }
        let _ = src.take_oplog_batch(usize::MAX); // dropped on the floor
        let report = anti_entropy(&mut src, &mut dst).unwrap();
        assert_eq!(report.removed, 3);
        assert_eq!(src.live_record_ids(), dst.live_record_ids());
    }

    #[test]
    fn diverged_content_is_reshipped() {
        let mut src = engine();
        let mut dst = engine();
        for op in Wikipedia::insert_only(8, 34) {
            if let Op::Insert { id, data } = op {
                src.insert("wikipedia", id, &data).unwrap();
            }
        }
        for entry in &src.take_oplog_batch(usize::MAX) {
            dst.apply_oplog_entry(entry).unwrap();
        }
        // An update whose oplog entry is lost: same live sets, different
        // content — only the checksum compare can see it.
        let victim = src.live_record_ids()[0];
        src.update(victim, b"content the replica never saw").unwrap();
        let _ = src.take_oplog_batch(usize::MAX);
        let report = anti_entropy(&mut src, &mut dst).unwrap();
        assert_eq!(report.mismatched, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(&dst.read(victim).unwrap()[..], b"content the replica never saw");
    }
}
