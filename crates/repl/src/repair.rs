//! Replica-backed repair fetches for the integrity scrubber.
//!
//! The scrub-and-heal loop in `dbdedup-core` talks to a minimal
//! [`RepairSource`] trait when local reconstruction fails; this module is
//! the replication layer's implementation of it. [`RepairFetcher`] walks a
//! list of peer engines — typically a [`crate::ReplicaSet`]'s primary, or
//! every healthy sibling — asking each for the record's logical content,
//! with the same jittered-exponential-backoff retry discipline the
//! anti-entropy resync uses for its repair writes: transient I/O faults
//! are retried against the same peer, a peer that cannot supply the
//! record ("not here" — absent, deleted, or damaged there too) is skipped,
//! and only when *every* peer has been exhausted does the fetch report
//! `Ok(None)`, which the scrubber turns into a typed unhealable
//! escalation rather than a panic or silent loss.

use dbdedup_core::{DedupEngine, EngineError, RepairSource};
use dbdedup_storage::store::StoreError;
use dbdedup_util::ids::RecordId;
use dbdedup_util::time::system_clock;
use dbdedup_util::{Backoff, BackoffConfig, Clock};
use std::sync::Arc;

/// Attempts per peer before a persistent transient fault skips the peer.
const MAX_FETCH_ATTEMPTS: u32 = 4;

/// Counters for one fetcher's lifetime, for tests and operator telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FetchStats {
    /// Records successfully supplied to the scrubber.
    pub fetched: u64,
    /// Peer lookups that answered "not here" (absent or damaged there).
    pub misses: u64,
    /// Transient-fault retries absorbed by backoff.
    pub retries: u64,
    /// Peers abandoned after exhausting their retry budget.
    pub exhausted_peers: u64,
}

/// A [`RepairSource`] over one or more peer engines with retrying reads.
///
/// Peers are consulted in order, so put the most authoritative copy (the
/// primary) first. The fetcher holds mutable borrows because authoritative
/// content is a decoding read, which performs read-side GC on the peer.
pub struct RepairFetcher<'a> {
    peers: Vec<&'a mut DedupEngine>,
    clock: Arc<dyn Clock>,
    stats: FetchStats,
}

impl<'a> RepairFetcher<'a> {
    /// A fetcher over `peers` using the wall clock for retry backoff.
    pub fn new(peers: Vec<&'a mut DedupEngine>) -> Self {
        Self::with_clock(peers, system_clock())
    }

    /// A fetcher with an explicit clock, so deterministic harnesses can
    /// run repair retries without wall-clock sleeps.
    pub fn with_clock(peers: Vec<&'a mut DedupEngine>, clock: Arc<dyn Clock>) -> Self {
        Self { peers, clock, stats: FetchStats::default() }
    }

    /// What this fetcher has done so far.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }
}

impl RepairSource for RepairFetcher<'_> {
    fn fetch_authoritative(&mut self, id: RecordId) -> Result<Option<Vec<u8>>, EngineError> {
        for peer in &mut self.peers {
            // Seed the jitter from the record id: deterministic under a
            // virtual clock, decorrelated across records.
            let cfg =
                BackoffConfig { max_attempts: MAX_FETCH_ATTEMPTS - 1, ..BackoffConfig::default() };
            let mut backoff = Backoff::new(cfg, Arc::clone(&self.clock), id.0);
            loop {
                match peer.read(id) {
                    Ok(bytes) => {
                        self.stats.fetched += 1;
                        return Ok(Some(bytes.to_vec()));
                    }
                    Err(EngineError::NotFound(_) | EngineError::ChainBroken { .. }) => {
                        // This peer cannot help; the next one might.
                        self.stats.misses += 1;
                        break;
                    }
                    Err(e @ (EngineError::Store(StoreError::Io(_)) | EngineError::Oplog(_))) => {
                        if backoff.sleep() {
                            self.stats.retries += 1;
                        } else {
                            // The fault outlived the retry budget: treat the
                            // peer as unreachable rather than aborting the
                            // whole scrub slice — unless it was the last
                            // hope, in which case the error is the story.
                            self.stats.exhausted_peers += 1;
                            let _ = e;
                            break;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_core::EngineConfig;
    use dbdedup_maint::{MaintConfig, Maintainer};
    use dbdedup_storage::{RecordStore, StoreConfig};
    use dbdedup_workloads::{Op, Wikipedia};
    use std::path::{Path, PathBuf};

    fn cfg() -> EngineConfig {
        let mut c = EngineConfig::default();
        c.min_benefit_bytes = 16;
        c
    }

    fn scrub_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbdedup-repl-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_at(dir: &Path) -> DedupEngine {
        let store = RecordStore::open(dir, StoreConfig::default()).unwrap();
        DedupEngine::new(store, cfg()).unwrap()
    }

    /// XORs one byte inside `id`'s live frame, past the frame header.
    fn rot_live_frame(dir: &Path, e: &DedupEngine, id: RecordId) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let (seg, off, _) = e.store().frame_extent(id).expect("live frame");
        let path = dir.join(format!("seg{seg:06}.dat"));
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(off + 12)).unwrap();
        f.write_all(&[b[0] ^ 0x40]).unwrap();
    }

    #[test]
    fn bit_rotted_replica_heals_from_primary_through_scrub() {
        // A replica converges with its primary, suffers disk rot while
        // cold, and the maintainer's scrub pass heals it through a
        // RepairFetcher over the primary — byte parity restored, zero
        // oplog traffic generated by the repair.
        let dir = scrub_dir("heal");
        let mut primary = DedupEngine::open_temp(cfg()).unwrap();
        let mut ids = Vec::new();
        {
            let mut replica = engine_at(&dir);
            for op in Wikipedia::insert_only(12, 71) {
                if let Op::Insert { id, data } = op {
                    primary.insert("wikipedia", id, &data).unwrap();
                    ids.push(id);
                }
            }
            for entry in &primary.take_oplog_batch(usize::MAX) {
                replica.apply_oplog_entry(entry).unwrap();
            }
            replica.flush_all_writebacks().unwrap();
        }
        // Reopen cold (an empty source cache) and rot one frame.
        let mut replica = engine_at(&dir);
        rot_live_frame(&dir, &replica, ids[3]);
        let lsn_before = replica.oplog_next_lsn();

        let mut maint = Maintainer::new(MaintConfig::default());
        let mut fetcher = RepairFetcher::new(vec![&mut primary]);
        let report = maint.scrub_pass(&mut replica, Some(&mut fetcher)).unwrap();
        assert_eq!(report.totals.corrupt, 1, "{report:?}");
        assert_eq!(report.totals.healed_replica, 1, "{report:?}");
        assert!(report.totals.unhealable.is_empty(), "{report:?}");
        assert_eq!(fetcher.stats().fetched, 1);

        assert_eq!(replica.oplog_next_lsn(), lsn_before, "repair must be oplog-silent");
        for id in &ids {
            assert_eq!(
                &replica.read(*id).unwrap()[..],
                &primary.read(*id).unwrap()[..],
                "record {id} diverged after heal"
            );
        }
        assert!(maint.scrub_pass_local(&mut replica).unwrap().is_clean());
        drop(replica);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetcher_walks_past_a_peer_that_lacks_the_record() {
        // First peer never saw the record; second did. The walk must skip
        // the miss and heal from the peer that can actually supply it.
        let dir = scrub_dir("walk");
        let mut empty_peer = DedupEngine::open_temp(cfg()).unwrap();
        let mut good_peer = DedupEngine::open_temp(cfg()).unwrap();
        let id = RecordId(9001);
        let doc = vec![0xABu8; 4096];
        {
            let mut victim = engine_at(&dir);
            victim.insert("db", id, &doc).unwrap();
            good_peer.insert("db", id, &doc).unwrap();
            victim.flush_all_writebacks().unwrap();
        }
        let mut victim = engine_at(&dir);
        rot_live_frame(&dir, &victim, id);

        let mut maint = Maintainer::new(MaintConfig::default());
        let mut fetcher = RepairFetcher::new(vec![&mut empty_peer, &mut good_peer]);
        let report = maint.scrub_pass(&mut victim, Some(&mut fetcher)).unwrap();
        assert_eq!(report.totals.healed_replica, 1, "{report:?}");
        let stats = fetcher.stats();
        assert_eq!(stats.misses, 1, "first peer must report a miss: {stats:?}");
        assert_eq!(stats.fetched, 1, "{stats:?}");
        assert_eq!(&victim.read(id).unwrap()[..], &doc[..]);
        drop(victim);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_peer_can_supply_and_scrub_escalates_typed() {
        // Every peer misses: the fetch returns None and the scrubber must
        // end in a typed unhealable quarantine, not a panic.
        let dir = scrub_dir("miss");
        let mut stranger = DedupEngine::open_temp(cfg()).unwrap();
        stranger.insert("db", RecordId(1), b"unrelated").unwrap();
        let id = RecordId(77);
        {
            let mut victim = engine_at(&dir);
            victim.insert("db", id, &vec![0x5Au8; 2048]).unwrap();
            victim.flush_all_writebacks().unwrap();
        }
        let mut victim = engine_at(&dir);
        rot_live_frame(&dir, &victim, id);

        let mut maint = Maintainer::new(MaintConfig::default());
        let mut fetcher = RepairFetcher::new(vec![&mut stranger]);
        let report = maint.scrub_pass(&mut victim, Some(&mut fetcher)).unwrap();
        assert_eq!(report.totals.unhealable, vec![id], "{report:?}");
        assert_eq!(fetcher.stats().fetched, 0);
        assert!(fetcher.stats().misses >= 1);
        assert!(victim.broken_records().contains(&id));
        assert!(matches!(victim.read(id), Err(EngineError::NotFound(_))));
        drop(victim);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
