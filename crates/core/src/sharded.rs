//! Horizontal sharding: N independent engines behind one handle.
//!
//! dbDedup's observation that duplication rarely crosses database
//! boundaries (§3.4.1) makes sharding by database essentially free:
//! records of one logical database always land on the same shard, so each
//! shard's feature index sees exactly the candidates it would have seen in
//! a single-engine deployment, while unrelated databases ingest in
//! parallel on separate cores.

use crate::config::EngineConfig;
use crate::engine::{DedupEngine, EngineError, InsertOutcome};
use crate::metrics::MetricsSnapshot;
use bytes::Bytes;
use dbdedup_util::hash::fx::FxHasher;
use dbdedup_util::ids::RecordId;
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A fixed set of engine shards, routed by database name.
///
/// Record ids must be unique across the deployment (they are routed by the
/// owning database, and reads consult the id→shard map maintained at
/// insert time).
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Arc<Vec<Mutex<DedupEngine>>>,
    /// id → shard routing for reads/updates/deletes.
    placement: Arc<Mutex<dbdedup_util::hash::fx::FxHashMap<RecordId, u32>>>,
}

impl ShardedEngine {
    /// Creates `n` shards with identical configuration over temp stores.
    pub fn open_temp(config: EngineConfig, n: usize) -> Result<Self, EngineError> {
        assert!(n >= 1, "need at least one shard");
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(Mutex::new(DedupEngine::open_temp(config.clone())?));
        }
        Ok(Self { shards: Arc::new(shards), placement: Arc::new(Mutex::new(Default::default())) })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning database `db` (stable for the lifetime of
    /// the deployment; the parallel ingest pipeline keys its commit lanes
    /// off this).
    pub fn route(&self, db: &str) -> usize {
        let mut h = FxHasher::default();
        db.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Inserts into the shard owning `db`.
    pub fn insert(
        &self,
        db: &str,
        id: RecordId,
        data: &[u8],
    ) -> Result<InsertOutcome, EngineError> {
        self.insert_prepared(db, id, data, None)
    }

    /// Inserts with optionally pre-computed feature extraction (see
    /// [`DedupEngine::insert_prepared`]).
    pub fn insert_prepared(
        &self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<crate::pipeline::PreparedInsert>,
    ) -> Result<InsertOutcome, EngineError> {
        let k = self.route(db);
        let out = self.shards[k].lock().insert_prepared(db, id, data, prepared)?;
        self.placement.lock().insert(id, k as u32);
        Ok(out)
    }

    /// A preparer performing the shards' exact feature extraction (all
    /// shards share one configuration).
    pub fn preparer(&self) -> crate::pipeline::InsertPreparer {
        self.shards[0].lock().preparer()
    }

    /// The shared shard configuration.
    pub fn config(&self) -> EngineConfig {
        self.shards[0].lock().config().clone()
    }

    /// Raises/clears the replication-overload gate on every shard.
    pub fn set_replication_pressure(&self, on: bool) {
        for s in self.shards.iter() {
            s.lock().set_replication_pressure(on);
        }
    }

    /// Runs `f` against shard `k` under its lock (tests, diagnostics, and
    /// the differential harness's byte-level comparisons).
    pub fn with_shard<R>(&self, k: usize, f: impl FnOnce(&mut DedupEngine) -> R) -> R {
        f(&mut self.shards[k].lock())
    }

    fn shard_of_id(&self, id: RecordId) -> Result<usize, EngineError> {
        self.placement.lock().get(&id).map(|&k| k as usize).ok_or(EngineError::NotFound(id))
    }

    /// Reads wherever `id` lives.
    pub fn read(&self, id: RecordId) -> Result<Bytes, EngineError> {
        let k = self.shard_of_id(id)?;
        self.shards[k].lock().read(id)
    }

    /// Updates wherever `id` lives.
    pub fn update(&self, id: RecordId, data: &[u8]) -> Result<(), EngineError> {
        let k = self.shard_of_id(id)?;
        self.shards[k].lock().update(id, data)
    }

    /// Deletes wherever `id` lives.
    pub fn delete(&self, id: RecordId) -> Result<(), EngineError> {
        let k = self.shard_of_id(id)?;
        self.shards[k].lock().delete(id)?;
        self.placement.lock().remove(&id);
        Ok(())
    }

    /// Flushes every shard's write-back cache.
    pub fn flush_all_writebacks(&self) -> Result<usize, EngineError> {
        let mut n = 0;
        for s in self.shards.iter() {
            n += s.lock().flush_all_writebacks()?;
        }
        Ok(n)
    }

    /// Aggregated metrics across shards (see [`MetricsSnapshot::merge`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::merge(self.shards.iter().map(|s| s.lock().metrics()))
            .expect("at least one shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(n: usize) -> ShardedEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        ShardedEngine::open_temp(cfg, n).expect("shards")
    }

    fn doc(tag: u64, version: u64) -> Vec<u8> {
        let base: String = (0..400).map(|i| format!("db{tag} sentence {i} body. ")).collect();
        base.replacen("sentence 9 ", &format!("edited v{version} "), 1).into_bytes()
    }

    #[test]
    fn routing_is_stable_per_database() {
        let e = sharded(4);
        for i in 0..20u64 {
            e.insert("alpha", RecordId(i), &doc(1, i)).unwrap();
        }
        let m = e.metrics();
        // All same-db records hit one shard, so dedup works across them.
        assert!(m.deduped_inserts >= 15, "deduped {}", m.deduped_inserts);
    }

    #[test]
    fn parallel_ingest_across_databases() {
        let e = sharded(4);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..25u64 {
                    let id = RecordId(t * 1000 + k);
                    e.insert(&format!("db{t}"), id, &doc(t, k)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for t in 0..4u64 {
            for k in 0..25u64 {
                assert_eq!(&e.read(RecordId(t * 1000 + k)).unwrap()[..], &doc(t, k)[..]);
            }
        }
        assert_eq!(e.metrics().deduped_inserts + e.metrics().unique_inserts, 100);
    }

    /// Every counter sums over shards, including the ones only some shards
    /// move: one shard sheds under overload, the other is scrubbed.
    #[test]
    fn metrics_merge_every_field_across_shards() {
        let e = sharded(2);
        let other =
            (0..).map(|i| format!("db{i}")).find(|db| e.route(db) != e.route("db")).unwrap();
        let (shed, scrubbed) = (e.route("db"), e.route(&other));
        e.with_shard(shed, |s| s.set_replication_pressure(true));
        for i in 0..3u64 {
            e.insert("db", RecordId(i), &doc(0, i)).unwrap();
            e.insert(&other, RecordId(100 + i), &doc(1, i)).unwrap();
        }
        for i in 0..3u64 {
            e.read(RecordId(i)).unwrap();
        }
        let pass = e.with_shard(scrubbed, |s| s.scrub_slice(u64::MAX, None)).unwrap();
        assert!(pass.pass_complete && pass.is_clean(), "{pass:?}");

        let m = e.metrics();
        assert_eq!(m.bypassed_overload, 3);
        assert_eq!(m.maint_degraded_backlog, 3);
        assert_eq!((m.scrub_verified, m.scrub_passes), (3, 1));
        assert_eq!(m.deduped_inserts + m.unique_inserts, 6);
        assert_eq!((m.read_decode_hops.count(), m.read_decode_hops.mean()), (3, 0.0));
        let per_shard: Vec<_> = (0..2).map(|k| e.with_shard(k, |s| s.metrics())).collect();
        assert_eq!(m.source_cache.misses, per_shard.iter().map(|s| s.source_cache.misses).sum());
        assert_eq!(m.writeback_cache.inserted, per_shard[scrubbed].writeback_cache.inserted);
        assert!(m.writeback_cache.inserted > 0);
    }

    #[test]
    fn read_of_unknown_id_errors() {
        let e = sharded(2);
        assert!(matches!(e.read(RecordId(404)), Err(EngineError::NotFound(_))));
    }

    #[test]
    fn delete_removes_placement() {
        let e = sharded(2);
        e.insert("db", RecordId(1), &doc(0, 0)).unwrap();
        e.delete(RecordId(1)).unwrap();
        assert!(e.read(RecordId(1)).is_err());
        assert!(e.delete(RecordId(1)).is_err(), "double delete surfaces NotFound");
    }
}
