//! The source record cache (§3.3.1).
//!
//! A byte-budgeted LRU over raw record contents, each optionally with the
//! delta anchors of its gear scan so that a record already scanned when it
//! was inserted is not scanned again when the next revision is encoded
//! against it. Anchors are charged to the byte budget like the bytes they
//! describe. Its special insert path
//! ([`SourceRecordCache::replace_or_insert`]) exploits the chain structure:
//! when a new record supersedes a cached source (the chain head moves, or a
//! hop base is replaced by a newer one at the same level), the old entry is
//! *replaced* rather than kept alongside — an encoding chain only ever
//! needs its head plus one hop base per level in cache, which is what keeps
//! a 32 MiB budget effective over multi-GiB corpora.

use bytes::Bytes;
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::hash::gear::Anchor;
use dbdedup_util::ids::RecordId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hit/miss counters for Fig. 13a.
#[derive(Debug, Default, Clone, Copy)]
pub struct SourceCacheStats {
    /// Lookups that found the record cached.
    pub hits: u64,
    /// Lookups that missed (require a DBMS read).
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

impl SourceCacheStats {
    /// Fraction of lookups that missed, in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A cached record as a delta source.
#[derive(Debug, Clone)]
pub struct CachedSource {
    /// The record's raw content.
    pub data: Bytes,
    /// The anchors of `data`, when whoever cached it had scanned it;
    /// `None` means scan on demand.
    pub anchors: Option<Arc<[Anchor]>>,
}

impl CachedSource {
    /// Bytes this entry holds against the cache budget.
    fn charged_bytes(&self) -> usize {
        let anchors = self.anchors.as_deref().map_or(0, std::mem::size_of_val);
        self.data.len() + anchors
    }
}

#[derive(Debug)]
struct CacheEntry {
    source: CachedSource,
    tick: u64,
}

/// Byte-budgeted LRU cache of raw record contents.
#[derive(Debug)]
pub struct SourceRecordCache {
    map: FxHashMap<RecordId, CacheEntry>,
    /// tick → record, for O(log n) LRU eviction.
    order: BTreeMap<u64, RecordId>,
    capacity_bytes: usize,
    used_bytes: usize,
    clock: u64,
    stats: SourceCacheStats,
}

impl SourceRecordCache {
    /// Creates a cache with the given byte budget (the paper uses 32 MiB).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            order: BTreeMap::new(),
            capacity_bytes,
            used_bytes: 0,
            clock: 0,
            stats: SourceCacheStats::default(),
        }
    }

    /// Bytes currently cached: record contents plus their anchors.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> SourceCacheStats {
        self.stats
    }

    /// Whether `id` is cached, *without* touching recency or stats.
    /// Used by cache-aware source selection to score candidates (§3.1.3).
    pub fn contains(&self, id: RecordId) -> bool {
        self.map.contains_key(&id)
    }

    /// `id`'s content, *without* touching recency or stats: for a reader
    /// that must leave the cache exactly as it found it.
    pub fn peek(&self, id: RecordId) -> Option<Bytes> {
        self.map.get(&id).map(|e| e.source.data.clone())
    }

    /// Fetches `id`'s content, promoting it to most-recently-used. Counts
    /// a hit or miss.
    pub fn get(&mut self, id: RecordId) -> Option<Bytes> {
        self.touch(id).map(|s| s.data.clone())
    }

    /// Like [`Self::get`], with the record's anchors if they were cached.
    pub fn get_source(&mut self, id: RecordId) -> Option<CachedSource> {
        self.touch(id).cloned()
    }

    /// Looks `id` up, promoting it to most-recently-used and counting the
    /// hit or miss.
    fn touch(&mut self, id: RecordId) -> Option<&CachedSource> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&id) {
            Some(e) => {
                self.order.remove(&e.tick);
                e.tick = clock;
                self.order.insert(clock, id);
                self.stats.hits += 1;
                Some(&e.source)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `id` without anchors, evicting LRU entries as needed.
    pub fn insert(&mut self, id: RecordId, data: Bytes) {
        self.insert_source(id, CachedSource { data, anchors: None });
    }

    /// Inserts `id` as `source`, evicting LRU entries as needed.
    pub fn insert_source(&mut self, id: RecordId, source: CachedSource) {
        self.remove(id);
        let bytes = source.charged_bytes();
        if bytes > self.capacity_bytes {
            return; // an oversized record would evict everything for nothing
        }
        self.evict_to_fit(bytes);
        self.clock += 1;
        self.used_bytes += bytes;
        self.order.insert(self.clock, id);
        self.map.insert(id, CacheEntry { source, tick: self.clock });
    }

    /// Chain-aware insert: drops `replaces` (the superseded chain head or
    /// hop base) and caches `id` in its place (§3.3.1).
    pub fn replace_or_insert(
        &mut self,
        id: RecordId,
        source: CachedSource,
        replaces: Option<RecordId>,
    ) {
        if let Some(old) = replaces {
            self.remove(old);
        }
        self.insert_source(id, source);
    }

    /// Removes `id` if cached; returns whether it was present.
    pub fn remove(&mut self, id: RecordId) -> bool {
        if let Some(e) = self.map.remove(&id) {
            self.order.remove(&e.tick);
            self.used_bytes -= e.source.charged_bytes();
            true
        } else {
            false
        }
    }

    fn evict_to_fit(&mut self, incoming: usize) {
        while self.used_bytes + incoming > self.capacity_bytes {
            let Some((&tick, &victim)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&tick);
            let e = self.map.remove(&victim).expect("order and map agree");
            self.used_bytes -= e.source.charged_bytes();
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    const ANCHOR_BYTES: usize = std::mem::size_of::<Anchor>();

    /// `n` content bytes with `anchors` anchors beside them.
    fn anchored(n: usize, fill: u8, anchors: usize) -> CachedSource {
        let anchors: Vec<Anchor> =
            (0..anchors).map(|i| Anchor { pos: i as u32, fp: fill as u32 }).collect();
        CachedSource { data: bytes(n, fill), anchors: Some(anchors.into()) }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = SourceRecordCache::new(1024);
        c.insert(RecordId(1), bytes(100, 1));
        assert!(c.get(RecordId(1)).is_some());
        assert!(c.get(RecordId(2)).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SourceRecordCache::new(300);
        c.insert(RecordId(1), bytes(100, 1));
        c.insert(RecordId(2), bytes(100, 2));
        c.insert(RecordId(3), bytes(100, 3));
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(RecordId(1)).is_some());
        c.insert(RecordId(4), bytes(100, 4));
        assert!(c.contains(RecordId(1)));
        assert!(!c.contains(RecordId(2)), "LRU entry evicted");
        assert!(c.contains(RecordId(3)));
        assert!(c.contains(RecordId(4)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_respected() {
        let mut c = SourceRecordCache::new(1000);
        for i in 0..50u64 {
            c.insert(RecordId(i), bytes(100, i as u8));
        }
        assert!(c.used_bytes() <= 1000);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn replace_or_insert_supersedes_chain_head() {
        let mut c = SourceRecordCache::new(1000);
        c.insert(RecordId(1), bytes(200, 1));
        c.replace_or_insert(RecordId(2), anchored(200, 2, 0), Some(RecordId(1)));
        assert!(!c.contains(RecordId(1)), "old head replaced");
        assert!(c.contains(RecordId(2)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 200);
    }

    #[test]
    fn reinsert_updates_content_and_size() {
        let mut c = SourceRecordCache::new(1000);
        c.insert(RecordId(1), bytes(400, 1));
        c.insert(RecordId(1), bytes(100, 9));
        assert_eq!(c.used_bytes(), 100);
        assert_eq!(c.get(RecordId(1)).unwrap(), bytes(100, 9));
    }

    #[test]
    fn oversized_record_not_cached() {
        let mut c = SourceRecordCache::new(100);
        c.insert(RecordId(1), bytes(50, 1));
        c.insert(RecordId(2), bytes(500, 2));
        assert!(!c.contains(RecordId(2)));
        assert!(c.contains(RecordId(1)), "existing entries survive oversized insert");
    }

    #[test]
    fn contains_does_not_touch_stats_or_recency() {
        let mut c = SourceRecordCache::new(200);
        c.insert(RecordId(1), bytes(100, 1));
        c.insert(RecordId(2), bytes(100, 2));
        // `contains` on 1 must not promote it.
        assert!(c.contains(RecordId(1)));
        c.insert(RecordId(3), bytes(100, 3));
        assert!(!c.contains(RecordId(1)), "1 was still LRU and must be evicted");
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let mut c = SourceRecordCache::new(200);
        c.insert(RecordId(1), bytes(100, 1));
        c.insert(RecordId(2), bytes(100, 2));
        assert_eq!(c.peek(RecordId(1)), Some(bytes(100, 1)));
        assert_eq!(c.peek(RecordId(9)), None);
        c.insert(RecordId(3), bytes(100, 3));
        assert!(!c.contains(RecordId(1)), "a peeked entry stays least recently used");
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn remove_frees_budget() {
        let mut c = SourceRecordCache::new(100);
        c.insert(RecordId(1), bytes(100, 1));
        assert!(c.remove(RecordId(1)));
        assert!(!c.remove(RecordId(1)));
        assert_eq!(c.used_bytes(), 0);
        c.insert(RecordId(2), bytes(100, 2));
        assert!(c.contains(RecordId(2)));
    }

    #[test]
    fn anchors_are_charged_and_returned() {
        let mut c = SourceRecordCache::new(1000);
        c.insert_source(RecordId(1), anchored(100, 1, 10));
        assert_eq!(c.used_bytes(), 100 + 10 * ANCHOR_BYTES);
        let hit = c.get_source(RecordId(1)).expect("cached");
        assert_eq!(hit.data, bytes(100, 1));
        assert_eq!(hit.anchors.expect("anchors cached").len(), 10);
        assert_eq!(c.get(RecordId(1)).expect("content alone"), bytes(100, 1));
        // A plain insert carries none and is charged for none.
        c.insert(RecordId(2), bytes(100, 2));
        assert!(c.get_source(RecordId(2)).expect("cached").anchors.is_none());
        assert_eq!(c.used_bytes(), 200 + 10 * ANCHOR_BYTES);
    }

    #[test]
    fn eviction_holds_the_budget_with_anchors_counted() {
        // 100 content bytes + 25 anchors = 300 charged bytes per record:
        // three fit in 1000, a fourth evicts — on content alone ten would.
        let mut c = SourceRecordCache::new(1000);
        for i in 0..50u64 {
            c.insert_source(RecordId(i), anchored(100, i as u8, 25));
            assert!(c.used_bytes() <= 1000, "budget exceeded after insert {i}");
            assert_eq!(c.used_bytes(), c.len() * (100 + 25 * ANCHOR_BYTES));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 47);
        // Content that fits on its own is still refused when its anchors
        // push it over.
        c.insert_source(RecordId(99), anchored(900, 9, 25));
        assert!(!c.contains(RecordId(99)));
    }

    #[test]
    fn replace_reinsert_and_remove_drop_anchors_with_their_record() {
        let mut c = SourceRecordCache::new(10_000);
        c.insert_source(RecordId(1), anchored(200, 1, 20));
        c.replace_or_insert(RecordId(2), anchored(300, 2, 30), Some(RecordId(1)));
        assert!(!c.contains(RecordId(1)));
        assert_eq!(
            c.used_bytes(),
            300 + 30 * ANCHOR_BYTES,
            "the replaced record's anchors went too"
        );
        // Re-inserting without anchors gives back what the old ones held.
        c.insert(RecordId(2), bytes(300, 2));
        assert_eq!(c.used_bytes(), 300);
        c.insert_source(RecordId(3), anchored(50, 3, 5));
        assert!(c.remove(RecordId(3)));
        assert!(c.remove(RecordId(2)));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }
}
