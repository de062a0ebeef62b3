//! The encoding-chain manager.
//!
//! Tracks, for every record: which chain it belongs to, its chain index,
//! its committed base pointer (what the on-disk delta decodes against),
//! its reference count (how many records decode *through* it), and its
//! deletion mark. Two phases per insert:
//!
//! 1. [`ChainManager::append`] / [`ChainManager::start_chain`] — *planning*:
//!    updates chain-progress state and returns the [`EncodePlan`] listing
//!    which records should be re-encoded against the new record.
//! 2. [`ChainManager::commit_writeback`] — *commitment*: called when a
//!    planned writeback actually lands on disk. Only commitment mutates
//!    base pointers and reference counts, so writebacks dropped by the
//!    lossy cache simply leave the record raw (no topology corruption).

use crate::policy::EncodingPolicy;
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::ids::RecordId;
use std::collections::BTreeSet;

/// A planned re-encoding: store `target` as a backward delta whose source
/// (decode base) is `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// The existing record to be replaced by a delta.
    pub target: RecordId,
    /// The record the delta will decode against (always the new record).
    pub base: RecordId,
}

/// The outcome of planning one insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodePlan {
    /// The newly inserted record (stored raw).
    pub new_record: RecordId,
    /// Records that should be re-encoded against `new_record`.
    pub writebacks: Vec<Writeback>,
    /// True when the selected source was not its chain's head — the
    /// "overlapped encoding" case of Fig. 5, which costs some compression.
    pub overlapped: bool,
}

#[derive(Debug, Clone)]
struct RecordState {
    chain: u32,
    index: u64,
    /// Committed decode base (None ⇒ stored raw).
    base: Option<RecordId>,
    /// How many records use this one as their committed decode base.
    refcount: u32,
    deleted: bool,
}

#[derive(Debug, Clone)]
struct ChainState {
    /// `pending_hop[ℓ]` (ℓ ≥ 1) is the level-ℓ hop base awaiting its
    /// *upgrade* writeback — it already holds its short-range backward
    /// delta and will be re-encoded against the next record of level ≥ ℓ.
    pending_hop: Vec<Option<RecordId>>,
    next_index: u64,
    head: RecordId,
}

/// Statistics the figures report.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChainStats {
    /// Total writebacks planned.
    pub planned_writebacks: u64,
    /// Total writebacks committed.
    pub committed_writebacks: u64,
    /// Inserts that hit the overlapped-encoding case.
    pub overlapped_inserts: u64,
    /// Number of chains started.
    pub chains: u64,
}

/// See module docs.
#[derive(Debug)]
pub struct ChainManager {
    policy: EncodingPolicy,
    records: FxHashMap<RecordId, RecordState>,
    /// Every `(base, dependent)` edge of the committed topology — the
    /// reverse of `RecordState::base`, moved at the same sites that move a
    /// refcount, so `refcount(b)` is always the number of edges under `b`
    /// and a range scan lists them already sorted.
    dependents: BTreeSet<(RecordId, RecordId)>,
    /// Records with `deleted` set that are still tracked — the GC backlog,
    /// moved wherever `deleted` moves.
    deleted: BTreeSet<RecordId>,
    chains: Vec<ChainState>,
    stats: ChainStats,
}

impl ChainManager {
    /// Creates a manager for the given encoding policy.
    pub fn new(policy: EncodingPolicy) -> Self {
        Self {
            policy,
            records: FxHashMap::default(),
            dependents: BTreeSet::new(),
            deleted: BTreeSet::new(),
            chains: Vec::new(),
            stats: ChainStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> EncodingPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// Number of records tracked.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rebuilds topology from the on-disk state after a restart: every live
    /// record with its committed base pointer (None = raw). Reference
    /// counts are recomputed; records stored raw become heads of their own
    /// recovered chains (future appends extend them normally), while
    /// delta-encoded records are mid-chain (a future insert selecting one
    /// as its source takes the overlapped-encoding path, which is always
    /// safe).
    ///
    /// Panics if called on a non-empty manager or if a base references an
    /// unknown record.
    pub fn recover(&mut self, entries: impl IntoIterator<Item = (RecordId, Option<RecordId>)>) {
        assert!(self.is_empty(), "recover() requires a fresh manager");
        let entries: Vec<(RecordId, Option<RecordId>)> = entries.into_iter().collect();
        // First pass: create states; raw records head their own chain.
        for &(id, base) in &entries {
            let chain = self.chains.len() as u32;
            // Raw records head their own chain; mid-chain records point the
            // chain head at their base so they are never treated as heads
            // (base ≠ id always holds).
            let head = base.unwrap_or(id);
            self.chains.push(ChainState {
                pending_hop: vec![None; self.policy.levels()],
                next_index: 1,
                head,
            });
            self.records
                .insert(id, RecordState { chain, index: 0, base, refcount: 0, deleted: false });
            self.stats.chains += 1;
        }
        // Second pass: recompute reference counts.
        for &(id, base) in &entries {
            if let Some(b) = base {
                let s = self.records.get_mut(&b).expect("recovered base must be a live record");
                s.refcount += 1;
                self.dependents.insert((b, id));
            }
        }
    }

    /// Registers `id` as the first record of a fresh chain (no similar
    /// source was found). It is stored raw and becomes the chain head.
    pub fn start_chain(&mut self, id: RecordId) -> EncodePlan {
        assert!(!self.records.contains_key(&id), "record {id} already tracked");
        let chain = self.chains.len() as u32;
        let mut pending_hop = vec![None; self.policy.levels()];
        let level = (self.policy.level_of(0) as usize).min(pending_hop.len() - 1);
        if level >= 1 {
            pending_hop[level] = Some(id);
        }
        self.chains.push(ChainState { pending_hop, next_index: 1, head: id });
        self.records
            .insert(id, RecordState { chain, index: 0, base: None, refcount: 0, deleted: false });
        self.stats.chains += 1;
        EncodePlan { new_record: id, writebacks: Vec::new(), overlapped: false }
    }

    /// Plans the insert of `new` whose selected similar source is `source`.
    ///
    /// Normal case (`source` is its chain's head): `new` extends the chain.
    /// The old head receives its ordinary backward writeback (unless it is
    /// a version-jumping reference version), and — when `new` is a level-ℓ
    /// hop base — every pending hop base of level ≤ ℓ is *upgraded*:
    /// re-encoded against `new` so the skip-lanes of Fig. 6 form. Hence hop
    /// bases are written back twice over their lifetime, which is exactly
    /// the Table 2 writeback surplus `N·H/(H−1)²`.
    ///
    /// Overlapped case (`source` is mid-chain, Fig. 5): `source` alone is
    /// re-encoded against `new`, and `new` starts a fresh chain.
    pub fn append(&mut self, new: RecordId, source: RecordId) -> EncodePlan {
        assert!(!self.records.contains_key(&new), "record {new} already tracked");
        let src_state = self.records.get(&source).expect("source must be tracked");
        let chain_id = src_state.chain;
        let is_head = self.chains[chain_id as usize].head == source;

        if !is_head {
            // Overlapped encoding: re-point only the source at the new
            // record; the new record starts its own chain.
            self.stats.overlapped_inserts += 1;
            // If the source was a pending hop base, its upgrade has now
            // effectively happened out of band.
            let chain = &mut self.chains[chain_id as usize];
            for slot in &mut chain.pending_hop {
                if *slot == Some(source) {
                    *slot = None;
                }
            }
            let mut plan = self.start_chain(new);
            plan.overlapped = true;
            plan.writebacks.push(Writeback { target: source, base: new });
            self.stats.planned_writebacks += 1;
            return plan;
        }

        let chain = &mut self.chains[chain_id as usize];
        let idx = chain.next_index;
        chain.next_index += 1;
        let prev = std::mem::replace(&mut chain.head, new);

        let mut writebacks = Vec::new();
        // Ordinary backward writeback of the old head. Version-jumping
        // reference versions stay raw permanently.
        if !self.policy.is_reference_version(idx - 1) {
            writebacks.push(Writeback { target: prev, base: new });
        }
        // Hop upgrades: the new record's level determines which pending hop
        // bases can now take their long-range delta.
        let level = (self.policy.level_of(idx) as usize).min(chain.pending_hop.len() - 1);
        for slot in chain.pending_hop.iter_mut().take(level + 1).skip(1) {
            if let Some(target) = slot.take() {
                if target != prev {
                    writebacks.push(Writeback { target, base: new });
                }
                // (If the pending hop base *is* the old head, the ordinary
                // writeback above already targets `new`; one delta suffices.)
            }
        }
        if level >= 1 {
            chain.pending_hop[level] = Some(new);
        }

        self.records.insert(
            new,
            RecordState { chain: chain_id, index: idx, base: None, refcount: 0, deleted: false },
        );
        self.stats.planned_writebacks += writebacks.len() as u64;
        EncodePlan { new_record: new, writebacks, overlapped: false }
    }

    /// Records that a planned writeback reached disk: `target` is now a
    /// delta decoding against `base`.
    pub fn commit_writeback(&mut self, wb: Writeback) {
        let old_base = {
            let t = self.records.get_mut(&wb.target).expect("writeback target tracked");
            t.base.replace(wb.base)
        };
        if let Some(old) = old_base {
            let o = self.records.get_mut(&old).expect("old base tracked");
            o.refcount = o.refcount.saturating_sub(1);
            self.dependents.remove(&(old, wb.target));
        }
        let b = self.records.get_mut(&wb.base).expect("writeback base tracked");
        b.refcount += 1;
        self.dependents.insert((wb.base, wb.target));
        self.stats.committed_writebacks += 1;
    }

    /// The committed decode base of `id`, if it is stored as a delta.
    pub fn base_of(&self, id: RecordId) -> Option<RecordId> {
        self.records.get(&id).and_then(|r| r.base)
    }

    /// How many records decode through `id`.
    pub fn refcount(&self, id: RecordId) -> u32 {
        self.records.get(&id).map_or(0, |r| r.refcount)
    }

    /// Chain index of `id` (insertion order within its chain).
    pub fn chain_index(&self, id: RecordId) -> Option<u64> {
        self.records.get(&id).map(|r| r.index)
    }

    /// Whether `id` is currently the head (latest record) of its chain.
    pub fn is_head(&self, id: RecordId) -> bool {
        self.records.get(&id).is_some_and(|r| self.chains[r.chain as usize].head == id)
    }

    /// The decode path of `id`: `[id, base, base-of-base, …, raw]`.
    ///
    /// The last element is the raw record; a raw `id` yields `[id]`.
    /// Returns `None` for unknown records.
    pub fn decode_path(&self, id: RecordId) -> Option<Vec<RecordId>> {
        let mut path = vec![id];
        let mut cur = self.records.get(&id)?;
        // Base pointers always point at strictly newer records, so the path
        // is acyclic; the cap is purely defensive.
        for _ in 0..self.records.len() {
            match cur.base {
                None => return Some(path),
                Some(b) => {
                    path.push(b);
                    cur = self.records.get(&b).expect("base must be tracked");
                }
            }
        }
        panic!("decode path exceeded record count — cycle in base pointers");
    }

    /// Number of *source retrievals* needed to reconstruct `id`: the decode
    /// path length minus one (a raw record needs zero).
    pub fn retrievals_for(&self, id: RecordId) -> Option<usize> {
        self.decode_path(id).map(|p| p.len() - 1)
    }

    /// Marks `id` deleted. Returns `true` when it can be physically removed
    /// immediately (refcount zero), `false` when it must linger as a decode
    /// base (§4.1 Delete).
    pub fn mark_deleted(&mut self, id: RecordId) -> bool {
        let r = self.records.get_mut(&id).expect("record tracked");
        r.deleted = true;
        self.deleted.insert(id);
        r.refcount == 0
    }

    /// Whether `id` is marked deleted.
    pub fn is_deleted(&self, id: RecordId) -> bool {
        self.records.get(&id).is_some_and(|r| r.deleted)
    }

    /// Physically removes `id` from tracking, decrementing its base's
    /// refcount. Panics if any record still references it.
    pub fn remove(&mut self, id: RecordId) {
        let r = self.records.remove(&id).expect("record tracked");
        assert_eq!(r.refcount, 0, "cannot remove {id}: still a decode base");
        self.deleted.remove(&id);
        if let Some(b) = r.base {
            if let Some(bs) = self.records.get_mut(&b) {
                bs.refcount = bs.refcount.saturating_sub(1);
            }
            self.dependents.remove(&(b, id));
        }
        // Clear any chain references to the removed record.
        let chain = &mut self.chains[r.chain as usize];
        for slot in &mut chain.pending_hop {
            if *slot == Some(id) {
                *slot = None;
            }
        }
    }

    /// Deleted records along `id`'s decode path that have become
    /// removable (refcount 1 from the path itself is handled by the GC in
    /// the engine; this lists deleted records for inspection, §4.1 GC).
    pub fn deleted_on_path(&self, id: RecordId) -> Vec<RecordId> {
        self.decode_path(id)
            .map(|p| p.into_iter().filter(|r| self.is_deleted(*r)).collect())
            .unwrap_or_default()
    }

    /// Every record id currently tracked, in ascending id order (sorted
    /// so maintenance sweeps iterate deterministically).
    pub fn tracked_ids(&self) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self.records.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Records marked deleted but not yet physically removed — the chain
    /// GC backlog. Ascending id order.
    pub fn deleted_ids(&self) -> Vec<RecordId> {
        self.deleted.iter().copied().collect()
    }

    /// The GC backlog in ascending id order, without materialising it (a
    /// bounded maintenance slice takes only the first few).
    pub fn deleted_iter(&self) -> impl Iterator<Item = RecordId> + '_ {
        self.deleted.iter().copied()
    }

    /// Length of the GC backlog.
    pub fn deleted_len(&self) -> usize {
        self.deleted.len()
    }

    /// Records whose committed decode base is `id` (the records pinning
    /// it). Ascending id order. Their count equals `refcount(id)`.
    pub fn dependents_of(&self, id: RecordId) -> Vec<RecordId> {
        self.dependents
            .range((id, RecordId(u64::MIN))..=(id, RecordId(u64::MAX)))
            .map(|&(_, dep)| dep)
            .collect()
    }

    /// How many records have been appended to `id`'s chain after it —
    /// its distance behind the chain head in versions. Retention policies
    /// cap this depth.
    pub fn depth_behind_head(&self, id: RecordId) -> Option<u64> {
        let r = self.records.get(&id)?;
        let chain = &self.chains[r.chain as usize];
        Some((chain.next_index - 1).saturating_sub(r.index))
    }

    /// Records more than `max_tail` versions behind their chain head and
    /// not already deleted — what a length-capped retention policy
    /// retires next. Ascending id order.
    pub fn retention_candidates(&self, max_tail: u64) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self
            .records
            .iter()
            .filter(|(_, r)| {
                !r.deleted
                    && (self.chains[r.chain as usize].next_index - 1).saturating_sub(r.index)
                        > max_tail
            })
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Clears `target`'s committed base: the record is raw again (client
    /// update compaction, or GC of a terminal deleted base). Decrements the
    /// old base's refcount.
    pub fn clear_base(&mut self, target: RecordId) {
        let old = {
            let t = self.records.get_mut(&target).expect("target tracked");
            t.base.take()
        };
        if let Some(old) = old {
            if let Some(o) = self.records.get_mut(&old) {
                o.refcount = o.refcount.saturating_sub(1);
            }
            self.dependents.remove(&(old, target));
        }
    }

    /// Re-points `target`'s committed base to `new_base` (GC splicing: when
    /// a deleted record is cut out of a chain, its neighbours are joined by
    /// a fresh delta). Adjusts refcounts accordingly.
    pub fn splice_base(&mut self, target: RecordId, new_base: RecordId) {
        let old = {
            let t = self.records.get_mut(&target).expect("target tracked");
            t.base.replace(new_base)
        };
        if let Some(old) = old {
            let o = self.records.get_mut(&old).expect("old base tracked");
            o.refcount = o.refcount.saturating_sub(1);
            self.dependents.remove(&(old, target));
        }
        let b = self.records.get_mut(&new_base).expect("new base tracked");
        b.refcount += 1;
        self.dependents.insert((new_base, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<RecordId> {
        (0..n).map(RecordId).collect()
    }

    /// Builds a chain of n records under `policy`, committing every planned
    /// writeback, and returns the manager.
    fn build_chain(policy: EncodingPolicy, n: u64) -> ChainManager {
        let mut m = ChainManager::new(policy);
        let ids = ids(n);
        let mut plans = vec![m.start_chain(ids[0])];
        for w in ids.windows(2) {
            plans.push(m.append(w[1], w[0]));
        }
        for p in plans {
            for wb in p.writebacks {
                m.commit_writeback(wb);
            }
        }
        m
    }

    #[test]
    fn backward_chain_topology() {
        let m = build_chain(EncodingPolicy::Backward, 5);
        // r4 is head/raw; r3←r4, r2←r3, ...
        assert_eq!(m.base_of(RecordId(4)), None);
        for i in 0..4u64 {
            assert_eq!(m.base_of(RecordId(i)), Some(RecordId(i + 1)), "record {i}");
        }
        assert_eq!(m.retrievals_for(RecordId(0)), Some(4));
        assert_eq!(m.retrievals_for(RecordId(4)), Some(0));
        assert_eq!(m.refcount(RecordId(4)), 1);
        assert_eq!(m.refcount(RecordId(0)), 0);
    }

    #[test]
    fn hop_chain_matches_fig6() {
        // Fig 6: 17 records, H=4, two hop levels.
        let m = build_chain(EncodingPolicy::Hop { distance: 4, max_levels: 2 }, 17);
        let base = |i: u64| m.base_of(RecordId(i));
        assert_eq!(base(16), None, "head raw");
        assert_eq!(base(0), Some(RecordId(16)), "Δ16,0");
        assert_eq!(base(1), Some(RecordId(2)), "Δ2,1");
        assert_eq!(base(2), Some(RecordId(3)), "Δ3,2");
        assert_eq!(base(3), Some(RecordId(4)), "Δ4,3");
        assert_eq!(base(4), Some(RecordId(8)), "Δ8,4");
        assert_eq!(base(5), Some(RecordId(6)), "Δ6,5");
        assert_eq!(base(6), Some(RecordId(7)), "Δ7,6");
        assert_eq!(base(7), Some(RecordId(8)), "Δ8,7");
        assert_eq!(base(8), Some(RecordId(12)), "Δ12,8");
        assert_eq!(base(12), Some(RecordId(16)), "Δ16,12");
        // R13, R14, R15 follow the level-0 lane.
        assert_eq!(base(15), Some(RecordId(16)));
    }

    #[test]
    fn an_upgrade_that_saves_nothing_leaves_the_hop_base_on_its_short_delta() {
        // Fig. 6 again, but the engine finds that R4's upgrade delta against
        // R8 saves nothing and never writes it: R4 keeps Δ5,4.
        let mut m = ChainManager::new(EncodingPolicy::Hop { distance: 4, max_levels: 2 });
        let upgrade = Writeback { target: RecordId(4), base: RecordId(8) };
        let mut plans = vec![m.start_chain(RecordId(0))];
        for i in 1..17 {
            plans.push(m.append(RecordId(i), RecordId(i - 1)));
        }
        let planned: Vec<Writeback> = plans.into_iter().flat_map(|p| p.writebacks).collect();
        assert!(planned.contains(&upgrade));
        for wb in planned.into_iter().filter(|wb| *wb != upgrade) {
            m.commit_writeback(wb);
        }
        assert_eq!(m.base_of(RecordId(4)), Some(RecordId(5)), "short delta kept");
        assert_eq!(m.refcount(RecordId(5)), 1);
        // Everything below R4 now walks R5…R7 as well: H − 1 more hops.
        assert_eq!(
            m.decode_path(RecordId(1)).unwrap(),
            [1, 2, 3, 4, 5, 6, 7, 8, 12, 16].map(RecordId).to_vec()
        );
        let full = build_chain(EncodingPolicy::Hop { distance: 4, max_levels: 2 }, 17);
        assert_eq!(full.retrievals_for(RecordId(1)), Some(6));
    }

    #[test]
    fn hop_bounds_worst_case_retrievals() {
        let n = 200u64;
        let h = 8;
        let m = build_chain(EncodingPolicy::Hop { distance: h, max_levels: 3 }, n);
        // Worst case walks ≤ H−1 records in each of the (max_levels + 1)
        // lanes, plus slack for the top lane.
        let bound = (h as usize - 1) * 4 + 8;
        for i in 0..n {
            let r = m.retrievals_for(RecordId(i)).unwrap();
            assert!(r <= bound, "record {i} needs {r} retrievals (bound {bound})");
        }
        // Backward encoding by contrast hits n-1.
        let mb = build_chain(EncodingPolicy::Backward, n);
        assert_eq!(mb.retrievals_for(RecordId(0)), Some((n - 1) as usize));
    }

    #[test]
    fn version_jumping_reference_versions_stay_raw() {
        let m = build_chain(EncodingPolicy::VersionJumping { cluster: 4 }, 12);
        // Indexes 3, 7, 11 are reference versions — never re-encoded.
        for i in [3u64, 7, 11] {
            assert_eq!(m.base_of(RecordId(i)), None, "reference {i} must stay raw");
        }
        // Others point at their successor.
        assert_eq!(m.base_of(RecordId(0)), Some(RecordId(1)));
        assert_eq!(m.base_of(RecordId(4)), Some(RecordId(5)));
        // Worst-case decode bounded by cluster size.
        for i in 0..12u64 {
            assert!(m.retrievals_for(RecordId(i)).unwrap() < 4);
        }
    }

    #[test]
    fn overlapped_encoding_fig5() {
        // R0 ← R1 committed; R2 then selects R0 (not head).
        let mut m = ChainManager::new(EncodingPolicy::Backward);
        m.start_chain(RecordId(0));
        let p1 = m.append(RecordId(1), RecordId(0));
        assert_eq!(p1.writebacks, vec![Writeback { target: RecordId(0), base: RecordId(1) }]);
        for wb in p1.writebacks {
            m.commit_writeback(wb);
        }
        let p2 = m.append(RecordId(2), RecordId(0));
        assert!(p2.overlapped);
        assert_eq!(p2.writebacks, vec![Writeback { target: RecordId(0), base: RecordId(2) }]);
        for wb in p2.writebacks {
            m.commit_writeback(wb);
        }
        // Fig 5 outcome: R1 and R2 both raw, R0 decodes via R2.
        assert_eq!(m.base_of(RecordId(1)), None);
        assert_eq!(m.base_of(RecordId(2)), None);
        assert_eq!(m.base_of(RecordId(0)), Some(RecordId(2)));
        // R1's refcount dropped back to zero when R0 was re-pointed.
        assert_eq!(m.refcount(RecordId(1)), 0);
        assert_eq!(m.refcount(RecordId(2)), 1);
        assert_eq!(m.stats().overlapped_inserts, 1);
    }

    #[test]
    fn dropped_writeback_leaves_record_raw() {
        let mut m = ChainManager::new(EncodingPolicy::Backward);
        m.start_chain(RecordId(0));
        let plan = m.append(RecordId(1), RecordId(0));
        assert_eq!(plan.writebacks.len(), 1);
        // The lossy cache drops it: no commit.
        assert_eq!(m.base_of(RecordId(0)), None, "record stays raw");
        assert_eq!(m.retrievals_for(RecordId(0)), Some(0));
        assert_eq!(m.refcount(RecordId(1)), 0);
    }

    #[test]
    fn delete_semantics() {
        let mut m = build_chain(EncodingPolicy::Backward, 3);
        // r1 is a decode base of r0 → cannot remove immediately.
        assert!(!m.mark_deleted(RecordId(1)));
        assert!(m.is_deleted(RecordId(1)));
        // r0 references nothing → removable at once.
        assert!(m.mark_deleted(RecordId(0)));
        m.remove(RecordId(0));
        assert_eq!(m.refcount(RecordId(1)), 0, "removing r0 releases r1");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn splice_cuts_deleted_record_out() {
        let mut m = build_chain(EncodingPolicy::Backward, 3);
        // Path r0 → r1 → r2. Delete r1, splice r0 directly to r2.
        m.mark_deleted(RecordId(1));
        assert_eq!(m.deleted_on_path(RecordId(0)), vec![RecordId(1)]);
        m.splice_base(RecordId(0), RecordId(2));
        assert_eq!(m.refcount(RecordId(1)), 0);
        m.remove(RecordId(1));
        assert_eq!(m.decode_path(RecordId(0)), Some(vec![RecordId(0), RecordId(2)]));
    }

    #[test]
    fn writeback_counts_match_policy() {
        let n = 64u64;
        let m = build_chain(EncodingPolicy::Backward, n);
        assert_eq!(m.stats().committed_writebacks, n - 1);

        let m = build_chain(EncodingPolicy::VersionJumping { cluster: 8 }, n);
        // n-1 appends; references (every 8th index: 7,15,...,55 before the
        // end) are skipped: 63 - 7 = 56.
        assert_eq!(m.stats().committed_writebacks, (n - 1) - (n / 8 - 1));

        let m = build_chain(EncodingPolicy::Hop { distance: 4, max_levels: 2 }, n);
        // Hand-traced for H=4, two levels, 64 records: 63 ordinary
        // writebacks plus 14 hop upgrades (Table 2's surplus).
        assert_eq!(m.stats().committed_writebacks, 63 + 14);
        // Only the head remains raw: hop bases hold their short-range delta
        // until their upgrade lands.
        let raw = (0..n).filter(|&i| m.base_of(RecordId(i)).is_none()).count();
        assert_eq!(raw, 1);
    }

    #[test]
    fn recover_rebuilds_topology() {
        // Simulate restart state: 0 ← 1 ← 2(raw), 3(raw, independent).
        let mut m = ChainManager::new(EncodingPolicy::default_hop());
        m.recover(vec![
            (RecordId(0), Some(RecordId(1))),
            (RecordId(1), Some(RecordId(2))),
            (RecordId(2), None),
            (RecordId(3), None),
        ]);
        assert_eq!(m.decode_path(RecordId(0)), Some(vec![RecordId(0), RecordId(1), RecordId(2)]));
        assert_eq!(m.refcount(RecordId(2)), 1);
        assert_eq!(m.refcount(RecordId(1)), 1);
        assert_eq!(m.refcount(RecordId(3)), 0);
        assert!(m.is_head(RecordId(2)), "raw record heads its recovered chain");
        assert!(!m.is_head(RecordId(1)), "encoded record is mid-chain");
        // A raw recovered record extends normally.
        let p = m.append(RecordId(10), RecordId(3));
        assert!(!p.overlapped);
        assert_eq!(p.writebacks, vec![Writeback { target: RecordId(3), base: RecordId(10) }]);
        // A mid-chain recovered record takes the overlapped path.
        let p = m.append(RecordId(11), RecordId(1));
        assert!(p.overlapped);
        // Deletion semantics still work on recovered topology.
        assert!(!m.mark_deleted(RecordId(2)), "still referenced");
        assert!(m.mark_deleted(RecordId(0)));
        m.remove(RecordId(0));
        assert_eq!(m.refcount(RecordId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "fresh manager")]
    fn recover_rejects_non_empty() {
        let mut m = ChainManager::new(EncodingPolicy::Backward);
        m.start_chain(RecordId(1));
        m.recover(vec![(RecordId(2), None)]);
    }

    #[test]
    fn is_head_tracks_latest() {
        let mut m = ChainManager::new(EncodingPolicy::default_hop());
        m.start_chain(RecordId(10));
        assert!(m.is_head(RecordId(10)));
        m.append(RecordId(11), RecordId(10));
        assert!(!m.is_head(RecordId(10)));
        assert!(m.is_head(RecordId(11)));
    }

    #[test]
    fn maintenance_accessors_enumerate_deterministically() {
        let mut m = build_chain(EncodingPolicy::Backward, 5);
        assert_eq!(m.tracked_ids(), ids(5));
        assert!(m.deleted_ids().is_empty());
        // Chain 0←1←2←3←4: record 2's sole dependent is record 1.
        assert_eq!(m.dependents_of(RecordId(2)), vec![RecordId(1)]);
        assert_eq!(m.dependents_of(RecordId(0)), Vec::<RecordId>::new());
        m.mark_deleted(RecordId(3));
        m.mark_deleted(RecordId(1));
        assert_eq!(m.deleted_ids(), vec![RecordId(1), RecordId(3)], "sorted backlog");
        assert_eq!(
            m.dependents_of(RecordId(3)).len() as u32,
            m.refcount(RecordId(3)),
            "dependents agree with refcount"
        );
    }

    /// The full-scan bodies `deleted_ids` and `dependents_of` had before the
    /// indexes existed, kept as the oracles the indexes are checked against.
    fn deleted_ids_scan(m: &ChainManager) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> =
            m.records.iter().filter(|(_, r)| r.deleted).map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    fn dependents_of_scan(m: &ChainManager, id: RecordId) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> =
            m.records.iter().filter(|(_, r)| r.base == Some(id)).map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Indexed answers equal the scans, for every id ever handed out (a
    /// removed id must list nothing), and refcounts count the edges.
    fn assert_indexes_match_scans(m: &ChainManager, max_id: u64, at: &str) {
        let deleted = deleted_ids_scan(m);
        assert_eq!(m.deleted_ids(), deleted, "{at}: deleted_ids");
        assert_eq!(m.deleted_iter().collect::<Vec<_>>(), deleted, "{at}: deleted_iter");
        assert_eq!(m.deleted_len(), deleted.len(), "{at}: deleted_len");
        let mut edges = 0;
        for id in (0..=max_id).map(RecordId) {
            let deps = m.dependents_of(id);
            assert_eq!(deps, dependents_of_scan(m, id), "{at}: dependents_of({id})");
            assert_eq!(deps.len() as u32, m.refcount(id), "{at}: refcount({id})");
            edges += deps.len();
        }
        assert_eq!(m.dependents.len(), edges, "{at}: no edge outlives its records");
    }

    #[test]
    fn indexes_equal_full_scans_under_random_topology_edits() {
        use dbdedup_util::dist::SplitMix64;
        for seed in 0..9u64 {
            let mut rng = SplitMix64::new(0x1DE7_0000 + seed);
            let policy = match seed % 3 {
                0 => EncodingPolicy::Backward,
                1 => EncodingPolicy::Hop { distance: 4, max_levels: 2 },
                _ => EncodingPolicy::VersionJumping { cluster: 4 },
            };
            let mut m = ChainManager::new(policy);
            let mut next_id = 0u64;
            let mut planned: Vec<Writeback> = Vec::new();
            for step in 0..400 {
                let live = m.tracked_ids();
                let pick = |rng: &mut SplitMix64| live[rng.next_index(live.len())];
                match rng.next_index(12) {
                    _ if live.is_empty() => {
                        m.start_chain(RecordId(next_id));
                        next_id += 1;
                    }
                    0 => {
                        m.start_chain(RecordId(next_id));
                        next_id += 1;
                    }
                    1..=4 => {
                        // Mostly extend heads, sometimes the overlapped case.
                        let src = pick(&mut rng);
                        planned.extend(m.append(RecordId(next_id), src).writebacks);
                        next_id += 1;
                    }
                    5 | 6 => {
                        // Commit a planned write-back whose ends both survive
                        // (the engine drops the others at flush).
                        if !planned.is_empty() {
                            let wb = planned.swap_remove(rng.next_index(planned.len()));
                            if live.contains(&wb.target) && live.contains(&wb.base) {
                                m.commit_writeback(wb);
                            }
                        }
                    }
                    7 => {
                        m.mark_deleted(pick(&mut rng));
                    }
                    8 => {
                        let id = pick(&mut rng);
                        if m.refcount(id) == 0 {
                            m.remove(id);
                        }
                    }
                    9 => m.clear_base(pick(&mut rng)),
                    10 => {
                        // Bases stay strictly newer, as the engine keeps them.
                        let (a, b) = (pick(&mut rng), pick(&mut rng));
                        if a != b {
                            m.splice_base(a.min(b), a.max(b));
                        }
                    }
                    _ => {
                        // Restart: what a store scan reports, fed to a fresh
                        // manager. Deletion marks are not persisted.
                        let entries: Vec<_> = live.iter().map(|&id| (id, m.base_of(id))).collect();
                        let refcounts: Vec<u32> = live.iter().map(|&id| m.refcount(id)).collect();
                        m = ChainManager::new(policy);
                        m.recover(entries);
                        planned.clear();
                        let after: Vec<u32> = live.iter().map(|&id| m.refcount(id)).collect();
                        assert_eq!(after, refcounts, "seed {seed} step {step}: recover");
                        assert_eq!(m.deleted_len(), 0);
                    }
                }
                assert_indexes_match_scans(&m, next_id, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn depth_and_retention_candidates() {
        let m = build_chain(EncodingPolicy::Backward, 6);
        assert_eq!(m.depth_behind_head(RecordId(5)), Some(0), "head has depth 0");
        assert_eq!(m.depth_behind_head(RecordId(0)), Some(5));
        assert_eq!(m.depth_behind_head(RecordId(99)), None);
        // Cap the tail at 2 versions: records 0, 1, 2 are over-deep.
        assert_eq!(m.retention_candidates(2), vec![RecordId(0), RecordId(1), RecordId(2)]);
        assert!(m.retention_candidates(5).is_empty());
        // Already-deleted records are not re-proposed.
        let mut m = build_chain(EncodingPolicy::Backward, 6);
        m.mark_deleted(RecordId(0));
        assert_eq!(m.retention_candidates(2), vec![RecordId(1), RecordId(2)]);
    }

    #[test]
    fn independent_chains() {
        let mut m = ChainManager::new(EncodingPolicy::Backward);
        m.start_chain(RecordId(1));
        m.start_chain(RecordId(100));
        let p = m.append(RecordId(2), RecordId(1));
        assert_eq!(p.writebacks.len(), 1);
        assert!(m.is_head(RecordId(100)), "other chain untouched");
        assert_eq!(m.stats().chains, 2);
    }
}
