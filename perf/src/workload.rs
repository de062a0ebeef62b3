//! The four workloads: fixed, seed-determined op lists.
//!
//! Run length is an op count frozen here per preset, never a duration, so
//! `attempted`, byte counts and ratios repeat exactly for one seed. The
//! seed changes every content byte and the order of operations, but not
//! the *skeleton* of a workload — article sizes by popularity rank, op
//! mix, preload size — because the driver compares runs of different
//! seeds and a heavy-tailed size drawn afresh per seed moves throughput by
//! tens of percent (a 400 KB article at Zipf rank 0 is 15 % of all
//! inserts).
//!
//! Ops are produced in batches between timed sections; each carries what
//! the driver needs to check the engine's answer (reads carry the CRC and
//! length the model expects), so no corpus is ever materialised.

use crate::{fnv1a, FNV_OFFSET};
use dbdedup::util::dist::{LogNormal, SplitMix64};
use dbdedup::util::hash::crc32::crc32;
use dbdedup::workloads::text::TextGen;
use dbdedup::workloads::{Enron, MessageBoards, Op as SourceOp, StackExchange};
use dbdedup::RecordId;

/// Workload names, in `BENCHMARK.json` order. Permanent.
pub const WORKLOADS: [&str; 4] = ["wiki_ingest", "wiki_read", "small_mixed", "churn_tiered"];

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 80 % insert / 20 % read-latest over large, highly similar revisions.
    WikiIngest,
    /// 95 % reads (20 % of them of old revisions) / 5 % inserts.
    WikiRead,
    /// Small records in three databases, insert then read-after-insert.
    SmallMixed,
    /// Update / insert / delete / read under a tight index hot budget.
    ChurnTiered,
}

impl Workload {
    /// Parses a `BENCHMARK.json` workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "wiki_ingest" => Self::WikiIngest,
            "wiki_read" => Self::WikiRead,
            "small_mixed" => Self::SmallMixed,
            "churn_tiered" => Self::ChurnTiered,
            _ => return None,
        })
    }

    /// The `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize]
    }

    /// The frozen op counts of `preset`.
    ///
    /// `full` was calibrated once on the 2-core reference box so that the
    /// measured phase takes six to eight seconds and set-up about two and a
    /// half (the driver's cap on all its runs together leaves no more); the
    /// counts are then constants — a faster or slower machine changes the
    /// reported times, never the work. `smoke` is about 1 % of `full`.
    pub fn plan(self, preset: Preset) -> Plan {
        let (preload, warmup, measured) = match (self, preset) {
            (Self::WikiIngest, Preset::Full) => (6_000, 1_500, 28_000),
            (Self::WikiRead, Preset::Full) => (6_000, 5_000, 150_000),
            (Self::SmallMixed, Preset::Full) => (16_000, 5_000, 100_000),
            (Self::ChurnTiered, Preset::Full) => (28_000, 5_000, 100_000),
            (Self::WikiIngest, Preset::Smoke) => (400, 40, 400),
            (Self::WikiRead, Preset::Smoke) => (400, 100, 3_000),
            (Self::SmallMixed, Preset::Smoke) => (600, 100, 2_400),
            (Self::ChurnTiered, Preset::Smoke) => (600, 60, 1_200),
        };
        Plan { preload, warmup, measured }
    }

    fn is_wiki(self) -> bool {
        matches!(self, Self::WikiIngest | Self::WikiRead)
    }
}

/// Which frozen set of op counts to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The benchmark proper.
    Full,
    /// About 1 % of `Full`: a correctness and determinism check.
    Smoke,
}

impl Preset {
    /// The preset's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Smoke => "smoke",
        }
    }
}

/// Op counts of one (workload, preset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Records bulk-inserted during set-up.
    pub preload: u64,
    /// Ops run after the reopen and before the stopwatch starts, so the
    /// caches and the (memory-only) feature index are warm.
    pub warmup: u64,
    /// Ops timed. This is `attempted`.
    pub measured: u64,
}

/// One client operation, with what the driver needs to verify it.
#[derive(Debug)]
pub enum Op {
    /// Insert a new record into logical database `db`.
    Insert {
        /// Logical database (index partition, governor and filter key).
        db: &'static str,
        /// Fresh record id.
        id: RecordId,
        /// Record content.
        data: Vec<u8>,
    },
    /// Read a live record; the answer must have this CRC and length.
    Read {
        /// The record to read.
        id: RecordId,
        /// CRC-32 of the expected content.
        crc: u32,
        /// Length of the expected content.
        len: u32,
    },
    /// Replace a live record's content.
    Update {
        /// The record to update.
        id: RecordId,
        /// New content.
        data: Vec<u8>,
    },
    /// Delete a live record.
    Delete {
        /// The record to delete.
        id: RecordId,
    },
}

/// What a record must read back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// CRC-32 of the content.
    pub crc: u32,
    /// Content length.
    pub len: u32,
    /// Whether the content comes from an update (else from the insert).
    pub updated: bool,
}

/// Article sizes by popularity rank: log-normal, median 4 KB, sigma 1.8
/// (Fig. 7's spread), capped at 512 KiB. Drawn from a constant, not from
/// the run's seed: the table is part of the workload's definition.
struct SizeTable {
    rng: SplitMix64,
    dist: LogNormal,
}

impl SizeTable {
    fn new() -> Self {
        Self {
            rng: SplitMix64::new(0x5173_7ab1_e0f5_1359),
            dist: LogNormal::from_median(4_000.0, 1.8),
        }
    }

    fn next(&mut self) -> usize {
        self.dist.sample_clamped(&mut self.rng, 256, 512 << 10) as usize
    }
}

/// Deals popularity ranks in Zipf proportions (rank k in proportion to
/// 1 ÷ (k + 1)): a deck of [`Deck::CARDS`] cards, shuffled by the run's
/// seed and reshuffled whenever it runs out. Drawn independently instead,
/// the number of picks an article gets in a phase wanders by its square
/// root from seed to seed, and with heavy-tailed article sizes that alone
/// moved `network_ratio` by 6 % and `ops_s` by 4 % between seeds. Dealt
/// from a deck, every seed revises and reads each article as often as
/// every other seed does, in another order.
struct Deck {
    cards: Vec<u32>,
    dealt: usize,
}

impl Deck {
    /// Enough for the least popular of 300 articles to hold a card.
    const CARDS: usize = 2048;

    fn new(ranks: usize) -> Self {
        let total: f64 = (1..=ranks).map(|k| 1.0 / k as f64).sum();
        let mut cards = Vec::with_capacity(Self::CARDS);
        let mut share = 0.0;
        for k in 0..ranks {
            share += 1.0 / (k + 1) as f64 / total;
            let upto = (share * Self::CARDS as f64).round() as usize;
            cards.resize(upto.max(cards.len()), k as u32);
        }
        let dealt = cards.len();
        Self { cards, dealt }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> usize {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.next_index(i + 1));
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1] as usize
    }
}

struct Article {
    title: String,
    /// The size the table gave this article; revisions stay near it.
    size: usize,
    latest: String,
    prev: Option<String>,
    /// Ids of this article's revisions, oldest first.
    revisions: Vec<u64>,
}

/// Wikipedia-style revisions, after `dbdedup::workloads::Wikipedia` (same
/// record layout, same 1–4 dispersed edits per revision, same 3 % of edits
/// based on the previous version) but with every article created up front
/// in rank order from the fixed [`SizeTable`], and held at its size:
/// `TextGen::edit` adds about 60 bytes per revision on balance, which over
/// the thousands of revisions a popular article gets here would turn a
/// 17 KB mean record into a 130 KB one and make record size a function of
/// run length.
struct Wiki {
    rng: SplitMix64,
    text: TextGen,
    sizes: SizeTable,
    articles: Vec<Article>,
    /// How many articles are ranked (revised and read).
    ranked: usize,
    /// Which article the next revision edits, and the next read reads:
    /// one deck each, so that the op mix cannot thin one into the other.
    revise_deck: Deck,
    read_deck: Deck,
}

impl Wiki {
    const STALE_BASE_PROB: f64 = 0.03;

    fn new(seed: u64, ranked_articles: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x819a_51c3_77ab_01f4);
        let text = TextGen::new(&mut rng, 1200);
        Self {
            text,
            rng,
            sizes: SizeTable::new(),
            articles: Vec::new(),
            ranked: ranked_articles,
            revise_deck: Deck::new(ranked_articles),
            read_deck: Deck::new(ranked_articles),
        }
    }

    fn render(title: &str, rev: usize, body: &str) -> Vec<u8> {
        format!(
            "title: {title}\nrevision: {rev}\nauthor: user{:05}\ncomment: edit pass {rev}\n\n{body}",
            rev * 7919 % 100_000
        )
        .into_bytes()
    }

    /// Creates the next article (rank = creation order while the ranked
    /// set is filling; unranked — never revised or read — afterwards).
    fn create(&mut self, id: u64) -> Vec<u8> {
        let size = self.sizes.next();
        let title = format!("Article_{}", self.articles.len());
        let body = self.text.text(&mut self.rng, size);
        let data = Self::render(&title, 0, &body);
        self.articles.push(Article { title, size, latest: body, prev: None, revisions: vec![id] });
        data
    }

    fn revise(&mut self, id: u64) -> Vec<u8> {
        let k = self.revise_deck.deal(&mut self.rng);
        let stale = self.rng.next_bool(Self::STALE_BASE_PROB);
        let art = &self.articles[k];
        let mut body = match (&art.prev, stale) {
            (Some(prev), true) => prev.clone(),
            _ => art.latest.clone(),
        };
        let edits = 1 + self.rng.next_index(4);
        self.text.edit(&mut self.rng, &mut body, edits);
        let art = &mut self.articles[k];
        if body.len() > art.size {
            // One more dispersed deletion, of the excess.
            let excess = body.len() - art.size;
            let at = floor_char_boundary(&body, self.rng.next_index(art.size));
            let end = floor_char_boundary(&body, at + excess);
            body.replace_range(at..end, "");
        }
        let data = Self::render(&art.title, art.revisions.len(), &body);
        art.prev = Some(std::mem::replace(&mut art.latest, body));
        art.revisions.push(id);
        data
    }
}

/// Largest char boundary ≤ `at` (the vocabulary has one non-ASCII
/// syllable).
fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Enron, Stack Exchange and Message Boards records, round-robin, one
/// logical database each. The generators keep every body they ever
/// produced (to quote and revise from), so each runs in epochs of
/// `EPOCH` records and is then replaced by a freshly seeded one: resident
/// generator state stays a few MiB instead of growing with the corpus,
/// which keeps `peak_rss_mib` about the engine.
struct Small {
    seed: u64,
    produced: u64,
    sources: [Box<dyn Iterator<Item = SourceOp>>; 3],
}

impl Small {
    const DBS: [&'static str; 3] = ["enron", "stackexchange", "msgboards"];
    const EPOCH: u64 = 4096;

    fn new(seed: u64) -> Self {
        Self { seed, produced: 0, sources: Self::epoch_sources(seed, 0) }
    }

    fn epoch_sources(seed: u64, epoch: u64) -> [Box<dyn Iterator<Item = SourceOp>>; 3] {
        let s = SplitMix64::new(seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
        let n = Self::EPOCH as usize;
        [
            Box::new(Enron::insert_only(n, s)),
            Box::new(StackExchange::insert_only(n, s ^ 0x2222)),
            Box::new(MessageBoards::insert_only(n, s ^ 0x3333)),
        ]
    }

    fn next(&mut self) -> (&'static str, Vec<u8>) {
        let per_epoch = 3 * Self::EPOCH;
        if self.produced > 0 && self.produced.is_multiple_of(per_epoch) {
            self.sources = Self::epoch_sources(self.seed, self.produced / per_epoch);
        }
        let k = (self.produced % 3) as usize;
        self.produced += 1;
        match self.sources[k].next() {
            Some(SourceOp::Insert { data, .. }) => (Self::DBS[k], data),
            _ => unreachable!("insert-only sources yield EPOCH inserts"),
        }
    }
}

enum Source {
    Wiki(Wiki),
    Small(Small),
}

/// churn_tiered's mutable rows: short records of fresh text in a database
/// of their own, so no two share a chunk and none is ever a dedup source
/// or a decode base. Updates go only to them. (An update of a record that
/// other records decode through is held in memory on one node and applied
/// in place on the other whenever their write-back flush timing differs;
/// a later insert delta-encoded against it then fails to apply on the
/// secondary. This benchmark found that; a workload may not contain an op
/// that fails, so until the engine is fixed updates stay off chains.)
struct Rows {
    rng: SplitMix64,
    text: TextGen,
    ids: Vec<u64>,
}

impl Rows {
    const DB: &'static str = "rows";

    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7075_7a7a_1e00_4242);
        let text = TextGen::new(&mut rng, 600);
        Self { rng, text, ids: Vec::new() }
    }

    fn fresh(&mut self) -> Vec<u8> {
        let size = 200 + self.rng.next_index(1_000);
        self.text.text(&mut self.rng, size).into_bytes()
    }
}

/// The op list of one (workload, seed, plan), produced lazily, together
/// with the model every answer is checked against.
pub struct OpStream {
    workload: Workload,
    plan: Plan,
    /// Drives the op mix and read/update/delete targets.
    rng: SplitMix64,
    source: Source,
    next_id: u64,
    /// Ops handed out so far, preload included.
    emitted: u64,
    /// `model[id]`: what record `id` must read back as; `None` once
    /// deleted.
    model: Vec<Option<Expect>>,
    /// churn_tiered: ids of the live documents (inserted, read, deleted).
    docs: Vec<u64>,
    /// churn_tiered: the mutable rows (preloaded, read, updated).
    rows: Rows,
    /// small_mixed: the id inserted by the previous op, to be read next.
    read_after: Option<u64>,
    live_bytes: u64,
    written_bytes: u64,
    hash: u64,
}

impl OpStream {
    /// Creates the stream at the start of the preload.
    pub fn new(workload: Workload, seed: u64, plan: Plan) -> Self {
        let source = if workload.is_wiki() {
            Source::Wiki(Wiki::new(seed, (plan.preload / 20).max(4) as usize))
        } else {
            Source::Small(Small::new(seed))
        };
        Self {
            workload,
            plan,
            rng: SplitMix64::new(seed ^ 0x0b5e_55ed_c0ff_ee11),
            source,
            next_id: 0,
            emitted: 0,
            model: Vec::new(),
            docs: Vec::new(),
            rows: Rows::new(seed),
            read_after: None,
            live_bytes: 0,
            written_bytes: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Appends up to `max` ops to `out`, never crossing from the preload
    /// into the op mix (or from the warm-up into the measured phase)
    /// within one batch. Returns how many were appended.
    pub fn next_batch(&mut self, max: usize, out: &mut Vec<Op>) -> usize {
        let boundaries = [
            self.plan.preload,
            self.plan.preload + self.plan.warmup,
            self.plan.preload + self.plan.warmup + self.plan.measured,
        ];
        let stop = boundaries.into_iter().find(|&b| b > self.emitted).unwrap_or(self.emitted);
        let n = (max as u64).min(stop - self.emitted);
        for _ in 0..n {
            let op =
                if self.emitted < self.plan.preload { self.preload_op() } else { self.mixed_op() };
            self.fold(&op);
            self.emitted += 1;
            out.push(op);
        }
        n as usize
    }

    /// What `id` must read back as (`None`: deleted or never inserted).
    pub fn expect(&self, id: u64) -> Option<Expect> {
        self.model.get(id as usize).copied().flatten()
    }

    /// Ids handed out so far are `0..ids()`.
    pub fn ids(&self) -> u64 {
        self.next_id
    }

    /// Logical bytes of the records live right now.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Logical bytes written (inserted or updated) so far.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// FNV-1a over every op handed out: kind, id, content CRC, length.
    pub fn op_hash(&self) -> u64 {
        self.hash
    }

    fn fold(&mut self, op: &Op) {
        let (tag, id, crc, len) = match op {
            Op::Insert { id, data, .. } => (1u8, id.0, crc32(data), data.len() as u32),
            Op::Read { id, crc, len } => (2, id.0, *crc, *len),
            Op::Update { id, data } => (3, id.0, crc32(data), data.len() as u32),
            Op::Delete { id } => (4, id.0, 0, 0),
        };
        let mut bytes = [0u8; 17];
        bytes[0] = tag;
        bytes[1..9].copy_from_slice(&id.to_le_bytes());
        bytes[9..13].copy_from_slice(&crc.to_le_bytes());
        bytes[13..17].copy_from_slice(&len.to_le_bytes());
        self.hash = fnv1a(self.hash, &bytes);
    }

    fn set(&mut self, id: u64, data: &[u8]) {
        if id as usize >= self.model.len() {
            self.model.resize(id as usize + 1, None);
        }
        let slot = &mut self.model[id as usize];
        let e = Expect { crc: crc32(data), len: data.len() as u32, updated: slot.is_some() };
        if let Some(old) = slot.replace(e) {
            self.live_bytes -= u64::from(old.len);
        }
        self.live_bytes += data.len() as u64;
        self.written_bytes += data.len() as u64;
    }

    fn insert(&mut self, db: &'static str, data: Vec<u8>) -> Op {
        let id = self.next_id;
        self.next_id += 1;
        self.set(id, &data);
        Op::Insert { db, id: RecordId(id), data }
    }

    fn read(&self, id: u64) -> Op {
        let e = self.expect(id).expect("reads target live records");
        Op::Read { id: RecordId(id), crc: e.crc, len: e.len }
    }

    fn preload_op(&mut self) -> Op {
        let id = self.next_id;
        match &mut self.source {
            Source::Wiki(w) => {
                let data = if w.articles.len() < w.ranked { w.create(id) } else { w.revise(id) };
                self.insert("wikipedia", data)
            }
            // churn_tiered preloads documents and rows alternately.
            Source::Small(_) if self.workload == Workload::ChurnTiered && id % 2 == 1 => {
                self.rows.ids.push(id);
                let data = self.rows.fresh();
                self.insert(Rows::DB, data)
            }
            Source::Small(_) => self.insert_doc(),
        }
    }

    fn insert_doc(&mut self) -> Op {
        let Source::Small(s) = &mut self.source else { unreachable!("small-record workload") };
        let (db, data) = s.next();
        if self.workload == Workload::ChurnTiered {
            self.docs.push(self.next_id);
        }
        self.insert(db, data)
    }

    fn wiki_insert(&mut self) -> Op {
        let id = self.next_id;
        let Source::Wiki(w) = &mut self.source else { unreachable!("wiki workload") };
        // Every fortieth insert starts a new article: the unique path. (By
        // count, not by chance: the new articles' sizes come off the fixed
        // table in order, so every seed creates the same ones.)
        let data = if id.is_multiple_of(40) { w.create(id) } else { w.revise(id) };
        self.insert("wikipedia", data)
    }

    /// A read of a Zipf-popular article: an older revision (uniformly
    /// chosen) with probability `old_prob`, else the latest.
    fn wiki_read(&mut self, old_prob: f64) -> Op {
        let old = self.rng.next_bool(old_prob);
        let pick = self.rng.next_u64();
        let Source::Wiki(w) = &mut self.source else { unreachable!("wiki workload") };
        let k = w.read_deck.deal(&mut w.rng);
        let revs = &w.articles[k].revisions;
        let id = if old && revs.len() > 1 {
            revs[(pick % (revs.len() as u64 - 1)) as usize]
        } else {
            *revs.last().expect("articles have revisions")
        };
        self.read(id)
    }

    fn mixed_op(&mut self) -> Op {
        let u = self.rng.next_f64();
        match self.workload {
            Workload::WikiIngest if u < 0.8 => self.wiki_insert(),
            Workload::WikiIngest => self.wiki_read(0.0),
            Workload::WikiRead if u < 0.05 => self.wiki_insert(),
            Workload::WikiRead => self.wiki_read(0.2),
            Workload::SmallMixed => match self.read_after.take() {
                Some(id) => self.read(id),
                None => {
                    self.read_after = Some(self.next_id);
                    self.insert_doc()
                }
            },
            Workload::ChurnTiered if u < 0.4 => {
                let id = self.rows.ids[self.rng.next_index(self.rows.ids.len())];
                let data = self.rows.fresh();
                self.set(id, &data);
                Op::Update { id: RecordId(id), data }
            }
            Workload::ChurnTiered if u < 0.6 => self.insert_doc(),
            Workload::ChurnTiered if u < 0.7 => {
                let at = self.rng.next_index(self.docs.len());
                let id = self.docs.swap_remove(at);
                let old = self.model[id as usize].take().expect("delete targets are live");
                self.live_bytes -= u64::from(old.len);
                Op::Delete { id: RecordId(id) }
            }
            // Reads go to a document or a row, evenly.
            Workload::ChurnTiered if u < 0.85 => {
                let id = self.docs[self.rng.next_index(self.docs.len())];
                self.read(id)
            }
            Workload::ChurnTiered => {
                let id = self.rows.ids[self.rng.next_index(self.rows.ids.len())];
                self.read(id)
            }
        }
    }
}
