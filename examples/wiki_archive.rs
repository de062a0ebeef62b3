//! A collaborative-wiki archive: the paper's motivating workload.
//!
//! Ingests a Wikipedia-style revision stream, then serves the paper's
//! access mix — almost every read hits an article's latest revision
//! (zero-decode thanks to backward encoding) with occasional
//! "time-travel" reads of old revisions bounded by hop encoding.
//!
//! ```sh
//! cargo run --release --example wiki_archive
//! ```

use dbdedup::util::fmt::{format_bytes, format_ratio};
use dbdedup::workloads::{Op, Wikipedia};
use dbdedup::{DedupEngine, EngineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inserts =
        std::env::var("DBDEDUP_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1500usize);

    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let mut engine = DedupEngine::open_temp(cfg)?;

    println!("ingesting {inserts} wiki revisions + paper read mix (99.9% reads to latest)...");
    let mut reads = 0u64;
    let mut writes = 0u64;
    for op in Wikipedia::mixed(inserts, 0.9, 7) {
        match op {
            Op::Insert { id, data } => {
                engine.insert("wikipedia", id, &data)?;
                writes += 1;
            }
            Op::Read { id } => {
                let _ = engine.read(id)?;
                reads += 1;
            }
        }
        if (reads + writes).is_multiple_of(256) {
            engine.pump(0.05, 16)?;
        }
    }
    engine.flush_all_writebacks()?;

    let m = engine.metrics();
    println!("\n--- wiki archive report ---");
    println!("revisions inserted:     {writes} ({} original)", format_bytes(m.original_bytes));
    println!("reads served:           {reads}");
    println!("deduped inserts:        {} / {writes}", m.deduped_inserts);
    println!("stored on disk:         {}", format_bytes(m.stored_bytes));
    println!("storage compression:    {}", format_ratio(m.storage_ratio()));
    println!("network compression:    {}", format_ratio(m.network_ratio()));
    println!("index memory:           {}", format_bytes(m.index_bytes as u64));
    println!("source cache miss:      {:.1}%", 100.0 * m.source_cache.miss_ratio());
    println!("mean decode retrievals: {:.2}", m.read_decode_hops.mean());
    println!("max decode retrievals:  {} (hop-bounded)", m.read_decode_hops.max());
    Ok(())
}
