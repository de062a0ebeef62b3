//! Tuning explorer: sweep dbDedup's main knobs on a forum workload and
//! print the trade-off table — chunk size (ratio vs index memory),
//! encoding policy (ratio vs worst-case decode), and the governor watching
//! an incompressible database.
//!
//! ```sh
//! cargo run --release --example tuning_explorer
//! ```

use dbdedup::util::dist::SplitMix64;
use dbdedup::util::fmt::{format_bytes, format_ratio};
use dbdedup::workloads::{MessageBoards, Op};
use dbdedup::{DedupEngine, EncodingPolicy, EngineConfig, RecordId};

fn run(cfg: EngineConfig, inserts: usize) -> (f64, usize, u64) {
    let mut engine = DedupEngine::open_temp(cfg).expect("engine");
    for op in MessageBoards::insert_only(inserts, 5) {
        if let Op::Insert { id, data } = op {
            engine.insert("msgboards", id, &data).expect("insert");
        }
    }
    engine.flush_all_writebacks().expect("flush");
    let m = engine.metrics();
    (m.storage_ratio(), m.index_bytes, m.read_decode_hops.max())
}

fn main() {
    let inserts =
        std::env::var("DBDEDUP_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(800usize);

    println!("== chunk-size sweep (message boards, {inserts} posts) ==");
    println!("{:>10} {:>12} {:>12}", "chunk", "ratio", "index mem");
    for chunk in [64usize, 256, 1024, 4096] {
        let mut cfg = EngineConfig::with_chunk_size(chunk);
        cfg.min_benefit_bytes = 16;
        let (ratio, index, _) = run(cfg, inserts);
        println!(
            "{:>10} {:>12} {:>12}",
            format!("{chunk}B"),
            format_ratio(ratio),
            format_bytes(index as u64)
        );
    }

    println!("\n== encoding-policy sweep ==");
    println!("{:>14} {:>12}", "policy", "ratio");
    for (name, policy) in [
        ("backward", EncodingPolicy::Backward),
        ("hop H=16", EncodingPolicy::default_hop()),
        ("vjump H=16", EncodingPolicy::VersionJumping { cluster: 16 }),
    ] {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        cfg.encoding = policy;
        let (ratio, _, _) = run(cfg, inserts);
        println!("{name:>14} {:>12}", format_ratio(ratio));
    }

    println!("\n== governor on an incompressible database ==");
    let mut cfg = EngineConfig::default();
    cfg.governor_min_inserts = 50;
    cfg.filter_quantile = 0.0;
    let mut engine = DedupEngine::open_temp(cfg).expect("engine");
    let mut rng = SplitMix64::new(3);
    for i in 0..80u64 {
        let data: Vec<u8> = (0..4096).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        engine.insert("random-blobs", RecordId(i), &data).expect("insert");
    }
    println!(
        "after 80 random-blob inserts: ratio {}, dedup disabled = {}",
        format_ratio(engine.governor_ratio("random-blobs")),
        engine.governor_disabled("random-blobs"),
    );
}
