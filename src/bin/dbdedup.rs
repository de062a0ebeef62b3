//! `dbdedup` — a small CLI for exploring the engine on the paper's
//! workloads.
//!
//! ```sh
//! dbdedup ingest --workload wikipedia --n 2000 [--chunk 1024] [--blockz] [--no-dedup]
//! dbdedup compare --n 1000            # all workloads x {original, dbdedup, +blockz}
//! dbdedup replicate --workload enron --n 1000
//! ```

use dbdedup::util::fmt::{format_bytes, format_ops, format_ratio};
use dbdedup::workloads::{Enron, MessageBoards, Op, StackExchange, Wikipedia, Workload};
use dbdedup::{DedupEngine, EngineConfig, ReplicaSet};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dbdedup ingest   --workload <wikipedia|enron|stackexchange|msgboards> \
         [--n N] [--chunk BYTES] [--blockz] [--no-dedup]\n  dbdedup compare  [--n N]\n  \
         dbdedup replicate --workload <name> [--n N]"
    );
    std::process::exit(2);
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Self { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn n(&self) -> usize {
        self.get("n").and_then(|v| v.parse().ok()).unwrap_or(1000)
    }
}

fn workload(name: &str, n: usize, seed: u64) -> Box<dyn Workload<Item = Op>> {
    match name {
        "wikipedia" => Box::new(Wikipedia::insert_only(n, seed)),
        "enron" => Box::new(Enron::insert_only(n, seed)),
        "stackexchange" => Box::new(StackExchange::insert_only(n, seed)),
        "msgboards" => Box::new(MessageBoards::insert_only(n, seed)),
        other => {
            eprintln!("unknown workload: {other}");
            usage()
        }
    }
}

fn report(engine: &DedupEngine, elapsed: f64, inserts: u64) {
    let m = engine.metrics();
    println!(
        "inserts:              {inserts} in {elapsed:.2}s ({})",
        format_ops(inserts as f64 / elapsed)
    );
    println!("original data:        {}", format_bytes(m.original_bytes));
    println!("stored on disk:       {}", format_bytes(m.stored_bytes));
    println!("storage compression:  {}", format_ratio(m.storage_ratio()));
    println!("network compression:  {}", format_ratio(m.network_ratio()));
    println!("index memory:         {}", format_bytes(m.index_bytes as u64));
    println!(
        "inserts deduped/unique/bypassed: {}/{}/{}",
        m.deduped_inserts,
        m.unique_inserts,
        m.bypassed_size + m.bypassed_governor
    );
    println!("source cache miss:    {:.1}%", 100.0 * m.source_cache.miss_ratio());
}

fn cmd_ingest(args: &Args) {
    let name = args.get("workload").unwrap_or_else(|| usage());
    let n = args.n();
    let mut cfg = if args.has("no-dedup") {
        EngineConfig::no_dedup()
    } else {
        let chunk = args.get("chunk").and_then(|c| c.parse().ok()).unwrap_or(1024);
        EngineConfig::with_chunk_size(chunk)
    };
    cfg.block_compression = args.has("blockz");
    cfg.min_benefit_bytes = 16;
    let mut engine = DedupEngine::open_temp(cfg).expect("engine");
    let mut wl = workload(name, n, 42);
    let db = wl.db();
    println!("ingesting {n} records of {name}...\n");
    let t0 = Instant::now();
    let mut inserts = 0u64;
    for op in &mut wl {
        if let Op::Insert { id, data } = op {
            engine.insert(db, id, &data).expect("insert");
            inserts += 1;
        }
    }
    engine.flush_all_writebacks().expect("flush");
    report(&engine, t0.elapsed().as_secs_f64(), inserts);
}

fn cmd_compare(args: &Args) {
    let n = args.n();
    println!("{:>16} {:>12} {:>12} {:>12}", "workload", "original", "dbdedup", "+blockz");
    for name in ["wikipedia", "enron", "stackexchange", "msgboards"] {
        let mut cells = vec![format!("{name:>16}")];
        for (dedup, blockz) in [(false, false), (true, false), (true, true)] {
            let mut cfg = if dedup { EngineConfig::default() } else { EngineConfig::no_dedup() };
            cfg.block_compression = blockz;
            cfg.min_benefit_bytes = 16;
            let mut engine = DedupEngine::open_temp(cfg).expect("engine");
            let mut wl = workload(name, n, 42);
            let db = wl.db();
            for op in &mut wl {
                if let Op::Insert { id, data } = op {
                    engine.insert(db, id, &data).expect("insert");
                }
            }
            engine.flush_all_writebacks().expect("flush");
            cells.push(format!("{:>12}", format_ratio(engine.metrics().storage_ratio())));
        }
        println!("{}", cells.join(" "));
    }
}

fn cmd_replicate(args: &Args) {
    let name = args.get("workload").unwrap_or_else(|| usage());
    let n = args.n();
    let mut cfg = EngineConfig::default();
    cfg.min_benefit_bytes = 16;
    let mut set = ReplicaSet::open_temp(cfg, 1).expect("replica set");
    let mut wl = workload(name, n, 42);
    let db = wl.db();
    let mut original = 0u64;
    let mut ids = Vec::new();
    for op in &mut wl {
        if let Op::Insert { id, data } = op {
            original += data.len() as u64;
            set.primary.insert(db, id, &data).expect("insert");
            ids.push(id);
            if set.primary.oplog_pending() > 64 {
                set.sync().expect("sync");
            }
        }
    }
    set.sync().expect("sync");
    set.flush_all().expect("flush");
    for id in &ids {
        assert_eq!(
            &set.primary.read(*id).expect("read")[..],
            &set.secondaries[0].read(*id).expect("read")[..]
        );
    }
    let net = set.link_stats()[0];
    println!("replicated {} records of {name}", ids.len());
    println!("original volume:     {}", format_bytes(original));
    println!("wire bytes:          {} in {} batches", format_bytes(net.bytes), net.batches);
    println!("network compression: {}", format_ratio(original as f64 / net.bytes as f64));
    println!("replicas converged:  yes (verified byte-for-byte)");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "ingest" => cmd_ingest(&args),
        "compare" => cmd_compare(&args),
        "replicate" => cmd_replicate(&args),
        _ => usage(),
    }
}
