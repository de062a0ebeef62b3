//! Fig. 15 — delta-compression optimization: compression ratio and
//! encoding throughput versus the anchor interval, against the classic
//! xDelta baseline, on Wikipedia revision pairs.
//!
//! Paper: interval 16 ≈ xDelta; interval 64 (default) is ~80% faster than
//! xDelta at ~7% compression loss; 128 adds ~10% speed for ~15% loss.
//!
//! Two throughputs per interval. *stand-alone* is `DbDeltaEncoder::encode`:
//! gear-scan the source, gear-scan the target, then match — everything a
//! caller with two bare byte strings pays. *anchored* is
//! `encode_anchored` with both anchor lists in hand, which is what an
//! engine insert pays for delta encoding: the target's anchors fall out of
//! the scan that chunks the record and the source's were cached beside it
//! when it was inserted.

use dbdedup_delta::{xdelta_compress, DbDeltaConfig, DbDeltaEncoder};
use dbdedup_workloads::wikipedia::revision_chain;
use std::time::Instant;

fn main() {
    let chain = revision_chain(120, 42);
    let pairs: Vec<(&[u8], &[u8])> =
        chain.windows(2).map(|w| (w[0].as_slice(), w[1].as_slice())).collect();
    let total_target: u64 = pairs.iter().map(|(_, t)| t.len() as u64).sum();
    // Repeat passes so timings are stable.
    let reps = (200_000_000 / total_target.max(1)).clamp(1, 200) as usize;

    println!(
        "Fig 15: anchor interval sweep, {} revision pairs x{reps} passes ({} MB target data)\n",
        pairs.len(),
        total_target * reps as u64 / (1 << 20),
    );
    dbdedup_bench::header(&[
        "encoder",
        "comp. ratio",
        "stand-alone",
        "vs xDelta",
        "anchored",
        "vs xDelta",
    ]);

    // xDelta baseline.
    let t0 = Instant::now();
    let mut xdelta_bytes = 0u64;
    for _ in 0..reps {
        xdelta_bytes = 0;
        for (s, t) in &pairs {
            xdelta_bytes += xdelta_compress(s, t).encoded_len() as u64;
        }
    }
    let xdelta_secs = t0.elapsed().as_secs_f64();
    let xdelta_tput = (total_target * reps as u64) as f64 / xdelta_secs / (1 << 20) as f64;
    dbdedup_bench::row(&[
        "xDelta".to_string(),
        format!("{:.1}x", total_target as f64 / xdelta_bytes as f64),
        format!("{xdelta_tput:.0} MB/s"),
        "1.00x".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);

    let mb_per_s = |secs: f64| (total_target * reps as u64) as f64 / secs / (1 << 20) as f64;
    for interval in [16usize, 32, 64, 128] {
        let mut enc = DbDeltaEncoder::new(DbDeltaConfig::with_interval(interval));
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for _ in 0..reps {
            bytes = 0;
            for (s, t) in &pairs {
                bytes += enc.encode(s, t).encoded_len() as u64;
            }
        }
        let tput = mb_per_s(t0.elapsed().as_secs_f64());

        // Anchors scanned off the clock, once per revision, as the engine
        // has them: revision i is pair i's target and pair i+1's source.
        let anchors: Vec<Vec<_>> = chain
            .iter()
            .map(|rev| {
                let mut a = Vec::new();
                enc.sampler().scan(rev, &mut a);
                a
            })
            .collect();
        let t0 = Instant::now();
        let mut anchored_bytes = 0u64;
        for _ in 0..reps {
            anchored_bytes = 0;
            for (i, (s, t)) in pairs.iter().enumerate() {
                let delta = enc.encode_anchored(s, Some(&anchors[i]), t, Some(&anchors[i + 1]));
                anchored_bytes += delta.encoded_len() as u64;
            }
        }
        let anchored_tput = mb_per_s(t0.elapsed().as_secs_f64());
        assert_eq!(bytes, anchored_bytes, "the two entry points must produce one delta");

        dbdedup_bench::row(&[
            format!("anchor {interval}"),
            format!("{:.1}x", total_target as f64 / bytes as f64),
            format!("{tput:.0} MB/s"),
            format!("{:.2}x", tput / xdelta_tput),
            format!("{anchored_tput:.0} MB/s"),
            format!("{:.2}x", anchored_tput / xdelta_tput),
        ]);
    }
    println!(
        "\nstand-alone = gear-scan source + gear-scan target + match (two bare byte strings);\n\
         anchored = match only, both anchor lists in hand (what an engine insert pays: the\n\
         target's anchors come out of its chunking scan, the source's out of the cache)"
    );
    println!("paper: anchor 64 ≈ +80% throughput for ~7% ratio loss vs xDelta");
}
