//! Criterion: hash primitive throughput — the MurmurHash-vs-SHA-1 trade
//! of §3.1.1, the frame checksum, and the rolling Adler-32 the xDelta
//! baseline indexes its source with (the gear scan is `chunking.rs`'s).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dbdedup_util::hash::adler32::RollingAdler32;
use dbdedup_util::hash::crc32::{crc32, crc32_portable};
use dbdedup_util::hash::murmur3::murmur3_x64_128;
use dbdedup_util::hash::sha1::sha1;
use std::hint::black_box;

fn bench_block_hashes(c: &mut Criterion) {
    let data = vec![0xabu8; 64 << 10];
    let mut g = c.benchmark_group("block_hash_64k");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("murmur3_x64_128", |b| {
        b.iter(|| black_box(murmur3_x64_128(black_box(&data), 0)));
    });
    g.bench_function("sha1", |b| {
        b.iter(|| black_box(sha1(black_box(&data))));
    });
    g.finish();
}

/// The segment-frame checksum — under every store put, cache-miss get,
/// compaction window, scrub slice and recovery scan — at the sizes those
/// see: a small-record frame, a page, a wiki revision, a compaction window.
/// Non-constant input: a kernel is not measured on one repeated byte.
/// `portable` is the slicing-by-16 chain alone, what `crc32` runs on a CPU
/// without PCLMULQDQ.
fn bench_crc32(c: &mut Criterion) {
    let data: Vec<u8> =
        (0u64..64 << 10).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8).collect();
    for (label, len) in [("300B", 300), ("4KiB", 4 << 10), ("17KiB", 17 << 10), ("64KiB", 64 << 10)]
    {
        let mut g = c.benchmark_group(format!("crc32_{label}"));
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function("crc32", |b| {
            b.iter(|| black_box(crc32(black_box(&data[..len]))));
        });
        g.bench_function("portable", |b| {
            b.iter(|| black_box(crc32_portable(black_box(&data[..len]))));
        });
        g.finish();
    }
}

fn bench_rolling(c: &mut Criterion) {
    let data: Vec<u8> = (0..64 << 10).map(|i| (i * 31 % 256) as u8).collect();
    let mut g = c.benchmark_group("rolling_64k");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("adler32_w16", |b| {
        b.iter(|| {
            let mut r = RollingAdler32::new(16);
            let mut acc = 0u32;
            for &x in &data {
                r.roll(x);
                acc ^= r.hash();
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_block_hashes, bench_crc32, bench_rolling);
criterion_main!(benches);
