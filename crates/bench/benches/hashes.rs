//! Criterion: hash primitive throughput — the MurmurHash-vs-SHA-1 trade
//! of §3.1.1 and the rolling hashes on the chunking/anchor hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dbdedup_util::hash::adler32::RollingAdler32;
use dbdedup_util::hash::crc32::crc32;
use dbdedup_util::hash::murmur3::murmur3_x64_128;
use dbdedup_util::hash::rabin::{RabinTables, RollingRabin};
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
    // The segment-frame checksum: under every store put and cache-miss get.
    g.bench_function("crc32", |b| {
        b.iter(|| black_box(crc32(black_box(&data))));
    });
    g.finish();
}

fn bench_rolling(c: &mut Criterion) {
    let data: Vec<u8> = (0..64 << 10).map(|i| (i * 31 % 256) as u8).collect();
    let mut g = c.benchmark_group("rolling_64k");
    g.throughput(Throughput::Bytes(data.len() as u64));
    let tables = RabinTables::new(48);
    g.bench_function("rabin_w48", |b| {
        b.iter(|| {
            let mut r = RollingRabin::new(&tables);
            let mut acc = 0u64;
            for &x in &data {
                r.roll(x);
                acc ^= r.hash();
            }
            black_box(acc)
        });
    });
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

criterion_group!(benches, bench_block_hashes, bench_rolling);
criterion_main!(benches);
