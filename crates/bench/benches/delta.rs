//! Criterion: delta compression — the anchor-interval ablation behind
//! Fig. 15, plus re-encode (Algorithm 2) and apply costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbdedup_delta::{reencode, xdelta_compress, DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup_workloads::wikipedia::revision_chain;
use std::hint::black_box;

fn pair() -> (Vec<u8>, Vec<u8>) {
    let mut chain = revision_chain(2, 11);
    let b = chain.pop().expect("two");
    let a = chain.pop().expect("two");
    (a, b)
}

fn bench_encode(c: &mut Criterion) {
    let (src, tgt) = pair();
    let mut g = c.benchmark_group("delta_encode");
    g.throughput(Throughput::Bytes(tgt.len() as u64));
    g.bench_function("xdelta", |b| {
        b.iter(|| black_box(xdelta_compress(black_box(&src), black_box(&tgt))));
    });
    for interval in [16usize, 64, 128] {
        let enc = DbDeltaEncoder::new(DbDeltaConfig::with_interval(interval));
        g.bench_with_input(BenchmarkId::new("anchors", interval), &(), |b, ()| {
            b.iter(|| black_box(enc.encode(black_box(&src), black_box(&tgt))));
        });
    }
    g.finish();
}

fn bench_reencode_and_apply(c: &mut Criterion) {
    let (src, tgt) = pair();
    let enc = DbDeltaEncoder::default();
    let fwd = enc.encode(&src, &tgt);
    let mut g = c.benchmark_group("delta_transform");
    g.throughput(Throughput::Bytes(tgt.len() as u64));
    // The claim behind two-way encoding: re-encode ≪ a second compression.
    g.bench_function("reencode_fwd_to_bwd", |b| {
        b.iter(|| black_box(reencode(black_box(&src), black_box(fwd.as_bytes()))));
    });
    g.bench_function("second_full_encode", |b| {
        b.iter(|| black_box(enc.encode(black_box(&tgt), black_box(&src))));
    });
    g.bench_function("decode_apply", |b| {
        b.iter(|| black_box(fwd.apply(black_box(&src)).expect("apply")));
    });
    g.finish();
}

/// A read's unit of work: one stored delta applied to its base, straight
/// from the wire, at the ≈ 17 KB record size of the Wikipedia workloads.
fn bench_apply_from_wire(c: &mut Criterion) {
    let src = revision_chain(1, 11).remove(0)[..17 << 10].to_vec();
    let mut tgt = src.clone();
    for at in [1_000, 6_000, 11_000, 16_000] {
        tgt.splice(at..at + 20, b"a sentence edited in this revision".iter().copied());
    }
    let wire = DbDeltaEncoder::default().encode(&src, &tgt).into_bytes();
    let mut g = c.benchmark_group("delta_apply_17KiB");
    g.throughput(Throughput::Bytes(tgt.len() as u64));
    let mut out = Vec::new();
    g.bench_function("apply_encoded", |b| {
        b.iter(|| {
            Delta::apply_encoded(black_box(&wire), &src, black_box(&mut out)).expect("apply")
        });
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_reencode_and_apply, bench_apply_from_wire);
criterion_main!(benches);
