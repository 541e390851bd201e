//! Criterion microbenchmarks for the data structures on PrismDB's critical
//! path: B-tree lookups, bloom filter probes, clock tracker accesses and
//! MSC scoring.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};

use prism_compaction::{msc_score, BucketMap};
use prism_flash::BloomFilter;
use prism_tracker::ClockTracker;
use prism_types::Key;

fn bench_btree(c: &mut Criterion) {
    let mut index: BTreeMap<u64, u64> = BTreeMap::new();
    for id in 0..100_000u64 {
        index.insert(id, id);
    }
    let mut probe = 0u64;
    c.bench_function("btree_get_100k", |b| {
        b.iter(|| {
            probe = (probe + 7919) % 100_000;
            std::hint::black_box(index.get(&probe));
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let mut bloom = BloomFilter::new(100_000, 10);
    for id in 0..100_000u64 {
        bloom.add(&Key::from_id(id));
    }
    let mut probe = 0u64;
    c.bench_function("bloom_probe_100k", |b| {
        b.iter(|| {
            probe = (probe + 6151) % 200_000;
            std::hint::black_box(bloom.may_contain(&Key::from_id(probe)));
        })
    });
}

fn bench_tracker(c: &mut Criterion) {
    let mut tracker = ClockTracker::new(50_000);
    let mut id = 0u64;
    c.bench_function("clock_tracker_access", |b| {
        b.iter(|| {
            id = (id + 31) % 200_000;
            std::hint::black_box(tracker.access(&Key::from_id(id), false));
        })
    });
}

fn bench_msc(c: &mut Criterion) {
    let mut buckets = BucketMap::new(4_096);
    for id in 0..200_000u64 {
        buckets.on_nvm_insert(id);
        if id % 7 == 0 {
            buckets.on_access(id);
        }
        if id % 3 == 0 {
            buckets.on_flash_insert(id);
        }
    }
    let mut start = 0u64;
    c.bench_function("approx_msc_range_estimate", |b| {
        b.iter(|| {
            start = (start + 8_192) % 150_000;
            let stats = buckets.estimate(start, start + 16_384, 0.25);
            std::hint::black_box(msc_score(&stats));
        })
    });
}

criterion_group!(benches, bench_btree, bench_bloom, bench_tracker, bench_msc);
criterion_main!(benches);
