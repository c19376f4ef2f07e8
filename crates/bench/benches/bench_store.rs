//! Criterion bench: `pdl-store` throughput on the in-memory backend
//! across layout families — sequential reads (stripe-local addresses),
//! random block reads, sequential stripe-aligned writes (the zero-read
//! full-stripe path), random small writes (read-modify-write), and
//! full-rebuild time. RAID5 and ring-declustered layouts side by side:
//! the data path costs the same, the rebuild does not. A P+Q group
//! prices double parity: the extra Q update on writes, the
//! two-erasure decode on doubly-degraded reads, and the two-phase
//! double rebuild.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdl_core::{raid5_layout, DoubleParityLayout, Layout, RingLayout};
use pdl_store::{BlockStore, CachePolicy, MemBackend, Rebuilder};
use std::hint::black_box;

const UNIT: usize = 4096;

fn families() -> Vec<(&'static str, Layout)> {
    vec![
        ("raid5_v9", raid5_layout(9, 16)),
        ("ring_v9_k4", RingLayout::for_v_k(9, 4).layout().clone()),
        ("ring_v13_k4", RingLayout::for_v_k(13, 4).layout().clone()),
    ]
}

fn pq_families() -> Vec<(&'static str, DoubleParityLayout)> {
    vec![
        (
            "ring_v9_k4",
            DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap(),
        ),
        (
            "ring_v13_k4",
            DoubleParityLayout::new(RingLayout::for_v_k(13, 4).layout().clone()).unwrap(),
        ),
    ]
}

fn make_store(layout: &Layout) -> BlockStore<MemBackend> {
    // Enough layout copies that every family holds ≥ 256 blocks (the
    // per-iteration transfer size below).
    let backend = MemBackend::new(layout.v() + 1, 4 * layout.size(), UNIT);
    BlockStore::new(layout.clone(), backend).unwrap()
}

fn make_pq_store(dp: &DoubleParityLayout) -> BlockStore<MemBackend> {
    let backend = MemBackend::new(dp.layout().v() + 2, 4 * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp.clone(), backend).unwrap()
}

fn bench_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_read");
    for (name, layout) in families() {
        let store = make_store(&layout);
        let blocks = store.blocks();
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_with_input(BenchmarkId::new("sequential", name), &store, |b, s| {
            let mut buf = vec![0u8; UNIT];
            b.iter(|| {
                for addr in 0..256usize {
                    s.read_block(black_box(addr % blocks), &mut buf).unwrap();
                }
            })
        });
        // The coalesced multi-block path: same bytes, one vectored
        // backend call per per-disk run instead of one per block.
        g.bench_with_input(BenchmarkId::new("sequential_vectored", name), &store, |b, s| {
            let span = 256usize.min(blocks);
            let mut buf = vec![0u8; span * UNIT];
            b.iter(|| s.read_blocks(black_box(0), &mut buf).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("random", name), &store, |b, s| {
            let mut buf = vec![0u8; UNIT];
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    s.read_block(black_box(addr), &mut buf).unwrap();
                }
            })
        });
    }
    g.finish();
}

fn bench_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_write");
    for (name, layout) in families() {
        let store = make_store(&layout);
        let blocks = store.blocks();
        let bulk = vec![0xabu8; 256 * UNIT];
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_function(BenchmarkId::new("seq_full_stripe", name), |b| {
            b.iter(|| store.write_blocks(0, black_box(&bulk)).unwrap())
        });
        let block = vec![0xcdu8; UNIT];
        g.bench_function(BenchmarkId::new("random_small_rmw", name), |b| {
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    store.write_block(black_box(addr), &block).unwrap();
                }
            })
        });
    }
    g.finish();
}

fn bench_degraded_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_degraded_read");
    for (name, layout) in families() {
        let store = make_store(&layout);
        store.fail_disk(0).unwrap();
        let blocks = store.blocks();
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            let mut buf = vec![0u8; UNIT];
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    s.read_block(black_box(addr), &mut buf).unwrap();
                }
            })
        });
    }
    g.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_rebuild_full");
    for (name, layout) in families() {
        let spare = layout.v();
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                // Setup is part of the measured loop (criterion's
                // stand-in has no iter_batched); rebuild dominates.
                let store = make_store(&layout);
                store.fail_disk(1).unwrap();
                let report = Rebuilder::new(4).rebuild(&store, spare).unwrap();
                black_box(report.units_rebuilt)
            })
        });
    }
    g.finish();
}

/// Small-write combining: the same random-small-write hammer with the
/// write-back cache off vs on (flush included), on the mem backend.
fn bench_write_back_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_write_back");
    for (name, layout) in families() {
        let store = make_store(&layout);
        let blocks = store.blocks();
        let block = vec![0xcdu8; UNIT];
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_function(BenchmarkId::new("small_write_through", name), |b| {
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    store.write_block(black_box(addr), &block).unwrap();
                }
            })
        });
        g.bench_function(BenchmarkId::new("small_write_back", name), |b| {
            b.iter(|| {
                store.set_cache_policy(CachePolicy::write_back()).unwrap();
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    store.write_block(black_box(addr), &block).unwrap();
                }
                store.flush().unwrap();
                store.set_cache_policy(CachePolicy::WriteThrough).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_pq(c: &mut Criterion) {
    // Small-write RMW under double parity (3 reads + 3 writes).
    let mut g = c.benchmark_group("store_pq_write");
    for (name, dp) in pq_families() {
        let store = make_pq_store(&dp);
        let blocks = store.blocks();
        let block = vec![0xcdu8; UNIT];
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_function(BenchmarkId::new("random_small_rmw", name), |b| {
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    store.write_block(black_box(addr), &block).unwrap();
                }
            })
        });
    }
    g.finish();

    // Random reads while TWO disks are down: the two-erasure decode.
    let mut g = c.benchmark_group("store_pq_double_degraded_read");
    for (name, dp) in pq_families() {
        let store = make_pq_store(&dp);
        store.fail_disk(0).unwrap();
        store.fail_disk(3).unwrap();
        let blocks = store.blocks();
        g.throughput(Throughput::Bytes((256 * UNIT) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, s| {
            let mut buf = vec![0u8; UNIT];
            b.iter(|| {
                for i in 0..256usize {
                    let addr = i.wrapping_mul(2654435761) % blocks;
                    s.read_block(black_box(addr), &mut buf).unwrap();
                }
            })
        });
    }
    g.finish();

    // Two-phase rebuild of both failed disks onto two spares.
    let mut g = c.benchmark_group("store_pq_double_rebuild");
    for (name, dp) in pq_families() {
        let spares = [dp.layout().v(), dp.layout().v() + 1];
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                // Setup is part of the measured loop (criterion's
                // stand-in has no iter_batched); rebuild dominates.
                let store = make_pq_store(&dp);
                store.fail_disk(1).unwrap();
                store.fail_disk(5).unwrap();
                let reports = Rebuilder::new(4).rebuild_all(&store, &spares).unwrap();
                black_box(reports.len())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_reads,
    bench_writes,
    bench_degraded_read,
    bench_rebuild,
    bench_pq,
    bench_write_back_cache
}
criterion_main!(benches);
