//! Criterion bench: the Condition-4 address map — one table lookup plus
//! O(1) arithmetic per translation. The paper's feasibility criterion
//! hinges on this being cheap and the table small. `StripeMap` is the
//! one map: the simulator, the Condition 5–6 scores and the block store
//! all resolve addresses through it, XOR and P+Q alike.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdl_core::{DoubleParityLayout, RingLayout, StripeMap};
use std::hint::black_box;

fn bench_locate(c: &mut Criterion) {
    let mut g = c.benchmark_group("address_map_locate");
    let mut maps: Vec<(String, StripeMap)> = [(9usize, 4usize), (25, 6), (81, 10)]
        .iter()
        .map(|&(v, k)| {
            (format!("v{v}_k{k}"), StripeMap::new(RingLayout::for_v_k(v, k).layout(), None))
        })
        .collect();
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(25, 6).layout().clone()).unwrap();
    maps.push(("pq_v25_k6".into(), StripeMap::new(dp.layout(), Some(dp.all_parity_slots()))));
    for (name, m) in &maps {
        let n = m.data_units_per_copy();
        g.throughput(Throughput::Elements(1024));
        g.bench_with_input(BenchmarkId::from_parameter(name), m, |b, m| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..1024usize {
                    let r = m.locate_full(black_box(i * 2654435761 % (8 * n)));
                    acc = acc.wrapping_add(r.unit.disk as u64 + r.unit.offset as u64);
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_map_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("address_map_build");
    for &(v, k) in &[(9usize, 4usize), (49, 8)] {
        let rl = RingLayout::for_v_k(v, k);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("v{v}_k{k}")),
            rl.layout(),
            |b, l| b.iter(|| StripeMap::new(black_box(l), None)),
        );
    }
    g.finish();
}

fn bench_parity_lookup(c: &mut Criterion) {
    let rl = RingLayout::for_v_k(25, 6);
    let l = rl.layout();
    let m = StripeMap::new(l, None);
    let n = m.data_units_per_copy();
    c.bench_function("address_map_parity_slots", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024usize {
                let stripe = m.stripe_of(black_box(i % n));
                let (p, _) = m.parity_slots(stripe);
                acc = acc.wrapping_add(l.stripes()[stripe].units()[p].disk as u64);
            }
            acc
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_locate, bench_map_build, bench_parity_lookup
}
criterion_main!(benches);
