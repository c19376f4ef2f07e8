//! Criterion bench: block-design construction throughput — full ring
//! designs (Theorem 1) and the reduced constructions (Theorems 4/5/6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_ring_designs(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_design");
    for &(v, k) in &[(9usize, 4usize), (25, 6), (49, 8), (81, 10)] {
        g.bench_with_input(
            BenchmarkId::new("full", format!("v{v}_k{k}")),
            &(v, k),
            |b, &(v, k)| b.iter(|| pdl_design::RingDesign::for_v_k(black_box(v), black_box(k))),
        );
    }
    g.finish();
}

fn bench_reduced_designs(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduced_design");
    for &(v, k) in &[(13usize, 4usize), (25, 5), (27, 3)] {
        g.bench_with_input(
            BenchmarkId::new("thm4", format!("v{v}_k{k}")),
            &(v, k),
            |b, &(v, k)| b.iter(|| pdl_design::theorem4_design(black_box(v), black_box(k))),
        );
        g.bench_with_input(
            BenchmarkId::new("thm5", format!("v{v}_k{k}")),
            &(v, k),
            |b, &(v, k)| b.iter(|| pdl_design::theorem5_design(black_box(v), black_box(k))),
        );
    }
    for &(v, k) in &[(16usize, 4usize), (27, 3), (64, 8)] {
        g.bench_with_input(
            BenchmarkId::new("thm6", format!("v{v}_k{k}")),
            &(v, k),
            |b, &(v, k)| b.iter(|| pdl_design::theorem6_design(black_box(v), black_box(k))),
        );
    }
    g.finish();
}

fn bench_field_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("finite_field");
    for &q in &[16u64, 81, 256, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| pdl_algebra::FiniteField::new(black_box(q)))
        });
    }
    g.finish();
}

/// The store's data-path slice kernels at request, block and unit
/// size: `xor_slice` (one implementation), and `mul_slice` /
/// `mul_add_slice` / `solve_two_erasures` on every GF(2^8) multiply
/// kernel this host can run — the vector kernel against the portable
/// fallback, and both against XOR, the bar P+Q is measured by.
fn bench_gf256_slice_kernels(c: &mut Criterion) {
    use pdl_algebra::gf256::{self, Kernel};
    let mut g = c.benchmark_group("gf256_slice_kernels");
    for len in [512usize, 4096, 65_536] {
        let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let mut dst: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
        let mut other = src.clone();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(BenchmarkId::new("xor", len), |b| {
            b.iter(|| gf256::xor_slice(black_box(&mut dst), black_box(&src)))
        });
        for kernel in Kernel::available() {
            let name = kernel.name();
            g.bench_function(BenchmarkId::new(format!("mul/{name}"), len), |b| {
                b.iter(|| kernel.mul_slice(black_box(&mut dst), black_box(0x8e)))
            });
            g.bench_function(BenchmarkId::new(format!("mul_add/{name}"), len), |b| {
                b.iter(|| {
                    kernel.mul_add_slice(black_box(&mut dst), black_box(&src), black_box(0x8e))
                })
            });
        }
        // Two units recovered per call.
        g.throughput(Throughput::Bytes(2 * len as u64));
        for kernel in Kernel::available() {
            g.bench_function(BenchmarkId::new(format!("solve2/{}", kernel.name()), len), |b| {
                b.iter(|| {
                    kernel.solve_two_erasures(black_box(&mut dst), black_box(&mut other), 2, 8)
                })
            });
        }
    }
    g.finish();
}

/// The store's unit checksum, one buffer at a time against batches of
/// eight, at request, block and unit size, on every XXH64 kernel this
/// host can run: the frozen benchmark times only the one-buffer hash,
/// so this is where the batch kernel's gain over it shows.
fn bench_xxh64_batch(c: &mut Criterion) {
    use pdl_algebra::xxh64::{self, Kernel};
    let mut g = c.benchmark_group("xxh64_batch");
    for len in [512usize, 4096, 65_536] {
        let data: Vec<Vec<u8>> =
            (0..8).map(|u| (0..len).map(|i| (i * 7 + u * 13 + 3) as u8).collect()).collect();
        let units: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut sums = [0u64; 8];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(BenchmarkId::new("single", len), |b| {
            b.iter(|| xxh64::xxh64(black_box(0), black_box(units[0])))
        });
        g.throughput(Throughput::Bytes(8 * len as u64));
        for kernel in Kernel::available() {
            g.bench_function(BenchmarkId::new(format!("batch8/{}", kernel.name()), len), |b| {
                b.iter(|| kernel.xxh64_batch(black_box(0), black_box(&units), &mut sums))
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_ring_designs,
    bench_reduced_designs,
    bench_field_construction,
    bench_gf256_slice_kernels,
    bench_xxh64_batch
}
criterion_main!(benches);
