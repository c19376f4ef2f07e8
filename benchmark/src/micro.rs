//! Timed loops over single public functions of the lower layers: the
//! GF(2^8) kernels, the unit checksum, the address map, and one engine
//! round trip. Each number is the median of five short batches.

use crate::gen::Rng;
use crate::hist::median;
use pdl_algebra::gf256;
use pdl_store::integrity::Integrity;
use pdl_store::{xxh64, Engine, EngineConfig, MemBackend, Priority, StripeMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(8);

/// Median nanoseconds per call of `f` over [`BATCHES`] batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (start, mut calls) = (Instant::now(), 0u64);
        while start.elapsed() < BATCH {
            for _ in 0..64 {
                f();
            }
            calls += 64;
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&mut per_call)
}

fn filled(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// GB/s of `f`, which processes `bytes` bytes per call.
fn gbps(bytes: usize, f: impl FnMut()) -> f64 {
    bytes as f64 / ns_per_call(f)
}

pub fn xor_gbps(len: usize) -> f64 {
    let (mut dst, src) = (filled(len, 1), filled(len, 2));
    gbps(len, || gf256::xor_slice(black_box(&mut dst), black_box(&src)))
}

pub fn mul_add_gbps(len: usize) -> f64 {
    let (mut dst, src) = (filled(len, 3), filled(len, 4));
    gbps(len, || gf256::mul_add_slice(black_box(&mut dst), black_box(&src), black_box(0x8e)))
}

/// Two units recovered per call.
pub fn solve2_gbps(len: usize) -> f64 {
    let (mut sp, mut sq) = (filled(len, 5), filled(len, 6));
    let (gx, gy) = (gf256::gen_pow(1), gf256::gen_pow(3));
    gbps(2 * len, || gf256::solve_two_erasures(black_box(&mut sp), black_box(&mut sq), gx, gy))
}

pub fn xxh64_gbps(len: usize) -> f64 {
    let data = filled(len, 7);
    gbps(len, || {
        black_box(xxh64(black_box(0), black_box(&data)));
    })
}

/// Nanoseconds per `StripeMap::locate_full` over seeded addresses.
pub fn locate_ns(map: &StripeMap, blocks: usize, seed: u64) -> f64 {
    let mut rng = Rng::for_stream(seed, 0x006c_6f63, 0);
    let addrs: Vec<usize> = (0..1 << 12).map(|_| rng.below(blocks)).collect();
    let mut at = 0;
    ns_per_call(|| {
        black_box(map.locate_full(black_box(addrs[at & (addrs.len() - 1)])));
        at += 1;
    })
}

/// Microseconds for `Engine::submit_read_units` + `wait` of one unit on
/// a `MemBackend`: the engine's hand-off cost with no device behind it.
pub fn engine_roundtrip_us() -> Result<f64, String> {
    const UNITS: usize = 64;
    let backend = Arc::new(MemBackend::new(2, UNITS, 4096));
    let engine =
        Engine::start(backend, Arc::new(Integrity::new(2, UNITS)), EngineConfig::default());
    let mut failed = false;
    let mut at = 0;
    let ns = ns_per_call(|| {
        let done = engine
            .submit_read_units(0, at % UNITS, 1, Priority::Client)
            .and_then(|token| token.wait());
        failed |= done.is_err();
        at += 1;
    });
    engine.stop();
    if failed {
        return Err("engine round trip failed".into());
    }
    Ok(ns / 1e3)
}
