//! Latency-overlap tests: on a backend whose every call stalls for a
//! millisecond ([`FaultyBackend`]'s slow schedule at rate 1 — a sleep,
//! so stalled calls overlap even on a single core), independent calls
//! must wait *at the same time*: across client threads, and across the
//! per-disk runs of one batched call once the async engine is on. The
//! ratios asserted are half of what full overlap gives.

use std::time::{Duration, Instant};

use pdl_core::RingLayout;
use pdl_store::{BlockStore, EngineConfig, FaultConfig, FaultyBackend, MemBackend};

const UNIT: usize = 64;

fn stalling_store() -> BlockStore<FaultyBackend<MemBackend>> {
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let mem = MemBackend::new(10, 4 * layout.size(), UNIT);
    let stall = FaultConfig { slow_rate: 1.0, slow_us: 1000, ..FaultConfig::quiet(1) };
    BlockStore::new(layout, FaultyBackend::new(mem, stall)).unwrap()
}

/// Wall time of 100 single-block reads split evenly over `threads`
/// clients, each on its own region of the address space.
fn hundred_reads(store: &BlockStore<FaultyBackend<MemBackend>>, threads: usize) -> Duration {
    let region = store.blocks() / threads;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut buf = vec![0u8; UNIT];
                for i in 0..100 / threads {
                    store.read_block(t * region + i, &mut buf).unwrap();
                }
            });
        }
    });
    start.elapsed()
}

/// Four clients overlap their backend stalls: nothing between
/// `read_block` and the backend serializes independent reads.
#[test]
fn four_clients_overlap_their_backend_stalls() {
    let store = stalling_store();
    let one = hundred_reads(&store, 1);
    let four = hundred_reads(&store, 4);
    assert!(four * 2 <= one, "4 threads took {four:?}, 1 thread {one:?}: stalls did not overlap");
}

/// One caller's batched read overlaps its per-disk runs once the
/// engine is on: inline they stall one after another, through the
/// queues they stall together.
#[test]
fn engine_overlaps_the_runs_of_one_batched_read() {
    let store = stalling_store();
    let mut out = vec![0u8; 8 * UNIT];
    let mut ten_reads = || {
        let start = Instant::now();
        for _ in 0..10 {
            store.read_blocks(0, &mut out).unwrap();
        }
        start.elapsed()
    };
    let inline = ten_reads();
    let touched = store.stats().disks.iter().filter(|d| d.read_calls > 0).count();
    assert!(touched >= 4, "the 8-block read spans {touched} disks");
    store.start_engine(EngineConfig::default());
    let queued = ten_reads();
    store.stop_engine();
    assert!(queued * 2 <= inline, "engine on {queued:?}, off {inline:?}: runs did not overlap");
}
