//! Latency-overlap tests: on a backend whose every call stalls for a
//! millisecond ([`FaultyBackend`]'s slow schedule at rate 1 — a sleep,
//! so stalled calls overlap even on a single core), independent calls
//! must wait *at the same time*: across client threads, and across the
//! per-disk runs of one batched call once the async engine is on, and
//! across the accesses of one small write's read round and of its
//! write round. The bounds asserted are well short of what full
//! overlap gives. A rebuild's overlap of a chunk's spare write with
//! the next chunk's reads is checked causally instead: the write is
//! held until such a read begins.

mod support;

use std::time::{Duration, Instant};

use pdl_core::RingLayout;
use pdl_store::{BlockStore, EngineConfig, EngineStatsSnapshot, MemBackend, Rebuilder};
use support::faulty::{FaultConfig, FaultyBackend};

const UNIT: usize = 64;
/// How long every backend call of [`stalling_store`] sleeps.
const STALL: Duration = Duration::from_millis(1);

fn stalling_store() -> BlockStore<FaultyBackend<MemBackend>> {
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let mem = MemBackend::new(10, 4 * layout.size(), UNIT);
    let stall =
        FaultConfig { slow_rate: 1.0, slow_us: STALL.as_micros() as u64, ..FaultConfig::quiet(1) };
    BlockStore::new(layout, FaultyBackend::new(mem, stall)).unwrap()
}

/// The engine's routing at stop: per disk, its service-time estimate
/// and the calls it served inline — what a failed overlap bound needs
/// to tell a disk routed inline from one that queued and still did not
/// overlap.
fn routing(snap: Option<EngineStatsSnapshot>) -> String {
    let Some(s) = snap else { return "no engine snapshot".into() };
    let disks: Vec<String> = (s.disks.iter())
        .map(|d| format!("{}: ewma {} us inline {}", d.disk, d.ewma_service_us, d.inline))
        .collect();
    format!("disks [{}]", disks.join(", "))
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
    let routed = routing(store.stop_engine());
    assert!(
        queued * 2 <= inline,
        "engine on {queued:?}, off {inline:?}: runs did not overlap ({routed})"
    );
}

/// A small write reads the old unit and the old parity, then writes
/// both: four accesses on four disks. With the engine on they go out
/// as two rounds — the reads together, then the writes together — so
/// ten small writes take at most ¾ of their time with the engine off,
/// where the four stall one after another (ideal: ½).
#[test]
fn engine_overlaps_each_round_of_a_small_write() {
    let store = stalling_store();
    let block = vec![5u8; UNIT];
    let ten_writes = || {
        let start = Instant::now();
        for i in 0..10 {
            store.write_block(7 * i, &block).unwrap();
        }
        start.elapsed()
    };
    let inline = ten_writes();
    store.start_engine(EngineConfig::default());
    let queued = ten_writes();
    let routed = routing(store.stop_engine());
    assert!(
        queued * 4 <= inline * 3,
        "engine on {queued:?}, off {inline:?}: rounds did not overlap ({routed})"
    );
}

/// An unaligned batch — a partial head stripe, a full stripe, a
/// partial tail stripe — reads for its head and tail in one round and
/// writes all three stripes in one more. With the engine on it lands
/// within four stalls; updating the head and the tail call by call
/// took about nine.
#[test]
fn engine_lands_an_unaligned_batch_in_two_rounds() {
    let store = stalling_store();
    let smap = store.stripe_map();
    let (lo, k_data) = smap.stripe_data_range(0);
    assert_eq!(smap.stripe_data_range(1).0, lo + k_data, "stripes 0..3 are address-adjacent");
    // The last two units of stripe 0, stripe 1, the first two of stripe 2.
    let (start, end) = (lo + 1, lo + 3 * k_data - 1);
    let data = vec![9u8; (end - start) * UNIT];
    store.start_engine(EngineConfig::default());
    let start_at = Instant::now();
    for _ in 0..10 {
        store.write_blocks(start, &data).unwrap();
    }
    let took = start_at.elapsed();
    store.stop_engine();
    assert!(took <= 10 * 4 * STALL, "ten unaligned batches took {took:?}: over four stalls each");
}

/// A rebuild worker reads its next chunk while a chunk's spare write
/// lands: the first spare write is held until a read is in progress,
/// and only the second chunk's prefetch can be reading then (the first
/// chunk's reads all landed before its write went out).
/// Every call stalls 5 ms, so the reads queue and a read the worker
/// started before the held write began is still in progress when it
/// does. A worker that waited for the write first would leave it held
/// until the 5 s timeout: the check is causal, the timeout only ends a
/// failing run.
#[test]
fn rebuild_reads_the_next_chunk_while_the_spare_write_lands() {
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let mem = MemBackend::new(10, 2 * layout.size(), UNIT);
    let stall = FaultConfig { slow_rate: 1.0, slow_us: 5_000, ..FaultConfig::quiet(1) };
    let store = BlockStore::new(layout, FaultyBackend::new(mem, stall)).unwrap();
    let data: Vec<u8> = (0..store.blocks() * UNIT).map(|i| (i % 239) as u8).collect();
    store.backend().set_armed(false);
    store.write_blocks(0, &data).unwrap();
    store.fail_disk(2).unwrap();
    store.start_engine(EngineConfig::default());
    store.backend().set_armed(true);
    store.backend().hold_next_write(9, Duration::from_secs(5));
    Rebuilder::new(1).chunk_size(16).rebuild(&store, 9).unwrap();
    assert_eq!(
        store.backend().held_write_met_a_read(),
        Some(true),
        "the first spare write was held until its timeout: nothing read past it"
    );
    store.backend().set_armed(false);
    store.stop_engine();
    let mut back = vec![0u8; data.len()];
    store.read_blocks(0, &mut back).unwrap();
    assert!(back == data, "the rebuilt store returns the original bytes");
    store.verify_parity().unwrap();
}
