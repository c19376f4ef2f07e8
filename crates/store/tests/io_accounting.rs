//! IO-accounting regression tests: the per-disk backend counters
//! (units transferred *and* backend calls), read through the store's
//! observability snapshot ([`pdl_store::StatsSnapshot`]), pin down
//! exactly how much physical IO each store path issues — so a
//! regression that silently de-coalesces a batched path, or
//! reintroduces reads on the zero-read full-stripe write, fails here,
//! not in a benchmark.
//!
//! Every budget is asserted on a **snapshot diff**
//! ([`pdl_store::IoTotals::since`]) bracketing exactly the operation
//! under test, so the assertions compose with any setup traffic and
//! exercise the same `stats()` plumbing the CI artifacts rely on.

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    Backend, BlockStore, CachePolicy, EngineConfig, EngineStatsSnapshot, FileBackend, MemBackend,
    RebuildProgress, Rebuilder, StatsSnapshot,
};
use std::collections::BTreeMap;

const UNIT: usize = 128;

/// Every budget below is asserted with the async engine off and on:
/// run formation lives above the store's I/O dispatcher, so both
/// modes must issue exactly the same backend calls.
const ENGINE_MODES: [bool; 2] = [false, true];

fn with_engine(store: BlockStore<MemBackend>, engine: bool) -> BlockStore<MemBackend> {
    if engine {
        store.start_engine(EngineConfig::default());
    }
    store
}

fn ring_store(v: usize, k: usize, copies: usize, engine: bool) -> BlockStore<MemBackend> {
    let layout = RingLayout::for_v_k(v, k).layout().clone();
    let backend = MemBackend::new(v + 1, copies * layout.size(), UNIT);
    with_engine(BlockStore::new(layout, backend).unwrap(), engine)
}

fn pq_store(v: usize, k: usize, copies: usize, engine: bool) -> BlockStore<MemBackend> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(v, k).layout().clone()).unwrap();
    let backend = MemBackend::new(v + 2, copies * dp.layout().size(), UNIT);
    with_engine(BlockStore::new_pq(dp, backend).unwrap(), engine)
}

/// `(read_units, write_units, read_calls, write_calls)` since `t0`.
/// With the engine on, also checks its books over the same bracket
/// (see [`engine_accounts`]): every one of those calls went through
/// the dispatcher.
fn diff<B: Backend>(store: &BlockStore<B>, t0: &StatsSnapshot) -> (u64, u64, u64, u64) {
    let now = store.stats();
    let d = now.io_totals().since(&t0.io_totals());
    engine_accounts(&now, t0, d.read_calls + d.write_calls);
    (d.read_units, d.write_units, d.read_calls, d.write_calls)
}

/// The engine's books between two snapshots: the `dispatched_calls`
/// backend calls the dispatcher made are exactly the engine's
/// submissions plus the runs it routed inline (its disk served faster
/// than the hand-off; on memory, every disk once timed), every
/// completion token has drained, nothing failed, and no maintenance
/// request waited behind client work. Vacuous with the engine off.
fn engine_accounts(now: &StatsSnapshot, before: &StatsSnapshot, dispatched_calls: u64) {
    let (Some(e0), Some(e1)) = (&before.engine, &now.engine) else { return };
    let submitted = |e: &EngineStatsSnapshot| e.client_submitted + e.maintenance_submitted;
    let inline = |e: &EngineStatsSnapshot| e.disks.iter().map(|d| d.inline).sum::<u64>();
    assert_eq!(
        (submitted(e1) - submitted(e0)) + (inline(e1) - inline(e0)),
        dispatched_calls,
        "one backend call per engine submission or inline run"
    );
    assert_eq!(e1.completed, submitted(e1), "every completion token drained");
    assert_eq!((e1.errors, e1.maintenance_deferred), (0, 0), "no error, no deferral");
}

/// Per-logical-disk read calls since the `before` snapshot.
fn disk_read_calls(now: &StatsSnapshot, before: &StatsSnapshot, d: usize) -> u64 {
    now.disks[d].read_calls.saturating_sub(before.disks[d].read_calls)
}

/// Read calls since `before` on every disk but `failed` — a rebuild's
/// whole read side (its logical disk flips to the spare's counters).
fn survivor_read_calls(now: &StatsSnapshot, before: &StatsSnapshot, failed: usize) -> u64 {
    (0..now.disks.len()).filter(|&d| d != failed).map(|d| disk_read_calls(now, before, d)).sum()
}

/// A full-stripe write is exactly `k` unit writes (k−1 data + P) and
/// zero reads — the paper's Condition-5 large-write optimization.
#[test]
fn full_stripe_write_is_k_writes_zero_reads() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 1, engine);
        let k_data = 3; // k - 1 data units per XOR stripe
        let data = vec![0x5au8; k_data * UNIT];
        let t0 = store.stats();
        store.write_blocks(0, &data).unwrap();
        let (r, w, _, _) = diff(&store, &t0);
        assert_eq!(r, 0, "full-stripe write must not read");
        assert_eq!(w, 4, "full-stripe write is exactly k = 4 unit writes");
        store.verify_parity().unwrap();
    }
}

/// Under P+Q a full-stripe write is k−2 data units plus P plus Q —
/// still exactly `k` unit writes and zero reads.
#[test]
fn pq_full_stripe_write_is_k_writes_zero_reads() {
    for engine in ENGINE_MODES {
        let store = pq_store(9, 4, 1, engine);
        let k_data = 2; // k - 2 data units per P+Q stripe
        let data = vec![0xa5u8; k_data * UNIT];
        let t0 = store.stats();
        store.write_blocks(0, &data).unwrap();
        let (r, w, _, _) = diff(&store, &t0);
        assert_eq!(r, 0, "P+Q full-stripe write must not read");
        assert_eq!(w, 4, "P+Q full-stripe write is exactly k = 4 unit writes");
        store.verify_parity().unwrap();
    }
}

/// A sequential multi-stripe read coalesces to **one** vectored
/// backend call per touched disk when the wanted units are contiguous
/// (here: the first six stripes of a ring layout, whose data units
/// occupy offsets 0.. on every disk they touch).
#[test]
fn sequential_stripe_read_is_one_call_per_disk() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 1, engine);
        let k_data = 3;
        let stripes = 6;
        let data: Vec<u8> = (0..stripes * k_data * UNIT).map(|i| (i % 251) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        let before = store.stats();
        let mut out = vec![0u8; data.len()];
        store.read_blocks(0, &mut out).unwrap();
        assert_eq!(out, data, "coalesced read returns the written bytes");
        let now = store.stats();
        let mut touched = 0u64;
        for d in 0..store.v() {
            let calls = disk_read_calls(&now, &before, d);
            assert!(
                calls <= 1,
                "disk {d}: sequential stripe read must coalesce to 1 vectored call, got {calls}"
            );
            touched += calls;
        }
        engine_accounts(&now, &before, touched);
        let r = now.io_totals().since(&before.io_totals()).read_units;
        assert!(r >= (stripes * k_data) as u64, "every requested unit is transferred");
        assert!(touched >= 2, "a multi-stripe read touches several disks");
    }
}

/// A whole-copy sequential read stays within **two** vectored calls
/// per disk: each disk's data units form at most two contiguous
/// fragments around its clustered parity region, and the planner
/// deliberately does not bridge wide parity holes (reading a wide
/// hole costs more bytes than the saved call).
#[test]
fn sequential_copy_read_coalesces_per_disk() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 1, engine);
        let blocks = store.blocks();
        let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 251) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        let before = store.stats();
        let mut out = vec![0u8; blocks * UNIT];
        store.read_blocks(0, &mut out).unwrap();
        assert_eq!(out, data, "coalesced read returns the written bytes");
        let now = store.stats();
        for d in 0..store.v() {
            let calls = disk_read_calls(&now, &before, d);
            assert!(
                calls <= 2,
                "disk {d}: whole-copy scan must coalesce to ≤ 2 vectored reads \
                 (data fragments around the parity cluster), got {calls}"
            );
        }
        let t = now.io_totals().since(&before.io_totals());
        engine_accounts(&now, &before, t.read_calls);
        assert_eq!(
            t.read_units, blocks as u64,
            "exactly the data units are transferred — no bridged waste"
        );
        assert!(
            t.read_calls <= 2 * store.v() as u64,
            "at most two backend calls per touched disk, got {}",
            t.read_calls
        );
    }
}

/// A sequential whole-copy write (all full stripes) coalesces into one
/// vectored backend call per touched disk, covering data and parity.
#[test]
fn sequential_write_is_one_call_per_disk() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 1, engine);
        let blocks = store.blocks();
        let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 241) as u8).collect();
        let t0 = store.stats();
        store.write_blocks(0, &data).unwrap();
        let layout_units = store.v() as u64 * store.layout().size() as u64;
        let (r, w, _, wc) = diff(&store, &t0);
        assert_eq!(r, 0, "whole-copy write is all full stripes: zero reads");
        assert_eq!(w, layout_units, "every unit (data + parity) written once");
        assert!(wc <= store.v() as u64, "at most one backend call per touched disk, got {wc}");
        store.verify_parity().unwrap();
    }
}

/// A small XOR write at k = 4 reads 2 units and writes 2 (target,
/// parity), in 2 + 2 backend calls: the delta route (old target and
/// parity) and the reconstruct route (the two other data units) tie,
/// and the tie goes to delta, which reads only disks it writes.
#[test]
fn small_xor_write_is_2_plus_2() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 2, engine);
        let data: Vec<u8> = (0..store.blocks() * UNIT).map(|i| (i % 239) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        let t0 = store.stats();
        store.write_block(1, &[0x11u8; UNIT]).unwrap();
        let (r, w, rc, wc) = diff(&store, &t0);
        assert_eq!((r, w), (2, 2), "XOR small write is 2 reads + 2 writes");
        assert_eq!((rc, wc), (2, 2), "each a single-unit backend call");
        let now = store.stats();
        for (d, (a, b)) in now.disks.iter().zip(&t0.disks).enumerate() {
            let (r, w) = (a.read_calls - b.read_calls, a.write_calls - b.write_calls);
            assert_eq!(r, w, "disk {d}: the tie goes to delta, reading only written disks");
        }
        store.verify_parity().unwrap();
    }
}

/// A small P+Q write where the delta route is strictly cheaper (k = 7,
/// five data units) reads the target, P and Q and writes all three.
/// At k = 4 the reconstruct route wins instead (1 + 3, see
/// [`partial_stripe_update_reads_the_cheaper_route`]).
#[test]
fn small_pq_write_is_3_plus_3() {
    for engine in ENGINE_MODES {
        let store = pq_store(9, 7, 2, engine);
        let data: Vec<u8> = (0..store.blocks() * UNIT).map(|i| (i % 233) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        let t0 = store.stats();
        store.write_block(1, &[0x22u8; UNIT]).unwrap();
        let (r, w, _, _) = diff(&store, &t0);
        assert_eq!((r, w), (3, 3), "P+Q delta update is 3 reads + 3 writes");
        store.verify_parity().unwrap();
    }
}

/// The partial-stripe budget table. For XOR at k = 4 and 5 and P+Q at
/// k = 4 and 7, every partial run of `m` blocks of one stripe costs
/// exactly `min(m + p, k_data − m)` unit reads — the delta route (old
/// units and the `p` parities) or the reconstruct route (the clean
/// units) — and `m + p` unit writes, at most one backend call per
/// disk each way, every one of them through the dispatcher. A
/// write-through `write_blocks` and a write-back flush of the same
/// dirty set cost the same.
#[test]
fn partial_stripe_update_reads_the_cheaper_route() {
    type Build = fn(bool) -> BlockStore<MemBackend>;
    let shapes: [(&str, Build, u64); 4] = [
        ("xor k=4", |e| ring_store(7, 4, 1, e), 1),
        ("xor k=5", |e| ring_store(7, 5, 1, e), 1),
        ("pq k=4", |e| pq_store(9, 4, 1, e), 2),
        ("pq k=7", |e| pq_store(9, 7, 1, e), 2),
    ];
    for (shape, build, p) in shapes {
        for engine in ENGINE_MODES {
            let k_data = build(false).stripe_map().stripe_data_range(0).1 as u64;
            for m in 1..k_data {
                let want = ((m + p).min(k_data - m), m + p);
                let mut counts = Vec::new();
                for policy in [CachePolicy::WriteThrough, CachePolicy::write_back()] {
                    let ctx = format!("{shape} m={m} engine={engine} {policy:?}");
                    let store = build(engine);
                    let mut image: Vec<u8> =
                        (0..store.blocks() * UNIT).map(|i| (i % 211) as u8).collect();
                    store.write_blocks(0, &image).unwrap();
                    store.set_cache_policy(policy).unwrap();
                    // The run ends at the stripe's end: an unaligned head.
                    let at = (k_data - m) as usize;
                    let new = vec![0xc3u8; m as usize * UNIT];
                    let t0 = store.stats();
                    store.write_blocks(at, &new).unwrap();
                    store.flush().unwrap();
                    let now = store.stats();
                    let d = now.io_totals().since(&t0.io_totals());
                    engine_accounts(&now, &t0, d.read_calls + d.write_calls);
                    assert_eq!((d.read_units, d.write_units), want, "{ctx}: units");
                    for (disk, (a, b)) in now.disks.iter().zip(&t0.disks).enumerate() {
                        let calls = (a.read_calls - b.read_calls, a.write_calls - b.write_calls);
                        assert!(calls.0 <= 1 && calls.1 <= 1, "{ctx}: disk {disk} {calls:?}");
                    }
                    counts.push((d.read_units, d.write_units, d.read_calls, d.write_calls));
                    image[at * UNIT..(at + m as usize) * UNIT].copy_from_slice(&new);
                    let mut out = vec![0u8; image.len()];
                    store.read_blocks(0, &mut out).unwrap();
                    assert!(out == image, "{ctx}: read-back");
                    store.verify_parity().unwrap();
                }
                assert_eq!(counts[0], counts[1], "{shape} m={m}: write-through == flush");
            }
        }
    }
}

/// An unaligned batch — a partial head stripe, a full stripe, a
/// partial tail stripe — costs exactly its three parts written as
/// three calls: the same units read and written on every disk, and no
/// more backend calls. Its head and tail read in one shared round and
/// write with the full stripe in one plan. Head and tail each leave
/// one clean unit, so both take the reconstruct route under XOR and
/// P+Q alike; on stripes 1–3 of both shapes the two clean units sit on
/// different disks, so no disk sees more than one read call.
#[test]
fn unaligned_batch_costs_its_three_parts() {
    type Build = fn(bool) -> BlockStore<MemBackend>;
    let shapes: [(&str, Build); 2] =
        [("xor k=4", |e| ring_store(7, 4, 1, e)), ("pq k=4", |e| pq_store(9, 4, 1, e))];
    for (shape, build) in shapes {
        for engine in ENGINE_MODES {
            let ctx = format!("{shape} engine={engine}");
            let (parts, batch) = (build(engine), build(engine));
            let mut image: Vec<u8> = (0..parts.blocks() * UNIT).map(|i| (i % 211) as u8).collect();
            parts.write_blocks(0, &image).unwrap();
            batch.write_blocks(0, &image).unwrap();
            let smap = batch.stripe_map();
            let (lo, k_data) = smap.stripe_data_range(1);
            assert_eq!(smap.stripe_data_range(3).0, lo + 2 * k_data, "{ctx}: adjacent stripes");
            // All but the first unit of stripe 1, stripe 2, all but the
            // last unit of stripe 3.
            let (start, end) = (lo + 1, lo + 3 * k_data - 1);
            let new: Vec<u8> = (0..(end - start) * UNIT).map(|i| (i % 7) as u8 ^ 0x5a).collect();
            let at = |addr: usize| (addr - start) * UNIT;
            let t0 = parts.stats();
            for (a, b) in
                [(start, lo + k_data), (lo + k_data, lo + 2 * k_data), (lo + 2 * k_data, end)]
            {
                parts.write_blocks(a, &new[at(a)..at(b)]).unwrap();
            }
            let separate = diff(&parts, &t0);
            let (p_now, p_disks) = (parts.stats(), t0.disks);
            let t0 = batch.stats();
            batch.write_blocks(start, &new).unwrap();
            let together = diff(&batch, &t0);
            let b_now = batch.stats();
            assert_eq!((together.0, together.1), (separate.0, separate.1), "{ctx}: units");
            assert!(
                together.2 + together.3 <= separate.2 + separate.3,
                "{ctx}: {together:?} calls, three parts {separate:?}"
            );
            for d in 0..batch.v() {
                let units = |now: &StatsSnapshot, before: &[pdl_store::DiskStatSnapshot]| {
                    let (a, b) = (&now.disks[d], &before[d]);
                    (a.read_units - b.read_units, a.write_units - b.write_units)
                };
                assert_eq!(units(&b_now, &t0.disks), units(&p_now, &p_disks), "{ctx}: disk {d}");
                let reads = disk_read_calls(&b_now, &t0, d);
                assert!(reads <= 1, "{ctx}: disk {d} read {reads} times");
            }
            image[start * UNIT..end * UNIT].copy_from_slice(&new);
            for store in [&parts, &batch] {
                let mut out = vec![0u8; image.len()];
                store.read_blocks(0, &mut out).unwrap();
                assert!(out == image, "{ctx}: read-back");
                store.verify_parity().unwrap();
            }
        }
    }
}

/// K small writes to one stripe under write-back flush as **one**
/// combined parity update: the cached writes themselves do zero
/// backend I/O, and the flush pays one partial-stripe update — here
/// the reconstruct route's `k_data − dirty` reads (the one clean
/// unit, fewer than delta's 2 + 1) plus `dirty + parity` writes, one
/// backend call per touched disk — no matter how many client writes
/// the stripe absorbed. The cache's own counters agree: one
/// insertion, every repeat write absorbed, the whole batch flushed as
/// one stripe.
#[test]
fn write_back_combines_k_writes_into_one_flush() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 2, engine);
        store.set_cache_policy(CachePolicy::WriteBack { max_dirty: 64 }).unwrap();
        let (lo, k_data) = store.stripe_map().stripe_data_range(0);
        assert_eq!(k_data, 3, "k = 4 XOR stripes carry 3 data units");
        let t0 = store.stats();
        // 50 + 30 writes, all into two data units of stripe 0.
        for i in 0..50u8 {
            store.write_block(lo, &[i; UNIT]).unwrap();
        }
        for i in 0..30u8 {
            store.write_block(lo + 1, &[i; UNIT]).unwrap();
        }
        let (r, w, _, _) = diff(&store, &t0);
        assert_eq!((r, w), (0, 0), "cached writes perform no backend I/O");
        assert_eq!(store.dirty_cache_stripes(), 1);
        store.flush().unwrap();
        let (r, w, rc, wc) = diff(&store, &t0);
        assert_eq!(
            (r, w),
            (1, 3),
            "80 writes flush as one recompute: 1 clean-unit read + (2 data + P) writes"
        );
        assert!(rc <= 1 && wc <= 3, "at most one backend call per touched disk, got {rc}/{wc}");
        assert_eq!(store.dirty_cache_stripes(), 0);
        let cache = store.stats().cache;
        assert_eq!(cache.insertions, 1, "one stripe entry created");
        assert_eq!(cache.absorbed_writes, 78, "80 writes − 2 first-touches all absorbed");
        assert_eq!((cache.flushed_stripes, cache.flushed_units), (1, 2));
        assert_eq!(cache.dirty_stripes, 0);
        store.verify_parity().unwrap();
        // The cached values are the ones that landed.
        let mut out = vec![0u8; UNIT];
        store.read_block(lo, &mut out).unwrap();
        assert_eq!(out, [49u8; UNIT]);
        store.read_block(lo + 1, &mut out).unwrap();
        assert_eq!(out, [29u8; UNIT]);
    }
}

/// A stripe whose every data unit goes dirty in the cache flushes on
/// the zero-read full-stripe path: parity recomputed fresh, exactly
/// `k` unit writes, no reads — even though the writes arrived one
/// block at a time.
#[test]
fn write_back_full_stripe_flush_is_zero_read() {
    for engine in ENGINE_MODES {
        let store = pq_store(9, 4, 1, engine);
        store.set_cache_policy(CachePolicy::write_back()).unwrap();
        let (lo, k_data) = store.stripe_map().stripe_data_range(0);
        let t0 = store.stats();
        for round in 0..4u8 {
            for j in 0..k_data {
                store.write_block(lo + j, &[round ^ j as u8; UNIT]).unwrap();
            }
        }
        store.flush().unwrap();
        let (r, w, _, wc) = diff(&store, &t0);
        assert_eq!(r, 0, "fully dirty stripe flushes with zero reads");
        assert_eq!(w, 4, "k - 2 data + P + Q = k = 4 unit writes");
        assert!(wc <= 4, "one call per touched disk");
        store.verify_parity().unwrap();
    }
}

/// A full-cache drain batches *across* stripes: single-block writes
/// covering a whole copy flush with the same per-disk coalescing as
/// a direct `write_blocks` sweep (≤ 2 vectored calls per disk — the
/// data fragments around each disk's parity cluster), not one call
/// per stripe.
#[test]
fn write_back_batch_flush_coalesces_across_stripes() {
    for engine in ENGINE_MODES {
        let store = ring_store(7, 4, 1, engine);
        store.set_cache_policy(CachePolicy::WriteBack { max_dirty: 1024 }).unwrap();
        let blocks = store.blocks();
        let t0 = store.stats();
        for addr in 0..blocks {
            store.write_block(addr, &[(addr % 251) as u8; UNIT]).unwrap();
        }
        let (r, w, _, _) = diff(&store, &t0);
        assert_eq!((r, w), (0, 0), "all writes absorbed by the cache");
        store.flush().unwrap();
        let (r, w, _, wc) = diff(&store, &t0);
        let layout_units = store.v() as u64 * store.layout().size() as u64;
        assert_eq!(r, 0, "whole-copy drain is all full stripes: zero reads");
        assert_eq!(w, layout_units, "every unit (data + parity) written once");
        assert!(
            wc <= 2 * store.v() as u64,
            "batched flush coalesces to ≤ 2 calls per disk, got {wc}"
        );
        store.verify_parity().unwrap();
    }
}

/// Single-block traffic that is read-mostly before the first write
/// arrives: 2048 reads, then 1000 ops at 70/30. Returns the last
/// value written to each written address.
fn read_mostly_trace<B: Backend>(store: &BlockStore<B>) -> BTreeMap<usize, u8> {
    let mut buf = vec![0u8; UNIT];
    let mut written = BTreeMap::new();
    for i in 0..3048usize {
        let addr = (i * 7) % store.blocks();
        if i >= 2048 && i % 10 >= 7 {
            store.write_block(addr, &[i as u8; UNIT]).unwrap();
            written.insert(addr, i as u8);
        } else {
            store.read_block(addr, &mut buf).unwrap();
        }
    }
    written
}

/// Write-back caches every client write, whatever the read/write mix
/// and whatever the backend: under a read-mostly trace neither a
/// memory-speed nor a file array issues one backend write before the
/// flush, and the flush lands every last value with parity intact.
#[test]
fn write_back_defers_every_write_whatever_the_mix() {
    fn leg<B: Backend>(store: &BlockStore<B>, name: &str) {
        store.set_cache_policy(CachePolicy::write_back()).unwrap();
        let t0 = store.stats().io_totals();
        let written = read_mostly_trace(store);
        assert!(!written.is_empty());
        let calls = store.stats().io_totals().since(&t0).write_calls;
        assert_eq!(calls, 0, "{name}: no backend write before the flush");
        assert!(store.dirty_cache_stripes() > 0, "{name}: the writes sit in the cache");
        store.flush().unwrap();
        let mut buf = vec![0u8; UNIT];
        for (&addr, &val) in &written {
            store.read_block(addr, &mut buf).unwrap();
            assert_eq!(buf, [val; UNIT], "{name}: block {addr} reads its last value");
        }
        store.verify_parity().unwrap();
    }
    // Caching does not look at the engine, so one mode.
    leg(&ring_store(7, 4, 2, false), "memory");

    let dir = std::env::temp_dir().join(format!("pdl-io-write-back-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(7, 4).layout().clone();
    let backend = FileBackend::create(&dir, 8, 2 * layout.size(), UNIT).unwrap();
    leg(&BlockStore::new(layout, backend).unwrap(), "file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A degraded batched read decodes each lost stripe **once**: with two
/// failed disks (P+Q), a stripe holding two requested lost blocks
/// reads its survivors one time, not once per lost block.
#[test]
fn degraded_batch_read_decodes_each_stripe_once() {
    for engine in ENGINE_MODES {
        let store = pq_store(9, 4, 1, engine);
        let blocks = store.blocks();
        let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 229) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        store.fail_disk(0).unwrap();
        store.fail_disk(1).unwrap();
        let t0 = store.stats();
        let mut out = vec![0u8; blocks * UNIT];
        store.read_blocks(0, &mut out).unwrap();
        assert_eq!(out, data, "doubly-degraded batched read returns the written bytes");

        // Exact read budget: every degraded stripe — one with a
        // requested lost data block — is decoded once, reading each of
        // its surviving units (k minus its members on disks 0 and 1);
        // every healthy requested block is read once, in the coalesced
        // runs (memory backends bridge no holes).
        let (layout, map) = (store.layout(), store.stripe_map());
        let lost = |d: u32| d == 0 || d == 1;
        let mut expected = 0u64;
        let mut last_decoded = None;
        for addr in 0..blocks {
            let m = map.locate_full(addr);
            if !lost(m.unit.disk) {
                expected += 1;
            } else if last_decoded.replace(m.stripe) != Some(m.stripe) {
                let units = layout.stripes()[m.stripe].units();
                expected += units.iter().filter(|u| !lost(u.disk)).count() as u64;
            }
        }
        let (r, _, _, _) = diff(&store, &t0);
        assert_eq!(
            r, expected,
            "engine {engine}: survivors once per degraded stripe + healthy blocks"
        );
    }
}

/// Rebuild batching changes how reads are *issued*, never which units
/// are read: per-disk unit counts stay exactly uniform while the call
/// counts collapse by the chunking factor.
#[test]
fn rebuild_batches_reads_without_changing_unit_counts() {
    for engine in ENGINE_MODES {
        let store = ring_store(9, 4, 4, engine);
        let blocks = store.blocks();
        let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 227) as u8).collect();
        store.write_blocks(0, &data).unwrap();
        store.fail_disk(2).unwrap();
        let before = store.stats();
        let spare_writes = store.backend().write_calls(9);
        let report = Rebuilder::new(2).chunk_size(16).rebuild(&store, 9).unwrap();
        let expected = 3.0 / 8.0; // (k-1)/(v-1) for v=9, k=4
        assert!(
            (report.mean_read_fraction() - expected).abs() < 1e-9,
            "uniform decode reads (k-1)/(v-1) = {expected} of each survivor, got {}",
            report.mean_read_fraction()
        );
        assert_eq!(report.read_imbalance(), 0.0, "per-disk unit counts perfectly balanced");
        let now = store.stats();
        // Survivor reads and the spare's writes go through the
        // dispatcher (the maintenance lane, or inline once a disk is
        // timed fast).
        let spare_writes = store.backend().write_calls(9) - spare_writes;
        engine_accounts(&now, &before, survivor_read_calls(&now, &before, 2) + spare_writes);
        let units_per_disk = store.backend().units_per_disk() as u64;
        for d in 0..store.v() {
            if d == 2 {
                continue;
            }
            let units = now.disks[d].read_units.saturating_sub(before.disks[d].read_units);
            let calls = disk_read_calls(&now, &before, d);
            assert!(
                calls < units.max(1) || units <= 1,
                "disk {d}: {units} units in {calls} calls — rebuild reads must coalesce"
            );
            assert!(units <= units_per_disk, "never reads a survivor more than fully");
        }
        // Bit-identical recovery, the point of it all.
        let mut out = vec![0u8; blocks * UNIT];
        store.read_blocks(0, &mut out).unwrap();
        assert_eq!(out, data, "rebuilt store returns the original bytes");
    }
}

/// The rebuild's exact calls on the geometry the rebuild benchmark
/// runs (ring v = 9, k = 4, 64 copies, 4 KiB units, one worker), engine
/// off and on: 64-unit chunks read (k−1)/(v−1) = 768 units of every
/// survivor in a fixed number of coalesced calls per disk, and land on
/// the spare in one write call per chunk. Whether a chunk's spare write
/// overlaps the next chunk's reads moves time, never I/O. The contents
/// do not change the calls, so the array is left unwritten.
#[test]
fn rebuild_calls_are_exact_on_the_benchmark_geometry() {
    const UNIT: usize = 4096;
    for engine in ENGINE_MODES {
        let layout = RingLayout::for_v_k(9, 4).layout().clone();
        let backend = MemBackend::new(10, 64 * layout.size(), UNIT);
        let store = with_engine(BlockStore::new(layout, backend).unwrap(), engine);
        store.fail_disk(0).unwrap();
        let b = store.backend();
        let reads = |d: usize| (b.read_count(d), b.read_calls(d));
        let before: Vec<_> = (1..10).map(reads).collect();
        let spare_writes = b.write_calls(9);
        Rebuilder::new(1).rebuild(&store, 9).unwrap();
        let after: Vec<_> = (1..10).map(reads).collect();
        let units: Vec<u64> = (0..8).map(|i| after[i].0 - before[i].0).collect();
        let calls: Vec<u64> = (0..8).map(|i| after[i].1 - before[i].1).collect();
        assert_eq!(units, [768; 8], "engine {engine}: (k-1)/(v-1) of every survivor");
        assert_eq!(calls, [288, 384, 288, 352, 448, 320, 320, 544], "engine {engine}");
        assert_eq!(after[8], before[8], "engine {engine}: the spare is never read");
        assert_eq!(b.write_calls(9) - spare_writes, 32, "engine {engine}: one write per chunk");
    }
}

/// The declustering claim, observed **live**: while a rebuild is
/// running, [`BlockStore::rebuild_progress`] snapshots the per-disk
/// read distribution, and every mid-flight sample's mean read
/// fraction already sits at (k−1)/(v−1) — the paper's promise is a
/// property of the steady state, not just of the final report.
#[test]
fn racing_rebuild_live_read_distribution_matches_declustering() {
    for engine in ENGINE_MODES {
        // On a starved single-core host the poller can miss the whole
        // rebuild between two yields; a fresh store retries the race.
        let mut store = ring_store(9, 4, 256, engine);
        let mut samples: Vec<RebuildProgress> = Vec::new();
        for attempt in 0.. {
            let blocks = store.blocks();
            let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 223) as u8).collect();
            store.write_blocks(0, &data).unwrap();
            store.fail_disk(2).unwrap();
            assert!(store.rebuild_progress().is_none(), "no progress before a rebuild registers");
            let before = store.stats();
            let spare_writes = store.backend().write_calls(9);

            // Single worker + tiny chunks stretch the rebuild so the
            // polling loop below lands samples strictly mid-flight.
            samples.clear();
            std::thread::scope(|s| {
                let h = s.spawn(|| Rebuilder::new(1).chunk_size(4).rebuild(&store, 9));
                while !h.is_finished() {
                    if let Some(p) = store.rebuild_progress() {
                        samples.push(p);
                    }
                    std::thread::yield_now();
                }
                h.join().expect("rebuild thread").unwrap();
            });
            assert!(
                store.rebuild_progress().is_none(),
                "progress clears once the rebuild completes"
            );
            let now = store.stats();
            let spare_writes = store.backend().write_calls(9) - spare_writes;
            engine_accounts(&now, &before, survivor_read_calls(&now, &before, 2) + spare_writes);
            let captured =
                samples.iter().any(|p| p.units_done >= 64 && p.units_done < p.units_total);
            if captured {
                break;
            }
            assert!(attempt < 10, "no mid-flight snapshot captured in {attempt} races");
            store = ring_store(9, 4, 256, engine);
        }

        let mid: Vec<&RebuildProgress> =
            samples.iter().filter(|p| p.units_done >= 64 && p.units_done < p.units_total).collect();
        let expected = 3.0 / 8.0; // (k-1)/(v-1) for v=9, k=4
        for p in &mid {
            assert_eq!((p.failed_disk, p.spare_disk), (2, 9));
            assert_eq!(p.per_disk_reads.len(), 9, "one read counter per logical disk");
            assert_eq!(p.per_disk_reads[2], 0, "the failed disk is never read");
            // In-flight chunks may have prefetched reads whose units are
            // not yet counted done, so allow a band around the claim.
            assert!(
                (expected - 0.075..=expected + 0.075).contains(&p.mean_read_fraction),
                "live mean read fraction {} strays from (k-1)/(v-1) = {expected} \
                 at {}/{} units",
                p.mean_read_fraction,
                p.units_done,
                p.units_total
            );
        }
        // The last mid-flight sample has decoded enough stripes that the
        // per-survivor read counts themselves are near-uniform.
        let last = mid.last().unwrap();
        let survivors: Vec<u64> =
            (0..9).filter(|&d| d != 2).map(|d| last.per_disk_reads[d]).collect();
        let (min, max) = (survivors.iter().min().unwrap(), survivors.iter().max().unwrap());
        assert!(
            max - min <= 3 * 4 * 2,
            "per-survivor reads stay within two chunks of each other, got {survivors:?}"
        );
        store.verify_parity().unwrap();
    }
}
