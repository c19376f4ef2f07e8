//! End-to-end integrity proof: seeded latent corruption, transient
//! faults, and concurrent disk failure injected through
//! [`FaultyBackend`]; a scrub pass must find and repair **every**
//! injected error, the whole array must sweep bit-exact afterwards,
//! and the parity invariants must hold. Also proven here: a stopped
//! (crashed) scrub resumes at its persisted cursor across a real
//! close/reopen, repair load spreads evenly over the surviving disks
//! (the declustering property: each repair touches `k-1` of the
//! `v-1` survivors), torn multi-unit writes self-heal to a
//! parity-consistent old-or-new state, and the health monitor
//! auto-fails a decaying disk so a rebuild can restore redundancy.

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    open_file_store, Backend, BlockStore, CachePolicy, EngineConfig, Event, EventSink, MemBackend,
    Rebuilder, RetryPolicy, StoreError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use support::faulty::{FaultConfig, FaultyBackend};
use support::fill_pattern;

const UNIT: usize = 64;
const COPIES: usize = 2;
const SEED: u64 = 0xdecafbad;

fn xor_store(cfg: FaultConfig) -> BlockStore<FaultyBackend<MemBackend>> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let mem = MemBackend::new(7 + 2, COPIES * layout.size(), UNIT);
    BlockStore::new(layout, FaultyBackend::new(mem, cfg)).unwrap()
}

fn pq_store(cfg: FaultConfig) -> BlockStore<FaultyBackend<MemBackend>> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let mem = MemBackend::new(9 + 2, COPIES * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp, FaultyBackend::new(mem, cfg)).unwrap()
}

/// Writes the deterministic pattern to every block (shadow image is
/// recomputable from `fill_pattern`).
fn fill<B: Backend>(store: &BlockStore<B>, salt: u64) {
    let mut buf = vec![0u8; UNIT];
    for addr in 0..store.blocks() {
        fill_pattern(addr, salt, &mut buf);
        store.write_block(addr, &buf).unwrap();
    }
}

/// Asserts every block reads back bit-exact against the pattern.
fn sweep<B: Backend>(store: &BlockStore<B>, salt: u64, ctx: &str) {
    let mut got = vec![0u8; UNIT];
    let mut want = vec![0u8; UNIT];
    for addr in 0..store.blocks() {
        store.read_block(addr, &mut got).unwrap_or_else(|e| panic!("[{ctx}] block {addr}: {e}"));
        fill_pattern(addr, salt, &mut want);
        assert_eq!(got, want, "[{ctx}] block {addr} not bit-exact");
    }
}

/// Counts `ChecksumRepair` events so tests can assert every injected
/// corruption produced a repair.
#[derive(Default)]
struct RepairCounter {
    checksum: AtomicU64,
    auto_failed: AtomicU64,
}

impl EventSink for RepairCounter {
    fn record(&self, ev: &Event) {
        match ev {
            Event::ChecksumRepair { .. } => {
                self.checksum.fetch_add(1, Ordering::Relaxed);
            }
            Event::DiskAutoFailed { .. } => {
                self.auto_failed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// The flagship XOR proof: transient faults stay armed the whole
/// time, a batch of latent corruptions lands on one disk (one per
/// stripe — XOR repairs single erasures), and a single scrub pass
/// must repair every one of them, leave the array bit-exact, and
/// leave parity consistent.
#[test]
fn scrub_repairs_every_injected_latent_error_xor() {
    let cfg = FaultConfig { transient_rate: 0.002, ..FaultConfig::quiet(SEED) };
    let store = xor_store(cfg);
    let sink = Arc::new(RepairCounter::default());
    store.set_event_sink(Some(sink.clone()));
    fill(&store, SEED);

    // Latent errors: corrupt every 3rd unit of one mapped disk behind
    // the store's back (silent — the write reported success).
    let pd = store.physical_disk(2);
    let units = store.backend().units_per_disk();
    for off in (0..units).step_by(3) {
        store.backend().corrupt_unit(pd, off).unwrap();
    }
    let injected = store.backend().corruptions().len() as u64;
    assert!(injected > 10, "seed must inject a meaningful batch, got {injected}");

    let report = store.scrub().unwrap();
    assert!(report.completed);
    assert_eq!(
        report.checksum_repairs, injected,
        "[seed {SEED:#x}] scrub must repair exactly the injected corruptions"
    );
    assert_eq!(sink.checksum.load(Ordering::Relaxed), injected, "one repair event per corruption");
    assert!(
        store.backend().injected_transients() > 0,
        "[seed {SEED:#x}] the transient schedule must actually have fired"
    );
    sweep(&store, SEED, "xor post-scrub");
    store.verify_parity().unwrap();
    // A second pass finds a clean array.
    let again = store.scrub().unwrap();
    assert_eq!((again.checksum_repairs, again.parity_repairs), (0, 0));
    assert_eq!(store.stats().integrity.scrub_passes, 2);
}

/// The combined P+Q proof: latent corruption on one disk **and** a
/// concurrent whole-disk failure on another. Every repair decode now
/// needs both erasures filled (the failed disk plus the corrupt
/// unit), which only double parity can do — and the scrub must still
/// repair every injected error while the array is degraded.
#[test]
fn scrub_repairs_latent_errors_while_degraded_pq() {
    let cfg = FaultConfig { transient_rate: 0.002, ..FaultConfig::quiet(SEED ^ 0xff) };
    let store = pq_store(cfg);
    fill(&store, SEED);

    let pd = store.physical_disk(1);
    let units = store.backend().units_per_disk();
    for off in (0..units).step_by(4) {
        store.backend().corrupt_unit(pd, off).unwrap();
    }
    let injected = store.backend().corruptions().len() as u64;
    // The concurrent failure: a different disk dies outright (medium
    // wiped so nothing can silently read through to stale bytes).
    store.backend().wipe_disk(store.physical_disk(5)).unwrap();
    store.fail_disk(5).unwrap();

    let report = store.scrub().unwrap();
    assert!(report.completed);
    assert_eq!(
        report.checksum_repairs, injected,
        "degraded scrub must still repair every injected corruption"
    );
    sweep(&store, SEED, "pq degraded post-scrub");

    // Rebuild restores redundancy; the healthy array verifies.
    Rebuilder::default().rebuild(&store, 9).unwrap();
    sweep(&store, SEED, "pq post-rebuild");
    store.verify_parity().unwrap();
}

/// Repair load balance: scrubbing an array whose latent errors all
/// sit on one disk spreads the decode traffic over the survivors —
/// each stripe repair reads its `k-1` surviving units, and parity
/// declustering spreads those across the `v-1` surviving disks. The
/// per-disk read deltas of the scan must come out near-uniform.
#[test]
fn scrub_repair_reads_are_declustered() {
    let store = xor_store(FaultConfig::quiet(SEED));
    fill(&store, SEED);
    let pd = store.physical_disk(0);
    let units = store.backend().units_per_disk();
    for off in 0..units {
        store.backend().corrupt_unit(pd, off).unwrap();
    }
    let before: Vec<u64> =
        (0..store.v()).map(|d| store.backend().read_count(store.physical_disk(d))).collect();
    let report = store.scrub().unwrap();
    assert_eq!(report.checksum_repairs, units as u64, "whole disk repaired");
    let deltas: Vec<u64> = (0..store.v())
        .map(|d| store.backend().read_count(store.physical_disk(d)) - before[d])
        .collect();
    // Every live unit is read exactly once by the scan (the decodes
    // reuse those reads), so the load is uniform across disks — the
    // balanced-repair claim the declustered layout exists to make.
    let (min, max) = (deltas.iter().min().unwrap(), deltas.iter().max().unwrap());
    assert!(
        *max <= min + min / 4 + 2,
        "scrub read load skewed across disks: {deltas:?} (min {min}, max {max})"
    );
    sweep(&store, SEED, "balance post-scrub");
    store.verify_parity().unwrap();
}

/// Crash-resume proof on a real file store: a background scrub is
/// stopped mid-pass (the stop checkpoints its cursor into
/// `store.json`), the store is closed and reopened, and the next pass
/// must resume from the persisted cursor — not restart — and still
/// repair every remaining corruption.
#[test]
fn crashed_scrub_resumes_at_persisted_cursor() {
    let dir = std::env::temp_dir().join(format!("pdl-scrub-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    // Enough copies that a pass far outlasts the stop: the loop's
    // first step is 64 stripes, and a stop lands a few steps later.
    let copies = 8192usize.div_ceil(layout.stripes().len());
    let total = (copies * layout.stripes().len()) as u64;
    let stopped_at = {
        let store = pdl_store::create_file_store(&dir, layout, UNIT, copies, 1).unwrap();
        fill(&store, SEED);
        store.flush().unwrap();
        // Latent errors through the backend (no checksum updates).
        let pd = store.physical_disk(3);
        let mut buf = vec![0u8; UNIT];
        for off in (0..store.backend().units_per_disk()).step_by(2) {
            store.backend().read_unit(pd, off, &mut buf).unwrap();
            buf[off % UNIT] ^= 0xA5;
            store.backend().write_unit(pd, off, &buf).unwrap();
        }

        // Scrub in the background and "crash" (stop) partway through
        // the pass; the stop checkpoints the cursor.
        let store = Arc::new(store);
        let handle = store.start_scrub().unwrap();
        while store.stats().integrity.scrub_cursor < 8 {
            std::thread::yield_now();
        }
        handle.stop();
        let partial = handle.join().unwrap();
        assert!(!partial.completed, "the pass must have been interrupted");
        assert!(partial.stripes > 0, "the pass must have made progress");
        store.stats().integrity.scrub_cursor
    };

    // Reopen: the cursor the stop persisted comes back…
    let store = open_file_store(&dir).unwrap();
    let resumed_at = store.stats().integrity.scrub_cursor;
    assert!(resumed_at >= 8, "persisted cursor survives reopen, got {resumed_at}");
    assert_eq!(resumed_at, stopped_at, "the stop checkpointed the live cursor");
    // …and the next pass resumes there instead of restarting.
    let report = store.scrub().unwrap();
    assert_eq!(report.resumed_from, resumed_at);
    assert!(report.completed);
    assert_eq!(report.passes, 1);
    assert_eq!(report.stripes, total - resumed_at, "only the unscanned tail is walked");
    // One more full pass from zero proves the whole array is clean.
    let clean = store.scrub().unwrap();
    assert_eq!((clean.checksum_repairs, clean.parity_repairs), (0, 0));
    sweep(&store, SEED, "post-resume");
    store.verify_parity().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Torn-write crash window: a multi-unit write that lands only a
/// prefix (then fails non-transiently) must leave the array
/// *repairable* — after a scrub pass, parity is consistent and every
/// block reads as either its old or its new contents, never garbage.
#[test]
fn torn_writes_self_heal_to_old_or_new() {
    let store = xor_store(FaultConfig::quiet(SEED));
    fill(&store, SEED);
    store.backend().set_armed(true);

    // A spanning write torn by force: every data-path call fails
    // transiently zero times, but we arm the torn fault by writing
    // through a config with torn_rate = 1 — instead, use fail_next to
    // guarantee the *first* backend call of the span errors after the
    // earlier calls landed. Write the span one block at a time with a
    // forced failure in the middle: block i+1's write dies, blocks
    // before it committed, blocks after it were never attempted.
    let salt_new = SEED ^ 0x1111;
    let span_at = 10usize;
    let span_len = 6usize;
    let mut new_block = vec![0u8; UNIT];
    let mut wrote: Vec<bool> = Vec::new();
    for (i, addr) in (span_at..span_at + span_len).enumerate() {
        if i == 3 {
            // Three failed calls exhaust the retry budget (3 retries),
            // so this write genuinely fails through the retry layer.
            store.backend().fail_next(4);
        }
        fill_pattern(addr, salt_new, &mut new_block);
        let res = store.write_block(addr, &new_block);
        wrote.push(res.is_ok());
    }
    assert!(wrote.contains(&false), "the forced fault must fail at least one write");
    assert!(store.backend().injected_transients() >= 4);

    // Scrub re-establishes parity consistency over whatever landed.
    store.scrub().unwrap();
    store.verify_parity().unwrap();
    let mut got = vec![0u8; UNIT];
    let mut old = vec![0u8; UNIT];
    let mut new = vec![0u8; UNIT];
    for (i, addr) in (span_at..span_at + span_len).enumerate() {
        store.read_block(addr, &mut got).unwrap();
        fill_pattern(addr, SEED, &mut old);
        fill_pattern(addr, salt_new, &mut new);
        if wrote[i] {
            assert_eq!(got, new, "acknowledged write must read back new");
        } else {
            assert!(got == old || got == new, "failed write must read old-or-new, block {addr}");
        }
    }
}

/// Health auto-fail: a disk that keeps producing checksum repairs
/// crosses the configured threshold, is automatically failed (event +
/// stats), and a rebuild onto a spare restores full redundancy.
#[test]
fn health_monitor_auto_fails_decaying_disk_and_rebuild_recovers() {
    let store = xor_store(FaultConfig::quiet(SEED));
    let sink = Arc::new(RepairCounter::default());
    store.set_event_sink(Some(sink.clone()));
    store.set_health_threshold(8);
    fill(&store, SEED);

    // A decaying medium: every unit of logical disk 4 rots.
    let pd = store.physical_disk(4);
    for off in 0..store.backend().units_per_disk() {
        store.backend().corrupt_unit(pd, off).unwrap();
    }

    // Client reads hit the rot, read-repair it, and the per-repair
    // health score climbs past the threshold — at which point the
    // store takes the disk out of service on its own.
    sweep(&store, SEED, "reads during decay");
    assert_eq!(sink.auto_failed.load(Ordering::Relaxed), 1, "exactly one auto-fail event");
    let health = store.stats().integrity.disk_health;
    let h = health.iter().find(|h| h.disk == pd).expect("decaying disk tracked");
    assert!(h.auto_failed, "stats mark the disk auto-failed");
    assert!(h.repairs >= 8, "repair score crossed the threshold, got {}", h.repairs);
    assert!(matches!(store.fail_disk(4), Err(StoreError::AlreadyFailed(4))));

    // The array serves degraded reads bit-exact, and a rebuild onto
    // the spare restores redundancy.
    sweep(&store, SEED, "degraded after auto-fail");
    Rebuilder::default().rebuild(&store, 7).unwrap();
    sweep(&store, SEED, "post-rebuild");
    store.verify_parity().unwrap();
    // The replacement spare now serves reads with recorded checksums:
    // a clean scrub confirms end-to-end integrity survived the cycle.
    let report = store.scrub().unwrap();
    assert_eq!(report.checksum_repairs, 0, "rebuilt data carries fresh checksums");
    store.verify_parity().unwrap();
}

/// Auto-fail lands after a *failed* call too: a multi-block read whose
/// hard error crosses the health threshold returns `Err`, and the
/// disk is already out of service when it does — so the very next
/// call is served degraded instead of erroring again.
#[test]
fn failed_batch_call_still_applies_auto_fail() {
    let store = xor_store(FaultConfig::quiet(SEED));
    fill(&store, SEED);
    store.set_retry_policy(RetryPolicy { max_retries: 0, backoff_us: 0 });
    store.set_health_threshold(1);
    // The batch's runs go out in physical-disk order: the injected
    // error hits the lower of the two disks the blocks live on.
    let hit = (0..2).map(|addr| store.stripe_map().locate(addr).disk as usize).min().unwrap();
    let mut got = vec![0u8; 2 * UNIT];
    store.backend().fail_next(1);
    assert!(store.read_blocks(0, &mut got).is_err(), "no retries: the transient is a hard error");
    assert_eq!(store.failed_disks().as_slice(), [hit], "auto-fail applied on the failing exit");
    store.read_blocks(0, &mut got).expect("the same read is served degraded");
    let mut want = vec![0u8; UNIT];
    for (addr, chunk) in got.chunks_exact(UNIT).enumerate() {
        fill_pattern(addr, SEED, &mut want);
        assert_eq!(chunk, &want[..], "block {addr} decodes bit-exact");
    }
}

/// One unaligned `write_blocks` — a partial head stripe, a full
/// stripe, a partial tail stripe — over a corrupt old unit in its head
/// and another in its tail: the clean unit each partial stripe's
/// reconstruct route folds into its new parity. The batch's shared
/// read round catches both, the two stripes are repaired from parity
/// and the round is read again, so the call succeeds, reads back as
/// written and leaves parity intact — engine off and on.
#[test]
fn unaligned_batch_repairs_a_corrupt_head_and_tail() {
    type Build = fn(FaultConfig) -> BlockStore<FaultyBackend<MemBackend>>;
    for (shape, build) in [("xor", xor_store as Build), ("pq", pq_store)] {
        for engine in [false, true] {
            let ctx = format!("{shape} engine={engine}");
            let store = build(FaultConfig::quiet(SEED));
            fill(&store, SEED);
            if engine {
                store.start_engine(EngineConfig::default());
            }
            let smap = store.stripe_map();
            let (lo, k_data) = smap.stripe_data_range(1);
            assert_eq!(k_data, 2, "{ctx}: two data units per stripe");
            // Unit 1 of stripe 1, stripe 2, unit 0 of stripe 3: the
            // clean units are `lo` and `end`.
            let (start, end) = (lo + 1, lo + 3 * k_data - 1);
            for addr in [lo, end] {
                let u = smap.locate(addr);
                store.backend().corrupt_unit(u.disk as usize, u.offset as usize).unwrap();
            }
            let repairs = store.stats().integrity.checksum_repairs;
            let new: Vec<u8> = (0..(end - start) * UNIT).map(|i| (i % 251) as u8).collect();
            store.write_blocks(start, &new).unwrap_or_else(|e| panic!("[{ctx}] {e}"));
            assert_eq!(store.stats().integrity.checksum_repairs - repairs, 2, "[{ctx}] repairs");
            let mut got = vec![0u8; (end + 1 - lo) * UNIT];
            store.read_blocks(lo, &mut got).unwrap();
            let mut want = vec![0u8; got.len()];
            fill_pattern(lo, SEED, &mut want[..UNIT]);
            want[UNIT..(end - lo) * UNIT].copy_from_slice(&new);
            fill_pattern(end, SEED, &mut want[(end - lo) * UNIT..]);
            assert!(got == want, "[{ctx}] read-back");
            store.verify_parity().unwrap_or_else(|e| panic!("[{ctx}] {e}"));
        }
    }
}

/// Write-back retry convergence. With transient retries off, flushes
/// fail part-way through stripe updates and re-queue their stripes,
/// and `flush()` is retried until it succeeds. XOR at k = 5 makes the
/// delta route the cheaper one for a single dirty unit, so first
/// attempts run it; a retry by delta over a half-applied attempt would
/// fold a landed unit's zero delta into a stale parity for good. The
/// re-queued entries must reconstruct instead: once the faults are
/// disarmed, parity verifies and every block reads back as written.
#[test]
fn requeued_flush_retries_converge() {
    let seed = SEED ^ 0x25;
    let layout = RingLayout::for_v_k(7, 5).layout().clone();
    let mem = MemBackend::new(7, COPIES * layout.size(), UNIT);
    let cfg = FaultConfig { transient_rate: 0.2, ..FaultConfig::quiet(seed) };
    let store = BlockStore::new(layout, FaultyBackend::new(mem, cfg)).unwrap();
    store.backend().set_armed(false);
    fill(&store, SEED);
    let mut image: Vec<Vec<u8>> = (0..store.blocks())
        .map(|addr| {
            let mut b = vec![0u8; UNIT];
            fill_pattern(addr, SEED, &mut b);
            b
        })
        .collect();
    store.set_cache_policy(CachePolicy::write_back()).unwrap();
    store.set_retry_policy(RetryPolicy { max_retries: 0, backoff_us: 0 });
    store.set_health_threshold(u64::MAX);
    store.backend().set_armed(true);
    let k_data = store.stripe_map().stripe_data_range(0).1;
    assert_eq!(k_data, 4, "k = 5 XOR stripes carry 4 data units");
    let mut failed_flushes = 0u32;
    for round in 0..k_data {
        // One dirty unit per stripe (data ranges are k_data-aligned).
        for addr in (round..store.blocks()).step_by(k_data) {
            fill_pattern(addr, seed + round as u64, &mut image[addr]);
            store.write_block(addr, &image[addr]).unwrap();
        }
        while store.flush().is_err() {
            failed_flushes += 1;
            assert!(failed_flushes < 10_000, "[seed {seed:#x}] flush never converged");
        }
    }
    assert!(failed_flushes > 0, "[seed {seed:#x}] the schedule must fail some flushes");
    store.backend().set_armed(false);
    store.verify_parity().unwrap_or_else(|e| panic!("[seed {seed:#x}] parity after retries: {e}"));
    let mut got = vec![0u8; UNIT];
    for (addr, want) in image.iter().enumerate() {
        store.read_block(addr, &mut got).unwrap();
        assert_eq!(&got, want, "[seed {seed:#x}] block {addr} after retries");
    }
}

/// Rot on the survivors a rebuild folds: the rebuild's one sweep
/// checks every survivor before folding it, so a corrupt one never
/// reaches the spare. Under P+Q with two disks failed, rot in stripes
/// that cross one of them leaves two erasures: the two-phase
/// `rebuild_all` repairs each such stripe under its exclusive lock,
/// retries the chunk, and still reads exactly (k−1)/(v−1) of every
/// survivor in each phase — the repair's reads are not the rebuild's.
/// Under XOR a rotted survivor of a failed disk's stripe is a second
/// erasure, past the redundancy: the rebuild refuses with the corrupt
/// unit named, repairs nothing, and the store stays degraded.
#[test]
fn rebuild_repairs_a_corrupt_survivor_before_folding_it() {
    const SALT: u64 = 0x5a1e;
    // Rots up to `per_side` data survivors, each in its own stripe,
    // of the stripes crossing exactly one of `failed`; returns
    // `(physical disk, offset)` of each.
    fn rot<B: Backend>(
        store: &BlockStore<FaultyBackend<B>>,
        failed: &[usize],
        per_side: usize,
    ) -> Vec<(usize, usize)> {
        let (layout, map) = (store.layout(), store.stripe_map());
        let mut per = vec![0usize; failed.len()];
        let mut seen = Vec::new();
        for addr in 0..store.blocks() {
            let m = map.locate_full(addr);
            let crosses: Vec<usize> = (0..failed.len())
                .filter(|&i| {
                    layout.stripes()[m.stripe].units().iter().any(|u| u.disk as usize == failed[i])
                })
                .collect();
            let [side] = crosses[..] else { continue };
            if failed.contains(&(m.unit.disk as usize))
                || per[side] == per_side
                || seen.contains(&(m.copy, m.stripe))
            {
                continue;
            }
            seen.push((m.copy, m.stripe));
            per[side] += 1;
            let pd = store.physical_disk(m.unit.disk as usize);
            store.backend().corrupt_unit(pd, m.unit.offset as usize).unwrap();
        }
        store.backend().corruptions()
    }

    // P+Q, ring v=9 k=4: two failures, rot on both sides.
    let store = pq_store(FaultConfig::quiet(SEED));
    fill(&store, SALT);
    let (v, k) = (store.v() as u64, store.layout().stripes()[0].units().len() as u64);
    for d in [0, 1] {
        let pd = store.physical_disk(d);
        store.fail_disk(d).unwrap();
        store.backend().wipe_disk(pd).unwrap();
    }
    let injected = rot(&store, &[0, 1], 3).len() as u64;
    assert_eq!(injected, 6, "three rotted survivors per failed disk");
    let reports = Rebuilder::new(2).rebuild_all(&store, &[9, 10]).unwrap();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        let (min, max) = r.surviving_read_range();
        assert_eq!(min, max, "phase {}: every survivor reads alike", r.failed_disk);
        assert_eq!(
            max * (v - 1),
            r.units_rebuilt as u64 * (k - 1),
            "phase {}: survivors read exactly (k-1)/(v-1)",
            r.failed_disk
        );
    }
    assert!(!store.is_degraded());
    sweep(&store, SALT, "pq after rebuild_all");
    store.verify_parity().unwrap();
    let repairs = store.stats().integrity.checksum_repairs;
    assert!(repairs >= injected, "{repairs} checksum repairs for {injected} rotted survivors");

    // XOR, ring v=7 k=3: one failure, one rotted survivor.
    let store = xor_store(FaultConfig::quiet(SEED));
    fill(&store, SALT);
    store.fail_disk(0).unwrap();
    let rotted = rot(&store, &[0], 1);
    assert_eq!(rotted.len(), 1);
    match Rebuilder::new(2).rebuild(&store, 7) {
        Err(StoreError::ChecksumMismatch { disk, offset }) => {
            assert_eq!((disk, offset), rotted[0], "the rotted survivor is named")
        }
        other => panic!("a rebuild over an unrepairable survivor must refuse, got {other:?}"),
    }
    assert_eq!(store.failed_disks().as_slice(), [0], "still degraded, the spare not swapped in");
    assert_eq!(store.rebuilding(), None, "the refused rebuild is unregistered");
    assert_eq!(store.stats().integrity.checksum_repairs, 0, "nothing repairable was repaired");
}

/// The one repair rule, call by call: `read_block`, `read_blocks`,
/// `write_block` and `write_blocks`, on a healthy and on a degraded
/// array, XOR and P+Q, engine off and on, each meet one rotted unit
/// they must read, repair it exactly once and complete with exact
/// bytes; with the rot past the redundancy each fails naming the
/// rotted unit and repairs nothing. Every leg works in stripe 0 of
/// copy 0, whose two data units are blocks `lo` and `a = lo + 1`: `lo`
/// is rotted and `a` is written (a one-unit update of a two-data-unit
/// stripe takes the reconstruct route, so it reads `lo`). A read
/// reaches `lo` itself, or decodes `a` from its survivors when `a`'s
/// disk is failed. The degraded XOR leg fails a disk outside stripe 0:
/// a rotted survivor of a decoded XOR stripe is past the redundancy,
/// which the last column covers.
#[test]
fn every_client_path_repairs_a_corrupt_unit_once() {
    #[derive(Clone, Copy, Debug)]
    enum Call {
        ReadBlock,
        ReadBlocks,
        WriteBlock,
        WriteBlocks,
    }
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Array {
        Healthy,
        Degraded,
        PastRedundancy,
    }
    const SALT: u64 = 0x0ace;
    const NEW: u64 = 0x0bee;
    let pattern = |addr: usize, salt: u64| {
        let mut b = vec![0u8; UNIT];
        fill_pattern(addr, salt, &mut b);
        b
    };
    for call in [Call::ReadBlock, Call::ReadBlocks, Call::WriteBlock, Call::WriteBlocks] {
        for array in [Array::Healthy, Array::Degraded, Array::PastRedundancy] {
            for pq in [false, true] {
                for engine in [false, true] {
                    let scheme = if pq { "P+Q" } else { "XOR" };
                    let ctx = format!("{call:?} {array:?} {scheme} engine {engine}");
                    let store = if pq {
                        pq_store(FaultConfig::quiet(SEED))
                    } else {
                        xor_store(FaultConfig::quiet(SEED))
                    };
                    fill(&store, SALT);
                    store.set_health_threshold(u64::MAX);
                    if engine {
                        store.start_engine(EngineConfig::default());
                    }
                    let (layout, map) = (store.layout(), store.stripe_map());
                    let (lo, k_data) = map.stripe_data_range(0);
                    assert_eq!(k_data, 2, "[{ctx}] two data units per stripe");
                    let a = lo + 1;
                    assert_eq!(map.stripe_data_range(1), (a + 1, 2), "[{ctx}] stripe 1 follows");
                    let stripe = layout.stripes()[0].units();
                    let disk_of = |addr: usize| map.locate_full(addr).unit.disk as usize;
                    let p_disk = stripe[map.parity_slots(0).0].disk as usize;
                    let failed: Vec<usize> = match (array, pq) {
                        (Array::Healthy, _) => vec![],
                        (Array::Degraded, false) => {
                            let outside = (0..store.v())
                                .find(|&d| stripe.iter().all(|u| u.disk as usize != d))
                                .unwrap();
                            vec![outside]
                        }
                        (Array::Degraded, true) | (Array::PastRedundancy, false) => {
                            vec![disk_of(a)]
                        }
                        (Array::PastRedundancy, true) => vec![disk_of(a), p_disk],
                    };
                    for &d in &failed {
                        store.fail_disk(d).unwrap();
                    }
                    let rot = map.locate_full(lo).unit;
                    let rotted = (store.physical_disk(rot.disk as usize), rot.offset as usize);
                    store.backend().corrupt_unit(rotted.0, rotted.1).unwrap();
                    let a_lost = failed.contains(&disk_of(a));
                    let blocks = store.blocks();
                    let repairs0 = store.stats().integrity.checksum_repairs;
                    let res = match call {
                        Call::ReadBlock => {
                            let target = if a_lost { a } else { lo };
                            let mut got = vec![0u8; UNIT];
                            store.read_block(target, &mut got).map(|()| {
                                assert_eq!(got, pattern(target, SALT), "[{ctx}] block {target}")
                            })
                        }
                        Call::ReadBlocks => {
                            // With `a` lost, leave `lo` out: only the
                            // decode of stripe 0 reads it.
                            let first = if a_lost { a } else { 0 };
                            let mut got = vec![0u8; (blocks - first) * UNIT];
                            store.read_blocks(first, &mut got).map(|()| {
                                for (i, g) in got.chunks(UNIT).enumerate() {
                                    let addr = first + i;
                                    assert_eq!(g, pattern(addr, SALT), "[{ctx}] block {addr}");
                                }
                            })
                        }
                        Call::WriteBlock => store.write_block(a, &pattern(a, NEW)),
                        Call::WriteBlocks => {
                            let data: Vec<u8> = (a..a + 3).flat_map(|b| pattern(b, NEW)).collect();
                            store.write_blocks(a, &data)
                        }
                    };
                    let repairs = store.stats().integrity.checksum_repairs - repairs0;
                    if array == Array::PastRedundancy {
                        match res {
                            Err(StoreError::ChecksumMismatch { disk, offset }) => {
                                assert_eq!((disk, offset), rotted, "[{ctx}] the rotted unit named")
                            }
                            other => panic!("[{ctx}] rot past the redundancy must fail: {other:?}"),
                        }
                        assert_eq!(repairs, 0, "[{ctx}] nothing repairable was repaired");
                        continue;
                    }
                    res.unwrap_or_else(|e| panic!("[{ctx}] {e}"));
                    assert_eq!(repairs, 1, "[{ctx}] the rotted unit is repaired once");
                    let written = match call {
                        Call::WriteBlock => a..a + 1,
                        Call::WriteBlocks => a..a + 3,
                        _ => 0..0,
                    };
                    let mut got = vec![0u8; UNIT];
                    for addr in 0..blocks {
                        store.read_block(addr, &mut got).unwrap();
                        let salt = if written.contains(&addr) { NEW } else { SALT };
                        assert_eq!(got, pattern(addr, salt), "[{ctx}] block {addr} afterwards");
                    }
                    let total = store.stats().integrity.checksum_repairs - repairs0;
                    assert_eq!(total, 1, "[{ctx}] the repair held");
                    if failed.is_empty() {
                        store.verify_parity().unwrap_or_else(|e| panic!("[{ctx}] {e}"));
                    }
                }
            }
        }
    }
}

/// A degraded `read_blocks` that meets a rotted survivor repairs the
/// one stripe that held it: over a P+Q array with one disk failed, a
/// whole-array read decodes every degraded stripe once, and the one
/// whose P unit is rotted (P is never requested, so only its decode
/// reads it) is repaired — its live units read once more — and decoded
/// again. Nothing else is read: the healthy requested blocks once, no
/// other stripe repaired or decoded twice.
#[test]
fn degraded_batch_read_repairs_only_the_stripe_with_a_rotten_survivor() {
    const SALT: u64 = 0xd15c;
    for engine in [false, true] {
        let store = pq_store(FaultConfig::quiet(SEED));
        fill(&store, SALT);
        if engine {
            store.start_engine(EngineConfig::default());
        }
        let failed = 0;
        store.fail_disk(failed).unwrap();
        let (layout, map) = (store.layout(), store.stripe_map());
        let blocks = store.blocks();
        // Each degraded stripe — one with a lost data block — once,
        // in address order, with its live unit count.
        let mut degraded: Vec<((usize, usize), u64)> = Vec::new();
        let mut healthy = 0u64;
        for addr in 0..blocks {
            let m = map.locate_full(addr);
            if m.unit.disk as usize != failed {
                healthy += 1;
            } else if degraded.last().map(|d| d.0) != Some((m.copy, m.stripe)) {
                let units = layout.stripes()[m.stripe].units();
                let live = units.iter().filter(|u| u.disk as usize != failed).count() as u64;
                degraded.push(((m.copy, m.stripe), live));
            }
        }
        assert!(degraded.len() >= 4, "the read spans {} degraded stripes", degraded.len());
        // Rot the P unit of a degraded stripe in the middle.
        let ((copy, si), live) = degraded[degraded.len() / 2];
        let p = layout.stripes()[si].units()[map.parity_slots(si).0];
        let offset = p.offset as usize + copy * layout.size();
        store.backend().corrupt_unit(store.physical_disk(p.disk as usize), offset).unwrap();

        let t0 = store.stats();
        let mut got = vec![0u8; blocks * UNIT];
        store.read_blocks(0, &mut got).unwrap();
        let now = store.stats();
        let mut want = vec![0u8; UNIT];
        for (addr, g) in got.chunks(UNIT).enumerate() {
            fill_pattern(addr, SALT, &mut want);
            assert_eq!(g, &want[..], "engine {engine}: block {addr}");
        }
        assert_eq!(now.integrity.checksum_repairs - t0.integrity.checksum_repairs, 1);
        let decodes: u64 = degraded.iter().map(|d| d.1).sum();
        assert_eq!(
            now.io_totals().since(&t0.io_totals()).read_units,
            healthy + decodes + live + live,
            "engine {engine}: healthy blocks + one decode per degraded stripe + the rotted \
             stripe's repair and its second decode"
        );
    }
}

/// Checksums are verified in batches: a 12-block `read_blocks` hands
/// its wanted units to the checksum table in batch order — physical
/// disk, then offset — as a group of eight and then one of four. With
/// the unit at position 0, 7, 8 or 11 rotted in turn, each read
/// repairs exactly that unit's stripe, once: the repair is charged to
/// the rotted unit's disk, the only extra reads are the stripe's live
/// units and the second sweep, and every block reads back exact.
#[test]
fn a_batched_read_charges_a_mismatch_to_its_unit() {
    const SALT: u64 = 0xba7c;
    const START: usize = 5;
    const N: usize = 12;
    for engine in [false, true] {
        for pos in [0, 7, 8, 11] {
            let ctx = format!("engine {engine}, position {pos}");
            let store = pq_store(FaultConfig::quiet(SEED));
            fill(&store, SALT);
            if engine {
                store.start_engine(EngineConfig::default());
            }
            let (layout, map) = (store.layout(), store.stripe_map());
            let mut batch: Vec<(usize, usize, usize)> = (START..START + N)
                .map(|addr| {
                    let u = map.locate_full(addr).unit;
                    (store.physical_disk(u.disk as usize), u.offset as usize, addr)
                })
                .collect();
            batch.sort_unstable();
            let mut got = vec![0u8; N * UNIT];
            let t0 = store.stats();
            store.read_blocks(START, &mut got).unwrap();
            let clean = store.stats().io_totals().since(&t0.io_totals()).read_units;

            let (pd, offset, addr) = batch[pos];
            store.backend().corrupt_unit(pd, offset).unwrap();
            let live = layout.stripes()[map.locate_full(addr).stripe].units().len() as u64;
            let t0 = store.stats();
            store.read_blocks(START, &mut got).unwrap_or_else(|e| panic!("[{ctx}] {e}"));
            let now = store.stats();
            let mut want = vec![0u8; UNIT];
            for (i, g) in got.chunks(UNIT).enumerate() {
                fill_pattern(START + i, SALT, &mut want);
                assert_eq!(g, &want[..], "[{ctx}] block {}", START + i);
            }
            let repairs = |s: &pdl_store::StatsSnapshot| s.integrity.checksum_repairs;
            assert_eq!(repairs(&now) - repairs(&t0), 1, "[{ctx}] one repair");
            let on_disk = |s: &pdl_store::StatsSnapshot| s.integrity.disk_health[pd].repairs;
            assert_eq!(on_disk(&now) - on_disk(&t0), 1, "[{ctx}] charged to the rotted disk");
            assert_eq!(
                now.io_totals().since(&t0.io_totals()).read_units,
                clean + live + clean,
                "[{ctx}] the batch, the rotted stripe's repair, the batch again"
            );
        }
    }
}

/// The same for a rebuild chunk. On a P+Q ring(7, 5) array a target
/// unit has four survivors, and the rebuild checks two targets'
/// survivors as one batch of eight: target order, each target's in slot
/// order. With the survivor at position 0, 7, 8 or 11 of the first
/// chunk rotted in turn (targets 0 and 1 fill the first batch, 2 and 3
/// the second), the rebuild repairs exactly that survivor's stripe,
/// once, still reads exactly (k−1)/(v−1) of every survivor, and the
/// array reads back exact.
#[test]
fn a_batched_rebuild_charges_a_mismatch_to_its_survivor() {
    const SALT: u64 = 0x5eed;
    const FAILED: usize = 0;
    for pos in [0, 7, 8, 11] {
        let ctx = format!("position {pos}");
        let dp = DoubleParityLayout::new(RingLayout::for_v_k(7, 5).layout().clone()).unwrap();
        let mem = MemBackend::new(7 + 1, COPIES * dp.layout().size(), UNIT);
        let store =
            BlockStore::new_pq(dp, FaultyBackend::new(mem, FaultConfig::quiet(SEED))).unwrap();
        fill(&store, SALT);
        let lost = store.physical_disk(FAILED);
        store.fail_disk(FAILED).unwrap();
        store.backend().wipe_disk(lost).unwrap();
        let layout = store.layout();
        let stripe = layout.stripes()[layout.unit_ref(FAILED, pos / 4).stripe as usize].units();
        let rot = stripe.iter().filter(|u| u.disk as usize != FAILED).nth(pos % 4).unwrap();
        let pd = store.physical_disk(rot.disk as usize);
        store.backend().corrupt_unit(pd, rot.offset as usize).unwrap();

        let t0 = store.stats();
        let report = Rebuilder::new(1).rebuild(&store, 7).unwrap_or_else(|e| panic!("[{ctx}] {e}"));
        let now = store.stats();
        assert_eq!(now.integrity.checksum_repairs - t0.integrity.checksum_repairs, 1, "[{ctx}]");
        let on_disk = now.integrity.disk_health[pd].repairs - t0.integrity.disk_health[pd].repairs;
        assert_eq!(on_disk, 1, "[{ctx}] charged to the rotted survivor's disk");
        let (min, max) = report.surviving_read_range();
        assert_eq!(min, max, "[{ctx}] every survivor reads alike");
        assert_eq!(max * 6, report.units_rebuilt as u64 * 4, "[{ctx}] exactly (k-1)/(v-1)");
        sweep(&store, SALT, &ctx);
        store.verify_parity().unwrap();
    }
}
