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

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    fill_pattern, open_file_store, Backend, BlockStore, CachePolicy, EngineConfig, Event,
    EventSink, FaultConfig, FaultyBackend, MemBackend, Rebuilder, RetryPolicy, ScrubConfig,
    StoreError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    let report = store.scrub(&ScrubConfig::default()).unwrap();
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
    let again = store.scrub(&ScrubConfig::default()).unwrap();
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

    let report = store.scrub(&ScrubConfig::default()).unwrap();
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
    let report = store.scrub(&ScrubConfig::default()).unwrap();
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
/// stopped mid-pass (its cursor checkpoints into `store.json` v4),
/// the store is closed and reopened, and the next pass must resume
/// from the persisted cursor — not restart — and still repair every
/// remaining corruption.
#[test]
fn crashed_scrub_resumes_at_persisted_cursor() {
    let dir = std::env::temp_dir().join(format!("pdl-scrub-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    {
        let store = pdl_store::create_file_store(&dir, layout, UNIT, COPIES, 1).unwrap();
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

        // Scrub slowly in the background, checkpointing every few
        // stripes, and "crash" (stop) partway through the pass.
        let store = Arc::new(store);
        let handle = store
            .start_scrub(ScrubConfig { stripes_per_step: 2, sleep_us: 300, checkpoint_stripes: 2 })
            .unwrap();
        while store.stats().integrity.scrub_cursor < 8 {
            std::thread::yield_now();
        }
        handle.stop();
        let partial = handle.join().unwrap();
        assert!(!partial.completed, "the pass must have been interrupted");
        assert!(partial.stripes > 0, "the pass must have made progress");
    }

    // Reopen: the persisted v4 cursor comes back…
    let store = open_file_store(&dir).unwrap();
    let resumed_at = store.stats().integrity.scrub_cursor;
    assert!(resumed_at >= 8, "persisted cursor survives reopen, got {resumed_at}");
    // …and the next pass resumes there instead of restarting.
    let report = store.scrub(&ScrubConfig::default()).unwrap();
    assert_eq!(report.resumed_from, resumed_at);
    assert!(report.completed);
    let total = (COPIES * RingLayout::for_v_k(7, 3).layout().stripes().len()) as u64;
    assert_eq!(report.stripes, total - resumed_at, "only the unscanned tail is walked");
    // One more full pass from zero proves the whole array is clean.
    let clean = store.scrub(&ScrubConfig::default()).unwrap();
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
    store.scrub(&ScrubConfig::default()).unwrap();
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
    let report = store.scrub(&ScrubConfig::default()).unwrap();
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
