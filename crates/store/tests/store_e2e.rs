//! End-to-end proof on real bytes: write random data through the
//! store, fail a disk, verify every logical block is still readable
//! (degraded) and bit-identical after rebuild — for both backends and
//! for RAID5 vs ring-declustered layouts — and check that a
//! ring-declustered rebuild balances its per-surviving-disk reads
//! within 1% at the predicted (k−1)/(v−1) fraction.

mod support;

use pdl_core::{raid5_layout, DoubleParityLayout, Layout, RingLayout};
use pdl_sim::{Trace, Workload};
use pdl_store::{
    Backend, BlockStore, FileBackend, MemBackend, Rebuilder, StoreError, StoreMeta, META_FILE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::replay::replay;

const UNIT: usize = 128;
const COPIES: usize = 2;
const SPARES: usize = 1;

fn random_image(blocks: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..blocks).map(|_| (0..UNIT).map(|_| rng.random_range(0u64..256) as u8).collect()).collect()
}

fn fill_store<B: Backend>(store: &mut BlockStore<B>, image: &[Vec<u8>]) {
    for (addr, block) in image.iter().enumerate() {
        store.write_block(addr, block).unwrap();
    }
}

fn assert_image_matches<B: Backend>(store: &BlockStore<B>, image: &[Vec<u8>], what: &str) {
    let mut out = vec![0u8; UNIT];
    for (addr, block) in image.iter().enumerate() {
        store.read_block(addr, &mut out).unwrap();
        assert_eq!(&out, block, "{what}: block {addr} differs");
    }
}

/// The full kill-a-disk-and-recover cycle on any store.
fn exercise<B: Backend>(mut store: BlockStore<B>, spare: usize, seed: u64) {
    let blocks = store.blocks();
    let image = random_image(blocks, seed);
    fill_store(&mut store, &image);
    store.verify_parity().unwrap();

    // Fail every candidate disk in turn? One representative failure per
    // run keeps the test fast; callers vary `seed` and layouts.
    let failed = (seed % store.v() as u64) as usize;
    store.fail_disk(failed).unwrap();
    assert!(store.is_degraded());

    // Every logical block remains readable in degraded mode.
    assert_image_matches(&store, &image, "degraded");

    // Degraded writes keep data recoverable: overwrite a slice of
    // blocks while the disk is down.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let mut image = image;
    for _ in 0..blocks / 4 {
        let addr = rng.random_range(0..blocks);
        let fresh: Vec<u8> = (0..UNIT).map(|_| rng.random_range(0u64..256) as u8).collect();
        store.write_block(addr, &fresh).unwrap();
        image[addr] = fresh;
    }
    assert_image_matches(&store, &image, "degraded after writes");

    // Rebuild onto the spare: bit-identical content, healthy parity.
    let report = Rebuilder::new(4).rebuild(&store, spare).unwrap();
    assert!(!store.is_degraded());
    assert_eq!(report.failed_disk, failed);
    assert_eq!(report.units_rebuilt, store.backend().units_per_disk());
    assert_image_matches(&store, &image, "after rebuild");
    store.verify_parity().unwrap();
}

fn ring_layout(v: usize, k: usize) -> Layout {
    RingLayout::for_v_k(v, k).layout().clone()
}

#[test]
fn mem_ring_declustered_end_to_end() {
    for seed in [1u64, 5, 9] {
        let layout = ring_layout(7, 3);
        let backend = MemBackend::new(7 + SPARES, COPIES * layout.size(), UNIT);
        let store = BlockStore::new(layout, backend).unwrap();
        exercise(store, 7, seed);
    }
}

#[test]
fn mem_raid5_end_to_end() {
    for seed in [2u64, 6] {
        let layout = raid5_layout(6, 12);
        let backend = MemBackend::new(6 + SPARES, COPIES * layout.size(), UNIT);
        let store = BlockStore::new(layout, backend).unwrap();
        exercise(store, 6, seed);
    }
}

#[test]
fn file_ring_declustered_end_to_end() {
    let dir = std::env::temp_dir().join(format!("pdl-e2e-ring-{}", std::process::id()));
    let layout = ring_layout(5, 3);
    let backend = FileBackend::create(&dir, 5 + SPARES, COPIES * layout.size(), UNIT).unwrap();
    let store = BlockStore::new(layout, backend).unwrap();
    exercise(store, 5, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rebuild redirects must survive a close/reopen: data written while
/// degraded lives on the spare, and a reopened store has to read it
/// from there, not from the stale failed disk. The redirect rides in
/// `store.json`, replaced atomically like every other document write,
/// and the directory holds no other metadata file.
#[test]
fn file_store_reopen_after_rebuild_reads_spare() {
    let dir = std::env::temp_dir().join(format!("pdl-e2e-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = ring_layout(7, 3);
    let mut store = pdl_store::create_file_store(&dir, layout, UNIT, COPIES, SPARES).unwrap();
    let blocks = store.blocks();
    let mut image = random_image(blocks, 21);
    fill_store(&mut store, &image);
    store.fail_disk(4).unwrap();
    // Overwrite every block while degraded: units on the failed disk
    // now exist only as parity until the rebuild materializes them.
    for (addr, block) in random_image(blocks, 22).into_iter().enumerate() {
        store.write_block(addr, &block).unwrap();
        image[addr] = block;
    }
    // A hard link to the committed document: a rebuild that rewrote
    // it in place would change what the link reads.
    let meta_path = dir.join(META_FILE);
    let old_doc = std::fs::read_to_string(&meta_path).unwrap();
    let witness = dir.join("store.json.witness");
    std::fs::hard_link(&meta_path, &witness).unwrap();
    Rebuilder::new(2).rebuild(&store, 7).unwrap();
    drop(store); // simulate process exit

    assert_eq!(std::fs::read_to_string(&witness).unwrap(), old_doc, "replaced, not rewritten");
    std::fs::remove_file(&witness).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let media = name.starts_with("disk-") && name.ends_with(".bin");
        assert!(
            media || ["store.json", "checksums.bin", "checksums.log"].contains(&name.as_str()),
            "unexpected file {name} in the array directory"
        );
    }
    let meta = StoreMeta::from_json(&std::fs::read_to_string(&meta_path).unwrap()).unwrap();
    assert_eq!(meta.redirect[4], 7, "the redirect is in store.json");

    let store = pdl_store::open_file_store(&dir).unwrap();
    assert_eq!(store.physical_disk(4), 7, "mapping must be persisted");
    assert_image_matches(&store, &image, "reopened after rebuild");
    store.verify_parity().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_raid5_end_to_end() {
    let dir = std::env::temp_dir().join(format!("pdl-e2e-raid5-{}", std::process::id()));
    let layout = raid5_layout(5, 10);
    let backend = FileBackend::create(&dir, 5 + SPARES, COPIES * layout.size(), UNIT).unwrap();
    let store = BlockStore::new(layout, backend).unwrap();
    exercise(store, 5, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The paper's headline claim measured on real reconstruction traffic:
/// a declustered rebuild reads the same number of units from every
/// surviving disk (within 1%), and that number is (k−1)/(v−1) of a
/// disk; RAID5 reads 100%.
#[test]
fn rebuild_load_matches_declustering_claim() {
    // Ring-declustered: v = 9, k = 4 → fraction 3/8 = 0.375.
    let layout = ring_layout(9, 4);
    let size = layout.size();
    let backend = MemBackend::new(10, COPIES * size, UNIT);
    let mut store = BlockStore::new(layout, backend).unwrap();
    let image = random_image(store.blocks(), 11);
    fill_store(&mut store, &image);
    store.fail_disk(2).unwrap();
    store.reset_counters();
    let report = Rebuilder::new(4).rebuild(&store, 9).unwrap();

    assert!(
        report.read_imbalance() <= 0.01,
        "surviving-disk reads not balanced within 1%: {:?}",
        report.per_disk_reads
    );
    let fraction = report.mean_read_fraction();
    assert!(
        (fraction - 3.0 / 8.0).abs() < 1e-9,
        "expected (k-1)/(v-1) = 0.375, measured {fraction}"
    );
    assert_image_matches(&store, &image, "after measured rebuild");

    // RAID5 baseline: every surviving disk is read in full.
    let layout = raid5_layout(6, 12);
    let backend = MemBackend::new(7, COPIES * layout.size(), UNIT);
    let mut store = BlockStore::new(layout, backend).unwrap();
    let image = random_image(store.blocks(), 12);
    fill_store(&mut store, &image);
    store.fail_disk(0).unwrap();
    store.reset_counters();
    let report = Rebuilder::new(4).rebuild(&store, 6).unwrap();
    assert!((report.mean_read_fraction() - 1.0).abs() < 1e-9);
    assert_eq!(report.read_imbalance(), 0.0);
}

/// The full-stripe write fast path computes parity without reading:
/// stripe-aligned writes issue zero backend reads.
#[test]
fn full_stripe_writes_skip_reads() {
    let layout = ring_layout(7, 4); // k-1 = 3 data units per stripe
    let backend = MemBackend::new(7, layout.size(), UNIT);
    let store = BlockStore::new(layout, backend).unwrap();
    let per_copy_data = store.stripe_map().data_units_per_copy();
    // One whole copy, written stripe-aligned.
    let data = vec![0x77u8; per_copy_data * UNIT];
    store.write_blocks(0, &data).unwrap();
    let reads: u64 = (0..store.v()).map(|d| store.backend().read_count(d)).sum();
    assert_eq!(reads, 0, "full-stripe writes must not read");
    store.verify_parity().unwrap();

    // An unaligned small write does RMW (2 reads).
    store.reset_counters();
    store.write_block(1, &[0x11u8; UNIT]).unwrap();
    let reads: u64 = (0..store.v()).map(|d| store.backend().read_count(d)).sum();
    assert_eq!(reads, 2, "small write is read-modify-write");
    store.verify_parity().unwrap();
}

/// Simulator-style workloads replay against real bytes, healthy and
/// degraded, without ever corrupting parity.
#[test]
fn trace_replay_healthy_and_degraded() {
    let layout = ring_layout(7, 3);
    let backend = MemBackend::new(8, COPIES * layout.size(), UNIT);
    let store = BlockStore::new(layout, backend).unwrap();
    let workload = Workload { request_units: (1, 4), read_fraction: 0.5, ..Workload::default() };
    let trace = Trace::from_workload(&workload, store.blocks(), 300, 42);

    let stats = replay(&store, &trace).unwrap();
    assert_eq!(stats.reads + stats.writes, 300);
    store.verify_parity().unwrap();

    // Degraded replay: same trace with a disk down, then rebuild and
    // confirm parity self-consistency end to end.
    store.fail_disk(3).unwrap();
    replay(&store, &trace).unwrap();
    Rebuilder::default().rebuild(&store, 7).unwrap();
    store.verify_parity().unwrap();
}

/// Error paths: tolerance-exceeding failure rejected, re-failing an
/// already-failed disk rejected (regression: it used to be silently
/// accepted), bad spare rejected, address bounds enforced.
#[test]
fn error_paths() {
    let layout = ring_layout(5, 2);
    let backend = MemBackend::new(6, layout.size(), UNIT);
    let store = BlockStore::new(layout, backend).unwrap();
    store.fail_disk(1).unwrap();
    assert!(
        matches!(store.fail_disk(2), Err(StoreError::TooManyFailures { tolerance: 1, .. })),
        "XOR tolerates exactly one failure"
    );
    // Regression: failing an already-failed disk must be a dedicated
    // error, not a silent overwrite of the failure state.
    assert!(matches!(store.fail_disk(1), Err(StoreError::AlreadyFailed(1))));
    assert_eq!(store.failed_disks().as_slice(), &[1], "failure state unchanged");
    // Restoring a healthy disk is an error too.
    assert!(matches!(store.restore_disk(0), Err(StoreError::NotFailed(0))));
    // spare index already mapped
    assert!(Rebuilder::new(2).rebuild(&store, 4).is_err());
    // out-of-range spare
    assert!(Rebuilder::new(2).rebuild(&store, 6).is_err());
    // valid spare works
    Rebuilder::new(2).rebuild(&store, 5).unwrap();
    assert!(Rebuilder::new(2).rebuild(&store, 5).is_err(), "nothing to rebuild");
    // After the rebuild the disk is healthy again and may re-fail.
    store.fail_disk(1).unwrap();
    store.restore_disk(1).unwrap();

    let blocks = store.blocks();
    let mut buf = vec![0u8; UNIT];
    assert!(store.read_block(blocks, &mut buf).is_err());
    let mut short = vec![0u8; UNIT - 1];
    assert!(store.read_block(0, &mut short).is_err());
}

/// Regression: a degraded write that skips a unit on the failed disk
/// leaves its medium stale, so `restore_disk` must refuse (restoring
/// used to silently resurrect pre-failure bytes, losing the
/// acknowledged write and corrupting parity). A rebuild still works
/// and re-synchronizes everything.
#[test]
fn restore_after_degraded_write_requires_rebuild() {
    let layout = ring_layout(7, 3);
    let backend = MemBackend::new(8, layout.size(), UNIT);
    let mut store = BlockStore::new(layout, backend).unwrap();
    let image = random_image(store.blocks(), 51);
    fill_store(&mut store, &image);

    // Find a block living on disk 2, then fail that disk and
    // overwrite the block while degraded.
    let addr = (0..store.blocks())
        .find(|&a| store.stripe_map().locate(a).disk == 2)
        .expect("some block lives on disk 2");
    store.fail_disk(2).unwrap();
    let fresh = vec![0x3cu8; UNIT];
    store.write_block(addr, &fresh).unwrap();
    let mut out = vec![0u8; UNIT];
    store.read_block(addr, &mut out).unwrap();
    assert_eq!(out, fresh, "degraded read returns the acknowledged write");

    // The transient restore is refused: disk 2's medium still holds
    // the pre-failure value.
    // The error names the stale disk and a concrete witness stripe a
    // degraded write skipped — check the context, not just the kind.
    match store.restore_disk(2) {
        Err(StoreError::RebuildRequired { disk, copy, stripe }) => {
            assert_eq!(disk, 2);
            let m = store.stripe_map().locate_full(addr);
            assert_eq!(
                (copy, stripe),
                (m.copy, m.stripe),
                "witness is the degraded write's stripe"
            );
        }
        other => panic!("expected RebuildRequired for disk 2, got {other:?}"),
    }
    assert!(store.is_degraded(), "failure state unchanged by the refused restore");

    // A rebuild re-synchronizes and the write survives.
    Rebuilder::new(2).rebuild(&store, 7).unwrap();
    store.verify_parity().unwrap();
    store.read_block(addr, &mut out).unwrap();
    assert_eq!(out, fresh);

    // After the rebuild, fail/restore without intervening writes is
    // transient again.
    store.fail_disk(2).unwrap();
    store.restore_disk(2).unwrap();
    store.verify_parity().unwrap();
}

/// P+Q error paths: a third failure is rejected, a double rebuild
/// needs two spares.
#[test]
fn pq_error_paths() {
    let dp = DoubleParityLayout::new(ring_layout(9, 4)).unwrap();
    let backend = MemBackend::new(12, dp.layout().size(), UNIT);
    let store = BlockStore::new_pq(dp, backend).unwrap();
    assert_eq!(store.fault_tolerance(), 2);
    store.fail_disk(2).unwrap();
    store.fail_disk(7).unwrap();
    assert!(matches!(
        store.fail_disk(0),
        Err(StoreError::TooManyFailures { requested: 0, tolerance: 2 })
    ));
    assert!(matches!(store.fail_disk(2), Err(StoreError::AlreadyFailed(2))));
    assert!(matches!(
        Rebuilder::new(2).rebuild_all(&store, &[9]),
        Err(StoreError::SparesExhausted { failed: 2, spares: 1 })
    ));
    // Duplicate or invalid spares are rejected before any phase
    // mutates the store.
    assert!(matches!(
        Rebuilder::new(2).rebuild_all(&store, &[9, 9]),
        Err(StoreError::InvalidSpare(9))
    ));
    assert!(matches!(
        Rebuilder::new(2).rebuild_all(&store, &[9, 99]),
        Err(StoreError::InvalidSpare(99))
    ));
    assert_eq!(store.failed_disks().as_slice(), &[2, 7], "no phase ran on rejected spares");
    let reports = Rebuilder::new(2).rebuild_all(&store, &[9, 10]).unwrap();
    assert_eq!(reports.len(), 2);
    assert!(!store.is_degraded());
    store.verify_parity().unwrap();
}

/// The acceptance-criteria scenario end to end, on the file backend:
/// fail two disks (wiping their media), serve degraded reads
/// correctly, write while doubly degraded, rebuild both onto spares
/// in two phases, reopen the store from its persisted metadata, and
/// read back bit-identical data.
#[test]
fn file_pq_double_failure_rebuild_reopen() {
    let dir = std::env::temp_dir().join(format!("pdl-e2e-pq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dp = DoubleParityLayout::new(ring_layout(9, 4)).unwrap();
    let mut store = pdl_store::create_file_store_pq(&dir, dp, UNIT, COPIES, 2).unwrap();
    let blocks = store.blocks();
    let mut image = random_image(blocks, 31);
    fill_store(&mut store, &image);
    store.verify_parity().unwrap();

    // Two concurrent failures; wipe the dead media so any read that
    // sneaks through to them shows up as corruption, not luck.
    store.fail_disk(1).unwrap();
    store.fail_disk(6).unwrap();
    store.backend().wipe_disk(store.physical_disk(1)).unwrap();
    store.backend().wipe_disk(store.physical_disk(6)).unwrap();
    assert!(store.is_degraded());
    assert_eq!(store.failed_disks().as_slice(), &[1, 6]);

    // Every logical block remains readable through the two-erasure
    // decode.
    assert_image_matches(&store, &image, "doubly degraded");

    // Writes while doubly degraded keep data recoverable.
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for _ in 0..blocks / 4 {
        let addr = rng.random_range(0..blocks);
        let fresh: Vec<u8> = (0..UNIT).map(|_| rng.random_range(0u64..256) as u8).collect();
        store.write_block(addr, &fresh).unwrap();
        image[addr] = fresh;
    }
    assert_image_matches(&store, &image, "doubly degraded after writes");

    // Two-phase rebuild onto the two spares.
    let reports = Rebuilder::new(4).rebuild_all(&store, &[9, 10]).unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].failed_disk, 1);
    assert_eq!(reports[0].also_failed, vec![6], "phase one ran with disk 6 still down");
    assert_eq!(reports[1].failed_disk, 6);
    assert!(reports[1].also_failed.is_empty(), "phase two ran against a repaired array");
    assert!(!store.is_degraded());
    assert_image_matches(&store, &image, "after double rebuild");
    store.verify_parity().unwrap();
    drop(store); // simulate process exit

    // Reopen purely from persisted metadata: scheme, slots, and the
    // logical→physical mapping all come back.
    let store = pdl_store::open_file_store(&dir).unwrap();
    assert_eq!(store.scheme(), pdl_store::ParityScheme::PQ);
    assert_eq!(store.physical_disk(1), 9);
    assert_eq!(store.physical_disk(6), 10);
    assert_image_matches(&store, &image, "reopened after double rebuild");
    store.verify_parity().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The declustering claim under a **double** failure: every rebuild
/// phase reads the same number of units from every surviving disk
/// (the uniform-decode policy makes this exact, not approximate), and
/// that number is (k−1)/(v−1) of a disk per failed disk — so a full
/// double rebuild costs each survivor about 2(k−1)/(v−1).
#[test]
fn double_rebuild_load_matches_declustering_claim() {
    for (v, k) in [(9usize, 4usize), (13, 4)] {
        let dp = DoubleParityLayout::new(ring_layout(v, k)).unwrap();
        let size = dp.layout().size();
        let backend = MemBackend::new(v + 2, COPIES * size, UNIT);
        let mut store = BlockStore::new_pq(dp, backend).unwrap();
        let image = random_image(store.blocks(), 17);
        fill_store(&mut store, &image);
        store.fail_disk(2).unwrap();
        store.fail_disk(5).unwrap();
        store.reset_counters();
        let reports = Rebuilder::new(4).rebuild_all(&store, &[v, v + 1]).unwrap();

        let expect = (k - 1) as f64 / (v - 1) as f64;
        for (phase, report) in reports.iter().enumerate() {
            assert!(
                report.read_imbalance() <= 0.01,
                "v={v} k={k} phase {phase}: reads not balanced within 1%: {:?}",
                report.per_disk_reads
            );
            let fraction = report.mean_read_fraction();
            assert!(
                (fraction - expect).abs() <= 0.01 * expect,
                "v={v} k={k} phase {phase}: expected (k-1)/(v-1) = {expect}, measured {fraction}"
            );
        }
        assert_image_matches(&store, &image, "after measured double rebuild");
        store.verify_parity().unwrap();
    }
}
