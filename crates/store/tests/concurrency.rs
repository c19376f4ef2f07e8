//! Concurrency suite: many client threads against one `BlockStore`
//! through `&self`, driven by the seeded stress harness
//! (`tests/support/stress.rs`) plus targeted same-stripe contention tests.
//!
//! Reproducibility mirrors the fault-injection harness: every
//! schedule derives from a seed written to `target/stress/<name>.seed`
//! before it runs (CI uploads the directory when the job fails),
//! `PDL_STRESS_SEED=<n>` replays one seed, and `PDL_STRESS_THREADS` /
//! `PDL_STRESS_OPS` reshape the run (the CI concurrency matrix sets
//! the thread count to 2/4/8).

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{Backend, BlockStore, CachePolicy, FileBackend, MemBackend, Rebuilder, StoreError};
use std::path::PathBuf;
use std::sync::Arc;
use support::stress::{self, RebuildMode, StressConfig};

const UNIT: usize = 64;
const COPIES: usize = 8;

/// Where CI picks up the seeds of a failed run.
fn seed_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/stress");
    std::fs::create_dir_all(&dir).expect("create seed dir");
    dir.join(format!("{name}.seed"))
}

fn record_seed(name: &str, seed: u64) {
    std::fs::write(seed_file(name), format!("PDL_STRESS_SEED={seed}\n"))
        .expect("record seed for CI");
}

/// Runs the stress harness and persists its observability snapshot
/// next to the seed (`target/stress/<name>.stats.json`) — CI uploads
/// these as artifacts on every run, pass or fail.
fn run_recorded<B: Backend + 'static>(
    name: &str,
    store: &Arc<BlockStore<B>>,
    cfg: &StressConfig,
) -> stress::StressReport {
    let report = stress::run(store, cfg).unwrap();
    report
        .write_stats_json(seed_file(name).with_extension("stats.json"))
        .expect("record stats for CI");
    report
}

fn base_config(name: &str) -> StressConfig {
    let cfg = StressConfig { ops_per_thread: 300, ..StressConfig::default() }.with_env_overrides();
    record_seed(name, cfg.seed);
    cfg
}

/// Raises the default thread count (the racing tests want the
/// acceptance shape of 8 threads) while still honoring an explicit
/// `PDL_STRESS_THREADS` override — a replay at 2 threads must
/// actually run 2 threads.
fn with_default_threads(mut cfg: StressConfig, threads: usize) -> StressConfig {
    if std::env::var("PDL_STRESS_THREADS").is_err() {
        cfg.threads = threads;
    }
    cfg
}

fn xor_store_mem() -> Arc<BlockStore<MemBackend>> {
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let backend = MemBackend::new(9 + 2, COPIES * layout.size(), UNIT);
    Arc::new(BlockStore::new(layout, backend).unwrap())
}

fn pq_store_mem() -> Arc<BlockStore<MemBackend>> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let backend = MemBackend::new(9 + 3, COPIES * dp.layout().size(), UNIT);
    Arc::new(BlockStore::new_pq(dp, backend).unwrap())
}

/// Runs `f` with a file-backed XOR store in a fresh temp dir.
fn with_xor_store_file(name: &str, f: impl FnOnce(Arc<BlockStore<FileBackend>>)) {
    let dir = std::env::temp_dir().join(format!("pdl-conc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let backend = FileBackend::create(&dir, 9 + 2, COPIES * layout.size(), UNIT).unwrap();
    f(Arc::new(BlockStore::new(layout, backend).unwrap()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `BlockStore` must be shareable across threads by reference — the
/// whole point of the `&self` write path.
#[test]
fn store_is_send_and_sync_mem() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BlockStore<MemBackend>>();
    assert_send_sync::<BlockStore<FileBackend>>();
}

#[test]
fn stress_mixed_mem() {
    let cfg = base_config("mixed_mem");
    let store = xor_store_mem();
    let report = run_recorded("mixed_mem", &store, &cfg);
    assert_eq!(report.reads + report.writes, cfg.threads * cfg.ops_per_thread);
    store.verify_parity().unwrap();
}

#[test]
fn stress_mixed_pq_mem() {
    let cfg = base_config("mixed_pq_mem");
    let store = pq_store_mem();
    run_recorded("mixed_pq_mem", &store, &cfg);
    store.verify_parity().unwrap();
}

#[test]
fn stress_mixed_file() {
    let cfg = base_config("mixed_file");
    with_xor_store_file("mixed", |store| {
        run_recorded("mixed_file", &store, &cfg);
        store.verify_parity().unwrap();
    });
}

#[test]
fn stress_degraded_then_rebuild_mem() {
    let cfg = StressConfig {
        fail_disk: Some(2),
        rebuild: RebuildMode::AtEnd { spare: 9 },
        ..base_config("degraded_mem")
    };
    let store = xor_store_mem();
    let report = run_recorded("degraded_mem", &store, &cfg);
    assert!(!store.is_degraded());
    assert_eq!(report.rebuild.as_ref().unwrap().failed_disk, 2);
    store.verify_parity().unwrap();
}

#[test]
fn stress_degraded_then_rebuild_file() {
    let cfg = StressConfig {
        fail_disk: Some(2),
        rebuild: RebuildMode::AtEnd { spare: 9 },
        ..base_config("degraded_file")
    };
    with_xor_store_file("degraded", |store| {
        run_recorded("degraded_file", &store, &cfg);
        assert!(!store.is_degraded());
        store.verify_parity().unwrap();
    });
}

/// The acceptance run: 8 threads of mixed traffic racing a live
/// rebuild of a wiped disk, then bit-exact readback + clean parity.
#[test]
fn stress_racing_rebuild_mem() {
    let cfg = with_default_threads(
        StressConfig {
            fail_disk: Some(1),
            rebuild: RebuildMode::Racing { spare: 9 },
            ..base_config("racing_mem")
        },
        8,
    );
    let store = xor_store_mem();
    let report = run_recorded("racing_mem", &store, &cfg);
    assert!(!store.is_degraded(), "racing rebuild completed");
    assert_eq!(report.rebuild.as_ref().unwrap().spare_disk, 9);
    assert_eq!(store.physical_disk(1), 9, "logical disk redirected onto the spare");
    store.verify_parity().unwrap();
}

#[test]
fn stress_racing_rebuild_file() {
    let cfg = with_default_threads(
        StressConfig {
            fail_disk: Some(1),
            rebuild: RebuildMode::Racing { spare: 9 },
            ..base_config("racing_file")
        },
        8,
    );
    with_xor_store_file("racing", |store| {
        run_recorded("racing_file", &store, &cfg);
        assert!(!store.is_degraded());
        store.verify_parity().unwrap();
    });
}

#[test]
fn stress_racing_rebuild_pq_mem() {
    let cfg = with_default_threads(
        StressConfig {
            fail_disk: Some(4),
            rebuild: RebuildMode::Racing { spare: 9 },
            ..base_config("racing_pq_mem")
        },
        8,
    );
    let store = pq_store_mem();
    run_recorded("racing_pq_mem", &store, &cfg);
    assert!(!store.is_degraded());
    store.verify_parity().unwrap();
}

/// Online reshape racing the stress mix: the array grows by one disk
/// while the client threads hammer it — begin, dual writes, batch
/// migration, and the commit flip all overlap live traffic — then
/// the usual bit-exact sweep plus clean parity on the *target*
/// layout.
#[test]
fn stress_racing_reshape_add_mem() {
    let cfg = with_default_threads(
        StressConfig {
            rebuild: RebuildMode::ReshapeAdd { added: 1 },
            ..base_config("reshape_add_mem")
        },
        8,
    );
    let store = xor_store_mem();
    let report = run_recorded("reshape_add_mem", &store, &cfg);
    assert_eq!(store.v(), 10, "racing add committed");
    assert_eq!(report.reshape.as_ref().unwrap().to_v, 10);
    assert!(!store.reshaping());
    store.verify_parity().unwrap();
}

#[test]
fn stress_racing_reshape_remove_mem() {
    let cfg = with_default_threads(
        StressConfig {
            rebuild: RebuildMode::ReshapeRemove { removed: 1 },
            ..base_config("reshape_remove_mem")
        },
        8,
    );
    let store = xor_store_mem();
    let blocks = store.blocks();
    let report = run_recorded("reshape_remove_mem", &store, &cfg);
    assert_eq!(store.v(), 8, "racing remove committed");
    assert_eq!(store.blocks(), blocks, "remove preserves capacity");
    assert_eq!(report.reshape.as_ref().unwrap().to_v, 8);
    store.verify_parity().unwrap();
}

#[test]
fn stress_racing_reshape_add_file() {
    let cfg = with_default_threads(
        StressConfig {
            rebuild: RebuildMode::ReshapeAdd { added: 1 },
            ..base_config("reshape_add_file")
        },
        8,
    );
    with_xor_store_file("reshapeadd", |store| {
        run_recorded("reshape_add_file", &store, &cfg);
        assert_eq!(store.v(), 10);
        store.verify_parity().unwrap();
    });
}

#[test]
fn stress_racing_reshape_remove_file() {
    let cfg = with_default_threads(
        StressConfig {
            rebuild: RebuildMode::ReshapeRemove { removed: 1 },
            ..base_config("reshape_remove_file")
        },
        8,
    );
    with_xor_store_file("reshaperemove", |store| {
        run_recorded("reshape_remove_file", &store, &cfg);
        assert_eq!(store.v(), 8);
        store.verify_parity().unwrap();
    });
}

/// Write-back policy for the dedicated cache stress runs: a small
/// budget keeps the eviction path hot. An explicit `PDL_CACHE` (the
/// CI cache matrix leg) still wins, so a replay honors the
/// environment exactly.
fn write_back_config(name: &str) -> StressConfig {
    let mut cfg = base_config(name);
    if std::env::var("PDL_CACHE").is_err() {
        cfg.cache = CachePolicy::WriteBack { max_dirty: 16 };
    }
    cfg
}

/// Seeded mixed traffic with write-back combining on: every read
/// must still verify bit-for-bit — against the cache before a flush,
/// against the backend after — and the end-of-run drain must leave
/// the parity invariants intact.
#[test]
fn stress_write_back_mixed_mem() {
    let cfg = write_back_config("wb_mixed_mem");
    let store = xor_store_mem();
    run_recorded("wb_mixed_mem", &store, &cfg);
    assert_eq!(store.dirty_cache_stripes(), 0, "run ends drained");
    store.verify_parity().unwrap();
}

#[test]
fn stress_write_back_mixed_pq_mem() {
    let cfg = write_back_config("wb_mixed_pq_mem");
    let store = pq_store_mem();
    run_recorded("wb_mixed_pq_mem", &store, &cfg);
    store.verify_parity().unwrap();
}

/// The write-back acceptance run: 8 threads of cached mixed traffic
/// racing a live rebuild of a wiped disk — flush-before-transition,
/// write-through-to-spare on evicted degraded stripes, and the
/// post-run drain must all compose to a bit-exact array.
#[test]
fn stress_write_back_racing_rebuild_mem() {
    let cfg = with_default_threads(
        StressConfig {
            fail_disk: Some(1),
            rebuild: RebuildMode::Racing { spare: 9 },
            ..write_back_config("wb_racing_mem")
        },
        8,
    );
    let store = xor_store_mem();
    run_recorded("wb_racing_mem", &store, &cfg);
    assert!(!store.is_degraded(), "racing rebuild completed under write-back");
    assert_eq!(store.physical_disk(1), 9, "logical disk redirected onto the spare");
    store.verify_parity().unwrap();
}

#[test]
fn stress_write_back_racing_rebuild_file() {
    let cfg = with_default_threads(
        StressConfig {
            fail_disk: Some(1),
            rebuild: RebuildMode::Racing { spare: 9 },
            ..write_back_config("wb_racing_file")
        },
        8,
    );
    with_xor_store_file("wbracing", |store| {
        run_recorded("wb_racing_file", &store, &cfg);
        assert!(!store.is_degraded());
        store.verify_parity().unwrap();
    });
}

/// Reshape under write-back: every migration batch must flush the
/// dirty cache entries covering its source range before copying, or
/// the target world is built from stale media. Racing clients keep
/// re-dirtying stripes the whole time.
#[test]
fn stress_write_back_racing_reshape_add_mem() {
    let cfg = with_default_threads(
        StressConfig {
            rebuild: RebuildMode::ReshapeAdd { added: 1 },
            ..write_back_config("wb_reshape_add_mem")
        },
        8,
    );
    let store = xor_store_mem();
    run_recorded("wb_reshape_add_mem", &store, &cfg);
    assert_eq!(store.v(), 10);
    assert!(!store.reshaping());
    store.verify_parity().unwrap();
}

/// Deterministic flush-before-transition semantics: cached writes
/// whose stripes cross a failed disk must mark its medium stale at
/// the latest when `restore_disk` forces the flush — so restore is
/// refused for exactly the histories write-through would refuse.
#[test]
fn write_back_flush_marks_stale_before_restore_mem() {
    let store = xor_store_mem();
    store.set_cache_policy(CachePolicy::write_back()).unwrap();
    store.fail_disk(2).unwrap();
    // Dirty every stripe of copy 0: some of them cross disk 2 (their
    // parity or data unit lives there), so the eventual flush must
    // skip units on it and poison the restore.
    let per_copy = store.stripe_map().data_units_per_copy();
    let block = vec![0xeeu8; UNIT];
    for addr in 0..per_copy {
        store.write_block(addr, &block).unwrap();
    }
    assert!(store.dirty_cache_stripes() > 0, "writes deferred");
    // The restore itself drains the cache (flush-before-transition)
    // and must then refuse: the medium is stale.
    assert!(matches!(store.restore_disk(2), Err(StoreError::RebuildRequired { disk: 2, .. })));
    // A rebuild drains the failure; all acknowledged writes survive.
    Rebuilder::default().rebuild(&store, 9).unwrap();
    let mut out = vec![0u8; UNIT];
    for addr in 0..per_copy {
        store.read_block(addr, &mut out).unwrap();
        assert_eq!(out, block, "block {addr} lost after flush + rebuild");
    }
    store.verify_parity().unwrap();
}

/// Cached writes to a *failed* disk's blocks: served from the cache
/// while dirty, erasure-decoded to the same bytes after the flush,
/// and landed on the spare by the rebuild.
#[test]
fn write_back_degraded_write_read_cycle_mem() {
    let store = xor_store_mem();
    store.set_cache_policy(CachePolicy::write_back()).unwrap();
    let addrs = stripe_addrs(&store, 0);
    let lost_addr = addrs[0];
    let lost_disk = store.stripe_map().locate(lost_addr).disk as usize;
    store.backend().wipe_disk(store.physical_disk(lost_disk)).unwrap();
    store.fail_disk(lost_disk).unwrap();
    let block = vec![0x42u8; UNIT];
    store.write_block(lost_addr, &block).unwrap();
    let mut out = vec![0u8; UNIT];
    store.read_block(lost_addr, &mut out).unwrap();
    assert_eq!(out, block, "dirty lost block served from the cache");
    store.flush().unwrap();
    store.read_block(lost_addr, &mut out).unwrap();
    assert_eq!(out, block, "flushed lost block decodes from surviving parity");
    Rebuilder::default().rebuild(&store, 9).unwrap();
    store.read_block(lost_addr, &mut out).unwrap();
    assert_eq!(out, block, "rebuilt block holds the cached write");
    store.verify_parity().unwrap();
}

/// The logical data addresses of one stripe in copy 0, plus the
/// stripe index.
fn stripe_addrs<B: Backend>(store: &BlockStore<B>, si: usize) -> Vec<usize> {
    (0..store.stripe_map().data_units_per_copy())
        .filter(|&a| store.stripe_map().stripe_of(a) == si)
        .collect()
}

/// Many threads RMW-hammering *the same stripe* — each owns one data
/// block, all collide on the stripe's parity unit. The shard lock
/// must serialize the parity read-modify-writes or the stripe
/// invariant shatters.
#[test]
fn same_stripe_rmw_keeps_parity_mem() {
    let cfg = base_config("same_stripe_mem");
    let store = xor_store_mem();
    let addrs = stripe_addrs(&store, 0);
    assert!(addrs.len() >= 2, "stripe has at least two data units");
    let rounds = 200usize;
    std::thread::scope(|s| {
        for (t, &addr) in addrs.iter().enumerate() {
            let store = &store;
            let seed = cfg.seed;
            s.spawn(move || {
                let mut block = vec![0u8; UNIT];
                for r in 0..rounds {
                    support::fill_pattern(
                        addr,
                        seed ^ (((t as u64) << 32) | (r as u64 + 1)),
                        &mut block,
                    );
                    store.write_block(addr, &block).unwrap();
                }
            });
        }
    });
    // Every interleaving of the RMWs must leave the XOR invariant
    // intact — this is exactly what unsynchronized parity updates
    // lose (two writers both read old parity, last write wins, the
    // other's delta evaporates).
    store.verify_parity().unwrap();
    // And each block holds its owner's last write.
    let mut got = vec![0u8; UNIT];
    let mut want = vec![0u8; UNIT];
    for (t, &addr) in addrs.iter().enumerate() {
        store.read_block(addr, &mut got).unwrap();
        support::fill_pattern(addr, cfg.seed ^ (((t as u64) << 32) | rounds as u64), &mut want);
        assert_eq!(got, want, "seed {}: block {addr} lost its last write", cfg.seed);
    }
}

#[test]
fn same_stripe_rmw_keeps_parity_file() {
    let cfg = base_config("same_stripe_file");
    with_xor_store_file("samestripe", |store| {
        let addrs = stripe_addrs(&store, 0);
        let rounds = 100usize;
        std::thread::scope(|s| {
            for (t, &addr) in addrs.iter().enumerate() {
                let store = &store;
                let seed = cfg.seed;
                s.spawn(move || {
                    let mut block = vec![0u8; UNIT];
                    for r in 0..rounds {
                        support::fill_pattern(
                            addr,
                            seed ^ (((t as u64) << 32) | (r as u64 + 1)),
                            &mut block,
                        );
                        store.write_block(addr, &block).unwrap();
                    }
                });
            }
        });
        store.verify_parity().unwrap();
    });
}

/// Concurrent **degraded reads** of a lost block while other threads
/// RMW the *same stripe*: every decode must see the stripe at a
/// parity-consistent instant (shared shard lock vs. the writers'
/// exclusive one) and reconstruct the unchanged lost block exactly.
#[test]
fn degraded_reads_race_same_stripe_writes_mem() {
    let cfg = base_config("degraded_race_mem");
    let store = xor_store_mem();
    let addrs = stripe_addrs(&store, 0);
    assert!(addrs.len() >= 2);
    // Give every block of the stripe known content, then lose the
    // disk under the first data block. Its value is now only
    // reachable through the decode.
    let mut block = vec![0u8; UNIT];
    for &addr in &addrs {
        support::fill_pattern(addr, cfg.seed, &mut block);
        store.write_block(addr, &block).unwrap();
    }
    let lost_addr = addrs[0];
    let lost_disk = store.stripe_map().locate(lost_addr).disk as usize;
    store.backend().wipe_disk(store.physical_disk(lost_disk)).unwrap();
    store.fail_disk(lost_disk).unwrap();
    // Writers keep churning the *other* data blocks of the stripe
    // (never the lost one, so its expected bytes stay fixed); readers
    // decode the lost block concurrently and demand exactness.
    let rounds = 150usize;
    let readers = 4usize;
    std::thread::scope(|s| {
        for (t, &addr) in addrs.iter().enumerate().skip(1) {
            if store.stripe_map().locate(addr).disk as usize == lost_disk {
                continue;
            }
            let store = &store;
            let seed = cfg.seed;
            s.spawn(move || {
                let mut block = vec![0u8; UNIT];
                for r in 0..rounds {
                    support::fill_pattern(
                        addr,
                        seed ^ (((t as u64) << 32) | (r as u64 + 1)),
                        &mut block,
                    );
                    store.write_block(addr, &block).unwrap();
                }
            });
        }
        for _ in 0..readers {
            let store = &store;
            let seed = cfg.seed;
            s.spawn(move || {
                let mut got = vec![0u8; UNIT];
                let mut want = vec![0u8; UNIT];
                support::fill_pattern(lost_addr, seed, &mut want);
                for i in 0..rounds {
                    store.read_block(lost_addr, &mut got).unwrap();
                    assert_eq!(
                        got, want,
                        "seed {seed}: degraded read {i} of block {lost_addr} decoded garbage"
                    );
                }
            });
        }
    });
    // Drain the failure and prove the stripe survived the contention.
    Rebuilder::default().rebuild(&store, 9).unwrap();
    store.verify_parity().unwrap();
}

/// Failure-event error paths never move the I/O counters, and
/// counters are monotonic across successful transitions too.
#[test]
fn counters_monotonic_across_failure_events_mem() {
    let store = xor_store_mem();
    let block = vec![0x5au8; UNIT];
    store.write_block(0, &block).unwrap();
    let mut out = vec![0u8; UNIT];
    store.read_block(0, &mut out).unwrap();
    let reads0 = store.read_counts();
    let writes0 = store.write_counts();

    // Error paths: out of range, restore of a healthy disk, double
    // fail, over-tolerance fail — none may touch a counter.
    assert!(matches!(store.fail_disk(99), Err(StoreError::OutOfRange { .. })));
    assert!(matches!(store.restore_disk(3), Err(StoreError::NotFailed(3))));
    store.fail_disk(3).unwrap();
    assert!(matches!(store.fail_disk(3), Err(StoreError::AlreadyFailed(3))));
    assert!(matches!(store.fail_disk(4), Err(StoreError::TooManyFailures { .. })));
    store.restore_disk(3).unwrap();
    assert_eq!(store.read_counts(), reads0, "failure events moved read counters");
    assert_eq!(store.write_counts(), writes0, "failure events moved write counters");

    // Successful transitions interleaved with traffic: counters only
    // ever grow.
    store.fail_disk(1).unwrap();
    store.read_block(0, &mut out).unwrap();
    store.restore_disk(1).unwrap();
    store.write_block(1, &block).unwrap();
    let reads1 = store.read_counts();
    let writes1 = store.write_counts();
    assert!(reads1.iter().zip(&reads0).all(|(a, b)| a >= b), "read counters regressed");
    assert!(writes1.iter().zip(&writes0).all(|(a, b)| a >= b), "write counters regressed");

    // reset_counters is the one sanctioned way down.
    store.reset_counters();
    assert!(store.read_counts().iter().all(|&c| c == 0));
    assert!(store.write_counts().iter().all(|&c| c == 0));
}

/// The failure-state epoch observably brackets every transition, and
/// restore of a disk whose rebuild is running is refused.
#[test]
fn epoch_and_rebuild_in_progress_guards_mem() {
    let store = xor_store_mem();
    let e0 = store.epoch();
    store.fail_disk(0).unwrap();
    let e1 = store.epoch();
    assert!(e1 > e0, "fail_disk bumps the epoch");
    assert_eq!(store.rebuilding(), None);
    let report = Rebuilder::default().rebuild(&store, 9).unwrap();
    assert_eq!(report.failed_disk, 0);
    assert!(store.epoch() > e1, "rebuild bumps the epoch");
    assert_eq!(store.rebuilding(), None, "registration cleared on completion");
    // A spare that is now mapped is no longer a valid target.
    store.fail_disk(1).unwrap();
    assert!(matches!(Rebuilder::default().rebuild(&store, 9), Err(StoreError::InvalidSpare(9))));
    store.restore_disk(1).unwrap();
}
