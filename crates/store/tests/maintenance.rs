//! Background-maintenance suite: the store-owned reshape driver and
//! the background (paced, pass after pass) scrubber, alone and racing each other under
//! client traffic (the CI maintenance matrix runs the `${mode}_${backend}`
//! tests at 2/4/8 threads under both cache policies), plus the
//! kill-and-reopen battery proving a stopped driver resumes at the
//! persisted cursor, the rate-based health auto-fail, and the
//! checksum-sidecar incremental log's torn-tail crash window.
//!
//! Reproducibility mirrors the concurrency suite: racing schedules
//! derive from a seed recorded to `target/stress/<name>.seed` before
//! the run, and `PDL_STRESS_SEED` / `PDL_STRESS_THREADS` replay one.

mod support;

use pdl_core::RingLayout;
use pdl_store::{
    create_file_store, open_file_store, Backend, BlockStore, FileBackend, MemBackend,
    ReshapeDriverConfig, StoreError, SUMS_FILE, SUMS_LOG_FILE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::faulty::{FaultConfig, FaultyBackend};
use support::fill_pattern;
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

fn base_config(name: &str) -> StressConfig {
    let cfg = StressConfig { ops_per_thread: 300, ..StressConfig::default() }.with_env_overrides();
    record_seed(name, cfg.seed);
    cfg
}

fn with_default_threads(mut cfg: StressConfig, threads: usize) -> StressConfig {
    if std::env::var("PDL_STRESS_THREADS").is_err() {
        cfg.threads = threads;
    }
    cfg
}

fn xor_store_mem() -> BlockStore<MemBackend> {
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let backend = MemBackend::new(9 + 2, COPIES * layout.size(), UNIT);
    BlockStore::new(layout, backend).unwrap()
}

/// Runs `f` with a file-backed XOR store in a fresh temp dir.
fn with_xor_store_file(name: &str, f: impl FnOnce(BlockStore<FileBackend>)) {
    let dir = std::env::temp_dir().join(format!("pdl-maint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let backend = FileBackend::create(&dir, 9 + 2, COPIES * layout.size(), UNIT).unwrap();
    f(BlockStore::new(layout, backend).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn prefill<B: Backend>(store: &BlockStore<B>, salt: u64) {
    let mut block = vec![0u8; store.unit_size()];
    for addr in 0..store.blocks() {
        fill_pattern(addr, salt, &mut block);
        store.write_block(addr, &block).unwrap();
    }
}

/// Physical disks not mapped to any logical disk (reshape candidates).
fn spares<B: Backend>(store: &BlockStore<B>) -> Vec<usize> {
    let mapped: Vec<usize> = (0..store.v()).map(|d| store.physical_disk(d)).collect();
    (0..store.backend().disks()).filter(|p| !mapped.contains(p)).collect()
}

/// Polls `cond` (on the stats snapshot) until it holds or `timeout`
/// elapses; panics with `what` on timeout.
fn wait_for<B: Backend>(
    store: &BlockStore<B>,
    timeout: Duration,
    what: &str,
    cond: impl Fn(&pdl_store::StatsSnapshot) -> bool,
) {
    let deadline = Instant::now() + timeout;
    loop {
        if cond(&store.stats()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The background scrubber on an idle store: passes complete back to
/// back, each rest ends in a restart, a second scrub is refused while
/// the loop owns the slot, and the report agrees with the store's
/// counters.
fn scrub_continuous_case<B: Backend + 'static>(store: Arc<BlockStore<B>>) {
    prefill(&store, 0x5eed);
    let handle = store.start_scrub().unwrap();

    // At least one full pass, one rest, and one restarted pass must be
    // observable from stats alone.
    wait_for(&store, Duration::from_secs(30), "two background passes", |s| {
        s.integrity.scrub_passes >= 2 && s.maintenance.idle_restarts >= 1
    });
    let live = store.stats();
    assert!(live.maintenance.scrub_active, "loop advertises itself in stats");
    assert!(
        matches!(store.scrub(), Err(StoreError::ScrubInProgress)),
        "foreground scrub admission is refused while the loop runs"
    );
    assert!(
        matches!(store.start_scrub(), Err(StoreError::ScrubInProgress)),
        "a second background loop is refused"
    );

    handle.stop();
    let report = handle.join().unwrap();
    assert!(report.passes >= 2, "expected >=2 completed passes, got {}", report.passes);
    assert!(report.completed);
    assert!(report.stripes > 0);
    assert_eq!(report.checksum_repairs, 0, "clean store needs no repairs");
    assert_eq!(report.parity_repairs, 0);

    let after = store.stats();
    assert!(!after.maintenance.scrub_active, "flag cleared on join");
    assert_eq!(after.integrity.scrub_passes, report.passes, "every pass was the loop's");
    // Every pass but the first opened after a rest; a pass opened
    // after the last rest may have been cut by the stop.
    let restarts = after.maintenance.idle_restarts;
    assert!(
        restarts == report.passes - 1 || restarts == report.passes,
        "{restarts} restarts for {} passes",
        report.passes
    );
    // The slot is free again: a foreground pass runs clean.
    let pass = store.scrub().expect("slot released after the loop stopped");
    assert!(pass.completed);
    assert_eq!(pass.passes, 1);
    assert_eq!(pass.checksum_repairs, 0);
    let done = store.stats();
    assert_eq!(done.integrity.scrub_passes, report.passes + 1, "one pass per call");
    assert_eq!(done.maintenance.idle_restarts, restarts, "a foreground pass never rests");
    assert_eq!(done.maintenance.scrub_yields, 0, "no reshape ran, so no scrub ever yielded to one");
    store.verify_parity().unwrap();
}

#[test]
fn maintenance_scrub_continuous_mem() {
    scrub_continuous_case(Arc::new(xor_store_mem()));
}

#[test]
fn maintenance_scrub_continuous_file() {
    with_xor_store_file("scrub-cont", |store| scrub_continuous_case(Arc::new(store)));
}

/// Which way a background reshape resizes the array.
#[derive(Clone, Copy)]
enum Resize {
    /// `begin_add_disks` onto one unmapped spare.
    Grow,
    /// `begin_remove_disks` of the highest logical disk.
    Shrink,
}

/// The background reshape driver as fire-and-forget capacity growth
/// or shrink: a begun reshape that `start_reshape_driver` drives to
/// commit while a writer keeps re-salting a region; the resized array
/// must be bit-exact and the scheduler must refuse a second driver.
fn reshape_driver_case<B: Backend + 'static>(store: Arc<BlockStore<B>>, resize: Resize) {
    let salt = 0xd21fe2u64;
    prefill(&store, salt);
    let salts: Vec<AtomicU64> = (0..store.blocks()).map(|_| AtomicU64::new(salt)).collect();

    assert!(
        matches!(
            store.start_reshape_driver(ReshapeDriverConfig::default()),
            Err(StoreError::NoActiveReshape)
        ),
        "a driver without a begun reshape is refused (and must not wedge the slot)"
    );

    let v = store.v();
    let to_v = match resize {
        Resize::Grow => {
            store.begin_add_disks(&[spares(&store)[0]]).unwrap();
            v + 1
        }
        Resize::Shrink => {
            store.begin_remove_disks(&[v - 1]).unwrap();
            v - 1
        }
    };
    let cfg = ReshapeDriverConfig { stripes_per_step: 0, sleep_us: 100 };
    let handle = store.start_reshape_driver(cfg).unwrap();
    assert!(
        matches!(
            store.drive_reshape(&ReshapeDriverConfig::default()),
            Err(StoreError::ReshapeDriverInProgress)
        ),
        "one driver at a time"
    );

    // Re-salt a region while the driver migrates underneath it.
    let region = store.blocks() / 4;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let salts = &salts;
        let store = &store;
        s.spawn(move || {
            let mut buf = vec![0u8; store.unit_size()];
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) {
                let addr = (n % region as u64) as usize;
                let new_salt = salt ^ (0x1000 + n);
                fill_pattern(addr, new_salt, &mut buf);
                store.write_block(addr, &buf).unwrap();
                salts[addr].store(new_salt, Ordering::Release);
                n += 1;
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let report = handle.join().unwrap();
        stop.store(true, Ordering::Release);
        let commit = report.report.expect("a never-stopped driver runs to commit");
        assert_eq!(commit.to_v, to_v);
        assert!(report.steps > 0);
    });

    assert_eq!(store.v(), to_v, "the driver committed the reshape");
    assert!(!store.reshaping());
    let m = store.stats().maintenance;
    assert_eq!(m.driver_runs, 1);
    assert!(m.driver_steps > 0);
    assert!(!m.reshape_driver_active, "flag cleared after commit");

    // Old capacity bit-exact against the shadow salts; new capacity
    // (if any) zero-filled is the reshape suite's concern.
    let mut got = vec![0u8; store.unit_size()];
    let mut want = vec![0u8; store.unit_size()];
    for (addr, s) in salts.iter().enumerate() {
        store.read_block(addr, &mut got).unwrap();
        fill_pattern(addr, s.load(Ordering::Acquire), &mut want);
        assert_eq!(got, want, "block {addr} not bit-exact after the background reshape");
    }
    store.verify_parity().unwrap();
}

#[test]
fn maintenance_reshape_driver_mem() {
    reshape_driver_case(Arc::new(xor_store_mem()), Resize::Grow);
}

#[test]
fn maintenance_reshape_driver_file() {
    with_xor_store_file("driver", |store| reshape_driver_case(Arc::new(store), Resize::Grow));
}

#[test]
fn maintenance_shrink_reshape_driver_mem() {
    reshape_driver_case(Arc::new(xor_store_mem()), Resize::Shrink);
}

#[test]
fn maintenance_shrink_reshape_driver_file() {
    with_xor_store_file("shrink", |store| reshape_driver_case(Arc::new(store), Resize::Shrink));
}

/// Both maintenance tasks racing full client traffic: the stress
/// harness's `BackgroundMaintenance` mode runs a background scrubber
/// *and* an add-disks driver under the seeded mixed workload. The
/// reshape must commit, the scrubber must have run, and the array
/// must verify.
fn both_racing_case<B: Backend + 'static>(name: &str, store: &Arc<BlockStore<B>>) {
    let cfg = with_default_threads(base_config(name), 8);
    let cfg = StressConfig { rebuild: RebuildMode::BackgroundMaintenance { added: 1 }, ..cfg };
    let report = stress::run(store, &cfg).unwrap();
    report
        .write_stats_json(seed_file(name).with_extension("stats.json"))
        .expect("record stats for CI");

    let reshape = report.reshape.as_ref().expect("background driver committed the reshape");
    assert_eq!(reshape.to_v, 10);
    let scrub = report.scrub.as_ref().expect("background scrubber ran");
    assert!(scrub.stripes > 0 || scrub.passes > 0, "scrubber did some work");
    assert_eq!(report.stats.maintenance.driver_runs, 1);
    assert!(!report.stats.maintenance.reshape_driver_active);
    assert!(!report.stats.maintenance.scrub_active);
    assert_eq!(store.v(), 10);
    store.verify_parity().unwrap();
}

#[test]
fn maintenance_both_racing_mem() {
    both_racing_case("maint_both_racing_mem", &Arc::new(xor_store_mem()));
}

#[test]
fn maintenance_both_racing_file() {
    with_xor_store_file("both-racing", |store| {
        both_racing_case("maint_both_racing_file", &Arc::new(store));
    });
}

/// The acceptance battery: a file store running a background scrub, a
/// background add-disks driver, and live writes is stopped mid-flight
/// (the driver checkpoints its cursor) and dropped — the kill. The
/// reopened store must resume the reshape at the persisted cursor
/// (not from zero), a fresh driver must report the resume and run to
/// commit, and the array must come out bit-exact.
#[test]
fn maintenance_driver_resumes_at_persisted_cursor_file() {
    for seed in [0x900d_5eedu64, 0x0ba7_7e21, 0x7e57_ab1e] {
        record_seed("maint_resume_file", seed);
        let dir =
            std::env::temp_dir().join(format!("pdl-maint-resume-{seed:x}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = RingLayout::for_v_k(9, 4).layout().clone();
        let store = Arc::new(create_file_store(&dir, layout, UNIT, COPIES, 2).unwrap());
        prefill(&store, seed);
        let salts: Vec<AtomicU64> = (0..store.blocks()).map(|_| AtomicU64::new(seed)).collect();

        let scrub = store.start_scrub().unwrap();
        let joining = vec![spares(&*store)[0]];
        store.begin_add_disks(&joining).unwrap();
        let driver = store
            .start_reshape_driver(ReshapeDriverConfig { stripes_per_step: 1, sleep_us: 1500 })
            .unwrap();

        let region = store.blocks() / 4;
        let stop_writes = AtomicBool::new(false);
        let cursor = std::thread::scope(|s| {
            let stop_writes = &stop_writes;
            let salts = &salts;
            let store_ref: &BlockStore<FileBackend> = &store;
            s.spawn(move || {
                let mut buf = vec![0u8; store_ref.unit_size()];
                let mut n = 0u64;
                while !stop_writes.load(Ordering::Acquire) {
                    let addr = (seed.wrapping_add(n) % region as u64) as usize;
                    let new_salt = seed ^ (0x4000 + n);
                    fill_pattern(addr, new_salt, &mut buf);
                    store_ref.write_block(addr, &buf).unwrap();
                    salts[addr].store(new_salt, Ordering::Release);
                    n += 1;
                    std::thread::sleep(Duration::from_micros(100));
                }
            });

            wait_for(&store, Duration::from_secs(30), "migration progress", |st| {
                st.reshape.as_ref().is_some_and(|r| r.stripes_done >= 2)
            });
            driver.stop();
            let rep = driver.join().unwrap();
            assert!(
                rep.report.is_none(),
                "seed {seed:x}: driver finished before the stop landed — shrink the poll target"
            );
            stop_writes.store(true, Ordering::Release);
            store.stats().reshape.expect("reshape still active after stop").stripes_done
        });
        scrub.stop();
        scrub.join().unwrap();
        assert!(cursor >= 2);
        drop(store); // the kill: no flush, no graceful close

        let reopened = Arc::new(open_file_store(&dir).unwrap());
        assert!(reopened.reshaping(), "reopen resumes the migrate phase");
        let resumed = reopened.stats().reshape.expect("resumed runtime visible").stripes_done;
        assert_eq!(
            resumed, cursor,
            "seed {seed:x}: the stop-checkpoint made the live cursor durable"
        );

        let driver2 = reopened
            .start_reshape_driver(ReshapeDriverConfig { stripes_per_step: 4, sleep_us: 0 })
            .unwrap();
        let rep2 = driver2.join().unwrap();
        assert_eq!(rep2.resumed_from, resumed, "seed {seed:x}: driver attached at the checkpoint");
        let commit = rep2.report.expect("second driver runs to commit");
        assert_eq!(commit.to_v, 10);
        let m = reopened.stats().maintenance;
        assert_eq!(m.driver_resumes, 1, "the resume was counted");
        assert_eq!(m.driver_runs, 1);
        assert_eq!(reopened.v(), 10);

        // Bit-exact against the shadow salts. The checksum sidecar may
        // be stale inside the crash window — read-repair self-heals it
        // — so sweep first, then prove a scrub converges to clean.
        let mut got = vec![0u8; reopened.unit_size()];
        let mut want = vec![0u8; reopened.unit_size()];
        for (addr, s) in salts.iter().enumerate() {
            reopened.read_block(addr, &mut got).unwrap();
            fill_pattern(addr, s.load(Ordering::Acquire), &mut want);
            assert_eq!(got, want, "seed {seed:x}: block {addr} not bit-exact after resume");
        }
        reopened.scrub().unwrap();
        let clean = reopened.scrub().unwrap();
        assert_eq!(clean.checksum_repairs, 0, "seed {seed:x}: second scrub is clean");
        assert_eq!(clean.parity_repairs, 0);
        reopened.verify_parity().unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Rate-based health auto-fail, end to end through the read path: a
/// burst of read-repairs on one disk trips the decaying-window policy
/// and the store takes the disk out of service; the same number of
/// repairs spread across many windows never trips it.
#[test]
fn maintenance_rate_autofail_burst_not_drizzle_mem() {
    let seed = 0xdecafu64;
    let mk = || {
        let layout = RingLayout::for_v_k(7, 3).layout().clone();
        let mem = MemBackend::new(7 + 2, 2 * layout.size(), UNIT);
        BlockStore::new(layout, FaultyBackend::new(mem, FaultConfig::quiet(seed))).unwrap()
    };

    // Burst: every unit of one disk rots; a sweep repairs them back to
    // back, well inside the 60s window, and the policy trips.
    let store = mk();
    store.set_health_rate_policy(4, 60_000);
    prefill(&store, seed);
    let pd = store.physical_disk(4);
    for off in 0..store.backend().units_per_disk() {
        store.backend().corrupt_unit(pd, off).unwrap();
    }
    let mut buf = vec![0u8; UNIT];
    for addr in 0..store.blocks() {
        store.read_block(addr, &mut buf).unwrap();
        if store.is_degraded() {
            break;
        }
    }
    let health = store.stats().integrity.disk_health;
    let h = health.iter().find(|h| h.disk == pd).expect("rotting disk tracked");
    assert!(h.auto_failed, "burst of repairs tripped the rate policy");
    assert!(h.recent >= 4, "recent-window counter crossed the threshold, got {}", h.recent);
    assert!(matches!(store.fail_disk(4), Err(StoreError::AlreadyFailed(4))));

    // Drizzle: the same corruption, but reads spaced so each repair
    // lands in its own (short) window — the counter decays between
    // them and the disk stays in service despite >=4 total repairs.
    let store = mk();
    store.set_health_rate_policy(4, 40);
    prefill(&store, seed);
    let pd = store.physical_disk(4);
    for off in 0..store.backend().units_per_disk() {
        store.backend().corrupt_unit(pd, off).unwrap();
    }
    let mut repairs_seen = 0u64;
    for addr in 0..store.blocks() {
        let before = store.stats().integrity.checksum_repairs;
        store.read_block(addr, &mut buf).unwrap();
        if store.stats().integrity.checksum_repairs > before {
            repairs_seen += 1;
            if repairs_seen >= 6 {
                break;
            }
            // Sit out more than a full window so the counter halves.
            std::thread::sleep(Duration::from_millis(80));
        }
    }
    assert!(repairs_seen >= 5, "drizzle produced {repairs_seen} repairs; need >=5 for the proof");
    assert!(!store.is_degraded(), "spread-out repairs must not trip the rate policy");
    let health = store.stats().integrity.disk_health;
    let h = health.iter().find(|h| h.disk == pd).expect("drizzled disk tracked");
    assert!(!h.auto_failed);
    assert!(h.repairs >= 5, "cumulative score still counts every repair");
}

/// The incremental checksum-sidecar log's crash window: flushes after
/// the base write append dirty entries to `checksums.log`; a reopen
/// replays them (a scrub is clean, proving the reopened table matches
/// the rewritten content); and a torn tail — the crash landing mid
/// append — is detected and ignored without failing the open.
#[test]
fn maintenance_torn_sums_log_crash_window_file() {
    let dir = std::env::temp_dir().join(format!("pdl-maint-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = RingLayout::for_v_k(9, 4).layout().clone();
    let store = create_file_store(&dir, layout, UNIT, 2, 2).unwrap();
    let salt = 0x70e2u64;
    prefill(&store, salt);
    store.flush().unwrap(); // first persist: full base rewrite
    let base_len = std::fs::metadata(dir.join(SUMS_FILE)).unwrap().len();

    // Rewrite a slice of blocks and flush twice — both flushes must
    // append to the log instead of rewriting the base.
    let mut buf = vec![0u8; UNIT];
    for pass in 0..2u64 {
        for addr in 0..8 {
            fill_pattern(addr, salt ^ (1 + pass), &mut buf);
            store.write_block(addr, &buf).unwrap();
        }
        store.flush().unwrap();
    }
    assert_eq!(
        std::fs::metadata(dir.join(SUMS_FILE)).unwrap().len(),
        base_len,
        "incremental flushes left the base table alone"
    );
    let log_len = std::fs::metadata(dir.join(SUMS_LOG_FILE)).unwrap().len();
    assert!(log_len > 0, "dirty entries were appended to the log");
    drop(store); // crash: the freshest sums live only in the log

    // Replay proof: if the reopened table still held the base's stale
    // sums for the rewritten blocks, the scrub would "repair" them.
    let store = open_file_store(&dir).unwrap();
    let report = store.scrub().unwrap();
    assert_eq!(report.checksum_repairs, 0, "log replay restored the fresh sums");
    for addr in 0..8 {
        store.read_block(addr, &mut buf).unwrap();
        let mut want = vec![0u8; UNIT];
        fill_pattern(addr, salt ^ 2, &mut want);
        assert_eq!(buf, want, "block {addr} reads the rewritten content");
    }
    drop(store);

    // Torn tail: a crash mid-append leaves a partial record. The open
    // must succeed, keep every complete record, and ignore the tail.
    for garbage in [&b"PSL1\x02\x00\x00"[..], &[0xffu8; 19][..]] {
        use std::io::Write as _;
        // `create(true)`: the previous round's scrub flush compacted
        // the (torn) log away, so the second round starts one afresh.
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(SUMS_LOG_FILE))
            .unwrap();
        f.write_all(garbage).unwrap();
        drop(f);
        let store = open_file_store(&dir).unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(report.checksum_repairs, 0, "torn tail ignored, complete prefix still applied");
        store.verify_parity().unwrap();
        drop(store);
        // The scrub's own flush compacts: the log resets and the next
        // torn-tail round starts from a clean base again.
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
