//! Chaos battery: the multi-threaded stress harness driven over a
//! [`FaultyBackend`] whose seeded schedule injects transient errors,
//! stalling calls, and (under double parity) silent corruption —
//! while a rebuild races the traffic on a degraded array. The
//! transient-only legs assert the harness's own bit-exact final sweep
//! and parity check; the corrupting legs run pure traffic and verify
//! after quiescing (armed schedules corrupt *writes*, so in-run
//! verification would rot the very units it just repaired) — either
//! way the retry, read-repair, and checksum layers must leave the
//! array provably clean with the medium actively misbehaving.
//!
//! The scrub-stress leg additionally races a background scrub pass
//! against live traffic *and* a thread planting latent corruption
//! mid-flight, proving scrubbing, repair, and client I/O interleave
//! safely.
//!
//! Reproducibility mirrors `fault_injection.rs`: seeds are written to
//! `target/chaos/<name>.seed` before each leg (CI uploads them on
//! failure) and `PDL_CHAOS_SEED=<n>` replays exactly one seed.

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{Backend, BlockStore, CachePolicy, FileBackend, MemBackend};
use std::path::PathBuf;
use std::sync::Arc;
use support::faulty::{FaultConfig, FaultyBackend};
use support::stress::{self, RebuildMode, StressConfig};

const UNIT: usize = 64;
const COPIES: usize = 2;

fn seed_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
    std::fs::create_dir_all(&dir).expect("create seed dir");
    dir.join(format!("{name}.seed"))
}

fn seeds_under_test() -> Vec<u64> {
    if let Ok(s) = std::env::var("PDL_CHAOS_SEED") {
        vec![s.parse().expect("PDL_CHAOS_SEED must be a u64")]
    } else {
        vec![0xc4a05, 99]
    }
}

fn record_seeds(name: &str, seeds: &[u64]) {
    let body: String = seeds.iter().map(|s| format!("PDL_CHAOS_SEED={s}\n")).collect();
    std::fs::write(seed_file(name), body).expect("record seeds for CI");
}

/// Transients and stalls only — safe under any parity scheme even
/// with a concurrent whole-disk failure.
fn noisy(seed: u64) -> FaultConfig {
    FaultConfig { transient_rate: 0.003, slow_rate: 0.002, slow_us: 30, ..FaultConfig::quiet(seed) }
}

/// Transients, stalls, *and* silent corruption — only a double-parity
/// store can take this together with a failed disk (each repair may
/// need two erasures decoded).
fn hostile(seed: u64) -> FaultConfig {
    FaultConfig { corrupt_rate: 0.0008, ..noisy(seed) }
}

fn xor_faulty_mem(cfg: FaultConfig) -> Arc<BlockStore<FaultyBackend<MemBackend>>> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let mem = MemBackend::new(7 + 2, COPIES * layout.size(), UNIT);
    Arc::new(BlockStore::new(layout, FaultyBackend::new(mem, cfg)).unwrap())
}

fn pq_faulty_mem(cfg: FaultConfig) -> Arc<BlockStore<FaultyBackend<MemBackend>>> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let mem = MemBackend::new(9 + 2, COPIES * dp.layout().size(), UNIT);
    Arc::new(BlockStore::new_pq(dp, FaultyBackend::new(mem, cfg)).unwrap())
}

fn xor_faulty_file(dir: &PathBuf, cfg: FaultConfig) -> Arc<BlockStore<FaultyBackend<FileBackend>>> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let fb = FileBackend::create(dir, 7 + 2, COPIES * layout.size(), UNIT).unwrap();
    Arc::new(BlockStore::new(layout, FaultyBackend::new(fb, cfg)).unwrap())
}

fn pq_faulty_file(dir: &PathBuf, cfg: FaultConfig) -> Arc<BlockStore<FaultyBackend<FileBackend>>> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let fb = FileBackend::create(dir, 9 + 2, COPIES * dp.layout().size(), UNIT).unwrap();
    Arc::new(BlockStore::new_pq(dp, FaultyBackend::new(fb, cfg)).unwrap())
}

fn stress_cfg(seed: u64, spare: usize) -> StressConfig {
    StressConfig {
        threads: 3,
        ops_per_thread: 250,
        seed,
        fail_disk: Some(2),
        rebuild: RebuildMode::Racing { spare },
        ..StressConfig::default()
    }
}

#[test]
fn chaos_xor_mem() {
    let seeds = seeds_under_test();
    record_seeds("xor_mem", &seeds);
    for seed in seeds {
        let store = xor_faulty_mem(noisy(seed));
        let report = stress::run(&store, &stress_cfg(seed, 7)).unwrap();
        assert!(report.reads + report.writes > 0, "[chaos seed {seed}] traffic ran");
        assert!(
            store.backend().injected_transients() > 0,
            "[chaos seed {seed}] schedule must actually fire"
        );
    }
}

/// Quiesce an array whose backend has been planting silent rot, then
/// prove it clean: disarm the schedule, flush, run one catch-up scrub
/// (repairs anything injected after the last read of each unit — the
/// schedule corrupts *writes*, so even repair writes could be hit
/// while it was armed), then assert the next pass finds nothing and
/// the raw parity invariants hold.
fn quiesce_and_prove_clean<B: Backend>(store: &BlockStore<FaultyBackend<B>>, seed: u64) {
    store.backend().set_armed(false);
    store.flush().unwrap();
    store.scrub().unwrap();
    let clean = store.scrub().unwrap();
    assert_eq!(
        (clean.checksum_repairs, clean.parity_repairs),
        (0, 0),
        "[chaos seed {seed}] no latent errors survive quiescing"
    );
    store.verify_parity().unwrap();
}

#[test]
fn chaos_pq_mem() {
    let seeds = seeds_under_test();
    record_seeds("pq_mem", &seeds);
    for seed in seeds {
        let store = pq_faulty_mem(hostile(seed));
        // Silent corruption lands on *writes*, so the harness's own
        // armed-schedule verification could rot the very units it just
        // repaired: run pure traffic and verify after quiescing.
        let mut cfg = stress_cfg(seed, 9);
        cfg.verify_reads = false;
        let report = stress::run(&store, &cfg).unwrap();
        assert!(report.reads + report.writes > 0, "[chaos seed {seed}] traffic ran");
        quiesce_and_prove_clean(&store, seed);
    }
}

#[test]
fn chaos_xor_file() {
    let seeds = seeds_under_test();
    record_seeds("xor_file", &seeds);
    for seed in seeds {
        let dir = std::env::temp_dir().join(format!("pdl-chaos-xor-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = xor_faulty_file(&dir, noisy(seed));
        let mut cfg = stress_cfg(seed, 7);
        cfg.ops_per_thread = 150;
        stress::run(&store, &cfg).unwrap();
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn chaos_pq_file() {
    let seeds = seeds_under_test();
    record_seeds("pq_file", &seeds);
    for seed in seeds {
        let dir = std::env::temp_dir().join(format!("pdl-chaos-pq-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = pq_faulty_file(&dir, hostile(seed));
        let mut cfg = stress_cfg(seed, 9);
        cfg.ops_per_thread = 150;
        // See chaos_pq_mem: armed corruption + in-run verification
        // don't mix; verify after quiescing instead.
        cfg.verify_reads = false;
        stress::run(&store, &cfg).unwrap();
        quiesce_and_prove_clean(&store, seed);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A background scrub races live traffic while a third thread keeps
/// rotting units of one disk under everyone's feet: every corruption
/// is repaired either by a client read (read-repair), overwritten by
/// a client write, or caught by a scrub pass — the harness's final
/// sweep is bit-exact, and after quiescing, one catch-up scrub later
/// the array proves completely clean.
#[test]
fn chaos_scrub_races_live_traffic_and_live_rot() {
    let seeds = seeds_under_test();
    record_seeds("scrub_stress", &seeds);
    for seed in seeds {
        let store = xor_faulty_mem(noisy(seed));
        let handle = store.start_scrub().unwrap();

        // The rot thread: one unit of one disk at a time (a disk
        // appears at most once per stripe, so single-parity decode
        // always suffices), spaced so repairs interleave with new rot.
        let rot_store = store.clone();
        let rot = std::thread::spawn(move || {
            let pd = rot_store.physical_disk(3);
            for off in (0..rot_store.backend().units_per_disk()).step_by(3) {
                rot_store.backend().corrupt_unit(pd, off).unwrap();
                std::thread::sleep(std::time::Duration::from_micros(400));
            }
        });

        let cfg = StressConfig {
            threads: 3,
            ops_per_thread: 250,
            seed,
            rebuild: RebuildMode::None,
            cache: CachePolicy::WriteBack { max_dirty: 16 },
            // The rot thread may still be injecting while the harness
            // would run its final sweep — verify after quiescing.
            verify_reads: false,
            ..StressConfig::default()
        };
        let report = stress::run(&store, &cfg).unwrap();
        assert!(report.reads + report.writes > 0, "[chaos seed {seed}] traffic ran");
        rot.join().unwrap();
        // The loop runs until stopped: stop it once a pass is done.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while store.stats().integrity.scrub_passes < 1 {
            assert!(std::time::Instant::now() < deadline, "[chaos seed {seed}] no pass finished");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.stop();
        let scrub = handle.join().unwrap();
        assert!(scrub.completed, "[chaos seed {seed}] scrub pass finished under traffic");
        assert!(
            !store.backend().corruptions().is_empty(),
            "[chaos seed {seed}] the rot thread must actually have injected"
        );

        // One catch-up pass repairs any rot injected behind the racing
        // pass's cursor; the next pass must then find nothing.
        quiesce_and_prove_clean(&store, seed);
    }
}
