//! Chaos battery for the async I/O engine: the same seeded fault
//! model as `chaos.rs` — transient errors, stalling calls, torn
//! writes, silent corruption — driven through the per-disk
//! submission queues instead of the synchronous backend path. The
//! engine must be *transparent* to the fault-handling stack:
//! transients retry inside the workers with the same policy the sync
//! path uses (no error ever reaches a completion), hard failures
//! surface through the tokens exactly once each, corruption found on
//! an engine read or scrub burst repairs identically, and — the
//! engine's own contract — every token handed out is fulfilled, on
//! success, error, and shutdown alike: `completed` must equal
//! `submitted` once the traffic quiesces.
//!
//! Reproducibility mirrors `chaos.rs`: seeds land in
//! `target/chaos/engine_<name>.seed` before each leg and
//! `PDL_CHAOS_SEED=<n>` replays exactly one seed.

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_store::{
    Backend, BlockStore, EngineConfig, EngineStatsSnapshot, FileBackend, MemBackend, Rebuilder,
    RetryPolicy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::faulty::{FaultConfig, FaultyBackend};
use support::stress::{self, RebuildMode, StressConfig};

const UNIT: usize = 64;
const COPIES: usize = 2;

fn seed_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
    std::fs::create_dir_all(&dir).expect("create seed dir");
    dir.join(format!("engine_{name}.seed"))
}

fn seeds_under_test() -> Vec<u64> {
    if let Ok(s) = std::env::var("PDL_CHAOS_SEED") {
        vec![s.parse().expect("PDL_CHAOS_SEED must be a u64")]
    } else {
        vec![0xe46e, 23]
    }
}

fn record_seeds(name: &str, seeds: &[u64]) {
    let body: String = seeds.iter().map(|s| format!("PDL_CHAOS_SEED={s}\n")).collect();
    std::fs::write(seed_file(name), body).expect("record seeds for CI");
}

/// Transients and stalls only — retryable noise the engine's workers
/// must absorb without a single completion seeing an error.
fn noisy(seed: u64) -> FaultConfig {
    FaultConfig { transient_rate: 0.003, slow_rate: 0.002, slow_us: 30, ..FaultConfig::quiet(seed) }
}

/// Every armed call stalls 5 ms — a device far slower than any engine
/// hand-off, so once a disk has been timed stalling its runs queue
/// (a memory-speed disk is served on the caller's thread instead).
fn stalling(seed: u64) -> FaultConfig {
    FaultConfig { slow_rate: 1.0, slow_us: 5_000, ..FaultConfig::quiet(seed) }
}

fn xor_faulty_mem(cfg: FaultConfig) -> BlockStore<FaultyBackend<MemBackend>> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let mem = MemBackend::new(7 + 2, COPIES * layout.size(), UNIT);
    BlockStore::new(layout, FaultyBackend::new(mem, cfg)).unwrap()
}

fn pq_faulty_mem(cfg: FaultConfig) -> BlockStore<FaultyBackend<MemBackend>> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let mem = MemBackend::new(9 + 2, COPIES * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp, FaultyBackend::new(mem, cfg)).unwrap()
}

fn xor_faulty_file(dir: &PathBuf, cfg: FaultConfig) -> BlockStore<FaultyBackend<FileBackend>> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let fb = FileBackend::create(dir, 7 + 2, COPIES * layout.size(), UNIT).unwrap();
    BlockStore::new(layout, FaultyBackend::new(fb, cfg)).unwrap()
}

/// Multi-threaded stress with the engine on: every hot path routed
/// through the queues, a rebuild racing the traffic, transients and
/// stalls firing throughout, and the harness's own bit-exact final
/// sweep (also engine-served) as the correctness oracle.
fn engine_stress_case(
    name: &str,
    make: impl Fn(FaultConfig) -> BlockStore<FaultyBackend<MemBackend>>,
) {
    let seeds = seeds_under_test();
    record_seeds(name, &seeds);
    for seed in seeds {
        let store = Arc::new(make(noisy(seed)));
        let cfg = StressConfig {
            threads: 3,
            ops_per_thread: 250,
            seed,
            fail_disk: Some(2),
            rebuild: RebuildMode::Racing { spare: 7 },
            engine: Some(EngineConfig::default()),
            ..StressConfig::default()
        };
        let report = stress::run(&store, &cfg).unwrap();
        assert!(report.reads + report.writes > 0, "[chaos seed {seed}] traffic ran");
        assert!(
            store.backend().injected_transients() > 0,
            "[chaos seed {seed}] schedule must actually fire"
        );
        let eng = report.stats.engine.as_ref().expect("stats carry the live engine section");
        assert!(eng.client_submitted > 0, "[chaos seed {seed}] client ops used the queues");
        assert_eq!(
            eng.completed,
            eng.client_submitted + eng.maintenance_submitted,
            "[chaos seed {seed}] every token fulfilled once the traffic quiesced"
        );
        assert_eq!(
            eng.errors, 0,
            "[chaos seed {seed}] transients retry inside the workers, \
             identically to the sync path — none may surface"
        );
    }
}

#[test]
fn engine_chaos_transients_under_racing_rebuild_mem() {
    engine_stress_case("transients_mem", xor_faulty_mem);
}

#[test]
fn engine_chaos_transients_under_racing_rebuild_file() {
    let seeds = seeds_under_test();
    record_seeds("transients_file", &seeds);
    for seed in seeds {
        let dir =
            std::env::temp_dir().join(format!("pdl-engine-chaos-{}-{seed}", std::process::id()));
        let store = Arc::new(xor_faulty_file(&dir, noisy(seed)));
        let cfg = StressConfig {
            threads: 3,
            ops_per_thread: 250,
            seed,
            fail_disk: Some(2),
            rebuild: RebuildMode::Racing { spare: 7 },
            engine: Some(EngineConfig::default()),
            ..StressConfig::default()
        };
        let report = stress::run(&store, &cfg).unwrap();
        let eng = report.stats.engine.as_ref().expect("stats carry the live engine section");
        assert_eq!(eng.completed, eng.client_submitted + eng.maintenance_submitted);
        assert_eq!(eng.errors, 0, "[chaos seed {seed}] transients must be retried, not surfaced");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Silent corruption planted on the medium, then found and repaired
/// by a scrub whose read burst goes through the **maintenance** lane
/// of the queues: the repair outcome must be identical to the sync
/// path (everything fixed, second pass clean), and the lane split
/// must be visible in the engine counters.
#[test]
fn engine_scrub_burst_repairs_planted_corruption() {
    let seeds = seeds_under_test();
    record_seeds("scrub_repair", &seeds);
    for seed in seeds {
        let store = pq_faulty_mem(FaultConfig::quiet(seed));
        let blocks = store.blocks();
        let data = vec![0xabu8; UNIT];
        for addr in 0..blocks {
            store.write_block(addr, &data).unwrap();
        }
        // Two distinct disks: any one stripe holds at most one unit
        // of each, so no stripe exceeds the P+Q redundancy.
        store.backend().corrupt_unit(0, 3).unwrap();
        store.backend().corrupt_unit(1, 10).unwrap();
        store.start_engine(EngineConfig::default());
        let report = store.scrub().unwrap();
        assert!(
            report.checksum_repairs >= 2,
            "[chaos seed {seed}] both planted corruptions repaired (got {})",
            report.checksum_repairs
        );
        let clean = store.scrub().unwrap();
        assert_eq!(
            (clean.checksum_repairs, clean.parity_repairs),
            (0, 0),
            "[chaos seed {seed}] second engine scrub must be clean"
        );
        let eng = store.stats().engine.expect("engine running");
        assert!(
            eng.maintenance_submitted > 0,
            "[chaos seed {seed}] scrub bursts ride the maintenance lane"
        );
        assert_eq!(eng.completed, eng.client_submitted + eng.maintenance_submitted);
        store.stop_engine();
        store.verify_parity().unwrap();
        for addr in 0..blocks {
            let mut got = vec![0u8; UNIT];
            store.read_block(addr, &mut got).unwrap();
            assert_eq!(got, data, "[chaos seed {seed}] block {addr} corrupted");
        }
    }
}

/// Backend write calls so far, over every physical disk.
fn write_calls<B: Backend>(store: &BlockStore<B>) -> u64 {
    (0..store.backend().disks()).map(|d| store.backend().write_calls(d)).sum()
}

/// The no-token-leaked invariant on a live engine's counters.
fn assert_drained(eng: &EngineStatsSnapshot, what: &str) {
    assert_eq!(
        eng.completed,
        eng.client_submitted + eng.maintenance_submitted,
        "{what}: every token drained"
    );
}

/// Hard backend errors inside the workers, one input per multi-run
/// path: a torn multi-unit write under `write_blocks`, then a single
/// failed read under a multi-run `read_blocks`, a scrub stripe and a
/// rebuild prefetch chunk. Each time the first backend error must
/// reach the caller, every token must still be drained before the
/// call returns (`completed == submitted`, and for the write no
/// backend call lands afterwards), and the store must heal once the
/// schedule disarms. Armed, every call stalls, so the failing run is
/// always one a worker issued.
#[test]
fn engine_torn_write_surfaces_error_without_leaking_tokens() {
    let seeds = seeds_under_test();
    record_seeds("torn_write", &seeds);
    for seed in seeds {
        let store = xor_faulty_mem(FaultConfig { torn_rate: 1.0, ..stalling(seed) });
        let blocks = store.blocks();
        let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 251) as u8).collect();
        store.backend().set_armed(false);
        store.write_blocks(0, &data).unwrap();
        store.backend().set_armed(true);
        store.start_engine(EngineConfig::default());
        // Every multi-unit write now tears: the engine write path must
        // return an error (not hang, not panic) with all tokens
        // drained — nothing is still landing once the call is back.
        let err = store.write_blocks(0, &data);
        let calls_at_return = write_calls(&store);
        assert!(err.is_err(), "[chaos seed {seed}] torn writes must surface");
        assert!(
            store.backend().injected_torn() > 0,
            "[chaos seed {seed}] the schedule must actually tear"
        );
        let eng = store.stats().engine.expect("engine running");
        assert_drained(&eng, &format!("[chaos seed {seed}] torn write_blocks"));
        assert!(eng.errors > 0, "[chaos seed {seed}] failures counted");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            write_calls(&store),
            calls_at_return,
            "[chaos seed {seed}] no backend write may land after write_blocks returned"
        );
        // Disarm and heal: rewrite through the still-running engine.
        store.backend().set_armed(false);
        store.write_blocks(0, &data).unwrap();

        // The read-side inputs. With no retry budget one forced
        // transient is one hard error: exactly one run of each batch
        // fails while its siblings are in flight.
        store.backend().set_armed(true);
        store.set_retry_policy(RetryPolicy { max_retries: 0, backoff_us: 0 });
        let fail_one = || store.backend().fail_next(1);
        let inputs: [(&str, &dyn Fn() -> bool); 3] = [
            ("multi-run read_blocks", &|| {
                fail_one();
                store.read_blocks(0, &mut vec![0u8; blocks * UNIT]).is_err()
            }),
            ("scrub stripe", &|| {
                fail_one();
                store.scrub().is_err()
            }),
            ("rebuild prefetch chunk", &|| {
                store.fail_disk(2).unwrap();
                fail_one();
                let failed = Rebuilder::new(1).rebuild(&store, 7).is_err();
                store.restore_disk(2).unwrap();
                failed
            }),
        ];
        for (what, input) in inputs {
            let before = store.stats().engine.expect("engine running").errors;
            assert!(input(), "[chaos seed {seed}] {what}: the backend error must surface");
            let eng = store.stats().engine.expect("engine running");
            assert_drained(&eng, &format!("[chaos seed {seed}] {what}"));
            assert_eq!(eng.errors, before + 1, "[chaos seed {seed}] {what}: one run failed");
        }
        store.backend().set_armed(false);

        // Prove the bytes and the parity invariants.
        let mut all = vec![0u8; blocks * UNIT];
        store.read_blocks(0, &mut all).unwrap();
        assert_eq!(all, data, "[chaos seed {seed}] contents corrupted after heal");
        store.stop_engine();
        store.verify_parity().unwrap();
    }
}

/// A torn spare write while the next chunk's prefetch is in flight.
/// Armed, every call stalls and every multi-unit write tears, so the
/// rebuild's first spare write fails on an engine worker while the
/// worker reads its second chunk. The rebuild must fail with every
/// token drained, leave the disk failed and its redirect unflipped,
/// and record no checksum for the spare; disarmed, a retried rebuild
/// heals the store bit-exact.
fn torn_spare_case<B: Backend + 'static>(seed: u64, store: &BlockStore<FaultyBackend<B>>) {
    const SPARE: usize = 7;
    let blocks = store.blocks();
    let data: Vec<u8> = (0..blocks * UNIT).map(|i| (i % 241) as u8).collect();
    store.backend().set_armed(false);
    store.write_blocks(0, &data).unwrap();
    store.fail_disk(2).unwrap();
    store.start_engine(EngineConfig::default());
    store.backend().set_armed(true);
    let rebuilder = Rebuilder::new(1).chunk_size(4);
    assert!(rebuilder.rebuild(store, SPARE).is_err(), "[chaos seed {seed}] the tear must surface");
    assert!(store.backend().injected_torn() > 0, "[chaos seed {seed}] the schedule must tear");
    let eng = store.stats().engine.expect("engine running");
    assert_drained(&eng, &format!("[chaos seed {seed}] torn spare write"));
    assert!(eng.errors > 0, "[chaos seed {seed}] failures counted");
    assert!(store.failed_disks().contains(2), "[chaos seed {seed}] the disk stays failed");
    assert_eq!(store.physical_disk(2), 2, "[chaos seed {seed}] the redirect is unflipped");
    assert_eq!(store.rebuilding(), None, "[chaos seed {seed}] the rebuild unregistered");
    let units = store.backend().units_per_disk();
    assert!(
        (0..units).all(|off| !store.checksum_recorded(SPARE, off)),
        "[chaos seed {seed}] a checksum was recorded for a spare write that did not land"
    );

    store.backend().set_armed(false);
    rebuilder.rebuild(store, SPARE).unwrap();
    let mut back = vec![0u8; blocks * UNIT];
    store.read_blocks(0, &mut back).unwrap();
    assert!(back == data, "[chaos seed {seed}] the retried rebuild returns the original bytes");
    store.stop_engine();
    store.verify_parity().unwrap();
}

#[test]
fn engine_torn_spare_write_with_next_prefetch_in_flight_mem() {
    let seeds = seeds_under_test();
    record_seeds("torn_spare_mem", &seeds);
    for seed in seeds {
        torn_spare_case(seed, &xor_faulty_mem(FaultConfig { torn_rate: 1.0, ..stalling(seed) }));
    }
}

#[test]
fn engine_torn_spare_write_with_next_prefetch_in_flight_file() {
    let seeds = seeds_under_test();
    record_seeds("torn_spare_file", &seeds);
    for seed in seeds {
        let dir = std::env::temp_dir()
            .join(format!("pdl-engine-torn-spare-{}-{seed}", std::process::id()));
        let cfg = FaultConfig { torn_rate: 1.0, ..stalling(seed) };
        torn_spare_case(seed, &xor_faulty_file(&dir, cfg));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The warm-up trap: disks timed fast while the device stalls nowhere
/// must leave the inline route within a few batches once every call
/// stalls, and regain it once the stalls stop — each route times the
/// disk it serves, so neither can hold a disk on a stale estimate.
/// One 16-block `read_blocks` over and over; each batch reports the
/// runs it kept inline and the runs it queued.
#[test]
fn engine_route_follows_the_device_through_stalls() {
    let seeds = seeds_under_test();
    record_seeds("route", &seeds);
    for seed in seeds {
        let store = xor_faulty_mem(stalling(seed));
        store.backend().set_armed(false);
        let mut buf: Vec<u8> = (0..16 * UNIT).map(|i| i as u8).collect();
        store.write_blocks(0, &buf).unwrap();
        store.start_engine(EngineConfig::default());
        let mut batch = || {
            let tally = |e: EngineStatsSnapshot| {
                let inline = e.disks.iter().map(|d| d.inline).sum::<u64>();
                (inline, e.client_submitted)
            };
            let before = tally(store.stats().engine.expect("engine running"));
            store.read_blocks(0, &mut buf).unwrap();
            let after = tally(store.stats().engine.expect("engine running"));
            (after.0 - before.0, after.1 - before.1)
        };
        let all_inline = |(inline, queued): (u64, u64)| inline > 0 && queued == 0;
        let all_queued = |(inline, queued): (u64, u64)| inline == 0 && queued > 0;
        assert!(all_queued(batch()), "[chaos seed {seed}] untimed disks queue");
        let warm = (1..=8).find(|_| all_inline(batch()));
        assert!(warm.is_some(), "[chaos seed {seed}] memory-speed disks never went inline");
        store.backend().set_armed(true);
        let stalled = (1..=4).find(|_| all_queued(batch()));
        assert!(stalled.is_some(), "[chaos seed {seed}] stalling disks stayed inline");
        store.backend().set_armed(false);
        let recovered = (1..=128).find(|_| all_inline(batch()));
        assert!(recovered.is_some(), "[chaos seed {seed}] recovered disks stayed queued");
        let eng = store.stop_engine().expect("engine was running");
        assert_drained(&eng, &format!("[chaos seed {seed}] route"));
        assert_eq!(eng.errors, 0);
    }
}

/// Forced transients around engine shutdown: tokens submitted right
/// before `stop_engine` are all fulfilled (served or failed by the
/// drain sweep), and a stopped engine rejects new submissions instead
/// of hanging.
#[test]
fn engine_stop_under_forced_transients_fulfils_everything() {
    let seeds = seeds_under_test();
    record_seeds("stop_drain", &seeds);
    for seed in seeds {
        let store = xor_faulty_mem(noisy(seed));
        store.start_engine(EngineConfig { workers: 2 });
        store.backend().fail_next(3);
        let mut buf = vec![0u8; UNIT];
        // Reads retry through the forced transients exactly like the
        // sync path — the client sees clean data, not errors.
        for addr in 0..8 {
            store.read_block(addr, &mut buf).unwrap();
        }
        let eng = store.stats().engine.expect("engine running");
        assert_eq!(eng.errors, 0, "[chaos seed {seed}] forced transients retried");
        store.stop_engine();
        // After stop the store transparently falls back to the sync
        // path — reads still work.
        store.read_block(0, &mut buf).unwrap();
        assert!(store.stats().engine.is_none(), "engine section absent once stopped");
    }
}

/// `start_engine` / `stop_engine` under live traffic must be
/// invisible: two clients issue 16-block `read_blocks` /
/// `write_blocks` 2:1 on disjoint halves, each checked against its
/// shadow copy, while the main thread cycles start → (start over the
/// running engine) → stop. No client call may fail, no write may be
/// half-applied (read-back equals the shadow, parity verifies), and
/// every engine instance must end fully drained.
fn toggle_case<B: Backend + 'static>(seed: u64, store: &BlockStore<B>) {
    const BATCH: usize = 16;
    const CYCLES: usize = 200;
    let half = store.blocks() / 2;
    let mut shadow: Vec<u8> = (0..2 * half * UNIT).map(|i| (i % 249) as u8).collect();
    store.write_blocks(0, &shadow).unwrap();
    let done = AtomicBool::new(false);
    let (lo, hi) = shadow.split_at_mut(half * UNIT);
    let (calls, errors, finals) = std::thread::scope(|s| {
        let clients: Vec<_> = [lo, hi]
            .into_iter()
            .enumerate()
            .map(|(t, mine)| {
                let done = &done;
                s.spawn(move || {
                    let mut rng = seed ^ (t as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                    let mut buf = vec![0u8; BATCH * UNIT];
                    let (mut calls, mut errors) = (0u64, Vec::new());
                    while !done.load(Ordering::Acquire) && errors.is_empty() {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let at = (rng >> 33) as usize % (half - BATCH + 1);
                        let span = at * UNIT..(at + BATCH) * UNIT;
                        let res = if (rng >> 20).is_multiple_of(3) {
                            buf.fill((rng >> 8) as u8);
                            let res = store.write_blocks(t * half + at, &buf);
                            mine[span].copy_from_slice(&buf);
                            res
                        } else {
                            let res = store.read_blocks(t * half + at, &mut buf);
                            if res.is_ok() {
                                assert_eq!(
                                    buf, mine[span],
                                    "[chaos seed {seed}] stale read at {at}"
                                );
                            }
                            res
                        };
                        calls += 1;
                        errors.extend(res.err().map(|e| e.to_string()));
                    }
                    (calls, errors)
                })
            })
            .collect();
        let mut finals: Vec<EngineStatsSnapshot> = Vec::new();
        let pause = || std::thread::sleep(Duration::from_micros(300));
        for cycle in 0..CYCLES {
            finals.extend(store.start_engine(EngineConfig::default()));
            pause();
            if cycle % 4 == 0 {
                finals.extend(store.start_engine(EngineConfig::default()));
                pause();
            }
            finals.extend(store.stop_engine());
            pause();
        }
        done.store(true, Ordering::Release);
        let (mut calls, mut errors) = (0, Vec::new());
        for c in clients {
            let (n, errs) = c.join().expect("client thread");
            calls += n;
            errors.extend(errs);
        }
        (calls, errors, finals)
    });
    assert!(calls > 0, "[chaos seed {seed}] traffic ran");
    assert!(
        errors.is_empty(),
        "[chaos seed {seed}] client calls failed under the toggle: {errors:?}"
    );
    assert_eq!(finals.len(), CYCLES + CYCLES.div_ceil(4), "one final snapshot per engine instance");
    for eng in &finals {
        assert_drained(eng, &format!("[chaos seed {seed}] stopped engine"));
    }
    assert!(
        finals.iter().any(|e| e.client_submitted > 0),
        "[chaos seed {seed}] some traffic went through the queues"
    );
    assert!(store.stats().engine.is_none(), "the last cycle left the engine off");
    let mut got = vec![0u8; shadow.len()];
    store.read_blocks(0, &mut got).unwrap();
    assert!(got == shadow, "[chaos seed {seed}] read-back differs from the shadow copy");
    store.verify_parity().unwrap();
}

/// Enough capacity for two clients to batch on disjoint halves.
const TOGGLE_COPIES: usize = 8;

#[test]
fn engine_toggled_under_live_traffic_is_invisible_mem() {
    let seeds = seeds_under_test();
    record_seeds("toggle_mem", &seeds);
    for seed in seeds {
        let layout = RingLayout::for_v_k(9, 4).layout().clone();
        let mem = MemBackend::new(9, TOGGLE_COPIES * layout.size(), UNIT);
        toggle_case(seed, &BlockStore::new(layout, mem).unwrap());
    }
}

#[test]
fn engine_toggled_under_live_traffic_is_invisible_file() {
    let seeds = seeds_under_test();
    record_seeds("toggle_file", &seeds);
    for seed in seeds {
        let dir =
            std::env::temp_dir().join(format!("pdl-engine-toggle-{}-{seed}", std::process::id()));
        let layout = RingLayout::for_v_k(9, 4).layout().clone();
        let fb = FileBackend::create(&dir, 9, TOGGLE_COPIES * layout.size(), UNIT).unwrap();
        toggle_case(seed, &BlockStore::new(layout, fb).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
