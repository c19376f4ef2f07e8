//! Fault-injection test harness: seeded-random schedules of writes,
//! disk failures (with the dead medium wiped, so any read that leaks
//! through to it surfaces as corruption rather than luck), degraded
//! reads, and rebuilds onto cycling spares — asserting bit-identical
//! recovery after every step, for single-failure (XOR) and
//! double-failure (P+Q) stores on both backends.
//!
//! Reproducibility: every schedule derives from a seed. The seeds in
//! play are written to `target/fault-injection/<name>.seed` before the
//! schedule runs (CI uploads the file when the job fails), every
//! assertion message carries the seed, and `PDL_FAULT_SEED=<n>`
//! replays exactly one seed.

mod support;

use pdl_core::{DoubleParityLayout, RingLayout};
use pdl_sim::{Trace, TraceOp, Workload};
use pdl_store::{Backend, BlockStore, CachePolicy, MemBackend, Rebuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::PathBuf;
use support::replay::replay;

const UNIT: usize = 64;
const COPIES: usize = 2;
const STEPS: usize = 300;

/// Where CI picks up the seeds of a failed run.
fn seed_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/fault-injection");
    std::fs::create_dir_all(&dir).expect("create seed dir");
    dir.join(format!("{name}.seed"))
}

fn seeds_under_test() -> Vec<u64> {
    if let Ok(s) = std::env::var("PDL_FAULT_SEED") {
        vec![s.parse().expect("PDL_FAULT_SEED must be a u64")]
    } else {
        vec![0xdecaf, 7, 1234567]
    }
}

fn record_seeds(name: &str, seeds: &[u64]) {
    let body: String = seeds.iter().map(|s| format!("PDL_FAULT_SEED={s}\n")).collect();
    std::fs::write(seed_file(name), body).expect("record seeds for CI");
}

/// The harness: drives one store through a random schedule while a
/// shadow image tracks what every block must read back as.
struct Harness<B: Backend> {
    store: BlockStore<B>,
    image: Vec<Vec<u8>>,
    /// Physical disks currently serving no logical disk (spares; a
    /// rebuilt-away disk re-enters this pool).
    free: Vec<usize>,
    rng: StdRng,
    seed: u64,
    name: &'static str,
    step: usize,
}

impl<B: Backend> Harness<B> {
    fn new(store: BlockStore<B>, seed: u64, name: &'static str) -> Self {
        Self::with_cache(store, seed, name, CachePolicy::WriteThrough)
    }

    /// A harness whose store runs the schedule under `cache` — the
    /// write-back variant exercises deferred parity maintenance
    /// against the same fault schedule and the same shadow image.
    fn with_cache(store: BlockStore<B>, seed: u64, name: &'static str, cache: CachePolicy) -> Self {
        store.set_cache_policy(cache).unwrap();
        let blocks = store.blocks();
        let mapped: Vec<usize> = (0..store.v()).map(|d| store.physical_disk(d)).collect();
        let free = (0..store.backend().disks()).filter(|p| !mapped.contains(p)).collect();
        Harness {
            store,
            image: vec![vec![0u8; UNIT]; blocks],
            free,
            rng: StdRng::seed_from_u64(seed),
            seed,
            name,
            step: 0,
        }
    }

    fn ctx(&self) -> String {
        format!(
            "[{} seed {} step {} failed {:?}]",
            self.name,
            self.seed,
            self.step,
            self.store.failed_disks().as_slice()
        )
    }

    fn random_block(&mut self) -> Vec<u8> {
        let mut b = vec![0u8; UNIT];
        self.rng.fill_bytes(&mut b);
        b
    }

    fn do_write(&mut self) {
        let blocks = self.store.blocks();
        if self.rng.random_bool(0.3) {
            let len = self.rng.random_range(1..=6usize).min(blocks);
            let addr = self.rng.random_range(0..=blocks - len);
            let mut data = vec![0u8; len * UNIT];
            self.rng.fill_bytes(&mut data);
            self.store
                .write_blocks(addr, &data)
                .unwrap_or_else(|e| panic!("{} write_blocks: {e}", self.ctx()));
            for (j, chunk) in data.chunks_exact(UNIT).enumerate() {
                self.image[addr + j] = chunk.to_vec();
            }
        } else {
            let addr = self.rng.random_range(0..blocks);
            let data = self.random_block();
            self.store
                .write_block(addr, &data)
                .unwrap_or_else(|e| panic!("{} write_block: {e}", self.ctx()));
            self.image[addr] = data;
        }
    }

    fn do_read(&mut self) {
        let addr = self.rng.random_range(0..self.store.blocks());
        let mut out = vec![0u8; UNIT];
        self.store
            .read_block(addr, &mut out)
            .unwrap_or_else(|e| panic!("{} read_block({addr}): {e}", self.ctx()));
        assert_eq!(out, self.image[addr], "{} block {addr} corrupted", self.ctx());
    }

    fn do_fail(&mut self) {
        if self.store.failed_disks().len() >= self.store.fault_tolerance() {
            return;
        }
        let disk = self.rng.random_range(0..self.store.v());
        if self.store.failed_disks().contains(disk) {
            return;
        }
        // Drain the write cache before killing the medium (a deferred
        // write still assumes the disk holds its pre-write bytes),
        // then wipe: from here on, every correct byte of this disk
        // must come from the erasure decode.
        if self.store.cache_policy().is_write_back() {
            self.store.flush().unwrap_or_else(|e| panic!("{} pre-fail flush: {e}", self.ctx()));
        }
        let phys = self.store.physical_disk(disk);
        self.store.backend().wipe_disk(phys).unwrap();
        self.store.fail_disk(disk).unwrap_or_else(|e| panic!("{} fail_disk: {e}", self.ctx()));
    }

    fn do_rebuild(&mut self) {
        if !self.store.is_degraded() {
            return;
        }
        let spare = self.free.pop().expect("spare pool never empties: rebuilds recycle disks");
        let failed = self.store.failed_disk().unwrap();
        let freed = self.store.physical_disk(failed);
        let report = Rebuilder::new(2)
            .rebuild(&self.store, spare)
            .unwrap_or_else(|e| panic!("{} rebuild onto {spare}: {e}", self.ctx()));
        assert_eq!(report.failed_disk, failed);
        // The replaced physical disk is stale but rewritable: it may
        // serve as a spare for a later failure.
        self.free.push(freed);
    }

    fn check_all(&mut self) {
        let mut out = vec![0u8; UNIT];
        for addr in 0..self.store.blocks() {
            self.store
                .read_block(addr, &mut out)
                .unwrap_or_else(|e| panic!("{} full check read({addr}): {e}", self.ctx()));
            assert_eq!(out, self.image[addr], "{} full check: block {addr} differs", self.ctx());
        }
        if !self.store.is_degraded() {
            self.store.verify_parity().unwrap_or_else(|e| panic!("{} verify: {e}", self.ctx()));
        }
    }

    /// One seeded schedule: STEPS weighted random operations, a full
    /// bit-identical check every 50 steps and at the end, then drain
    /// the failure set and verify parity on the healthy array.
    fn run(mut self) {
        for step in 0..STEPS {
            self.step = step;
            match self.rng.random_range(0..100u32) {
                0..=49 => self.do_write(),
                50..=79 => self.do_read(),
                80..=89 => self.do_fail(),
                _ => self.do_rebuild(),
            }
            if step % 50 == 49 {
                self.check_all();
            }
        }
        while self.store.is_degraded() {
            self.do_rebuild();
        }
        self.check_all();
        assert!(self.store.verify_parity().is_ok(), "{} final verify", self.ctx());
    }
}

fn xor_store_mem() -> BlockStore<MemBackend> {
    let layout = RingLayout::for_v_k(7, 3).layout().clone();
    let backend = MemBackend::new(7 + 2, COPIES * layout.size(), UNIT);
    BlockStore::new(layout, backend).unwrap()
}

fn pq_store_mem() -> BlockStore<MemBackend> {
    let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
    let backend = MemBackend::new(9 + 3, COPIES * dp.layout().size(), UNIT);
    BlockStore::new_pq(dp, backend).unwrap()
}

#[test]
fn fault_schedule_xor_mem() {
    let seeds = seeds_under_test();
    record_seeds("xor_mem", &seeds);
    for seed in seeds {
        Harness::new(xor_store_mem(), seed, "xor_mem").run();
    }
}

#[test]
fn fault_schedule_pq_mem() {
    let seeds = seeds_under_test();
    record_seeds("pq_mem", &seeds);
    for seed in seeds {
        Harness::new(pq_store_mem(), seed, "pq_mem").run();
    }
}

/// The XOR schedule with write-back combining on (a small budget
/// keeps flush-by-eviction racing the fault events).
#[test]
fn fault_schedule_xor_writeback_mem() {
    let seeds = seeds_under_test();
    record_seeds("xor_wb_mem", &seeds);
    for seed in seeds {
        Harness::with_cache(
            xor_store_mem(),
            seed,
            "xor_wb_mem",
            CachePolicy::WriteBack { max_dirty: 8 },
        )
        .run();
    }
}

/// The P+Q double-failure schedule under write-back, file-backed.
#[test]
fn fault_schedule_pq_writeback_file() {
    let seeds = seeds_under_test();
    record_seeds("pq_wb_file", &seeds);
    for seed in seeds {
        let dir =
            std::env::temp_dir().join(format!("pdl-fault-pqwb-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
        let store = pdl_store::create_file_store_pq(&dir, dp, UNIT, COPIES, 3).unwrap();
        Harness::with_cache(store, seed, "pq_wb_file", CachePolicy::WriteBack { max_dirty: 8 })
            .run();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn fault_schedule_pq_file() {
    let seeds = seeds_under_test();
    record_seeds("pq_file", &seeds);
    for seed in seeds {
        let dir = std::env::temp_dir().join(format!("pdl-fault-pq-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dp = DoubleParityLayout::new(RingLayout::for_v_k(9, 4).layout().clone()).unwrap();
        let store = pdl_store::create_file_store_pq(&dir, dp, UNIT, COPIES, 3).unwrap();
        Harness::new(store, seed, "pq_file").run();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn fault_schedule_xor_file() {
    let seeds = seeds_under_test();
    record_seeds("xor_file", &seeds);
    for seed in seeds {
        let dir = std::env::temp_dir().join(format!("pdl-fault-xor-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = RingLayout::for_v_k(7, 3).layout().clone();
        let store = pdl_store::create_file_store(&dir, layout, UNIT, COPIES, 2).unwrap();
        Harness::new(store, seed, "xor_file").run();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The same fault scenarios expressed as a *trace*: scripted
/// fail/rebuild events ride along with generated block traffic and
/// replay deterministically against real bytes.
#[test]
fn fault_events_replay_from_trace_mem() {
    let store = pq_store_mem();
    let blocks = store.blocks();
    let workload = Workload { request_units: (1, 4), read_fraction: 0.4, ..Workload::default() };
    let trace = Trace::from_workload(&workload, blocks, 120, 5)
        .then(TraceOp::Fail { disk: 1 })
        .then(TraceOp::Fail { disk: 4 });
    let mut tail = Trace::from_workload(&workload, blocks, 120, 6);
    let mut ops = trace.ops;
    ops.append(&mut tail.ops);
    let trace = Trace { ops }
        .then(TraceOp::Rebuild { spare: 9 })
        .then(TraceOp::Rebuild { spare: 10 })
        .then(TraceOp::Fail { disk: 0 })
        .then(TraceOp::Restore { disk: 0 });
    let stats = replay(&store, &trace).unwrap();
    assert_eq!(stats.reads + stats.writes, 240);
    assert_eq!(stats.disks_failed, 3);
    assert_eq!(stats.rebuilds, 2);
    assert_eq!(stats.disks_restored, 1);
    assert!(!store.is_degraded());
    store.verify_parity().unwrap();

    // Determinism: the same trace on a fresh store produces the same
    // stats and identical content.
    let other = pq_store_mem();
    let stats2 = replay(&other, &trace).unwrap();
    assert_eq!(stats, stats2);
    let mut a = vec![0u8; UNIT];
    let mut b = vec![0u8; UNIT];
    for addr in 0..blocks {
        store.read_block(addr, &mut a).unwrap();
        other.read_block(addr, &mut b).unwrap();
        assert_eq!(a, b, "replays diverge at block {addr}");
    }
}
