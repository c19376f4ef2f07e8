//! Multi-threaded stress harness: N client threads of mixed
//! read/write traffic against one [`BlockStore`], with bit-exact
//! verification — optionally degraded, optionally racing a live
//! rebuild.
//!
//! The harness partitions the logical address space into one
//! contiguous region per thread. Each thread hammers its own region
//! with a seeded-random mix of single-block and batched reads and
//! writes; because regions are block-disjoint, every read can be
//! checked bit-for-bit against the expected pattern *while other
//! threads mutate neighboring blocks of the very same stripes* —
//! region boundaries (and every stripe's parity units) are shared, so
//! parity maintenance races exactly where the stripe-sharded lock
//! table has to serialize it.
//!
//! Expected content is a pure function of `(addr, salt)`
//! ([`fill_pattern`]) with one salt slot per block, so the
//! shadow image costs 8 bytes per block instead of a full copy and
//! the final sweep re-derives every byte.
//!
//! Reproducibility follows the fault-injection harness: every run
//! derives from one seed, `PDL_STRESS_SEED=<n>` replays exactly one
//! seed, `PDL_STRESS_THREADS`/`PDL_STRESS_OPS` override the shape,
//! and every panic message carries the seed.

use super::fill_pattern;
use pdl_store::{
    Backend, BlockStore, CachePolicy, EngineConfig, RebuildProgress, RebuildReport, Rebuilder,
    ReshapeDriverConfig, ReshapeReport, ScrubReport, StatsSnapshot, StoreError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How (and whether) a rebuild participates in a stress run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildMode {
    /// No rebuild: a degraded store stays degraded.
    None,
    /// Rebuild the failed disk onto the given physical spare *while*
    /// the client threads run — the write-through race the store's
    /// locking exists to win.
    Racing {
        /// Physical backend disk receiving the reconstruction.
        spare: usize,
    },
    /// Rebuild after the client threads join (so the final
    /// [`BlockStore::verify_parity`] can run on a healthy array).
    AtEnd {
        /// Physical backend disk receiving the reconstruction.
        spare: usize,
    },
    /// Grow the array *while* the client threads run: an online
    /// [`BlockStore::add_disks`] reshape races the traffic — dual
    /// writes, batch migration, and the commit flip all overlap live
    /// reads and writes.
    ReshapeAdd {
        /// How many unmapped physical spares join the array.
        added: usize,
    },
    /// Shrink the array while the client threads run: an online
    /// [`BlockStore::remove_disks`] reshape of the highest-numbered
    /// logical disks races the traffic.
    ReshapeRemove {
        /// How many of the highest-numbered logical disks leave.
        removed: usize,
    },
    /// The full background-maintenance gauntlet: a background scrub
    /// ([`BlockStore::start_scrub`], paced passes back to back) runs
    /// for the whole client phase while a reshape *driver*
    /// ([`BlockStore::drive_reshape`]) grows the array — scrub
    /// yields to reshape, both pace against the live traffic, and
    /// the final sweep still demands bit-exact content.
    BackgroundMaintenance {
        /// How many unmapped physical spares join the array.
        added: usize,
    },
}

/// Shape of a stress run.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Client threads (each owns one contiguous block region).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Master seed; thread `t` derives its RNG from `seed ^ t`.
    pub seed: u64,
    /// Largest batched read/write, in blocks.
    pub batch_max: usize,
    /// Fraction of operations that are reads (the rest write).
    pub read_fraction: f64,
    /// Fail this logical disk (and wipe its physical medium) before
    /// the threads start, so traffic runs degraded.
    pub fail_disk: Option<usize>,
    /// Whether a rebuild races the traffic, follows it, or is absent.
    pub rebuild: RebuildMode,
    /// Verify contents bit-for-bit: every read during the run, plus a
    /// whole-store sweep at the end. Disabling turns the harness into
    /// a pure traffic generator for callers that verify after
    /// quiescing their own fault schedule (an armed `FaultyBackend`
    /// corrupts the very writes the sweep would check).
    pub verify_reads: bool,
    /// Cache policy installed on the store before the run (the
    /// `PDL_CACHE` environment variable overrides it, so the CI
    /// concurrency matrix replays every schedule with write-back
    /// combining on).
    pub cache: CachePolicy,
    /// When set, the async I/O engine runs for the duration of the
    /// stress run with this configuration (started before the
    /// traffic, stopped after the verification sweep) — every hot
    /// path then goes through the per-disk submission queues. The
    /// `PDL_ENGINE` environment variable overrides it, so the CI
    /// engine matrix replays every schedule through the queues.
    pub engine: Option<EngineConfig>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 4,
            ops_per_thread: 400,
            seed: 0xdecaf,
            batch_max: 8,
            read_fraction: 0.5,
            fail_disk: None,
            rebuild: RebuildMode::None,
            verify_reads: true,
            cache: CachePolicy::WriteThrough,
            engine: None,
        }
    }
}

impl StressConfig {
    /// Applies the `PDL_STRESS_SEED` / `PDL_STRESS_THREADS` /
    /// `PDL_STRESS_OPS` / `PDL_CACHE` / `PDL_ENGINE` environment
    /// overrides (the CI
    /// concurrency matrix sets the thread count and cache policy; a
    /// failure replays with the seed).
    pub fn with_env_overrides(mut self) -> Self {
        if let Ok(s) = std::env::var("PDL_STRESS_SEED") {
            self.seed = s.parse().expect("PDL_STRESS_SEED must be a u64");
        }
        if let Ok(s) = std::env::var("PDL_STRESS_THREADS") {
            self.threads = s.parse().expect("PDL_STRESS_THREADS must be a usize");
        }
        if let Ok(s) = std::env::var("PDL_STRESS_OPS") {
            self.ops_per_thread = s.parse().expect("PDL_STRESS_OPS must be a usize");
        }
        if let Ok(s) = std::env::var("PDL_CACHE") {
            self.cache = CachePolicy::decode(&s)
                .expect("PDL_CACHE must be writethrough, writeback, or writeback:<max_dirty>");
        }
        if let Ok(s) = std::env::var("PDL_ENGINE") {
            let on: u32 = s.parse().expect("PDL_ENGINE must be 0 or 1");
            self.engine = if on != 0 { Some(EngineConfig::default()) } else { None };
        }
        self
    }
}

/// What a stress run did.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Client threads that ran.
    pub threads: usize,
    /// Read operations issued (single + batched).
    pub reads: usize,
    /// Write operations issued (single + batched).
    pub writes: usize,
    /// Blocks transferred by reads.
    pub blocks_read: usize,
    /// Blocks transferred by writes.
    pub blocks_written: usize,
    /// The rebuild's report, when one ran.
    pub rebuild: Option<RebuildReport>,
    /// The reshape's report, when a racing reshape mode ran.
    pub reshape: Option<ReshapeReport>,
    /// The background scrubber's report, when
    /// [`RebuildMode::BackgroundMaintenance`] ran.
    pub scrub: Option<ScrubReport>,
    /// The store's observability snapshot, taken after the traffic
    /// (and any rebuild and cache drain) but before the verification
    /// sweep — so its counters describe the workload, not the checker.
    pub stats: StatsSnapshot,
    /// Live [`BlockStore::rebuild_progress`] samples polled
    /// *while* a [`RebuildMode::Racing`] rebuild overlapped the
    /// traffic — each carries the per-disk read distribution, so the
    /// (k−1)/(v−1) claim is checkable mid-flight. Empty otherwise.
    pub rebuild_progress: Vec<RebuildProgress>,
}

impl StressReport {
    /// Serializes [`StressReport::stats`] as compact JSON — the
    /// `stats.json` payload the concurrency tests and CI artifacts
    /// persist.
    pub fn stats_json(&self) -> String {
        serde_json::to_string(&self.stats).expect("StatsSnapshot serializes")
    }

    /// Writes [`StressReport::stats_json`] to `path`, creating parent
    /// directories as needed.
    pub fn write_stats_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.stats_json())
    }
}

/// Per-thread traffic counters, merged into the [`StressReport`].
#[derive(Clone, Copy, Debug, Default)]
struct ThreadTally {
    reads: usize,
    writes: usize,
    blocks_read: usize,
    blocks_written: usize,
}

/// Drives `cfg.threads` client threads of seeded mixed traffic
/// against `store`, then sweeps the whole store verifying every block
/// bit-for-bit and (on a healthy array) the parity invariants. The
/// store is shared because [`RebuildMode::BackgroundMaintenance`]
/// starts a background scrub on it.
///
/// # Panics
///
/// Panics — with the seed in the message — on any content mismatch,
/// so test and CI failures are replayable via `PDL_STRESS_SEED`.
pub fn run<B: Backend + 'static>(
    shared: &Arc<BlockStore<B>>,
    cfg: &StressConfig,
) -> Result<StressReport, StoreError> {
    let store: &BlockStore<B> = shared;
    let blocks = store.blocks();
    let unit = store.unit_size();
    store.set_cache_policy(cfg.cache)?;
    // Engine session: the whole run — prefill, traffic, maintenance,
    // verification sweep — goes through the submission queues; the
    // guard stops the engine on every exit path (including seeded
    // panics) so a reused store reverts to the sync path.
    struct EngineGuard<'a, B: Backend + 'static>(&'a BlockStore<B>);
    impl<B: Backend + 'static> Drop for EngineGuard<'_, B> {
        fn drop(&mut self) {
            self.0.stop_engine();
        }
    }
    let _engine_session = cfg.engine.map(|ecfg| {
        store.start_engine(ecfg);
        EngineGuard(store)
    });
    let threads = cfg.threads.max(1).min(blocks);
    let per_region = blocks / threads;
    assert!(per_region > 0, "store too small for {threads} threads");

    // One salt slot per block: 0 = untouched, else the block reads
    // back as fill_pattern(addr, salt). Only a block's owning thread
    // stores to its slot, so relaxed atomics are plain ownership
    // hand-off, not synchronization.
    let salts: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();

    // Verification demands known content, and the store may arrive
    // with any (a reopened array, a previous run): prefill every
    // block with the seed pattern — batched full-stripe writes, off
    // the clock — so the harness is self-contained.
    if cfg.verify_reads {
        let span = 256.min(blocks);
        let mut data = vec![0u8; span * unit];
        let mut at = 0;
        while at < blocks {
            let n = span.min(blocks - at);
            for (j, chunk) in data[..n * unit].chunks_exact_mut(unit).enumerate() {
                fill_pattern(at + j, PREFILL_SALT, chunk);
            }
            store.write_blocks(at, &data[..n * unit])?;
            at += n;
        }
        for s in &salts {
            s.store(PREFILL_SALT, Ordering::Relaxed);
        }
    }

    let reshaping = matches!(
        cfg.rebuild,
        RebuildMode::ReshapeAdd { .. }
            | RebuildMode::ReshapeRemove { .. }
            | RebuildMode::BackgroundMaintenance { .. }
    );
    if let Some(disk) = cfg.fail_disk {
        // Drain the write cache before killing the medium: wiping a
        // disk that deferred writes still assume intact would feed
        // zeroes into their flush-time parity deltas. (Real failures
        // have no wipe step — `fail_disk` itself flushes first.)
        store.flush()?;
        if !reshaping {
            // Kill the medium: every correct byte of this disk must
            // come from the erasure decode from here on. Reshape modes
            // keep the medium: the engine's documented failure model
            // is *logical* failure (reads decode, but the disk's
            // target region still accepts dual writes and migration
            // output, which is what makes restore-after-commit valid)
            // — media death during a reshape is out of scope.
            store.backend().wipe_disk(store.physical_disk(disk))?;
        }
        store.fail_disk(disk)?;
    }

    let progress_samples: Mutex<Vec<RebuildProgress>> = Mutex::new(Vec::new());
    let rebuild_done = AtomicBool::new(false);
    // Background scrub: paced passes from before the first client op
    // until it is told to stop, below.
    let scrubber = match cfg.rebuild {
        RebuildMode::BackgroundMaintenance { .. } => Some(shared.start_scrub()?),
        _ => None,
    };
    // Racing work runs on scoped threads that *return* their results;
    // joining one re-raises its own panic payload — the message that
    // names the failing seed — instead of a secondhand one.
    fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
        h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
    let (tallies, rebuild, reshape) = std::thread::scope(|s| {
        let rebuild_thread = match cfg.rebuild {
            RebuildMode::Racing { spare } => {
                // Poll live rebuild progress while the rebuild overlaps
                // the traffic: each sample carries the per-disk read
                // distribution at that instant.
                let (rebuild_done, progress_samples) = (&rebuild_done, &progress_samples);
                s.spawn(move || {
                    while !rebuild_done.load(Ordering::Acquire) {
                        if let Some(p) = store.rebuild_progress() {
                            // Poison-proof: a panicking client thread
                            // must not turn into a "poisoned lock" here.
                            progress_samples.lock().unwrap_or_else(|e| e.into_inner()).push(p);
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                });
                Some(s.spawn(move || {
                    // Let the traffic threads take the field first so
                    // the rebuild genuinely races in-flight writes.
                    std::thread::sleep(Duration::from_millis(2));
                    let r = Rebuilder::default().rebuild(store, spare);
                    rebuild_done.store(true, Ordering::Release);
                    r
                }))
            }
            _ => None,
        };
        // Reshape modes: the whole reshape — begin, migration batches,
        // commit flip — starts 2 ms in, so it races in-flight writes.
        let reshape_thread = match cfg.rebuild {
            RebuildMode::ReshapeAdd { added } => Some(s.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                store.add_disks(&unmapped_spares(store, added, cfg.seed))
            })),
            RebuildMode::ReshapeRemove { removed } => Some(s.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                let v = store.v();
                store.remove_disks(&(v - removed..v).collect::<Vec<_>>())
            })),
            // Reshape driver: one-stripe steps so migration, dual
            // writes, scrub yields, and the commit flip all interleave
            // with the traffic many times over.
            RebuildMode::BackgroundMaintenance { added } => Some(s.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                store.begin_add_disks(&unmapped_spares(store, added, cfg.seed))?;
                let run = store
                    .drive_reshape(&ReshapeDriverConfig { stripes_per_step: 1, sleep_us: 200 })?;
                Ok(run.report.expect("a never-stopped driver runs to commit"))
            })),
            _ => None,
        };
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let salts = &salts;
                let lo = t * per_region;
                // The last region absorbs the remainder.
                let hi = if t + 1 == threads { blocks } else { lo + per_region };
                s.spawn(move || client_thread(store, cfg, t, lo, hi, salts))
            })
            .collect();
        let tallies: Vec<ThreadTally> = handles.into_iter().map(join).collect();
        let reshape = reshape_thread.map(join);
        if let (Some(scrubber), Some(Ok(_))) = (&scrubber, &reshape) {
            // Stop the scrubber by order, not by luck. It legitimately
            // parks for the whole reshape, so when the clients finish
            // before the commit it may not have verified a stripe yet.
            // The reshape is committed (joined above): give the
            // scrubber one post-commit batch — its cursor or pass
            // count moves — before it is stopped below. Bounded, and
            // cut short if the scrubber already ended on an error.
            let scrub_pos = || {
                let s = store.stats().integrity;
                (s.scrub_cursor, s.scrub_passes)
            };
            let (committed_at, deadline) = (scrub_pos(), Instant::now() + Duration::from_secs(30));
            while scrub_pos() == committed_at
                && !scrubber.is_finished()
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        (tallies, rebuild_thread.map(join), reshape)
    });
    // The scrubber loops until told to stop; its stop checkpoints.
    let scrub = scrubber.map(|h| {
        h.stop();
        h.join().unwrap_or_else(|e| {
            panic!("[stress seed {} threads {threads}] background scrub: {e}", cfg.seed)
        })
    });

    let rebuild = match (rebuild, cfg.rebuild) {
        (Some(raced), _) => Some(raced?),
        (None, RebuildMode::AtEnd { spare }) => Some(Rebuilder::default().rebuild(store, spare)?),
        (None, _) => None,
    };
    let reshape = reshape.map(|r| {
        r.unwrap_or_else(|e| panic!("[stress seed {} threads {threads}] reshape: {e}", cfg.seed))
    });

    // Drain the write-back cache off the clock: the final sweep then
    // verifies the *flushed* bytes end to end (combined parity
    // updates included), not just the in-memory cache contents.
    if cfg.cache.is_write_back() {
        store.flush()?;
    }

    // Snapshot the observability counters before the verification
    // sweep so the report's stats describe the workload itself.
    let stats = store.stats();

    // Final sweep: every block, bit for bit, against the pattern its
    // salt implies — then the parity invariants when the array is
    // healthy enough to check them.
    if cfg.verify_reads {
        let mut got = vec![0u8; unit];
        let mut want = vec![0u8; unit];
        for (addr, salt) in salts.iter().enumerate() {
            store.read_block(addr, &mut got)?;
            expected_block(addr, salt.load(Ordering::Relaxed), &mut want);
            assert_eq!(
                got, want,
                "[stress seed {} threads {threads}] final sweep: block {addr} corrupted",
                cfg.seed
            );
        }
    }
    if cfg.verify_reads && !store.is_degraded() {
        store.verify_parity()?;
    }

    let mut report = StressReport {
        threads,
        reads: 0,
        writes: 0,
        blocks_read: 0,
        blocks_written: 0,
        rebuild,
        reshape,
        scrub,
        stats,
        rebuild_progress: progress_samples.into_inner().unwrap_or_else(|e| e.into_inner()),
    };
    for t in tallies {
        report.reads += t.reads;
        report.writes += t.writes;
        report.blocks_read += t.blocks_read;
        report.blocks_written += t.blocks_written;
    }
    Ok(report)
}

/// The first `added` physical disks not mapped to any logical disk —
/// the spares an add-disks reshape grows onto.
fn unmapped_spares<B: Backend>(store: &BlockStore<B>, added: usize, seed: u64) -> Vec<usize> {
    let mapped: Vec<usize> = (0..store.v()).map(|d| store.physical_disk(d)).collect();
    let joining: Vec<usize> =
        (0..store.backend().disks()).filter(|p| !mapped.contains(p)).take(added).collect();
    assert_eq!(joining.len(), added, "[stress seed {seed}] not enough unmapped spares to add");
    joining
}

/// Salt of the prefill pass — below every client salt (those carry
/// the thread id in bits 40+ and the op index in bits 16+).
const PREFILL_SALT: u64 = 1;

/// The expected content of `addr` given its salt slot (0 = untouched
/// by this run; only possible with verification off).
fn expected_block(addr: usize, salt: u64, out: &mut [u8]) {
    if salt == 0 {
        out.fill(0);
    } else {
        fill_pattern(addr, salt, out);
    }
}

/// One client thread: seeded mixed traffic over its own block region
/// `[lo, hi)`, verifying every read when `cfg.verify_reads`.
fn client_thread<B: Backend>(
    store: &BlockStore<B>,
    cfg: &StressConfig,
    t: usize,
    lo: usize,
    hi: usize,
    salts: &[AtomicU64],
) -> ThreadTally {
    let unit = store.unit_size();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let mut tally = ThreadTally::default();
    let batch_max = cfg.batch_max.clamp(1, hi - lo);
    let mut buf = vec![0u8; batch_max * unit];
    let mut want = vec![0u8; unit];
    let ctx = |op: usize| format!("[stress seed {} thread {t} op {op}]", cfg.seed);
    for op in 0..cfg.ops_per_thread {
        let batched = rng.random_bool(0.3);
        let len = if batched { rng.random_range(1..=batch_max) } else { 1 };
        let addr = rng.random_range(lo..=hi - len);
        if rng.random_bool(cfg.read_fraction) {
            let out = &mut buf[..len * unit];
            store.read_blocks(addr, out).unwrap_or_else(|e| panic!("{} read: {e}", ctx(op)));
            if cfg.verify_reads {
                for (j, chunk) in out.chunks_exact(unit).enumerate() {
                    expected_block(addr + j, salts[addr + j].load(Ordering::Relaxed), &mut want);
                    assert_eq!(chunk, &want[..], "{} block {} corrupted", ctx(op), addr + j);
                }
            }
            tally.reads += 1;
            tally.blocks_read += len;
        } else {
            // Unique nonzero salts: thread in the high bits, op and
            // batch position below (batch_max is well under 2^16).
            let salt_base = ((t as u64 + 1) << 40) | ((op as u64 + 1) << 16);
            let data = &mut buf[..len * unit];
            for (j, chunk) in data.chunks_exact_mut(unit).enumerate() {
                fill_pattern(addr + j, salt_base + j as u64, chunk);
            }
            store.write_blocks(addr, data).unwrap_or_else(|e| panic!("{} write: {e}", ctx(op)));
            for j in 0..len {
                salts[addr + j].store(salt_base + j as u64, Ordering::Relaxed);
            }
            tally.writes += 1;
            tally.blocks_written += len;
        }
    }
    tally
}
